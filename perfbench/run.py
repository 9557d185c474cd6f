"""fracheat benchmark: wall time of `fracheat coeffs` and `fracheat report`, per layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Every repetition is a fresh interpreter (``rep.py``), because a
CLI user's caches always start cold: it imports fracheat, loads the config,
calls ``fracheat.cli.main`` for the workload's coefficient tables and then
for ``report``.  Repetitions run one after another (a closed loop with one
caller) until the next one would end after S seconds; at least MIN_REPS run.
Medians over repetitions are reported.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics (spans from
``spans.py``).  Outputs are checked on every repetition; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Everything the run writes goes under
``.bench_work/`` in the checkout: configs and CLI outputs in a directory
removed at the end, results and span files under ``results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
MIN_REPS = 3
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 150
REPS_CAP_S = 110  # keeps a run inside its 180 s limit on a slow machine
ROUTE_RTOL = 1e-5
SOS_ATOL = 1e-8
# fracheat gives each BoundCheck 3 (or 4) se of slack, a false-alarm rate of
# about 0.3% per check.  Two sets of ten runs per workload examine ~10^4
# checks, so the benchmark judges them at 5 se: a Gaussian estimate then
# raises a false alarm about once in 10^3 such evaluations.  The program's own
# misses are still counted and printed.
BOUND_SE_MULT = 5.0

END_TO_END = {
    "setup_s": "s",
    "cli_s": "s",
    "report_s": "s",
    "work_var": "s.se2",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "sampling.subordinator_s": "s",
    "sampling.draws": "count",
    "sampling.ns_per_draw": "ns",
    "sampling.self_s": "s",
    "sampling.moment_s": "s",
    "potentials.evaluate_s": "s",
    "potentials.evaluate_calls": "count",
    "potentials.ns_per_point_component": "ns",
    "potentials.l1_norm_s": "s",
    "potentials.sup_norm_s": "s",
    "potentials.norm_cache_hits": "count",
    "potentials.fourier_s": "s",
    "potentials.power_s": "s",
    "potentials.power5_components": "count",
    "potentials.self_s": "s",
    "spectral.self_s": "s",
    "spectral.transform_calls": "count",
    "coefficients.table_s": "s",
    "coefficients.self_s": "s",
    "coefficients.c_ell_hit_ratio": "ratio",
    "simplex.self_s": "s",
    "simplex.weight_calls": "count",
    "montecarlo.self_s": "s",
    "montecarlo.paths_per_s": "1/s",
    "montecarlo.thread_speedup": "ratio",
    "montecarlo.max_abs_z": "z",
    "validator.self_s": "s",
    "cli.self_s": "s",
    "cli.coeffs_s": "s",
    "trace_overhead_s": "s",
}
MODULES = ("potentials", "simplex", "spectral", "coefficients", "sampling", "montecarlo", "validator", "cli")


class BenchError(RuntimeError):
    pass


class Checks:
    """Correctness operations: each is attempted once and passes or fails."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.program_misses = 0  # BoundChecks failed at the program's own 3-4 se slack

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- children ------------------------------------------------------------------------


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


class Written(NamedTuple):
    """A plan with its configs on disk: coeffs (path, with_weights) pairs, the report path, all paths."""

    plan: workloads.Plan
    coeffs: list[tuple[str, bool]]
    report: str
    configs: list[str]


class Runner:
    """Writes a run's configs and starts its repetitions in fresh interpreters."""

    def __init__(self, workload: str, seed: int, workdir: Path, trace_dir: Path, tag: str) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.trace_dir = trace_dir
        self.tag = tag
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.plans: dict[int, Written] = {}

    def plan(self, index: int) -> Written:
        """The plan for the index-th seed of this run, with its configs written to disk."""
        if index not in self.plans:
            plan = workloads.build(self.workload, workloads.rep_seed(self.seed, index))
            paths: dict[str, str] = {}

            def config_path(cfg: dict) -> str:
                key = json.dumps(cfg, sort_keys=True)
                if key not in paths:
                    paths[key] = _write_json(self.workdir / f"config-{index}-{len(paths)}.json", cfg)
                return paths[key]

            coeffs = [(config_path(cfg), weights) for cfg, weights in plan.coeffs]
            report = config_path(plan.report)
            self.plans[index] = Written(plan, coeffs, report, list(paths.values()))
        return self.plans[index]

    def _job(self, index: int, calls: list[tuple[str, list[str]]], traced: bool) -> dict:
        self.count += 1
        rep = self.workdir / f"rep-{self.count}"
        rep.mkdir()
        job = {"configs": self.plan(index).configs, "result": str(rep / "result.json"), "calls": []}
        if traced:
            job["trace"] = str(self.trace_dir / f"{self.tag}-spans{self.count}.npz")
        for i, (role, argv) in enumerate(calls):
            out = str(rep / f"{role}-{i}")
            job["calls"].append({"role": role, "argv": argv + ["--out", out], "out": out})
        return job

    def setup_only(self) -> dict:
        return self.start(self._job(0, [], False), 0)

    def full(self, index: int, traced: bool, repeat: bool = False) -> dict:
        """coeffs tables, then report; with repeat, the report runs again untimed in the same process."""
        written = self.plan(index)
        calls = [("coeffs", ["coeffs", "--config", p] + (["--weights"] if w else [])) for p, w in written.coeffs]
        report = written.report
        calls.append(("report", ["report", "--config", report]))
        if repeat:
            calls.append(("report_repeat", ["report", "--config", report]))
        return self.start(self._job(index, calls, traced), index, traced)

    def threads_probe(self, traced: bool) -> dict:
        calls = [("report_threads2", ["report", "--config", self.plan(0).report, "--threads", "2"])]
        return self.start(self._job(0, calls, traced), 0, traced)

    def start(self, job: dict, index: int, traced: bool = False) -> dict:
        job_path = Path(job["result"]).with_name("job.json")
        _write_json(job_path, job)
        cmd = [sys.executable, str(HERE / "rep.py"), "--job", str(job_path)]
        if traced:
            cmd.append("--trace")
        launch = time.monotonic()
        proc = subprocess.run(
            cmd + ["--launch", repr(launch)],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        wall = time.monotonic() - launch
        if proc.returncode != 0:
            raise BenchError(f"repetition exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
        result = json.loads(Path(job["result"]).read_text())
        result.update(wall_s=wall, traced=traced, seed_index=index, trace=job.get("trace"))
        return result


# -- correctness ---------------------------------------------------------------------


def _call(rep: dict, role: str) -> dict:
    return next(c for c in rep["calls"] if c["role"] == role)


def report_doc(rep: dict, role: str = "report") -> dict:
    return json.loads((Path(_call(rep, role)["out"]) / "report.json").read_text())


def estimates_key(doc: dict) -> str:
    """Canonical text of every (t, estimate, se); equal text means bit-identical floats."""
    return json.dumps([[r["t"], r["estimate"], r["standard_error"]] for r in doc["rows"]])


def route_gaps(entries: dict[str, float]) -> dict[int, float]:
    """Relative gap between closed C_l and sum_{n+k=l} (1/n!) C(n,k), l = 3..5 (d = 1 tables)."""
    gaps = {}
    for ell in (3, 4, 5):
        fourier = sum(entries[f"C({ell - k},{k})"] / math.factorial(ell - k) for k in range(2, ell + 1))
        closed = entries[f"C{ell}"]
        gaps[ell] = abs(closed - fourier) / abs(closed)
    return gaps


def within(check: dict, se_mult: float) -> bool:
    """Whether a report's BoundCheck holds with slack se_mult standard errors."""
    slack = se_mult * check["se"]
    lower, upper = check["lower"], check["upper"]
    return (lower is None or check["value"] >= lower - slack) and (upper is None or check["value"] <= upper + slack)


def check_rep(rep: dict, checks: Checks, src: Path) -> None:
    checks.check(Path(rep["fracheat_file"]).is_relative_to(src), f"fracheat imported from {rep['fracheat_file']}")
    for call in rep["calls"]:
        out = Path(call["out"])
        if call["role"] == "coeffs":
            checks.check(call["code"] == 0, f"fracheat coeffs exited with {call['code']}")
            doc = json.loads((out / "coeffs.json").read_text())
            entries = {label: e["value"] for label, e in doc["entries"].items()}
            tag = f"alpha={doc['alpha']} d={doc['dimension']}"
            if doc["dimension"] == 1:
                for ell, gap in route_gaps(entries).items():
                    checks.check(gap <= ROUTE_RTOL, f"C{ell} closed vs fourier gap {gap:.2e} ({tag})")
            sos = abs(entries["C4"] - entries["C4_sos"])
            checks.check(sos <= SOS_ATOL, f"|C4 - C4_sos| = {sos:.2e} ({tag})")
        else:
            verdicts = [c for row in json.loads((out / "report.json").read_text())["rows"] for c in row["checks"]]
            missed = sum(not c["passed"] for c in verdicts)
            # exit code 1 means "a check failed": it must agree with report.json
            checks.check(call["code"] == (1 if missed else 0), f"fracheat report exited with {call['code']}")
            if call["role"] == "report_repeat":
                continue
            checks.program_misses += missed
            for c in verdicts:
                checks.check(within(c, BOUND_SE_MULT),
                             f"bound check {c['name']} misses by more than {BOUND_SE_MULT:g} se (se {c['se']:.3e})")


# -- metrics -------------------------------------------------------------------------


def work_var(report_s: float, docs: list[dict]) -> float:
    """Work-normalised variance: seconds times the mean over t of se_t^2.

    docs are reports of distinct seeds; the median over them of the mean
    se^2 is used, since se^2 of a heavy-tailed estimator varies from seed
    to seed.
    """
    mean_se2 = [sum(r["standard_error"] ** 2 for r in d["rows"]) / len(d["rows"]) for d in docs]
    return report_s * statistics.median(mean_se2)


def max_abs_z(doc: dict) -> float:
    """max over t of |Q_mc - partial_sum(N = n_max)| / se."""
    n = str(doc["n_max"])
    return max(abs(r["estimate"] - r["partial_sums"][n]) / r["standard_error"] for r in doc["rows"])


def _median_call(reps: list[dict], role: str) -> float:
    return statistics.median(sum(c["seconds"] for c in r["calls"] if c["role"] == role) for r in reps)


def distinct_seed_docs(reps: list[dict]) -> list[dict]:
    first = {}
    for rep in reps:
        first.setdefault(rep["seed_index"], rep)
    return [report_doc(rep) for rep in first.values()]


def end_to_end(reps: list[dict], setups: list[float]) -> dict:
    report_s = _median_call(reps, "report")
    return {
        "setup_s": statistics.median(setups),
        "cli_s": statistics.median(
            sum(c["seconds"] for c in r["calls"] if c["role"] in ("coeffs", "report")) for r in reps
        ),
        "report_s": report_s,
        "work_var": work_var(report_s, distinct_seed_docs(reps)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }


def layer_metrics(rep: dict) -> dict:
    """Per-layer figures of one traced repetition."""
    names = rep["summary"]["names"]
    own = rep["summary"]["module_self_ns"]
    caches = rep["caches"]

    def get(name, key="ns"):
        return names.get(name, {}).get(key, 0)

    def per(num, den):
        return num / den if den else 0.0

    sub_ns, draws = get("sampling.sample_subordinator"), get("sampling.sample_subordinator", "work")
    ev_ns, ev_work = get("potentials.evaluate"), get("potentials.evaluate", "work")
    mc_ns, paths = get("montecarlo.estimate_heat_content"), get("montecarlo.estimate_heat_content", "work")
    hits, misses = caches["c_ell"]
    out = {
        "sampling.subordinator_s": sub_ns / 1e9,
        "sampling.draws": draws,
        "sampling.ns_per_draw": per(sub_ns, draws),
        "potentials.evaluate_s": ev_ns / 1e9,
        "potentials.evaluate_calls": get("potentials.evaluate", "calls"),
        "potentials.ns_per_point_component": per(ev_ns, ev_work),
        "potentials.l1_norm_s": get("potentials.l1_norm") / 1e9,
        "potentials.sup_norm_s": get("potentials.sup_norm") / 1e9,
        "potentials.norm_cache_hits": sum(caches[n][0] for n in ("l1_norm", "sup_norm", "max_value")),
        "potentials.fourier_s": get("potentials.fourier") / 1e9,
        "potentials.power_s": get("potentials.power") / 1e9,
        "potentials.power5_components": get("potentials.power", "work_max"),
        "spectral.transform_calls": get("spectral.forward_transform", "calls")
        + get("spectral.inverse_transform", "calls"),
        "coefficients.table_s": get("coefficients.coefficient_table") / 1e9,
        "coefficients.c_ell_hit_ratio": per(hits, hits + misses),
        "simplex.weight_calls": get("simplex.weight_A", "calls"),
        "montecarlo.paths_per_s": per(paths * 1e9, mc_ns),
        # validator calls it, but it is sampling's code: its time is sampling's self time
        "sampling.moment_s": get("sampling.moment_estimate") / 1e9,
    }
    for module in MODULES:
        out[f"{module}.self_s"] = own.get(module, 0) / 1e9
    return out


def estimate_ns(rep: dict) -> int:
    return rep["summary"]["names"].get("montecarlo.estimate_heat_content", {}).get("ns", 0)


def per_layer(traced: list[dict], untraced: list[dict], threads_probe: dict | None) -> dict:
    figures = [layer_metrics(r) for r in traced]
    out = {name: statistics.median(f[name] for f in figures) for name in figures[0]}
    # one-thread estimate time over that of the two-thread probe; 1 without a probe
    out["montecarlo.thread_speedup"] = (
        statistics.median(estimate_ns(r) for r in traced) / estimate_ns(threads_probe) if threads_probe else 1.0
    )
    out["montecarlo.max_abs_z"] = statistics.median(max_abs_z(d) for d in distinct_seed_docs(traced))
    out["cli.coeffs_s"] = _median_call(untraced, "coeffs")
    out["trace_overhead_s"] = _median_call(traced, "report") - _median_call(untraced, "report")
    return out


def tiling_note(traced: list[dict], untraced: list[dict], metrics: dict) -> str:
    """How the traced reports' module self times compare with the untraced report_s.

    The self times tile each traced call by construction (``spans.tiled_ns``);
    what they miss of the untraced report_s is the tracing overhead.
    """
    tiled = statistics.median(_call(r, "report")["tiled_s"] for r in traced)
    plain = _median_call(untraced, "report")
    return (f"tiling: module self times of the traced report, less thread overlap, {tiled:.4f} s; "
            f"untraced report_s {plain:.4f} s; difference {tiled - plain:+.4f} s; "
            f"trace_overhead_s {metrics['trace_overhead_s']:+.4f} s")


# -- run -----------------------------------------------------------------------------


def environment(workload: str, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
    }


def measure(runner: Runner, seconds: float, trace: bool, checks: Checks) -> dict:
    """Repetitions until the next would end after `seconds`, at least MIN_REPS.

    Untraced, repetition j runs the j-th seed of the run, and the first
    repeats its report in the same process.  Traced, repetitions alternate
    untraced and traced in pairs on one seed, so each pair also checks that
    a fresh process, with tracing on, reproduces the estimates.
    """
    src = (ROOT / "src").resolve()
    runner.setup_only()  # untimed: compiles bytecode and warms the file cache
    start = time.monotonic()
    reps = []
    while True:
        j = len(reps)
        is_traced = trace and j % 2 == 1
        rep = runner.full(j // 2 if trace else j, is_traced, repeat=not trace and j == 0)
        check_rep(rep, checks, src)
        reps.append(rep)
        # the next repetition (traced: the next pair) should take as long as the last
        if trace:
            if j % 2 == 0:
                continue
            upcoming, enough = reps[-1]["wall_s"] + reps[-2]["wall_s"], True
        else:
            upcoming, enough = rep["wall_s"], j + 1 >= MIN_REPS
        end = time.monotonic() - start + upcoming
        if (enough and end > seconds) or end > REPS_CAP_S:
            break
    first = estimates_key(report_doc(reps[0]))
    if trace:
        for a, b in zip(reps[::2], reps[1::2]):
            checks.check(estimates_key(report_doc(a)) == estimates_key(report_doc(b)),
                         "a traced rerun gave different estimates")
    else:
        checks.check(estimates_key(report_doc(reps[0], "report_repeat")) == first,
                     "a repeated report gave different estimates")
    threads_probe = None
    if runner.plan(0).plan.threads_probe:
        threads_probe = runner.threads_probe(trace)
        check_rep(threads_probe, checks, src)
        checks.check(
            estimates_key(report_doc(threads_probe, "report_threads2")) == first,
            "threads = 2 estimates differ from threads = 1",
        )
    if trace:
        traced = [r for r in reps if r["traced"]]
        untraced = [r for r in reps if not r["traced"]]
        metrics = per_layer(traced, untraced, threads_probe)
        return {"metrics": metrics, "reps": reps, "notes": [tiling_note(traced, untraced, metrics)]}
    probes = [runner.setup_only() for _ in range(SETUP_PROBES)]
    for p in probes:
        check_rep(p, checks, src)
    setups = [r["setup_s"] for r in reps + probes]
    return {"metrics": end_to_end(reps, setups), "reps": reps + probes, "notes": []}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fracheat" / "cli.py").is_file():
        print(f"benchmark error: no fracheat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = WORK / f"run-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True)
    checks = Checks()
    try:
        out = measure(Runner(args.workload, args.seed, workdir, results, tag), args.seconds, bool(args.trace), checks)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args.workload, args.seed)
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    print("# env " + json.dumps(env, sort_keys=True))
    for i, rep in enumerate(out["reps"]):
        times = " ".join(f"{c['role']}={c['seconds']:.4f}s" for c in rep["calls"])
        print(f"# rep {i} seed_index={rep['seed_index']} traced={int(rep['traced'])} setup={rep['setup_s']:.4f}s {times} rss={rep['peak_rss_mb']:.1f}MB")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for note in out["notes"]:
        print(f"# {note}")
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    print(f"# fail_frac {len(checks.failures) / checks.attempted:.6g} ({len(checks.failures)}/{checks.attempted})")
    print(f"# bound checks failed at fracheat's own 3-4 se slack: {checks.program_misses}")
    record = {
        "env": env,
        "plan": asdict(workloads.build(args.workload, args.seed)),
        "metrics": metrics,
        "attempted": checks.attempted,
        "failures": checks.failures,
        "program_misses": checks.program_misses,
        "reps": [{k: v for k, v in r.items() if k != "summary"} for r in out["reps"]],
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    summary = {
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
