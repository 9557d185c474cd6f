"""One benchmark repetition in a fresh interpreter, as a CLI user would run it.

    python3 perfbench/rep.py --job JOB.json --launch T [--trace]

JOB.json names the config files and output directories (written by run.py).
The repetition imports fracheat, loads the configs (set-up), then calls
``fracheat.cli.main`` for each ``coeffs`` table and for ``report``, and writes
its timings, exit codes, peak RSS and, when traced, its spans to the result
path in the job.  ``--launch`` is the parent's ``time.monotonic()`` just
before it started this process, so set-up counts interpreter start-up.
"""

import time  # first, so set-up is timed from the earliest point possible

import argparse
import json
import os
import resource
import sys


def _install(tracer, cli) -> dict:
    """Wrap the names each module calls in the next; return the cached functions to read."""
    import fracheat.coefficients as coefficients
    import fracheat.montecarlo as montecarlo
    import fracheat.spectral as spectral
    import fracheat.validator as validator
    from fracheat.potentials import GaussianMixturePotential as V

    def wrap(ns, attr, work=None):
        fn = getattr(ns, attr)
        module = fn.__module__.rsplit(".", 1)[-1]
        setattr(ns, attr, tracer.wrap(fn, f"{module}.{fn.__name__}", work))

    draws = lambda a, kw, r: int(kw.get("size") or 1)
    points = lambda a, kw, r: int(r.size) * a[0].n_components
    paths = lambda a, kw, r: a[3].n_paths
    fifth = lambda a, kw, r: r.n_components if (a[1] if len(a) > 1 else kw["k"]) == 5 else 0

    for attr in ("expansion_report", "coefficient_table", "weight_A", "report_to_json", "report_to_csv"):
        wrap(cli, attr)
    wrap(validator, "estimate_heat_content", paths)
    for attr in ("partial_sum", "t2_exact", "moment_estimate", "c0k", "c3_closed", "c4_closed",
                 "c4_sos", "c5_closed", "c5_sos"):
        wrap(validator, attr)
    # the path draws only: moment_estimate's own draws count as its self time
    wrap(montecarlo, "sample_subordinator", draws)
    for attr in ("forward_transform", "apply_fractional_laplacian", "dirichlet_form", "weighted_freq_sum",
                 "weight_A", "sample_on_grid", "grid_integral", "kink_correction", "symbol_array"):
        wrap(coefficients, attr)
    for attr in ("forward_transform", "inverse_transform"):
        wrap(spectral, attr)
    cached = {name: getattr(V, name) for name in ("l1_norm", "sup_norm", "max_value")}
    cached["c_ell"] = coefficients.c_ell
    wrap(V, "evaluate", points)
    wrap(V, "fourier")
    wrap(V, "power", fifth)
    for name in ("l1_norm", "sup_norm", "max_value"):
        wrap(V, name)
    return cached


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--job", required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    with open(args.job) as fh:
        job = json.load(fh)

    import fracheat
    import fracheat.cli as cli

    for path in job["configs"]:
        cli.load_config(path)
    setup_s = time.monotonic() - args.launch
    result = {"setup_s": setup_s, "fracheat_file": os.path.abspath(fracheat.__file__), "calls": []}

    tracer = cached = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        cached = _install(tracer, cli)

    for call in job["calls"]:
        argv = call["argv"]
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            first = len(tracer.spans)
            code = tracer.call(f"cli.{call['role']}", cli.main, argv)
        entry = {"role": call["role"], "out": call["out"], "code": code, "seconds": time.perf_counter() - start}
        if tracer is not None:
            # the call's spans all close before it returns, so they follow `first`
            entry["tiled_s"] = spans.tiled_ns(tracer.spans[first:]) / 1e9
        result["calls"].append(entry)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        import numpy as np

        result["summary"] = spans.summarize(tracer.spans)
        result["caches"] = {name: list(fn.cache_info()[:2]) for name, fn in cached.items()}
        names = {n: i for i, n in enumerate(sorted({s[spans.NAME] for s in tracer.spans}))}
        threads = {t: i for i, t in enumerate(sorted({s[spans.THREAD] for s in tracer.spans}))}
        rows = np.array([[s[0], s[1], threads[s[2]], names[s[3]], *s[4:]] for s in tracer.spans], dtype=np.int64)
        # columns: id, parent, thread index, name index, start ns, end ns, work
        np.savez_compressed(job["trace"], spans=rows, names=np.array(list(names)))

    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
