"""Run the benchmark on every workload, untraced and traced, and print every metric.

    python3 perfbench/suite.py [--workloads a,b] [--seeds 1,2,3]

Defaults: every workload in BENCHMARK.json and seeds 1, 2 and 3.  For each
workload and seed it makes one untraced run (the end-to-end metrics) and one
traced run (the per-layer metrics), each of BENCHMARK.json's run_seconds,
and prints every metric by name and unit.  Then, per workload and
end-to-end metric, it prints the median over the seeds and the quartile
spread (Q3 - Q1) / median, as ``statistics.quantiles(n=4)`` gives them,
next to the metric's bound.  Exits 1 if a run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds.split(","):
            for trace in (0, 1):
                cmd = bench["command"] + ["--workload", workload, "--seed", seed,
                                          "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
                start = time.monotonic()
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                wall = time.monotonic() - start
                if proc.returncode != 0:
                    print(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                    ok = False
                    continue
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                ok &= result["correct"]
                print(f"{workload} seed {seed} trace {trace}: wall={wall:.1f}s correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", flush=True)
                for name, m in result["metrics"].items():
                    print(f"  {name} {m['value']:.6g} {m['unit']}")
                    if trace == 0:
                        values.setdefault(name, []).append(m["value"])
                        units[name] = m["unit"]
        for name, vals in values.items():
            med = statistics.median(vals)
            text = f"spread {spread(vals):.4f}" if len(vals) > 1 and med else "spread n/a"
            print(f"  {workload} {name} median {med:.6g} {units[name]} {text} bound {bounds[name]}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
