"""Tests of the benchmark's own arithmetic.  Run: python3 -m pytest perfbench"""

import json
import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
import spans
import workloads

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def span(sid, parent, thread, name, start, end, work=0):
    return (sid, parent, thread, name, start, end, work)


def test_self_time_subtracts_union_of_overlapping_thread_children():
    tree = [
        span(1, 0, 0, "montecarlo.estimate", 0, 100),
        span(2, 1, 1, "sampling.draw", 10, 60),
        span(3, 1, 2, "potentials.evaluate", 30, 80),
        span(4, 2, 1, "potentials.evaluate", 20, 40),
    ]
    own, overlap = spans.self_times(tree)
    # the children cover [10, 80): 70 ns, not their summed 100 ns
    assert own == {1: 30, 2: 30, 3: 50, 4: 20}
    assert overlap == {1: 30, 2: 0, 3: 0, 4: 0}
    summary = spans.summarize(tree)
    assert summary["module_self_ns"] == {"montecarlo": 30, "sampling": 30, "potentials": 70}
    assert summary["names"]["potentials.evaluate"]["calls"] == 2
    assert summary["names"]["potentials.evaluate"]["ns"] == 70


def test_union_of_touching_nested_and_disjoint_intervals():
    assert spans._union_ns([]) == 0
    assert spans._union_ns([(0, 10), (10, 20)]) == 20
    assert spans._union_ns([(0, 10), (2, 5)]) == 10
    assert spans._union_ns([(5, 6), (0, 1)]) == 2


def test_self_times_less_thread_overlap_tile_the_root():
    tree = [
        span(1, 0, 0, "cli.report", 0, 100),
        span(2, 1, 0, "montecarlo.estimate", 5, 95),
        span(3, 2, 1, "potentials.evaluate", 10, 60),
        span(4, 2, 2, "potentials.evaluate", 20, 90),
    ]
    own, _ = spans.self_times(tree)
    # two threads overlap on [20, 60), so the self times count 40 ns twice
    assert sum(own.values()) == 140
    assert spans.tiled_ns(tree) == 100


def test_tracer_parents_pool_threads_to_the_open_span():
    tracer = spans.Tracer()
    inner = tracer.wrap(lambda n: sum(range(n)), "sampling.inner", work=lambda a, kw, r: a[0])

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, [20000] * 6))

    tracer.call("cli.report", tracer.wrap(outer, "montecarlo.outer"))
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[spans.NAME], []).append(s)
    (root,) = by_name["cli.report"]
    (mid,) = by_name["montecarlo.outer"]
    assert root[spans.PARENT] == 0 and mid[spans.PARENT] == root[spans.ID]
    assert all(s[spans.PARENT] == mid[spans.ID] for s in by_name["sampling.inner"])
    assert {s[spans.THREAD] for s in by_name["sampling.inner"]} - {threading.get_ident()}
    assert spans.tiled_ns(tracer.spans) == root[spans.END] - root[spans.START]
    assert spans.summarize(tracer.spans)["names"]["sampling.inner"]["work"] == 6 * 20000


def test_tracer_records_a_span_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("cli.report", boom)
    assert len(tracer.spans) == 1 and tracer._stack() == []


def _doc(rows, n_max=5):
    return {"n_max": n_max, "rows": rows}


def test_work_var_is_seconds_times_mean_squared_se():
    doc = _doc([{"standard_error": 0.1}, {"standard_error": 0.3}])
    assert run.work_var(2.0, [doc]) == pytest.approx(2.0 * (0.01 + 0.09) / 2, rel=1e-15)


def test_work_var_takes_the_median_over_seeds():
    docs = [_doc([{"standard_error": se}]) for se in (1.0, 2.0, 100.0)]
    assert run.work_var(1.0, docs) == 4.0


def test_max_abs_z_uses_the_highest_order_partial_sum():
    rows = [
        {"estimate": 1.0, "standard_error": 0.5, "partial_sums": {"5": 2.0, "1": 1.0}},
        {"estimate": -1.0, "standard_error": 1.0, "partial_sums": {"5": 0.5, "1": -1.0}},
    ]
    assert run.max_abs_z(_doc(rows)) == 2.0


def test_estimates_key_tells_apart_floats_that_differ_in_the_last_bit():
    a = _doc([{"t": 0.1, "estimate": 0.3, "standard_error": 1e-3}])
    b = _doc([{"t": 0.1, "estimate": math.nextafter(0.3, 1.0), "standard_error": 1e-3}])
    assert run.estimates_key(a) == run.estimates_key(json.loads(json.dumps(a)))
    assert run.estimates_key(a) != run.estimates_key(b)


def test_route_gaps_sum_the_fourier_terms_with_factorials():
    cnk = {(0, 2): 0.0, (1, 2): 1.0, (0, 3): 2.0, (2, 2): 4.0, (1, 3): 1.0, (0, 4): 3.0,
           (3, 2): 6.0, (2, 3): 2.0, (1, 4): 1.0, (0, 5): 1.0}
    entries = {f"C({n},{k})": v for (n, k), v in cnk.items()}
    entries.update({"C3": 3.0, "C4": 6.0, "C5": 4.0 * (1 + 1e-6)})
    gaps = run.route_gaps(entries)
    assert gaps[3] == 0.0 and gaps[4] == 0.0
    assert gaps[5] == pytest.approx(1e-6 / (1 + 1e-6), rel=1e-9)


def test_within_widens_both_finite_bounds_by_se_mult():
    check = {"value": 1.0, "lower": -0.5, "upper": 0.5, "se": 0.1}
    assert not run.within(check, 4.9) and run.within(check, 5.0)
    assert run.within(dict(check, value=-1.0), 5.0) and not run.within(dict(check, value=-1.01), 5.0)
    assert run.within({"value": 1e9, "lower": 0.0, "upper": None, "se": 0.0}, 5.0)
    assert not run.within({"value": -1e-9, "lower": 0.0, "upper": None, "se": 0.0}, 5.0)


def test_checks_count_attempts_and_failures():
    checks = run.Checks()
    checks.check(True, "a")
    checks.check(False, "b")
    assert (checks.attempted, checks.failures) == (2, ["b"])


def test_metric_names_and_units_are_well_formed():
    for table in (run.END_TO_END, run.PER_LAYER):
        for name, unit in table.items():
            assert NAME.fullmatch(name), name
            assert UNIT.fullmatch(unit), unit
    assert not set(run.END_TO_END) & set(run.PER_LAYER)
    for module in run.MODULES:
        assert f"{module}.self_s" in run.PER_LAYER


def test_benchmark_json_matches_the_runner():
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_workloads_put_the_seed_in_mc_seed_only():
    for name in workloads.WORKLOADS:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        assert a.report["mc"]["seed"] == 1 and b.report["mc"]["seed"] == 2
        b.report["mc"]["seed"] = 1
        assert a.report == b.report
    assert workloads.build("readme-a1.5", -1).report["mc"]["seed"] == 2**64 - 1
