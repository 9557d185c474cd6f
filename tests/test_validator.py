import json
import math

import numpy as np
import pytest

import fracheat.coefficients as coefficients
import fracheat.montecarlo as montecarlo
import fracheat.validator as validator
from fracheat import (
    McConfig,
    estimate_heat_content,
    expansion_report,
    fit_remainder_order,
    gaussian,
    mixture,
    partial_sum,
    positivity_audit,
    report_to_csv,
    report_to_json,
)


def test_fit_recovers_exact_power_law():
    ts = np.geomspace(1e-3, 1e-1, 8)
    fit = fit_remainder_order(ts, 3.7 * ts**3, np.zeros(8))
    assert abs(fit.slope - 3.0) < 1e-9
    assert fit.r_squared > 1 - 1e-12
    assert fit.n_used == 8
    assert fit.excluded == ()


def test_fit_tolerates_small_perturbations():
    ts = np.geomspace(1e-3, 1e-1, 10)
    rng = np.random.default_rng(0)
    res = 2.0 * ts**3 * (1.0 + 0.02 * rng.standard_normal(10))
    fit = fit_remainder_order(ts, res, ses=1e-3 * ts**3 / 5)
    assert 2.9 < fit.slope < 3.1


def test_fit_noise_gate_excludes_drowned_points():
    ts = np.geomspace(1e-3, 1e-1, 8)
    res = 1.0 * ts**2
    ses = np.full(8, 1e-12)
    ses[0] = res[0]  # only 5 se clearance counts as signal
    fit = fit_remainder_order(ts, res, ses=ses)
    assert fit.n_used == 7
    assert fit.excluded == (0,)
    assert abs(fit.slope - 2.0) < 1e-6


def test_fit_validation():
    with pytest.raises(ValueError):
        fit_remainder_order([0.1, 0.2, 0.3], [1, 2, 3], [0, 0, 0])  # too few times
    with pytest.raises(ValueError):
        fit_remainder_order([0.1, 0.2, 0.3, 0.5], [1, 2, 3, 4], [0, 0, 0, 0])  # under a decade
    ts = np.geomspace(1e-3, 1e-1, 6)
    with pytest.raises(ValueError):
        fit_remainder_order(ts, np.zeros(6), np.zeros(6))  # nothing clears the gate
    with pytest.raises(ValueError):
        fit_remainder_order(ts, ts**2, ses=np.full(6, 1e6))
    # a time is a finite real number: string times were once fitted (slope 2) and a bool ran as 1.0
    for times in (["0.01", "0.1", "1", "10"], [True, 0.1, 0.01, 0.001]):
        with pytest.raises(ValueError, match="t_list must hold positive finite real numbers"):
            fit_remainder_order(times, [1e-4, 1e-2, 1.0, 100.0], [0.0] * 4)


def test_positivity_audit_nonnegative(grid1):
    v = mixture([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])
    for alpha in (1.0, 1.5, 2.0):
        records = positivity_audit(v, grid1, alpha)
        assert all(r.ok for r in records)
        required = {r.label for r in records if r.required}
        assert {"C2 >= 0", "C3 >= 0", "C4 >= 0", "C5 >= 0"} <= required


def test_positivity_audit_signed(grid1):
    v = mixture([0.8, -0.3], [-0.5, 0.7], [1.5, 0.6])
    records = positivity_audit(v, grid1, 1.5)
    assert all(r.ok for r in records)
    by_label = {r.label: r for r in records}
    assert by_label["C2 >= 0"].required and by_label["C4 >= 0"].required
    assert not by_label["C3 >= 0"].required  # reported, not asserted, for signed V
    assert not by_label["C5 >= 0"].required


def test_expansion_report_sorts_times_and_shares_one_seed(unit_gaussian):
    cfg = McConfig(n_paths=1000, seed=2**64 - 1)
    report = expansion_report(unit_gaussian, 1.5, [0.2, 0.05, 0.1, 0.5], cfg)
    assert [row.t for row in report.rows] == [0.05, 0.1, 0.2, 0.5]
    for row in report.rows:
        # every time reads the series' own seed, the largest one here
        lone = estimate_heat_content(unit_gaussian, 1.5, row.t, cfg)
        assert (row.estimate, row.standard_error) == (lone.mean, lone.standard_error)
    with pytest.raises(ValueError):
        expansion_report(unit_gaussian, 1.5, [], cfg)


def test_report_reaches_the_estimator_once_per_series(monkeypatch, unit_gaussian):
    # the benchmark's tracer wraps validator.estimate_heat_content by name and
    # counts a call's paths as its fourth positional argument's n_paths; the
    # estimator reads the times as given, and the report orders its rows by t
    calls = []
    real = validator.estimate_heat_content

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(validator, "estimate_heat_content", recorded)
    cfg = McConfig(n_paths=1000, seed=5)
    report = expansion_report(unit_gaussian, 1.5, [0.2, 0.02, 0.1, 0.05], cfg)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert kwargs == {} and len(args) == 4
    assert list(args[2]) == [0.2, 0.02, 0.1, 0.05] and isinstance(args[3], McConfig) and args[3].n_paths == 1000
    assert [r.t for r in report.rows] == [0.02, 0.05, 0.1, 0.2]


def test_report_integrates_each_t2_once(monkeypatch):
    # the estimator's control variate and the exact-t2 row read one cached T_2
    # per time, and one call gives E c at every time: T_3's rule for c'' in
    # d = 1, one pair integral of (V^2, V) for c' in d = 3 at alpha < 2, where
    # T_3 has no rule and none runs; one evaluation of T_3 decides every time
    calls, t3_calls = [], []
    real, real_t3 = coefficients._pair_integral, montecarlo._t3_converged

    def counted(*args):
        calls.append(args[:2])
        return real(*args)

    def counted_t3(*args):
        t3_calls.append(args)
        return real_t3(*args)

    monkeypatch.setattr(coefficients, "_pair_integral", counted)
    monkeypatch.setattr(montecarlo, "_t3_converged", counted_t3)
    for d in (1, 3):
        calls.clear(), t3_calls.clear()
        v = gaussian(weight=-0.7, center=(0.0,) * d)
        coefficients.t2_exact.cache_clear()
        expansion_report(v, 1.5, [0.02, 0.05, 0.1, 0.2], McConfig(n_paths=1000))
        assert sum(p is q is v for p, q in calls) == 4
        assert [(p, q) for p, q in calls if p is not q] == ([] if d == 1 else [(v.power(2), v)])
        assert len(t3_calls) == 1


def test_theorem1_part_i_requires_nonpositive_potential():
    # the report builds the sandwich rows for V <= 0 only
    cfg = McConfig(n_paths=1000)
    # V(0) = -1 at the only center, but sup V = 1/8 away from it
    signed = mixture([-2.0, 1.0], [0.0, 0.0], [1.0, 0.5])
    for v, rows in ((gaussian(), 0), (signed, 0), (gaussian(weight=-1.0), 2)):
        report = expansion_report(v, 2.0, [0.1], cfg)
        assert sum("sandwich" in c.name for c in report.rows[0].checks) == rows


def test_theorem1_zero_potential_is_trivially_tight():
    z = mixture([], [], [], dimension=1)
    report = expansion_report(z, 1.5, [0.05, 0.1], McConfig(n_paths=1000))
    checks = [c for row in report.rows for c in row.checks]
    assert all(c.passed for c in checks)
    assert all(c.value == 0.0 and c.se == 0.0 for c in checks)


def test_report_of_an_odd_potential_checks_a_zero_t3_control():
    # E c' = 0 for an odd V; its t3 control rows read the paths' mean of c'
    v = mixture([1.0, -1.0], [1.0, -1.0], [1.0, 1.0])
    report = expansion_report(v, 1.5, [0.05, 0.1], McConfig(n_paths=4096, seed=3))
    rows = [c for row in report.rows for c in row.checks if c.name.startswith("t3 control")]
    assert len(rows) == 2 and all(c.passed and c.se > 0.0 for c in rows)


def test_theorem1_statistical_run():
    v = gaussian(weight=-1.0)
    report = expansion_report(v, 2.0, [0.05, 0.1], McConfig(n_paths=120_000, seed=2))
    checks = [c for row in report.rows for c in row.checks if c.name.startswith("first-order")]
    assert len(checks) == 6  # sandwich pair + remainder, per time
    assert all(c.passed for c in checks)
    assert all(c.margin > 0 for c in checks)


def test_theorem2_statistical_run():
    v = gaussian()
    report = expansion_report(v, 1.5, [0.05, 0.1], McConfig(n_paths=100_000, seed=3), gamma=0.5)
    checks = [c for row in report.rows for c in row.checks if c.name.startswith("second-order")]
    assert len(checks) == 2
    assert all(c.passed for c in checks)


def test_theorem2_gamma_validation():
    v = gaussian()
    cfg = McConfig(n_paths=1000)
    for gamma, alpha in ((1.2, 2.0), (1.0, 2.0), (0.9, 0.8), (0.0, 2.0)):
        with pytest.raises(ValueError):
            expansion_report(v, alpha, [0.1], cfg, gamma=gamma)
    # a library caller's gamma that is no finite real number gets the same
    # ValueError, never a TypeError from the comparison
    for gamma in ("0.5", 0.5j, np.True_, np.bool_(False), True, math.nan, math.inf, [0.5]):
        with pytest.raises(ValueError, match="gamma must lie in"):
            expansion_report(v, 1.5, [0.1], cfg, gamma=gamma)
    # alpha is checked before gamma is compared with it, which once died with a bare TypeError
    for alpha in ("1.5", None):
        with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 2\], got "):
            expansion_report(v, alpha, [0.1], cfg, gamma=0.5)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("gamma", [None, 0.5])
def test_se_mult_counts_the_checks_built(sign, gamma):
    ts = [0.02, 0.05, 0.1, 0.2, 0.3]
    report = expansion_report(gaussian(weight=sign), 1.5, ts, McConfig(n_paths=1000), gamma=gamma)
    checks = [c for row in report.rows for c in row.checks]
    # remainder, exact-t2, t2 and t3 control at five times, plus the sandwich pair
    # when V <= 0 and theorem 2 when gamma is given: 20, 25, 30 or 35 rows, one slack
    assert len(checks) == 20 + 10 * (sign < 0) + 5 * (gamma is not None)
    assert report.se_mult == validator.SE_MULT == 4.0
    assert all(c.se_mult == report.se_mult for c in checks)
    # the control rows of one series move together, and say so
    for name in ("t2 control", "t3 control"):
        controls = [c for c in checks if c.name.startswith(name)]
        assert len(controls) == len(ts) and all("share the seed's start points" in c.note for c in controls)


def test_t2_consistency_quick(unit_gaussian):
    cfg = McConfig(n_paths=100_000, seed=4)
    est = estimate_heat_content(unit_gaussian, 2.0, 0.05, cfg)
    row = next(r for r in validator._check_rows(unit_gaussian, 2.0, 0.05, est, None) if r[0].startswith("exact-t2"))
    check = validator._bound(*row, 3.0)
    assert check.passed
    assert math.isfinite(check.margin)
    # the same row the report builds for that estimate, at its se multiple
    report = expansion_report(unit_gaussian, 2.0, [0.05], cfg)
    assert validator._bound(*row, report.se_mult) in report.rows[0].checks


def test_a_rows_slack_ignores_the_other_rows():
    # gamma adds a theorem 2 row per time and changes no draw: 20 rows without it,
    # 25 with it, and every row the two reports share is the same check
    v = mixture([1.0, -0.4], [0.0, 0.8], [1.0, 0.5])
    ts = [0.02, 0.05, 0.1, 0.2, 0.3]
    cfg = McConfig(n_paths=2000, seed=3)
    plain, holder = (expansion_report(v, 1.5, ts, cfg, gamma=gamma) for gamma in (None, 0.5))
    rows = {c.name: c for row in plain.rows for c in row.checks}
    extended = {c.name: c for row in holder.rows for c in row.checks}
    assert len(rows) == 20 and len(extended) == 25 and set(rows) < set(extended)
    for name, check in rows.items():
        assert extended[name] == check, name
    assert plain.se_mult == holder.se_mult


def test_t2_control_row_reads_the_paths_own_check_of_t2(unit_gaussian):
    # one row per time: mean(y) - t^2 T_2 against [0, 0] at the se of y, which
    # is wider than the se of the control-variate estimate the other rows read
    cfg = McConfig(n_paths=20_000, seed=14)
    ts = [0.05, 0.1]
    report = expansion_report(unit_gaussian, 1.5, ts, cfg)
    for t, est, row in zip(ts, estimate_heat_content(unit_gaussian, 1.5, ts, cfg), report.rows):
        check = next(c for c in row.checks if c.name == f"t2 control t={t:g}")
        assert (check.value, check.lower, check.upper, check.se) == (est.t2_residual, 0.0, 0.0, est.t2_residual_se)
        assert check.passed and check.se > 10 * row.standard_error
        assert all(c.se == row.standard_error for c in row.checks if "control" not in c.name)


def test_t3_control_row_reads_the_paths_own_check_of_its_mean(unit_gaussian):
    # one row per time, after the t2 control: mean(c) - E c against [0, 0] at
    # the se of c; c = c'' = -y A_U in d = 1 tracks w - y, so that se is about
    # the t2 estimate's, 5x to 10x the se of w - y - c that the other rows read,
    # and the note says that the row reads the trapezoid rule's step bias
    cfg = McConfig(n_paths=20_000, seed=14)
    ts = [0.05, 0.1]
    report = expansion_report(unit_gaussian, 1.5, ts, cfg)
    for t, est, row in zip(ts, estimate_heat_content(unit_gaussian, 1.5, ts, cfg), report.rows):
        check = row.checks[-1]
        assert check.name == f"t3 control t={t:g}" and row.checks[-2].name == f"t2 control t={t:g}"
        assert (check.value, check.lower, check.upper, check.se) == (est.t3_residual, 0.0, 0.0, est.t3_residual_se)
        assert check.passed and check.se > 5 * row.standard_error
        assert check.se == pytest.approx(est.t2_standard_error, rel=0.5)
        assert "step bias" in check.note and "step bias" not in row.checks[-2].note


def test_expansion_report_structure(grid1, unit_gaussian):
    cfg = McConfig(n_paths=200_000, seed=11, threads=2)
    ts = [0.02, 0.05, 0.1, 0.2, 0.3]
    report = expansion_report(unit_gaussian, 2.0, ts, cfg, grid=grid1)
    assert [row.t for row in report.rows] == sorted(ts)
    for row in report.rows:
        assert set(row.partial_sums) == {1, 2, 3, 4, 5}
        for n, ps in row.partial_sums.items():
            assert ps == pytest.approx(
                partial_sum(unit_gaussian, grid1, 2.0, n, row.t), rel=1e-12
            )
            assert row.residuals[n] == pytest.approx(row.estimate - ps, rel=1e-12)
        # V >= 0 here, so the sandwich is absent: remainder, exact-t2, t2 and t3 control checks
        assert len(row.checks) == 4
        assert all(c.passed for c in row.checks)
    assert 1 in report.fitted_orders
    assert abs(report.fitted_orders[1].slope - 2.0) <= 0.4
    # orders 2 and 3 need variance-tuned designs to resolve; recorded only
    assert report.se_mult == validator.SE_MULT
    assert report.version


def test_expansion_report_is_deterministic(grid1, unit_gaussian):
    cfg = McConfig(n_paths=20_000, seed=12)
    ts = [0.05, 0.1, 0.2, 0.55]
    a = expansion_report(unit_gaussian, 2.0, ts, cfg, grid=grid1)
    b = expansion_report(unit_gaussian, 2.0, ts, cfg, grid=grid1)
    assert report_to_json(a) == report_to_json(b)
    c = expansion_report(unit_gaussian, 2.0, ts, McConfig(n_paths=20_000, seed=13), grid=grid1)
    assert [r.estimate for r in c.rows] != [r.estimate for r in a.rows]


def test_expansion_report_serialization(grid1, unit_gaussian):
    cfg = McConfig(n_paths=20_000, seed=12)
    report = expansion_report(unit_gaussian, 2.0, [0.05, 0.1, 0.2, 0.55], cfg, grid=grid1)
    blob = json.loads(report_to_json(report))
    assert blob["alpha"] == 2.0
    assert len(blob["rows"]) == 4
    assert {"t", "estimate", "standard_error", "partial_sums", "residuals", "checks"} <= set(
        blob["rows"][0]
    )
    csv_text = report_to_csv(report)
    lines = csv_text.strip().splitlines()
    assert len(lines) == 5  # header + one line per time
    assert lines[0].startswith("t,")


def test_expansion_report_zero_potential(grid1):
    z = mixture([], [], [], dimension=1)
    report = expansion_report(z, 1.5, [0.05, 0.1, 0.2, 0.55], McConfig(n_paths=1000), grid=grid1)
    for row in report.rows:
        assert row.estimate == 0.0 and row.standard_error == 0.0
        assert all(ps == 0.0 for ps in row.partial_sums.values())
        assert all(c.passed for c in row.checks)
    assert report.fitted_orders == {}  # nothing clears the noise gate at V = 0


def test_expansion_report_validation(grid1, unit_gaussian):
    cfg = McConfig(n_paths=1000)
    with pytest.raises(ValueError):
        expansion_report(unit_gaussian, 2.0, [], cfg, grid=grid1)
    with pytest.raises(ValueError):
        expansion_report(unit_gaussian, 2.0, [0.1, 0.2, 0.4, 1.1], cfg, grid=grid1, n_max=6)
    with pytest.raises(ValueError):
        expansion_report(unit_gaussian, 2.0, [0.1, 0.2, 0.4, 1.1], cfg, grid=grid1, gamma=1.5)
    # a bool n_max would run as N = 1 and a float one die in range()
    for n_max in (True, 2.0):
        with pytest.raises(ValueError, match="n_max must be an integer"):
            expansion_report(unit_gaussian, 2.0, [0.1, 0.2, 0.4], cfg, grid=grid1, n_max=n_max)
    # a string time once ran as float("0.1") and a bool one as t = 1
    for bad in ("0.1", True, 0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be a positive finite number"):
            expansion_report(unit_gaussian, 2.0, [0.1, bad, 0.4], cfg, grid=grid1)
