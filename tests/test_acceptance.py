"""Acceptance gate: every release criterion, one printed pass/fail line each.

The lines bypass pytest's capture so they stay visible in a normal run.
Statistical criteria use fixed seeds; tolerances are the contract values,
not tuned to the draws.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from fracheat import (
    McConfig,
    SpectralGrid,
    c0k,
    c4_closed,
    c4_sos,
    c5_closed,
    c5_sos,
    c_ell,
    cnk_closed,
    cnk_fourier,
    dirichlet_form,
    estimate_heat_content,
    expansion_report,
    fit_remainder_order,
    gaussian,
    mixture,
    partial_sum,
    sampler_selftest,
    t2_exact,
    weight_A,
)
from fracheat import montecarlo, validator
from fracheat.coefficients import _t3_converged, t3_control_mean

ALPHAS = (0.8, 1.0, 1.5, 2.0)
QUAD_PAIRS = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]
T_GRID = (0.02, 0.05, 0.1, 0.2)


@pytest.fixture
def announce(capsys):
    def _line(num: int, ok: bool, detail: str) -> None:
        tag = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"\ncriterion {num}: {tag} - {detail}", flush=True)

    return _line


def test_criterion_1_exact_simplex_weights(announce):
    start = time.perf_counter()
    expected = {
        (1, (1,)): Fraction(1, 6),
        (2, (2,)): Fraction(1, 12),
        (3, (3,)): Fraction(1, 20),
        (1, (1, 0)): Fraction(1, 24),
        (1, (0, 1)): Fraction(1, 24),
        (2, (1, 1)): Fraction(1, 60),
        (2, (2, 0)): Fraction(1, 60),
        (2, (0, 2)): Fraction(1, 60),
    }
    for k in range(2, 7):
        expected[(0, (0,) * (k - 1))] = Fraction(1, math.factorial(k))
    bad = [(n, ell) for (n, ell), val in expected.items() if weight_A(n, ell) != val]
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 1.0
    announce(1, ok, f"{len(expected)} exact rational weights in {elapsed * 1e3:.1f} ms")
    assert bad == []
    assert elapsed < 1.0


def test_criterion_2_dual_route_coefficients(grid1, mixture_trio, announce):
    worst_rel = worst_c4 = worst_c5 = 0.0
    ok = True
    for v in mixture_trio:
        for alpha in ALPHAS:
            for n, k in QUAD_PAIRS:
                closed = cnk_closed(v, grid1, alpha, n, k)
                fourier = cnk_fourier(v, grid1, alpha, n, k)
                rel = abs(closed - fourier) / abs(closed)
                worst_rel = max(worst_rel, rel)
                ok &= rel <= 1e-5
            diff4 = abs(c4_closed(v, grid1, alpha) - c4_sos(v, grid1, alpha))
            worst_c4 = max(worst_c4, diff4)
            ok &= diff4 <= 1e-8
            if v.is_nonnegative:
                diff5 = abs(c5_closed(v, grid1, alpha) - c5_sos(v, grid1, alpha))
                worst_c5 = max(worst_c5, diff5)
                ok &= diff5 <= 1e-7
    announce(
        2,
        ok,
        f"routes agree: worst rel {worst_rel:.2e} (<=1e-5), "
        f"|C4-C4_sos| {worst_c4:.2e} (<=1e-8), |C5-C5_sos| {worst_c5:.2e} (<=1e-7)",
    )
    assert ok


def test_criterion_3_analytic_anchors(grid1, unit_gaussian, announce):
    v = unit_gaussian
    rows = [
        ("dirichlet_form", dirichlet_form(v, grid1, 2.0), math.sqrt(math.pi / 2.0), 1e-6),
        ("C1", c_ell(v, grid1, 2.0, 1), math.sqrt(math.pi), 1e-10),
        ("C2", c_ell(v, grid1, 2.0, 2), 0.5 * math.sqrt(math.pi / 2.0), 1e-10),
        (
            "C3",
            c_ell(v, grid1, 2.0, 3),
            (math.sqrt(math.pi / 3.0) + math.sqrt(math.pi / 2.0)) / 6.0,
            1e-6,
        ),
    ]
    # the targets must equal the frozen oracle constants before any comparison
    assert rows[0][2] == oracles.DIRICHLET_UNIT_A2
    assert rows[1][2] == oracles.C1_UNIT
    assert rows[2][2] == oracles.C2_UNIT
    assert rows[3][2] == oracles.C3_UNIT_A2
    errs = {name: abs(value - target) for name, value, target, _ in rows}
    ok = all(abs(value - target) <= tol for name, value, target, tol in rows)
    announce(
        3,
        ok,
        "anchor errors "
        + ", ".join(f"{name} {err:.1e}" for name, err in errs.items()),
    )
    for name, value, target, tol in rows:
        assert abs(value - target) <= tol, name


@pytest.mark.slow
def test_criterion_4_sampler_fidelity(announce):
    checks = sampler_selftest(seed=0, n_cf=1_000_000)
    names = " ".join(c.name for c in checks)
    assert "ks beta=0.5" in names
    for alpha, gamma in ((2.0, 1.0), (1.5, 0.5), (1.0, 0.4)):
        assert f"scaling alpha={alpha} gamma={gamma}" in names
    failing = [c.name for c in checks if not c.passed]
    ok = not failing
    announce(
        4,
        ok,
        f"{len(checks)} distributional checks at n=1e6"
        + (f"; failing: {failing}" if failing else ""),
    )
    assert failing == []


@pytest.fixture(scope="module")
def q_table():
    # one seeded 1e6-path estimate per (sign, alpha, t); shared by criterion 6
    table = {}
    idx = 0
    for sign in (1.0, -1.0):
        v = gaussian(weight=sign)
        for alpha in (1.0, 2.0):
            for t in T_GRID:
                cfg = McConfig(n_paths=1_000_000, m_steps=64, seed=61_000 + idx, threads=4)
                table[(sign, alpha, t)] = estimate_heat_content(v, alpha, t, cfg)
                idx += 1
    return table


@pytest.mark.slow
def test_criterion_5_first_order_bounds(announce):
    checks = []
    for alpha in (1.0, 2.0):
        for weight, seed in ((-1.0, 51_000), (1.0, 52_000)):
            # the sandwich pair (V <= 0 only) and the remainder, per time; the
            # criterion judges its own rows at 3 se, the report its rows at SE_MULT = 4
            report = expansion_report(
                gaussian(weight=weight),
                alpha,
                T_GRID,
                McConfig(n_paths=1_000_000, m_steps=64, seed=seed + int(10 * alpha), threads=4),
            )
            checks += [
                validator._bound(c.name, c.value, c.lower, c.upper, c.note, c.se, 3.0)
                for row in report.rows
                for c in row.checks
                if c.name.startswith("first-order")
            ]
    assert all(c.se_mult == 3.0 for c in checks)
    failing = [c.name for c in checks if not c.passed]
    ok = not failing
    worst = min(c.margin / (3.0 * c.se) if c.se else math.inf for c in checks)
    announce(
        5,
        ok,
        f"{len(checks)} sandwich/remainder bounds at 3 se, "
        f"tightest margin {worst:.2f}x the allowance"
        + (f"; failing: {failing}" if failing else ""),
    )
    assert failing == []


@pytest.mark.slow
def test_criterion_6_exact_t2_consistency(q_table, announce):
    failing = []
    margins = []
    for (sign, alpha, t), est in q_table.items():
        rows = validator._check_rows(gaussian(weight=sign), alpha, t, est, None)
        check = validator._bound(*next(r for r in rows if r[0].startswith("exact-t2")), 3.0)
        margins.append(check.margin)
        if not check.passed:
            failing.append(f"sign={sign:+g} alpha={alpha} t={t}")
    ok = not failing
    announce(
        6,
        ok,
        f"{len(q_table)} exact-t2 bounds at 3 se, min margin {min(margins):.3e}"
        + (f"; failing: {failing}" if failing else ""),
    )
    assert failing == []


@pytest.mark.slow
def test_t2_control_catches_a_scaled_t2(monkeypatch):
    # the estimator adds t^2 T_2 and E c back; with T_2 and E c both off by
    # 1%, its paths' means of y and c no longer match them, and each control
    # row fails at criterion 6's configurations and seeds under its own
    # mutant: the t2 row reads mean(y) - t^2 T_2 and the t3 row mean(c) - E c.
    # Both means of E c are scaled, E c'' = -t^3 T_3 (d = 1, as here) and E c'
    def scaled_t3(v, alpha, times):
        t3, converged = _t3_converged(v, alpha, times)
        return 1.01 * t3, converged

    monkeypatch.setattr(montecarlo, "t2_exact", lambda v, alpha, t: 1.01 * t2_exact(v, alpha, t))
    monkeypatch.setattr(montecarlo, "_t3_converged", scaled_t3)
    monkeypatch.setattr(montecarlo, "t3_control_mean", lambda v, alpha, ts: 1.01 * t3_control_mean(v, alpha, ts))
    idx = 0
    for sign in (1.0, -1.0):
        v = gaussian(weight=sign)
        for alpha in (1.0, 2.0):
            for t in T_GRID:
                cfg = McConfig(n_paths=1_000_000, m_steps=64, seed=61_000 + idx, threads=4)
                est = estimate_heat_content(v, alpha, t, cfg)
                rows = validator._check_rows(v, alpha, t, est, None)
                for name in ("t2 control", "t3 control"):
                    check = validator._bound(*next(r for r in rows if r[0].startswith(name)), 3.0)
                    assert not check.passed, (name, sign, alpha, t, check)
                idx += 1


@pytest.mark.slow
def test_criterion_7_order_recovery(grid1, announce):
    # deterministic half: residual against the N = 1 partial sum is exactly
    # t^2 T_2(t), whose log-log slope over t in [1e-4, 1e-2] is 2 + O(t)
    v = gaussian()
    ts = np.geomspace(1e-4, 1e-2, 9)
    residuals = [
        (-t * v.integral() + t**2 * t2_exact(v, 2.0, t)) - partial_sum(v, grid1, 2.0, 1, t)
        for t in ts
    ]
    det_fit = fit_remainder_order(ts, residuals, np.zeros(ts.size))  # exact residuals: no standard errors
    det_ok = abs(det_fit.slope - 2.0) <= 1e-3

    # Monte Carlo half: a deep well, so that the order-(N+1) residuals clear
    # the noise gate at 1e6 paths per time
    v6 = gaussian(weight=6.0)
    t_list = [
        0.009, 0.0105, 0.0123,
        0.0805, 0.0941, 0.11, 0.1287, 0.1505, 0.176, 0.2058, 0.2406, 0.2814,
    ]
    cfg = McConfig(n_paths=1_000_000, m_steps=256, seed=73, threads=4)
    report = expansion_report(v6, 2.0, t_list, cfg, grid=grid1, n_max=3)
    slopes = {n: report.fitted_orders[n].slope for n in (1, 2, 3)}
    mc_ok = all(abs(slopes[n] - (n + 1)) <= 0.4 for n in (1, 2, 3))
    announce(
        7,
        det_ok and mc_ok,
        f"deterministic slope {det_fit.slope:.6f} (2 +/- 1e-3); MC slopes "
        + ", ".join(f"N={n}: {s:.3f}" for n, s in slopes.items())
        + " (N+1 +/- 0.4)",
    )
    assert det_ok
    assert mc_ok


def test_criterion_8_positivity(grid1, announce):
    rng = np.random.default_rng(20260814)

    def draw(signed: bool):
        n = int(rng.integers(1, 4))
        w = rng.uniform(0.1, 1.0, n)
        if signed:
            w = w * rng.choice([-1.0, 1.0], n)
        return mixture(list(w), list(rng.uniform(-2.0, 2.0, n)), list(rng.uniform(0.3, 3.0, n)))

    min_cl = math.inf
    min_c2 = math.inf
    min_c4 = math.inf
    for _ in range(20):
        v = draw(signed=False)
        for alpha in (1.0, 1.5, 2.0):
            for ell in range(1, 6):
                min_cl = min(min_cl, c_ell(v, grid1, alpha, ell))
    signed_all_positive = True
    for _ in range(50):
        v = draw(signed=True)
        min_c2 = min(min_c2, c0k(v, 2))
        signed_all_positive &= v.is_nonnegative
        for alpha in (1.0, 1.5, 2.0):
            min_c4 = min(min_c4, c4_closed(v, grid1, alpha))
    assert not signed_all_positive  # the signed draw really produces signed V
    ok = min_cl >= -1e-10 and min_c2 >= 0.0 and min_c4 >= -1e-10
    announce(
        8,
        ok,
        f"20 nonneg mixtures: min C_l {min_cl:.2e} (>=-1e-10); 50 signed: "
        f"min C2 {min_c2:.2e} (>=0), min C4 {min_c4:.2e} (>=-1e-10)",
    )
    assert min_cl >= -1e-10
    assert min_c2 >= 0.0
    assert min_c4 >= -1e-10


def test_criterion_9_degenerate_exactness(grid1, announce):
    z = mixture([], [], [], dimension=1)
    coeffs = [c_ell(z, grid1, a, ell) for a in (1.0, 2.0) for ell in range(1, 6)]
    coeffs += [cnk_closed(z, grid1, 1.5, n, k) for n, k in QUAD_PAIRS]
    coeffs += [cnk_fourier(z, grid1, 1.5, n, k) for n, k in QUAD_PAIRS]
    est = estimate_heat_content(z, 1.5, 0.1, McConfig(n_paths=10_000))
    report = expansion_report(
        z, 1.5, [0.05, 0.1, 0.2, 0.55], McConfig(n_paths=10_000), grid=grid1
    )
    zero_coeffs = all(c == 0.0 for c in coeffs)
    zero_mc = est.mean == 0.0 and est.standard_error == 0.0
    all_pass = all(c.passed for row in report.rows for c in row.checks)
    ok = zero_coeffs and zero_mc and all_pass
    announce(
        9,
        ok,
        f"{len(coeffs)} coefficients exactly 0, MC mean/se = ({est.mean}, {est.standard_error}), "
        f"report checks all pass: {all_pass}",
    )
    assert zero_coeffs
    assert zero_mc
    assert all_pass
