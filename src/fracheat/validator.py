"""Bound checks, remainder-order fits and the expansion report.

Every boolean verdict carries a numeric margin (distance to violation after
the Monte Carlo slack is applied), so a failing check shows how badly it
failed and a passing one how much room it had.  Monte Carlo slack is
3 standard errors per bound, widened to 4 when a single invocation tests
more than 20 bounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from ._version import __version__
from .coefficients import (
    c0k,
    c3_closed,
    c4_closed,
    c4_sos,
    c5_closed,
    c5_sos,
    partial_sum,
    t2_exact,
)
from .montecarlo import McConfig, McEstimate, estimate_heat_content
from .potentials import GaussianMixturePotential
from .sampling import RngStream, moment_estimate
from .spectral import SpectralGrid

__all__ = [
    "BoundCheck",
    "OrderFit",
    "PositivityRecord",
    "ReportRow",
    "ExpansionReport",
    "se_factor",
    "estimate_series",
    "check_theorem1",
    "check_theorem2",
    "t2_consistency_check",
    "fit_remainder_order",
    "positivity_audit",
    "expansion_report",
    "report_to_json",
    "report_to_csv",
]


@dataclass(frozen=True)
class BoundCheck:
    """value must lie in [lower - slack, upper + slack], slack = se_mult * se."""

    name: str
    passed: bool
    value: float
    lower: float
    upper: float
    se: float
    se_mult: float
    margin: float
    note: str = ""


@dataclass(frozen=True)
class OrderFit:
    slope: float
    r_squared: float
    n_used: int
    t_window: tuple[float, float]
    excluded: tuple[int, ...]


@dataclass(frozen=True)
class PositivityRecord:
    label: str
    value: float
    required: bool
    ok: bool


@dataclass(frozen=True)
class ReportRow:
    t: float
    estimate: float
    standard_error: float
    partial_sums: dict[int, float]
    residuals: dict[int, float]
    checks: tuple[BoundCheck, ...]


@dataclass(frozen=True)
class ExpansionReport:
    alpha: float
    dimension: int
    n_max: int
    rows: tuple[ReportRow, ...]
    fitted_orders: dict[int, OrderFit]
    se_mult: float
    version: str


# E|X_1|^gamma draws behind the Holder term of theorem 2
_MOMENT_SAMPLES = 400_000


def estimate_series(
    v: GaussianMixturePotential, alpha: float, t_list, cfg: McConfig
) -> list[tuple[float, McEstimate]]:
    """(t, estimate) per time, in increasing t; the i-th time draws from seed + i.

    One estimate per time must not reuse another time's random streams, or
    residual noise would be correlated across the order-fit abscissae.
    """
    ts = sorted(float(t) for t in t_list)
    if not ts:
        raise ValueError("t_list is empty")
    return [
        (t, estimate_heat_content(v, alpha, t, replace(cfg, seed=(cfg.seed + i) % 2**64)))
        for i, t in enumerate(ts)
    ]


def se_factor(n_bounds: int) -> float:
    """3 se per bound, 4 when one batch checks more than 20 bounds."""
    return 3.0 if n_bounds <= 20 else 4.0


def _bound(name: str, value: float, lower: float, upper: float, se: float, k: float, note: str = "") -> BoundCheck:
    slack = k * se
    margins = []
    if math.isfinite(lower):
        margins.append(value - (lower - slack))
    if math.isfinite(upper):
        margins.append((upper + slack) - value)
    margin = min(margins) if margins else math.inf
    return BoundCheck(name, bool(margin >= 0.0), value, lower, upper, se, k, margin, note)


def _numerically_nonpositive(v: GaussianMixturePotential) -> bool:
    if v.is_zero or v.is_nonpositive:
        return True
    if v.is_nonnegative:
        return False
    return v.max_value() <= 1e-12 * (1.0 + v.sup_norm())


# -- theorem checks ----------------------------------------------------------


def _thm1_checks(
    v: GaussianMixturePotential,
    t: float,
    est: McEstimate,
    k: float,
    parts: tuple[str, ...],
) -> list[BoundCheck]:
    vol = v.integral()
    sup = v.sup_norm()
    l1 = v.l1_norm()
    grow = math.exp(t * sup)
    out = []
    if "i" in parts:
        lead = -t * vol
        out.append(
            _bound(
                f"first-order sandwich lower t={t:g}",
                est.mean,
                lead,
                math.inf,
                est.standard_error,
                k,
            )
        )
        out.append(
            _bound(
                f"first-order sandwich upper t={t:g}",
                est.mean,
                -math.inf,
                lead * (1.0 + 0.5 * t * sup * grow),
                est.standard_error,
                k,
            )
        )
    if "ii" in parts:
        b = t**2 * l1 * sup * grow
        out.append(
            _bound(
                f"first-order remainder t={t:g}",
                est.mean + t * vol,
                -b,
                b,
                est.standard_error,
                k,
            )
        )
    return out


def check_theorem1(
    v: GaussianMixturePotential,
    alpha: float,
    t_list,
    cfg: McConfig,
    parts: tuple[str, ...] = ("i", "ii"),
) -> list[BoundCheck]:
    """First-order bounds: the V <= 0 sandwich (i) and the two-sided remainder (ii).

    Part (i) is only defined for V <= 0; requesting it for a sign-indefinite
    potential raises.
    """
    parts = tuple(parts)
    if any(p not in ("i", "ii") for p in parts):
        raise ValueError(f"parts must be drawn from ('i', 'ii'), got {parts}")
    if "i" in parts and not _numerically_nonpositive(v):
        raise ValueError("the sandwich bound (part i) requires V <= 0 everywhere")
    series = estimate_series(v, alpha, t_list, cfg)
    k = se_factor(len(series) * (2 * ("i" in parts) + ("ii" in parts)))
    return [c for t, est in series for c in _thm1_checks(v, t, est, k, parts)]


def _thm2_check(
    v: GaussianMixturePotential,
    gamma: float,
    alpha: float,
    t: float,
    est: McEstimate,
    moment: McEstimate,
    k: float,
) -> BoundCheck:
    vol = v.integral()
    v2 = c0k(v, 2) * 2.0
    sup = v.sup_norm()
    l1 = v.l1_norm()
    r = gamma / alpha
    moment_hi = moment.mean + k * moment.standard_error
    holder = v.holder_constant(gamma) * moment_hi * t ** (r + 2.0) / ((r + 1.0) * (r + 2.0))
    cube = t**3 * l1 * sup**2 * math.exp(t * sup)
    b = cube + holder
    return _bound(
        f"second-order remainder t={t:g}",
        est.mean + t * vol - 0.5 * t**2 * v2,
        -b,
        b,
        est.standard_error,
        k,
        note=f"holder gamma={gamma:g}",
    )


def check_theorem2(
    v: GaussianMixturePotential,
    gamma: float,
    alpha: float,
    t_list,
    cfg: McConfig,
) -> list[BoundCheck]:
    """Second-order remainder bound with the Holder-modulus constant.

    |Q(t) + t int V - (t^2/2) int V^2| <=
        t^3 ||V||_1 ||V||_inf^2 e^{t ||V||_inf}
        + M_gamma E|X_1|^gamma t^{gamma/alpha + 2} / ((gamma/alpha + 1)(gamma/alpha + 2)),

    requiring 0 < gamma < min(1, alpha).  E|X_1|^gamma is itself estimated;
    its upper confidence value enters the bound.
    """
    moment = _holder_moment(v, alpha, gamma, cfg.seed)
    series = estimate_series(v, alpha, t_list, cfg)
    k = se_factor(len(series))
    return [_thm2_check(v, gamma, alpha, t, est, moment, k) for t, est in series]


def _holder_moment(v: GaussianMixturePotential, alpha: float, gamma: float, seed: int) -> McEstimate:
    """E|X_1|^gamma for theorem 2, drawn from its own substream of the run seed."""
    if not 0.0 < gamma < min(1.0, alpha):
        raise ValueError(f"gamma must lie in (0, min(1, alpha)), got gamma={gamma}, alpha={alpha}")
    return moment_estimate(alpha, gamma, 1.0, _MOMENT_SAMPLES, RngStream(seed, 10_000), d=v.dimension)


def t2_consistency_check(
    v: GaussianMixturePotential,
    alpha: float,
    t: float,
    cfg: McConfig,
    grid: SpectralGrid | None = None,
    est: McEstimate | None = None,
    k: float = 3.0,
) -> BoundCheck:
    """|Q_mc - (-t int V + t^2 T_2(t))| <= t^3 ||V||_1 ||V||_inf^2 e^{t ||V||_inf}."""
    if est is None:
        est = estimate_heat_content(v, alpha, t, cfg)
    ref = -t * v.integral() + t**2 * t2_exact(v, alpha, t, grid)
    b = t**3 * v.l1_norm() * v.sup_norm() ** 2 * math.exp(t * v.sup_norm())
    return _bound(
        f"exact-t2 consistency t={t:g}", est.mean - ref, -b, b, est.standard_error, k
    )


# -- remainder-order fit -------------------------------------------------------


def fit_remainder_order(t_list, residuals, ses=None) -> OrderFit:
    """Log-log slope of |residual| vs t with a 5-se usability gate.

    Requires at least 4 times spanning a decade; points with |residual|
    below 5 standard errors are excluded as noise-dominated; fewer than 3
    usable points raises.
    """
    ts = np.asarray([float(t) for t in t_list])
    res = np.asarray([float(r) for r in residuals])
    if ses is None:
        es = np.zeros_like(ts)
    else:
        es = np.asarray([float(s) for s in ses])
    if not (ts.shape == res.shape == es.shape):
        raise ValueError("t_list, residuals and ses must have equal length")
    if len(ts) < 4:
        raise ValueError(f"need at least 4 times for an order fit, got {len(ts)}")
    if (ts <= 0).any():
        raise ValueError("times must be positive")
    if ts.max() / ts.min() < 10.0 * (1.0 - 1e-12):
        raise ValueError("times must span at least a decade")
    usable = (np.abs(res) >= 5.0 * es) & (res != 0.0)
    excluded = tuple(int(i) for i in np.nonzero(~usable)[0])
    if usable.sum() < 3:
        raise ValueError(
            f"only {int(usable.sum())} residuals clear the 5-se noise gate; need >= 3"
        )
    lt = np.log(ts[usable])
    lr = np.log(np.abs(res[usable]))
    slope, intercept = np.polyfit(lt, lr, 1)
    pred = slope * lt + intercept
    ss_res = float(((lr - pred) ** 2).sum())
    ss_tot = float(((lr - lr.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    window = (float(ts[usable].min()), float(ts[usable].max()))
    return OrderFit(float(slope), r2, int(usable.sum()), window, excluded)


# -- coefficient positivity -----------------------------------------------------


def positivity_audit(
    v: GaussianMixturePotential, grid: SpectralGrid, alpha: float
) -> list[PositivityRecord]:
    """Sign structure of C_2..C_5 and the SOS route agreements.

    For V >= 0 all coefficients must be nonnegative (within 1e-10 rounding)
    and the SOS identities must hold tightly.  For signed V only C_2 (always)
    and C_4 (a perfect square in disguise) are required nonnegative; C_3 and
    C_5 signs are reported as evidence without assertion.
    """
    nonneg = v.is_nonnegative and not v.is_zero
    c2 = c0k(v, 2)
    c3 = c3_closed(v, grid, alpha)
    c4c = c4_closed(v, grid, alpha)
    c4s = c4_sos(v, grid, alpha)
    c5c = c5_closed(v, grid, alpha)
    c5s = c5_sos(v, grid, alpha)
    tol = 1e-10
    out = [
        PositivityRecord("C2 >= 0", c2, True, bool(c2 >= -tol)),
        PositivityRecord("C4 >= 0", c4c, True, bool(c4c >= -tol)),
        PositivityRecord("C3 >= 0", c3, nonneg, bool(c3 >= -tol) if nonneg else True),
        PositivityRecord("C5 >= 0", c5c, nonneg, bool(c5c >= -tol) if nonneg else True),
        PositivityRecord("|C4_sos - C4| <= 1e-8", abs(c4s - c4c), True, bool(abs(c4s - c4c) <= 1e-8)),
        PositivityRecord(
            "|C5_sos - C5| <= 1e-7",
            abs(c5s - c5c),
            nonneg and grid.dimension == 1,
            bool(abs(c5s - c5c) <= 1e-7) if (nonneg and grid.dimension == 1) else True,
        ),
    ]
    return out


# -- assembled report ------------------------------------------------------------


def expansion_report(
    v: GaussianMixturePotential,
    alpha: float,
    t_list,
    cfg: McConfig,
    grid: SpectralGrid | None = None,
    n_max: int = 5,
    gamma: float | None = None,
) -> ExpansionReport:
    """Monte Carlo vs deterministic partial sums with bound checks and order fits.

    Per time: the estimate, partial sums Q_N for N = 1..n_max, residuals,
    the two-sided first-order bound, the exact-t2 consistency bound, the
    V <= 0 sandwich when applicable, and the Holder second-order bound when
    gamma is given.  Per order N: a log-log remainder fit over the times
    whose residuals clear the noise gate.  Deterministic given the seed;
    the estimates come from ``estimate_series``.
    """
    if not 1 <= n_max <= 5:
        raise ValueError(f"n_max must lie in 1..5, got {n_max}")
    if grid is None:
        grid = SpectralGrid.default_for(v.dimension)
    moment = None if gamma is None else _holder_moment(v, alpha, gamma, cfg.seed)
    series = estimate_series(v, alpha, t_list, cfg)
    sandwich = _numerically_nonpositive(v) and not v.is_zero
    per_t = 2 + (2 if sandwich else 0) + (1 if gamma is not None else 0)
    k = se_factor(per_t * len(series))
    rows = []
    for t, est in series:
        sums = {n: partial_sum(v, grid, alpha, n, t) for n in range(1, n_max + 1)}
        res = {n: est.mean - sums[n] for n in sums}
        checks = list(_thm1_checks(v, t, est, k, ("i", "ii") if sandwich else ("ii",)))
        checks.append(t2_consistency_check(v, alpha, t, cfg, grid, est=est, k=k))
        if gamma is not None:
            checks.append(_thm2_check(v, gamma, alpha, t, est, moment, k))
        rows.append(ReportRow(t, est.mean, est.standard_error, sums, res, tuple(checks)))
    fits: dict[int, OrderFit] = {}
    for n in range(1, n_max + 1):
        try:
            fits[n] = fit_remainder_order(
                [r.t for r in rows], [r.residuals[n] for r in rows], [r.standard_error for r in rows]
            )
        except ValueError:
            continue
    return ExpansionReport(alpha, v.dimension, n_max, tuple(rows), fits, k, __version__)


# -- serialization -----------------------------------------------------------------


def _check_dict(c: BoundCheck) -> dict:
    return {
        "name": c.name,
        "passed": c.passed,
        "value": c.value,
        "lower": None if not math.isfinite(c.lower) else c.lower,
        "upper": None if not math.isfinite(c.upper) else c.upper,
        "se": c.se,
        "se_mult": c.se_mult,
        "margin": c.margin,
        "note": c.note,
    }


def report_to_json(report: ExpansionReport) -> str:
    """Canonical JSON (sorted keys); identical configs give identical bytes."""
    doc = {
        "alpha": report.alpha,
        "dimension": report.dimension,
        "n_max": report.n_max,
        "se_mult": report.se_mult,
        "version": report.version,
        "rows": [
            {
                "t": r.t,
                "estimate": r.estimate,
                "standard_error": r.standard_error,
                "partial_sums": {str(n): x for n, x in sorted(r.partial_sums.items())},
                "residuals": {str(n): x for n, x in sorted(r.residuals.items())},
                "checks": [_check_dict(c) for c in r.checks],
            }
            for r in report.rows
        ],
        "fitted_orders": {
            str(n): {
                "slope": f.slope,
                "r_squared": f.r_squared,
                "n_used": f.n_used,
                "t_window": list(f.t_window),
                "excluded": list(f.excluded),
            }
            for n, f in sorted(report.fitted_orders.items())
        },
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def report_to_csv(report: ExpansionReport) -> str:
    """One row per t: estimate, partial sums, residuals, check verdicts/margins."""
    fmt = lambda x: f"{x:.17g}"
    check_names = [c.name.rsplit(" t=", 1)[0] for c in report.rows[0].checks]
    header = ["t", "q_mc", "se"]
    header += [f"partial_sum_{n}" for n in range(1, report.n_max + 1)]
    header += [f"residual_{n}" for n in range(1, report.n_max + 1)]
    for name in check_names:
        slug = name.replace(" ", "_")
        header += [f"{slug}:passed", f"{slug}:margin"]
    lines = [",".join(header)]
    for r in report.rows:
        cells = [fmt(r.t), fmt(r.estimate), fmt(r.standard_error)]
        cells += [fmt(r.partial_sums[n]) for n in range(1, report.n_max + 1)]
        cells += [fmt(r.residuals[n]) for n in range(1, report.n_max + 1)]
        for c in r.checks:
            cells += [str(int(c.passed)), fmt(c.margin)]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
