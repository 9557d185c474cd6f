"""Bound checks, remainder-order fits and the expansion report.

Every bound check comes from one per-time builder, ``_check_rows``, which
``expansion_report`` runs on each estimate.  The bounds are deterministic:
the Holder term of Theorem 2 uses the exact stable moment E|X_1|^gamma, so
no Monte Carlo draw enters a bound.  Every boolean verdict carries a numeric
margin (distance to violation after the Monte Carlo slack is applied), so a
failing check shows how badly it failed and a passing one how much room it
had.  Monte Carlo slack is ``SE_MULT`` = 4 standard errors per row, each
row at the se of the summands it reads; a row's slack depends on that row
alone, never on how many rows a report holds.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from ._version import __version__
from .coefficients import (
    MAX_ORDER,
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
from .sampling import _check_count, _check_positive_finite, _is_finite_real
from .sampling import moment_estimate  # not called here: perfbench/rep.py wraps validator.moment_estimate by name
from .spectral import SpectralGrid

__all__ = [
    "BoundCheck",
    "OrderFit",
    "PositivityRecord",
    "ReportRow",
    "ExpansionReport",
    "estimate_series",
    "fit_remainder_order",
    "positivity_audit",
    "expansion_report",
    "report_to_json",
    "report_to_csv",
]

SE_MULT = 4.0  # Monte Carlo slack of every report row, in standard errors of the summands it reads


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


def estimate_series(
    v: GaussianMixturePotential, alpha: float, t_list, cfg: McConfig
) -> list[tuple[float, McEstimate]]:
    """(t, estimate) per time, in increasing t, from one estimator call at cfg.seed.

    The times share every draw: each path's start, time fraction and span-1
    shape serve every t (the module docstring of ``montecarlo``).  Sharing
    breaks no gate.  Every bound check reads its own time at the fixed se
    multiple ``SE_MULT``, the order fit reports no slope se, and each
    time's estimate has the same law as if drawn alone; only the rows'
    noise now moves together.  Each time must be a positive finite real
    number (a bool or a string is not).
    """
    times = list(t_list)
    for t in times:
        _check_positive_finite("t", t)
    ts = sorted(float(t) for t in times)
    if not ts:
        raise ValueError("t_list is empty")
    return list(zip(ts, estimate_heat_content(v, alpha, ts, cfg)))


def _check_report_limits(alpha: float, n_max: int, gamma: float | None) -> None:
    """The report's own ranges: 1 <= n_max <= MAX_ORDER and, when given, 0 < gamma < min(1, alpha)."""
    if not 1 <= _check_count("n_max", n_max) <= MAX_ORDER:
        raise ValueError(f"n_max must lie in 1..{MAX_ORDER}, got {n_max}")
    if gamma is not None and not (_is_finite_real(gamma) and 0.0 < gamma < min(1.0, alpha)):
        raise ValueError(f"gamma must lie in (0, min(1, alpha)), got gamma={gamma}, alpha={alpha}")


# -- bound checks --------------------------------------------------------------


def _bound(name: str, value: float, lower: float, upper: float, note: str, se: float, k: float) -> BoundCheck:
    slack = k * se
    margins = []
    if math.isfinite(lower):
        margins.append(value - (lower - slack))
    if math.isfinite(upper):
        margins.append((upper + slack) - value)
    margin = min(margins) if margins else math.inf
    return BoundCheck(name, bool(margin >= 0.0), value, lower, upper, se, k, margin, note)


def _sandwich_applies(v: GaussianMixturePotential) -> bool:
    """V <= 0 and V != 0, where a signed V counts when its sup is below round-off."""
    if v.is_zero or v.is_nonnegative:
        return False
    return v.is_nonpositive or v.max_value() <= 1e-12 * (1.0 + v.sup_norm())


def _stable_moment(alpha: float, gamma: float, d: int) -> float:
    """E|X_1|^gamma for the isotropic law with CF e^{-|xi|^alpha}, 0 < gamma < alpha.

    X_1 = sqrt(2 S) Z with E e^{-lam S} = e^{-lam^{alpha/2}}, so E|X_1|^gamma =
    2^{gamma/2} E S^{gamma/2} E|Z|^gamma, where E S^{gamma/2} =
    Gamma(1 - gamma/alpha) / Gamma(1 - gamma/2) and E|Z|^gamma =
    2^{gamma/2} Gamma((d + gamma)/2) / Gamma(d/2) (Samorodnitsky & Taqqu,
    Stable Non-Gaussian Random Processes, 1994, Property 1.2.17).
    """
    return (
        2.0**gamma
        * math.gamma((d + gamma) / 2.0)
        * math.gamma(1.0 - gamma / alpha)
        / (math.gamma(d / 2.0) * math.gamma(1.0 - gamma / 2.0))
    )


def _remainder(v: GaussianMixturePotential, t: float, k: int) -> float:
    """t^k ||V||_1 ||V||_inf^{k-1} e^{t ||V||_inf}, the bound on the order-(k-1) remainder."""
    sup = v.sup_norm()
    return t**k * v.l1_norm() * sup ** (k - 1) * math.exp(t * sup)


def _check_rows(
    v: GaussianMixturePotential,
    alpha: float,
    t: float,
    est: McEstimate,
    gamma: float | None,
) -> list[tuple[str, float, float, float, str, float]]:
    """(name, value, lower, upper, note, se) of every bound one estimate must meet.

    Q is the control-variate estimate mean(w - y - c) + t^2 T_2(t) + E c - t int V
    of ``estimate_heat_content``, where c is c'' = -y A_U with E c'' = -t^3 T_3(t)
    where T_3 has a rule (``est.path_control``), else c' = -y t s V(x0); every row but the two
    controls reads Q at its se, that of w - y - c.  In order:
      - Theorem 1(i), only for V <= 0: -t int V <= Q <= -t int V (1 + t ||V||_inf e^{t ||V||_inf} / 2);
      - Theorem 1(ii): |Q + t int V| <= t^2 ||V||_1 ||V||_inf e^{t ||V||_inf};
      - exact-t2 consistency: |Q - (-t int V + t^2 T_2(t))| <= t^3 ||V||_1 ||V||_inf^2 e^{t ||V||_inf},
        which is mean(w - y - c) + E c against that bound;
      - Theorem 2, when gamma is given: |Q + t int V - (t^2/2) int V^2| <=
        t^3 ||V||_1 ||V||_inf^2 e^{t ||V||_inf}
        + M_gamma E|X_1|^gamma t^{r + 2} / ((r + 1)(r + 2)),  r = gamma/alpha;
      - t2 control: mean(y) - t^2 T_2(t) = 0 at the se of y, the paths' own check of T_2;
      - t3 control: mean(c) - E c = 0 at the se of c, the paths' own check of E c.
        y and c' do not read A_U, so the t2 row and a c' row carry no step-count
        bias.  c'' reads the trapezoid rule's A_U, so a c'' row also reads its
        step bias, E[y (int_0^U V(X_s) ds - A_U)]: the coupled shift from 32 to
        64 steps was at most 1.2e-8 at t = 0.2 on the benchmark potentials,
        about 0.01 se at their path budgets, so the row is a free probe of it.
    The controls' notes say that the rows of one series move together, as
    they share the start points, and a c'' row's note says that it reads the step bias.
    No row compares the estimate with the T_2 or E c it used.
    """
    q, se = est.mean, est.standard_error
    vol = v.integral()
    rows = []
    if _sandwich_applies(v):
        lead = -t * vol
        sup = v.sup_norm()
        rows.append((f"first-order sandwich lower t={t:g}", q, lead, math.inf, "", se))
        upper = lead * (1.0 + 0.5 * t * sup * math.exp(t * sup))
        rows.append((f"first-order sandwich upper t={t:g}", q, -math.inf, upper, "", se))
    b2 = _remainder(v, t, 2)
    rows.append((f"first-order remainder t={t:g}", q + t * vol, -b2, b2, "", se))
    b3 = _remainder(v, t, 3)
    ref = -t * vol + t**2 * t2_exact(v, alpha, t)
    rows.append((f"exact-t2 consistency t={t:g}", q - ref, -b3, b3, "", se))
    if gamma is not None:
        r = gamma / alpha
        moment = _stable_moment(alpha, gamma, v.dimension)
        b = b3 + v.holder_constant(gamma) * moment * t ** (r + 2.0) / ((r + 1.0) * (r + 2.0))
        value = q + t * vol - t**2 * c0k(v, 2)
        rows.append((f"second-order remainder t={t:g}", value, -b, b, f"holder gamma={gamma:g}", se))
    shared = "the times of one series share the seed's start points, so these rows move together"
    rows.append((f"t2 control t={t:g}", est.t2_residual, 0.0, 0.0, shared, est.t2_residual_se))
    if est.path_control:
        shared += "; the control is c'' = -y A_U, so this row also reads the trapezoid rule's step bias"
    rows.append((f"t3 control t={t:g}", est.t3_residual, 0.0, 0.0, shared, est.t3_residual_se))
    return rows


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
    n_max: int = MAX_ORDER,
    gamma: float | None = None,
) -> ExpansionReport:
    """Monte Carlo vs deterministic partial sums with bound checks and order fits.

    Per time: the estimate, partial sums Q_N for N = 1..n_max, residuals and
    the bound checks of ``_check_rows`` (the V <= 0 sandwich when it applies,
    the first-order remainder, the exact-t2 consistency, the Holder
    second-order bound when gamma is given, and the t2 and t3 controls at
    the se of their own summands), each at ``SE_MULT`` se.  Per order N: a
    log-log remainder fit over the times whose residuals clear the noise gate.
    Deterministic given the seed; the estimates come from ``estimate_series``.
    """
    _check_report_limits(alpha, n_max, gamma)
    if grid is None:
        grid = SpectralGrid.default_for(v.dimension)
    rows = []
    for t, est in estimate_series(v, alpha, t_list, cfg):
        sums = {n: partial_sum(v, grid, alpha, n, t) for n in range(1, n_max + 1)}
        res = {n: est.mean - sums[n] for n in sums}
        checks = tuple(_bound(*c, SE_MULT) for c in _check_rows(v, alpha, t, est, gamma))
        rows.append(ReportRow(t, est.mean, est.standard_error, sums, res, checks))
    fits: dict[int, OrderFit] = {}
    for n in range(1, n_max + 1):
        try:
            fits[n] = fit_remainder_order(
                [r.t for r in rows], [r.residuals[n] for r in rows], [r.standard_error for r in rows]
            )
        except ValueError:
            continue
    return ExpansionReport(alpha, v.dimension, n_max, tuple(rows), fits, SE_MULT, __version__)


# -- serialization -----------------------------------------------------------------


def _finite_or_null(items) -> dict:
    return {key: None if isinstance(x, float) and math.isinf(x) else x for key, x in items}


def report_to_json(report: ExpansionReport) -> str:
    """Canonical JSON (sorted keys, infinite bounds as null); identical configs give identical bytes."""
    return json.dumps(asdict(report, dict_factory=_finite_or_null), sort_keys=True, indent=2)


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
