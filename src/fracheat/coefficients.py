"""Deterministic small-time expansion coefficients and their cross-checks.

The heat content admits Q(t) = -t C_1 + sum_{l=2}^{N} (-t)^l C_l + O(t^{N+1})
with C_1 = int V and, for 2 <= l <= 5, c_ell summing the closed route's

    C_l = sum_{n + k = l, k >= 2} (1/n!) C_{n,k}.

The Fourier-lattice route (cnk_fourier) sums, on the frequency lattice,

    C_{n,k} = sum_{|l| = n} A(n, l) *
        (2 pi)^{-d(k-1)} int vhat(-sum th_i) prod vhat(th_i)
                             prod_i |th_1 + ... + th_i|^{alpha l_i} dth.

The closed route (cnk_closed) writes each C_{n,k} through mixture integrals,
the Dirichlet form E_alpha and powers of F = (-Delta)^{alpha/2}.
Sum-of-squares forms of C_4 and C_5 make nonnegativity for V >= 0 manifest.
Every route reads one cached LatticeFields per (V, grid, alpha), so their
agreement tolerances hold far below the individual truncation errors; every
lattice route first checks that the grid's box holds V (_check_box).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .potentials import GaussianMixturePotential
from .sampling import _check_alpha, _check_count, _is_finite_real
from .simplex import weight_A
from .spectral import (  # perfbench/rep.py wraps these names where they are bound here
    GridField,
    SpectralGrid,
    _real_part,
    apply_fractional_laplacian,
    forward_transform,
    grid_integral,
    kink_correction,
    sample_on_grid,
    symbol_array,
    weighted_freq_sum,
)

__all__ = [
    "RouteUnavailable",
    "cnk_closed",
    "CoefficientEntry",
    "CoefficientTable",
    "c0k",
    "cnk_fourier",
    "dirichlet_form",
    "c3_closed",
    "c4_closed",
    "c4_sos",
    "c5_closed",
    "c5_sos",
    "c_ell",
    "partial_sum",
    "t2_exact",
    "t2_kernel",
    "t3_exact",
    "coefficient_table",
]

MAX_ORDER = 5  # the highest order l of C_l implemented on both routes
# _pair_integral's radial rule: tanh-sinh nodes at u = k h for |u| <= _TS_SPAN, whose end
# nodes lie within b e^{-pi sinh 3.5} ~ 3e-23 b of the ends of [0, b].  h halves from 1/2
# until two estimates agree to _TS_RTOL, at most _TS_LEVELS times.  An integral whose
# pair sums cancel, as an odd V's against its even V^2 do, is held instead to _TS_FLOOR
# times the integral of its pair sums' |terms|, about 100 times the rounding such sums
# were seen to leave; the floor takes over only below 1% of that integral.
_TS_SPAN = 3.5
_TS_RTOL = 1e-13
_TS_FLOOR = 1e-15
_TS_LEVELS = 10
# t3_exact's two rules keep a level once it differs from the one before by at most _T3_RTOL
# of its value or _T3_FLOOR of the integral of its |terms|, which holds a T_3 whose terms
# cancel, as an odd V's do.  Each rule's error about squares when its resolution doubles
# (halving h, doubling the Gauss-Legendre order), so the kept level errs far less than the
# difference: on the test mixtures at t <= 1, levels 3e-4 (polar rule, d = 1) and 1.5e-7 (alpha = 2
# rule) of T_3 from the one before erred by 4e-12.  At most _T3_LEVELS doublings.  Each rule
# sums in blocks of about _T3_POINTS terms (pairs of radii in the polar rule, nodes times K^3
# triples at alpha = 2), so that no order of either rule holds more than a few such arrays; the
# polar rule's step h never falls below _T3_STEP (a grid of about 1,800 radii a side).
_T3_RTOL = 1e-6
_T3_FLOOR = 1e-9
_T3_LEVELS = 5
_T3_POINTS = 2**12
_T3_STEP = 2.0**-8


class RouteUnavailable(ValueError):
    """Requested coefficient route is outside the supported set."""


def c0k(v: GaussianMixturePotential, k: int) -> float:
    """C_{0,k} = (1/k!) int V^k, exact through the mixture algebra."""
    if _check_count("k", k) < 2:
        raise ValueError("c0k requires k >= 2")
    return v.power(k).integral() / math.factorial(k)


# -- shared lattice objects ------------------------------------------------


def _check_box(v: GaussianMixturePotential, grid: SpectralGrid) -> None:
    """Raise ValueError unless L >= max_k |mu_i,k| + sqrt(30 / a_i), i.e. a_i (L - max_k |mu_i,k|)^2 >= 30 with
    mu_i in the box, for every component: each is then below e^{-30} of its peak on the box's faces."""
    _, a, mu = v._arrays()
    need = float((np.abs(mu).max(axis=1, initial=0.0) + np.sqrt(30.0 / a)).max(initial=0.0))
    if need > grid.half_extent:
        raise ValueError(f"grid.half_extent = {grid.half_extent:g} cuts off V; it needs half_extent >= {need!r}")


def _smooth_density(v: GaussianMixturePotential):
    return lambda x: float(np.abs(v.fourier(x)) ** 2)


@dataclass(frozen=True, eq=False)
class LatticeFields:
    """Read-only arrays every route shares for one (V, grid, alpha): V, V^2 (the
    mixture sq), V^3, FV and F^2 V on the physical grid, and the discrete
    transforms vhat, v2hat of V and V^2."""

    grid: SpectralGrid
    alpha: float
    v: GaussianMixturePotential
    sq: GaussianMixturePotential
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    fv: np.ndarray
    f2v: np.ndarray
    vhat: np.ndarray
    v2hat: np.ndarray

    def integral(self, values: np.ndarray) -> float:
        """h^d sum of a physical-grid array."""
        return grid_integral(GridField(self.grid, "physical", values))

    def kink(self, beta: float, w: GaussianMixturePotential | None = None) -> float:
        """Kink correction for int |xi|^beta |what|^2 with W = V unless given; 0 in d >= 2."""
        return kink_correction(self.grid, beta, _smooth_density(self.v if w is None else w))

    def energy(self, beta: float, square: bool = False) -> float:
        """(2 pi)^{-d} int |xi|^beta |what|^2 for W = V (or V^2), kink-corrected in d = 1."""
        spec, w = (self.v2hat, self.sq) if square else (self.vhat, self.v)
        return weighted_freq_sum(self.grid, np.abs(spec) ** 2, beta, smooth_at=_smooth_density(w))


@functools.lru_cache(maxsize=16)
def lattice_fields(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> LatticeFields:
    """The LatticeFields of (V, grid, alpha), built once and cached: V, V^2 and V^3
    are sampled once each, V and V^2 transformed once each, FV and F^2V read off vhat."""
    _check_alpha(alpha)
    _check_box(v, grid)
    sq = v.power(2)
    fields = [sample_on_grid(w, grid) for w in (v, sq, v.power(3))]
    vhat, v2hat = (forward_transform(field) for field in fields[:2])
    fields += [apply_fractional_laplacian(vhat, alpha, p) for p in (1, 2)] + [vhat, v2hat]
    for field in fields:
        field.values.flags.writeable = False
    return LatticeFields(grid, alpha, v, sq, *(field.values for field in fields))


def dirichlet_form(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> float:
    """E_alpha(V) = (2 pi)^{-d} int |xi|^alpha |vhat(xi)|^2 dxi, read from the cached bundle.

    Nonnegative; equals int |grad V|^2 at alpha = 2.  Uses the kink-corrected
    frequency sum in d = 1, the raw lattice sum otherwise.
    """
    return lattice_fields(v, grid, alpha).energy(alpha)


# -- the two routes ----------------------------------------------------------


def _on_lattice(n: int, k: int, d: int) -> bool:
    """Whether cnk_fourier sums C_{n,k} on its d(k - 1)-dimensional frequency lattice."""
    return k in (2, 3) and 0 < n <= 6 and d * (k - 1) <= 2


def cnk_fourier(
    v: GaussianMixturePotential, grid: SpectralGrid, alpha: float, n: int, k: int
) -> float:
    """C_{n,k} through frequency-lattice quadrature, with weight A(n, l) = n!/(n + k)!.

    Supported: k = 2 with n <= 6 in d <= 2, k = 3 with n <= 6 in d = 1 (the
    sum lives on a d(k-1)-dimensional lattice), n = 0 for any k (analytic),
    and (n, k) = (1, 4) through cnk_closed; else RouteUnavailable.
    """
    _check_alpha(alpha)
    if n == 0:
        return c0k(v, k)
    if (n, k) == (1, 4):
        return cnk_closed(v, grid, alpha, 1, 4)
    if not _on_lattice(n, k, grid.dimension):
        raise RouteUnavailable(f"cnk_fourier does not support (n, k) = ({n}, {k}) in d = {grid.dimension}")
    weight = float(weight_A(n, (n,) + (0,) * (k - 2)))
    if k == 2:
        return weight * lattice_fields(v, grid, alpha).energy(alpha * n)
    _check_box(v, grid)
    # k == 3, d == 1: vhat(-s) |s|^{alpha (n - j)} depends only on s = xi_1 + xi_2, so each
    # split (j, n - j) of n is one convolution in xi_1, read on the 2N - 1 lattice sums s.
    xi = grid.axis_freqs()
    s = grid.freq_spacing * (np.arange(2 * xi.size - 1) - xi.size)
    vhat, outer = v.fourier(xi), v.fourier(-s)
    total = sum(
        np.dot(outer * np.abs(s) ** (alpha * (n - j)), np.convolve(vhat * np.abs(xi) ** (alpha * j), vhat))
        for j in range(n + 1)
    )
    total *= weight * (grid.freq_spacing / (2.0 * math.pi)) ** 2
    return float(_real_part(total, f"cnk_fourier({n},{k})"))


_CLOSED = {  # C_{n,k}, n >= 1, from the LatticeFields f; see cnk_closed
    (1, 2): lambda f: f.energy(f.alpha) / 6.0,
    (2, 2): lambda f: (f.integral(f.fv**2) + f.kink(2.0 * f.alpha)) / 12.0,
    (3, 2): lambda f: (f.integral(f.fv * f.f2v) + f.kink(3.0 * f.alpha)) / 20.0,
    (1, 3): lambda f: f.integral(f.v2 * f.fv) / 12.0,
    (2, 3): lambda f: (2.0 * f.integral(f.v2 * f.f2v) + f.integral(f.v1 * f.fv**2)) / 60.0,
    (1, 4): lambda f: (2.0 * f.integral(f.v3 * f.fv) + f.energy(f.alpha, square=True)) / 120.0,
}


def cnk_closed(
    v: GaussianMixturePotential, grid: SpectralGrid, alpha: float, n: int, k: int
) -> float:
    """Closed (operator/spatial) route, the one home of the closed per-term formulas:

    C_{0,k} = (1/k!) int V^k, C_{1,2} = (1/6) E_alpha(V), C_{2,2} = (1/12) int (FV)^2,
    C_{3,2} = (1/20) int FV F^2V, C_{1,3} = (1/12) int V^2 FV,
    C_{2,3} = (1/60)(2 int V^2 F^2V + int V (FV)^2), C_{1,4} = (1/120)(2 int V^3 FV + E_alpha(V^2)).
    Quadratic-in-V pieces carry the kink correction, as in the frequency route.
    """
    _check_alpha(alpha)
    if n == 0:
        return c0k(v, k)
    if (n, k) not in _CLOSED:
        raise RouteUnavailable(f"cnk_closed supports (n, k) in {sorted(_CLOSED)} and n = 0; got ({n}, {k})")
    return float(_CLOSED[n, k](lattice_fields(v, grid, alpha)))


# -- assembled coefficients --------------------------------------------------


# typed: True and 1 (or 1 and 1.0) are distinct keys, so no cache hit skips the checks on alpha and ell
@functools.lru_cache(maxsize=256, typed=True)
def c_ell(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float, ell: int) -> float:
    """Order-l coefficient C_l, 1 <= l <= MAX_ORDER: C_1 = int V, else sum_{k=2}^{l} C_{l-k,k}/(l-k)!
    with each C_{n,k} from cnk_closed."""
    _check_alpha(alpha)
    if _check_count("ell", ell) < 1:
        raise ValueError("need ell >= 1")
    if ell > MAX_ORDER:
        raise RouteUnavailable(f"coefficients are implemented for ell <= {MAX_ORDER}, got {ell}")
    if ell == 1:
        return v.integral()
    return sum(cnk_closed(v, grid, alpha, ell - k, k) / math.factorial(ell - k) for k in range(2, ell + 1))


def c3_closed(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> float:
    """C_3 = (1/6)(int V^3 + E_alpha(V))."""
    return c_ell(v, grid, alpha, 3)


def c4_closed(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> float:
    """C_4 = (1/24)(int V^4 + 2 int V^2 FV + int |FV|^2)."""
    return c_ell(v, grid, alpha, 4)


def c5_closed(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> float:
    """C_5 = (1/120)(int V^5 + 2 int V^3 FV + 2 int V^2 F^2 V
    + int V (FV)^2 + E_alpha(FV) + E_alpha(V^2))."""
    return c_ell(v, grid, alpha, 5)


def c4_sos(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> float:
    """C_4 = (1/24) int (V^2 + FV)^2, nonnegative by inspection; its int |FV|^2
    content takes the kink correction of C_{2,2}, so both routes share lattice error."""
    f = lattice_fields(v, grid, alpha)
    return (f.integral((f.v2 + f.fv) ** 2) + f.kink(2.0 * alpha)) / 24.0


def c5_sos(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> float:
    """C_5 = (1/120)[int V (V^2 + FV)^2
    + (2 pi)^{-d} int | |xi|^alpha vhat + (V^2)hat |^2 |xi|^alpha dxi],
    manifestly nonnegative for V >= 0.  The kink corrections of the two
    square pieces mirror those of C_{3,2} and C_{1,4} exactly.
    """
    f = lattice_fields(v, grid, alpha)
    spatial = f.integral(f.v1 * (f.v2 + f.fv) ** 2)
    dens = np.abs(symbol_array(grid, alpha) * f.vhat + f.v2hat) ** 2
    freq = weighted_freq_sum(grid, dens, alpha) + f.kink(3.0 * alpha) + f.kink(alpha, f.sq)
    return (spatial + freq) / 120.0


def _check_times(ts) -> np.ndarray:
    """ts read once as a float array, each time a nonnegative finite real number and not a bool."""
    times = list(ts)
    for t in times:
        if not (_is_finite_real(t) and t >= 0.0):
            raise ValueError(f"t must be a nonnegative finite number, got {t!r}")
    return np.array([float(t) for t in times])


def partial_sum(
    v: GaussianMixturePotential,
    grid: SpectralGrid,
    alpha: float,
    n_terms: int,
    t: float,
) -> float:
    """Q_N(t) = -t C_1 + sum_{l=2}^{N} (-t)^l C_l for N = n_terms >= 1; c_ell rejects an order above MAX_ORDER."""
    if _check_count("n_terms", n_terms) < 1:
        raise ValueError(f"n_terms must be >= 1, got {n_terms}")
    _check_times([t])
    out = -t * c_ell(v, grid, alpha, 1)
    for ell in range(2, n_terms + 1):
        out += (-t) ** ell * c_ell(v, grid, alpha, ell)
    return out


# -- exact second-order profile ----------------------------------------------


def _series_below_half(u, coef, closed) -> np.ndarray:
    """closed(u) for |u| >= 0.5 and the 16-term series sum_{n < 16} (-u)^n/n! coef(n) below, where a closed
    form of ``t2_kernel`` or ``t3_kernel`` loses digits to cancellation.  The series runs Horner's rule in
    x = -u on the coefficients coef(n)/n!, one in-place multiply and add per term, so that each entry's sum
    reads that entry alone and the work holds two arrays of the entries below 0.5."""
    arr = np.asarray(u, dtype=float)
    near = np.abs(arr) < 0.5
    out = np.asarray(closed(np.where(near, 1.0, arr)))
    x = -arr[near]
    series = np.full(x.size, coef(15) / math.factorial(15))
    for n in range(14, -1, -1):
        series *= x
        series += coef(n) / math.factorial(n)
    out[near] = series
    return float(out) if np.ndim(u) == 0 else out


def t2_kernel(u) -> np.ndarray:
    """psi(u) = (e^{-u} - 1 + u)/u^2 = int_0^1 (1 - s) e^{-us} ds, for T_2, T_3's Duhamel kernel and its polar rule.

    The closed form loses about 2 eps/u to cancellation, so for |u| < 0.5 psi is the series
    sum_n (-u)^n/(n + 2)!, whose first omitted term is below 3e-21 there; outside, the closed
    form loses at most 5 eps.  psi(0) = 1/2; psi > 0 is decreasing on the whole line,
    completely monotone toward 0 for u > 0 and growing like e^{-u}/u^2 for u < 0.
    """
    return _series_below_half(u, lambda n: 1.0 / ((n + 1) * (n + 2)), lambda u: (np.expm1(-u) + u) / u**2)


@functools.lru_cache(maxsize=256, typed=True)
def t2_exact(v: GaussianMixturePotential, alpha: float, t: float) -> float:
    """T_2(t) = (2 pi)^{-d} int |vhat(xi)|^2 psi(t |xi|^alpha) dxi.

    The exact t^2 profile: Q(t) = -t int V + t^2 T_2(t) + R_3 with
    |R_3| <= t^3 ||V||_1 ||V||_inf^2 e^{t ||V||_inf}.  One radial pair
    integral (`_pair_integral`) in every d, so no lattice enters it.
    Cached, so the estimator's control variate and the report's exact-t2
    row share one integral; typed, so a bool alpha or t misses a float
    entry and meets the argument checks.
    """
    _check_alpha(alpha)
    _check_times([t])
    return float(_pair_integral(v, v, lambda r: t2_kernel(t * r**alpha)[np.newaxis])[0])


# -- the third-order control's mean --------------------------------------------


def t3_kernel(u) -> np.ndarray:
    """phi(u) = int_0^1 2 s (1 - s) e^{-us} ds = 2 ((u - 2) + (u + 2) e^{-u}) / u^3.

    The closed form loses about eps/u^3 to cancellation, so for |u| < 0.5 phi
    is the 16-term series sum_n (-u)^n/n! 2/((n + 2)(n + 3)) by Horner's rule,
    whose first omitted term is below 5e-21 there.  phi(0) = 1/3; phi > 0 is
    decreasing on the whole line.
    """
    return _series_below_half(u, lambda n: 2.0 / ((n + 2) * (n + 3)), lambda u: 2.0 * (2.0 * u + (u + 2.0) * np.expm1(-u)) / u**3)


def t3_control_mean(v: GaussianMixturePotential, alpha: float, ts) -> np.ndarray:
    """E c' = -(t^3/2) (2 pi)^{-d} int conj((V^2)hat(xi)) vhat(xi) phi(t |xi|^alpha) dxi at each t of ts.

    c' = -y t s V(x0) is the estimator's third-order control (``montecarlo``);
    phi = ``t3_kernel``, and E c' -> -t^3 int V^3 / 6 = -t^3 C_{0,3} as t -> 0.
    One radial pair integral of (V^2, V) serves every time, and each time's
    value is bit-identical to a call at that time alone.
    """
    _check_alpha(alpha)
    times = _check_times(ts)
    pair = _pair_integral(v.power(2), v, lambda r: t3_kernel(np.multiply.outer(times, r**alpha)))
    return -0.5 * times**3 * pair


# -- the cubic Duhamel term ------------------------------------------------------


def _duhamel_kernel(a: np.ndarray, b: np.ndarray, psi_a: np.ndarray, psi_b: np.ndarray) -> np.ndarray:
    """K(a, b) = int_0^1 (1 - s) int_0^s e^{-r a - (s - r) b} dr ds, broadcast over a and b, given
    psi_a = psi(a) and psi_b = psi(b) (``t2_kernel``), which a caller that pairs each a with many b forms once.

    The inner integral is (e^{-s b} - e^{-s a})/(a - b), so K = (psi(b) - psi(a))/(a - b), the mean
    of phi/2 over [b, a] with phi = ``t3_kernel``, and K(a, a) = phi(a)/2.
    The divided difference of a full-precision psi loses about 6 eps (1 + a + b)/|a - b| to
    cancellation, so where |a - b| <= 5e-3 (1 + a + b) the 3-point Gauss-Legendre rule on that
    mean takes over, which errs there by below 0.16 (|a - b|/(a + b))^6 relative: each branch
    errs by below about 1e-13.
    """
    gap = a - b
    near = np.abs(gap) <= 5e-3 * (1.0 + a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (psi_b - psi_a) / gap
    lo, hi = (x[near] for x in np.broadcast_arrays(a, b))
    mid, half = 0.5 * (lo + hi), math.sqrt(0.15) * (hi - lo)
    phi = t3_kernel(np.concatenate([mid - half, mid, mid + half])).reshape(3, -1)
    out[near] = (5.0 * (phi[0] + phi[2]) + 8.0 * phi[1]) / 36.0
    return out


def t3_exact(v: GaussianMixturePotential, alpha: float, ts) -> np.ndarray:
    """T_3(t) at each t of ts: t^3 T_3(t) = E[y A_U], the cubic Duhamel term, so that
    Q(t) = -t int V + t^2 T_2(t) - t^3 T_3(t) + O(t^4).

        T_3 = (2 pi)^{-2d} int int conj(vhat(xi)) vhat(xi - eta) vhat(eta) K(t |xi|^alpha, t |eta|^alpha) dxi deta
            = int_0^1 (1 - s) int_0^s int (P_{t r} V) V (P_{t (s - r)} V) dx dr ds,

    with K = ``_duhamel_kernel`` and P_u = e^{-u F}.  T_3(0) = int V^3 / 6.  At alpha = 2, in every
    d, each P_u of a Gaussian is a Gaussian (``_t3_heat``); in d = 1 and 2 at alpha < 2 a tanh-sinh
    rule in the radii of xi and eta, with the angles summed exactly (d = 1) or by the periodic
    trapezoid rule (d = 2), sums the Fourier form (``_t3_polar``).  A check on ``_t3_converged``, the
    one evaluation the estimator also reads; each time's value is bit-identical to a call at
    that time alone.

    Raises:
        RouteUnavailable: in d = 3 at alpha < 2 and V != 0, where no rule sums the 6-dimensional
            Fourier form, and naming the times where no rule converges within its budget: centres
            too far apart for the polar rule's finest step, or a sharpness times t so large that
            the alpha = 2 rule's Gauss-Legendre orders do not resolve the layer near the triangle's
            edges.
        ValueError: on a bad alpha or t.
    """
    _check_alpha(alpha)
    times = _check_times(ts)
    if alpha != 2.0 and v.dimension > 2 and not v.is_zero:
        raise RouteUnavailable(f"t3_exact needs d = 1, d = 2 or alpha = 2, got d = {v.dimension}, alpha = {alpha}")
    t3, converged = _t3_converged(v, alpha, times)
    if not converged.all():
        limit = f"sharpness up to {max(v.sharpness):g}" if alpha == 2.0 else f"centres {_centre_gaps(v).max():g} apart"
        bad = ", ".join(f"{t:g}" for t in times[~converged])
        raise RouteUnavailable(f"T_3 did not converge at t = {bad} ({limit})")
    return t3


def _t3_converged(v: GaussianMixturePotential, alpha: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T_3 at each of the checked times and whether a rule converged there (T_3 is nan where none did):
    V = 0 needs none, d = 3 at alpha < 2 has none.  Each time's rule runs once, as in a lone call."""
    if v.is_zero or (alpha != 2.0 and v.dimension > 2):
        t3, converged = np.zeros(times.size), np.full(times.size, v.is_zero)
    else:
        t3, converged = _t3_heat(v, times) if alpha == 2.0 else _t3_polar(v, float(alpha), times)
    return np.where(converged, t3, np.nan), converged


@functools.lru_cache(maxsize=_T3_LEVELS + 1)
def _triangle_rule(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, s - r, weight) at the n^2 nodes of a Gauss-Legendre rule for int_0^1 (1 - s) int_0^s f(r, s - r) dr ds.

    Duffy's map r = s tau takes the triangle to the unit square with Jacobian s; each
    side carries the n-point rule on [0, 1], whose nodes and weights are the eigenvalues
    and the squared first components of the Jacobi matrix of the Legendre polynomials
    (Golub & Welsch, 1969).  numpy.polynomial's leggauss gives the same rule, but importing
    numpy.polynomial took 3-4 ms on a 2-vCPU Xeon, more than a whole series of T_3 at
    alpha = 2, paid on the first call of every process."""
    k = np.arange(1.0, n)
    x, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), 1), UPLO="U")
    x, w = 0.5 * (x + 1.0), vectors[0] ** 2
    s, tau = (g.ravel() for g in np.meshgrid(x, x, indexing="ij"))
    weight = np.outer(w, w).ravel() * (1.0 - s) * s
    return s * tau, s * (1.0 - tau), weight


def _t3_heat(v: GaussianMixturePotential, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T_3 at each of times at alpha = 2 in any d, and whether it converged.  With P_u e^{-a |x - mu|^2} =
    (1 + 4 a u)^{-d/2} e^{-a |x - mu|^2 / (1 + 4 a u)}, each triple (i, j, k) of components gives at (r, s - r) the Gaussian integral

        int e^{-p |x - mu_i|^2 - q |x - mu_j|^2 - w |x - mu_k|^2} dx
            = (pi / S)^{d/2} e^{-(p q |mu_i - mu_j|^2 + p w |mu_i - mu_k|^2 + q w |mu_j - mu_k|^2) / S},

    p = a_i, q = a_j l_j, w = a_k l_k, S = p + q + w, l_j = 1/(1 + 4 a_j t r), l_k = 1/(1 + 4 a_k t (s - r)),
    times c_i c_j c_k (l_j l_k)^{d/2}.  The (r, s) triangle takes ``_triangle_rule`` from 4 nodes
    a side, doubled until two orders agree (``_T3_RTOL``, ``_T3_FLOOR``), at most ``_T3_LEVELS``
    times, for each time on its own; each order is summed in blocks of ``_T3_POINTS`` // K^3 nodes."""
    c, a, mu = v._arrays()
    gap = ((mu[:, np.newaxis] - mu) ** 2).sum(axis=-1)
    triples = np.multiply.outer(c, np.multiply.outer(c, c)).ravel()
    # (i, j, k) on the last three axes: p, |mu_i - mu_j|^2, |mu_i - mu_k|^2, |mu_j - mu_k|^2
    p, g_ij, g_ik, g_jk = a[:, None, None], gap[:, :, None], gap[:, None, :], gap[None]
    signs = np.stack([triples, np.abs(triples)], axis=1)
    step = max(1, _T3_POINTS // triples.size)
    out, converged = np.empty(times.size), np.zeros(times.size, dtype=bool)
    for i, t in enumerate(times):
        n, prev = 4, None
        for _ in range(_T3_LEVELS + 1):
            r1, r2, weight = _triangle_rule(n)
            total = mass = 0.0
            for lo in range(0, weight.size, step):
                lj, lk = (1.0 / (1.0 + 4.0 * t * np.multiply.outer(r[lo : lo + step], a)) for r in (r1, r2))
                q, w = (a * lj)[:, None, :, None], (a * lk)[:, None, None, :]
                big_s = p + q + w
                scale = math.pi * lj[:, None, :, None] * lk[:, None, None, :] / big_s
                term = (scale ** (v.dimension / 2.0) * np.exp(-(p * (q * g_ij + w * g_ik) + q * w * g_jk) / big_s)).reshape(lj.shape[0], -1)
                part = weight[lo : lo + step] @ (term @ signs)
                total, mass = total + part[0], mass + part[1]
            converged[i] = prev is not None and abs(total - prev) <= max(_T3_RTOL * abs(total), _T3_FLOOR * mass)
            if converged[i]:
                break
            n, prev = 2 * n, total
        out[i] = total
    return out, converged


def _centre_gaps(v: GaussianMixturePotential) -> np.ndarray:
    """The Euclidean distances |mu_i - mu_j| between the centres of every pair of V's components, (J, J)."""
    mu = v._arrays()[2]
    return np.sqrt(((mu[:, np.newaxis] - mu) ** 2).sum(axis=-1))


def _angle_count(v: GaussianMixturePotential) -> int:
    """The even number N of angles of ``_t3_polar`` in d = 2, from the widest phase and coupling bandwidths.

    conj(vhat(xi)) e^{-i xi.mu_j} carries the phases e^{i xi.(mu_i - mu_j)}, whose angular modes at
    |xi| = rho are J_n(rho |mu_i - mu_j|), negligible once n passes rho |mu_i - mu_j|.  Over eta the
    terms of component i at xi and j at xi - eta decay at least as e^{-rho^2 (1/a_i + 1/(a_j + max a))/4},
    below 1e-16 beyond rho^2 = 148/(1/a_i + 1/(a_j + max a)).  The coupling e^{rho sigma cos(theta - phi)
    /(2 a_j)} has the modes I_n(z) e^{-z} ~ e^{-n^2/(2 z)}, z = rho sigma/(2 a_j), under the decay
    e^{-(rho^2 + sigma^2)/(4 max a)}, which peak at e^{-n sqrt(2 a_j/max a)}: below 1e-16 once n passes
    37 sqrt(max a/(2 a_j)).  N is the even number 8 to 10 above the root sum of squares of the two: on
    44 random mixtures of one to three components, with a in [0.2, 5] and centres up to 6 apart, T_3
    at alpha = 1 with that N met its value at N = 240 to 1.5e-15, and N 6 to 26 smaller still met it
    to 1e-13."""
    a = v._arrays()[1]
    phase = float((_centre_gaps(v) * np.sqrt(148.0 / (1.0 / a[:, np.newaxis] + 1.0 / (a + a.max())))).max())
    coupling = 37.0 * math.sqrt(a.max() / (2.0 * a.min()))
    return 2 * math.ceil(0.5 * math.hypot(phase, coupling)) + 8


def _t3_polar(v: GaussianMixturePotential, alpha: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T_3 at each of times in d = 1 or 2 by a product tanh-sinh rule in the radii, and whether it converged.

    In polar coordinates xi = rho e_theta, eta = sigma e_phi, K reads the radii only, so

        T_3 = (2 pi)^{-2d} int_0^R int_0^R (rho sigma)^{d-1} F(rho, sigma) K(t rho^alpha, t sigma^alpha) dsigma drho,

    F the sum over directions of conj(vhat(xi)) vhat(xi - eta) vhat(eta): over e = +1 and -1 in
    d = 1, and in d = 2 the N-point periodic trapezoid rule in each angle, of weight 2 pi/N, which
    converges exponentially in N (``_angle_count``).  With vhat(xi) = sum_j A_j(|xi|) e^{-i xi.mu_j},
    A_j(r) = c_j (pi/a_j)^{d/2} e^{-r^2/(4 a_j)}, and P_j = conj(vhat(xi)) e^{-i xi.mu_j}:

        F = sum_j A_j(0) sum_{theta, phi} P_j(rho, theta) k_j(theta - phi) conj(P_j(sigma, phi)),

    where e^{i eta.mu_j} vhat(eta) = conj(P_j(sigma, phi)) and k_j = e^{-|xi - eta|^2/(4 a_j)} reads
    rho, sigma and theta - phi only.  So the double angle sum is a circular convolution,
    sum_n Phat_j(rho, n) khat_j(n) conj(Phat_j(sigma, n))/N, with one FFT of P_j per radius; k_j is
    even, so khat_j is real and even and comes from the N/2 + 1 samples of k_j at theta - phi in
    [0, pi] (a cosine transform).  d = 1 is the case N = 2 with weight 1.  Re F K is symmetric in
    rho and sigma, and F depends on neither alpha nor t: each level builds F once on its new pairs
    of radii, counting each pair of a new and an old radius twice, and every time reads it through
    its own K.  |F| is bounded by g(rho) g(sigma) sum_j |A_j(0)| sum_{theta, phi} k_j with
    g = sum_j |A_j|, and beyond R = sqrt(160 max a) that bound is below e^{-60} of its peak.
    The phases oscillate in the radii at the gaps between centres, up to D = max |mu_i - mu_j|, and
    the rule's widest node spacing is h pi R / 4, at R/2: on two bumps in d = 1 the levels met once
    h R D <= 5.  So the first level takes the largest h <= 1/2 with h R D <= 16, which is 1/2 for
    every mixture with R D <= 32, and centres that would need a first h below 4 ``_T3_STEP``
    converge at no time, with no level summed.  Each level halves h as ``_tanh_sinh`` does and sums
    only its new pairs, down to ``_T3_STEP``, until every time has converged; each time keeps the
    first level at which it converged (``_T3_RTOL``, ``_T3_FLOOR``).  A block holds about ``_T3_POINTS``
    pairs of radii, and fewer where their angle modes would pass 4 ``_T3_POINTS`` pairs times modes.
    """
    c, a, mu = v._arrays()
    d = v.dimension
    amp, rate = c * (math.pi / a) ** (d / 2.0), 0.25 / a
    cut, gap = math.sqrt(160.0 * a.max()), float(_centre_gaps(v).max())
    n = 2 if d == 1 else _angle_count(v)
    half = n // 2 + 1
    theta = (2.0 * math.pi / n) * np.arange(n)
    along = np.stack([np.cos(theta), np.sin(theta)])[:d].T @ mu.T  # (n, J): e_theta . mu_j
    # mode h of k from its samples at theta_m, m <= n/2: weight 2 where -theta_m is another sample, and
    # times 1/2 where -h is mode h itself (h = 0, n/2), since each column h sums the modes h and -h
    ends = np.isin(np.arange(half), (0, n // 2))
    fold = np.where(ends, 1.0, 2.0)
    cosine = np.cos(np.outer(np.arange(half), theta[:half])) * fold * (fold / (2.0 * n))[:, np.newaxis]
    # int_0^inf x^{d-1} g(x) dx, g = sum_j |A_j|
    mass_g = float(np.abs(amp) @ (0.5 * math.gamma(d / 2.0) * (4.0 * a) ** (d / 2.0)))

    def nodes(u: np.ndarray) -> tuple[np.ndarray, ...]:
        """Node arrays of the steps u with the node axis last: the radii x, their weights times x^{d-1},
        the real and imaginary parts of Phat_j at the modes h and -h, (J, half, 4, nodes), g(x), and
        t x^alpha and its psi at each time, (T, nodes); nodes whose weight times x^{d-1} g(x) is below
        1e-17 of int x^{d-1} g dx, which bunch up at both ends and carry less than that share of the
        bound's integral, are left out."""
        x, w = _ts_nodes(u, cut)
        w = w * x ** (d - 1)
        keep = w * (np.abs(amp) @ np.exp(-np.multiply.outer(rate, x**2))) > 1e-17 * mass_g
        x, w = x[keep], w[keep]
        a_x = amp[:, np.newaxis] * np.exp(-np.multiply.outer(rate, x**2))
        turn = np.exp(-1j * np.multiply.outer(along.T, x))  # (J, n, nodes): e^{-i xi . mu_j}
        p = np.fft.fft((a_x[:, np.newaxis] * turn).sum(axis=0).conj() * turn, axis=1)
        p = p[:, np.concatenate([np.arange(half), -np.arange(half) % n])]
        modes = np.stack([p.real, p.imag], axis=1).reshape(amp.size, 4, half, x.size).swapaxes(1, 2)
        rate_t = np.multiply.outer(times, x**alpha)
        return x, w, np.ascontiguousarray(modes), np.abs(a_x).sum(axis=0), rate_t, t2_kernel(rate_t)

    def angles(xs: tuple[np.ndarray, ...], ys: tuple[np.ndarray, ...]) -> tuple[np.ndarray, np.ndarray]:
        """Re F and its bound on the pairs (x, y), (x, y) arrays, with two (x, half, y) buffers.  k_j is
        e^{-(x - y)^2/(4 a_j)} times e^{-x y (1 - cos(theta - phi))/(2 a_j)}, and only the second factor reads the angle."""
        x, ux = xs
        y, uy = ys
        apart, chord = np.subtract.outer(x, y) ** 2, np.multiply.outer(x, np.cos(theta[:half]) - 1.0)
        f, bound = np.zeros(apart.shape), np.zeros(apart.shape)
        ker, spec = np.empty((x.size, half, y.size)), np.empty((x.size, half, y.size))
        for j in range(amp.size):
            np.exp(np.multiply.outer(2.0 * rate[j] * chord, y, out=ker), out=ker)
            np.matmul(cosine, ker, out=spec)  # khat_j over e^{-(x - y)^2/(4 a_j)}, column h the modes h and -h
            np.matmul(ux[j].transpose(2, 0, 1)[:, :, np.newaxis], uy[j], out=ker.reshape(x.size, half, 1, y.size))
            decay = np.exp(-rate[j] * apart)
            f += amp[j] * decay * np.einsum("xhy,xhy->xy", spec, ker)
            bound += abs(amp[j]) * decay * spec[:, 0]
        return f, bound * (2.0 * n * n)  # sum_{theta, phi} k_j = n khat_j(0), and spec[:, 0] = khat_j(0)/(2 n)

    def grid(xs: tuple[np.ndarray, ...], ys: tuple[np.ndarray, ...]) -> np.ndarray:
        """The (2, T) weighted sums of Re F K and of its bound times K over the product of two node sets."""
        y, wy, uy, g_y, b, psi_b = ys
        out = np.zeros((2, times.size))
        step = max(1, min(_T3_POINTS, 4 * _T3_POINTS // half) // y.size)
        for lo in range(0, xs[0].size, step):
            x, wx, ux, g_x, a_t, psi_a = (arr[..., lo : lo + step] for arr in xs)
            f, bound = angles((x, ux), (y, uy))
            weight = np.multiply.outer(wx, wy)
            f *= weight
            bound *= weight * np.multiply.outer(g_x, g_y)
            kern = _duhamel_kernel(a_t[:, :, None], b[:, None, :], psi_a[:, :, None], psi_b[:, None, :])
            for k in range(times.size):
                out[:, k] += np.dot(f.ravel(), kern[k].ravel()), np.dot(bound.ravel(), kern[k].ravel())
        return out

    h = 2.0 ** -max(1, math.ceil(math.log2(max(cut * gap, 16.0) / 16.0)))
    done = np.zeros(times.size, dtype=bool)
    if h < 4.0 * _T3_STEP:
        return np.zeros(times.size), done
    old = nodes(h * np.arange(-round(_TS_SPAN / h), round(_TS_SPAN / h) + 1))
    total, mass = h * h * grid(old, old)
    out = total
    for _ in range(min(_T3_LEVELS, round(math.log2(h / _T3_STEP)))):
        h *= 0.5
        new = nodes(h * np.arange(1 - round(_TS_SPAN / h), round(_TS_SPAN / h), 2))
        step = 2.0 * grid(new, old) + grid(new, new)
        prev, total, mass = total, 0.25 * total + h * h * step[0], 0.25 * mass + h * h * step[1]
        out = np.where(done, out, total)
        done |= np.abs(total - prev) <= np.maximum(_T3_RTOL * np.abs(total), _T3_FLOOR * mass)
        if done.all():
            break
        old = tuple(np.concatenate([x, y], axis=-1) for x, y in zip(old, new))
    return out * ((1.0 if d == 1 else 2.0 * math.pi / n) / (2.0 * math.pi) ** d) ** 2, done


def _bessel_j0(z) -> np.ndarray:
    """J_0(z) = (1/pi) int_0^pi cos(z sin th) dth by the midpoint rule on M = floor(max z) + 32 nodes;
    the integrand is smooth and pi-periodic, so the rule errs by about 2 |J_{2M}(z)|."""
    z = np.asarray(z, dtype=float)
    m = int(z.max(initial=0.0)) + 32
    sines = np.sin((np.arange(m) + 0.5) * (math.pi / m))
    return np.cos(z[..., np.newaxis] * sines).mean(axis=-1)


# d -> (J_d, the mean of e^{i xi.delta} over |xi| = r as a function of z = r |delta|; (2 pi)^d / |S^{d-1}|)
_SPHERE = {1: (np.cos, math.pi), 2: (_bessel_j0, 2.0 * math.pi), 3: (lambda z: np.sinc(z / math.pi), 2.0 * math.pi**2)}


def _pair_integral(p: GaussianMixturePotential, q: GaussianMixturePotential, f) -> np.ndarray:
    """(2 pi)^{-d} int conj(phat(xi)) qhat(xi) f_k(|xi|) dxi for each of K kernels, as one radial tanh-sinh integral.

    f takes an array of radii and returns a (K, radii) array of the K
    kernels' values there.  The sphere mean of conj(phat) qhat at |xi| = r is
    the sum over every pair (i, j) of
    c_i^p c_j^q (pi^2/(a_i^p a_j^q))^{d/2} e^{-b_ij r^2} J_d(r |mu_i^p - mu_j^q|),
    b_ij = 1/(4 a_i^p) + 1/(4 a_j^q), with J_d = cos, J_0, sinc in d = 1, 2, 3;
    for q = p the sum runs over i <= j with the off-diagonal pairs doubled.
    The same sum of |terms| bounds the integrand, so a signed pair sum that
    cancels to zero, as for an odd V against its even V^2, still converges.
    Beyond r = sqrt(160 max a) every e^{-b_ij r^2} is below e^{-80}; an empty
    mixture leaves no pairs and [0, 0] to integrate over.  The rule absorbs a
    kink of f at r = 0, such as that of |xi|^alpha, so no lattice or kink
    correction enters.
    """
    d = p.dimension
    wp, ap, mp = p._arrays()
    wq, aq, mq = q._arrays()
    if q is p:
        i, j = np.triu_indices(len(wp))
        double = np.where(i == j, 1.0, 2.0)
    else:
        i, j = np.indices((len(wp), len(wq))).reshape(2, -1)
        double = 1.0
    amp = double * wp[i] * wq[j] * (math.pi**2 / (ap[i] * aq[j])) ** (d / 2.0)
    b = 0.25 / ap[i] + 0.25 / aq[j]
    gap = np.sqrt(((mp[i] - mq[j]) ** 2).sum(axis=1))
    mean, scale = _SPHERE[d]

    def radial(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        col = r[:, np.newaxis]
        decay = np.exp(-b * col**2)
        kernel = r ** (d - 1) * f(r)
        values = kernel * (amp * decay * mean(col * gap)).sum(axis=1)
        return values, np.abs(kernel) * (np.abs(amp) * decay).sum(axis=1)

    return _tanh_sinh(radial, math.sqrt(160.0 * max(ap.max(initial=0.0), aq.max(initial=0.0)))) / scale


def _ts_nodes(u: np.ndarray, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The tanh-sinh nodes x = b / (1 + e^{-pi sinh u}) of [0, b] at the steps u and their weights
    b pi cosh(u) / (4 cosh^2((pi/2) sinh u)), to be multiplied by the step h."""
    s = 0.5 * math.pi * np.sinh(u)
    x = b / (1.0 + np.exp(-2.0 * s))
    w = (0.25 * math.pi * b) * np.cosh(u) / np.cosh(s) ** 2
    return x, w


def _tanh_sinh(fn, b: float) -> np.ndarray:
    """int_0^b of K integrands at once by the tanh-sinh rule (Takahasi & Mori, 1974).

    x = b / (1 + e^{-pi sinh u}) and the weight b pi cosh(u) / (4 cosh^2((pi/2) sinh u))
    at u = k h.  fn maps an array of nodes to (values, bounds), two (K, nodes)
    arrays with |values| <= bounds, where bounds is the integrand before any
    cancellation.  Each halving of h adds the odd k, so every level costs one
    fn call on its new nodes only.  Integral k has converged once two
    successive levels differ by at most _TS_RTOL of its estimate or _TS_FLOOR
    of its bound's integral, whichever is larger: near zero, the rounding of
    the cancelled terms, not the rule, sets the difference.  Each integral is
    kept from the first level at which it converged, which is the value a
    lone call on that row would return.

    Raises:
        ValueError: if two successive levels of some integral still differ by
            more than that after _TS_LEVELS halvings.
    """

    def level(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x, w = _ts_nodes(u, b)
        vals, bounds = fn(x)
        return np.array([np.dot(w, row) for row in vals]), np.array([np.dot(w, row) for row in bounds])

    h = 0.5
    total, mass = level(h * np.arange(-round(_TS_SPAN / h), round(_TS_SPAN / h) + 1))
    total, mass = h * total, h * mass
    done = np.zeros(total.shape, dtype=bool)
    out = total
    for _ in range(_TS_LEVELS):
        h *= 0.5
        odd = h * np.arange(1 - round(_TS_SPAN / h), round(_TS_SPAN / h), 2)
        vals, bounds = level(odd)
        prev, total, mass = total, 0.5 * total + h * vals, 0.5 * mass + h * bounds
        out = np.where(done, out, total)
        done |= np.abs(total - prev) <= np.maximum(_TS_RTOL * np.abs(total), _TS_FLOOR * mass)
        if done.all():
            return out
    raise ValueError(f"tanh-sinh quadrature did not converge: last two levels {prev!r} and {total!r}")


# -- table assembly -----------------------------------------------------------


@dataclass(frozen=True)
class CoefficientEntry:
    value: float
    route: str
    grid: str


@dataclass(frozen=True)
class CoefficientTable:
    alpha: float
    dimension: int
    entries: dict[str, CoefficientEntry]


def coefficient_table(
    v: GaussianMixturePotential, grid: SpectralGrid, alpha: float
) -> CoefficientTable:
    """All implemented coefficients and routes for one (V, grid, alpha)."""
    _check_alpha(alpha)
    gdesc = grid.descriptor
    entries: dict[str, CoefficientEntry] = {}
    entries["C1"] = CoefficientEntry(v.integral(), "analytic", "exact")
    entries["C2"] = CoefficientEntry(c0k(v, 2), "analytic", "exact")
    entries["C3"] = CoefficientEntry(c3_closed(v, grid, alpha), "closed_form", gdesc)
    entries["C4"] = CoefficientEntry(c4_closed(v, grid, alpha), "closed_form", gdesc)
    entries["C5"] = CoefficientEntry(c5_closed(v, grid, alpha), "closed_form", gdesc)
    entries["C4_sos"] = CoefficientEntry(c4_sos(v, grid, alpha), "sos", gdesc)
    entries["C5_sos"] = CoefficientEntry(c5_sos(v, grid, alpha), "sos", gdesc)
    for k in range(2, MAX_ORDER + 1):
        entries[f"C(0,{k})"] = CoefficientEntry(c0k(v, k), "analytic", "exact")
    # the lattice C_{n,k} of order <= MAX_ORDER, and the closed C_{1,4} where they hold C_5's other terms
    pairs = [(n, k) for n, k in _CLOSED if _on_lattice(n, k, grid.dimension)]
    if (2, 3) in pairs:
        pairs.append((1, 4))
    for n, k in pairs:
        route = "closed_form" if (n, k) == (1, 4) else "fourier_grid"
        entries[f"C({n},{k})"] = CoefficientEntry(cnk_fourier(v, grid, alpha, n, k), route, gdesc)
    return CoefficientTable(alpha, grid.dimension, entries)
