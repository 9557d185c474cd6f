"""Deterministic small-time expansion coefficients and their cross-checks.

The heat content admits Q(t) = -t C_1 + sum_{l=2}^{N} (-t)^l C_l + O(t^{N+1})
with C_1 = int V and, on both routes, for 2 <= l <= 5

    C_l = sum_{n + k = l, k >= 2} (1/n!) C_{n,k}.

The Fourier-lattice route (cnk_fourier) sums, on the frequency lattice,

    C_{n,k} = sum_{|l| = n} A(n, l) *
        (2 pi)^{-d(k-1)} int vhat(-sum th_i) prod vhat(th_i)
                             prod_i |th_1 + ... + th_i|^{alpha l_i} dth.

The closed route (cnk_closed) writes each C_{n,k} through mixture integrals,
the Dirichlet form E_alpha and powers of F = (-Delta)^{alpha/2}.
Sum-of-squares forms of C_4 and C_5 make nonnegativity for V >= 0 manifest.
Every route reads one cached LatticeFields per (V, grid, alpha), so their
agreement tolerances hold far below the individual truncation errors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .potentials import GaussianMixturePotential
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
    "coefficient_table",
]

class RouteUnavailable(ValueError):
    """Requested coefficient route is outside the supported set."""


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")


def c0k(v: GaussianMixturePotential, k: int) -> float:
    """C_{0,k} = (1/k!) int V^k, exact through the mixture algebra."""
    if k < 2:
        raise ValueError("c0k requires k >= 2")
    return v.power(k).integral() / math.factorial(k)


# -- shared lattice objects ------------------------------------------------


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
    if k not in (2, 3) or not 0 < n <= 6 or grid.dimension * (k - 1) > 2:
        raise RouteUnavailable(f"cnk_fourier does not support (n, k) = ({n}, {k}) in d = {grid.dimension}")
    weight = float(weight_A(n, (n,) + (0,) * (k - 2)))
    if k == 2:
        return weight * lattice_fields(v, grid, alpha).energy(alpha * n)
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


@functools.lru_cache(maxsize=256)
def c_ell(
    v: GaussianMixturePotential, grid: SpectralGrid, alpha: float, ell: int, route: str = "closed"
) -> float:
    """Order-l coefficient C_l, 1 <= l <= 5: C_1 = int V, else sum_{k=2}^{l} C_{l-k,k}/(l-k)!.

    route 'closed' takes C_{n,k} from cnk_closed, 'fourier' from cnk_fourier
    (d = 1 for l >= 4).
    """
    _check_alpha(alpha)
    if ell < 1:
        raise ValueError("need ell >= 1")
    if ell > 5:
        raise RouteUnavailable(f"coefficients are implemented for ell <= 5, got {ell}")
    cnk = {"closed": cnk_closed, "fourier": cnk_fourier}.get(route)
    if cnk is None:
        raise ValueError(f"unknown route {route!r}; use 'closed' or 'fourier'")
    if ell == 1:
        return v.integral()
    return sum(cnk(v, grid, alpha, ell - k, k) / math.factorial(ell - k) for k in range(2, ell + 1))


def c3_closed(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> float:
    """C_3 = (1/6)(int V^3 + E_alpha(V))."""
    return c_ell(v, grid, alpha, 3, "closed")


def c4_closed(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> float:
    """C_4 = (1/24)(int V^4 + 2 int V^2 FV + int |FV|^2)."""
    return c_ell(v, grid, alpha, 4, "closed")


def c5_closed(v: GaussianMixturePotential, grid: SpectralGrid, alpha: float) -> float:
    """C_5 = (1/120)(int V^5 + 2 int V^3 FV + 2 int V^2 F^2 V
    + int V (FV)^2 + E_alpha(FV) + E_alpha(V^2))."""
    return c_ell(v, grid, alpha, 5, "closed")


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


def partial_sum(
    v: GaussianMixturePotential,
    grid: SpectralGrid,
    alpha: float,
    n_terms: int,
    t: float,
    route: str = "closed",
) -> float:
    """Q_N(t) = -t C_1 + sum_{l=2}^{N} (-t)^l C_l for N = n_terms <= 5."""
    if not 1 <= n_terms <= 5:
        raise ValueError(f"n_terms must lie in 1..5, got {n_terms}")
    if t < 0:
        raise ValueError("t must be nonnegative")
    out = -t * c_ell(v, grid, alpha, 1, route)
    for ell in range(2, n_terms + 1):
        out += (-t) ** ell * c_ell(v, grid, alpha, ell, route)
    return out


# -- exact second-order profile ----------------------------------------------


def t2_kernel(u) -> np.ndarray:
    """psi(u) = (e^{-u} - 1 + u)/u^2, with the series branch below 1e-4.

    psi(0) = 1/2; psi is completely monotone decreasing toward 0.
    """
    arr = np.asarray(u, dtype=float)
    big = np.where(arr < 1e-4, 1.0, arr)
    out = np.where(arr < 1e-4, 0.5 - arr / 6.0 + arr**2 / 24.0, (np.expm1(-big) + big) / big**2)
    return float(out) if np.ndim(u) == 0 else out


def t2_exact(
    v: GaussianMixturePotential,
    alpha: float,
    t: float,
    grid: SpectralGrid | None = None,
) -> float:
    """T_2(t) = (2 pi)^{-d} int |vhat(xi)|^2 psi(t |xi|^alpha) dxi.

    The exact t^2 profile: Q(t) = -t int V + t^2 T_2(t) + R_3 with
    |R_3| <= t^3 ||V||_1 ||V||_inf^2 e^{t ||V||_inf}.  d = 1 uses adaptive
    quadrature; d >= 2 falls back to the frequency lattice.
    """
    _check_alpha(alpha)
    if t < 0:
        raise ValueError("t must be nonnegative")
    if v.is_zero:
        return 0.0
    if v.dimension == 1:
        a_max = max(v.sharpness)
        cut = math.sqrt(2.0 * a_max * 80.0)
        fn = lambda x: float(np.abs(v.fourier(x)) ** 2) * t2_kernel(t * x**alpha)
        val, _ = integrate.quad(fn, 0.0, cut, limit=300, epsabs=1e-14, epsrel=1e-12)
        return val / math.pi
    if grid is None:
        grid = SpectralGrid.default_for(v.dimension)
    dens = np.abs(lattice_fields(v, grid, alpha).vhat) ** 2 * t2_kernel(t * grid.freq_norms() ** alpha)
    return weighted_freq_sum(grid, dens, 0.0)


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
    for k in range(2, 6):
        entries[f"C(0,{k})"] = CoefficientEntry(c0k(v, k), "analytic", "exact")
    pairs = [(1, 2), (2, 2), (3, 2)] + ([(1, 3), (2, 3), (1, 4)] if grid.dimension == 1 else [])
    for n, k in pairs:
        route = "closed_form" if (n, k) == (1, 4) else "fourier_grid"
        entries[f"C({n},{k})"] = CoefficientEntry(cnk_fourier(v, grid, alpha, n, k), route, gdesc)
    return CoefficientTable(alpha, grid.dimension, entries)
