"""Periodized spectral grids, transforms and frequency-lattice sums.

Physical grid: x_j = -L + j h per axis, h = 2L/N, j = 0..N-1.
Frequency lattice: xi_m = (pi/L) (m - N/2), m = 0..N-1, spacing pi/L.
With these orderings the discrete transform reproduces the continuum
convention exactly on the lattice:

    forward(v)[m] = h^d sum_j v(x_j) exp(-i x_j . xi_m)

and inverse(forward(v)) == v to machine precision.  Discrete Parseval
holds exactly: h^d sum v w* = (2 pi)^{-d} (pi/L)^d sum vhat what*, which is
what lets paired spatial and frequency routes for the same quantity agree
far below their truncation error.

Every function that reads lattice values takes (grid, array, ...), checks the
array's shape against the grid (_on_grid) and returns a plain array or float.
apply_fractional_laplacian takes vhat = forward_transform(grid, V), so a
caller that needs vhat and F^p V transforms V once.
Every step that drops an imaginary part checks the residual in _real_part.

Frequency sums of f(xi) |xi|^beta with beta not an even integer carry a
lattice error from the kink at xi = 0 that is independent of N and decays
only like (2L)^{-1-beta}.  kink_correction, added to weighted_freq_sum's raw
sum for f = |what|^2, removes it (d = 1) by subtracting a Gaussian reference with
f's value m_0^2 and curvature 2 (m_1^2 - m_0 m_2) at 0, read from the lattice
moments m_j = h sum x^j W(x) of the sampled W, and adding its closed-form
integral; the residual error drops to O((2L)^{-5-beta}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potentials import GaussianMixturePotential
from .sampling import _check_alpha, _check_count, _is_finite_real

__all__ = [
    "SpectralGrid",
    "sample_on_grid",
    "forward_transform",
    "inverse_transform",
    "apply_fractional_laplacian",
    "grid_integral",
    "weighted_freq_sum",
    "kink_correction",
]

_DEFAULTS = {1: (256, 16.0), 2: (128, 12.0), 3: (64, 10.0)}

_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform periodized grid on [-L, L)^d with N points per axis."""

    dimension: int
    points_per_axis: int
    half_extent: float

    def __post_init__(self) -> None:
        if _check_count("dimension", self.dimension) not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        n = _check_count("points_per_axis", self.points_per_axis)
        if n < 16 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 16, got {n}")
        if not (_is_finite_real(self.half_extent) and self.half_extent > 0):
            raise ValueError(f"half_extent must be positive and finite, got {self.half_extent}")

    @classmethod
    def default_for(cls, dimension: int) -> "SpectralGrid":
        n, ell = _DEFAULTS.get(dimension, _DEFAULTS[1])  # any other dimension meets the constructor's check
        return cls(dimension, n, ell)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_extent / self.points_per_axis

    @property
    def freq_spacing(self) -> float:
        return math.pi / self.half_extent

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dimension

    @property
    def descriptor(self) -> str:
        return f"d={self.dimension},N={self.points_per_axis},L={self.half_extent:g}"

    def axis_points(self) -> np.ndarray:
        return -self.half_extent + self.spacing * np.arange(self.points_per_axis)

    def axis_freqs(self) -> np.ndarray:
        n = self.points_per_axis
        return self.freq_spacing * (np.arange(n) - n // 2)

    def physical_mesh(self) -> np.ndarray:
        """Points array of shape (N,)*d + (d,)."""
        axes = np.meshgrid(*[self.axis_points()] * self.dimension, indexing="ij")
        return np.stack(axes, axis=-1)

    def frequency_mesh(self) -> np.ndarray:
        axes = np.meshgrid(*[self.axis_freqs()] * self.dimension, indexing="ij")
        return np.stack(axes, axis=-1)

    def freq_norms(self) -> np.ndarray:
        """|xi| on the frequency mesh, summed from the squared axes by broadcasting, with no (N,)*d + (d,) mesh."""
        return np.sqrt(sum(np.ix_(*[self.axis_freqs() ** 2] * self.dimension)))


def _on_grid(grid: SpectralGrid, values) -> np.ndarray:
    """values as an array, checked to have the grid's shape."""
    vals = np.asarray(values)
    if vals.shape != grid.shape:
        raise ValueError(f"values shape {vals.shape} does not match grid {grid.shape}")
    return vals


def sample_on_grid(v: GaussianMixturePotential, grid: SpectralGrid) -> np.ndarray:
    """V at the points of the physical grid."""
    if v.dimension != grid.dimension:
        raise ValueError("potential and grid dimensions differ")
    return v.evaluate(grid.physical_mesh())


def forward_transform(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Discrete analogue of vhat(xi) = int exp(-i x.xi) v(x) dx: physical-grid values to the frequency lattice."""
    vals = _on_grid(grid, values)
    return grid.spacing**grid.dimension * np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(vals)))


def inverse_transform(grid: SpectralGrid, spec: np.ndarray) -> np.ndarray:
    """Inverse of forward_transform, carrying the (2 pi)^{-d} factor: frequency-lattice values to the physical grid."""
    vals = _on_grid(grid, spec)
    return np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(vals))) / grid.spacing**grid.dimension


def _real_part(values: np.ndarray, what: str) -> np.ndarray:
    if np.iscomplexobj(values):
        resid = float(np.abs(values.imag).max())
        if resid > _IMAG_TOL * (1.0 + float(np.abs(values.real).max())):
            raise FloatingPointError(f"imaginary residual {resid:.3e} in {what} exceeds tolerance")
        return values.real.copy()
    return values


def symbol_array(grid: SpectralGrid, beta: float) -> np.ndarray:
    """|xi|^beta on the frequency lattice, with |0|^0 = 1 and |0|^beta = 0 else."""
    norms = grid.freq_norms()
    if beta == 0.0:
        return np.ones_like(norms)
    with np.errstate(divide="ignore"):
        out = np.where(norms > 0.0, norms, 1.0) ** beta
    out[norms == 0.0] = 0.0
    return out


def apply_fractional_laplacian(grid: SpectralGrid, vhat: np.ndarray, alpha: float, power: int = 1) -> np.ndarray:
    """F^power V where F = (-Delta)^{alpha/2} acts by the symbol |xi|^alpha.

    Takes vhat = forward_transform(grid, V) on the frequency lattice and returns
    |xi|^{alpha power} vhat transformed back to the physical grid, i.e. F V for power = 1,
    F^2 V for power = 2 (so F V = -V'' at alpha = 2, d = 1).  Real part is
    returned after asserting the imaginary residual is below 1e-9 relative.
    """
    vals = _on_grid(grid, vhat)
    _check_alpha(alpha)
    if _check_count("power", power) < 1:
        raise ValueError("power must be >= 1")
    out = inverse_transform(grid, symbol_array(grid, alpha * power) * vals)
    return _real_part(out, "fractional Laplacian")


def grid_integral(grid: SpectralGrid, values: np.ndarray) -> float:
    """h^d sum of values over the physical grid."""
    vals = _real_part(_on_grid(grid, values), "grid_integral")
    return float(vals.sum() * grid.spacing**grid.dimension)


def kink_correction(grid: SpectralGrid, values: np.ndarray, beta: float) -> float:
    """Additive correction for the |xi|^beta kink in the 1-d frequency sum of f |xi|^beta, f = |what|^2.

    values holds W on the physical grid.  Subtracts the lattice sum of the reference (p0 + p1 xi^2)
    e^{-xi^2} |xi|^beta and adds back its exact integral, where p0 = f(0) = m_0^2 and p1 = f''(0)/2 + f(0)
    = m_1^2 - m_0 m_2 + p0, with W's lattice moments m_j = h sum x^j W(x).  Returns 0 for d >= 2.
    """
    vals = _on_grid(grid, values)
    if grid.dimension != 1:
        return 0.0
    x = grid.axis_points()
    m0, m1, m2 = (float(np.dot(x**j, vals)) * grid.spacing for j in range(3))
    p0, p1 = m0**2, m1**2 - m0 * m2 + m0**2
    exact = p0 * math.gamma((beta + 1.0) / 2.0) + p1 * math.gamma((beta + 3.0) / 2.0)
    xi = grid.axis_freqs()
    ref = (p0 + p1 * xi**2) * np.exp(-(xi**2)) * symbol_array(grid, beta)
    lattice = float(ref.sum()) * grid.freq_spacing
    return (exact - lattice) / (2.0 * math.pi)


def weighted_freq_sum(grid: SpectralGrid, values: np.ndarray, beta: float) -> float:
    """(2 pi)^{-d} (pi/L)^d sum over the lattice of values * |xi|^beta, the raw trapezoidal sum.

    values holds the smooth factor f on the frequency lattice.  In d = 1 a caller
    adds kink_correction(grid, W, beta) of the field W with f = |what|^2 to remove the lattice error of the kink.
    """
    vals = _real_part(_on_grid(grid, values), "weighted_freq_sum")
    raw = float((vals * symbol_array(grid, beta)).sum())
    return raw * (grid.freq_spacing / (2.0 * math.pi)) ** grid.dimension
