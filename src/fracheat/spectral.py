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

Operators act on spectra: apply_fractional_laplacian takes the output of
forward_transform, so a caller that needs vhat and F^p V transforms V once.
Every step that drops an imaginary part checks the residual in _real_part.

Frequency sums of f(xi) |xi|^beta with beta not an even integer carry a
lattice error from the kink at xi = 0 that is independent of N and decays
only like (2L)^{-1-beta}.  weighted_freq_sum removes it (d = 1) by
subtracting a Gaussian reference with the same value and curvature at 0,
whose integral is known in closed form; the residual error drops to
O((2L)^{-5-beta}).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

from .potentials import GaussianMixturePotential

__all__ = [
    "SpectralGrid",
    "GridField",
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
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        n = self.points_per_axis
        if n < 16 or n % 2 != 0:
            raise ValueError(f"points_per_axis must be even and >= 16, got {n}")
        if not self.half_extent > 0:
            raise ValueError(f"half_extent must be positive, got {self.half_extent}")

    @classmethod
    def default_for(cls, dimension: int) -> "SpectralGrid":
        n, ell = _DEFAULTS[dimension]
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
        return np.sqrt((self.frequency_mesh() ** 2).sum(axis=-1))


@dataclass(eq=False)
class GridField:
    """Array of values attached to a grid, tagged physical or frequency."""

    grid: SpectralGrid
    space: str
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.space not in ("physical", "frequency"):
            raise ValueError(f"space must be 'physical' or 'frequency', got {self.space!r}")
        self.values = np.asarray(self.values)
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} does not match grid {self.grid.shape}")


def sample_on_grid(v: GaussianMixturePotential, grid: SpectralGrid) -> GridField:
    if v.dimension != grid.dimension:
        raise ValueError("potential and grid dimensions differ")
    return GridField(grid, "physical", v.evaluate(grid.physical_mesh()))


def forward_transform(field: GridField) -> GridField:
    """Discrete analogue of vhat(xi) = int exp(-i x.xi) v(x) dx."""
    if field.space != "physical":
        raise ValueError("forward_transform expects a physical-space field")
    g = field.grid
    spec = g.spacing**g.dimension * np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(field.values)))
    return GridField(g, "frequency", spec)


def inverse_transform(field: GridField) -> GridField:
    """Inverse of forward_transform, carrying the (2 pi)^{-d} factor."""
    if field.space != "frequency":
        raise ValueError("inverse_transform expects a frequency-space field")
    g = field.grid
    vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(field.values))) / g.spacing**g.dimension
    return GridField(g, "physical", vals)


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


def apply_fractional_laplacian(spec: GridField, alpha: float, power: int = 1) -> GridField:
    """F^power V where F = (-Delta)^{alpha/2} acts by the symbol |xi|^alpha.

    Takes the frequency-space field vhat = forward_transform(V) and returns the
    physical-space field of |xi|^{alpha power} vhat, i.e. F V for power = 1,
    F^2 V for power = 2 (so F V = -V'' at alpha = 2, d = 1).  Real part is
    returned after asserting the imaginary residual is below 1e-9 relative.
    """
    if spec.space != "frequency":
        raise ValueError("apply_fractional_laplacian expects a frequency-space field")
    if not 0.0 < alpha <= 2.0:
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")
    if power < 1:
        raise ValueError("power must be >= 1")
    mult = symbol_array(spec.grid, alpha * power)
    out = inverse_transform(GridField(spec.grid, "frequency", mult * spec.values))
    return GridField(spec.grid, "physical", _real_part(out.values, "fractional Laplacian"))


def grid_integral(field: GridField) -> float:
    """h^d sum of values over the physical grid."""
    if field.space != "physical":
        raise ValueError("grid_integral expects a physical-space field")
    vals = _real_part(field.values, "grid_integral")
    return float(vals.sum() * field.grid.spacing**field.grid.dimension)


def kink_correction(grid: SpectralGrid, beta: float, smooth_at: Callable[[float], float]) -> float:
    """Additive correction for the |xi|^beta kink in 1-d frequency sums.

    Given the smooth factor f (so the summand is f(xi) |xi|^beta), subtracts
    the lattice sum of the reference (p0 + p1 xi^2) e^{-xi^2} |xi|^beta and
    adds back its exact integral, where p0 = f(0) and p1 = f''(0)/2 + f(0)
    match value and curvature of f at the kink.  Returns 0 for d >= 2.
    """
    if grid.dimension != 1:
        return 0.0
    delta = 1e-3
    p0 = float(smooth_at(0.0))
    fdd = (float(smooth_at(delta)) - 2.0 * p0 + float(smooth_at(-delta))) / delta**2
    p1 = 0.5 * fdd + p0
    exact = p0 * special.gamma((beta + 1.0) / 2.0) + p1 * special.gamma((beta + 3.0) / 2.0)
    xi = grid.axis_freqs()
    ref = (p0 + p1 * xi**2) * np.exp(-(xi**2)) * symbol_array(grid, beta)
    lattice = float(ref.sum()) * grid.freq_spacing
    return (exact - lattice) / (2.0 * math.pi)


def weighted_freq_sum(
    grid: SpectralGrid,
    values: np.ndarray,
    beta: float,
    smooth_at: Callable[[float], float] | None = None,
) -> float:
    """(2 pi)^{-d} (pi/L)^d sum over the lattice of values * |xi|^beta.

    values holds the smooth factor f on the frequency lattice.  When
    smooth_at is given (d = 1 only) the kink correction is applied; pass
    None to get the raw trapezoidal sum.
    """
    vals = np.asarray(values)
    if vals.shape != grid.shape:
        raise ValueError(f"values shape {vals.shape} does not match grid {grid.shape}")
    vals = _real_part(vals, "weighted_freq_sum")
    raw = float((vals * symbol_array(grid, beta)).sum())
    raw *= (grid.freq_spacing / (2.0 * math.pi)) ** grid.dimension
    if smooth_at is not None:
        raw += kink_correction(grid, beta, smooth_at)
    return raw
