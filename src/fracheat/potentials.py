"""Gaussian mixture potentials with closed-form algebra.

A potential is a finite sum V(x) = sum_i c_i exp(-a_i |x - mu_i|^2) with
real weights c_i, sharpness a_i > 0 and centers mu_i in R^d.  Powers,
Fourier transforms and integrals of such mixtures stay inside the class and
are exact, which keeps every coefficient route cheap and lets the
cross-route checks run at tight tolerances.

The Fourier convention is Vhat(xi) = int exp(-i x.xi) V(x) dx, so the
inverse transform carries the (2 pi)^{-d} factor.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import integrate, optimize

__all__ = ["GaussianMixturePotential", "mixture", "gaussian"]

_SEARCH_POINTS = 64  # per axis, for the coarse grid that seeds max_value


@dataclass(frozen=True)
class GaussianMixturePotential:
    """Finite Gaussian mixture sum_i c_i exp(-a_i |x - mu_i|^2).

    The empty mixture (no components) represents V = 0.  All fields are
    tuples so instances are hashable and usable as cache keys.
    """

    dimension: int
    weights: tuple[float, ...]
    centers: tuple[tuple[float, ...], ...]
    sharpness: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if not (len(self.weights) == len(self.centers) == len(self.sharpness)):
            raise ValueError("weights, centers and sharpness must have equal length")
        for mu in self.centers:
            if len(mu) != self.dimension:
                raise ValueError(f"center {mu} does not have dimension {self.dimension}")
        for a in self.sharpness:
            if not (a > 0 and math.isfinite(a)):
                raise ValueError(f"sharpness must be positive and finite, got {a}")
        for c in self.weights:
            if not math.isfinite(c):
                raise ValueError(f"weight must be finite, got {c}")

    # -- basic queries ----------------------------------------------------

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def is_zero(self) -> bool:
        return self.n_components == 0

    @property
    def is_nonnegative(self) -> bool:
        """True if every weight is >= 0 (sufficient, not necessary)."""
        return all(c >= 0.0 for c in self.weights)

    @property
    def is_nonpositive(self) -> bool:
        """True if every weight is <= 0 (sufficient, not necessary)."""
        return all(c <= 0.0 for c in self.weights)

    @functools.lru_cache(maxsize=256)
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (weights, sharpness, centers) arrays, cached per instance."""
        w = np.asarray(self.weights, dtype=float)
        a = np.asarray(self.sharpness, dtype=float)
        mu = np.asarray(self.centers, dtype=float).reshape(self.n_components, self.dimension)
        for arr in (w, a, mu):
            arr.flags.writeable = False
        return w, a, mu

    def _points(self, x: object) -> tuple[np.ndarray, tuple[int, ...]]:
        """Normalize input to shape (..., d) and return it with the base shape."""
        pts = np.asarray(x, dtype=float)
        if self.dimension == 1:
            if pts.ndim and pts.shape[-1] == 1:
                pts = pts[..., 0]
            return pts[..., np.newaxis], pts.shape
        if pts.ndim == 0 or pts.shape[-1] != self.dimension:
            raise ValueError(f"expected points with last axis {self.dimension}, got shape {pts.shape}")
        return pts, pts.shape[:-1]

    # -- evaluation -------------------------------------------------------

    def evaluate(self, x: object) -> np.ndarray:
        """V at points of shape (..., d); for d = 1 bare coordinates also work."""
        pts, base = self._points(x)
        if self.is_zero:
            return np.zeros(base)
        w, a, mu = self._arrays()
        diff2 = ((pts[..., np.newaxis, :] - mu) ** 2).sum(axis=-1)
        return np.einsum("i,...i->...", w, np.exp(-a * diff2))

    def gradient(self, x: object) -> np.ndarray:
        """grad V at points of shape (..., d); returns shape (..., d)."""
        pts, base = self._points(x)
        if self.is_zero:
            return np.zeros(base + (self.dimension,))
        w, a, mu = self._arrays()
        diff = pts[..., np.newaxis, :] - mu
        diff2 = (diff**2).sum(axis=-1)
        coeff = -2.0 * w * a * np.exp(-a * diff2)
        return np.einsum("...i,...ij->...j", coeff, diff)

    def fourier(self, xi: object) -> np.ndarray:
        """Vhat(xi) = sum_i c_i (pi/a_i)^{d/2} e^{-|xi|^2/(4 a_i)} e^{-i xi.mu_i}."""
        pts, base = self._points(xi)
        if self.is_zero:
            return np.zeros(base, dtype=complex)
        w, a, mu = self._arrays()
        amp = w * (np.pi / a) ** (self.dimension / 2.0)
        norm2 = (pts**2).sum(axis=-1)
        phase = np.einsum("...j,ij->...i", pts, mu)
        vals = amp * np.exp(-norm2[..., np.newaxis] / (4.0 * a)) * np.exp(-1j * phase)
        return vals.sum(axis=-1)

    # -- exact algebra ----------------------------------------------------

    def power(self, k: int) -> "GaussianMixturePotential":
        """Exact mixture for V^k, k >= 1: one component per exponent tuple e, |e| = k.

        prod_i (c_i e^{-a_i |x - mu_i|^2})^{e_i} has sharpness a = sum e_i a_i,
        center mu = sum e_i a_i mu_i / a and weight multinom(k; e) prod c_i^{e_i}
        exp(-(sum e_i a_i |mu_i|^2 - a |mu|^2)); the exponent is evaluated as
        sum_{i<j} e_i a_i e_j a_j |mu_i - mu_j|^2 / a, which has no cancellation.
        """
        if k < 1:
            raise ValueError("power requires k >= 1")
        if k == 1 or self.is_zero:
            return self
        w, a, mu = self._arrays()
        picks = np.array(list(itertools.combinations_with_replacement(range(self.n_components), k)))
        e = (picks[:, :, np.newaxis] == np.arange(self.n_components)).sum(axis=1)
        ea = e * a
        sharp = ea.sum(axis=1)
        cents = ea @ mu / sharp[:, np.newaxis]
        dist2 = ((mu[:, np.newaxis, :] - mu[np.newaxis, :, :]) ** 2).sum(axis=-1)
        gap = np.einsum("mi,mj,ij->m", ea, ea, dist2) / (2.0 * sharp)
        fact = np.array([math.factorial(j) for j in range(k + 1)], dtype=float)
        weights = fact[k] / fact[e].prod(axis=1) * (w**e).prod(axis=1) * np.exp(-gap)
        return GaussianMixturePotential(
            self.dimension, tuple(weights.tolist()), tuple(map(tuple, cents.tolist())), tuple(sharp.tolist())
        )

    def scaled(self, s: float) -> "GaussianMixturePotential":
        """Mixture for s * V."""
        return GaussianMixturePotential(
            self.dimension, tuple(s * c for c in self.weights), self.centers, self.sharpness
        )

    def integral(self) -> float:
        """int V dx = sum_i c_i (pi/a_i)^{d/2}, exactly."""
        return float(
            sum(c * (math.pi / a) ** (self.dimension / 2.0) for c, a in zip(self.weights, self.sharpness))
        )

    # -- norms and constants ----------------------------------------------

    def _box(self) -> tuple[np.ndarray, np.ndarray]:
        """Axis-aligned box outside which every component is < e^{-50} of its peak."""
        _, a, mu = self._arrays()
        pad = 10.0 / np.sqrt(2.0 * a)
        lo = (mu - pad[:, np.newaxis]).min(axis=0)
        hi = (mu + pad[:, np.newaxis]).max(axis=0)
        return lo, hi

    @functools.lru_cache(maxsize=64)
    def l1_norm(self) -> float:
        """int |V| dx.  Closed form when single-signed, adaptive quadrature otherwise."""
        if self.is_zero:
            return 0.0
        if self.is_nonnegative or self.is_nonpositive:
            return abs(self.integral())
        lo, hi = self._box()
        scale = sum(abs(c) * (math.pi / a) ** (self.dimension / 2.0) for c, a in zip(self.weights, self.sharpness))
        if self.dimension == 1:
            pts = sorted(mu[0] for mu in self.centers)
            val, _ = integrate.quad(
                lambda x: abs(float(self.evaluate(x))),
                float(lo[0]),
                float(hi[0]),
                points=pts,
                limit=200,
                epsabs=1e-13 * scale,
                epsrel=1e-11,
            )
            return float(val)
        ranges = [(float(lo[j]), float(hi[j])) for j in range(self.dimension)]
        opts = {"limit": 80, "epsabs": 1e-10 * scale, "epsrel": 1e-9}
        val, _ = integrate.nquad(
            lambda *x: abs(float(self.evaluate(np.array(x)))), ranges, opts=[opts] * self.dimension
        )
        return float(val)

    @functools.lru_cache(maxsize=64)
    def sup_norm(self) -> float:
        """||V||_inf = max(sup V, sup -V); negating V is exact, so both are one max_value search."""
        return max(self.max_value(), self.scaled(-1.0).max_value())

    @functools.lru_cache(maxsize=64)
    def max_value(self) -> float:
        """sup of V itself (signed), by BFGS from several starts.

        Starts: the component centers, the sharpness-weighted pair midpoints,
        the |c|-weighted center and the largest sample of V on a 64^d tensor
        grid over the box.  Centers and midpoints can be stationary points
        that are not the maximum, where BFGS never moves; the grid start
        begins next to the largest sampled value instead.
        """
        if self.is_zero:
            return 0.0
        w, a, mu = self._arrays()
        starts = [mu[i] for i in range(len(w))]
        for i, j in itertools.combinations(range(len(w)), 2):
            starts.append((a[i] * mu[i] + a[j] * mu[j]) / (a[i] + a[j]))
        starts.append((np.abs(w)[:, np.newaxis] * mu).sum(axis=0) / np.abs(w).sum())
        axes = [np.linspace(lo, hi, _SEARCH_POINTS) for lo, hi in zip(*self._box())]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        vals = self.evaluate(mesh)
        starts.append(mesh[np.unravel_index(np.argmax(vals), vals.shape)])
        best = max(float(self.evaluate(s)) for s in starts)
        fun = lambda x: -float(self.evaluate(x))
        jac = lambda x: -self.gradient(x)
        for s in starts:
            res = optimize.minimize(fun, np.asarray(s, dtype=float), jac=jac, method="BFGS", options={"gtol": 1e-12, "maxiter": 200})
            best = max(best, float(self.evaluate(res.x)))
        return best

    def lipschitz_constant(self) -> float:
        """Upper bound sum_i |c_i| sqrt(2 a_i / e) on |grad V| (exact per component)."""
        return float(sum(abs(c) * math.sqrt(2.0 * a / math.e) for c, a in zip(self.weights, self.sharpness)))

    def holder_constant(self, gamma: float) -> float:
        """Global bound M with |V(x) - V(y)| <= M |x - y|^gamma, 0 < gamma <= 1.

        Interpolates the Lipschitz bound against the trivial bound 2||V||_inf:
        min(L r, 2 s) <= L^gamma (2 s)^{1 - gamma} r^gamma.
        """
        if not 0.0 < gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
        lip = self.lipschitz_constant()
        if lip == 0.0:
            return 0.0
        return float(lip**gamma * (2.0 * self.sup_norm()) ** (1.0 - gamma))


def mixture(
    weights: Sequence[float],
    centers: Sequence,
    sharpness: Sequence[float],
    dimension: int | None = None,
) -> GaussianMixturePotential:
    """Build a mixture, accepting scalar centers when d = 1.

    Args:
        weights: component weights c_i.
        centers: component centers; scalars or length-d sequences.
        sharpness: component sharpness a_i > 0.
        dimension: required when there are no components; inferred otherwise.
    """
    cents: list[tuple[float, ...]] = []
    for mu in centers:
        if np.ndim(mu) == 0:
            cents.append((float(mu),))
        else:
            cents.append(tuple(float(u) for u in mu))
    if dimension is None:
        if not cents:
            raise ValueError("dimension is required for the empty mixture")
        dimension = len(cents[0])
    return GaussianMixturePotential(
        dimension, tuple(float(c) for c in weights), tuple(cents), tuple(float(a) for a in sharpness)
    )


def gaussian(weight: float = 1.0, center: object = 0.0, sharpness: float = 1.0) -> GaussianMixturePotential:
    """Single Gaussian component c exp(-a |x - mu|^2)."""
    return mixture([weight], [center], [sharpness])
