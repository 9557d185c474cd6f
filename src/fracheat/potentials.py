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
_BFGS_GTOL = 1e-8  # max_value's BFGS gradient tolerance, relative to lipschitz_constant()

# l1_norm of a sign-indefinite V (see GaussianMixturePotential._line_integrals)
_L1_CELL_WIDTH = 0.25  # inner cell width, in units of 1/sqrt(max a_i)
# The 8-point Gauss-Legendre rule on [-1, 1], applied to every piece.  Its
# nonnegative half is written out: numpy's leggauss would load LAPACK into
# every process that imports fracheat, 0.6-0.9 MB of resident memory.
_GL_X = (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
_GL_W = (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)
_L1_GAUSS = np.array([[-x for x in _GL_X[::-1]] + list(_GL_X), list(_GL_W[::-1]) + list(_GL_W)])
_L1_RTOL = 1e-10  # outer cubature, relative
_ROOT_TOL = 1e-12  # Newton stops at steps below this share of the first bracket width
# The search for a minimum of |V| only has to land between the two roots it separates.
# A pair closer together than this share of a cell can be missed, which
# costs the line integral at most of order (pair width)^3.
_EXTREMUM_TOL = 1e-5
_ROOT_STEPS = 100  # cap on Newton or bisection steps per bracket


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
            if not all(math.isfinite(u) for u in mu):
                raise ValueError(f"center coordinates must be finite, got {mu}")
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
        """V at points of shape (..., d); for d = 1 bare coordinates also work.

        Accumulates one component at a time into an output of the base shape,
        so at most three base-shape arrays are alive (the output, the
        component's term and, for d >= 2, one squared coordinate gap); no
        (..., K, d) array is built.
        """
        pts, base = self._points(x)
        out = np.zeros(base)
        if self.is_zero:
            return out
        w, a, mu = self._arrays()
        term = np.empty(base)
        gap = np.empty(base) if self.dimension > 1 else None
        for i in range(self.n_components):
            np.subtract(pts[..., 0], mu[i, 0], out=term)
            np.square(term, out=term)
            for j in range(1, self.dimension):
                np.subtract(pts[..., j], mu[i, j], out=gap)
                np.square(gap, out=gap)
                term += gap
            term *= -a[i]
            np.exp(term, out=term)
            term *= w[i]
            out += term
        return out

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
        """int |V| dx: the closed form |int V| when single-signed, else kink-resolved quadrature.

        A sign-indefinite V is integrated over `_box()`.  The last axis is
        done by `_line_integrals` for a whole batch of points x' of the other
        axes at once; it splits each line at the roots of V, so |V| is smooth
        on every piece.  In d = 1 that is the whole integral.  For d >= 2 the
        outer d - 1 axes go through `scipy.integrate.cubature`, whose
        Gauss-Kronrod error estimate is held to the relative tolerance
        `_L1_RTOL`.  It refines near the tangencies of {V = 0}, where the
        line integral behaves like (x' - x0)^{3/2}.  Within one call each
        distinct outer node gets its line integral once, although `cubature`
        asks for every Kronrod node twice.

        Raises:
            ValueError: if `cubature` stops before its error estimate meets
                the tolerance; no unconverged value is returned.
        """
        if self.is_zero:
            return 0.0
        if self.is_nonnegative or self.is_nonpositive:
            return abs(self.integral())
        lo, hi = self._box()
        if self.dimension == 1:
            return float(self._line_integrals(np.empty((1, 0)), lo[0], hi[0])[0])
        known: dict[bytes, float] = {}

        def lines(x: np.ndarray) -> np.ndarray:
            # cubature evaluates a region's Kronrod nodes for its estimate, then
            # again with the Gauss nodes for its error: each node is done once
            keys = [row.tobytes() for row in x]
            fresh = {key: i for i, key in enumerate(keys) if key not in known}
            if fresh:
                known.update(zip(fresh, self._line_integrals(x[list(fresh.values())], lo[-1], hi[-1])))
            return np.array([known[key] for key in keys])

        res = integrate.cubature(lines, lo[:-1], hi[:-1], rtol=_L1_RTOL)
        if res.status != "converged":
            raise ValueError(
                f"l1_norm of a d = {self.dimension} mixture did not converge: "
                f"error estimate {float(res.error):.3g} for the value {float(res.estimate):.12g}"
            )
        return float(res.estimate)

    def _line_integrals(self, outer: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """int_lo^hi |V(x', y)| dy along the last axis, for each row x' of `outer` (shape (n, d - 1)).

        V is sampled at the edges of a uniform grid whose cells are at most
        `_L1_CELL_WIDTH` / sqrt(max a_i) wide, so that no component is
        narrower than a few cells.  Each cell whose end values differ in sign
        holds one root of V, found by safeguarded Newton.  A cell whose end
        values share a sign while |V| falls into it from both ends holds a
        minimum of |V|, found by bisection on the slope; if V has the other
        sign there, the cell holds a pair of roots (next to a tangency of
        {V = 0}), one on each side of it.  Gauss-Legendre on every piece
        between cell edges and roots then integrates a smooth function.
        """
        n = len(outer)
        cells = math.ceil((hi - lo) * math.sqrt(max(self.sharpness)) / _L1_CELL_WIDTH)
        edges = np.linspace(lo, hi, cells + 1)

        def points(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
            return np.concatenate([outer[rows], y[:, np.newaxis]], axis=1)

        def along(rows: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            pts = points(rows, y)
            return self.evaluate(pts), self.gradient(pts)[:, -1]

        def slope_at(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
            return self.gradient(points(rows, y))[:, -1]

        rows, ys = np.repeat(np.arange(n), cells + 1), np.tile(edges, n)
        val, slope = (u.reshape(n, cells + 1) for u in along(rows, ys))
        left, right = val[:, :-1], val[:, 1:]
        r1, c1 = np.nonzero(left * right < 0)
        r2, c2 = np.nonzero((left * right > 0) & (slope[:, :-1] * left < 0) & (slope[:, 1:] * right > 0))
        low = _bracketed_root(lambda k, y: (slope_at(r2[k], y), None), edges[c2], edges[c2 + 1], slope[r2, c2], _EXTREMUM_TOL)
        peak = self.evaluate(points(r2, low))
        pair = peak * left[r2, c2] < 0
        r2, c2, low, peak = r2[pair], c2[pair], low[pair], peak[pair]
        root_rows = np.concatenate([r1, r2, r2])
        roots = _bracketed_root(
            lambda k, y: along(root_rows[k], y),
            np.concatenate([edges[c1], edges[c2], low]),
            np.concatenate([edges[c1 + 1], low, edges[c2 + 1]]),
            np.concatenate([left[r1, c1], left[r2, c2], peak]),
            _ROOT_TOL,
        )
        piece_rows = np.concatenate([rows, root_rows])
        ends = np.concatenate([ys, roots])
        order = np.lexsort((ends, piece_rows))
        piece_rows, ends = piece_rows[order], ends[order]
        inside = piece_rows[1:] == piece_rows[:-1]
        a, b, piece_rows = ends[:-1][inside], ends[1:][inside], piece_rows[:-1][inside]
        nodes, weights = _L1_GAUSS
        half = 0.5 * (b - a)
        y = (0.5 * (a + b))[:, np.newaxis] + half[:, np.newaxis] * nodes
        x = np.broadcast_to(outer[piece_rows][:, np.newaxis, :], y.shape + (outer.shape[1],))
        pieces = np.abs(self.evaluate(np.concatenate([x, y[..., np.newaxis]], axis=-1))) @ weights * half
        return np.bincount(piece_rows, weights=pieces, minlength=n)

    @functools.lru_cache(maxsize=64)
    def sup_norm(self) -> float:
        """||V||_inf = max(sup V, sup -V); negating V is exact, so both are one max_value search."""
        return max(self.max_value(), self.scaled(-1.0).max_value())

    @functools.lru_cache(maxsize=64)
    def max_value(self) -> float:
        """sup of V itself (signed), by BFGS from several starts.

        With no positive weight the sup is the limit 0 at infinity, returned
        without a search.  Otherwise the starts are the component centers,
        the sharpness-weighted pair midpoints, the |c|-weighted center and the
        largest sample of V on a 64^d tensor grid over the box.  Centers and
        midpoints can be stationary points that are not the maximum, where
        BFGS never moves; the grid start begins next to the largest sampled
        value instead.  BFGS stops once |grad V| is below _BFGS_GTOL times
        the Lipschitz bound, a level the rounded gradient can reach.
        """
        if self.is_nonpositive:
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
        options = {"gtol": _BFGS_GTOL * self.lipschitz_constant(), "maxiter": 200}
        for s in starts:
            res = optimize.minimize(fun, np.asarray(s, dtype=float), jac=jac, method="BFGS", options=options)
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


def _bracketed_root(fun, lo: np.ndarray, hi: np.ndarray, sign_lo: np.ndarray, tol: float) -> np.ndarray:
    """One root of f in each bracket [lo_k, hi_k], where f(lo_k) has the sign of sign_lo_k and f(hi_k) the other.

    fun(k, y) returns f at y for the brackets k, with its slope for safeguarded
    Newton or None for bisection.  Every iterate shrinks its bracket, and a
    Newton step that leaves the bracket is replaced by its midpoint.  A bracket
    is done when its last step is at most tol times its first width.
    """
    lo, hi = lo.copy(), hi.copy()
    x = 0.5 * (lo + hi)
    limit = tol * (hi - lo)
    todo = np.arange(x.size)
    for _ in range(_ROOT_STEPS):
        if not todo.size:
            break
        f, slope = fun(todo, x[todo])
        xk = x[todo]
        below = (f > 0) == (sign_lo[todo] > 0)
        lo[todo] = np.where(below, xk, lo[todo])
        hi[todo] = np.where(below, hi[todo], xk)
        step = 0.5 * (lo[todo] + hi[todo])
        if slope is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                newton = xk - f / slope
            step = np.where((newton > lo[todo]) & (newton < hi[todo]), newton, step)
        step = np.where(f == 0.0, xk, step)
        x[todo] = step
        todo = todo[np.abs(step - xk) > limit[todo]]
    return x


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
