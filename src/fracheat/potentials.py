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

from .sampling import _check_count, _is_finite_real

__all__ = ["GaussianMixturePotential", "mixture", "gaussian"]

_SEARCH_POINTS = 64  # per axis, for the coarse grid that seeds max_value
_NEWTON_GTOL = 1e-8  # max_value's gradient tolerance, relative to lipschitz_constant()
_NEWTON_STEPS = 200  # cap on max_value's ascent steps
_BACKTRACKS = 60  # cap on step halvings within one ascent step

# l1_norm of a sign-indefinite V (see GaussianMixturePotential._line_integrals)
_L1_CELL_WIDTH = 0.25  # inner cell width, in units of 1/sqrt(max a_i)
# The 8-point Gauss-Legendre rule on [-1, 1], applied to every piece.  Its
# nonnegative half is written out: numpy's leggauss would load LAPACK into
# every process that imports fracheat, 0.6-0.9 MB of resident memory.
_GL_X = (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362)
_GL_W = (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706)
_L1_GAUSS = np.array([[-x for x in _GL_X[::-1]] + list(_GL_X), list(_GL_W[::-1]) + list(_GL_W)])
# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK's qk21, Piessens et al. 1983),
# nodes ascending; the 10-point Gauss rule it extends uses every second node.
_GK_X = (0.995657163025808081, 0.973906528517171720, 0.930157491355708226, 0.865063366688984511,
         0.780817726586416897, 0.679409568299024406, 0.562757134668604683, 0.433395394129247191,
         0.294392862701460198, 0.148874338981631211)
_GK_WK = (0.011694638867371874, 0.032558162307964727, 0.054755896574351996, 0.075039674810919953,
          0.093125454583697606, 0.109387158802297642, 0.123491976262065851, 0.134709217311473326,
          0.142775938577060081, 0.147739104901338491, 0.149445554002916906)
_GK_WG = (0.066671344308688138, 0.149451349150580593, 0.219086362515982044, 0.269266719309996355,
          0.295524224714752870)
_GK_NODES = np.array([-x for x in _GK_X] + [0.0] + list(_GK_X[::-1]))
_GK_KRONROD = np.array(_GK_WK + _GK_WK[-2::-1])
_GK_GAUSS = np.array(_GK_WG + _GK_WG[::-1])  # at _GK_NODES[1::2]
_L1_RTOL = 1e-10  # outer axes: sum over intervals of |K21 - G10|, relative to the total
_L1_SPLIT_SHARE = 0.1  # an open integral halves its intervals whose error is at least this share of its largest
_L1_MAX_INTERVALS = 2000  # per outer integral; l1_norm raises beyond it
_ROOT_TOL = 1e-12  # Newton stops at steps below this share of the first bracket width
# The search for a minimum of |V| only has to land between the two roots it separates.
# A pair closer together than this share of a cell can be missed, which
# costs the line integral at most of order (pair width)^3.
_EXTREMUM_TOL = 1e-5
_ROOT_STEPS = 100  # cap on Newton or bisection steps per bracket


@dataclass(frozen=True)
class GaussianMixturePotential:
    """Finite Gaussian mixture sum_i c_i exp(-a_i |x - mu_i|^2).

    The empty mixture (no components) represents V = 0.  The constructor
    stores every field as a tuple of floats (any sequence of finite real
    numbers is accepted), so instances are hashable and usable as cache keys.
    """

    dimension: int
    weights: tuple[float, ...]
    centers: tuple[tuple[float, ...], ...]
    sharpness: tuple[float, ...]

    def __post_init__(self) -> None:
        if _check_count("dimension", self.dimension) not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        if not (len(self.weights) == len(self.centers) == len(self.sharpness)):
            raise ValueError("weights, centers and sharpness must have equal length")
        # a bool is an int subclass and would count as 1; _is_finite_real refuses it
        for mu in self.centers:
            if len(mu) != self.dimension:
                raise ValueError(f"center {mu} does not have dimension {self.dimension}")
            if not all(_is_finite_real(u) for u in mu):
                raise ValueError(f"center coordinates must be finite real numbers, got {mu}")
        for a in self.sharpness:
            if not (_is_finite_real(a) and a > 0):
                raise ValueError(f"sharpness must be positive and finite, got {a!r}")
        for c in self.weights:
            if not _is_finite_real(c):
                raise ValueError(f"weight must be a finite real number, got {c!r}")
        # stored as tuples of floats, so that a list or a numpy number hashes as the tuple it stands for
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        object.__setattr__(self, "centers", tuple(tuple(map(float, mu)) for mu in self.centers))
        object.__setattr__(self, "sharpness", tuple(map(float, self.sharpness)))

    # -- basic queries ----------------------------------------------------

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def is_zero(self) -> bool:
        """True if every weight is 0, the empty mixture included: then V = 0 exactly."""
        return not any(self.weights)

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
            _gaussian_term(pts, mu[i], a[i], term, gap)
            term *= w[i]
            out += term
        return out

    def gradient(self, x: object) -> np.ndarray:
        """grad V at points of shape (..., d); returns shape (..., d).

        Like `evaluate`, adds one component at a time: besides the output
        only two base-shape arrays are alive, and no (..., K, d) array is built.
        """
        pts, base = self._points(x)
        out = np.zeros(base + (self.dimension,))
        if self.is_zero:
            return out
        w, a, mu = self._arrays()
        term, gap = np.empty(base), np.empty(base)
        for i in range(self.n_components):
            _gaussian_term(pts, mu[i], a[i], term, gap)
            term *= -2.0 * a[i] * w[i]
            for j in range(self.dimension):
                np.subtract(pts[..., j], mu[i, j], out=gap)
                gap *= term
                out[..., j] += gap
        return out

    def _hessian(self, pts: np.ndarray) -> np.ndarray:
        """Hessian of V at a few points of shape (n, d): sum_i c_i e_i (4 a_i^2 (x - mu_i)(x - mu_i)^T - 2 a_i I)."""
        w, a, mu = self._arrays()
        diff = pts[:, np.newaxis, :] - mu
        e = w * np.exp(-a * (diff**2).sum(axis=-1))
        hess = np.einsum("nk,nki,nkj->nij", 4.0 * a**2 * e, diff, diff)
        return hess - 2.0 * (a * e).sum(axis=1)[:, np.newaxis, np.newaxis] * np.eye(self.dimension)

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
        if _check_count("k", k) < 1:
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
        return GaussianMixturePotential(self.dimension, weights.tolist(), cents.tolist(), sharp.tolist())

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
        on every piece.  In d = 1 that is the whole integral.  For d >= 2
        each outer axis goes through `_kronrod`, adaptive 21-point
        Gauss-Kronrod (nested once more in d = 3), held to the relative
        tolerance `_L1_RTOL`.  It refines near the tangencies of {V = 0},
        where the line integral behaves like (x' - x0)^{3/2}.

        Raises:
            ValueError: if an outer integral needs more than
                `_L1_MAX_INTERVALS` intervals; no unconverged value is returned.
        """
        if self.is_zero:
            return 0.0
        if self.is_nonnegative or self.is_nonpositive:
            return abs(self.integral())
        return float(self._box_integrals(np.empty((1, 0)))[0])

    def _box_integrals(self, outer: np.ndarray) -> np.ndarray:
        """int |V(x', y)| dy over the box in the axes after x', for each row x' of `outer` (shape (n, k))."""
        lo, hi = self._box()
        axis = outer.shape[1]
        if axis == self.dimension - 1:
            return self._line_integrals(outer, lo[axis], hi[axis])
        return _kronrod(
            lambda rows, y: self._box_integrals(np.concatenate([outer[rows], y[:, np.newaxis]], axis=1)),
            len(outer), lo[axis], hi[axis], f"l1_norm of a d = {self.dimension} mixture",
        )

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

        Along a line V is the 1-D mixture sum_i W_i e^{-a_i (y - mu_i,d)^2}
        with row weights W_i = c_i e^{-a_i |x' - mu_i'|^2}.  So the values and
        slopes at the edges, which every row shares, and the Gauss sums over
        the cells that hold no root, where |V| has one sign, are products of
        the (n, K) row weights with per-component tables; only the pieces of
        the cells that hold a root are summed row by row.
        """
        w, a, mu = self._arrays()
        weights = w * np.exp(-(a * ((outer[:, np.newaxis, :] - mu[:, :-1]) ** 2).sum(axis=-1)))
        cells = math.ceil((hi - lo) * math.sqrt(max(self.sharpness)) / _L1_CELL_WIDTH)
        edges = np.linspace(lo, hi, cells + 1)

        def table(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            """e^{-a_i (y - mu_i,d)^2} and its derivative in y, shape y.shape + (K,)."""
            gap = y[..., np.newaxis] - mu[:, -1]
            e = np.exp(-a * gap**2)
            return e, -2.0 * a * gap * e

        def along(rows: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            e, de = table(y)
            return (weights[rows] * e).sum(axis=1), (weights[rows] * de).sum(axis=1)

        e, de = table(edges)
        val, slope = weights @ e.T, weights @ de.T
        left, right = val[:, :-1], val[:, 1:]
        r1, c1 = np.nonzero(left * right < 0)
        r2, c2 = np.nonzero((left * right > 0) & (slope[:, :-1] * left < 0) & (slope[:, 1:] * right > 0))
        low = _bracketed_root(lambda k, y: (along(r2[k], y)[1], None), edges[c2], edges[c2 + 1], slope[r2, c2], _EXTREMUM_TOL)
        peak = along(r2, low)[0]
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
        nodes, gauss = _L1_GAUSS
        half = 0.5 * np.diff(edges)
        y = (edges[:-1] + half)[:, np.newaxis] + half[:, np.newaxis] * nodes
        whole = np.abs(weights @ np.einsum("cjk,j,c->kc", table(y)[0], gauss, half))
        whole[r1, c1] = whole[r2, c2] = 0.0
        # the cells that hold a root, cut at their roots: one root, or a pair around `low`
        one, first, second = np.split(roots, [len(r1), len(r1) + len(r2)])
        rows = np.concatenate([r1, r1, r2, r2, r2])
        start = np.concatenate([edges[c1], one, edges[c2], first, second])
        half = 0.5 * (np.concatenate([one, edges[c1 + 1], first, second, edges[c2 + 1]]) - start)
        y = (start + half)[:, np.newaxis] + half[:, np.newaxis] * nodes
        pieces = np.abs((weights[rows][:, np.newaxis, :] * table(y)[0]).sum(axis=-1)) @ gauss * half
        return whole.sum(axis=1) + np.bincount(rows, weights=pieces, minlength=len(outer))

    @functools.lru_cache(maxsize=64)
    def sup_norm(self) -> float:
        """||V||_inf = max(sup V, sup -V); negating V is exact, so both are one max_value search."""
        return max(self.max_value(), self.scaled(-1.0).max_value())

    @functools.lru_cache(maxsize=64)
    def max_value(self) -> float:
        """sup of V itself (signed), by Newton ascent from several starts at once.

        With no positive weight the sup is the limit 0 at infinity, returned
        without a search.  Otherwise the starts are the component centers,
        the sharpness-weighted pair midpoints, the |c|-weighted center and the
        largest sample of V on a 64^d tensor grid over the box.  Centers and
        midpoints can be stationary points that are not the maximum, where
        the ascent never moves; the grid start begins next to the largest
        sampled value instead.
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
        return float(_newton_ascent(self, np.array(starts))[1].max())

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


def _newton_ascent(v: GaussianMixturePotential, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Damped Newton ascent of V from each row of x (shape (n, d)); returns the end points, V and |grad V| there.

    A start stops once |grad V| <= _NEWTON_GTOL times the Lipschitz bound, a
    level the rounded gradient can reach.  The step is Newton's where the
    analytic Hessian is negative definite.  Elsewhere it is a gradient step
    with Newton's length on the line through g, capped at the width
    1/sqrt(2 max a_i) of the sharpest component, which is also its length
    where V curves up along g.  (On the sphere of maxima of a concentric
    mixture the Hessian is singular, and the line step still converges
    quadratically.)  Each step is halved until V does not fall, so V never
    falls along a run.
    """
    x = x.astype(float)
    val, grad = v.evaluate(x), v.gradient(x)
    gtol = _NEWTON_GTOL * v.lipschitz_constant()
    width = 1.0 / math.sqrt(2.0 * max(v.sharpness))
    live = np.ones(len(x), dtype=bool)
    for _ in range(_NEWTON_STEPS):
        live &= np.sqrt((grad**2).sum(axis=1)) > gtol
        todo = np.flatnonzero(live)
        if not todo.size:
            break
        g, hess = grad[todo], v._hessian(x[todo])
        # along g, V curves down by kappa |g|^2: Newton's length on that line, at most `width`
        gnorm = np.sqrt((g**2).sum(axis=1))
        kappa = -np.einsum("ni,nij,nj->n", g, hess, g) / gnorm**2
        step = g / np.maximum(kappa, gnorm / width)[:, np.newaxis]
        newton = np.linalg.eigvalsh(hess)[:, -1] < 0.0
        step[newton] = np.linalg.solve(-hess[newton], g[newton][..., np.newaxis])[..., 0]
        left = np.arange(todo.size)
        for _ in range(_BACKTRACKS):
            trial = x[todo[left]] + step[left]
            tv = v.evaluate(trial)
            up = tv >= val[todo[left]]
            x[todo[left[up]]], val[todo[left[up]]] = trial[up], tv[up]
            left = left[~up]
            if not left.size:
                break
            step[left] *= 0.5
        # where every halved step lowers V, V is as high as rounding lets it go
        stuck = np.zeros(todo.size, dtype=bool)
        stuck[left] = True
        live[todo[stuck]] = False
        moved = todo[~stuck]
        grad[moved] = v.gradient(x[moved])
    return x, val, np.sqrt((grad**2).sum(axis=1))


def _kronrod(fun, n: int, lo: float, hi: float, what: str) -> np.ndarray:
    """int_lo^hi f_r(y) dy for r = 0..n-1 by adaptive 21-point Gauss-Kronrod, all integrals at once.

    fun(rows, y) returns f_rows(y) for equal-length arrays.  Each round
    evaluates the nodes of every new interval in one call.  Integral r is
    done once the sum of |K21 - G10| over its intervals is at most _L1_RTOL
    times |its total|; until then the intervals with the largest errors
    (at least _L1_SPLIT_SHARE of its largest) are halved.

    Raises:
        ValueError: once an open integral holds more than _L1_MAX_INTERVALS
            intervals; `what` names the integral in the message.
    """
    settled = (np.empty(0), np.empty(0), np.empty(0, dtype=int), np.empty(0), np.empty(0))
    fresh = (np.full(n, lo), np.full(n, hi), np.arange(n))
    while True:
        a, b, row = fresh
        half = 0.5 * (b - a)
        y = (a + half)[:, np.newaxis] + half[:, np.newaxis] * _GK_NODES
        f = fun(np.repeat(row, _GK_NODES.size), y.ravel()).reshape(y.shape)
        est = f @ _GK_KRONROD * half
        err = np.abs(est - f[:, 1::2] @ _GK_GAUSS * half)
        a, b, row, est, err = (np.concatenate(u) for u in zip(settled, (a, b, row, est, err)))
        total = np.bincount(row, weights=est, minlength=n)
        error = np.bincount(row, weights=err, minlength=n)
        tol = _L1_RTOL * np.abs(total)
        open_ = error > tol
        if not open_.any():
            return total
        over = open_ & (np.bincount(row, minlength=n) > _L1_MAX_INTERVALS)
        if over.any():
            r = int(np.argmax(over))
            raise ValueError(f"{what} did not converge: error estimate {error[r]:.3g} for the value {total[r]:.12g}")
        worst = np.zeros(n)
        np.maximum.at(worst, row, err)
        split = open_[row] & (err >= _L1_SPLIT_SHARE * worst[row])
        mid = 0.5 * (a[split] + b[split])
        fresh = (np.concatenate([a[split], mid]), np.concatenate([mid, b[split]]), np.tile(row[split], 2))
        settled = tuple(u[~split] for u in (a, b, row, est, err))


def _gaussian_term(pts: np.ndarray, center: np.ndarray, sharp: float, term: np.ndarray, gap) -> np.ndarray:
    """Fill `term` with e^{-sharp |x - center|^2} at pts (..., d); `gap` is scratch like it (None in d = 1)."""
    np.subtract(pts[..., 0], center[0], out=term)
    np.square(term, out=term)
    for j in range(1, pts.shape[-1]):
        np.subtract(pts[..., j], center[j], out=gap)
        np.square(gap, out=gap)
        term += gap
    term *= -sharp
    return np.exp(term, out=term)


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

    The constructor checks every value, naming its field, and stores it as a float.
    """
    cents = [(mu,) if np.ndim(mu) == 0 else mu for mu in centers]
    if dimension is None:
        if not cents:
            raise ValueError("dimension is required for the empty mixture")
        dimension = len(cents[0])
    return GaussianMixturePotential(dimension, weights, cents, sharpness)


def gaussian(weight: float = 1.0, center: object = 0.0, sharpness: float = 1.0) -> GaussianMixturePotential:
    """Single Gaussian component c exp(-a |x - mu|^2)."""
    return mixture([weight], [center], [sharpness])
