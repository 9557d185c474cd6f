"""Duhamel Feynman-Kac estimator for the heat content.

Q(t) = int E^x[exp(-int_0^t V(X_s) ds) - 1] dx satisfies the Duhamel identity

    Q(t) + t int V = int_0^t (t - u) <V, e^{-uH} V> du,
    <V, e^{-uH} V> = int V(x) E^x[exp(-int_0^u V(X_s) ds) V(X_u)] dx.

Each path draws a start x0 from the dominating mixture
g = sum_i |c_i| e^{-a_i |x - mu_i|^2}, of mass Z = sum_i |c_i| (pi/a_i)^{d/2}
(component i with probability |c_i| (pi/a_i)^{d/2} / Z, then a Gaussian of
variance 1/(2 a_i) per axis), a time U of density 2 (t - u)/t^2 on [0, t]
(U = t (1 - sqrt(1 - r))), and one path of m steps of U/m to U.  Its summand is

    w = (t^2/2) Z (V(x0)/g(x0)) e^{-A_U} V(X_U),

with A_U the trapezoid rule for int_0^U V(X_s) ds on the path's own steps.

Second-order control variate: the same product with e^{-A_U} set to 1,

    y = (t^2/2) Z (V(x0)/g(x0)) V(X_U),

has E y = int_0^t (t - u) <V, e^{-uF} V> du = t^2 T_2(t), since X is the free
stable process, and ``coefficients.t2_exact`` gives T_2 with no lattice.  So
the estimate is mean(w - y) + t^2 T_2(t) - t int V, with the se of w - y:
the paths estimate only what t^2 T_2 leaves out, and w - y = y (e^{-A_U} - 1)
is O(t ||V||_inf) times w.  The estimate also keeps mean(w) - t int V
(``plain_mean``) and mean(y) - t^2 T_2 with its se (``t2_residual``), which
checks T_2 against the paths alone.

Invariant: |V/g| <= 1, |V| <= sum_i |c_i| and V >= -sum_{c_i<0} |c_i|, so

    |w| <= B = (t^2/2) Z sum_i |c_i| e^{t sum_{c_i<0} |c_i|},

and, A_U lying between U min V and U max V, |w - y| <= B t sum_i |c_i|; the
estimator asserts both.  So the variance is finite for every alpha and
d with no tuning: the start points stay where V lives, and a path that
jumps far away only shrinks its summand.

By self-similarity a path to any time t is a rescaled path to time 1:
with U = t s and s = 1 - sqrt(1 - r) independent of t, its m increments of
span U/m are t^{1/alpha} (s/m)^{1/alpha} times span-1 ``sample_increment``
draws.  So one start x0, one s and one relative path
P = cumsum((s/m)^{1/alpha} increments) per path serve every time of a
series: X = x0 + t^{1/alpha} P and A_U = t s times the path's trapezoid
mean.  One call estimates a whole series (``validator.estimate_series``
makes exactly one), and each time's numbers are bit-identical to a call at
that time alone: only the draws are shared, and every float operation after
them reads one time.  The times' noise moves together; each time's law is
that of a lone estimate.

Results are deterministic given (seed, n_paths, m_steps): the path budget is
cut into chunks of ``_CHUNK`` paths, each driven by its own seed substream,
so the thread count changes scheduling but not a single drawn number.

Within a chunk the draws come in this order: the component choices, the
start points' normals and the uniforms r for the whole chunk, then block by
block of ``_BLOCK_POINTS`` // (m + 1) paths the block's span-1 increments,
one ``sample_increment`` call per block.  The chunk size and the block size
are therefore both part of the draw order: changing either changes the
numbers.  A block's (B, m, d) draws are turned into P in place; V(x0) is
evaluated once per chunk.  The evaluation then walks the block in row tiles
of ``_TILE_POINTS`` // ((m + 1) d) paths, sized so that a tile's rows of P,
its position buffer and evaluate's temporaries fit in L2 together.  Each
tile runs every time of the series while its rows of P stay in cache:
positions x0 + t^{1/alpha} P in one tile-sized buffer, V on them, A_U, and
that time's w and y written into the block's (T, B) columns.  Tiles are not
part of the draw order: every float operation on a path is the same in any
tile, so the tile size changes no number.  Each block's (T, B) summands are
reduced at once to per-time counts, means, centred sums of squares and
peaks, which are pooled block by block and then chunk by chunk, in order,
by the pairwise update of Chan, Golub & LeVeque (1979).  So apart from the
per-path vectors (start, V(x0), V/g, s) nothing chunk-sized is built, no
path-sized array outlives its chunk, and memory does not grow with n_paths
or with the number of times: a 32768-path, 64-step chunk in d = 1 peaks
below 3.6 MB of traced memory for every alpha.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import t2_exact
from .potentials import GaussianMixturePotential
from .sampling import RngStream, _check_alpha, _check_count, _check_positive_finite, sample_increment
from .sampling import sample_subordinator  # not called here: perfbench/rep.py wraps montecarlo.sample_subordinator by name

__all__ = [
    "McConfig",
    "McEstimate",
    "estimate_heat_content",
]

_CHUNK = 32768
# B = _BLOCK_POINTS // (m + 1) paths per block, part of the draw order: each
# block's increments come from one sample_increment call
_BLOCK_POINTS = 2**16
# _TILE_POINTS // ((m + 1) d) paths per evaluation tile, not part of the draw
# order: at most _TILE_POINTS / d path points.  Per point a tile keeps live
# its rows of P and the position buffer (8 d bytes each) and evaluate's out,
# term and, for d >= 2, gap (8 bytes each): 32 bytes at d = 1, 56 at d = 2,
# 72 at d = 3, never above 32 d.  So a tile's working set is at most
# 32 * 2^15 bytes = 1 MB for every d, half a 2 MB L2, where a whole 1,008-path
# block at d = 1 and 64 steps would hold 4 * 1008 * 64 * 8 bytes = 2 MB
_TILE_POINTS = 2**15


@dataclass(frozen=True)
class McConfig:
    """Estimator configuration: path budget, steps per path, seed and worker threads."""

    n_paths: int
    m_steps: int = 64
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        for name in ("n_paths", "m_steps", "seed", "threads"):
            # a numpy integer is stored as the int it holds
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))
        if self.n_paths < 100:
            raise ValueError(f"n_paths must be >= 100, got {self.n_paths}")
        if self.m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {self.m_steps}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    """A Monte Carlo mean, its standard error and its sample count.

    From ``estimate_heat_content``, one per time: mean = mean(w - y) +
    t^2 T_2 - t int V and the se of w - y; plain_mean = mean(w) - t int V, the
    estimate without the control variate; t2_residual = mean(y) - t^2 T_2
    with its standard error t2_residual_se, a check of T_2 by the paths
    alone.  The last three are 0.0 for V = 0 and for every other estimator.
    """

    mean: float
    standard_error: float
    n_samples: int
    plain_mean: float = 0.0
    t2_residual: float = 0.0
    t2_residual_se: float = 0.0


def _start_mixture(v: GaussianMixturePotential) -> tuple[GaussianMixturePotential, np.ndarray]:
    """g = sum_i |c_i| e^{-a_i |x - mu_i|^2} and its component masses |c_i| (pi/a_i)^{d/2}; Z is their sum."""
    g = replace(v, weights=tuple(abs(c) for c in v.weights))
    w, a, _ = g._arrays()
    return g, w * (math.pi / a) ** (v.dimension / 2.0)


def _summand_bound(v: GaussianMixturePotential, t: float) -> float:
    """B = (t^2/2) Z sum_i |c_i| e^{t sum_{c_i<0} |c_i|}; inf when the exponential overflows."""
    z = float(_start_mixture(v)[1].sum())
    with np.errstate(over="ignore"):
        growth = float(np.exp(t * sum(-c for c in v.weights if c < 0.0)))
    return 0.5 * t * t * z * sum(abs(c) for c in v.weights) * growth


def _chunk_summands(
    v: GaussianMixturePotential, alpha: float, ts: list[float], cfg: McConfig, chunk_index: int, n_chunk: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Block by block, (w, y) of one chunk's paths at every time of ts, each of shape (len(ts), block),
    from the chunk's own substream: w = (t^2/2) Z (V(x0)/g(x0)) e^{-A_U} V(X_U) and its control
    variate y, the same product with e^{-A_U} set to 1.

    Draw order, block and tile walk as in the module docstring.  Each
    block's span-1 draws become its relative path P in place, scaled per
    path by (s/m)^{1/alpha} and summed along the path; tile by tile, each
    time then evaluates V at x0 + t^{1/alpha} P in one reused buffer, so
    row k depends on ts[k] alone.
    """
    d = v.dimension
    m = cfg.m_steps
    g, mass = _start_mixture(v)
    _, a, mu = g._arrays()
    gen = RngStream(cfg.seed, chunk_index).generator
    comp = gen.choice(len(mass), size=n_chunk, p=mass / mass.sum())
    x0 = gen.standard_normal((n_chunk, d))
    x0 /= np.sqrt(2.0 * a)[comp, np.newaxis]
    x0 += mu[comp]
    del comp
    span = (1.0 - np.sqrt(1.0 - gen.random(n_chunk))) / m  # U / (t m), a step's span at t = 1
    v0 = v.evaluate(x0)
    ratio = float(mass.sum()) * v0 / g.evaluate(x0)
    block = min(n_chunk, max(1, _BLOCK_POINTS // (m + 1)))
    tile = min(block, max(1, _TILE_POINTS // ((m + 1) * d)))
    buf = np.empty((tile, m, d))
    for lo in range(0, n_chunk, block):
        hi = min(lo + block, n_chunk)
        path = sample_increment(alpha, d, 1.0, gen, size=(hi - lo) * m).reshape(hi - lo, m, d)
        path *= (span[lo:hi] ** (1.0 / alpha))[:, np.newaxis, np.newaxis]
        np.cumsum(path, axis=1, out=path)
        w, y = np.empty((len(ts), hi - lo)), np.empty((len(ts), hi - lo))
        # e^{-A} may overflow to inf (and 0 * inf to nan); the estimator rejects non-finite summands
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, hi - lo, tile):
                j = min(i + tile, hi - lo)
                rows = slice(lo + i, lo + j)
                for k, t in enumerate(ts):
                    pos = np.multiply(path[i:j], t ** (1.0 / alpha), out=buf[: j - i])
                    pos += x0[rows, np.newaxis, :]
                    vals = v.evaluate(pos)
                    a_u = (t * span[rows]) * (vals.sum(axis=1) + 0.5 * (v0[rows] - vals[:, -1]))
                    np.multiply(vals[:, -1], 0.5 * t * t * ratio[rows], out=y[k, i:j])
                    np.multiply(y[k, i:j], np.exp(-a_u), out=w[k, i:j])
        yield w, y


@dataclass(frozen=True)
class _Tally:
    """Per-time statistics of n paths, one column per time: peaks = (max|w|, max|w - y|),
    means = (mean w, mean (w - y), mean y) and ss = the centred sums of squares of w - y and y."""

    n: int
    peaks: np.ndarray
    means: np.ndarray
    ss: np.ndarray


# a non-finite summand makes its time's statistics nan or inf, which the estimator rejects
@np.errstate(over="ignore", invalid="ignore")
def _tally(w: np.ndarray, y: np.ndarray) -> _Tally:
    """The statistics of one block's (T, B) summands, row by row, as numpy's mean and var form them
    (sum / B, then the sum of squared deviations); w's buffer ends up holding w - y."""
    rows = []
    for wk, yk in zip(w, y):
        peak_w, mean_w = np.abs(wk).max(), wk.mean()
        rk = np.subtract(wk, yk, out=wk)
        mean_r, mean_y = rk.mean(), yk.mean()
        dev_r, dev_y = rk - mean_r, yk - mean_y
        rows.append((peak_w, np.abs(rk).max(), mean_w, mean_r, mean_y, (dev_r * dev_r).sum(), (dev_y * dev_y).sum()))
    cols = np.array(rows, dtype=float).T
    return _Tally(w.shape[1], cols[:2], cols[2:5], cols[5:])


@np.errstate(over="ignore", invalid="ignore")
def _merge(a: _Tally, b: _Tally) -> _Tally:
    """Pool two disjoint sets of paths (Chan, Golub & LeVeque, 1979): with n = n_a + n_b and
    delta = mean_b - mean_a, mean = mean_a + delta (n_b / n) and ss = ss_a + ss_b + delta^2 (n_a n_b / n);
    a peak is the larger one, and nan wins (np.maximum)."""
    n = a.n + b.n
    delta = b.means - a.means
    return _Tally(
        n,
        np.maximum(a.peaks, b.peaks),
        a.means + delta * (b.n / n),
        a.ss + b.ss + delta[1:] * delta[1:] * (a.n * b.n / n),
    )


def estimate_heat_content(
    v: GaussianMixturePotential, alpha: float, t, cfg: McConfig
) -> McEstimate | tuple[McEstimate, ...]:
    """Monte Carlo Q(t) = mean(w - y) + t^2 T_2(t) - t int V with standard error sd(w - y)/sqrt(n).

    t is one time, which returns one McEstimate, or a sequence of times,
    which returns a tuple of McEstimates in the order given; the times share
    every draw (see the module docstring), and each one's estimate is
    bit-identical to a call at that time alone.  The arguments are checked
    first, for every V.  V = 0 then returns exactly 0 with zero variance
    (every summand vanishes identically, so no paths are drawn).
    """
    _check_alpha(alpha)
    scalar = isinstance(t, str) or np.ndim(t) == 0
    times = [t] if scalar else list(t)
    for s in times:
        _check_positive_finite("t", s)
    if not times:
        raise ValueError("t is an empty sequence")
    ts = [float(s) for s in times]
    n = cfg.n_paths
    if v.is_zero:
        out = tuple(McEstimate(0.0, 0.0, n) for _ in ts)
    else:
        sizes = [min(_CHUNK, n - i * _CHUNK) for i in range((n + _CHUNK - 1) // _CHUNK)]

        def job(i: int) -> _Tally:
            blocks = _chunk_summands(v, alpha, ts, cfg, i, sizes[i])
            return functools.reduce(_merge, itertools.starmap(_tally, blocks))

        if cfg.threads == 1 or len(sizes) == 1:
            total = functools.reduce(_merge, map(job, range(len(sizes))))
        else:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                total = functools.reduce(_merge, pool.map(job, range(len(sizes))))
        out = tuple(_estimate(v, alpha, s, total, k) for k, s in enumerate(ts))
    return out[0] if scalar else out


def _estimate(v: GaussianMixturePotential, alpha: float, t: float, total: _Tally, k: int) -> McEstimate:
    """The k-th time's McEstimate from the pooled statistics, after the bound checks."""
    (peak_w, peak_r), (mean_w, mean_r, mean_y), (ss_r, ss_y) = (x[:, k] for x in (total.peaks, total.means, total.ss))
    if not math.isfinite(peak_w):
        raise RuntimeError(f"non-finite summand: e^(-A) overflows for this potential at t = {t:g}")
    bound = _summand_bound(v, t)
    _check_peak("summand", peak_w, bound)
    # A_U lies between U min V and U max V, so |e^{-A_U} - 1| <= t sum_i |c_i| e^{t sum_{c_i<0} |c_i|}
    _check_peak("summand less y", peak_r, bound * t * sum(abs(c) for c in v.weights))
    vol, t2 = t * v.integral(), t * t * t2_exact(v, alpha, t)
    n = total.n
    root_n = math.sqrt(n)
    return McEstimate(
        float(mean_r) + t2 - vol,
        math.sqrt(ss_r / (n - 1)) / root_n,
        n,
        plain_mean=float(mean_w) - vol,
        t2_residual=float(mean_y) - t2,
        t2_residual_se=math.sqrt(ss_y / (n - 1)) / root_n,
    )


def _check_peak(name: str, peak: float, bound: float) -> None:
    if peak > bound * (1.0 + 1e-12):
        raise RuntimeError(f"{name} {peak:g} above its bound {bound:g}")
