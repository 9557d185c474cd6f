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
stable process, and ``coefficients.t2_exact`` gives T_2 with no lattice.
Third-order control variate: the first-order term of e^{-A_U} - 1 along the
path itself,

    c'' = -y A_U,

has E c'' = -t^3 T_3(t), the cubic Duhamel term (``coefficients.t3_exact``),
which tends to -t^3 int V^3 / 6.  So the estimate is
mean(w - y - c'') + t^2 T_2(t) - t^3 T_3(t) - t int V, with the se of
w - y - c'' = y (e^{-A_U} - 1 + A_U): the paths estimate only what is of
second order in A_U.  The trapezoid rule's first-order step bias cancels in
w - y - c'', and the mean of c'' reads it instead (``t3_residual``).  Before
any path is drawn, one evaluation of T_3 decides each time's control
(``_third_order_means``): where T_3 has no rule (d >= 2 at alpha < 2) or its
rule does not converge at that time, the control is c' = -y t s V(x0), the
exponent frozen at its start, whose mean E c' (``coefficients.t3_control_mean``)
needs only a radial integral; w - y - c' follows how far A_U strays from
t s V(x0).  c names whichever control a time uses (``McEstimate.path_control``).
Each path's residuals w - y and w - y - c are formed path by path, never
from pooled means: on the benchmark workloads at t = 0.02 to 0.2 the variance
of w - y is 20x to 400x below w's and that of w - y - c a further 18x to 590x
(c') or 76x to 56,000x (c'') below, so a difference of means would lose digits
to cancellation.  The estimate also keeps mean(w) - t int V (``plain_mean``),
the estimate with y alone and its se (``t2_mean``, ``t2_standard_error``), and
the two controls' own checks: mean(y) - t^2 T_2 (``t2_residual``) and
mean(c) - E c (``t3_residual``), each with its se.

Invariant: |V/g| <= 1, |V| <= sum_i |c_i| and V >= -sum_{c_i<0} |c_i|, so

    |w| <= B = (t^2/2) Z sum_i |c_i| e^{t sum_{c_i<0} |c_i|}.

A_U and t s V(x0) both lie between U min V and U max V, so with
b = t sum_i |c_i| also |w - y| <= B b, |w - y - c''| <= B b^2 / 2 and
|w - y - c'| <= B b (1 + b/2); the estimator asserts the bound of each
column it forms.  So the variance is finite for every
alpha and d with no tuning: the start points stay where V lives, and a
path that jumps far away only shrinks its summand.

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
that time's columns (``_COLUMNS``: w - y - c, w - y, w, y and c) written
into the block's (C, T, B) array.  Tiles are not part of the draw order:
every float operation on a path is the same in any tile, so the tile size
changes no number.  Each block's columns are reduced at once to a count and,
per column and time, a mean, a centred sum of squares and a peak, which are
pooled block by block and then chunk by chunk, in order, by the pairwise
update of Chan, Golub & LeVeque (1979).  So apart from the per-path vectors
(start, V(x0), V/g, s) nothing chunk-sized is built, no
path-sized array outlives its chunk, and memory does not grow with n_paths
or with the number of times: a 32768-path, 64-step chunk in d = 1 peaks
below 3.8 MB of traced memory for every alpha.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .coefficients import _t3_converged, t2_exact, t3_control_mean
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
# the kernel's per-path columns, in the order it writes them: the residual that
# the estimate reads, then each quantity whose mean, se or peak a field reads;
# c is the third-order control, c'' or c' (``_third_order_means``)
_COLUMNS = ("w - y - c", "w - y", "w", "y", "c")


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

    From ``estimate_heat_content``, one per time: mean = mean(w - y - c) +
    t^2 T_2 + E c - t int V and the se of w - y - c, where the control c is
    c'' = -y A_U with E c'' = -t^3 T_3 where a rule of ``coefficients.t3_exact``
    converges (path_control is then True), else c' = -y t s V(x0).  The rest are
    0.0 (False) for V = 0 and for every other estimator:
      - plain_mean = mean(w) - t int V, the estimate without a control variate;
      - t2_mean = mean(w - y) + t^2 T_2 - t int V and its standard error
        t2_standard_error, the estimate with the second-order control alone;
      - t2_residual = mean(y) - t^2 T_2 with its standard error
        t2_residual_se, a check of T_2 by the paths alone;
      - t3_residual = mean(c) - E c with its standard error
        t3_residual_se, a check of E c by the paths alone; with c'' it also
        reads the trapezoid rule's step bias in A_U.
    """

    mean: float
    standard_error: float
    n_samples: int
    plain_mean: float = 0.0
    t2_mean: float = 0.0
    t2_standard_error: float = 0.0
    t2_residual: float = 0.0
    t2_residual_se: float = 0.0
    t3_residual: float = 0.0
    t3_residual_se: float = 0.0
    path_control: bool = False


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


def _third_order_means(v: GaussianMixturePotential, alpha: float, ts: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """E c at each time of ts and whether c is c'' = -y A_U (True) or c' = -y t s V(x0) (False).

    One evaluation of T_3 (``coefficients._t3_converged``) decides: c'' with E c'' = -t^3 T_3 where
    its rule converged, else c' with E c' from ``coefficients.t3_control_mean``.  Each time's rule
    runs once, and its control and mean are a lone call's.
    """
    times = np.array(ts)
    t3, exact = _t3_converged(v, alpha, times)
    means = -times**3 * t3
    if not exact.all():
        means[~exact] = t3_control_mean(v, alpha, times[~exact])
    return means, exact


def _chunk_summands(
    v: GaussianMixturePotential,
    alpha: float,
    ts: list[float],
    path_control: np.ndarray,
    cfg: McConfig,
    chunk_index: int,
    n_chunk: int,
) -> Iterator[np.ndarray]:
    """Block by block, the (C, T, B) columns of one chunk's paths at every time of ts, from the chunk's
    own substream: column c of ``_COLUMNS`` at time ts[k] for each of the block's B paths.

    w = (t^2/2) Z (V(x0)/g(x0)) e^{-A_U} V(X_U), y is w with e^{-A_U} set to
    1, the control c is c'' = -y A_U where path_control[k] is true, else
    c' = -y t s V(x0), and the residuals w - y and w - y - c are formed path
    by path.  Draw order, block and tile walk as in the module
    docstring.  Each block's span-1 draws become its relative path P in
    place, scaled per path by (s/m)^{1/alpha} and summed along the path;
    tile by tile, each time then evaluates V at x0 + t^{1/alpha} P in one
    reused buffer, so the columns of time k depend on ts[k] alone.
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
        cols = np.empty((len(_COLUMNS), len(ts), hi - lo))
        # e^{-A} may overflow to inf (and 0 * inf to nan); the estimator rejects non-finite summands
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(0, hi - lo, tile):
                j = min(i + tile, hi - lo)
                rows = slice(lo + i, lo + j)
                frozen = (m * span[rows]) * v0[rows]  # s V(x0), with s = U / t, for c'
                for k, t in enumerate(ts):
                    pos = np.multiply(path[i:j], t ** (1.0 / alpha), out=buf[: j - i])
                    pos += x0[rows, np.newaxis, :]
                    vals = v.evaluate(pos)
                    a_u = (t * span[rows]) * (vals.sum(axis=1) + 0.5 * (v0[rows] - vals[:, -1]))
                    r3, r2, w, y, c = cols[:, k, i:j]
                    np.multiply(vals[:, -1], 0.5 * t * t * ratio[rows], out=y)
                    np.multiply(y, np.exp(-a_u), out=w)
                    np.subtract(w, y, out=r2)
                    np.multiply(y, -a_u if path_control[k] else -t * frozen, out=c)
                    np.subtract(r2, c, out=r3)
        yield cols


@dataclass(frozen=True)
class _Tally:
    """Per-column, per-time statistics of n paths, each of shape (C, T): the peak |x|, the mean and the
    centred sum of squares."""

    n: int
    peaks: np.ndarray
    means: np.ndarray
    ss: np.ndarray


# a non-finite summand makes its time's statistics nan or inf, which the estimator rejects
@np.errstate(over="ignore", invalid="ignore")
def _tally(cols: np.ndarray) -> _Tally:
    """The statistics of one block's (C, T, B) columns along its paths, as numpy's mean and var form
    them (sum / B, then the sum of squared deviations)."""
    means = cols.mean(axis=-1)
    dev = cols - means[..., np.newaxis]
    return _Tally(cols.shape[-1], np.abs(cols).max(axis=-1), means, (dev * dev).sum(axis=-1))


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
        a.ss + b.ss + delta * delta * (a.n * b.n / n),
    )


def estimate_heat_content(
    v: GaussianMixturePotential, alpha: float, t, cfg: McConfig
) -> McEstimate | tuple[McEstimate, ...]:
    """Monte Carlo Q(t) = mean(w - y - c) + t^2 T_2(t) + E c - t int V with standard error sd(w - y - c)/sqrt(n).

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
        controls, path_control = _third_order_means(v, alpha, ts)
        sizes = [min(_CHUNK, n - i * _CHUNK) for i in range((n + _CHUNK - 1) // _CHUNK)]

        def job(i: int) -> _Tally:
            return functools.reduce(_merge, map(_tally, _chunk_summands(v, alpha, ts, path_control, cfg, i, sizes[i])))

        if cfg.threads == 1 or len(sizes) == 1:
            total = functools.reduce(_merge, map(job, range(len(sizes))))
        else:
            with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
                total = functools.reduce(_merge, pool.map(job, range(len(sizes))))
        out = tuple(
            _estimate(v, alpha, s, float(c), bool(e), total, k) for k, (s, c, e) in enumerate(zip(ts, controls, path_control))
        )
    return out[0] if scalar else out


def _estimate(v: GaussianMixturePotential, alpha: float, t: float, control: float, path_control: bool, total: _Tally, k: int) -> McEstimate:
    """The k-th time's McEstimate from the pooled columns and E c = control, after the bound checks; c is
    c'' where path_control is true, else c'."""
    n = total.n
    root_n = math.sqrt(n)
    peak, mean = ({name: float(x[c, k]) for c, name in enumerate(_COLUMNS)} for x in (total.peaks, total.means))
    se = {name: math.sqrt(total.ss[c, k] / (n - 1)) / root_n for c, name in enumerate(_COLUMNS)}
    if not math.isfinite(peak["w"]):
        raise RuntimeError(f"non-finite summand: e^(-A) overflows for this potential at t = {t:g}")
    bound = _summand_bound(v, t)
    _check_peak("summand", peak["w"], bound)
    # A_U and t s V(x0) both lie between U min V and U max V, U <= t and max V - min V <= sum_i |c_i|.
    # With b = t sum_i |c_i|, and B bounding |y| e^{t sum_{c_i<0} |c_i|}: |w - y| = |y| |e^{-A_U} - 1|
    # <= B b; |w - y - c''| = |y| |e^{-A_U} - 1 + A_U| <= |y| (A_U^2 / 2) e^{max(0, -A_U)} <= B b^2 / 2; and
    # |w - y - c'| = |y| |e^{-A_U} - 1 + t s V(x0)| <= |y| (|e^{-A_U} - 1 + A_U| + |A_U - t s V(x0)|) <= B b (1 + b / 2)
    b = t * sum(abs(c) for c in v.weights)
    _check_peak("summand less y", peak["w - y"], bound * b)
    if path_control:
        _check_peak("summand less y and c''", peak["w - y - c"], 0.5 * bound * b * b)
    else:
        _check_peak("summand less y and c'", peak["w - y - c"], bound * b * (1.0 + 0.5 * b))
    vol, t2 = t * v.integral(), t * t * t2_exact(v, alpha, t)
    return McEstimate(
        mean["w - y - c"] + t2 + control - vol,
        se["w - y - c"],
        n,
        plain_mean=mean["w"] - vol,
        t2_mean=mean["w - y"] + t2 - vol,
        t2_standard_error=se["w - y"],
        t2_residual=mean["y"] - t2,
        t2_residual_se=se["y"],
        t3_residual=mean["c"] - control,
        t3_residual_se=se["c"],
        path_control=path_control,
    )


def _check_peak(name: str, peak: float, bound: float) -> None:
    if peak > bound * (1.0 + 1e-12):
        raise RuntimeError(f"{name} {peak:g} above its bound {bound:g}")
