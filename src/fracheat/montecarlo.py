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

By self-similarity the m increments of span U/m are span-1
``sample_increment`` draws scaled by (U/m)^{1/alpha}.

Results are deterministic given (seed, n_paths, m_steps): the path budget is
cut into chunks of ``_CHUNK`` paths, each driven by its own seed substream,
so the thread count changes scheduling but not a single drawn number.  One
call estimates one time; ``validator.estimate_series`` gives each time of a
series its own seed.

Within a chunk the draws come in this order: the component choices, the
start points' normals and the times U for the whole chunk, then block by
block of ``_BLOCK_POINTS`` // (m + 1) paths the block's span-1 increments.
The chunk size and the block size are therefore both part of the draw
order: changing either changes the numbers.  A block holds one (B, m, d)
array, its draws turned into the positions X_1..X_m in place, and V(x0) is
evaluated once per chunk, so apart from the per-path vectors (start, V(x0),
U, w, y) nothing chunk-sized is built: a 32768-path, 64-step chunk in
d = 1 peaks at a few MB of traced memory for every alpha.
"""

from __future__ import annotations

import math
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
# B = _BLOCK_POINTS // (m + 1) paths per block, part of the draw order: the
# block's (B, m, 1) float64 array and evaluate's temporaries fit a 2 MB L2 at d = 1
_BLOCK_POINTS = 2**16


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

    From ``estimate_heat_content``: mean = mean(w - y) + t^2 T_2 - t int V and
    the se of w - y; plain_mean = mean(w) - t int V, the estimate without the
    control variate; t2_residual = mean(y) - t^2 T_2 with its standard error
    t2_residual_se, a check of T_2 by the paths alone.  The last three are 0.0
    for V = 0 and for every other estimator.
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
    v: GaussianMixturePotential, alpha: float, t: float, cfg: McConfig, chunk_index: int, n_chunk: int
) -> tuple[np.ndarray, np.ndarray]:
    """(w, y) of one chunk's paths, from its own substream: w = (t^2/2) Z (V(x0)/g(x0)) e^{-A_U} V(X_U)
    and its control variate y, the same product with e^{-A_U} set to 1.

    Draw order and block walk as in the module docstring; each block's
    span-1 draws become its positions in place: scaled per path by
    (U/m)^{1/alpha}, summed along the path and shifted by x0.
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
    step = t * (1.0 - np.sqrt(1.0 - gen.random(n_chunk))) / m
    v0 = v.evaluate(x0)
    block = min(n_chunk, max(1, _BLOCK_POINTS // (m + 1)))
    w, y = np.empty(n_chunk), np.empty(n_chunk)
    # e^{-A} may overflow to inf (and 0 * inf to nan); the caller rejects non-finite batches
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n_chunk, block):
            hi = min(lo + block, n_chunk)
            path = sample_increment(alpha, d, 1.0, gen, size=(hi - lo) * m).reshape(hi - lo, m, d)
            path *= (step[lo:hi] ** (1.0 / alpha))[:, np.newaxis, np.newaxis]
            np.cumsum(path, axis=1, out=path)
            path += x0[lo:hi, np.newaxis, :]
            vals = v.evaluate(path)
            a_u = step[lo:hi] * (vals.sum(axis=1) + 0.5 * (v0[lo:hi] - vals[:, -1]))
            y[lo:hi] = vals[:, -1]
            w[lo:hi] = vals[:, -1] * np.exp(-a_u)
        scale = 0.5 * t * t * float(mass.sum()) * v0 / g.evaluate(x0)
        w *= scale
        y *= scale
    return w, y


def estimate_heat_content(
    v: GaussianMixturePotential, alpha: float, t: float, cfg: McConfig
) -> McEstimate:
    """Monte Carlo Q(t) = mean(w - y) + t^2 T_2(t) - t int V with standard error sd(w - y)/sqrt(n).

    The arguments are checked first, for every V.  V = 0 then returns exactly
    0 with zero variance (every summand vanishes identically, so no paths are
    drawn).
    """
    _check_alpha(alpha)
    _check_positive_finite("t", t)
    if v.is_zero:
        return McEstimate(0.0, 0.0, cfg.n_paths)
    n = cfg.n_paths
    sizes = [min(_CHUNK, n - i * _CHUNK) for i in range((n + _CHUNK - 1) // _CHUNK)]
    job = lambda i: _chunk_summands(v, alpha, t, cfg, i, sizes[i])
    if cfg.threads == 1 or len(sizes) == 1:
        parts = [job(i) for i in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(job, range(len(sizes))))
    w, y = parts[0] if len(parts) == 1 else (np.concatenate(s) for s in zip(*parts))
    del parts
    if not np.isfinite(w).all():
        raise RuntimeError(f"non-finite summand: e^(-A) overflows for this potential at t = {t:g}")
    vol, t2 = t * v.integral(), t * t * t2_exact(v, alpha, t)
    plain_mean = float(w.mean()) - vol
    bound = _summand_bound(v, t)
    _check_peak("summand", w, bound)
    r = np.subtract(w, y, out=w)  # in w's buffer, which is not read again: two path-sized arrays, not three
    # A_U lies between U min V and U max V, so |e^{-A_U} - 1| <= t sum_i |c_i| e^{t sum_{c_i<0} |c_i|}
    _check_peak("summand less y", r, bound * t * sum(abs(c) for c in v.weights))
    root_n = math.sqrt(len(r))
    return McEstimate(
        float(r.mean()) + t2 - vol,
        float(r.std(ddof=1) / root_n),
        len(r),
        plain_mean=plain_mean,
        t2_residual=float(y.mean()) - t2,
        t2_residual_se=float(y.std(ddof=1) / root_n),
    )


def _check_peak(name: str, s: np.ndarray, bound: float) -> None:
    peak = float(np.abs(s).max())
    if peak > bound * (1.0 + 1e-12):
        raise RuntimeError(f"{name} {peak:g} above its bound {bound:g}")
