"""Importance-sampled Feynman-Kac estimator for the heat content.

Marginalizing the bridging identity over endpoints gives

    Q(t) = int E^x[ exp(-int_0^t V(X_s) ds) - 1 ] dx.

Each path draws a start point x ~ q, one skeleton, and the trapezoid value A
of the time integral of V along it.  Since int E^x[A] dx = t int V exactly
(trapezoid weights included), the first-order term is a control variate with
known mean: the estimator averages

    (e^{-A} - 1 + A) / q(x) = A^2 psi(A) / q(x),   psi = coefficients.t2_kernel,

and subtracts t int V.  The same draws give the same expectation as
averaging expm1(-A)/q, but the O(t) term no longer adds variance.

Invariant: e^{-a} - 1 + a >= 0 for every real a (convexity), so every
summand is nonnegative whatever the sign of V, which the estimator asserts.

Proposal: q is the defensive mixture (Hesterberg 1995; Owen & Zhou 2000)

    q = (1 - w) N(center, sigma^2 I) + w t_nu(center, sigma),  w = 0.1, nu = alpha,

with t_nu the multivariate Student-t of nu degrees of freedom and scale
sigma.  For alpha < 2 the integrand f(x) = E^x[...] decays only like
|x|^{-d-alpha}.  Against a Gaussian q alone, int f^2/q is infinite and the
mass far out in the tail is effectively never sampled, so the estimate is
biased low and its standard error cannot be trusted.  The Student-t tail
decays like |x|^{-d-nu}, and nu = alpha < 2 alpha makes int f^2/q finite for
every alpha in (0, 2].  The Gaussian component keeps most of the draws where
V lives.  What stays heavy-tailed is the path part of the noise: a start point
far out in the Student-t tail whose path jumps into the support of V gives a
rare large summand, so at small alpha one such path can lift both the mean
and the standard error of a single run.

Results are deterministic given (seed, n_paths, m_steps): the path budget is
cut into fixed chunks, each driven by its own seed substream, so the thread
count changes scheduling but not a single drawn number.  One call estimates
one time; ``validator.estimate_series`` gives each time of a series its own
seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .coefficients import t2_kernel
from .potentials import GaussianMixturePotential
from .sampling import RngStream, _check_sampler_alpha, sample_subordinator

__all__ = [
    "McConfig",
    "McEstimate",
    "default_proposal",
    "estimate_heat_content",
]

_CHUNK = 32768
_DEFENSIVE = 0.1  # weight of the Student-t component; its degrees of freedom are alpha


@dataclass(frozen=True)
class McConfig:
    """Estimator configuration; proposal fields None mean 'derive from V'."""

    n_paths: int
    m_steps: int = 64
    proposal_center: tuple[float, ...] | None = None
    proposal_sigma: float | None = None
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        for name in ("n_paths", "m_steps", "seed", "threads"):
            val = getattr(self, name)
            # bool is an int subclass; a numpy integer is stored as the int it holds
            if isinstance(val, bool) or not isinstance(val, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {val!r}")
            object.__setattr__(self, name, int(val))
        if self.n_paths < 100:
            raise ValueError(f"n_paths must be >= 100, got {self.n_paths}")
        if self.m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {self.m_steps}")
        if self.proposal_sigma is not None and not self.proposal_sigma > 0.0:
            raise ValueError(f"proposal sigma must be positive, got {self.proposal_sigma}")
        if self.threads < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {self.seed}")


@dataclass(frozen=True)
class McEstimate:
    mean: float
    standard_error: float
    n_samples: int


def default_proposal(v: GaussianMixturePotential, d: int) -> tuple[np.ndarray, float]:
    """Proposal center and width derived from the mixture geometry.

    Center: |c_i|-weighted average of component centers.  Width: 3 times
    (max component standard deviation 1/sqrt(2 a_i) + max center spread),
    wide enough that every component lies well inside the proposal core.
    """
    if v.is_zero:
        return np.zeros(d), 1.0
    w = np.abs(np.asarray(v.weights))
    mu = np.asarray(v.centers, dtype=float).reshape(len(v.weights), d)
    center = (w[:, np.newaxis] * mu).sum(axis=0) / w.sum()
    widths = 1.0 / np.sqrt(2.0 * np.asarray(v.sharpness))
    spread = np.sqrt(((mu - center) ** 2).sum(axis=1)).max()
    return center, 3.0 * (float(widths.max()) + float(spread))


def _proposal_density(x: np.ndarray, center: np.ndarray, sigma: float, alpha: float) -> np.ndarray:
    """Density of the defensive mixture at the rows of x."""
    d = x.shape[1]
    r2 = ((x - center) ** 2).sum(axis=1) / sigma**2
    normal = (2.0 * math.pi * sigma**2) ** (-d / 2.0) * np.exp(-0.5 * r2)
    log_norm = math.lgamma((alpha + d) / 2.0) - math.lgamma(alpha / 2.0)
    log_norm -= 0.5 * d * math.log(alpha * math.pi * sigma**2)
    student = math.exp(log_norm) * (1.0 + r2 / alpha) ** (-(alpha + d) / 2.0)
    return (1.0 - _DEFENSIVE) * normal + _DEFENSIVE * student


def _chunk_summands(
    v: GaussianMixturePotential,
    alpha: float,
    t: float,
    cfg: McConfig,
    center: np.ndarray,
    sigma: float,
    chunk_index: int,
    n_chunk: int,
) -> np.ndarray:
    d = v.dimension
    m = cfg.m_steps
    gen = RngStream(cfg.seed, chunk_index).generator
    # draw order: mixture choice, start point, Student-t scale, increments
    heavy = gen.random(n_chunk) < _DEFENSIVE
    z = gen.standard_normal((n_chunk, d))
    z[heavy] /= np.sqrt(gen.chisquare(alpha, int(heavy.sum())) / alpha)[:, np.newaxis]
    x0 = center + sigma * z
    # each array is freed once used, so that no draw outlives its step and
    # q(x0) adds nothing at the peak, which is inside evaluate
    del heavy, z
    dt = t / m
    if alpha == 2.0:
        incs = math.sqrt(2.0 * dt) * gen.standard_normal((n_chunk, m, d))
    else:
        s = sample_subordinator(alpha / 2.0, dt, gen, size=n_chunk * m).reshape(n_chunk, m)
        incs = np.sqrt(2.0 * s)[..., np.newaxis] * gen.standard_normal((n_chunk, m, d))
        del s
    pos = np.empty((n_chunk, m + 1, d))
    pos[:, 0, :] = x0
    np.cumsum(incs, axis=1, out=pos[:, 1:, :])
    del incs
    pos[:, 1:, :] += x0[:, np.newaxis, :]
    vals = v.evaluate(pos)
    del pos
    a = dt * (vals.sum(axis=1) - 0.5 * (vals[:, 0] + vals[:, -1]))
    del vals
    q = _proposal_density(x0, center, sigma, alpha)
    # overflow to inf is tolerated here; the caller rejects non-finite batches
    with np.errstate(over="ignore"):
        return a**2 * t2_kernel(a) / q


def estimate_heat_content(
    v: GaussianMixturePotential, alpha: float, t: float, cfg: McConfig
) -> McEstimate:
    """Monte Carlo Q(t) with standard error sd/sqrt(n).

    The arguments are checked first, for every V.  V = 0 then returns exactly
    0 with zero variance (every summand vanishes identically, so no paths are
    drawn).
    """
    _check_sampler_alpha(alpha)
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    if cfg.proposal_center is not None and np.shape(cfg.proposal_center) != (v.dimension,):
        raise ValueError(f"proposal center must have shape ({v.dimension},)")
    if v.is_zero:
        return McEstimate(0.0, 0.0, cfg.n_paths)
    center, sigma = default_proposal(v, v.dimension)
    if cfg.proposal_center is not None:
        center = np.asarray(cfg.proposal_center, dtype=float)
    if cfg.proposal_sigma is not None:
        sigma = cfg.proposal_sigma
    n = cfg.n_paths
    sizes = [min(_CHUNK, n - i * _CHUNK) for i in range((n + _CHUNK - 1) // _CHUNK)]
    job = lambda i: _chunk_summands(v, alpha, t, cfg, center, sigma, i, sizes[i])
    if cfg.threads == 1 or len(sizes) == 1:
        parts = [job(i) for i in range(len(sizes))]
    else:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            parts = list(pool.map(job, range(len(sizes))))
    w = np.concatenate(parts)
    if not np.isfinite(w).all():
        raise RuntimeError(
            "non-finite summand: the proposal is too narrow for this potential/time "
            f"(sigma = {sigma:g})"
        )
    if (w < 0.0).any():
        raise RuntimeError("convexity violation: every summand (e^-A - 1 + A)/q must be >= 0")
    mean = float(w.mean()) - t * v.integral()
    return McEstimate(mean, float(w.std(ddof=1) / math.sqrt(len(w))), len(w))
