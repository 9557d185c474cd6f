"""Importance-sampled Feynman-Kac estimator for the heat content.

Marginalizing the bridging identity over endpoints gives

    Q(t) = int E^x[ exp(-int_0^t V(X_s) ds) - 1 ] dx,

so Q is estimated by drawing start points x ~ q (an isotropic Gaussian
proposal), one path skeleton per draw, a trapezoid approximation A of the
time integral of V along the skeleton, and averaging expm1(-A) / q(x).

Sign structure is exact per path: V <= 0 implies every summand >= 0 and
V >= 0 implies every summand <= 0, which the estimator asserts.

Known limitation: for alpha < 2 the integrand f(x) = E^x[...] above decays
only like |x|^{-d-alpha}, but the Gaussian proposal q decays like
exp(-|x|^2 / (2 sigma_q^2)).  So the variance int f^2/q is infinite, mass
beyond about 5 sigma_q of the centers is effectively dropped, and the
reported standard error cannot be trusted.

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

from .potentials import GaussianMixturePotential
from .sampling import RngStream, _check_sampler_alpha, sample_subordinator

__all__ = [
    "McConfig",
    "McEstimate",
    "default_proposal",
    "estimate_heat_content",
]

_CHUNK = 32768


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
    x0 = center + sigma * gen.standard_normal((n_chunk, d))
    dt = t / m
    if alpha == 2.0:
        incs = math.sqrt(2.0 * dt) * gen.standard_normal((n_chunk, m, d))
    else:
        s = sample_subordinator(alpha / 2.0, dt, gen, size=n_chunk * m).reshape(n_chunk, m)
        incs = np.sqrt(2.0 * s)[..., np.newaxis] * gen.standard_normal((n_chunk, m, d))
    pos = np.empty((n_chunk, m + 1, d))
    pos[:, 0, :] = x0
    np.cumsum(incs, axis=1, out=pos[:, 1:, :])
    pos[:, 1:, :] += x0[:, np.newaxis, :]
    vals = v.evaluate(pos)
    a = dt * (vals.sum(axis=1) - 0.5 * (vals[:, 0] + vals[:, -1]))
    r2 = ((x0 - center) ** 2).sum(axis=1)
    q = (2.0 * math.pi * sigma**2) ** (-d / 2.0) * np.exp(-r2 / (2.0 * sigma**2))
    # overflow to inf is tolerated here; the caller rejects non-finite batches
    with np.errstate(over="ignore"):
        return np.expm1(-a) / q


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
    if v.is_nonpositive and (w < 0.0).any():
        raise RuntimeError("sign violation: V <= 0 must give nonnegative summands")
    if v.is_nonnegative and (w > 0.0).any():
        raise RuntimeError("sign violation: V >= 0 must give nonpositive summands")
    return McEstimate(float(w.mean()), float(w.std(ddof=1) / math.sqrt(len(w))), len(w))
