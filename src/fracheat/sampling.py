"""Samplers for the isotropic alpha-stable process with CF e^{-t |xi|^alpha}.

The process is realized as subordinated Brownian motion: if S is a one-sided
beta-stable subordinator increment with Laplace transform
E exp(-lam S) = exp(-span lam^beta), beta = alpha/2, and Z is standard
d-dimensional Gaussian, then X = sqrt(2 S) Z has characteristic function
exp(-span |xi|^alpha).  At alpha = 2 the subordinator degenerates to the
constant S = span and X is Gaussian with variance 2*span per axis.

S is drawn by Kanter's representation: with U uniform on (0, pi] and W a
unit exponential,

    S = sin(beta U) * sin((1-beta) U)^{(1-beta)/beta}
        / (sin(U)^{1/beta} * W^{(1-beta)/beta}),

computed in log space for stability.  beta is capped at 0.975 (alpha at
1.95 below 2) because the log-sin terms lose precision beyond that; alpha=2
is handled exactly by the Gaussian branch.

Precision.  The uniform r and the exponential W are float64 draws, one of
each per S, and log W, the log-sum and the final exp are float64.  The
three sines and their logs are float32, whose vectorised sine costs a
small fraction of the float64 one.  With U = pi v, v = 1 - r, sin U is
evaluated as sin(pi min(v, r)): it has no cancellation as U -> pi, where
the float64 formula loses sin U to the rounding of U.  Against the
all-float64 formula on the same (r, W) the relative error stays below 1e-5
for beta in [0.25, 0.975] and below 1e-4 at beta = 0.05
(tests/test_sampling.py, 2e6 draws per beta), far inside the Monte Carlo
noise of any estimate built on the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .spectral import _check_alpha

__all__ = [
    "RngStream",
    "sample_subordinator",
    "sample_increment",
    "moment_estimate",
    "closed_form_density",
    "levy_cdf",
    "empirical_cf",
    "sampler_selftest",
    "SelftestCheck",
]

BETA_CAP = 0.975
ALPHA_CAP = 1.95
# r = 0 (U = pi) would give sin U = 0 and S = inf.  Flooring min(v, r) at
# 2^-54 keeps sin U >= 1.7e-16, near the 1.2e-16 of the float64 sin(fl(pi)).
_REFLECTED_FLOOR = np.float32(2.0**-54)


class RngStream:
    """Named substream of a master seed; (seed, stream_id) fixes all draws."""

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        for name, val in (("seed", seed), ("stream_id", stream_id)):
            if not isinstance(val, (int, np.integer)) or val < 0 or val >= 2**64:
                raise ValueError(f"{name} must be an integer in [0, 2^64), got {val}")
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        self.generator = np.random.Generator(np.random.PCG64(ss))


def _gen(rng) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"rng must be an RngStream or numpy Generator, got {type(rng)}")


def _check_sampler_alpha(alpha: float) -> None:
    """`_check_alpha`, and also reject (ALPHA_CAP, 2), where the subordinator loses precision."""
    _check_alpha(alpha)
    if ALPHA_CAP < alpha < 2.0:
        raise ValueError(
            f"alpha in ({ALPHA_CAP}, 2) is numerically unstable in the subordinator; "
            "use alpha = 2 exactly for the Gaussian endpoint"
        )


def sample_subordinator(beta: float, span: float, rng, size: int | None = None):
    """One-sided stable draw(s) with E exp(-lam S) = exp(-span lam^beta).

    Returns a float when size is None, else an array of shape (size,).
    All draws are strictly positive.  The log-sum is accumulated in place in
    the exponentials' array, which is returned, so a call peaks at about
    3 x 8 size bytes: that array, the uniforms, and float32 copies of v and
    min(v, r); the uniforms are freed before one float32 scratch array.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    if beta > BETA_CAP:
        raise ValueError(f"beta above {BETA_CAP} is numerically unstable; got {beta}")
    if not span > 0.0:
        raise ValueError(f"span must be positive, got {span}")
    gen = _gen(rng)
    n = 1 if size is None else int(size)
    r = gen.random(n)
    log_s = gen.standard_exponential(n)
    # U = pi v with v = 1 - r in (0, 1]; sin U is taken as sin(pi min(v, r))
    v = np.empty(n, dtype=np.float32)
    np.subtract(1.0, r, out=v)
    m = np.empty(n, dtype=np.float32)
    np.minimum(r, v, out=m)
    del r
    np.maximum(m, _REFLECTED_FLOOR, out=m)
    np.maximum(log_s, 1e-300, out=log_s)
    np.log(log_s, out=log_s)
    # log S = log sin(beta U) + ((1 - beta) (log sin((1 - beta) U) - log W) - log sin U) / beta
    scratch = np.multiply(v, np.float32((1.0 - beta) * math.pi))
    np.log(np.sin(scratch, out=scratch), out=scratch)
    np.subtract(scratch, log_s, out=log_s)
    log_s *= 1.0 - beta
    m *= np.float32(math.pi)
    np.log(np.sin(m, out=m), out=m)
    log_s -= m
    log_s *= 1.0 / beta
    v *= np.float32(beta * math.pi)
    np.log(np.sin(v, out=v), out=v)
    log_s += v
    s = np.exp(log_s, out=log_s)
    s *= span ** (1.0 / beta)
    return float(s[0]) if size is None else s


def sample_increment(alpha: float, d: int, span: float, rng, size: int | None = None):
    """Increment(s) of the isotropic process, CF exp(-span |xi|^alpha).

    Returns shape (d,) for size None, else (size, d).
    """
    _check_sampler_alpha(alpha)
    if d < 1:
        raise ValueError("d must be >= 1")
    if not span > 0.0:
        raise ValueError(f"span must be positive, got {span}")
    gen = _gen(rng)
    n = 1 if size is None else int(size)
    if alpha == 2.0:
        x = math.sqrt(2.0 * span) * gen.standard_normal((n, d))
    else:
        s = sample_subordinator(alpha / 2.0, span, rng, size=n)
        x = np.sqrt(2.0 * s)[:, np.newaxis] * gen.standard_normal((n, d))
    return x[0] if size is None else x


def moment_estimate(alpha: float, gamma: float, t: float, n_samples: int, rng, d: int = 1):
    """Monte Carlo estimate of E |X_t|^gamma; finite only for gamma < alpha.

    Returns a mean/standard-error record; gamma >= alpha with alpha < 2 has
    an infinite moment and raises.
    """
    _check_sampler_alpha(alpha)
    if gamma <= 0.0:
        raise ValueError("gamma must be positive")
    if alpha < 2.0 and gamma >= alpha:
        raise ValueError(f"E|X_t|^gamma is infinite for gamma = {gamma} >= alpha = {alpha}")
    if n_samples < 100:
        raise ValueError("need n_samples >= 100")
    from .montecarlo import McEstimate

    x = sample_increment(alpha, d, t, rng, size=n_samples)
    vals = np.sqrt((x**2).sum(axis=1)) ** gamma
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return McEstimate(mean, se, n_samples)


def closed_form_density(alpha: float, t: float, x, d: int = 1) -> np.ndarray:
    """Transition density p_t(x) for the two closed-form cases.

    alpha = 2: (4 pi t)^{-d/2} exp(-|x|^2 / (4 t));
    alpha = 1: Gamma((d+1)/2) / pi^{(d+1)/2} * t / (t^2 + |x|^2)^{(d+1)/2}.
    """
    if not t > 0.0:
        raise ValueError("t must be positive")
    pts = np.asarray(x, dtype=float)
    if d == 1:
        if pts.ndim and pts.shape[-1] == 1:
            pts = pts[..., 0]
        norm2 = pts**2
    else:
        if pts.ndim == 0 or pts.shape[-1] != d:
            raise ValueError(f"expected points with last axis {d}")
        norm2 = (pts**2).sum(axis=-1)
    if alpha == 2.0:
        return (4.0 * math.pi * t) ** (-d / 2.0) * np.exp(-norm2 / (4.0 * t))
    if alpha == 1.0:
        const = math.gamma((d + 1) / 2.0) / math.pi ** ((d + 1) / 2.0)
        return const * t / (t**2 + norm2) ** ((d + 1) / 2.0)
    raise ValueError(f"no closed-form density for alpha = {alpha}; only alpha in {{1, 2}}")


def levy_cdf(s, span: float) -> np.ndarray:
    """CDF of the beta = 1/2 subordinator: F(s) = erfc(span / (2 sqrt(s)))."""
    arr = np.asarray(s, dtype=float)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    out[pos] = special.erfc(span / (2.0 * np.sqrt(arr[pos])))
    return out


def empirical_cf(samples: np.ndarray, xi: np.ndarray) -> complex:
    """Mean of exp(i xi . X) over sample rows."""
    phase = np.asarray(samples) @ np.asarray(xi, dtype=float).reshape(-1)
    return complex(np.exp(1j * phase).mean())


@dataclass(frozen=True)
class SelftestCheck:
    name: str
    statistic: float
    threshold: float
    passed: bool


def sampler_selftest(seed: int = 0, n_cf: int = 1_000_000) -> list[SelftestCheck]:
    """Distributional self-checks of the sampler against closed forms.

    Covers: CF fidelity across alpha and d, the Laplace transform of the
    subordinator, the beta = 1/2 closed-form law (KS), Gaussian endpoint
    variance, and the t^{1/alpha} scaling of fractional moments.
    """
    from scipy import stats

    checks: list[SelftestCheck] = []
    stream = 0
    # characteristic function fidelity at |xi| in {0.5, 1, 2}
    for alpha in (0.8, 1.0, 1.5, 2.0):
        for d in (1, 2):
            x = sample_increment(alpha, d, 1.0, RngStream(seed, stream), size=n_cf)
            stream += 1
            for r in (0.5, 1.0, 2.0):
                xi = np.zeros(d)
                xi[0] = r
                err = abs(empirical_cf(x, xi) - math.exp(-(r**alpha)))
                checks.append(
                    SelftestCheck(
                        f"cf alpha={alpha} d={d} |xi|={r}", err, 4.0 / math.sqrt(n_cf), err < 4.0 / math.sqrt(n_cf)
                    )
                )
    # Laplace transform of the subordinator at beta = 0.75
    s = sample_subordinator(0.75, 1.0, RngStream(seed, stream), size=n_cf)
    stream += 1
    vals = np.exp(-s)
    err = abs(float(vals.mean()) - math.exp(-1.0))
    tol = 4.0 * float(vals.std(ddof=1)) / math.sqrt(n_cf)
    checks.append(SelftestCheck("laplace beta=0.75", err, tol, err < tol))
    # KS against the closed-form beta = 1/2 law
    n_ks = 100_000
    s = sample_subordinator(0.5, 1.0, RngStream(seed, stream), size=n_ks)
    stream += 1
    ks = float(stats.kstest(s, lambda q: levy_cdf(q, 1.0)).statistic)
    crit = 1.6276 / math.sqrt(n_ks)
    checks.append(SelftestCheck("ks beta=0.5", ks, crit, ks < crit))
    # Gaussian endpoint variance: alpha = 2, span = 0.5 -> unit variance
    x = sample_increment(2.0, 1, 0.5, RngStream(seed, stream), size=n_cf)
    stream += 1
    var = float(x[:, 0].var(ddof=1))
    tol = 4.0 * math.sqrt(2.0 / (n_cf - 1))
    checks.append(SelftestCheck("variance alpha=2 span=0.5", abs(var - 1.0), tol, abs(var - 1.0) < tol))
    # moment scaling: E|X_4|^gamma = 4^{gamma/alpha} E|X_1|^gamma
    for alpha, gamma in ((2.0, 1.0), (1.5, 0.5), (1.0, 0.4)):
        m1 = moment_estimate(alpha, gamma, 1.0, n_cf, RngStream(seed, stream))
        m4 = moment_estimate(alpha, gamma, 4.0, n_cf, RngStream(seed, stream + 1))
        stream += 2
        ratio = m4.mean / (4.0 ** (gamma / alpha) * m1.mean)
        rel = math.sqrt((m1.standard_error / m1.mean) ** 2 + (m4.standard_error / m4.mean) ** 2)
        checks.append(
            SelftestCheck(f"scaling alpha={alpha} gamma={gamma}", abs(ratio - 1.0), 3.0 * rel, abs(ratio - 1.0) < 3.0 * rel)
        )
    return checks
