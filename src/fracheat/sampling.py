"""Samplers for the isotropic alpha-stable process with CF e^{-t |xi|^alpha}.

Which law ``sample_increment`` draws, by (alpha, d); the path kernel draws
every increment through it, at span 1:

- alpha = 2, every d: Gaussian, variance 2 span per axis (d normals).
- alpha < 2, d = 1: the Chambers-Mallows-Stuck symmetric draw (JASA 71,
  1976), one uniform and one exponential; at alpha = 1 one uniform only.
- alpha = 1, d = 2: the radial Cauchy draw, two uniforms.
- alpha < 2 otherwise (d = 2 at alpha != 1, every d >= 3): subordinated
  Brownian motion, one Kanter subordinator draw and d normals.

Subordination.  If S is a one-sided beta-stable subordinator increment with
Laplace transform E exp(-lam S) = exp(-span lam^beta), beta = alpha/2, and Z
is standard d-dimensional Gaussian, then X = sqrt(2 S) Z has characteristic
function exp(-span |xi|^alpha).  S is drawn by Kanter's representation:
with U uniform on (0, pi] and W a unit exponential,

    S = sin(beta U) * sin((1-beta) U)^{(1-beta)/beta}
        / (sin(U)^{1/beta} * W^{(1-beta)/beta}),

computed in log space for stability.  alpha = 2 is handled exactly by the
Gaussian branch.

Chambers-Mallows-Stuck.  With phi uniform on (-pi/2, pi/2) and W a unit
exponential, the span-1 draw is

    X = sin(alpha phi) / cos(phi)^{1/alpha} * (cos((1-alpha) phi) / W)^{(1-alpha)/alpha},

and X = tan(phi) at alpha = 1, which needs no W.

Radial Cauchy.  In d = 2 at alpha = 1, |X| has CDF 1 - 1/sqrt(1 + rho^2),
so |X| = sqrt(r (2 - r)) / (1 - r) for r uniform on [0, 1), and the angle
is uniform on [0, 2 pi).

Precision.  Every uniform and exponential is a float64 draw.  Kanter and
CMS take their sines, cosines and logs in float32, whose vectorised forms
cost a small fraction of the float64 ones, and keep log W, the log-sum and
the final exp in float64.  Every trig argument that can come near pi is
taken from the uniform's distance to the end of its range, so that no small
sine is read off a float32 angle near pi.  Kanter, with U = pi v and
v = 1 - r, takes sin U as sin(pi min(v, r)) and sin(beta U) as
sin(pi min(beta v, (1 - beta) + beta r)); the two arguments in each min sum
to 1.  CMS, with phi = pi p, p = r - 1/2 and e = min(r, 1 - r), takes
cos(phi) as sin(pi e), sin(alpha phi) as
sign(p) sin(pi min(alpha |p|, (1 - alpha/2) + alpha e)) and
cos((1 - alpha) phi) as sin(pi ((1 - k)/2 + k e)) with k = |1 - alpha|.
Against the all-float64 formulas on the same draws (tests/test_sampling.py),
the relative error stays below 1e-5 for Kanter at beta in [0.25, 0.9999]
and below 1e-4 at beta = 0.05 (2e6 draws per beta), and below 1e-5 for CMS
at alpha in [0.5, 1.999].  The radial Cauchy radius is float64 and its
angle's cosine and sine are float32, so each coordinate lies within
1e-6 |X| of the float64 formula.  All of this is far inside the Monte Carlo
noise of any estimate built on the draws.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RngStream",
    "sample_subordinator",
    "sample_increment",
    "moment_estimate",
    "levy_cdf",
    "empirical_cf",
    "sampler_selftest",
    "SelftestCheck",
]

# r = 0 (U = pi) would give sin U = 0 and S = inf.  Flooring min(v, r) at
# 2^-54 keeps sin U >= 1.7e-16, near the 1.2e-16 of the float64 sin(fl(pi)).
# CMS floors its cos(phi) = sin(pi min(r, 1 - r)) the same way.
_REFLECTED_FLOOR = np.float32(2.0**-54)


def _is_finite_real(val) -> bool:
    """A finite real number that a float holds; bool is an int subclass and is not one here."""
    if type(val) is float:  # the common case, ahead of the far slower isinstance check against an abstract class
        return math.isfinite(val)
    try:
        return isinstance(val, numbers.Real) and not isinstance(val, (bool, np.bool_)) and math.isfinite(val)
    except OverflowError:  # an int too large for a float
        return False


def _check_positive_finite(name: str, val) -> None:
    if not (_is_finite_real(val) and val > 0.0):
        raise ValueError(f"{name} must be a positive finite number, got {val}")


def _check_alpha(alpha) -> None:
    """The one range check on alpha, the order of F = (-Delta)^{alpha/2}; a bool is not a number here."""
    if not (_is_finite_real(alpha) and 0.0 < alpha <= 2.0):
        raise ValueError(f"alpha must lie in (0, 2], got {alpha}")


def _check_count(name: str, val) -> int:
    """val as a Python int; a bool (an int subclass), float or any non-integer raises ValueError naming it."""
    if isinstance(val, (bool, np.bool_)) or not isinstance(val, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {val!r}")
    return int(val)


class RngStream:
    """Named substream of a master seed; (seed, stream_id) fixes all draws."""

    def __init__(self, seed: int, stream_id: int = 0) -> None:
        for name, val in (("seed", seed), ("stream_id", stream_id)):
            if not 0 <= _check_count(name, val) < 2**64:
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


def sample_subordinator(beta: float, span: float, rng, size: int) -> np.ndarray:
    """size one-sided stable draws with E exp(-lam S) = exp(-span lam^beta), an array of shape (size,).

    All draws are strictly positive.  The log-sum is accumulated in place in
    the exponentials' array, which is returned, so a call peaks at about
    3 x 8 size bytes: that array, the uniforms, and float32 copies of v and
    min(v, r); the uniforms are freed before one float32 scratch array.
    """
    if not (_is_finite_real(beta) and 0.0 < beta < 1.0):
        raise ValueError(f"beta must lie in (0, 1), got {beta!r}")
    _check_positive_finite("span", span)
    gen = _gen(rng)
    n = _check_count("size", size)
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
    # sin(beta U) = sin(pi min(beta v, (1 - beta) + beta r)), its reflected argument taken from m before m is scaled
    np.multiply(m, np.float32(beta * math.pi), out=scratch)
    scratch += np.float32((1.0 - beta) * math.pi)
    m *= np.float32(math.pi)
    np.log(np.sin(m, out=m), out=m)
    log_s -= m
    log_s *= 1.0 / beta
    v *= np.float32(beta * math.pi)
    np.minimum(v, scratch, out=v)
    np.log(np.sin(v, out=v), out=v)
    log_s += v
    s = np.exp(log_s, out=log_s)
    s *= span ** (1.0 / beta)
    return s


def _cms_symmetric(alpha: float, gen: np.random.Generator, n: int) -> np.ndarray:
    """n span-1 symmetric alpha-stable draws (alpha < 2) by Chambers-Mallows-Stuck, phi = pi (r - 1/2).

    e = min(r, 1 - r) and p = r - 1/2 are exact in float64 before their
    float32 rounding, and every angle is taken from them as the module
    docstring says; sin(alpha phi) carries the sign of p, so r = 1/2 gives
    X = 0 and no log of 0 is taken.
    """
    r = gen.random(n)
    w = None if alpha == 1.0 else gen.standard_exponential(n)
    e = np.empty(n, dtype=np.float32)
    np.subtract(1.0, r, out=e)
    np.minimum(r, e, out=e)
    np.maximum(e, _REFLECTED_FLOOR, out=e)
    p = np.empty(n, dtype=np.float32)
    np.subtract(r, 0.5, out=p)
    del r
    if w is None:
        # X = tan(phi) = sin(pi p) / sin(pi e)
        e *= np.float32(math.pi)
        p *= np.float32(math.pi)
        return np.divide(np.sin(p, out=p), np.sin(e, out=e), dtype=np.float64)
    # log (X / sin(alpha phi)) = ((1 - alpha) (log cos((1 - alpha) phi) - log W) - log cos(phi)) / alpha
    np.maximum(w, 1e-300, out=w)
    np.log(w, out=w)
    k = abs(1.0 - alpha)
    scratch = np.multiply(e, np.float32(k * math.pi))
    scratch += np.float32(0.5 * (1.0 - k) * math.pi)
    np.log(np.sin(scratch, out=scratch), out=scratch)
    np.subtract(scratch, w, out=w)
    w *= 1.0 - alpha
    # the reflected argument of sin(alpha |phi|), from e before e is scaled
    np.multiply(e, np.float32(alpha * math.pi), out=scratch)
    scratch += np.float32((1.0 - 0.5 * alpha) * math.pi)
    e *= np.float32(math.pi)
    np.log(np.sin(e, out=e), out=e)
    w -= e
    w *= 1.0 / alpha
    x = np.exp(w, out=w)
    np.abs(p, out=e)
    e *= np.float32(alpha * math.pi)
    np.minimum(e, scratch, out=e)
    np.sin(e, out=e)
    x *= np.copysign(e, p, out=e)
    return x


def _radial_cauchy(gen: np.random.Generator, n: int) -> np.ndarray:
    """n span-1 isotropic Cauchy draws in d = 2: |X| = sqrt(r (2 - r)) / (1 - r), a uniform angle."""
    r = gen.random(n)
    theta = np.multiply(gen.random(n), 2.0 * math.pi, dtype=np.float32)
    rho = np.subtract(2.0, r)
    rho *= r
    np.sqrt(rho, out=rho)
    np.subtract(1.0, r, out=r)
    rho /= r
    del r
    x = np.empty((n, 2))
    np.cos(theta, out=x[:, 0])
    x[:, 0] *= rho
    np.multiply(rho, np.sin(theta, out=theta), out=x[:, 1])
    return x


def sample_increment(alpha: float, d: int, span: float, rng, size: int) -> np.ndarray:
    """size increments of the isotropic process, CF exp(-span |xi|^alpha), by the law the module docstring
    names, an array of shape (size, d)."""
    _check_alpha(alpha)
    if _check_count("d", d) < 1:
        raise ValueError(f"d must be an integer >= 1, got {d!r}")
    _check_positive_finite("span", span)
    gen = _gen(rng)
    n = _check_count("size", size)
    if alpha == 2.0:
        x = gen.standard_normal((n, d))
        x *= math.sqrt(2.0 * span)
    elif d == 1 or (d == 2 and alpha == 1.0):
        x = _cms_symmetric(alpha, gen, n)[:, np.newaxis] if d == 1 else _radial_cauchy(gen, n)
        if span != 1.0:
            x *= span ** (1.0 / alpha)
    else:
        s = sample_subordinator(alpha / 2.0, span, rng, size=n)
        x = np.sqrt(2.0 * s)[:, np.newaxis] * gen.standard_normal((n, d))
    return x


def moment_estimate(alpha: float, gamma: float, t: float, n_samples: int, rng, d: int = 1):
    """Monte Carlo estimate of E |X_t|^gamma; finite only for gamma < alpha.

    Returns a mean/standard-error record; gamma >= alpha with alpha < 2 has
    an infinite moment and raises.
    """
    _check_alpha(alpha)
    _check_positive_finite("t", t)
    _check_positive_finite("gamma", gamma)
    if alpha < 2.0 and gamma >= alpha:
        raise ValueError(f"E|X_t|^gamma is infinite for gamma = {gamma} >= alpha = {alpha}")
    n_samples = _check_count("n_samples", n_samples)
    if n_samples < 100:
        raise ValueError("need n_samples >= 100")
    from .montecarlo import McEstimate

    x = sample_increment(alpha, d, t, rng, size=n_samples)
    vals = np.sqrt((x**2).sum(axis=1)) ** gamma
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return McEstimate(mean, se, n_samples)


def levy_cdf(s, span: float) -> np.ndarray:
    """CDF of the beta = 1/2 subordinator: F(s) = erfc(span / (2 sqrt(s)))."""
    _check_positive_finite("span", span)
    arr = np.asarray(s, dtype=float)
    out = np.zeros_like(arr)
    pos = arr > 0.0
    out[pos] = [math.erfc(z) for z in (span / (2.0 * np.sqrt(arr[pos]))).tolist()]
    return out


def empirical_cf(samples: np.ndarray, xi: np.ndarray) -> complex:
    """Mean of exp(i xi . X) over sample rows."""
    phase = np.asarray(samples) @ np.asarray(xi, dtype=float).reshape(-1)
    return complex(np.exp(1j * phase).mean())


def _ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance D = max(D+, D-) of the samples from a vectorised CDF."""
    f = cdf(np.sort(samples))
    n = f.size
    return float(max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max()))


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
    variance, the t^{1/alpha} scaling of fractional moments, then CF and
    Laplace checks near alpha = 2.  Each draw takes the next stream, so a
    check appended at the end leaves every earlier one's draws alone.
    """
    checks: list[SelftestCheck] = []
    streams = itertools.count()
    rng = lambda: RngStream(seed, next(streams))
    check = lambda name, stat, thr: checks.append(SelftestCheck(name, stat, thr, stat < thr))

    def cf(alpha: float, d: int) -> None:
        # characteristic function fidelity at |xi| in {0.5, 1, 2}
        x = sample_increment(alpha, d, 1.0, rng(), size=n_cf)
        for r in (0.5, 1.0, 2.0):
            err = abs(empirical_cf(x, r * np.eye(d)[0]) - math.exp(-(r**alpha)))
            check(f"cf alpha={alpha} d={d} |xi|={r}", err, 4.0 / math.sqrt(n_cf))

    def laplace(beta: float) -> None:
        # E exp(-S) = exp(-1) at span 1
        vals = np.exp(-sample_subordinator(beta, 1.0, rng(), size=n_cf))
        check(f"laplace beta={beta}", abs(float(vals.mean()) - math.exp(-1.0)), 4.0 * float(vals.std(ddof=1)) / math.sqrt(n_cf))

    for alpha in (0.8, 1.0, 1.5, 2.0):
        for d in (1, 2):
            cf(alpha, d)
    laplace(0.75)
    # KS against the closed-form beta = 1/2 law
    n_ks = 100_000
    s = sample_subordinator(0.5, 1.0, rng(), size=n_ks)
    check("ks beta=0.5", _ks_statistic(s, lambda q: levy_cdf(q, 1.0)), 1.6276 / math.sqrt(n_ks))
    # Gaussian endpoint variance: alpha = 2, span = 0.5 -> unit variance
    x = sample_increment(2.0, 1, 0.5, rng(), size=n_cf)
    check("variance alpha=2 span=0.5", abs(float(x[:, 0].var(ddof=1)) - 1.0), 4.0 * math.sqrt(2.0 / (n_cf - 1)))
    # moment scaling: E|X_4|^gamma = 4^{gamma/alpha} E|X_1|^gamma
    for alpha, gamma in ((2.0, 1.0), (1.5, 0.5), (1.0, 0.4)):
        m1, m4 = (moment_estimate(alpha, gamma, t, n_cf, rng()) for t in (1.0, 4.0))
        rel = math.sqrt((m1.standard_error / m1.mean) ** 2 + (m4.standard_error / m4.mean) ** 2)
        check(f"scaling alpha={alpha} gamma={gamma}", abs(m4.mean / (4.0 ** (gamma / alpha) * m1.mean) - 1.0), 3.0 * rel)
    # near alpha = 2: CMS in d = 1, and Kanter at beta = 0.995 in d = 2 and alone
    cf(1.99, 1)
    cf(1.99, 2)
    laplace(0.995)
    return checks
