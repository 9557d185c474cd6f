import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special, stats

from fracheat import (
    RngStream,
    empirical_cf,
    levy_cdf,
    moment_estimate,
    sample_increment,
    sample_subordinator,
    sampler_selftest,
)
from fracheat.sampling import _ks_statistic, closed_form_density
from fracheat.validator import _stable_moment

import oracles


def test_rng_stream_determinism():
    a = RngStream(42, 3).generator.random(5)
    b = RngStream(42, 3).generator.random(5)
    c = RngStream(42, 4).generator.random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_stream_validation():
    with pytest.raises(ValueError):
        RngStream(-1)
    with pytest.raises(ValueError):
        RngStream(2**64)
    with pytest.raises(ValueError):
        RngStream(0, -2)
    # bool is an int subclass: True would otherwise draw as seed 1 or stream 1
    for args in ((True,), (0, True), (np.True_,)):
        with pytest.raises(ValueError, match="must be an integer"):
            RngStream(*args)


@pytest.mark.parametrize("beta", [0.5, 0.75])
def test_subordinator_laplace_transform(beta):
    # E exp(-lam S) = exp(-span lam^beta), checked at lam in {0.5, 1, 2}
    rng = RngStream(7)
    s = sample_subordinator(beta, 1.0, rng, size=200_000)
    assert np.all(s > 0)
    for lam in (0.5, 1.0, 2.0):
        vals = np.exp(-lam * s)
        target = math.exp(-(lam**beta))
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) < 4 * se


def test_subordinator_span_scaling():
    # S(span) =d span^{1/beta} S(1): same seed, spans 1 and 3, beta 0.5
    a = sample_subordinator(0.5, 1.0, RngStream(11), size=1000)
    b = sample_subordinator(0.5, 3.0, RngStream(11), size=1000)
    assert np.allclose(b, 9.0 * a, rtol=1e-12)


def test_subordinator_validation():
    rng = RngStream(0)
    for beta in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            sample_subordinator(beta, 1.0, rng)
    # a string beta once died with a bare TypeError from the comparison, and a bool ran as 1
    for beta in ("0.5", True, math.nan, None):
        with pytest.raises(ValueError, match="beta must lie in"):
            sample_subordinator(beta, 1.0, rng)
    assert 0.0 < sample_subordinator(np.float32(0.5), 1.0, rng) < math.inf
    # every beta in (0, 1) draws; beta above 0.975 was once refused
    for beta in (0.99, 0.9999):
        assert 0.0 < sample_subordinator(beta, 1.0, rng) < math.inf
    for span in (0.0, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="span"):
            sample_subordinator(0.5, span, rng)


def test_increment_validation():
    rng = RngStream(0)
    # an infinite span once gave +-inf draws; every law rejects it before drawing
    for alpha, d in ((1.5, 1), (1.0, 2), (0.8, 3), (2.0, 1)):
        for span in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="span"):
                sample_increment(alpha, d, span, rng, size=3)
    # d = 2.0 once died with a bare TypeError inside numpy
    for d in (0, 2.0, True, "2"):
        with pytest.raises(ValueError, match="d must be"):
            sample_increment(1.5, d, 1.0, rng, size=3)
    assert sample_increment(1.5, np.int64(2), 1.0, rng, size=3).shape == (3, 2)


@pytest.mark.parametrize(
    "beta, tol",
    [(0.05, 1e-4), (0.25, 1e-5), (0.5, 1e-5), (0.75, 1e-5), (0.975, 1e-5), (0.99, 1e-5), (0.999, 1e-5), (0.9999, 1e-5)],
)
def test_subordinator_matches_the_float64_kanter_formula(beta, tol):
    # the sines and their logs are float32; the log-sum and exp stay float64
    n = 2_000_000
    s = sample_subordinator(beta, 0.3, np.random.default_rng(17), size=n)
    gen = np.random.default_rng(17)
    r = gen.random(n)
    ref = oracles.kanter_float64(beta, 0.3, r, gen.standard_exponential(n))
    assert np.max(np.abs(s / ref - 1.0)) <= tol


@pytest.mark.parametrize("alpha", [0.5, 0.8, 1.0, 1.5, 1.9, 1.99, 1.999])
def test_cms_matches_the_float64_formula(alpha):
    # the module docstring's bound: sines, cosines and their logs in float32,
    # each angle taken from min(r, 1 - r) where it can come near pi, log-sum
    # and exp in float64, within 1e-5 relative of the all-float64 formula at
    # alpha in [0.5, 1.999]
    n = 2_000_000
    x = sample_increment(alpha, 1, 0.3, np.random.default_rng(19), size=n)[:, 0]
    gen = np.random.default_rng(19)
    r = gen.random(n)
    ref = oracles.cms_float64(alpha, 0.3, r, None if alpha == 1.0 else gen.standard_exponential(n))
    assert np.all(np.abs(x - ref) <= 1e-5 * np.abs(ref))


def test_cms_at_alpha_one_is_cauchy():
    x = sample_increment(1.0, 1, 1.0, RngStream(29), size=100_000)[:, 0]
    assert stats.kstest(x, stats.cauchy.cdf).pvalue > 0.01


def test_radial_cauchy_law_in_two_dimensions():
    # |X| of the isotropic Cauchy law in d = 2 has CDF 1 - 1/sqrt(1 + r^2), and
    # its angle is uniform; each coordinate is float32-accurate to 1e-6 |X|
    x = sample_increment(1.0, 2, 1.0, RngStream(31), size=100_000)
    rho = np.hypot(x[:, 0], x[:, 1])
    assert stats.kstest(rho, lambda q: 1.0 - 1.0 / np.sqrt(1.0 + q * q)).pvalue > 0.01
    assert stats.kstest(np.arctan2(x[:, 1], x[:, 0]), stats.uniform(-math.pi, 2.0 * math.pi).cdf).pvalue > 0.01
    gen = np.random.default_rng(37)
    y = sample_increment(1.0, 2, 0.3, gen, size=200_000)
    gen = np.random.default_rng(37)
    r, theta = gen.random(200_000), 2.0 * math.pi * gen.random(200_000)
    ref = 0.3 * np.sqrt(r * (2.0 - r)) / (1.0 - r)
    assert np.all(np.abs(y[:, 0] - ref * np.cos(theta)) <= 1e-6 * ref)
    assert np.all(np.abs(y[:, 1] - ref * np.sin(theta)) <= 1e-6 * ref)


class _ExtremeUniforms(np.random.Generator):
    """The generator's extreme uniform outputs, cycled, with unit exponentials."""

    R = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])

    def random(self, size):
        return np.resize(self.R, size)

    def standard_exponential(self, size):
        return np.ones(size)


@pytest.mark.parametrize("beta", [0.05, 0.25, 0.5, 0.75, 0.975, 0.99, 0.999, 0.9999])
def test_subordinator_is_finite_and_positive_at_extreme_uniforms(beta):
    s = sample_subordinator(beta, 1.0, _ExtremeUniforms(np.random.PCG64(0)), size=8)
    assert np.all(np.isfinite(s)) and np.all(s > 0.0)
    # S grows without bound as U -> pi (r -> 0), where the float64 formula
    # loses sin U to cancellation; away from there it is the reference.  Near
    # beta = 1, sin(beta U) ~ pi (1 - beta) there, so S at r = 2^-53 is only
    # about 9e12 at beta = 0.999 and 9e11 at beta = 0.9999
    assert s[0] > s[1] > (1e14 if beta <= 0.975 else s[2]) and s[2] > s[3]
    ref = oracles.kanter_float64(beta, 1.0, _ExtremeUniforms.R[2:], np.ones(2))
    assert np.allclose(s[2:4], ref, rtol=1e-4)


@pytest.mark.parametrize("alpha, d", [(0.5, 1), (0.8, 1), (1.0, 1), (1.5, 1), (1.9, 1), (1.99, 1), (1.0, 2)])
def test_direct_laws_are_finite_at_extreme_uniforms(alpha, d):
    # r = 1/2 is phi = 0, where sin(alpha phi) = 0 must not reach a log
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x = sample_increment(alpha, d, 1.0, _ExtremeUniforms(np.random.PCG64(0)), size=8)
    assert np.all(np.isfinite(x))
    if d == 1:
        # r = 0, 2^-53, 1/2 and 1 - 2^-53: the two left tails, the center, the right tail
        assert x[0, 0] < x[1, 0] < -1e6 and x[2, 0] == 0.0 and x[3, 0] > 1e6
    else:
        # the radius is 0 at r = 0 and near 2^53 at r = 1 - 2^-53
        norms = np.hypot(x[:, 0], x[:, 1])
        assert norms[0] == 0.0 and norms[3] > 1e15


def test_direct_laws_consume_their_draws():
    # CMS: one uniform and one exponential, one uniform only at alpha = 1; radial Cauchy: two uniforms
    for alpha, d, replay_draws in (
        (1.5, 1, lambda g: (g.random(1001), g.standard_exponential(1001))),
        (1.0, 1, lambda g: g.random(1001)),
        (1.0, 2, lambda g: (g.random(1001), g.random(1001))),
    ):
        gen, replay = np.random.default_rng(23), np.random.default_rng(23)
        sample_increment(alpha, d, 1.0, gen, size=1001)
        replay_draws(replay)
        assert gen.bit_generator.state == replay.bit_generator.state, (alpha, d)


def test_subordinator_consumes_one_uniform_and_one_exponential_per_draw():
    gen, replay = np.random.default_rng(23), np.random.default_rng(23)
    sample_subordinator(0.75, 1.0, gen, size=1001)
    replay.random(1001)
    replay.standard_exponential(1001)
    assert gen.bit_generator.state == replay.bit_generator.state


def test_subordinator_peaks_at_four_draw_arrays():
    # the path kernel asks for n_chunk * m_steps draws at once
    n = 200_000
    gen = np.random.default_rng(0)
    tracemalloc.start()
    try:
        sample_subordinator(0.75, 1.0, gen, size=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * n


def test_levy_half_law_kolmogorov_smirnov():
    s = sample_subordinator(0.5, 1.0, RngStream(5), size=50_000)
    res = stats.kstest(s, lambda q: levy_cdf(q, 1.0))
    assert res.pvalue > 0.01


def test_levy_cdf_closed_form():
    s = np.array([0.0, 0.25, 1.0, 4.0])
    expected = np.zeros(4)
    expected[1:] = special.erfc(1.0 / (2.0 * np.sqrt(s[1:])))
    assert np.allclose(levy_cdf(s, 1.0), expected, atol=1e-15)
    # a negative span once gave levy_cdf([1.0], -1.0) = 1.52
    for span in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="span must be a positive finite number"):
            levy_cdf(s, span)


def test_levy_cdf_and_ks_statistic_match_scipy():
    # the package computes both without scipy; scipy is the reference here.  The
    # two erfc differ by up to 1.4e-15 relative near erfc = 0.17, where math.erfc
    # is the correctly rounded one, so the CDF is compared in absolute terms.
    s = sample_subordinator(0.5, 1.0, RngStream(6), size=20_000)
    q = np.concatenate([s, [1e-4, 0.01, 1e6]])
    ref = special.erfc(1.0 / (2.0 * np.sqrt(q)))
    assert np.all(np.abs(levy_cdf(q, 1.0) - ref) <= 1e-15)
    for sample in (s, s[:7], 1.3 * s):
        got = _ks_statistic(sample, lambda x: levy_cdf(x, 1.0))
        assert got == pytest.approx(stats.kstest(sample, lambda x: levy_cdf(x, 1.0)).statistic, rel=1e-15, abs=0)


@pytest.mark.parametrize("bad", [1000.7, 1000.0, np.float64(1000.0), True, np.bool_(True), "1000"])
def test_counts_must_be_integers(bad):
    # a float count was once truncated: moment_estimate(..., 1000.7, g) drew 1000
    # samples and reported n_samples = 1000.7
    rng = RngStream(0)
    with pytest.raises(ValueError, match="size must be an integer"):
        sample_subordinator(0.5, 1.0, rng, size=bad)
    with pytest.raises(ValueError, match="size must be an integer"):
        sample_increment(1.5, 1, 1.0, rng, size=bad)
    with pytest.raises(ValueError, match="n_samples must be an integer"):
        moment_estimate(1.5, 0.5, 1.0, bad, rng)
    est = moment_estimate(1.5, 0.5, 1.0, np.int64(1000), rng)
    assert est.n_samples == 1000 and type(est.n_samples) is int
    assert sample_subordinator(0.5, 1.0, rng, size=np.int32(3)).shape == (3,)


def test_gaussian_branch_variance():
    x = sample_increment(2.0, 1, 0.7, RngStream(3), size=400_000)
    var = x.var(ddof=1)
    se = math.sqrt(2.0 / x.size) * 2 * 0.7  # var of sample variance, normal case
    assert abs(var - 2 * 0.7) < 4 * se


@pytest.mark.parametrize("alpha,d", [(1.5, 1), (0.8, 2), (0.8, 1), (1.0, 1), (1.9, 1), (1.0, 2)])
def test_increment_characteristic_function(alpha, d):
    x = sample_increment(alpha, d, 1.0, RngStream(9), size=200_000)
    for r in (0.5, 1.0, 2.0):
        xi = np.zeros(d)
        xi[0] = r
        err = abs(empirical_cf(x, xi) - math.exp(-(r**alpha)))
        assert err < 4.0 / math.sqrt(x.shape[0])


def test_closed_form_densities():
    x = np.linspace(-3, 3, 61)
    cauchy = closed_form_density(1.0, 0.5, x)
    assert np.allclose(cauchy, stats.cauchy.pdf(x, scale=0.5), atol=1e-14)
    gauss = closed_form_density(2.0, 0.5, x)
    assert np.allclose(gauss, stats.norm.pdf(x, scale=1.0), atol=1e-14)
    with pytest.raises(ValueError):
        closed_form_density(1.5, 0.5, x)
    with pytest.raises(ValueError):
        closed_form_density(1.0, 0.0, x)
    # unchecked, an infinite t would give nan at alpha = 1 and zeros at alpha = 2, and True would be t = 1
    for alpha, t in ((1.0, math.inf), (2.0, math.inf), (1.0, True)):
        with pytest.raises(ValueError, match="t must be a positive finite number"):
            closed_form_density(alpha, t, [0.0, 1.0])
    # alpha = True once gave the Cauchy density and d = True ran as d = 1
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\], got True"):
        closed_form_density(True, 1.0, x)
    for d in (True, 0, 2.0, "1"):
        with pytest.raises(ValueError, match="d must be"):
            closed_form_density(1.0, 1.0, x, d=d)
    assert np.array_equal(closed_form_density(1.0, 0.5, x, d=np.int64(1)), cauchy)


def test_closed_form_density_two_dimensional():
    pts = np.array([[0.0, 0.0], [1.0, -1.0]])
    vals = closed_form_density(2.0, 0.25, pts, d=2)
    expected = (4 * math.pi * 0.25) ** -1 * np.exp(-np.array([0.0, 2.0]) / 1.0)
    assert np.allclose(vals, expected, rtol=1e-14)
    # alpha = 1, d = 2: Gamma(3/2) / pi^{3/2} * t / (t^2 + |x|^2)^{3/2}
    vals1 = closed_form_density(1.0, 0.5, pts, d=2)
    expected1 = math.gamma(1.5) / math.pi**1.5 * 0.5 / (0.25 + np.array([0.0, 2.0])) ** 1.5
    assert np.allclose(vals1, expected1, rtol=1e-14)


def test_moment_estimate_matches_gaussian_closed_form():
    # alpha = 2: E|X_t| = 2 sqrt(t / pi)
    est = moment_estimate(2.0, 1.0, 0.9, 200_000, RngStream(13))
    target = 2.0 * math.sqrt(0.9 / math.pi)
    assert abs(est.mean - target) < 4 * est.standard_error
    # the exact E|X_1|^gamma behind theorem 2's bound; at alpha = 1, d = 1 (Cauchy) it is 1 / cos(pi gamma / 2)
    for gamma in (0.2, 0.5, 0.9):
        assert _stable_moment(1.0, gamma, 1) == pytest.approx(1.0 / math.cos(math.pi * gamma / 2.0), rel=1e-14)
    for stream, (alpha, d) in enumerate(itertools.product((0.8, 1.0, 1.5, 2.0), (1, 2))):
        est = moment_estimate(alpha, 0.5, 1.0, 400_000, RngStream(13, stream + 1), d=d)
        assert abs(est.mean - _stable_moment(alpha, 0.5, d)) < 4 * est.standard_error, (alpha, d)


def test_moment_estimate_scaling_exponent():
    # E|X_t|^gamma proportional to t^{gamma/alpha}
    alpha, gamma = 1.5, 0.5
    e1 = moment_estimate(alpha, gamma, 0.5, 400_000, RngStream(17))
    e2 = moment_estimate(alpha, gamma, 1.0, 400_000, RngStream(18))
    ratio = e1.mean / e2.mean
    target = 0.5 ** (gamma / alpha)
    se = ratio * math.hypot(e1.standard_error / e1.mean, e2.standard_error / e2.mean)
    assert abs(ratio - target) < 4 * se


def test_moment_estimate_validation():
    rng = RngStream(0)
    with pytest.raises(ValueError):
        moment_estimate(1.5, 1.5, 1.0, 1000, rng)
    with pytest.raises(ValueError):
        moment_estimate(1.5, 1.6, 1.0, 1000, rng)
    with pytest.raises(ValueError):
        moment_estimate(1.5, -0.1, 1.0, 1000, rng)
    # a nan gamma once returned mean nan, and an infinite one at alpha = 2 mean inf with se nan
    for alpha, gamma in ((1.5, math.nan), (2.0, math.nan), (2.0, math.inf), (2.0, True)):
        with pytest.raises(ValueError, match="gamma must be a positive finite number"):
            moment_estimate(alpha, gamma, 1.0, 1000, rng)
    with pytest.raises(ValueError):
        moment_estimate(1.5, 0.5, 1.0, 50, rng)
    # an infinite t once returned mean inf with se nan
    for t in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="t must be"):
            moment_estimate(1.5, 0.5, t, 1000, rng)
    with pytest.raises(ValueError, match="d must be"):
        moment_estimate(1.5, 0.5, 1.0, 1000, rng, d=2.0)


def test_selftest_all_pass_quickly():
    checks = sampler_selftest(seed=0, n_cf=40_000)
    assert len(checks) >= 30
    failing = [c for c in checks if not c.passed]
    assert failing == []
