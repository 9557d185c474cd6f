import itertools
import math

import numpy as np
import pytest
from scipy import special, stats

from fracheat import (
    RngStream,
    closed_form_density,
    empirical_cf,
    levy_cdf,
    moment_estimate,
    sample_increment,
    sample_subordinator,
    sampler_selftest,
)
from fracheat.validator import _stable_moment


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
    for beta in (0.0, 1.0, -0.2, 0.99):
        with pytest.raises(ValueError):
            sample_subordinator(beta, 1.0, rng)
    with pytest.raises(ValueError):
        sample_subordinator(0.5, 0.0, rng)


def test_levy_half_law_kolmogorov_smirnov():
    s = sample_subordinator(0.5, 1.0, RngStream(5), size=50_000)
    res = stats.kstest(s, lambda q: levy_cdf(q, 1.0))
    assert res.pvalue > 0.01


def test_levy_cdf_closed_form():
    s = np.array([0.0, 0.25, 1.0, 4.0])
    expected = np.zeros(4)
    expected[1:] = special.erfc(1.0 / (2.0 * np.sqrt(s[1:])))
    assert np.allclose(levy_cdf(s, 1.0), expected, atol=1e-15)


def test_gaussian_branch_variance():
    x = sample_increment(2.0, 1, 0.7, RngStream(3), size=400_000)
    var = x.var(ddof=1)
    se = math.sqrt(2.0 / x.size) * 2 * 0.7  # var of sample variance, normal case
    assert abs(var - 2 * 0.7) < 4 * se


@pytest.mark.parametrize("alpha,d", [(1.5, 1), (0.8, 2)])
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
    with pytest.raises(ValueError):
        moment_estimate(1.5, 0.5, 1.0, 50, rng)


def test_selftest_all_pass_quickly():
    checks = sampler_selftest(seed=0, n_cf=40_000)
    assert len(checks) >= 30
    failing = [c for c in checks if not c.passed]
    assert failing == []
