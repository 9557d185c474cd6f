import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracheat import GaussianMixturePotential, gaussian, mixture

component = st.tuples(
    st.floats(-3.0, 3.0).filter(lambda w: abs(w) > 1e-3),
    st.floats(-2.0, 2.0),
    st.floats(0.3, 3.0),
)
small_mixture = st.lists(component, min_size=1, max_size=3)


def build(comps, dimension=1):
    w, c, a = zip(*comps)
    if dimension == 1:
        return mixture(list(w), list(c), list(a))
    centers = [(ci,) * dimension for ci in c]
    return mixture(list(w), centers, list(a), dimension=dimension)


def manual_eval(comps, x):
    return sum(w * np.exp(-a * (x - c) ** 2) for w, c, a in comps)


@given(small_mixture, st.floats(-5.0, 5.0))
def test_evaluate_matches_componentwise_formula(comps, x):
    v = build(comps)
    assert v.evaluate(x) == pytest.approx(manual_eval(comps, x), rel=1e-12, abs=1e-300)


@given(small_mixture, st.integers(1, 4), st.floats(-3.0, 3.0))
def test_power_matches_repeated_product(comps, k, x):
    v = build(comps)
    # near roots of V the expanded mixture cancels, so the comparison is
    # anchored to the component scale rather than the tiny result
    scale = sum(abs(w) for w, _, _ in comps) ** k
    assert float(v.power(k).evaluate(x)) == pytest.approx(
        float(v.evaluate(x)) ** k, rel=1e-10, abs=1e-13 * scale
    )


@pytest.mark.parametrize(
    "v",
    [
        mixture([1.0, 0.5, 0.3, 0.7, 0.2], [-1.0, -0.4, 0.1, 0.6, 1.3], [1.0, 2.0, 0.5, 1.5, 3.0]),
        mixture([1.0, -0.6], [(0.0, 0.0), (0.8, 0.3)], [1.0, 0.7], dimension=2),
    ],
)
def test_power_has_at_most_the_multinomial_component_count(v):
    # V^k has one component per exponent tuple of the K components: C(K + k - 1, k)
    for k in range(1, 6):
        assert v.power(k).n_components <= math.comb(v.n_components + k - 1, k)


@given(small_mixture, st.floats(-2.0, 2.0).filter(lambda s: abs(s) > 1e-6))
def test_scaled_is_linear_in_samples_and_integral(comps, s):
    v = build(comps)
    xs = np.linspace(-4.0, 4.0, 7)
    assert np.allclose(v.scaled(s).evaluate(xs), s * v.evaluate(xs), rtol=1e-13, atol=0)
    assert v.scaled(s).integral() == pytest.approx(s * v.integral(), rel=1e-13)


@given(small_mixture)
def test_integral_closed_form(comps):
    v = build(comps)
    expected = sum(w * math.sqrt(math.pi / a) for w, _, a in comps)
    assert v.integral() == pytest.approx(expected, rel=1e-13, abs=1e-300)


def test_fourier_matches_quadrature():
    from scipy.integrate import quad

    v = mixture([1.0, -0.4], [0.3, -1.1], [1.0, 2.2])
    for xi in (0.0, 0.7, 2.5):
        re, _ = quad(lambda x: v.evaluate(x) * math.cos(x * xi), -12, 12, limit=200)
        im, _ = quad(lambda x: -v.evaluate(x) * math.sin(x * xi), -12, 12, limit=200)
        got = complex(v.fourier(xi))
        assert got.real == pytest.approx(re, abs=1e-10)
        assert got.imag == pytest.approx(im, abs=1e-10)
    assert complex(v.fourier(0.0)).real == pytest.approx(v.integral(), rel=1e-13)


def test_gradient_matches_finite_differences():
    v = mixture([1.0, -0.5], [0.0, 0.9], [1.0, 3.0])
    h = 1e-6
    for x in (-1.3, 0.0, 0.4, 2.1):
        fd = (float(v.evaluate(x + h)) - float(v.evaluate(x - h))) / (2 * h)
        assert np.ravel(v.gradient(x))[0] == pytest.approx(fd, rel=1e-8, abs=1e-9)


def test_norms_against_dense_grid():
    cases = [
        (mixture([1.0, -0.6], [-0.4, 1.0], [0.8, 2.0]), None, None),
        # x = 0, the only center, is a stationary point that is not the extremum sought.
        # With u = exp(-x^2/2): u - 2u^2 peaks at u = 1/4 with 1/8 (and is -1 at x = 0);
        # u^2 - 1.9u < 0 has its minimum -0.95^2 at u = 0.95 and its sup 0 at infinity.
        (mixture([-2.0, 1.0], [0.0, 0.0], [1.0, 0.5]), 0.125, 1.0),
        (mixture([1.0, -1.9], [0.0, 0.0], [1.0, 0.5]), 0.0, 0.9025),
    ]
    xs = np.linspace(-12, 12, 400001)
    for v, top, sup in cases:
        vals = v.evaluate(xs)
        assert v.sup_norm() == pytest.approx(np.abs(vals).max(), rel=1e-9)
        assert v.max_value() == pytest.approx(vals.max(), rel=1e-9, abs=1e-12)
        assert v.l1_norm() == pytest.approx(np.trapezoid(np.abs(vals), xs), rel=1e-7)
        if top is not None:
            assert v.max_value() == pytest.approx(top, rel=1e-12, abs=1e-12)
            assert v.sup_norm() == pytest.approx(sup, rel=1e-12)


def test_l1_norm_of_signed_mixture_exceeds_integral():
    v = mixture([1.0, -0.6], [-0.4, 1.0], [0.8, 2.0])
    assert v.l1_norm() > abs(v.integral())
    w = mixture([0.5, 0.25], [0.0, 1.0], [1.0, 1.0])
    assert w.l1_norm() == pytest.approx(w.integral(), rel=1e-13)


def test_lipschitz_constant_bounds_max_slope():
    v = mixture([1.2, -0.7], [0.0, 0.8], [1.0, 2.5])
    expected = sum(abs(w) * math.sqrt(2 * a / math.e) for w, a in ((1.2, 1.0), (0.7, 2.5)))
    assert v.lipschitz_constant() == pytest.approx(expected, rel=1e-13)
    xs = np.linspace(-10, 10, 200001)
    slopes = np.abs(np.diff(v.evaluate(xs)) / np.diff(xs))
    assert slopes.max() <= v.lipschitz_constant() * (1 + 1e-9)


def test_holder_constant_domain():
    v = gaussian()
    assert v.holder_constant(1.0) == pytest.approx(v.lipschitz_constant(), rel=1e-13)
    with pytest.raises(ValueError):
        v.holder_constant(0.0)
    with pytest.raises(ValueError):
        v.holder_constant(1.2)


def test_sign_predicates_and_zero():
    assert gaussian().is_nonnegative and not gaussian().is_nonpositive
    assert gaussian(weight=-2.0).is_nonpositive
    signed = mixture([1.0, -0.5], [0.0, 1.0], [1.0, 1.0])
    assert not signed.is_nonnegative and not signed.is_nonpositive
    zero = mixture([], [], [], dimension=1)
    assert zero.is_zero and zero.n_components == 0
    assert zero.integral() == 0.0 and zero.sup_norm() == 0.0 and zero.l1_norm() == 0.0
    assert np.all(zero.evaluate(np.linspace(-2, 2, 5)) == 0.0)


def test_two_dimensional_evaluation_and_integral():
    v = mixture([1.0, 0.5], [(0.0, 0.0), (1.0, -0.5)], [1.0, 2.0], dimension=2)
    pt = np.array([0.3, -0.2])
    expected = math.exp(-((0.3) ** 2 + 0.2**2)) + 0.5 * math.exp(-2 * ((0.3 - 1) ** 2 + 0.3**2))
    assert float(v.evaluate(pt)) == pytest.approx(expected, rel=1e-13)
    assert v.integral() == pytest.approx(math.pi + 0.5 * math.pi / 2.0, rel=1e-13)


def test_bare_coordinates_accepted_in_one_dimension():
    v = gaussian()
    xs = np.linspace(-1, 1, 9)
    assert v.evaluate(xs).shape == xs.shape
    assert v.evaluate(xs.reshape(-1, 1)).shape == xs.shape


def test_validation_errors():
    with pytest.raises(ValueError):
        mixture([1.0], [0.0], [0.0])  # sharpness must be positive
    with pytest.raises(ValueError):
        mixture([1.0, 2.0], [0.0], [1.0, 1.0])  # ragged component lists
    with pytest.raises(ValueError):
        mixture([], [], [])  # empty mixture needs an explicit dimension
    with pytest.raises(ValueError):
        GaussianMixturePotential(4, ((1.0,),), (((0.0,) * 4),), (1.0,))
