import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

import fracheat.potentials as potentials
import oracles
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


def _signed_mixture(d, k):
    rng = np.random.default_rng(10 * d + k)
    weights = rng.uniform(0.2, 2.0, k) * np.where(np.arange(k) % 2, -1.0, 1.0)
    centers = [tuple(rng.uniform(-1.5, 1.5, d)) for _ in range(k)]
    return mixture(list(weights), centers, list(rng.uniform(0.3, 3.0, k)), dimension=d)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_evaluate_matches_a_pointwise_loop(d, k):
    v = _signed_mixture(d, k)
    rng = np.random.default_rng(d + k)
    cases = [(rng.normal(size=(7, d)), (7,)), (rng.normal(size=(4, 5, d)), (4, 5)), (rng.normal(size=d), ())]
    if d == 1:
        cases += [(0.37, ()), (rng.normal(size=6), (6,))]  # a scalar, and bare coordinates
    for x, base in cases:
        got = v.evaluate(x)
        assert got.shape == base
        ref, scale = oracles.mixture_pointwise(v.weights, v.centers, v.sharpness, np.reshape(x, (-1, d)))
        assert np.all(np.abs(got.reshape(-1) - ref) <= 1e-14 * scale)


@pytest.mark.parametrize("d", [1, 3])
def test_evaluate_peaks_at_three_base_shape_arrays(d):
    # the path kernel evaluates (n, m + 1, d) positions; what evaluate
    # allocates there sets the peak resident memory of every report
    v = _signed_mixture(d, 3)
    x = np.random.default_rng(0).normal(size=(4000, 65, d))
    tracemalloc.start()
    try:
        v.evaluate(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * x[..., 0].nbytes + 65536


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 3, 5])
def test_gradient_matches_a_pointwise_loop(d, k):
    v = _signed_mixture(d, k)
    rng = np.random.default_rng(7 * d + k)
    for x, base in ((rng.normal(size=(7, d)), (7,)), (rng.normal(size=(4, 5, d)), (4, 5)), (rng.normal(size=d), ())):
        got = v.gradient(x)
        assert got.shape == base + (d,)
        for p, g in zip(np.reshape(x, (-1, d)), got.reshape(-1, d)):
            terms = [-2.0 * a * c * math.exp(-a * float(((p - np.array(mu)) ** 2).sum())) * (p - np.array(mu))
                     for c, mu, a in zip(v.weights, v.centers, v.sharpness)]
            scale = sum(np.abs(t) for t in terms)
            assert np.all(np.abs(g - sum(terms)) <= 1e-14 * scale)


@pytest.mark.parametrize("d", [1, 3])
def test_gradient_peaks_at_its_output_and_two_base_shape_arrays(d):
    # _line_integrals and max_value's ascent call it on whole batches of points
    v = _signed_mixture(d, 3)
    x = np.random.default_rng(0).normal(size=(4000, 65, d))
    tracemalloc.start()
    try:
        v.gradient(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= x.nbytes + 2 * x[..., 0].nbytes + 65536


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


FIVE = mixture([1.0, 0.5, 0.3, 0.7, 0.2], [-1.0, -0.4, 0.1, 0.6, 1.3], [1.0, 2.0, 0.5, 1.5, 3.0])
TRIO = mixture([0.8, -0.3, 0.5], [-0.5, 0.7, 1.5], [1.5, 0.6, 2.0])
SIGNED_2D = mixture([1.0, -0.6], [(0.0, 0.0), (0.8, 0.3)], [1.0, 0.7], dimension=2)
STALL = mixture([-2.0, 1.0], [0.0, 0.0], [1.0, 0.5])  # its only center is a stationary point


@pytest.mark.parametrize(
    "v", [gaussian(weight=-1.0), FIVE.scaled(-1.0), mixture([-1.0, -0.2], [0.0, 2.0], [1.0, 3.0])]
)
def test_max_value_of_a_nonpositive_mixture_is_zero_without_a_search(v, monkeypatch):
    calls = []
    real = GaussianMixturePotential.evaluate

    def counted(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(GaussianMixturePotential, "evaluate", counted)
    # the sup of V <= 0 is its limit 0 at infinity
    assert GaussianMixturePotential.max_value.__wrapped__(v) == 0.0
    assert calls == []


@pytest.mark.parametrize(
    "v", [FIVE, TRIO, TRIO.scaled(-1.0), SIGNED_2D, SIGNED_2D.scaled(-1.0), STALL, STALL.scaled(-1.0)]
)
def test_max_value_bfgs_runs_end_in_success(v, monkeypatch):
    # the name predates the Newton ascent; every start's run must end at the
    # gradient tolerance, a level the rounded gradient can reach
    results = []
    real = potentials._newton_ascent

    def recorded(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(potentials, "_newton_ascent", recorded)
    top = GaussianMixturePotential.max_value.__wrapped__(v)
    (x, vals, grad), = results
    assert np.all(grad <= potentials._NEWTON_GTOL * v.lipschitz_constant()), grad
    assert top == vals.max() and np.array_equal(vals, v.evaluate(x))


@pytest.mark.parametrize("v", [FIVE, TRIO, SIGNED_2D, STALL, mixture([1.0, -2.0], [(0.3, -0.7, 0.2)] * 2, [0.5, 1.0], dimension=3)])
def test_newton_ascent_never_lowers_v(v):
    rng = np.random.default_rng(3)
    starts = rng.uniform(-2.0, 2.0, size=(12, v.dimension))
    x, vals, grad = potentials._newton_ascent(v, starts)
    assert np.all(vals >= v.evaluate(starts))
    assert np.all(grad <= potentials._NEWTON_GTOL * v.lipschitz_constant())


def test_l1_norm_of_signed_mixture_exceeds_integral():
    v = mixture([1.0, -0.6], [-0.4, 1.0], [0.8, 2.0])
    assert v.l1_norm() > abs(v.integral())
    w = mixture([0.5, 0.25], [0.0, 1.0], [1.0, 1.0])
    assert w.l1_norm() == pytest.approx(w.integral(), rel=1e-13)


@pytest.mark.parametrize(
    "c, a, d",
    [
        ((1.0, -2.0), (0.5, 1.0), 1),
        ((-1.0, 3.0), (0.4, 2.5), 1),
        ((2.0, -0.5), (3.0, 0.3), 1),
        ((1.0, -2.0), (0.5, 1.0), 2),
        ((-1.0, 3.0), (0.4, 2.5), 2),
    ],
)
def test_l1_norm_of_concentric_mixture_matches_the_closed_form(c, a, d):
    # {V = 0} is a sphere: in d = 2 a circle with two tangencies to the inner lines
    center = (0.3, -0.7)[:d]
    v = mixture(list(c), [center, center], list(a), dimension=d)
    assert v.l1_norm() == pytest.approx(oracles.l1_concentric(c, a, d), rel=1e-10)


def test_l1_norm_of_a_concentric_mixture_in_three_dimensions():
    # ROADMAP item 3's mixture; {V = 0} is a sphere, tangent to a circle of lines in each plane
    c, a = (1.0, -2.0), (0.5, 1.0)
    v = mixture(list(c), [(0.3, -0.7, 0.2)] * 2, list(a), dimension=3)
    assert v.l1_norm() == pytest.approx(oracles.l1_concentric(c, a, 3), rel=1e-8)


def test_line_gauss_rule_is_numpys_gauss_legendre():
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array_equal(potentials._L1_GAUSS, [nodes, weights])


def test_line_integral_splits_a_root_pair_inside_one_cell():
    # V > 0 only on |y| < 0.045, and the uneven limits put both roots in the
    # cell [-0.1, 0.15]: its end values share a sign, its end slopes do not
    c, a = (1.001, -1.0), (1.0, 0.5)
    v = mixture(list(c), [0.0, 0.0], list(a))
    got = v._line_integrals(np.empty((1, 0)), -10.1, 9.9)[0]
    assert got == pytest.approx(oracles.l1_concentric(c, a, 1), rel=1e-12)


@pytest.mark.parametrize(
    "v",
    [
        mixture([1.0, -0.6], [(0.0, 0.0), (0.8, 0.3)], [1.0, 0.7], dimension=2),
        mixture([1.0, -0.8], [(0.0, 0.0), (0.4, -0.3)], [1.0, 50.0], dimension=2),
    ],
)
def test_l1_norm_of_signed_2d_mixture_matches_nquad(v):
    assert v.l1_norm() == pytest.approx(oracles.l1_nquad(v, 1e-9), rel=1e-7)


def test_l1_norm_integrates_each_outer_node_once(monkeypatch):
    from scipy.integrate import cubature

    v = mixture([1.0, -0.6], [(0.0, 0.0), (0.8, 0.3)], [1.0, 0.7], dimension=2)
    lo, hi = v._box()
    ref = cubature(lambda x: v._line_integrals(x, lo[-1], hi[-1]), lo[:-1], hi[:-1], rtol=1e-10)
    seen = []
    line_integrals = GaussianMixturePotential._line_integrals
    monkeypatch.setattr(
        GaussianMixturePotential,
        "_line_integrals",
        lambda self, outer, a, b: seen.extend(map(bytes, outer)) or line_integrals(self, outer, a, b),
    )
    got = GaussianMixturePotential.l1_norm.__wrapped__(v)
    assert seen and len(seen) == len(set(seen))
    assert got == pytest.approx(float(ref.estimate), rel=1e-10)


def test_l1_norm_raises_when_cubature_does_not_converge(monkeypatch):
    # the name predates the in-house rule; its interval cap is what stops it now
    monkeypatch.setattr(potentials, "_L1_MAX_INTERVALS", 4)
    v = mixture([1.0, -0.6], [(0.0, 0.0), (0.8, 0.3)], [1.0, 0.7], dimension=2)
    with pytest.raises(ValueError, match=r"l1_norm of a d = 2 mixture did not converge: error estimate \S+ for the value"):
        GaussianMixturePotential.l1_norm.__wrapped__(v)


def test_kronrod_rule_extends_the_gauss_rule():
    nodes, weights = np.polynomial.legendre.leggauss(10)
    assert np.allclose(potentials._GK_NODES[1::2], nodes, rtol=0, atol=1e-15)
    assert np.allclose(potentials._GK_GAUSS, weights, rtol=0, atol=1e-15)
    # K21 is exact through degree 31, G10 through degree 19
    for k in range(32):
        exact = (1.0 + (-1.0) ** k) / (k + 1)
        assert potentials._GK_NODES**k @ potentials._GK_KRONROD == pytest.approx(exact, abs=1e-15)
        if k < 20:
            assert potentials._GK_NODES[1::2] ** k @ potentials._GK_GAUSS == pytest.approx(exact, abs=1e-15)


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
    # zero weights are V = 0 too, whatever the components
    unweighted = mixture([0.0, -0.0], [0.0, 1.0], [1.0, 3.0])
    assert unweighted.is_zero and gaussian().scaled(0.0).is_zero and not signed.is_zero
    assert unweighted.l1_norm() == 0.0 and unweighted.sup_norm() == 0.0
    assert not mixture([0.0, 1e-300], [0.0, 1.0], [1.0, 1.0]).is_zero


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
    # a non-finite center would evaluate to nan, or to 0 while integral() is not 0
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="center"):
            mixture([1.0], [bad], [1.0])
        with pytest.raises(ValueError, match="center"):
            mixture([1.0], [(0.0, bad)], [1.0])
    # a bool is an int subclass: a True dimension once built a potential whose
    # evaluate died with a bare TypeError, and a True weight or sharpness counted as 1
    with pytest.raises(ValueError, match="dimension must be an integer"):
        GaussianMixturePotential(True, (1.0,), ((0.0,),), (1.0,))
    with pytest.raises(ValueError, match="dimension must be an integer"):
        mixture([1.0], [0.0], [1.0], dimension=True)
    for field, args in (
        ("weight", ([True], [0.0], [1.0])),
        ("weight", (["1.0"], [0.0], [1.0])),
        ("weight", ([math.nan], [0.0], [1.0])),
        ("sharpness", ([1.0], [0.0], [True])),
        ("sharpness", ([1.0], [0.0], ["1.0"])),
        ("center", ([1.0], [True], [1.0])),
        ("center", ([1.0], [(0.0, np.True_)], [1.0])),
        ("center", ([1.0], ["0.0"], [1.0])),
        # an int too large for a float once raised OverflowError, not ValueError
        ("weight", ([10**400], [0.0], [1.0])),
        ("center", ([1.0], [(0.0, 10**400)], [1.0])),
        ("sharpness", ([1.0], [0.0], [10**400])),
    ):
        with pytest.raises(ValueError, match=field):
            mixture(*args)
    for args in ((1, (True,), ((0.0,),), (1.0,)), (1, (1.0,), ((0.0,),), (True,)), (1, (1.0,), ((False,),), (1.0,))):
        with pytest.raises(ValueError):
            GaussianMixturePotential(*args)
    # numpy and integer numbers are real numbers, stored as floats
    assert mixture([np.int64(1)], [np.float32(0.0)], [1]) == gaussian()
    assert type(mixture([np.int64(1)], [0], [1]).weights[0]) is float


def test_list_fields_are_stored_as_tuples_of_floats():
    # lists once constructed, then evaluate died with "unhashable type: 'list'" in _arrays' cache
    listed = GaussianMixturePotential(1, [1.0], [[0.0]], [1.0])
    assert listed == gaussian() and hash(listed) == hash(gaussian())
    assert listed.evaluate([0.0]) == 1.0 and listed.l1_norm() == pytest.approx(math.sqrt(math.pi))
    v = GaussianMixturePotential(2, np.array([1, -0.5]), np.array([[0.0, 0.0], [1.0, 2.0]]), [1, np.float32(2.0)])
    for field in (v.weights, v.centers, v.sharpness):
        assert type(field) is tuple
    assert all(type(x) is float for x in v.weights + v.centers[0] + v.centers[1] + v.sharpness)
    assert v == mixture([1.0, -0.5], [(0.0, 0.0), (1.0, 2.0)], [1.0, 2.0])
    # a bad entry is still named, whatever sequence holds it
    for field, args in (("weight", ([True], [[0.0]], [1.0])), ("sharpness", ([1.0], [[0.0]], ["1"])),
                        ("center", ([1.0], [["0"]], [1.0]))):
        with pytest.raises(ValueError, match=field):
            GaussianMixturePotential(1, *args)


def test_power_order_must_be_an_integer():
    # power(True) once returned V, and power(2.0) died with a bare TypeError
    v = mixture([1.0, -0.4], [0.3, -1.1], [1.0, 2.2])
    for k in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="k must be an integer"):
            v.power(k)
    assert v.power(np.int64(2)) == v.power(2)
