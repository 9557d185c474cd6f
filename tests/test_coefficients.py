import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import fracheat.coefficients as coefficients
import fracheat.spectral as spectral
import oracles
from fracheat import (
    GaussianMixturePotential,
    RouteUnavailable,
    SpectralGrid,
    c0k,
    c4_closed,
    c4_sos,
    c5_closed,
    c5_sos,
    c_ell,
    cnk_closed,
    cnk_fourier,
    coefficient_table,
    gaussian,
    mixture,
    partial_sum,
    t2_exact,
    t2_kernel,
)
from fracheat.coefficients import MAX_ORDER, lattice_fields, t3_control_mean, t3_exact, t3_kernel

PAIRS = [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3), (1, 4)]


def test_c0k_matches_factorial_weighted_power_integral():
    v = mixture([1.0, -0.4], [0.3, -1.1], [1.0, 2.2])
    for k in range(2, 7):
        assert c0k(v, k) == pytest.approx(v.power(k).integral() / math.factorial(k), rel=1e-14)


def test_c0k_scale_covariance():
    v = mixture([0.7, 0.5], [0.0, 1.0], [1.0, 2.0])
    for s in (2.0, -0.3):
        w = v.scaled(s)
        for k in range(2, 6):
            assert c0k(w, k) == pytest.approx(s**k * c0k(v, k), rel=1e-13)


def test_unit_gaussian_anchors_at_alpha_two(grid1, unit_gaussian):
    v = unit_gaussian
    assert c_ell(v, grid1, 2.0, 1) == pytest.approx(oracles.C1_UNIT, abs=1e-14)
    assert c_ell(v, grid1, 2.0, 2) == pytest.approx(oracles.C2_UNIT, abs=1e-14)
    assert c_ell(v, grid1, 2.0, 3) == pytest.approx(oracles.C3_UNIT_A2, abs=1e-12)
    assert c_ell(v, grid1, 2.0, 4) == pytest.approx(oracles.C4_UNIT_A2, abs=1e-12)
    assert c_ell(v, grid1, 2.0, 5) == pytest.approx(oracles.C5_UNIT_A2, abs=1e-12)
    assert cnk_closed(v, grid1, 2.0, 1, 2) == pytest.approx(oracles.C12_UNIT_A2, abs=1e-12)
    assert cnk_closed(v, grid1, 2.0, 2, 2) == pytest.approx(oracles.C22_UNIT_A2, abs=1e-12)


@pytest.mark.parametrize("alpha", [0.8, 1.5])
def test_both_routes_agree_per_term(grid1, mixture_trio, alpha):
    for v in mixture_trio:
        for n, k in PAIRS:
            a = cnk_closed(v, grid1, alpha, n, k)
            b = cnk_fourier(v, grid1, alpha, n, k)
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_both_routes_agree_per_order(grid1, mixture_trio, alpha):
    for v in mixture_trio:
        for ell in (2, 3, 4, 5):
            a = c_ell(v, grid1, alpha, ell)
            b = sum(cnk_fourier(v, grid1, alpha, ell - k, k) / math.factorial(ell - k) for k in range(2, ell + 1))
            assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


def test_sum_of_squares_variants_match_closed_forms(grid1, mixture_trio):
    for v in mixture_trio:
        for alpha in (0.8, 1.0, 1.5, 2.0):
            assert abs(c4_closed(v, grid1, alpha) - c4_sos(v, grid1, alpha)) < 1e-12
            assert abs(c5_closed(v, grid1, alpha) - c5_sos(v, grid1, alpha)) < 1e-12


@pytest.mark.parametrize("alpha", [0.5, 1.3, 2.0])
def test_k3_convolution_matches_the_double_sum(mixture_trio, alpha):
    grid = SpectralGrid(1, 128, 16.0)
    for v in mixture_trio:
        centers = [c[0] for c in v.centers]
        for n in (1, 2, 3):
            ref = oracles.cnk3_double_sum(v.weights, centers, v.sharpness, 16.0, 128, alpha, n)
            assert cnk_fourier(v, grid, alpha, n, 3) == pytest.approx(ref, rel=1e-12, abs=1e-16)


def test_cached_arrays_are_read_only(grid1):
    v = mixture([1.0, -0.4], [0.3, -1.1], [1.0, 2.2])
    fields = lattice_fields(v, grid1, 1.5)
    arrays = [getattr(fields, name) for name in ("v1", "v2", "v3", "fv", "f2v", "vhat", "v2hat")]
    for arr in arrays + list(v._arrays()):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    g = gaussian()
    with pytest.raises(ValueError):
        g._arrays()[0][0] = 5.0
    assert float(g.evaluate(0.0)) == 1.0
    assert lattice_fields.cache_info().maxsize is not None
    assert c_ell.cache_info().maxsize is not None
    for name in ("_arrays", "l1_norm", "sup_norm", "max_value"):
        assert getattr(GaussianMixturePotential, name).cache_info().maxsize is not None


def test_lattice_fields_samples_and_transforms_each_field_once(grid1, monkeypatch):
    # count every call through the names both modules bind, so a call made
    # inside a spectral function counts as well as one made by the bundle
    calls = {"sample_on_grid": 0, "forward_transform": 0, "inverse_transform": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (spectral, coefficients):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    v = mixture([1.0, -0.4], [0.3, -1.1], [1.0, 2.2])
    lattice_fields.__wrapped__(v, grid1, 1.5)
    assert calls == {"sample_on_grid": 3, "forward_transform": 2, "inverse_transform": 2}


def test_route_unavailable_cases(grid1):
    v = gaussian()
    with pytest.raises(RouteUnavailable):
        cnk_fourier(v, grid1, 1.5, 2, 4)
    with pytest.raises(RouteUnavailable):
        cnk_closed(v, grid1, 1.5, 4, 2)
    with pytest.raises(RouteUnavailable):
        c_ell(v, grid1, 1.5, 6)
    grid2 = SpectralGrid(2, 64, 10.0)
    v2 = mixture([1.0], [(0.0, 0.0)], [1.0], dimension=2)
    with pytest.raises(RouteUnavailable):
        cnk_fourier(v2, grid2, 1.5, 1, 3)


def test_lattice_routes_refuse_a_box_that_cuts_off_the_potential():
    # on the default d = 1 box [-16, 16) the bumps at +-20 were silently cut off:
    # C_4 read 0.0739 on the closed route and 0.301 on the Fourier route
    v = mixture([1.0, 1.0], [-20.0, 20.0], [1.0, 1.0])
    grid = SpectralGrid.default_for(1)
    calls = [lambda: c_ell(v, grid, 2.0, 3), lambda: cnk_fourier(v, grid, 2.0, 1, 3), lambda: coefficient_table(v, grid, 2.0)]
    for call in calls:
        with pytest.raises(ValueError, match=r"half_extent = 16 cuts off V; it needs half_extent >= 25\.4772255750516"):
            call()
    lattice_fields(v, SpectralGrid(1, 256, 20.0 + math.sqrt(30.0)), 2.0)  # the smallest box that holds V
    wide = SpectralGrid(1, 1024, 64.0)
    assert abs(c_ell(v, wide, 2.0, 3) - 2.0 * c_ell(gaussian(1.0, 20.0, 1.0), wide, 2.0, 3)) < 1e-12


def test_argument_validation(grid1):
    v = gaussian()
    with pytest.raises(ValueError):
        c_ell(v, grid1, 1.5, 0)
    with pytest.raises(ValueError):
        c_ell(v, grid1, 2.5, 3)
    with pytest.raises(ValueError):
        cnk_fourier(v, grid1, 1.5, -1, 2)
    with pytest.raises(ValueError):
        cnk_fourier(v, grid1, 1.5, 1, 1)
    # a bool alpha once ran as alpha = 1; a numpy float is a real number and passes
    for call in (lambda a: c_ell(v, grid1, a, 3), lambda a: t2_exact(v, a, 0.1)):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\], got True"):
            call(True)
        call(np.float64(1.5))
    # a bool n_terms once ran as N = 1, and a float one died in range()
    for n_terms in (True, 2.5):
        with pytest.raises(ValueError, match="n_terms must be an integer"):
            partial_sum(v, grid1, 1.5, n_terms, 0.1)
    assert partial_sum(v, grid1, 1.5, np.int64(3), 0.1) == partial_sum(v, grid1, 1.5, 3, 0.1)
    # orders are integers: c_ell(..., True) once returned C_1 through the cache
    # key it shares with 1, and a float order died with a bare TypeError
    c_ell(v, grid1, 1.5, 1)
    for call, name in ((lambda k: c_ell(v, grid1, 1.5, k), "ell"), (lambda k: c0k(v, k), "k")):
        for order in (True, 2.0):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                call(order)
    assert c_ell(v, grid1, 1.5, np.int64(3)) == c_ell(v, grid1, 1.5, 3)
    assert c0k(v, np.int64(2)) == c0k(v, 2)
    # a cached alpha = 1 entry does not let alpha = True through
    c_ell(v, grid1, 1.0, 2)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\], got True"):
        c_ell(v, grid1, True, 2)


def test_zero_potential_coefficients_vanish(grid1):
    z = mixture([], [], [], dimension=1)
    for ell in range(1, 6):
        assert c_ell(z, grid1, 1.5, ell) == 0.0
    for n, k in PAIRS:
        assert cnk_closed(z, grid1, 1.5, n, k) == 0.0
        assert cnk_fourier(z, grid1, 1.5, n, k) == 0.0


def test_partial_sum_assembles_signed_powers(grid1):
    v = mixture([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])
    t = 0.07
    for n_terms in (1, 2, 3, 4, 5):
        expected = -t * c_ell(v, grid1, 1.5, 1)
        for ell in range(2, n_terms + 1):
            expected += (-t) ** ell * c_ell(v, grid1, 1.5, ell)
        assert partial_sum(v, grid1, 1.5, n_terms, t) == pytest.approx(expected, rel=1e-14)
    with pytest.raises(ValueError):
        partial_sum(v, grid1, 1.5, 0, t)
    assert partial_sum(v, grid1, 1.5, 3, 0.0) == 0.0
    # a nan or infinite t once returned nan, and True was taken as t = 1
    for bad in (-0.1, math.nan, math.inf, -math.inf, True):
        with pytest.raises(ValueError, match="t must be a nonnegative finite number"):
            partial_sum(v, grid1, 1.5, 3, bad)
    # c_ell holds the order cap, so N = MAX_ORDER + 1 is rejected by the route itself
    with pytest.raises(RouteUnavailable, match=f"ell <= {MAX_ORDER}"):
        partial_sum(v, grid1, 1.5, MAX_ORDER + 1, t)


def test_t2_kernel_branches_and_shape():
    assert t2_kernel(0.0) == 0.5
    # the branches meet at |u| = 0.5, the closed form taking over at 0.5 itself,
    # to within the closed form's cancellation there
    for edge in (0.5, -0.5):
        inside = np.nextafter(edge, 0.0)
        assert abs(t2_kernel(inside) - t2_kernel(edge)) < 2e-15, edge
    u = np.geomspace(1e-7, 50.0, 40)
    vals = t2_kernel(u)
    assert vals.shape == u.shape
    assert np.all(np.diff(vals) < 0)  # completely monotone kernel decreases
    assert np.all((vals > 0) & (vals <= 0.5))
    exact = (np.expm1(-u) + u) / u**2
    assert np.max(np.abs(vals - exact)) < 1e-8
    # negative arguments (the Monte Carlo exponent A < 0 wherever V <= 0):
    # psi keeps decreasing and grows like e^{-u}/u^2
    neg = -u[::-1]
    vals = t2_kernel(neg)
    assert np.all(np.diff(vals) < 0) and np.all(vals > 0.5)
    exact = (np.expm1(-neg) + neg) / neg**2
    assert np.max(np.abs(vals / exact - 1.0)) < 1e-8
    assert t2_kernel(-1.0) == pytest.approx(math.e - 2.0, rel=1e-15)


def test_t2_kernel_matches_quadrature_to_full_precision():
    # psi(u) = int_0^1 (1 - s) e^{-us} ds on both sides of the branch edge |u| = 0.5,
    # and near 1.3e-4, where a series edge at 1e-4 once left a closed form off by 2 eps/u
    mags = np.concatenate([np.geomspace(1e-7, 50.0, 45), [1e-4, 1.3e-4, 1.31e-4, 0.49, 0.5, 0.51]])
    u = np.concatenate([mags, -mags])
    for x, got in zip(u, t2_kernel(u)):
        ref = quad(lambda s: (1.0 - s) * math.exp(-x * s), 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
        assert got == pytest.approx(ref, rel=2e-14, abs=0), x
        assert t2_kernel(x) == got


@pytest.mark.parametrize("t", [0.01, 0.1, 0.3])
def test_t2_exact_matches_series_oracle(unit_gaussian, t):
    assert t2_exact(unit_gaussian, 2.0, t) == pytest.approx(
        oracles.t2_series_unit_gaussian(t), abs=1e-9
    )
    # a nan or infinite t once returned nan in d = 2, and in d = 1 raised a
    # quadrature error; True was taken as t = 1
    for v in (unit_gaussian, gaussian(center=(0.0, 0.0))):
        for bad in (-t, math.nan, math.inf, -math.inf, True):
            with pytest.raises(ValueError, match="t must be a nonnegative finite number"):
                t2_exact(v, 2.0, bad)


def test_t2_exact_cache_keeps_its_argument_checks(unit_gaussian):
    # a bool equals and hashes like 1 and 1.0; the typed cache keeps them apart,
    # so True meets the checks even when the float entry is cached
    t2_exact(unit_gaussian, 1.0, 1.0)
    for alpha, t in ((True, 1.0), (1.0, True)):
        with pytest.raises(ValueError):
            t2_exact(unit_gaussian, alpha, t)
    hits = t2_exact.cache_info().hits
    assert t2_exact(unit_gaussian, 1.0, 1.0) == t2_exact(unit_gaussian, 1.0, 1.0)
    assert t2_exact.cache_info().hits == hits + 2


# the four mixtures of the benchmark workloads (README, trio, five in d = 1,
# the signed d = 2 mixture) and two d = 3 mixtures
T2_MIXTURES = [
    mixture([-1.0], [0.0], [1.0]),
    mixture([0.8, -0.3, 0.5], [-0.5, 0.7, 1.5], [1.5, 0.6, 2.0]),
    mixture([1.0, 0.5, 0.3, 0.7, 0.2], [-1.0, -0.4, 0.1, 0.6, 1.3], [1.0, 2.0, 0.5, 1.5, 3.0]),
    mixture([1.0, -0.6], [(0.0, 0.0), (0.8, 0.3)], [1.0, 0.7], dimension=2),
    mixture([1.0, -0.6], [(0.0, 0.0, 0.0), (0.8, 0.3, -0.5)], [1.0, 0.7], dimension=3),
    mixture([0.8, -0.3, 0.5], [(0.0, 0.0, 0.0), (0.7, 0.2, -0.4), (1.5, -1.0, 0.3)], [1.5, 0.6, 2.0], dimension=3),
]
# d = 1: quadrature of |vhat|^2; d = 2: nested polar quadrature of |vhat|^2, which
# reduces nothing over component pairs; d = 3: the pair form by scipy quadrature
T2_ORACLES = {1: oracles.t2_quad_1d, 2: oracles.t2_polar_2d, 3: oracles.t2_pair_quad}


@pytest.mark.parametrize("v", T2_MIXTURES)
def test_t2_exact_matches_adaptive_quadrature(v):
    for alpha in (0.5, 0.8, 1.0, 1.5, 2.0):
        for t in (0.02, 0.2, 1.0):
            ref = T2_ORACLES[v.dimension](v, alpha, t)
            assert t2_exact(v, alpha, t) == pytest.approx(ref, rel=1e-12, abs=0), (alpha, t)


def test_t2_exact_builds_no_lattice(monkeypatch):
    def refuse(*args):
        raise AssertionError("t2_exact read the lattice")

    monkeypatch.setattr(coefficients, "lattice_fields", refuse)
    t2_exact.cache_clear()
    for d in (1, 2, 3):
        v = gaussian(center=(0.0,) * d)
        assert t2_exact(v, 1.5, 0.1) == pytest.approx(oracles.t2_pair_quad(v, 1.5, 0.1), rel=1e-12, abs=0), d


def test_bessel_j0_matches_scipy():
    # z up to 200 covers every r |mu_i - mu_j| the tests reach; the node count
    # follows the largest z of each call, so one call per range checks that choice
    for hi in (1.0, 20.0, 200.0):
        z = np.linspace(0.0, hi, 4001)
        assert np.max(np.abs(coefficients._bessel_j0(z) - oracles.j0(z))) < 1e-14, hi


def test_tanh_sinh_raises_when_the_levels_disagree(monkeypatch):
    # |x - 1/3|^{-1/2} is integrable, but its interior singularity defeats the rule
    fn = lambda x: (np.abs(x - 1.0 / 3.0) ** -0.5)[np.newaxis]
    monkeypatch.setattr(coefficients, "_TS_LEVELS", 4)
    with pytest.raises(ValueError, match="tanh-sinh quadrature did not converge"):
        coefficients._tanh_sinh(lambda x: (fn(x), fn(x)), 1.0)
    monkeypatch.undo()
    # an endpoint kink like t2_exact's |xi|^alpha at 0 is what the rule absorbs
    kink = lambda x: (x**0.3 * np.exp(-x))[np.newaxis]
    got = coefficients._tanh_sinh(lambda x: (kink(x), kink(x)), 50.0)
    assert got.shape == (1,) and got[0] == pytest.approx(math.gamma(1.3), rel=1e-13, abs=0)


def test_tanh_sinh_holds_a_cancelled_integral_to_its_bound():
    # values of 1e-20 whose sign changes from node to node defeat a relative
    # test, as the rounding of pair sums that cancel to zero does; held to
    # _TS_FLOOR of the integral of a bound of 1, they converge at once
    noise = lambda x: 1e-20 * np.sin(1e9 * x)[np.newaxis]
    with pytest.raises(ValueError, match="tanh-sinh quadrature did not converge"):
        coefficients._tanh_sinh(lambda x: (noise(x), np.abs(noise(x))), 1.0)
    got = coefficients._tanh_sinh(lambda x: (noise(x), np.ones((1, x.size))), 1.0)
    assert got.shape == (1,) and abs(got[0]) < 1e-19


def test_t3_kernel_matches_quadrature_on_both_branches():
    # phi(u) = int_0^1 2 s (1 - s) e^{-us} ds: the series inside |u| < 0.5, the
    # closed form outside, and u < 0, where the exponent grows
    assert t3_kernel(0.0) == pytest.approx(1.0 / 3.0, rel=1e-16)
    u = [-40.0, -3.0, -0.6, -0.5, -0.49, -0.1, -1e-6, 1e-9, 1e-4, 0.1, 0.3, 0.49, 0.5, 0.51, 1.0, 4.0, 30.0, 300.0]
    vals = t3_kernel(np.array(u))
    assert vals.shape == (len(u),) and np.all(np.diff(vals) < 0) and np.all(vals > 0)
    for x, got in zip(u, vals):
        ref = quad(lambda s: 2.0 * s * (1.0 - s) * math.exp(-x * s), 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
        assert got == pytest.approx(ref, rel=2e-14, abs=0), x
        assert t3_kernel(x) == got
    # the branches meet at |u| = 0.5, the closed form taking over at 0.5 itself,
    # to within the closed form's cancellation there
    for edge in (0.5, -0.5):
        inside = np.nextafter(edge, 0.0)
        assert abs(t3_kernel(inside) - t3_kernel(edge)) < 2e-15, edge


# d = 1 and 3: the pair form with V^2's components built by the oracle; d = 2:
# nested polar quadrature of conj((V^2)hat) vhat, which reduces nothing over pairs
T3_ORACLES = {1: oracles.t3_control_pair_quad, 2: oracles.t3_control_polar_2d, 3: oracles.t3_control_pair_quad}


@pytest.mark.parametrize("v", [T2_MIXTURES[i] for i in (0, 1, 3, 4, 5)])
def test_t3_control_mean_matches_adaptive_quadrature(v):
    ts = (0.02, 0.2, 1.0)
    for alpha in (0.8, 1.0, 1.5, 2.0):
        got = t3_control_mean(v, alpha, ts)
        for t, e in zip(ts, got):
            ref = T3_ORACLES[v.dimension](v, alpha, t)
            assert e == pytest.approx(ref, rel=1e-12, abs=0), (alpha, t)
        # one quadrature for the series, and each time's value is a lone call's
        assert [t3_control_mean(v, alpha, [t])[0] for t in ts] == list(got)


# odd under x -> -x, so V^2 is even and <V^2, e^{-tsF} V> = 0: the pair sums
# of E c' cancel to rounding at every radius
DIPOLES = [
    mixture([1.0, -1.0], [[1.0] + [0.3] * (d - 1), [-1.0] + [-0.3] * (d - 1)], [1.0, 1.0], dimension=d)
    for d in (1, 2, 3)
]


@pytest.mark.parametrize("v", DIPOLES)
def test_t3_control_mean_of_an_odd_potential_vanishes(v):
    ts = np.array([0.02, 0.2, 1.0])
    half = mixture([1.0], [v.centers[0]], [1.0], dimension=v.dimension)
    for alpha in (0.8, 1.5, 2.0):
        got = t3_control_mean(v, alpha, ts)
        assert np.all(np.abs(got) < 1e-14 * ts**3 * c0k(half, 3)), alpha
    # a slightly uneven dipole's E c' is a hundredth of its parts', and the
    # rule still meets the oracle
    uneven = mixture([1.0, -0.99], v.centers, [1.0, 1.0], dimension=v.dimension)
    for t, got in zip(ts, t3_control_mean(uneven, 1.5, ts)):
        assert got == pytest.approx(oracles.t3_control_pair_quad(uneven, 1.5, t), rel=1e-9, abs=0), t


def test_t3_control_mean_tends_to_the_cubic_coefficient():
    # phi(0) = 1/3, so E c' = -t^3 int V^3 / 6 + O(t^4)
    for v in (T2_MIXTURES[1], T2_MIXTURES[3]):
        for t in (1e-3, 1e-4):
            assert t3_control_mean(v, 1.5, [t])[0] == pytest.approx(-(t**3) * c0k(v, 3), rel=20 * t)


def test_t3_control_mean_checks_its_arguments():
    v = gaussian()
    assert list(t3_control_mean(mixture([], [], [], dimension=1), 1.5, [0.1, 0.2])) == [0.0, 0.0]
    for alpha, ts in ((2.5, [0.1]), (True, [0.1]), (1.5, [0.1, -0.1]), (1.5, [math.nan]), (1.5, [True])):
        with pytest.raises(ValueError):
            t3_control_mean(v, alpha, ts)


def test_duhamel_kernel_matches_its_series_and_the_mean_of_phi():
    # K(a, b) = (psi(b) - psi(a))/(a - b) off the diagonal and Gauss-Legendre on
    # the mean of phi/2 within 5e-3 (1 + a + b) of it; the oracle sums the
    # divided-difference series for max(a, b) <= 1, and both branches meet
    # adaptive quadrature of the mean of phi/2 over [b, a]
    base = [0.0, 1e-9, 1e-4, 0.003, 0.1, 0.49, 0.5, 0.51, 1.0, 2.0, 7.5, 40.0, 300.0]
    pairs = [(x, y) for x in base for y in base]
    pairs += [(x, x * (1.0 + e)) for x in (1e-3, 0.3, 0.5, 2.0, 50.0) for e in (1e-12, 1e-8, 1e-5, 9e-3, 1.1e-2, 3e-2, 0.05)]
    a, b = (np.array(col) for col in zip(*pairs))
    kernel = lambda a, b: coefficients._duhamel_kernel(a, b, t2_kernel(a), t2_kernel(b))
    got = kernel(a, b)
    assert got.shape == a.shape and np.all(got > 0)
    swapped = kernel(b, a)
    assert swapped == pytest.approx(got, rel=1e-15, abs=0)
    for x, y, k in zip(a, b, got):
        assert k == pytest.approx(oracles._duhamel(x, y), rel=1e-13, abs=0), (x, y)
        if x != y:
            mean = quad(lambda u: 0.5 * oracles._phi(u), min(x, y), max(x, y), epsabs=0.0, epsrel=1e-13)[0] / abs(x - y)
            assert k == pytest.approx(mean, rel=1e-12, abs=0), (x, y)
    assert got[0] == 1.0 / 6.0 and kernel(np.array([2.0]), np.array([2.0]))[0] == pytest.approx(0.5 * t3_kernel(2.0), rel=1e-15)


# the benchmark's signed trio and the two-bump in d = 1
T3_D1 = [T2_MIXTURES[1], mixture([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])]
# the benchmark's signed mixture in d = 2, and a signed pair of centres 6 apart, whose
# phases need about twice the angles
T3_D2 = [T2_MIXTURES[3], mixture([1.0, -0.5], [(0.0, 0.0), (4.8, 3.6)], [1.0, 0.8], dimension=2)]


# The scipy oracles take several seconds per case where the rules take milliseconds:
# those cases are marked slow, so that -m 'not slow' stays a fast structural run.


@pytest.mark.parametrize(
    "v, alpha",
    [
        pytest.param(v, alpha, id=f"{name}-{alpha}", marks=pytest.mark.slow if alpha in (0.8, 1.5) else ())
        for alpha in (0.8, 1.0, 1.5, 2.0)
        for name, v in zip(("signed", "two-bump"), T3_D1)
    ],
)
def test_t3_exact_matches_dblquad_in_one_dimension(v, alpha):
    ts = (0.02, 0.2, 1.0)
    got = t3_exact(v, alpha, ts)
    for t, value in zip(ts, got):
        assert value == pytest.approx(oracles.t3_dblquad_1d(v, alpha, t), rel=1e-10, abs=0), t
    # one rule for the series, and each time's value is a lone call's
    assert [t3_exact(v, alpha, [t])[0] for t in ts] == list(got)
    assert list(t3_exact(v, alpha, ts[::-1])) == list(got[::-1])


@pytest.mark.slow
@pytest.mark.parametrize("v", T3_D2, ids=["signed-2d", "apart-2d"])
def test_t3_exact_matches_the_bessel_oracle_in_two_dimensions(v):
    # the polar rule against the Jacobi-Anger series, which samples no angle
    alphas, ts = (0.8, 1.0, 1.5), (0.02, 0.2, 1.0)
    want = oracles.t3_bessel_2d(v, alphas, ts)
    for alpha, row in zip(alphas, want):
        got = t3_exact(v, alpha, ts)
        assert got == pytest.approx(row, rel=1e-10, abs=0), alpha
        assert [t3_exact(v, alpha, [t])[0] for t in ts] == list(got)
        assert list(t3_exact(v, alpha, ts[::-1])) == list(got[::-1])


def test_angle_count_resolves_the_angles(monkeypatch):
    # twice the angles move T_3 by rounding only: one Gaussian (the coupling's modes
    # alone), the benchmark mixture, centres 6 apart (the phases' modes) and a sharp
    # component beside a wide one (the widest coupling)
    sharp = mixture([1.0, -0.5], [(0.0, 0.0), (1.0, 0.5)], [4.0, 0.3], dimension=2)
    ts = np.array([0.02, 0.2, 1.0])
    real = coefficients._angle_count
    for v, count in ((gaussian(center=(0.0, 0.0)), 36), (T3_D2[0], 42), (T3_D2[1], 74), (sharp, 106)):
        assert real(v) == count
        got = coefficients._t3_polar(v, 1.0, ts)
        monkeypatch.setattr(coefficients, "_angle_count", lambda v: 2 * real(v))
        finer = coefficients._t3_polar(v, 1.0, ts)
        monkeypatch.setattr(coefficients, "_angle_count", real)
        assert got[1].all() and finer[1].all()
        assert got[0] == pytest.approx(finer[0], rel=1e-13, abs=0), count


@pytest.mark.parametrize("v", [T2_MIXTURES[i] for i in (1, 3, 4, 5)])
def test_t3_exact_at_alpha_two_matches_the_physical_space_oracle(v):
    ts = (0.02, 0.2, 1.0)
    got = t3_exact(v, 2.0, ts)
    for t, value in zip(ts, got):
        assert value == pytest.approx(oracles.t3_heat_axes(v, t), rel=1e-10, abs=0), t
    assert [t3_exact(v, 2.0, [t])[0] for t in ts] == list(got)


@pytest.mark.parametrize("v", T3_D1 + T3_D2, ids=["signed", "two-bump", "signed-2d", "apart-2d"])
def test_t3_rules_agree_as_alpha_tends_to_two(v):
    # the polar rule run at alpha = 2 meets the Gaussian algebra, and the public
    # value at alpha just below 2 (the polar rule) meets that at 2
    ts = np.array([0.02, 0.2, 1.0])
    algebra, converged = coefficients._t3_heat(v, ts)
    polar = coefficients._t3_polar(v, 2.0, ts)
    assert converged.all() and polar[1].all()
    assert polar[0] == pytest.approx(algebra, rel=1e-12, abs=0)
    assert t3_exact(v, 2.0, ts) == pytest.approx(algebra, rel=1e-15, abs=0)
    assert t3_exact(v, 2.0 - 1e-10, ts) == pytest.approx(algebra, rel=1e-9, abs=0)


@pytest.mark.parametrize("v", [pytest.param(DIPOLES[0], marks=pytest.mark.slow), *DIPOLES[1:]], ids=["v0", "v1", "v2"])
def test_t3_exact_of_an_odd_potential_vanishes(v):
    # an odd V has int V (P V)(P V) = 0: the terms cancel to rounding, and both
    # rules converge on their floor instead of raising
    half = mixture([1.0], [v.centers[0]], [1.0], dimension=v.dimension)
    ts = [0.02, 0.2, 1.0]
    for alpha in (0.8, 1.5, 2.0) if v.dimension <= 2 else (2.0,):
        got = t3_exact(v, alpha, ts)
        assert np.all(np.abs(got) < 1e-14 * c0k(half, 3)), alpha
    if v.dimension == 1:
        uneven = mixture([1.0, -0.99], v.centers, [1.0, 1.0])
        for t, got in zip(ts, t3_exact(uneven, 1.5, ts)):
            assert got == pytest.approx(oracles.t3_dblquad_1d(uneven, 1.5, t), rel=1e-9, abs=0), t


def test_t3_exact_starts_at_the_cubic_coefficient():
    # K(0, 0) = 1/6, so T_3(0) = int V^3 / 6 = C_{0,3}
    for v, alpha in ((T2_MIXTURES[1], 1.5), (T2_MIXTURES[3], 2.0), (T2_MIXTURES[5], 2.0), (T3_D2[0], 1.0), (T3_D2[1], 0.8)):
        assert t3_exact(v, alpha, [0.0])[0] == pytest.approx(c0k(v, 3), rel=1e-13, abs=0)


def test_t3_means_read_their_times_once():
    # the argument checks once used up a generator, which then gave T_3 of no time
    v, ts = T3_D1[1], [0.1, 0.2]
    for fn in (t3_exact, t3_control_mean):
        ref = fn(v, 1.5, ts).tobytes()
        for given in ((t for t in ts), tuple(ts), np.array(ts)):
            assert fn(v, 1.5, given).tobytes() == ref, (fn.__name__, type(given))


def test_t3_exact_checks_its_arguments(monkeypatch):
    v = gaussian()
    assert list(t3_exact(mixture([], [], [], dimension=1), 1.5, [0.1, 0.2])) == [0.0, 0.0]
    # V = 0 needs no rule, so d = 3 at alpha < 2 has T_3 = 0 too, written with or without components
    for zero in (mixture([], [], [], dimension=3), gaussian(weight=0.0, center=(0.0, 0.0, 0.0))):
        assert list(t3_exact(zero, 1.5, [0.1, 0.2])) == [0.0, 0.0]
    for alpha, ts in ((2.5, [0.1]), (True, [0.1]), (1.5, [0.1, -0.1]), (1.5, [math.nan]), (1.5, [True])):
        with pytest.raises(ValueError):
            t3_exact(v, alpha, ts)
    with pytest.raises(RouteUnavailable, match="d = 1, d = 2 or alpha = 2"):
        t3_exact(gaussian(center=(0.0, 0.0, 0.0)), 1.5, [0.1])
    monkeypatch.setattr(coefficients, "_T3_LEVELS", 0)
    for alpha in (1.5, 2.0):
        with pytest.raises(RouteUnavailable, match="did not converge"):
            t3_exact(v, alpha, [0.1])


@pytest.mark.slow
def test_t3_exact_resolves_centres_far_apart():
    # the phases e^{i (mu_i - mu_j) xi} oscillate at the gap between the centres: the
    # polar rule starts at a step that resolves them, and raises at once where that
    # step would lie below its finest
    v = mixture([1.0, 1.0], [-15.0, 15.0], [1.0, 1.0])
    assert t3_exact(v, 1.5, [1.0])[0] == pytest.approx(oracles.t3_dblquad_1d(v, 1.5, 1.0), rel=1e-10, abs=0)
    with pytest.raises(RouteUnavailable, match="centres 100 apart"):
        t3_exact(mixture([1.0, 1.0], [-50.0, 50.0], [1.0, 1.0]), 1.5, [0.1])
    # in d = 2 the gap is Euclidean: centres (0, 80) and (80, 0) lie 113 apart, not 80
    with pytest.raises(RouteUnavailable, match=r"centres 113\.137 apart"):
        t3_exact(mixture([1.0, 1.0], [(0.0, 80.0), (80.0, 0.0)], [1.0, 1.0], dimension=2), 1.5, [0.1])


@pytest.mark.slow
def test_t3_exact_at_alpha_two_on_a_sharp_component():
    # P_{t r} of a component of sharpness a leaves a layer about 1/(4 a t) wide at the
    # triangle's edges: a t = 100 converges, a t = 10^4 raises rather than return a guess,
    # and its last order, 128^2 nodes of K^3 triples, is summed in blocks (47 MB unblocked)
    v = mixture([1.0], [0.0], [100.0])
    assert t3_exact(v, 2.0, [1.0])[0] == pytest.approx(oracles.t3_heat_axes(v, 1.0), rel=1e-9, abs=0)
    sharp = mixture([1.0, 0.5, -0.3, 0.2], [0.0, 0.5, 1.0, 1.5], [1e4, 1.0, 2.0, 3.0])
    tracemalloc.start()
    try:
        with pytest.raises(RouteUnavailable, match="did not converge"):
            t3_exact(sharp, 2.0, [1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_t3_exact_of_a_series_stays_small_in_memory():
    # the polar rule sums its pairs of radii in blocks, and the alpha = 2 rule's arrays
    # are (nodes, K^3): below 1 MB of traced memory for the benchmark's report configs
    ts = [0.02, 0.05, 0.1, 0.2]
    for v, alpha in ((T2_MIXTURES[0], 1.5), (T2_MIXTURES[1], 2.0), (T2_MIXTURES[2], 2.0), (T2_MIXTURES[3], 1.0)):
        t3_exact(v, alpha, ts)
        tracemalloc.start()
        try:
            t3_exact(v, alpha, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, (alpha, peak)


def test_pair_integral_of_two_mixtures_sums_every_pair():
    # with q = p the triangle sum of T_2 and the full sum over ordered pairs agree;
    # the cross pair (p, q) is bilinear in each mixture
    p = T2_MIXTURES[1]
    f = lambda r: t2_kernel(0.1 * r**1.5)[np.newaxis]
    twin = mixture(p.weights, p.centers, p.sharpness)
    assert twin is not p and twin == p
    assert coefficients._pair_integral(p, twin, f) == pytest.approx(coefficients._pair_integral(p, p, f), rel=1e-14)
    q = T2_MIXTURES[2]
    parts = [mixture([c], [mu], [a]) for c, mu, a in zip(q.weights, q.centers, q.sharpness)]
    whole = coefficients._pair_integral(p, q, f)
    assert whole == pytest.approx(sum(coefficients._pair_integral(p, part, f) for part in parts), rel=1e-13)
    assert coefficients._pair_integral(q, p, f) == pytest.approx(whole, rel=1e-13)


def test_tanh_sinh_keeps_each_integral_at_its_own_level():
    # K integrands at once: each is the value a lone call gives, although a
    # slower one keeps the rule refining
    rows = lambda x: np.stack([np.exp(-x), x**0.3 * np.exp(-x), np.sqrt(x) * np.cos(3.0 * x)])
    together = coefficients._tanh_sinh(lambda x: (rows(x), np.abs(rows(x))), 20.0)
    assert together.shape == (3,)
    for k in range(3):
        one = lambda x: rows(x)[k : k + 1]
        assert together[k] == coefficients._tanh_sinh(lambda x: (one(x), np.abs(one(x))), 20.0)[0]


def test_grid_refinement_stability():
    v = mixture([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])
    coarse, fine = SpectralGrid.default_for(1), SpectralGrid(1, 512, 16.0)
    for ell in (3, 4, 5):
        a, b = c_ell(v, coarse, 1.5, ell), c_ell(v, fine, 1.5, ell)
        assert a == pytest.approx(b, rel=1e-6)


def test_coefficient_table_contents(grid1):
    v = mixture([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])
    table = coefficient_table(v, grid1, 1.5)
    names = {"C1", "C2", "C3", "C4", "C5", "C4_sos", "C5_sos"}
    names |= {f"C(0,{k})" for k in range(2, 6)}
    names |= {f"C({n},{k})" for n, k in PAIRS}
    assert set(table.entries) == names
    assert table.entries["C1"].value == pytest.approx(v.integral(), rel=1e-14)
    assert table.entries["C4"].value == pytest.approx(
        table.entries["C4_sos"].value, rel=1e-12
    )
    # the same call gives the same entries; another alpha moves C3
    again = coefficient_table(v, grid1, 1.5)
    assert again.entries == table.entries
    other = coefficient_table(v, grid1, 0.8)
    assert other.entries["C3"].value != table.entries["C3"].value


def test_coefficient_table_two_dimensional():
    grid2 = SpectralGrid(2, 64, 10.0)
    v2 = mixture([1.0, -0.4], [(0.3, -0.4), (0.5, 0.2)], [1.0, 1.8], dimension=2)
    table = coefficient_table(v2, grid2, 1.5)
    for n, k in [(1, 2), (2, 2), (3, 2)]:
        assert table.entries[f"C({n},{k})"].value == pytest.approx(
            cnk_closed(v2, grid2, 1.5, n, k), rel=1e-12
        )
    assert "C(1,3)" not in table.entries
