import math

import numpy as np
import pytest

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
from fracheat.coefficients import lattice_fields

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
            a = c_ell(v, grid1, alpha, ell, route="closed")
            b = c_ell(v, grid1, alpha, ell, route="fourier")
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


def test_argument_validation(grid1):
    v = gaussian()
    with pytest.raises(ValueError):
        c_ell(v, grid1, 1.5, 0)
    with pytest.raises(ValueError):
        c_ell(v, grid1, 1.5, 3, route="magic")
    with pytest.raises(ValueError):
        c_ell(v, grid1, 2.5, 3)
    with pytest.raises(ValueError):
        cnk_fourier(v, grid1, 1.5, -1, 2)
    with pytest.raises(ValueError):
        cnk_fourier(v, grid1, 1.5, 1, 1)


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


def test_t2_kernel_branches_and_shape():
    assert t2_kernel(0.0) == 0.5
    # series and direct branches must agree across the switch point
    below, above = 1e-4 * (1 - 1e-9), 1e-4 * (1 + 1e-9)
    assert abs(t2_kernel(below) - t2_kernel(above)) < 1e-10
    u = np.geomspace(1e-7, 50.0, 40)
    vals = t2_kernel(u)
    assert vals.shape == u.shape
    assert np.all(np.diff(vals) < 0)  # completely monotone kernel decreases
    assert np.all((vals > 0) & (vals <= 0.5))
    exact = (np.expm1(-u) + u) / u**2
    assert np.max(np.abs(vals - exact)) < 1e-8


@pytest.mark.parametrize("t", [0.01, 0.1, 0.3])
def test_t2_exact_matches_series_oracle(unit_gaussian, t):
    assert t2_exact(unit_gaussian, 2.0, t) == pytest.approx(
        oracles.t2_series_unit_gaussian(t), abs=1e-9
    )


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
