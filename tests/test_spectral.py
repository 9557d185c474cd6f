import math

import numpy as np
import pytest

import oracles
from fracheat import (
    GridField,
    SpectralGrid,
    apply_fractional_laplacian,
    dirichlet_form,
    forward_transform,
    gaussian,
    grid_integral,
    mixture,
    sample_on_grid,
    weighted_freq_sum,
)
from fracheat.spectral import inverse_transform, kink_correction, symbol_array


def test_forward_transform_matches_analytic_mixture_transform(grid1):
    v = mixture([1.0, -0.4], [0.3, -1.1], [1.0, 2.2])
    field = forward_transform(sample_on_grid(v, grid1))
    expected = v.fourier(grid1.frequency_mesh())
    assert np.max(np.abs(field.values - expected)) < 1e-12


def test_round_trip_is_identity(grid1):
    v = mixture([0.7, 0.6], [-0.9, 1.4], [0.8, 2.0])
    sampled = sample_on_grid(v, grid1)
    back = inverse_transform(forward_transform(sampled))
    assert np.max(np.abs(back.values - sampled.values)) < 1e-13


def test_discrete_parseval_is_exact(grid1):
    v = mixture([1.0, -0.5], [0.0, 1.0], [1.0, 3.0])
    w = mixture([0.6], [0.4], [1.5])
    vs, ws = sample_on_grid(v, grid1), sample_on_grid(w, grid1)
    vh, wh = forward_transform(vs), forward_transform(ws)
    space = grid1.spacing * np.sum(vs.values * ws.values)
    freq = grid1.freq_spacing / (2 * math.pi) * np.sum(vh.values * np.conj(wh.values))
    assert abs(space - freq.real) <= 1e-15 * abs(space)
    assert abs(freq.imag) <= 1e-15 * abs(space)


def test_symbol_array_zero_frequency_convention(grid1):
    flat = symbol_array(grid1, 0.0)
    assert np.all(flat == 1.0)
    sym = symbol_array(grid1, 1.3)
    center = np.argmin(np.abs(grid1.axis_freqs()))
    assert sym[center] == 0.0
    assert np.all(sym >= 0.0)


def test_fractional_laplacian_alpha_two_is_negative_second_derivative(grid1):
    v = mixture([1.0, 0.5], [0.2, -0.8], [1.0, 2.0])
    applied = apply_fractional_laplacian(forward_transform(sample_on_grid(v, grid1)), 2.0)
    x = grid1.axis_points()
    expected = np.zeros_like(x)
    for w, mu, a in ((1.0, 0.2, 1.0), (0.5, -0.8, 2.0)):
        y = x - mu
        expected -= w * (4 * a * a * y * y - 2 * a) * np.exp(-a * y * y)
    assert np.max(np.abs(applied.values - expected)) < 1e-10


def test_fractional_laplacian_power_composes(grid1):
    vhat = forward_transform(sample_on_grid(gaussian(), grid1))
    once = apply_fractional_laplacian(vhat, 1.5)
    spec = forward_transform(GridField(grid1, "physical", np.real(once.values)))
    twice = inverse_transform(
        GridField(grid1, "frequency", spec.values * symbol_array(grid1, 1.5))
    )
    squared = apply_fractional_laplacian(vhat, 1.5, power=2)
    assert np.max(np.abs(twice.values - squared.values)) < 1e-11


def test_grid_integral_matches_closed_form(grid1):
    v = mixture([1.0, -0.3], [0.0, 1.2], [1.0, 2.0])
    assert grid_integral(sample_on_grid(v, grid1)) == pytest.approx(v.integral(), abs=1e-13)


def test_kink_correction_repairs_odd_symbol_sums(grid1):
    # |xi|^1 against a smooth Gaussian profile: the raw lattice sum misses
    # the integrable kink at 0 by ~(2L)^{-2}; the corrected sum must land
    # within 1e-6 of the quadrature value (here exactly 1)
    v = gaussian()
    density = np.abs(forward_transform(sample_on_grid(v, grid1)).values) ** 2
    smooth = lambda xi: float(np.abs(v.fourier(xi)) ** 2)
    raw = weighted_freq_sum(grid1, density, 1.0)
    corrected = weighted_freq_sum(grid1, density, 1.0, smooth_at=smooth)
    assert abs(raw - oracles.DIRICHLET_UNIT_A1) > 1e-4
    assert abs(corrected - oracles.DIRICHLET_UNIT_A1) < 1e-6


def test_kink_correction_vanishes_for_even_powers(grid1):
    v = gaussian()
    smooth = lambda xi: float(np.abs(v.fourier(xi)) ** 2)
    assert kink_correction(grid1, 2.0, smooth) == pytest.approx(0.0, abs=1e-12)


def test_dirichlet_form_anchors(grid1):
    v = gaussian()
    assert dirichlet_form(v, grid1, 2.0) == pytest.approx(oracles.DIRICHLET_UNIT_A2, abs=1e-10)
    assert dirichlet_form(v, grid1, 1.0) == pytest.approx(oracles.DIRICHLET_UNIT_A1, abs=1e-6)
    w = mixture([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])
    ref = oracles.dirichlet_reference([1.0, 0.5], [0.0, 1.2], [1.0, 2.5], 1.5)
    assert dirichlet_form(w, grid1, 1.5) == pytest.approx(ref, rel=1e-6)


def test_two_dimensional_transform_and_integral():
    grid = SpectralGrid(2, 64, 10.0)
    v = mixture([1.0], [(0.3, -0.4)], [1.0], dimension=2)
    field = forward_transform(sample_on_grid(v, grid))
    expected = v.fourier(grid.frequency_mesh())
    assert np.max(np.abs(field.values - expected)) < 1e-9
    assert grid_integral(sample_on_grid(v, grid)) == pytest.approx(math.pi, abs=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(4, 64, 10.0)
    with pytest.raises(ValueError):
        SpectralGrid(1, 63, 10.0)  # odd point count breaks the symmetric mesh
    with pytest.raises(ValueError):
        SpectralGrid(1, 8, 10.0)
    with pytest.raises(ValueError):
        SpectralGrid(1, 64, -1.0)
    for bad in (math.inf, math.nan, True, "16"):
        with pytest.raises(ValueError, match="half_extent"):
            SpectralGrid(1, 64, bad)
    # a float count once reached every table's grid descriptor as N=256.0, and a bool dimension ran as d = 1
    for field, args in (("points_per_axis", (1, 256.0, 16.0)), ("points_per_axis", (1, True, 16.0)), ("dimension", (True, 64, 8.0))):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SpectralGrid(*args)
    assert SpectralGrid(1, np.int64(64), np.float64(8.0)).descriptor == SpectralGrid(1, 64, 8.0).descriptor


def test_field_shape_validation(grid1):
    with pytest.raises(ValueError):
        GridField(grid1, "physical", np.zeros(7))
    with pytest.raises(ValueError):
        GridField(grid1, "nowhere", np.zeros(grid1.shape))


def test_transforms_reject_wrong_space(grid1):
    v = gaussian()
    sampled = sample_on_grid(v, grid1)
    with pytest.raises(ValueError):
        inverse_transform(sampled)
    with pytest.raises(ValueError):
        forward_transform(forward_transform(sampled))
    with pytest.raises(ValueError):
        apply_fractional_laplacian(sampled, 1.5)
