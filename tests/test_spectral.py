import math

import numpy as np
import pytest

import oracles
from fracheat import SpectralGrid, dirichlet_form, gaussian, mixture
from fracheat.spectral import (
    apply_fractional_laplacian,
    forward_transform,
    grid_integral,
    inverse_transform,
    kink_correction,
    sample_on_grid,
    symbol_array,
    weighted_freq_sum,
)


def test_forward_transform_matches_analytic_mixture_transform(grid1):
    v = mixture([1.0, -0.4], [0.3, -1.1], [1.0, 2.2])
    vhat = forward_transform(grid1, sample_on_grid(v, grid1))
    expected = v.fourier(grid1.frequency_mesh())
    assert np.max(np.abs(vhat - expected)) < 1e-12


def test_round_trip_is_identity(grid1):
    v = mixture([0.7, 0.6], [-0.9, 1.4], [0.8, 2.0])
    sampled = sample_on_grid(v, grid1)
    back = inverse_transform(grid1, forward_transform(grid1, sampled))
    assert np.max(np.abs(back - sampled)) < 1e-13


def test_discrete_parseval_is_exact(grid1):
    v = mixture([1.0, -0.5], [0.0, 1.0], [1.0, 3.0])
    w = mixture([0.6], [0.4], [1.5])
    vs, ws = sample_on_grid(v, grid1), sample_on_grid(w, grid1)
    vh, wh = forward_transform(grid1, vs), forward_transform(grid1, ws)
    space = grid1.spacing * np.sum(vs * ws)
    freq = grid1.freq_spacing / (2 * math.pi) * np.sum(vh * np.conj(wh))
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
    applied = apply_fractional_laplacian(grid1, forward_transform(grid1, sample_on_grid(v, grid1)), 2.0)
    x = grid1.axis_points()
    expected = np.zeros_like(x)
    for w, mu, a in ((1.0, 0.2, 1.0), (0.5, -0.8, 2.0)):
        y = x - mu
        expected -= w * (4 * a * a * y * y - 2 * a) * np.exp(-a * y * y)
    assert np.max(np.abs(applied - expected)) < 1e-10


def test_fractional_laplacian_power_composes(grid1):
    vhat = forward_transform(grid1, sample_on_grid(gaussian(), grid1))
    once = apply_fractional_laplacian(grid1, vhat, 1.5)
    twice = inverse_transform(grid1, forward_transform(grid1, once) * symbol_array(grid1, 1.5))
    squared = apply_fractional_laplacian(grid1, vhat, 1.5, power=2)
    assert np.max(np.abs(twice - squared)) < 1e-11
    # power counts applications of F: a bool once ran as power 1, and a float applied F^{1.5}
    for power in (True, 1.5):
        with pytest.raises(ValueError, match="power must be an integer"):
            apply_fractional_laplacian(grid1, vhat, 1.5, power=power)
    with pytest.raises(ValueError, match="power must be >= 1"):
        apply_fractional_laplacian(grid1, vhat, 1.5, power=0)


def test_grid_integral_matches_closed_form(grid1):
    v = mixture([1.0, -0.3], [0.0, 1.2], [1.0, 2.0])
    assert grid_integral(grid1, sample_on_grid(v, grid1)) == pytest.approx(v.integral(), abs=1e-13)


def test_kink_correction_repairs_odd_symbol_sums(grid1):
    # |xi|^1 against a smooth Gaussian profile: the raw lattice sum misses
    # the integrable kink at 0 by ~(2L)^{-2}; the corrected sum must land
    # within 1e-6 of the quadrature value (here exactly 1)
    v = sample_on_grid(gaussian(), grid1)
    density = np.abs(forward_transform(grid1, v)) ** 2
    raw = weighted_freq_sum(grid1, density, 1.0)
    corrected = raw + kink_correction(grid1, v, 1.0)
    assert abs(raw - oracles.DIRICHLET_UNIT_A1) > 1e-4
    assert abs(corrected - oracles.DIRICHLET_UNIT_A1) < 1e-6


def test_kink_correction_vanishes_for_even_powers(grid1):
    assert kink_correction(grid1, sample_on_grid(gaussian(), grid1), 2.0) == pytest.approx(0.0, abs=1e-12)


def _exact_moment_kink(grid, beta, w):
    """kink_correction's formula with the closed-form moments m_j = int x^j W of the 1-d mixture W."""
    c, mu, a = (np.array(x, dtype=float).ravel() for x in (w.weights, w.centers, w.sharpness))
    mass = c * np.sqrt(np.pi / a)
    m0, m1, m2 = mass.sum(), (mass * mu).sum(), (mass * (mu**2 + 0.5 / a)).sum()
    p0, p1 = m0**2, m1**2 - m0 * m2 + m0**2  # f(0) and f''(0)/2 + f(0) of f = |what|^2
    xi = grid.axis_freqs()
    lattice = ((p0 + p1 * xi**2) * np.exp(-(xi**2)) * np.abs(xi) ** beta).sum() * grid.freq_spacing
    return (p0 * math.gamma((beta + 1) / 2) + p1 * math.gamma((beta + 3) / 2) - lattice) / (2 * math.pi)


@pytest.mark.parametrize("beta", [0.8, 1.0, 1.5])
def test_kink_correction_of_a_signed_pair_and_its_square(grid1, beta):
    # W = V and W = V^2 (the square of V's sample, as the lattice bundle forms it): the
    # correction read from W's lattice moments brings the raw sum to the quadrature value
    # of (2 pi)^{-1} int |xi|^beta |what|^2 and agrees with the mixture's exact moments
    v = mixture([0.8, -0.3], [-0.5, 0.7], [1.5, 0.6])
    sample = sample_on_grid(v, grid1)
    for k in (1, 2):
        w, values = v.power(k), sample**k
        raw = weighted_freq_sum(grid1, np.abs(forward_transform(grid1, values)) ** 2, beta)
        kink = kink_correction(grid1, values, beta)
        ref = oracles.dirichlet_reference(w.weights, [mu[0] for mu in w.centers], w.sharpness, beta)
        assert abs(raw + kink - ref) <= 1e-6 * abs(ref)
        assert abs(raw - ref) > 1e-5 * abs(ref)
        assert abs(kink - _exact_moment_kink(grid1, beta, w)) <= 1e-14


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
    vhat = forward_transform(grid, sample_on_grid(v, grid))
    expected = v.fourier(grid.frequency_mesh())
    assert np.max(np.abs(vhat - expected)) < 1e-9
    assert grid_integral(grid, sample_on_grid(v, grid)) == pytest.approx(math.pi, abs=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        SpectralGrid(4, 64, 10.0)
    # default_for once raised a bare KeyError for a dimension it has no defaults for
    with pytest.raises(ValueError, match="dimension must be 1, 2 or 3, got 4"):
        SpectralGrid.default_for(4)
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
    # every function that reads lattice values checks the array against the grid, in every d;
    # the kink's field is checked even where it is only read in d = 1
    calls = ((forward_transform, ()), (inverse_transform, ()), (apply_fractional_laplacian, (1.5,)),
             (grid_integral, ()), (weighted_freq_sum, (1.0,)), (kink_correction, (1.0,)))
    for grid, wrong in ((grid1, np.zeros(7)), (SpectralGrid(2, 16, 4.0), np.zeros(16))):
        for fn, rest in calls:
            with pytest.raises(ValueError, match="does not match grid"):
                fn(grid, wrong, *rest)
