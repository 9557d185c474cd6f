import math

import numpy as np
import pytest
from scipy import stats

import oracles
from fracheat import (
    McConfig,
    RngStream,
    default_proposal,
    estimate_heat_content,
    gaussian,
    mixture,
    sample_increment,
    t2_exact,
)


def test_seed_reproducibility_and_sensitivity(unit_gaussian):
    cfg = McConfig(n_paths=20_000, seed=5)
    a = estimate_heat_content(unit_gaussian, 2.0, 0.1, cfg)
    b = estimate_heat_content(unit_gaussian, 2.0, 0.1, cfg)
    c = estimate_heat_content(unit_gaussian, 2.0, 0.1, McConfig(n_paths=20_000, seed=6))
    assert a.mean == b.mean and a.standard_error == b.standard_error
    assert a.mean != c.mean


def test_thread_count_never_changes_the_estimate(unit_gaussian):
    # 66_000 paths straddles the internal chunk boundary; the partition into
    # chunks, not the worker count, owns the random streams
    one = estimate_heat_content(
        unit_gaussian, 1.5, 0.1, McConfig(n_paths=66_000, seed=9, threads=1)
    )
    three = estimate_heat_content(
        unit_gaussian, 1.5, 0.1, McConfig(n_paths=66_000, seed=9, threads=3)
    )
    assert one.mean == three.mean
    assert one.standard_error == three.standard_error


def test_zero_potential_has_zero_variance(grid1):
    z = mixture([], [], [], dimension=1)
    est = estimate_heat_content(z, 1.5, 0.3, McConfig(n_paths=1_000))
    assert est.mean == 0.0 and est.standard_error == 0.0


def test_exponent_integral_is_trapezoid_rule(unit_gaussian):
    # rebuild the estimator's single chunk from its stream, in its draw order:
    # mixture choice, start point, Student-t scale, then every increment.  A is
    # the trapezoid rule in time, each path adds (e^-A - 1 + A)/q, and the
    # known mean t int V of the control variate A/q is subtracted at the end
    n, m, t, seed = 4096, 16, 0.5, 2
    for alpha in (1.5, 2.0):
        gen = RngStream(seed, 0).generator
        center, sigma = default_proposal(unit_gaussian, 1)
        heavy = gen.random(n) < 0.1
        z = gen.standard_normal(n)
        z[heavy] /= np.sqrt(gen.chisquare(alpha, heavy.sum()) / alpha)
        x0 = (center[0] + sigma * z)[:, np.newaxis]
        incs = sample_increment(alpha, 1, t / m, gen, size=n * m).reshape(n, m, 1)
        pos = np.concatenate([x0[:, np.newaxis], x0[:, np.newaxis] + np.cumsum(incs, axis=1)], axis=1)
        a = np.trapezoid(unit_gaussian.evaluate(pos), np.linspace(0.0, t, m + 1), axis=1)
        q = 0.9 * stats.norm.pdf(x0[:, 0], center[0], sigma) + 0.1 * stats.t.pdf(x0[:, 0], alpha, center[0], sigma)
        est = estimate_heat_content(unit_gaussian, alpha, t, McConfig(n_paths=n, m_steps=m, seed=seed))
        expected = np.mean((np.expm1(-a) + a) / q) - t * unit_gaussian.integral()
        assert est.mean == pytest.approx(expected, rel=1e-12)


def test_default_proposal_geometry():
    v = mixture([1.0, -2.0], [0.0, 3.0], [1.0, 0.5])
    center, sigma = default_proposal(v, 1)
    assert center[0] == pytest.approx(2.0)  # |w|-weighted mean of 0 and 3
    assert sigma == pytest.approx(3.0 * (1.0 + 2.0))  # widest sd 1 + spread 2
    zc, zs = default_proposal(mixture([], [], [], dimension=1), 1)
    assert zc[0] == 0.0 and zs == 1.0


def test_step_count_bias_is_within_noise(unit_gaussian):
    coarse = estimate_heat_content(
        unit_gaussian, 2.0, 0.1, McConfig(n_paths=150_000, m_steps=64, seed=3)
    )
    fine = estimate_heat_content(
        unit_gaussian, 2.0, 0.1, McConfig(n_paths=150_000, m_steps=128, seed=4)
    )
    combined = math.hypot(coarse.standard_error, fine.standard_error)
    assert abs(coarse.mean - fine.mean) < 4 * combined


@pytest.mark.slow
@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_estimate_matches_split_step_reference(alpha):
    v = mixture([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])
    ref = oracles.q_reference([1.0, 0.5], [0.0, 1.2], [1.0, 2.5], alpha, 0.1)
    est = estimate_heat_content(v, alpha, 0.1, McConfig(n_paths=200_000, seed=1))
    assert abs(est.mean - ref) < 4 * est.standard_error


TWO_BUMP = ([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])


@pytest.mark.slow
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
def test_estimate_is_unbiased_for_heavy_tails(alpha, sign):
    # se <= 7.5e-5 lets a bias of 3e-4 fail at 4 se; the heavy tails of
    # alpha < 2 are where a light-tailed proposal loses mass
    weights = [sign * c for c in TWO_BUMP[0]]
    v = mixture(weights, TWO_BUMP[1], TWO_BUMP[2])
    ref = oracles.q_reference(weights, TWO_BUMP[1], TWO_BUMP[2], alpha, 0.1)
    est = estimate_heat_content(v, alpha, 0.1, McConfig(n_paths=65_536, seed=21))
    assert est.standard_error <= 7.5e-5
    assert abs(est.mean - ref) < 4 * est.standard_error


@pytest.mark.slow
@pytest.mark.parametrize("sigma", [0.3, 0.5])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_narrow_proposal_stays_unbiased(alpha, sigma):
    # a Gaussian proposal this narrow never samples the |x|^{-1-alpha} tail of
    # the integrand; the Student-t component of the mixture does
    v = gaussian(weight=-1.0)
    ref = oracles.q_reference([-1.0], [0.0], [1.0], alpha, 0.1)
    est = estimate_heat_content(v, alpha, 0.1, McConfig(n_paths=262_144, proposal_sigma=sigma, seed=22))
    assert abs(est.mean - ref) < 4 * est.standard_error


def test_first_order_residual_tends_to_exact_t2(unit_gaussian):
    # (Q(t) + t int V) / t^2 is the exact-t^2 profile T_2(t) plus an O(t)
    # remainder (t ||V||_1 ||V||_inf^2 e^{t ||V||_inf} after the division by
    # t^2) plus Monte Carlo error; Q itself is checked against the split-step
    # reference, which has no remainder
    t = 0.05
    q = estimate_heat_content(unit_gaussian, 2.0, t, McConfig(n_paths=200_000, seed=8))
    assert abs(q.mean - oracles.q_reference([1.0], [0.0], [1.0], 2.0, t)) < 4 * q.standard_error
    lifted = (q.mean + t * unit_gaussian.integral()) / t**2
    sup = unit_gaussian.sup_norm()
    remainder = t * unit_gaussian.l1_norm() * sup**2 * math.exp(t * sup)
    assert abs(lifted - t2_exact(unit_gaussian, 2.0, t)) < 4 * q.standard_error / t**2 + remainder


def test_config_validation(unit_gaussian):
    with pytest.raises(ValueError):
        McConfig(n_paths=50)
    with pytest.raises(ValueError):
        McConfig(n_paths=1000, m_steps=0)
    with pytest.raises(ValueError):
        McConfig(n_paths=1000, seed=-1)
    with pytest.raises(ValueError):
        McConfig(n_paths=1000, threads=0)
    with pytest.raises(ValueError):
        McConfig(n_paths=1000, proposal_sigma=0.0)
    # integer fields take integers only: a float or a bool would fail later, or run as 1
    for field, val in (("n_paths", 1e4), ("m_steps", 8.0), ("seed", 1.0), ("threads", True), ("n_paths", True)):
        with pytest.raises(ValueError, match=field):
            McConfig(**({"n_paths": 1000} | {field: val}))
    numpy_ints = McConfig(n_paths=np.int64(1000), m_steps=np.int32(8), seed=np.uint64(2**64 - 1), threads=np.int8(2))
    assert numpy_ints == McConfig(n_paths=1000, m_steps=8, seed=2**64 - 1, threads=2)
    assert all(type(getattr(numpy_ints, f)) is int for f in ("n_paths", "m_steps", "seed", "threads"))
    with pytest.raises(ValueError):
        estimate_heat_content(unit_gaussian, 2.5, 0.1, McConfig(n_paths=1000))
    with pytest.raises(ValueError):
        estimate_heat_content(unit_gaussian, 2.0, 0.0, McConfig(n_paths=1000))
    # the sampler's alpha check runs first, so the message names alpha, not beta = alpha/2
    with pytest.raises(ValueError, match=r"alpha in \(1\.95, 2\)"):
        estimate_heat_content(unit_gaussian, 1.97, 0.1, McConfig(n_paths=1000))
    # V = 0 needs no paths, but its arguments are checked all the same
    zero = mixture([], [], [], dimension=1)
    for alpha, t, cfg in (
        (2.0, -1.0, McConfig(n_paths=1000)),
        (1.97, 0.1, McConfig(n_paths=1000)),
        (2.5, 0.1, McConfig(n_paths=1000)),
        (2.0, 0.1, McConfig(n_paths=1000, proposal_center=(0.0, 0.0))),
    ):
        with pytest.raises(ValueError):
            estimate_heat_content(zero, alpha, t, cfg)
