import math

import numpy as np
import pytest

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
    # start points, then every increment; A is the trapezoid rule in time
    n, m, t, seed = 4096, 16, 0.5, 2
    for alpha in (1.5, 2.0):
        gen = RngStream(seed, 0).generator
        center, sigma = default_proposal(unit_gaussian, 1)
        x0 = center + sigma * gen.standard_normal((n, 1))
        incs = sample_increment(alpha, 1, t / m, gen, size=n * m).reshape(n, m, 1)
        pos = np.concatenate([x0[:, np.newaxis], x0[:, np.newaxis] + np.cumsum(incs, axis=1)], axis=1)
        a = np.trapezoid(unit_gaussian.evaluate(pos), np.linspace(0.0, t, m + 1), axis=1)
        q = np.exp(-((x0[:, 0] - center[0]) ** 2) / (2 * sigma**2)) / math.sqrt(2 * math.pi * sigma**2)
        est = estimate_heat_content(unit_gaussian, alpha, t, McConfig(n_paths=n, m_steps=m, seed=seed))
        assert est.mean == pytest.approx(np.mean(np.expm1(-a) / q), rel=1e-12)


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


def test_first_order_residual_tends_to_exact_t2(unit_gaussian):
    # (Q(t) + t int V) / t^2 is the exact-t^2 profile T_2(t) plus Monte Carlo error
    t = 0.05
    q = estimate_heat_content(unit_gaussian, 2.0, t, McConfig(n_paths=200_000, seed=8))
    lifted = (q.mean + t * unit_gaussian.integral()) / t**2
    assert abs(lifted - t2_exact(unit_gaussian, 2.0, t)) < 4 * q.standard_error / t**2


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
