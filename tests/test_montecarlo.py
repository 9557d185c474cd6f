import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

import oracles
from fracheat import (
    McConfig,
    RngStream,
    coefficients,
    estimate_heat_content,
    estimate_series,
    gaussian,
    mixture,
    montecarlo,
    sample_increment,
    sampling,
    t2_exact,
)
from fracheat.cli import resolve_config
from fracheat.coefficients import t3_control_mean, t3_exact
from fracheat.montecarlo import (
    _BLOCK_POINTS,
    _COLUMNS,
    _TILE_POINTS,
    _chunk_summands,
    _start_mixture,
    _summand_bound,
    _third_order_means,
)
from fracheat.potentials import GaussianMixturePotential
from fracheat.sampling import sample_subordinator

# one signed mixture per dimension, for the chunk kernel's bit-identity checks
KERNEL_V = {
    1: mixture([0.8, -0.3, 0.5], [-0.5, 0.7, 1.5], [1.5, 0.6, 2.0]),
    2: mixture([1.0, -0.4], [(0.0, 0.0), (0.8, -0.3)], [1.0, 0.5]),
    3: mixture([1.0, -0.4], [(0.0, 0.0, 0.1), (0.8, -0.3, 0.2)], [1.0, 0.5]),
}
TWO_BUMP = ([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])
SERIES = (0.02, 0.05, 0.1, 0.2)


def _chunk(v, alpha, ts, cfg, chunk_index, n_chunk):
    """One chunk's columns, (len(_COLUMNS), len(ts), n_chunk), from the kernel's blocks, with the
    estimator's choice of control at each time."""
    path_control = _third_order_means(v, alpha, ts)[1]
    return np.concatenate(list(_chunk_summands(v, alpha, ts, path_control, cfg, chunk_index, n_chunk)), axis=2)


def _col(name):
    return _COLUMNS.index(name)


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


@pytest.mark.parametrize("alpha, v", [(2.0, gaussian()), (1.0, KERNEL_V[2])], ids=["a2-d1", "a1-d2"])
def test_thread_count_never_changes_the_estimate_across_blocks(alpha, v):
    # 2 full chunks and 1,500 paths: the last chunk spans a block boundary
    # (1,008 paths per block at 64 steps), and so does every full chunk; the
    # chunks' statistics of the four times are pooled in chunk order whichever
    # thread finished first
    n = 2 * 32768 + 1500
    assert n % 32768 > _BLOCK_POINTS // 65
    one = estimate_heat_content(v, alpha, SERIES, McConfig(n_paths=n, seed=4, threads=1))
    three = estimate_heat_content(v, alpha, SERIES, McConfig(n_paths=n, seed=4, threads=3))
    assert len(one) == len(SERIES) and one == three


@pytest.mark.parametrize("d, alpha", itertools.product((1, 2, 3), (1.0, 1.5, 2.0)))
def test_a_time_in_a_series_equals_a_lone_call(d, alpha):
    # the times share draws, never arithmetic: each one's estimate is the same
    # bits for any order or subset of the series it sits in, two chunks here
    v = KERNEL_V[d]
    cfg = McConfig(n_paths=32768 + 700, m_steps=4, seed=17)
    lone = {t: estimate_heat_content(v, alpha, t, cfg) for t in SERIES}
    assert all(isinstance(e, montecarlo.McEstimate) for e in lone.values())
    for ts in (SERIES, SERIES[::-1], (0.1, 0.02), (0.2,), (0.05, 0.2, 0.05)):
        series = estimate_heat_content(v, alpha, ts, cfg)
        assert isinstance(series, tuple)
        assert series == tuple(lone[t] for t in ts), ts
    assert estimate_heat_content(v, alpha, np.array(SERIES), cfg) == tuple(lone[t] for t in SERIES)
    assert [e for _, e in estimate_series(v, alpha, SERIES[::-1], cfg)] == [lone[t] for t in SERIES]


def test_a_series_checks_every_time():
    v, cfg = gaussian(), McConfig(n_paths=1000)
    for ts in ([], [0.1, -0.1], [0.1, True], (0.1, math.nan), ["0.1"], "0.1"):
        with pytest.raises(ValueError):
            estimate_heat_content(v, 1.5, ts, cfg)
    zero = mixture([], [], [], dimension=1)
    assert estimate_heat_content(zero, 1.5, [0.1, 0.2], cfg) == (montecarlo.McEstimate(0.0, 0.0, 1000),) * 2


@pytest.mark.parametrize("d, alpha", itertools.product((1, 2, 3), (0.8, 1.0, 1.5, 2.0)))
def test_blocked_kernel_is_bit_identical_to_the_unblocked_one(d, alpha):
    # the block size is part of the draw order, so the reference draws block by
    # block too; everything after the draws runs on whole-chunk arrays there,
    # with the same float operations in the same order: 3000 paths is not a
    # multiple of a block
    v = KERNEL_V[d]
    ts = (0.1, 0.02, 0.3)
    for n, m in itertools.product((100, 3000, 32768), (1, 7, 64)):
        cfg = McConfig(n_paths=n, m_steps=m, seed=13)
        blocked = _chunk(v, alpha, ts, cfg, 2, n)
        block = min(n, _BLOCK_POINTS // (m + 1))
        whole = oracles.chunk_summands_unblocked(v, alpha, ts, _third_order_means(v, alpha, ts)[1], cfg, 2, n, block)
        assert blocked.shape == (len(_COLUMNS), len(ts), n)
        for name, got, want in zip(_COLUMNS, blocked, whole):
            assert np.array_equal(got, want), (name, n, m)


@pytest.mark.parametrize("d, alpha", itertools.product((1, 2, 3), (0.8, 1.0, 1.5, 2.0)))
def test_blocked_kernel_is_bit_identical_with_uneven_tiles(d, alpha, monkeypatch):
    # tiles of 3/7 of a block's points leave a short last tile in every full block,
    # at 1, 7 and 64 steps alike
    monkeypatch.setattr(montecarlo, "_TILE_POINTS", 3 * _BLOCK_POINTS // 7 * d)
    test_blocked_kernel_is_bit_identical_to_the_unblocked_one(d, alpha)


@pytest.mark.parametrize("d, alpha", itertools.product((1, 2, 3), (1.0, 1.5, 2.0)))
def test_tile_size_never_changes_a_number(d, alpha, monkeypatch):
    # tiles are not part of the draw order and every float operation on a path
    # is the same in any tile: a two-chunk series at 1 and 2 threads gives the
    # same estimates with tiles that split a block unevenly (5000 of 13,107
    # paths at 4 steps), that equal a block, and that exceed a chunk
    v, m = KERNEL_V[d], 4
    cfg = McConfig(n_paths=32768 + 700, m_steps=m, seed=17)
    want = estimate_heat_content(v, alpha, SERIES, cfg)
    block = _BLOCK_POINTS // (m + 1)
    assert 5000 < block and block % 5000
    for paths in (5000, block, 40_000):
        monkeypatch.setattr(montecarlo, "_TILE_POINTS", paths * (m + 1) * d)
        for threads in (1, 2):
            got = estimate_heat_content(v, alpha, SERIES, replace(cfg, threads=threads))
            assert got == want, (paths, threads)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_evaluation_walks_each_block_in_tiles(d, monkeypatch):
    # V on path positions is evaluated one tile at a time, never on a whole
    # block, and every path of the chunk is evaluated once per time
    v, m, n, ts = KERNEL_V[d], 64, 3000, (0.1, 0.02)
    block, tile = _BLOCK_POINTS // (m + 1), _TILE_POINTS // ((m + 1) * d)
    assert tile < block
    shapes = []
    evaluate = GaussianMixturePotential.evaluate

    def spy(self, x):
        shapes.append(np.shape(x))
        return evaluate(self, x)

    monkeypatch.setattr(GaussianMixturePotential, "evaluate", spy)
    _chunk(v, 1.5, ts, McConfig(n_paths=n, m_steps=m), 0, n)
    on_paths = [s for s in shapes if len(s) == 3]
    assert all(s[1:] == (m, d) and s[0] <= tile for s in on_paths), on_paths
    assert sum(s[0] for s in on_paths) == n * len(ts)


@pytest.mark.parametrize("d, alpha, threads", [(1, 1.5, 1), (2, 1.0, 3), (3, 2.0, 2)])
def test_plain_mean_is_the_estimate_without_the_control_variate(d, alpha, threads):
    # every field of the estimate, bit for bit, from the unblocked oracle's
    # columns over two chunks, pooled block by block and chunk by chunk;
    # plain_mean = mean(w) - t int V is the estimate as it was computed before
    # any control was subtracted, and t2_mean the estimate with y alone
    v, ts = KERNEL_V[d], (0.1, 0.04)
    n = 32768 + 3000
    cfg = McConfig(n_paths=n, m_steps=16, seed=7, threads=threads)
    ests = estimate_heat_content(v, alpha, ts, cfg)
    block = _BLOCK_POINTS // 17
    controls, path_control = _third_order_means(v, alpha, ts)
    parts = [oracles.chunk_summands_unblocked(v, alpha, ts, path_control, cfg, i, size, min(size, block))
             for i, size in enumerate((32768, 3000))]
    for k, (t, est, s) in enumerate(zip(ts, ests, oracles.pooled_statistics(parts, block))):
        mean = {name: s["mean"][i] for i, name in enumerate(_COLUMNS)}
        se = {name: math.sqrt(s["ss"][i] / (n - 1)) / math.sqrt(n) for i, name in enumerate(_COLUMNS)}
        t2, ec, vol = t * t * t2_exact(v, alpha, t), float(controls[k]), t * v.integral()
        assert s["n"] == est.n_samples == n
        assert est.plain_mean == mean["w"] - vol
        assert est.t2_residual == mean["y"] - t2
        assert est.t2_residual_se == se["y"]
        assert est.t2_mean == mean["w - y"] + t2 - vol
        assert est.t2_standard_error == se["w - y"]
        assert est.t3_residual == mean["c"] - ec
        assert est.t3_residual_se == se["c"]
        assert est.mean == mean["w - y - c"] + t2 + ec - vol
        assert est.standard_error == se["w - y - c"]
        # the pooled statistics are the whole sample's, to rounding
        r = np.concatenate([p[_col("w - y - c"), k] for p in parts])
        assert mean["w - y - c"] == pytest.approx(float(r.mean()), rel=1e-13)
        assert est.standard_error == pytest.approx(float(r.std(ddof=1) / math.sqrt(n)), rel=1e-11)
        # each residual is formed path by path: w - y - c is the difference of the other columns
        for p in parts:
            assert np.array_equal(p[_col("w - y - c"), k], (p[_col("w"), k] - p[_col("y"), k]) - p[_col("c"), k])


D1_MIXTURES = {
    "gauss+": ([1.0], [0.0], [1.0]),
    "gauss-": ([-1.0], [0.0], [1.0]),
    "two-bump+": TWO_BUMP,
    "two-bump-": ([-1.0, -0.5], TWO_BUMP[1], TWO_BUMP[2]),
    "signed": ([0.8, -0.3, 0.5], [-0.5, 0.7, 1.5], [1.5, 0.6, 2.0]),
}


@pytest.mark.parametrize("alpha", [0.8, 1.5, 2.0])
@pytest.mark.parametrize("name", list(D1_MIXTURES))
def test_kernel_agrees_with_the_proposal_oracle(name, alpha):
    # the earlier importance-sampled estimator and this one have the same
    # mean Q(t); one chunk of each, on the same seed
    v = mixture(*D1_MIXTURES[name])
    n, m, t, seed = 32768, 64, 0.1, 31
    new = estimate_heat_content(v, alpha, t, McConfig(n_paths=n, m_steps=m, seed=seed))
    w = oracles.proposal_chunk_summands(v, alpha, t, m, seed, n)
    old_mean, old_se = w.mean() - t * v.integral(), w.std(ddof=1) / math.sqrt(n)
    assert abs(new.mean - old_mean) < 4 * math.hypot(new.standard_error, old_se)


def test_every_summand_lies_within_its_bound(monkeypatch):
    v = KERNEL_V[1]
    t = 0.4
    bound = _summand_bound(v, t)
    assert bound == pytest.approx(0.5 * t**2 * _start_mixture(v)[1].sum() * 1.6 * math.exp(0.3 * t))
    b = t * 1.6  # t sum_i |c_i|
    cv_bound = bound * b  # |e^{-A_U} - 1| <= b e^{t sum_{c_i<0} |c_i|}
    # |e^{-A_U} - 1 + A_U| <= (b^2 / 2) e^{t sum_{c_i<0} |c_i|} for c'' = -y A_U (d = 1 here), and
    # |e^{-A_U} - 1 + t s V(x0)| <= b (1 + b/2) e^{t sum_{c_i<0} |c_i|} for c' = -y t s V(x0) (d = 3 at alpha < 2)
    path_bound, frozen_bound = 0.5 * bound * b * b, cv_bound * (1.0 + 0.5 * b)
    v3 = KERNEL_V[3]
    assert sum(abs(c) for c in v3.weights) == 1.4
    for u, alpha, cv3_bound in ((v, 0.8, path_bound), (v, 2.0, path_bound), (v3, 1.5, _summand_bound(v3, t) * t * 1.4 * (1.0 + 0.7 * t))):
        cols = _chunk(u, alpha, [t], McConfig(n_paths=5000), 0, 5000)
        assert np.abs(cols[_col("w")]).max() <= _summand_bound(u, t)
        assert np.abs(cols[_col("w - y")]).max() <= _summand_bound(u, t) * t * sum(abs(c) for c in u.weights)
        assert np.abs(cols[_col("w - y - c")]).max() <= cv3_bound
    # a kernel that breaks any bound, by more than rounding, is caught
    kernel = _chunk_summands

    def last_path(w_last, y_last, c_last=0.0):
        # the last path of the last block, its residuals formed from the patched values
        def patched(*a):
            blocks = list(kernel(*a))
            cols = blocks[-1]
            w, y, c = w_last, y_last, c_last
            for name, x in (("w", w), ("y", y), ("c", c), ("w - y", w - y), ("w - y - c", (w - y) - c)):
                cols[_col(name), :, -1] = x
            return iter(blocks)

        return patched

    for case, name in (
        ((-1.001 * bound, 0.0), "summand"),
        ((0.0, 1.001 * cv_bound), "summand less y"),
        ((0.5 * bound, 0.5 * bound + 1.001 * cv_bound), "summand less y"),
        # a corrupted c'': w, y and w - y within their bounds, w - y - c'' past its own
        ((0.0, 0.0, 1.001 * path_bound), "summand less y and c''"),
        ((0.5 * bound, 0.5 * bound - 0.5 * cv_bound, -1.001 * path_bound + 0.5 * cv_bound), "summand less y and c''"),
        # at the c' bound, which is wider than b^2/2, a c'' column still fails
        ((0.0, 0.0, 0.999 * frozen_bound), "summand less y and c''"),
    ):
        monkeypatch.setattr(montecarlo, "_chunk_summands", last_path(*case))
        with pytest.raises(RuntimeError, match=f"^{name} [^ ]+ above its bound"):
            estimate_heat_content(v, 1.5, t, McConfig(n_paths=1000))
    for case in (
        (bound * (1 + 1e-13), bound * (1 + 1e-13)),
        # c'' = w - y here, so that w - y - c'' = 0 stays within its tighter bound
        (0.0, cv_bound * (1 + 1e-13), -cv_bound * (1 + 1e-13)),
        (0.0, 0.0, path_bound * (1 + 1e-13)),
    ):
        monkeypatch.setattr(montecarlo, "_chunk_summands", last_path(*case))
        estimate_heat_content(v, 1.5, t, McConfig(n_paths=1000))
    # in d = 3 at alpha < 2 the control is c', held to its own bound
    frozen_bound = _summand_bound(v3, t) * t * 1.4 * (1.0 + 0.7 * t)
    monkeypatch.setattr(montecarlo, "_chunk_summands", last_path(0.0, 0.0, 1.001 * frozen_bound))
    with pytest.raises(RuntimeError, match="^summand less y and c' [^ ]+ above its bound"):
        estimate_heat_content(v3, 1.5, t, McConfig(n_paths=1000))
    monkeypatch.setattr(montecarlo, "_chunk_summands", last_path(0.0, 0.0, frozen_bound * (1 + 1e-13)))
    estimate_heat_content(v3, 1.5, t, McConfig(n_paths=1000))


@pytest.mark.parametrize(
    "v, alpha, ts, exact",
    [
        # centres 30 apart: the polar rule of T_3 starts at a finer step and converges;
        # 100 apart: that step would lie below its finest, so every time takes c'
        (mixture([1.0, 1.0], [-15.0, 15.0], [1.0, 1.0]), 1.5, (0.02, 0.2, 1.0), [True] * 3),
        (mixture([1.0, 1.0], [-50.0, 50.0], [1.0, 1.0]), 1.5, (0.02, 0.2, 1.0), [False] * 3),
        # a sharp component at alpha = 2: a t = 100 converges, a t = 10^4 does not
        (mixture([1.0], [0.0], [100.0]), 2.0, (1.0,), [True]),
        (mixture([1.0], [0.0], [1e4]), 2.0, (0.01, 1.0), [True, False]),
    ],
)
def test_estimate_falls_back_to_the_frozen_control_where_t3_has_no_rule(v, alpha, ts, exact):
    # where T_3's rule does not converge, that time's control is c' = -y t s V(x0) with its own mean;
    # each time's control and numbers are those of a lone call, and each row of the
    # paths' own check of E c holds
    cfg = McConfig(n_paths=20_000, seed=3)
    ests = estimate_heat_content(v, alpha, ts, cfg)
    assert [est.path_control for est in ests] == exact
    for t, est in zip(ts, ests):
        assert abs(est.t3_residual) < 4 * est.t3_residual_se, t
        assert estimate_heat_content(v, alpha, t, cfg) == est


def test_signed_2d_report_config_subtracts_the_path_control():
    # the signed d = 2 benchmark workload at alpha = 1 (seed 12345, 16,384 paths): every
    # time takes c'' with the polar rule's T_3, and the paths' own check of E c'' holds
    v = mixture([1.0, -0.6], [(0.0, 0.0), (0.8, 0.3)], [1.0, 0.7], dimension=2)
    ests = estimate_heat_content(v, 1.0, SERIES, McConfig(n_paths=16_384, m_steps=64, seed=12345))
    assert [est.path_control for est in ests] == [True] * len(SERIES)
    for t, est in zip(SERIES, ests):
        assert abs(est.t3_residual) < 4 * est.t3_residual_se, t


def test_one_evaluation_of_t3_decides_every_time(monkeypatch):
    # a sharp component converges early and falls back at t = 1: each time's rule
    # runs once (a failed series was once retried time by time), and each time's
    # control and E c are a lone call's, bit for bit
    v = mixture([1.0, 0.5, -0.3, 0.2], [0.0, 0.5, 1.0, -1.0], [1e4, 1.0, 2.0, 0.5])
    ts = [0.02, 0.05, 0.1, 1.0]
    runs, real = [], coefficients._t3_heat

    def counted(v, times):
        runs.extend(times.tolist())
        return real(v, times)

    monkeypatch.setattr(coefficients, "_t3_heat", counted)
    means, path_control = _third_order_means(v, 2.0, ts)
    assert runs == ts and path_control.tolist() == [True, True, True, False]
    for k, t in enumerate(ts):
        runs.clear()
        lone = _third_order_means(v, 2.0, [t])
        assert runs == [t] and (lone[0].tobytes(), lone[1][0]) == (means[k : k + 1].tobytes(), path_control[k])


@pytest.mark.parametrize("alpha, draws", [(1.5, 34_768 * 64), (2.0, 0), (1.0, 0)])
def test_subordinator_draws_are_counted_through_the_module_name(monkeypatch, alpha, draws):
    # the kernel draws every increment through sample_increment, which looks
    # sample_subordinator up in sampling: in d = 2 at alpha < 2, alpha != 1
    # every path step is one draw, while the Gaussian law and the direct laws
    # (CMS in d = 1, radial Cauchy at alpha = 1 in d = 2) draw none
    sizes = []

    def counted(beta, span, rng, size=None):
        sizes.append(size)
        return sample_subordinator(beta, span, rng, size=size)

    monkeypatch.setattr(sampling, "sample_subordinator", counted)
    for d, expected in ((2, draws), (1, 0)):
        sizes.clear()
        estimate_heat_content(KERNEL_V[d], alpha, 0.1, McConfig(n_paths=34_768, m_steps=64, seed=3, threads=2))
        assert sum(sizes) == expected, d


def _traced_peak(fun) -> int:
    tracemalloc.start()
    try:
        fun()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chunk_kernel_peak_memory(unit_gaussian):
    # a full chunk at 64 steps: no path-sized array may be built, so for every
    # alpha the peak stays below one (n, m + 1) float64 array, which one
    # whole-chunk subordinator call would already exceed
    n, m, t = 32768, 64, 0.1
    cfg = McConfig(n_paths=n, m_steps=m)
    limit = n * (m + 1) * 8
    for alpha in (1.5, 2.0):
        assert _traced_peak(lambda: _chunk(unit_gaussian, alpha, [t], cfg, 0, n)) < limit
    assert _traced_peak(lambda: sample_subordinator(0.75, 1.0, RngStream(0, 0), size=n * m)) > limit


def test_series_peak_memory_does_not_grow_with_the_chunk_count():
    # each block's summands are reduced to per-time statistics at once, so a
    # four-time estimate over 8 chunks peaks where one over 2 chunks does
    v = KERNEL_V[1]
    estimate_heat_content(v, 1.5, SERIES, McConfig(n_paths=1000))  # T_2 and the mixture's arrays, cached
    peaks = [
        _traced_peak(lambda: estimate_heat_content(v, 1.5, SERIES, McConfig(n_paths=k * 32768, m_steps=4)))
        for k in (2, 8)
    ]
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_zero_potential_has_zero_variance(grid1):
    z = mixture([], [], [], dimension=1)
    est = estimate_heat_content(z, 1.5, 0.3, McConfig(n_paths=1_000))
    assert est.mean == 0.0 and est.standard_error == 0.0
    # V = 0 written with zero weights takes the same exact path: the polar T_3 rule
    # (d <= 2, alpha < 2) once divided by its empty set of radii, and the start-point
    # draw (alpha = 2 or d = 3) by a zero total mass
    for d, alpha in itertools.product((1, 2, 3), (1.0, 1.5, 2.0)):
        for z in (gaussian(center=(0.0,) * d).scaled(0.0), mixture([0.0, -0.0], [(0.0,) * d, (1.0,) * d], [1.0, 2.0])):
            for est in estimate_heat_content(z, alpha, [0.05, 0.3], McConfig(n_paths=1_000)):
                assert est.mean == 0.0 and est.standard_error == 0.0, (d, alpha, z)


def test_exponent_integral_is_trapezoid_rule():
    # rebuild the estimator's single chunk from its stream, in its draw order:
    # component choice, start point, time U, then block by block the span-1
    # sample_increment draws, scaled by (U/m)^{1/alpha}.  A is
    # the trapezoid rule on [0, U], each path adds (t^2/2) Z (V/g)(x0) e^-A V(X_U)
    # with g the |c_i|-weighted mixture, and t int V is subtracted at the end
    v = mixture([1.0, -0.4], [0.0, 0.8], [1.0, 0.5])
    n, m, t, seed = 4096, 16, 0.5, 2
    block = _BLOCK_POINTS // (m + 1)
    assert n % block
    sd = [1.0 / math.sqrt(2.0), 1.0]
    mass = np.array([math.sqrt(math.pi), 0.4 * math.sqrt(2.0 * math.pi)])
    for alpha in (1.5, 2.0):
        gen = RngStream(seed, 0).generator
        comp = gen.choice(2, size=n, p=mass / mass.sum())
        x0 = gen.standard_normal(n) * np.array(sd)[comp] + np.array([0.0, 0.8])[comp]
        u = t * (1.0 - np.sqrt(1.0 - gen.random(n)))
        incs = np.concatenate(
            [sample_increment(alpha, 1, 1.0, gen, size=min(block, n - lo) * m) for lo in range(0, n, block)]
        ).reshape(n, m)
        incs *= (u[:, np.newaxis] / m) ** (1.0 / alpha)
        pos = np.concatenate([x0[:, np.newaxis], x0[:, np.newaxis] + np.cumsum(incs, axis=1)], axis=1)
        vals = v.evaluate(pos)
        a = np.trapezoid(vals, u[:, np.newaxis] * np.linspace(0.0, 1.0, m + 1), axis=1)
        g = mass[0] * stats.norm.pdf(x0, 0.0, sd[0]) + mass[1] * stats.norm.pdf(x0, 0.8, sd[1])
        summands = 0.5 * t**2 * mass.sum() * vals[:, 0] / g * np.exp(-a) * vals[:, -1]
        est = estimate_heat_content(v, alpha, t, McConfig(n_paths=n, m_steps=m, seed=seed))
        assert est.plain_mean == pytest.approx(summands.mean() - t * v.integral(), rel=1e-12)
        controls = 0.5 * t**2 * mass.sum() * vals[:, 0] / g * vals[:, -1]
        assert est.t2_residual == pytest.approx(controls.mean() - t**2 * t2_exact(v, alpha, t), abs=1e-15)
        cv = (summands - controls).mean() + t**2 * t2_exact(v, alpha, t) - t * v.integral()
        assert est.t2_mean == pytest.approx(cv, rel=1e-12)
        # c'' = -y A_U, the first-order term of e^{-A_U} - 1, with E c'' = -t^3 T_3
        path = -controls * a
        ec = -(t**3) * t3_exact(v, alpha, [t])[0]
        assert est.t3_residual == pytest.approx(path.mean() - ec, abs=1e-15)
        cv3 = (summands - controls - path).mean() + t**2 * t2_exact(v, alpha, t) + ec - t * v.integral()
        assert est.mean == pytest.approx(cv3, rel=1e-12)


def test_default_proposal_geometry():
    # the start points' proposal is the dominating mixture g = sum |c_i| e^{-a_i |x - mu_i|^2}:
    # component i carries mass |c_i| (pi / a_i)^{d/2}, and Z is their sum
    v = mixture([1.0, -2.0], [0.0, 3.0], [1.0, 0.5])
    g, mass = _start_mixture(v)
    assert g.weights == (1.0, 2.0) and g.centers == v.centers and g.sharpness == v.sharpness
    assert mass == pytest.approx([math.sqrt(math.pi), 2.0 * math.sqrt(2.0 * math.pi)])
    assert mass.sum() == pytest.approx(g.integral())
    _, mass2 = _start_mixture(mixture([-0.5, 1.0], [(0.0, 0.0), (1.0, 2.0)], [2.0, 0.25]))
    assert mass2 == pytest.approx([0.5 * math.pi / 2.0, 4.0 * math.pi])
    _, empty = _start_mixture(mixture([], [], [], dimension=1))
    assert empty.size == 0 and empty.sum() == 0.0


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
    # the se is about 1.8e-8; at the reference's default half-width 64 the jumps
    # that wrap around its period move it by 5e-8 at alpha = 1, so it takes 256
    v = mixture([1.0, 0.5], [0.0, 1.2], [1.0, 2.5])
    ref = oracles.q_reference([1.0, 0.5], [0.0, 1.2], [1.0, 2.5], alpha, 0.1, half_extent=256.0, n=8192)
    est = estimate_heat_content(v, alpha, 0.1, McConfig(n_paths=200_000, seed=1))
    assert abs(est.mean - ref) < 4 * est.standard_error



@pytest.mark.slow
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("alpha", [0.8, 1.0, 1.5])
def test_estimate_is_unbiased_for_heavy_tails(alpha, sign):
    # se <= 7.5e-5 lets a bias of 3e-4 fail at 4 se; the heavy jumps of
    # alpha < 2 carry paths far from V and back.  The se is about 3e-8, so the
    # reference's box takes half-width 256 at its default mesh step: at 64 the
    # jumps that wrap around its period moved it by 1.4e-7 at alpha = 0.8, and
    # half-widths 64, 128 and 256 step by 1.1e-7 and 3.1e-8 toward the estimate
    weights = [sign * c for c in TWO_BUMP[0]]
    v = mixture(weights, TWO_BUMP[1], TWO_BUMP[2])
    ref = oracles.q_reference(weights, TWO_BUMP[1], TWO_BUMP[2], alpha, 0.1, half_extent=256.0, n=8192)
    est = estimate_heat_content(v, alpha, 0.1, McConfig(n_paths=65_536, seed=21))
    assert est.standard_error <= 7.5e-5
    assert abs(est.mean - ref) < 4 * est.standard_error


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("alpha", [1.99, 1.999])
def test_estimate_near_alpha_two_matches_split_step_reference(alpha, sign):
    # CMS with its reflected angles; alpha < 2 puts mass far out, so the
    # reference runs on a box of half-width 32
    ref = oracles.q_reference([sign], [0.0], [1.0], alpha, 0.1, half_extent=32.0, n=1024)
    est = estimate_heat_content(gaussian(weight=sign), alpha, 0.1, McConfig(n_paths=262_144, seed=23))
    assert abs(est.mean - ref) < 4 * est.standard_error


@pytest.mark.parametrize("d", [2, 3])
def test_estimate_near_alpha_two_runs_in_higher_dimensions(d):
    # Kanter at beta = alpha/2 near 1.  Q(t) moves by 2e-6 (d = 2) and 5e-6
    # (d = 3) between alpha = 1.99 and 2, which an se of 3e-7 resolves; that
    # move is almost all in t^2 T_2 + E c', so what is left of Q without them
    # is compared across alpha, whichever control each estimate subtracts
    v, t = mixture([1.0], [[0.0] * d], [1.0]), 0.1
    exact = lambda alpha: t * t * t2_exact(v, alpha, t) + t3_control_mean(v, alpha, [t])[0]
    ref = estimate_heat_content(v, 2.0, t, McConfig(n_paths=16_384, seed=24))
    for alpha in (1.99, 1.999):
        est = estimate_heat_content(v, alpha, t, McConfig(n_paths=16_384, seed=25))
        gap = (est.mean - exact(alpha)) - (ref.mean - exact(2.0))
        assert abs(gap) < 4 * math.hypot(est.standard_error, ref.standard_error), alpha


@pytest.mark.parametrize("d", [1, 2, 3])
def test_estimate_of_an_odd_potential_runs(d):
    # an odd V gives E c = 0: T_3 (d <= 2, or alpha = 2) and the pair integral of
    # E c' (d = 3 at alpha < 2) cancel to rounding; the estimate still runs,
    # and at alpha = 2 in d = 1 it meets the split-step reference
    centers = [[1.0] + [0.3] * (d - 1), [-1.0] + [-0.3] * (d - 1)]
    v = mixture([1.0, -1.0], centers, [1.0, 1.0], dimension=d)
    ts = (0.05, 0.2)
    for alpha in (1.5, 2.0):
        ests = estimate_heat_content(v, alpha, ts, McConfig(n_paths=16_384, seed=26))
        for t, est in zip(ts, ests):
            assert abs(est.t3_residual) < 4 * est.t3_residual_se, (alpha, t)
            if d == 1 and alpha == 2.0:
                ref = oracles.q_reference([1.0, -1.0], [1.0, -1.0], [1.0, 1.0], alpha, t, half_extent=32.0, n=1024)
                assert abs(est.mean - ref) < 4 * est.standard_error, t


@pytest.mark.slow
@pytest.mark.parametrize("sigma", [0.3, 0.5])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_narrow_proposal_stays_unbiased(alpha, sigma):
    # a config may still name a start-point proposal as narrow as these, as the
    # earlier estimator's did; no number reads it, and the well's heat content
    # matches the split-step reference
    raw = {"dimension": 1, "alpha": alpha, "potential": [{"weight": -1.0, "center": 0.0, "sharpness": 1.0}],
           "mc": {"n_paths": 262_144, "seed": 22, "proposal": {"sigma": sigma}}}
    cfg = resolve_config(raw).mc
    assert cfg == McConfig(n_paths=262_144, seed=22)
    ref = oracles.q_reference([-1.0], [0.0], [1.0], alpha, 0.1)
    est = estimate_heat_content(gaussian(weight=-1.0), alpha, 0.1, cfg)
    assert abs(est.mean - ref) < 4 * est.standard_error


@pytest.mark.slow
def test_path_noise_is_steady_across_seeds():
    # alpha = 0.8, V = -e^{-x^2}: a start far out in a proposal tail whose path
    # jumps into V once made one seed's sd sqrt(n) read 7x another's; the
    # summands are bounded now, so sd sqrt(n) is the same on every seed
    v = gaussian(weight=-1.0)
    n = 131_072
    spread = [
        estimate_heat_content(v, 0.8, 0.1, McConfig(n_paths=n, seed=seed)).standard_error * math.sqrt(n)
        for seed in range(8)
    ]
    assert max(spread) / min(spread) < 1.05


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
    # integer fields take integers only: a float or a bool would fail later, or run as 1
    for field, val in (("n_paths", 1e4), ("m_steps", 8.0), ("seed", 1.0), ("threads", True), ("n_paths", True)):
        with pytest.raises(ValueError, match=field):
            McConfig(**({"n_paths": 1000} | {field: val}))
    numpy_ints = McConfig(n_paths=np.int64(1000), m_steps=np.int32(8), seed=np.uint64(2**64 - 1), threads=np.int8(2))
    assert numpy_ints == McConfig(n_paths=1000, m_steps=8, seed=2**64 - 1, threads=2)
    assert all(type(getattr(numpy_ints, f)) is int for f in ("n_paths", "m_steps", "seed", "threads"))
    with pytest.raises(ValueError):
        estimate_heat_content(unit_gaussian, 2.5, 0.1, McConfig(n_paths=1000))
    # a bool alpha once ran as alpha = 1; a numpy float is a real number and passes
    with pytest.raises(ValueError, match=r"alpha must lie in \(0, 2\], got True"):
        estimate_heat_content(unit_gaussian, True, 0.1, McConfig(n_paths=1000))
    assert estimate_heat_content(unit_gaussian, np.float64(2.0), 0.1, McConfig(n_paths=1000)) == (
        estimate_heat_content(unit_gaussian, 2.0, 0.1, McConfig(n_paths=1000))
    )
    for t in (0.0, math.inf, math.nan, True):
        with pytest.raises(ValueError, match="t must be"):
            estimate_heat_content(unit_gaussian, 2.0, t, McConfig(n_paths=1000))
    # every alpha in (0, 2] runs; alpha in (1.95, 2) was once refused, with and without paths
    assert math.isfinite(estimate_heat_content(unit_gaussian, 1.97, 0.1, McConfig(n_paths=1000)).mean)
    # V = 0 needs no paths, but its arguments are checked all the same
    zero = mixture([], [], [], dimension=1)
    assert estimate_heat_content(zero, 1.97, 0.1, McConfig(n_paths=1000)) == montecarlo.McEstimate(0.0, 0.0, 1000)
    for alpha, t, cfg in (
        (2.0, -1.0, McConfig(n_paths=1000)),
        (2.5, 0.1, McConfig(n_paths=1000)),
    ):
        with pytest.raises(ValueError):
            estimate_heat_content(zero, alpha, t, cfg)
