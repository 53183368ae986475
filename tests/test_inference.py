"""Tests for posterior summaries, Bayes factor and ASE."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvspec.inference import (
    _pointwise_stats,
    ase,
    map_to_internal_time,
    posterior_mean_surface,
    savage_dickey_bf,
    summarize,
)
from tvspec.likelihood import EvaluationError
from tvspec.prior import PriorConfig, prior_prob_k1_equals_1
from tvspec.sampler import PosteriorSampleSet, SamplerConfig
from tvspec.surface import evaluate_surface


def make_samples(k1, log_tau, L=4, seed=71, k2=None):
    """Build a sample set by hand; atoms/sticks drawn once per draw."""
    rng = np.random.default_rng(seed)
    k1 = np.asarray(k1, dtype=np.int64)
    n = k1.size
    k2 = k1.copy() if k2 is None else np.asarray(k2, dtype=np.int64)
    return PosteriorSampleSet(
        k1=k1,
        k2=k2,
        log_tau=np.asarray(log_tau, dtype=float),
        V=rng.uniform(0.2, 0.8, size=(n, L)),
        W1=rng.uniform(size=(n, L + 1)),
        W2=rng.uniform(size=(n, L + 1)),
        log_post=np.zeros(n),
        prior=PriorConfig(),
        sampler=SamplerConfig(n_iter=10, burn_in=0, thin=1),
    )


class TestInternalTimeMap:
    def test_clamping_constant_extension(self):
        n, m = 300, 20
        assert map_to_internal_time(0.0, n, m) == 0.0
        assert map_to_internal_time(m / n, n, m) == 0.0
        assert map_to_internal_time(1.0, n, m) == 1.0
        assert map_to_internal_time(1.0 - m / n, n, m) == 1.0

    def test_interior_affine(self):
        n, m = 300, 20
        v = 0.5
        assert map_to_internal_time(v, n, m) == pytest.approx(
            (0.5 * 300 - 20) / 260
        )

    def test_too_short(self):
        with pytest.raises(ValueError):
            map_to_internal_time(0.5, 10, 5)


class TestSummarize:
    def test_single_constant_draw(self):
        s = make_samples([1], [np.log(3.0)])
        out = summarize(s, np.linspace(0, 1, 11), np.linspace(0, 1, 7), 300, 20)
        for surf in (out.mean, out.median, out.q05, out.q95):
            assert np.allclose(surf, 3.0, atol=1e-12)

    def test_two_constant_draws_nearest_rank(self):
        s = make_samples([1, 1], [np.log(2.0), np.log(4.0)])
        out = summarize(s, [0.3], [0.5], 300, 20)
        assert out.mean[0, 0] == pytest.approx(3.0)
        assert out.median[0, 0] == pytest.approx(3.0)
        assert out.q05[0, 0] == pytest.approx(2.0)
        assert out.q95[0, 0] == pytest.approx(4.0)

    def test_single_draw_all_stats_equal(self):
        s = make_samples([7], [0.4], seed=72)
        out = summarize(s, np.linspace(0, 1, 9), np.linspace(0, 1, 9), 300, 20)
        assert np.array_equal(out.mean, out.median)
        assert np.array_equal(out.mean, out.q05)
        assert np.array_equal(out.mean, out.q95)
        assert np.all(out.mean > 0.0)

    def test_boundary_columns_equal(self):
        s = make_samples([5, 9, 3], [0.1, 0.2, 0.3], seed=73)
        out = summarize(s, [0.0, 20.0 / 300.0, 0.05], [0.4], 300, 20)
        assert out.mean[0, 0] == out.mean[1, 0] == out.mean[2, 0]

    def test_quantile_ordering_and_pmf(self):
        rng = np.random.default_rng(74)
        s = make_samples(rng.integers(1, 15, size=40), rng.normal(size=40), seed=75)
        out = summarize(s, np.linspace(0, 1, 13), np.linspace(0, 1, 13), 300, 20)
        assert np.all(out.q05 <= out.median + 1e-12)
        assert np.all(out.median <= out.q95 + 1e-12)
        assert out.k1_pmf.sum() == pytest.approx(1.0)
        assert out.k1_pmf.size == 100
        assert np.array_equal(out.k1_pmf, [(s.k1 == k).mean() for k in range(1, 101)])

    def test_empty_samples_rejected(self):
        s = make_samples(np.empty(0, dtype=int), np.empty(0))
        with pytest.raises(ValueError, match="empty"):
            summarize(s, [0.5], [0.5], 300, 20)

    def test_mean_helper_matches_summarize(self):
        rng = np.random.default_rng(76)
        s = make_samples(rng.integers(1, 12, size=25), rng.normal(size=25), seed=77)
        tg = np.linspace(0, 1, 15)
        fg = np.linspace(0, 1, 10)
        out = summarize(s, tg, fg, 300, 20)
        mean = posterior_mean_surface(s, tg, fg, 300, 20)
        assert np.allclose(mean, out.mean, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", [1000, 100])
    def test_peak_memory(self, n):
        # The block of draws and the statistics bound what summarize holds:
        # nf * n + 4 * nt * nf floats, with room for three times that.
        rng = np.random.default_rng(83)
        nt, nf = 201, 101
        k1, k2 = rng.integers(1, 12, size=(2, n))
        samples = make_samples(k1, rng.normal(size=n), seed=84, k2=k2)
        tracemalloc.start()
        try:
            summarize(samples, np.linspace(0, 1, nt), np.linspace(0, 1, nf), 1500, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (nf * n + 4 * nt * nf) * 8


def per_draw_stats(samples, time_grid, freq_grid):
    """Reference summary: every draw through evaluate_surface, then numpy statistics."""
    uu, ll = np.meshgrid(map_to_internal_time(time_grid, 300, 20), freq_grid, indexing="ij")
    draws = np.array(
        [evaluate_surface(samples.surface_params(i), uu, ll) for i in range(len(samples))]
    )
    return (
        draws.mean(axis=0),
        np.median(draws, axis=0),
        np.quantile(draws, 0.05, axis=0, method="inverted_cdf"),
        np.quantile(draws, 0.95, axis=0, method="inverted_cdf"),
    )


def assert_summary_matches_reference(samples, time_grid, freq_grid):
    out = summarize(samples, time_grid, freq_grid, 300, 20)
    got = (out.mean, out.median, out.q05, out.q95)
    for g, want in zip(got, per_draw_stats(samples, time_grid, freq_grid)):
        np.testing.assert_allclose(g, want, rtol=1e-13, atol=0)
    mean = posterior_mean_surface(samples, time_grid, freq_grid, 300, 20)
    np.testing.assert_allclose(mean, out.mean, rtol=1e-13, atol=0)


class TestSummarizeAgainstPerDrawSurfaces:
    """summarize stacks draws by degrees and computes each distinct internal
    time once; the statistics must not depend on either."""

    @settings(max_examples=40, deadline=None)
    @given(
        degrees=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 12)), min_size=1,
                         max_size=4),
        n=st.integers(1, 60),
        nt=st.integers(1, 9),
        nf=st.integers(1, 9),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(degrees=[(3, 4)], n=1, nt=5, nf=4, seed=0)
    @example(degrees=[(2, 5), (6, 3), (2, 3)], n=1, nt=4, nf=3, seed=1)
    @example(degrees=[(2, 5), (6, 3), (2, 3)], n=9, nt=4, nf=3, seed=1)
    def test_matches_numpy_on_each_draw(self, degrees, n, nt, nf, seed):
        # Draws pick their degree pair at random, so the groups interleave.
        rng = np.random.default_rng(seed)
        k1, k2 = np.array(degrees)[rng.integers(0, len(degrees), size=n)].T
        samples = make_samples(k1, rng.normal(size=n), seed=seed, k2=k2)
        assert_summary_matches_reference(
            samples, np.linspace(0, 1, nt), np.sort(rng.uniform(size=nf))
        )

    def test_one_time_row_wider_than_the_block(self):
        # 1000 draws x 1001 frequencies in one time row.
        rng = np.random.default_rng(81)
        n, nf = 1000, 1001
        k1, k2 = rng.integers(1, 6, size=(2, n))
        samples = make_samples(k1, rng.normal(size=n), seed=82, k2=k2)
        assert_summary_matches_reference(samples, [0.2, 0.7], np.linspace(0, 1, nf))


class TestPointwiseStats:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 2000),
        cells=st.integers(1, 3),
        levels=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=1, cells=1, levels=50, seed=0)
    @example(n=2, cells=1, levels=50, seed=0)
    @example(n=1999, cells=2, levels=50, seed=0)
    @example(n=2000, cells=2, levels=50, seed=0)
    def test_sorted_order_matches_numpy(self, n, cells, levels, seed):
        # Few distinct levels give ties; many give distinct values.
        rng = np.random.default_rng(seed)
        block = rng.integers(0, levels, size=(n, cells)) + rng.uniform(size=(n, cells)) * (levels > 25)
        # numpy's summation order follows memory layout, so the exact mean
        # reference sums each cell's draws contiguously, as summarize stores them.
        ref = (
            np.ascontiguousarray(block.T).mean(axis=-1),
            np.median(block, axis=0),
            np.quantile(block, 0.05, axis=0, method="inverted_cdf"),
            np.quantile(block, 0.95, axis=0, method="inverted_cdf"),
        )
        for got, want in zip(_pointwise_stats(block.T.copy()), ref):
            assert np.array_equal(got, want)


class TestSavageDickey:
    def test_all_draws_stationary(self):
        s = make_samples(np.ones(50, dtype=int), np.zeros(50))
        bf = savage_dickey_bf(s, PriorConfig())
        assert bf == pytest.approx(27.2808, abs=1e-3)

    def test_no_draw_stationary(self):
        s = make_samples(np.full(50, 9), np.zeros(50))
        assert savage_dickey_bf(s, PriorConfig()) == 0.0

    def test_half_linear(self):
        k1 = np.array([1] * 25 + [4] * 25)
        s = make_samples(k1, np.zeros(50))
        full = 1.0 / prior_prob_k1_equals_1(PriorConfig())
        assert savage_dickey_bf(s, PriorConfig()) == pytest.approx(full / 2.0)

    def test_never_exceeds_ceiling(self):
        rng = np.random.default_rng(78)
        s = make_samples(rng.integers(1, 4, size=200), np.zeros(200), seed=79)
        assert savage_dickey_bf(s, PriorConfig()) <= 1.0 / prior_prob_k1_equals_1(
            PriorConfig()
        ) + 1e-12


class TestAse:
    def test_identical_surfaces(self):
        f = lambda u, lam: 1.0 + u + lam  # noqa: E731
        assert ase(f, f, 25) == 0.0

    def test_constant_e_ratio(self):
        f = lambda u, lam: np.full(np.broadcast(u, lam).shape, 2.0)  # noqa: E731
        g = lambda u, lam: np.full(np.broadcast(u, lam).shape, 2.0 * np.e)  # noqa: E731
        assert ase(f, g, 17) == pytest.approx(1.0, rel=1e-14)

    def test_double_loop_oracle(self):
        rng = np.random.default_rng(80)
        a = rng.uniform(0.5, 2.0, size=(10, 10))
        b = rng.uniform(0.5, 2.0, size=(10, 10))
        est = lambda u, lam: a  # noqa: E731
        tru = lambda u, lam: b  # noqa: E731
        got = ase(est, tru, 10, K=9)
        acc = 0.0
        for t in range(10):
            for j in range(10):
                acc += (np.log(a[t, j]) - np.log(b[t, j])) ** 2
        assert got == pytest.approx(acc / 100.0, abs=1e-12)

    def test_symmetry_and_scale_invariance(self):
        f = lambda u, lam: 0.3 + u**2 + lam  # noqa: E731
        g = lambda u, lam: 1.1 + u + 0.5 * lam  # noqa: E731
        assert ase(f, g, 20) == pytest.approx(ase(g, f, 20), rel=1e-14)
        cf = lambda u, lam: 7.0 * f(u, lam)  # noqa: E731
        cg = lambda u, lam: 7.0 * g(u, lam)  # noqa: E731
        assert ase(cf, cg, 20) == pytest.approx(ase(f, g, 20), rel=1e-12)

    def test_nonpositive_surface_rejected(self):
        f = lambda u, lam: u - 0.5  # noqa: E731
        g = lambda u, lam: np.ones(np.broadcast(u, lam).shape)  # noqa: E731
        with pytest.raises(EvaluationError, match="strictly positive"):
            ase(f, g, 10)
