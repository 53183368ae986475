"""Tests for the (thinned) dynamic Whittle likelihood."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspec.likelihood import (
    EvaluationError,
    build_grid,
    log_dynamic_whittle,
)
from tvspec.periodogram import WindowConfig, mod_index, moving_periodograms
from tvspec.signal import TimeSeries


def make_periodograms(n=120, m=5, seed=41):
    rng = np.random.default_rng(seed)
    return moving_periodograms(TimeSeries(rng.standard_normal(n)), WindowConfig(m=m))


class TestBuildGrid:
    def test_unthinned_full_coverage(self):
        g = build_grid(100, 10, 1)
        assert len(g) == 100
        assert np.array_equal(np.sort(g.t), np.arange(1, 101))
        assert np.array_equal(g.j, 1 + (g.t - 1) % 10)

    def test_thinned_example(self):
        g = build_grid(1500, 50, 2)
        assert g.n_blocks == 15
        assert len(g) == 750
        expected = np.concatenate(
            [np.arange(100 * l + 1, 100 * l + 51) for l in range(15)]
        )
        assert np.array_equal(np.sort(g.t), expected)

    def test_partial_final_block(self):
        g = build_grid(95, 10, 1)
        assert len(g) == 95
        assert np.array_equal(np.sort(g.t), np.arange(1, 96))
        # The last block starts at t = 91 and stops at j = 5.
        assert np.array_equal(g.t[-5:], np.arange(91, 96))
        assert np.array_equal(g.j[-5:], np.arange(1, 6))

    def test_unthinned_bijection_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            m = int(rng.integers(1, 40))
            T = int(rng.integers(m, 5 * m + 200))
            g = build_grid(T, m, 1)
            assert np.array_equal(np.sort(g.t), np.arange(1, T + 1)), (T, m)
            assert np.array_equal(g.j, mod_index(g.t, m))

    def test_no_duplicate_entries(self):
        for i in (1, 2, 3):
            g = build_grid(437, 17, i)
            assert np.unique(g.t).size == len(g)
            assert np.all(g.t <= 437)

    def test_thinning_reduces_count(self):
        n1 = len(build_grid(900, 30, 1))
        n2 = len(build_grid(900, 30, 2))
        n3 = len(build_grid(900, 30, 3))
        assert abs(n2 - n1 / 2) <= 30
        assert abs(n3 - n1 / 3) <= 30

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_blocks_match_definition(self, data):
        m = data.draw(st.integers(1, 40), label="m")
        T = data.draw(st.integers(m, 8 * m + 50), label="T")
        thinning = data.draw(st.integers(1, 3), label="thinning")
        # Block l = 1, 2, ... starts at thinning (l - 1) m and holds the next m
        # times up to T; blocks are added while their start is below T.
        blocks, start = [], 0
        while start < T:
            blocks.append(np.arange(start + 1, min(start + m, T) + 1))
            start += thinning * m
        g = build_grid(T, m, thinning)
        expected = np.concatenate(blocks)
        assert g.t.dtype == expected.dtype
        assert np.array_equal(g.t, expected)
        assert np.array_equal(g.j, mod_index(expected, m))

    def test_rescaled_coordinates(self):
        g = build_grid(50, 4, 1)
        assert np.allclose(g.u, g.t / 50)
        assert np.allclose(g.lam, 2.0 * g.j / 9.0)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            build_grid(5, 10, 1)
        with pytest.raises(ValueError):
            build_grid(100, 10, 4)


class TestLogDynamicWhittle:
    def test_constant_surface_closed_form(self):
        pg = make_periodograms()
        g = build_grid(pg.T, pg.m, 1)
        c = 0.37
        got = log_dynamic_whittle(np.full(len(g), c), pg, g)
        expected = -len(g) * np.log(c) - pg.ordinates.sum() / c
        assert got == pytest.approx(expected, rel=1e-12)

    def test_constant_surface_maximized_at_mean(self):
        pg = make_periodograms()
        g = build_grid(pg.T, pg.m, 1)
        mean_mi = pg.ordinates.mean()
        best = log_dynamic_whittle(np.full(len(g), mean_mi), pg, g)
        for c in np.linspace(0.2, 3.0, 29) * mean_mi:
            if abs(c - mean_mi) < 1e-12:
                continue
            assert log_dynamic_whittle(np.full(len(g), c), pg, g) < best

    def test_product_oracle(self):
        rng = np.random.default_rng(43)
        pg = make_periodograms(n=70, m=5)
        g = build_grid(pg.T, pg.m, 1)
        f = rng.uniform(0.5, 2.0, size=len(g))
        got = log_dynamic_whittle(f, pg, g)
        mi = pg.ordinates[g.t - 1]
        prod = np.prod((1.0 / f) * np.exp(-mi / f))
        assert got == pytest.approx(np.log(prod), abs=1e-8)

    def test_monotone_data_sensitivity(self):
        pg = make_periodograms()
        g = build_grid(pg.T, pg.m, 1)
        f = np.linspace(0.5, 1.5, len(g))
        base = log_dynamic_whittle(f, pg, g)
        delta = 0.125
        bumped = MovingPgStub(pg, entry=7, delta=delta)
        assert log_dynamic_whittle(f, bumped, g) == pytest.approx(
            base - delta / f[7], rel=1e-10
        )

    def test_nonpositive_surface_names_entry(self):
        pg = make_periodograms()
        g = build_grid(pg.T, pg.m, 1)
        f = np.ones(len(g))
        f[12] = -1.0
        with pytest.raises(EvaluationError, match=r"t=13, j=3"):
            log_dynamic_whittle(f, pg, g)

    def test_mismatched_grid_rejected(self):
        pg = make_periodograms()
        g = build_grid(pg.T + 5, pg.m, 1)
        with pytest.raises(ValueError, match="do not match"):
            log_dynamic_whittle(np.ones(len(g)), pg, g)


class MovingPgStub:
    """Copy of a periodogram set with one ordinate bumped by delta."""

    def __init__(self, pg, entry, delta):
        self.m = pg.m
        self.T = pg.T
        self.ordinates = pg.ordinates.copy()
        self.ordinates[entry] += delta
