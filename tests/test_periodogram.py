"""Tests for moving periodogram ordinates and the frequency index map."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvspec.periodogram import (
    MovingPeriodogramSet,
    WindowConfig,
    fourier_frequencies,
    mod_index,
    moving_periodograms,
)
from tvspec.signal import TimeSeries


def brute_force_mi(values: np.ndarray, m: int, t: int) -> float:
    """Independent oracle: accumulate the complex sum in reverse order."""
    lam = 2.0 * mod_index(t, m) / (2 * m + 1)
    acc = 0.0 + 0.0j
    for nu in range(2 * m, -1, -1):
        acc += values[t - 1 + nu] * complex(
            np.cos(np.pi * nu * lam), -np.sin(np.pi * nu * lam)
        )
    return abs(acc) ** 2 / (2.0 * np.pi * (2 * m + 1))


class TestFourierFrequencies:
    def test_small_cases(self):
        assert np.allclose(fourier_frequencies(1), [2.0 / 3.0])
        assert np.allclose(fourier_frequencies(2), [0.4, 0.8])
        assert np.allclose(fourier_frequencies(3), [2.0 / 7.0, 4.0 / 7.0, 6.0 / 7.0])

    def test_strictly_increasing_in_unit_interval(self):
        f = fourier_frequencies(40)
        assert np.all(np.diff(f) > 0)
        assert np.all((f > 0) & (f < 1))

    def test_m_zero_invalid(self):
        with pytest.raises(ValueError):
            fourier_frequencies(0)


class TestModIndex:
    def test_examples(self):
        assert mod_index(1, 5) == 1
        assert mod_index(5, 5) == 5
        assert mod_index(6, 5) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10**6), st.integers(1, 200))
    def test_periodicity_and_range(self, t, m):
        j = int(mod_index(t, m))
        assert 1 <= j <= m
        assert int(mod_index(t + m, m)) == j


class TestMovingPeriodograms:
    def test_zero_series(self):
        pg = moving_periodograms(TimeSeries(np.zeros(30)), WindowConfig(m=3))
        assert pg.T == 24
        assert np.all(pg.ordinates == 0.0)

    def test_constant_series_roots_of_unity(self):
        pg = moving_periodograms(TimeSeries(np.full(40, 2.5)), WindowConfig(m=4))
        assert np.all(np.abs(pg.ordinates) < 1e-12)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal(500)
        m = 25
        pg = moving_periodograms(TimeSeries(x), WindowConfig(m=m))
        assert pg.T == 500 - 2 * m
        for t in range(1, pg.T + 1):
            ref = brute_force_mi(x, m, t)
            assert pg.ordinates[t - 1] == pytest.approx(ref, rel=1e-10, abs=1e-13)

    def test_scaling_equivariance(self):
        rng = np.random.default_rng(22)
        x = rng.standard_normal(200)
        a = moving_periodograms(TimeSeries(x), WindowConfig(m=10)).ordinates
        b = moving_periodograms(TimeSeries(3.0 * x), WindowConfig(m=10)).ordinates
        assert np.allclose(b, 9.0 * a, rtol=1e-12)

    def test_too_short_error_states_minimum(self):
        with pytest.raises(ValueError, match="at least 22"):
            moving_periodograms(TimeSeries(np.zeros(21)), WindowConfig(m=10))

    def test_frequency_association(self):
        pg = moving_periodograms(TimeSeries(np.arange(30.0)), WindowConfig(m=4))
        t = np.arange(1, pg.T + 1)
        assert np.array_equal(mod_index(t, pg.m), 1 + (t - 1) % 4)

    def test_gaussian_scaled_moments(self):
        # For iid unit-variance input the 2 pi scaled ordinates have mean 1
        # and, in the Gaussian case, variance 1.
        rng = np.random.default_rng(23)
        pg = moving_periodograms(
            TimeSeries(rng.standard_normal(6000)), WindowConfig(m=20)
        )
        scaled = 2.0 * np.pi * pg.ordinates
        assert abs(scaled.mean() - 1.0) < 0.05
        assert abs(scaled.var() - 1.0) < 0.15

    def test_far_apart_ordinates_nearly_uncorrelated(self):
        rng = np.random.default_rng(24)
        m = 5
        pg = moving_periodograms(
            TimeSeries(rng.standard_normal(5000)), WindowConfig(m=m)
        )
        # Same frequency index, windows separated by 15 > 2m + 1 samples.
        sep = 3 * m
        a = pg.ordinates[0 : pg.T - sep : m]
        b = pg.ordinates[sep :: m][: a.size]
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.1

    def test_window_config_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(m=0)
