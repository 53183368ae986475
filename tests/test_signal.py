"""Tests for simulation models, innovation samplers and true spectra."""

import numpy as np
import pytest
import scipy.signal
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tvspec.signal import (
    VALID_DGPS,
    DgpSpec,
    InnovationSpec,
    TimeSeries,
    dgp_path,
    sample_innovations,
    simulate_dgp,
    true_tv_psd,
)


class TestTimeSeries:
    def test_accepts_finite_values(self):
        ts = TimeSeries(np.array([1.0, -2.0, 3.5]))
        assert len(ts) == 3

    def test_rejects_nan_naming_position(self):
        with pytest.raises(ValueError, match="position 2"):
            TimeSeries(np.array([0.0, 1.0, np.nan]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros((2, 2)))


class TestInnovations:
    def test_alias_resolution(self):
        assert InnovationSpec("a").kind == "gaussian"
        assert InnovationSpec("b").kind == "student-t3"
        assert InnovationSpec("c").kind == "pareto"
        assert InnovationSpec("t3").kind == "student-t3"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown innovation"):
            InnovationSpec("cauchy")

    def test_gaussian_moments(self):
        rng = np.random.default_rng(11)
        x = sample_innovations(InnovationSpec("gaussian"), 10**6, rng)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.02

    def test_pareto_raw_moments(self):
        # The standardization constants are the analytic Pareto(4, 1)
        # moments: mean a s/(a-1) = 4/3, variance s^2 a/((a-1)^2 (a-2)) = 2/9.
        rng = np.random.default_rng(12)
        raw = rng.pareto(4.0, size=10**6) + 1.0
        assert abs(raw.mean() - 4.0 / 3.0) < 0.01
        assert abs(raw.var() - 2.0 / 9.0) / (2.0 / 9.0) < 0.1
        assert abs(np.sqrt(2.0 / 9.0) - 0.4714) < 1e-4

    def test_pareto_standardized_moments(self):
        rng = np.random.default_rng(13)
        x = sample_innovations(InnovationSpec("pareto"), 10**6, rng)
        assert abs(x.mean()) < 0.01
        assert abs(x.var() - 1.0) < 0.1

    def test_t3_divisor(self):
        # Analytic variance of t(nu) is nu/(nu-2) = 3, so the divisor is
        # sqrt(3).  The sample variance is noisy (infinite fourth moment),
        # hence the wide but seeded band.
        assert abs(np.sqrt(3.0) - 1.7321) < 1e-4
        rng = np.random.default_rng(14)
        x = sample_innovations(InnovationSpec("t3"), 10**6, rng)
        assert abs(x.mean()) < 0.01
        assert 0.8 < x.var() < 1.3


def oracle_coefficients(model, u):
    """(phi, theta1, theta2) of each model at rescaled times u, written out
    from the model definitions rather than read from tvspec.signal."""
    u = np.asarray(u, dtype=float)
    zero = np.zeros_like(u)
    return {
        "LS1": (zero, 1.122 * (1.0 - 1.718 * np.sin(np.pi * u / 2.0)), zero - 0.81),
        "LS2": (zero, 1.1 * np.cos(1.5 - np.cos(4.0 * np.pi * u)), zero),
        "LS3": (1.2 * u - 0.6, zero, zero),
        "PS1": (np.where(u <= 0.5, -0.5, 0.5), zero, zero),
        "S1": (zero + 0.75, zero + 0.8, zero),
        "S2": (zero, zero - 0.36, zero + 0.85),
    }[model]


class TestModelOracles:
    @settings(max_examples=50, deadline=None)
    @given(
        u=st.floats(0.0, 1.0),
        lam=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    @example(u=0.5, lam=[0.0, 1.0])
    def test_psd_matches_freqz(self, u, lam):
        lam = np.asarray(lam)
        for model in VALID_DGPS:
            phi, theta1, theta2 = (float(c) for c in oracle_coefficients(model, u))
            _, h = scipy.signal.freqz([1.0, theta1, theta2], [1.0, -phi], worN=np.pi * lam)
            # atol covers the zeros of the LS1 MA polynomial at lam = 0 and 1.
            np.testing.assert_allclose(
                true_tv_psd(model, u, lam), np.abs(h) ** 2 / (2.0 * np.pi),
                rtol=1e-12, atol=1e-15, err_msg=model,
            )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 400),
        kind=st.sampled_from(["a", "b", "c"]),
    )
    def test_constant_models_match_lfilter(self, seed, T, kind):
        w = sample_innovations(InnovationSpec(kind), T + 2, np.random.default_rng(seed))
        for model in ("S1", "S2"):
            phi, theta1, theta2 = (float(c) for c in oracle_coefficients(model, 0.0))
            # S1 has no w_{t-2} term: two taps, run over w[1:].
            b, taps = ([1.0, theta1], w[1:]) if model == "S1" else ([1.0, theta1, theta2], w)
            expected = scipy.signal.lfilter([1.0], [1.0, -phi], np.convolve(taps, b, "valid"))
            np.testing.assert_allclose(dgp_path(model, T, w), expected, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 400),
        model=st.sampled_from(VALID_DGPS),
    )
    def test_paths_satisfy_recursion(self, seed, T, model):
        # X_t - phi(u) X_{t-1} = w_t + theta1(u) w_{t-1} + theta2(u) w_{t-2}
        # at u = t / T, with X_0 = 0.
        w = np.random.default_rng(seed).standard_normal(T + 2)
        x = dgp_path(model, T, w)
        phi, theta1, theta2 = oracle_coefficients(model, np.arange(1, T + 1) / T)
        lhs = x - phi * np.concatenate([[0.0], x[:-1]])
        rhs = w[2:] + theta1 * w[1:-1] + theta2 * w[:-2]
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12, err_msg=model)


class TestDgpPath:
    def test_ls3_zero_innovations(self):
        x = dgp_path("LS3", 50, np.zeros(52))
        assert np.all(x == 0.0)

    def test_ls1_unit_innovations_at_end(self):
        # At u = 1 the coefficient formula gives
        # 1 + 1.122 (1 - 1.718) - 0.81 = -0.615596.
        x = dgp_path("LS1", 200, np.ones(202))
        assert x[-1] == pytest.approx(1.0 + 1.122 * (1.0 - 1.718) - 0.81, abs=1e-12)

    def test_s2_autocovariance_truncates_at_lag_2(self):
        rng = np.random.default_rng(15)
        n = 10**6
        x = dgp_path("S2", n, rng.standard_normal(n + 2))
        acov3 = float(np.mean(x[3:] * x[:-3]))
        assert abs(acov3) < 0.01

    def test_innovation_count_validated(self):
        with pytest.raises(ValueError, match="need 52"):
            dgp_path("LS3", 50, np.zeros(50))

    def test_ps1_switch_at_floor_half(self):
        # With T = 5, floor(T/2) = 2: coefficient is -0.5 for t <= 2 and
        # +0.5 afterwards.
        w = np.zeros(7)
        w[2] = 1.0  # innovation of observation t = 1
        x = dgp_path("PS1", 5, w)
        assert x[0] == 1.0
        assert x[1] == -0.5
        assert x[2] == 0.5 * x[1]
        assert x[3] == 0.5 * x[2]

    def test_s1_recursion_by_hand(self):
        w = np.array([0.0, 1.0, 2.0, -1.0])
        x = dgp_path("S1", 2, w)
        assert x[0] == pytest.approx(0.75 * 0.0 + 2.0 + 0.8 * 1.0)
        assert x[1] == pytest.approx(0.75 * x[0] + (-1.0) + 0.8 * 2.0)


class TestSimulateDgp:
    def test_length_and_type(self):
        rng = np.random.default_rng(0)
        ts = simulate_dgp(DgpSpec("LS2", InnovationSpec("c"), 700), rng)
        assert len(ts) == 700

    def test_deterministic_given_seed(self):
        spec = DgpSpec("PS1", InnovationSpec("b"), 400)
        a = simulate_dgp(spec, np.random.default_rng(99)).values
        b = simulate_dgp(spec, np.random.default_rng(99)).values
        assert np.array_equal(a, b)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown DGP"):
            DgpSpec("XX")

    def test_ls3_variance_near_half_time(self):
        # At u = 0.5 the LS3 AR coefficient vanishes, so X at t = T/2 is a
        # fresh innovation with variance 1.
        reps, T = 3000, 40
        rng = np.random.default_rng(16)
        vals = np.empty(reps)
        for r in range(reps):
            x = dgp_path("LS3", T, rng.standard_normal(T + 2))
            vals[r] = x[T // 2 - 1]
        se = np.sqrt(2.0 / reps)
        assert abs(vals.var() - 1.0) < 3.0 * se


class TestTrueTvPsd:
    def test_ls3_white_noise_slice(self):
        lam = np.linspace(0.0, 1.0, 11)
        f = true_tv_psd("LS3", 0.5, lam)
        assert np.allclose(f, 1.0 / (2.0 * np.pi), atol=1e-14)
        assert abs(1.0 / (2.0 * np.pi) - 0.159155) < 1e-6

    def test_positive_on_grid_all_models(self):
        u = np.linspace(0.0, 1.0, 101)[:, None]
        lam = np.linspace(0.0, 1.0, 101)[None, :]
        for model in VALID_DGPS:
            f = true_tv_psd(model, u, lam)
            assert f.shape == (101, 101)
            assert np.all(f > 0.0), model

    def test_stationary_models_time_invariant(self):
        lam = np.linspace(0.0, 1.0, 51)
        for model in ("S1", "S2"):
            f0 = true_tv_psd(model, np.full_like(lam, 0.2), lam)
            f1 = true_tv_psd(model, np.full_like(lam, 0.9), lam)
            assert np.array_equal(f0, f1)

    def test_ps1_piecewise_constant(self):
        lam = 0.3
        assert true_tv_psd("PS1", 0.1, lam) == true_tv_psd("PS1", 0.5, lam)
        assert true_tv_psd("PS1", 0.51, lam) == true_tv_psd("PS1", 0.99, lam)
        assert true_tv_psd("PS1", 0.5, lam) != true_tv_psd("PS1", 0.51, lam)

    def test_ls2_slice_matches_periodogram_oracle(self):
        # Freeze the LS2 coefficient at u = 0 and average the 2 pi scaled
        # moving periodogram ordinates of a long stationary MA(1) record;
        # each frequency's average should sit within 10% of 2 pi f(0, lam).
        from tvspec.periodogram import WindowConfig, fourier_frequencies, mod_index, moving_periodograms

        theta = 1.1 * np.cos(1.5 - 1.0)
        rng = np.random.default_rng(17)
        n = 120_000
        w = rng.standard_normal(n + 1)
        x = w[1:] + theta * w[:-1]
        m = 25
        pg = moving_periodograms(TimeSeries(x), WindowConfig(m=m))
        j_of_t = mod_index(np.arange(1, pg.T + 1), m)
        # Stick to low frequencies: near the MA(1) spectral dip at lam = 1
        # the finite window leaks power from the peak and biases the
        # ordinates upward, which is a periodogram property, not an error.
        for j in range(1, 6):
            avg = 2.0 * np.pi * pg.ordinates[j_of_t == j].mean()
            target = 2.0 * np.pi * true_tv_psd("LS2", 0.0, fourier_frequencies(pg.m)[j - 1])
            assert abs(avg / target - 1.0) < 0.10, j
