"""Tests for the prior hierarchy: degree pmf, tau prior, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from tvspec.prior import (
    PriorConfig,
    degree_pmf,
    log_prior,
    log_stick_density,
    log_tau_density,
    prior_prob_k1_equals_1,
    sample_degree,
    sample_log_tau,
    sample_prior,
)
from tvspec.surface import BetaBasisConfig, evaluate_surface


def invgamma_log_quantile(a, b, q):
    """ln of the q-quantile of InvGamma(a, b) via the small-shape expansion."""
    from scipy.special import gammaln

    return np.log(b) - (np.log(1.0 - np.asarray(q)) + gammaln(a + 1.0)) / a


def degree_normalizer(decay: float) -> float:
    """Independent oracle: sum exp(-c k ln k) over all k >= 1 to convergence."""
    total, k = 0.0, 1
    while True:
        term = np.exp(-decay * k * np.log(k))
        total += term
        if term < 1e-16 and k > 10:
            return total
        k += 1


class TestPriorConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriorConfig(k_max=0)
        with pytest.raises(ValueError):
            PriorConfig(dp_mass=0.0)
        for L in (0, -1):
            with pytest.raises(ValueError, match="truncation_override"):
                PriorConfig(truncation_override=L)
        # At [0.45, 0.9] the basis stops being finite near degree 1189 (the exact
        # degree depends on libm); 1100 and 1300 lie well clear of it.
        narrow = BetaBasisConfig(xi_left=0.45)
        with pytest.raises(ValueError, match="k_max=1300 .* not finite"):
            PriorConfig(k_max=1300, basis=narrow)
        assert PriorConfig(k_max=1100, basis=narrow).k_max == 1100

    def test_truncation_rule(self):
        cfg = PriorConfig()
        # m = 50, 15 blocks: ceil(750^(1/3)) = 10, floored at 20.
        assert cfg.truncation_level(50, 15) == 20
        assert cfg.truncation_level(500, 100) == 37  # ceil(50000^(1/3))

    def test_truncation_override(self):
        assert PriorConfig(truncation_override=33).truncation_level(50, 15) == 33


class TestDegreePmf:
    def test_normalized(self):
        pmf = degree_pmf(PriorConfig())
        assert pmf.size == 100
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(pmf > 0.0)

    def test_ratio_of_first_two(self):
        pmf = degree_pmf(PriorConfig())
        assert pmf[0] / pmf[1] == pytest.approx(np.exp(0.02 * np.log(2.0)), rel=1e-12)

    def test_tail_mass_lumped_on_cap(self):
        # The pmf clips the decay weights at k_max: everything beyond the
        # cap is absorbed by the last entry, so the normalizer equals the
        # full sum over the positive integers.
        cfg = PriorConfig()
        pmf = degree_pmf(cfg)
        z = degree_normalizer(cfg.degree_decay)
        assert 1.0 / pmf[0] == pytest.approx(z, rel=1e-10)
        direct_cap = sum(
            np.exp(-cfg.degree_decay * k * np.log(k)) for k in range(1, 100)
        )
        assert pmf[99] == pytest.approx((z - direct_cap) / z, rel=1e-9)

    def test_prior_prob_k1_defaults(self):
        p = prior_prob_k1_equals_1(PriorConfig())
        assert 1.0 / p == pytest.approx(27.2808, abs=1e-3)
        assert p == pytest.approx(0.036656, abs=1e-5)

    def test_prior_prob_kmax_one(self):
        assert prior_prob_k1_equals_1(PriorConfig(k_max=1)) == 1.0


class TestLogInverseGamma:
    def test_against_scipy(self):
        cfg = PriorConfig(tau_shape=0.001, tau_rate=0.001)
        for tau in (1e-3, 0.5, 2.0, 1e4):
            ours = log_tau_density(cfg, np.log(tau)) - np.log(tau)
            ref = stats.invgamma(a=0.001, scale=0.001).logpdf(tau)
            assert ours == pytest.approx(ref, rel=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(lt=st.floats(max_value=-700.0, exclude_max=True, allow_nan=False),
           a=st.floats(0.001, 10.0), b=st.floats(0.001, 10.0))
    def test_nonpositive_tau(self, lt, a, b):
        # tau = 0 and every tau below e^-700 is past the overflow guard.
        for log_tau in (lt, -np.inf):
            assert log_tau_density(PriorConfig(tau_shape=a, tau_rate=b), log_tau) == -np.inf

    @settings(max_examples=50, deadline=None)
    @given(lt=st.floats(-5.0, 5.0), a=st.floats(0.001, 10.0), b=st.floats(0.001, 10.0))
    def test_log_tau_density_matches_scipy(self, lt, a, b):
        # ln tau has density p_tau(e^lt) e^lt for the Inverse-Gamma p_tau.
        ours = log_tau_density(PriorConfig(tau_shape=a, tau_rate=b), lt)
        ref = stats.invgamma(a, scale=b).logpdf(np.exp(lt)) + lt
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)


class TestLogPrior:
    def test_defaults_reduce_to_degrees_and_tau(self):
        rng = np.random.default_rng(51)
        cfg = PriorConfig()
        params = sample_prior(cfg, 20, 5, rng)
        if not np.isfinite(params.tau):
            params = sample_prior(cfg, 20, 5, rng)
        pmf = degree_pmf(cfg)
        expected = (
            np.log(pmf[params.k1 - 1])
            + np.log(pmf[params.k2 - 1])
            + stats.invgamma(a=cfg.tau_shape, scale=cfg.tau_rate).logpdf(params.tau)
        )
        assert log_prior(params, cfg) == pytest.approx(expected, rel=1e-12)

    def test_term_by_term_with_nonunit_mass(self):
        rng = np.random.default_rng(52)
        cfg = PriorConfig(dp_mass=2.5, tau_shape=1.0, tau_rate=1.0)
        params = sample_prior(cfg, 20, 5, rng)
        pmf = degree_pmf(cfg)
        m = params.measure
        expected = (
            m.L * np.log(2.5)
            + 1.5 * np.sum(np.log1p(-m.V))
            + np.log(pmf[params.k1 - 1])
            + np.log(pmf[params.k2 - 1])
            + stats.invgamma(a=1.0, scale=1.0).logpdf(params.tau)
        )
        assert log_prior(params, cfg) == pytest.approx(expected, rel=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), L=st.integers(1, 60), M=st.floats(0.05, 20.0))
    def test_stick_density_matches_scipy(self, seed, L, M):
        V = np.random.default_rng(seed).uniform(1e-6, 1.0 - 1e-6, size=L)
        ref = stats.beta(1.0, M).logpdf(V).sum()
        ours = log_stick_density(PriorConfig(dp_mass=M), V)
        assert ours == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_degree_out_of_range(self):
        rng = np.random.default_rng(53)
        params = sample_prior(PriorConfig(), 20, 5, rng)
        with pytest.raises(ValueError, match="k_max"):
            log_prior(params, PriorConfig(k_max=max(1, min(params.k1, params.k2) - 1)))


class TestSampling:
    def test_degree_pmf_recovery(self):
        cfg = PriorConfig()
        rng = np.random.default_rng(54)
        draws = sample_degree(cfg, rng, size=4 * 10**5)
        pmf = degree_pmf(cfg)
        emp = np.bincount(draws, minlength=101)[1:] / draws.size
        tv = 0.5 * np.abs(emp - pmf).sum()
        assert tv <= 0.01

    def test_sticks_uniform_when_mass_one(self):
        rng = np.random.default_rng(55)
        params = sample_prior(PriorConfig(truncation_override=200), 20, 5, rng)
        stat = stats.kstest(params.measure.V, "uniform")
        assert stat.pvalue > 0.01

    def test_log_tau_quartiles(self):
        # If tau ~ InvGamma(a, b) then b/tau ~ Gamma(a), so
        # ln tau_q = ln b - ln z_{1-q} with z_p the Gamma(a) p-quantile.
        # For tiny shapes P(Z <= z) ~ z^a / Gamma(a+1), hence
        # ln z_p = (ln p + ln Gamma(a+1)) / a; scipy overflows here (the
        # quantiles are exp(687) and beyond) so the expansion is the oracle.
        cfg = PriorConfig()
        rng = np.random.default_rng(56)
        draws = np.array([sample_log_tau(cfg, rng) for _ in range(40000)])
        ref = invgamma_log_quantile(cfg.tau_shape, cfg.tau_rate,
                                    np.array([0.25, 0.5, 0.75]))
        got = np.quantile(draws, [0.25, 0.5, 0.75])
        assert np.all(np.abs(got / ref - 1.0) < 0.05)

    def test_log_quantile_expansion_vs_scipy(self):
        # Sanity of the expansion at a shape scipy can still handle.
        a, b = 0.05, 1.0
        for q in (0.25, 0.5, 0.75):
            ref = np.log(stats.invgamma(a=a, scale=b).ppf(q))
            assert invgamma_log_quantile(a, b, q) == pytest.approx(ref, rel=0.02)

    def test_prior_surfaces_positive(self):
        rng = np.random.default_rng(57)
        cfg = PriorConfig(tau_shape=1.0, tau_rate=1.0)
        u = np.linspace(0, 1, 50)[:, None]
        lam = np.linspace(0, 1, 50)[None, :]
        for _ in range(20):
            params = sample_prior(cfg, 50, 15, rng)
            f = evaluate_surface(params, u, lam)
            assert np.all(f > 0.0)

    def test_truncation_level_used(self):
        rng = np.random.default_rng(58)
        params = sample_prior(PriorConfig(), 500, 100, rng)
        assert params.measure.L == 37
