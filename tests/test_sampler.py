"""Tests for the blocked adaptive Metropolis-Hastings sampler."""

import copy
import dataclasses
import itertools
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import expit, log_expit, logit, logsumexp

import tvspec.sampler
from tvspec.inference import savage_dickey_bf
from tvspec.likelihood import build_grid, entry_ordinates, log_dynamic_whittle
from tvspec.periodogram import WindowConfig, moving_periodograms
from tvspec.prior import PriorConfig, degree_pmf, log_prior
from tvspec.sampler import (
    ACCEPT,
    ADAPT_START,
    BLOCK_NAMES,
    NULL,
    REJECT,
    TAU_BATCH,
    TAU_TARGET_ACCEPT,
    WINDOW,
    InitializationError,
    PosteriorSampleSet,
    SamplerConfig,
    _Chain,
    _expit,
    _logit,
    block_rates,
    run_chain,
)
from tvspec.signal import DgpSpec, InnovationSpec, TimeSeries, simulate_dgp
from tvspec.surface import (
    StickBreakingMeasure,
    SurfaceParams,
    atom_bins,
    atom_rows,
    basis_matrix,
    evaluate_surface,
)


def make_inputs(n=300, m=20, thinning=1, seed=61, model="LS1"):
    rng = np.random.default_rng(seed)
    series = simulate_dgp(DgpSpec(model, InnovationSpec("a"), n), rng)
    pg = moving_periodograms(series, WindowConfig(m=m))
    grid = build_grid(pg.T, m, thinning)
    return pg, grid


@cache
def shared_inputs():
    return make_inputs()


def without_entries(grid):
    """The grid with its entries removed: a chain on it samples the prior."""
    return dataclasses.replace(grid, t=grid.t[:0], j=grid.j[:0])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_iter=100, burn_in=100)
        with pytest.raises(ValueError):
            SamplerConfig(thin=0)
        with pytest.raises(ValueError, match="retained draw"):
            SamplerConfig(n_iter=1000, burn_in=999, thin=5)
        for width in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="tau_width_init"):
                SamplerConfig(tau_width_init=width)


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        pg, grid = make_inputs()
        cfg = SamplerConfig(n_iter=800, burn_in=300, thin=2, seed=7)
        a = run_chain(pg, grid, PriorConfig(), cfg)
        b = run_chain(pg, grid, PriorConfig(), cfg)
        for name in ("k1", "k2", "log_tau", "V", "W1", "W2", "log_post"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_different_seed_differs(self):
        pg, grid = make_inputs()
        a = run_chain(pg, grid, PriorConfig(), SamplerConfig(n_iter=600, burn_in=200, seed=1))
        b = run_chain(pg, grid, PriorConfig(), SamplerConfig(n_iter=600, burn_in=200, seed=2))
        assert not np.array_equal(a.log_tau, b.log_tau)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), n=st.integers(1, 40))
    def test_scalar_random_is_default_uniform(self, seed, n):
        # The sweep draws its scalar uniforms with Generator.random(): each must
        # be the double that Generator.uniform() gives, from the same one draw.
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(n):
            assert a.random() == b.uniform()
            assert a.bit_generator.state == b.bit_generator.state


class TestBookkeeping:
    def test_retained_draw_count_and_shapes(self):
        pg, grid = make_inputs()
        prior = PriorConfig()
        cfg = SamplerConfig(n_iter=1000, burn_in=400, thin=3, seed=3)
        s = run_chain(pg, grid, prior, cfg)
        assert len(s) == 200
        L = prior.truncation_level(grid.m, grid.n_blocks)
        assert s.V.shape == (200, L)
        assert s.W1.shape == (200, L + 1)
        assert np.all(np.isfinite(s.log_post))
        assert s.runtime_seconds > 0.0
        for block in ("k1", "k2", "W1", "W2", "V", "tau"):
            assert 0.0 <= s.acceptance["overall"][block] <= 1.0
        # Every move of every sweep is recorded once; only degree moves can be null.
        assert s.move_log.shape == (1000, len(BLOCK_NAMES))
        assert np.all(np.isin(s.move_log, (REJECT, ACCEPT, NULL)))
        assert not np.any(s.move_log[:, 2:] == NULL)

    def test_surface_params_roundtrip(self):
        pg, grid = make_inputs()
        s = run_chain(pg, grid, PriorConfig(), SamplerConfig(n_iter=400, burn_in=100, seed=4))
        params = s.surface_params(0)
        assert params.k1 == s.k1[0]
        assert params.measure.V.size == s.V.shape[1]

    def test_progress_hook_called(self):
        pg, grid = make_inputs()
        seen = []
        run_chain(
            pg, grid, PriorConfig(),
            SamplerConfig(n_iter=2500, burn_in=500, seed=5),
            progress=lambda it, lp, rates: seen.append(it),
        )
        assert seen == [1000, 2000]

    def test_progress_and_windows_read_the_move_log(self):
        pg, grid = make_inputs()
        seen = []
        s = run_chain(
            pg, grid, PriorConfig(),
            SamplerConfig(n_iter=2500, burn_in=500, seed=5),
            progress=lambda it, lp, rates: seen.append((it, rates)),
        )
        for it, rates in seen:
            assert rates == block_rates(s.move_log[:it])
        # Windows of 1000, 1000 and 500 sweeps; their sweep-weighted mean is
        # the overall rate.
        sizes = np.array([WINDOW, WINDOW, 500])
        for name, rates in s.acceptance_windows.items():
            assert len(rates) == 3
            mean = np.dot(sizes, rates) / sizes.sum()
            assert mean == pytest.approx(s.acceptance["overall"][name], rel=1e-12)

    def test_cached_posterior_no_drift(self):
        pg, grid = make_inputs()
        cfg = SamplerConfig(n_iter=3000, burn_in=1000, seed=6)
        chain = _Chain(pg, grid, PriorConfig(), cfg)
        for it in range(1, cfg.n_iter + 1):
            chain.sweep()
            if it % 250 == 0:
                chain.check_cache_drift()  # raises unless the cache is exact

    def test_move_outside_sweep_raises(self):
        # Before the first sweep there is no log row to record in.
        pg, grid = shared_inputs()
        chain = _Chain(pg, grid, PriorConfig(), SamplerConfig(seed=17))
        for name, move in chain.moves.items():
            with pytest.raises(RuntimeError, match="outside sweep"):
                move(chain, name)
            assert not chain.log.any(), name


class TestCacheGuard:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_cached_terms_match_recomputation_after_every_move(self, seed):
        pg, grid = shared_inputs()
        checks = {}

        def checked(move):
            def run(chain, name):
                move(chain, name)
                chain.check_cache_drift()  # raises unless the cache is exact
                checks[name] += 1
            return run

        sweeps = ADAPT_START + 100  # past ADAPT_START, so adaptive proposals run too
        for g in (grid, without_entries(grid)):  # the posterior, then the prior
            checks.update(dict.fromkeys(BLOCK_NAMES, 0))
            chain = _Chain(pg, g, PriorConfig(), SamplerConfig(seed=seed))
            chain.moves = {name: checked(move) for name, move in chain.moves.items()}
            for _ in range(sweeps):
                chain.sweep()
            assert checks == dict.fromkeys(BLOCK_NAMES, sweeps)

    @pytest.mark.parametrize("key", ["p", "A", "C", "ll", "G", "bins", "terms", "x"])
    def test_one_ulp_off_is_caught(self, key):
        # The check is exact: one ulp on one cached float (one bin off by
        # one) must fail it, naming the key.
        pg, grid = make_inputs()
        chain = _Chain(pg, grid, PriorConfig(), SamplerConfig(seed=3))
        for _ in range(100):
            chain.sweep()
        chain.check_cache_drift()
        value = copy.deepcopy(getattr(chain, key))
        if key == "bins":
            value["W1"][0] += 1
        elif key == "terms":
            value["tau"] = np.nextafter(value["tau"], np.inf)
        elif key == "x":
            value["V"][0] = np.nextafter(value["V"][0], np.inf)
        elif key in ("p", "G"):
            value.flat[0] = np.nextafter(value.flat[0], np.inf)
        else:
            value = np.nextafter(value, np.inf)
        setattr(chain, key, value)
        with pytest.raises(AssertionError, match=f"cached '{key}'"):
            chain.check_cache_drift()

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sweeps=st.integers(0, 300),
           truncation=st.sampled_from([None, 1, 2]))
    def test_every_proposal_matches_atom_rows(self, seed, sweeps, truncation):
        # Each degree or W proposal, accepted or not, must hold the G that
        # surface.atom_rows builds from scratch at its bins and degrees; one
        # that proposes nothing keeps the current G.  With one or two atoms a
        # degree move that changes no bin is common.
        pg, grid = shared_inputs()
        prior = PriorConfig(truncation_override=truncation)
        chain = _Chain(pg, grid, prior, SamplerConfig(seed=seed))
        for _ in range(sweeps):
            chain.sweep()
        rebin, degree_moves = chain._rebin, []

        def checked_rebin(axis, k, z):
            proposal = rebin(axis, k, z)
            expected = atom_rows(
                atom_bins(k["k1"], expit(z["W1"])),
                atom_bins(k["k2"], expit(z["W2"])),
                basis_matrix(grid.u, k["k1"], prior.basis),
                basis_matrix(grid.lam, k["k2"], prior.basis),
            )
            assert np.array_equal(proposal.get("G", chain.G), expected), axis
            degree_moves.append(k != chain.k)
            return proposal

        chain._rebin = checked_rebin
        for _ in range(20):
            chain.sweep()
        assert set(degree_moves) == {True, False}

    @pytest.mark.parametrize("use_likelihood", [True, False])
    @pytest.mark.parametrize("k_max", [100, 1])  # k_max = 1 puts every atom in bin 1
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rebuilt_cache_gives_the_same_draws(self, seed, use_likelihood, k_max):
        # A chain that throws its cache away after every move and rebuilds it
        # from scratch must draw exactly what the incremental chain draws.
        pg, grid = shared_inputs()
        prior = PriorConfig(k_max=k_max)
        cfg = SamplerConfig(n_iter=ADAPT_START + 200, burn_in=ADAPT_START + 100, thin=1, seed=seed)
        plain = run_chain(pg, grid, prior, cfg, use_likelihood=use_likelihood)

        def rebuilt(move):
            def run(chain, name):
                move(chain, name)
                vars(chain).update(chain._fresh_cache())
            return run

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Chain, "moves", {name: rebuilt(m) for name, m in _Chain.moves.items()})
            fresh = run_chain(pg, grid, prior, cfg, use_likelihood=use_likelihood)
        for name in ("k1", "k2", "log_tau", "V", "W1", "W2", "log_post", "move_log"):
            assert np.array_equal(getattr(fresh, name), getattr(plain, name)), name
        assert fresh.tau_width_final == plain.tau_width_final


class TestLogPosterior:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), sweeps=st.integers(0, 300),
           use_likelihood=st.booleans())
    def test_matches_public_pieces(self, seed, sweeps, use_likelihood):
        pg, grid = shared_inputs()
        if not use_likelihood:
            grid = without_entries(grid)
        prior = PriorConfig()
        chain = _Chain(pg, grid, prior, SamplerConfig(seed=seed))
        for _ in range(sweeps):
            chain.sweep()
        z = chain.z
        params = SurfaceParams(
            tau=float(np.exp(chain.log_tau)),
            k1=chain.k["k1"],
            k2=chain.k["k2"],
            measure=StickBreakingMeasure(V=expit(z["V"]), W1=expit(z["W1"]), W2=expit(z["W2"])),
            basis=prior.basis,
        )
        # The chain targets the transformed coordinates: the natural-scale
        # prior plus the logit Jacobians of V, W1 and W2 and ln tau.
        expected = log_prior(params, prior) + chain.log_tau
        expected += sum(float(np.sum(log_expit(v) + log_expit(-v))) for v in z.values())
        # 0.0 on the grid with no entries.
        expected += log_dynamic_whittle(evaluate_surface(params, grid.u, grid.lam), pg, grid)
        assert chain.log_posterior() == pytest.approx(expected, rel=1e-9)


class TestInitialization:
    def test_nan_ordinate_fails_to_start(self):
        pg, grid = make_inputs()
        ordinates = pg.ordinates.copy()
        ordinates[grid.t[0] - 1] = np.nan
        pg = dataclasses.replace(pg, ordinates=ordinates)
        with pytest.raises(InitializationError, match="log-posterior"):
            run_chain(pg, grid, PriorConfig(), SamplerConfig(n_iter=300, burn_in=100, seed=1))

    @pytest.mark.parametrize("shorter, m", [(300, 20), (0, 10)])
    def test_grid_of_another_periodogram_set_fails_to_start(self, monkeypatch, shorter, m):
        # A grid built for another T or m would pair ordinates with the
        # wrong frequencies; the chain must refuse it before the first sweep.
        pg, _ = make_inputs(n=1500, m=20)
        grid = build_grid(pg.T - shorter, m, 1)
        monkeypatch.setattr(_Chain, "sweep", lambda chain: pytest.fail("swept"))
        with pytest.raises(ValueError, match="grid and periodogram set do not match"):
            run_chain(pg, grid, PriorConfig(), SamplerConfig(n_iter=50, burn_in=0, thin=1, seed=1))


class TestLogistic:
    # _expit and _logit make the libm calls of scipy.special.expit and logit,
    # so they must give the same floats, NaN in the same places.
    @settings(max_examples=200, deadline=None)
    @given(z=st.lists(st.floats(), max_size=25))
    @example(z=[np.inf, -np.inf, np.nan, 0.0, -0.0, 40.0, -40.0])
    @example(z=[709.78, -709.78, 745.2, -745.2, 800.0, -800.0])
    # exp(-z) overflows just past z = -ln(DBL_MAX) = -709.782712893384.
    @example(z=[-709.79, -709.782712893384, np.nextafter(-709.782712893384, -np.inf)])
    def test_expit_matches_scipy(self, z):
        z = np.array(z, dtype=float)
        assert np.array_equal(_expit(z), expit(z), equal_nan=True)

    @settings(max_examples=200, deadline=None)
    @given(q=st.lists(st.floats(0.0, 1.0) | st.floats(), max_size=25))
    @example(q=[0.0, 5e-324, 0.3, 0.5, 0.65, 1.0 - 2.0**-53, 1.0])
    @example(q=[-0.0, np.nan, np.inf, -np.inf, -1.0, 2.0, np.nextafter(0.3, 0), 0.65000001])
    def test_logit_matches_scipy(self, q):
        q = np.array(q, dtype=float)
        assert np.array_equal(_logit(q), logit(q), equal_nan=True)

    def test_normal_and_uniform_draws_match_scipy(self):
        rng = np.random.default_rng(27)
        for scale in (4.0, 5.0):
            z = scale * rng.standard_normal(100_000)
            assert np.array_equal(_expit(z), expit(z))
        q = rng.uniform(size=100_000)
        assert np.array_equal(_logit(q), logit(q))


class TestStickMoves:
    @staticmethod
    def assert_stick_move_rejected(increment):
        pg, grid = make_inputs()
        chain = _Chain(pg, grid, PriorConfig(), SamplerConfig(seed=16))
        chain._propose_increment = lambda name, dim: np.full(dim, increment)
        zV, A, C = chain.z["V"].copy(), chain.A, chain.C
        expected_rng = copy.deepcopy(chain.rng)
        expected_rng.uniform()
        chain.iteration = 1  # the move is recorded in the first row of the log
        chain.moves["V"](chain, "V")
        col = BLOCK_NAMES.index("V")
        assert np.argwhere(chain.log).tolist() == [[0, col]]  # one recorded outcome
        assert chain.log[0, col] == REJECT
        assert np.array_equal(chain.z["V"], zV) and (chain.A, chain.C) == (A, C)
        assert chain.rng.bit_generator.state == expected_rng.bit_generator.state
        chain.check_cache_drift()

    def test_stick_rounding_to_one_is_rejected(self):
        self.assert_stick_move_rejected(40.0)  # expit(0 + 40) rounds to 1.0

    def test_stick_rounding_to_zero_is_rejected(self):
        # exp(800) overflows: expit(0 - 800) is 0.0, a rejected stick, not an
        # OverflowError.
        self.assert_stick_move_rejected(-800.0)

    def test_sweep_calls_expit_three_times(self, monkeypatch):
        # Only the W1, W2 and V proposals need new natural-scale values; the
        # degree moves and the retained draws read the cached atoms and sticks.
        calls = []

        def counted(z):
            calls.append(z.size)
            return _expit(z)

        monkeypatch.setattr(tvspec.sampler, "_expit", counted)
        pg, grid = shared_inputs()
        cfg = SamplerConfig(n_iter=400, burn_in=100, thin=1, seed=4)
        run_chain(pg, grid, PriorConfig(), cfg)
        # The initial cache: V, W1 and W2, and V once more for its prior term.
        assert len(calls) == 4 + 3 * cfg.n_iter


class TestDegreeMoves:
    def test_kmax_one_chain_stays_at_one(self):
        pg, grid = make_inputs()
        prior = PriorConfig(k_max=1)
        s = run_chain(pg, grid, prior, SamplerConfig(n_iter=500, burn_in=100, seed=8))
        assert np.all(s.k1 == 1)
        assert np.all(s.k2 == 1)
        # Every non-null step leaves the range; only null moves (step 0,
        # probability e^-1) are accepted.
        for phase in ("overall", "post_burn_in"):
            for name in ("k1", "k2"):
                assert s.acceptance_non_null[phase][name] == 0.0
                assert s.acceptance[phase][name] == pytest.approx(np.exp(-1.0), abs=0.1)

    def test_identity_moves_always_accepted(self, monkeypatch):
        monkeypatch.setattr(tvspec.sampler, "K_POISSON_RATE", 1e-9)
        pg, grid = make_inputs()
        cfg = SamplerConfig(n_iter=600, burn_in=100, seed=9)
        s = run_chain(pg, grid, PriorConfig(), cfg)
        assert s.acceptance["overall"]["k1"] == pytest.approx(1.0)
        assert s.acceptance["overall"]["k2"] == pytest.approx(1.0)
        # No non-null move was proposed, so it has no acceptance rate.
        assert np.isnan(s.acceptance_non_null["overall"]["k1"])
        assert np.isnan(s.acceptance_non_null["overall"]["k2"])

    def test_two_point_detailed_balance(self):
        # k_max = 2 with decay 1: weight(1) = 1, weight(2) = exp(-2 ln 2)
        # plus the lumped tail sum_{k>=3} exp(-k ln k).
        prior = PriorConfig(k_max=2, degree_decay=1.0)
        w2 = np.exp(-2.0 * np.log(2.0)) + sum(
            np.exp(-k * np.log(k)) for k in range(3, 60)
        )
        pg, grid = make_inputs()
        cfg = SamplerConfig(n_iter=40_000, burn_in=2000, thin=1, seed=10)
        s = run_chain(pg, grid, prior, cfg, use_likelihood=False)
        occ2 = float(np.mean(s.k1 == 2))
        ratio = occ2 / (1.0 - occ2)
        assert ratio == pytest.approx(w2, rel=0.15)


class TestTauMoves:
    def test_zero_width_identity(self):
        pg, grid = make_inputs()
        cfg = SamplerConfig(n_iter=200, burn_in=60, seed=11, tau_width_init=1e-12)
        s = run_chain(pg, grid, PriorConfig(), cfg)
        assert s.acceptance["overall"]["tau"] == pytest.approx(1.0)

    def test_width_frozen_after_burn_in(self):
        pg, grid = make_inputs()
        prior = PriorConfig()
        short = run_chain(
            pg, grid, prior, SamplerConfig(n_iter=2001, burn_in=2000, thin=1, seed=12)
        )
        long = run_chain(
            pg, grid, prior, SamplerConfig(n_iter=6000, burn_in=2000, seed=12)
        )
        assert short.tau_width_final == long.tau_width_final

    def test_width_follows_tau_column_of_log(self):
        pg, grid = make_inputs()
        cfg = SamplerConfig(n_iter=1200, burn_in=1000, seed=12)
        s = run_chain(pg, grid, PriorConfig(), cfg)
        tau = s.move_log[: cfg.burn_in, BLOCK_NAMES.index("tau")]
        log_width = 0.0  # tau_width_init = 1
        for b, batch in enumerate(tau.reshape(-1, TAU_BATCH), start=1):
            gain = min(0.25, 1.0 / np.sqrt(b))
            log_width += gain if np.mean(batch == ACCEPT) > TAU_TARGET_ACCEPT else -gain
        assert s.tau_width_final == pytest.approx(np.exp(log_width), rel=1e-12)


class TestPriorRecovery:
    def test_prior_only_marginals(self):
        # The block proposals need a realistic burn-in to adapt their
        # covariance before the W and V marginals mix freely.
        prior = PriorConfig()
        pg, grid = make_inputs()
        cfg = SamplerConfig(
            n_iter=100_000, burn_in=50_000, thin=1, seed=13, tau_width_init=3000.0
        )
        s = run_chain(pg, grid, prior, cfg, use_likelihood=False)

        # The degree walk is the slowest-mixing block; with 50k retained
        # draws only a coarse pmf match is meaningful here (the strict
        # total-variation check lives in the acceptance suite).
        pmf = degree_pmf(prior)
        emp = np.bincount(s.k1, minlength=101)[1:] / len(s)
        assert 0.5 * np.abs(emp - pmf).sum() <= 0.25

        # W coordinates are uniform under the prior; thin heavily so the
        # KS test sees nearly independent draws.
        for coord in (s.W1[::150, 0], s.W1[::150, 7], s.W2[::150, 5]):
            assert stats.kstest(coord, "uniform").pvalue > 0.01

        # V coordinates are Beta(1, 1) = uniform when the DP mass is 1.
        assert stats.kstest(s.V[::150, 3], "uniform").pvalue > 0.01

    def test_acceptance_rates_reasonable_with_likelihood(self):
        pg, grid = make_inputs(n=400, m=25, thinning=2)
        cfg = SamplerConfig(n_iter=6000, burn_in=3000, seed=14)
        s = run_chain(pg, grid, PriorConfig(), cfg)
        post = s.acceptance["post_burn_in"]
        for block in ("W1", "W2", "V", "tau"):
            assert 0.02 < post[block] < 0.98, (block, post[block])


def exact_degree_posterior(pg, grid, prior: PriorConfig, n_v: int = 20_000) -> np.ndarray:
    """Exact posterior of (k1, k2) with one stick, as a (k_max, k_max) table.

    With L = 1 the weights are (1 - V, V), and each of the two atoms per axis
    enters only through its bin, each bin of prior mass 1/k, so the integral
    over the atoms is a sum over bin tuples.  tau integrates out by Inverse-Gamma conjugacy,
    leaving exp(-A) (C + b)^-(E + a) times factors common to every (k1, k2);
    V, uniform under Beta(1, 1), is integrated by an n_v-point midpoint rule.
    """
    assert prior.truncation_override == 1 and prior.dp_mass == 1.0
    mi = entry_ordinates(pg, grid)
    a, b = prior.tau_shape, prior.tau_rate
    V = (np.arange(n_v) + 0.5) / n_v
    p = np.column_stack((1.0 - V, V))
    log_pmf = np.log(degree_pmf(prior))
    log_post = np.empty((prior.k_max, prior.k_max))
    degrees = range(1, prior.k_max + 1)
    for k1, k2 in itertools.product(degrees, degrees):
        B_u, B_lam = basis_matrix(grid.u, k1, prior.basis), basis_matrix(grid.lam, k2, prior.basis)
        terms = []
        for rows1 in itertools.product(range(k1), repeat=2):
            for rows2 in itertools.product(range(k2), repeat=2):
                shape = p @ (B_u[list(rows1)] * B_lam[list(rows2)])  # (n_v, E)
                A, C = np.log(shape).sum(axis=1), (mi / shape).sum(axis=1)
                terms.append(-A - (mi.size + a) * np.log(C + b))
        log_post[k1 - 1, k2 - 1] = (
            log_pmf[k1 - 1] + log_pmf[k2 - 1] - 2 * np.log(k1 * k2) + logsumexp(terms)
        )
    return np.exp(log_post - logsumexp(log_post))


def batch_means_ess(x, n_batches: int = 50) -> float:
    """ESS of the draws ``x``: their variance over that of their mean, the
    latter estimated from the spread of n_batches batch means."""
    n = x.size // n_batches * n_batches
    means = x[:n].reshape(n_batches, -1).mean(axis=1)
    return x.var() * n_batches / means.var(ddof=1)


@cache
def oracle_run():
    """LS1 with N = 40, m = 5 and thinning 1 (E = 30), data seed 7: the exact
    (k1, k2) posterior, the prior and a 90 000-draw chain."""
    pg, grid = make_inputs(n=40, m=5, thinning=1, seed=7)
    prior = PriorConfig(k_max=3, degree_decay=0.3, truncation_override=1)
    samples = run_chain(pg, grid, prior, SamplerConfig(n_iter=100_000, burn_in=10_000, thin=1))
    return exact_degree_posterior(pg, grid, prior), prior, samples


class TestPosteriorOracle:
    # A chain whose k2 prior term is 0 misses the exact k2 marginal by a TV
    # distance of about 7 times its Monte Carlo error; correct chains at
    # other seeds stay within about 2.
    TOLERANCE = 4.0  # in Monte Carlo errors

    def test_degree_marginals(self):
        exact, _, samples = oracle_run()
        # Far from a point mass, so the TV distances below have power.
        assert np.allclose(exact.sum(axis=1), [0.715, 0.166, 0.119], atol=1e-3)
        assert np.allclose(exact.sum(axis=0), [0.302, 0.183, 0.515], atol=1e-3)
        for k, pmf in ((samples.k1, exact.sum(axis=1)), (samples.k2, exact.sum(axis=0))):
            hits = [(k == degree).astype(float) for degree in (1, 2, 3)]
            ess = np.array([batch_means_ess(h) for h in hits])
            tv = 0.5 * np.abs(np.mean(hits, axis=1) - pmf).sum()
            # Half the sum of the frequencies' standard errors.
            mc_error = 0.5 * np.sqrt(pmf * (1.0 - pmf) / ess).sum()
            assert tv < self.TOLERANCE * mc_error, (tv, mc_error)

    def test_savage_dickey_bf(self):
        exact, prior, samples = oracle_run()
        p1, prior_p1 = exact.sum(axis=1)[0], degree_pmf(prior)[0]
        assert p1 / prior_p1 == pytest.approx(1.700, abs=1e-3)
        ess = batch_means_ess((samples.k1 == 1).astype(float))
        mc_error = np.sqrt(p1 * (1.0 - p1) / ess) / prior_p1
        assert abs(savage_dickey_bf(samples, prior) - p1 / prior_p1) < self.TOLERANCE * mc_error


class TestSampleSet:
    def test_len_and_empty_guard(self):
        pg, grid = make_inputs()
        s = run_chain(pg, grid, PriorConfig(), SamplerConfig(n_iter=300, burn_in=100, seed=15))
        assert len(s) == (300 - 100) // 5
        assert isinstance(s, PosteriorSampleSet)
