"""Acceptance suite: one test per criterion, one printed line each.

The heavy end-to-end runs (criteria 9 and 10) dominate the runtime of the
whole test session; everything else is quick.
"""

import time

import numpy as np
import pytest
from scipy.special import gammaln

import tvspec as tv
from tvspec.cli import main as cli_main
from tvspec.periodogram import mod_index
from tvspec.prior import degree_pmf
from tvspec.sampler import SamplerConfig, run_chain
from tvspec.surface import basis_matrix, standard_basis_matrix, weights_from_measure


def check(capsys, number, description, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"[acceptance] criterion {number:2d}: FAIL - {description}",
                  flush=True)
        raise
    with capsys.disabled():
        print(f"[acceptance] criterion {number:2d}: PASS - {description}",
              flush=True)


def brute_force_mi(values, m, t):
    """Reverse-order complex accumulation, independent of the library path."""
    lam = 2.0 * (1 + (t - 1) % m) / (2 * m + 1)
    nu = np.arange(2 * m, -1, -1)
    acc = np.sum(values[t - 1 + nu] * np.exp(-1j * np.pi * nu * lam))
    return abs(acc) ** 2 / (2.0 * np.pi * (2 * m + 1))


def test_criterion_01_periodogram_oracle(capsys):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for s in range(20):
            m = (5, 25, 50)[s % 3]
            x = rng.standard_normal(500)
            pg = tv.moving_periodograms(tv.TimeSeries(x), tv.WindowConfig(m=m))
            for t in range(1, pg.T + 1):
                ref = brute_force_mi(x, m, t)
                assert abs(pg.ordinates[t - 1] - ref) <= 1e-10 * max(ref, 1e-12)
        const = tv.moving_periodograms(tv.TimeSeries(np.full(200, 3.7)),
                                       tv.WindowConfig(m=25))
        assert np.all(np.abs(const.ordinates) <= 1e-12)
        assert time.perf_counter() - start < 10.0

    check(capsys, 1, "moving periodogram brute-force oracle", body)


def test_criterion_02_scaled_ordinate_moments(capsys):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        pg = tv.moving_periodograms(tv.TimeSeries(rng.standard_normal(20000)),
                                    tv.WindowConfig(m=50))
        scaled = 2.0 * np.pi * pg.ordinates
        assert abs(scaled.mean() - 1.0) <= 0.03
        assert abs(scaled.var() - 1.0) <= 0.1
        assert time.perf_counter() - start < 60.0

    check(capsys, 2, "scaled ordinate moments (mean 1, Gaussian variance 1)", body)


def test_criterion_03_bernstein_identity(capsys):
    def body():
        x = np.linspace(0.0, 1.0, 101)
        for k in range(1, 51):
            colsums = standard_basis_matrix(x, k).sum(axis=0)
            assert np.all(np.abs(colsums - k) <= 1e-9), k

    check(capsys, 3, "Bernstein basis identity, k up to 50", body)


def test_criterion_04_truncated_basis_normalization(capsys):
    def body():
        # Gauss-Legendre with 64 nodes integrates polynomials up to degree
        # 127 exactly; every basis function here has degree at most 99.
        nodes, weights = np.polynomial.legendre.leggauss(64)
        x = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        cfg = tv.BetaBasisConfig()
        for k in range(1, 101):
            vals = basis_matrix(x, k, cfg) @ w
            assert np.all(np.abs(vals - 1.0) <= 1e-6), k

    check(capsys, 4, "truncated-dilated basis integrates to one", body)


def test_criterion_05_surface_equivalence(capsys):
    def body():
        rng = np.random.default_rng(1005)
        cfg = tv.BetaBasisConfig()
        for _ in range(200):
            L = int(rng.integers(1, 9))
            measure = tv.StickBreakingMeasure(
                V=rng.uniform(0.05, 0.95, size=L),
                W1=rng.uniform(size=L + 1),
                W2=rng.uniform(size=L + 1),
            )
            params = tv.SurfaceParams(
                tau=float(rng.uniform(0.5, 5.0)),
                k1=int(rng.integers(1, 21)),
                k2=int(rng.integers(1, 21)),
                measure=measure,
                basis=cfg,
            )
            u = float(rng.uniform())
            lam = float(rng.uniform())
            got = tv.evaluate_surface(params, u, lam)
            w = weights_from_measure(params.k1, params.k2, measure)
            bu = basis_matrix(np.array([u]), params.k1, cfg)[:, 0]
            bl = basis_matrix(np.array([lam]), params.k2, cfg)[:, 0]
            ref = params.tau * float(bu @ w @ bl)
            assert abs(got - ref) <= 1e-10 * max(abs(ref), 1e-12)

    check(capsys, 5, "stick-breaking vs double-sum surface evaluation", body)


def test_criterion_06_savage_dickey_ceiling(capsys):
    def body():
        cfg = tv.PriorConfig()
        ceiling = 1.0 / tv.prior_prob_k1_equals_1(cfg)
        assert abs(ceiling - 27.2808) <= 0.001
        # Direct summation oracle over the capped support: the first 99
        # decay weights plus the cap weight, which absorbs the tail of
        # exp(-0.01 k ln k) summed to convergence.
        total, k = 0.0, 1
        while True:
            term = np.exp(-0.01 * k * np.log(k))
            total += term
            if term < 1e-16 and k > 100:
                break
            k += 1
        assert abs(ceiling - total) <= 1e-6

    check(capsys, 6, "Savage-Dickey ceiling 27.2808", body)


def test_criterion_07_likelihood_closed_form_and_bijection(capsys):
    def body():
        rng = np.random.default_rng(1007)
        pg = tv.moving_periodograms(tv.TimeSeries(rng.standard_normal(260)),
                                    tv.WindowConfig(m=15))
        grid = tv.build_grid(pg.T, 15, 1)
        c = 0.42
        got = tv.log_dynamic_whittle(np.full(len(grid), c), pg, grid)
        expected = -len(grid) * np.log(c) - pg.ordinates.sum() / c
        assert abs(got - expected) <= 1e-10 * abs(expected)

        for _ in range(50):
            m = int(rng.integers(1, 60))
            T = int(rng.integers(m, m + 900))
            g = tv.build_grid(T, m, 1)
            assert np.array_equal(np.sort(g.t), np.arange(1, T + 1)), (T, m)
            assert np.array_equal(g.j, mod_index(g.t, m))

    check(capsys, 7, "likelihood closed form and unthinned grid bijection", body)


def test_criterion_08_prior_only_recovery(capsys):
    def body():
        start = time.perf_counter()
        rng = np.random.default_rng(1008)
        series = tv.simulate_dgp(tv.DgpSpec("LS1", tv.InnovationSpec("a"), 300), rng)
        pg = tv.moving_periodograms(series, tv.WindowConfig(m=20))
        grid = tv.build_grid(pg.T, 20, 1)
        prior = tv.PriorConfig()
        # A wide initial ln tau width makes the scale walk mix from sweep
        # one, so nearly the whole run can be retained for the pmf check.
        cfg = SamplerConfig(n_iter=100_000, burn_in=1000, thin=1, seed=5,
                            tau_width_init=3000.0)
        s = run_chain(pg, grid, prior, cfg, use_likelihood=False)

        pmf = degree_pmf(prior)
        emp = np.bincount(s.k1, minlength=101)[1:] / len(s)
        tv_dist = 0.5 * np.abs(emp - pmf).sum()
        assert tv_dist <= 0.05, tv_dist

        # Exact quartiles of ln tau: with tau ~ InvGamma(a, b) the variable
        # b/tau is Gamma(a), and for tiny shapes the Gamma quantile obeys
        # ln z_p = (ln p + ln Gamma(a + 1)) / a.
        a, b = prior.tau_shape, prior.tau_rate
        q = np.array([0.25, 0.5, 0.75])
        ref = np.log(b) - (np.log(1.0 - q) + gammaln(a + 1.0)) / a
        got = np.quantile(s.log_tau, q)
        assert np.all(np.abs(got / ref - 1.0) <= 0.10), got
        assert time.perf_counter() - start < 300.0

    check(capsys, 8, "prior-only MCMC recovery (k1 pmf, ln tau quartiles)", body)


def _full_run(model, data_seed, sampler_seed=0):
    rng = np.random.default_rng(data_seed)
    series = tv.simulate_dgp(tv.DgpSpec(model, tv.InnovationSpec("a"), 1500), rng)
    pg = tv.moving_periodograms(series, tv.WindowConfig(m=50))
    grid = tv.build_grid(pg.T, 50, 2)
    samples = run_chain(pg, grid, tv.PriorConfig(),
                        SamplerConfig(seed=sampler_seed))
    return series, samples


def test_criterion_09_end_to_end_ls1a(capsys):
    def body():
        start = time.perf_counter()
        series, samples = _full_run("LS1", data_seed=1)

        post = samples.acceptance["post_burn_in"]
        for block in ("k1", "k2", "W1", "W2", "V", "tau"):
            assert 0.05 < post[block] < 0.8, (block, post[block])

        n, m, K = 1500, 50, 99
        tgrid = np.arange(1, n + 1) / n
        fgrid = np.arange(0, K + 1) / K
        mean = tv.summarize(samples, tgrid, fgrid, n, m).mean
        assert np.all(mean > 0.0)

        summary = tv.summarize(samples, np.linspace(0, 1, 41),
                               np.linspace(0, 1, 41), n, m)
        for surf in (summary.mean, summary.median, summary.q05, summary.q95):
            assert np.all(surf > 0.0)
        assert np.all(summary.q05 <= summary.q95)

        value = tv.ase(lambda u, lam: mean,
                       lambda u, lam: tv.true_tv_psd("LS1", u, lam), n, K)
        assert value <= 0.35, value
        elapsed = time.perf_counter() - start
        assert elapsed < 1800.0
        with capsys.disabled():
            print(f"[acceptance]   LS1a ASE = {value:.4f}, "
                  f"runtime {elapsed:.0f} s", flush=True)

    check(capsys, 9, "end-to-end LS1a (ASE, positivity, acceptance rates)", body)


def test_criterion_10_stationarity_classification(capsys):
    def body():
        start = time.perf_counter()
        _, s2 = _full_run("S2", data_seed=1)
        bf_s2 = tv.savage_dickey_bf(s2, s2.prior)
        _, ls2 = _full_run("LS2", data_seed=1)
        bf_ls2 = tv.savage_dickey_bf(ls2, ls2.prior)
        assert bf_s2 > 1.0, bf_s2
        assert bf_ls2 < 1.0, bf_ls2
        elapsed = time.perf_counter() - start
        assert elapsed < 3600.0
        with capsys.disabled():
            print(f"[acceptance]   BF01(S2) = {bf_s2:.3f}, "
                  f"BF01(LS2a) = {bf_ls2:.3f}, runtime {elapsed:.0f} s",
                  flush=True)

    check(capsys, 10, "stationarity Bayes factors (S2 above 1, LS2a below 1)", body)


def test_criterion_11_byte_identical_runs(capsys, tmp_path):
    def body():
        data = tmp_path / "series.csv"
        assert cli_main(["simulate", "--dgp", "LS3", "--T", "400",
                         "--seed", "77", "--output", str(data)]) == 0
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            argv = ["estimate", "--input", str(data), "--m", "20",
                    "--thinning", "1", "--iters", "4000", "--burnin", "2000",
                    "--thin", "5", "--seed", "3", "--time-grid", "41",
                    "--freq-grid", "31", "--output-dir", str(out)]
            assert cli_main(argv) == 0
            outputs.append((out / "surface.csv").read_bytes())
        assert outputs[0] == outputs[1]

    check(capsys, 11, "byte-identical surface CSVs for identical config", body)
