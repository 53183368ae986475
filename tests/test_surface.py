"""Tests for the Bernstein surface: bases, sticks and evaluation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from tvspec.surface import (
    BetaBasisConfig,
    StickBreakingMeasure,
    SurfaceParams,
    atom_bins,
    atom_rows,
    basis_matrix,
    bin_masses,
    evaluate_surface,
    standard_basis_matrix,
    stick_weights,
    weights_from_measure,
)


def density(x, a, b, cfg=BetaBasisConfig()):
    """Truncated-dilated beta density at integer shapes (a, b): row a of the
    degree a + b - 1 basis table."""
    return basis_matrix(x, a + b - 1, cfg)[a - 1]


def random_params(rng, L=6, k_max=20, cfg=None):
    measure = StickBreakingMeasure(
        V=rng.uniform(0.05, 0.95, size=L),
        W1=rng.uniform(size=L + 1),
        W2=rng.uniform(size=L + 1),
    )
    return SurfaceParams(
        tau=float(rng.uniform(0.5, 5.0)),
        k1=int(rng.integers(1, k_max + 1)),
        k2=int(rng.integers(1, k_max + 1)),
        measure=measure,
        basis=cfg or BetaBasisConfig(),
    )


class TestStickWeights:
    def test_single_stick(self):
        assert np.allclose(stick_weights([0.3]), [0.7, 0.3])

    def test_tiny_sticks_remainder_dominates(self):
        p = stick_weights(np.full(5, 1e-12))
        assert p[0] == pytest.approx(1.0, abs=1e-10)

    def test_hand_expansion(self):
        # p0 is the remainder (1 - 0.5)^3 = 0.125.
        p = stick_weights([0.5, 0.5, 0.5])
        assert np.allclose(p, [0.125, 0.5, 0.25, 0.125])

    def test_out_of_range_rejected(self):
        for V in ([0.0], [0.2, 1.0], [0.3, np.nan], [[0.5], [np.nan]]):
            with pytest.raises(ValueError):
                stick_weights(V)

    def test_no_sticks_one_atom(self):
        assert np.array_equal(stick_weights(np.empty(0)), [1.0])

    def test_sums_to_one(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            p = stick_weights(rng.uniform(1e-6, 1.0 - 1e-6, size=rng.integers(1, 30)))
            assert np.all(p >= 0.0)
            assert p.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(shape=st.sampled_from([(20,), (1000, 20), (5, 1), (7, 2), (3, 0), (0,)]),
           seed=st.integers(0, 2**32 - 1), tiny=st.booleans())
    def test_matches_concatenated_products(self, shape, seed, tiny):
        # Reference: the remainders (1, 1 - V_1, ...) stacked with a column of
        # ones, then p_0 = the last remainder and p_l = remainder_{l-1} * V_l.
        rng = np.random.default_rng(seed)
        V = rng.uniform(1e-12, 1e-6, shape) if tiny else rng.uniform(1e-9, 1.0 - 1e-9, shape)
        remain = np.concatenate((np.ones(shape[:-1] + (1,)), np.cumprod(1.0 - V, axis=-1)), axis=-1)
        expected = np.concatenate((remain[..., -1:], remain[..., :-1] * V), axis=-1)
        assert np.array_equal(stick_weights(V), expected)

    def test_leading_axes_match_rows(self):
        rng = np.random.default_rng(33)
        V = rng.uniform(1e-6, 1.0 - 1e-6, size=(4, 5, 7))
        p = stick_weights(V)
        assert p.shape == (4, 5, 8)
        for idx in np.ndindex(4, 5):
            assert np.array_equal(p[idx], stick_weights(V[idx]))


class TestTruncatedBetaDensity:
    def test_uniform_case(self):
        x = np.linspace(0, 1, 7)
        assert np.allclose(density(x, 1, 1), 1.0)

    def test_integrates_to_one_quadrature(self):
        cfg = BetaBasisConfig()
        rng = np.random.default_rng(33)
        shapes = [(int(rng.integers(1, 61)), int(rng.integers(1, 61))) for _ in range(25)]
        for a, b in shapes:
            val, err = integrate.quad(
                lambda x: float(density(x, a, b, cfg)[0]), 0.0, 1.0,
                limit=200,
            )
            assert val == pytest.approx(1.0, abs=1e-6), (a, b)

    # With xi_left + xi_right = 1, shapes (a, b) at x and (b, a) at 1 - x
    # give the same density: the table at 1 - x is the table at x upside down.
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 100), xi_left=st.floats(0.01, 0.49))
    @example(k=13, xi_left=0.1)  # the defaults; row 5 holds shapes (5, 9)
    def test_reflection_symmetry_at_defaults(self, k, xi_left):
        cfg = BetaBasisConfig(xi_left=xi_left, xi_right=1.0 - xi_left)
        x = np.linspace(0, 1, 23)
        left = basis_matrix(x, k, cfg)
        right = basis_matrix(1.0 - x, k, cfg)[::-1]
        assert np.allclose(left, right, atol=1e-12)

    def test_strictly_positive(self):
        x = np.linspace(0, 1, 101)
        for a, b in ((1, 100), (100, 1), (50, 51)):
            assert np.all(density(x, a, b) > 0.0)

    # The normalizer is the mass of [xi_left, xi_right] as a difference on
    # the smaller tail: the lower-tail difference alone loses its digits once
    # betainc(1, 100, xi_left) rounds towards 1 (xi_left ~ 0.3). The
    # reference takes the same difference, the upper one through beta.sf.
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 100), xi_left=st.floats(0.01, 0.49), xi_right=st.floats(0.75, 0.99))
    @example(k=9, xi_left=0.2, xi_right=0.7)
    @example(k=100, xi_left=0.45, xi_right=0.9)
    def test_matches_scipy_truncated_form(self, k, xi_left, xi_right):
        cfg = BetaBasisConfig(xi_left=xi_left, xi_right=xi_right)
        x = np.linspace(0, 1, 21)
        y = cfg.xi_left + x * (cfg.xi_right - cfg.xi_left)
        j = np.arange(1, k + 1)[:, None]
        beta = stats.beta(j, k - j + 1)
        lower = beta.cdf(cfg.xi_left)
        mass = np.where(
            lower > 0.5,
            beta.sf(cfg.xi_left) - beta.sf(cfg.xi_right),
            beta.cdf(cfg.xi_right) - lower,
        )
        ref = (cfg.xi_right - cfg.xi_left) / mass * beta.pdf(y)
        assert np.allclose(basis_matrix(x, k, cfg), ref, rtol=1e-10, atol=0.0)

    # Row j of basis_matrix is a polynomial of degree k - 1 <= 99 in x, so
    # 50-point Gauss-Legendre quadrature on [0, 1] integrates it exactly up
    # to rounding (at most about 2e-13 relative seen); rtol 1e-9 bounds it.
    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 100), xi_left=st.floats(0.01, 0.49), xi_right=st.floats(0.51, 0.99))
    @example(k=100, xi_left=0.45, xi_right=0.9)
    def test_basis_rows_finite_and_normalized(self, k, xi_left, xi_right):
        cfg = BetaBasisConfig(xi_left=xi_left, xi_right=xi_right)
        nodes, weights = np.polynomial.legendre.leggauss(50)
        B = basis_matrix(np.concatenate(((1.0 + nodes) / 2.0, [0.0, 1.0])), k, cfg)
        assert np.all(np.isfinite(B)) and np.all(B > 0.0)
        assert np.allclose(B[:, :-2] @ (weights / 2.0), 1.0, rtol=1e-9, atol=0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BetaBasisConfig(xi_left=0.9, xi_right=0.1)


class TestBases:
    def test_standard_identity(self):
        x = np.linspace(0.0, 1.0, 101)
        for k in range(1, 51):
            colsums = standard_basis_matrix(x, k).sum(axis=0)
            assert np.allclose(colsums, k, atol=1e-9), k

    def test_atom_bins(self):
        assert np.array_equal(atom_bins(2, [0.5, 0.51, 0.0]), [1, 2, 1])
        assert np.array_equal(atom_bins(10, [1.0]), [10])


class TestWeightsFromMeasure:
    def test_single_atom_center(self):
        m = StickBreakingMeasure(V=[1.0 - 1e-12], W1=[0.5, 0.5], W2=[0.5, 0.5])
        w = weights_from_measure(2, 2, m)
        assert w[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginal_bin_masses(self):
        rng = np.random.default_rng(34)
        m = StickBreakingMeasure(
            V=rng.uniform(0.1, 0.9, size=8),
            W1=rng.uniform(size=9),
            W2=rng.uniform(size=9),
        )
        k1, k2 = 5, 7
        w = weights_from_measure(k1, k2, m)
        p = stick_weights(m.V)
        j1 = atom_bins(k1, m.W1)
        j2 = atom_bins(k2, m.W2)
        row = np.array([p[j1 == j].sum() for j in range(1, k1 + 1)])
        col = np.array([p[j2 == j].sum() for j in range(1, k2 + 1)])
        assert np.allclose(w.sum(axis=1), row, atol=1e-14)
        assert np.allclose(w.sum(axis=0), col, atol=1e-14)

    def test_uniform_atoms_monte_carlo(self):
        rng = np.random.default_rng(35)
        n = 20000
        # iid atoms with equal weight 1/n stand in for a measure draw.
        counts = np.zeros((2, 2))
        j1 = atom_bins(2, rng.uniform(size=n)) - 1
        j2 = atom_bins(2, rng.uniform(size=n)) - 1
        np.add.at(counts, (j1, j2), 1.0 / n)
        se = np.sqrt(0.25 * 0.75 / n)
        assert np.all(np.abs(counts - 0.25) < 3.0 * se)


class TestEvaluateSurface:
    def test_degree_one_constant(self):
        rng = np.random.default_rng(36)
        params = random_params(rng)
        params = SurfaceParams(
            tau=3.7, k1=1, k2=1, measure=params.measure, basis=params.basis
        )
        u = rng.uniform(size=9)
        lam = rng.uniform(size=9)
        assert np.allclose(evaluate_surface(params, u, lam), 3.7, atol=1e-12)

    def test_double_sum_oracle(self):
        rng = np.random.default_rng(37)
        cfg = BetaBasisConfig()
        for _ in range(200):
            params = random_params(rng, cfg=cfg)
            u = float(rng.uniform())
            lam = float(rng.uniform())
            got = evaluate_surface(params, u, lam)
            w = weights_from_measure(params.k1, params.k2, params.measure)
            bu = basis_matrix(np.array([u]), params.k1, cfg)[:, 0]
            bl = basis_matrix(np.array([lam]), params.k2, cfg)[:, 0]
            ref = params.tau * float(bu @ w @ bl)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_top_corner_basis(self):
        cfg = BetaBasisConfig()
        m = StickBreakingMeasure(V=[1.0 - 1e-12], W1=[0.999, 0.999], W2=[0.999, 0.999])
        params = SurfaceParams(tau=2.0, k1=3, k2=3, measure=m, basis=cfg)
        u, lam = 0.3, 0.8
        ref = 2.0 * float(density(u, 3, 1, cfg)[0]) * float(density(lam, 3, 1, cfg)[0])
        assert evaluate_surface(params, u, lam) == pytest.approx(ref, rel=1e-12)

    def test_linear_in_tau(self):
        rng = np.random.default_rng(38)
        params = random_params(rng)
        scaled = SurfaceParams(
            tau=5.0 * params.tau,
            k1=params.k1,
            k2=params.k2,
            measure=params.measure,
            basis=params.basis,
        )
        u = rng.uniform(size=5)
        lam = rng.uniform(size=5)
        assert np.allclose(
            evaluate_surface(scaled, u, lam), 5.0 * evaluate_surface(params, u, lam)
        )

    def test_atom_permutation_with_equal_weights(self):
        # V = (0.4, 2/3) gives p1 = p2 = 0.4, so swapping atoms 1 and 2
        # leaves the surface unchanged.
        V = [0.4, 2.0 / 3.0]
        W1 = np.array([0.11, 0.42, 0.87])
        W2 = np.array([0.65, 0.29, 0.73])
        swap = [0, 2, 1]
        a = SurfaceParams(
            tau=1.4, k1=9, k2=6,
            measure=StickBreakingMeasure(V=V, W1=W1, W2=W2),
        )
        b = SurfaceParams(
            tau=1.4, k1=9, k2=6,
            measure=StickBreakingMeasure(V=V, W1=W1[swap], W2=W2[swap]),
        )
        u = np.linspace(0, 1, 9)
        lam = np.linspace(0, 1, 9)
        assert np.allclose(
            evaluate_surface(a, u, lam), evaluate_surface(b, u, lam), rtol=1e-12
        )

    def test_positive_on_grid(self):
        rng = np.random.default_rng(39)
        u = np.linspace(0, 1, 33)[:, None]
        lam = np.linspace(0, 1, 33)[None, :]
        for _ in range(10):
            params = random_params(rng)
            f = evaluate_surface(params, u, lam)
            assert np.all(f > 0.0)

    def test_shape_sup_bound_standard_basis(self):
        # For the untruncated basis the shape b = f / tau is bounded by
        # k1 k2 times the largest bin weight.
        rng = np.random.default_rng(40)
        x = np.linspace(0, 1, 41)
        for _ in range(20):
            params = random_params(rng)
            k1, k2 = params.k1, params.k2
            w = weights_from_measure(k1, k2, params.measure)
            bu = standard_basis_matrix(x, k1)
            bl = standard_basis_matrix(x, k2)
            b = bu.T @ w @ bl
            assert b.max() <= k1 * k2 * w.max() + 1e-9

    def test_measure_shape_validation(self):
        with pytest.raises(ValueError):
            StickBreakingMeasure(V=[0.5], W1=[0.5], W2=[0.5, 0.5])
        with pytest.raises(ValueError):
            StickBreakingMeasure(V=[0.5], W1=[0.5, 1.5], W2=[0.5, 0.5])
        with pytest.raises(ValueError):
            StickBreakingMeasure(V=[0.5], W1=[np.nan, 0.5], W2=[0.5, 0.5])


@st.composite
def shape_cases(draw):
    """Sticks, atoms, degrees and a few evaluation points for the surface kernels."""
    L = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0)
    V = np.array(draw(st.lists(st.floats(0.01, 0.99), min_size=L, max_size=L)))
    W1 = np.array(draw(st.lists(unit, min_size=L + 1, max_size=L + 1)))
    W2 = np.array(draw(st.lists(unit, min_size=L + 1, max_size=L + 1)))
    k1, k2 = draw(st.integers(1, 25)), draw(st.integers(1, 25))
    u = np.array(draw(st.lists(unit, min_size=1, max_size=4)))
    lam = np.array(draw(st.lists(unit, min_size=1, max_size=4)))
    return stick_weights(V), atom_bins(k1, W1), atom_bins(k2, W2), k1, k2, u, lam


def double_sum(p, bins1, bins2, k1, k2, u, lam):
    """Brute-force sum over atoms of p_l times the two truncated beta densities,
    atom by atom in Python; broadcasts over u and lam."""
    u, lam = np.broadcast_arrays(u, lam)
    return sum(
        p_l
        * density(u.ravel(), int(j1), k1 - int(j1) + 1)
        * density(lam.ravel(), int(j2), k2 - int(j2) + 1)
        for p_l, j1, j2 in zip(p, bins1, bins2)
    ).reshape(u.shape)


class TestSurfaceShape:
    @settings(max_examples=60, deadline=None)
    @given(shape_cases())
    def test_pointwise_matches_double_sum(self, case):
        p, bins1, bins2, k1, k2, u, lam = case
        n = min(u.size, lam.size)
        u, lam = u[:n], lam[:n]
        got = p @ atom_rows(bins1, bins2, basis_matrix(u, k1), basis_matrix(lam, k2))
        assert got.shape == (n,)
        assert np.allclose(got, double_sum(p, bins1, bins2, k1, k2, u, lam), rtol=1e-12, atol=0)

    @settings(max_examples=60, deadline=None)
    @given(shape_cases())
    def test_grid_matches_double_sum_and_pointwise(self, case):
        p, bins1, bins2, k1, k2, u, lam = case
        w = bin_masses(p[None], bins1[None], bins2[None], k1, k2)[0]
        grid = basis_matrix(u, k1).T @ w @ basis_matrix(lam, k2)
        assert grid.shape == (u.size, lam.size)
        ref = double_sum(p, bins1, bins2, k1, k2, u[:, None], lam[None, :])
        assert np.allclose(grid, ref, rtol=1e-12, atol=0)
        uu, ll = np.meshgrid(u, lam, indexing="ij")
        pointwise = p @ atom_rows(
            bins1, bins2, basis_matrix(uu.ravel(), k1), basis_matrix(ll.ravel(), k2)
        )
        assert np.allclose(grid.ravel(), pointwise, rtol=1e-13, atol=0)
