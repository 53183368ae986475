"""Posterior summaries, boundary extension, Bayes factor and ASE metric."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .likelihood import EvaluationError
from .prior import PriorConfig, prior_prob_k1_equals_1
from .sampler import PosteriorSampleSet
from .surface import atom_bins, basis_matrix, bin_masses, stick_weights


@dataclass
class PosteriorSummary:
    """Pointwise posterior surfaces plus model-selection quantities.

    Surfaces are indexed [time, frequency].  Quantiles use the
    nearest-rank (type 1) definition; the median is the standard sample
    median.
    """

    time_grid: np.ndarray
    freq_grid: np.ndarray
    internal_time: np.ndarray
    mean: np.ndarray
    median: np.ndarray
    q05: np.ndarray
    q95: np.ndarray
    k1_pmf: np.ndarray
    k2_pmf: np.ndarray
    bayes_factor_01: float


def map_to_internal_time(v, original_n: int, m: int) -> np.ndarray:
    """Map original-axis rescaled time to the internal surface coordinate.

    The surface is estimated on internal times 1..T with T = N - 2m;
    clamping implements the constant extension over the first and last m
    original samples.
    """
    t_eff = original_n - 2 * m
    if t_eff < 1:
        raise ValueError("original series shorter than 2m + 1")
    return np.clip((np.asarray(v, dtype=float) * original_n - m) / t_eff, 0.0, 1.0)


def _draw_groups(samples: PosteriorSampleSet, u: np.ndarray, lam: np.ndarray) -> list:
    """(B_u, B_lam, w) per distinct (k1, k2): basis tables on u and lam, and the
    (g, k1, k2) tau-scaled bin masses of the g draws at those degrees."""
    cfg = samples.prior.basis
    B_u = {k: basis_matrix(u, k, cfg) for k in np.unique(samples.k1).tolist()}
    B_lam = {k: basis_matrix(lam, k, cfg) for k in np.unique(samples.k2).tolist()}
    p = np.exp(samples.log_tau)[:, None] * stick_weights(samples.V)
    keys, group = np.unique(np.column_stack((samples.k1, samples.k2)), axis=0, return_inverse=True)
    groups = []
    for g, (k1, k2) in enumerate(keys.tolist()):
        rows = group.ravel() == g
        bins1, bins2 = atom_bins(k1, samples.W1[rows]), atom_bins(k2, samples.W2[rows])
        groups.append((B_u[k1], B_lam[k2], bin_masses(p[rows], bins1, bins2, k1, k2)))
    return groups


def _pointwise_stats(block: np.ndarray):
    """Mean, median, 5% and 95% nearest-rank quantiles over the last axis.

    Sorts ``block`` in place; one sort serves all three order statistics.
    """
    n = block.shape[-1]
    mean = block.mean(axis=-1)
    block.sort(axis=-1)
    median = (block[..., (n - 1) // 2] + block[..., n // 2]) / 2
    return mean, median, block[..., ceil(n * 0.05) - 1], block[..., ceil(n * 0.95) - 1]


def summarize(
    samples: PosteriorSampleSet,
    time_grid,
    freq_grid,
    original_n: int,
    m: int,
) -> PosteriorSummary:
    """Pointwise posterior mean/median/5%/95% surfaces on a user grid.

    Besides the draws' bin masses, it holds about n * nf + 4 * nt * nf floats
    for n draws on an nt x nf grid.
    """
    if len(samples) == 0:
        raise ValueError("empty posterior sample set")
    time_grid = np.asarray(time_grid, dtype=float)
    freq_grid = np.asarray(freq_grid, dtype=float)
    u = map_to_internal_time(time_grid, original_n, m)
    nf, n = freq_grid.size, len(samples)

    # The statistics do not depend on draw order, so one (nf, n) block holds
    # the draws group by group, each cell's n draws contiguous for the sort.
    # Each distinct internal time is computed once (the grid times clamped to
    # 0 or 1 share one): a group's row surfaces (B_u[:, i] @ w) @ B_lam are
    # written transposed into its columns of the block (out=).
    times, row = np.unique(u, return_inverse=True)
    groups = _draw_groups(samples, times, freq_grid)
    stats = np.empty((4, times.size, nf))  # mean, median, q05, q95
    block = np.empty((nf, n))
    for i in range(times.size):
        start = 0
        for B_u, B_lam, w in groups:
            np.matmul(B_lam.T, (B_u[:, i] @ w).T, out=block[:, start : start + len(w)])
            start += len(w)
        stats[:, i] = _pointwise_stats(block)
    mean, median, q05, q95 = stats[:, row]

    k1_pmf = np.bincount(samples.k1, minlength=samples.prior.k_max + 1)[1:] / n
    k2_pmf = np.bincount(samples.k2, minlength=samples.prior.k_max + 1)[1:] / n

    return PosteriorSummary(
        time_grid=time_grid,
        freq_grid=freq_grid,
        internal_time=u,
        mean=mean,
        median=median,
        q05=q05,
        q95=q95,
        k1_pmf=k1_pmf,
        k2_pmf=k2_pmf,
        bayes_factor_01=savage_dickey_bf(samples, samples.prior),
    )


def posterior_mean_surface(
    samples: PosteriorSampleSet,
    time_grid,
    freq_grid,
    original_n: int,
    m: int,
) -> np.ndarray:
    """Posterior mean surface; the surface is linear in the bin masses, so
    each (k1, k2) group of draws costs one contraction of its summed masses."""
    if len(samples) == 0:
        raise ValueError("empty posterior sample set")
    freq_grid = np.asarray(freq_grid, dtype=float)
    u = map_to_internal_time(time_grid, original_n, m)
    acc = np.zeros((u.size, freq_grid.size))
    for B_u, B_lam, w in _draw_groups(samples, u, freq_grid):
        acc += B_u.T @ w.sum(axis=0) @ B_lam
    return acc / len(samples)


def savage_dickey_bf(samples: PosteriorSampleSet, prior_cfg: PriorConfig) -> float:
    """Savage-Dickey Bayes factor of the stationary model {k1 = 1}."""
    if len(samples) == 0:
        raise ValueError("empty posterior sample set")
    posterior_mass = float(np.mean(samples.k1 == 1))
    return posterior_mass / prior_prob_k1_equals_1(prior_cfg)


def ase(estimate, truth, T: int, K: int = 99) -> float:
    """Average squared error of log surfaces on the {t/T} x {j/K} grid.

    ``estimate`` and ``truth`` are vectorized callables f(u, lam).
    """
    u = np.arange(1, T + 1) / T
    lam = np.arange(0, K + 1) / K
    uu = u[:, None]
    ll = lam[None, :]
    est = np.asarray(estimate(uu, ll), dtype=float)
    tru = np.asarray(truth(uu, ll), dtype=float)
    est = np.broadcast_to(est, (T, K + 1))
    tru = np.broadcast_to(tru, (T, K + 1))
    for name, vals in (("estimate", est), ("truth", tru)):
        if np.any(~(vals > 0.0)):
            raise EvaluationError(f"{name} surface is not strictly positive on the ASE grid")
    return float(np.mean((np.log(est) - np.log(tru)) ** 2))
