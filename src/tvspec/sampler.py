"""Blocked adaptive Metropolis-Hastings sampler for the tv-PSD posterior.

One sweep updates, in order: the two polynomial degrees (symmetrized
Poisson random walk), the three logit-transformed stick/atom blocks
(Roberts-Rosenthal adaptive Gaussian random walk) and ln tau (uniform
random walk with Robbins-Monro width tuning).  All adaptation freezes at
the end of burn-in.

The chain works on transformed coordinates throughout; the target density
on those coordinates includes the logit and log Jacobians.  tau never
leaves log space, which keeps prior-only runs stable even though the
default Inverse-Gamma(0.001, 0.001) has astronomically heavy tails.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from math import lgamma, log, sqrt

import numpy as np

from .likelihood import LikelihoodGrid
from .periodogram import MovingPeriodogramSet
from .prior import PriorConfig, degree_pmf
from .surface import (
    StickBreakingMeasure,
    SurfaceParams,
    atom_bins,
    basis_matrix,
    stick_weights,
    surface_shape,
)

BLOCK_NAMES = ("k1", "k2", "W1", "W2", "V", "tau")


class InitializationError(RuntimeError):
    """The chain could not be started from a finite log-posterior."""


@dataclass(frozen=True)
class SamplerConfig:
    n_iter: int = 110_000
    burn_in: int = 60_000
    thin: int = 5
    k_poisson_rate: float = 1.0
    adapt_start: int = 200
    adapt_mix_weight: float = 0.05
    tau_width_init: float = 1.0
    tau_target_accept: float = 0.44
    init_degree: int = 20
    seed: int = 0
    debug_check_every: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError("need 0 <= burn_in < n_iter")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")


@dataclass
class PosteriorSampleSet:
    """Retained post-burn-in draws plus run bookkeeping."""

    k1: np.ndarray
    k2: np.ndarray
    log_tau: np.ndarray
    V: np.ndarray
    W1: np.ndarray
    W2: np.ndarray
    log_post: np.ndarray
    m: int
    T: int
    thinning: int
    L: int
    prior: PriorConfig
    sampler: SamplerConfig
    acceptance: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0
    tau_width_final: float = 0.0

    def __len__(self):
        return self.k1.size

    def surface_params(self, idx: int) -> SurfaceParams:
        measure = StickBreakingMeasure(V=self.V[idx], W1=self.W1[idx], W2=self.W2[idx])
        return SurfaceParams(
            tau=float(np.exp(self.log_tau[idx])),
            k1=int(self.k1[idx]),
            k2=int(self.k2[idx]),
            measure=measure,
            basis=self.prior.basis,
        )


def _expit(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _logit_jacobian(z) -> float:
    """Sum over coordinates of ln sigma(z) + ln(1 - sigma(z))."""
    return float(-np.sum(np.logaddexp(0.0, z) + np.logaddexp(0.0, -z)))


class _AdaptiveBlock:
    """Running mean/covariance of a block's past draws (Welford)."""

    def __init__(self, dim: int):
        self.dim = dim
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))
        self.chol = None

    def update(self, z: np.ndarray):
        self.count += 1
        delta = z - self.mean
        self.mean += delta / self.count
        self.m2 += np.outer(delta, z - self.mean)
        if self.count > 2:
            cov = self.m2 / (self.count - 1)
            cov = cov + 1e-10 * np.eye(self.dim)
            self.chol = np.linalg.cholesky(cov)


class _Chain:
    def __init__(
        self,
        periodograms: MovingPeriodogramSet,
        grid: LikelihoodGrid,
        prior_cfg: PriorConfig,
        cfg: SamplerConfig,
        rng: np.random.Generator,
        use_likelihood: bool,
    ):
        self.prior_cfg = prior_cfg
        self.cfg = cfg
        self.rng = rng
        self.use_likelihood = use_likelihood
        self.grid = grid
        self.mi = periodograms.ordinates[grid.t - 1]
        self.u, self.lam = grid.u, grid.lam
        self.n_entries = len(grid)
        self.L = prior_cfg.truncation_level(grid.m, grid.n_blocks)
        self.log_pmf = np.log(degree_pmf(prior_cfg))

        # Basis matrices at the entries, keyed by degree: at most k_max per axis.
        self.basis_u: dict[int, np.ndarray] = {}
        self.basis_lam: dict[int, np.ndarray] = {}

        self._init_state()
        self.adapt = {name: _AdaptiveBlock(dim) for name, dim in
                      (("W1", self.L + 1), ("W2", self.L + 1), ("V", self.L))}
        self.tau_log_width = log(cfg.tau_width_init)
        self._tau_batch = [0, 0, 0]  # batch index, proposals, accepts
        self.proposals = {name: 0 for name in BLOCK_NAMES}
        self.accepts = {name: 0 for name in BLOCK_NAMES}
        self.post_proposals = {name: 0 for name in BLOCK_NAMES}
        self.post_accepts = {name: 0 for name in BLOCK_NAMES}
        self.iteration = 0

    # -- state -----------------------------------------------------------

    def _init_state(self):
        cfg = self.cfg
        self.k1 = min(cfg.init_degree, self.prior_cfg.k_max)
        self.k2 = min(cfg.init_degree, self.prior_cfg.k_max)
        self.zV = np.zeros(self.L)  # V = 0.5
        self.zW1 = _logit_of(self.rng.uniform(size=self.L + 1))
        self.zW2 = _logit_of(self.rng.uniform(size=self.L + 1))
        if self.use_likelihood:
            mean_mi = float(np.mean(self.mi))
            self.log_tau = log(mean_mi) if mean_mi > 0 else 0.0
        else:
            self.log_tau = 0.0
        self._refresh_natural()
        self.A, self.C = self._whittle_terms(self.k1, self.k2, self.zW1, self.zW2, self.p)
        if not (np.isfinite(self.A) and np.isfinite(self.C) and np.isfinite(self.log_tau)):
            raise InitializationError("non-finite likelihood terms at initialization")
        if not np.isfinite(self.log_posterior()):
            raise InitializationError("non-finite log-posterior at initialization")

    def _refresh_natural(self):
        self.V = _expit(self.zV)
        self.p = stick_weights(self.V)

    def _whittle_terms(self, k1, k2, zW1, zW2, p):
        """(sum ln b_e, sum MI_e / b_e) for the surface shape b (tau factored out)."""
        if not self.use_likelihood:
            return 0.0, 0.0
        b = surface_shape(
            p,
            atom_bins(k1, _expit(zW1)),
            atom_bins(k2, _expit(zW2)),
            self._basis(self.basis_u, self.u, k1),
            self._basis(self.basis_lam, self.lam, k2),
        )
        return float(np.sum(np.log(b))), float(np.sum(self.mi / b))

    def _basis(self, cache: dict, points: np.ndarray, k: int) -> np.ndarray:
        mat = cache.get(k)
        if mat is None:
            mat = cache[k] = basis_matrix(points, k, self.prior_cfg.basis)
        return mat

    # -- log densities ----------------------------------------------------

    def _loglik(self, A, C, log_tau) -> float:
        if not self.use_likelihood:
            return 0.0
        return -self.n_entries * log_tau - A - np.exp(-log_tau) * C

    def _tau_term(self, log_tau) -> float:
        """Inverse-Gamma log prior on tau plus the d tau / d ln tau Jacobian."""
        a, b = self.prior_cfg.tau_shape, self.prior_cfg.tau_rate
        if -log_tau > 700.0:  # exp would overflow; the density is 0 there anyway
            return -np.inf
        return a * log(b) - lgamma(a) - a * log_tau - b * np.exp(-log_tau)

    def _v_term(self, zV) -> float:
        M = self.prior_cfg.dp_mass
        V = _expit(zV)
        return (
            self.L * log(M)
            + (M - 1.0) * float(np.sum(np.log1p(-V)))
            + _logit_jacobian(zV)
        )

    def log_posterior(self) -> float:
        return (
            self._loglik(self.A, self.C, self.log_tau)
            + self._tau_term(self.log_tau)
            + self._v_term(self.zV)
            + _logit_jacobian(self.zW1)
            + _logit_jacobian(self.zW2)
            + self.log_pmf[self.k1 - 1]
            + self.log_pmf[self.k2 - 1]
        )

    # -- moves -------------------------------------------------------------

    def _record(self, name: str, accepted: bool):
        self.proposals[name] += 1
        self.accepts[name] += accepted
        if self.iteration > self.cfg.burn_in:
            self.post_proposals[name] += 1
            self.post_accepts[name] += accepted

    def step_degree(self, which: str):
        k_old = self.k1 if which == "k1" else self.k2
        step = int(self.rng.poisson(self.cfg.k_poisson_rate))
        sign = 1 if self.rng.uniform() < 0.5 else -1
        k_new = k_old + sign * step
        if k_new < 1 or k_new > self.prior_cfg.k_max:
            self._record(which, False)
            return
        if k_new == k_old:
            self._record(which, True)
            return
        if which == "k1":
            A_new, C_new = self._whittle_terms(k_new, self.k2, self.zW1, self.zW2, self.p)
        else:
            A_new, C_new = self._whittle_terms(self.k1, k_new, self.zW1, self.zW2, self.p)
        delta = (
            self._loglik(A_new, C_new, self.log_tau)
            - self._loglik(self.A, self.C, self.log_tau)
            + self.log_pmf[k_new - 1]
            - self.log_pmf[k_old - 1]
        )
        accepted = log(self.rng.uniform()) < delta
        if accepted:
            if which == "k1":
                self.k1 = k_new
            else:
                self.k2 = k_new
            self.A, self.C = A_new, C_new
        self._record(which, accepted)

    def _propose_increment(self, name: str, dim: int) -> np.ndarray:
        blk = self.adapt[name]
        safe = (
            self.iteration <= self.cfg.adapt_start
            or blk.chol is None
            or self.rng.uniform() < self.cfg.adapt_mix_weight
        )
        noise = self.rng.standard_normal(dim)
        if safe:
            return (0.01 / sqrt(dim)) * noise
        return (2.38 / sqrt(dim)) * (blk.chol @ noise)

    def step_block(self, name: str):
        if name == "V":
            z_old = self.zV
        elif name == "W1":
            z_old = self.zW1
        else:
            z_old = self.zW2
        z_new = z_old + self._propose_increment(name, z_old.size)

        if name == "V":
            V_new = _expit(z_new)
            if np.any(V_new <= 0.0) or np.any(V_new >= 1.0):
                # A stick rounded to 0 or 1 has prior density 0: reject, and
                # draw the accept uniform anyway to keep the stream aligned.
                self.rng.uniform()
                self._record(name, False)
                return
            p_new = stick_weights(V_new)
            A_new, C_new = self._whittle_terms(self.k1, self.k2, self.zW1, self.zW2, p_new)
            delta_prior = self._v_term(z_new) - self._v_term(z_old)
        elif name == "W1":
            A_new, C_new = self._whittle_terms(self.k1, self.k2, z_new, self.zW2, self.p)
            delta_prior = _logit_jacobian(z_new) - _logit_jacobian(z_old)
        else:
            A_new, C_new = self._whittle_terms(self.k1, self.k2, self.zW1, z_new, self.p)
            delta_prior = _logit_jacobian(z_new) - _logit_jacobian(z_old)

        delta = (
            self._loglik(A_new, C_new, self.log_tau)
            - self._loglik(self.A, self.C, self.log_tau)
            + delta_prior
        )
        accepted = log(self.rng.uniform()) < delta
        if accepted:
            if name == "V":
                self.zV = z_new
                self._refresh_natural()
            elif name == "W1":
                self.zW1 = z_new
            else:
                self.zW2 = z_new
            self.A, self.C = A_new, C_new
        self._record(name, accepted)

    def step_tau(self):
        width = np.exp(self.tau_log_width)
        lt_new = self.log_tau + (self.rng.uniform() - 0.5) * width
        prior_new = self._tau_term(lt_new)
        if np.isfinite(prior_new):
            delta = (
                self._loglik(self.A, self.C, lt_new)
                - self._loglik(self.A, self.C, self.log_tau)
                + prior_new
                - self._tau_term(self.log_tau)
            )
            accepted = log(self.rng.uniform()) < delta
        else:
            self.rng.uniform()  # keep the stream aligned with the accept draw
            accepted = False
        if accepted:
            self.log_tau = lt_new
        self._record("tau", accepted)

        # Robbins-Monro width tuning in batches of 50, burn-in only.
        if self.iteration <= self.cfg.burn_in:
            self._tau_batch[1] += 1
            self._tau_batch[2] += accepted
            if self._tau_batch[1] == 50:
                self._tau_batch[0] += 1
                rate = self._tau_batch[2] / 50.0
                gain = min(0.25, 1.0 / sqrt(self._tau_batch[0]))
                self.tau_log_width += gain if rate > self.cfg.tau_target_accept else -gain
                self._tau_batch[1] = 0
                self._tau_batch[2] = 0

    def sweep(self):
        self.iteration += 1
        self.step_degree("k1")
        self.step_degree("k2")
        self.step_block("W1")
        self.step_block("W2")
        self.step_block("V")
        self.step_tau()
        if self.iteration <= self.cfg.burn_in:
            self.adapt["W1"].update(self.zW1)
            self.adapt["W2"].update(self.zW2)
            self.adapt["V"].update(self.zV)

    def check_cache_drift(self):
        A, C = self._whittle_terms(self.k1, self.k2, self.zW1, self.zW2, self.p)
        drift = max(abs(A - self.A), abs(C - self.C))
        if drift > 1e-8 * max(1.0, abs(self.A), abs(self.C)):
            raise AssertionError(f"cached likelihood terms drifted by {drift}")


def _logit_of(w: np.ndarray) -> np.ndarray:
    return np.log(w) - np.log1p(-w)


def run_chain(
    periodograms: MovingPeriodogramSet,
    grid: LikelihoodGrid,
    prior_cfg: PriorConfig,
    sampler_cfg: SamplerConfig,
    rng: np.random.Generator | None = None,
    use_likelihood: bool = True,
    progress=None,
) -> PosteriorSampleSet:
    """Run one MCMC chain and return thinned post-burn-in draws.

    ``progress``, if given, is called as progress(iteration, log_posterior,
    acceptance_rates) every 1000 sweeps.  Fully deterministic for a given
    seed when ``rng`` is left unset.
    """
    if rng is None:
        rng = np.random.default_rng(sampler_cfg.seed)
    start = time.perf_counter()
    chain = _Chain(periodograms, grid, prior_cfg, sampler_cfg, rng, use_likelihood)

    n_keep = (sampler_cfg.n_iter - sampler_cfg.burn_in) // sampler_cfg.thin
    L = chain.L
    out = PosteriorSampleSet(
        k1=np.empty(n_keep, dtype=np.int64),
        k2=np.empty(n_keep, dtype=np.int64),
        log_tau=np.empty(n_keep),
        V=np.empty((n_keep, L)),
        W1=np.empty((n_keep, L + 1)),
        W2=np.empty((n_keep, L + 1)),
        log_post=np.empty(n_keep),
        m=grid.m,
        T=grid.T,
        thinning=grid.thinning,
        L=L,
        prior=prior_cfg,
        sampler=sampler_cfg,
    )

    kept = 0
    for it in range(1, sampler_cfg.n_iter + 1):
        chain.sweep()
        if sampler_cfg.debug_check_every and it % sampler_cfg.debug_check_every == 0:
            chain.check_cache_drift()
        if it > sampler_cfg.burn_in and (it - sampler_cfg.burn_in) % sampler_cfg.thin == 0:
            if kept < n_keep:
                out.k1[kept] = chain.k1
                out.k2[kept] = chain.k2
                out.log_tau[kept] = chain.log_tau
                out.V[kept] = _expit(chain.zV)
                out.W1[kept] = _expit(chain.zW1)
                out.W2[kept] = _expit(chain.zW2)
                out.log_post[kept] = chain.log_posterior()
                kept += 1
        if progress is not None and it % 1000 == 0:
            progress(it, chain.log_posterior(), _rates(chain.proposals, chain.accepts))

    out.acceptance = {
        "overall": _rates(chain.proposals, chain.accepts),
        "post_burn_in": _rates(chain.post_proposals, chain.post_accepts),
    }
    out.runtime_seconds = time.perf_counter() - start
    out.tau_width_final = float(np.exp(chain.tau_log_width))
    return out


def _rates(proposals: dict, accepts: dict) -> dict:
    return {
        name: (accepts[name] / proposals[name]) if proposals[name] else float("nan")
        for name in BLOCK_NAMES
    }
