"""Blocked adaptive Metropolis-Hastings sampler for the tv-PSD posterior.

The chain state is two tables: the polynomial degrees ``k`` ({k1, k2}) and
the logit-transformed blocks ``z`` ({V, W1, W2}), plus ln tau.  A sweep
runs the move table ``_Chain.moves`` in the order of ``BLOCK_NAMES``:
a symmetrized Poisson random walk on each degree, a Roberts-Rosenthal
adaptive Gaussian random walk on each logit block and a uniform random
walk on ln tau with Robbins-Monro width tuning.  Every move that gets
as far as a proposal is scored by the one log ratio in ``_Chain._propose``
and settled by the one Metropolis test ``_Chain._accept``, which draws the
uniform, records the outcome in the move log and commits the proposal on
acceptance; only a degree proposal that is out of range or has step 0 is
settled without a uniform.  Each block's prior term, its density from
``tvspec.prior`` plus the chain's own Jacobian, comes from the table
``_Chain.prior_term``.  All adaptation freezes at the end of burn-in.

The sweep is incremental.  Besides the state, the chain caches each block's
current prior term, the current log-likelihood ``ll``, each axis's atom
bins, the atom rows ``G = B_u[bins1 - 1] * B_lam[bins2 - 1]`` and the
Whittle terms (A, C) of the surface ``p @ G``.  The cache is state like
any other: a move proposes new entries and ``_accept`` commits them.  What
each move recomputes:

- k1 or k2: that axis's bins, then every row of ``G`` (two gathers and one
  product), since the new degree reads another basis table;
- W1 or W2: that axis's bins; only the rows whose bin changed are rebuilt
  with ``surface.atom_rows``.  With no bin changed the surface is the same,
  so A and C are reused and nothing is evaluated;
- V: the surface ``p' @ G``, with no gather;
- every move: the new block's prior term only, the old one is cached, and
  the log-likelihood of the proposal only, the current one is ``ll``.

Both k and W moves go through ``_Chain._rebin``.  A proposal writes its
``G`` into the chain's spare buffer (a degree move gathers its second
factor into a scratch buffer), and an accepted proposal swaps the spare and
current ``G``, so a sweep allocates no (L+1) x E array.  The Whittle terms
are summed from two E-vectors the chain owns: the surface ``p @ G`` is
written into one and ``ln b`` or ``MI / b`` into the other, so a surface
evaluation allocates no E-vector either.  Every cached value
is the same float that a recomputation from scratch gives
(``check_cache_drift``), so the draws are those of a chain that recomputes
everything at every move.

The chain works on transformed coordinates throughout; the target density
on those coordinates includes the logit and log Jacobians.  tau never
leaves log space, which keeps prior-only runs stable even though the
default Inverse-Gamma(0.001, 0.001) has astronomically heavy tails.

A prior-only run is this chain on a grid with no entries: G has no
columns, so A = C = 0 exactly and the likelihood, a product over the
entries, is 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from math import inf, isfinite, log, sqrt

import numpy as np
from scipy.special import expit, logit

from .likelihood import LikelihoodGrid
from .periodogram import MovingPeriodogramSet
from .prior import PriorConfig, degree_pmf, log_stick_density, log_tau_density
from .surface import (
    StickBreakingMeasure,
    SurfaceParams,
    atom_bins,
    atom_rows,
    basis_matrix,
    stick_weights,
)

BLOCK_NAMES = ("k1", "k2", "W1", "W2", "V", "tau")
INIT_DEGREE = 20
ADAPT_START = 200  # sweeps before the adaptive proposal covariance is used
ADAPT_MIX_WEIGHT = 0.05  # share of small fixed-scale proposals after that
TAU_TARGET_ACCEPT = 0.44
TAU_BATCH = 50  # sweeps per Robbins-Monro update of the tau width
K_POISSON_RATE = 1.0  # mean step of the degree random walk
WINDOW = 1000  # sweeps per progress call and per acceptance window

# Outcome codes of the move log, one int8 per sweep and block: acceptance
# rates, the tau width tuning and the progress hook all read slices of it.
# 0 marks a move that was never recorded; a null (step-0) degree move
# counts as accepted in the block rates.
REJECT, ACCEPT, NULL = 1, 2, 3
COLUMN = {name: col for col, name in enumerate(BLOCK_NAMES)}

# The two atom axes, keyed by their atom block: (k1, W1) bin the u axis and
# (k2, W2) the lambda axis.
DEGREE = {"W1": "k1", "W2": "k2"}
AXIS = {degree: axis for axis, degree in DEGREE.items()}


class InitializationError(RuntimeError):
    """The chain could not be started from a finite log-posterior."""


@dataclass(frozen=True)
class SamplerConfig:
    n_iter: int = 110_000
    burn_in: int = 60_000
    thin: int = 5
    tau_width_init: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.burn_in < self.n_iter:
            raise ValueError("need 0 <= burn_in < n_iter")
        if self.thin < 1:
            raise ValueError("thin must be >= 1")
        if (self.n_iter - self.burn_in) // self.thin < 1:
            raise ValueError("need at least one retained draw: (n_iter - burn_in) // thin >= 1")
        if not self.tau_width_init > 0:
            raise ValueError("tau_width_init must be > 0")


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
    prior: PriorConfig
    sampler: SamplerConfig
    # (n_iter, 6) outcome codes, rows are sweeps, columns follow BLOCK_NAMES.
    move_log: np.ndarray = field(default_factory=lambda: np.zeros((0, len(BLOCK_NAMES)), np.int8))
    runtime_seconds: float = 0.0
    tau_width_final: float = 0.0

    def __len__(self):
        return self.k1.size

    def _phases(self, log: np.ndarray) -> dict:
        burn_in = self.sampler.burn_in
        return {"overall": block_rates(log), "post_burn_in": block_rates(log[burn_in:])}

    @property
    def acceptance(self) -> dict:
        """Block rates over the whole run and after burn-in."""
        return self._phases(self.move_log)

    @property
    def acceptance_non_null(self) -> dict:
        """k1 and k2 rates with the null (step-0) moves left out."""
        degrees = self.move_log[:, :2]  # the k1 and k2 columns
        return self._phases(np.where(degrees == NULL, 0, degrees))

    @property
    def acceptance_windows(self) -> dict:
        """Each block's rate over consecutive WINDOW-sweep windows; the last
        window may be partial."""
        log = self.move_log
        rates = [block_rates(log[lo : lo + WINDOW]) for lo in range(0, len(log), WINDOW)]
        return {name: [r[name] for r in rates] for name in BLOCK_NAMES}

    def surface_params(self, idx: int) -> SurfaceParams:
        measure = StickBreakingMeasure(V=self.V[idx], W1=self.W1[idx], W2=self.W2[idx])
        return SurfaceParams(
            tau=float(np.exp(self.log_tau[idx])),
            k1=int(self.k1[idx]),
            k2=int(self.k2[idx]),
            measure=measure,
            basis=self.prior.basis,
        )


def block_rates(log: np.ndarray) -> dict:
    """Acceptance rate of each block over rows of a move log, keyed by the
    BLOCK_NAMES of its columns; NaN for a block with no recorded move."""
    moved = np.count_nonzero(log, axis=0).tolist()
    accepted = np.count_nonzero(log >= ACCEPT, axis=0).tolist()  # ACCEPT or NULL
    rates = zip(BLOCK_NAMES, moved, accepted)
    return {name: a / n if n else float("nan") for name, n, a in rates}


class _AdaptiveBlock:
    """Running mean/covariance of a block's past draws (Welford)."""

    def __init__(self, dim: int):
        self.count = 0
        self.mean = np.zeros(dim)
        self.m2 = np.zeros((dim, dim))
        self.jitter = 1e-10 * np.eye(dim)
        self.cov = np.empty((dim, dim))
        self.chol = None

    def update(self, z: np.ndarray):
        self.count += 1
        delta = z - self.mean
        self.mean += delta / self.count
        self.m2 += delta[:, None] * (z - self.mean)
        if self.count > 2:
            np.divide(self.m2, self.count - 1, out=self.cov)
            self.cov += self.jitter
            self.chol = np.linalg.cholesky(self.cov)


class _Chain:
    def __init__(
        self,
        periodograms: MovingPeriodogramSet,
        grid: LikelihoodGrid,
        prior_cfg: PriorConfig,
        cfg: SamplerConfig,
    ):
        self.prior_cfg = prior_cfg
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.mi = periodograms.ordinates[grid.t - 1]
        self.points = {"W1": grid.u, "W2": grid.lam}  # each atom axis at the entries
        self.n_entries = len(grid)
        # The surface b = p @ G and the summands ln b or MI / b of the Whittle
        # terms, written in place by _whittle_terms.
        self.shape_buf = np.empty(self.n_entries)
        self.term_buf = np.empty(self.n_entries)
        self.L = prior_cfg.truncation_level(grid.m, grid.n_blocks)
        self.log_pmf = np.log(degree_pmf(prior_cfg))

        # Basis matrices at the entries, per axis keyed by degree: at most
        # k_max per axis.
        self.basis: dict[str, dict[int, np.ndarray]] = {axis: {} for axis in self.points}

        self._init_state()
        self.adapt = {name: _AdaptiveBlock(z.size) for name, z in self.z.items()}
        self.tau_log_width = log(cfg.tau_width_init)
        self.log = np.zeros((cfg.n_iter, len(BLOCK_NAMES)), dtype=np.int8)
        self.iteration = 0

    # -- state -----------------------------------------------------------

    def _init_state(self):
        k0 = min(INIT_DEGREE, self.prior_cfg.k_max)
        self.k = {"k1": k0, "k2": k0}
        # log_posterior sums the prior terms in the order of _fresh_cache:
        # tau, then z, then k.
        self.z = {
            "V": np.zeros(self.L),  # V = 0.5
            "W1": logit(self.rng.uniform(size=self.L + 1)),
            "W2": logit(self.rng.uniform(size=self.L + 1)),
        }
        self.p = stick_weights(expit(self.z["V"]))
        mean_mi = float(np.mean(self.mi)) if self.n_entries else 0.0
        self.log_tau = log(mean_mi) if mean_mi > 0 else 0.0
        vars(self).update(self._fresh_cache())
        # A proposal writes its G into spare, which an accepted one swaps
        # with the current G; scratch is never swapped.
        self.spare = np.empty_like(self.G)
        self.scratch = np.empty_like(self.G)
        if not (np.isfinite(self.A) and np.isfinite(self.C) and np.isfinite(self.log_tau)):
            raise InitializationError("non-finite likelihood terms at initialization")
        if not np.isfinite(self.log_posterior()):
            raise InitializationError("non-finite log-posterior at initialization")

    def _fresh_cache(self) -> dict:
        """The cache of the current state, computed from scratch: each block's
        prior term, each axis's bins, the atom rows G, the Whittle terms A
        and C and the log-likelihood ll."""
        terms = {"tau": self.prior_term["tau"](self, self.log_tau)}
        for name, value in (*self.z.items(), *self.k.items()):
            terms[name] = self.prior_term[name](self, value)
        bins = {axis: atom_bins(self.k[DEGREE[axis]], expit(self.z[axis])) for axis in DEGREE}
        tables = self._tables(self.k)
        G = atom_rows(bins["W1"], bins["W2"], tables["W1"], tables["W2"])
        A, C = self._whittle_terms(self.p, G)
        ll = self._loglik(A, C, self.log_tau)
        return {"terms": terms, "bins": bins, "G": G, "A": A, "C": C, "ll": ll}

    def _whittle_terms(self, p: np.ndarray, G: np.ndarray):
        """(sum ln b_e, sum MI_e / b_e) for the surface shape b = p @ G (tau
        factored out), computed in the chain's two E-vectors."""
        b, t = self.shape_buf, self.term_buf
        np.matmul(p, G, out=b)
        return float(np.log(b, out=t).sum()), float(np.divide(self.mi, b, out=t).sum())

    def _tables(self, k: dict) -> dict:
        """Each axis's (k, E) basis table at the degrees ``k``."""
        tables = {}
        for axis, degree in DEGREE.items():
            cache = self.basis[axis]
            mat = cache.get(k[degree])
            if mat is None:
                mat = cache[k[degree]] = basis_matrix(
                    self.points[axis], k[degree], self.prior_cfg.basis
                )
            tables[axis] = mat
        return tables

    # -- log densities ----------------------------------------------------

    def _loglik(self, A, C, log_tau) -> float:
        return -self.n_entries * log_tau - A - np.exp(-log_tau) * C

    def _degree_term(self, k: int) -> float:
        return self.log_pmf[k - 1]

    def _logit_jacobian(self, z) -> float:
        """Sum over coordinates of ln sigma(z) + ln(1 - sigma(z)); the whole
        prior term of the uniform atoms."""
        return float(-(np.logaddexp(0.0, z) + np.logaddexp(0.0, -z)).sum())

    # Log prior term of each block in the chain's coordinates: the density
    # from tvspec.prior plus the chain's Jacobian (ln tau's is in
    # log_tau_density).  Class-level tables hold plain functions, so a chain
    # is not kept alive by a reference cycle through its own bound methods.
    prior_term = {
        "k1": _degree_term,
        "k2": _degree_term,
        "W1": _logit_jacobian,
        "W2": _logit_jacobian,
        "V": lambda self, zV: (
            log_stick_density(self.prior_cfg, expit(zV)) + self._logit_jacobian(zV)
        ),
        "tau": lambda self, log_tau: log_tau_density(self.prior_cfg, log_tau),
    }

    def log_posterior(self) -> float:
        total = self.ll
        for term in self.terms.values():
            total += term
        return total

    # -- moves -------------------------------------------------------------

    def _record(self, name: str, code: int):
        if self.iteration < 1:
            raise RuntimeError(f"{name} move called outside sweep()")
        self.log[self.iteration - 1, COLUMN[name]] = code

    def _accept(self, name: str, delta: float, **proposal):
        """Metropolis test of the log ratio ``delta``; on accept, set ``proposal``.

        The uniform is drawn even when ``delta`` is -inf, so a proposal with
        prior density 0 is rejected without shifting the random stream.
        """
        accepted = log(self.rng.random()) < delta
        self._record(name, ACCEPT if accepted else REJECT)
        if accepted:
            vars(self).update(proposal)

    def _propose(self, name: str, new, **proposal):
        """Metropolis step for block ``name`` at the value ``new``; ``proposal``
        holds the new state and cache entries.  A proposal that changes A, C
        or ln tau is scored by its own log-likelihood, which it takes from the
        proposal where it has them, else from the state; any other keeps the
        cached ll.  A proposal whose prior term is not finite is rejected
        unscored."""
        term = self.prior_term[name](self, new)
        delta = -inf
        if isfinite(term):
            ll = self.ll
            if "A" in proposal or "log_tau" in proposal:
                ll = proposal["ll"] = self._loglik(
                    proposal.get("A", self.A),
                    proposal.get("C", self.C),
                    proposal.get("log_tau", self.log_tau),
                )
            delta = ll - self.ll + term - self.terms[name]
        self._accept(name, delta, terms={**self.terms, name: term}, **proposal)

    def _rebin(self, axis: str, k: dict, z: dict) -> dict:
        """Cache entries of a move of ``axis``'s degree or atoms to the degrees
        ``k`` and logits ``z``: bins, G in the spare buffer (the current G is
        the spare on accept), A and C.  A degree move rebuilds every row of G,
        as the new degree reads another basis table; an atom move only the
        rows whose bin changed, and with none changed it proposes nothing."""
        bins = {**self.bins, axis: atom_bins(k[DEGREE[axis]], expit(z[axis]))}
        tables = self._tables(k)
        G = self.spare
        if k[DEGREE[axis]] != self.k[DEGREE[axis]]:
            # Bins lie in 1..k, so "clip" never clips; it lets take write into
            # the buffers without a temporary.
            np.take(tables["W1"], bins["W1"] - 1, axis=0, out=G, mode="clip")
            G *= np.take(tables["W2"], bins["W2"] - 1, axis=0, out=self.scratch, mode="clip")
        else:
            changed = np.flatnonzero(bins[axis] != self.bins[axis])
            if not changed.size:
                return {}
            G[...] = self.G
            G[changed] = atom_rows(
                bins["W1"][changed], bins["W2"][changed], tables["W1"], tables["W2"]
            )
        A, C = self._whittle_terms(self.p, G)
        return {"bins": bins, "G": G, "spare": self.G, "A": A, "C": C}

    def step_degree(self, name: str):
        k_old = self.k[name]
        step = int(self.rng.poisson(K_POISSON_RATE))
        k_new = k_old + (step if self.rng.random() < 0.5 else -step)
        if k_new == k_old or not 1 <= k_new <= self.prior_cfg.k_max:
            # Decided without a uniform: an out-of-range degree is rejected,
            # and a null move (step 0) is recorded as such.
            self._record(name, NULL if k_new == k_old else REJECT)
            return
        k = {**self.k, name: k_new}
        self._propose(name, k_new, k=k, **self._rebin(AXIS[name], k, self.z))

    def _propose_increment(self, name: str, dim: int) -> np.ndarray:
        blk = self.adapt[name]
        adaptive = self.iteration > ADAPT_START and blk.chol is not None
        safe = not adaptive or self.rng.random() < ADAPT_MIX_WEIGHT
        noise = self.rng.standard_normal(dim)
        if safe:
            return (0.01 / sqrt(dim)) * noise
        return (2.38 / sqrt(dim)) * (blk.chol @ noise)

    def step_logits(self, name: str):
        z_old = self.z[name]
        z_new = z_old + self._propose_increment(name, z_old.size)
        z = {**self.z, name: z_new}
        if name == "V":
            V = expit(z_new)
            if not (V.min() > 0.0 and V.max() < 1.0):
                # A stick rounded to 0 or 1 has prior density 0 (a NaN one
                # none at all).
                self._accept(name, -inf)
                return
            p = stick_weights(V)
            A, C = self._whittle_terms(p, self.G)
            surface = {"p": p, "A": A, "C": C}
        else:
            surface = self._rebin(name, self.k, z)
        self._propose(name, z_new, z=z, **surface)

    def step_tau(self, name: str):
        width = np.exp(self.tau_log_width)
        lt_new = self.log_tau + (self.rng.random() - 0.5) * width
        self._propose(name, lt_new, log_tau=lt_new)

        # Robbins-Monro width tuning on each batch of sweeps, burn-in only.
        it = self.iteration
        if it <= self.cfg.burn_in and it % TAU_BATCH == 0:
            accepted = np.count_nonzero(self.log[it - TAU_BATCH : it, COLUMN[name]] == ACCEPT)
            gain = min(0.25, 1.0 / sqrt(it // TAU_BATCH))
            self.tau_log_width += gain if accepted / TAU_BATCH > TAU_TARGET_ACCEPT else -gain

    # The move of each block; sweep() runs them in the order of BLOCK_NAMES.
    moves = {
        "k1": step_degree,
        "k2": step_degree,
        "W1": step_logits,
        "W2": step_logits,
        "V": step_logits,
        "tau": step_tau,
    }

    def sweep(self):
        self.iteration += 1
        for name in BLOCK_NAMES:
            self.moves[name](self, name)
        if self.iteration <= self.cfg.burn_in:
            for name, blk in self.adapt.items():
                blk.update(self.z[name])

    def check_cache_drift(self):
        """Raise AssertionError unless the cache equals a recomputation from
        scratch: bins, G and prior terms exactly, A and C to a relative 1e-8,
        and ll exactly the log-likelihood of the cached A, C and ln tau."""
        fresh = self._fresh_cache()
        A, C = fresh.pop("A"), fresh.pop("C")
        del fresh["ll"]
        drift = max(abs(A - self.A), abs(C - self.C))
        if drift > 1e-8 * max(1.0, abs(self.A), abs(self.C)):
            raise AssertionError(f"cached likelihood terms drifted by {drift}")
        ll = self._loglik(self.A, self.C, self.log_tau)
        if self.ll != ll:
            raise AssertionError(f"cached log-likelihood {self.ll} differs from {ll}")
        for key, value in fresh.items():
            cached = vars(self)[key]
            if isinstance(value, dict):
                same = all(np.array_equal(cached[part], v) for part, v in value.items())
            else:
                same = np.array_equal(cached, value)
            if not same:
                raise AssertionError(f"cached {key!r} differs from a recomputation")


def run_chain(
    periodograms: MovingPeriodogramSet,
    grid: LikelihoodGrid,
    prior_cfg: PriorConfig,
    sampler_cfg: SamplerConfig,
    use_likelihood: bool = True,
    progress=None,
) -> PosteriorSampleSet:
    """Run one MCMC chain and return thinned post-burn-in draws.

    ``use_likelihood=False`` samples the prior: the chain runs on ``grid``
    with its entries removed (m and the block count, so L, are kept), where
    the Whittle terms are exactly A = C = 0.

    ``progress``, if given, is called as progress(iteration, log_posterior,
    acceptance_rates) every WINDOW sweeps, with the block rates so far.
    Fully deterministic for a given ``sampler_cfg.seed``.
    """
    start = time.perf_counter()
    if not use_likelihood:
        grid = replace(grid, t=grid.t[:0], j=grid.j[:0])
    chain = _Chain(periodograms, grid, prior_cfg, sampler_cfg)

    n_keep = (sampler_cfg.n_iter - sampler_cfg.burn_in) // sampler_cfg.thin
    out = PosteriorSampleSet(
        **{name: np.empty(n_keep, dtype=np.int64) for name in chain.k},
        **{name: np.empty((n_keep, z.size)) for name, z in chain.z.items()},
        log_tau=np.empty(n_keep),
        log_post=np.empty(n_keep),
        prior=prior_cfg,
        sampler=sampler_cfg,
    )

    kept = 0
    for it in range(1, sampler_cfg.n_iter + 1):
        chain.sweep()
        if it > sampler_cfg.burn_in and (it - sampler_cfg.burn_in) % sampler_cfg.thin == 0:
            for name, k in chain.k.items():
                getattr(out, name)[kept] = k
            for name, z in chain.z.items():
                getattr(out, name)[kept] = expit(z)
            out.log_tau[kept] = chain.log_tau
            out.log_post[kept] = chain.log_posterior()
            kept += 1
        if progress is not None and it % WINDOW == 0:
            progress(it, chain.log_posterior(), block_rates(chain.log[:it]))

    out.move_log = chain.log
    out.runtime_seconds = time.perf_counter() - start
    out.tau_width_final = float(np.exp(chain.tau_log_width))
    return out
