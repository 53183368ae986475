"""Hyperparameters, log-prior density and prior sampling.

Hierarchy: degrees k1, k2 with pmf proportional to exp(-c k ln k) on the
positive integers, clipped at k_max (mass beyond the cap is lumped onto
it, which is what makes the Savage-Dickey ceiling come out at 27.2808
under the defaults); Dirichlet-process sticks Beta(1, M) with uniform
atoms; scale tau Inverse-Gamma(shape, rate).

Each density is written once, here: ``log_prior`` sums them on the
natural scale, and the sampler adds its logit Jacobians to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil, lgamma, log

import numpy as np

from .surface import BetaBasisConfig, StickBreakingMeasure, SurfaceParams, basis_matrix


@dataclass(frozen=True)
class PriorConfig:
    k_max: int = 100
    degree_decay: float = 0.01
    dp_mass: float = 1.0
    tau_shape: float = 0.001
    tau_rate: float = 0.001
    basis: BetaBasisConfig = field(default_factory=BetaBasisConfig)
    truncation_override: int | None = None

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        # Once the smallest interval mass of a degree is subnormal, width / mass
        # overflows; the degrees where it does lie above a threshold, so the
        # chain's largest degree is the one to check.
        with np.errstate(all="ignore"):
            if not np.all(np.isfinite(basis_matrix([0.0, 1.0], self.k_max, self.basis))):
                raise ValueError(
                    f"k_max={self.k_max} is too large for the truncation "
                    f"[{self.basis.xi_left}, {self.basis.xi_right}]: its basis is not finite"
                )
        for name in ("degree_decay", "dp_mass", "tau_shape", "tau_rate"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.truncation_override is not None and self.truncation_override < 1:
            raise ValueError("truncation_override must be >= 1")

    def truncation_level(self, m: int, n_blocks: int) -> int:
        """Stick-breaking truncation L = max(20, ceil((m B_i)^(1/3)))."""
        if self.truncation_override is not None:
            return self.truncation_override
        return max(20, ceil((m * n_blocks) ** (1.0 / 3.0)))


def _degree_log_weights(cfg: PriorConfig) -> np.ndarray:
    """Unnormalized log pmf over 1..k_max, with the tail lumped at k_max."""
    k = np.arange(1, cfg.k_max + 1, dtype=float)
    w = np.exp(-cfg.degree_decay * k * np.log(k))
    w[-1] += _tail_mass(cfg, cfg.k_max + 1)
    return np.log(w)


def _tail_mass(cfg: PriorConfig, start: int) -> float:
    """Sum of exp(-c k ln k) for k >= start, to numerical convergence."""
    total = 0.0
    k = start
    while True:
        term = np.exp(-cfg.degree_decay * k * np.log(k))
        total += term
        if term < 1e-18 * max(total, 1.0) and k > start + 10:
            return total
        k += 1
        if k > start + 10_000_000:  # pragma: no cover - decay guard
            raise RuntimeError("degree prior tail did not converge")


def degree_pmf(cfg: PriorConfig) -> np.ndarray:
    """Normalized degree pmf over 1..k_max (index 0 is k = 1)."""
    lw = _degree_log_weights(cfg)
    w = np.exp(lw - lw.max())
    return w / w.sum()


def prior_prob_k1_equals_1(cfg: PriorConfig) -> float:
    """Prior mass of the stationary model {k1 = 1}."""
    return float(degree_pmf(cfg)[0])


def log_tau_density(cfg: PriorConfig, log_tau: float) -> float:
    """Log density of ln tau under the Inverse-Gamma(shape, rate) prior on
    tau: the tau density plus the Jacobian d tau / d ln tau = tau."""
    a, b = cfg.tau_shape, cfg.tau_rate
    if -log_tau > 700.0:  # exp would overflow; the density is 0 there anyway
        return -np.inf
    return a * log(b) - lgamma(a) - a * log_tau - b * np.exp(-log_tau)


def log_stick_density(cfg: PriorConfig, V: np.ndarray) -> float:
    """Log density of the sticks V, independent Beta(1, dp_mass)."""
    M = cfg.dp_mass
    return V.size * log(M) + (M - 1.0) * float(np.log1p(-V).sum())


def log_prior(params: SurfaceParams, cfg: PriorConfig) -> float:
    """Log prior density of one surface parameterization (natural scale)."""
    if params.k1 > cfg.k_max or params.k2 > cfg.k_max:
        raise ValueError(f"degrees must not exceed k_max={cfg.k_max}")
    pmf = degree_pmf(cfg)
    log_tau = log(params.tau)
    # Uniform base measure on the unit square contributes zero.
    return (
        log_stick_density(cfg, params.measure.V)
        + float(np.log(pmf[params.k1 - 1]))
        + float(np.log(pmf[params.k2 - 1]))
        + log_tau_density(cfg, log_tau)
        - log_tau
    )


def sample_degree(cfg: PriorConfig, rng: np.random.Generator, size=None):
    pmf = degree_pmf(cfg)
    return rng.choice(np.arange(1, cfg.k_max + 1), p=pmf, size=size)


def sample_prior(
    cfg: PriorConfig,
    m: int,
    n_blocks: int,
    rng: np.random.Generator,
) -> SurfaceParams:
    """Draw one surface parameterization from the prior."""
    L = cfg.truncation_level(m, n_blocks)
    k1 = int(sample_degree(cfg, rng))
    k2 = int(sample_degree(cfg, rng))
    V = rng.beta(1.0, cfg.dp_mass, size=L)
    W1 = rng.uniform(size=L + 1)
    W2 = rng.uniform(size=L + 1)
    with np.errstate(over="ignore"):
        # The default prior is so heavy-tailed that tau occasionally
        # overflows to inf on the natural scale; ln tau is always finite.
        tau = float(np.exp(sample_log_tau(cfg, rng)))
    measure = StickBreakingMeasure(V=V, W1=W1, W2=W2)
    return SurfaceParams(tau=tau, k1=k1, k2=k2, measure=measure, basis=cfg.basis)


def sample_log_tau(cfg: PriorConfig, rng: np.random.Generator) -> float:
    """Draw ln tau from the Inverse-Gamma prior, safely in log space.

    Uses Gamma(a) = Gamma(a + 1) * U^(1/a), which avoids the underflow of
    direct Gamma draws when the shape is tiny.  For very small shapes the
    tails of ln tau span hundreds of units, so exp() of the result may
    overflow; callers that care should stay on the log scale.
    """
    g1 = rng.gamma(cfg.tau_shape + 1.0)
    log_g = log(g1) + log(rng.uniform()) / cfg.tau_shape
    return log(cfg.tau_rate) - log_g
