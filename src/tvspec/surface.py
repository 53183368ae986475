"""Bernstein-polynomial tv-PSD surfaces over the unit square.

A surface is tau times a mixture of tensor products of truncated-dilated
beta densities; the mixture weights come from a truncated stick-breaking
measure whose atoms are binned by degree.  Truncation of the beta basis
to [xi_left, xi_right] keeps every basis value bounded away from 0 and
infinity, so evaluation never needs log space.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc, gammaln


@dataclass(frozen=True)
class BetaBasisConfig:
    """Truncation points of the dilated beta basis."""

    xi_left: float = 0.1
    xi_right: float = 0.9

    def __post_init__(self):
        if not 0.0 < self.xi_left < self.xi_right < 1.0:
            raise ValueError("need 0 < xi_left < xi_right < 1")


DEFAULT_BASIS = BetaBasisConfig()


def _beta_pdf(y, a, b):
    """Standard beta density; broadcasts over all arguments."""
    y = np.asarray(y, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        ln = (
            gammaln(a + b)
            - gammaln(a)
            - gammaln(b)
            + np.where(a == 1.0, 0.0, (a - 1.0) * np.log(y))
            + np.where(b == 1.0, 0.0, (b - 1.0) * np.log1p(-y))
        )
    return np.exp(ln)


def truncated_beta_density(x, a, b, cfg: BetaBasisConfig = DEFAULT_BASIS):
    """Truncated-dilated beta density on [0, 1] with shapes (a, b) >= 1;
    broadcasts over x, a and b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not np.all((a >= 1.0) & (b >= 1.0)):
        raise ValueError("shape parameters must be >= 1")
    y = cfg.xi_left + np.asarray(x, dtype=float) * (cfg.xi_right - cfg.xi_left)
    mass = betainc(a, b, cfg.xi_right) - betainc(a, b, cfg.xi_left)
    return (cfg.xi_right - cfg.xi_left) / mass * _beta_pdf(y, a, b)


def basis_matrix(x, k: int, cfg: BetaBasisConfig = DEFAULT_BASIS) -> np.ndarray:
    """Truncated basis values beta~(x; j, k-j+1) for j = 1..k, shape (k, len(x))."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    j = np.arange(1, k + 1)[:, None]
    return truncated_beta_density(x[None, :], j, k - j + 1, cfg)


def standard_basis_matrix(x, k: int) -> np.ndarray:
    """Untruncated basis beta(x; j, k-j+1), j = 1..k; rows sum to k at every x."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    j = np.arange(1, k + 1)[:, None]
    return _beta_pdf(x[None, :], j, k - j + 1)


def stick_weights(V) -> np.ndarray:
    """Weights (p_0, p_1, ..., p_L) of truncated stick-breaking measures.

    p_l = V_l * prod_{r<l} (1 - V_r) for l >= 1; p_0 absorbs the remainder
    so the weights always sum to one.  The sticks run along the last axis
    of ``V``; leading axes index measures.
    """
    V = np.asarray(V, dtype=float)
    if V.size and not (V.min() > 0.0 and V.max() < 1.0):  # NaN fails too
        raise ValueError("sticks must lie strictly inside (0, 1)")
    L = V.shape[-1]
    remain = np.cumprod(1.0 - V, axis=-1)  # remain[..., l] = prod_{r<=l} (1 - V_r)
    p = np.empty(V.shape[:-1] + (L + 1,))
    p[..., 0] = remain[..., -1] if L else 1.0
    p[..., 1:2] = V[..., :1]
    np.multiply(remain[..., :-1], V[..., 1:], out=p[..., 2:])
    return p


@dataclass(frozen=True)
class StickBreakingMeasure:
    """Truncated Sethuraman representation with L sticks and L + 1 atoms."""

    V: np.ndarray
    W1: np.ndarray
    W2: np.ndarray

    def __post_init__(self):
        V = np.asarray(self.V, dtype=float)
        W1 = np.asarray(self.W1, dtype=float)
        W2 = np.asarray(self.W2, dtype=float)
        if W1.size != V.size + 1 or W2.size != V.size + 1:
            raise ValueError("need L sticks and L + 1 atoms per coordinate")
        for w in (W1, W2):
            if not (w.min() >= 0.0 and w.max() <= 1.0):  # NaN fails too
                raise ValueError("atoms must lie in [0, 1]")
        object.__setattr__(self, "V", V)
        object.__setattr__(self, "W1", W1)
        object.__setattr__(self, "W2", W2)

    @property
    def L(self) -> int:
        return self.V.size

    def weights(self) -> np.ndarray:
        return stick_weights(self.V)


def atom_bins(k: int, W) -> np.ndarray:
    """Map atoms in [0, 1] to basis indices ceil(k W) clamped to >= 1."""
    return np.maximum(1, np.ceil(k * np.asarray(W, dtype=float)).astype(int))


@dataclass(frozen=True)
class SurfaceParams:
    """One tv-PSD surface: scale, degrees and mixing measure."""

    tau: float
    k1: int
    k2: int
    measure: StickBreakingMeasure
    basis: BetaBasisConfig = field(default_factory=BetaBasisConfig)

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        if self.k1 < 1 or self.k2 < 1:
            raise ValueError("degrees must be >= 1")


def bin_masses(p, bins1, bins2, k1: int, k2: int) -> np.ndarray:
    """(n, k1, k2) bin masses w of n measures; row i of ``p``, ``bins1`` and
    ``bins2`` holds the atom weights and 1-based atom bins of measure i.

    On a tensor grid, measure i's surface divided by tau is the random
    Bernstein polynomial B_u.T @ w[i] @ B_lam, with (k1, nu) and (k2, nlam)
    basis tables: no per-atom product is needed.
    """
    w = np.zeros((len(p), k1, k2))
    np.add.at(w, (np.arange(len(p))[:, None], bins1 - 1, bins2 - 1), p)
    return w


def weights_from_measure(k1: int, k2: int, measure: StickBreakingMeasure) -> np.ndarray:
    """Bin masses of the measure on the k1 x k2 dyadic-style grid."""
    p, b1, b2 = measure.weights(), atom_bins(k1, measure.W1), atom_bins(k2, measure.W2)
    return bin_masses(p[None], b1[None], b2[None], k1, k2)[0]


def atom_rows(bins1, bins2, B_u, B_lam) -> np.ndarray:
    """Each atom's tensor basis function at E points: row l is
    B_u[bins1_l - 1] * B_lam[bins2_l - 1].

    ``bins1`` and ``bins2`` are 1-based atom bins from ``atom_bins`` (any
    subset of the atoms); the entry-aligned (k, E) basis tables have one row
    per degree index.  The sampler caches the rows of all atoms; an atom
    move rebuilds here only the ones whose bin it changed.
    """
    return B_u[bins1 - 1] * B_lam[bins2 - 1]


def surface_shape(p, bins1, bins2, B_u, B_lam) -> np.ndarray:
    """Surface divided by tau at E points: the weights ``p`` contracted with
    the atom rows, sum_l p_l B_u[bins1_l] * B_lam[bins2_l]."""
    return p @ atom_rows(bins1, bins2, B_u, B_lam)


def evaluate_surface(params: SurfaceParams, u, lam) -> np.ndarray:
    """Evaluate the surface pointwise; ``u`` and ``lam`` broadcast."""
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    u, lam = np.broadcast_arrays(u, lam)
    shape = u.shape

    m = params.measure
    vals = params.tau * surface_shape(
        m.weights(),
        atom_bins(params.k1, m.W1),
        atom_bins(params.k2, m.W2),
        basis_matrix(u.ravel(), params.k1, params.basis),
        basis_matrix(lam.ravel(), params.k2, params.basis),
    )
    return vals.reshape(shape) if shape else float(vals[0])
