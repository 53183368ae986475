"""Dynamic Whittle likelihood: index grid construction and evaluation.

The likelihood treats moving periodogram ordinates as independent
exponentials with mean f(t/T, lambda_j).  Thinning keeps every i-th block
of m consecutive time points; blocks are generated until their start
passes T and entries beyond T are dropped, so for i = 1 the grid is
exactly {1, ..., T} and thinned grids always cover the tail.

``entry_ordinates``, which the likelihood and the sampler both read, gives
each entry's ordinate and rejects a periodogram set of another T or m.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from .periodogram import MovingPeriodogramSet, fourier_frequencies, mod_index


class EvaluationError(RuntimeError):
    """A likelihood term could not be evaluated (nonpositive f or bad data)."""


@dataclass(frozen=True)
class LikelihoodGrid:
    """(time, frequency) index set of a (thinned) dynamic Whittle likelihood."""

    T: int
    m: int
    t: np.ndarray  # internal time indices, 1-based
    j: np.ndarray  # frequency indices, 1..m
    n_blocks: int  # B_i = ceil((T - m) / (i m))

    @property
    def u(self) -> np.ndarray:
        """Rescaled times t / T."""
        return self.t / self.T

    @property
    def lam(self) -> np.ndarray:
        """Rescaled frequencies of each entry."""
        return fourier_frequencies(self.m)[self.j - 1]

    def __len__(self):
        return self.t.size


def build_grid(T: int, m: int, thinning: int = 1) -> LikelihoodGrid:
    """Build the (thinned) likelihood index grid."""
    if thinning not in (1, 2, 3):
        raise ValueError("thinning factor must be 1, 2 or 3")
    if m < 1 or T < m:
        raise ValueError(f"need T >= m >= 1, got T={T}, m={m}")
    # Time t is in block (t - 1) // m; every thinning-th block is kept.
    t = np.flatnonzero((np.arange(T) // m) % thinning == 0) + 1
    return LikelihoodGrid(
        T=T,
        m=m,
        t=t,
        j=mod_index(t, m),
        n_blocks=ceil((T - m) / (thinning * m)),
    )


def entry_ordinates(periodograms: MovingPeriodogramSet, grid: LikelihoodGrid) -> np.ndarray:
    """The periodogram ordinate at each grid entry; the grid must have been
    built for the set's T and m."""
    if grid.T != periodograms.T or grid.m != periodograms.m:
        raise ValueError("grid and periodogram set do not match")
    return periodograms.ordinates[grid.t - 1]


def log_dynamic_whittle(
    f: np.ndarray,
    periodograms: MovingPeriodogramSet,
    grid: LikelihoodGrid,
) -> float:
    """Log of the (thinned) dynamic Whittle likelihood of the surface values
    ``f`` at the grid entries (one value per entry, in the grid's order)."""
    mi = entry_ordinates(periodograms, grid)
    bad = ~(np.isfinite(f) & (f > 0.0) & np.isfinite(mi))
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise EvaluationError(
            f"non-finite likelihood term at t={int(grid.t[idx])}, j={int(grid.j[idx])}"
        )
    return float(np.sum(-np.log(f) - mi / f))

