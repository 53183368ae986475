"""Moving periodogram ordinates at cycling Fourier frequencies.

Each ordinate is a local periodogram over a window of width 2m + 1
evaluated at a single Fourier frequency; the frequency index cycles
1, 2, ..., m, 1, 2, ... as the window slides.  No FFT shortcut exists
because every window contributes one ordinate at one frequency only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signal import TimeSeries


@dataclass(frozen=True)
class WindowConfig:
    """Half-window size; the local window length is 2m + 1."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("half-window size m must be >= 1")


@dataclass(frozen=True)
class MovingPeriodogramSet:
    """Ordinates MI_t, t = 1..T, with T = N - 2m.

    ``ordinates[t-1]`` belongs to frequency index ``mod_index(t, m)``.
    """

    m: int
    T: int
    ordinates: np.ndarray


def fourier_frequencies(m: int) -> np.ndarray:
    """Rescaled Fourier frequencies 2j/(2m+1), j = 1..m."""
    if m < 1:
        raise ValueError("half-window size m must be >= 1")
    return 2.0 * np.arange(1, m + 1) / (2 * m + 1)


def mod_index(t, m: int):
    """Cycling frequency index 1 + ((t - 1) mod m)."""
    return 1 + (np.asarray(t) - 1) % m


def moving_periodograms(x: TimeSeries, cfg: WindowConfig) -> MovingPeriodogramSet:
    """Compute all moving periodogram ordinates of a series.

    The observed series is treated as the padded record, so the effective
    length is T = N - 2m and internal time t corresponds to the original
    sample index t + m.
    """
    values = x.values
    m = cfg.m
    n = values.size
    if n < 2 * m + 2:
        raise ValueError(
            f"series of length {n} too short for m={m}; need at least {2 * m + 2}"
        )
    T = n - 2 * m
    width = 2 * m + 1
    lam = fourier_frequencies(m)

    # Window for internal time t (1-based) is values[t-1 : t+2m].
    windows = sliding_window_view(values, width)[:T]
    nu = np.arange(width)
    mi = np.empty(T)
    # Frequency j's windows are t = j, j + m, j + 2m, ...
    for j in range(1, m + 1):
        kernel = np.exp(-1j * np.pi * nu * lam[j - 1])
        amp = windows[j - 1 :: m] @ kernel
        mi[j - 1 :: m] = (amp.real ** 2 + amp.imag ** 2) / (2.0 * np.pi * width)
    return MovingPeriodogramSet(m=m, T=T, ordinates=mi)
