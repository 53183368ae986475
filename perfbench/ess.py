"""Effective sample size by Geyer's initial monotone sequence estimator.

Geyer, "Practical Markov Chain Monte Carlo", Statistical Science 7 (1992).
The autocorrelations are summed in adjacent pairs; the sum stops at the
first pair that is not positive, and each pair is capped by the one before
it, so the estimated integrated autocorrelation time never oscillates.
"""

import numpy as np


def geyer_ess(x) -> float:
    """ESS of one chain's draws ``x``.

    A chain whose draws are all equal cannot tell a point-mass posterior from
    a stuck chain; its ESS is reported as 1, the worth of a single draw.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    x = x - x.mean()
    if not np.any(x):
        return 1.0
    if n < 4:
        return float(n)
    spectrum = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spectrum * spectrum.conj(), 2 * n)[:n]
    rho = acov / acov[0]
    pairs = rho[0 : 2 * (n // 2) : 2] + rho[1 : 2 * (n // 2) : 2]
    stop = np.flatnonzero(pairs <= 0.0)
    if stop.size:
        pairs = pairs[: stop[0]]
    pairs = np.minimum.accumulate(pairs)
    # The floor 1/log10(n) keeps strongly antithetic chains finite, as in Stan.
    tau = max(-1.0 + 2.0 * pairs.sum(), 1.0 / np.log10(n))
    return float(n / tau)
