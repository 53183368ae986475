"""Time-series containers, simulation models and their closed-form spectra.

The six built-in data generating processes (DGPs) cover slowly varying
moving-average and autoregressive recursions (LS1-LS3), a piecewise
stationary AR switch (PS1) and two stationary references (S1, S2).  All
are tvARMA(1, 2) processes, one row each of the table ``MODELS``; the
simulator ``dgp_path`` and the closed-form tv-PSD ``true_tv_psd`` both
read their coefficients from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# X_t = phi(u) X_{t-1} + w_t + theta1(u) w_{t-1} + theta2(u) w_{t-2} at
# u = t / T, with X_0 = 0: each model's (phi, theta1, theta2), every
# coefficient a constant or a function of u.
MODELS = {
    "LS1": (0.0, lambda u: 1.122 * (1.0 - 1.718 * np.sin(0.5 * np.pi * u)), -0.81),
    "LS2": (0.0, lambda u: 1.1 * np.cos(1.5 - np.cos(4.0 * np.pi * u)), 0.0),
    "LS3": (lambda u: 1.2 * u - 0.6, 0.0, 0.0),
    "PS1": (lambda u: np.where(u <= 0.5, -0.5, 0.5), 0.0, 0.0),
    "S1": (0.75, 0.8, 0.0),
    "S2": (0.0, -0.36, 0.85),
}
VALID_DGPS = tuple(MODELS)

GAUSSIAN = "gaussian"
STUDENT_T3 = "student-t3"
PARETO = "pareto"

# Standardization constants: t(3) has variance 3; Pareto(shape 4, scale 1)
# has mean 4/3 and variance 2/9.
_T3_SD = np.sqrt(3.0)
_PARETO_MEAN = 4.0 / 3.0
_PARETO_SD = np.sqrt(2.0 / 9.0)

# n standardized draws of each family; numpy's pareto() is Lomax, +1 makes it Pareto(scale 1).
INNOVATIONS = {
    GAUSSIAN: lambda n, rng: rng.standard_normal(n),
    STUDENT_T3: lambda n, rng: rng.standard_t(3, size=n) / _T3_SD,
    PARETO: lambda n, rng: ((rng.pareto(4.0, size=n) + 1.0) - _PARETO_MEAN) / _PARETO_SD,
}
INNOVATION_KINDS = tuple(INNOVATIONS)

# CLI shorthand used in run configs: a = gaussian, b = t3, c = pareto.
INNOVATION_ALIASES = {
    "a": GAUSSIAN,
    "b": STUDENT_T3,
    "c": PARETO,
    "gaussian": GAUSSIAN,
    "gaussian-standard": GAUSSIAN,
    "student-t3": STUDENT_T3,
    "student-t3-standardized": STUDENT_T3,
    "t3": STUDENT_T3,
    "pareto": PARETO,
    "pareto-standardized": PARETO,
}


@dataclass(frozen=True)
class TimeSeries:
    """Ordered real-valued observations."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("time series must be a non-empty 1-d array")
        if not np.all(np.isfinite(v)):
            bad = int(np.flatnonzero(~np.isfinite(v))[0])
            raise ValueError(f"non-finite value at position {bad}")
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.size


@dataclass(frozen=True)
class InnovationSpec:
    """Zero-mean, unit-variance innovation family."""

    kind: str = GAUSSIAN

    def __post_init__(self):
        kind = INNOVATION_ALIASES.get(self.kind)
        if kind is None:
            raise ValueError(
                f"unknown innovation kind {self.kind!r}; "
                f"expected one of {INNOVATION_KINDS}"
            )
        object.__setattr__(self, "kind", kind)


@dataclass(frozen=True)
class DgpSpec:
    """A simulation model, innovation family and target length."""

    model: str
    innovation: InnovationSpec = field(default_factory=InnovationSpec)
    T: int = 1500

    def __post_init__(self):
        if self.model not in VALID_DGPS:
            raise ValueError(
                f"unknown DGP {self.model!r}; expected one of {VALID_DGPS}"
            )
        if self.T < 1:
            raise ValueError("T must be >= 1")


def _coefficients(model: str, u) -> tuple:
    """(phi, theta1, theta2) of ``model`` at the rescaled times in the float
    array ``u``, each broadcast to the shape of ``u``."""
    if model not in MODELS:
        raise ValueError(f"unknown DGP {model!r}")
    return tuple(np.broadcast_to(c(u) if callable(c) else c, u.shape) for c in MODELS[model])


def sample_innovations(spec: InnovationSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` iid innovations from the chosen standardized family."""
    return INNOVATIONS[spec.kind](n, rng)


def dgp_path(model: str, T: int, innovations: np.ndarray) -> np.ndarray:
    """Run a DGP recursion on a given innovation stream.

    ``innovations`` must have length T + 2; the first two entries are the
    pre-period draws feeding the MA terms of the first observations.  The
    recursion starts from X_0 = 0.
    """
    w = np.asarray(innovations, dtype=float)
    if w.size != T + 2:
        raise ValueError(f"need {T + 2} innovations, got {w.size}")
    phi, theta1, theta2 = _coefficients(model, np.arange(1, T + 1, dtype=float) / T)
    # w[t+1] is the innovation of observation t (t = 1..T).
    ma1, ma2 = theta1 * w[1:-1], theta2 * w[:-2]
    x = []
    prev = 0.0
    for a, wt, b1, b2 in zip(phi.tolist(), w[2:].tolist(), ma1.tolist(), ma2.tolist()):
        prev = a * prev + wt + b1 + b2
        x.append(prev)
    return np.array(x, dtype=float)


def simulate_dgp(spec: DgpSpec, rng: np.random.Generator) -> TimeSeries:
    """Simulate one realization of the given DGP."""
    w = sample_innovations(spec.innovation, spec.T + 2, rng)
    return TimeSeries(dgp_path(spec.model, spec.T, w))


def true_tv_psd(model: str, u, lam):
    """Closed-form tv-PSD of a built-in DGP,
    |1 + theta1 e + theta2 e^2|^2 / (2 pi |1 - phi e|^2) with e = exp(-i pi lam).

    ``u`` and ``lam`` are rescaled time and frequency in [0, 1] (the
    angular frequency is pi * lam); inputs broadcast against each other.
    """
    u, lam = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(lam, dtype=float))
    phi, theta1, theta2 = _coefficients(model, u)
    e1 = np.exp(-1j * np.pi * lam)
    num = np.abs(1.0 + theta1 * e1 + theta2 * e1 ** 2) ** 2
    return num / (2.0 * np.pi * np.abs(1.0 - phi * e1) ** 2)
