"""Time-series containers, simulation models and their closed-form spectra.

The six built-in data generating processes (DGPs) cover slowly varying
moving-average and autoregressive recursions (LS1-LS3), a piecewise
stationary AR switch (PS1) and two stationary references (S1, S2).  Each
has a closed-form time-varying spectral density used for validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

VALID_DGPS = ("LS1", "LS2", "LS3", "PS1", "S1", "S2")

GAUSSIAN = "gaussian"
STUDENT_T3 = "student-t3"
PARETO = "pareto"
INNOVATION_KINDS = (GAUSSIAN, STUDENT_T3, PARETO)

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

# Standardization constants: t(3) has variance 3; Pareto(shape 4, scale 1)
# has mean 4/3 and variance 2/9.
_T3_SD = np.sqrt(3.0)
_PARETO_MEAN = 4.0 / 3.0
_PARETO_SD = np.sqrt(2.0 / 9.0)


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


def sample_innovations(spec: InnovationSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` iid innovations from the chosen standardized family."""
    if spec.kind == GAUSSIAN:
        return rng.standard_normal(n)
    if spec.kind == STUDENT_T3:
        return rng.standard_t(3, size=n) / _T3_SD
    # numpy's pareto() is the Lomax form; +1 gives Pareto with scale 1.
    raw = rng.pareto(4.0, size=n) + 1.0
    return (raw - _PARETO_MEAN) / _PARETO_SD


def dgp_path(model: str, T: int, innovations: np.ndarray) -> np.ndarray:
    """Run a DGP recursion on a given innovation stream.

    ``innovations`` must have length T + 2; the first two entries are the
    pre-period draws feeding the MA terms of the first observations.  AR
    recursions start from X_0 = 0.
    """
    w = np.asarray(innovations, dtype=float)
    if w.size != T + 2:
        raise ValueError(f"need {T + 2} innovations, got {w.size}")
    t = np.arange(1, T + 1, dtype=float)
    u = t / T
    # w[t+1] is the innovation of observation t (t = 1..T).
    wt, wtm1, wtm2 = w[2:], w[1:-1], w[:-2]

    if model == "LS1":
        theta1 = 1.122 * (1.0 - 1.718 * np.sin(0.5 * np.pi * u))
        return wt + theta1 * wtm1 - 0.81 * wtm2
    if model == "LS2":
        theta1 = 1.1 * np.cos(1.5 - np.cos(4.0 * np.pi * u))
        return wt + theta1 * wtm1
    if model == "S2":
        return wt - 0.36 * wtm1 + 0.85 * wtm2
    if model == "LS3":
        a = 1.2 * u - 0.6
        x = np.empty(T)
        prev = 0.0
        for i in range(T):
            prev = a[i] * prev + wt[i]
            x[i] = prev
        return x
    if model == "PS1":
        half = T // 2
        x = np.empty(T)
        prev = 0.0
        for i in range(T):
            a = -0.5 if (i + 1) <= half else 0.5
            prev = a * prev + wt[i]
            x[i] = prev
        return x
    if model == "S1":
        x = np.empty(T)
        prev = 0.0
        for i in range(T):
            prev = 0.75 * prev + wt[i] + 0.8 * wtm1[i]
            x[i] = prev
        return x
    raise ValueError(f"unknown DGP {model!r}")


def simulate_dgp(spec: DgpSpec, rng: np.random.Generator) -> TimeSeries:
    """Simulate one realization of the given DGP."""
    w = sample_innovations(spec.innovation, spec.T + 2, rng)
    return TimeSeries(dgp_path(spec.model, spec.T, w))


def true_tv_psd(model: str, u, lam):
    """Closed-form tv-PSD of a built-in DGP.

    ``u`` and ``lam`` are rescaled time and frequency in [0, 1] (the
    angular frequency is pi * lam); inputs broadcast against each other.
    """
    u = np.asarray(u, dtype=float)
    lam = np.asarray(lam, dtype=float)
    u, lam = np.broadcast_arrays(u, lam)
    e1 = np.exp(-1j * np.pi * lam)

    if model == "LS1":
        theta1 = 1.122 * (1.0 - 1.718 * np.sin(0.5 * np.pi * u))
        return np.abs(1.0 + theta1 * e1 - 0.81 * e1 ** 2) ** 2 / (2.0 * np.pi)
    if model == "LS2":
        theta1 = 1.1 * np.cos(1.5 - np.cos(4.0 * np.pi * u))
        return np.abs(1.0 + theta1 * e1) ** 2 / (2.0 * np.pi)
    if model == "LS3":
        a = 1.2 * u - 0.6
        return 1.0 / (2.0 * np.pi * np.abs(1.0 - a * e1) ** 2)
    if model == "PS1":
        a = np.where(u <= 0.5, -0.5, 0.5)
        return 1.0 / (2.0 * np.pi * np.abs(1.0 - a * e1) ** 2)
    if model == "S1":
        num = np.abs(1.0 + 0.8 * e1) ** 2
        den = np.abs(1.0 - 0.75 * e1) ** 2
        return np.broadcast_to(num / den / (2.0 * np.pi), u.shape).copy()
    if model == "S2":
        out = np.abs(1.0 - 0.36 * e1 + 0.85 * e1 ** 2) ** 2 / (2.0 * np.pi)
        return np.broadcast_to(out, u.shape).copy()
    raise ValueError(f"unknown DGP {model!r}")
