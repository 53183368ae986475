"""Bayesian nonparametric estimation of time-varying power spectral densities.

The pipeline: moving periodograms of a locally stationary series feed a
dynamic Whittle likelihood, which updates a bivariate Bernstein polynomial
prior (Dirichlet-process mixture weights) via a blocked adaptive
Metropolis-Hastings sampler.  A Savage-Dickey density ratio on the
time-direction polynomial degree tests stationarity.
"""

__version__ = "0.1.0"

from .signal import (
    TimeSeries,
    InnovationSpec,
    DgpSpec,
    sample_innovations,
    simulate_dgp,
    true_tv_psd,
)
from .periodogram import (
    WindowConfig,
    MovingPeriodogramSet,
    fourier_frequencies,
    mod_index,
    moving_periodograms,
)
from .surface import (
    BetaBasisConfig,
    StickBreakingMeasure,
    SurfaceParams,
    stick_weights,
    evaluate_surface,
    weights_from_measure,
)
from .likelihood import LikelihoodGrid, build_grid, log_dynamic_whittle
from .prior import PriorConfig, log_prior, prior_prob_k1_equals_1, sample_prior
from .sampler import SamplerConfig, PosteriorSampleSet, run_chain
from .inference import (
    PosteriorSummary,
    summarize,
    savage_dickey_bf,
    ase,
)

__all__ = [
    "TimeSeries",
    "InnovationSpec",
    "DgpSpec",
    "sample_innovations",
    "simulate_dgp",
    "true_tv_psd",
    "WindowConfig",
    "MovingPeriodogramSet",
    "fourier_frequencies",
    "mod_index",
    "moving_periodograms",
    "BetaBasisConfig",
    "StickBreakingMeasure",
    "SurfaceParams",
    "stick_weights",
    "evaluate_surface",
    "weights_from_measure",
    "LikelihoodGrid",
    "build_grid",
    "log_dynamic_whittle",
    "PriorConfig",
    "log_prior",
    "prior_prob_k1_equals_1",
    "sample_prior",
    "SamplerConfig",
    "PosteriorSampleSet",
    "run_chain",
    "PosteriorSummary",
    "summarize",
    "savage_dickey_bf",
    "ase",
]
