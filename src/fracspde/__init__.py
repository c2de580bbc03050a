"""Spectral-Galerkin / convolution-quadrature solver for a stochastic
nonlinear time-fractional diffusion equation driven by fractional Gaussian
noise, plus Monte Carlo convergence-rate studies."""

__version__ = "0.1.0"

from . import cq, fbm, spectral  # noqa: E402,F401
from .solver import Discretization, ModelParams, run_ensemble, run_trajectory  # noqa: E402,F401
from .experiments import (  # noqa: E402,F401
    ExperimentConfig,
    RatePrediction,
    StudyResult,
    emit_table,
    pathwise_error,
    predict_rates,
    run_convergence_study,
)
