"""Accelerated Langevin sampling toolkit.

Kernels for the position-dissipation-accelerated dynamics and its baselines,
closed-form convergence analysis, Gaussian/χ² diagnostics, and a seeded
experiment harness with a CLI.
"""

from .potentials import PotentialModel, builtin_potential, gradient_check
from .rng import RandomSource, ZeroNoise
from .samplers import (
    ChainState,
    DivergenceError,
    SamplerConfig,
    make_stepper,
    phi_covariance,
    phi_half_step,
    phi_kernel,
    psi_tilde_step,
    simulate_chain,
)
from .analysis import (
    AffineGaussianMap,
    GaussianSummary,
    TheoryConstants,
    discrete_stationary_covariance,
    gaussian_continuous_propagation,
    hfhr_demo2_parameters,
    iteration_complexity,
    optimal_alpha,
    rate_bound_chi2_convex,
    rate_bound_chi2_poincare,
    rate_bound_w2,
    spectral_radius,
    step_affine_map,
    step_thresholds,
    theory_constants,
    uld_optimal_discount,
    w2_bound_discrete,
)
from .metrics import (
    chi2_gaussian_1d,
    chi2_histogram,
    empirical_moments,
    loglog_slope,
    mean_error,
    w2_gaussian,
)

__version__ = "0.1.0"
