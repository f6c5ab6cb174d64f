"""Numerical laboratory for the Airy process and discrete polynuclear
growth: the two-time Airy kernel and its Fredholm determinants, exact
growth/last-passage simulation, and the finite-N contour-integral kernel,
plus the statistical experiments comparing both to Brownian motion."""

from .errors import DomainError, NumericsError, InsufficientDataError
from .special import airy_ai, airy_ai_prime, panel_rule
from .airy_kernel import extended_airy_kernel, a_tilde, heat_phi
from .fredholm import (TimeGrid, gap_probability, tw2_cdf, tw2_pdf,
                       conditional_window_probability,
                       increment_variance, long_range_covariance)
from .png_sim import (PngConfig, HeightField, simulate, last_passage_table,
                      coupling_check, coupling_check_detail, rescale_H,
                      d_scaling, growth_speed)
from .png_kernel import (PngKernelParams, default_params, ktilde_matrix,
                         phi_values, kn_block_matrix,
                         discrete_gap_probability,
                         airy_limit_report)
from .harness import (PngExperimentPlan, ExperimentReport, ks_distance,
                      run_png_brownian_experiment,
                      run_airy_brownian_experiment,
                      gaussian_window_integral)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
