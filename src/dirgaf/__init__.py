"""Random Dirichlet series at criticality: simulation, limit kernels, zeros, statistics."""

__version__ = "0.1.0"

from .coeff_models import (
    CoefficientModel,
    CoefficientStream,
    CovarianceSpec,
    covariance_sqrt,
    implied_covariance,
)
from .series_eval import (
    EvalRequest,
    ScaledSeriesSampler,
    SeriesSpec,
    choose_truncation,
    estimate_sigma_c,
    eval_partial,
    eval_shifted_alpha_derivative,
    scaled_eval,
    tail_std_bound,
)
from .limit_gaf import (
    GridSample,
    KernelParams,
    hyperbolic_gaf_coeff_sq,
    joint_real_covariance,
    kernel_hermitian,
    kernel_pseudo,
    mobius,
    mobius_inv,
    s_alpha_covariance,
    sample_gaf_cholesky,
    sample_gaf_integral,
    sample_power_series_gaf,
    time_change_to_disk,
)
from .zero_finder import (
    PointMeasure,
    Region,
    count_in_mapped_disk,
    count_real_zeros,
    disk_image,
    locate_zeros,
    mapped_disk_rectangle,
    real_zeros,
    winding_count,
    winding_with_retry,
)
from .stats_harness import (
    LILParams,
    StatReport,
    ZeroCountLaw,
    clt_normality_check,
    empirical_complex_covariance,
    lil_band_check,
    real_zero_process_comparison,
    scaled_covariance_experiment,
    zero_count_experiment,
    zero_count_pmf,
    zeta_limit_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
