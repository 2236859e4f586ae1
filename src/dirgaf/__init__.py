"""Random Dirichlet series at criticality: simulation, limit kernels, zeros, statistics.

The names below are resolved on first access (PEP 562), so ``import dirgaf``
loads no submodule, and a submodule such as ``dirgaf.limit_gaf`` loads only
what it imports itself.  No submodule imports ``scipy.stats`` or ``mpmath``
at module level: the two functions of ``dirgaf.stats_harness`` that need them
import them when called.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names re-exported from it
_EXPORTS = {
    "coeff_models": (
        "CoefficientModel",
        "CoefficientStream",
        "CovarianceSpec",
        "covariance_sqrt",
        "implied_covariance",
    ),
    "series_eval": (
        "ScaledSeriesSampler",
        "SeriesSpec",
        "choose_truncation",
        "estimate_sigma_c",
        "eval_partial",
        "eval_shifted_alpha_derivative",
        "tail_std_bound",
    ),
    "limit_gaf": (
        "GridSample",
        "KernelParams",
        "hyperbolic_gaf_coeff_sq",
        "joint_real_covariance",
        "kernel_hermitian",
        "kernel_pseudo",
        "mobius",
        "mobius_inv",
        "s_alpha_covariance",
        "sample_gaf_cholesky",
        "sample_gaf_integral",
        "sample_power_series_gaf",
        "time_change_to_disk",
    ),
    "zero_finder": (
        "PointMeasure",
        "Region",
        "count_real_zeros",
        "disk_image",
        "locate_zeros",
        "mapped_disk_rectangle",
        "real_zeros",
        "winding_count",
        "winding_with_retry",
    ),
    "stats_harness": (
        "LILParams",
        "StatReport",
        "ZeroCountLaw",
        "clt_normality_check",
        "empirical_complex_covariance",
        "lil_band_check",
        "real_zero_process_comparison",
        "scaled_covariance_experiment",
        "zero_count_experiment",
        "zero_count_pmf",
        "zeta_limit_check",
    ),
}
_SUBMODULES = (*_EXPORTS, "errors")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
