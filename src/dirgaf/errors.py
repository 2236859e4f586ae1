"""Exception types shared across the package, and the guard that reports a float64 overflow as one."""

from contextlib import contextmanager

import numpy as np


class DirgafError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(DirgafError, ValueError):
    """A precondition on an argument was violated (domain, length, pairing...)."""


class ResourceCapError(DirgafError):
    """A requested computation would exceed a configured resource cap."""


class KernelInconsistencyError(DirgafError):
    """An assembled covariance matrix failed its positivity check.

    This signals a bug in kernel arithmetic, not a user error.
    """


class DegenerateGridError(ArgumentError):
    """The requested grid repeats a point."""


class DiscretizationError(ArgumentError):
    """The requested discretization is too coarse for the target accuracy."""


class PoleError(ArgumentError):
    """A conformal map was evaluated at its pole."""


class BoundaryZeroError(DirgafError):
    """A function value on a contour fell below the zero-detection threshold.

    The caller must perturb the region and retry.
    """


class NonConvergenceError(DirgafError):
    """Adaptive refinement hit its depth cap without resolving the contour."""


class UnresolvableBoundaryError(DirgafError):
    """Region perturbation retries were exhausted while dodging boundary zeros."""


class VanishingContourError(BoundaryZeroError):
    """f underflows to 0, or is not finite, on a whole contour; moving the contour cannot help."""


class UndefinedEstimatorError(DirgafError):
    """An estimator is undefined for the given sample (e.g. all partial sums zero)."""


@contextmanager
def float64_guard(what: str):
    """Compute ``what`` without numpy's floating-point warnings; a Python float overflow raises ArgumentError.

    numpy's inf and NaN results pass through, for the caller to refuse with
    :func:`require_finite`, so that an overflow ends in one error naming
    ``what``, not in a warning, a traceback or a non-finite result.
    """
    with np.errstate(all="ignore"):
        try:
            yield
        except OverflowError as exc:  # of a Python power
            raise ArgumentError(f"{what} overflows float64") from exc


def require_finite(what: str, *values) -> None:
    """ArgumentError naming ``what`` unless every value is finite."""
    if not all(np.isfinite(value).all() for value in values):
        raise ArgumentError(f"{what} overflows float64")
