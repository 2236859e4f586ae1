"""Exception types shared across the package."""


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


class DegenerateGridError(DirgafError):
    """The requested grid induces a singular covariance (e.g. duplicate points)."""


class DiscretizationError(ArgumentError):
    """The requested discretization is too coarse for the target accuracy."""


class PoleError(ArgumentError):
    """A conformal map was evaluated at its pole."""


class AlignmentError(DirgafError):
    """A required sample point is missing from the supplied grid sample."""


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
