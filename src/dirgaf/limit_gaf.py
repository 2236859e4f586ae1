"""The limit Gaussian analytic process: kernels, samplers, and the Mobius map of the disk.

The limit of the scaled series is a centered Gaussian analytic function on the
right half-plane whose law is pinned down by two kernels: the plain product
moment E[X(z1) X(z2)] and the conjugated one E[X(z1) conj(X(z2))].  Both
samplers draw through one pivoted Cholesky factor of the 2m x 2m real
covariance (:func:`pivoted_cholesky`), rank normals per draw, and differ only
in where its two moment matrices come from: the kernels
(:func:`kernel_moments`) or a discretized Brownian stochastic integral
(:func:`integral_covariance`); their agreement is the module's strongest
self-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator

from .coeff_models import CovarianceSpec
from .errors import (
    ArgumentError,
    DegenerateGridError,
    DiscretizationError,
    KernelInconsistencyError,
    PoleError,
    ResourceCapError,
    float64_guard,
    require_finite,
)
from .series_eval import DEFAULT_TRUNCATION_CAP, cell_integrals, gamma


@dataclass(frozen=True)
class KernelParams:
    """Exponent alpha and coefficient covariance parameterizing the limit process."""

    alpha: float
    cov: CovarianceSpec

    def __post_init__(self) -> None:
        if not self.alpha > -0.5:
            raise ArgumentError(f"alpha must exceed -1/2, got {self.alpha}")


def _require_half_plane(*zs: complex) -> None:
    for z in zs:
        if not complex(z).real > 0:
            raise ArgumentError(f"point {z} is not in the open right half-plane")


def kernel_pseudo(params: KernelParams, z1: complex, z2: complex) -> complex:
    """Plain product moment of the limit process at (z1, z2).

    Gamma(1+2 alpha) (sigma1^2 - sigma2^2 + 2 i rho) / (z1 + z2)^(1+2 alpha),
    with the principal power (safe: Re(z1 + z2) > 0 in-domain).  Vanishes
    identically for isotropic coefficients.
    """
    _require_half_plane(z1, z2)
    num = gamma(1.0 + 2.0 * params.alpha) * params.cov.pseudo_moment
    return num / (complex(z1) + complex(z2)) ** (1.0 + 2.0 * params.alpha)


def kernel_hermitian(params: KernelParams, z1: complex, z2: complex) -> complex:
    """Conjugated product moment: Gamma(1+2 alpha)(sigma1^2+sigma2^2)/(z1+conj z2)^(1+2 alpha)."""
    _require_half_plane(z1, z2)
    num = gamma(1.0 + 2.0 * params.alpha) * params.cov.second_moment
    return num / (complex(z1) + np.conj(complex(z2))) ** (1.0 + 2.0 * params.alpha)


def kernel_moments(params: KernelParams, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H = E[X conj(X)^T] and P = E[X X^T] on the points z, entry by entry from the two kernels.

    Raises ArgumentError, naming alpha and the points, when an entry overflows float64.
    """
    what = f"the kernel covariance at alpha = {params.alpha:g} on the grid {z.tolist()}"
    with float64_guard(what):
        h = np.array([[kernel_hermitian(params, zi, zj) for zj in z] for zi in z])
        p = np.array([[kernel_pseudo(params, zi, zj) for zj in z] for zi in z])
    require_finite(what, h, p)
    return h, p


def _re_im_covariance(what: str, h: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Real covariance of (Re X_1..X_m, Im X_1..X_m) as a 2m x 2m matrix, from the two complex moments.

    With H = E[X conj(X)^T] and P = E[X X^T], the standard complex-Gaussian
    identities give

        E[Re X Re Y] = (Re P + Re H) / 2      E[Im X Im Y] = (Re H - Re P) / 2
        E[Re X Im Y] = (Im P - Im H) / 2      E[Im X Re Y] = (Im P + Im H) / 2

    Raises ArgumentError, naming ``what``, when an entry overflows float64.
    """
    with float64_guard(what):
        cov = 0.5 * np.block([[p.real + h.real, p.imag - h.imag], [p.imag + h.imag, h.real - p.real]])
    require_finite(what, cov)
    return cov


def joint_real_covariance(params: KernelParams, grid) -> np.ndarray:
    """Real covariance of (Re X(z_1..z_m), Im X(z_1..z_m)) as a 2m x 2m matrix, from the two kernels.

    Raises ArgumentError when an entry overflows float64.  Its positivity is
    checked where it is factored, by :func:`pivoted_cholesky`.
    """
    z = np.atleast_1d(np.asarray(grid, dtype=complex))
    return _re_im_covariance(f"the kernel covariance at alpha = {params.alpha:g}", *kernel_moments(params, z))


def pivoted_cholesky(cov: np.ndarray) -> np.ndarray:
    """(n, rank) factor F with F F^T = ``cov``: Cholesky with diagonal pivoting (Higham 1990).

    Each step takes the largest remaining variance as the pivot, until it is at
    most n eps times the largest variance, so a singular covariance (a real
    point or a conjugate pair under a real law) keeps its rank, and a
    coordinate whose remainder is exactly 0 is exactly 0 in every draw.
    Raises KernelInconsistencyError when an entry of the remainder, a negative
    pivot or an off-diagonal entry, exceeds 1e-10 times the trace: the
    covariance is not PSD, which would indicate a kernel bug.
    """
    rest = np.array(cov, dtype=float)
    diag = np.diagonal(rest)  # a view, so it follows the remainder
    stop = len(rest) * np.finfo(float).eps * diag.max(initial=0.0)
    factor = np.zeros_like(rest)
    rank = 0
    while diag.max(initial=0.0) > stop:
        j = np.argmax(diag)
        factor[:, rank] = rest[:, j] / math.sqrt(diag[j])
        rest -= np.multiply.outer(factor[:, rank], factor[:, rank])
        rest[j, :] = rest[:, j] = 0.0
        rank += 1
    worst, trace = np.abs(rest).max(initial=0.0), np.trace(cov)
    if worst > 1e-10 * max(trace, 1e-300):
        raise KernelInconsistencyError(f"covariance not PSD: remainder entry {worst:g} at rank {rank}, trace {trace:g}")
    return factor[:, :rank]


def _check_distinct(z: np.ndarray) -> None:
    if len(z) == 0:
        raise ArgumentError("grid must be nonempty")
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            if z[i] == z[j]:
                raise DegenerateGridError(f"duplicated grid point {z[i]}")


def _require_draw_count(n_draws: int) -> None:
    if n_draws < 0:
        raise ArgumentError(f"n_draws must be >= 0, got {n_draws}")


def _draw_re_im(cov: np.ndarray, rng: Generator, n_draws: int) -> np.ndarray:
    """(n_draws, m) complex draws whose [Re | Im] has the 2m x 2m covariance ``cov``: rank normals per draw,
    through :func:`pivoted_cholesky`."""
    factor = pivoted_cholesky(cov)
    xy = rng.standard_normal((n_draws, factor.shape[1])) @ factor.T
    m = len(cov) // 2
    return xy[:, :m] + 1j * xy[:, m:]


def sample_gaf_cholesky(params: KernelParams, grid, rng: Generator, n_draws: int = 1):
    """Draws of the limit process on a grid via the pivoted Cholesky factor of :func:`joint_real_covariance`.

    Returns an (n_draws, m) complex array.
    """
    z = np.atleast_1d(np.asarray(grid, dtype=complex))
    _check_distinct(z)
    _require_draw_count(n_draws)
    return _draw_re_im(joint_real_covariance(params, z), rng, n_draws)


MIN_CELLS = 1000  # floors of the integral sampler: cells >= MIN_CELLS
MIN_REACH = 30.0  # and y_max >= MIN_REACH / min Re(grid)
# the integral sampler's complex weights take 16 bytes per cell and grid point, so cells * len(grid) is
# capped at 2**24: 256 MiB, a quarter of the footprint of DEFAULT_TRUNCATION_CAP float64s (the cell grid
# adds 16 bytes per cell)
MAX_WEIGHT_ENTRIES = DEFAULT_TRUNCATION_CAP // 8


def brownian_cells(x_min: float, y_max: float, cells: int) -> np.ndarray:
    """Cell boundaries 0 = t_0 < t_1 = 1e-8 y_max < ... < t_cells = y_max, geometric near 0."""
    if not y_max >= MIN_REACH / x_min:
        raise DiscretizationError(
            f"'y_max' * min Re(grid) = {y_max * x_min:g} < {MIN_REACH:g}: truncated integral tail too fat"
        )
    if cells < MIN_CELLS:
        raise DiscretizationError(f"'cells' = {cells} < {MIN_CELLS}: discretization too coarse")
    return np.concatenate([[0.0], y_max * np.geomspace(1e-8, 1.0, cells)])


def integral_covariance(params: KernelParams, grid, y_max: float | None = None, cells: int = 2 ** 14) -> np.ndarray:
    """Real 2m x 2m covariance of (Re, Im) of the discretized Brownian stochastic integral on a grid.

    Each coordinate process is approximated by sum_k w_k(z) dB_k with the cell
    weight chosen so the cell variance matches the exact integral of
    y^(2 alpha) e^(-2 Re(z) y), :func:`cell_integrals` at rate 2 Re(z), and
    the oscillatory factor e^(-i Im(z) y) frozen at the cell midpoint.  The
    sum is a linear map of Gaussian increments, so its law is that of the
    moments ``CovarianceSpec.moments`` forms from the weights.

    Precondition: y_max >= MIN_REACH / min Re(grid) (the default) and cells >= MIN_CELLS.
    Raises ArgumentError when an entry overflows float64, and ResourceCapError
    when cells * len(grid) exceeds MAX_WEIGHT_ENTRIES.
    """
    z = np.atleast_1d(np.asarray(grid, dtype=complex))
    _require_half_plane(*z)
    m = len(z)
    if cells * m > MAX_WEIGHT_ENTRIES:
        raise ResourceCapError(f"'cells' * len(grid) = {cells} * {m} exceeds 2**{MAX_WEIGHT_ENTRIES.bit_length() - 1}: "
                               f"the cell weights would take {16 * cells * m / 2 ** 30:.1f} GiB")
    x_min = float(z.real.min())
    if y_max is None:
        y_max = MIN_REACH / x_min
    edges = brownian_cells(x_min, y_max, cells)
    with np.errstate(over="ignore"):  # an overflowed midpoint gives a non-finite weight, refused below
        mid = 0.5 * (edges[:-1] + edges[1:])
    # weight matrix (cells, m): sqrt(cell variance) * midpoint phase, i.e. per unit normal
    w = np.empty((cells, m), dtype=complex)
    for i, zi in enumerate(z):
        what = f"a cell weight at alpha = {params.alpha:g}, y_max = {y_max:g} and the point {zi}"
        with float64_guard(what):
            w[:, i] = np.sqrt(cell_integrals(params.alpha, 2.0 * zi.real, edges)) * np.exp(-1j * zi.imag * mid)
        require_finite(what, w[:, i])
    what = f"the cell-quadrature covariance at alpha = {params.alpha:g}, y_max = {y_max:g}"
    with float64_guard(what):
        return _re_im_covariance(what, *params.cov.moments(w))


def sample_gaf_integral(params: KernelParams, grid, rng: Generator, y_max: float | None = None,
                        cells: int = 2 ** 14, n_draws: int = 1):
    """Draws of the limit process from :func:`integral_covariance`, rank normals per draw.

    This is the factored draw of :func:`sample_gaf_cholesky`, so the two samplers
    differ only in where the covariance comes from: the kernels or the cells.
    Returns an (n_draws, m) complex array.
    """
    z = np.atleast_1d(np.asarray(grid, dtype=complex))
    _check_distinct(z)
    _require_draw_count(n_draws)
    return _draw_re_im(integral_covariance(params, z, y_max, cells), rng, n_draws)


def coeff_sq_vector(alpha: float, n_terms: int) -> np.ndarray:
    """Squared power-series coefficients c_n^2 = (1+2a)(2+2a)...(n+2a)/n! for n = 0..n_terms-1."""
    j = np.arange(1, n_terms)
    return np.concatenate([[1.0], np.cumprod((j + 2.0 * alpha) / j)])


def sample_power_series_gaf(alpha: float, complex_coeffs: bool, rng: Generator, n_terms: int) -> np.ndarray:
    """Random power-series coefficients c_n * N_n for the disk process.

    Standard complex N has independent real and imaginary parts of variance
    1/2 each; the real variant uses standard real Gaussians.  Evaluation at
    |z| <= r has tail variance sum_{n >= n_terms} c_n^2 r^(2n), bounded by the
    closed form (1 - r^2)^(-(1+2 alpha)) remainder.
    """
    if n_terms < 1:
        raise ArgumentError("n_terms must be >= 1")
    c = np.sqrt(coeff_sq_vector(alpha, n_terms))
    if complex_coeffs:
        norm = (rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)) * math.sqrt(0.5)
    else:
        norm = rng.standard_normal(n_terms)
    return c * norm


def mobius(z: complex) -> complex:
    """(1 + z)/(1 - z): conformal bijection of the unit disk onto the half-plane."""
    z = complex(z)
    if z == 1:
        raise PoleError("mobius has a pole at z = 1")
    return (1 + z) / (1 - z)


def mobius_inv(w: complex) -> complex:
    """(w - 1)/(w + 1), inverse of :func:`mobius`."""
    w = complex(w)
    if w == -1:
        raise PoleError("mobius_inv has a pole at w = -1")
    return (w - 1) / (w + 1)
