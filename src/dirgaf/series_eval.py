"""Evaluation of the truncated random series and its scaled small-parameter form.

The object of interest is the weighted sum over n >= 2 of
(log n)^alpha * (eta_n + i theta_n) * n^(-w), together with its scaled version
s^(1/2+alpha) * (sum at w = 1/2 + s z).  Everything here is deterministic given
the coefficient array; randomness lives in :mod:`dirgaf.coeff_models`.

Besides plain truncation (with a certified tail standard-deviation bound),
the module provides :class:`ScaledSeriesSampler`, a hybrid path sampler that
keeps an exact non-Gaussian head of the series and completes the far tail by
block-Gaussian increments with matched covariance.  At small s the variance of
the series sits at indices near exp(1/s), far beyond any feasible truncation,
so distributional experiments must use the hybrid form; see the README.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import gamma, gammaincc

from .coeff_models import CoefficientModel, CoefficientStream, covariance_sqrt, implied_covariance
from .errors import ArgumentError, ResourceCapError, UndefinedEstimatorError, float64_guard, require_finite

DEFAULT_TRUNCATION_CAP = 2 ** 27


@dataclass(frozen=True)
class SeriesSpec:
    """Exponent alpha and truncation level N."""

    alpha: float
    truncation_n: int

    def __post_init__(self) -> None:
        if not self.alpha > -0.5:
            raise ArgumentError(f"alpha must exceed -1/2, got {self.alpha}")
        if self.truncation_n < 2:
            raise ArgumentError("truncation_n must be >= 2")


def _as_pairs(coeffs) -> np.ndarray:
    arr = np.asarray(coeffs, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ArgumentError("coeffs must be a sequence of (eta, theta) pairs")
    return arr


def eval_partial(coeffs, spec: SeriesSpec, w: complex) -> complex:
    """Sum over n = 2..N of (log n)^alpha (eta_n + i theta_n) n^(-w).

    ``coeffs`` supplies the pairs for n = 2, 3, ...; at least N - 1 are needed.
    n^(-w) is computed as exp(-w log n) from the real logs, and the real and
    imaginary parts of the terms are summed exactly rounded by ``math.fsum``.
    """
    n = spec.truncation_n
    pairs = _as_pairs(coeffs)
    if len(pairs) < n - 1:
        raise ArgumentError(f"need at least {n - 1} coefficient pairs, got {len(pairs)}")
    logs = np.log(np.arange(2, n + 1, dtype=np.float64))
    c = pairs[: n - 1, 0] + 1j * pairs[: n - 1, 1]
    terms = logs ** spec.alpha * c * np.exp(-w * logs)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def eval_shifted_alpha_derivative(coeffs, spec: SeriesSpec, w: complex) -> complex:
    """Minus the w-derivative of the partial sum, i.e. the alpha+1 sum.

    Term-by-term differentiation multiplies each term by -log n, so the result
    coincides exactly with :func:`eval_partial` at alpha + 1.
    """
    return eval_partial(coeffs, SeriesSpec(spec.alpha + 1.0, spec.truncation_n), w)


def tail_integral(alpha: float, n_from: float, decay: float) -> float:
    """Closed form of the integral over [n_from, inf) of (log x)^(2 alpha) x^(-1-decay).

    Substituting t = decay*log(x) turns it into an upper incomplete gamma:
    decay^(-(1+2 alpha)) * Gamma(1+2 alpha, decay*log(n_from)).
    """
    a = 1.0 + 2.0 * alpha
    if decay <= 0:
        raise ArgumentError("decay must be positive")
    return gammaincc(a, decay * math.log(n_from)) * gamma(a) / decay ** a


def tail_std_bound(spec: SeriesSpec, s: float, x0: float, second_moment: float = 1.0) -> float:
    """Upper bound on the std of the discarded scaled tail beyond N.

    The bound is the square root of
    E(eta^2+theta^2) * s^(1+2 alpha) * integral_N^inf (log x)^(2 alpha) x^(-1-2 s x0) dx,
    where x0 is the smallest Re(z) over the evaluation grid.  Monotone
    decreasing in N.
    """
    if s <= 0 or x0 <= 0:
        raise ArgumentError("s and x0 must be positive")
    var = second_moment * s ** (1.0 + 2.0 * spec.alpha) * tail_integral(
        spec.alpha, spec.truncation_n, 2.0 * s * x0
    )
    return math.sqrt(var)


def choose_truncation(alpha: float, s: float, x0: float, eps: float, second_moment: float = 1.0) -> int:
    """Smallest power-of-two N up to ``DEFAULT_TRUNCATION_CAP`` whose tail std bound falls below eps."""
    if eps <= 0:
        raise ArgumentError("eps must be positive")
    n = 2
    while n <= DEFAULT_TRUNCATION_CAP:
        spec = SeriesSpec(alpha, n)
        if tail_std_bound(spec, s, x0, second_moment) < eps:
            return n
        n *= 2
    raise ResourceCapError(
        f"tail std bound does not reach eps={eps:g} below the truncation cap {DEFAULT_TRUNCATION_CAP}"
        f" (=2**{DEFAULT_TRUNCATION_CAP.bit_length() - 1}) at s={s:g}, x0={x0:g}"
    )


def estimate_sigma_c(coeffs, alpha: float, n_max: int) -> float:
    """Abscissa-of-convergence probe from partial coefficient sums.

    Returns the maximum over the geometric checkpoint grid n_j = floor(n_max^(j/200))
    of log(|S_n| / (log n)^alpha) / log n, where S_n sums
    (log k)^alpha (eta_k + i theta_k) for k = 2..n.  The probe targets the
    limsup formula whose value is 1/2 for centered square-integrable
    coefficients.  Dividing out (log n)^alpha changes nothing in the limit
    (the weight is subpolynomial) but removes the dominant finite-n bias:
    |S_n| grows like (log n)^alpha sqrt(2 n loglog n), and without the
    correction the alpha*loglog(n)/log(n) term still exceeds 0.1 at n = 1e6.
    """
    if not alpha > -0.5:
        raise ArgumentError(f"alpha must exceed -1/2, got {alpha}")
    if n_max < 100:
        raise ArgumentError("n_max must be >= 100")
    pairs = _as_pairs(coeffs)
    if len(pairs) < n_max - 1:
        raise ArgumentError(f"need at least {n_max - 1} coefficient pairs")
    logs = np.log(np.arange(2, n_max + 1, dtype=np.float64))
    x = logs ** alpha * (pairs[: n_max - 1, 0] + 1j * pairs[: n_max - 1, 1])
    partial = np.cumsum(x)
    exps = np.arange(1, 201) / 200
    checkpoints = np.unique(np.floor(n_max ** exps).astype(np.int64))
    checkpoints = checkpoints[checkpoints >= 2]
    log_n = np.log(checkpoints)
    mags = np.abs(partial[checkpoints - 2]) / log_n ** alpha
    ok = mags > 0
    if not ok.any():
        raise UndefinedEstimatorError("all checkpointed partial sums vanish")
    return float(np.max(np.log(mags[ok]) / log_n[ok]))


# -- hybrid path sampler -------------------------------------------------------


TAIL_CAP = 45.0  # the tail reaches k = exp(TAIL_CAP / (2 s x_min)), where k^(-2 s x_min) = e^-TAIL_CAP
FINE_BLOCK_RATIO = 1.01  # tail blocks of one path read along a whole sweep of s (the LIL band)
TAYLOR_SPLIT = 0.25  # atoms with freq * r_max <= split are folded into the polynomial
TAYLOR_DEGREE = 20
R_MAX_SLACK = 1e-12  # relative tolerance of ExpSumPath.eval's |z| <= r_max check


@dataclass(frozen=True)
class TaylorFold:
    """Which atoms an exponential sum folds into its Taylor polynomial, and how.

    ``low`` masks the folded atoms, ``mono[m, q] = (-freqs[m] * r_max)^q / q!``
    over them, the Taylor coefficients in z / r_max, and ``hi_freqs`` are the
    remaining oscillatory frequencies.  Written in z / r_max, the polynomial's
    monomials stay within 1 + ``R_MAX_SLACK`` in modulus wherever a path may
    be evaluated, and a folded atom's term q within 0.25^q / q!, so no
    monomial overflows at any window.  The fold depends on the frequencies
    and r_max only, so paths that share both share one fold, and with it the
    exponential basis of the last grid, real or complex.
    """

    low: np.ndarray
    mono: np.ndarray
    hi_freqs: np.ndarray
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def basis(self, z: np.ndarray) -> np.ndarray:
        """exp(-outer(z, hi_freqs)) at real or complex points z; the last grid's basis is kept.

        The kept slot serves per-path evaluation (``ExpSumPath.eval``), above
        all the first sampling of a contour that every path of a sampler
        shares.  The kept basis serves points equal to its grid in dtype as
        well as in value, so a real grid never gets a complex basis.  A grid
        with fewer points than the kept one (a bisection point, a refinement
        round of the winding count) does not replace it, so a grid shared by
        many paths stays kept while each path's own points are refined.  A
        worker thread may build it concurrently with another: the value is
        deterministic, and the (grid, basis) pair is replaced in one step.
        """
        kept = self._kept
        if kept is not None and kept[0].dtype == z.dtype and np.array_equal(kept[0], z):
            return kept[1]
        # negated in place rather than via -hi_freqs: at a complex point with a zero imaginary
        # part, z * (-f) and -(z * f) differ in the sign of a zero, and so would the basis
        basis = np.outer(z, self.hi_freqs)
        np.negative(basis, out=basis)
        np.exp(basis, out=basis)
        if kept is None or len(z) >= len(kept[0]):
            object.__setattr__(self, "_kept", (z.copy(), basis))
        return basis


def _check_reach(z: np.ndarray, r_max: float) -> None:
    """ArgumentError for a point with |z| > r_max (relative slack ``R_MAX_SLACK``), where a fold is not known exact."""
    mods = np.abs(z)
    if mods.max(initial=0.0) > r_max * (1.0 + R_MAX_SLACK):
        worst = int(np.argmax(mods))
        raise ArgumentError(
            f"evaluation point {z.flat[worst]} has |z| = {mods.flat[worst]:.17g} > r_max = {r_max:.17g}"
        )


def _taylor_fold(freqs: np.ndarray, r_max: float) -> TaylorFold:
    low = freqs * r_max <= TAYLOR_SPLIT
    powers = np.arange(TAYLOR_DEGREE + 1)
    # (-u)^q / q! for u = freq * r_max, with the sign put in afterwards: a negative base takes pow off
    # numpy's vectorised path
    mono = (freqs[low] * r_max)[:, None] ** powers / np.cumprod(np.concatenate([[1.0], np.maximum(powers[1:], 1)]))
    mono[:, 1::2] *= -1.0
    return TaylorFold(low=low, mono=mono, hi_freqs=freqs[~low])


@dataclass
class ExpSumPath:
    """One realization of the scaled series as a finite exponential sum.

    value(z) = scale * sum_m amps[m] * exp(-freqs[m] * z), analytic on the
    half-plane.  Low frequencies are folded into a Taylor polynomial in
    z / r_max (exact to ~1e-13 inside |z| <= r_max) so that evaluation cost is
    governed by the number of genuinely oscillatory atoms.  The polynomial is
    built with the path, from the fold a sampler shares across its paths or
    else its own; its variable z / r_max keeps every monomial bounded by 1, so
    none overflows however far the window reaches.
    Real-coefficient paths evaluate real points in real arithmetic.  Every
    matrix product reads complex numbers as (Re, Im) float64 pairs: OpenBLAS
    runs complex matrix-vector products of a few thousand elements on its
    thread pool, at many times the cost of the same product done in reals.
    """

    scale: float
    freqs: np.ndarray
    amps: np.ndarray
    r_max: float
    is_real: bool
    _fold: TaylorFold | None = field(default=None, repr=False, compare=False)
    _poly: np.ndarray = field(init=False, repr=False, compare=False)
    _hi_amps: np.ndarray = field(init=False, repr=False, compare=False)
    _hi_rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._fold is None:
            self._fold = _taylor_fold(self.freqs, self.r_max)
        self.amps = np.asarray(self.amps, dtype=complex)  # read below as (Re, Im) pairs
        self._hi_amps = self.amps[~self._fold.low]
        # per atom, (Re b, Im b) @ [[Re a, Im a], [-Im a, Re a]] = (Re ab, Im ab) for a basis value b
        self._hi_rows = np.stack([self._hi_amps, 1j * self._hi_amps], axis=1).view(float).reshape(-1, 2)
        # moment q: sum_m a_m (-u_m)^q / q!, its real and imaginary parts in one real product
        lo_pairs = self.amps[self._fold.low].view(float).reshape(-1, 2)
        self._poly = (self._fold.mono.T @ lo_pairs).view(complex)[:, 0]

    def eval(self, z) -> np.ndarray:
        """Values at points ``z`` (array-like), |z| <= r_max.

        A real path at real points returns float64, computed from the real
        parts of the amplitudes; everything else returns complex values.
        Raises ArgumentError for a point with |z| > r_max (relative slack
        ``R_MAX_SLACK``), where the Taylor fold is no longer known to be exact.
        """
        zz = np.atleast_1d(np.asarray(z))
        _check_reach(zz, self.r_max)
        if self.is_real and not np.iscomplexobj(zz):
            x = zz.astype(float, copy=False)
            head = np.polynomial.polynomial.polyval(x / self.r_max, self._poly.real)
            tail = self._fold.basis(x) @ self._hi_amps.real if len(self._hi_amps) else 0.0
            return self.scale * (head + tail)
        zz = zz.astype(complex, copy=False)
        head = np.polynomial.polynomial.polyval(zz / self.r_max, self._poly)
        tail = (self._fold.basis(zz).view(float) @ self._hi_rows).view(complex)[:, 0] if len(self._hi_amps) else 0.0
        return self.scale * (head + tail)


def _tail_blocks(alpha: float, head_n: int, y_max: float, ratio: float) -> tuple[np.ndarray, np.ndarray]:
    """Geometric blocks of the index range (head_n, exp(y_max)) in y = log k.

    Returns per-block variances sum_{k in block} (log k)^(2 alpha) / k (via the
    exact antiderivative y^(1+2 alpha)/(1+2 alpha)) and variance-weighted
    centroids of y.  Block ratio controls the covariance discretization error,
    which is second order in (ratio - 1).  Raises ArgumentError when y_max,
    a variance or a centroid overflows float64.
    """
    a = 1.0 + 2.0 * alpha
    y0 = math.log(head_n + 0.5)
    if y_max <= y0:
        return np.empty(0), np.empty(0)
    what = f"the Gaussian tail up to log k = {y_max:g} at alpha = {alpha:g} (s * x_min too small, or alpha too large)"
    with float64_guard(what):
        count = int(math.ceil(math.log(y_max / y0) / math.log(ratio))) + 1  # int(inf) raises OverflowError
        edges = y0 * ratio ** np.arange(count + 1)
        var = np.diff(edges ** a) / a
        cent = np.diff(edges ** (a + 1.0)) / (a + 1.0) / var
    require_finite(what, var, cent)
    return var, cent


@dataclass(frozen=True)
class SeriesLayout:
    """The draw-independent part of a sampler's series: one atom per head index, then per tail block.

    Atom m contributes weights[m] * exp(-s * logy[m] * z) times its coefficient,
    which is eta_k + i theta_k for a head index k = 2..head_n and the tail
    block's Gaussian pair for the others.
    """

    logy: np.ndarray  # log k for the head, then the variance-weighted block centroids
    weights: np.ndarray  # (log k)^alpha k^(-1/2) for the head, then the block standard deviations
    freqs: np.ndarray  # s * logy
    n_head: int
    tail_mix: np.ndarray  # maps iid normal pairs to the model's (eta, theta) covariance

    @property
    def n_tail(self) -> int:
        return len(self.weights) - self.n_head


@dataclass(frozen=True)
class ScaledSeriesSampler:
    """Sampler for paths of the scaled series on a bounded region of the half-plane.

    Indices 2..head_n are drawn exactly from the coefficient model; the far
    tail, whose individual terms are negligible but whose aggregate variance
    dominates as s -> 0, is replaced by independent Gaussian block increments
    with the exact per-block variance profile and the model's 2x2 covariance.
    ``tail="none"`` disables the completion and reproduces plain truncation.
    Every experiment that weights the series reads the weights from
    :attr:`layout`; the tail reaches exp(TAIL_CAP / (2 s x_min)) in blocks of
    ratio ``block_ratio`` in log k.

    x_min and r_max describe where paths will be evaluated: x_min is the
    smallest Re(z) (sets how far the tail must reach before it is negligible),
    r_max the largest |z| (sets the Taylor compression split).
    """

    model: CoefficientModel
    alpha: float
    s: float
    head_n: int
    x_min: float
    r_max: float
    tail: str = "gaussian"
    block_ratio: float = 1.02

    def __post_init__(self) -> None:
        if not self.alpha > -0.5:
            raise ArgumentError("alpha must exceed -1/2")
        if self.s <= 0 or self.x_min <= 0 or self.r_max < self.x_min:
            raise ArgumentError("need s > 0 and 0 < x_min <= r_max")
        if self.head_n < 2:
            raise ArgumentError("head_n must be >= 2")
        if self.tail not in ("gaussian", "none"):
            raise ArgumentError(f"tail must be 'gaussian' or 'none', got {self.tail!r}")

    @cached_property
    def layout(self) -> SeriesLayout:
        """Logs, weights and frequencies of the head indices and tail blocks; built once per sampler.

        A worker thread may build it concurrently with another: the value is
        deterministic, so whichever copy is kept, paths are the same.
        """
        logk = np.log(np.arange(2, self.head_n + 1))
        var, cent = np.empty(0), np.empty(0)
        if self.tail == "gaussian":
            # divided in this order, s * x_min cannot underflow to a zero divisor
            var, cent = _tail_blocks(self.alpha, self.head_n, TAIL_CAP / self.s / (2.0 * self.x_min),
                                     self.block_ratio)
        logy = np.concatenate([logk, cent])
        return SeriesLayout(
            logy=logy,
            weights=np.concatenate([logk ** self.alpha * np.exp(-0.5 * logk), np.sqrt(var)]),
            freqs=self.s * logy,
            n_head=len(logk),
            tail_mix=covariance_sqrt(implied_covariance(self.model)).T,
        )

    @cached_property
    def _fold(self) -> TaylorFold:
        """The Taylor fold every sampled path shares; built by the first :meth:`sample_path` or :meth:`real_design`."""
        return _taylor_fold(self.layout.freqs, self.r_max)

    def sample_path(self, stream: CoefficientStream) -> ExpSumPath:
        lay = self.layout
        eta = stream.pairs(self.head_n - 1)
        if lay.n_tail:
            # rows (eta_j, theta_j), covariance matches the model
            eta = np.concatenate([eta, stream.tail_normals(lay.n_tail) @ lay.tail_mix])
        return ExpSumPath(
            scale=self.s ** (0.5 + self.alpha),
            freqs=lay.freqs,
            amps=lay.weights * (eta[:, 0] + 1j * eta[:, 1]),
            r_max=self.r_max,
            is_real=self.model.is_real,
            _fold=self._fold,
        )

    def sample_real_columns(self, stream: CoefficientStream) -> np.ndarray:
        """One real path as the column :meth:`real_design` multiplies: Taylor coefficients, then oscillatory amplitudes."""
        if not self.model.is_real:
            raise ArgumentError("real columns need a real coefficient model")
        path = self.sample_path(stream)
        return np.concatenate([path._poly.real, path._hi_amps.real])

    def real_design(self, x: np.ndarray) -> np.ndarray:
        """The matrix whose product with a path's :meth:`sample_real_columns` is its values at real points x.

        Row i is scale * [(x_i / r_max)^q for q = 0..TAYLOR_DEGREE, then
        exp(-x_i * freq) per oscillatory atom], so a product with the stacked
        columns of many paths evaluates them all; each value agrees with
        ``ExpSumPath.eval`` up to summation order (a few ulp of the sum of its
        terms' moduli).  Built here rather than from the fold's kept basis, so
        that no second copy of the exponential part stays alive.  Raises
        ArgumentError for a point beyond r_max, as ``ExpSumPath.eval`` does.
        """
        _check_reach(x, self.r_max)
        hi_freqs = self._fold.hi_freqs
        design = np.empty((len(x), TAYLOR_DEGREE + 1 + len(hi_freqs)))
        np.power((x / self.r_max)[:, None], np.arange(TAYLOR_DEGREE + 1), out=design[:, :TAYLOR_DEGREE + 1])
        tail = design[:, TAYLOR_DEGREE + 1:]
        np.multiply(x[:, None], -hi_freqs, out=tail)
        np.exp(tail, out=tail)
        design *= self.s ** (0.5 + self.alpha)
        return design

    def path_weights(self, z_grid) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic weight matrices for bulk replicate evaluation.

        Returns (head_w, tail_w): head_w[k, i] multiplies coefficient k at grid
        point i; tail_w[j, i] multiplies the j-th tail block's pair, mixed to the
        model's covariance.  The scaled path value is s^(1/2+alpha) times the sum
        of both products.  Real points give real weights.
        """
        lay = self.layout
        w = lay.weights[:, None] * np.exp(-self.s * np.outer(lay.logy, np.asarray(z_grid)))
        return w[: lay.n_head], w[lay.n_head :]

    def total_variance(self, x: float) -> float:
        """Variance profile sum_k (log k)^(2 alpha) k^(-1-2 s x) of the representation.

        Per unit second moment of the coefficients; useful as an oracle target
        against the exact series value.
        """
        return self._moment_sum(2.0 * x).real

    def _moment_sum(self, decay: complex) -> complex:
        """sum over the representation of (log k)^(2 alpha) k^(-1) e^(-s decay log k)."""
        lay = self.layout
        return complex(np.sum(lay.weights ** 2 * np.exp(-self.s * decay * lay.logy)))

    def exact_pseudo(self, cov, z1: complex, z2: complex) -> complex:
        """Exact plain product moment E[V(z1) V(z2)] of sampled paths.

        Deterministic: s^(1+2a) (sigma1^2 - sigma2^2 + 2 i rho) times the
        representation's weighted zeta-type sum at decay z1 + z2.
        """
        factor = cov.sigma1_sq - cov.sigma2_sq + 2j * cov.rho
        return self.s ** (1.0 + 2.0 * self.alpha) * factor * self._moment_sum(complex(z1) + complex(z2))

    def exact_hermitian(self, cov, z1: complex, z2: complex) -> complex:
        """Exact conjugated product moment E[V(z1) conj(V(z2))] of sampled paths."""
        decay = complex(z1) + np.conj(complex(z2))
        return self.s ** (1.0 + 2.0 * self.alpha) * cov.second_moment * self._moment_sum(decay)
