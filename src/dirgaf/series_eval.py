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

from .coeff_models import CoefficientModel, CoefficientStream, covariance_sqrt, implied_covariance
from .errors import (
    ArgumentError,
    NonConvergenceError,
    ResourceCapError,
    UndefinedEstimatorError,
    float64_guard,
    require_finite,
)

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


GAMMA_TOL = 4 * 2.0 ** -53  # relative size of the last series term, or of the last continued-fraction step - 1
GAMMA_MAX_TERMS = 500  # enough for a below about 4000 (262 series terms at a = 1000)
_LENTZ_TINY = 1e-300


def _gamma_series(a: float, x: np.ndarray) -> np.ndarray:
    """sum_(n >= 0) x^n / (a (a+1) ... (a+n)) at each x: P(a, x) over the prefactor x^a e^(-x) / Gamma(a)."""
    term = np.full(x.shape, 1.0 / a)
    total = term.copy()
    last = int(np.argmax(x))  # term / total grows with x at every n, so the largest x stops last
    for n in range(1, GAMMA_MAX_TERMS + 1):
        term *= x / (a + n)
        total += term
        if term[last] <= GAMMA_TOL * total[last] and np.all(term <= GAMMA_TOL * total):
            return total
    raise NonConvergenceError(f"the series of P({a:g}, x) took more than {GAMMA_MAX_TERMS} terms")


def _gamma_fraction(a: float, x: np.ndarray) -> np.ndarray:
    """The continued fraction 1/(x+1-a- 1(1-a)/(x+3-a- 2(2-a)/(x+5-a- ...))) at each x, by modified Lentz:
    Q(a, x) over the prefactor x^a e^(-x) / Gamma(a)."""
    b = x + (1.0 - a)
    c = np.full(x.shape, 1.0 / _LENTZ_TINY)
    d = 1.0 / b
    h = d.copy()
    for n in range(1, GAMMA_MAX_TERMS + 1):
        an = -n * (n - a)
        b += 2.0
        d = an * d + b
        d[np.abs(d) < _LENTZ_TINY] = _LENTZ_TINY
        c = b + an / c
        c[np.abs(c) < _LENTZ_TINY] = _LENTZ_TINY
        d = 1.0 / d
        step = d * c
        h *= step
        if np.all(np.abs(step - 1.0) <= GAMMA_TOL):
            return h
    raise NonConvergenceError(f"the continued fraction of Q({a:g}, x) took more than {GAMMA_MAX_TERMS} steps")


def regularized_gamma(a: float, x) -> tuple[np.ndarray, np.ndarray]:
    """Regularized incomplete gammas P(a, x) and Q(a, x) = 1 - P(a, x), elementwise in x >= 0, for a > 0.

    Below x = a + 1 the power series of P is summed, and Q is its complement;
    from there on the continued fraction of Q is evaluated by the modified Lentz
    method, and P is the complement (Numerical Recipes 6.2; the same split as
    Cephes ``igam``).  Both multiply the prefactor x^a e^(-x) / Gamma(a), which
    is formed in logs with ``math.lgamma``, so it underflows to 0 rather than
    overflowing.  A branch stops when, at every one of its x, the last series
    term, or the last continued-fraction step's distance from 1, is at most
    ``GAMMA_TOL`` relative.  Raises ArgumentError unless a > 0 and every
    x >= 0, and NonConvergenceError, never a partial sum, when a branch takes
    more than ``GAMMA_MAX_TERMS`` terms.
    """
    x = np.asarray(x, dtype=np.float64)
    if not a > 0 or not np.all(x >= 0):
        raise ArgumentError(f"the incomplete gamma needs a > 0 and x >= 0, got a = {a:g}")
    p = np.where(x == np.inf, 1.0, 0.0)  # P(a, 0) = 0, P(a, inf) = 1
    q = np.where(x == np.inf, 0.0, 1.0)
    series = (x > 0) & (x < a + 1.0)
    fraction = (x >= a + 1.0) & (x < np.inf)
    with np.errstate(under="ignore"):
        if series.any():
            xs = x[series]
            p[series] = _gamma_series(a, xs) * np.exp(a * np.log(xs) - xs - math.lgamma(a))
            q[series] = 1.0 - p[series]
        if fraction.any():
            xs = x[fraction]
            q[fraction] = _gamma_fraction(a, xs) * np.exp(a * np.log(xs) - xs - math.lgamma(a))
            p[fraction] = 1.0 - q[fraction]
    return p, q


def gamma(a: float) -> np.float64:
    """Gamma(a) by ``math.gamma``, as a numpy float, so that a division by it is numpy's, not Python's.

    The two round differently, and the covariance payloads carry the kernels'
    roundings.  Raises OverflowError beyond a = 171.6, for the caller's
    ``float64_guard``.
    """
    return np.float64(math.gamma(a))


def cell_integrals(alpha: float, rate: float, edges: np.ndarray) -> np.ndarray:
    """The integral of y^(2 alpha) e^(-rate y) over each cell between consecutive ``edges``; the last may be inf.

    Differences of the regularized incomplete gammas at rate * edges, times
    Gamma(a) / rate^a with a = 1 + 2 alpha.  A cell from 0 is the exact
    integral from 0, as P(a, 0) = 0, and a cell to inf is Q at its left edge.
    A cell is the difference of the lower gamma P while P at its right edge is
    at most 1/2, and of the upper gamma Q after that, so that the far cells,
    where P rounds towards 1, keep their relative accuracy.  Gamma(a)
    overflowing float64 raises OverflowError, for the caller's ``float64_guard``.
    """
    a = 1.0 + 2.0 * alpha
    p, q = regularized_gamma(a, rate * edges)
    return np.where(p[1:] <= 0.5, np.diff(p), -np.diff(q)) * gamma(a) / rate ** a


def tail_std_bound(spec: SeriesSpec, s: float, x0: float, second_moment: float = 1.0) -> float:
    """Upper bound on the std of the discarded scaled tail beyond N.

    The bound is the square root of
    E(eta^2+theta^2) * s^(1+2 alpha) * integral_N^inf (log x)^(2 alpha) x^(-1-2 s x0) dx,
    where x0 is the smallest Re(z) over the evaluation grid; substituting
    y = log x, the integral is the cell [log N, inf) of :func:`cell_integrals`
    at rate 2 s x0.  Monotone decreasing in N.  Raises ArgumentError when the
    variance overflows float64.
    """
    if s <= 0 or x0 <= 0:
        raise ArgumentError("s and x0 must be positive")
    what = f"the tail std bound at alpha = {spec.alpha:g}, N = {spec.truncation_n} and 2 s x0 = {2.0 * s * x0:g}"
    with float64_guard(what):
        tail = cell_integrals(spec.alpha, 2.0 * s * x0, np.array([math.log(spec.truncation_n), np.inf]))
        var = second_moment * s ** (1.0 + 2.0 * spec.alpha) * tail[0]
    require_finite(what, var)
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
    :func:`design_rows` of the last complex grid, in ``_kept``.
    """

    low: np.ndarray
    mono: np.ndarray
    hi_freqs: np.ndarray
    _kept: tuple | None = field(default=None, init=False, repr=False, compare=False)


def design_rows(z: np.ndarray, r_max: float, hi_freqs: np.ndarray) -> np.ndarray:
    """Row i is [(z_i / r_max)^q for q = 0..TAYLOR_DEGREE, then exp(-z_i * f) per f in hi_freqs], in z's dtype.

    Times a path's ``column`` and scale, the rows give its values at real or
    complex z; each row depends on its own point only.  Raises ArgumentError
    for a point with |z| > r_max (relative slack ``R_MAX_SLACK``), where the
    Taylor fold is no longer known to be exact.
    """
    mods = np.abs(z)
    if mods.max(initial=0.0) > r_max * (1.0 + R_MAX_SLACK):
        worst = int(np.argmax(mods))
        raise ArgumentError(f"evaluation point {z[worst]} has |z| = {mods[worst]:.17g} > r_max = {r_max:.17g}")
    rows = np.empty((len(z), TAYLOR_DEGREE + 1 + len(hi_freqs)), dtype=z.dtype)
    np.power((z / r_max)[:, None], np.arange(TAYLOR_DEGREE + 1), out=rows[:, :TAYLOR_DEGREE + 1])
    # negated after the product rather than via -hi_freqs: at a complex point with a zero imaginary
    # part, z * (-f) and -(z * f) differ in the sign of a zero, and so would the exponential
    tail = np.outer(z, hi_freqs, out=rows[:, TAYLOR_DEGREE + 1:])
    np.negative(tail, out=tail)
    np.exp(tail, out=tail)
    return rows


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
    governed by the number of genuinely oscillatory atoms.  The path is one
    complex ``column``, from the fold a sampler shares or else its own: the
    polynomial's coefficients, then the oscillatory amplitudes.  Every matrix
    product reads complex numbers as (Re, Im) float64 pairs: OpenBLAS runs
    complex matrix-vector products of a few thousand elements on its thread
    pool, at many times the cost of the same product done in reals.
    """

    scale: float
    freqs: np.ndarray
    amps: np.ndarray
    r_max: float
    _fold: TaylorFold | None = field(default=None, repr=False, compare=False)
    column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self._fold is None:
            self._fold = _taylor_fold(self.freqs, self.r_max)
        self.amps = np.asarray(self.amps, dtype=complex)  # read below as (Re, Im) pairs
        # moment q: sum_m a_m (-u_m)^q / q!, its real and imaginary parts in one real product
        lo_pairs = self.amps[self._fold.low].view(float).reshape(-1, 2)
        self.column = np.concatenate([(self._fold.mono.T @ lo_pairs).view(complex)[:, 0], self.amps[~self._fold.low]])

    @cached_property
    def _pairs(self) -> np.ndarray:
        """Per column entry a, (Re r, Im r) @ [[Re a, Im a], [-Im a, Re a]] = (Re ra, Im ra) for a row value r."""
        return np.stack([self.column, 1j * self.column], axis=1).view(float).reshape(-1, 2)

    def eval(self, z) -> np.ndarray:
        """Complex values at points ``z`` (array-like), |z| <= r_max; ArgumentError beyond, as :func:`design_rows`.

        The fold keeps the last grid's rows for every path that shares it,
        above all a contour's first sampling; a grid with fewer points (a
        bisection point, a refinement round of the winding count) does not
        replace them.  A worker thread may build rows concurrently with
        another: they are deterministic, and the (grid, rows) pair is replaced
        in one step.
        """
        zz = np.atleast_1d(np.asarray(z, dtype=complex))
        fold = self._fold
        kept = fold._kept
        if kept is not None and np.array_equal(kept[0], zz):
            rows = kept[1]
        else:
            rows = design_rows(zz, self.r_max, fold.hi_freqs)
            if kept is None or len(zz) >= len(kept[0]):
                object.__setattr__(fold, "_kept", (zz.copy(), rows))
        return self.scale * (rows.view(float) @ self._pairs).view(complex)[:, 0]


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
    Every experiment that weights the series reads the map from a
    replicate's draws to the path's values from :meth:`real_weights`; the
    tail reaches exp(TAIL_CAP / (2 s x_min)) in blocks of ratio
    ``block_ratio`` in log k.

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
            _fold=self._fold,
        )

    def sample_real_columns(self, stream: CoefficientStream) -> np.ndarray:
        """One real path's ``column``, the one :meth:`real_design` multiplies, copied so the complex one is freed."""
        if not self.model.is_real:
            raise ArgumentError("real columns need a real coefficient model")
        return self.sample_path(stream).column.real.copy()

    def real_design(self, x: np.ndarray) -> np.ndarray:
        """:func:`design_rows` at real points x times the paths' scale: times stacked real columns, their values at x.

        Built at every call and never kept, so no second copy of a grid's rows stays alive.
        """
        rows = design_rows(x, self.r_max, self._fold.hi_freqs)
        rows *= self.s ** (0.5 + self.alpha)
        return rows

    def _weights(self, z) -> np.ndarray:
        """w[m, i], the weight of atom m's coefficient in the unscaled path at z[i]; real points give real weights."""
        lay = self.layout
        return lay.weights[:, None] * np.exp(-self.s * np.outer(lay.logy, np.asarray(z)))

    def real_weights(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Real weights (head, tail) taking a replicate's draws to [Re | Im] of the unscaled path at the points z.

        The head's rows are the draws' eta alone for a real model, otherwise
        eta and theta in turn; the tail's rows are one standard normal per
        block for a real model, scaled by ``tail_mix[0, 0]`` = (Var eta)^(1/2),
        otherwise two normals (g, h) per block, with (eta, theta) = (g, h) @
        ``tail_mix``.  So ``head_draws @ head + tail_normals @ tail``, times
        s^(1/2+alpha), is the scaled path at z, its real parts then its
        imaginary parts.
        """
        lay = self.layout
        w = self._weights(z)
        re_im = np.hstack([w.real, w.imag])  # the row of eta_k; theta_k's is that of i w_k
        if self.model.is_real:
            return re_im[: lay.n_head], lay.tail_mix[0, 0] * re_im[lay.n_head :]
        rows = np.stack([re_im, np.hstack([-w.imag, w.real])], axis=1)
        width = re_im.shape[1]
        return rows[: lay.n_head].reshape(-1, width), (lay.tail_mix @ rows[lay.n_head :]).reshape(-1, width)

    def exact_moments(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Exact H = E[V conj(V)^T] and P = E[V V^T] of sampled paths V at the points z."""
        h, p = implied_covariance(self.model).moments(self._weights(z))
        scale = self.s ** (1.0 + 2.0 * self.alpha)
        return scale * h, scale * p
