"""Statistical confrontation of simulation output with the limit laws.

Each experiment draws replicates with deterministic (seed, replicate) stream
binding, compares an empirical quantity against its closed-form limit, and
returns a :class:`StatReport` carrying the test statistic, a p-value or total
variation distance, and a verdict.  Smoke checks (the iterated-logarithm band)
report ``verdict="smoke"`` and never fail a run: at reachable scales the
loglog normalization is still far from its limit, so only a sanity band is
asserted.

The module imports numpy and ``scipy.special`` only; the CLT check's KS test is
:func:`dirgaf.kolmogorov.ks_norm_test`, equal to ``scipy.stats.kstest`` bit for
bit.  The zeta-type limit imports ``mpmath`` for its incomplete gamma tail when
called, so that the other experiments do not pay for loading it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtrc

from .coeff_models import CoefficientModel, CoefficientStream, draw_eta_bulk, draw_pairs_bulk, implied_covariance
from .errors import ArgumentError, UndefinedEstimatorError, float64_guard, require_finite
from .kolmogorov import ks_norm_test
from .series_eval import FINE_BLOCK_RATIO, ScaledSeriesSampler, choose_truncation, gamma
from .limit_gaf import KernelParams, kernel_hermitian, kernel_moments, mobius_inv
from .limit_gaf import sample_power_series_gaf
from .zero_finder import Region, classify_signs, disk_image, mapped_disk_rectangle, scan_nodes, winding_with_retry


@dataclass
class StatReport:
    """Outcome of one statistical check."""

    name: str
    statistic: float
    n_replicates: int
    seed: int
    verdict: str  # "pass" | "fail" | "smoke"
    p_value: float | None = None
    tv_distance: float | None = None
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "tv_distance": self.tv_distance,
            "n_replicates": self.n_replicates,
            "seed": self.seed,
            "verdict": self.verdict,
        }
        out.update({k: v for k, v in self.details.items() if isinstance(v, (int, float, str, list))})
        return out

    def csv_row(self) -> tuple:
        return (
            self.name,
            self.statistic,
            "" if self.p_value is None else self.p_value,
            "" if self.tv_distance is None else self.tv_distance,
            self.n_replicates,
            self.seed,
            self.verdict,
        )


CSV_REPORT_HEADER = "name,statistic,p_value,tv_distance,n_replicates,seed,verdict"


def replicate_map(fn, n_replicates: int, threads: int = 1) -> list:
    """fn(replicate_id) for ids 0..n-1, in the calling thread, in replicate order.

    Each replicate binds its own random stream, so its value does not depend
    on what ran before it.  A replicate is many small numpy calls that hold
    the GIL, so worker threads mostly contend for it: on 2 vCPUs, 500
    ``nr-dist`` replicates on 2 threads saved 3-7 % in process and lost 6-9 %
    in a fresh ``dirgaf run``, and 4 threads lost in both.  ``threads`` is
    ignored and no caller passes it; it stays because ``perfbench/tracer.py``
    binds it by name.  An exception raised by a replicate propagates
    unchanged, with a note naming the replicate id.
    """

    def tagged(rep: int):
        try:
            return fn(rep)
        except Exception as exc:
            exc.add_note(f"raised by replicate {rep}")
            raise

    return [tagged(i) for i in range(n_replicates)]


# -- goodness of fit ----------------------------------------------------------


def tv_distance(p, q) -> float:
    """Half the l1 distance between two pmfs (padded to a common length)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = max(len(p), len(q))
    p = np.pad(p, (0, n - len(p)))
    q = np.pad(q, (0, n - len(q)))
    return 0.5 * float(np.abs(p - q).sum())


def _merge_tail_bins(observed: np.ndarray, expected: np.ndarray):
    """Merge right-tail bins until every expected count reaches 5, as the chi-square approximation needs."""
    obs = list(observed.astype(float))
    exp = list(expected.astype(float))
    while len(exp) > 1 and exp[-1] < 5.0:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        exp.pop()
        obs.pop()
    # a deficient leading bin is folded right as well
    while len(exp) > 1 and exp[0] < 5.0:
        exp[1] += exp[0]
        obs[1] += obs[0]
        exp.pop(0)
        obs.pop(0)
    return np.array(obs), np.array(exp)


def chi_square_vs_pmf(counts: np.ndarray, pmf: np.ndarray) -> tuple[float, float]:
    """Chi-square goodness of fit of observed count frequencies against a pmf."""
    n = max(len(counts), len(pmf))
    obs = np.pad(np.asarray(counts, dtype=float), (0, n - len(counts)))
    exp = np.pad(np.asarray(pmf, dtype=float), (0, n - len(pmf))) * obs.sum()
    obs, exp = _merge_tail_bins(obs, exp)
    if len(obs) < 2:
        return 0.0, 1.0
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs) - 1
    return stat, float(chdtrc(dof, stat))


def two_sample_counts_chi2(counts_a: np.ndarray, counts_b: np.ndarray) -> tuple[float, float]:
    """Two-sample chi-square on count histograms (tail bins merged jointly)."""
    n = max(len(counts_a), len(counts_b))
    a = np.pad(np.asarray(counts_a, dtype=float), (0, n - len(counts_a)))
    b = np.pad(np.asarray(counts_b, dtype=float), (0, n - len(counts_b)))
    tot = a + b
    a, _ = _merge_tail_bins(a, tot)
    b, _ = _merge_tail_bins(b, tot)
    table = np.vstack([a, b])
    keep = table.sum(axis=0) > 0
    table = table[:, keep]
    if table.shape[1] < 2:
        return 0.0, 1.0
    # Pearson's statistic as scipy.stats.chi2_contingency computes it, with
    # Yates' continuity correction at one degree of freedom
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0, keepdims=True) / table.sum()
    if np.any(expected == 0):
        raise ArgumentError("two-sample chi-square needs both samples nonempty")
    dof = table.shape[1] - 1
    if dof == 1:
        diff = expected - table
        table = table + np.minimum(0.5, np.abs(diff)) * np.sign(diff)
    stat = ((table - expected) ** 2 / expected).sum()
    return float(stat), float(chdtrc(dof, stat))


# -- one-dimensional CLT --------------------------------------------------------


def clt_normality_check(
    model: CoefficientModel,
    alpha: float,
    s: float,
    n_replicates: int,
    master_seed: int,
    head_n: int = 2 ** 16,
    tail: str = "gaussian",
    eps: float | None = None,
    break_normalizer: bool = False,
) -> StatReport:
    """KS test of the normalized real series value at z = 1 against Normal(0, 1).

    Replicate m draws the head's eta values exactly from the model (theta is
    zero for a real model and is not drawn) and (by default) completes the far
    tail with matched-variance Gaussian blocks, then multiplies by the
    normalizer (s^(1+2a) / K)^(1/2), with K = Gamma(1+2a) sigma1^2 / 2^(1+2a)
    the limit kernel's diagonal :func:`kernel_hermitian` at z = 1.
    ``break_normalizer`` reads the kernel at z = 1/2 instead, dropping the
    2^(1+2a) factor: a deliberate negative control that must fail decisively.
    Raises ArgumentError, naming the normalizer, when it underflows to 0 or
    is not finite.

    ``tail="none"`` drops the completion and keeps indices up to ``head_n``;
    ``tail="truncate"`` drops it too and picks the truncation level from the
    certified bound on the scaled tail at tolerance ``eps`` (default: 1e-3 of
    the scaled value's limit standard deviation, K^(1/2)).  At small s this
    raises the truncation resource cap: the variance of the series sits at
    indices near exp(1/s), which is the reason the Gaussian completion is the
    default.  The weights are the :meth:`ScaledSeriesSampler.real_weights` for
    this s at z = 1.
    """
    if not model.is_real:
        raise ArgumentError("clt check requires a real coefficient model")
    if not 0 < s < 0.1:
        raise ArgumentError("need 0 < s < 0.1")
    if n_replicates < 500:
        raise ArgumentError("need at least 500 replicates")
    if tail not in ("gaussian", "none", "truncate"):
        raise ArgumentError(f"tail must be 'gaussian', 'none' or 'truncate', got {tail!r}")
    params = KernelParams(alpha, implied_covariance(model))
    what = f"the CLT normalizer at alpha = {alpha:g} and s = {s:g}"
    with float64_guard(what):
        # (s^(1+2a) / K)^(1/2), not s^(1/2+a) / K^(1/2): at alpha = 0 the two differ in the last bit
        limit_var, broken_var = (kernel_hermitian(params, z, z).real for z in (1.0, 0.5))
        norm, broken = (math.sqrt(s ** (1.0 + 2.0 * alpha) / var) for var in (limit_var, broken_var))
    if not all(0.0 < value < math.inf for value in (norm, broken)):
        raise ArgumentError(f"{what} is {norm:g} ({broken:g} with break_normalizer): not a positive float64")
    if tail == "truncate":
        if eps is None:
            eps = 1e-3 * math.sqrt(limit_var)
        head_n = choose_truncation(alpha, s, 1.0, eps, second_moment=params.cov.sigma1_sq)
        tail = "none"
    sampler = ScaledSeriesSampler(model, alpha, s, head_n, x_min=1.0, r_max=1.0, tail=tail)
    # the real parts' columns, copied: einsum sums a strided vector in another order
    w_head, w_tail = (np.ascontiguousarray(w[:, 0]) for w in sampler.real_weights([1.0]))
    values = np.empty(n_replicates)
    # einsum, not @: OpenBLAS splits a threaded ddot along the vector, so its sum
    # would depend on the BLAS thread count
    for m in range(n_replicates):
        gen = CoefficientStream(model, master_seed, m).bulk_generator()
        total = float(np.einsum("i,i->", w_head, draw_eta_bulk(model, gen, head_n - 1)))
        if len(w_tail):
            total += float(np.einsum("i,i->", w_tail, gen.standard_normal(len(w_tail))))
        values[m] = total
    values *= broken if break_normalizer else norm
    statistic, p_value = ks_norm_test(values)
    return StatReport(
        name="clt",
        statistic=statistic,
        p_value=p_value,
        n_replicates=n_replicates,
        seed=master_seed,
        verdict="pass" if p_value > 1e-3 else "fail",
        details={
            "alpha": alpha,
            "s": s,
            "model": model.kind,
            "head_n": head_n,
            "tail_blocks": int(len(w_tail)),
            "sample_variance": float(values.var()),
        },
    )


# -- zero counting law -----------------------------------------------------------


@dataclass(frozen=True)
class ZeroCountLaw:
    """Distribution of the zero count of the disk process in a centered r-disk.

    The count is a sum of independent Bernoulli(r^(2k)) variables, truncated
    at the first k with r^(2k) below 1e-15.
    """

    r: float
    pmf: np.ndarray
    k_max: int

    def mean(self) -> float:
        return float(np.arange(len(self.pmf)) @ self.pmf)

    def variance(self) -> float:
        j = np.arange(len(self.pmf))
        return float(j * j @ self.pmf - self.mean() ** 2)


def zero_count_pmf(r: float) -> ZeroCountLaw:
    """Pmf of the limit zero count by sequential Bernoulli convolution."""
    if not 0 < r < 1:
        raise ArgumentError(f"r must lie in (0, 1), got {r}")
    # smallest k with r^(2k) below working precision
    k_max = 1
    while r ** (2 * k_max) >= 1e-15:
        k_max += 1
    pmf = np.array([1.0])
    for k in range(1, k_max + 1):
        p = r ** (2 * k)
        nxt = np.zeros(len(pmf) + 1)
        nxt[:-1] += pmf * (1.0 - p)
        nxt[1:] += pmf * p
        pmf = nxt
    return ZeroCountLaw(r=r, pmf=pmf, k_max=k_max)


def zero_count_experiment(
    model: CoefficientModel,
    s: float,
    r: float,
    n_replicates: int,
    master_seed: int,
    head_n: int = 2 ** 12,
) -> StatReport:
    """Empirical zero counts of the scaled series in the mapped r-disk vs the limit law.

    Requires an isotropic model (Var eta = Var theta, zero correlation); the
    exponent is fixed at 0, the only case with a closed-form count law.
    Each replicate counts the zeros inside the image disk by the winding
    number of the path along the disk's boundary circle.  A circle passing
    through a zero is widened by a relative 1e-9 and counted again; the
    number of such nudges is reported as ``boundary_nudges``.  Paths are
    sampled for the rectangle padded by ``DISK_MARGIN`` around the disk,
    which fixes the sampler's tail reach and hence the draws.
    """
    cov = implied_covariance(model)
    if not cov.is_isotropic:
        raise ArgumentError("zero count law needs an isotropic model (equal variances, rho = 0)")
    rect = mapped_disk_rectangle(r)
    disk = Region.disk(*disk_image(r))
    sampler = ScaledSeriesSampler(
        model, 0.0, s, head_n, x_min=rect.lo.real, r_max=max(abs(rect.lo), abs(rect.hi))
    )

    def one(rep: int) -> tuple[int, int]:
        path = sampler.sample_path(CoefficientStream(model, master_seed, rep))
        count, _, nudges = winding_with_retry(path.eval, disk)
        return count, nudges

    counts, nudges = np.array(replicate_map(one, n_replicates)).T
    law = zero_count_pmf(r)
    hist = np.bincount(counts, minlength=len(law.pmf)).astype(float)
    emp = hist / n_replicates
    tv = tv_distance(emp, law.pmf)
    chi, p = chi_square_vs_pmf(hist, law.pmf)
    return StatReport(
        name="zero-count",
        statistic=chi,
        p_value=p,
        tv_distance=tv,
        n_replicates=n_replicates,
        seed=master_seed,
        verdict="pass" if tv < 0.1 else "fail",
        details={
            "model": model.kind,
            "s": s,
            "r": r,
            "head_n": head_n,
            "mean_count": float(counts.mean()),
            "law_mean": law.mean(),
            "histogram": [int(c) for c in hist],
            "boundary_nudges": int(nudges.sum()),
        },
    )


# -- iterated-logarithm band ------------------------------------------------------


@dataclass(frozen=True)
class LILParams:
    """Exponent and the decreasing s-grid of the band check."""

    alpha: float
    s_grid: tuple

    def __post_init__(self) -> None:
        if not self.alpha > -0.5:
            raise ArgumentError("alpha must exceed -1/2")
        grid = tuple(float(s) for s in self.s_grid)
        if any(not 0 < s < 1 / math.e for s in grid):
            raise ArgumentError("every s must lie in (0, 1/e) so loglog(1/s) > 0")
        if any(a <= b for a, b in zip(grid, grid[1:])):
            raise ArgumentError("s_grid must be strictly decreasing")
        object.__setattr__(self, "s_grid", grid)

    @property
    def c_alpha(self) -> float:
        """Gamma(1+2a) / 2^(2a); raises ArgumentError when it overflows float64."""
        with float64_guard(f"c_alpha at alpha = {self.alpha:g}"):
            return gamma(1.0 + 2.0 * self.alpha) / 2.0 ** (2.0 * self.alpha)

    def normalizer(self, s: float) -> float:
        """f(s) = (s^(1+2a) / (c_a loglog 1/s))^(1/2)."""
        return math.sqrt(s ** (1.0 + 2.0 * self.alpha) / (self.c_alpha * math.log(math.log(1.0 / s))))


def lil_band_check(
    model: CoefficientModel,
    params: LILParams,
    master_seed: int,
    head_n: int = 10 ** 5,
    tail: str = "gaussian",
) -> StatReport:
    """Single-path normalized series values along a decreasing s-grid.

    The same coefficient stream (and the same tail Gaussians) is reused for
    every s: the law of the iterated logarithm is a statement about one path.
    Reported as a smoke check; the loglog normalization converges far too
    slowly for the limit constants to be visible at reachable scales.  The
    weights are the :meth:`ScaledSeriesSampler.real_weights` at the smallest s,
    with tail blocks of ratio ``FINE_BLOCK_RATIO``, evaluated at z = s / min(s_grid).
    R is divided by the model's own sigma1, so it does not depend on the scale
    of the coefficients.
    """
    if not model.is_real:
        raise ArgumentError("the iterated-logarithm band applies to real models")
    grid = np.array(params.s_grid)
    if grid.max() > 1e-2 or grid.min() < 1e-6:
        raise ArgumentError("s_grid must lie within [1e-6, 1e-2]")
    s_min = grid.min()
    sampler = ScaledSeriesSampler(
        model, params.alpha, s_min, head_n, x_min=1.0, r_max=grid.max() / s_min, tail=tail,
        block_ratio=FINE_BLOCK_RATIO,
    )
    stream = CoefficientStream(model, master_seed, 0)
    eta = stream.pairs(head_n - 1)[:, 0]  # a strided view, which einsum sums in the order lil.csv was recorded with
    normals = np.ascontiguousarray(stream.tail_normals(sampler.layout.n_tail)[:, 0])
    sigma1 = math.sqrt(implied_covariance(model).sigma1_sq)
    r_vals = np.empty(len(grid))
    for i, s in enumerate(grid):
        head_w, tail_w = (np.ascontiguousarray(w[:, 0]) for w in sampler.real_weights([s / s_min]))
        # einsum, not @, so that the sums do not depend on the BLAS thread count (see clt_normality_check)
        total = float(np.einsum("i,i->", eta, head_w)) + float(np.einsum("i,i->", normals, tail_w))
        r_vals[i] = params.normalizer(s) * total / sigma1
    frac_in = float(np.mean(np.abs(r_vals) <= 1.05))
    return StatReport(
        name="lil-band",
        statistic=float(np.max(np.abs(r_vals))),
        n_replicates=1,
        seed=master_seed,
        verdict="smoke",
        details={
            "alpha": params.alpha,
            "model": model.kind,
            "head_n": head_n,
            "max_r": float(r_vals.max()),
            "min_r": float(r_vals.min()),
            "fraction_in_band": frac_in,
            "s_grid": [float(s) for s in grid],
            "r_values": [float(v) for v in r_vals],
        },
    )


# -- deterministic zeta-type limit -------------------------------------------------


def zeta_partial_with_tail(beta: float, z: complex, k_cut: int = 10 ** 5) -> complex:
    """sum_{k >= 2} (log k)^beta k^(-1-z) via partial sum plus integral tail.

    The tail over (k_cut, inf) is the closed form z^(-(1+beta)) Gamma(1+beta, z log k_cut)
    (upper incomplete gamma with complex argument).  Direct truncation alone
    would be off by O(1) for Re(z) near 1e-4.
    """
    import mpmath  # loaded here: only the zeta-type limit needs it

    z = complex(z)
    k = np.arange(2, k_cut + 1)
    logk = np.log(k)
    head = complex(np.sum(logk ** beta * np.exp(-(1.0 + z) * logk)))
    a = mpmath.mpf(1) + mpmath.mpf(beta)
    arg = mpmath.mpc(z.real, z.imag) * mpmath.log(k_cut)
    tail = complex(mpmath.gammainc(a, arg)) / z ** (1.0 + beta)
    return head + tail


ZETA_TOLERANCE = 0.02  # the largest relative error of the zeta-type limit that passes (criterion 9's band)


def zeta_limit_check(beta: float, z_list, k_cut: int = 10 ** 5) -> list[tuple[complex, float]]:
    """|z^(1+beta) S(z) / Gamma(1+beta) - 1| for each z, S the weighted zeta-type sum.

    Valid for beta > -1 and z in the right half-plane with |z| <= 1; the
    relative error vanishes as z -> 0 and measures how far z is from the
    scaling limit, on the same scale for every beta.
    ``k_cut`` must be at least 2, or the partial sum is empty and the check vacuous.
    Raises ArgumentError when Gamma(1+beta) or z^(1+beta) falls outside the
    normal float64 range, or an error is not finite.
    """
    if not beta > -1:
        raise ArgumentError("beta must exceed -1")
    if k_cut < 2:
        raise ArgumentError(f"k_cut must be at least 2, got {k_cut}")
    out = []
    with float64_guard(f"Gamma(1 + beta) at beta = {beta:g}"):
        target = gamma(1.0 + beta)
    for z in np.atleast_1d(np.asarray(z_list, dtype=complex)):
        z = complex(z)
        if z.real <= 0 or abs(z) > 1:
            raise ArgumentError(f"z must satisfy Re(z) > 0 and |z| <= 1, got {z}")
        z_pow = z ** (1.0 + beta)
        if not abs(z_pow) >= np.finfo(float).tiny:
            raise ArgumentError(f"z^(1 + beta) at beta = {beta:g} and z = {z} underflows float64")
        what = f"the error at beta = {beta:g} and z = {z}"
        with float64_guard(what):
            err = float(abs(z_pow * zeta_partial_with_tail(beta, z, k_cut) / target - 1.0))
        require_finite(what, err)
        out.append((z, err))
    return out


# -- real zero process comparison ---------------------------------------------------


REAL_ZERO_CHUNK = 64  # replicates evaluated together; a constant, so every run groups the replicates alike
REAL_ZERO_BLOCK = 256  # scan-node cells per block matrix; blocks of 257 nodes share their edge nodes


def _chunk_counts(draws: list, build, xs: np.ndarray) -> np.ndarray:
    """Real zeros of each replicate's function on (xs[0], xs[-1]), block of nodes by chunk of replicates.

    A replicate's draw is a column whose product with ``build(nodes)`` gives
    its values at those scan nodes of the window.  The columns are stacked
    ``REAL_ZERO_CHUNK`` replicates at a time, emptying ``draws`` as they go, so
    they are held once.  The nodes are taken ``REAL_ZERO_BLOCK`` cells at a
    time, each block sharing its last node with the next; each block's matrix
    is built once and multiplied with every chunk, (nodes, terms) @ (terms,
    chunk) read transposed (in the other orientation OpenBLAS packs the whole
    matrix into its buffer).  So no matrix of all nodes is held, only a
    block's and its rows.  Every cell lies in one block, and a block counts
    the exact zeros at its nodes but its last, so a shared node is counted
    once: each row's count is :func:`count_real_zeros`'s.  A chunk whose rows
    a block cannot classify (a value that is not finite, a flat cell) has its
    whole rows classified again, so the UndefinedEstimatorError names the
    replicate, node counts and all, as one product of all nodes would.
    """
    out = np.zeros(len(draws), dtype=np.int64)
    chunks = []
    while draws:
        chunks.append(np.stack(draws[:REAL_ZERO_CHUNK], axis=1))
        del draws[:REAL_ZERO_CHUNK]
    a, b = xs[0], xs[-1]
    undefined = set()  # chunks with a row whose count is undefined
    for lo in range(0, len(xs) - 1, REAL_ZERO_BLOCK):
        nodes = xs[lo:lo + REAL_ZERO_BLOCK + 1]
        matrix = build(nodes)
        for k, chunk in enumerate(chunks):
            rows = (matrix @ chunk).T
            try:
                cells, zeros = classify_signs(nodes, rows, a, b)
            except UndefinedEstimatorError:
                undefined.add(k)
                continue
            out[k * REAL_ZERO_CHUNK:(k + 1) * REAL_ZERO_CHUNK] += cells.sum(axis=1) + zeros[:, :-1].sum(axis=1)
        del matrix  # freed before the next block's is built
    for k in sorted(undefined):  # classified whole, the first of them raises
        rows = np.concatenate([build(xs[lo:lo + REAL_ZERO_BLOCK]) @ chunks[k]
                               for lo in range(0, len(xs), REAL_ZERO_BLOCK)]).T
        cells, zeros = classify_signs(xs, rows, a, b, first_replicate=k * REAL_ZERO_CHUNK)
        out[k * REAL_ZERO_CHUNK:(k + 1) * REAL_ZERO_CHUNK] = cells.sum(axis=1) + zeros.sum(axis=1)
    return out


def real_zero_process_comparison(
    model: CoefficientModel,
    s: float,
    window: tuple[float, float],
    n_replicates: int,
    master_seed: int,
    head_n: int = 2 ** 12,
    n_terms: int = 200,
) -> StatReport:
    """Real-zero counts of the scaled series vs the unit-interval power-series process.

    Both sides are Monte Carlo: the series side counts sign-change zeros of a
    sampled path in the window; the disk side counts zeros of a truncated
    random real power series in the pulled-back window.  Both count as
    :func:`count_real_zeros` does on its default grid, without locating the
    zeros.  Each side draws every replicate (see :func:`replicate_map`) as one
    column, and :func:`_chunk_counts` evaluates the columns one block of scan
    nodes at a time: a block's matrix (the Vandermonde matrix of the
    pulled-back nodes on the power-series side,
    :meth:`ScaledSeriesSampler.real_design` on the series side) is built once
    and multiplied with each chunk of ``REAL_ZERO_CHUNK`` stacked columns.
    The power-series side goes first, so its draws are freed before the series
    side draws.  OpenBLAS threads the products itself.  Count distributions
    are compared by total variation and a two-sample chi-square.
    """
    if not model.is_real:
        raise ArgumentError("real-zero comparison requires a real model")
    a, b = float(window[0]), float(window[1])
    if not 0 < a < b:
        raise ArgumentError("window must be a compact subinterval of (0, inf)")
    sampler = ScaledSeriesSampler(model, 0.0, s, head_n, x_min=a, r_max=b)
    da, db = mobius_inv(a).real, mobius_inv(b).real

    def power_series(rep: int) -> np.ndarray:
        gen = CoefficientStream(model, master_seed ^ 0x5F5F5F5F, rep).bulk_generator()
        return sample_power_series_gaf(0.0, False, gen, n_terms)

    xs = scan_nodes(da, db)  # in (-1, 1), so no power overflows
    counts_gaf = _chunk_counts(replicate_map(power_series, n_replicates),
                               lambda nodes: np.vander(nodes, n_terms, increasing=True), xs)
    series = replicate_map(lambda rep: sampler.sample_real_columns(CoefficientStream(model, master_seed, rep)),
                           n_replicates)
    counts_series = _chunk_counts(series, sampler.real_design, scan_nodes(a, b))
    width = max(counts_series.max(), counts_gaf.max()) + 1
    hist_series = np.bincount(counts_series, minlength=width).astype(float)
    hist_gaf = np.bincount(counts_gaf, minlength=width).astype(float)
    tv = tv_distance(hist_series / n_replicates, hist_gaf / n_replicates)
    chi, p = two_sample_counts_chi2(hist_series, hist_gaf)
    mean_gap = float(counts_series.mean() - counts_gaf.mean())
    se = math.sqrt(counts_series.var() / n_replicates + counts_gaf.var() / n_replicates)
    verdict = "pass" if tv < 0.15 and abs(mean_gap) <= 3.0 * se else "fail"
    return StatReport(
        name="real-zeros",
        statistic=chi,
        p_value=p,
        tv_distance=tv,
        n_replicates=n_replicates,
        seed=master_seed,
        verdict=verdict,
        details={
            "model": model.kind,
            "s": s,
            "window": [a, b],
            "mean_series": float(counts_series.mean()),
            "mean_gaf": float(counts_gaf.mean()),
            "mean_gap_se": float(se),
            "hist_series": [int(c) for c in hist_series],
            "hist_gaf": [int(c) for c in hist_gaf],
        },
    )


# -- covariance convergence ----------------------------------------------------------


def scaled_covariance_experiment(
    model: CoefficientModel,
    alpha: float,
    s_list,
    z_grid,
    n_replicates: int,
    master_seed: int,
    head_n: int = 2 ** 12,
) -> dict:
    """Empirical product moments of the scaled series across an s-sweep, against the limit kernels.

    Uses common random numbers: the same replicate draws feed every s, so the
    Monte Carlo noise nearly cancels in cross-s comparisons and the shrinking
    bias of the covariance toward its kernel limit is visible.  Returns, per s,
    the empirical pseudo and hermitian m x m matrices plus per-entry standard
    errors, and the Frobenius distances of the empirical and of the exact path
    moments (``exact_moments``) from the kernels (``kernel_moments``).  The
    ``report`` passes when the exact distances strictly decrease along the
    sweep and every entry at the last s lies within 5 standard errors of its
    kernel value.  Replicates are drawn in slabs of 16, one stream per slab,
    each replicate as the draws that :meth:`ScaledSeriesSampler.real_weights`
    maps to its values, and each slab's values at every s come from one real
    GEMM over them.
    Raises ArgumentError when s_list is not strictly decreasing.
    """
    z = np.asarray(z_grid, dtype=complex)
    s_list = [float(s) for s in s_list]
    if any(a <= b for a, b in zip(s_list, s_list[1:])):
        raise ArgumentError(f"s_list must be strictly decreasing, got {s_list}")
    x_min = float(z.real.min())
    r_max = float(np.abs(z).max())
    samplers = [
        ScaledSeriesSampler(model, alpha, s, head_n, x_min=x_min, r_max=r_max) for s in s_list
    ]
    m = len(z)
    head_w, tail_w = zip(*(smp.real_weights(z) for smp in samplers))
    tail_rows = max(len(w) for w in tail_w)
    # the weights of every s side by side, so that one GEMM serves the sweep; shorter tails get zero rows
    head_ri = np.hstack(head_w)
    tail_ri = np.hstack([np.pad(w, ((0, tail_rows - len(w)), (0, 0))) for w in tail_w])
    scales = np.repeat([s ** (0.5 + alpha) for s in s_list], 2 * m)
    sums = np.zeros((2, len(s_list), m, m), dtype=complex)  # of the P and the H products
    squares = np.zeros((2, len(s_list), m, 2 * m))  # of their real and imaginary parts squared, interleaved
    draw = draw_eta_bulk if model.is_real else draw_pairs_bulk
    # one slab of products, rewritten by every slab, so that no slab's products outlive it
    buf = np.empty((min(16, n_replicates), 2, len(s_list), m, m), dtype=complex)
    for slab, start in enumerate(range(0, n_replicates, 16)):
        n = min(16, n_replicates - start)
        gen = CoefficientStream(model, master_seed, slab).bulk_generator()
        head = draw(model, gen, n * (head_n - 1)).reshape(n, -1)
        tail = gen.standard_normal((n, tail_rows))
        # a product of 16 rows sums in the same order at 1 and 2 BLAS threads (acceptance 13 checks it)
        re_im = ((head @ head_ri + tail @ tail_ri) * scales).reshape(n, len(s_list), 2, m)
        vals = re_im[:, :, 0] + 1j * re_im[:, :, 1]
        prods = buf[:n]
        np.multiply(vals[..., :, None], vals[..., None, :], out=prods[:, 0])
        np.multiply(vals[..., :, None], np.conj(vals[..., None, :]), out=prods[:, 1])
        sums += prods.sum(axis=0)
        squares += np.square(prods.view(float), out=prods.view(float)).sum(axis=0)
    kh, kp = kernel_moments(KernelParams(alpha, implied_covariance(model)), z)
    out = {"z_grid": z, "s_list": s_list, "kernel_pseudo": kp, "kernel_hermitian": kh, "per_s": []}
    means = sums / n_replicates
    squares /= n_replicates
    ses = np.sqrt(np.maximum(np.maximum(squares[..., 0::2] - means.real ** 2, squares[..., 1::2] - means.imag ** 2),
                             0.0) / n_replicates)
    for smp, mean_p, mean_h, se_p, se_h in zip(samplers, *means, *ses):
        exact_h, exact_p = smp.exact_moments(z)
        out["per_s"].append(
            {
                "s": smp.s,
                "pseudo": mean_p,
                "hermitian": mean_h,
                "se_pseudo": se_p,
                "se_hermitian": se_h,
                "empirical_distance": math.hypot(np.linalg.norm(mean_p - kp), np.linalg.norm(mean_h - kh)),
                "exact_distance": math.hypot(np.linalg.norm(exact_p - kp), np.linalg.norm(exact_h - kh)),
            }
        )
    emp_distances = [per_s["empirical_distance"] for per_s in out["per_s"]]
    exact_distances = [per_s["exact_distance"] for per_s in out["per_s"]]
    # the shrinking-distance property is checked on the exact path covariances
    # (deterministic); the Monte Carlo estimate certifies the final values
    monotone = all(a > b for a, b in zip(exact_distances, exact_distances[1:]))
    final = out["per_s"][-1]
    final_ok = bool(
        np.all(np.abs(final["pseudo"] - kp) <= 5 * final["se_pseudo"])
        and np.all(np.abs(final["hermitian"] - kh) <= 5 * final["se_hermitian"])
    )
    out["report"] = StatReport(
        name="covariance-convergence",
        statistic=emp_distances[-1],
        n_replicates=n_replicates,
        seed=master_seed,
        verdict="pass" if (monotone and final_ok) else "fail",
        details={
            "alpha": alpha,
            "model": model.kind,
            "empirical_distances": emp_distances,
            "exact_distances": exact_distances,
            "s_list": s_list,
            "monotone": monotone,
            "final_within_5se": final_ok,
        },
    )
    return out
