"""Coefficient distributions for the random series and reproducible sampling streams.

The series coefficients are i.i.d. copies of a centered R^2-valued vector
(eta, theta) with finite second moment.  This module defines the supported
distribution zoo, the exact covariance structure of each model, and
counter-based random streams that make draw k of replicate j a pure function
of (master_seed, j, k), independent of thread count and evaluation order.
Bulk draws from a numpy Generator come as (eta, theta) pairs
(:func:`draw_pairs_bulk`) or, for a real model, whose theta is zero, as eta
alone (:func:`draw_eta_bulk`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import ArgumentError

_MASK64 = (1 << 64) - 1


_ROOT_HALF = math.sqrt(0.5)


def _two_point_covariance(params) -> tuple[float, float, float]:
    x1, y1, x2, y2, p = params
    q = 1 - p
    return p * x1 * x1 + q * x2 * x2, p * y1 * y1 + q * y2 * y2, p * x1 * y1 + q * x2 * y2


# The law of each model, written once for both stream APIs: the source it
# draws ("sign" +/-1, "normal" standard normals, "uniform" on (0, 1), "event"
# a uniform below the two-point hit probability), how many source columns one
# draw takes, the maps from the (count, columns) source draws to eta and to
# theta (None: theta is 0), and (Var eta, Var theta, Cov) as a function of the
# params.  The maps are separate so that a real model's eta is drawn without
# computing its theta.
_LAWS = {
    "rademacher": ("sign", 1, lambda sign, params: sign[:, 0], None, lambda params: (1.0, 0.0, 0.0)),
    "gauss-real": ("normal", 1, lambda g, params: g[:, 0], None, lambda params: (1.0, 0.0, 0.0)),
    "gauss-complex": ("normal", 2, lambda g, params: g[:, 0] * _ROOT_HALF, lambda g, params: g[:, 1] * _ROOT_HALF,
                      lambda params: (0.5, 0.5, 0.0)),
    "circle": ("uniform", 1, lambda u, params: np.cos(2.0 * math.pi * u[:, 0]),
               lambda u, params: np.sin(2.0 * math.pi * u[:, 0]), lambda params: (0.5, 0.5, 0.0)),
    "two-point": ("event", 1, lambda hit, params: np.where(hit[:, 0], params[0], params[2]),
                  lambda hit, params: np.where(hit[:, 0], params[1], params[3]), _two_point_covariance),
}

# Publicly documented model names (config key ``coefficients.kind``).
MODEL_NAMES = tuple(_LAWS)


@dataclass(frozen=True)
class CovarianceSpec:
    """Second-moment structure of (eta, theta): variances and the cross term."""

    sigma1_sq: float
    sigma2_sq: float
    rho: float = 0.0

    def __post_init__(self) -> None:
        if not (0 <= self.sigma1_sq < math.inf and 0 <= self.sigma2_sq < math.inf):
            raise ArgumentError(f"variances ({self.sigma1_sq:g}, {self.sigma2_sq:g}) must be finite and nonnegative")
        # the least eigenvalue, (trace - hypot(sigma1_sq - sigma2_sq, 2 rho)) / 2, may be -1e-12 of the trace
        if math.hypot(self.sigma1_sq - self.sigma2_sq, 2.0 * self.rho) > (1.0 + 2e-12) * self.second_moment:
            raise ArgumentError(
                f"rho^2={self.rho * self.rho:g} exceeds sigma1_sq*sigma2_sq="
                f"{self.sigma1_sq * self.sigma2_sq:g}: not a covariance matrix"
            )
        if self.sigma1_sq + self.sigma2_sq <= 0:
            raise ArgumentError("degenerate model: sigma1_sq + sigma2_sq must be positive")

    @property
    def second_moment(self) -> float:
        """E(eta^2 + theta^2)."""
        return self.sigma1_sq + self.sigma2_sq

    @property
    def pseudo_moment(self) -> complex:
        """E(eta + i theta)^2."""
        return self.sigma1_sq - self.sigma2_sq + 2j * self.rho

    @property
    def is_isotropic(self) -> bool:
        """Equal variances and no correlation, up to 1e-12 of the second moment."""
        return max(abs(self.sigma1_sq - self.sigma2_sq), abs(self.rho)) <= 1e-12 * self.second_moment

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.sigma1_sq, self.rho], [self.rho, self.sigma2_sq]])

    def moments(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """H = E[X conj(X)^T] and P = E[X X^T] of X = w^T (eta_k + i theta_k), for (terms, m) weights w.

        Three ``np.einsum`` sums over the real and imaginary views of w: no BLAS, no copy of w.
        """
        a, b = w.real, w.imag
        aa, bb, ab = (np.einsum("ki,kj->ij", u, v) for u, v in ((a, a), (b, b), (a, b)))
        return self.second_moment * (aa + bb + 1j * (ab.T - ab)), self.pseudo_moment * (aa - bb + 1j * (ab + ab.T))


@dataclass(frozen=True)
class CoefficientModel:
    """A mean-zero law for (eta, theta), selected by ``kind``.

    Two-point models carry their atoms and hit probability in ``params``;
    the other kinds are parameter-free.
    """

    kind: str
    params: tuple = field(default=())

    def __post_init__(self) -> None:
        if self.kind not in MODEL_NAMES:
            raise ArgumentError(f"unknown coefficient model {self.kind!r}; expected one of {MODEL_NAMES}")
        if self.kind == "two-point":
            if len(self.params) != 5:
                raise ArgumentError("two-point model needs params (x1, y1, x2, y2, p)")
            x1, y1, x2, y2, p = self.params
            if not 0 < p < 1:
                raise ArgumentError("two-point probability must lie in (0, 1)")
            mx = p * x1 + (1 - p) * x2
            my = p * y1 + (1 - p) * y2
            # the mean's rounding scales with E|eta + i theta|
            if math.hypot(mx, my) > 1e-12 * (p * math.hypot(x1, y1) + (1 - p) * math.hypot(x2, y2)):
                raise ArgumentError(f"two-point atoms are not centered: mean=({mx:g}, {my:g})")
            if x1 * x1 + y1 * y1 + x2 * x2 + y2 * y2 == 0:
                raise ArgumentError("two-point atoms are all zero")
            # so that a variance is 0 exactly when its component is: is_real reads Var theta
            var_eta, var_theta, _ = _two_point_covariance(self.params)
            if (var_eta == 0) != (x1 == x2 == 0) or (var_theta == 0) != (y1 == y2 == 0):
                raise ArgumentError("two-point atoms have a nonzero component whose variance underflows to 0")
        elif self.params:
            raise ArgumentError(f"model {self.kind!r} takes no parameters")

    # -- constructors ------------------------------------------------------

    @classmethod
    def rademacher(cls) -> "CoefficientModel":
        """eta = +/-1 with probability 1/2 each, theta = 0."""
        return cls("rademacher")

    @classmethod
    def gauss_real(cls) -> "CoefficientModel":
        """eta standard real Gaussian, theta = 0."""
        return cls("gauss-real")

    @classmethod
    def gauss_complex(cls) -> "CoefficientModel":
        """eta + i*theta standard complex Gaussian (Var eta = Var theta = 1/2)."""
        return cls("gauss-complex")

    @classmethod
    def circle(cls) -> "CoefficientModel":
        """(eta, theta) uniform on the unit circle."""
        return cls("circle")

    @classmethod
    def two_point(cls, point: complex, p: float) -> "CoefficientModel":
        """Two-atom law along ``point`` with hit probability ``p``, centered by construction.

        Atoms are point*sqrt((1-p)/p) with probability p and -point*sqrt(p/(1-p))
        with probability 1-p, so the mean vanishes for any p in (0, 1).
        """
        if not 0 < p < 1:
            raise ArgumentError("two-point probability must lie in (0, 1)")
        z1 = complex(point) * math.sqrt((1 - p) / p)
        z2 = -complex(point) * math.sqrt(p / (1 - p))
        return cls("two-point", (z1.real, z1.imag, z2.real, z2.imag, float(p)))

    @classmethod
    def from_name(cls, name: str, **kwargs) -> "CoefficientModel":
        """The model called ``name``; a two-point law takes the ``point`` and ``p`` of :meth:`two_point`."""
        if name == "two-point":
            return cls.two_point(**kwargs)
        return cls(name)

    # -- properties --------------------------------------------------------

    @property
    def is_real(self) -> bool:
        """True when theta is almost surely zero: theta is centered, so exactly when Var theta = 0."""
        return implied_covariance(self).sigma2_sq == 0


def implied_covariance(model: CoefficientModel) -> CovarianceSpec:
    """Exact (Var eta, Var theta, Cov) of the model's law, as its entry in the table of laws gives it."""
    return CovarianceSpec(*_LAWS[model.kind][4](model.params))


def covariance_sqrt(spec: CovarianceSpec) -> np.ndarray:
    """Symmetric PSD square root M of the 2x2 covariance matrix, M @ M = C."""
    c = spec.as_matrix()
    w, v = np.linalg.eigh(c)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.T


def _words_to_uniform(words: np.ndarray) -> np.ndarray:
    # 53-bit mantissa from the top bits, shifted into the open interval (0, 1);
    # the top word would round up to 1.0, so it is clamped to the largest double below 1
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53 + 2.0 ** -54
    return np.minimum(u, 1.0 - 2.0 ** -53, out=u)


# Lane tags separating independent randomness channels of one replicate.
LANE_PAIRS = 0
LANE_TAIL = 1
LANE_AUX = 2


@dataclass(frozen=True)
class CoefficientStream:
    """Reproducible source of (eta, theta) draws for one replicate.

    Draw k consumes exactly one 4-word Philox block at counter position k,
    so the first n draws of a longer request are the n draws of a shorter one
    (samplers with different ``head_n`` share their head), and the sequence
    never depends on scheduling.
    """

    model: CoefficientModel
    master_seed: int
    replicate_id: int = 0

    def __post_init__(self) -> None:
        if self.replicate_id < 0:
            raise ArgumentError("replicate_id must be >= 0")

    def _key(self, lane: int) -> np.ndarray:
        return np.array(
            [self.master_seed & _MASK64, ((self.replicate_id << 2) | lane) & _MASK64],
            dtype=np.uint64,
        )

    def _raw_blocks(self, lane: int, count: int) -> np.ndarray:
        return Philox(key=self._key(lane)).random_raw(4 * count).reshape(count, 4)

    def pairs(self, count: int) -> np.ndarray:
        """Draws 0..count-1 as an array of shape (count, 2)."""
        if count < 0:
            raise ArgumentError("count must be nonnegative")
        words = self._raw_blocks(LANE_PAIRS, count)
        return _law_pairs(self.model, lambda source, columns: _from_words(words, source, columns))

    def tail_normals(self, count: int) -> np.ndarray:
        """Standard normal pairs, shape (count, 2), from the tail lane."""
        return _from_words(self._raw_blocks(LANE_TAIL, count), "normal", 2)

    def bulk_generator(self) -> Generator:
        """numpy Generator bound to this stream identity's auxiliary lane, for bulk sampling.

        Unlike :meth:`pairs`, consumption is sequential; use for replicate-level
        Monte Carlo where only the (seed, replicate) binding must be stable.
        """
        return Generator(Philox(key=self._key(LANE_AUX)))


def _from_words(words: np.ndarray, source: str, columns: int) -> np.ndarray:
    """Primitive draws of shape (count, columns) from 4-word Philox blocks, one block per row."""
    if source == "sign":
        return np.where(words[:, :columns] >> np.uint64(63), 1.0, -1.0)
    u = _words_to_uniform(words[:, :columns])
    if source != "normal":
        return u
    from scipy.special import ndtri  # here, so that the GAF samplers, which import this module, load no scipy

    return ndtri(u)


def _law_draws(model: CoefficientModel, draw):
    """The eta and theta maps of the model's law, and the source draws they read, from ``draw(source, columns)``.

    An "event" source keeps only the comparison of its uniforms with the hit
    probability, so the uniforms are freed before any map allocates.
    """
    source, columns, eta_of, theta_of, _ = _LAWS[model.kind]
    if source == "event":
        return eta_of, theta_of, draw("uniform", columns) < model.params[4]
    return eta_of, theta_of, draw(source, columns)


def _law_pairs(model: CoefficientModel, draw) -> np.ndarray:
    """(eta, theta) pairs of the model's law from ``draw(source, columns)``."""
    eta_of, theta_of, x = _law_draws(model, draw)
    out = np.empty((len(x), 2))
    out[:, 0] = eta_of(x, model.params)
    out[:, 1] = 0.0 if theta_of is None else theta_of(x, model.params)
    return out


def _bulk_signs(rng: Generator, count: int) -> np.ndarray:
    """``2 * rng.integers(0, 2, count) - 1`` as float64, most of it read from raw Philox words.

    For the range [0, 2) numpy's bounded draw returns the top bit of one
    ``next_uint32``, which Philox serves as the low half, then the high half,
    of each 64-bit word.  ``integers`` draws a half kept by an earlier odd
    call and the last one or two signs, so numpy leaves the state that
    ``integers(0, 2, count)`` leaves; the words in between come from one
    ``random_raw`` call, read half by half.
    """
    bg = rng.bit_generator
    if not isinstance(bg, Philox):
        raise ArgumentError(f"sign draws read Philox words; got a {type(bg).__name__} bit generator")
    kept = min(count, bg.state["has_uint32"])
    fresh = count - kept
    last = fresh and 2 - fresh % 2
    out = np.empty(count)
    # one scalar ``integers`` call per edge sign: a sized call costs about four times as much
    if kept:
        out[0] = rng.integers(0, 2)
    halves = bg.random_raw((fresh - last) // 2).astype("<u8", copy=False).view("<u4")
    np.right_shift(halves, 31, out=out[kept:count - last])
    for i in range(count - last, count):
        out[i] = rng.integers(0, 2)
    out *= 2.0
    out -= 1.0
    return out


def _bulk_source(rng: Generator, source: str, size) -> np.ndarray:
    """Primitive draws of the given size from the generator's native samplers."""
    if source == "sign":
        return _bulk_signs(rng, math.prod(size)).reshape(size)
    if source == "normal":
        return rng.standard_normal(size)
    return rng.random(size)


def draw_pairs_bulk(model: CoefficientModel, rng: Generator, count: int) -> np.ndarray:
    """Fast bulk draws of (eta, theta) from a numpy Generator.

    Same laws as :meth:`CoefficientStream.pairs` but using the generator's
    native samplers; meant for high-replicate experiments where per-index
    addressing is unnecessary.  For a real model the theta column is zero;
    :func:`draw_eta_bulk` draws the same eta values alone.
    """
    return _law_pairs(model, lambda source, columns: _bulk_source(rng, source, (count, columns)))


def draw_eta_bulk(model: CoefficientModel, rng: Generator, count: int) -> np.ndarray:
    """The eta values of :func:`draw_pairs_bulk` for a real model, as one float64 vector.

    Takes the same generator calls, so the values and the generator's end
    state are those of ``draw_pairs_bulk(model, rng, count)[:, 0]``.
    """
    if not model.is_real:
        raise ArgumentError(f"model {model.kind!r} is not real: draw (eta, theta) pairs")
    eta_of, _, x = _law_draws(model, lambda source, columns: _bulk_source(rng, source, (count, columns)))
    return eta_of(x, model.params)
