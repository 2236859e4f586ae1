"""Zero localization for analytic functions by winding numbers and subdivision.

The count of zeros (with multiplicity) inside a contour equals the total phase
change of f along it divided by 2 pi.  Phase change is tracked on an adaptively
refined boundary sample; no derivative of f is needed, and the result is an
exact integer once all increments are below pi/2.  Regions are subdivided
quadtree-style to localize the zeros; cuts that land on (or suspiciously near)
a zero are retried with a deterministic pseudo-random offset so results stay
reproducible.

Functions are evaluated in batches: ``f`` must accept a 1-d numpy array of
points and return the array of values of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    BoundaryZeroError,
    NonConvergenceError,
    UndefinedEstimatorError,
    UnresolvableBoundaryError,
    VanishingContourError,
)

PHASE_CAP = math.pi / 2
MOD_RATIO_CAP = math.e ** 2
MAX_DEPTH = 24
RETRY_BUDGET = 8


@dataclass(frozen=True)
class Region:
    """A rectangle, disk, or real interval where zeros are counted."""

    kind: str
    lo: complex = 0j
    hi: complex = 0j
    center: complex = 0j
    radius: float = 0.0

    @classmethod
    def rectangle(cls, lo: complex, hi: complex) -> "Region":
        lo, hi = complex(lo), complex(hi)
        if not (lo.real < hi.real and lo.imag < hi.imag):
            raise ArgumentError(f"degenerate rectangle corners {lo}, {hi}")
        return cls("rectangle", lo=lo, hi=hi)

    @classmethod
    def disk(cls, center: complex, radius: float) -> "Region":
        if radius <= 0:
            raise ArgumentError("disk radius must be positive")
        return cls("disk", center=complex(center), radius=float(radius))

    @classmethod
    def interval(cls, a: float, b: float) -> "Region":
        if not a < b:
            raise ArgumentError("interval needs a < b")
        return cls("interval", lo=complex(a), hi=complex(b))

    @property
    def diameter(self) -> float:
        if self.kind == "rectangle":
            return max(self.hi.real - self.lo.real, self.hi.imag - self.lo.imag)
        if self.kind == "disk":
            return 2.0 * self.radius
        return self.hi.real - self.lo.real

    def metadata(self) -> dict:
        if self.kind == "rectangle":
            return {
                "kind": "rectangle",
                "lo": [self.lo.real, self.lo.imag],
                "hi": [self.hi.real, self.hi.imag],
            }
        if self.kind == "disk":
            return {"kind": "disk", "center": [self.center.real, self.center.imag], "radius": self.radius}
        return {"kind": "interval", "a": self.lo.real, "b": self.hi.real}


@dataclass
class PointMeasure:
    """Zeros with multiplicities inside a region, sorted by location."""

    atoms: list  # of (location: complex, multiplicity: int)
    region: Region

    def __post_init__(self) -> None:
        self.atoms = sorted(self.atoms, key=lambda a: (a[0].real, a[0].imag))
        for loc, mult in self.atoms:
            if mult < 1:
                raise ArgumentError(f"multiplicity {mult} < 1 at {loc}")

    def total(self) -> int:
        return sum(m for _, m in self.atoms)


def _vectorized(f):
    """``f`` checked to return one value per point."""

    def call(pts: np.ndarray) -> np.ndarray:
        vals = np.asarray(f(pts))
        if vals.shape != pts.shape:
            raise ArgumentError(f"f must return an array of shape {pts.shape}, got shape {vals.shape}")
        return vals

    return call


def _boundary(region: Region, per_edge: int):
    """Initial boundary segments as (start, end) parameters, and the map to points.

    Rectangle segments are straight and parametrized by their end points.
    Disk segments are arcs parametrized by angle, so refined samples stay on
    the circle; refining chords instead would count the zeros of an inscribed
    polygon and miss those between a chord and its arc.
    """
    if region.kind == "rectangle":
        lo, hi = region.lo, region.hi
        corners = [lo, complex(hi.real, lo.imag), hi, complex(lo.real, hi.imag)]
        pts = []
        for c0, c1 in zip(corners, corners[1:] + corners[:1]):
            t = np.arange(per_edge) / per_edge
            pts.append(c0 + (c1 - c0) * t)
        pts = np.concatenate(pts)
        return pts, np.roll(pts, -1), lambda s: s
    if region.kind == "disk":
        angles = 2.0 * np.pi * np.arange(4 * per_edge + 1) / (4 * per_edge)
        return angles[:-1], angles[1:], lambda a: region.center + region.radius * np.exp(1j * a)
    raise ArgumentError(f"winding is undefined on region kind {region.kind!r}")


def winding_count(f, region: Region, per_edge: int = 16) -> int:
    """Number of zeros of f inside the region, with multiplicity.

    Tracks the phase of f along the positively-oriented boundary (the edges
    of a rectangle, the circle of a disk), inserting midpoints into any
    sampled segment whose phase increment reaches pi/2, up to depth 24.
    Each refinement round probes every live segment at its three quarter
    points, and f is called once per round: the first call takes the n
    first-sampling points followed by the first round's three probe sets
    (4n points in all), each later call the 3k probes of its k live segments.
    Raises BoundaryZeroError when a sample, at the first sampling or at any
    refinement, is not finite or has |f| below 1e-13 times the largest |f|
    of the first sampling; when that largest |f| is 0 or not finite, so that
    no nearby contour can fare better, the error is a VanishingContourError.
    The first sampling is checked before any probe, on its own n values.
    Raises NonConvergenceError at the depth cap.
    """
    fv = _vectorized(f)
    s0, s1, at = _boundary(region, per_edge)
    n = len(s0)
    sm = 0.5 * (s0 + s1)
    vals = fv(at(np.concatenate([s0, 0.75 * s0 + 0.25 * s1, sm, 0.25 * s0 + 0.75 * s1])))
    mags = np.abs(vals[:n])
    largest = float(mags.max())
    threshold = 1e-13 * largest
    # written so that a NaN sample fails: it compares false with everything
    if not 0.0 < threshold < math.inf:
        raise VanishingContourError(f"f vanishes (underflows to 0) or is not finite on the boundary of "
                                    f"{region.metadata()}: its largest |f| is {largest:g}")
    if not float(mags.min()) >= threshold:
        raise BoundaryZeroError(f"|f| below {threshold:g} or not finite on the boundary of {region.metadata()}")
    v0 = vals[:n]
    v1 = np.roll(v0, -1)
    probes = vals[n:]
    depth = np.zeros(n, dtype=np.int64)
    total = 0.0
    while True:
        # every live segment is probed at its quarter points; it is accepted
        # only when all four sub-increments stay below pi/2 (so a hidden full
        # revolution from zeros near the contour cannot slip through) and |f|
        # keeps a bounded ratio across the probes (which flags undersampled
        # fast rotation, e.g. near high-degree polynomial corners)
        vq1, vqm, vq3 = quarters = probes.reshape(3, -1)
        probe_mags = np.abs(quarters)
        if not float(probe_mags.min()) >= threshold or not float(probe_mags.max()) < math.inf:
            raise BoundaryZeroError(f"|f| below {threshold:g} or not finite on a refined boundary sample")
        incs = np.vstack(
            [np.angle(vq1 / v0), np.angle(vqm / vq1), np.angle(vq3 / vqm), np.angle(v1 / vq3)]
        )
        all_mags = np.vstack([np.abs(v0), probe_mags, np.abs(v1)])
        done = (np.abs(incs).max(axis=0) < PHASE_CAP) & (
            all_mags.max(axis=0) <= MOD_RATIO_CAP * all_mags.min(axis=0)
        )
        total += float(incs[:, done].sum())
        bad = ~done
        if not bad.any():
            break
        if int(depth[bad].max()) >= MAX_DEPTH:
            raise NonConvergenceError(f"winding refinement hit depth cap {MAX_DEPTH}")
        s0 = np.concatenate([s0[bad], sm[bad]])
        s1 = np.concatenate([sm[bad], s1[bad]])
        v0 = np.concatenate([v0[bad], vqm[bad]])
        v1 = np.concatenate([vqm[bad], v1[bad]])
        depth = np.tile(depth[bad] + 1, 2)
        sm = 0.5 * (s0 + s1)
        probes = fv(at(np.concatenate([0.75 * s0 + 0.25 * s1, sm, 0.25 * s0 + 0.75 * s1])))
    turns = total / (2.0 * math.pi)
    count = int(round(turns))
    if abs(turns - count) > 1e-6:
        raise NonConvergenceError(f"winding did not close to an integer: {turns}")
    return count


def _jitter(region: Region, attempt: int, extra: int = 0) -> np.ndarray:
    """Deterministic pseudo-random offsets in [-1, 1]^2 keyed to region coordinates."""
    raw = np.array(
        [region.lo.real, region.lo.imag, region.hi.real, region.hi.imag], dtype=np.float64
    ).view(np.uint64)
    seq = np.random.SeedSequence(entropy=[int(x) for x in raw] + [attempt, extra])
    return np.random.default_rng(seq).random(2) * 2.0 - 1.0


CUT_CLEARANCE = 1e-6
DISK_MARGIN = 0.1  # the disk experiments pad the image disk's bounding rectangle by this fraction of its radius
DISK_NUDGE = 1e-9
RETRY_SHIFT = 1e-3  # a rectangle retry moves each coordinate by up to this fraction of the diameter


def winding_with_retry(f, region: Region) -> tuple[int, Region, int]:
    """Winding count, moving the contour deterministically off boundary zeros.

    A depth-cap failure is treated like a detected boundary zero: phase
    refinement stalls exactly when the contour passes through or hugs a zero.
    A rectangle is shifted by a pseudo-random offset of 1e-3 of its diameter;
    a disk's radius grows by ``DISK_NUDGE`` relative per attempt, which
    changes the count only when a zero sits in the thin annulus crossed.
    A contour on which f vanishes or is not finite is not moved: that raises
    UnresolvableBoundaryError at once.
    Returns the count, the region it was taken on, and the number of moves.
    """
    current = region
    for attempt in range(RETRY_BUDGET):
        try:
            return winding_count(f, current), current, attempt
        except VanishingContourError as exc:
            raise UnresolvableBoundaryError(str(exc)) from exc
        except (BoundaryZeroError, NonConvergenceError):
            if region.kind == "disk":
                current = Region.disk(region.center, region.radius * (1.0 + DISK_NUDGE * (attempt + 1)))
            else:
                step = RETRY_SHIFT * region.diameter * _jitter(region, attempt)
                shift = complex(step[0], step[1])
                current = Region.rectangle(region.lo + shift, region.hi + shift)
    raise UnresolvableBoundaryError(
        f"could not move region {region.metadata()} off a boundary zero after {RETRY_BUDGET} retries"
    )


def _cut_is_clear(fv, lo: complex, hi: complex, cx: float, cy: float) -> bool:
    """Probe the two candidate cut lines: reject cuts passing near a zero."""
    ts = np.linspace(0.0, 1.0, 33)
    vertical = cx + 1j * (lo.imag + (hi.imag - lo.imag) * ts)
    horizontal = (lo.real + (hi.real - lo.real) * ts) + 1j * cy
    mags = np.abs(fv(np.concatenate([vertical, horizontal])))
    return float(mags.min()) >= CUT_CLEARANCE * float(mags.max())


def _difference_step(tol: float, center: complex) -> float:
    return max(tol / 20.0, 1e-12 * (1.0 + abs(center)))


def _newton_polish(fv, center: complex, tol: float, cell_diam: float) -> complex:
    """Newton iteration from a terminal cell's center, kept within 2 cell diameters of it.

    An iterate leaving that disk is not evaluated: the iteration has diverged,
    and the cell center, within tol of the zero, is returned instead.
    """
    h = _difference_step(tol, center)
    z = center
    for _ in range(50):
        vals = fv(np.array([z, z + h, z - h], dtype=complex))
        deriv = (vals[1] - vals[2]) / (2.0 * h)
        if deriv == 0:
            break
        step = vals[0] / deriv
        z = z - step
        if abs(z - center) > 2.0 * cell_diam:
            return center
        if abs(step) < tol / 10.0:
            break
    return z


def evaluation_reach(region: Region, tol: float | None = None) -> float:
    """Largest |z| at which the zero finder evaluates f for ``region``.

    Without ``tol``: every contour :func:`winding_with_retry` may move to.
    With ``tol``: every point ``locate_zeros(f, region, tol)`` evaluates; its
    cuts lie inside the counted contour, and its Newton polish stays within
    2 tol (plus the difference step) of a terminal cell's center.  A sampler
    whose paths are searched for zeros is sized with this as its r_max.
    Raises ArgumentError for a ``tol`` below 2**12 float64 eps times the reach.
    """
    if region.kind == "disk":
        reach = abs(region.center) + region.radius * (1.0 + DISK_NUDGE * RETRY_BUDGET)
    elif region.kind == "rectangle":
        shift = RETRY_SHIFT * region.diameter
        reach = math.hypot(max(abs(region.lo.real), abs(region.hi.real)) + shift,
                           max(abs(region.lo.imag), abs(region.hi.imag)) + shift)
    else:
        raise ArgumentError(f"the zero finder does not evaluate on region kind {region.kind!r}")
    if tol is not None:
        # before a sampler is sized with it: a finer tol rounds cell corners together
        floor = 2.0 ** 12 * np.finfo(float).eps * reach
        if not tol >= floor:
            raise ArgumentError(f"tol must be at least {floor:.3g} (2**12 float64 eps times the reach {reach:.6g}"
                                f" of the region), got {tol}")
        reach += 2.0 * tol + _difference_step(tol, reach)
    return reach


def locate_zeros(f, region: Region, tol: float) -> PointMeasure:
    """All zeros of f in a rectangle, located to ``tol``, with multiplicities.

    Quadtree subdivision: every cell holding zeros is split in four until its
    diameter is below tol; split lines that hit a zero (boundary-zero error or
    a parent/children count mismatch) are re-drawn with a deterministic offset,
    with a retry budget of 8.  Terminal cell centers are Newton-polished with a
    central-difference derivative.  The total multiplicity always equals the
    winding count of the full region boundary.
    """
    if region.kind != "rectangle":
        raise ArgumentError("locate_zeros operates on rectangle regions")
    evaluation_reach(region, tol)  # refuses a tol below the region's float64 resolution
    fv = _vectorized(f)
    total, root, _ = winding_with_retry(fv, region)
    atoms: list[tuple[complex, int]] = []
    stack = [(root, total)]
    while stack:
        cell, count = stack.pop()
        if count == 0:
            continue
        if cell.diameter <= tol:
            loc = _newton_polish(fv, 0.5 * (cell.lo + cell.hi), tol, cell.diameter)
            atoms.append((loc, count))
            continue
        lo, hi = cell.lo, cell.hi
        for attempt in range(RETRY_BUDGET):
            frac = np.array([0.5, 0.5])
            if attempt:
                # widen the jitter as retries accumulate
                frac = 0.5 + (0.1 + 0.04 * attempt) * _jitter(cell, attempt, extra=1)
            cx = lo.real + (hi.real - lo.real) * float(frac[0])
            cy = lo.imag + (hi.imag - lo.imag) * float(frac[1])
            if not _cut_is_clear(fv, lo, hi, cx, cy):
                continue
            children = [
                Region.rectangle(lo, complex(cx, cy)),
                Region.rectangle(complex(cx, lo.imag), complex(hi.real, cy)),
                Region.rectangle(complex(lo.real, cy), complex(cx, hi.imag)),
                Region.rectangle(complex(cx, cy), hi),
            ]
            try:
                counts = [winding_count(fv, child) for child in children]
            except (BoundaryZeroError, NonConvergenceError):
                continue
            if sum(counts) == count:
                stack.extend(zip(children, counts))
                break
            # a zero sits close enough to a cut to alias the phase; re-draw
        else:
            raise UnresolvableBoundaryError(
                f"subdivision of cell {cell.metadata()} failed after {RETRY_BUDGET} cut retries"
            )
    measure = PointMeasure(atoms, root)
    assert measure.total() == total, "zero count leaked during subdivision"
    return measure


def scan_nodes(a: float, b: float, grid_step: float | None = None) -> np.ndarray:
    """Nodes of the sign scan of (a, b): a uniform grid of step at most ``grid_step``, (b - a) / 2048 by default."""
    if not a < b:
        raise ArgumentError("need a < b")
    if grid_step is None:
        grid_step = (b - a) / 2048.0
    n = max(int(math.ceil((b - a) / grid_step)), 2)
    return np.linspace(a, b, n + 1)


def classify_signs(xs: np.ndarray, ys: np.ndarray, a: float, b: float,
                   first_replicate: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Sign-change cells and exact-zero interior nodes of each row of values at the scan nodes.

    ``ys`` holds one row of values at ``xs`` (the scan nodes of (a, b)) per
    function.  Returns two boolean arrays with a row per function: cell i,
    (xs[i], xs[i+1]), across which the function changes sign, and node i,
    strictly inside (a, b), where it is exactly 0.  A function exactly 0 at
    two adjacent nodes has underflowed (or vanishes on an interval): its zeros
    are not isolated.  A value that is NaN or infinite has no sign to compare.
    Either is an UndefinedEstimatorError about the first such row.  When the
    rows are the replicates ``first_replicate``, ``first_replicate + 1``, ...,
    the error carries a note naming the replicate, as :func:`replicate_map`'s does.
    Complex values have no sign either: they are an ArgumentError.
    """

    def undefined(row: int, message: str) -> UndefinedEstimatorError:
        exc = UndefinedEstimatorError(message)
        if first_replicate is not None:
            exc.add_note(f"raised by replicate {first_replicate + row}")
        return exc

    if np.iscomplexobj(ys):
        raise ArgumentError(f"the values on ({a:g}, {b:g}) are complex ({ys.dtype}); a sign scan needs real values")
    if not np.isfinite(ys).all():
        bad = ~np.isfinite(ys)
        row, i = (int(k) for k in np.argwhere(bad)[0])
        raise undefined(row, f"f is {ys[row, i]} at the grid node {xs[i]:.17g} of ({a:g}, {b:g})"
                             f" ({int(bad[row].sum())} of {len(xs)} nodes): its sign there is undefined")
    zero = ys == 0.0
    flat = zero[:, :-1] & zero[:, 1:]
    if flat.any():
        row, i = (int(k) for k in np.argwhere(flat)[0])
        raise undefined(row, f"f is exactly 0 at both ends of the grid cell [{xs[i]:.17g}, {xs[i + 1]:.17g}]"
                             f" of ({a:g}, {b:g}) ({int(zero[row].sum())} of {len(xs)} nodes): it underflows,"
                             " so its zeros there are not isolated")
    cells = (ys[:, :-1] * ys[:, 1:]) < 0
    return cells, zero & ((a < xs) & (xs < b))


def real_zeros(f, a: float, b: float, grid_step: float | None = None, tol: float = 1e-10) -> PointMeasure:
    """Sign-change zeros of a real function on (a, b), bisected to width ``tol``.

    Even-multiplicity (tangential) zeros produce no sign change and are not
    detected; all reported atoms carry multiplicity 1.  A grid node evaluating
    exactly to zero is reported as a zero directly.
    """
    fv = _vectorized(f)
    xs = scan_nodes(a, b, grid_step)
    ys = fv(xs)
    cells, nodes = classify_signs(xs, ys[None], a, b)
    atoms: list[tuple[complex, int]] = [(complex(xs[i]), 1) for i in np.flatnonzero(nodes)]
    for i in np.flatnonzero(cells):
        lo_x, hi_x = float(xs[i]), float(xs[i + 1])
        lo_y = float(ys[i])
        while hi_x - lo_x > tol:
            mid = 0.5 * (lo_x + hi_x)
            fm = float(fv(np.array([mid]))[0])
            if fm == 0.0:
                lo_x = hi_x = mid
                break
            if (lo_y < 0) != (fm < 0):
                hi_x = mid
            else:
                lo_x, lo_y = mid, fm
        root = 0.5 * (lo_x + hi_x)
        if a < root < b:
            atoms.append((complex(root), 1))
    return PointMeasure(atoms, Region.interval(a, b))


def count_real_zeros(f, a: float, b: float, grid_step: float | None = None) -> int:
    """Number of zeros :func:`real_zeros` would report on (a, b), without locating them.

    That is the number of grid cells across which f changes sign plus the
    number of interior grid nodes where f is exactly 0, by
    :func:`classify_signs` over f's one row of values at :func:`scan_nodes`.
    Every bisected root lies strictly inside its cell, hence inside (a, b), so
    this equals ``real_zeros(f, a, b, grid_step).total()`` for any ``tol``
    coarser than the float spacing at the window, at the cost of one grid
    evaluation.
    """
    xs = scan_nodes(a, b, grid_step)
    cells, nodes = classify_signs(xs, _vectorized(f)(xs)[None], a, b)
    return int(cells.sum() + nodes.sum())


def disk_image(r: float) -> tuple[float, float]:
    """Center and radius of the half-plane image of the centered disk of radius r.

    The map (1+z)/(1-z) sends {|z| < r} onto the disk centered at
    (1+r^2)/(1-r^2) with radius 2r/(1-r^2).
    """
    if not 0 < r < 1:
        raise ArgumentError(f"r must lie in (0, 1), got {r}")
    return (1 + r * r) / (1 - r * r), 2 * r / (1 - r * r)


def mapped_disk_rectangle(r: float) -> Region:
    """Rectangle covering the image disk of radius r, padded by ``DISK_MARGIN`` times its radius."""
    center, radius = disk_image(r)
    pad = DISK_MARGIN * radius
    lo = complex(center - radius - pad, -radius - pad)
    hi = complex(center + radius + pad, radius + pad)
    if lo.real <= 0:
        raise ArgumentError(f"the padded rectangle of r = {r} leaves the half-plane")
    return Region.rectangle(lo, hi)
