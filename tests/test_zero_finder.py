import math

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyval

from dirgaf.errors import (
    ArgumentError,
    BoundaryZeroError,
    UndefinedEstimatorError,
    UnresolvableBoundaryError,
)
from dirgaf.coeff_models import CoefficientModel, CoefficientStream
from dirgaf.limit_gaf import mobius, mobius_inv, sample_power_series_gaf
from dirgaf.series_eval import ScaledSeriesSampler
from dirgaf.zero_finder import (
    DISK_NUDGE,
    RETRY_BUDGET,
    RETRY_SHIFT,
    PointMeasure,
    Region,
    _jitter,
    _newton_polish,
    count_real_zeros,
    disk_image,
    evaluation_reach,
    locate_zeros,
    mapped_disk_rectangle,
    real_zeros,
    winding_count,
    winding_with_retry,
)

SQUARE = Region.rectangle(-1 - 1j, 1 + 1j)


def poly_from_roots(roots):
    coeffs = np.polynomial.polynomial.polyfromroots(roots)
    return lambda z: np.polynomial.polynomial.polyval(z, coeffs)


class TestWinding:
    def test_identity_map(self):
        assert winding_count(lambda z: z, SQUARE) == 1

    def test_double_zero(self):
        assert winding_count(lambda z: z * z, SQUARE) == 2

    def test_one_root_inside_one_out(self):
        f = poly_from_roots([0.3, 5.0])
        assert winding_count(f, SQUARE) == 1

    def test_no_roots(self):
        assert winding_count(lambda z: z - 3.0, SQUARE) == 0

    def test_disk_region(self):
        f = poly_from_roots([0.2 + 0.1j, 0.4 - 0.3j, 2.0])
        assert winding_count(f, Region.disk(0.0, 1.0)) == 2

    def test_disk_counts_zero_between_chord_and_arc(self):
        # a zero just inside the unit circle, midway between two initial
        # samples, lies outside the inscribed polygon; refinement must follow
        # the arc for the disk count to see it
        z0 = (1.0 - 1e-4) * np.exp(1j * np.pi / 64)
        assert winding_count(lambda z: z - z0, Region.disk(0.0, 1.0)) == 1
        assert winding_count(lambda z: z - z0, Region.disk(0.0, 1.0 - 2e-4)) == 0

    def test_boundary_zero_detected(self):
        with pytest.raises(BoundaryZeroError):
            winding_count(lambda z: z - 1.0, SQUARE)

    @pytest.mark.parametrize("region", [SQUARE, Region.disk(0.5, 1.0)], ids=["rectangle", "disk"])
    @pytest.mark.parametrize("f", [
        np.zeros_like,  # an underflowed path: the largest |f| is 0
        lambda z: np.full(z.shape, np.nan + 0j),
        lambda z: np.where(z.imag > 0.9, np.nan, z - 5.0),  # NaN on one edge only
    ], ids=["zeros", "nan", "nan-on-one-edge"])
    def test_vanishing_or_nan_boundary_is_a_boundary_zero(self, f, region):
        with pytest.raises(BoundaryZeroError):
            winding_count(f, region)

    def test_nan_at_a_refined_sample_is_a_boundary_zero(self):
        # the first sampling is clean; every later value is NaN
        calls = []

        def f(z):
            calls.append(z)
            return z - 5.0 if len(calls) == 1 else np.full(z.shape, np.nan + 0j)

        with pytest.raises(BoundaryZeroError, match="refined"):
            winding_count(f, SQUARE)

    @pytest.mark.parametrize("finder", [
        lambda f: winding_count(f, SQUARE),
        lambda f: locate_zeros(f, SQUARE, tol=1e-3),
        lambda f: count_real_zeros(f, -1.0, 1.0),
        lambda f: real_zeros(f, -1.0, 1.0),
    ], ids=["winding_count", "locate_zeros", "count_real_zeros", "real_zeros"])
    def test_one_value_per_batch_rejected(self, finder):
        # z - 1/4 on a single point, but one value for a whole batch: there is no per-point fallback
        with pytest.raises(ArgumentError, match="shape"):
            finder(lambda z: np.sum(z - 0.25))

    def test_additivity_over_partition(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            roots = rng.uniform(-0.9, 0.9, 3) + 1j * rng.uniform(-0.9, 0.9, 3)
            f = poly_from_roots(list(roots))
            total = winding_count(f, SQUARE)
            quads = [
                Region.rectangle(-1 - 1j, 0 + 0j),
                Region.rectangle(0 - 1j, 1 + 0j),
                Region.rectangle(-1 + 0j, 0 + 1j),
                Region.rectangle(0 + 0j, 1 + 1j),
            ]
            try:
                parts = [winding_count(f, q) for q in quads]
            except BoundaryZeroError:
                continue  # root on a cut; re-randomized by the next instance
            assert sum(parts) == total == 3

    def test_refinement_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            degree = int(rng.integers(1, 6))
            roots = rng.uniform(-0.8, 0.8, degree) + 1j * rng.uniform(-0.8, 0.8, degree)
            f = poly_from_roots(list(roots))
            assert winding_count(f, SQUARE, per_edge=16) == winding_count(f, SQUARE, per_edge=32)


class TestWindingWithRetry:
    def test_clean_contour_is_not_moved(self):
        disk = Region.disk(0.0, 1.0)
        assert winding_with_retry(poly_from_roots([0.3, 2.0]), disk) == (1, disk, 0)

    def test_disk_through_a_zero_is_nudged_and_counted(self):
        f = lambda z: z - 1.0  # the zero sits on a boundary sample of the unit circle
        with pytest.raises(BoundaryZeroError):
            winding_count(f, Region.disk(0.0, 1.0))
        count, region, nudges = winding_with_retry(f, Region.disk(0.0, 1.0))
        assert (count, nudges) == (1, 1)
        assert region.center == 0 and region.radius == pytest.approx(1.0 + 1e-9, rel=1e-15)

    def test_rectangle_through_a_zero_is_shifted(self):
        count, region, nudges = winding_with_retry(lambda z: z - 1.0, SQUARE)
        assert nudges == 1 and region != SQUARE
        assert count == int(region.contains(1.0))

    def test_vanishing_path_exhausts_the_budget(self):
        with pytest.raises(UnresolvableBoundaryError):
            winding_with_retry(np.zeros_like, Region.disk(5.0 / 3.0, 4.0 / 3.0))

    def test_vanishing_path_is_not_moved(self):
        # no move of the contour can lift a path that underflows to 0: f is evaluated on one contour only
        contours = []

        def f(z):
            contours.append(z)
            return np.zeros_like(z)

        with pytest.raises(UnresolvableBoundaryError, match="underflows"):
            winding_with_retry(f, Region.disk(5.0 / 3.0, 4.0 / 3.0))
        assert len(contours) == 1

    def test_budget_exhausted(self):
        # a double zero on the circle stays below the detection threshold at every nudge
        with pytest.raises(UnresolvableBoundaryError):
            winding_with_retry(lambda z: (z - 1.0) ** 2, Region.disk(0.0, 1.0))


class TestLocateZeros:
    def test_z_squared_minus_one(self):
        measure = locate_zeros(lambda z: z * z - 1.0, Region.rectangle(-2 - 2j, 2 + 2j), tol=1e-9)
        locs = [a for a, _ in measure.atoms]
        assert measure.total() == 2
        assert abs(locs[0] - (-1.0)) < 1e-8
        assert abs(locs[1] - 1.0) < 1e-8

    def test_double_and_simple_root(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            a = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            b = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if abs(a - b) < 1e-4:
                continue
            f = lambda z: (z - a) ** 2 * (z - b)
            measure = locate_zeros(f, SQUARE, tol=1e-6)
            mults = {}
            for loc, m in measure.atoms:
                key = min((a, b), key=lambda r: abs(r - loc))
                mults[key] = mults.get(key, 0) + m
            assert mults[a] == 2 and mults[b] == 1

    def test_random_polynomial_corpus(self):
        # full 100-instance corpus runs in the acceptance suite
        rng = np.random.default_rng(2026)
        for _ in range(25):
            degree = int(rng.integers(1, 6))
            while True:
                roots = rng.uniform(-0.85, 0.85, degree) + 1j * rng.uniform(-0.85, 0.85, degree)
                if degree == 1 or np.min(
                    np.abs(roots[:, None] - roots[None, :])[~np.eye(degree, dtype=bool)]
                ) > 1e-5:
                    break
            f = poly_from_roots(list(roots))
            measure = locate_zeros(f, SQUARE, tol=1e-9)
            assert measure.total() == degree
            found = np.array([loc for loc, _ in measure.atoms])
            for r in roots:
                assert np.min(np.abs(found - r)) < 1e-8

    def test_newton_polish_accuracy(self):
        roots = [0.312345678 + 0.5j, -0.6 - 0.25j]
        f = poly_from_roots(roots)
        measure = locate_zeros(f, SQUARE, tol=1e-9)
        for loc, _ in measure.atoms:
            assert abs(f(np.array([loc]))[0]) < 1e-8

    def test_total_multiplicity_is_winding_count(self):
        f = poly_from_roots([0.1, 0.1, -0.5 + 0.2j])
        measure = locate_zeros(f, SQUARE, tol=1e-5)
        assert measure.total() == winding_count(f, SQUARE)

    def test_zero_near_initial_cut_is_resolved(self):
        # a root almost exactly on the first midline forces jittered re-splits
        f = poly_from_roots([1e-12 + 1e-12j, 0.5])
        measure = locate_zeros(f, SQUARE, tol=1e-6)
        assert measure.total() == 2

    def test_non_rectangle_rejected(self):
        with pytest.raises(ArgumentError):
            locate_zeros(lambda z: z, Region.disk(0, 1.0), tol=1e-6)


class TestEvaluationReach:
    def recording(self, f):
        seen = []

        def call(z):
            z = np.asarray(z)
            seen.append(np.abs(z).max())
            return f(z)

        return call, seen

    def test_every_retry_contour_lies_within_reach(self):
        # the worst jitter of every attempt moves no corner beyond the rectangle's reach
        rect = Region.rectangle(0.2 - 1.5j, 3.1 + 1.5j)
        reach = evaluation_reach(rect)
        worst = 0.0
        for attempt in range(RETRY_BUDGET):
            step = RETRY_SHIFT * rect.diameter * _jitter(rect, attempt)
            lo, hi = rect.lo + complex(*step), rect.hi + complex(*step)
            worst = max(worst, abs(hi), abs(complex(hi.real, lo.imag)))
        assert max(abs(rect.lo), abs(rect.hi)) < worst <= reach
        corner = complex(rect.hi.real + RETRY_SHIFT * rect.diameter, rect.hi.imag + RETRY_SHIFT * rect.diameter)
        assert reach == pytest.approx(abs(corner), rel=1e-15)
        disk = Region.disk(2.0, 1.0)
        assert evaluation_reach(disk) == pytest.approx(3.0 + RETRY_BUDGET * DISK_NUDGE, rel=1e-15)

    def test_located_zeros_on_a_shifted_contour_stay_within_reach(self):
        # a zero on the edge forces a shifted contour; nothing evaluated lies beyond the reach
        rect = Region.rectangle(0.2 - 1.5j, 3.1 + 1.5j)
        f, seen = self.recording(poly_from_roots([3.1 + 0.4j, 1.0 - 0.3j, 2.5 + 1.4j]))
        assert winding_with_retry(f, rect)[2] >= 1
        measure = locate_zeros(f, rect, tol=5e-3)
        assert measure.region != rect and measure.total() == winding_with_retry(f, rect)[0]
        assert max(abs(rect.lo), abs(rect.hi)) < max(seen) <= evaluation_reach(rect, 5e-3)

    def test_diverging_newton_iterate_is_not_evaluated(self):
        # f' nearly vanishes at the center, so the first step leaves the cell's neighbourhood
        f, seen = self.recording(lambda z: z * z + 1.0)
        center, tol = 1e-4 + 0j, 5e-3
        assert _newton_polish(f, center, tol, tol) == center
        assert max(seen) <= abs(center) + 2.0 * tol + tol / 20.0

    def test_interval_has_no_reach(self):
        with pytest.raises(ArgumentError):
            evaluation_reach(Region.interval(0.0, 1.0))


class TestRealZeros:
    def test_linear(self):
        measure = real_zeros(lambda x: x - 1.0, 0.0, 2.0)
        assert measure.total() == 1
        assert abs(measure.atoms[0][0].real - 1.0) < 1e-9

    def test_sine_window(self):
        measure = real_zeros(np.sin, 0.5, 7.0)
        locs = [a.real for a, _ in measure.atoms]
        assert len(locs) == 2
        assert abs(locs[0] - math.pi) < 1e-9
        assert abs(locs[1] - 2 * math.pi) < 1e-9

    def test_exact_grid_node_zero(self):
        # node lands exactly on the zero: reported directly
        measure = real_zeros(lambda x: x - 1.5, 1.0, 2.0, grid_step=0.25)
        assert any(a.real == 1.5 for a, _ in measure.atoms)

    def test_even_multiplicity_not_detected(self):
        # documented limitation: tangential zeros produce no sign change
        # (window chosen so no grid node lands exactly on the zero)
        measure = real_zeros(lambda x: (x - 1.0) ** 2, 0.45, 1.53)
        assert measure.total() == 0

    def test_sign_flip_invariance(self):
        f = lambda x: np.sin(3.0 * x) - 0.2
        a = real_zeros(f, 0.1, 4.0)
        b = real_zeros(lambda x: -f(x), 0.1, 4.0)
        assert [(loc, m) for loc, m in a.atoms] == [(loc, m) for loc, m in b.atoms]

    def test_cross_method_agreement_with_winding(self):
        # sampled real power-series paths: sign-scan count equals the count
        # of the same function on a thin complex rectangle
        rng = np.random.default_rng(40)
        agree = 0
        for rep in range(50):
            coeffs = sample_power_series_gaf(0.0, False, rng, 200)
            f_real = lambda x: polyval(x, coeffs).real
            n_scan = real_zeros(f_real, -0.9, 0.9, tol=1e-10).total()
            f_cplx = lambda z: polyval(z, coeffs)
            rect = Region.rectangle(complex(-0.9, -1e-3), complex(0.9, 1e-3))
            n_wind = locate_zeros(f_cplx, rect, tol=1e-5).total()
            agree += int(n_scan == n_wind)
        assert agree == 50


class TestCountRealZeros:
    def test_matches_located_count_on_sampled_paths(self):
        # the zeros-real series side: rademacher paths on the window (0.2, 5)
        model = CoefficientModel.rademacher()
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 12, x_min=0.2, r_max=5.0)
        counts = []
        for rep in range(64):
            path = smp.sample_path(CoefficientStream(model, 41, rep))
            counts.append(count_real_zeros(path.eval_real, 0.2, 5.0))
            assert counts[-1] == real_zeros(path.eval_real, 0.2, 5.0).total()
        assert sum(counts) > 0

    def test_matches_located_count_on_power_series(self):
        # the zeros-real power-series side: degree-199 real GAF polynomials
        rng = np.random.default_rng(42)
        da, db = mobius_inv(0.2).real, mobius_inv(5.0).real
        counts = []
        for _ in range(64):
            coeffs = sample_power_series_gaf(0.0, False, rng, 200)
            f = lambda x: polyval(x, coeffs)
            counts.append(count_real_zeros(f, da, db))
            assert counts[-1] == real_zeros(f, da, db).total()
        assert sum(counts) > 0

    @pytest.mark.parametrize(
        "f, a, b, step, expected",
        [
            (lambda x: x - 1.5, 1.0, 2.0, 0.25, 1),  # zero exactly on an interior grid node
            (lambda x: (x - 1.0) ** 2, 0.45, 1.53, None, 0),  # tangential: no sign change
            (lambda x: x - 1.0, 1.0, 2.0, None, 0),  # zero at the left end point
            (lambda x: x - 2.0, 1.0, 2.0, None, 0),  # zero at the right end point
            (lambda x: (x - 0.3) * (x - 1.3), 0.0, 2.0, None, 2),
        ],
    )
    def test_edge_cases_match_located_count(self, f, a, b, step, expected):
        assert count_real_zeros(f, a, b, grid_step=step) == expected
        assert real_zeros(f, a, b, grid_step=step).total() == expected

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ArgumentError):
            count_real_zeros(lambda x: x, 1.0, 1.0)

    @pytest.mark.parametrize("finder", [count_real_zeros, real_zeros])
    def test_underflow_is_not_a_zero(self, finder):
        # exp(-x) underflows to exactly 0 beyond x ~ 745: those grid nodes are not some 1300 zeros
        with pytest.raises(UndefinedEstimatorError, match=r"of \(0\.2, 2000\)") as info:
            finder(lambda x: np.exp(-x), 0.2, 2000.0)
        assert not isinstance(info.value, ArgumentError)


class TestPointMeasureSerialization:
    def test_atoms_sorted_with_region_metadata(self):
        measure = PointMeasure(
            [(1.0 + 2.0j, 1), (0.5 - 0.25j, 2)], Region.rectangle(0 - 1j, 2 + 3j)
        )
        assert measure.region.metadata() == {"kind": "rectangle", "lo": [0.0, -1.0], "hi": [2.0, 3.0]}
        assert measure.atoms == [(0.5 - 0.25j, 2), (1.0 + 2.0j, 1)]  # sorted by location
        assert measure.total() == 3

    def test_multiplicity_validation(self):
        with pytest.raises(ArgumentError):
            PointMeasure([(0j, 0)], Region.interval(-1.0, 1.0))


class TestDiskImage:
    def test_half(self):
        center, radius = disk_image(0.5)
        assert center == pytest.approx(5.0 / 3.0)
        assert radius == pytest.approx(4.0 / 3.0)

    def test_small_r_limit(self):
        center, radius = disk_image(1e-9)
        assert center == pytest.approx(1.0)
        assert radius == pytest.approx(2e-9, rel=1e-6)

    def test_nesting(self):
        c1, r1 = disk_image(0.3)
        c2, r2 = disk_image(0.6)
        assert abs(c1 - c2) + r1 < r2  # strict containment

    def test_domain(self):
        with pytest.raises(ArgumentError):
            disk_image(1.0)


class TestMappedDiskRectangle:
    def test_covers_the_image_disk_with_margin(self):
        center, radius = disk_image(0.5)
        rect = mapped_disk_rectangle(0.5)
        assert rect.lo == pytest.approx(complex(center - 1.1 * radius, -1.1 * radius))
        assert rect.hi == pytest.approx(complex(center + 1.1 * radius, 1.1 * radius))
        assert all(rect.contains(center + radius * u) for u in (1, 1j, -1, -1j))  # coverage holds

    def test_rejects_leaving_the_half_plane(self):
        with pytest.raises(ArgumentError):
            mapped_disk_rectangle(0.9)


class TestCountInMappedDisk:
    def test_pushforward_consistency(self):
        # disk zeros of a truncated complex power series, pushed through the
        # conformal map, land in the image disk exactly when the originals
        # lie in the r-disk
        rng = np.random.default_rng(50)
        r = 0.55
        center, radius = disk_image(r)
        for rep in range(10):
            coeffs = sample_power_series_gaf(0.0, True, rng, 150)
            f = lambda z: polyval(z, coeffs)
            inner = locate_zeros(
                f, Region.rectangle(complex(-0.8, -0.8), complex(0.8, 0.8)), tol=1e-7
            )
            direct = sum(m for loc, m in inner.atoms if abs(loc) < r)
            pushed = sum(m for loc, m in inner.atoms if abs(mobius(loc) - center) < radius)
            assert pushed == direct
