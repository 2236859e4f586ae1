import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dirgaf import series_eval
from dirgaf.coeff_models import CoefficientModel, CoefficientStream, implied_covariance
from dirgaf.errors import ArgumentError, ResourceCapError, UndefinedEstimatorError
from dirgaf.series_eval import (
    DEFAULT_TRUNCATION_CAP,
    ExpSumPath,
    ScaledSeriesSampler,
    SeriesSpec,
    choose_truncation,
    estimate_sigma_c,
    eval_partial,
    eval_shifted_alpha_derivative,
    tail_std_bound,
)
from dirgaf.zero_finder import (
    RETRY_SHIFT,
    Region,
    disk_image,
    evaluation_reach,
    locate_zeros,
    mapped_disk_rectangle,
    real_zeros,
)


def ones(n):
    return [(1.0, 0.0)] * n


class TestSpecs:
    def test_alpha_domain(self):
        with pytest.raises(ArgumentError):
            SeriesSpec(-0.5, 10)
        SeriesSpec(-0.49, 10)

    def test_truncation_domain(self):
        with pytest.raises(ArgumentError):
            SeriesSpec(0.0, 1)


class TestEvalPartial:
    def test_two_unit_terms_at_w_zero(self):
        assert eval_partial(ones(5), SeriesSpec(0.0, 3), 0.0) == pytest.approx(2.0)

    def test_single_term(self):
        coeffs = [(1.0, 0.0)] + [(0.0, 0.0)] * 20
        val = eval_partial(coeffs, SeriesSpec(1.0, 20), 1.0)
        assert val == pytest.approx(math.log(2.0) / 2.0, rel=1e-15)

    def test_insufficient_coefficients(self):
        with pytest.raises(ArgumentError):
            eval_partial(ones(3), SeriesSpec(0.0, 10), 0.5)

    def test_high_precision_oracle_on_fixture(self, rademacher64):
        # 50-digit summation oracle for the shipped 64-pair fixture
        alpha, w = 0.5, 0.6 + 0.8j
        with mpmath.workdps(50):
            exact = mpmath.mpc(0)
            for idx, (eta, theta) in enumerate(rademacher64):
                n = idx + 2
                exact += (
                    mpmath.log(n) ** alpha
                    * mpmath.mpc(eta, theta)
                    * mpmath.e ** (-mpmath.mpc(w.real, w.imag) * mpmath.log(n))
                )
            exact = complex(exact)
        got = eval_partial(rademacher64, SeriesSpec(alpha, 65), w)
        assert abs(got - exact) / abs(exact) < 1e-12

    def test_compensated_matches_plain_on_fixture(self, rademacher64):
        # eval_partial's compensated sum agrees with a plain numpy sum of the same terms
        w = 0.6 + 0.8j
        logs = np.log(np.arange(2, 66))
        terms = logs ** 0.5 * (rademacher64[:, 0] + 1j * rademacher64[:, 1]) * np.exp(-w * logs)
        a = eval_partial(rademacher64, SeriesSpec(0.5, 65), w)
        b = complex(np.sum(terms))
        assert abs(a - b) <= 1e-13 * abs(a)

    def test_linearity(self, rademacher64):
        rng = np.random.default_rng(5)
        other = rng.standard_normal(rademacher64.shape)
        spec = SeriesSpec(0.25, 60)
        w = 0.3 - 1.2j
        combo = 2.5 * rademacher64 + 0.75 * other
        lhs = eval_partial(combo, spec, w)
        rhs = 2.5 * eval_partial(rademacher64, spec, w) + 0.75 * eval_partial(other, spec, w)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)

    def test_conjugation_for_real_coefficients(self, rademacher64):
        spec = SeriesSpec(0.5, 65)
        w = 0.7 + 0.9j
        a = eval_partial(rademacher64, spec, np.conj(w))
        b = np.conj(eval_partial(rademacher64, spec, w))
        assert abs(a - b) <= 1e-14 * abs(a)


class TestScaledEval:
    # the scaled form s^(1/2+alpha) * (partial sum at w = 1/2 + s z)

    def test_unit_scale_is_identity(self, rademacher64):
        spec, z, s = SeriesSpec(0.5, 60), 0.5, 1.0
        val = s ** (0.5 + spec.alpha) * eval_partial(rademacher64, spec, 0.5 + s * z)
        assert val == pytest.approx(eval_partial(rademacher64, spec, 1.0))

    def test_direct_arithmetic_example(self):
        # alpha=0, unit coefficients, N=3, s=0.5, z=1 -> sqrt(0.5) (1/2 + 1/3)
        spec, z, s = SeriesSpec(0.0, 3), 1.0, 0.5
        val = s ** (0.5 + spec.alpha) * eval_partial(ones(5), spec, 0.5 + s * z)
        assert val == pytest.approx(math.sqrt(0.5) * (0.5 + 1.0 / 3.0), rel=1e-14)

    def test_finite_n_covariance_identity(self):
        # empirical plain product moment vs the finite-N formula, 5 SE
        model = CoefficientModel.rademacher()
        n, m_reps = 128, 20_000
        alpha, s = 0.0, 0.05
        z1, z2 = 1.0 + 0.5j, 1.5 - 0.25j
        spec = SeriesSpec(alpha, n)
        vals1 = np.empty(m_reps, dtype=complex)
        vals2 = np.empty(m_reps, dtype=complex)
        for rep in range(m_reps):
            coeffs = CoefficientStream(model, 77, rep).pairs(n - 1)
            vals1[rep] = s ** (0.5 + alpha) * eval_partial(coeffs, spec, 0.5 + s * z1)
            vals2[rep] = s ** (0.5 + alpha) * eval_partial(coeffs, spec, 0.5 + s * z2)
        k = np.arange(2, n + 1)
        target = s ** (1 + 2 * alpha) * np.sum(np.log(k) ** (2 * alpha) * k ** (-1.0 - s * (z1 + z2)))
        prods = vals1 * vals2
        se = max(prods.real.std(), prods.imag.std()) / math.sqrt(m_reps)
        assert abs(prods.mean() - target) < 5 * se


class TestTailBound:
    def test_closed_form_matches_quadrature(self):
        # substituted oracle: t = log x turns the tail into int t^(2a) e^(-ct) dt
        alpha, s, x0, n = 0.0, 1.0, 0.01, 10 ** 6
        bound = tail_std_bound(SeriesSpec(alpha, n), s, x0)
        c = 2 * s * x0
        # second substitution u = c t makes the decay scale unity for quad
        integral = integrate.quad(lambda u: math.exp(-u) / c, c * math.log(n), np.inf)[0]
        assert bound ** 2 == pytest.approx(s * integral, rel=1e-10)
        # and the elementary closed form from the same worked example
        assert bound ** 2 == pytest.approx(s * n ** (-c) / c, rel=1e-12)

    def test_quadrature_oracle_general_alpha(self):
        alpha, s, x0, n = 0.75, 0.02, 1.5, 4096
        bound = tail_std_bound(SeriesSpec(alpha, n), s, x0, second_moment=2.0)
        c = 2 * s * x0
        integral, _ = integrate.quad(lambda t: t ** (2 * alpha) * math.exp(-c * t), math.log(n), np.inf)
        assert bound ** 2 == pytest.approx(2.0 * s ** (1 + 2 * alpha) * integral, rel=1e-9)

    @given(
        alpha=st.floats(-0.45, 2.0),
        s=st.floats(1e-4, 1.0),
        x0=st.floats(0.05, 5.0),
        log2n=st.integers(2, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_doubling_never_increases(self, alpha, s, x0, log2n):
        n = 2 ** log2n
        b1 = tail_std_bound(SeriesSpec(alpha, n), s, x0)
        b2 = tail_std_bound(SeriesSpec(alpha, 2 * n), s, x0)
        assert b2 <= b1 * (1 + 1e-12)


class TestChooseTruncation:
    def test_huge_eps_needs_minimum(self):
        assert choose_truncation(0.0, 1.0, 1.0, eps=1e3) == 2

    def test_pinned_moderate_case(self):
        # bound formula by hand for alpha=0, s=0.05, x0=1: variance
        # 0.05 * N^(-0.1) / 0.1 < eps^2 = 0.09 first when N > (0.5/0.09)^10
        # = 2.86e7, and the first power of two past that is 2**25.
        assert choose_truncation(0.0, 0.05, 1.0, eps=0.3) == 2 ** 25

    def test_resource_error_names_cap(self):
        with pytest.raises(ResourceCapError, match="2\\*\\*27"):
            choose_truncation(0.0, 1e-6, 1.0, eps=1e-9)
        assert DEFAULT_TRUNCATION_CAP == 2 ** 27


class TestShiftedAlphaDerivative:
    def test_single_term(self):
        coeffs = [(1.0, 0.0)] + [(0.0, 0.0)] * 30
        alpha, w = 0.25, 0.3 + 0.1j
        val = eval_shifted_alpha_derivative(coeffs, SeriesSpec(alpha, 30), w)
        expected = math.log(2.0) ** (alpha + 1) * np.exp(-w * math.log(2.0))
        assert val == pytest.approx(expected, rel=1e-14)

    def test_equals_alpha_plus_one_exactly(self, rademacher64):
        spec = SeriesSpec(0.5, 65)
        w = 0.4 - 0.7j
        a = eval_shifted_alpha_derivative(rademacher64, spec, w)
        b = eval_partial(rademacher64, SeriesSpec(1.5, 65), w)
        assert a == b

    def test_matches_central_difference(self, rademacher64):
        spec = SeriesSpec(0.5, 65)
        w, h = 0.6 + 0.2j, 1e-5
        analytic = eval_shifted_alpha_derivative(rademacher64, spec, w)
        numeric = -(eval_partial(rademacher64, spec, w + h) - eval_partial(rademacher64, spec, w - h)) / (2 * h)
        assert abs(analytic - numeric) / abs(analytic) < 1e-6


class TestSigmaC:
    def test_deterministic_drift(self):
        # X_n = 1 for all n: S_n = n - 1, estimate near 1
        n_max = 10_000
        est = estimate_sigma_c(ones(n_max), 0.0, n_max)
        assert 1 - 2 / math.log(n_max) <= est <= 1.0

    def test_rademacher_near_half(self):
        n_max = 10 ** 6
        coeffs = CoefficientStream(CoefficientModel.rademacher(), 20260802, 0).pairs(n_max - 1)
        est = estimate_sigma_c(coeffs, 0.0, n_max)
        assert abs(est - 0.5) < 0.1

    def test_finite_size_effect_documented(self):
        coeffs = CoefficientStream(CoefficientModel.rademacher(), 20260811, 1).pairs(10 ** 6 - 1)
        small = estimate_sigma_c(coeffs[: 10 ** 2], 0.0, 10 ** 2)
        large = estimate_sigma_c(coeffs, 0.0, 10 ** 6)
        # no sharp assertion: both probes stay in a broad sanity band
        assert 0.2 <= small <= 1.0
        assert 0.2 <= large <= 1.0

    def test_all_zero_coefficients(self):
        with pytest.raises(UndefinedEstimatorError):
            estimate_sigma_c([(0.0, 0.0)] * 200, 0.0, 200)

    def test_small_n_max_rejected(self):
        with pytest.raises(ArgumentError):
            estimate_sigma_c(ones(99), 0.0, 50)


class TestTruncationSoundness:
    def test_refinement_spread_within_tail_bound(self):
        # |value at N - value at 4N| has empirical std below 2x the N tail
        # bound, across 100 random configurations at 1000 replicates each
        # (vectorized: the difference is the weighted sum over k in (N, 4N])
        rng = np.random.default_rng(123)
        reps = 1000
        for _ in range(100):
            alpha = float(rng.uniform(-0.2, 1.0))
            s = float(rng.uniform(0.1, 1.0))
            x0 = float(rng.uniform(0.5, 2.0))
            n = int(2 ** rng.integers(5, 9))
            k = np.arange(n + 1, 4 * n + 1)
            w = s ** (0.5 + alpha) * np.log(k) ** alpha * k ** (-0.5 - s * x0)
            eta = rng.standard_normal((reps, len(k)))
            diffs = eta @ w
            bound = tail_std_bound(SeriesSpec(alpha, n), s, x0)
            assert diffs.std() < 2.0 * bound


class TestHybridSampler:
    def test_variance_profile_matches_zeta_oracle(self):
        # representation variance vs partial sum + integral tail of the true series
        for alpha, s in [(0.0, 1e-3), (0.5, 1e-2), (-0.25, 1e-3)]:
            smp = ScaledSeriesSampler(
                CoefficientModel.gauss_real(), alpha, s, head_n=2 ** 12, x_min=1.0, r_max=2.0
            )
            got = smp.total_variance(1.0)
            k = np.arange(2, 10 ** 5 + 1)
            head = np.sum(np.log(k) ** (2 * alpha) * k ** (-1.0 - 2 * s))
            # tail in the t = log x variable, rescaled to unit decay for quad
            c = 2 * s
            tail = integrate.quad(
                lambda u: (u / c) ** (2 * alpha) * math.exp(-u) / c, c * math.log(10 ** 5), np.inf
            )[0]
            assert got == pytest.approx(head + tail, rel=2e-3)

    @pytest.mark.parametrize("s", [1e-300, 1e-310, 5e-324])
    def test_tail_overflow_rejected(self, s):
        # the tail's reach exp(45 / (2 s x_min)) is beyond float64 (its block centroids, or the reach itself)
        smp = ScaledSeriesSampler(CoefficientModel.gauss_complex(), 0.0, s, 256, x_min=0.2, r_max=3.0)
        with pytest.raises(ArgumentError, match="overflow"):
            smp.layout

    def test_real_model_paths_are_real_on_reals(self):
        smp = ScaledSeriesSampler(CoefficientModel.rademacher(), 0.0, 1e-2, 256, x_min=0.5, r_max=3.0)
        path = smp.sample_path(CoefficientStream(CoefficientModel.rademacher(), 8, 0))
        vals = path.eval(np.array([0.7, 1.3, 2.9]))
        assert np.abs(vals.imag).max() < 1e-12 * np.abs(vals).max()
        assert np.isrealobj(path.eval(np.array([0.7, 1.3])))

    def test_taylor_compression_is_exact(self):
        # compressed evaluation vs direct exponential sum
        smp = ScaledSeriesSampler(CoefficientModel.gauss_complex(), 0.25, 1e-3, 2 ** 10, x_min=0.3, r_max=4.0)
        path = smp.sample_path(CoefficientStream(CoefficientModel.gauss_complex(), 5, 0))
        z = np.array([0.4 + 1.0j, 2.0 - 0.5j, 3.5 + 0.2j])
        direct = path.scale * (np.exp(-np.outer(z, path.freqs)) @ path.amps)
        np.testing.assert_allclose(path.eval(z), direct, rtol=1e-11)

    @pytest.mark.parametrize("name", ["gauss-complex", "rademacher"])
    def test_path_weights_reproduce_the_sampled_path(self, name):
        # bulk weights times the stream's own draws give the sampled path's values
        model = CoefficientModel.from_name(name)
        smp = ScaledSeriesSampler(model, 0.5, 1e-3, 2 ** 10, x_min=0.5, r_max=2.5)
        z = np.array([0.5, 1.3 + 0.6j, 2.0 - 0.8j, 2.5])
        head_w, tail_w = smp.path_weights(z)
        assert head_w.shape == (2 ** 10 - 1, 4) and tail_w.shape[0] > 0
        for rep in range(3):
            stream = CoefficientStream(model, 21, rep)
            pairs = stream.pairs(2 ** 10 - 1)
            tail = stream.tail_normals(tail_w.shape[0]) @ smp.layout.tail_mix
            eta_head = pairs[:, 0] + 1j * pairs[:, 1]
            eta_tail = tail[:, 0] + 1j * tail[:, 1]
            path = smp.sample_path(stream)
            got = path.scale * (eta_head @ head_w + eta_tail @ tail_w)
            np.testing.assert_allclose(got, path.eval(z), rtol=1e-12, atol=0)

    def test_exact_moments_match_empirical(self):
        model = CoefficientModel.circle()
        cov = implied_covariance(model)
        smp = ScaledSeriesSampler(model, 0.0, 5e-3, 512, x_min=0.8, r_max=2.0)
        z1, z2 = 1.0 + 0.4j, 1.6 - 0.3j
        reps = 4000
        v1 = np.empty(reps, dtype=complex)
        v2 = np.empty(reps, dtype=complex)
        for rep in range(reps):
            path = smp.sample_path(CoefficientStream(model, 60, rep))
            v1[rep], v2[rep] = path.eval(np.array([z1, z2]))
        herm = v1 * np.conj(v2)
        se = max(herm.real.std(), herm.imag.std()) / math.sqrt(reps)
        assert abs(herm.mean() - smp.exact_hermitian(cov, z1, z2)) < 5 * se
        pseudo = v1 * v2
        se_p = max(pseudo.real.std(), pseudo.imag.std()) / math.sqrt(reps)
        assert abs(pseudo.mean() - smp.exact_pseudo(cov, z1, z2)) < 5 * se_p


class TestRealArithmetic:
    def test_real_path_matches_complex_evaluation(self):
        model = CoefficientModel.rademacher()
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 12, x_min=0.2, r_max=5.0)
        x = np.linspace(0.2, 5.0, 2049)
        for rep in range(4):
            path = smp.sample_path(CoefficientStream(model, 13, rep))
            real = path.eval(x)
            cplx = path.eval(x.astype(complex))
            assert real.dtype == np.float64
            assert path.eval(x).dtype == np.float64
            assert cplx.dtype == np.complex128
            assert np.abs(real - cplx.real).max() <= 1e-12 * np.abs(cplx).max()
            assert np.array_equal(path.eval(x), real)

    @pytest.mark.parametrize(
        "model",
        [CoefficientModel.rademacher(), CoefficientModel.gauss_real(), CoefficientModel.two_point(1.0, 0.2)],
        ids=lambda m: m.kind,
    )
    def test_real_models_sample_real_amplitudes(self, model):
        assert model.is_real
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 10, x_min=0.2, r_max=5.0)
        for rep in range(8):
            path = smp.sample_path(CoefficientStream(model, 14, rep))
            assert path.is_real
            assert np.all(path.amps.imag == 0.0)
            assert path.eval(np.array([0.5, 2.0])).dtype == np.float64

    def test_complex_models_stay_complex_on_reals(self):
        model = CoefficientModel.gauss_complex()
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 10, x_min=0.2, r_max=5.0)
        path = smp.sample_path(CoefficientStream(model, 15, 0))
        assert np.iscomplexobj(path.eval(np.array([0.5, 2.0])))

    def test_real_basis_built_once_per_sampler(self):
        model = CoefficientModel.rademacher()
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 12, x_min=0.2, r_max=5.0)
        fold = smp._fold
        smp.sample_path(CoefficientStream(model, 16, 0)).eval(np.linspace(0.2, 5.0, 2049))
        grid, basis = fold._kept
        for rep in range(1, 24):
            path = smp.sample_path(CoefficientStream(model, 16, rep))
            vals = path.eval(np.linspace(0.2, 5.0, 2049))  # a new array with equal values
            assert fold._kept[1] is basis
            if rep % 8 == 0:
                # the shared basis gives bitwise the values of a path that builds its own
                own = ExpSumPath(path.scale, path.freqs.copy(), path.amps.copy(), path.r_max, path.is_real)
                assert np.array_equal(vals, own.eval(grid))
        # a smaller grid leaves the kept basis alone; another grid as large replaces it
        smp.sample_path(CoefficientStream(model, 16, 0)).eval(np.array([1.0, 2.0]))
        assert fold._kept[1] is basis
        smp.sample_path(CoefficientStream(model, 16, 0)).eval(np.linspace(0.3, 4.0, 2049))
        assert fold._kept[1] is not basis
        assert fold._kept[1].shape == (2049, len(fold.hi_freqs))

    def test_bisection_keeps_the_scan_grid_basis(self):
        # real_zeros bisects with single points; the next path's scan grid still hits the kept basis
        model = CoefficientModel.rademacher()
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 10, x_min=0.2, r_max=5.0)
        fold = smp._fold
        grid = np.linspace(0.2, 5.0, 2049)
        bisected = 0
        for rep in range(4):
            measure = real_zeros(smp.sample_path(CoefficientStream(model, 18, rep)).eval, 0.2, 5.0)
            bisected += measure.total()
            assert np.array_equal(fold._kept[0], grid)
        assert bisected > 0
        basis = fold._kept[1]
        smp.sample_path(CoefficientStream(model, 18, 4)).eval(grid)
        assert fold._kept[1] is basis

    def test_complex_basis_built_once_per_sampler(self):
        # an nr-dist sampler: every path's winding count starts on the same disk grid
        model, r = CoefficientModel.gauss_complex(), 0.5
        rect = mapped_disk_rectangle(r)
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 12, x_min=rect.lo.real, r_max=max(abs(rect.lo), abs(rect.hi)))
        disk = Region.disk(*disk_image(r))
        fold = smp._fold

        def disk_grid():
            return disk.center + disk.radius * np.exp(2j * np.pi * np.arange(256) / 256)

        smp.sample_path(CoefficientStream(model, 3, 0)).eval(disk_grid())
        grid, basis = fold._kept
        assert basis.dtype == np.complex128
        for rep in range(1, 24):
            path = smp.sample_path(CoefficientStream(model, 3, rep))
            vals = path.eval(disk_grid())  # a new array with equal values
            assert fold._kept[1] is basis
            own = ExpSumPath(path.scale, path.freqs.copy(), path.amps.copy(), path.r_max, path.is_real)
            assert np.array_equal(vals, own.eval(grid))
        # a refinement round's fewer points leave the kept basis alone
        smp.sample_path(CoefficientStream(model, 3, 0)).eval(grid[:30] * (1 + 1e-9))
        assert fold._kept[1] is basis

    def test_real_path_stays_real_after_an_equal_complex_grid(self):
        model = CoefficientModel.rademacher()
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 10, x_min=0.2, r_max=5.0)
        x = np.linspace(0.2, 5.0, 513)
        path = smp.sample_path(CoefficientStream(model, 21, 0))
        fresh = ExpSumPath(path.scale, path.freqs.copy(), path.amps.copy(), path.r_max, path.is_real).eval(x)
        cplx = path.eval(x.astype(complex))  # the kept grid has x's values, as complex
        assert np.array_equal(smp._fold._kept[0], x) and smp._fold._kept[0].dtype == np.complex128
        real = path.eval(x)
        assert real.dtype == np.float64
        assert np.array_equal(real, fresh)
        assert np.abs(real - cplx.real).max() <= 1e-12 * np.abs(cplx).max()

    def test_shared_basis_under_concurrent_grids(self):
        _check_shared_basis_under_concurrent_grids(
            CoefficientModel.rademacher(), [np.linspace(0.2, 5.0, 513), np.linspace(0.3, 4.0, 513)]
        )

    def test_shared_complex_basis_under_concurrent_grids(self):
        circle = np.exp(2j * np.pi * np.arange(513) / 513)
        _check_shared_basis_under_concurrent_grids(
            CoefficientModel.gauss_complex(), [1.5 + 1.0 * circle, 2.0 + 0.8 * circle]
        )


def _check_shared_basis_under_concurrent_grids(model, grids):
    # workers alternate between two grids, so the kept (grid, basis) pair is
    # replaced while others read it; a grid paired with the other grid's
    # basis would give wrong values or shapes
    smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 10, x_min=0.2, r_max=5.0)
    paths = [smp.sample_path(CoefficientStream(model, 17, rep)) for rep in range(8)]
    amps = [p.amps.real if model.is_real else p.amps for p in paths]
    expected = [[p.scale * (np.exp(-np.outer(g, p.freqs)) @ a) for g in grids] for p, a in zip(paths, amps)]

    def work(k):
        return all(
            np.allclose(paths[i % 8].eval(grids[(i + k) % 2]), expected[i % 8][(i + k) % 2], rtol=0, atol=1e-10)
            for i in range(40)
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert all(pool.map(work, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)


class TestEvaluationDomain:
    @pytest.mark.parametrize("r", [0.3, 0.5])
    def test_disk_experiment_regions_evaluate(self, r):
        # the padded rectangle's corners and the most-nudged image circle lie within r_max
        model = CoefficientModel.gauss_complex()
        rect = mapped_disk_rectangle(r)
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 256, x_min=rect.lo.real, r_max=max(abs(rect.lo), abs(rect.hi)))
        path = smp.sample_path(CoefficientStream(model, 19, 0))
        corners = np.array([rect.lo, rect.hi, complex(rect.lo.real, rect.hi.imag), complex(rect.hi.real, rect.lo.imag)])
        disk = Region.disk(*disk_image(r))
        assert evaluation_reach(disk) < smp.r_max
        circle = disk.center + (evaluation_reach(disk) - abs(disk.center)) * np.exp(2j * np.pi * np.arange(256) / 256)
        assert np.all(np.isfinite(path.eval(np.concatenate([corners, circle]))))

    def test_located_zeros_region_evaluates(self):
        # sized as zeros-complex sizes it, a path evaluates the worst-shifted retry
        # rectangle's corners and the Newton polish's reach beyond them
        model, tol = CoefficientModel.gauss_complex(), 5e-3
        rect = mapped_disk_rectangle(0.5)
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 256, x_min=rect.lo.real, r_max=evaluation_reach(rect, tol))
        path = smp.sample_path(CoefficientStream(model, 19, 0))
        d = RETRY_SHIFT * rect.diameter
        shifts = np.array([dx + 1j * dy for dx in (-d, d) for dy in (-d, d)])
        corners = np.array([rect.lo, rect.hi, complex(rect.lo.real, rect.hi.imag), complex(rect.hi.real, rect.lo.imag)])
        shifted = (corners[:, None] + shifts[None, :]).ravel()
        worst = shifted[np.argmax(np.abs(shifted))]
        newton = worst / abs(worst) * evaluation_reach(rect, tol)
        assert abs(worst) > max(abs(rect.lo), abs(rect.hi))
        assert np.all(np.isfinite(path.eval(np.concatenate([shifted, [newton]]))))
        assert locate_zeros(path.eval, rect, tol).total() >= 0

    def test_real_window_endpoints_evaluate(self):
        model = CoefficientModel.rademacher()
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 256, x_min=0.2, r_max=5.0)
        path = smp.sample_path(CoefficientStream(model, 19, 0))
        assert np.all(np.isfinite(path.eval(np.array([0.2, 5.0]))))

    @pytest.mark.parametrize("name", ["gauss-complex", "rademacher"])
    def test_point_beyond_r_max_rejected(self, name):
        model = CoefficientModel.from_name(name)
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 256, x_min=0.5, r_max=3.0)
        path = smp.sample_path(CoefficientStream(model, 19, 0))
        path.eval(np.array([1.0, 3.0 * (1.0 + 1e-13)]))  # within the relative slack
        with pytest.raises(ArgumentError, match=r"3\.0000000030000002.*r_max = 3\b"):
            path.eval(np.array([1.0, 3.0 * (1.0 + 1e-9), 2.0j]))
        with pytest.raises(ArgumentError, match="r_max"):
            path.eval(np.array([0.5 + 3.0j]))


class TestEvalRealPaths:
    """The real design matrix of zeros-real times stacked real columns, against the per-path ``ExpSumPath.eval``."""

    @staticmethod
    def sampled(name, s=1e-3, r_max=5.0, reps=20):
        model = CoefficientModel.from_name(name) if name != "two-point" else CoefficientModel.two_point(1.0, 0.3)
        smp = ScaledSeriesSampler(model, 0.0, s, 256 if s < 1e-3 else 2 ** 12, x_min=0.2, r_max=r_max)
        streams = [CoefficientStream(model, 23, rep) for rep in range(reps)]
        return smp, [smp.sample_path(st) for st in streams], [smp.sample_real_columns(st) for st in streams]

    @pytest.mark.parametrize("name", ["rademacher", "gauss-real", "two-point"])
    def test_design_rows_match_path_eval(self, name):
        # (0.2, 1e8) folds no atom; at s = 1e-17 on (0.2, 3e15) atoms are folded and x^20 would exceed 1e308.
        # The two evaluators sum in different orders, so they differ by rounding on the scale of the terms'
        # moduli: where a path's terms cancel, that exceeds 1e-14 of its largest |value| in either of them
        for s, r_max, folded in ((1e-3, 5.0, True), (1e-3, 1e8, False), (1e-17, 3e15, True)):
            smp, paths, columns = self.sampled(name, s, r_max)
            assert bool(smp._fold.low.any()) == folded
            x = np.linspace(0.2, r_max, 2049)
            design = smp.real_design(x)
            assert np.isfinite(design).all()
            assert smp._fold._kept is None  # built directly: no second copy of the basis in the fold's slot
            values = (design @ np.stack(columns, axis=1)).T
            assert values.shape == (len(paths), len(x))
            for path, column, row in zip(paths, columns, values):
                error = np.max(np.abs(row - path.eval(x)))
                assert error <= 1e-15 * np.max(np.abs(design) @ np.abs(column)), (s, r_max)
                if r_max == 5.0:
                    assert error <= 1e-14 * np.max(np.abs(path.eval(x)))

    def test_point_beyond_r_max_rejected(self):
        smp, _, _ = self.sampled("rademacher", reps=2)
        smp.real_design(np.array([0.2, 5.0 * (1.0 + 1e-13)]))  # within the relative slack
        with pytest.raises(ArgumentError, match=r"r_max = 5\b"):
            smp.real_design(np.array([0.2, 5.0 * (1.0 + 1e-9)]))

    def test_complex_model_has_no_real_columns(self):
        model = CoefficientModel.gauss_complex()
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 256, x_min=0.2, r_max=5.0)
        with pytest.raises(ArgumentError, match="real coefficient model"):
            smp.sample_real_columns(CoefficientStream(model, 23, 0))


class TestSharedTaylorFold:
    @pytest.mark.parametrize("name", ["gauss-complex", "rademacher"])
    def test_sampled_path_matches_hand_built_path(self, name):
        # the sampler's shared fold gives bitwise the values of a path that builds its own
        model = CoefficientModel.from_name(name)
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 12, x_min=0.1, r_max=3.2)
        z = np.array([0.2 + 0.1j, 1.7 - 1.2j, 3.0 + 0.5j, 0.9])
        for rep in range(3):
            path = smp.sample_path(CoefficientStream(model, 11, rep))
            own = ExpSumPath(path.scale, path.freqs.copy(), path.amps.copy(), path.r_max, path.is_real)
            assert np.array_equal(path.eval(z), own.eval(z))
            assert np.array_equal(path._poly, own._poly)

    def test_fold_built_once_per_sampler(self, monkeypatch):
        calls = []

        def counting(freqs, r_max):
            calls.append(len(freqs))
            return fold(freqs, r_max)

        fold = series_eval._taylor_fold
        monkeypatch.setattr(series_eval, "_taylor_fold", counting)
        model = CoefficientModel.gauss_complex()
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 1024, x_min=0.3, r_max=3.0)
        paths = [smp.sample_path(CoefficientStream(model, 12, rep)) for rep in range(4)]
        for path in paths:
            path.eval(np.array([1.0 + 0.5j]))
        assert len(calls) == 1
        assert all(path.freqs is paths[0].freqs for path in paths)
        # a path built by hand folds its own frequencies through the same helper
        ExpSumPath(1.0, paths[0].freqs, paths[0].amps, 3.0, False).eval(np.array([1.0]))
        assert len(calls) == 2


class TestRealArithmeticProducts:
    """The fold, the Taylor moments and the complex tail are built in real arithmetic; the complex formulas are the oracle."""

    @staticmethod
    def nr_dist_sampler(model):
        rect = mapped_disk_rectangle(0.5)
        return ScaledSeriesSampler(model, 0.0, 1e-3, 4096, x_min=rect.lo.real, r_max=max(abs(rect.lo), abs(rect.hi)))

    def test_fold_matches_negative_base_powers(self):
        smp = self.nr_dist_sampler(CoefficientModel.gauss_complex())
        fold = series_eval._taylor_fold(smp.layout.freqs, smp.r_max)
        q = np.arange(series_eval.TAYLOR_DEGREE + 1)
        u = smp.layout.freqs[fold.low] * smp.r_max
        ref = (-u[:, None]) ** q / np.array([math.factorial(k) for k in q], dtype=float)
        assert fold.mono.shape == ref.shape and fold.mono.shape[0] > 1000
        assert np.array_equal(np.signbit(fold.mono), np.broadcast_to(q % 2 == 1, ref.shape))
        assert np.all(np.abs(fold.mono - ref) <= 2 * np.spacing(np.abs(ref)))

    @pytest.mark.parametrize("name", ["gauss-complex", "circle", "rademacher"])
    def test_moments_and_tail_match_complex_products(self, name):
        # each sum is within 1e-15 of the sum of its terms' moduli, the scale of its rounding error
        model = CoefficientModel.from_name(name)
        smp = self.nr_dist_sampler(model)
        rect = mapped_disk_rectangle(0.5)
        rng = np.random.default_rng(3)
        for rep in range(4):
            path = smp.sample_path(CoefficientStream(model, 29, rep))
            fold, low_amps = path._fold, path.amps[path._fold.low]
            moments = fold.mono.T.astype(complex) @ low_amps
            assert np.all(np.abs(path._poly - moments) <= 1e-15 * (np.abs(fold.mono).T @ np.abs(low_amps)))
            z = rect.lo + (rect.hi - rect.lo).real * rng.random(64) + 1j * (rect.hi - rect.lo).imag * rng.random(64)
            path.scale, path._poly = 1.0, np.zeros(1)  # eval now returns its tail alone
            tail, basis = path.eval(z), fold.basis(z)
            assert np.all(np.abs(tail - basis @ path._hi_amps) <= 1e-15 * (np.abs(basis) @ np.abs(path._hi_amps)))

    def test_sample_path_makes_no_complex_copy_of_the_fold(self):
        # one path allocates its draws and amplitudes, never a matrix the size of the shared fold
        model = CoefficientModel.gauss_complex()
        smp = self.nr_dist_sampler(model)
        fold_bytes = smp.sample_path(CoefficientStream(model, 7, 0))._fold.mono.nbytes
        tracemalloc.start()
        try:
            smp.sample_path(CoefficientStream(model, 7, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fold_bytes, (peak, fold_bytes)
