import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval
from scipy import integrate
from scipy.special import gamma

import dirgaf
from dirgaf.coeff_models import CovarianceSpec, covariance_sqrt
from dirgaf.errors import ArgumentError, DegenerateGridError, DiscretizationError, KernelInconsistencyError, PoleError
from dirgaf.limit_gaf import (
    MIN_REACH,
    KernelParams,
    _draw_re_im,
    brownian_cells,
    coeff_sq_vector,
    integral_covariance,
    joint_real_covariance,
    kernel_hermitian,
    kernel_moments,
    kernel_pseudo,
    mobius,
    mobius_inv,
    pivoted_cholesky,
    sample_gaf_cholesky,
    sample_gaf_integral,
    sample_power_series_gaf,
)
from dirgaf.series_eval import cell_integrals

ISO_HALF = CovarianceSpec(0.5, 0.5, 0.0)
REAL_UNIT = CovarianceSpec(1.0, 0.0, 0.0)

in_domain = st.builds(
    complex,
    st.floats(0.05, 5.0),
    st.floats(-5.0, 5.0),
)


class TestKernels:
    def test_pseudo_vanishes_for_isotropic(self):
        params = KernelParams(0.0, CovarianceSpec(1.0, 1.0, 0.0))
        assert kernel_pseudo(params, 1.0 + 1.0j, 2.0 - 0.5j) == 0

    def test_pseudo_real_case_at_one(self):
        assert kernel_pseudo(KernelParams(0.0, REAL_UNIT), 1.0, 1.0) == pytest.approx(0.5)

    def test_pseudo_quarter(self):
        val = kernel_pseudo(KernelParams(0.5, REAL_UNIT), 1 + 1j, 1 - 1j)
        assert val == pytest.approx(gamma(2.0) / 2 ** 2)

    def test_hermitian_unit_at_one(self):
        assert kernel_hermitian(KernelParams(0.0, ISO_HALF), 1.0, 1.0) == pytest.approx(0.5)

    def test_variance_on_real_axis(self):
        # Var at a real point s: Gamma(1+2a) sigma1^2 / (2s)^(1+2a)
        for alpha in (-0.25, 0.0, 1.0):
            for s_pt in (0.3, 1.0, 2.5):
                params = KernelParams(alpha, REAL_UNIT)
                want = gamma(1 + 2 * alpha) / (2 * s_pt) ** (1 + 2 * alpha)
                assert kernel_hermitian(params, s_pt, s_pt) == pytest.approx(want, rel=1e-14)
                assert kernel_pseudo(params, s_pt, s_pt) == pytest.approx(want, rel=1e-14)

    def test_hermitian_complex_power(self):
        val = kernel_hermitian(KernelParams(1.0, ISO_HALF), 2 + 1j, 2 - 1j)
        assert val == pytest.approx(gamma(3.0) / (4 + 2j) ** 3, rel=1e-14)

    def test_domain_violation(self):
        with pytest.raises(ArgumentError):
            kernel_hermitian(KernelParams(0.0, ISO_HALF), -1.0, 1.0)

    @given(z1=in_domain, z2=in_domain)
    @settings(max_examples=60, deadline=None)
    def test_symmetries(self, z1, z2):
        params = KernelParams(0.25, CovarianceSpec(0.8, 0.3, 0.2))
        assert kernel_pseudo(params, z1, z2) == kernel_pseudo(params, z2, z1)
        assert kernel_hermitian(params, z1, z2) == pytest.approx(
            np.conj(kernel_hermitian(params, z2, z1)), rel=1e-15
        )

    def test_high_precision_oracle(self):
        # principal-branch powers recomputed at 40 digits
        rng = np.random.default_rng(12)
        with mpmath.workdps(40):
            for _ in range(50):
                alpha = float(rng.uniform(-0.4, 1.5))
                s1, s2 = rng.uniform(0.1, 2.0, 2)
                rho = float(rng.uniform(-1, 1) * math.sqrt(s1 * s2))
                z1 = complex(rng.uniform(0.1, 3.0), rng.uniform(-3, 3))
                z2 = complex(rng.uniform(0.1, 3.0), rng.uniform(-3, 3))
                params = KernelParams(alpha, CovarianceSpec(s1, s2, rho))
                base = mpmath.mpc(z1 + z2)
                want = mpmath.gamma(1 + 2 * alpha) * mpmath.mpc(s1 - s2, 2 * rho) / base ** (1 + 2 * alpha)
                got = kernel_pseudo(params, z1, z2)
                assert abs(got - complex(want)) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 0.7, 2.5])
    def test_kernel_moments_are_the_scalar_kernels(self, alpha):
        rng = np.random.default_rng(14)
        z = rng.uniform(0.05, 5.0, 12) + 1j * rng.uniform(-5.0, 5.0, 12)
        params = KernelParams(alpha, CovarianceSpec(0.8, 0.3, 0.2))
        h, p = kernel_moments(params, z)
        for i, zi in enumerate(z):
            for j, zj in enumerate(z):
                assert h[i, j] == kernel_hermitian(params, zi, zj) and p[i, j] == kernel_pseudo(params, zi, zj)
        assert np.array_equal(h, h.conj().T) and np.array_equal(p, p.T)


class TestJointRealCovariance:
    def test_real_model_single_point(self):
        cov = joint_real_covariance(KernelParams(0.0, REAL_UNIT), [1.0])
        np.testing.assert_allclose(cov, [[0.5, 0.0], [0.0, 0.0]], atol=1e-15)

    def test_isotropic_single_point(self):
        cov = joint_real_covariance(KernelParams(0.0, ISO_HALF), [1.0])
        np.testing.assert_allclose(cov, np.diag([0.25, 0.25]), atol=1e-15)

    def test_exact_transpose_symmetry(self):
        rng = np.random.default_rng(3)
        grid = rng.uniform(0.2, 2.0, 5) + 1j * rng.uniform(-2, 2, 5)
        cov = joint_real_covariance(KernelParams(0.3, CovarianceSpec(1.0, 0.4, -0.3)), grid)
        assert np.array_equal(cov, cov.T)

    def test_psd_on_random_grids(self):
        rng = np.random.default_rng(44)
        for _ in range(50):
            m = int(rng.integers(1, 13))
            grid = rng.uniform(0.1, 3.0, m) + 1j * rng.uniform(-3, 3, m)
            grid = np.unique(grid)
            params = KernelParams(float(rng.uniform(-0.4, 1.0)), CovarianceSpec(1.0, 0.5, 0.1))
            cov = joint_real_covariance(params, grid)
            assert np.linalg.eigvalsh(cov).min() >= -1e-10 * np.trace(cov)


class TestCholeskySampler:
    def test_covariance_recovered_at_three_points(self):
        grid = np.array([0.8, 1.2 + 0.9j, 1.7 - 0.6j])
        params = KernelParams(0.0, CovarianceSpec(1.0, 0.25, 0.3))
        rng = np.random.default_rng(101)
        draws = sample_gaf_cholesky(params, grid, rng, n_draws=10_000)
        for i in range(3):
            for j in range(3):
                prods_h = draws[:, i] * np.conj(draws[:, j])
                se = max(prods_h.real.std(), prods_h.imag.std()) / 100.0
                assert abs(prods_h.mean() - kernel_hermitian(params, grid[i], grid[j])) < 5 * se
                prods_p = draws[:, i] * draws[:, j]
                se_p = max(prods_p.real.std(), prods_p.imag.std()) / 100.0
                assert abs(prods_p.mean() - kernel_pseudo(params, grid[i], grid[j])) < 5 * se_p

    def test_real_model_draws_are_real_at_real_point(self):
        sample = sample_gaf_cholesky(KernelParams(0.5, REAL_UNIT), [2.0], np.random.default_rng(1))
        assert sample.shape == (1, 1)
        assert sample[0, 0].imag == 0 and sample[0, 0].real != 0

    def test_isotropic_draws_are_circularly_symmetric(self):
        # pseudo second moment of the point value vanishes within 4 SE
        params = KernelParams(0.3, ISO_HALF)
        draws = sample_gaf_cholesky(params, [1.0 + 0.5j], np.random.default_rng(6), n_draws=10_000)
        prods = draws[:, 0] ** 2
        se = max(prods.real.std(), prods.imag.std()) / 100.0
        assert abs(prods.mean()) < 4 * se

    def test_duplicate_point_rejected(self):
        with pytest.raises(DegenerateGridError):
            sample_gaf_cholesky(KernelParams(0.0, ISO_HALF), [1.0, 1.0], np.random.default_rng(0))


class TestFactor:
    @pytest.mark.parametrize("sampler", [sample_gaf_cholesky, sample_gaf_integral])
    def test_real_model_draws_exact_zeros_at_real_points(self, sampler):
        # Im X has variance exactly 0 there: it is left out of the factor, and no jitter perturbs the draws
        draws = sampler(KernelParams(0.0, REAL_UNIT), [1.0, 2.0], np.random.default_rng(5), n_draws=1000)
        assert np.all(draws.imag == 0)
        assert np.all(draws.real != 0)

    @pytest.mark.parametrize("sampler", [sample_gaf_cholesky, sample_gaf_integral])
    def test_singular_complex_grid_refused(self, sampler):
        with pytest.raises(DegenerateGridError, match="duplicated grid point"):
            sampler(KernelParams(0.0, CovarianceSpec(1.0, 0.25, 0.3)), [1.1 + 0.8j, 0.7, 1.1 + 0.8j],
                    np.random.default_rng(0))

    @pytest.mark.parametrize("sampler", [sample_gaf_cholesky, sample_gaf_integral])
    def test_real_law_draws_are_conjugate_symmetric(self, sampler):
        # under a real law X(conj z) = conj X(z) exactly, so the [Re | Im] covariance of a conjugate pair is singular
        draws = sampler(KernelParams(0.0, REAL_UNIT), [1 + 1j, 1 - 1j, 2 + 0.5j], np.random.default_rng(8),
                        n_draws=2000)
        assert np.abs(draws[:, 1] - np.conj(draws[:, 0])).max() <= 1e-14 * np.abs(draws).max()

    @pytest.mark.parametrize("covariance", [joint_real_covariance, integral_covariance])
    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    @pytest.mark.parametrize("grid, real_points, pairs", [
        ([1 + 1j, 1 - 1j, 2 + 0.5j], 0, 1),
        ([1.0, 2.0], 2, 0),
        ([1.0, 1.5 + 0.5j, 2.0 - 0.5j, 2.5 + 1.0j], 1, 0),
        ([0.7, 1.5 + 0.3j, 1.5 - 0.3j, 2.0, 2.5 + 1j, 2.5 - 1j, 1.2 + 2j], 2, 2),
    ], ids=["pair", "two-real", "gaf-sample-default", "mixed"])
    def test_real_law_rank(self, covariance, alpha, grid, real_points, pairs):
        # Im X vanishes at a real point, and X at the second point of a conjugate pair is fixed by the first
        factor = pivoted_cholesky(covariance(KernelParams(alpha, REAL_UNIT), grid))
        assert factor.shape == (2 * len(grid), 2 * len(grid) - real_points - 2 * pairs)

    @pytest.mark.parametrize("covariance", [joint_real_covariance, integral_covariance])
    def test_full_rank_factor_on_the_acceptance_grid(self, covariance):
        cov = covariance(KernelParams(0.0, CovarianceSpec(1.0, 0.25, 0.3)), [0.7, 1.1 + 0.8j, 1.6 - 0.5j, 2.2 + 1.4j])
        factor = pivoted_cholesky(cov)
        assert factor.shape == (8, 8)
        assert np.abs(factor @ factor.T - cov).max() <= len(cov) * np.finfo(float).eps * np.abs(cov).max()

    @pytest.mark.parametrize("cov", [[[1.0, 2.0], [2.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
                             ids=["negative-pivot", "off-diagonal-remainder"])
    def test_not_psd_raises(self, cov):
        with pytest.raises(KernelInconsistencyError, match="covariance not PSD"):
            pivoted_cholesky(np.array(cov))


def complex_oracle_covariance(params, grid, cells):
    """Oracle: the [Re | Im] covariance implied by the integral sum in complex arithmetic.

    Per coordinate j of the coefficients, the weights c_j w(z) sqrt(dt) of unit normals, with c_j the
    j-th column of the covariance square root read as a complex number; the covariance is the sum over
    both coordinates of the Gram matrices of their real weights [Re | Im].
    """
    z = np.asarray(grid, dtype=complex)
    edges = brownian_cells(float(z.real.min()), 30.0 / float(z.real.min()), cells)
    dt = np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    w = np.array([
        np.sqrt(cell_integrals(params.alpha, 2 * zi.real, edges) / dt) * np.exp(-1j * zi.imag * mid) for zi in z
    ]).T * np.sqrt(dt)[:, None]
    m_half = covariance_sqrt(params.cov)
    re_im = [np.hstack([cw.real, cw.imag]) for cw in ((m_half[0, j] + 1j * m_half[1, j]) * w for j in (0, 1))]
    return sum(r.T @ r for r in re_im)


class TestIntegralSampler:
    @pytest.mark.parametrize("n_draws", [1, 16, 257, 600])
    @pytest.mark.parametrize("cells", [1000, 3000, 2 ** 12])
    @pytest.mark.parametrize(
        "alpha, cov", [(0.0, CovarianceSpec(1.0, 0.25, 0.3)), (-0.25, ISO_HALF)], ids=["aniso", "iso-neg-alpha"]
    )
    def test_draws_are_the_cholesky_draw_of_the_quadrature_covariance(self, alpha, cov, cells, n_draws):
        # the cell sum is a linear map of Gaussian increments, so its law on the grid is that of its
        # covariance, and the sampler draws it with 2m normals per draw
        params = KernelParams(alpha, cov)
        grid = [0.7, 1.1 + 0.8j, 1.6 - 0.5j]
        got_cov = integral_covariance(params, grid, cells=cells)
        want_cov = complex_oracle_covariance(params, grid, cells)
        assert np.abs(got_cov - want_cov).max() <= 1e-13 * np.abs(want_cov).max()
        rng, rng_helper, rng_normals = (np.random.default_rng(31) for _ in range(3))
        got = sample_gaf_integral(params, grid, rng, cells=cells, n_draws=n_draws)
        assert got.shape == (n_draws, 3)
        assert np.array_equal(got, _draw_re_im(got_cov, rng_helper, n_draws))
        rng_normals.standard_normal(n_draws * 2 * len(grid))
        assert rng.bit_generator.state == rng_normals.bit_generator.state

    def test_peak_memory_is_the_weights_and_the_draws(self):
        # a 512-draw call holds the complex weights, the cell grid, one point's weight column in the
        # making (its variances, its phase and their product), and the normals, [Re | Im] and complex
        # result of the draws: no block of normals per cell
        params = KernelParams(0.0, CovarianceSpec(1.0, 0.25, 0.3))
        grid = [0.7, 1.1 + 0.8j, 1.6 - 0.5j, 2.2 + 1.4j]
        cells, m, n_draws = 2 ** 14, len(grid), 512
        weights = cells * m * 16
        cell_grid = 2 * cells * 8
        column = 48 * cells
        draws = 4 * n_draws * 2 * m * 8
        tracemalloc.start()
        try:
            sample_gaf_integral(params, grid, np.random.default_rng(3), n_draws=n_draws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= weights + cell_grid + column + draws + 2 ** 16

    def test_draws_at_three_shapes_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS reads its thread count once, when numpy loads, so each count needs its own interpreter;
        # whole-batch products moved with the thread count at 3000 cells x 300 draws and 1000 x 517 x 8 points
        src = str(Path(dirgaf.__file__).resolve().parents[1])
        script = (
            "import sys, numpy as np\n"
            "from dirgaf.coeff_models import CovarianceSpec\n"
            "from dirgaf.limit_gaf import KernelParams, sample_gaf_integral\n"
            "params = KernelParams(0.0, CovarianceSpec(1.0, 0.25, 0.3))\n"
            "grid = [0.7, 1.1 + 0.8j, 1.6 - 0.5j, 2.2 + 1.4j, 0.9, 1.3 + 0.2j, 3.0, 2.0 - 1.0j]\n"
            "for cells, n_draws, m, seed in ((2 ** 12, 600, 3, 31), (3000, 300, 4, 5), (1000, 517, 8, 3)):\n"
            "    draws = sample_gaf_integral(params, grid[:m], np.random.default_rng(seed), cells=cells,\n"
            "                                n_draws=n_draws)\n"
            "    sys.stdout.buffer.write(draws.tobytes())\n"
        )
        written = {}
        for blas_threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas_threads}
            done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, timeout=300)
            assert done.returncode == 0, done.stderr.decode()
            written[blas_threads] = done.stdout
        assert len(written["1"]) == (600 * 3 + 300 * 4 + 517 * 8) * 16
        assert written["1"] == written["2"]

    def test_duplicate_point_rejected(self):
        # the quadrature covariance of a duplicated point is singular; it is refused, not rescued by jitter
        with pytest.raises(DegenerateGridError):
            sample_gaf_integral(KernelParams(0.0, ISO_HALF), [1.0, 1.0], np.random.default_rng(0))

    @pytest.mark.parametrize("sampler", [sample_gaf_integral, sample_gaf_cholesky])
    def test_negative_draw_count_rejected(self, sampler):
        with pytest.raises(ArgumentError, match="n_draws must be >= 0, got -1"):
            sampler(KernelParams(0.0, ISO_HALF), [1.0], np.random.default_rng(0), n_draws=-1)

    @pytest.mark.parametrize("sampler", [sample_gaf_integral, sample_gaf_cholesky])
    def test_zero_draws_is_an_empty_sample(self, sampler):
        assert sampler(KernelParams(0.0, ISO_HALF), [1.0, 2.0], np.random.default_rng(0), n_draws=0).shape == (0, 2)

    def test_total_discrete_variance_matches_quadrature(self):
        alpha, x = 0.25, 1.3
        edges = brownian_cells(x, 30.0 / x, 10_000)
        v = cell_integrals(alpha, 2 * x, edges)
        target = integrate.quad(lambda y: y ** (2 * alpha) * math.exp(-2 * x * y), 0, 30.0 / x)[0]
        assert v.sum() == pytest.approx(target, rel=1e-3)

    @pytest.mark.parametrize("alpha", [-0.45, -0.25, 0.0, 1.0])
    @pytest.mark.parametrize("xs", [(0.7, 2.2), (1e-3, 1e3), (0.01, 50.0)], ids=["0.7;2.2", "1e-3;1e3", "0.01;50"])
    def test_cell_variances_sum_to_the_point_variance(self, alpha, xs):
        # every cell is the exact integral, the first included, so the cells of the sampler's
        # default reach sum to Gamma(a) / (2x)^a at each point, however far x is from min(xs)
        a = 1 + 2 * alpha
        edges = brownian_cells(min(xs), MIN_REACH / min(xs), 2 ** 14)
        for x in xs:
            total = math.fsum(cell_integrals(alpha, 2 * x, edges))
            assert total == pytest.approx(math.gamma(a) / (2 * x) ** a, rel=1e-14, abs=0)

    def test_negative_alpha_origin_cell(self):
        # the first cell absorbs the y^(2 alpha) singularity exactly
        alpha, x = -0.3, 1.0
        edges = brownian_cells(x, 30.0, 2000)
        v = cell_integrals(alpha, 2 * x, edges)
        assert v[0] == pytest.approx(edges[1] ** (1 + 2 * alpha) / (1 + 2 * alpha))
        # far cells may underflow to zero variance; none may go negative
        assert np.all(v >= 0)
        assert np.all(v[: len(v) // 2] > 0)

    def test_variance_at_unit_point(self):
        params = KernelParams(0.0, REAL_UNIT)
        draws = sample_gaf_integral(params, [1.0], np.random.default_rng(7), n_draws=10_000)
        prods = np.abs(draws[:, 0]) ** 2
        se = prods.std() / 100.0
        assert abs(prods.mean() - 0.5) < 5 * se

    def test_coarse_discretization_rejected(self):
        with pytest.raises(DiscretizationError):
            sample_gaf_integral(KernelParams(0.0, ISO_HALF), [1.0], np.random.default_rng(0), y_max=5.0)
        with pytest.raises(DiscretizationError):
            sample_gaf_integral(
                KernelParams(0.0, ISO_HALF), [1.0], np.random.default_rng(0), cells=100
            )

    @pytest.mark.parametrize("x_min", [3.7, 5.5, 7.4])
    def test_default_y_max_meets_the_floor(self, x_min):
        # (30 / x) * x rounds below 30 at these x; the default y_max = 30 / x must still be accepted
        assert 30.0 / x_min * x_min < 30.0
        draw = sample_gaf_integral(KernelParams(0.0, ISO_HALF), [x_min, x_min + 1j], np.random.default_rng(0),
                                   cells=1000)
        assert np.all(np.isfinite(draw))

    def test_cross_validation_against_cholesky(self):
        # the module's strongest self-check, small version; the full sweep
        # runs in the acceptance suite
        grid = np.array([0.7, 1.1 + 0.8j, 1.6 - 0.5j, 2.2 + 1.4j])
        params = KernelParams(0.0, CovarianceSpec(1.0, 0.25, 0.3))
        rng = np.random.default_rng(2024)
        a = sample_gaf_integral(params, grid, rng, n_draws=10_000)
        b = sample_gaf_cholesky(params, grid, rng, n_draws=10_000)
        worst = 0.0
        for i in range(4):
            for j in range(4):
                for conj in (np.conj, lambda v: v):
                    pa = a[:, i] * conj(a[:, j])
                    pb = b[:, i] * conj(b[:, j])
                    se = math.sqrt(
                        max(pa.real.var(), pa.imag.var()) / len(pa)
                        + max(pb.real.var(), pb.imag.var()) / len(pb)
                    )
                    worst = max(worst, abs(pa.mean() - pb.mean()) / se)
        assert worst < 4.0


class TestHyperbolicCoefficients:
    def test_n_zero(self):
        assert coeff_sq_vector(1.3, 1)[0] == 1.0

    def test_alpha_zero_all_ones(self):
        assert all(coeff_sq_vector(0.0, 10) == 1.0)

    def test_half_alpha_n_three(self):
        # (2 * 3 * 4) / 3! = 4
        assert coeff_sq_vector(0.5, 4)[3] == pytest.approx(4.0)

    @pytest.mark.parametrize("alpha", [-0.25, 0.0, 1.0])
    @pytest.mark.parametrize("r", [0.3, 0.6])
    def test_partial_sums_converge_to_closed_form(self, alpha, r):
        # sum c_n^2 r^(2n) = (1 - r^2)^(-(1+2 alpha))
        target = (1 - r * r) ** (-(1 + 2 * alpha))
        n = 64
        while n <= 2 ** 16:
            val = float(coeff_sq_vector(alpha, n) @ r ** (2 * np.arange(n)))
            if abs(val - target) < 1e-10 * target:
                break
            n *= 2
        assert abs(val - target) < 1e-10 * target


class TestPowerSeriesSampler:
    def test_real_variant_variance_at_origin(self):
        rng = np.random.default_rng(15)
        vals = np.array([sample_power_series_gaf(0.0, False, rng, 4)[0] for _ in range(10_000)])
        assert abs(vals.var() - 1.0) < 5 * math.sqrt(2.0 / len(vals))

    def test_complex_variant_pseudo_vanishes(self):
        rng = np.random.default_rng(16)
        z1, z2 = 0.4 + 0.2j, -0.3 + 0.5j
        prods = np.empty(10_000, dtype=complex)
        for i in range(len(prods)):
            coeffs = sample_power_series_gaf(0.0, True, rng, 60)
            prods[i] = polyval(z1, coeffs) * polyval(z2, coeffs)
        se = max(prods.real.std(), prods.imag.std()) / math.sqrt(len(prods))
        assert abs(prods.mean()) < 5 * se

    def test_complex_variant_hermitian_kernel(self):
        rng = np.random.default_rng(17)
        alpha, z = 0.5, 0.45
        vals = np.empty(10_000, dtype=complex)
        for i in range(len(vals)):
            coeffs = sample_power_series_gaf(alpha, True, rng, 120)
            vals[i] = polyval(z, coeffs)
        prods = np.abs(vals) ** 2
        target = (1 - z * z) ** (-(1 + 2 * alpha))
        assert abs(prods.mean() - target) < 5 * prods.std() / math.sqrt(len(prods))


class TestMobius:
    def test_center(self):
        assert mobius(0.0) == 1.0

    def test_half_radius_boundary_value(self):
        # matches center minus radius of the mapped half-radius disk
        assert mobius(-0.5) == pytest.approx(5.0 / 3.0 - 4.0 / 3.0)

    def test_poles(self):
        with pytest.raises(PoleError):
            mobius(1.0)
        with pytest.raises(PoleError):
            mobius_inv(-1.0)

    def test_round_trip(self):
        rng = np.random.default_rng(0)
        z = rng.uniform(-0.99, 0.99, 1000) * np.exp(2j * np.pi * rng.random(1000)) * 0.999
        z = z[np.abs(z) < 1]
        for zi in z:
            assert abs(mobius_inv(mobius(zi)) - zi) < 1e-14

    def test_maps_disk_to_half_plane(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            assert mobius(z).real > 0
