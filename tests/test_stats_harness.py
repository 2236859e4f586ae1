import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from dirgaf.coeff_models import CoefficientModel, CoefficientStream, implied_covariance
from dirgaf.errors import ArgumentError
from dirgaf.limit_gaf import KernelParams, kernel_hermitian, kernel_pseudo
from dirgaf import series_eval
from dirgaf.series_eval import ScaledSeriesSampler
from dirgaf.stats_harness import (
    LILParams,
    StatReport,
    _merge_tail_bins,
    chi_square_vs_pmf,
    clt_normality_check,
    empirical_complex_covariance,
    lil_band_check,
    real_zero_process_comparison,
    replicate_map,
    scaled_covariance_experiment,
    tv_distance,
    two_sample_counts_chi2,
    zero_count_experiment,
    zero_count_pmf,
    zeta_limit_check,
    zeta_partial_with_tail,
)
from dirgaf.zero_finder import (
    Region,
    disk_image,
    evaluation_reach,
    locate_zeros,
    mapped_disk_rectangle,
    winding_with_retry,
)


class TestEmpiricalComplexCovariance:
    def test_constant_zero(self):
        z = np.zeros(64, dtype=complex)
        pseudo, herm, se = empirical_complex_covariance(z, z)
        assert pseudo == 0 and herm == 0 and se == 0

    def test_real_case_identity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500).astype(complex)
        pseudo, herm, _ = empirical_complex_covariance(x, x)
        assert pseudo == herm

    def test_standard_complex_gaussian(self):
        rng = np.random.default_rng(2)
        m = 100_000
        x = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) * math.sqrt(0.5)
        pseudo, herm, se = empirical_complex_covariance(x, x)
        assert abs(herm - 1.0) < 5 * se
        assert abs(pseudo) < 5 * se

    def test_hermitian_consistency(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        y = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        h_xy = empirical_complex_covariance(x, y)[1]
        h_yx = empirical_complex_covariance(y, x)[1]
        assert h_xy == np.conj(h_yx)

    def test_pairing_error(self):
        with pytest.raises(ArgumentError):
            empirical_complex_covariance(np.zeros(40), np.zeros(41))
        with pytest.raises(ArgumentError):
            empirical_complex_covariance(np.zeros(10), np.zeros(10))


class TestZeroCountPmf:
    def test_probability_of_no_zeros(self):
        # truncated-product oracle: prod_{k<=50} (1 - r^(2k))
        law = zero_count_pmf(0.5)
        oracle = 1.0
        for k in range(1, 51):
            oracle *= 1.0 - 0.25 ** k
        assert abs(law.pmf[0] - oracle) < 1e-10
        assert law.pmf[0] == pytest.approx(0.68854, abs=5e-6)

    def test_mean_geometric_series(self):
        law = zero_count_pmf(0.5)
        assert abs(law.mean() - 1.0 / 3.0) < 1e-12

    def test_small_r_point_mass(self):
        law = zero_count_pmf(1e-8)
        assert law.pmf[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("r", [0.1 * k for k in range(1, 10)])
    def test_moment_identities(self, r):
        law = zero_count_pmf(r)
        assert np.all(law.pmf >= 0)
        assert abs(law.pmf.sum() - 1.0) < 1e-12
        assert abs(law.mean() - r * r / (1 - r * r)) < 1e-12
        k = np.arange(1, law.k_max + 1)
        p = r ** (2 * k)
        assert abs(law.variance() - np.sum(p * (1 - p))) < 1e-12

    @pytest.mark.parametrize("t", [-1.0, -0.5, 0.5, 1.0])
    def test_generating_function_round_trip(self, t):
        r = 0.6
        law = zero_count_pmf(r)
        product = np.prod(1.0 + r ** (2 * np.arange(1, law.k_max + 1)) * t)
        assert abs(law.generating_function(t) - product) < 1e-10

    def test_truncation_criterion(self):
        law = zero_count_pmf(0.5)
        assert 0.5 ** (2 * law.k_max) < 1e-15
        assert 0.5 ** (2 * (law.k_max - 1)) >= 1e-15

    def test_domain(self):
        with pytest.raises(ArgumentError):
            zero_count_pmf(1.0)


class TestZeroCountExperiment:
    @pytest.mark.parametrize("name", ["gauss-complex", "circle"])
    def test_disk_winding_matches_located_zeros(self, name):
        # the experiment's disk-winding counts equal, replicate by replicate,
        # the zeros located in the padded rectangle and counted inside the disk
        model = CoefficientModel.from_name(name)
        n, seed, r = 64, 31, 0.5
        report = zero_count_experiment(model, s=1e-3, r=r, n_replicates=n, master_seed=seed, threads=2)
        rect = mapped_disk_rectangle(r)
        # the experiment's draws (they depend on x_min only), with room for the zero finder's moves
        smp = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 12, x_min=rect.lo.real, r_max=evaluation_reach(rect, 5e-3))
        center, radius = disk_image(r)
        disk = Region.disk(center, radius)
        paths = [smp.sample_path(CoefficientStream(model, seed, rep)) for rep in range(n)]
        wound = [winding_with_retry(path.eval, disk)[0] for path in paths]
        located = [
            sum(m for loc, m in locate_zeros(path.eval, rect, 5e-3).atoms if abs(loc - center) < radius)
            for path in paths
        ]
        assert wound == located
        hist = np.bincount(located, minlength=len(report.details["histogram"]))
        assert report.details["histogram"] == hist.tolist()
        assert report.details["boundary_nudges"] == 0


class TestReplicateMap:
    @pytest.mark.parametrize("threads", [1, 3])
    def test_order_and_values(self, threads):
        assert replicate_map(lambda rep: rep * rep, 7, threads) == [0, 1, 4, 9, 16, 25, 36]

    @pytest.mark.parametrize("threads", [1, 3])
    def test_failing_replicate_is_named(self, threads):
        def fn(rep):
            if rep == 5:
                raise ArgumentError("bad draw")
            return rep

        with pytest.raises(ArgumentError, match="bad draw") as info:
            replicate_map(fn, 9, threads)
        assert info.value.__notes__ == ["raised by replicate 5"]


class TestCltCheck:
    def test_null_sanity(self):
        # exact standard normal draws: the KS p-value is comfortably nonsmall
        from scipy import stats

        vals = np.random.default_rng(123).standard_normal(2000)
        assert stats.kstest(vals, "norm").pvalue > 1e-3

    def test_seeded_rademacher_run(self):
        report = clt_normality_check(
            CoefficientModel.rademacher(), 0.0, 2e-3, 600, master_seed=20260804, head_n=2 ** 13
        )
        assert report.verdict == "pass"
        assert report.p_value > 1e-3
        assert abs(report.details["sample_variance"] - 1.0) < 0.15

    def test_negative_control_fails_decisively(self):
        report = clt_normality_check(
            CoefficientModel.rademacher(), 0.0, 2e-3, 2000, master_seed=20260804,
            head_n=2 ** 13, break_normalizer=True,
        )
        assert report.p_value < 1e-6
        assert report.verdict == "fail"

    def test_scale_consistency(self):
        # doubling the coefficient scale and quadrupling sigma1^2 leaves the
        # normalized values unchanged (powers of two: exact in floating point)
        a = clt_normality_check(
            CoefficientModel.two_point(1.0, p=0.5), 0.5, 5e-3, 500, master_seed=9, head_n=512
        )
        b = clt_normality_check(
            CoefficientModel.two_point(2.0, p=0.5), 0.5, 5e-3, 500, master_seed=9, head_n=512
        )
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value

    def test_preconditions(self):
        with pytest.raises(ArgumentError):
            clt_normality_check(CoefficientModel.gauss_complex(), 0.0, 2e-3, 600, 1)
        with pytest.raises(ArgumentError):
            clt_normality_check(CoefficientModel.rademacher(), 0.0, 0.5, 600, 1)
        with pytest.raises(ArgumentError):
            clt_normality_check(CoefficientModel.rademacher(), 0.0, 2e-3, 100, 1)


class TestZetaLimit:
    def test_value_matches_zeta_at_real_point(self):
        # z S(z) + z equals z * zeta(1+z): the k = 1 term of the full zeta sum
        # contributes exactly z at beta = 0
        z = 0.01
        s_val = zeta_partial_with_tail(0.0, z)
        target = float(0.01 * mpmath.zeta(1.01))
        assert abs((z * s_val + z).real - target) < 1e-6
        assert abs((z * s_val + z).imag) < 1e-12

    def test_error_magnitudes_on_diagonal_ray(self):
        for beta in (-0.4, 0.0, 0.5, 2.0):
            errs = zeta_limit_check(beta, [1e-3 * np.exp(1j * np.pi / 4), 1e-4 * np.exp(1j * np.pi / 4)])
            assert errs[0][1] < 0.02
            assert errs[1][1] < errs[0][1]

    def test_tail_correction_soundness(self):
        # with the integral correction, the K-sensitivity shrinks as K doubles
        z = 1e-3 * np.exp(1j * np.pi / 4)
        for beta in (-0.4, 0.0, 0.5, 2.0):
            ref = zeta_partial_with_tail(beta, z, k_cut=2 ** 17)
            gaps = [
                abs(zeta_partial_with_tail(beta, z, k_cut=k) - ref)
                for k in (2 ** 10, 2 ** 11, 2 ** 12, 2 ** 13)
            ]
            assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_domain_checks(self):
        with pytest.raises(ArgumentError):
            zeta_limit_check(-1.0, [0.1])
        with pytest.raises(ArgumentError):
            zeta_limit_check(0.0, [2.0])
        with pytest.raises(ArgumentError):
            zeta_limit_check(0.0, [-0.1 + 0.1j])


class TestLilBand:
    def grid(self):
        return tuple(np.geomspace(1e-2, 1e-6, 40))

    def test_params_validation(self):
        with pytest.raises(ArgumentError):
            LILParams(0.0, 1.0, s_grid=(0.5,))  # not below 1/e
        with pytest.raises(ArgumentError):
            LILParams(0.0, 1.0, s_grid=(1e-3, 1e-2))  # not decreasing
        assert LILParams(0.5, 1.0, s_grid=self.grid()).c_alpha == pytest.approx(
            math.gamma(2.0) / 2.0
        )

    def test_verdict_is_always_smoke(self):
        report = lil_band_check(
            CoefficientModel.rademacher(), LILParams(0.0, 1.0, self.grid()), 20260804, head_n=2 ** 12
        )
        assert report.verdict == "smoke"
        assert len(report.details["r_values"]) == 40

    def test_sign_symmetry(self):
        # mirrored two-point atoms draw the exact negations from the same
        # words; with the Gaussian completion off, R negates pointwise exactly
        params = LILParams(0.0, 1.0, self.grid())
        plus = lil_band_check(CoefficientModel.two_point(1.0, 0.5), params, 7, head_n=2 ** 12, tail="none")
        minus = lil_band_check(CoefficientModel.two_point(-1.0, 0.5), params, 7, head_n=2 ** 12, tail="none")
        np.testing.assert_array_equal(
            np.array(plus.details["r_values"]), -np.array(minus.details["r_values"])
        )

    def test_complex_model_rejected(self):
        with pytest.raises(ArgumentError):
            lil_band_check(CoefficientModel.circle(), LILParams(0.0, 0.5, self.grid()), 1)

    def test_unknown_tail_rejected(self):
        with pytest.raises(ArgumentError, match="gausian"):
            lil_band_check(CoefficientModel.rademacher(), LILParams(0.0, 1.0, self.grid()), 1, tail="gausian")


class TestRealZeroComparison:
    def test_degenerate_window(self):
        report = real_zero_process_comparison(
            CoefficientModel.rademacher(), 1e-2, (1.0, 1.001), 40, master_seed=5, head_n=256, n_terms=50
        )
        assert report.tv_distance == pytest.approx(0.0, abs=1e-12)
        assert report.details["mean_series"] == 0.0
        assert report.details["mean_gaf"] == 0.0

    def test_complex_model_rejected(self):
        with pytest.raises(ArgumentError):
            real_zero_process_comparison(CoefficientModel.circle(), 1e-3, (0.2, 5.0), 40, 1)

    def test_thread_count_does_not_change_histograms(self):
        reports = [
            real_zero_process_comparison(
                CoefficientModel.rademacher(), 1e-3, (0.2, 5.0), 48, master_seed=6, threads=threads
            )
            for threads in (1, 2)
        ]
        assert reports[0].details["mean_series"] > 0
        for key in ("hist_series", "hist_gaf"):
            assert reports[0].details[key] == reports[1].details[key]
        assert reports[0].statistic == reports[1].statistic


class TestHelpers:
    def test_tv_distance_basic(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
        assert tv_distance([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert tv_distance([1.0], [0.5, 0.5]) == 0.5

    def test_chi_square_merges_thin_bins(self):
        pmf = np.array([0.7, 0.2, 0.05, 0.03, 0.015, 0.005])
        counts = np.array([70, 20, 5, 3, 1, 1])
        stat, p = chi_square_vs_pmf(counts, pmf)
        assert np.isfinite(stat) and 0 <= p <= 1

    def test_two_sample_chi2_symmetric(self):
        a = np.array([40, 30, 20, 10])
        b = np.array([35, 35, 22, 8])
        s1, p1 = two_sample_counts_chi2(a, b)
        s2, p2 = two_sample_counts_chi2(b, a)
        assert s1 == pytest.approx(s2)
        assert p1 == pytest.approx(p2)

    def test_two_sample_chi2_rejects_an_empty_sample(self):
        with pytest.raises(ArgumentError, match="nonempty"):
            two_sample_counts_chi2(np.array([0, 0, 0]), np.array([5, 6, 7]))

    def test_report_serialization(self):
        rep = StatReport("demo", 1.5, 100, 7, "pass", p_value=0.2, details={"k": 3})
        d = rep.to_json_dict()
        assert d["name"] == "demo" and d["k"] == 3
        row = rep.csv_row()
        assert row[0] == "demo" and row[-1] == "pass"


class TestChiSquareMatchesScipy:
    """The chi-square p-values and the 2 x k Pearson statistic equal scipy.stats' bit for bit."""

    @staticmethod
    def reference_two_sample(counts_a, counts_b):
        """(statistic, p-value, dof) of the merged table by scipy.stats.chi2_contingency."""
        n = max(len(counts_a), len(counts_b))
        a = np.pad(np.asarray(counts_a, dtype=float), (0, n - len(counts_a)))
        b = np.pad(np.asarray(counts_b, dtype=float), (0, n - len(counts_b)))
        tot = a + b
        a, _ = _merge_tail_bins(a, tot)
        b, _ = _merge_tail_bins(b, tot)
        table = np.vstack([a, b])
        table = table[:, table.sum(axis=0) > 0]
        if table.shape[1] < 2:
            return 0.0, 1.0, 0
        res = stats.chi2_contingency(table)
        return float(res.statistic), float(res.pvalue), res.dof

    @staticmethod
    def random_tables(rng):
        """Count pairs: two bins (Yates), up to 12 bins, thin tails that merge, and over 64 bins."""
        for _ in range(1000):
            yield rng.integers(0, 40, size=2), rng.integers(0, 40, size=2)
        for _ in range(1000):
            k = int(rng.integers(3, 13))
            yield rng.integers(0, 60, size=k), rng.integers(0, 60, size=int(rng.integers(1, k + 1)))
        for _ in range(500):
            pmf = 0.5 ** np.arange(1, 12)
            yield rng.multinomial(200, pmf / pmf.sum()), rng.multinomial(int(rng.integers(20, 400)), pmf / pmf.sum())
        for _ in range(50):
            k = int(rng.integers(65, 90))
            yield rng.integers(10, 60, size=k), rng.integers(10, 60, size=k)

    def test_two_sample_counts_chi2(self):
        rng = np.random.default_rng(20240607)
        n_tables = n_yates = 0
        for a, b in self.random_tables(rng):
            if a.sum() == 0 or b.sum() == 0:
                continue  # scipy raises on an all-zero row; covered by test_two_sample_chi2_rejects_an_empty_sample
            stat, p, dof = self.reference_two_sample(a, b)
            assert two_sample_counts_chi2(a, b) == (stat, p), (a, b)
            n_tables += 1
            n_yates += dof == 1
        assert n_tables >= 2000 and n_yates >= 500

    def test_chi_square_vs_pmf(self):
        rng = np.random.default_rng(20240608)
        n_tables = n_merged = 0
        for _ in range(2000):
            k = int(rng.integers(2, 16))
            pmf = rng.dirichlet(np.full(k, 0.7)) if rng.random() < 0.5 else 0.6 ** np.arange(k) * 0.4
            counts = rng.multinomial(int(rng.integers(10, 2000)), pmf / pmf.sum())[: int(rng.integers(1, k + 1))]
            stat, p = chi_square_vs_pmf(counts, pmf)
            n = max(len(counts), len(pmf))
            obs = np.pad(counts.astype(float), (0, n - len(counts)))
            merged, _ = _merge_tail_bins(obs, np.pad(pmf, (0, n - len(pmf))) * obs.sum())
            if len(merged) < 2:
                assert (stat, p) == (0.0, 1.0)
                continue
            assert p == float(stats.chi2.sf(stat, len(merged) - 1)), (counts, pmf)
            n_tables += 1
            n_merged += len(merged) < n
        assert n_tables >= 1500 and n_merged >= 500


class TestCovarianceExperiment:
    def test_common_random_numbers_and_shapes(self):
        model = CoefficientModel.gauss_real()
        z = np.array([1.0, 1.5 + 0.5j])
        res = scaled_covariance_experiment(model, 0.0, [1e-1, 1e-2], z, 4000, master_seed=11, head_n=256)
        assert len(res["per_s"]) == 2
        for per_s in res["per_s"]:
            assert per_s["pseudo"].shape == (2, 2)
            assert np.all(per_s["se_hermitian"] > 0)
        # hermitian diagonal entries are real and positive
        for per_s in res["per_s"]:
            assert per_s["hermitian"][0, 0].imag == pytest.approx(0.0, abs=1e-12)
            assert per_s["hermitian"][0, 0].real > 0

    def test_report_matches_entrywise_kernel_distances(self):
        # the verdict's distances, recomputed entry by entry from samplers built here
        model = CoefficientModel.gauss_real()
        cov = implied_covariance(model)
        params = KernelParams(0.5, cov)
        z = np.array([1.0, 1.5 + 0.5j])
        res = scaled_covariance_experiment(model, 0.5, [1e-1, 1e-2], z, 4000, master_seed=11, head_n=256)
        for per_s in res["per_s"]:
            smp = ScaledSeriesSampler(model, 0.5, per_s["s"], 256, x_min=1.0, r_max=2.0)
            exact_sq = emp_sq = 0.0
            for i, zi in enumerate(z):
                for j, zj in enumerate(z):
                    kp, kh = kernel_pseudo(params, zi, zj), kernel_hermitian(params, zi, zj)
                    assert res["kernel_pseudo"][i, j] == kp and res["kernel_hermitian"][i, j] == kh
                    exact_sq += abs(smp.exact_pseudo(cov, zi, zj) - kp) ** 2
                    exact_sq += abs(smp.exact_hermitian(cov, zi, zj) - kh) ** 2
                    emp_sq += abs(per_s["pseudo"][i, j] - kp) ** 2 + abs(per_s["hermitian"][i, j] - kh) ** 2
            assert per_s["exact_distance"] == pytest.approx(math.sqrt(exact_sq), rel=1e-12)
            assert per_s["empirical_distance"] == pytest.approx(math.sqrt(emp_sq), rel=1e-12)
        report = res["report"]
        exact = report.details["exact_distances"]
        final = res["per_s"][-1]
        within = all(
            abs(final[key][i, j] - res[f"kernel_{key}"][i, j]) <= 5 * final[f"se_{key}"][i, j]
            for key in ("pseudo", "hermitian")
            for i in range(2)
            for j in range(2)
        )
        assert report.details["monotone"] == (exact[0] > exact[1])
        assert report.details["final_within_5se"] == within
        assert report.verdict == ("pass" if exact[0] > exact[1] and within else "fail")
        assert report.statistic == report.details["empirical_distances"][-1] == final["empirical_distance"]


def test_weight_readers_build_no_taylor_fold(monkeypatch):
    # the CLT, the LIL band and the covariance sweep read sampler weights only;
    # the fold (about 10 MiB at head_n 2^16) belongs to sampled paths
    calls = []
    monkeypatch.setattr(series_eval, "_taylor_fold", lambda *args: calls.append(args))
    clt_normality_check(CoefficientModel.rademacher(), 0.0, 2e-3, 500, 1, head_n=256)
    lil_band_check(CoefficientModel.rademacher(), LILParams(0.0, 1.0, (1e-2, 1e-4, 1e-6)), 1, head_n=256)
    scaled_covariance_experiment(
        CoefficientModel.gauss_real(), 0.0, [1e-1, 1e-2], np.array([1.0, 1.5 + 0.5j]), 100, master_seed=1, head_n=64
    )
    assert calls == []
