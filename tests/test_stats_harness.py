import math
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest
from scipy import stats

from dirgaf.coeff_models import CoefficientModel, CoefficientStream, draw_pairs_bulk, implied_covariance
from dirgaf.errors import ArgumentError, UndefinedEstimatorError
from dirgaf.kolmogorov import ks_norm_test
from dirgaf.limit_gaf import KernelParams, kernel_hermitian, kernel_pseudo, mobius_inv, sample_power_series_gaf
from dirgaf import series_eval, stats_harness
from dirgaf.series_eval import TAYLOR_DEGREE, ScaledSeriesSampler
from dirgaf.stats_harness import (
    REAL_ZERO_BLOCK,
    REAL_ZERO_CHUNK,
    ZETA_TOLERANCE,
    LILParams,
    StatReport,
    _chunk_counts,
    _merge_tail_bins,
    chi_square_vs_pmf,
    clt_normality_check,
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
    classify_signs,
    count_real_zeros,
    disk_image,
    evaluation_reach,
    locate_zeros,
    mapped_disk_rectangle,
    scan_nodes,
    winding_with_retry,
)


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
        # E (1+t)^N from the pmf against the product over the independent Bernoulli(r^(2k)) terms
        r = 0.6
        law = zero_count_pmf(r)
        product = np.prod(1.0 + r ** (2 * np.arange(1, law.k_max + 1)) * t)
        assert abs(np.sum(law.pmf * (1.0 + t) ** np.arange(len(law.pmf))) - product) < 1e-10

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
        report = zero_count_experiment(model, s=1e-3, r=r, n_replicates=n, master_seed=seed)
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
    def test_order_and_values(self):
        assert replicate_map(lambda rep: rep * rep, 7) == [0, 1, 4, 9, 16, 25, 36]

    def test_failing_replicate_is_named(self):
        def fn(rep):
            if rep == 5:
                raise ArgumentError("bad draw")
            return rep

        with pytest.raises(ArgumentError, match="bad draw") as info:
            replicate_map(fn, 9)
        assert info.value.__notes__ == ["raised by replicate 5"]


class TestCltCheck:
    def test_null_sanity(self):
        # exact standard normal draws: the KS p-value is comfortably nonsmall
        vals = np.random.default_rng(123).standard_normal(2000)
        assert ks_norm_test(vals)[1] > 1e-3

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
            assert errs[0][1] < ZETA_TOLERANCE
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
            LILParams(0.0, s_grid=(0.5,))  # not below 1/e
        with pytest.raises(ArgumentError):
            LILParams(0.0, s_grid=(1e-3, 1e-2))  # not decreasing
        assert LILParams(0.5, s_grid=self.grid()).c_alpha == pytest.approx(
            math.gamma(2.0) / 2.0
        )
        # Gamma(1 + 2 alpha) overflows float64 beyond alpha = 85.3
        with pytest.raises(ArgumentError, match="c_alpha at alpha = 86 overflows float64"):
            LILParams(86.0, s_grid=self.grid()).c_alpha

    def test_verdict_is_always_smoke(self):
        report = lil_band_check(
            CoefficientModel.rademacher(), LILParams(0.0, self.grid()), 20260804, head_n=2 ** 12
        )
        assert report.verdict == "smoke"
        assert len(report.details["r_values"]) == 40

    def test_sign_symmetry(self):
        # mirrored two-point atoms draw the exact negations from the same
        # words; with the Gaussian completion off, R negates pointwise exactly
        params = LILParams(0.0, self.grid())
        plus = lil_band_check(CoefficientModel.two_point(1.0, 0.5), params, 7, head_n=2 ** 12, tail="none")
        minus = lil_band_check(CoefficientModel.two_point(-1.0, 0.5), params, 7, head_n=2 ** 12, tail="none")
        np.testing.assert_array_equal(
            np.array(plus.details["r_values"]), -np.array(minus.details["r_values"])
        )

    def test_r_is_free_of_the_coefficient_scale(self):
        # doubled atoms double the head and the Gaussian tail, and R divides by the model's own sigma1
        params = LILParams(0.0, self.grid())
        one = lil_band_check(CoefficientModel.two_point(1.0, 0.5), params, 7, head_n=2 ** 12)
        two = lil_band_check(CoefficientModel.two_point(2.0, 0.5), params, 7, head_n=2 ** 12)
        assert two.details["r_values"] == one.details["r_values"]

    def test_complex_model_rejected(self):
        with pytest.raises(ArgumentError):
            lil_band_check(CoefficientModel.circle(), LILParams(0.0, self.grid()), 1)

    def test_unknown_tail_rejected(self):
        with pytest.raises(ArgumentError, match="gausian"):
            lil_band_check(CoefficientModel.rademacher(), LILParams(0.0, self.grid()), 1, tail="gausian")


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
        # the comparison takes no thread count; callers running it at once on 1, 2 or 4 threads share no state
        reference = real_zero_process_comparison(CoefficientModel.rademacher(), 1e-3, (0.2, 5.0), 48, master_seed=6)
        assert reference.details["mean_series"] > 0
        for threads in (1, 2, 4):
            with ThreadPoolExecutor(max_workers=threads) as pool:
                reports = list(pool.map(
                    lambda _: real_zero_process_comparison(
                        CoefficientModel.rademacher(), 1e-3, (0.2, 5.0), 48, master_seed=6
                    ),
                    range(threads),
                ))
            for report in reports:
                for key in ("hist_series", "hist_gaf"):
                    assert reference.details[key] == report.details[key]
                assert reference.statistic == report.statistic

    def test_draws_run_in_the_calling_thread(self, monkeypatch):
        # a worker thread would only contend for the GIL over the many small numpy calls of a draw; this covers
        # both sides of the real-zero comparison and the zero-count experiment's paths
        threads = []

        def recorded(owner, name):
            draw = getattr(owner, name)

            def wrapper(*args, **kwargs):
                threads.append(threading.get_ident())
                return draw(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        # a series-side real column is drawn as a sampled path
        recorded(ScaledSeriesSampler, "sample_path")
        recorded(stats_harness, "sample_power_series_gaf")
        report = real_zero_process_comparison(CoefficientModel.rademacher(), 1e-3, (0.2, 5.0), 48, master_seed=6)
        assert report.details["mean_series"] > 0
        zero_count_experiment(CoefficientModel.circle(), s=1e-3, r=0.5, n_replicates=8, master_seed=6)
        assert threads == [threading.get_ident()] * (2 * 48 + 8)

    @pytest.mark.parametrize("side", ["series", "power-series"])
    def test_failing_draw_names_its_replicate(self, monkeypatch, side):
        if side == "series":
            cls, name = ScaledSeriesSampler, "sample_real_columns"
        else:
            cls, name = stats_harness, "sample_power_series_gaf"
        calls = []
        draw = getattr(cls, name)

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 6:
                raise UndefinedEstimatorError("draw failed")
            return draw(*args, **kwargs)

        monkeypatch.setattr(cls, name, failing)
        with pytest.raises(UndefinedEstimatorError, match="draw failed") as info:
            real_zero_process_comparison(CoefficientModel.rademacher(), 1e-3, (0.2, 5.0), 10, master_seed=6)
        assert info.value.__notes__ == ["raised by replicate 5"]

    def test_power_side_rows_match_polyval(self, monkeypatch):
        # block products against the Vandermonde matrix, within 1e-14 of each row's largest |value|
        model, seed, n = CoefficientModel.rademacher(), 11, REAL_ZERO_CHUNK + 1
        da, db = mobius_inv(0.2).real, mobius_inv(5.0).real
        xs = scan_nodes(da, db)
        assert -1.0 < xs[0] and xs[-1] < 1.0
        calls = []
        classify = stats_harness.classify_signs

        def recording(nodes, ys, *args, **kwargs):
            calls.append((nodes, ys))
            return classify(nodes, ys, *args, **kwargs)

        monkeypatch.setattr(stats_harness, "classify_signs", recording)
        real_zero_process_comparison(model, 1e-3, (0.2, 5.0), n, seed)
        blocks = (len(xs) - 1) // REAL_ZERO_BLOCK
        # a call per block and chunk, blocks outermost, power side first
        assert [len(ys) for _, ys in calls] == [REAL_ZERO_CHUNK, 1] * 2 * blocks
        power = calls[:2 * blocks]
        for (nodes, ys), (after, ys_after) in zip(power, power[2:]):
            assert nodes[-1] == after[0] and np.array_equal(ys[:, -1], ys_after[:, 0])  # the shared node
        assert np.array_equal(np.concatenate([power[0][0]] + [nodes[1:] for nodes, _ in power[2::2]]), xs)
        rows = np.concatenate([np.concatenate([power[k][1]] + [ys[:, 1:] for _, ys in power[2 + k::2]], axis=1)
                               for k in (0, 1)])
        coeffs = [sample_power_series_gaf(0.0, False, CoefficientStream(model, seed ^ 0x5F5F5F5F, rep)
                                          .bulk_generator(), 200) for rep in range(n)]
        for c, row in zip(coeffs, rows, strict=True):
            exact = np.polynomial.polynomial.polyval(xs, c)
            assert np.max(np.abs(row - exact)) <= 1e-14 * np.max(np.abs(exact))

    @staticmethod
    def whole_grid_counts(columns, build, xs):
        # the oracle: each chunk's rows as one product of the matrix of all nodes, classified whole
        out = []
        for start in range(0, len(columns), REAL_ZERO_CHUNK):
            rows = (build(xs) @ np.stack(columns[start:start + REAL_ZERO_CHUNK], axis=1)).T
            cells, nodes = classify_signs(xs, rows, xs[0], xs[-1], first_replicate=start)
            out.extend(cells.sum(axis=1) + nodes.sum(axis=1))
        return np.array(out)

    @pytest.mark.parametrize("model", [
        CoefficientModel.rademacher(), CoefficientModel.gauss_real(), CoefficientModel.two_point(1.0, 0.3),
    ], ids=["rademacher", "gauss-real", "two-point"])
    def test_chunk_counts_equal_one_row_counts(self, model):
        # every replicate's blocked count is count_real_zeros's, for replicate counts around the chunk size
        assert REAL_ZERO_CHUNK == 64 and REAL_ZERO_BLOCK == 256
        a, b, seed = 0.2, 5.0, 9
        da, db = mobius_inv(a).real, mobius_inv(b).real
        sampler = ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 12, x_min=a, r_max=b)
        streams = [CoefficientStream(model, seed, rep) for rep in range(130)]
        series = [sampler.sample_real_columns(stream) for stream in streams]
        paths = [sampler.sample_path(stream) for stream in streams]
        one_row = np.array([count_real_zeros(lambda x: path.eval(x).real, a, b) for path in paths])
        coeffs = [sample_power_series_gaf(0.0, False, CoefficientStream(model, seed ^ 0x5F5F5F5F, rep)
                                          .bulk_generator(), 200) for rep in range(130)]
        one_row_gaf = np.array([count_real_zeros(lambda x: np.polynomial.polynomial.polyval(x, c), da, db)
                                for c in coeffs])
        assert one_row.sum() > 0 and one_row_gaf.sum() > 0
        xs, xs_gaf = scan_nodes(a, b), scan_nodes(da, db)

        def powers(nodes):
            return np.vander(nodes, 200, increasing=True)

        for n in (1, 63, 64, 65, 130):
            assert np.array_equal(_chunk_counts(series[:n], sampler.real_design, xs), one_row[:n])
            assert np.array_equal(_chunk_counts(coeffs[:n], powers, xs_gaf), one_row_gaf[:n])
        assert np.array_equal(self.whole_grid_counts(series, sampler.real_design, xs), one_row)
        for n in (65, 130):
            report = real_zero_process_comparison(model, 1e-3, (a, b), n, seed)
            width = len(report.details["hist_series"])
            assert report.details["hist_series"] == np.bincount(one_row[:n], minlength=width).tolist()
            assert report.details["hist_gaf"] == np.bincount(one_row_gaf[:n], minlength=width).tolist()

    @staticmethod
    def edge_design(xs, late):
        # columns over the scan nodes xs, to be combined into rows that do something at a block edge
        e = REAL_ZERO_BLOCK  # the node the first two blocks share

        def build(x):
            return np.stack([
                np.sin(5.0 * x), np.cos(5.0 * x),
                x - 0.5 * (xs[e - 1] + xs[e]),  # a sign change in the last cell of block 0
                x - 0.5 * (xs[e] + xs[e + 1]),  # a sign change in the first cell of block 1
                x - xs[e],  # an exact zero at the shared node, the sign changing through it
                (x - xs[e]) ** 2,  # an exact zero at the shared node, the sign kept
                np.where((x >= xs[e - 1]) & (x <= xs[e]), 0.0, 1.0),  # 0 at both ends of block 0's last cell
                np.where((x >= xs[e]) & (x <= xs[e + 1]), 0.0, 1.0),  # 0 at both ends of block 1's first cell
                np.where(x >= xs[3 * e + 40], late, 0.0),  # from inside block 3 on
            ], axis=1)

        return build

    # case -> (the column of each replicate that is not sin(k + 5x), the late column's value, replicate named)
    EDGE_CASES = {
        "change-before-edge": ({70: 2}, 1.0, None),
        "change-after-edge": ({70: 3}, 1.0, None),
        "zero-on-edge": ({70: 4}, 1.0, None),
        "touch-on-edge": ({70: 5}, 1.0, None),
        "flat-before-edge": ({70: 6}, 1.0, 70),
        "flat-after-edge": ({70: 7}, 1.0, 70),
        # 1e300 * 1e300 overflows in replicate 70's row only; a NaN in the matrix is NaN in every row (0 * NaN)
        "inf-in-later-block": ({70: 8}, 1e300, 70),
        "nan-in-later-block": ({}, np.nan, 0),
        # block 0 meets replicate 70's flat cell first, but the whole grid meets replicate 10's chunk first
        "inf-in-earlier-chunk": ({10: 8, 70: 7}, 1e300, 10),
    }

    @pytest.mark.parametrize("case", list(EDGE_CASES))
    def test_block_edges_count_and_fail_as_the_whole_grid(self, case):
        xs = scan_nodes(0.2, 5.0)
        picks, late, named = self.EDGE_CASES[case]
        build = self.edge_design(xs, late)
        unit = np.eye(9)
        columns = [unit[0] * np.cos(k) + unit[1] * np.sin(k) for k in range(130)]
        background = self.whole_grid_counts(columns, self.edge_design(xs, 1.0), xs)
        for rep, j in picks.items():
            columns[rep] = unit[0] + 1e300 * unit[8] if j == 8 else unit[j]
        with np.errstate(over="ignore", invalid="ignore"):
            if named is None:
                expected = self.whole_grid_counts(columns, build, xs)
                assert expected[70] == 1 and np.array_equal(np.delete(expected, 70), np.delete(background, 70))
                assert np.array_equal(_chunk_counts(list(columns), build, xs), expected)
                return
            with pytest.raises(UndefinedEstimatorError) as whole:
                self.whole_grid_counts(columns, build, xs)
            with pytest.raises(UndefinedEstimatorError) as info:
                _chunk_counts(list(columns), build, xs)
        assert str(info.value) == str(whole.value)
        assert info.value.__notes__ == whole.value.__notes__ == [f"raised by replicate {named}"]
        assert ("exactly 0 at both ends" if case.startswith("flat") else "(1241 of 2049 nodes)") in str(info.value)

    def test_each_block_matrix_is_built_once_per_run(self, monkeypatch):
        # 130 replicates are three chunks a side; each side builds one matrix per block of nodes, never all nodes'
        designs, vanders = [], []
        design, vander = ScaledSeriesSampler.real_design, np.vander

        def counting_design(self, x):
            designs.append(len(x))
            return design(self, x)

        def counting_vander(x, n=None, increasing=False):
            vanders.append((len(x), n))
            return vander(x, n, increasing)

        monkeypatch.setattr(ScaledSeriesSampler, "real_design", counting_design)
        monkeypatch.setattr(np, "vander", counting_vander)
        real_zero_process_comparison(CoefficientModel.rademacher(), 1e-3, (0.2, 5.0), 130, master_seed=6)
        blocks = [REAL_ZERO_BLOCK + 1] * (2048 // REAL_ZERO_BLOCK)
        assert designs == blocks
        assert [nodes for nodes, n in vanders if n == 200] == blocks

    @staticmethod
    def design(xs):
        # replicate k's column (cos k, sin k, 0) gives the row sin(k + 5x); (0, 0, 1) gives the step
        return np.stack([np.sin(5.0 * xs), np.cos(5.0 * xs), np.where(xs < 1.0, 0.0, 1.0)], axis=1)

    def test_flat_row_names_its_replicate(self):
        xs = scan_nodes(0.2, 5.0)
        columns = [np.array([np.cos(k), np.sin(k), 0.0]) for k in range(130)]
        columns[70] = np.array([0.0, 0.0, 1.0])  # exactly 0 over a stretch: underflow
        with pytest.raises(UndefinedEstimatorError, match=r"grid cell \[0\.20000000000000001, "
                           r"0\.20234375000000002\] of \(0\.2, 5\) \(342 of 2049 nodes\): it underflows") as info:
            _chunk_counts(columns, self.design, xs)
        assert info.value.__notes__ == ["raised by replicate 70"]

    def test_nan_row_names_its_replicate(self):
        # sin(5x) has 7 zeros on (0.2, 5), but a tail that overflows leaves its sign, and so its count,
        # undefined.  It is inf, not NaN: with every other row finite, one product yields no NaN in one row
        # alone (0 * inf is NaN in every row, and inf - inf is not formed when the BLAS accumulates by fma)
        xs = scan_nodes(0.2, 5.0)

        def design(x):
            out = self.design(x)
            out[:, 2] = np.where(x < xs[100], 0.0, 1e300)
            return out

        columns = [np.array([1.0, 0.0, 0.0]) for _ in range(130)]
        columns[70] = np.array([1.0, 0.0, 1e300])
        with pytest.raises(UndefinedEstimatorError, match=r"f is inf at the grid node 0\.434375\d* of \(0\.2, 5\)"
                           r" \(1949 of 2049 nodes\): its sign there is undefined") as info, \
                np.errstate(over="ignore"):
            _chunk_counts(columns, design, xs)
        assert info.value.__notes__ == ["raised by replicate 70"]

    def test_only_a_chunk_of_values_is_held(self):
        # the peak is the draws (held once, as stacked chunks), one block's design and a chunk's rows over it,
        # and the sampler's own arrays: no matrix over all 2049 nodes, neither the design nor the values
        model, n = CoefficientModel.rademacher(), 500
        terms = TAYLOR_DEGREE + 1 + len(
            ScaledSeriesSampler(model, 0.0, 1e-3, 2 ** 12, x_min=0.2, r_max=5.0)._fold.hi_freqs)
        draws, block = n * terms * 8, (REAL_ZERO_BLOCK + 1) * terms * 8
        block_rows = (REAL_ZERO_BLOCK + 1) * REAL_ZERO_CHUNK * 8
        tracemalloc.start()
        try:
            real_zero_process_comparison(model, 1e-3, (0.2, 5.0), n, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < draws + block + 4 * block_rows + 2 ** 20, (peak, draws, block, block_rows)


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
            exact_h, exact_p = smp.exact_moments(z)
            exact_sq = emp_sq = 0.0
            for i, zi in enumerate(z):
                for j, zj in enumerate(z):
                    kp, kh = kernel_pseudo(params, zi, zj), kernel_hermitian(params, zi, zj)
                    assert res["kernel_pseudo"][i, j] == kp and res["kernel_hermitian"][i, j] == kh
                    exact_sq += abs(exact_p[i, j] - kp) ** 2
                    exact_sq += abs(exact_h[i, j] - kh) ** 2
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


def _complex_covariance_oracle(model, alpha, s_list, z, n_replicates, master_seed, head_n):
    # the covariance sweep's slab loop in complex arithmetic: complex coefficients times complex weights, built from
    # the layout, one stream per slab of 16 replicates
    samplers = [
        ScaledSeriesSampler(model, alpha, s, head_n, x_min=float(z.real.min()), r_max=float(np.abs(z).max()))
        for s in s_list
    ]
    weights = []
    for smp in samplers:
        lay = smp.layout
        w = lay.weights[:, None] * np.exp(-smp.s * np.outer(lay.logy, z))
        weights.append((w[: lay.n_head], w[lay.n_head :]))
    n_tail_max = max(w[1].shape[0] for w in weights)
    tail_mix = samplers[0].layout.tail_mix
    sums = [[0.0] * 6 for _ in s_list]
    done = block_id = 0
    while done < n_replicates:
        n = min(16, n_replicates - done)
        gen = CoefficientStream(model, master_seed, block_id).bulk_generator()
        block_id += 1
        pairs = draw_pairs_bulk(model, gen, n * (head_n - 1)).reshape(n, head_n - 1, 2)
        eta_head = pairs[..., 0] + 1j * pairs[..., 1]
        if model.is_real:  # one normal per tail block
            eta_tail = gen.standard_normal((n, n_tail_max)) * tail_mix[0, 0]
        else:
            g = gen.standard_normal((n, n_tail_max, 2)) @ tail_mix
            eta_tail = g[..., 0] + 1j * g[..., 1]
        for i, (head_w, tail_w) in enumerate(weights):
            vals = s_list[i] ** (0.5 + alpha) * (eta_head @ head_w + eta_tail[:, : tail_w.shape[0]] @ tail_w)
            prod_p = vals[:, :, None] * vals[:, None, :]
            prod_h = vals[:, :, None] * np.conj(vals[:, None, :])
            for k, term in enumerate(
                (prod_p, prod_h, prod_p.real ** 2, prod_p.imag ** 2, prod_h.real ** 2, prod_h.imag ** 2)
            ):
                sums[i][k] = sums[i][k] + term.sum(axis=0)
        done += n
    out = []
    for p, h, p2re, p2im, h2re, h2im in sums:
        mean_p, mean_h = p / n_replicates, h / n_replicates
        var_p = np.maximum(p2re / n_replicates - mean_p.real ** 2, p2im / n_replicates - mean_p.imag ** 2)
        var_h = np.maximum(h2re / n_replicates - mean_h.real ** 2, h2im / n_replicates - mean_h.imag ** 2)
        out.append(
            {
                "pseudo": mean_p,
                "hermitian": mean_h,
                "se_pseudo": np.sqrt(np.maximum(var_p, 0.0) / n_replicates),
                "se_hermitian": np.sqrt(np.maximum(var_h, 0.0) / n_replicates),
            }
        )
    return out


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize(
    "model",
    [
        CoefficientModel.gauss_real(),
        CoefficientModel.rademacher(),
        CoefficientModel.gauss_complex(),
        CoefficientModel.two_point(1.0 + 0.5j, p=0.2),  # correlated eta and theta
    ],
    ids=lambda m: m.kind,
)
def test_covariance_sweep_matches_the_complex_block_loop(model, alpha):
    z = np.array([1.0, 1.3 + 0.6j, 2.0 - 0.8j])
    s_list = [1e-1, 1e-2]
    for n_replicates in (600, 5):  # 37 full slabs of 16 and a partial one; a single partial slab
        res = scaled_covariance_experiment(model, alpha, s_list, z, n_replicates, master_seed=17, head_n=300)
        oracle = _complex_covariance_oracle(model, alpha, s_list, z, n_replicates, 17, 300)
        for got, want in zip(res["per_s"], oracle):
            for key in ("pseudo", "hermitian", "se_pseudo", "se_hermitian"):
                np.testing.assert_allclose(got[key], want[key], rtol=1e-13, atol=0, err_msg=f"{key}, {n_replicates}")
        final = oracle[-1]
        within = all(
            np.all(np.abs(final[key] - res[f"kernel_{key}"]) <= 5 * final[f"se_{key}"])
            for key in ("pseudo", "hermitian")
        )
        exact = res["report"].details["exact_distances"]
        assert res["report"].verdict == ("pass" if exact[0] > exact[1] and within else "fail")


@pytest.fixture(scope="module")
def covariance_sweep_peaks():
    """tracemalloc peaks of the covariance sweep at 1 and 512 replicates on an 80-point grid, and its slab's bytes.

    512 replicates x 2 products x 3 values of s x 80^2 grid pairs would be 600 MiB in one array; the sweep forms
    the products of one slab of 16 replicates (9.4 MiB) at a time.
    """
    model = CoefficientModel.gauss_real()
    z = 1.0 + 0.01 * np.arange(80) + 0.005j * np.arange(80)
    s_list = [1e-1, 1e-2, 1e-3]
    peaks = []
    for n_replicates in (1, 512):
        tracemalloc.start()
        try:
            res = scaled_covariance_experiment(model, 0.0, s_list, z, n_replicates, master_seed=1, head_n=64)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert res["report"].n_replicates == 512
    return peaks, 16 * 2 * len(s_list) * len(z) ** 2 * 16


def test_covariance_sweep_peak_grows_by_at_most_two_slabs(covariance_sweep_peaks):
    # the replicate count adds at most two slabs to what a one-replicate sweep (weights, kernels, exact moments)
    # peaks at
    (one, many), slab = covariance_sweep_peaks
    assert many <= one + 2 * slab + 2 ** 21


def test_covariance_sweep_peak_holds_one_slab(covariance_sweep_peaks):
    # every slab writes its products into one buffer, so the previous slab's are never alive next to the next's
    # (1.7 slabs above the one-replicate sweep when each slab allocated its own)
    (one, many), slab = covariance_sweep_peaks
    assert many <= one + slab + 2 ** 20


def test_weight_readers_build_no_taylor_fold(monkeypatch):
    # the CLT, the LIL band and the covariance sweep read sampler weights only;
    # the fold (about 10 MiB at head_n 2^16) belongs to sampled paths
    calls = []
    monkeypatch.setattr(series_eval, "_taylor_fold", lambda *args: calls.append(args))
    clt_normality_check(CoefficientModel.rademacher(), 0.0, 2e-3, 500, 1, head_n=256)
    lil_band_check(CoefficientModel.rademacher(), LILParams(0.0, (1e-2, 1e-4, 1e-6)), 1, head_n=256)
    scaled_covariance_experiment(
        CoefficientModel.gauss_real(), 0.0, [1e-1, 1e-2], np.array([1.0, 1.5 + 0.5j]), 100, master_seed=1, head_n=64
    )
    assert calls == []
