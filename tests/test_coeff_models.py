import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from dirgaf.coeff_models import (
    MODEL_NAMES,
    CoefficientModel,
    CoefficientStream,
    CovarianceSpec,
    _from_words,
    covariance_sqrt,
    draw_eta_bulk,
    draw_pairs_bulk,
    implied_covariance,
)
from dirgaf.errors import ArgumentError

ALL_MODELS = [
    CoefficientModel.rademacher(),
    CoefficientModel.gauss_real(),
    CoefficientModel.gauss_complex(),
    CoefficientModel.circle(),
    CoefficientModel.two_point(1.0 + 0.5j, p=0.2),
]

# every law with its closed-form (Var eta, Var theta, Cov); a two-point law's atoms are point sqrt(q/p) and
# -point sqrt(p/q), so its covariance is (Re point^2, Im point^2, Re point Im point) at any p
LAW_TABLE = [
    pytest.param(CoefficientModel.rademacher(), (1.0, 0.0, 0.0), id="rademacher"),
    pytest.param(CoefficientModel.gauss_real(), (1.0, 0.0, 0.0), id="gauss-real"),
    pytest.param(CoefficientModel.gauss_complex(), (0.5, 0.5, 0.0), id="gauss-complex"),
    pytest.param(CoefficientModel.circle(), (0.5, 0.5, 0.0), id="circle"),
    pytest.param(CoefficientModel.two_point(2.5, 0.2), (6.25, 0.0, 0.0), id="two-point-2.5"),
    pytest.param(CoefficientModel.two_point(1.0 + 0.5j, 0.3), (1.0, 0.25, 0.5), id="two-point-1+0.5j"),
    pytest.param(CoefficientModel.two_point(2j, 0.4), (0.0, 4.0, 0.0), id="two-point-2j"),
    # Var theta is subnormal, not 0, so the law is complex
    pytest.param(CoefficientModel.two_point(1.0 + 1e-160j, 0.5), (1.0, 1e-320, 1e-160), id="two-point-1+1e-160j"),
]


class TestCovarianceSpec:
    def test_rejects_negative_variance(self):
        with pytest.raises(ArgumentError):
            CovarianceSpec(-1.0, 1.0)

    @pytest.mark.parametrize("variances", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
    def test_rejects_non_finite_variance(self, variances):
        with pytest.raises(ArgumentError, match="finite"):
            CovarianceSpec(*variances)

    def test_rejects_invalid_cross_term(self):
        with pytest.raises(ArgumentError):
            CovarianceSpec(1.0, 1.0, rho=1.5)

    def test_rejects_fully_degenerate(self):
        with pytest.raises(ArgumentError):
            CovarianceSpec(0.0, 0.0)

    def test_isotropy_flag(self):
        assert CovarianceSpec(0.5, 0.5, 0.0).is_isotropic
        assert not CovarianceSpec(1.0, 0.0, 0.0).is_isotropic

    @pytest.mark.parametrize("scale", [1e-20, 1e-7, 1.0, 1e7, 1e20])
    def test_isotropy_is_relative_to_the_second_moment(self, scale):
        # an absolute 1e-12 called (1e-20, 0, 0) isotropic
        assert CovarianceSpec(scale, scale, 0.0).is_isotropic
        assert not CovarianceSpec(scale, 0.0, 0.0).is_isotropic
        assert not CovarianceSpec(scale, scale, 1e-3 * scale).is_isotropic

    @pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10])
    def test_cross_term_bound_is_relative_to_the_variances(self, scale):
        # eigenvalues about +-300 * scale; an absolute 1e-15 accepted it at scale 1e-10
        with pytest.raises(ArgumentError, match="not a covariance"):
            CovarianceSpec(scale, scale, 300 * scale)

    def test_rank_one_spec_accepted_at_any_scale(self):
        # (a b)^2 rounds past a^2 b^2 by some ulp, which an absolute 1e-15 refused at large scales
        rng = np.random.default_rng(5)
        for a, b in rng.standard_normal((200, 2)) * 10.0 ** rng.uniform(-20, 20, (200, 1)):
            CovarianceSpec(a * a, b * b, a * b)

    @pytest.mark.parametrize("spec", [CovarianceSpec(0.5, 0.5, 0.0), CovarianceSpec(1.0, 0.0, 0.0),
                                      CovarianceSpec(2.0, 0.5, 0.6)], ids=["isotropic", "real", "correlated"])
    def test_moments_are_the_complex_gram(self, spec):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((300, 5)) + 1j * rng.standard_normal((300, 5))
        h, p = spec.moments(w)
        want_h = spec.second_moment * w.T @ w.conj()
        want_p = spec.pseudo_moment * w.T @ w
        assert np.abs(h - want_h).max() <= 1e-13 * np.abs(want_h).max()
        assert np.abs(p - want_p).max() <= 1e-13 * np.abs(want_p).max()

    def test_pseudo_moment(self):
        assert CovarianceSpec(2.0, 0.5, 0.6).pseudo_moment == 1.5 + 1.2j
        assert CovarianceSpec(0.5, 0.5, 0.0).pseudo_moment == 0


class TestImpliedCovariance:
    def test_rademacher(self):
        spec = implied_covariance(CoefficientModel.rademacher())
        assert (spec.sigma1_sq, spec.sigma2_sq, spec.rho) == (1.0, 0.0, 0.0)

    def test_gauss_complex_isotropic(self):
        spec = implied_covariance(CoefficientModel.gauss_complex())
        assert (spec.sigma1_sq, spec.sigma2_sq, spec.rho) == (0.5, 0.5, 0.0)

    def test_circle_by_direct_integration(self):
        # oracle: moments of (cos U, sin U) for U uniform on [0, 2 pi)
        var_cos = integrate.quad(lambda t: math.cos(t) ** 2 / (2 * math.pi), 0, 2 * math.pi)[0]
        var_sin = integrate.quad(lambda t: math.sin(t) ** 2 / (2 * math.pi), 0, 2 * math.pi)[0]
        cross = integrate.quad(lambda t: math.sin(t) * math.cos(t) / (2 * math.pi), 0, 2 * math.pi)[0]
        spec = implied_covariance(CoefficientModel.circle())
        assert spec.sigma1_sq == pytest.approx(var_cos, abs=1e-12)
        assert spec.sigma2_sq == pytest.approx(var_sin, abs=1e-12)
        assert spec.rho == pytest.approx(cross, abs=1e-12)

    def test_two_point_matches_hand_computation(self):
        model = CoefficientModel.two_point(2.0, p=0.5)  # atoms +2 and -2
        spec = implied_covariance(model)
        assert spec.sigma1_sq == pytest.approx(4.0)
        assert spec.sigma2_sq == 0.0

    @pytest.mark.parametrize("model, cov", LAW_TABLE)
    def test_table_of_laws(self, model, cov):
        # the closed-form covariance, and is_real exactly when the drawn theta is identically zero
        spec = implied_covariance(model)
        np.testing.assert_allclose((spec.sigma1_sq, spec.sigma2_sq, spec.rho), cov, rtol=1e-15, atol=1e-15)
        theta = CoefficientStream(model, 3, 0).pairs(1000)[:, 1]
        assert model.is_real == (cov[1] == 0) == bool(np.all(theta == 0))

    def test_table_covers_every_model_name(self):
        assert {param.values[0].kind for param in LAW_TABLE} == set(MODEL_NAMES)

    def test_every_model_is_centered_and_valid(self):
        for model in ALL_MODELS:
            spec = implied_covariance(model)  # constructor re-validates invariants
            assert spec.second_moment > 0


class TestTwoPointValidation:
    def test_non_centered_atoms_rejected(self):
        with pytest.raises(ArgumentError):
            CoefficientModel("two-point", (1.0, 0.0, 1.0, 0.0, 0.5))

    @pytest.mark.parametrize("scale", [1e-13, 1.0, 1e13])
    def test_equal_atoms_rejected_at_any_scale(self, scale):
        # an absolute 1e-12 accepted the mean 1e-13 of two atoms at 1e-13
        with pytest.raises(ArgumentError, match="not centered"):
            CoefficientModel("two-point", (scale, 0.0, scale, 0.0, 0.5))

    @pytest.mark.parametrize("point", [1e-7, 1e5, 1e7 * (1 + 0.5j)])
    def test_centered_by_construction_at_any_scale(self, point):
        # at point 1e5 an absolute 1e-12 refused 51 of these 99 laws, whose means round to a few 1e-12
        for p in np.arange(1, 100) / 100:
            implied_covariance(CoefficientModel.two_point(point, float(p)))

    @pytest.mark.parametrize("point", [1.0 + 1e-170j, 1e-170 + 1.0j])
    def test_variance_that_underflows_rejected(self, point):
        # Var theta (or Var eta) would read 0 while theta (or eta) is not identically 0
        with pytest.raises(ArgumentError, match="underflows"):
            CoefficientModel.two_point(point, 0.5)

    def test_bad_probability_rejected(self):
        with pytest.raises(ArgumentError):
            CoefficientModel.two_point(1.0, p=1.0)


class TestCovarianceSqrt:
    def test_identity(self):
        np.testing.assert_allclose(covariance_sqrt(CovarianceSpec(1.0, 1.0, 0.0)), np.eye(2), atol=1e-15)

    def test_diagonal(self):
        np.testing.assert_allclose(
            covariance_sqrt(CovarianceSpec(4.0, 1.0, 0.0)), np.diag([2.0, 1.0]), atol=1e-15
        )

    def test_correlated_reconstruction(self):
        m = covariance_sqrt(CovarianceSpec(1.0, 1.0, 0.5))
        np.testing.assert_allclose(m @ m, [[1.0, 0.5], [0.5, 1.0]], atol=1e-14)

    @given(
        s1=st.floats(0.01, 50.0),
        s2=st.floats(0.01, 50.0),
        frac=st.floats(-0.999, 0.999),
    )
    @settings(max_examples=100, deadline=None)
    def test_square_root_property(self, s1, s2, frac):
        spec = CovarianceSpec(s1, s2, frac * math.sqrt(s1 * s2))
        m = covariance_sqrt(spec)
        np.testing.assert_allclose(m, m.T, atol=1e-13)
        assert np.linalg.eigvalsh(m).min() >= -1e-12
        c = spec.as_matrix()
        assert np.linalg.norm(m @ m - c, ord="fro") <= 1e-14 * np.linalg.norm(c, ord="fro")


class TestStreams:
    def test_bitwise_repeatability(self):
        st_ = CoefficientStream(CoefficientModel.circle(), 123, 5)
        a = st_.pairs(1000)
        b = st_.pairs(1000)
        assert np.array_equal(a, b)

    def test_prefix_consistency(self):
        # the first k of 2k draws are the k draws, so samplers with different head_n share their head
        for model in ALL_MODELS:
            st_ = CoefficientStream(model, 99, 1)
            assert np.array_equal(st_.pairs(500), st_.pairs(1000)[:500])
            assert np.array_equal(st_.tail_normals(500), st_.tail_normals(1000)[:500])

    def test_streams_differ_across_replicates_and_seeds(self):
        m = CoefficientModel.gauss_real()
        base = CoefficientStream(m, 7, 0).pairs(64)
        assert not np.array_equal(base, CoefficientStream(m, 7, 1).pairs(64))
        assert not np.array_equal(base, CoefficientStream(m, 8, 0).pairs(64))

    def test_negative_count_rejected(self):
        with pytest.raises(ArgumentError):
            CoefficientStream(CoefficientModel.rademacher(), 1, 0).pairs(-1)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ArgumentError):
            CoefficientStream(CoefficientModel.rademacher(), 1, -1)

    def test_rademacher_mean_bound(self):
        # CLT band: |mean| < 4/sqrt(n) with large margin for the shipped seed
        pairs = CoefficientStream(CoefficientModel.rademacher(), 20260808, 0).pairs(10 ** 6)
        assert abs(pairs[:, 0].mean()) < 0.004
        assert np.all(pairs[:, 1] == 0)

    def test_circle_support(self):
        pairs = CoefficientStream(CoefficientModel.circle(), 4, 2).pairs(10 ** 5)
        np.testing.assert_allclose(pairs[:, 0] ** 2 + pairs[:, 1] ** 2, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_empirical_covariance_converges(self, model):
        n = 10 ** 6
        pairs = CoefficientStream(model, 20260808, 3).pairs(n)
        emp = pairs.T @ pairs / n
        spec = implied_covariance(model)
        # 5 / sqrt(n) times a generous fourth-moment bound
        tol = 5.0 / math.sqrt(n) * 4.0
        assert np.linalg.norm(emp - spec.as_matrix(), ord="fro") < tol

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_bulk_draws_share_the_law(self, model):
        # bulk generator path: same first and second moments
        gen = CoefficientStream(model, 11, 0).bulk_generator()
        pairs = draw_pairs_bulk(model, gen, 200_000)
        spec = implied_covariance(model)
        emp = pairs.T @ pairs / len(pairs)
        assert np.linalg.norm(emp - spec.as_matrix(), ord="fro") < 0.02
        assert abs(pairs.mean(axis=0)).max() < 0.02

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: m.kind)
    def test_draws_are_pinned(self, model):
        # sha256 of the raw float64 bytes: both stream APIs must keep drawing
        # bit for bit the same values, whatever the code that writes the laws
        stream = CoefficientStream(model, 20260808, 3)
        want_pairs, want_bulk = PINNED_DRAWS[model.kind]
        assert hashlib.sha256(stream.pairs(4096).tobytes()).hexdigest() == want_pairs
        bulk = draw_pairs_bulk(model, stream.bulk_generator(), 4096)
        assert hashlib.sha256(bulk.tobytes()).hexdigest() == want_bulk
        assert hashlib.sha256(stream.tail_normals(4096).tobytes()).hexdigest() == PINNED_TAIL_NORMALS


    def test_top_philox_word_stays_inside_the_unit_interval(self):
        # the top word's 53 mantissa bits would round up to exactly 1.0, whose normal is +inf
        words = np.full((1, 4), (1 << 64) - 1, dtype=np.uint64)
        assert _from_words(words, "uniform", 2).max() < 1.0
        assert np.all(np.isfinite(_from_words(words, "normal", 2)))


REAL_MODELS = [
    CoefficientModel.rademacher(),
    CoefficientModel.gauss_real(),
    CoefficientModel.two_point(-1.5, p=0.3),
]


class TestDrawEtaBulk:
    @pytest.mark.parametrize("count", [0, 1, 4097])
    @pytest.mark.parametrize("model", REAL_MODELS, ids=lambda m: m.kind)
    def test_equals_the_eta_column_of_the_pairs(self, model, count):
        stream = CoefficientStream(model, 20260808, 3)
        gen_eta, gen_pairs = stream.bulk_generator(), stream.bulk_generator()
        eta = draw_eta_bulk(model, gen_eta, count)
        pairs = draw_pairs_bulk(model, gen_pairs, count)
        assert eta.dtype == np.float64 and eta.shape == (count,) and eta.flags.c_contiguous
        assert eta.tobytes() == np.ascontiguousarray(pairs[:, 0]).tobytes()
        assert np.all(pairs[:, 1] == 0.0)
        # the generators end in the same state
        assert gen_eta.standard_normal(8).tobytes() == gen_pairs.standard_normal(8).tobytes()

    def test_real_two_point_pairs_keep_the_sign_of_theta(self):
        # the atoms are 2 + 0j and -0.5 - 0j: theta is -0.0 exactly where eta is negative
        model = CoefficientModel.two_point(1.0, 0.2)
        stream = CoefficientStream(model, 9, 1)
        for pairs in (stream.pairs(4096), draw_pairs_bulk(model, stream.bulk_generator(), 4096)):
            assert np.all(pairs[:, 1] == 0.0)
            assert np.array_equal(np.signbit(pairs[:, 1]), pairs[:, 0] < 0)
            assert 0 < np.signbit(pairs[:, 1]).sum() < 4096

    @pytest.mark.parametrize(
        "model",
        [CoefficientModel.gauss_complex(), CoefficientModel.circle(), CoefficientModel.two_point(1.0 + 0.5j, p=0.2)],
        ids=lambda m: m.kind,
    )
    def test_rejects_complex_models(self, model):
        with pytest.raises(ArgumentError):
            draw_eta_bulk(model, CoefficientStream(model, 1).bulk_generator(), 16)

    @pytest.mark.parametrize(
        "model, bound",
        [(CoefficientModel.rademacher(), 2.1), (CoefficientModel.gauss_real(), 1.1),
         (CoefficientModel.two_point(1.0, 0.2), 2.1)],
        ids=["rademacher", "gauss-real", "two-point"],
    )
    def test_peak_memory(self, model, bound):
        # the pair path peaks at 3 vectors of the count on every model; a two-point
        # eta that also built its theta would peak at about 3.1
        count = 65535
        gen = CoefficientStream(model, 5).bulk_generator()
        tracemalloc.start()
        try:
            draw_eta_bulk(model, gen, count)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * count


def _full_state(gen):
    """The bit generator's whole state, arrays as lists, so that two states compare with ==."""
    state = gen.bit_generator.state
    return {
        **state,
        "state": {name: value.tolist() for name, value in state["state"].items()},
        "buffer": state["buffer"].tolist(),
    }


SIGN_COUNTS = [0, 1, 2, 3, 64, 65535, 99_999]


class TestSignDraws:
    """Rademacher bulk draws read Philox words directly and must stay ``integers(0, 2)``, value and end state."""

    @staticmethod
    def pair(key):
        return [CoefficientStream(CoefficientModel.rademacher(), key, 2).bulk_generator() for _ in range(2)]

    @staticmethod
    def check(gen_signs, gen_integers, count):
        signs = draw_eta_bulk(CoefficientModel.rademacher(), gen_signs, count)
        want = gen_integers.integers(0, 2, size=count) * 2.0 - 1.0
        assert signs.shape == (count,) and signs.tobytes() == want.tobytes()
        assert _full_state(gen_signs) == _full_state(gen_integers)

    @pytest.mark.parametrize("count", SIGN_COUNTS)
    def test_fresh_generator(self, count):
        self.check(*self.pair(31), count)

    @pytest.mark.parametrize("count", SIGN_COUNTS)
    def test_after_an_odd_integers_call(self, count):
        # the odd call leaves the high half of its last word kept: it is the first sign
        gen_signs, gen_integers = self.pair(32)
        for gen in (gen_signs, gen_integers):
            gen.integers(0, 2, size=7)
        assert gen_signs.bit_generator.state["has_uint32"] == 1
        self.check(gen_signs, gen_integers, count)

    def test_interleaved_with_normals(self):
        # the kept half survives standard_normal, which reads whole words
        gen_signs, gen_integers = self.pair(33)
        for count in [3, *SIGN_COUNTS, 5, 1, 1, 2, 65535]:
            self.check(gen_signs, gen_integers, count)
            normals = [gen.standard_normal(count % 5 + 1) for gen in (gen_signs, gen_integers)]
            assert normals[0].tobytes() == normals[1].tobytes()
            assert _full_state(gen_signs) == _full_state(gen_integers)

    def test_random_keys_counts_and_interleavings(self):
        # any order of sign draws, odd and even integers calls and normals keeps the two generators in step
        plan = np.random.default_rng(20261021)
        for _ in range(300):
            key = [int(k) for k in plan.integers(0, 2 ** 63, size=2)]
            gen_signs, gen_integers = (np.random.Generator(np.random.Philox(key=key)) for _ in range(2))
            for _ in range(int(plan.integers(1, 7))):
                count = int(plan.choice([0, 1, 2, 3, 65535, int(plan.integers(0, 65536))]))
                step = int(plan.integers(0, 3))
                if step == 0:
                    self.check(gen_signs, gen_integers, count)
                    continue
                if step == 1:
                    draws = [gen.integers(0, 2, size=count % 9) for gen in (gen_signs, gen_integers)]
                else:
                    draws = [gen.standard_normal(count % 5) for gen in (gen_signs, gen_integers)]
                assert draws[0].tobytes() == draws[1].tobytes()
                assert _full_state(gen_signs) == _full_state(gen_integers)

    def test_refuses_other_bit_generators(self):
        with pytest.raises(ArgumentError, match="PCG64"):
            draw_eta_bulk(CoefficientModel.rademacher(), np.random.Generator(np.random.PCG64(1)), 16)


# (pairs(4096), draw_pairs_bulk(..., 4096)) of CoefficientStream(model, 20260808, 3)
PINNED_DRAWS = {
    "rademacher": (
        "6323cd21229fb5d879d5aa91e9d22432ad86b6b9347ac1d2be453c1c4e6ae3b2",
        "4803dd894906ee4f8fcb7f21dacff0505797c79a4a84c9d3353a361f9f32b990",
    ),
    "gauss-real": (
        "be1b0df89bfb7e609d4b4973d11bde12f9a6183d01cf38e85d1acfa9130f7834",
        "5b145ebaebc211f4bab7c782de535aa6291ac64b222e04aaff00206aeb92bc6f",
    ),
    "gauss-complex": (
        "053f95d2ad6045d2bfbf297b2ace3f2c83b24e41854d4c7e1f4528e29cfed7b2",
        "cf35a3d6a6e149a7a0f0921d43148267a71dbe229b12104329f796b80351e40c",
    ),
    "circle": (
        "14cd50013bdac1da0c77612ce5e57ad8381799eaf7ed0901d38a83393feb816f",
        "36194abe2236df8d1a4b8d4b2849a501627e0c1a68b209c54d78880eb2d553e3",
    ),
    "two-point": (
        "9e954d9a5f319d7ab98d2735d05e13777c985ea790836b2925c696b6b3d4ec99",
        "8fbc824b49eb2839adeb1169ab6ed09c4db457e702f8348fff1dd316f347dac9",
    ),
}
PINNED_TAIL_NORMALS = "8ed9d1ff2322829d741d2f44b20db1e7eb7c20bde82a9205c79e364db9bcfbc5"
