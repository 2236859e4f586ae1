import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtri

from dirgaf import kolmogorov
from dirgaf.errors import ArgumentError
from dirgaf.kolmogorov import ks_norm_test

BRANCHES = {
    "_log_nfactorial_div_n_pow_n": "ruben-gambino",
    "_durbin_cdf": "matrix-power",
    "_pelz_good_cdf": "pelz-good",
    "smirnov": "smirnov",
}


def plotting_sample(rng, n, shift):
    """ndtri of the plotting positions (i - 1/2)/n, each jittered by less than 1/(2n), all moved by ``shift``.

    The KS distance is about ``|shift| + 1/(2n)``; at ``shift = 0`` it stays at or below 1/n.
    """
    u = (np.arange(1, n + 1) - 0.5 + rng.uniform(-0.45, 0.45, n)) / n + shift
    return rng.permutation(ndtri(np.clip(u, 1e-300, 1.0 - 1e-16)))


def shifts(n):
    """Shifts whose KS distances fall in every range of the p-value's method choice at this n."""
    pelz_good = (1.4 / n) ** (2 / 3)  # n d^1.5 = 1.4
    smirnov = np.sqrt(2.2 / n)  # n d^2 = 2.2
    zero = np.sqrt(370.0 / n)  # n d^2 = 370
    out = [0.0, 0.3 / n, 1.0 / n, 3.0 / n, -3.0 / n]
    out += [f * pelz_good for f in (0.5, 0.9, 1.1, 1.5)]
    out += [f * smirnov for f in (0.9, 1.1, 2.0, 5.0)]
    out += [0.4, 0.6, -0.6, min(0.49, 1.1 * zero), 0.95, 1.0 - 1.0 / n, -1.0]
    return out


@pytest.fixture
def branch_log(monkeypatch):
    """Names of the p-value methods called since the last clear()."""
    log = []
    for attr, name in BRANCHES.items():
        fn = getattr(kolmogorov, attr)

        def counted(*args, _fn=fn, _name=name):
            log.append(_name)
            return _fn(*args)

        monkeypatch.setattr(kolmogorov, attr, counted)
    return log


def test_equals_scipy_kstest_on_every_branch(branch_log):
    rng = np.random.default_rng(20261019)
    reached = set()
    for n in (500, 1500, 5000):
        for shift in shifts(n):
            values = plotting_sample(rng, n, shift)
            branch_log.clear()
            statistic, p_value = ks_norm_test(values)
            ref = stats.kstest(values, "norm")
            assert (statistic, p_value) == (ref.statistic, ref.pvalue), (n, shift)
            reached.update(branch_log)
            if not branch_log and p_value == 0.0 and 1.0 / n < statistic < 0.5:
                reached.add("zero")  # n d^2 >= 370: no method called
    assert reached == set(BRANCHES.values()) | {"zero"}


def test_equals_scipy_kstest_above_the_matrix_power_range(branch_log):
    # n > 100000: between 1/n and the smirnov range, Pelz-Good alone serves; here d sqrt(n) is about 1
    n = 100_001
    values = plotting_sample(np.random.default_rng(7), n, 1.0 / np.sqrt(n))
    statistic, p_value = ks_norm_test(values)
    ref = stats.kstest(values, "norm")
    assert (statistic, p_value) == (ref.statistic, ref.pvalue)
    assert branch_log == ["pelz-good"]
    assert 0.1 < p_value < 0.9


def test_p_value_equals_kstwo_sf_on_a_grid():
    # kstest's p-value is kstwo.sf(d, n).  The grid catches a float64 in place of the
    # long-double rescaling (8 of 2000 points differ); the points within 3 ulp of
    # n d^1.5 = 1.4 catch a numpy scalar in place of the 0-d array scipy works on (10 of 1813 differ).
    points = [(n, d) for n in (141, 150, 300, 500, 1000) for d in np.geomspace(0.4 / n, 1.0, 400)]
    for n in range(141, 400):
        edge = (1.4 / n) ** (2 / 3)
        points += [(n, edge + k * np.spacing(edge)) for k in range(-3, 4)]
    for n, d in points:
        assert float(kolmogorov._kolmogorov_sf(n, d)) == stats.kstwo.sf(d, n), (n, d)


def test_equals_scipy_kstest_on_normal_draws():
    rng = np.random.default_rng(5)
    for n, scale in ((141, 1.0), (600, 1.1), (2000, 1.0), (20000, 0.98)):
        values = scale * rng.standard_normal(n)
        ref = stats.kstest(values, "norm")
        assert ks_norm_test(values) == (ref.statistic, ref.pvalue)


def test_refuses_small_samples():
    with pytest.raises(ArgumentError, match="got 140"):
        ks_norm_test(np.zeros(140))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_refuses_non_finite_values(bad):
    values = np.random.default_rng(3).standard_normal(500)
    values[17] = bad
    with pytest.raises(ArgumentError, match="KS test value"):
        ks_norm_test(values)
