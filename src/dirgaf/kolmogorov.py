"""Two-sided one-sample Kolmogorov-Smirnov test against N(0, 1), without ``scipy.stats``.

:func:`ks_norm_test` returns the statistic and p-value that
``scipy.stats.kstest(values, "norm")`` returns, bit for bit, for samples of
more than 140 values.  It loads no scipy module for a p-value above about
0.03: the normal CDF is :func:`ndtr`, a numpy port of Cephes', and only the
tail branches import ``scipy.special.smirnov``, when called.  Importing
``scipy.stats`` costs about 0.9 s of interpreter start-up, and
``scipy.special`` 135-200 ms.

The p-value is the exact P(D_n >= d), by the method choice of Simard and
L'Ecuyer, "Computing the Two-Sided Kolmogorov-Smirnov Distribution", J. Stat.
Softw. 39(11), 2011, for n > 140: the Ruben-Gambino closed forms at both ends
of the range of d, twice the one-sided Smirnov tail for large d, and otherwise
one minus the CDF, from Durbin's matrix power as Marsaglia, Tsang and Wang
evaluate it (J. Stat. Softw. 8(18), 2003) or from the Pelz-Good expansion
(J. R. Stat. Soc. B 38(2), 1976).  Pomeranz's recursion, which scipy uses for
n <= 140 only, is not ported, so smaller samples are refused.

The code below is ported from ``scipy/stats/_ksstats.py`` and
``scipy/stats/_stats_py.py`` of scipy 1.17 with the same numpy operations on
the same types in the same order, the long-double scaling by 2^128 included:
the equality with scipy rests on that.  The statistic even enters the p-value
as a 0-d array, as in scipy: with numpy 2.4 on an AVX-512 x86-64 machine,
``scalar ** 1.5`` and ``array ** 1.5`` differ in the last bit for about 5 % of
arguments.  :func:`ndtr` is ported from Cephes (S. L. Moshier, *Methods and
Programs for Mathematical Functions*, 1989), whose C code scipy 1.17 runs,
and equals ``scipy.special.ndtr`` bit for bit.
"""

# The ported code is covered by scipy's licence:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.

from __future__ import annotations

import math

import numpy as np

from .errors import ArgumentError, require_finite

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# B_2j / (2j (2j - 1)) for j = 8, ..., 1, B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


# Cephes' erfc on [1, 8): P(x) / Q(x), Q monic
_ERFC_P = [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2]
_ERFC_Q = [1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2]
# Cephes' erfc on [8, inf): R(x) / S(x), S monic
_ERFC_R = [5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0]
_ERFC_S = [2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0]
# Cephes' erf on [-1, 1]: x T(x^2) / U(x^2), U monic
_ERF_T = [9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4]
_ERF_U = [3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4]
_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX): exp(-x^2) underflows beyond x = sqrt(_MAXLOG)
_SQRT1_2 = np.sqrt(0.5)


def _horner(x: np.ndarray, coeffs: list, monic: bool = False) -> np.ndarray:
    """Cephes' ``polevl`` (``p1evl`` when ``monic``, with a leading coefficient 1 left out)."""
    y = x + coeffs[0] if monic else np.full_like(x, coeffs[0])
    for c in coeffs[1:]:
        y = y * x + c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """Cephes' ``erf`` for |x| <= 1."""
    z = x * x
    return x * _horner(z, _ERF_T) / _horner(z, _ERF_U, monic=True)


def _erfc(x: np.ndarray) -> np.ndarray:
    """Cephes' ``erfc`` for x >= 0 (or NaN), 0 where exp(-x^2) underflows."""
    y = np.zeros_like(x)
    small = x < 1.0
    y[small] = 1.0 - _erf(x[small])
    with np.errstate(over="ignore"):  # x^2 is inf beyond x = 1.3e154: an underflow, as below
        z = -x * x
    near = ~small & (x < 8.0)
    far = ~(x < 8.0) & ~(z < -_MAXLOG)
    for sel, num, den in ((near, _ERFC_P, _ERFC_Q), (far, _ERFC_R, _ERFC_S)):
        # libm's exp, as Cephes calls it: numpy's SIMD exp differs from it in the last bit for some arguments
        e = np.array([math.exp(v) for v in z[sel].tolist()])
        y[sel] = e * _horner(x[sel], num) / _horner(x[sel], den, monic=True)
    return y


def ndtr(a) -> np.ndarray:
    """The standard normal CDF of each entry of ``a``, as a float64 array: ``scipy.special.ndtr``, bit for bit."""
    x = np.asarray(a, dtype=np.float64) * _SQRT1_2
    z = np.abs(x)
    y = np.empty_like(x)
    inner = z < _SQRT1_2
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    outer = ~inner
    half_tail = 0.5 * _erfc(z[outer])
    y[outer] = np.where(x[outer] > 0, 1.0 - half_tail, half_tail)
    return y


def smirnov(n: int, x):
    """``scipy.special.smirnov``, imported when called: only the p-value's tail branches need it."""
    from scipy.special import smirnov as scipy_smirnov

    return scipy_smirnov(n, x)


def ks_norm_test(values) -> tuple[float, float]:
    """KS statistic and two-sided p-value of ``values`` against N(0, 1), as ``scipy.stats.kstest(values, "norm")``.

    Raises ArgumentError for 140 values or fewer, and for a value that is not finite.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    if n <= 140:
        raise ArgumentError(f"the KS test needs more than 140 values, got {n}")
    require_finite("a KS test value", x)
    cdfvals = ndtr(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    d = d_plus if d_plus > d_minus else d_minus
    return float(d), float(_kolmogorov_sf(n, d))


def _kolmogorov_sf(n: int, d: float) -> float | np.floating:
    """P(D_n >= d) for n > 140: scipy's ``_kolmogn(n, d, cdf=False)``, branch for branch."""
    x = np.asarray(d, dtype=np.float64)  # as kstwo.sf hands it over: ``x ** 1.5`` rounds as on an array
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return np.clip(1.0 - prob, 0.0, 1.0)
    if t >= n - 1:  # Ruben-Gambino
        return np.clip(2 * (1.0 - x) ** n, 0.0, 1.0)
    if x >= 0.5:  # exact: 2 * smirnov
        return np.clip(2 * smirnov(n, x), 0.0, 1.0)
    nxsquared = t * x
    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return np.clip(2 * smirnov(n, x), 0.0, 1.0)
    if n <= 100000 and n * x ** 1.5 <= 1.4:
        cdfprob = _durbin_cdf(n, x)
    else:
        cdfprob = _pelz_good_cdf(n, x)
    return np.clip(1.0 - cdfprob, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n: int):
    # log(n! / n^n) by Stirling's series, with n log(n) removed up front
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _durbin_cdf(n: int, d: np.ndarray):
    """P(D_n <= d) for 1/n < d < 1, by the Marsaglia-Tsang-Wang evaluation of Durbin's matrix.

    With d = (k - h)/n, k a positive integer and 0 <= h < 1, it is the k-th
    diagonal entry of (n!/n^n) H^n for an m x m matrix H, m = 2k - 1, with
    intermediate results rescaled by 2^128.
    """
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and reversed last row) of H:
    # v[j] = (1 - h^(j+1)) / (j+1)! except v[-1]; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # may underflow, harmlessly
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # intermediate powers of H
    nn = n
    expnt = 0  # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # times n!/n^n; p turns long double at the first rescaling
    for i in range(1, n + 1):
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return np.clip(p, 0.0, 1.0)


def _pelz_good_cdf(n: int, x: np.ndarray):
    """Pelz-Good approximation to P(D_n <= x) for 0 < x < 1.

    The Li-Chien/Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n^1.5 in z = x sqrt(n), each K_i rewritten through Jacobi theta
    functions into a form that converges fast for small z.
    """
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0

    q = np.exp(qlog)

    # coefficients of the terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2) over odd i
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # the terms over all integers k, added directly:
    # K2: (pi^2 k^2) q^(k^2), K3: (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)
