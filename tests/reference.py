"""Independent routes the tests compare the program against.

None of this is reached by a call into ``bohrad``: each function is a
second way to a value the program computes another way, kept here so
that the comparison stays in the test suite.  The module name matches no
``test_*.py`` pattern, so pytest imports it from the tests' directory
without collecting it.
"""

import numpy as np

from bohrad import catalog
from bohrad.series import TruncatedSeries


def one(order):
    """The constant series 1."""
    return TruncatedSeries([1.0] + [0.0] * order)


def exp(f):
    """exp(f) for a single series f with zero constant term.

    Uses the recurrence from (exp g)' = g' exp g:
    e_0 = 1, e_n = (1/n) sum_{m=1}^{n} m g_m e_{n-m}.
    """
    f._check_single()
    if f.coeffs[0] != 0.0:
        raise ValueError("exp requires zero constant term")
    k = f.order
    weighted = f.coeffs * np.arange(k + 1)
    e = np.zeros(k + 1)
    e[0] = 1.0
    for n in range(1, k + 1):
        e[n] = np.dot(weighted[1 : n + 1], e[n - 1 :: -1]) / n
    return TruncatedSeries(e)


def times_z(f):
    """z f for a single series f: indices shift up by one, the top term drops."""
    f._check_single()
    out = np.zeros(f.order + 1)
    out[1:] = f.coeffs[:-1]
    return TruncatedSeries(out)


def integrate_over_t(f):
    """int_0^z f(t)/t dt for a single series f with zero constant term:
    coefficient n divided by n, the constant 0, as a numpy array division
    (the program states l_n = t_n / n on lists of floats)."""
    f._check_single()
    if f.coeffs[0] != 0.0:
        raise ValueError("integrate_over_t requires zero constant term")
    out = np.zeros(f.order + 1)
    out[1:] = f.coeffs[1:] / np.arange(1, f.order + 1)
    return TruncatedSeries(out)


def integral_f0(psi, order):
    """The starlike extremal f0 = z exp(int_0^z (psi(t)-1)/t dt), from psi's
    series: the route ``build_f0``'s recurrences are checked against."""
    c = psi.series(order).coeffs
    psi_minus_1 = TruncatedSeries(np.concatenate(([0.0], c[1:])))
    return times_z(exp(integrate_over_t(psi_minus_1)))


def janowski_coeff_bound(d, e, n):
    """Sharp coefficient bound prod_{k=0}^{n-2} |E-D+Ek| / (k+1) for n >= 2."""
    catalog._validate_janowski(d, e)
    if n < 2:
        raise ValueError("coefficient bound defined for n >= 2")
    prod = 1.0
    for k in range(n - 1):
        prod *= abs(e - d + e * k) / (k + 1)
    return prod
