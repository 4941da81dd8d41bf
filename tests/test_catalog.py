"""Catalog entries: coefficients, closed forms, special functions."""

import math
import warnings

import numpy as np
import pytest
import scipy.special
from numpy.polynomial import polynomial as npoly

from bohrad import catalog
from bohrad.extremal import build_f0
from bohrad.oracle import _dropped_tail

ALL_LABELS = [
    "classical-starlike",
    "classical-convex",
    "cardioid",
    "zexpz",
    "booth",
    "sine",
    "alpha:0.25",
    "janowski:D=0.5,E=-0.5",
    "janowski:D=1,E=0",
    "janowski:D=0.75,E=0.25",
]


# -- psi coefficients ----------------------------------------------------


def test_cardioid_coefficients():
    c = catalog.cardioid().series(4).coeffs
    np.testing.assert_allclose(c, [1.0, 4 / 3, 2 / 3, 0.0, 0.0], rtol=0)


def test_classical_janowski_coefficients():
    c = catalog.janowski(1.0, -1.0).series(3).coeffs
    np.testing.assert_allclose(c, [1.0, 2.0, 2.0, 2.0], rtol=0)


def test_sine_coefficients():
    c = catalog.sine().series(5).coeffs
    np.testing.assert_allclose(c, [1.0, 1.0, 0.0, -1 / 6, 0.0, 1 / 120], rtol=1e-15)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_psi_normalization(label):
    spec = catalog.parse_psi(label)
    c = spec.series(16).coeffs
    assert c[0] == 1.0
    assert c[1] > 0.0


@pytest.mark.parametrize("label", ALL_LABELS)
def test_psi_series_matches_pointwise_evaluator(label):
    spec = catalog.parse_psi(label)
    f = spec.series(64)
    for t in (-0.4, -0.1, 0.2, 0.45):
        assert npoly.polyval(t, f.coeffs) == pytest.approx(spec.psi_eval(t),
                                                           rel=1e-13, abs=1e-13)


# -- closed-form extremal values -----------------------------------------


def test_cardioid_f0_at_minus_one():
    assert catalog.cardioid().f0_closed(-1.0) == pytest.approx(-math.exp(-1.0))


def test_janowski_degenerate_f0_at_minus_one():
    for d in (0.25, 0.5, 1.0):
        spec = catalog.janowski(d, 0.0)
        assert spec.f0_closed(-1.0) == pytest.approx(-math.exp(-d))
        assert spec.koebe_closed == pytest.approx(math.exp(-d))


def test_classical_starlike_f0_is_koebe_function():
    spec = catalog.classical_starlike()
    assert spec.f0_closed(-1.0) == pytest.approx(-0.25)
    assert spec.f0_closed(0.5) == pytest.approx(0.5 / 0.25)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_series_f0_matches_closed_form_within_the_dropped_tail_bound(label):
    # Cross-check: the recurrence-built series against the closed form on a
    # small grid.  The bound on the dropped tail sits far below machine
    # epsilon here, so a rounding cushion is added.
    spec = catalog.parse_psi(label)
    f0 = build_f0(spec, 64)
    for r in (0.1, 0.2, 0.3):
        closed = spec.f0_closed(r)
        assert abs(npoly.polyval(r, f0.coeffs) - closed) <= _dropped_tail(f0, r) + 1e-12


def test_booth_koebe_constant():
    k = 1.0 + math.sqrt(2.0)
    assert catalog.booth().koebe_closed == pytest.approx(math.e * (k / (k + 1)) ** (2 * k))


# -- sine integral --------------------------------------------------------


def test_si_at_zero():
    assert catalog.si(0.0) == 0.0


def test_si_is_odd():
    for x in (0.2, 0.7, 1.0):
        assert catalog.si(-x) == -catalog.si(x)


def test_si_against_scipy():
    for x in (0.1, 0.35, 0.8, 1.0):
        expected = scipy.special.sici(x)[0]
        assert catalog.si(x) == pytest.approx(expected, abs=1e-15)


def test_si_one_reference_value():
    assert catalog.si(1.0) == pytest.approx(0.946083070367183, abs=1e-14)


def test_si_domain():
    with pytest.raises(ValueError):
        catalog.si(1.5)


# -- Bell numbers ----------------------------------------------------------


def test_bell_numbers_small():
    assert catalog.bell_numbers(3) == [1, 1, 2, 5]


def test_bell_number_four():
    assert catalog.bell_numbers(4)[4] == 15


def test_bell_numbers_against_sympy():
    import sympy

    got = catalog.bell_numbers(20)
    expected = [int(sympy.bell(n)) for n in range(21)]
    assert got == expected


def test_bell_numbers_negative():
    with pytest.raises(ValueError):
        catalog.bell_numbers(-1)


# -- Janowski coefficient bounds -------------------------------------------


def test_bound_classical_is_n():
    for n in range(2, 12):
        assert catalog.janowski_coeff_bound(1.0, -1.0, n) == pytest.approx(float(n))


def test_bound_koebe_third_coefficient():
    assert catalog.janowski_coeff_bound(1.0, -1.0, 3) == pytest.approx(3.0)


def test_bound_degenerate_telescopes():
    assert catalog.janowski_coeff_bound(0.5, 0.0, 3) == pytest.approx(1 / 8)
    for n in range(2, 10):
        d = 0.7
        expected = d ** (n - 1) / math.factorial(n - 1)
        assert catalog.janowski_coeff_bound(d, 0.0, n) == pytest.approx(expected, rel=1e-14)


def test_bound_order_alpha_product():
    alpha = 0.3
    for n in range(2, 10):
        prod = 1.0
        for k in range(n - 1):
            prod *= (k + 2 * (1 - alpha)) / (k + 1)
        got = catalog.janowski_coeff_bound(1 - 2 * alpha, -1.0, n)
        assert got == pytest.approx(prod, rel=1e-14)


def test_bound_parameter_validation():
    with pytest.raises(ValueError):
        catalog.janowski_coeff_bound(0.5, 0.6, 3)
    with pytest.raises(ValueError):
        catalog.janowski_coeff_bound(1.0, -1.0, 1)


# -- parameter validation and parsing ---------------------------------------


def test_janowski_parameter_range():
    with pytest.raises(ValueError):
        catalog.janowski(1.2, 0.0)
    with pytest.raises(ValueError):
        catalog.janowski(0.5, 0.5)
    with pytest.raises(ValueError):
        catalog.janowski(0.5, -1.2)


def test_alpha_parameter_range():
    with pytest.raises(ValueError):
        catalog.starlike_alpha(1.0)
    with pytest.raises(ValueError):
        catalog.starlike_alpha(-0.1)


@pytest.mark.parametrize("k", [1.0 + math.sqrt(2.0), 4.0])
def test_booth_builds_at_high_order_without_overflow(k):
    # k^n overflows near n = 709 / log k (n = 805 at the default k); the
    # coefficients that stay finite there keep the plain formula bitwise.
    spec = catalog.booth(k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f0 = build_f0(spec, 1024)
        coeffs = spec.coeff_fn(1024)
    assert np.isfinite(f0.coeffs).all()
    n = np.arange(1, 1024)
    with np.errstate(over="ignore"):
        power = k ** n
    finite = np.isfinite(power)
    assert not finite.all()
    np.testing.assert_array_equal(coeffs[2:][finite], 2.0 / power[finite])
    assert np.all(coeffs[2:][~finite] <= np.finfo(float).tiny)


def test_booth_parameter_range():
    with pytest.raises(ValueError):
        catalog.booth(0.9)


def test_parse_labels_round_trip():
    assert catalog.parse_psi("cardioid").label == "cardioid"
    spec = catalog.parse_psi("janowski:D=0.5,E=-0.5")
    assert spec.params == {"D": 0.5, "E": -0.5}
    assert spec.label == "janowski:D=0.5,E=-0.5"
    assert catalog.parse_psi("alpha:0.25").params["alpha"] == 0.25
    assert catalog.parse_psi("booth:k=2.5").params["k"] == 2.5
    assert catalog.parse_psi("classical-convex").default_family == "convex"


@pytest.mark.parametrize("label", ["janowski:D=1,E=-0.999999999", "alpha:0.1234567",
                                   "booth:k=2.50000001"])
def test_label_keeps_parameters_that_g_format_rounds(label):
    # ":g" shows 6 significant digits: these would print as E=-1, 0.123457
    # and k=2.5, naming another generator.
    spec = catalog.parse_psi(label)
    assert spec.label == label
    assert catalog.parse_psi(spec.label).params == spec.params


def test_parse_rejects_unknown():
    with pytest.raises(ValueError):
        catalog.parse_psi("lemniscate")
    with pytest.raises(ValueError):
        catalog.parse_psi("janowski:D=1")
    # Unknown, repeated and non-finite parameters.
    for label in ("janowski:D=1,E=-1,X=3", "janowski:D=0.5,E=-1,D=1", "booth:k=2,j=5",
                  "booth:k=inf", "booth:k=nan", "booth:k=2,k=3", "booth:K=2"):
        with pytest.raises(ValueError):
            catalog.parse_psi(label)
    # An item that is not exactly one key=value is named as such.
    for label in ("janowski:D,E", "janowski:D=1=2,E=0", "booth:k"):
        with pytest.raises(ValueError, match="each item must be one key=value"):
            catalog.parse_psi(label)
    assert catalog.parse_psi("janowski:E=-0.5,D=0.5").params == {"D": 0.5, "E": -0.5}
