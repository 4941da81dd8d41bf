"""Extremal series, Alexander relation, and Koebe radii."""

import dataclasses
import math

import numpy as np
import pytest

from bohrad import catalog, extremal
from bohrad.extremal import (
    QuadratureError,
    build_extremal_pair,
    build_f0,
    build_l0,
    koebe_radius,
    koebe_radius_quadrature,
)

CATALOG_LABELS = [
    "classical-starlike",
    "cardioid",
    "zexpz",
    "booth",
    "sine",
    "alpha:0.25",
    "janowski:D=0.5,E=-0.5",
    "janowski:D=1,E=0",
]


# -- f0 ---------------------------------------------------------------------


def dense(spec):
    """The entry without its catalog coefficients: build_f0 then runs the
    dense recurrence on psi's series."""
    return dataclasses.replace(spec, f0_coeff_fn=None)


def test_classical_f0_is_koebe():
    f0 = build_f0(catalog.classical_starlike(), 32)
    np.testing.assert_allclose(f0.coeffs, np.arange(33, dtype=float), rtol=1e-13)


def test_cardioid_low_coefficients():
    f0 = build_f0(catalog.cardioid(), 8)
    assert f0.coeffs[1] == 1.0
    assert f0.coeffs[2] == pytest.approx(4 / 3, rel=1e-15)
    assert f0.coeffs[3] == pytest.approx(11 / 9, rel=1e-15)
    assert f0.coeffs[4] == pytest.approx(68 / 81, rel=1e-14)


def test_zexpz_coefficients_are_bell_ratios():
    order = 20
    f0 = build_f0(catalog.z_exp_z(), order)
    bells = catalog.bell_numbers(order)
    expected = [0.0] + [bells[n - 1] / math.factorial(n - 1) for n in range(1, order + 1)]
    np.testing.assert_allclose(f0.coeffs, expected, rtol=1e-12)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_recurrence_and_integral_paths_agree(label):
    spec = catalog.parse_psi(label)
    rec = build_f0(spec, 64, method="recurrence")
    integ = build_f0(spec, 64, method="integral")
    scale = np.maximum(np.abs(rec.coeffs), 1e-30)
    assert np.max(np.abs(rec.coeffs - integ.coeffs) / scale) < 1e-11


@pytest.mark.parametrize("order", [64, 256])
@pytest.mark.parametrize("label", catalog.named_labels() + [
    "alpha:0.25", "janowski:D=0.5,E=-0.5", "janowski:D=1,E=0", "janowski:D=0.8,E=0.65",
    "booth:k=1.6",
])
def test_recurrence_is_bitwise_the_reversed_slice_loop(label, order):
    # Reference loop, reversing a slice of c at every step: the dense
    # recurrence must take the same products in the same order.
    spec = dense(catalog.parse_psi(label))
    c = spec.series(order).coeffs
    t = np.zeros(order + 1)
    t[1] = 1.0
    for n in range(2, order + 1):
        t[n] = np.dot(c[1:n][::-1], t[1:n]) / (n - 1)
    assert np.array_equal(build_f0(spec, order).coeffs, t)


# The Janowski grid of the closed coefficients: E < 0, E = 0 and E > 0,
# D = 0 and D < 0, and D = 2E, where D - kE = 0 at k = 2 ends the series.
CLOSED_F0_LABELS = [
    f"janowski:D={d:g},E={e:g}"
    for d, e in ((1, -1), (0.5, -0.5), (0.3, -0.9), (-0.3, -0.6), (0, -0.6), (1, 0),
                 (0.25, 0), (0.8, 0.65), (0.4, 0.2))
] + ["alpha:0.25"]


@pytest.mark.parametrize("order", [64, 256, 1024])
@pytest.mark.parametrize("label", CLOSED_F0_LABELS)
def test_closed_coefficients_against_mpmath_and_the_dense_recurrence(label, order):
    import mpmath

    spec = catalog.parse_psi(label)
    closed = build_f0(spec, order).coeffs
    # t_{k+1} = t_k (D - kE)/k at 40 digits, from the same double D and E.
    with mpmath.workdps(40):
        d, e = mpmath.mpf(spec.params["D"]), mpmath.mpf(spec.params["E"])
        want = [mpmath.mpf(0), mpmath.mpf(1)]
        for k in range(1, order):
            want.append(want[-1] * (d - k * e) / k)
        tiny = np.finfo(float).tiny
        for n, (got, exact) in enumerate(zip(closed, want)):
            if abs(exact) >= tiny:
                assert abs(mpmath.mpf(float(got)) - exact) <= 1e-13 * abs(exact), (n, got)
            else:
                # Past the normal range the double has underflowed too;
                # an exact zero stays exactly zero.
                assert abs(got) < tiny and (got == 0.0 or exact != 0), (n, got)
    np.testing.assert_allclose(build_f0(dense(spec), order).coeffs, closed, rtol=1e-13,
                               atol=1e-16 * np.max(np.abs(closed)))


def test_closed_coefficients_keep_the_classical_extremals_exact():
    f0 = build_f0(catalog.classical_starlike(), 1024)
    assert np.array_equal(f0.coeffs, np.arange(1025.0))
    l0 = build_l0(build_f0(catalog.classical_convex(), 1024))
    assert np.array_equal(l0.coeffs[1:], np.ones(1024))


def test_terminating_janowski_has_exact_zeros():
    # D = 2E: f0 = z (1 + Ez) = z + 0.2 z^2.
    f0 = build_f0(catalog.parse_psi("janowski:D=0.4,E=0.2"), 256).coeffs
    assert f0[:3].tolist() == [0.0, 1.0, 0.2]
    assert np.all(f0[3:] == 0.0)


def test_janowski_pair_never_reaches_the_psi_series(monkeypatch):
    def no_series(psi, order):
        raise AssertionError(f"the dense recurrence ran for {psi.label}")

    monkeypatch.setattr(catalog.PsiSpec, "series", no_series)
    for label in ("classical-starlike", "classical-convex", "alpha:0.25",
                  "janowski:D=0.5,E=-0.5", "janowski:D=1,E=0", "janowski:D=0.8,E=0.65"):
        spec = catalog.parse_psi(label)
        pair = build_extremal_pair(spec, 64)
        assert np.array_equal(pair.f0.coeffs, spec.f0_coeff_fn(64))
    with pytest.raises(AssertionError, match="dense recurrence ran for cardioid"):
        build_extremal_pair(catalog.cardioid(), 64)


@pytest.mark.parametrize("label", ["cardioid", "classical-starlike"])
@pytest.mark.parametrize("order", [0, -3])
def test_order_below_1_is_rejected_on_both_paths(label, order):
    with pytest.raises(ValueError, match="order must be at least 1"):
        build_f0(catalog.parse_psi(label), order)


def test_f0_normalization():
    for label in CATALOG_LABELS:
        f0 = build_f0(catalog.parse_psi(label), 16)
        assert f0.coeffs[0] == 0.0
        assert f0.coeffs[1] == 1.0


def test_unknown_method():
    with pytest.raises(ValueError):
        build_f0(catalog.cardioid(), 8, method="magic")


# -- l0 and the Alexander relation -------------------------------------------


def test_classical_l0_is_half_plane_map():
    # l0 = z/(1-z): all coefficients 1 from index 1 on.
    l0 = build_l0(build_f0(catalog.classical_starlike(), 24))
    np.testing.assert_allclose(l0.coeffs[1:], np.ones(24), rtol=1e-13)


def test_cardioid_l0_low_coefficients():
    l0 = build_l0(build_f0(catalog.cardioid(), 8))
    assert l0.coeffs[2] == pytest.approx(2 / 3, rel=1e-15)
    assert l0.coeffs[3] == pytest.approx(11 / 27, rel=1e-15)


def test_zexpz_l0_coefficients():
    order = 12
    l0 = build_l0(build_f0(catalog.z_exp_z(), order))
    bells = catalog.bell_numbers(order)
    for n in range(order):
        expected = bells[n] / (math.factorial(n) * (n + 1))
        assert l0.coeffs[n + 1] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_alexander_relation_exact(label):
    f0 = build_f0(catalog.parse_psi(label), 48)
    l0 = build_l0(f0)
    n = np.arange(1, 49)
    np.testing.assert_allclose(n * l0.coeffs[1:], f0.coeffs[1:], rtol=2e-16, atol=0)


# -- coefficient equality for the Janowski family -----------------------------


@pytest.mark.parametrize("de", [(1.0, -1.0), (0.5, -0.5), (1.0, 0.0), (0.5, 0.0),
                                (0.75, 0.25)])
def test_janowski_extremal_attains_coefficient_bound(de):
    # The dense recurrence on psi's series, checked against the bound product.
    d, e = de
    f0 = build_f0(dense(catalog.janowski(d, e)), 24)
    for n in range(2, 21):
        bound = catalog.janowski_coeff_bound(d, e, n)
        assert abs(f0.coeffs[n]) == pytest.approx(bound, rel=1e-11, abs=1e-30)


# -- Koebe radii ---------------------------------------------------------------


def test_classical_koebe_quarter():
    assert koebe_radius(catalog.classical_starlike()) == pytest.approx(0.25)
    assert koebe_radius_quadrature(catalog.classical_starlike()) == pytest.approx(
        0.25, abs=1e-9
    )


def test_cardioid_koebe():
    assert koebe_radius_quadrature(catalog.cardioid()) == pytest.approx(
        math.exp(-1.0), abs=1e-9
    )


def test_sine_koebe():
    expected = math.exp(catalog.si(-1.0))
    assert koebe_radius_quadrature(catalog.sine()) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_quadrature_matches_closed_forms(label):
    spec = catalog.parse_psi(label)
    assert koebe_radius_quadrature(spec) == pytest.approx(spec.koebe_closed, abs=1e-9)


def test_convex_koebe_classical_is_half():
    # l0 = z/(1-z) maps the disk onto a half plane at distance 1/2.
    got = koebe_radius_quadrature(catalog.classical_starlike(), "convex")
    assert got == pytest.approx(0.5, abs=1e-9)


def test_koebe_values_in_unit_interval():
    for label in CATALOG_LABELS:
        pair = build_extremal_pair(catalog.parse_psi(label), 32)
        assert 0.0 < pair.koebe_starlike <= 1.0
        assert 0.0 < pair.koebe_convex <= 1.0


def test_unknown_family():
    with pytest.raises(ValueError):
        koebe_radius_quadrature(catalog.cardioid(), "circular")


def janowski_koebe(d, e, family):
    """-f0(-1) = (1-E)^((D-E)/E) and -l0(-1) = (1 - (1-E)^(D/E))/D, with
    their limits e^(-D), (1 - e^(-D))/D at E = 0 and -log(1-E)/E at D = 0."""
    if family == "starlike":
        return math.exp(-d) if e == 0.0 else math.exp((d - e) / e * math.log1p(-e))
    if e == 0.0:
        return -math.expm1(-d) / d
    if d == 0.0:
        return -math.log1p(-e) / e
    return -math.expm1(d / e * math.log1p(-e)) / d


# E near 1 puts the pole of psi at -1/E, next to t = -1; past E = 0.99 the
# plain rules disagree and the graded panels take over.
JANOWSKI_KOEBE_GRID = [
    (d, e)
    for d in (1.0, 0.5, 0.0, -0.5)
    for e in (-1.0, -0.5, 0.0, 0.3, 0.6, 0.9, 0.99, 0.999, 0.99999)
    if e < d
]


@pytest.mark.parametrize("family", ["starlike", "convex"])
@pytest.mark.parametrize("de", JANOWSKI_KOEBE_GRID, ids=lambda de: "D={:g},E={:g}".format(*de))
def test_janowski_koebe_radii_against_closed_forms(de, family):
    got = koebe_radius_quadrature(catalog.janowski(*de), family)
    assert type(got) is float
    assert got == pytest.approx(janowski_koebe(*de, family), rel=1e-13, abs=0.0)


# Janowski entries catalogue -l0(-1) in closed form.  D = 0.001 is where
# (1 - (1-E)^(D/E))/D would cancel and the expm1 form keeps the digits.
CLOSED_CONVEX_GRID = JANOWSKI_KOEBE_GRID + [(0.001, -1.0), (0.001, -0.5), (0.001, 0.0)]


def test_janowski_convex_koebe_never_reaches_quadrature(monkeypatch):
    def no_quadrature(psi, family="starlike"):
        raise AssertionError(f"quadrature for {psi.label} ({family})")

    monkeypatch.setattr(extremal, "koebe_radius_quadrature", no_quadrature)
    for label in ("classical-convex", "alpha:0.5", "janowski:D=0.25,E=0",
                  "janowski:D=0,E=-0.6", "janowski:D=0.8,E=0.65"):
        spec = catalog.parse_psi(label)
        pair = build_extremal_pair(spec, 16)
        assert pair.koebe_convex == koebe_radius(spec, "convex")
    for d, e in CLOSED_CONVEX_GRID:
        want = janowski_koebe(d, e, "convex")
        got = koebe_radius(catalog.janowski(d, e), "convex")
        assert abs(got - want) <= 2 * math.ulp(want), (d, e, got, want)
    assert koebe_radius(catalog.classical_convex(), "convex") == 0.5


# koebe_radius_quadrature's values as repr: how the rules are cut into
# outer panels must not move a bit.
QUADRATURE_PINS = {
    "cardioid": (0.3678794411714424, 0.5986912298550321),
    "zexpz": (0.5314636053866157, 0.7038344231538607),
    "booth": (0.5099690078517072, 0.6935792104753029),
    "sine": (0.3882588314625181, 0.6384220393527346),
    "janowski:D=1,E=0.99": (0.954548456661834, 0.9904545154333815),
    "janowski:D=1,E=0.99999": (0.9998848762212975, 0.9999900011512377),
}


@pytest.mark.parametrize("label", QUADRATURE_PINS)
def test_quadrature_is_pinned_bitwise(label):
    spec = catalog.parse_psi(label)
    for family, want in zip(("starlike", "convex"), QUADRATURE_PINS[label]):
        assert repr(koebe_radius_quadrature(spec, family)) == repr(want)


@pytest.mark.parametrize("label", catalog.named_labels() + [
    "alpha:0.25", "janowski:D=0.5,E=-0.5", "janowski:D=0.75,E=0.25", "janowski:D=1,E=0",
    "booth:k=4",
])
def test_psi_eval_on_arrays_matches_scalars(label):
    psi_eval = catalog.parse_psi(label).psi_eval
    t = np.linspace(-1.0, 0.9, 15).reshape(3, 5)
    np.testing.assert_array_equal(psi_eval(t), [[psi_eval(float(x)) for x in row] for row in t])


def test_non_finite_integrand_raises():
    spec = catalog.PsiSpec(label="nan", coeff_fn=lambda order: np.ones(order + 1),
                           psi_eval=lambda t: t * np.nan)
    for family in ("starlike", "convex"):
        with pytest.raises(QuadratureError, match="not finite"):
            koebe_radius_quadrature(spec, family)


def test_divergent_integral_raises():
    # (psi(t)-1)/t = 2/(1+t) has a pole at t = -1 itself, so the starlike
    # integral diverges and no panel grading makes the two rules agree.
    spec = catalog.PsiSpec(label="pole", coeff_fn=lambda order: np.ones(order + 1),
                           psi_eval=lambda t: 1.0 + 2.0 * t / (1.0 + t))
    with pytest.raises(QuadratureError, match="differ"):
        koebe_radius_quadrature(spec, "starlike")
