"""Extremal series, Alexander relation, and Koebe radii."""

import functools
import math

import numpy as np
import pytest
import sympy

import reference
from bohrad import catalog, extremal
from bohrad.extremal import (
    QuadratureError,
    build_extremal_pair,
    build_f0,
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
    return spec._replace(f0_coeff_fn=None)


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
    expected = [0.0] + [int(sympy.bell(n - 1)) / math.factorial(n - 1)
                        for n in range(1, order + 1)]
    np.testing.assert_allclose(f0.coeffs, expected, rtol=1e-12)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_recurrence_and_integral_paths_agree(label):
    spec = catalog.parse_psi(label)
    rec = build_f0(spec, 64)
    integ = reference.integral_f0(spec, 64)
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


def assert_closed_coefficients(spec, order, step):
    """build_f0's catalog coefficients within 1e-13 relative of the same
    recurrence at 40 digits, and of the dense recurrence on psi's series.

    ``step(n, h)`` gives h_{n+1} at 40 digits from h = [h_0, ..., h_n],
    with t_{n+2} = h_{n+1}."""
    import mpmath

    closed = build_f0(spec, order).coeffs
    with mpmath.workdps(40):
        h = [mpmath.mpf(1)]
        for n in range(order - 1):
            h.append(step(n, h))
        tiny = np.finfo(float).tiny
        for n, (got, exact) in enumerate(zip(closed, [mpmath.mpf(0)] + h)):
            if abs(exact) >= tiny:
                assert abs(mpmath.mpf(float(got)) - exact) <= 1e-13 * abs(exact), (n, got)
            else:
                # Past the normal range the double has underflowed too;
                # an exact zero stays exactly zero.
                assert abs(got) < tiny and (got == 0.0 or exact != 0), (n, got)
    np.testing.assert_allclose(build_f0(dense(spec), order).coeffs, closed, rtol=1e-13,
                               atol=1e-16 * np.max(np.abs(closed)))


@pytest.mark.parametrize("order", [64, 256, 1024])
@pytest.mark.parametrize("label", CLOSED_F0_LABELS)
def test_closed_coefficients_against_mpmath_and_the_dense_recurrence(label, order):
    import mpmath

    spec = catalog.parse_psi(label)
    # t_{k+1} = t_k (D - kE)/k, from the same double D and E.
    d, e = mpmath.mpf(spec.params["D"]), mpmath.mpf(spec.params["E"])
    assert_closed_coefficients(spec, order, lambda n, h: h[n] * (d - (n + 1) * e) / (n + 1))


# booth's k: near 1, the default 1 + sqrt 2, and far out, where (k/(k-z))^(2k)
# nears e^(2z).
TWO_TERM_F0_SPECS = [catalog.cardioid()] + [
    catalog.booth(k) for k in (1.01, 1.6, 1.0 + math.sqrt(2.0), 4.0, 50.0)
]


@pytest.mark.parametrize("order", [64, 256, 1024])
@pytest.mark.parametrize("spec", TWO_TERM_F0_SPECS, ids=lambda spec: spec.label)
def test_two_term_coefficients_against_mpmath_and_the_dense_recurrence(spec, order):
    import mpmath

    def before(n, h):
        return h[n - 1] if n else 0

    if spec.label == "cardioid":
        # (n+1) h_{n+1} = (4/3) h_n + (2/3) h_{n-1}
        step = lambda n, h: (mpmath.mpf(4) / 3 * h[n] + mpmath.mpf(2) / 3 * before(n, h)) / (n + 1)
    else:
        # (n+1) h_{n+1} = (1 + n/k) h_n + h_{n-1}/k, from the same double k
        k = mpmath.mpf(spec.params["k"])
        step = lambda n, h: ((1 + n / k) * h[n] + before(n, h) / k) / (n + 1)
    assert_closed_coefficients(spec, order, step)


def test_closed_coefficients_keep_the_classical_extremals_exact():
    f0 = build_f0(catalog.classical_starlike(), 1024)
    assert np.array_equal(f0.coeffs, np.arange(1025.0))
    l0 = build_f0(catalog.classical_convex(), 1024).integrate_over_t()
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
                  "janowski:D=0.5,E=-0.5", "janowski:D=1,E=0", "janowski:D=0.8,E=0.65",
                  "cardioid", "booth", "booth:k=1.6"):
        spec = catalog.parse_psi(label)
        pair = build_extremal_pair(spec, 64)
        assert np.array_equal(pair.f0.coeffs, spec.f0_coeff_fn(64))
    for label in ("zexpz", "sine"):
        with pytest.raises(AssertionError, match=f"dense recurrence ran for {label}"):
            build_extremal_pair(catalog.parse_psi(label), 64)


@pytest.mark.parametrize("order", [1, 8, 64, 256])
@pytest.mark.parametrize("label", ["zexpz", "sine"])
def test_dense_route_gives_the_series_as_floats(label, order):
    spec = catalog.parse_psi(label)
    t = extremal._f0_coefficients(spec, order)
    assert all(type(x) is float for x in t)
    assert list(map(float.hex, t)) == list(map(float.hex, build_f0(spec, order).coeffs.tolist()))


@pytest.mark.parametrize("order", [1, 8, 64, 256])
@pytest.mark.parametrize("label", ["classical-starlike", "classical-convex", "alpha:0.25",
                                   "janowski:D=0.5,E=-0.5", "janowski:D=0.8,E=0.65",
                                   "janowski:D=1,E=0", "cardioid", "booth", "booth:k=1.6"])
def test_short_route_gives_the_catalog_list(label, order):
    spec = catalog.parse_psi(label)
    t = extremal._f0_coefficients(spec, order)
    assert all(type(x) is float for x in t)
    assert list(map(float.hex, t)) == list(map(float.hex, spec.f0_coeff_fn(order)))


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
    # One route only: the integral one is the tests' reference.
    with pytest.raises(TypeError, match="method"):
        build_f0(catalog.cardioid(), 8, method="integral")


# -- l0 and the Alexander relation -------------------------------------------


def test_classical_l0_is_half_plane_map():
    # l0 = z/(1-z): all coefficients 1 from index 1 on.
    l0 = build_f0(catalog.classical_starlike(), 24).integrate_over_t()
    np.testing.assert_allclose(l0.coeffs[1:], np.ones(24), rtol=1e-13)


def test_cardioid_l0_low_coefficients():
    l0 = build_f0(catalog.cardioid(), 8).integrate_over_t()
    assert l0.coeffs[2] == pytest.approx(2 / 3, rel=1e-15)
    assert l0.coeffs[3] == pytest.approx(11 / 27, rel=1e-15)


def test_zexpz_l0_coefficients():
    order = 12
    l0 = build_f0(catalog.z_exp_z(), order).integrate_over_t()
    for n in range(order):
        expected = int(sympy.bell(n)) / (math.factorial(n) * (n + 1))
        assert l0.coeffs[n + 1] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("label", CATALOG_LABELS)
def test_alexander_relation_exact(label):
    f0 = build_f0(catalog.parse_psi(label), 48)
    l0 = f0.integrate_over_t()
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
        bound = reference.janowski_coeff_bound(d, e, n)
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


JANOWSKI_KOEBE_GRID = [
    (d, e)
    for d in (1.0, 0.5, 0.0, -0.5)
    for e in (-1.0, -0.5, 0.0, 0.3, 0.6, 0.9)
    if e < d
]
# E near 1 puts the pole of psi at -1/E, next to t = -1: there the two
# quadrature rules disagree, and only the closed forms give the radii.
NEAR_POLE_GRID = [(1.0, e) for e in (0.99, 0.999, 0.99999)]


@pytest.mark.parametrize("family", ["starlike", "convex"])
@pytest.mark.parametrize("de", JANOWSKI_KOEBE_GRID, ids=lambda de: "D={:g},E={:g}".format(*de))
def test_janowski_koebe_radii_against_closed_forms(de, family):
    got = koebe_radius_quadrature(catalog.janowski(*de), family)
    assert type(got) is float
    assert got == pytest.approx(janowski_koebe(*de, family), rel=1e-13, abs=0.0)


# Janowski entries catalogue -l0(-1) in closed form.  D = 0.001 is where
# (1 - (1-E)^(D/E))/D would cancel and the expm1 form keeps the digits.
CLOSED_CONVEX_GRID = JANOWSKI_KOEBE_GRID + NEAR_POLE_GRID + [
    (0.001, -1.0), (0.001, -0.5), (0.001, 0.0)]


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


# koebe_radius_quadrature's values as repr: how the rules are built and
# applied must not move a bit.
QUADRATURE_PINS = {
    "cardioid": (0.3678794411714424, 0.5986912298550321),
    "zexpz": (0.5314636053866157, 0.7038344231538607),
    "booth": (0.5099690078517072, 0.6935792104753028),
    "sine": (0.3882588314625181, 0.6384220393527344),
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


@pytest.mark.parametrize("label", catalog.named_labels() + [
    "alpha:0.25", "janowski:D=0.5,E=-0.5", "janowski:D=0.75,E=0.25", "janowski:D=1,E=0",
    "booth:k=4",
])
def test_f0_closed_on_arrays_matches_scalars(label):
    f0_closed = catalog.parse_psi(label).f0_closed
    r = np.linspace(-1.0, 0.9, 15).reshape(3, 5)
    np.testing.assert_array_equal(f0_closed(r), [[f0_closed(float(x)) for x in row] for row in r])


def koebe_from_psi(psi, family, quad):
    """-f0(-1) = exp(int_0^1 (psi(-u) - 1)/u du) for the starlike family,
    -l0(-1) = int_0^1 exp(int_0^1 (psi(-s u) - 1)/u du) ds for the convex
    one, from an mpmath psi alone: apart from the catalog's closed forms and
    the closed f0 that the quadrature integrates.  ``quad(f)`` integrates f
    over [0, 1] at the working precision."""
    import mpmath

    def f0_over_s(s):
        # f0(-s)/(-s), with t = -s u in int_0^{-s} (psi(t) - 1)/t dt
        return mpmath.exp(quad(lambda u: (psi(-s * u) - 1) / u))

    return f0_over_s(1) if family == "starlike" else quad(f0_over_s)


def psi_convex_koebe(label):
    """-l0(-1) at 40 digits from psi alone, by mpmath's adaptive rule."""
    import mpmath

    spec = catalog.parse_psi(label)
    with mpmath.workdps(40):
        psi = {
            "cardioid": lambda t: 1 + 4 * t / 3 + 2 * t * t / 3,
            "zexpz": lambda t: 1 + t * mpmath.exp(t),
            "sine": lambda t: 1 + mpmath.sin(t),
        }.get(label)
        if psi is None:
            k = mpmath.mpf(spec.params["k"])
            psi = lambda t: 1 + t * (k + t) / (k - t)
        return koebe_from_psi(psi, "convex",
                              lambda f: mpmath.quad(f, [0, 1], method="gauss-legendre"))


@functools.cache
def graded_rule(panels):
    """(node, weight) pairs of a 12-node Gauss-Legendre rule at 40 digits on
    each panel [0, 1/2], [1/2, 3/4], ..., [1 - 2^(1-panels), 1].  A pole
    past t = 1 that lies at least the last panel's width from 1 lies at
    least a panel's width from each, so each panel converges fast: against
    48 nodes a panel and 24 panels, the near-pole Janowski radii move by
    under 1e-4 ulp.  mpmath's adaptive rule took 3-10 s per nested
    integral here, and on too few cuts stopped short of 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        rule = mpmath.calculus.quadrature.GaussLegendre(mpmath.mp).calc_nodes(3, mpmath.mp.prec)
        edges = [1 - mpmath.mpf(2) ** -j for j in range(panels)] + [mpmath.mpf(1)]
        return [(a + (b - a) * (x + 1) / 2, (b - a) * w / 2)
                for a, b in zip(edges, edges[1:]) for x, w in rule]


@pytest.mark.parametrize("family", ["starlike", "convex"])
@pytest.mark.parametrize("de", NEAR_POLE_GRID, ids=lambda de: "D={:g},E={:g}".format(*de))
def test_near_pole_janowski_closed_koebe_against_psi_at_40_digits(de, family):
    import mpmath

    spec = catalog.janowski(*de)
    got = {"starlike": spec.koebe_closed, "convex": spec.koebe_closed_convex}[family]
    # The pole of psi(-u) lies at u = 1/E, more than 1 - E past 1, and the
    # last panel is at most (1 - E)/8 wide.
    rule = graded_rule(4 + math.ceil(-math.log2(1.0 - de[1])))
    with mpmath.workdps(40):
        d, e = mpmath.mpf(de[0]), mpmath.mpf(de[1])
        want = koebe_from_psi(lambda t: (1 + d * t) / (1 + e * t), family,
                              lambda f: mpmath.fsum(w * f(x) for x, w in rule))
    assert abs(mpmath.mpf(got) - want) <= math.ulp(got), (got, want)
    assert koebe_radius(spec, family) == got
    # The quadrature refuses these radii rather than return either rule's.
    with pytest.raises(QuadratureError, match="differ"):
        koebe_radius_quadrature(spec, family)


# booth's k from near 1 to where (k/(k-z))^(2k) is e^(2z) to the last bit.
BOOTH_KS = (1.01, 1.5, 1.0 + math.sqrt(2.0), 4.0, 50.0, 1e4, 1e6, 1e13, 1e17, 1e300)


@pytest.mark.parametrize("label", ["cardioid", "zexpz", "sine", "booth:k=1.6"] + [
    catalog.booth(k).label for k in BOOTH_KS])
def test_convex_quadrature_against_psi_at_40_digits(label):
    import mpmath

    got = koebe_radius_quadrature(catalog.parse_psi(label), "convex")
    want = psi_convex_koebe(label)
    assert abs(mpmath.mpf(got) - want) <= 4 * math.ulp(got), (got, want)


@pytest.mark.parametrize("k", BOOTH_KS)
def test_booth_closed_koebe_radius_at_every_k(k):
    import mpmath

    spec = catalog.booth(k)
    # e (k/(k+1))^(2k) as written: k/(k+1) is 1 - 1/(k+1), and the power 2k
    # multiplies its rounding, so the working precision grows with log10 k.
    with mpmath.workdps(40 + math.ceil(math.log10(k))):
        kk = mpmath.mpf(k)
        want = mpmath.e * (kk / (kk + 1)) ** (2 * kk)
    # The closed form rounds 1/k, log1p and the product 2k log1p(1/k),
    # whose absolute error exp carries over: up to 3.4 ulps over 3000
    # log-uniform k in [1.01, 1e17], 1.3 at k = 1 + sqrt 2.
    assert abs(mpmath.mpf(spec.koebe_closed) - want) <= 4 * math.ulp(want), (
        spec.koebe_closed, want)


def test_convex_quadrature_needs_a_closed_f0():
    spec = catalog.cardioid()._replace(f0_closed=None)
    assert koebe_radius_quadrature(spec, "starlike") == koebe_radius_quadrature(
        catalog.cardioid(), "starlike")
    with pytest.raises(QuadratureError, match="no closed f0"):
        koebe_radius_quadrature(spec, "convex")


def test_non_finite_integrand_raises():
    spec = catalog.PsiSpec(label="nan", coeff_fn=lambda order: np.ones(order + 1),
                           psi_eval=lambda t: t * np.nan, f0_closed=lambda r: r * np.nan)
    for family in ("starlike", "convex"):
        with pytest.raises(QuadratureError, match="not finite"):
            koebe_radius_quadrature(spec, family)


def test_divergent_integral_raises():
    # (psi(t)-1)/t = 2/(1+t) has a pole at t = -1 itself, so the starlike
    # integral diverges and the two rules disagree.
    spec = catalog.PsiSpec(label="pole", coeff_fn=lambda order: np.ones(order + 1),
                           psi_eval=lambda t: 1.0 + 2.0 * t / (1.0 + t))
    with pytest.raises(QuadratureError, match="differ"):
        koebe_radius_quadrature(spec, "starlike")
