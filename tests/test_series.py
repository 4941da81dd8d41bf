"""Series kernel: contracts, frozen examples, and ring-law properties."""

import math

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

import reference
from bohrad import catalog, radius
from bohrad.extremal import build_f0
from bohrad.oracle import bohr_tail, run_tail_suite
from bohrad.radius import Family, Mode, RadiusProblem, sweep
from bohrad.series import DEFAULT_ORDER, OrderMismatchError, TruncatedSeries


def poly(*coeffs, order=8):
    c = np.zeros(order + 1)
    c[: len(coeffs)] = coeffs
    return TruncatedSeries(c)


def koebe_series(order):
    return TruncatedSeries(np.arange(order + 1, dtype=float))


# -- construction ------------------------------------------------------


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        TruncatedSeries([1.0, float("nan")])
    with pytest.raises(ValueError):
        TruncatedSeries([1.0, float("inf")])


def test_coeffs_are_locked():
    f = poly(1, 2)
    with pytest.raises(ValueError):
        f.coeffs[0] = 5.0


# Each library entry point that takes a truncation order, called with one.
ORDER_ENTRY_POINTS = {
    "build_f0": lambda order: build_f0(catalog.cardioid(), order),
    "PsiSpec.series": lambda order: catalog.cardioid().series(order),
    "TruncatedSeries.identity": TruncatedSeries.identity,
    "run_tail_suite": lambda order: run_tail_suite(trials=1, order=order),
    "RadiusProblem": lambda order: RadiusProblem(catalog.cardioid(), order=order),
    # A sweep checks its problem's order again with every value; these
    # fields skip the check that RadiusProblem makes.
    "sweep": lambda order: sweep(radius._ProblemFields(
        catalog.cardioid(), Family.STARLIKE, 1, 1, Mode.BOHR_ROGOSINSKI, order,
        radius.DEFAULT_TOL), n_values=[1, 2]),
}


@pytest.mark.parametrize("entry", list(ORDER_ENTRY_POINTS))
@pytest.mark.parametrize("order, message", [
    (64.0, "order must be an integer"),
    (True, "order must be an integer"),
    (0, "order must be at least 1"),
    (-2, "order must be at least 1"),
])
def test_every_entry_point_rejects_an_invalid_order(entry, order, message):
    # 64.0 once raised a TypeError from numpy, True ran at order 1, and
    # identity(0) raised an IndexError.
    with pytest.raises(ValueError, match=f"^{message}$"):
        ORDER_ENTRY_POINTS[entry](order)


# -- add / mul ---------------------------------------------------------


def test_add_cancellation():
    total = poly(1, 1) + poly(1, -1)
    assert np.array_equal(total.coeffs, poly(2).coeffs)


def test_add_identity():
    f = poly(3, 1, 4, 1, 5)
    assert np.array_equal((f + poly(0)).coeffs, f.coeffs)


def test_add_direct_sum():
    total = poly(1, 2, 1) + poly(1, 1)
    assert np.array_equal(total.coeffs, poly(2, 3, 1).coeffs)


def test_add_order_mismatch():
    with pytest.raises(OrderMismatchError):
        poly(1, order=4) + poly(1, order=5)


def test_mul_square():
    sq = poly(1, 1) * poly(1, 1)
    assert np.array_equal(sq.coeffs, poly(1, 2, 1).coeffs)


def test_mul_identity():
    f = poly(2, -1, 7)
    assert np.array_equal((f * reference.one(8)).coeffs, f.coeffs)


def test_mul_telescoping_geometric():
    # (1 - z) * sum z^n has everything cancel except the constant term.
    order = 10
    geo = TruncatedSeries(np.ones(order + 1))
    prod = poly(1, -1, order=order) * geo
    assert np.array_equal(prod.coeffs, reference.one(order).coeffs)


def test_mul_order_mismatch():
    with pytest.raises(OrderMismatchError):
        poly(1, order=4) * poly(1, order=5)


def test_scalar_mul():
    f = poly(1, -2, 3)
    assert np.array_equal((-2.0 * f).coeffs, poly(-2, 4, -6).coeffs)


# -- compose -----------------------------------------------------------


def test_compose_identity_schwarz_is_exact():
    f = koebe_series(12)
    z = TruncatedSeries.identity(12)
    assert np.array_equal(f.compose(z).coeffs, f.coeffs)


def test_compose_monomial_substitution():
    f = poly(0, 1, 1)  # z + z^2
    w = poly(0, 0, 1)  # z^2
    assert np.array_equal(f.compose(w).coeffs, poly(0, 0, 1, 0, 1).coeffs)


def test_compose_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        poly(0, 1).compose(poly(1, 1, order=8))


def test_compose_koebe_with_blaschke_matches_symbolic_expansion():
    # Independent oracle: sympy expansion of f(w(z)) with exact rationals.
    order = 8
    z = sp.symbols("z")
    f_expr = z / (1 - z) ** 2
    w_expr = z * (z - sp.Rational(1, 2)) / (1 - sp.Rational(1, 2) * z)
    expansion = sp.series(f_expr.subs(z, w_expr), z, 0, order + 1).removeO()
    expected = [float(expansion.coeff(z, n)) for n in range(order + 1)]

    f = koebe_series(order)
    w_coeffs = [float(sp.Rational(w_expr.series(z, 0, order + 1).removeO().coeff(z, n)))
                for n in range(order + 1)]
    got = f.compose(TruncatedSeries(w_coeffs))
    np.testing.assert_allclose(got.coeffs, expected, rtol=1e-13, atol=1e-13)


def test_compose_monomial_associativity():
    f = koebe_series(16)
    w2 = poly(0, 0, 1, order=16)
    w3 = poly(0, 0, 0, 1, order=16)
    w6 = poly(0, 0, 0, 0, 0, 0, 1, order=16)
    lhs = f.compose(w2).compose(w3)
    rhs = f.compose(w6)
    np.testing.assert_allclose(lhs.coeffs, rhs.coeffs, rtol=0, atol=0)


def horner_compose(f, w):
    """Reference composition: Horner's rule with truncated Cauchy products."""
    k = f.order
    acc = np.zeros(k + 1)
    acc[0] = f.coeffs[k]
    for n in range(k - 1, -1, -1):
        acc = np.convolve(acc, w.coeffs)[: k + 1]
        acc[0] += f.coeffs[n]
    return acc


@st.composite
def compose_operands(draw):
    order = draw(st.integers(min_value=1, max_value=64))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
    f = draw(st.lists(unit, min_size=order + 1, max_size=order + 1))
    w = draw(st.lists(unit, min_size=order, max_size=order))
    return TruncatedSeries(f), TruncatedSeries([0.0] + w)


@settings(deadline=None)
@given(compose_operands())
# A subnormal coefficient: the two routes differ by one subnormal ulp,
# where the relative term of the bound underflows to 0.
@example((TruncatedSeries([0.0, 0.0, 0.0, 0.3, 0.0]),
          TruncatedSeries([0.0, 0.5, 2.22507386e-313, 0.0, 0.0])))
def test_compose_matches_horner_reference(operands):
    f, w = operands
    got = f.compose(w).coeffs
    # Rounding errors of both routes scale with the majorant |f|(|w|);
    # below the normal range rounding is absolute, up to the smallest normal.
    scale = horner_compose(TruncatedSeries(np.abs(f.coeffs)), TruncatedSeries(np.abs(w.coeffs)))
    bound = 1e-12 * scale + np.finfo(float).tiny
    assert np.all(np.abs(got - horner_compose(f, w)) <= bound)


def test_powers_table_is_read_only():
    w = poly(0, 0.5, -0.25)
    table = w.powers
    assert table is w.powers
    np.testing.assert_array_equal(table[2], (w * w).coeffs)
    with pytest.raises(ValueError):
        table[1, 1] = 0.0
    with pytest.raises(AttributeError):
        w.powers = table


def sequential_powers(w):
    """Reference power table: row n is row n - 1 convolved with w."""
    k = w.order
    table = np.zeros((k + 1, k + 1))
    table[0, 0] = 1.0
    for n in range(1, k + 1):
        table[n] = np.convolve(table[n - 1], w.coeffs)[: k + 1]
    return table


def assert_powers_match_reference(w):
    got = w.powers
    assert got.shape == (w.order + 1, w.order + 1)
    # Rounding errors of both routes scale with the majorant table |w|^n.
    scale = sequential_powers(TruncatedSeries(np.abs(w.coeffs)))
    bound = 1e-12 * scale + np.finfo(float).tiny
    assert np.all(np.abs(got - sequential_powers(w)) <= bound)


@pytest.mark.parametrize("order", [0, 1, 2, 3, 5, 64, 256])
def test_powers_match_sequential_convolution(order):
    rng = np.random.default_rng(order)
    c = rng.uniform(-1.0, 1.0, order + 1)
    c[0] = 0.0
    assert_powers_match_reference(TruncatedSeries(c))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=80).flatmap(lambda k: st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False), min_size=k, max_size=k)))
def test_powers_match_sequential_convolution_on_random_series(w):
    assert_powers_match_reference(TruncatedSeries([0.0] + w))


def test_shared_inner_series_composes_like_fresh_copies():
    w = poly(0, 0.6, -0.3, 0.1, order=16)
    f, h = koebe_series(16), TruncatedSeries(np.linspace(-1.0, 1.0, 17))
    shared = [f.compose(w).coeffs, h.compose(w).coeffs]
    fresh = [f.compose(TruncatedSeries(w.coeffs)).coeffs,
             h.compose(TruncatedSeries(w.coeffs)).coeffs]
    np.testing.assert_array_equal(shared, fresh)


@pytest.mark.parametrize("order", [1, 2, 8, 64])
def test_stacks_compose_like_their_rows_bitwise(order):
    # A (T, S) composition of stacks is one product, taken a row at a time,
    # and a stacked power table is one doubling: each row is bitwise the
    # row of its single series.
    rng = np.random.default_rng(order)
    w = rng.uniform(-1.0, 1.0, (3, order + 1))
    w[:, 0] = 0.0
    f = rng.uniform(-1.0, 1.0, (2, order + 1))
    stack = TruncatedSeries(w)
    g = TruncatedSeries(f).compose(stack).coeffs
    assert g.shape == (3, 2, order + 1)
    for t in range(3):
        np.testing.assert_array_equal(stack.powers[t], TruncatedSeries(w[t]).powers)
        for s in range(2):
            single = TruncatedSeries(f[s]).compose(TruncatedSeries(w[t])).coeffs
            np.testing.assert_array_equal(g[t, s], single)
            np.testing.assert_array_equal(TruncatedSeries(f[s]).compose(stack).coeffs[t], single)


def test_single_series_operations_reject_stacks():
    stack, one = TruncatedSeries(np.zeros((2, 5))), reference.one(4)
    for op in (lambda: stack + one, lambda: one + stack, lambda: stack * one,
               lambda: one * stack, lambda: 2.0 * stack,
               lambda: reference.integrate_over_t(stack),
               lambda: reference.exp(stack), lambda: reference.times_z(stack)):
        with pytest.raises(ValueError, match="single series"):
            op()


def test_power_table_requires_zero_constant_term():
    with pytest.raises(ValueError, match="w\\(0\\) = 0"):
        poly(0.5, 1.0).powers
    # The same check and message when the table is built in given memory.
    with pytest.raises(ValueError, match="w\\(0\\) = 0"):
        poly(0.5, 1.0)._take_powers(np.empty((9, 9)), np.empty(64))


@pytest.mark.parametrize("order", [0, 1, 2, 3, 8, 64])
@pytest.mark.parametrize("stack", [(), (3,)])
def test_powers_built_in_given_memory_overwrite_what_it_held(order, stack):
    # Memory full of NaN stands for a table and scratch left by an earlier
    # build: every entry is written, so the table is the fresh one bitwise.
    rng = np.random.default_rng(order)
    c = rng.uniform(-1.0, 1.0, stack + (order + 1,))
    c[..., 0] = 0.0
    table = np.full(stack + (order + 1, order + 1), np.nan)
    scratch = np.full(3 * (order + 1) ** 2, np.nan)
    w = TruncatedSeries(c)._take_powers(table, scratch)
    assert w.powers.tobytes() == TruncatedSeries(c).powers.tobytes()
    assert np.shares_memory(w.powers, table)
    assert not w.powers.flags.writeable
    assert table.flags.writeable  # the caller's memory stays the caller's


# -- exp ---------------------------------------------------------------


def test_exp_of_zero():
    e = reference.exp(poly(0))
    assert np.array_equal(e.coeffs, reference.one(8).coeffs)


def test_exp_of_z_gives_factorials():
    e = reference.exp(TruncatedSeries.identity(10))
    expected = [1.0 / math.factorial(n) for n in range(11)]
    np.testing.assert_allclose(e.coeffs, expected, rtol=1e-15)


def test_exp_cardioid_exponent():
    # exp(4z/3 + z^2/3) = 1 + 4z/3 + 11z^2/9 + ...
    e = reference.exp(poly(0, 4 / 3, 1 / 3))
    assert e.coeffs[0] == pytest.approx(1.0)
    assert e.coeffs[1] == pytest.approx(4 / 3, rel=1e-15)
    assert e.coeffs[2] == pytest.approx(11 / 9, rel=1e-15)


def test_exp_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        reference.exp(poly(1, 1))


# -- reference.integrate_over_t -----------------------------------------


def test_integrate_zero():
    out = reference.integrate_over_t(poly(0, order=6))
    assert np.array_equal(out.coeffs, np.zeros(7))


def test_integrate_cardioid_generator():
    out = reference.integrate_over_t(poly(0, 4 / 3, 2 / 3))
    assert np.array_equal(out.coeffs, poly(0, 4 / 3, 1 / 3).coeffs)


def test_integrate_rejects_nonzero_constant():
    with pytest.raises(ValueError):
        reference.integrate_over_t(poly(1, 1))


def test_integrate_z_exp_z_reproduces_bell_coefficients():
    # z exp(int (t e^t)/t dt) = z exp(e^z - 1) whose coefficients are
    # B_{n-1}/(n-1)!; Bell numbers via the binomial recurrence.
    order = 12
    bells = [1]
    for n in range(order):
        bells.append(sum(math.comb(n, k) * bells[k] for k in range(n + 1)))
    c = np.zeros(order + 1)
    for n in range(1, order + 1):
        c[n] = 1.0 / math.factorial(n - 1)
    f0 = reference.times_z(reference.exp(reference.integrate_over_t(TruncatedSeries(c))))
    expected = [0.0] + [bells[n - 1] / math.factorial(n - 1) for n in range(1, order + 1)]
    np.testing.assert_allclose(f0.coeffs, expected, rtol=1e-13)


# -- evaluation ----------------------------------------------------------
# The full majorant sum |c_n| r^n is the tail functional from N = 0.


def test_eval_abs_mixed_signs():
    assert bohr_tail(poly(0, 1, -1), 0, 0.5) == pytest.approx(0.75)


def test_eval_abs_at_zero():
    assert bohr_tail(poly(0, 1, 4 / 3), 0, 0.0) == 0.0


def test_eval_abs_koebe_at_one_third():
    # sum n (1/3)^n = (1/3) / (1 - 1/3)^2 = 3/4; order 64 tail < 1e-28.
    f = koebe_series(64)
    assert bohr_tail(f, 0, 1 / 3) == pytest.approx(0.75, abs=1e-15)


def test_eval_domain_errors():
    f = poly(1, 1)
    with pytest.raises(ValueError):
        bohr_tail(f, 0, -0.1)
    with pytest.raises(ValueError):
        bohr_tail(f, 0, 1.0)


# -- properties ----------------------------------------------------------

coeff_lists = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    min_size=9, max_size=9,
)
zero_constant_lists = coeff_lists.map(lambda c: [0.0] + c[1:])


@settings(deadline=None)
@given(coeff_lists, coeff_lists)
def test_add_commutes(a, b):
    f, g = TruncatedSeries(a), TruncatedSeries(b)
    np.testing.assert_allclose((f + g).coeffs, (g + f).coeffs, rtol=1e-12, atol=1e-15)


@settings(deadline=None)
@given(coeff_lists, coeff_lists)
def test_mul_commutes(a, b):
    f, g = TruncatedSeries(a), TruncatedSeries(b)
    np.testing.assert_allclose((f * g).coeffs, (g * f).coeffs, rtol=1e-12, atol=1e-15)


@settings(deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_associates(a, b, c):
    f, g, h = TruncatedSeries(a), TruncatedSeries(b), TruncatedSeries(c)
    np.testing.assert_allclose(
        ((f * g) * h).coeffs, (f * (g * h)).coeffs, rtol=1e-12, atol=1e-12
    )


@settings(deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_mul_distributes(a, b, c):
    f, g, h = TruncatedSeries(a), TruncatedSeries(b), TruncatedSeries(c)
    np.testing.assert_allclose(
        (f * (g + h)).coeffs, (f * g + f * h).coeffs, rtol=1e-12, atol=1e-12
    )


@settings(deadline=None)
@given(zero_constant_lists, zero_constant_lists)
def test_exp_is_a_homomorphism(a, b):
    f, g = TruncatedSeries(a), TruncatedSeries(b)
    lhs = reference.exp(f + g)
    rhs = reference.exp(f) * reference.exp(g)
    scale = np.maximum(np.abs(lhs.coeffs), 1.0)
    assert np.max(np.abs(lhs.coeffs - rhs.coeffs) / scale) < 1e-10


@settings(deadline=None)
@given(zero_constant_lists)
def test_exp_derivative_identity(a):
    f = TruncatedSeries(a)
    e = reference.exp(f).coeffs
    n = np.arange(1, e.size)
    # e' = f' e, on the window below the top coefficient that e' drops.
    lhs = n * e[1:]
    rhs = np.convolve(n * f.coeffs[1:], e)[: lhs.size]
    scale = np.maximum(np.abs(lhs), 1.0)
    assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


@settings(deadline=None)
@given(coeff_lists, st.floats(min_value=0.0, max_value=0.99))
def test_majorant_dominates_signed_evaluation(a, r):
    f = TruncatedSeries(a)
    assert bohr_tail(f, 0, r) >= abs(npoly.polyval(r, f.coeffs)) - 1e-12


@pytest.mark.parametrize("operation, error", [
    (lambda: TruncatedSeries([]), ValueError),
    (lambda: delattr(TruncatedSeries([0.0, 1.0]), "coeffs"), AttributeError),
    (lambda: TruncatedSeries([0.0, 1.0]) + 1, TypeError),
    (lambda: TruncatedSeries([0.0, 1.0]) * "x", TypeError),
], ids=["empty", "del-coeffs", "add-a-number", "times-a-string"])
def test_series_reject_what_they_do_not_define(operation, error):
    # No coefficients, a deleted field, and a sum or product with what is
    # neither a series nor (for the product) a real scalar.
    with pytest.raises(error):
        operation()
