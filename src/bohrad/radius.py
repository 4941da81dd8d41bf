"""Radius equations and their bracketed root solvers.

For a family extremal series with coefficient moduli a_n (a_0 = 0,
a_1 = 1) and boundary distance rs, the solved equation is

    G(r) = P(r^m) + Q(r) - rs = 0,

where P = fhat, fhat(r) = sum |a_n| r^n, and Q is fhat with its terms of
index < N removed.  The Bohr limit (m -> infinity with N = 1) is this
equation without the P(r^m) term and with N = 1; one function,
``_equation_index``, maps a problem's mode, m and N to the (m, N) of the
equation it solves, with m None where P is absent, and nothing else tests
for the Bohr limit.  Apart from its constant -rs every
coefficient of G is a modulus, so on [0, 1) G is increasing and convex
with exactly one root; G(0) = -rs exactly, so the solvers take it without
evaluating G.  Since a_1 = 1, G(r) >= r^m + |a_N| r^N - rs (r - rs in the
Bohr limit), so the root lies below min(rs^(1/m), (rs/|a_N|)^(1/N)).
From there Newton's method on the head H of G, its terms of degree at
most L = max(m, N) + 8, walks down towards the root of H - rs; the terms
that H leaves out are nonnegative, so G >= H - rs and each iterate still
bounds G's root from above (``_certified_top``).  These head steps are
cheap, short Horner passes, and are not counted among the evaluations of
G that a result's ``iterations`` reports; they take about a third of
those evaluations off a solve.  One solver, ``_newton``, starts Newton's
method on G there, from the right; by convexity the zero of the secant
through (0, G(0)) and each Newton iterate is a lower bound, so the bracket costs
one evaluation of G per step and ends certified by two more.  It solves a
batch of equations, one row each, with one call to G per pass on the rows
still open.  One function, ``_moduli_row``, builds the evaluator of one
row from a list of moduli, evaluated by plain-float Horner passes, with no
start; ``g_function`` takes it as it is.  (The oracle's Bohr-Rogosinski
margin r* - |g| @ W is the same equation built from the moduli of a
subordinant g, taken as one array product.)  ``_radius_equations`` makes
the rows of a ``solve`` or a ``sweep`` with their starts: one row by
``_moduli_row``, several by one array product per evaluation that gives
G and G' together.  Several rows always carry the r^m term: every
Bohr-limit problem solves the one equation (None, 1), and each distinct
equation is one row.  Each evaluator gives G with G' or, asked for values
only, G alone, bitwise the same G; the solver's three closing
evaluations and ``g_function`` read only G.  The one-row evaluator,
``_equation_row``, also serves the closed-form Janowski equation
(E <= 0), with P and Q in closed form.

Every solve starts from one checked ``RadiusProblem``; the closed
equation's has no truncation order.  One function, ``_results``, turns the
(m, N) of a solve, a sweep or the closed equation into results: it solves
their distinct equations by one ``_newton`` call and decides rb and
sharpness.  ``solve`` and ``sweep`` reach it by one route,
``_solve_grid``, which reads the family extremal once.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .catalog import PsiSpec, janowski
from .extremal import ExtremalPair, _f0_coefficients, _l0_coefficients, koebe_radius
from .series import DEFAULT_ORDER, OrderMismatchError, _integer, _truncation_order, np

_BRACKET_HI = 1.0 - 1e-9
# The root bracketing tolerance of a problem, unless it gives another.
DEFAULT_TOL = 1e-10
# The range r <= 1/3 of the Bhowmik-Das lemma (J. Math. Anal. Appl. 462, 2018).
_LEMMA_RADIUS = 1.0 / 3.0

# The pairs (G, G') of the equations ``rows`` at the radii ``r``, or with
# ``slopes=False`` the values G alone.
_RowEquations = Callable[..., list]
# A polynomial's (or power series') value and slope at one point, or with
# ``slope=False`` its value alone.
_ValueSlope = Callable[..., "tuple[float, float] | float"]


class Family(str, Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"


class Mode(str, Enum):
    BOHR_ROGOSINSKI = "bohr-rogosinski"
    BOHR_LIMIT = "bohr-limit"


class BracketError(RuntimeError):
    """The radius equation did not change sign on the search bracket."""


def _check_problem(m: int, N: int, tol: float, order: int | None = None
                   ) -> tuple[int, int, int | None]:
    """The checks of a ``RadiusProblem``, also made on each value of a
    sweep.  An ``order`` of None, the closed equation's, which truncates
    nothing, is not checked.  Returns m, N and order as ints."""
    m, N = _integer(m), _integer(N)
    if m is None or N is None or m < 1 or N < 1:
        raise ValueError("m and N must be positive integers")
    # Below 1e-15 the tol/5 widening of a bracket can be less than one ulp
    # of r, and the widened ends collapse onto the bounds they widen.
    if not 1e-15 <= tol < 1e-3:
        raise ValueError(f"tol must lie in [1e-15, 1e-3), got {tol}")
    if order is not None:
        order = _truncation_order(order, N)
    return m, N, order


def _family(psi: PsiSpec, family: Family | str | None) -> Family:
    """``family``, or where it is None the entry's ``default_family``: the
    one statement of the rule, for ``RadiusProblem`` and for the CLI's
    closed equation, which must reject a convex family before it solves."""
    return Family(psi.default_family if family is None else family)


class _ProblemFields(NamedTuple):
    psi: PsiSpec
    family: Family
    m: int
    N: int
    mode: Mode
    order: int | None
    tol: float


class RadiusProblem(_ProblemFields):
    """One radius equation to solve, the one record that every solve path
    builds and reads.  ``family`` and ``mode`` each take the enum or its
    value (``"convex"``, ``"bohr-limit"``), and a mistyped value raises
    ``ValueError`` here.  A ``family`` of None is the entry's
    ``default_family`` (``_family``), so classical-convex is convex.  An
    ``order`` of None is the closed Janowski equation's, which truncates
    nothing (``solve_janowski_exact``); ``solve``, ``sweep`` and
    ``g_function`` need a truncation order and reject it."""

    __slots__ = ()

    def __new__(cls, psi: PsiSpec, family: Family | str | None = None, m: int = 1,
                N: int = 1, mode: Mode | str = Mode.BOHR_ROGOSINSKI,
                order: int | None = DEFAULT_ORDER, tol: float = DEFAULT_TOL) -> "RadiusProblem":
        m, N, order = _check_problem(m, N, tol, order)
        return super().__new__(cls, psi, _family(psi, family), m, N, Mode(mode), order, tol)

    @classmethod
    def _make(cls, iterable) -> "RadiusProblem":
        # Through __new__, so that _replace checks what it builds.
        return cls(*iterable)


class RadiusResult(NamedTuple):
    psi: str
    family: str
    m: int
    N: int
    mode: str
    r0: float
    rb: float
    residual: float
    # Evaluations of G made by the solver.
    iterations: int
    sharp: bool
    bracket: tuple[float, float]

    def to_json_dict(self) -> dict:
        """The fields in output order, without the bracket."""
        out = self._asdict()
        del out["bracket"]
        return out


def _family_extremal(problem: RadiusProblem, pair: ExtremalPair | None = None
                     ) -> tuple[list[float], float]:
    """The Taylor coefficients of the family's extremal (f0 or l0), as a
    list of floats, and its boundary distance r*.

    They come from ``pair`` when one is given, which must be built at
    ``problem.order`` (another order gives another G); else only the
    family's own are built, by the extremal layer's one route to f0's
    coefficients (``_f0_coefficients``, which needs no array where the
    catalog has a short recurrence) and, for l0, its one statement of the
    Alexander relation (``_l0_coefficients``), as ``build_extremal_pair``
    builds them.
    """
    if pair is None:
        t = _f0_coefficients(problem.psi, problem.order)
        if problem.family == Family.CONVEX:
            t = _l0_coefficients(t)
        return t, koebe_radius(problem.psi, problem.family.value)
    if pair.f0.order != problem.order:
        raise OrderMismatchError(f"order mismatch: the pair has order {pair.f0.order}, "
                                 f"the problem {problem.order}")
    if problem.family == Family.STARLIKE:
        return pair.f0.coeffs.tolist(), pair.koebe_starlike
    return pair.l0.coeffs.tolist(), pair.koebe_convex


def _polynomial(coeffs: list[float]) -> _ValueSlope:
    """Value and slope of the polynomial sum c_k x^k, by one plain-float
    Horner pass that carries both, or its value alone by a pass that
    carries only the value.  The value recurrence never reads the slope,
    so both passes give the same value bitwise."""
    reversed_coeffs = coeffs[::-1]

    def value_slope(x: float, slope: bool = True) -> tuple[float, float] | float:
        value = 0.0
        if not slope:
            for c in reversed_coeffs:
                value = value * x + c
            return value
        derivative = 0.0
        for c in reversed_coeffs:
            derivative = derivative * x + value
            value = value * x + c
        return value, derivative

    return value_slope


def _equation_index(mode: Mode, m: int, N: int) -> tuple[int | None, int]:
    """The (m, N) of the radius equation that a problem of ``mode`` at
    (m, N) solves: (m, N) itself, or in the Bohr limit (None, 1), the
    equation without the r^m term and with head index 1.  The one place that
    reads the Bohr limit; ``_results`` echoes the given (m, N)."""
    return (None, 1) if mode == Mode.BOHR_LIMIT else (m, N)


def _head_degree(m: int | None, N: int) -> int:
    """The degree L = max(m, N) + 8 of the head of the equation (m, N) of
    ``_equation_index`` (N + 8 where m is None): its terms a_1 r^m and
    a_N r^N and the next eight degrees.

    The 8 was measured on 2516 solves: 16 entries, both families and
    modes, m in {1,2,3,5,24,100} and N in {1,2,3,5,10,30}, at orders 64
    and 256, and the closed Janowski equation of the four janowski:
    entries with E <= 0.  From the monomial bound alone they made 22315 evaluations of
    G.  A head start with L = max(m, N) + 0, 4, 8, 16 or 32 made 17171,
    15671, 14779, 14141 or 13627, and no solve made more than before.
    Past 4 the solves of ``param-scan`` (m, N <= 3) took the same time:
    each head step costs more as the evaluations of G fall.
    """
    return max(m or 1, N) + 8


def _certified_top(rstar: float, a: list[float], m: int | None, N: int) -> float:
    """Newton start: an upper bound on the root of the equation (m, N) of
    ``_equation_index``, near the root of its head.

    First the monomial bound, from the terms a_1 r^m and a_N r^N, or a_N r^N
    alone where m is None (the Bohr limit, whose a_N r^N is a_1 r).  Every
    coefficient of G + r* is nonnegative, so at the root each of these terms
    a r^k is at most r*, and the root is at most (r*/a)^(1/k).  Terms with
    a = 0 bound nothing.  A bound of 1 or more is replaced by 1 - 1e-9; one
    below 1 is kept even above 1 - 1e-9, where the root of a large m can lie.

    Then the head H of the equation: its terms of degree at most
    L = max(m, N) + 8 (``_head_degree``) among the moduli ``a``, so Q's
    a_k r^k for N <= k <= L and P's a_k r^(mk) for mk <= L.  Every term
    that H leaves out is nonnegative, so G >= H - r*, and the root of H - r*
    bounds G's root from above.  Newton's method on the convex H - r*,
    from the monomial bound, decreases towards that root with every iterate
    above it; the steps stop where H - r* is not positive, once a step
    lowers r by less than 0.1%, or after 12.  A last iterate that rounding
    puts at or below G's root is what ``_newton``'s restart, tol/5 above
    it, is for.
    The head steps evaluate H, not G: a result's ``iterations`` does not
    count them.
    """
    terms = [(a[N], N)] if m is None else [(a[1], m), (a[N], N)]
    top = min([math.inf] + [(rstar / c) ** (1.0 / k) for c, k in terms if c > 0.0])
    top = top if top < 1.0 else _BRACKET_HI
    # H as one polynomial in r, but for P's terms past the last modulus of
    # Q (a large m), which are kept as (coefficient, degree).
    degree = _head_degree(m, N)
    near = [0.0] * N + a[N:degree + 1]
    far = []
    last = 0 if m is None else min(degree // m, len(a) - 1)
    for k in range(1, last + 1):
        if m * k < len(near):
            near[m * k] += a[k]
        else:
            far.append((a[k], m * k))
    head = _polynomial(near)
    for _ in range(12):
        value, slope = head(top)
        for c, k in far:
            value += c * top**k
            slope += k * c * top ** (k - 1)
        value -= rstar
        if not value > 0.0:
            break
        step = value / slope
        top -= step
        if step < 1e-3 * (top + step):
            break
    return top


def _equation_row(p: _ValueSlope | None, q: _ValueSlope, m: int, rstar: float
                  ) -> _RowEquations:
    """G(r) = P(r^m) + Q(r) - r* and G'(r) = Q'(r) + m r^(m-1) P'(r^m) as a
    one-row evaluator, from the values and slopes of P (None when G has no
    r^m term) and Q; the rows asked for are all that one row.  With
    ``slopes=False`` it gives G alone, from the values of P and Q alone.
    """

    def evaluate(rows: list[int], radii: list[float], slopes: bool = True) -> list:
        out = []
        if not slopes:
            for r in radii:
                value = q(r, False)
                if p is not None:
                    value += p(r**m, False)
                out.append(value - rstar)
            return out
        for r in radii:
            value, slope = q(r)
            if p is not None:
                point, point_slope = p(r**m)
                value += point
                slope += m * r ** (m - 1) * point_slope
            out.append((value - rstar, slope))
        return out

    return evaluate


def _powers(x: np.ndarray, order: int) -> np.ndarray:
    """The table x_i^k for k = 0..order, one row per x_i, by running products.

    A power table of tiny x (r^m at large m) is mostly subnormal and zero,
    which ``np.power`` computes slowly term by term; a running product
    passes through the subnormals in a step or two.
    """
    table = np.empty((x.size, order + 1))
    table[:, 0] = 1.0
    table[:, 1:] = x[:, None]
    return np.cumprod(table, axis=1, out=table)


def _slope_coeffs(coeffs: np.ndarray) -> np.ndarray:
    """Coefficients of the derivative, padded to the same length."""
    out = np.zeros_like(coeffs)
    out[..., :-1] = coeffs[..., 1:] * np.arange(1, coeffs.shape[-1])
    return out


def _moduli_row(row: tuple[int | None, int], a: list[float], rstar: float) -> _RowEquations:
    """The evaluator of the one radius equation ``row`` = (m, N) of
    ``_equation_index``, built from the moduli ``a`` of a series, with no
    certified start.  It is the one build of a lone row: ``_radius_equations``
    adds the start that the solver needs, and ``g_function`` takes it as it
    is.  Built from the moduli of a subordinant g, -G(r) is the
    Bohr-Rogosinski margin of g at r, which the oracle takes as one product
    r* - |g| @ W instead (``oracle._BRChecks``), equal to within rounding.

    Q is ``a`` with its terms of index < N zeroed.  P = ``a`` is summed into
    Q when m is 1, kept as its own Horner pass for any other m, and absent
    where m is None (the Bohr limit).
    """
    m, N = row
    q = [0.0] * N + a[N:]
    if m == 1:
        q = [x + y for x, y in zip(a, q)]
    return _equation_row(None if m in (None, 1) else _polynomial(a), _polynomial(q), m, rstar)


def _radius_equations(indices: list[tuple[int | None, int]], coeffs: list[float],
                      rstar: float) -> tuple[_RowEquations, list[float]]:
    """The radius equations at the given (m, N), one row each, as one
    evaluator over rows, and each row's certified start.  Each (m, N) is an
    equation's own, from ``_equation_index``, so the mode is decided before:
    m is None where the equation has no r^m term (the Bohr limit).  Every
    Bohr-limit problem solves the one equation (None, 1), and ``_results``
    asks for each distinct equation once, so several rows always carry the
    r^m term.

    Row v holds G_v(r) = P(r^(m_v)) + Q_v(r) - r* from the moduli fhat of
    ``coeffs``: P = fhat and Q_v is fhat with its terms of index < N_v
    zeroed; where m is None P is absent, and when every m is 1, P is summed
    into each Q_v.  One row is ``_moduli_row``'s, evaluated by plain-float
    Horner passes.  Several rows are evaluated together by one
    pass: the power tables of the radii asked for give G and G' of each row
    by one row-wise product with the coefficient and slope rows, plus one
    product with P and its slope for the r^m term; asked for values only,
    the pass returns its column of G.  ``solve`` and ``sweep`` pass the
    family extremal.
    """
    a = list(map(abs, coeffs))
    if len(indices) == 1:
        (row,) = indices
        return _moduli_row(row, a, rstar), [_certified_top(rstar, a, *row)]
    tops = [_certified_top(rstar, a, m, N) for m, N in indices]
    ms, heads = zip(*indices)
    fold = max(ms) == 1
    moduli = np.array(a)
    order = moduli.size - 1
    q = np.where(np.arange(order + 1) < np.array(heads)[:, None], 0.0, moduli)
    if fold:
        q = q + moduli
    q_rows = np.stack([q, _slope_coeffs(q)], axis=1)
    p_cols = None if fold else np.stack([moduli, _slope_coeffs(moduli)], axis=1)
    ms = np.array(ms)

    def evaluate(rows: list[int], r: list[float], slopes: bool = True) -> list:
        rows, r = np.asarray(rows), np.asarray(r)
        value, slope = np.einsum("ijk,ik->ji", q_rows[rows], _powers(r, order))
        if p_cols is not None:
            m = ms[rows]
            point, point_slope = (_powers(r**m, order) @ p_cols).T
            value = value + point
            slope = slope + m * r ** (m - 1) * point_slope
        value = (value - rstar).tolist()
        return list(zip(value, slope.tolist())) if slopes else value

    return evaluate, tops


def _check_radius(r: float) -> None:
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")


def g_function(problem: RadiusProblem, pair: ExtremalPair, r: float) -> float:
    """Value of the radius equation at r in [0, 1)."""
    _check_radius(r)
    coeffs, rstar = _family_extremal(problem, pair)
    row = _equation_index(problem.mode, problem.m, problem.N)
    return _moduli_row(row, list(map(abs, coeffs)), rstar)([0], [r], slopes=False)[0]


def _newton(evaluate: _RowEquations, tol: float, tops: list[float], g_lo: float
            ) -> list[tuple[float, tuple[float, float], int, float]]:
    """Roots of increasing convex equations G_v on [0, tops[v]], one per row,
    each with a certified bracket.

    ``evaluate(rows, r)`` returns the pairs (G, G') of the equations
    ``rows`` at the radii ``r``, and ``evaluate(rows, r, slopes=False)`` the
    values G alone; a row may appear more than once.  Each
    ``tops[v]`` is a certified upper bound on row v's root, the start from
    ``_certified_top``, and ``g_lo`` is G(0) = -r*, which every row takes
    exactly, so it is not evaluated.
    Fourier's condition holds at the start (G'' >= 0) whenever G(hi) > 0; if
    rounding leaves G(hi) <= 0 at a start below 1 - 1e-9, the start is
    raised by tol/5, the widening of the closing checks, and where G is
    still not positive there, to 1 - 1e-9; each try is an evaluation of G.
    Newton's iterates from the start decrease monotonically to the root and
    each is an upper bound.  The secant through (0, G(0)) and the current iterate
    lies above a convex G on [0, hi], so its zero -G(0) hi / (G(hi) - G(0))
    is a lower bound, and each pass costs one evaluation of G per open row.
    A Newton step too small to lower hi by rounding bisects [lo, hi]
    instead, and the sign of G at the midpoint says which end it replaces.
    Once the two bounds agree within tol/2 they are widened by tol/5 on
    each side and the signs of G at the new ends are checked.  The root is
    one more Newton step, kept between the two bounds.  These three closing
    evaluations read G alone, so they ask for values only; they count among
    the evaluations of G like the others.
    Every pass makes one call to ``evaluate``, on the rows still open.
    Returns, per row, the root, the bracket, the number of evaluations of G
    and the residual G(root).
    """
    hi = list(tops)
    rows = range(len(hi))
    at_hi = evaluate(rows, hi)
    evaluations = [1] * len(hi)
    for widen in (0.2 * tol, math.inf):
        restart = [v for v in rows if at_hi[v][0] <= 0.0 and hi[v] < _BRACKET_HI]
        if restart:
            raised = [min(hi[v] + widen, _BRACKET_HI) for v in restart]
            for v, top, at_top in zip(restart, raised, evaluate(restart, raised)):
                hi[v], at_hi[v] = top, at_top
                evaluations[v] += 1
    for v in rows:
        if not g_lo < 0.0 < at_hi[v][0]:
            raise BracketError(
                f"no sign change on [0.0, {hi[v]}]: G(lo)={g_lo:.3e}, G(hi)={at_hi[v][0]:.3e}"
            )
    lo = [0.0] * len(hi)
    bisect = [False] * len(hi)
    open_rows = [v for v in rows if hi[v] > 0.5 * tol]
    while open_rows:
        steps = []
        for v in open_rows:
            g, s = at_hi[v]
            r = hi[v] - g / s
            # A Newton step too small to lower hi by rounding bisects [lo, hi].
            bisect[v] = not r < hi[v]
            steps.append(0.5 * (lo[v] + hi[v]) if bisect[v] else r)
        still_open = []
        for v, r, at_r in zip(open_rows, steps, evaluate(open_rows, steps)):
            evaluations[v] += 1
            g = at_r[0]
            if g > 0.0 or not bisect[v]:
                hi[v], at_hi[v] = r, at_r
            # G(r) <= 0 puts r below the root; after a Newton step only by
            # rounding, which closes the bracket.
            lo[v] = r if g <= 0.0 else g_lo * r / (g_lo - g)
            if hi[v] - lo[v] > 0.5 * tol:
                still_open.append(v)
        open_rows = still_open
    roots = [min(max(h - g / s, lo_v), h) for lo_v, h, (g, s) in zip(lo, hi, at_hi)]
    ends = [lo_v - 0.2 * tol for lo_v in lo] + [h + 0.2 * tol for h in hi]
    values = evaluate(list(rows) * 3, roots + ends, slopes=False)
    n = len(roots)
    for v in rows:
        if not values[n + v] < 0.0 < values[2 * n + v]:
            raise BracketError(f"no sign change on the final bracket {(ends[v], ends[n + v])}")
    return [(roots[v], (ends[v], ends[n + v]), evaluations[v] + 3, values[v]) for v in rows]


def _results(problem: RadiusProblem, indices: list[tuple[int, int]],
             equations: Callable[[list], tuple[_RowEquations, list[float]]], rstar: float,
             nonnegative: bool) -> list[RadiusResult]:
    """The results of ``problem``'s radius equation at each given (m, N), in
    the given order: the one path from equations to results of
    ``_solve_grid`` (``solve`` and ``sweep``) and ``solve_janowski_exact``.

    Each (m, N) is mapped to the (m, N) of the equation it solves
    (``_equation_index``, where the Bohr limit is decided); the distinct
    ones, in the order they first appear, are the rows of
    ``equations(rows)``, which returns their evaluator and certified starts,
    and one ``_newton`` call solves them all.  Each result echoes its given
    (m, N) and counts its own row's evaluations of G, so the values of a
    Bohr-limit sweep share one row.  ``nonnegative`` says whether every
    extremal coefficient is nonnegative, which sharpness needs: then the
    extremal itself attains the bound, exact zeros (a terminating or
    underflowed series) included.

    The one place that decides rb.  Only psi = (1+z)/(1-z) (D = 1, E = -1)
    bounds every subordinant's |b_n| by |a_n|, so that r0 holds for all:
    |b_n| <= n under the Koebe function (de Branges, 1985), |b_n| <= 1
    under z/(1-z) (Rogosinski, 1943).  Elsewhere the Bhowmik-Das lemma
    covers only r <= 1/3.
    """
    spec, family, mode = problem.psi, problem.family.value, problem.mode
    classical = spec.params.get("D") == 1.0 and spec.params.get("E") == -1.0
    grid = [_equation_index(mode, m, N) for m, N in indices]
    rows = list(dict.fromkeys(grid))
    evaluate, tops = equations(rows)
    solved = dict(zip(rows, _newton(evaluate, problem.tol, tops, -rstar)))
    results = []
    for (m, N), row in zip(indices, grid):
        r0, bracket, iterations, residual = solved[row]
        rb = r0 if classical else min(r0, _LEMMA_RADIUS)
        results.append(RadiusResult(spec.label, family, m, N, mode.value, r0, rb, residual,
                                    iterations, rb == r0 and nonnegative, bracket))
    return results


def _solve_grid(problem: RadiusProblem, grid: list[tuple[int, int]],
                pair: ExtremalPair | None = None) -> list[RadiusResult]:
    """The results of ``problem``'s series equation at each (m, N) of the
    checked ``grid``, in its order: the family extremal is read once
    (``_family_extremal``, from ``pair`` when given), and its equations are
    built by ``_radius_equations``.  The one route of ``solve`` and
    ``sweep`` to ``_results``."""
    coeffs, rstar = _family_extremal(problem, pair)
    # The coefficients are finite, so no NaN upsets min.
    return _results(problem, grid, lambda rows: _radius_equations(rows, coeffs, rstar), rstar,
                    min(coeffs) >= 0.0)


def solve(problem: RadiusProblem, pair: ExtremalPair | None = None) -> RadiusResult:
    """Solve the radius equation for the given problem.

    A given ``pair`` must be built at ``problem.order``.
    """
    return _solve_grid(problem, [(problem.m, problem.N)], pair)[0]


def solve_janowski_exact(d: float, e: float, m: int = 1, N: int = 1,
                         tol: float = DEFAULT_TOL,
                         mode: Mode | str = Mode.BOHR_ROGOSINSKI) -> RadiusResult:
    """Solve the closed-form Janowski radius equation.

    With f0(z) = z (1 + E z)^((D-E)/E), or z e^(Dz) at E = 0, the equation is

        f0(r^m) + f0(r) - T(r) - r* = 0,        r* = -f0(-1),

    where T removes the first terms of the second sum: T = 0 for N = 1,
    T = r for N = 2, and T = r + sum_{n=2}^{N-1} a_n r^n for N >= 3, with
    a_n from the entry's recurrence a_1 = 1, a_{k+1} = a_k (D - kE)/k, read
    as ``solve`` reads them, through ``_f0_coefficients``, which also gives
    the start its head's coefficients.
    ``_results`` maps (m, N) to the equation's own (``_equation_index``),
    as for ``solve``: in the Bohr limit the f0(r^m) term is dropped and T
    is that of N = 1, and the result echoes the given N.

    Only E <= 0 is accepted.  For E > 0 the extremal coefficients change
    sign, so the radius equation needs the majorant fhat0(r^m), not the
    signed closed form; ``solve`` handles that case from the series.
    Every extremal coefficient is positive for E <= 0, so f0 is its own
    majorant, f0(r) - T(r) is the tail sum_{n>=N} a_n r^n, and G is
    increasing and convex as in ``solve``.  It is G = P(r^m) + Q(r) - r*
    with P = f0 and Q = f0 - T, evaluated by the one-row evaluator of
    ``solve`` and solved by the same Newton solver from the same certified
    start, with a_1 = 1 and a_N from the same recurrence; the result is
    sharp wherever ``_results`` keeps rb = r0.  Its ``RadiusProblem`` has
    no order: the closed equation truncates nothing, so N may pass any
    series order.
    """
    spec = janowski(d, e)
    if e > 0.0:
        raise ValueError(f"the closed Janowski equation needs E <= 0, got E={e:g}; "
                         "the series path (--method series) solves E > 0")
    problem = RadiusProblem(spec, Family.STARLIKE, m, N, mode, None, tol)
    p = None if e == 0.0 else (d - e) / e
    rstar = spec.koebe_closed

    def f0_closed(x: float, slope: bool = True) -> tuple[float, float] | float:
        # f0 and f0' = (1 + D x) (1 + E x)^(p-1), or (1 + D x) e^(D x) at E = 0.
        if e == 0.0:
            grow = math.exp(d * x)
            value = x * grow
            return (value, (1.0 + d * x) * grow) if slope else value
        base = 1.0 + e * x
        value = x * base**p
        return (value, (1.0 + d * x) * base ** (p - 1.0)) if slope else value

    def equation(rows: list[tuple[int | None, int]]) -> tuple[_RowEquations, list[float]]:
        # The one row (m_row, n) of the closed equation: P = f0, absent where
        # m_row is None, and Q = f0 - T, the sum of a_k r^k over k >= n.
        # Its start reads the coefficients to the degree of its head, but no
        # further than a default-order solve reads them.
        ((m_row, n),) = rows
        coeffs = _f0_coefficients(spec, max(n, min(_head_degree(m_row, n), DEFAULT_ORDER)))
        removed = _polynomial(coeffs[:n])

        def tail(r: float, slope: bool = True) -> tuple[float, float] | float:
            if not slope:
                return f0_closed(r, False) - removed(r, False)
            value, derivative = f0_closed(r)
            removed_value, removed_derivative = removed(r)
            return value - removed_value, derivative - removed_derivative

        return (_equation_row(None if m_row is None else f0_closed, tail, m_row, rstar),
                [_certified_top(rstar, coeffs, m_row, n)])

    return _results(problem, [(problem.m, problem.N)], equation, rstar, True)[0]


class Sweep(NamedTuple):
    axis: str
    values: tuple[int, ...]
    results: tuple[RadiusResult, ...]
    monotone_nondecreasing: bool


def sweep(problem: RadiusProblem, n_values=None, m_values=None) -> Sweep:
    """Solve over a grid in N or in m; the family's extremal is built once.

    Every value is checked, and taken as an int, before anything is
    solved.  The grid then goes to ``_solve_grid``, as a lone ``solve``'s
    (m, N) does: its distinct equations are solved together by one
    ``_newton`` call, one row each, and each result's ``iterations`` counts
    its own row's evaluations of G.  In the Bohr limit every value has the
    same equation (``_equation_index``), so one row is solved and each
    result echoes its own value.  A sweep of one row returns what ``solve``
    returns, bitwise.  Results come back in the given order.  Whether the
    solved radii are nondecreasing along the grid is reported as a
    diagnostic, not asserted.
    """
    if (n_values is None) == (m_values is None):
        raise ValueError("exactly one of n_values and m_values must be given")
    axis, values = ("N", n_values) if n_values is not None else ("m", m_values)
    grid = []
    for v in values:
        m, N = (v, problem.N) if axis == "m" else (problem.m, v)
        grid.append(_check_problem(m, N, problem.tol, problem.order)[:2])
    if not grid:
        raise ValueError(f"empty sweep range for {axis}")
    values = tuple(m if axis == "m" else N for m, N in grid)
    results = tuple(_solve_grid(problem, grid))
    radii = [res.r0 for res in results]
    monotone = all(b >= a - 1e-12 for a, b in zip(radii, radii[1:]))
    return Sweep(axis=axis, values=values, results=results,
                 monotone_nondecreasing=monotone)
