"""Radius equations and their bracketed root solvers.

For a family extremal series with coefficient moduli a_n (a_0 = 0,
a_1 = 1) and boundary distance rs, the solved equation is

    G(r) = P(r^m) + Q(r) - rs = 0,

where P = fhat, fhat(r) = sum |a_n| r^n, and Q is fhat with its terms of
index < N removed.  In the Bohr limit (m -> infinity with N = 1) the
P(r^m) term is dropped and Q = fhat.  Apart from its constant -rs every
coefficient of G is a modulus, so on [0, 1) G is increasing and convex
with exactly one root; G(0) = -rs exactly, so the solvers take it without
evaluating G.  Since a_1 = 1, G(r) >= r^m + |a_N| r^N - rs (r - rs in the
Bohr limit), so the root lies below min(rs^(1/m), (rs/|a_N|)^(1/N))
(``_certified_top``).  One solver, ``_newton``, starts Newton's method
there, from the right; by convexity the zero of the secant through
(0, G(0)) and each Newton iterate is a lower bound, so the bracket costs
one evaluation of G per step and ends certified by two more.  It solves a
batch of equations, one row each, with one call to G per pass on the rows
still open.  One builder, ``_radius_equations``, makes the rows of a
``solve`` or a ``sweep`` with their starts; one row is evaluated by
plain-float Horner passes, several by one array product.  The one-row
evaluator also serves the closed-form Janowski equation (E <= 0), with P
and Q in closed form.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .catalog import PsiSpec, janowski, janowski_coeff_bound
from .extremal import ExtremalPair, build_f0, build_l0, koebe_radius
from .series import DEFAULT_ORDER, OrderMismatchError, TruncatedSeries

_BRACKET_HI = 1.0 - 1e-9

# The pairs (G, G') of the equations ``rows`` at the radii ``r``.
_RowEquations = Callable[[list[int], list[float]], list[tuple[float, float]]]
# A polynomial's (or power series') value and slope at one point.
_ValueSlope = Callable[[float], tuple[float, float]]


class Family(str, Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"


class Mode(str, Enum):
    BOHR_ROGOSINSKI = "bohr-rogosinski"
    BOHR_LIMIT = "bohr-limit"


class BracketError(RuntimeError):
    """The radius equation did not change sign on the search bracket."""


def _check_problem(m: int, N: int, tol: float, order: int | None = None) -> None:
    """The checks of a ``RadiusProblem``, also made on each value of a sweep;
    ``order`` is None for the closed equation, which truncates nothing."""
    if m < 1 or N < 1:
        raise ValueError("m and N must be positive integers")
    # Below 1e-15 the tol/5 widening of a bracket can be less than one ulp
    # of r, and the widened ends collapse onto the bounds they widen.
    if not 1e-15 <= tol < 1e-3:
        raise ValueError(f"tol must lie in [1e-15, 1e-3), got {tol}")
    if order is not None and N > order:
        raise ValueError(f"N={N} exceeds the truncation order {order}")


@dataclass(frozen=True)
class RadiusProblem:
    psi: PsiSpec
    family: Family = Family.STARLIKE
    m: int = 1
    N: int = 1
    mode: Mode = Mode.BOHR_ROGOSINSKI
    order: int = DEFAULT_ORDER
    tol: float = 1e-10

    def __post_init__(self):
        _check_problem(self.m, self.N, self.tol, self.order)


@dataclass(frozen=True)
class RadiusResult:
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
        out = dataclasses.asdict(self)
        del out["bracket"]
        return out


def _family_extremal(problem: RadiusProblem, pair: ExtremalPair | None = None
                     ) -> tuple[TruncatedSeries, float]:
    """The family's extremal series (f0 or l0) and its boundary distance r*.

    They come from ``pair`` when one is given, which must be built at
    ``problem.order`` (another order gives another G); else only the
    family's own series and Koebe radius are built.
    """
    if pair is None:
        f0 = build_f0(problem.psi, problem.order)
        series = f0 if problem.family == Family.STARLIKE else build_l0(f0)
        return series, koebe_radius(problem.psi, problem.family.value)
    if pair.f0.order != problem.order:
        raise OrderMismatchError(f"order mismatch: the pair has order {pair.f0.order}, "
                                 f"the problem {problem.order}")
    if problem.family == Family.STARLIKE:
        return pair.f0, pair.koebe_starlike
    return pair.l0, pair.koebe_convex


def _polynomial(coeffs: list[float]) -> _ValueSlope:
    """Value and slope of the polynomial sum c_k x^k, by one plain-float
    Horner pass that carries both."""
    reversed_coeffs = coeffs[::-1]

    def value_slope(x: float) -> tuple[float, float]:
        value = slope = 0.0
        for c in reversed_coeffs:
            slope = slope * x + value
            value = value * x + c
        return value, slope

    return value_slope


def _certified_top(rstar: float, a: list[float], m: int, N: int, bohr_limit: bool
                   ) -> float:
    """Newton start: an upper bound on the root of G from its terms a_1 r^m
    and a_N r^N (a_1 r in the Bohr limit).

    Every coefficient of G + r* is nonnegative, so at the root each of these
    terms a r^k is at most r*, and the root is at most (r*/a)^(1/k).  Terms
    with a = 0 bound nothing.  A bound of 1 or more is replaced by
    1 - 1e-9; one below 1 is kept even above 1 - 1e-9, where the root of a
    large m can lie.
    """
    terms = [(a[1], 1)] if bohr_limit else [(a[1], m), (a[N], N)]
    top = min([math.inf] + [(rstar / c) ** (1.0 / k) for c, k in terms if c > 0.0])
    return top if top < 1.0 else _BRACKET_HI


def _equation_row(p: _ValueSlope | None, q: _ValueSlope, m: int, rstar: float
                  ) -> _RowEquations:
    """G(r) = P(r^m) + Q(r) - r* and G'(r) = Q'(r) + m r^(m-1) P'(r^m) as a
    one-row evaluator, from the values and slopes of P (None when G has no
    r^m term) and Q; the rows asked for are all that one row.
    """

    def evaluate(rows: list[int], radii: list[float]) -> list[tuple[float, float]]:
        out = []
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


def _radius_equations(indices: list[tuple[int, int]], mode: Mode, series: TruncatedSeries,
                      rstar: float) -> tuple[_RowEquations, list[float]]:
    """The radius equations of one ``mode`` at the given (m, N), one row
    each, as one evaluator over rows, and each row's certified start.

    Row v holds G_v(r) = P(r^(m_v)) + Q_v(r) - r* from the moduli fhat of
    ``series``: P = fhat and Q_v is fhat with its terms of index < N_v
    zeroed; in the Bohr limit P is absent and Q_v = fhat, and when every m
    is 1, P is summed into each Q_v.  One row is evaluated by plain-float
    Horner passes that carry value and slope together.  Several rows are
    evaluated together: the power tables of the radii asked for give G and
    G' of each row by one row-wise product with the coefficient and slope
    rows, plus one product with P for the r^m term.  ``solve`` and ``sweep``
    pass the family extremal; built from a subordinant g instead, -G(r) is
    the Bohr-Rogosinski margin of g at r.
    """
    moduli = np.abs(series.coeffs)
    a = moduli.tolist()
    bohr_limit = mode == Mode.BOHR_LIMIT
    # One loop, not three comprehensions: a lone solve pays for each.
    tops, ms, heads = [], [], []
    for m, N in indices:
        tops.append(_certified_top(rstar, a, m, N, bohr_limit))
        ms.append(m)
        heads.append(0 if bohr_limit else N)
    fold = not bohr_limit and max(ms) == 1
    separate_p = not (bohr_limit or fold)
    if len(indices) == 1:
        q = [0.0] * heads[0] + a[heads[0]:]
        if fold:
            q = [x + y for x, y in zip(a, q)]
        p = _polynomial(a) if separate_p else None
        return _equation_row(p, _polynomial(q), ms[0], rstar), tops

    order = moduli.size - 1
    q = np.where(np.arange(order + 1) < np.array(heads)[:, None], 0.0, moduli)
    if fold:
        q = q + moduli
    q_rows = np.stack([q, _slope_coeffs(q)], axis=1)
    p_cols = np.stack([moduli, _slope_coeffs(moduli)], axis=1) if separate_p else None
    ms = np.array(ms)

    def evaluate(rows: list[int], r: list[float]) -> list[tuple[float, float]]:
        rows, r = np.asarray(rows), np.asarray(r)
        value, slope = np.einsum("ijk,ik->ji", q_rows[rows], _powers(r, order))
        if p_cols is not None:
            m = ms[rows]
            point, point_slope = (_powers(r**m, order) @ p_cols).T
            value = value + point
            slope = slope + m * r ** (m - 1) * point_slope
        return list(zip((value - rstar).tolist(), slope.tolist()))

    return evaluate, tops


def _check_radius(r: float) -> None:
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")


def g_function(problem: RadiusProblem, pair: ExtremalPair, r: float) -> float:
    """Value of the radius equation at r in [0, 1)."""
    _check_radius(r)
    evaluate, _ = _radius_equations([(problem.m, problem.N)], problem.mode,
                                    *_family_extremal(problem, pair))
    return evaluate([0], [r])[0][0]


def _newton(evaluate: _RowEquations, tol: float, tops: list[float], g_lo: float
            ) -> list[tuple[float, tuple[float, float], int, float]]:
    """Roots of increasing convex equations G_v on [0, tops[v]], one per row,
    each with a certified bracket.

    ``evaluate(rows, r)`` returns the pairs (G, G') of the equations
    ``rows`` at the radii ``r``; a row may appear more than once.  Each
    ``tops[v]`` is a certified upper bound on row v's root, the start from
    ``_certified_top``, and ``g_lo`` is G(0) = -r*, which every row takes
    exactly, so it is not evaluated.
    Fourier's condition holds at the start (G'' >= 0) whenever G(hi) > 0; if
    rounding leaves G(hi) <= 0 at a start below 1 - 1e-9, the start falls
    back to 1 - 1e-9.  Newton's iterates from the start decrease
    monotonically to the root and each is an upper bound.  The secant through (0, G(0)) and the current iterate
    lies above a convex G on [0, hi], so its zero -G(0) hi / (G(hi) - G(0))
    is a lower bound, and each pass costs one evaluation of G per open row.
    A Newton step too small to lower hi by rounding bisects [lo, hi]
    instead, and the sign of G at the midpoint says which end it replaces.
    Once the two bounds agree within tol/2 they are widened by tol/5 on
    each side and the signs of G at the new ends are checked.  The root is
    one more Newton step, kept between the two bounds.
    Every pass makes one call to ``evaluate``, on the rows still open.
    Returns, per row, the root, the bracket, the number of evaluations of G
    and the residual G(root).
    """
    hi = list(tops)
    rows = range(len(hi))
    at_hi = evaluate(rows, hi)
    evaluations = [1] * len(hi)
    restart = [v for v in rows if at_hi[v][0] <= 0.0 and hi[v] < _BRACKET_HI]
    if restart:
        for v, at_top in zip(restart, evaluate(restart, [_BRACKET_HI] * len(restart))):
            hi[v], at_hi[v] = _BRACKET_HI, at_top
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
    values = [g for g, _ in evaluate(list(rows) * 3, roots + ends)]
    n = len(roots)
    for v in rows:
        if not values[n + v] < 0.0 < values[2 * n + v]:
            raise BracketError(f"no sign change on the final bracket {(ends[v], ends[n + v])}")
    return [(roots[v], (ends[v], ends[n + v]), evaluations[v] + 3, values[v]) for v in rows]


def _result(spec: PsiSpec, family: Family, mode: Mode, m: int, N: int,
            solved: tuple[float, tuple[float, float], int, float],
            positive: bool) -> RadiusResult:
    """The result of a solved equation, from a row of ``_newton``;
    ``positive`` says whether every extremal coefficient past a_0 is
    positive, which sharpness needs."""
    r0, bracket, iterations, residual = solved
    rb = r0 if spec.exact_bounds else min(r0, 1.0 / 3.0)
    return RadiusResult(
        psi=spec.label,
        family=family.value,
        m=m,
        N=N,
        mode=mode.value,
        r0=r0,
        rb=rb,
        residual=residual,
        iterations=iterations,
        sharp=rb == r0 and positive,
        bracket=bracket,
    )


def _coefficients_positive(series: TruncatedSeries) -> bool:
    return bool(np.all(series.coeffs[1:] > 0.0))


def solve(problem: RadiusProblem, pair: ExtremalPair | None = None) -> RadiusResult:
    """Solve the radius equation for the given problem.

    A given ``pair`` must be built at ``problem.order``.
    """
    series, rstar = _family_extremal(problem, pair)
    evaluate, tops = _radius_equations([(problem.m, problem.N)], problem.mode, series, rstar)
    (solved,) = _newton(evaluate, problem.tol, tops, -rstar)
    return _result(problem.psi, problem.family, problem.mode, problem.m, problem.N,
                   solved, _coefficients_positive(series))


def solve_janowski_exact(d: float, e: float, m: int = 1, N: int = 1,
                         tol: float = 1e-10,
                         mode: Mode = Mode.BOHR_ROGOSINSKI) -> RadiusResult:
    """Solve the closed-form Janowski radius equation.

    With f0(z) = z (1 + E z)^((D-E)/E), or z e^(Dz) at E = 0, the equation is

        f0(r^m) + f0(r) - H(r) - r* = 0,        r* = -f0(-1),

    where H removes the head of the second sum: H = 0 for N = 1, H = r for
    N = 2, and H = r + sum_{n=2}^{N-1} a_n r^n for N >= 3, with
    a_n = prod_{k=0}^{n-2} |E-D+Ek|/(k+1).
    In Bohr-limit mode the f0(r^m) term is dropped and the head is that of
    N = 1; the result echoes the given N, as ``solve`` does.

    Only E <= 0 is accepted.  For E > 0 the extremal coefficients change
    sign, so the radius equation needs the majorant fhat0(r^m), not the
    signed closed form; ``solve`` handles that case from the series.
    Every extremal coefficient is positive for E <= 0, so f0 is its own
    majorant, f0(r) - H(r) is the tail sum_{n>=N} a_n r^n, and G is
    increasing and convex as in ``solve``.  It is G = P(r^m) + Q(r) - r*
    with P = f0 and Q = f0 - H, evaluated by the one-row evaluator of
    ``solve`` and solved by the same Newton solver from the same certified
    start, with a_1 = 1 and a_N = ``janowski_coeff_bound``; the result is
    always sharp.
    """
    spec = janowski(d, e)
    if e > 0.0:
        raise ValueError(f"the closed Janowski equation needs E <= 0, got E={e:g}; "
                         "the series path (--method series) solves E > 0")
    _check_problem(m, N, tol)
    bohr_limit = mode == Mode.BOHR_LIMIT
    n = 1 if bohr_limit else N
    p = None if e == 0.0 else (d - e) / e

    def f0_closed(x: float) -> tuple[float, float]:
        # f0 and f0' = (1 + D x) (1 + E x)^(p-1), or (1 + D x) e^(D x) at E = 0.
        if e == 0.0:
            grow = math.exp(d * x)
            return x * grow, (1.0 + d * x) * grow
        base = 1.0 + e * x
        return x * base**p, (1.0 + d * x) * base ** (p - 1.0)

    coeffs = [0.0, 1.0] + [janowski_coeff_bound(d, e, k) for k in range(2, n + 1)]
    head = _polynomial(coeffs[:n])

    def tail(r: float) -> tuple[float, float]:
        # Q = f0 - H, the sum of a_k r^k over k >= n.
        value, slope = f0_closed(r)
        head_value, head_slope = head(r)
        return value - head_value, slope - head_slope

    rstar = spec.koebe_closed
    evaluate = _equation_row(None if bohr_limit else f0_closed, tail, m, rstar)
    top = _certified_top(rstar, coeffs, m, n, bohr_limit)
    (solved,) = _newton(evaluate, tol, [top], -rstar)
    return _result(spec, Family.STARLIKE, mode, m, N, solved, True)


@dataclass(frozen=True)
class Sweep:
    axis: str
    values: tuple[int, ...]
    results: tuple[RadiusResult, ...]
    monotone_nondecreasing: bool


def sweep(problem: RadiusProblem, n_values=None, m_values=None) -> Sweep:
    """Solve over a grid in N or in m; the family's extremal is built once.

    Every value is checked before anything is solved.  The distinct values
    are then solved together by the builder and solver of a lone ``solve``
    (``_radius_equations``, ``_newton``), one row per value, and each
    result's ``iterations`` counts its own row's evaluations of G.  In the
    Bohr limit every value has the same equation, so one row is solved and
    each result echoes its own value.  A sweep of one row returns what
    ``solve`` returns, bitwise.  Results come back in the given order.
    Whether the solved radii are nondecreasing along the grid is reported
    as a diagnostic, not asserted.
    """
    if (n_values is None) == (m_values is None):
        raise ValueError("exactly one of n_values and m_values must be given")
    axis, values = ("N", n_values) if n_values is not None else ("m", m_values)
    values = tuple(int(v) for v in values)
    if not values:
        raise ValueError(f"empty sweep range for {axis}")
    distinct = list(dict.fromkeys(values))
    indices = [(v, problem.N) if axis == "m" else (problem.m, v) for v in distinct]
    for m, N in indices:
        _check_problem(m, N, problem.tol, problem.order)
    series, rstar = _family_extremal(problem)
    bohr_limit = problem.mode == Mode.BOHR_LIMIT
    # In the Bohr limit G depends on neither m nor N: one row serves every value.
    evaluate, tops = _radius_equations(indices[:1] if bohr_limit else indices, problem.mode,
                                       series, rstar)
    roots = _newton(evaluate, problem.tol, tops, -rstar)
    if bohr_limit:
        roots *= len(indices)
    positive = _coefficients_positive(series)
    solved = {v: _result(problem.psi, problem.family, problem.mode, m, N, root, positive)
              for v, (m, N), root in zip(distinct, indices, roots)}
    results = tuple(solved[v] for v in values)
    radii = [res.r0 for res in results]
    monotone = all(b >= a - 1e-12 for a, b in zip(radii, radii[1:]))
    return Sweep(axis=axis, values=values, results=results,
                 monotone_nondecreasing=monotone)
