"""Radius equations and their bracketed root solvers.

For a family extremal series with coefficient moduli a_n (a_1 = 1) and
boundary distance rs, the solved equation is

    G(r) = fhat(r^m) + fhat(r) - p(r) - rs = 0,

where fhat(r) = sum |a_n| r^n and p(r) removes the head of the second
sum: p = 0 for N = 1, p = r for N = 2, p = r + sum_{n=2}^{N-1} |a_n| r^n
for N >= 3.  In the Bohr limit (m -> infinity with N = 1) the fhat(r^m)
term is dropped.  Apart from its constant -rs every coefficient of G is a
modulus, so on [0, 1) G is increasing and convex with exactly one root.
Since a_1 = 1, G(r) >= r^m + |a_N| r^N - rs (r - rs in the Bohr limit), so
the root lies below min(rs^(1/m), (rs/|a_N|)^(1/N)).  ``solve`` starts
Newton's method there, from the right; by convexity the zero of the
secant through (0, G(0)) and each Newton iterate is a lower bound, so the
bracket costs one evaluation of G per step and ends certified by two
more.  The closed-form Janowski equation (E <= 0) has the same structure
and goes through the same solver from the same start.  ``sweep`` solves
its values from the largest down: G falls as N or m grows, so each
result's upper bracket end is a certified start for the next.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .catalog import PsiSpec, janowski, janowski_coeff_bound
from .extremal import ExtremalPair, build_extremal_pair
from .series import DEFAULT_ORDER, OrderMismatchError, TruncatedSeries

_BRACKET_HI = 1.0 - 1e-9


class Family(str, Enum):
    STARLIKE = "starlike"
    CONVEX = "convex"


class Mode(str, Enum):
    BOHR_ROGOSINSKI = "bohr-rogosinski"
    BOHR_LIMIT = "bohr-limit"


class BracketError(RuntimeError):
    """The radius equation did not change sign on the search bracket."""


def _check_indices_and_tol(m: int, N: int, tol: float) -> None:
    if m < 1 or N < 1:
        raise ValueError("m and N must be positive integers")
    if not 0.0 < tol < 1e-3:
        raise ValueError(f"tol must lie in (0, 1e-3), got {tol}")


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
        _check_indices_and_tol(self.m, self.N, self.tol)
        if self.N > self.order:
            raise ValueError(f"N={self.N} exceeds the truncation order {self.order}")


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


def _family_extremal(problem: RadiusProblem, pair: ExtremalPair) -> tuple[TruncatedSeries, float]:
    """The family's extremal series (f0 or l0) and its boundary distance r*,
    from a pair built at ``problem.order``; another order gives another G."""
    if pair.f0.order != problem.order:
        raise OrderMismatchError(f"order mismatch: the pair has order {pair.f0.order}, "
                                 f"the problem {problem.order}")
    if problem.family == Family.STARLIKE:
        return pair.f0, pair.koebe_starlike
    return pair.l0, pair.koebe_convex


def _horner(reversed_coeffs: list[float], x: float) -> tuple[float, float]:
    """Value and slope of a polynomial, coefficients from the highest down."""
    value = slope = 0.0
    for c in reversed_coeffs:
        slope = slope * x + value
        value = value * x + c
    return value, slope


def _radius_equation(problem: RadiusProblem, series: TruncatedSeries, rstar: float
                     ) -> tuple[Callable[[float], tuple[float, float]], float]:
    """G and its slope G' as one function of r, from the moduli of ``series``.

    G(r) = P(r^m) + Q(r) - r* with P = fhat (absent in the Bohr limit) and
    Q = fhat with its terms of index < N removed (all of fhat in the Bohr
    limit), so that G'(r) = Q'(r) + m r^(m-1) P'(r^m).  Each polynomial is
    evaluated by one plain-float Horner pass that carries value and slope
    together; at m = 1 P and Q share their argument and are summed into one
    polynomial.  Also returns the certified Newton start (see
    ``_certified_top``).  ``solve`` passes the family extremal; built from a
    subordinant g instead, -G(r) is the Bohr-Rogosinski margin of g at r.
    """
    moduli = np.abs(series.coeffs).tolist()
    m, N = problem.m, problem.N
    if problem.mode == Mode.BOHR_LIMIT:
        p, q = [], moduli
        hi = _certified_top(rstar, [(moduli[1], 1)])
    else:
        p, q = moduli, [0.0] * N + moduli[N:]
        hi = _certified_top(rstar, [(moduli[1], m), (moduli[N], N)])
        if m == 1:
            p, q = [], [a + b for a, b in zip(p, q)]
    p, q = p[::-1], q[::-1]

    def equation(r: float) -> tuple[float, float]:
        value, slope = _horner(q, r)
        if p:
            p_value, p_slope = _horner(p, r**m)
            value += p_value
            slope += m * r ** (m - 1) * p_slope
        return value - rstar, slope

    return equation, hi


def _certified_top(rstar: float, terms: list[tuple[float, int]]) -> float:
    """Newton start: an upper bound on the root of G from terms a r^k of G + r*.

    Every coefficient of G + r* is nonnegative, so at the root each listed
    term a r^k is at most r*, and the root is at most (r*/a)^(1/k).  Terms
    with a = 0 bound nothing.
    """
    return min([_BRACKET_HI] + [(rstar / a) ** (1.0 / k) for a, k in terms if a > 0.0])


def _check_radius(r: float) -> None:
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")


def g_function(problem: RadiusProblem, pair: ExtremalPair, r: float) -> float:
    """Value of the radius equation at r in [0, 1)."""
    _check_radius(r)
    return _radius_equation(problem, *_family_extremal(problem, pair))[0](r)[0]


def _monotone_newton(equation: Callable[[float], tuple[float, float]], tol: float,
                     hi: float) -> tuple[float, tuple[float, float], int, float]:
    """Root of an increasing convex G on [0, hi] with a certified bracket.

    ``hi`` is a certified upper bound on the root: the start from
    ``_certified_top``, or a tighter one from ``_solve_below`` along a sweep.
    Fourier's condition holds there (G'' >= 0) whenever G(hi) > 0; if
    rounding leaves G(hi) <= 0 the start falls back to 1 - 1e-9.  Newton's
    iterates from the start decrease monotonically to the root and each is
    an upper bound.  The secant through (0, G(0)) and the current iterate
    lies above a convex G on [0, hi], so its zero -G(0) hi / (G(hi) - G(0))
    is a lower bound, and each pass costs one evaluation of G.  Once the two
    bounds agree within tol/2 they are widened by tol/5 on each side and the
    signs of G at the new ends are checked.  The root is one more Newton
    step, kept between the two bounds.
    Returns the root, the bracket, the number of evaluations of G and the
    residual G(root).
    """
    lo = 0.0
    g_lo, _ = equation(lo)
    g_hi, slope = equation(hi)
    evaluations = 2
    if g_hi <= 0.0 and hi < _BRACKET_HI:
        hi = _BRACKET_HI
        g_hi, slope = equation(hi)
        evaluations += 1
    if not (g_lo < 0.0 < g_hi):
        raise BracketError(
            f"no sign change on [{lo}, {hi}]: G(lo)={g_lo:.3e}, G(hi)={g_hi:.3e}"
        )
    while hi - lo > 0.5 * tol:
        hi -= g_hi / slope
        g_hi, slope = equation(hi)
        evaluations += 1
        if g_hi <= 0.0:  # the Newton iterate met the root at rounding level
            lo = hi
            break
        lo = g_lo * hi / (g_lo - g_hi)
    root = min(max(hi - g_hi / slope, lo), hi)
    residual, _ = equation(root)
    bracket = (lo - 0.2 * tol, hi + 0.2 * tol)
    evaluations += 3
    if not equation(bracket[0])[0] < 0.0 < equation(bracket[1])[0]:
        raise BracketError(f"no sign change on the final bracket {bracket}")
    return root, bracket, evaluations, residual


def _clamped(r0: float, exact_bounds: bool) -> float:
    return r0 if exact_bounds else min(r0, 1.0 / 3.0)


def solve(problem: RadiusProblem, pair: ExtremalPair | None = None) -> RadiusResult:
    """Solve the radius equation for the given problem.

    A given ``pair`` must be built at ``problem.order``.
    """
    if pair is None:
        pair = build_extremal_pair(problem.psi, problem.order)
    return _solve_below(problem, pair, 1.0)


def _solve_below(problem: RadiusProblem, pair: ExtremalPair, bound: float) -> RadiusResult:
    """``solve`` with Newton started at min(certified top, ``bound``).

    ``bound`` must be an upper bound on the root with G(bound) > 0; any
    bound >= 1 leaves the certified top.
    """
    series, rstar = _family_extremal(problem, pair)
    equation, hi = _radius_equation(problem, series, rstar)
    r0, bracket, iterations, residual = _monotone_newton(equation, problem.tol,
                                                         min(hi, bound))
    rb = _clamped(r0, problem.psi.exact_bounds)
    sharp = bool(rb == r0 and np.all(series.coeffs[1:] > 0.0))
    return RadiusResult(
        psi=problem.psi.label,
        family=problem.family.value,
        m=problem.m,
        N=problem.N,
        mode=problem.mode.value,
        r0=r0,
        rb=rb,
        residual=residual,
        iterations=iterations,
        sharp=sharp,
        bracket=bracket,
    )


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
    increasing and convex as in ``solve``.  It goes through the same
    Newton solver from the same certified start, with a_1 = 1 and
    a_N = ``janowski_coeff_bound``, and the result is always sharp.
    """
    spec = janowski(d, e)
    if e > 0.0:
        raise ValueError(f"the closed Janowski equation needs E <= 0, got E={e:g}; "
                         "the series path (--method series) solves E > 0")
    _check_indices_and_tol(m, N, tol)
    n = 1 if mode == Mode.BOHR_LIMIT else N
    p = None if e == 0.0 else (d - e) / e

    def f0_closed(x: float) -> tuple[float, float]:
        # f0 and f0' = (1 + D x) (1 + E x)^(p-1), or (1 + D x) e^(D x) at E = 0.
        if e == 0.0:
            grow = math.exp(d * x)
            return x * grow, (1.0 + d * x) * grow
        base = 1.0 + e * x
        return x * base**p, (1.0 + d * x) * base ** (p - 1.0)

    rstar = spec.koebe_closed
    coeffs = [0.0, 1.0] + [janowski_coeff_bound(d, e, k) for k in range(2, n + 1)]
    head = coeffs[:n][::-1]
    terms = [(coeffs[n], n)] if mode == Mode.BOHR_LIMIT else [(1.0, m), (coeffs[n], n)]
    hi = _certified_top(rstar, terms)

    def equation(r: float) -> tuple[float, float]:
        value, slope = f0_closed(r)
        head_value, head_slope = _horner(head, r)
        value, slope = value - head_value, slope - head_slope
        if mode != Mode.BOHR_LIMIT:
            point, point_slope = f0_closed(r**m)
            value += point
            slope += m * r ** (m - 1) * point_slope
        return value - rstar, slope

    r0, bracket, iterations, residual = _monotone_newton(equation, tol, hi)
    return RadiusResult(
        psi=spec.label,
        family=Family.STARLIKE.value,
        m=m,
        N=N,
        mode=mode.value,
        r0=r0,
        rb=r0,
        residual=residual,
        iterations=iterations,
        sharp=True,
        bracket=bracket,
    )


@dataclass(frozen=True)
class Sweep:
    axis: str
    values: tuple[int, ...]
    results: tuple[RadiusResult, ...]
    monotone_nondecreasing: bool


def sweep(problem: RadiusProblem, n_values=None, m_values=None) -> Sweep:
    """Solve over a grid in N or in m; the extremal pair is built once.

    The distinct values are solved from the largest down, each Newton run
    starting at min(certified top, the previous result's upper bracket
    end).  That end is a certified upper bound with G > 0 for the next
    equation too: G_N - G_(N+1) = |a_N| r^N >= 0, and P(r^m) decreases as m
    grows (the Bohr limit does not depend on either).  Results come back in
    the given order.  Whether the solved radii are nondecreasing along the
    grid is reported as a diagnostic, not asserted.
    """
    if (n_values is None) == (m_values is None):
        raise ValueError("exactly one of n_values and m_values must be given")
    axis, values = ("N", n_values) if n_values is not None else ("m", m_values)
    values = tuple(int(v) for v in values)
    if not values:
        raise ValueError(f"empty sweep range for {axis}")
    pair = build_extremal_pair(problem.psi, problem.order)
    solved, bound = {}, 1.0
    for v in sorted(set(values), reverse=True):
        solved[v] = _solve_below(dataclasses.replace(problem, **{axis: v}), pair, bound)
        bound = solved[v].bracket[1]
    results = tuple(solved[v] for v in values)
    radii = [res.r0 for res in results]
    monotone = all(b >= a - 1e-12 for a, b in zip(radii, radii[1:]))
    return Sweep(axis=axis, values=values, results=results,
                 monotone_nondecreasing=monotone)
