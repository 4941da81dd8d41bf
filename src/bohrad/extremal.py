"""Extremal functions and Koebe radii for a catalog generator.

The starlike extremal f0 solves z f0'(z)/f0(z) = psi(z); its Taylor data
follows the recurrence t_1 = 1, (n-1) t_n = sum_{j=1}^{n-1} c_{n-j} t_j
with c the coefficients of psi.  The catalog gives the Janowski family
(classical and alpha entries included) its one-term recurrence
t_{k+1} = t_k (D - kE)/k instead, which ``build_f0`` prefers; cardioid,
zexpz, booth and sine take the dense one.  The convex extremal l0 is
linked by the Alexander relation z l0'(z) = f0(z), i.e. l_n = t_n / n.

The boundary distance (Koebe radius) is -f0(-1) for the starlike family
and -l0(-1) for the convex one.  The catalog gives it in closed form where
one is known: -f0(-1) for every entry, -l0(-1) for the Janowski family.
Otherwise it is computed by Gauss-Legendre quadrature of the integral
representation, which stays smooth on [-1, 0] even where the series at
the boundary does not converge absolutely.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .catalog import PsiSpec
from .series import DEFAULT_ORDER, TruncatedSeries


def _unit_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-node Gauss-Legendre rule on [0, 1] (Golub-Welsch nodes, via numpy)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _graded(rule: tuple[np.ndarray, np.ndarray], panels: int) -> tuple:
    """The rule copied onto [0, 1/2], [1/2, 3/4], ..., the last panel ending
    at 1, as (nodes, weights, pieces) with pieces its (nodes, weights) on
    each panel: the convex estimate takes one panel at a time."""
    edges = np.append(1.0 - 0.5 ** np.arange(panels), 1.0)
    width = np.diff(edges)[:, None]
    nodes = edges[:-1, None] + width * rule[0]
    weights = width * rule[1]
    return nodes.ravel(), weights.ravel(), tuple(zip(nodes, weights))


# A coarse and a fine rule, on 1, 8, 16 and then 32 panels graded toward
# t = -1: on [-1, 0] only that end lies on the unit circle, so only there
# can a singularity of psi come close.  The fine value is accepted once the
# two agree within _REL_TOL.
_NODES = (48, 96)
_PANELS = (1, 8, 16, 32)
_REL_TOL = 1e-13


@functools.cache
def _graded_rules() -> tuple:
    """(panels, (coarse, fine)) for each panel count, built on first use:
    only a Koebe radius by quadrature needs them, and a caller that never
    computes one (the oracle suites) skips their eigen-solves."""
    rules = tuple(map(_unit_rule, _NODES))
    return tuple((panels, tuple(_graded(rule, panels) for rule in rules)) for panels in _PANELS)


class QuadratureError(RuntimeError):
    """The quadrature rules gave a non-finite value or did not agree."""


@dataclass(frozen=True)
class ExtremalPair:
    """f0 and l0 at a common order, with both boundary distances."""

    f0: TruncatedSeries
    l0: TruncatedSeries
    koebe_starlike: float
    koebe_convex: float


def build_f0(psi: PsiSpec, order: int = DEFAULT_ORDER, method: str = "recurrence") -> TruncatedSeries:
    """Taylor coefficients of the starlike extremal function.

    ``method="recurrence"`` takes the catalog's one-term recurrence where it
    has one (``PsiSpec.f0_coeff_fn``, the Janowski family) and otherwise
    runs the dense coefficient recurrence on psi's series directly;
    ``method="integral"`` goes through z * exp(int (psi-1)/t) using the
    series kernel.  The paths must agree and are cross-checked in the
    test suite.
    """
    if order < 1:
        raise ValueError("order must be at least 1")
    if method == "recurrence" and psi.f0_coeff_fn is not None:
        return TruncatedSeries(psi.f0_coeff_fn(order))
    c = psi.series(order).coeffs
    if method == "recurrence":
        # rev[order-n+1:order] is c_{n-1}, ..., c_1: contiguous, so each
        # step is one plain dot product.
        rev = np.ascontiguousarray(c[::-1])
        t = np.zeros(order + 1)
        t[1] = 1.0
        for n in range(2, order + 1):
            # (n-1) t_n = sum_{j=1}^{n-1} c_{n-j} t_j
            t[n] = rev[order - n + 1:order].dot(t[1:n]) / (n - 1)
        return TruncatedSeries(t)
    if method == "integral":
        psi_minus_1 = TruncatedSeries(np.concatenate(([0.0], c[1:])))
        return psi_minus_1.integrate_over_t().exp().times_z()
    raise ValueError(f"unknown method {method!r}")


def build_l0(f0: TruncatedSeries) -> TruncatedSeries:
    """Convex extremal from the Alexander relation l_n = t_n / n."""
    out = np.zeros(f0.order + 1)
    n = np.arange(1, f0.order + 1)
    out[1:] = f0.coeffs[1:] / n
    return TruncatedSeries(out)


def _log_growth(psi: PsiSpec, s, nodes: np.ndarray, weights: np.ndarray):
    """int_0^{-s} (psi(t)-1)/t dt, as int_0^1 (psi(-s u)-1)/u du, for each s."""
    return ((psi.psi_eval(-np.multiply.outer(s, nodes)) - 1.0) / nodes) @ weights


def _koebe_estimate(psi: PsiSpec, family: str, nodes: np.ndarray, weights: np.ndarray,
                    pieces: tuple) -> float:
    if family == "starlike":
        return float(np.exp(_log_growth(psi, 1.0, nodes, weights)))
    # The same nodes in s and in u; one outer panel at a time keeps the grid
    # at most n x (panels n).
    return float(sum(w @ np.exp(_log_growth(psi, s, nodes, weights)) for s, w in pieces))


def koebe_radius_quadrature(psi: PsiSpec, family: str = "starlike") -> float:
    """Boundary distance by quadrature of the integral representation.

    starlike: -f0(-1) = exp(L(-1))
    convex:   -l0(-1) = int_0^1 exp(L(-s)) ds
    with L(x) = int_0^x (psi(t)-1)/t dt = int_0^1 (psi(x u)-1)/u du.
    """
    if family not in ("starlike", "convex"):
        raise ValueError(f"unknown family {family!r}")
    for panels, rules in _graded_rules():
        coarse, fine = (_koebe_estimate(psi, family, *rule) for rule in rules)
        if not (math.isfinite(coarse) and math.isfinite(fine)):
            raise QuadratureError(f"{family} Koebe radius of {psi.label} is not finite: "
                                  f"{coarse!r}, {fine!r}")
        if abs(fine - coarse) <= _REL_TOL * abs(fine):
            return fine
    raise QuadratureError(f"{family} Koebe radius of {psi.label}: the {_NODES[0]}- and "
                          f"{_NODES[1]}-node rules differ by {fine - coarse:.3e} "
                          f"on {panels} graded panels")


def koebe_radius(psi: PsiSpec, family: str = "starlike") -> float:
    """Boundary distance, preferring a catalog closed form when present.

    The catalog gives the starlike distance of every entry and the convex
    one of the Janowski family (classical and alpha entries included); the
    other convex distances go through quadrature.
    """
    closed = {"starlike": psi.koebe_closed, "convex": psi.koebe_closed_convex}.get(family)
    if closed is not None:
        return closed
    return koebe_radius_quadrature(psi, family)


def build_extremal_pair(psi: PsiSpec, order: int = DEFAULT_ORDER) -> ExtremalPair:
    f0 = build_f0(psi, order)
    return ExtremalPair(
        f0=f0,
        l0=build_l0(f0),
        koebe_starlike=koebe_radius(psi, "starlike"),
        koebe_convex=koebe_radius(psi, "convex"),
    )
