"""Extremal functions and Koebe radii for a catalog generator.

The starlike extremal f0 solves z f0'(z)/f0(z) = psi(z); its Taylor data
follows the recurrence t_1 = 1, (n-1) t_n = sum_{j=1}^{n-1} c_{n-j} t_j
with c the coefficients of psi.  Where psi is rational the catalog gives
a short recurrence on h = f0/z instead: one term, t_{k+1} = t_k (D - kE)/k,
for the Janowski family (classical and alpha entries included), two for
cardioid and booth.  Only zexpz and sine take the dense one; one helper,
``_f0_coefficients``, chooses for ``build_f0``, ``build_extremal_pair``
and the radius solver alike.  The convex extremal l0 is linked by the
Alexander relation z l0'(z) = f0(z): l0 = int_0^z f0(t)/t dt, i.e.
l_n = t_n / n, which one helper, ``_l0_coefficients``, states for
``build_extremal_pair`` and the radius solver alike; both apply it to the
one list of f0's coefficients that ``_f0_coefficients`` gives.

The boundary distance (Koebe radius) is -f0(-1) for the starlike family
and -l0(-1) for the convex one.  The catalog gives it in closed form where
one is known: -f0(-1) for every entry, -l0(-1) for the Janowski family.
Otherwise it is computed by Gauss-Legendre quadrature, which stays smooth
on [-1, 0] even where the series at the boundary does not converge
absolutely: -l0(-1) = int_0^1 f0(-s)/(-s) ds from the catalog's closed f0,
and -f0(-1) = exp(int_0^1 (psi(-u)-1)/u du) from psi alone, which keeps
the tests' check of every closed -f0(-1) independent of the closed f0.
One pair of rules, 48 and 96 nodes on [0, 1], serves every entry; where
the two disagree (a singularity of psi or f0 too near t = -1) the
quadrature raises ``QuadratureError`` rather than return either value.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .catalog import PsiSpec
from .series import DEFAULT_ORDER, TruncatedSeries, _truncation_order, np


# A coarse and a fine Gauss-Legendre rule on [0, 1]; the fine value is
# accepted once the two agree within _REL_TOL.
_NODES = (48, 96)
_REL_TOL = 1e-13


@functools.cache
def _unit_rules() -> tuple:
    """(nodes, weights) of each rule, built on first use: only a Koebe
    radius by quadrature needs them, and a caller that never computes one
    (the oracle suites) skips their eigen-solves."""
    rules = []
    for n in _NODES:
        x, w = np.polynomial.legendre.leggauss(n)
        rules.append((0.5 * (x + 1.0), 0.5 * w))
    return tuple(rules)


class QuadratureError(RuntimeError):
    """The quadrature rules gave a non-finite value or did not agree."""


class ExtremalPair(NamedTuple):
    """f0 and l0 at a common order, with both boundary distances."""

    f0: TruncatedSeries
    l0: TruncatedSeries
    koebe_starlike: float
    koebe_convex: float


def _f0_coefficients(psi: PsiSpec, order: int) -> list[float]:
    """Taylor coefficients t_0..t_order of f0 as a list of floats: the one
    route to them.  Takes the catalog's short recurrence where it has one
    (``PsiSpec.f0_coeff_fn``: the Janowski family, cardioid and booth),
    which needs no array, and otherwise the dense recurrence on psi's
    series.  The tests check both against f0 = z exp(int_0^z (psi-1)/t dt).
    """
    order = _truncation_order(order)
    if psi.f0_coeff_fn is not None:
        t = psi.f0_coeff_fn(order)
    else:
        # rev[order-n+1:order] is c_{n-1}, ..., c_1: contiguous, so each step
        # is one plain dot product.
        rev = np.ascontiguousarray(psi.series(order).coeffs[::-1])
        t = np.zeros(order + 1)
        t[1] = 1.0
        for n in range(2, order + 1):
            # (n-1) t_n = sum_{j=1}^{n-1} c_{n-j} t_j
            t[n] = rev[order - n + 1:order].dot(t[1:n]) / (n - 1)
        t = t.tolist()
    if not all(map(math.isfinite, t)):
        raise ValueError("coefficients must be finite")
    return t


def build_f0(psi: PsiSpec, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Taylor coefficients of the starlike extremal function, as a series."""
    return TruncatedSeries(_f0_coefficients(psi, order))


def _l0_coefficients(t: list[float]) -> list[float]:
    """Taylor coefficients l_0..l_K of the convex extremal l0 from those
    t_0..t_K of f0 (t_0 = 0): the Alexander relation l_n = t_n / n, and
    l_0 = 0.  The one statement of it, for ``build_extremal_pair`` and the
    radius solver alike."""
    return [0.0] + [x / n for n, x in enumerate(t[1:], 1)]


def _koebe_estimate(psi: PsiSpec, family: str, nodes: np.ndarray, weights: np.ndarray) -> float:
    if family == "starlike":
        return float(np.exp(((psi.psi_eval(-nodes) - 1.0) / nodes) @ weights))
    return float((psi.f0_closed(-nodes) / -nodes) @ weights)


def koebe_radius_quadrature(psi: PsiSpec, family: str = "starlike") -> float:
    """Boundary distance by quadrature.

    starlike: -f0(-1) = exp(int_0^1 (psi(-u)-1)/u du), from psi
    convex:   -l0(-1) = int_0^1 f0(-s)/(-s) ds, from the closed f0

    The convex value needs ``psi.f0_closed``; a spec without one raises
    ``QuadratureError``.
    """
    if family not in ("starlike", "convex"):
        raise ValueError(f"unknown family {family!r}")
    if family == "convex" and psi.f0_closed is None:
        raise QuadratureError(f"convex Koebe radius of {psi.label}: the entry has no "
                              "closed f0 (f0_closed) to integrate")
    coarse, fine = (_koebe_estimate(psi, family, *rule) for rule in _unit_rules())
    if not (math.isfinite(coarse) and math.isfinite(fine)):
        raise QuadratureError(f"{family} Koebe radius of {psi.label} is not finite: "
                              f"{coarse!r}, {fine!r}")
    if abs(fine - coarse) > _REL_TOL * abs(fine):
        raise QuadratureError(f"{family} Koebe radius of {psi.label}: the {_NODES[0]}- and "
                              f"{_NODES[1]}-node rules differ by {fine - coarse:.3e}")
    return fine


def koebe_radius(psi: PsiSpec, family: str = "starlike") -> float:
    """Boundary distance, preferring a catalog closed form when present.

    The catalog gives the starlike distance of every entry and the convex
    one of the Janowski family (classical and alpha entries included); the
    other convex distances go through quadrature of the closed f0.
    """
    closed = {"starlike": psi.koebe_closed, "convex": psi.koebe_closed_convex}.get(family)
    if closed is not None:
        return closed
    return koebe_radius_quadrature(psi, family)


def build_extremal_pair(psi: PsiSpec, order: int = DEFAULT_ORDER) -> ExtremalPair:
    """f0 and l0 from one list of f0's coefficients, as the radius solver
    builds its own without a pair, and both boundary distances."""
    t = _f0_coefficients(psi, order)
    return ExtremalPair(
        f0=TruncatedSeries(t),
        l0=TruncatedSeries(_l0_coefficients(t)),
        koebe_starlike=koebe_radius(psi, "starlike"),
        koebe_convex=koebe_radius(psi, "convex"),
    )
