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
``_unit_rules`` builds the pair on first use from numpy's core alone:
Newton's method on the Legendre recurrence for the nodes, and weights
from a double-double recurrence, which hold every convex radius by
quadrature to 1 ulp.
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

# Dekker's splitter 2^27 + 1: it cuts a double into two halves of at most 26
# bits, whose products with the halves of another double are exact.
_SPLIT = 134217729.0


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _legendre(x, n):
    """Q_{n-1}(x) and Q_n(x) at each node x of the rule of n nodes (arrays of
    one shape: one pass serves every rule of ``_NODES``), where Q_k = k! P_k:
    (k+1) P_{k+1} = (2k+1) x P_k - k P_{k-1} becomes Q_{k+1} = (2k+1) x Q_k
    - k^2 Q_{k-1}, with no division.  |Q_k| <= k!, finite up to k = 170."""
    q0, q1 = np.ones_like(x), x
    kept = (q0, q1)
    for k in range(1, max(_NODES)):
        q0, q1 = q1, (2 * k + 1) * x * q1 - (k * k) * q0
        if k + 1 in _NODES:
            kept = _keep(n == k + 1, kept, (q0, q1))
    return kept


def _legendre_dd(x, n):
    """Q_{n-1}(x) and Q_n(x) of ``_legendre`` to the last bit: the same
    recurrence in double-double arithmetic, each value carrying the rounding
    error of its products and difference (Dekker's exact product, Knuth's
    two-sum), added in at the end."""
    xh, xl = _split(x)
    q0, e0, h0, l0 = np.ones_like(x), np.zeros_like(x), 1.0, 0.0  # h0 + l0 splits q0
    q1, e1 = x, e0
    kept = (q0, e0, q1, e1)
    for k in range(1, max(_NODES)):
        c, kk = 2.0 * k + 1.0, float(k * k)
        h1, l1 = _split(q1)
        u = x * q1
        eu = ((xh * h1 - u) + xh * l1 + xl * h1) + xl * l1 + x * e1
        uh, ul = _split(u)
        v = c * u
        ev = (uh * c - v) + (ul + eu) * c
        w = kk * q0
        ew = (h0 * kk - w) + (l0 + e0) * kk
        s = v - w
        t = s - v
        es = (v - (s - t)) - (w + t) + (ev - ew)
        q0, e0, h0, l0 = q1, e1, h1, l1
        q1, e1 = s, es
        if k + 1 in _NODES:
            kept = _keep(n == k + 1, kept, (q0, e0, q1, e1))
    q0, e0, q1, e1 = kept
    return q0 + e0, q1 + e1


def _keep(done, kept, state):
    """``kept``, with ``state`` at the nodes of the rule whose degree the
    recurrence has just reached."""
    return tuple(np.where(done, new, old) for new, old in zip(state, kept))


@functools.cache
def _unit_rules() -> tuple:
    """(nodes, weights) of each rule on [0, 1], built on first use: only a
    Koebe radius by quadrature needs them, and a caller that never computes
    one (the oracle suites) skips their recurrences.

    Newton's method on P_n finds the nodes x on [-1, 1] from Tricomi's
    asymptotic starts, for every rule's nodes at once.  The weight is
    w = 2 / ((1 - x^2) P_n'(x)^2), where (1 - x^2) P_n' = n (P_{n-1} - x P_n),
    from values of P_{n-1} and P_n that the double-double recurrence gives
    to the last bit.  They also give the distance d = P_n/P_n' from the
    double x to the true node, which a last Newton step takes into account:
    the node on [0, 1] is ((1 + x) - d)/2, exact to its last bit even near
    0, and w is moved by the factor 1 + 2xd/(1 - x^2), since
    (log w)' = -2x/(1 - x^2) at a node (Legendre's equation).  Nodes hold
    to 1 ulp and weights to a few, and every convex Koebe radius by
    quadrature to 1 ulp; numpy's eigen-solved rule had weights 1e-12 off,
    which left those radii a few ulps low.  Hale and Townsend (SIAM J. Sci.
    Comput. 35, 2013) build both by Newton's method.
    """
    n = np.repeat(np.array(_NODES, dtype=float), _NODES)
    k = np.concatenate([np.arange(m, 0, -1) for m in _NODES])
    x = (1.0 - (n - 1.0) / (8.0 * n ** 3)) * np.cos(np.pi * (4 * k - 1) / (4 * n + 2))
    for _ in range(2):
        q0, q1 = _legendre(x, n)
        x = x - q1 * (1.0 - x) * (1.0 + x) / (n * (n * q0 - x * q1))
    q0, q1 = _legendre_dd(x, n)
    one_minus_x2 = (1.0 - x) * (1.0 + x)
    dq = n * q0 - x * q1
    # (1 - x^2) P_n' = dq / (n-1)!, with (n-1)! = fh + fl to 106 bits
    f = [math.factorial(m - 1) for m in _NODES]
    fh = np.repeat([float(v) for v in f], _NODES)
    fl = np.repeat([float(v - int(float(v))) for v in f], _NODES)
    dp = dq / fh
    dp = dp - dp * (fl / fh)
    d = q1 * one_minus_x2 / (n * dq)
    w = 2.0 * one_minus_x2 / (dp * dp) * (1.0 + 2.0 * x * d / one_minus_x2)
    cuts = np.cumsum(_NODES)[:-1]
    return tuple(zip(np.split(0.5 * ((1.0 + x) - d), cuts), np.split(0.5 * w, cuts)))


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
