"""Extremal functions and Koebe radii for a catalog generator.

The starlike extremal f0 solves z f0'(z)/f0(z) = psi(z); its Taylor data
follows the recurrence t_1 = 1, (n-1) t_n = sum_{j=1}^{n-1} c_{n-j} t_j
with c the coefficients of psi.  The convex extremal l0 is linked by the
Alexander relation z l0'(z) = f0(z), i.e. l_n = t_n / n.

The boundary distance (Koebe radius) is -f0(-1) for the starlike family
and -l0(-1) for the convex one.  Both are computed by quadrature of the
integral representation, which stays smooth on [-1, 0] even where the
series at the boundary does not converge absolutely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .catalog import PsiSpec
from .series import DEFAULT_ORDER, TruncatedSeries

# Accuracy of int_0^x (psi(t)-1)/t dt: series accumulation inside this
# radius, adaptive quadrature of the closed form beyond it.
_SERIES_RADIUS = 0.5
_SERIES_TERMS = 96
_QUAD_TOL = 1e-13
_OUTER_QUAD_TOL = 1e-11


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach the requested accuracy."""


@dataclass(frozen=True)
class ExtremalPair:
    """f0 and l0 at a common order, with both boundary distances."""

    f0: TruncatedSeries
    l0: TruncatedSeries
    koebe_starlike: float
    koebe_convex: float


def build_f0(psi: PsiSpec, order: int = DEFAULT_ORDER, method: str = "recurrence") -> TruncatedSeries:
    """Taylor coefficients of the starlike extremal function.

    ``method="recurrence"`` runs the coefficient recurrence directly;
    ``method="integral"`` goes through z * exp(int (psi-1)/t) using the
    series kernel.  The two paths must agree and are cross-checked in the
    test suite.
    """
    c = psi.series(order).coeffs
    if method == "recurrence":
        t = np.zeros(order + 1)
        t[1] = 1.0
        for n in range(2, order + 1):
            # (n-1) t_n = sum_{j=1}^{n-1} c_{n-j} t_j
            t[n] = np.dot(c[1:n][::-1], t[1:n]) / (n - 1)
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


def _quad(fn, a: float, b: float, tol: float) -> float:
    value, abserr = quad(fn, a, b, epsabs=tol, epsrel=tol, limit=200)
    if not math.isfinite(value) or abserr > max(1e4 * tol, 1e-8):
        raise QuadratureError(
            f"quadrature on [{a}, {b}] reported error {abserr:.3e} for value {value:.6e}"
        )
    return value


def _log_growth_integral(psi: PsiSpec, x: float) -> float:
    """int_0^x (psi(t)-1)/t dt for -1 <= x <= 1 - eps.

    Inside |t| <= 1/2 the integrand is summed termwise from the psi
    coefficients (sum c_n t^n / n), which avoids the cancellation of
    (psi(t)-1)/t near 0; beyond that the closed form takes over.
    """
    c = psi.series(_SERIES_TERMS).coeffs
    inner_x = max(-_SERIES_RADIUS, min(_SERIES_RADIUS, x))
    powers = inner_x ** np.arange(1, _SERIES_TERMS + 1)
    total = float(np.dot(c[1:] / np.arange(1, _SERIES_TERMS + 1), powers))
    if x < -_SERIES_RADIUS or x > _SERIES_RADIUS:
        closed = lambda t: (psi.psi_eval(t) - 1.0) / t
        total += _quad(closed, inner_x, x, _QUAD_TOL)
    return total


def koebe_radius_quadrature(psi: PsiSpec, family: str = "starlike") -> float:
    """Boundary distance by quadrature of the integral representation.

    starlike: -f0(-1) = exp(int_0^{-1} (psi(t)-1)/t dt)
    convex:   -l0(-1) = int_0^1 exp(int_0^{-s} (psi(t)-1)/t dt) ds
    """
    if family == "starlike":
        return math.exp(_log_growth_integral(psi, -1.0))
    if family == "convex":
        return _quad(lambda s: math.exp(_log_growth_integral(psi, -s)), 0.0, 1.0,
                     _OUTER_QUAD_TOL)
    raise ValueError(f"unknown family {family!r}")


def koebe_radius(psi: PsiSpec, family: str = "starlike") -> float:
    """Boundary distance, preferring a catalog closed form when present.

    Closed forms are only catalogued for the starlike family; the convex
    distance always goes through quadrature.
    """
    if family == "starlike" and psi.koebe_closed is not None:
        return psi.koebe_closed
    return koebe_radius_quadrature(psi, family)


def build_extremal_pair(psi: PsiSpec, order: int = DEFAULT_ORDER) -> ExtremalPair:
    f0 = build_f0(psi, order)
    return ExtremalPair(
        f0=f0,
        l0=build_l0(f0),
        koebe_starlike=koebe_radius(psi, "starlike"),
        koebe_convex=koebe_radius(psi, "convex"),
    )
