"""Catalog of Ma-Minda generating functions.

Each entry bundles, for one choice of psi with psi(0) = 1 and psi'(0) > 0:

* a Taylor-coefficient generator (real coefficients),
* a real closed-form evaluator for psi (floats or ndarrays; used by the quadrature),
* the closed form of the starlike extremal function f0, where one exists,
* the Taylor coefficients of f0 from a one-term recurrence, where one
  exists (the Janowski family, classical and alpha entries included),
* the boundary-distance constant -f0(-1), where a closed form is known,
  and its convex counterpart -l0(-1) (the Janowski family),
* whether the family comes with exact coefficient bounds (the Janowski
  family does), which controls the 1/3 clamp on reported Bohr radii.

Entries are addressable by string label, e.g. ``cardioid``, ``sine``,
``janowski:D=0.5,E=-0.5``, ``alpha:0.25``, ``booth:k=2.5``.  The
classical (D = 1, E = -1) and order-alpha (D = 1 - 2 alpha, E = -1)
entries are Janowski entries with only what differs replaced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .series import TruncatedSeries

SQRT2 = math.sqrt(2.0)


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt via its Taylor series.

    Sums sum_n (-1)^n x^(2n+1) / ((2n+1) (2n+1)!) until the term drops
    below 1e-17.  Only |x| <= 1 is accepted; that is the range the
    extremal-function evaluators need and the series is strongly
    convergent there.
    """
    if not -1.0 <= x <= 1.0:
        raise ValueError(f"si(x) supported for |x| <= 1, got {x}")
    total = 0.0
    term = x
    n = 0
    while abs(term) >= 1e-17:
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / ((2 * n) * (2 * n + 1))
    return total


def bell_numbers(n_max: int) -> list[int]:
    """Bell numbers B_0..B_n_max via B_{n+1} = sum_k C(n, k) B_k.

    Exact integers for any n_max (Python integers do not overflow).
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    bells = [1]
    for n in range(n_max):
        bells.append(sum(math.comb(n, k) * bells[k] for k in range(n + 1)))
    return bells


def janowski_coeff_bound(d: float, e: float, n: int) -> float:
    """Sharp coefficient bound prod_{k=0}^{n-2} |E-D+Ek| / (k+1) for n >= 2."""
    _validate_janowski(d, e)
    if n < 2:
        raise ValueError("coefficient bound defined for n >= 2")
    prod = 1.0
    for k in range(n - 1):
        prod *= abs(e - d + e * k) / (k + 1)
    return prod


def _label_number(x: float) -> str:
    """A parameter as labels print it: ``:g`` when that reads back as x,
    else the shortest repr that does."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _validate_janowski(d: float, e: float) -> None:
    if not (-1.0 <= e < d <= 1.0):
        raise ValueError(f"Janowski parameters need -1 <= E < D <= 1, got D={d}, E={e}")


@dataclass(frozen=True)
class PsiSpec:
    """One catalog entry; immutable and freely shareable.

    ``psi_eval`` takes a float or an ndarray, which it evaluates
    elementwise: the Koebe quadrature calls it once on a whole node grid.
    """

    label: str
    params: dict = field(default_factory=dict)
    coeff_fn: Callable[[int], np.ndarray] = None
    psi_eval: Callable[[float | np.ndarray], float | np.ndarray] = None
    f0_closed: Optional[Callable[[float], float]] = None
    # Taylor coefficients t_0..t_order of f0 from a one-term recurrence (the
    # Janowski family); build_f0 prefers them to the dense recurrence on psi.
    f0_coeff_fn: Optional[Callable[[int], np.ndarray]] = None
    # Closed boundary distances -f0(-1) and -l0(-1); the Koebe radius falls
    # back to quadrature for a family whose value is None.
    koebe_closed: Optional[float] = None
    koebe_closed_convex: Optional[float] = None
    # True when sharp coefficient bounds back the radius equation, in which
    # case the reported radius is not clamped to 1/3.
    exact_bounds: bool = False
    default_family: str = "starlike"

    def series(self, order: int) -> TruncatedSeries:
        """Taylor coefficients of psi to the given order."""
        if order < 1:
            raise ValueError("order must be at least 1")
        return TruncatedSeries(self.coeff_fn(order))


# -- concrete entries --------------------------------------------------


def janowski(d: float, e: float) -> PsiSpec:
    """psi(z) = (1 + Dz) / (1 + Ez) with -1 <= E < D <= 1, starlike by default.

    Coefficients: c_0 = 1, c_n = (D - E)(-E)^(n-1).  Extremal function
    f0(z) = z (1 + Ez)^((D-E)/E), degenerating to z e^(Dz) at E = 0, whose
    coefficients obey t_1 = 1, t_{k+1} = t_k (D - kE)/k.  The
    convex extremal l0 = ((1 + Ez)^(D/E) - 1)/D has the limits
    (e^(Dz) - 1)/D at E = 0 and log(1 + Ez)/E at D = 0.
    """
    _validate_janowski(d, e)

    def coeffs(order: int) -> np.ndarray:
        c = np.zeros(order + 1)
        c[0] = 1.0
        c[1:] = (d - e) * (-e) ** np.arange(order)
        return c

    def f0_coeffs(order: int) -> np.ndarray:
        # One plain-float step per coefficient keeps the Koebe function's
        # t_n = n exact, and the zeros past a terminating D - kE = 0.
        t = [0.0, 1.0]
        x = 1.0
        for k in range(1, order):
            x = x * (d - k * e) / k
            t.append(x)
        return np.array(t)

    if e == 0.0:
        f0 = lambda r: r * math.exp(d * r)
        koebe = math.exp(-d)
        koebe_convex = -math.expm1(-d) / d
    else:
        p = (d - e) / e
        f0 = lambda r: r * (1.0 + e * r) ** p
        koebe = (1.0 - e) ** p
        # expm1 and log1p keep -l0(-1) accurate as D or E nears 0.
        if d == 0.0:
            koebe_convex = -math.log1p(-e) / e
        else:
            koebe_convex = -math.expm1(d / e * math.log1p(-e)) / d

    return PsiSpec(
        label=f"janowski:D={_label_number(d)},E={_label_number(e)}",
        params={"D": d, "E": e},
        coeff_fn=coeffs,
        psi_eval=lambda t: (1.0 + d * t) / (1.0 + e * t),
        f0_closed=f0,
        f0_coeff_fn=f0_coeffs,
        koebe_closed=koebe,
        koebe_closed_convex=koebe_convex,
        exact_bounds=True,
    )


def classical_starlike() -> PsiSpec:
    """psi(z) = (1+z)/(1-z); the extremal function is the Koebe function."""
    return replace(janowski(1.0, -1.0), label="classical-starlike")


def classical_convex() -> PsiSpec:
    """Same generator as classical-starlike, used with the convex family,
    whose extremal function is z/(1-z)."""
    return replace(janowski(1.0, -1.0), label="classical-convex", default_family="convex")


def starlike_alpha(alpha: float) -> PsiSpec:
    """Starlike functions of order alpha: Janowski with D = 1-2a, E = -1.

    Its own closed f0 and -f0(-1) stay: for some alpha the Janowski forms
    differ from them by a few ulps."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    d = 1.0 - 2.0 * alpha
    return replace(
        janowski(d, -1.0),
        label=f"alpha:{_label_number(alpha)}",
        params={"alpha": alpha, "D": d, "E": -1.0},
        f0_closed=lambda r: r * (1.0 - r) ** (-2.0 * (1.0 - alpha)),
        koebe_closed=4.0 ** (alpha - 1.0),
    )


def cardioid() -> PsiSpec:
    """psi(z) = 1 + 4z/3 + 2z^2/3, with f0(r) = r exp(4r/3 + r^2/3)."""

    def coeffs(order: int) -> np.ndarray:
        c = np.zeros(order + 1)
        c[0] = 1.0
        c[1] = 4.0 / 3.0
        if order >= 2:
            c[2] = 2.0 / 3.0
        return c

    return PsiSpec(
        label="cardioid",
        coeff_fn=coeffs,
        psi_eval=lambda t: 1.0 + 4.0 * t / 3.0 + 2.0 * t * t / 3.0,
        f0_closed=lambda r: r * math.exp(4.0 * r / 3.0 + r * r / 3.0),
        koebe_closed=math.exp(-1.0),
    )


def z_exp_z() -> PsiSpec:
    """psi(z) = 1 + z e^z, with f0(r) = r exp(e^r - 1).

    The extremal coefficients are Bell numbers: t_n = B_{n-1}/(n-1)!.
    """

    def coeffs(order: int) -> np.ndarray:
        c = np.zeros(order + 1)
        c[0] = 1.0
        fact = 1.0
        for n in range(1, order + 1):
            c[n] = 1.0 / fact
            fact *= n
        return c

    return PsiSpec(
        label="zexpz",
        coeff_fn=coeffs,
        psi_eval=lambda t: 1.0 + t * np.exp(t),
        f0_closed=lambda r: r * math.exp(math.exp(r) - 1.0),
        koebe_closed=math.exp(math.exp(-1.0) - 1.0),
    )


def booth(k: float = 1.0 + SQRT2) -> PsiSpec:
    """Booth-type generator with f0(r) = (r/e^r) (k/(k-r))^(2k).

    The generator consistent with that extremal function through the
    integral representation is psi(z) = 1 + z(k+z)/(k-z); its Taylor
    data is c_1 = 1 and c_n = 2/k^(n-1) for n >= 2.  The boundary
    distance is -f0(-1) = e (k/(k+1))^(2k).  Re psi > 0 on the disk only
    for k >~ 1.5036, where the numerical minimum of Re psi on |z| = 1
    crosses 0 (it is -0.46 at k = 1.1); the check below admits every k > 1.
    """
    if not (math.isfinite(k) and k > 1.0):
        raise ValueError(f"booth parameter k must be finite and exceed 1, got {k}")

    def coeffs(order: int) -> np.ndarray:
        c = np.zeros(order + 1)
        c[0] = 1.0
        c[1] = 1.0
        if order >= 2:
            n = np.arange(1, order)
            with np.errstate(over="ignore"):
                power = k ** n
            c[2:] = 2.0 / power
            # k^n overflows past n of about 709 / log k; those terms are
            # taken in logs, where they fall to subnormals or 0.
            if np.isinf(power[-1]):
                big = np.isinf(power)
                c[2:][big] = np.exp(math.log(2.0) - n[big] * math.log(k))
        return c

    return PsiSpec(
        label="booth" if k == 1.0 + SQRT2 else f"booth:k={_label_number(k)}",
        params={"k": k},
        coeff_fn=coeffs,
        psi_eval=lambda t: 1.0 + t * (k + t) / (k - t),
        f0_closed=lambda r: r * math.exp(-r) * (k / (k - r)) ** (2.0 * k),
        koebe_closed=math.e * (k / (k + 1.0)) ** (2.0 * k),
    )


def sine() -> PsiSpec:
    """psi(z) = 1 + sin z, with f0(r) = r exp(Si(r)).

    sin z has negative Taylor coefficients, so the extremal series is not
    its own majorant; radius equations must use the coefficient moduli
    rather than this closed form.
    """

    def coeffs(order: int) -> np.ndarray:
        c = np.zeros(order + 1)
        c[0] = 1.0
        sign = 1.0
        fact = 1.0
        for j in range(0, order + 1):
            n = 2 * j + 1
            if n > order:
                break
            c[n] = sign / fact
            sign = -sign
            fact *= (n + 1) * (n + 2)
        return c

    return PsiSpec(
        label="sine",
        coeff_fn=coeffs,
        psi_eval=lambda t: 1.0 + np.sin(t),
        f0_closed=lambda r: r * math.exp(si(r)),
        koebe_closed=math.exp(si(-1.0)),
    )


_NAMED = {
    "classical-starlike": classical_starlike,
    "classical-convex": classical_convex,
    "cardioid": cardioid,
    "zexpz": z_exp_z,
    "booth": booth,
    "sine": sine,
}


def _label_params(rest: str, keys: tuple[str, ...]) -> dict[str, float]:
    """The ``key=value`` pairs of a label: each of ``keys`` once, no other key."""
    pairs = [item.split("=") for item in rest.split(",")]
    for pair in pairs:
        if len(pair) != 2:
            raise ValueError(f"each item must be one key=value, got {'='.join(pair)!r}")
    names = [pair[0] for pair in pairs]
    if sorted(names) != sorted(keys):
        raise ValueError(f"needs exactly the keys {', '.join(keys)}, each once; "
                         f"got {', '.join(names)}")
    return {key: float(value) for key, value in pairs}


def parse_psi(label: str) -> PsiSpec:
    """Resolve a catalog label such as ``janowski:D=1,E=-1`` or ``sine``."""
    name, colon, rest = label.strip().partition(":")
    name = name.lower()
    if name in _NAMED and not colon:
        return _NAMED[name]()
    try:
        if name == "janowski":
            kv = _label_params(rest, ("D", "E"))
            return janowski(kv["D"], kv["E"])
        if name == "alpha":
            return starlike_alpha(float(rest))
        if name == "booth":
            return booth(_label_params(rest, ("k",))["k"])
    except ValueError as exc:
        raise ValueError(f"cannot parse psi label {label!r}: {exc}") from None
    raise ValueError(f"unknown psi label {label!r}")


def named_labels() -> list[str]:
    """Labels of the zero-parameter catalog entries, in listing order."""
    return list(_NAMED)
