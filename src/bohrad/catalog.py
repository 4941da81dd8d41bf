"""Catalog of Ma-Minda generating functions.

Each entry bundles, for one choice of psi with psi(0) = 1 and psi'(0) > 0:

* a Taylor-coefficient generator (real coefficients),
* a real closed-form evaluator for psi (floats or ndarrays; the starlike
  Koebe quadrature integrates it),
* the closed form of the starlike extremal function f0 (floats or
  ndarrays; the convex Koebe quadrature integrates f0(t)/t),
* the Taylor coefficients of f0 from a short recurrence on h = f0/z,
  where psi is rational: one term for the Janowski family (classical and
  alpha entries included), two for cardioid and booth, as a list of
  floats that need no numpy (``extremal._f0_coefficients`` prefers them),
* the boundary-distance constant -f0(-1), where a closed form is known,
  and its convex counterpart -l0(-1) (the Janowski family).

Entries are addressable by string label, e.g. ``cardioid``, ``sine``,
``janowski:D=0.5,E=-0.5``, ``alpha:0.25``, ``booth:k=2.5``.  The
classical (D = 1, E = -1) and order-alpha (D = 1 - 2 alpha, E = -1)
entries are Janowski entries with only what differs replaced.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .series import TruncatedSeries, _truncation_order, np

SQRT2 = math.sqrt(2.0)


# Taylor coefficients (-1)^n / ((2n+1) (2n+1)!) of Si(x)/x, n = 0..9.  On
# |x| <= 1 the first term dropped is below 1e-21.
_SI_COEFFS = tuple((-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)) for n in range(10))


def si(x):
    """Sine integral Si(x) = int_0^x sin(t)/t dt for a float or an ndarray.

    Sums the Taylor series sum_n (-1)^n x^(2n+1) / ((2n+1) (2n+1)!) to
    n = 9 as a polynomial in x^2 (Horner), so Si is odd to the bit.  Only
    |x| <= 1 is accepted; that is the range the extremal-function
    evaluators need and the series is strongly convergent there.  A float
    is checked without numpy.
    """
    inside = abs(x) <= 1.0
    if not (inside if isinstance(inside, bool) else inside.all()):
        raise ValueError(f"si(x) supported for |x| <= 1, got {x}")
    x2 = x * x
    total = _SI_COEFFS[-1]
    for c in _SI_COEFFS[-2::-1]:
        total = total * x2 + c
    return x * total


def _label_number(x: float) -> str:
    """A parameter as labels print it: ``:g`` when that reads back as x,
    else the shortest repr that does."""
    short = f"{x:g}"
    return short if float(short) == x else repr(float(x))


def _validate_janowski(d: float, e: float) -> None:
    if not (-1.0 <= e < d <= 1.0):
        raise ValueError(f"Janowski parameters need -1 <= E < D <= 1, got D={d}, E={e}")


class _PsiFields(NamedTuple):
    label: str
    params: dict
    coeff_fn: Callable[[int], np.ndarray]
    psi_eval: Callable[[float | np.ndarray], float | np.ndarray]
    f0_closed: Optional[Callable[[float | np.ndarray], float | np.ndarray]]
    # Taylor coefficients t_0..t_order of f0 as a list of floats, from a
    # short recurrence (the Janowski family, cardioid, booth), which
    # extremal._f0_coefficients prefers to the dense recurrence on psi.
    f0_coeff_fn: Optional[Callable[[int], list[float]]]
    # Closed boundary distances -f0(-1) and -l0(-1); the Koebe radius falls
    # back to quadrature for a family whose value is None.
    koebe_closed: Optional[float]
    koebe_closed_convex: Optional[float]
    default_family: str


class PsiSpec(_PsiFields):
    """One catalog entry; immutable and freely shareable.

    ``psi_eval`` and ``f0_closed`` take a float or an ndarray, which they
    evaluate elementwise: the Koebe quadrature calls them once on a whole
    node grid.  ``f0_closed`` takes its powers, exponentials and logarithms
    from numpy (``np.power``, ``np.exp``, ``np.log1p``) for both, so a
    float and the same value in an array give the same bits.
    """

    __slots__ = ()

    def __new__(cls, label: str, params: dict | None = None, coeff_fn=None, psi_eval=None,
                f0_closed=None, f0_coeff_fn=None, koebe_closed: float | None = None,
                koebe_closed_convex: float | None = None,
                default_family: str = "starlike") -> "PsiSpec":
        # An entry given no params gets its own empty dict, where a default
        # of the fields would be one dict shared by every such entry.
        return super().__new__(cls, label, {} if params is None else params, coeff_fn,
                               psi_eval, f0_closed, f0_coeff_fn, koebe_closed,
                               koebe_closed_convex, default_family)

    def series(self, order: int) -> TruncatedSeries:
        """Taylor coefficients of psi to the given order."""
        return TruncatedSeries(self.coeff_fn(_truncation_order(order)))


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

    def f0_coeffs(order: int) -> list[float]:
        # One plain-float step per coefficient keeps the Koebe function's
        # t_n = n exact, and the zeros past a terminating D - kE = 0.
        t = [0.0, 1.0]
        x = 1.0
        for k in range(1, order):
            x = x * (d - k * e) / k
            t.append(x)
        return t

    if e == 0.0:
        f0 = lambda r: r * np.exp(d * r)
        koebe = math.exp(-d)
        koebe_convex = -math.expm1(-d) / d
    else:
        p = (d - e) / e
        f0 = lambda r: r * np.power(1.0 + e * r, p)
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
    )


def classical_starlike() -> PsiSpec:
    """psi(z) = (1+z)/(1-z); the extremal function is the Koebe function."""
    return janowski(1.0, -1.0)._replace(label="classical-starlike")


def classical_convex() -> PsiSpec:
    """Same generator as classical-starlike, used with the convex family,
    whose extremal function is z/(1-z)."""
    return janowski(1.0, -1.0)._replace(label="classical-convex", default_family="convex")


def starlike_alpha(alpha: float) -> PsiSpec:
    """Starlike functions of order alpha: Janowski with D = 1-2a, E = -1.

    Its closed f0 is the Janowski one, r (1 - r)^(2a - 2); the closed convex
    r* leaves no quadrature to read it.  Its own -f0(-1) = 4^(a-1) stays:
    for some alpha the Janowski form differs from it by a few ulps, and the
    printed r* reads it."""
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must lie in [0, 1), got {alpha}")
    d = 1.0 - 2.0 * alpha
    return janowski(d, -1.0)._replace(
        label=f"alpha:{_label_number(alpha)}",
        params={"alpha": alpha, "D": d, "E": -1.0},
        koebe_closed=4.0 ** (alpha - 1.0),
    )


def _two_term_f0(order: int, s: float, p: float, q: float, b: float) -> list[float]:
    """Taylor coefficients t_0..t_order of f0 = z h, where h_{-1} = 0,
    h_0 = 1 and s (n+1) h_{n+1} = (p + q n) h_n + b h_{n-1}.

    The callers' weights are whole numbers or k itself, not their rounded
    ratios, so no rounded constant biases every step alike.
    """
    t = [0.0, 1.0]
    prev, h = 0.0, 1.0
    for n in range(order - 1):
        prev, h = h, ((p + q * n) * h + b * prev) / (s * (n + 1))
        t.append(h)
    return t


def cardioid() -> PsiSpec:
    """psi(z) = 1 + 4z/3 + 2z^2/3, with f0(r) = r exp(4r/3 + r^2/3).

    h = f0/z = exp(4z/3 + z^2/3) solves h' = (4/3 + 2z/3) h, so its
    coefficients obey 3(n+1) h_{n+1} = 4 h_n + 2 h_{n-1}, with t_n = h_{n-1}.
    """

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
        f0_closed=lambda r: r * np.exp(4.0 * r / 3.0 + r * r / 3.0),
        f0_coeff_fn=lambda order: _two_term_f0(order, 3.0, 4.0, 0.0, 2.0),
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
        f0_closed=lambda r: r * np.exp(np.exp(r) - 1.0),
        koebe_closed=math.exp(math.exp(-1.0) - 1.0),
    )


def booth(k: float = 1.0 + SQRT2) -> PsiSpec:
    """Booth-type generator with f0(r) = (r/e^r) (k/(k-r))^(2k).

    The generator consistent with that extremal function through the
    integral representation is psi(z) = 1 + z(k+z)/(k-z); its Taylor
    data is c_1 = 1 and c_n = 2/k^(n-1) for n >= 2.  The boundary
    distance is -f0(-1) = e (k/(k+1))^(2k).  Both closed forms take the
    power as exp(-2k log1p(-r/k)): the quotient k/(k-r) rounds by up to
    half an ulp, an error the power 2k multiplies, so -f0(-1) would be off
    by about 7e5 ulps at k = 1e6 and read e in place of about 1/e from
    k = 2^53 on.  Re psi > 0 on the disk only for k >~ 1.5036, where the
    numerical minimum of Re psi on |z| = 1 crosses 0 (it is -0.46 at
    k = 1.1); the check below admits every k > 1.

    h = f0/z solves (k - z) h' = (k + z) h, so its coefficients obey
    k(n+1) h_{n+1} = (k + n) h_n + h_{n-1}, with t_n = h_{n-1}.
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
        f0_closed=lambda r: r * np.exp(-r - 2.0 * k * np.log1p(-r / k)),
        f0_coeff_fn=lambda order: _two_term_f0(order, k, k, 1.0, 1.0),
        koebe_closed=math.exp(1.0 - 2.0 * k * math.log1p(1.0 / k)),
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
        f0_closed=lambda r: r * np.exp(si(r)),
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
