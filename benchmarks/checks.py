"""Correctness checks computed apart from the program.

Every check returns a list of failure messages; an empty list means the
value passed.  The reference values come from closed forms, from roots
solved here by plain bisection, from the radius equation re-assembled
from coefficient moduli, and from Taylor data extracted by a Cauchy
integral (FFT on a circle) of closed-form extremals composed with the
sampled Schwarz function.  Nothing is compared against stored output.
Only numpy and the standard library are used; no check imports ``bohrad``.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math

import numpy as np

CSV_HEADER = ["psi", "family", "m", "N", "mode", "r0", "rb", "residual", "iterations", "sharp"]

# Solver tolerance of the program (RadiusProblem.tol default), and the
# accepted distance from a closed-form radius: the tolerance plus the
# quadrature error of the convex Koebe radius.
SOLVER_TOL = 1e-10
ROOT_TOL = 3e-10
# G is re-assembled with math.fsum while the program uses Horner sums, so a
# sign test at a bracket end allows this much rounding.
G_SLACK = 1e-13
MONOTONE_SLACK = 1e-12
SERIES_EXACT_TOL = 1e-9
KOEBE_RTOL = 1e-10
MARGIN_RTOL = 1e-8
MARGIN_ATOL = 1e-13
# Printed numbers carry 12 significant digits.
PRINTED_RTOL = 1e-11


def bisect(g, lo: float, hi: float, tol: float = 1e-15) -> float:
    """Root of an increasing function with g(lo) < 0 < g(hi)."""
    if not g(lo) < 0.0 < g(hi):
        raise ValueError("no sign change on the bracket")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _si(x):
    """Sine integral by its Taylor series; x real or complex with |x| <= 1."""
    total = 0.0 * x
    term = x
    for n in range(20):
        total = total + term / (2 * n + 1)
        term = term * (-x * x) / ((2 * n + 2) * (2 * n + 3))
    return total


def _booth_f0(k: float):
    return lambda w: w * np.exp(-w) * (k / (k - w)) ** (2.0 * k)


# Extremal functions f0 = z exp(int_0^z (psi(t) - 1)/t dt), in closed form,
# for the generators the oracle samples by default.  Valid on the open disk.
F0_CLOSED = {
    "classical-starlike": lambda w: w / (1.0 - w) ** 2,
    "cardioid": lambda w: w * np.exp(4.0 * w / 3.0 + w * w / 3.0),
    "zexpz": lambda w: w * np.exp(np.exp(w) - 1.0),
    "booth": _booth_f0(1.0 + math.sqrt(2.0)),
    "sine": lambda w: w * np.exp(_si(w)),
    "alpha:0.25": lambda w: w * (1.0 - w) ** -1.5,
}


@functools.cache
def closed_forms() -> dict:
    """Radii known in closed form, keyed by (psi, family, mode, m, N)."""
    return {
        ("classical-starlike", "starlike", "bohr-rogosinski", 1, 1): 5.0 - 2.0 * math.sqrt(6.0),
        ("classical-starlike", "starlike", "bohr-limit", 1, 1): 3.0 - 2.0 * math.sqrt(2.0),
        ("classical-convex", "convex", "bohr-rogosinski", 1, 1): 0.2,
        ("classical-convex", "convex", "bohr-limit", 1, 1): 1.0 / 3.0,
        ("classical-starlike", "convex", "bohr-rogosinski", 1, 1): 0.2,
        ("classical-starlike", "convex", "bohr-limit", 1, 1): 1.0 / 3.0,
        ("cardioid", "starlike", "bohr-limit", 1, 1): cardioid_bohr_radius(),
    }


def cardioid_bohr_radius() -> float:
    """Root of r exp(4r/3 + r^2/3) = 1/e (cardioid f0 has positive coefficients)."""
    return bisect(lambda r: r * math.exp(4.0 * r / 3.0 + r * r / 3.0) - math.exp(-1.0), 0.0, 1.0)


def cardioid_br_radius() -> float:
    """m = N = 1: 2 f0(r) = 1/e."""
    return bisect(lambda r: 2.0 * r * math.exp(4.0 * r / 3.0 + r * r / 3.0) - math.exp(-1.0),
                  0.0, 1.0)


def janowski_e0_radius(d: float, m: int, N: int) -> float:
    """Janowski E = 0 (f0 = z e^{Dz}) with N <= 2, from exp closed forms."""
    if N > 2:
        raise ValueError("closed form only for N <= 2")
    f0 = lambda r: r * math.exp(d * r)
    head = (lambda r: r) if N == 2 else (lambda r: 0.0)
    return bisect(lambda r: f0(r**m) + f0(r) - head(r) - math.exp(-d), 0.0, 1.0)


def janowski_koebe(d: float, e: float, family: str) -> float:
    """-f0(-1) (starlike) and -l0(-1) (convex) for psi = (1 + Dz)/(1 + Ez)."""
    if family == "starlike":
        return math.exp(-d) if e == 0.0 else (1.0 - e) ** ((d - e) / e)
    if e == 0.0:
        return (1.0 - math.exp(-d)) / d
    if d == 0.0:
        return -math.log1p(-e) / e
    return (1.0 - (1.0 - e) ** (d / e)) / d


def catalog_koebe() -> dict:
    """Starlike Koebe radii of the entries `bohrad catalog` lists."""
    k = 1.0 + math.sqrt(2.0)
    return {
        "classical-starlike": 0.25,
        "classical-convex": 0.25,
        "cardioid": math.exp(-1.0),
        "zexpz": math.exp(math.exp(-1.0) - 1.0),
        "booth": math.e * (k / (k + 1.0)) ** (2.0 * k),
        "sine": math.exp(_si(-1.0)),
        "alpha:0.25": 4.0 ** -0.75,
        "janowski:D=0.5,E=-0.5": janowski_koebe(0.5, -0.5, "starlike"),
    }


# -- radius equation -------------------------------------------------------


def reassembled_g(moduli, rstar: float, m: int, N: int, mode: str):
    """G(r) = fhat(r^m) + fhat(r) - p(r) - r*, from coefficient moduli."""
    a = [float(x) for x in moduli]
    n_min = 1 if mode == "bohr-limit" else N

    def g(r: float) -> float:
        terms = [a[n] * r**n for n in range(n_min, len(a))]
        if mode != "bohr-limit":
            terms += [a[n] * r ** (n * m) for n in range(len(a))]
        terms.append(-rstar)
        return math.fsum(terms)

    return g


def check_root(r0: float, bracket, g, tol: float = SOLVER_TOL) -> list[str]:
    """r0 lies in a bracket no wider than tol across which G changes sign."""
    lo, hi = bracket
    out = []
    if not lo <= r0 <= hi:
        out.append(f"r0 {r0!r} outside its bracket [{lo!r}, {hi!r}]")
    if not 0.0 <= hi - lo <= tol:
        out.append(f"bracket width {hi - lo:.3e} exceeds {tol:.0e}")
    g_lo, g_hi = g(lo), g(hi)
    if not (g_lo <= G_SLACK and g_hi >= -G_SLACK and g_lo < g_hi):
        out.append(f"G does not change sign on the bracket: G(lo)={g_lo:.3e}, G(hi)={g_hi:.3e}")
    return out


def check_close(name: str, got: float, want: float, atol: float = ROOT_TOL) -> list[str]:
    if not abs(got - want) <= atol:
        return [f"{name}: got {got!r}, want {want!r} (|diff| {abs(got - want):.2e} > {atol:.0e})"]
    return []


def check_rel(name: str, got: float, want: float, rtol: float) -> list[str]:
    if not abs(got - want) <= rtol * abs(want):
        return [f"{name}: got {got!r}, want {want!r} (rel {rtol:.0e})"]
    return []


def check_nondecreasing(name: str, values) -> list[str]:
    bad = [i for i in range(1, len(values)) if values[i] < values[i - 1] - MONOTONE_SLACK]
    if bad:
        i = bad[0]
        return [f"{name}: r0 decreases at index {i}: {values[i - 1]!r} -> {values[i]!r}"]
    return []


# -- oracle ------------------------------------------------------------------


def cauchy_coeffs(fn, order: int = 64, rho: float = 0.6, points: int = 512) -> np.ndarray:
    """Taylor coefficients 0..order of fn by the trapezoid rule on |z| = rho.

    The error in c_k is about eps * max|fn| / rho^k; weighted by r^k with
    r <= 1/3 < rho it stays at the level of eps.
    """
    z = rho * np.exp(2j * np.pi * np.arange(points) / points)
    c = np.fft.fft(fn(z)) / points
    return (c[: order + 1] / rho ** np.arange(order + 1)).real


def schwarz_eval(zeros, sign: int):
    def omega(z):
        out = sign * z
        for a in zeros:
            out = out * (z - a) / (1.0 - a * z)
        return out
    return omega


def tail_margin(label: str, zeros, sign: int, N: int, r: float, order: int = 64) -> float:
    """sum_{n>=N} |a_n| r^n - sum_{k>=N} |b_k| r^k over n, k <= order, g = f0(omega)."""
    f0 = F0_CLOSED[label]
    omega = schwarz_eval(zeros, sign)
    a = cauchy_coeffs(f0, order)
    b = cauchy_coeffs(lambda z: f0(omega(z)), order)
    w = r ** np.arange(order + 1)
    return math.fsum(np.abs(a[N:]) * w[N:]) - math.fsum(np.abs(b[N:]) * w[N:])


def check_tail_report(rep: dict) -> list[str]:
    """A tail-suite report run with room for every counterexample."""
    out = []
    ces = rep["counterexamples"]
    if rep["violations"] != len(ces):
        out.append(f"{rep['violations']} violations but {len(ces)} counterexamples kept")
    at_one = [ce for ce in ces if ce["N"] <= 1]
    if at_one:
        out.append(f"{len(at_one)} violations at N = 1, where the inequality is a lemma")
    if not ces:
        if rep["worst_margin"] < -MARGIN_ATOL:
            out.append(f"worst margin {rep['worst_margin']!r} < 0 without a violation")
        return out
    worst = ces[0]
    if worst["margin"] != rep["worst_margin"] or any(ce["margin"] < worst["margin"] for ce in ces):
        out.append("the first counterexample is not the worst one")
    s = worst["sample"]
    want = tail_margin(worst["psi"], s["zeros"], s["sign"], worst["N"], worst["r"],
                       rep["config"]["order"])
    if not want < 0.0:
        out.append(f"recomputed worst margin {want!r} is not negative")
    if not abs(worst["margin"] - want) <= MARGIN_RTOL * abs(want) + MARGIN_ATOL:
        out.append(f"worst margin {worst['margin']!r} differs from the recomputed {want!r}")
    return out


def check_clean_report(rep: dict) -> list[str]:
    """A suite over a proven inequality: no violation, no negative margin."""
    out = []
    if rep["violations"] != 0 or rep["counterexamples"]:
        out.append(f"{rep['violations']} violations of a proven inequality")
    if rep["worst_margin"] < -MARGIN_ATOL:
        out.append(f"worst margin {rep['worst_margin']!r} is negative")
    return out


# -- CLI output ---------------------------------------------------------------


def parse_csv(text: str) -> tuple[list[dict], list[str]]:
    """Rows of CSV output under the 10-column header; comment lines skipped."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if not rows or rows[0] != CSV_HEADER:
        return [], [f"CSV header is {rows[0] if rows else None!r}"]
    out, errors = [], []
    for i, row in enumerate(rows[1:], start=1):
        if len(row) != len(CSV_HEADER):
            errors.append(f"CSV row {i} has {len(row)} fields, want {len(CSV_HEADER)}: {row!r}")
            continue
        out.append(_typed(dict(zip(CSV_HEADER, row))))
    return out, errors


def parse_table(text: str) -> tuple[dict, list[str]]:
    """`key value` lines of the radius table, one per CSV column."""
    row = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        row[key] = value.strip()
    if sorted(row) != sorted(CSV_HEADER):
        return {}, [f"table keys {sorted(row)!r}"]
    return _typed(row), []


def parse_json(text: str) -> tuple[dict, list[str]]:
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return {}, [f"output is not JSON: {exc}"]


def _typed(row: dict) -> dict:
    out = dict(row)
    for key in ("m", "N", "iterations"):
        out[key] = int(row[key])
    for key in ("r0", "rb", "residual"):
        out[key] = float(row[key])
    return out


def check_result_row(row: dict, psi: str, family: str, m: int, N: int, mode: str,
                     r0: float | None = None) -> list[str]:
    """Labels of a printed radius result, and its root against a reference."""
    out = []
    got = (row.get("psi"), row.get("family"), row.get("m"), row.get("N"), row.get("mode"))
    if got != (psi, family, m, N, mode):
        out.append(f"result labelled {got!r}, want {(psi, family, m, N, mode)!r}")
    if r0 is not None:
        out += check_close("r0", float(row.get("r0", math.nan)), r0, ROOT_TOL + PRINTED_RTOL)
    return out


def parse_catalog(text: str) -> tuple[dict, list[str]]:
    """`label family=... exact_bounds=... koebe_starlike=...` lines."""
    koebe = {}
    for line in text.splitlines():
        fields = line.split()
        if not fields:
            continue
        kv = dict(f.split("=", 1) for f in fields[1:] if "=" in f)
        if "koebe_starlike" not in kv:
            return {}, [f"catalog line without koebe_starlike: {line!r}"]
        koebe[fields[0]] = float(kv["koebe_starlike"])
    return koebe, []
