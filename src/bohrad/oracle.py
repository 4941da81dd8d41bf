"""Monte-Carlo and exact checks of the majorant-tail inequalities.

The central object is the tail functional M(f, N, r) = sum_{n>=N} |c_n| r^n
over the stored coefficient window.  Subordinants g = f(omega) are realized
by composing with random finite Blaschke products

    omega(z) = sign * z * prod_j (z - a_j) / (1 - a_j z),   a_j real, |a_j| < 1,

which satisfy omega(0) = 0 and |omega| < 1 on the disk while keeping all
series real.  Rotations on the real axis (degree 0, sign -1) cover the
unimodular edge case.

Checks return a signed margin (claimed bound minus tested quantity); a
margin below the numeric tolerance raises ``InequalityViolation`` carrying
the full counterexample, so a failure is never swallowed.  The suite
runners collect margins over seeded sample streams into a serializable
report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .catalog import PsiSpec, parse_psi
from .extremal import ExtremalPair, build_extremal_pair
from .radius import Family, Mode, RadiusProblem, _family_extremal, solve
from .series import DEFAULT_ORDER, TruncatedSeries

# Default generators exercised by the verification suites.
DEFAULT_ORACLE_PSIS = (
    "classical-starlike",
    "cardioid",
    "zexpz",
    "booth",
    "sine",
    "alpha:0.25",
)

_ZERO_RANGE = 0.95
_AXIOM_TOL = 1e-12


class InequalityViolation(Exception):
    """A verified inequality came out negative beyond tolerance."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SchwarzSample:
    """A finite real-zero Blaschke product times a sign."""

    degree: int
    zeros: tuple[float, ...]
    sign: int

    def __post_init__(self):
        if self.degree != len(self.zeros):
            raise ValueError("degree must match the number of zeros")
        if any(abs(a) >= 1.0 for a in self.zeros):
            raise ValueError("Blaschke zeros must lie in (-1, 1)")
        if self.sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")

    def describe(self) -> dict:
        return {"degree": self.degree, "zeros": list(self.zeros), "sign": self.sign}


IDENTITY_SAMPLE = SchwarzSample(degree=0, zeros=(), sign=1)


def sample_schwarz(rng: "random.Random | int", degree_max: int = 4) -> SchwarzSample:
    """Draw a sample: degree uniform on 0..degree_max, zeros uniform in
    (-0.95, 0.95), sign uniform on {-1, +1}."""
    if degree_max < 0:
        raise ValueError("degree_max must be nonnegative")
    if isinstance(rng, int):
        rng = random.Random(rng)
    degree = rng.randint(0, degree_max)
    zeros = tuple(rng.uniform(-_ZERO_RANGE, _ZERO_RANGE) for _ in range(degree))
    sign = rng.choice((-1, 1))
    return SchwarzSample(degree=degree, zeros=zeros, sign=sign)


def schwarz_series(sample: SchwarzSample, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Taylor coefficients of the sampled Schwarz function.

    Each factor expands as (z - a)/(1 - az) = -a + sum_{i>=1} a^(i-1)(1 - a^2) z^i.
    """
    acc = np.zeros(order + 1)
    acc[1] = float(sample.sign)
    for a in sample.zeros:
        factor = np.empty(order + 1)
        factor[0] = -a
        factor[1:] = (1.0 - a * a) * a ** np.arange(order)
        acc = np.convolve(acc, factor)[: order + 1]
    return TruncatedSeries(acc)


def bohr_tail(f: TruncatedSeries, N: int, r: float) -> float:
    """Tail functional sum_{n=N}^{K} |c_n| r^n; N = 0 is the full majorant."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    if N > f.order:
        return 0.0
    tail = np.abs(f.coeffs[N:])
    return float(np.dot(tail, r ** np.arange(N, f.order + 1)))


def _checked(margin: float, tol: float, report: dict, message: str) -> float:
    """Return the margin, or raise when it is below -tol.

    The raised report is ``report`` with ``margin`` appended last; the
    message is ``message`` formatted with the fields of that report.
    """
    if margin < -tol:
        report = {**report, "margin": margin}
        raise InequalityViolation(message.format(**report), report)
    return margin


def _tail_margin(f: TruncatedSeries, g: TruncatedSeries, sample: SchwarzSample,
                 N: int, r: float, label: str) -> float:
    lhs = bohr_tail(g, N, r)
    rhs = bohr_tail(f, N, r)
    return _checked(
        rhs - lhs,
        1e-9 * rhs + f.tail_hint + g.tail_hint,
        {
            "check": "tail-inequality",
            "psi": label,
            "sample": sample.describe(),
            "N": N,
            "r": r,
            "composed_tail": lhs,
            "majorant_tail": rhs,
        },
        "tail inequality violated for {psi}: margin {margin:.3e} at N={N}, r={r:g}",
    )


def verify_tail_inequality(f: TruncatedSeries, sample: SchwarzSample, N: int,
                           r: float, label: str = "f") -> float:
    """Margin M(f, N, r) - M(f(omega), N, r) for r <= 1/3.

    For N <= 1 the margin is proven nonnegative: the constant terms agree
    (f(omega(0)) = f(0)), and the full majorant inequality for subordinates
    at r <= 1/3 is the lemma of Bhowmik and Das (J. Math. Anal. Appl. 462,
    2018).  For N >= 2 it is false in general: for the sine extremal
    (t_3 = 1/2) a single Blaschke zero near sqrt(2/3) gives a negative
    margin at N = 3.

    Raises ``InequalityViolation`` when the margin is below the numeric
    tolerance 1e-9 * M(f, N, r) plus the truncation hints; such a report is
    a genuine counterexample, not a numerical artifact (``bohrad verify``
    exits 4 when it finds one).
    """
    if r > 1.0 / 3.0:
        raise ValueError(f"tail inequality is only claimed for r <= 1/3, got {r}")
    g = f.compose(schwarz_series(sample, f.order))
    return _tail_margin(f, g, sample, N, r, label)


def verify_bohr_operator_axioms(f: TruncatedSeries, g: TruncatedSeries,
                                alpha: float, N: int, r: float) -> dict:
    """Margins for the tail-functional axioms at one (N, r).

    nonnegativity   M(f) >= 0, and M(f) = 0 iff the window from N is zero
    subadditivity   M(f) + M(g) - M(f + g) >= 0
    homogeneity     M(alpha f) = |alpha| M(f)        (margin = -|difference|)
    submultiplicativity  M0(f) M0(g) - M0(fg) >= 0   (product axiom at N = 0)
    unit            M(1) = 1                          (margin = -|M0(1) - 1|)

    The product axiom fails for N >= 1 in general; see
    ``submultiplicativity_counterexample`` for the classic witness.
    """
    m_f = bohr_tail(f, N, r)
    m_g = bohr_tail(g, N, r)
    window_zero = bool(np.all(f.coeffs[min(N, f.order + 1):] == 0.0))
    margins = {
        "nonnegativity": m_f,
        "definiteness_ok": (m_f == 0.0) == window_zero or r == 0.0,
        "subadditivity": m_f + m_g - bohr_tail(f + g, N, r),
        "homogeneity": -abs(bohr_tail(alpha * f, N, r) - abs(alpha) * m_f),
        "submultiplicativity_n0": bohr_tail(f, 0, r) * bohr_tail(g, 0, r)
        - bohr_tail(f * g, 0, r),
        "unit": -abs(bohr_tail(TruncatedSeries.one(f.order), 0, r) - 1.0),
    }
    return margins


def submultiplicativity_counterexample(r: float = 0.25, order: int = 8) -> dict:
    """The documented failure of the product axiom at N >= 1: f = g = z, N = 2.

    M(fg, 2, r) = r^2 while M(f, 2, r) M(g, 2, r) = 0, so the margin is -r^2.
    """
    f = TruncatedSeries.identity(order)
    margin = bohr_tail(f, 2, r) * bohr_tail(f, 2, r) - bohr_tail(f * f, 2, r)
    return {
        "check": "submultiplicativity",
        "N": 2,
        "r": r,
        "margin": margin,
        "expected_margin": -(r**2),
        "holds": margin >= -_AXIOM_TOL,
    }


def _check_weighted_claim(tau: float, h: TruncatedSeries, r: float) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if r > tau / 3.0:
        raise ValueError(f"weighted inequality is only claimed for r <= tau/3, got {r}")
    h_majorant = float(np.dot(np.abs(h.coeffs), tau ** np.arange(h.order + 1)))
    if h_majorant > tau * (1.0 + 1e-12):
        raise ValueError("weight violates its bound: sum |h_n| tau^n > tau")


def _weighted_margin(tau: float, f: TruncatedSeries, g: TruncatedSeries,
                     sample: SchwarzSample, h: TruncatedSeries, N: int, r: float,
                     label: str) -> float:
    weighted = h * g
    lhs = bohr_tail(weighted, N, r)
    rhs = tau * bohr_tail(f, N, r)
    return _checked(
        rhs - lhs,
        1e-9 * rhs + f.tail_hint + weighted.tail_hint,
        {
            "check": "weighted-tail",
            "psi": label,
            "tau": tau,
            "sample": sample.describe(),
            "N": N,
            "r": r,
            "weighted_tail": lhs,
            "scaled_majorant": rhs,
        },
        "weighted tail inequality violated for {psi}: margin {margin:.3e}",
    )


def verify_weighted(tau: float, f: TruncatedSeries, sample: SchwarzSample,
                    h: TruncatedSeries, N: int, r: float, label: str = "f") -> float:
    """Margin tau * M(f, N, r) - M(h * f(omega), N, r) for r <= tau/3.

    The weight h must satisfy the majorant bound sum |h_n| tau^n <= tau,
    the literal reading of |h| <= tau on |z| < tau.
    """
    _check_weighted_claim(tau, h, r)
    g = f.compose(schwarz_series(sample, f.order))
    return _weighted_margin(tau, f, g, sample, h, N, r, label)


def _br_margin(problem: RadiusProblem, pair: ExtremalPair, g: TruncatedSeries,
               sample: SchwarzSample, r: float) -> float:
    base, rstar = _family_extremal(problem, pair)
    n_eff = 1 if problem.mode == Mode.BOHR_LIMIT else problem.N
    point_bound = 0.0 if problem.mode == Mode.BOHR_LIMIT else g.eval_abs(r**problem.m)
    return _checked(
        rstar - point_bound - bohr_tail(g, n_eff, r),
        1e-9 * max(rstar, 1.0) + base.tail_hint + g.tail_hint,
        {
            "check": "bohr-rogosinski",
            "psi": problem.psi.label,
            "family": problem.family.value,
            "sample": sample.describe(),
            "m": problem.m,
            "N": n_eff,
            "r": r,
        },
        "radius inequality violated for {psi}: margin {margin:.3e}",
    )


def verify_br_inequality(problem: RadiusProblem, pair: ExtremalPair,
                         sample: SchwarzSample, r: float) -> float:
    """Margin rstar - |g(z^m)|-bound - M(g, N, r) for g = extremal(omega).

    |g(z^m)| is dominated by the majorant of the composed series at r^m,
    matching the chain of bounds the radius equation is built from.  At the
    identity sample and r equal to the solved radius the margin vanishes
    (the extremal function attains the bound).
    """
    if not 0.0 <= r < 1.0:
        raise ValueError(f"radius must lie in [0, 1), got {r}")
    base, _ = _family_extremal(problem, pair)
    g = base.compose(schwarz_series(sample, base.order))
    return _br_margin(problem, pair, g, sample, r)


# -- suite runners ------------------------------------------------------


@dataclass
class VerificationReport:
    """Aggregate of one seeded verification run."""

    seed: int
    trials: int
    violations: int
    worst_margin: float
    config: dict
    counterexamples: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "config": self.config,
            "counterexamples": self.counterexamples,
        }


def _resolve_psis(psi_labels) -> list[PsiSpec]:
    return [parse_psi(p) if isinstance(p, str) else p for p in psi_labels]


class _Tally:
    """Violations, worst margin and capped counterexamples of one suite run.

    Kept counterexamples are the first ``cap`` reports, led by the one with
    the worst margin.
    """

    def __init__(self, cap: int = 10):
        self.cap = cap
        self.violations = 0
        self.worst = float("inf")
        self._kept: list[dict] = []
        self._lead: dict | None = None

    def add(self, margin: float, report: dict | None = None) -> None:
        """Record one margin; a report marks it as a violation."""
        self.worst = min(self.worst, margin)
        if report is None:
            return
        self.violations += 1
        if self._lead is None or margin < self._lead["margin"]:
            self._lead = report
        if len(self._kept) < self.cap:
            self._kept.append(report)

    def check(self, margin_fn, *args) -> None:
        """Record the margin of one check, or its violation report."""
        try:
            self.add(margin_fn(*args))
        except InequalityViolation as exc:
            self.add(exc.report["margin"], exc.report)

    def report(self, seed: int, trials: int, config: dict) -> VerificationReport:
        counterexamples = self._kept
        if self._lead is not None:
            rest = [ce for ce in self._kept if ce is not self._lead]
            counterexamples = [self._lead] + rest[: max(self.cap - 1, 0)]
        return VerificationReport(
            seed=seed,
            trials=trials,
            violations=self.violations,
            worst_margin=self.worst,
            config=config,
            counterexamples=counterexamples,
        )


def run_tail_suite(psi_labels=DEFAULT_ORACLE_PSIS, trials: int = 200, seed: int = 0,
                   n_values=(1, 2, 3), r_values=(0.1, 0.25, 1.0 / 3.0),
                   degree_max: int = 4, order: int = DEFAULT_ORDER,
                   max_reports: int = 10) -> VerificationReport:
    """Tail inequality over seeded samples crossed with the catalog extremals."""
    specs = _resolve_psis(psi_labels)
    extremals = [(spec.label, build_extremal_pair(spec, order).f0) for spec in specs]
    rng = random.Random(seed)
    tally = _Tally(max_reports)
    for _ in range(trials):
        sample = sample_schwarz(rng, degree_max)
        omega = schwarz_series(sample, order)
        for label, f0 in extremals:
            g = f0.compose(omega)
            for n in n_values:
                for r in r_values:
                    tally.check(_tail_margin, f0, g, sample, n, r, label)
    return tally.report(seed, trials, {
        "check": "tail-inequality",
        "psis": [spec.label for spec in specs],
        "N": list(n_values),
        "r": list(r_values),
        "degree_max": degree_max,
        "order": order,
    })


def run_axiom_suite(trials: int = 100, seed: int = 0, order: int = 16,
                    n_values=(0, 1, 3), r: float = 0.2) -> VerificationReport:
    """Tail-functional axioms on random series pairs, plus the documented
    failure of the product axiom at N = 2."""
    rng = random.Random(seed)
    tally = _Tally()

    def random_series() -> TruncatedSeries:
        return TruncatedSeries([rng.uniform(-1.0, 1.0) for _ in range(order + 1)])

    for _ in range(trials):
        f, g = random_series(), random_series()
        alpha = rng.uniform(-2.0, 2.0)
        for n in n_values:
            margins = verify_bohr_operator_axioms(f, g, alpha, n, r)
            if not margins.pop("definiteness_ok"):
                tally.violations += 1
            for name, value in margins.items():
                report = {"axiom": name, "N": n, "margin": value}
                tally.add(value, report if value < -_AXIOM_TOL else None)
    return tally.report(seed, trials, {
        "check": "bohr-operator-axioms",
        "N": list(n_values),
        "r": r,
        "order": order,
        "documented_counterexample": submultiplicativity_counterexample(r=r),
    })


def run_weighted_suite(tau: float = 0.8, trials: int = 200, seed: int = 0,
                       psi_labels=DEFAULT_ORACLE_PSIS, N: int = 1,
                       degree_max: int = 4, order: int = DEFAULT_ORDER) -> VerificationReport:
    """Weighted tail inequality with the ramp weight h = tau (1 + z)/2 at r = tau/3."""
    specs = _resolve_psis(psi_labels)
    extremals = [(spec.label, build_extremal_pair(spec, order).f0) for spec in specs]
    h_coeffs = np.zeros(order + 1)
    h_coeffs[0] = tau / 2.0
    h_coeffs[1] = tau / 2.0
    h = TruncatedSeries(h_coeffs)
    r = tau / 3.0
    _check_weighted_claim(tau, h, r)
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        sample = sample_schwarz(rng, degree_max)
        omega = schwarz_series(sample, order)
        for label, f0 in extremals:
            tally.check(_weighted_margin, tau, f0, f0.compose(omega), sample, h, N, r, label)
    return tally.report(seed, trials, {
        "check": "weighted-tail",
        "tau": tau,
        "psis": [spec.label for spec in specs],
        "N": N,
        "r": r,
        "degree_max": degree_max,
        "order": order,
    })


def run_br_suite(psi_label: str = "cardioid", family: Family = Family.STARLIKE,
                 m: int = 1, N: int = 1, trials: int = 100, seed: int = 0,
                 degree_max: int = 4, order: int = DEFAULT_ORDER,
                 mode: Mode = Mode.BOHR_ROGOSINSKI) -> VerificationReport:
    """Full radius inequality on sampled subordinants below the solved radius.

    Sampled subordinants are tested up to min(rb, 1/3), the range covered by
    the subordination chain; the identity sample is additionally checked at
    rb itself, where the extremal function should attain the bound.
    """
    spec = parse_psi(psi_label)
    problem = RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode, order=order)
    pair = build_extremal_pair(spec, order)
    solved = solve(problem, pair)
    r_cap = min(solved.rb, 1.0 / 3.0)
    r_values = [frac * r_cap for frac in (0.25, 0.5, 0.75, 1.0)]
    base, _ = _family_extremal(problem, pair)
    rng = random.Random(seed)
    tally = _Tally()
    for _ in range(trials):
        sample = sample_schwarz(rng, degree_max)
        g = base.compose(schwarz_series(sample, order))
        for r in r_values:
            tally.check(_br_margin, problem, pair, g, sample, r)
    return tally.report(seed, trials, {
        "check": "bohr-rogosinski",
        "psi": spec.label,
        "family": family.value,
        "m": m,
        "N": N,
        "mode": mode.value,
        "r0": solved.r0,
        "rb": solved.rb,
        "identity_margin_at_rb": verify_br_inequality(problem, pair, IDENTITY_SAMPLE, solved.rb),
        "degree_max": degree_max,
        "order": order,
    })
