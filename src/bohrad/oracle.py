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
the full counterexample, so a failure is never swallowed.

Only K coefficients are stored.  Truncation moves the tail margin by
drop_f - drop_g and the weighted one by tau drop_f - drop_hg, and g's
dropped |b_k| only lower the Bohr-Rogosinski margin -G_g.  So a tolerance
of 1e-9 times the claimed bound plus f's dropped tail (``_dropped_tail``;
none for -G_g) makes every reported violation genuine.  Each kernel fixes
its tolerance when it is built.

Each sum has one definition.  The tail window (``_tail_window``) holds r^j
for j >= N and 0 below, so M(f, N, r) = |f| @ window in the tail
functional and the tail and weighted kernels alike.  The Bohr-Rogosinski
margin of g at r is -G_g(r): the solver's radius equation, one row of
``radius._radius_equations``, built from |g| in place of the extremal's
moduli.

The public checks and the suites share one kernel per kind of check, built
once from what does not depend on the subordinant: the tail windows (one
matrix serves every extremal), the majorant tails of each f and the fixed
part of the tolerance.  The suites take the seeded stream of samples
(``_samples``) a chunk at a time, in trial order, with the chunk sized by
bytes (``_CHUNK_BYTES``).  A chunk's omegas are built as one stack
(``_schwarz_chunk``), their power tables by one stacked doubling, and the
stack of extremals is composed with every omega by one product.  The tail
kernel then takes every (N, r) margin of the chunk from one product
|g| @ weights, the weighted kernel applies h by one Toeplitz product, and
the Bohr-Rogosinski kernel evaluates one radius equation per composed row.
Margins run (sample, extremal, check); one scan over them yields the
violation reports in that order, each built only when read, and
``_Tally.extend`` collects them into a serializable report.  Every product
is taken a row at a time (``series._rowwise``), so a margin does not depend
on the chunk it came in, and the public checks run the same kernels on a
chunk of one.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field
from itertools import repeat

import numpy as np

from .catalog import PsiSpec, parse_psi
from .extremal import ExtremalPair, build_extremal_pair, build_f0
from .radius import (Family, Mode, RadiusProblem, _check_radius, _family_extremal,
                     _radius_equations, g_function, solve)
from .series import DEFAULT_ORDER, TruncatedSeries, _rowwise, _toeplitz

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
# Bytes of power tables and Toeplitz blocks that one chunk of samples may
# hold (``_chunk_size``).
_CHUNK_BYTES = 1 << 19


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
    # tuple() of a list, not of a generator: that one resizes its tuple
    # outside CPython's tuple free list, and a long suite then grows the
    # free list, and its peak memory, with every trial.
    zeros = tuple([rng.uniform(-_ZERO_RANGE, _ZERO_RANGE) for _ in range(degree)])
    sign = rng.choice((-1, 1))
    return SchwarzSample(degree=degree, zeros=zeros, sign=sign)


def _schwarz_chunk(samples: list[SchwarzSample], order: int) -> TruncatedSeries:
    """Taylor coefficients of sampled Schwarz functions, stacked one row each.

    Each factor expands as (z - a)/(1 - az) = -a + sum_{i>=1} a^(i-1)(1 - a^2) z^i,
    whose terms from z on are one running product.  All factor rows are
    built at once, and a sample with fewer zeros than the chunk's most takes
    the factor 1 in their place.  sign * z times the first factor is that
    factor shifted; each further factor is one Toeplitz product per row.
    """
    degrees = [sample.degree for sample in samples]
    degree = max([1] + degrees)
    zeros = np.array([sample.zeros + (0.0,) * (degree - sample.degree) for sample in samples])
    zeros = zeros.reshape(len(samples), degree, 1)
    factors = np.empty((len(samples), degree, order + 1))
    factors[..., :1] = -zeros
    factors[..., 1:2] = 1.0 - zeros * zeros
    factors[..., 2:] = zeros
    np.cumprod(factors[..., 1:], axis=-1, out=factors[..., 1:])
    factors[np.arange(degree) >= np.array(degrees)[:, None]] = np.eye(1, order + 1)
    rows = np.zeros((len(samples), order + 1))
    rows[:, 1:] = np.array([[sample.sign] for sample in samples]) * factors[:, 0, :-1]
    for j in range(1, degree):
        rows = _rowwise(rows, _toeplitz(factors[:, j]))
    return TruncatedSeries(rows)


def schwarz_series(sample: SchwarzSample, order: int = DEFAULT_ORDER) -> TruncatedSeries:
    """Taylor coefficients of the sampled Schwarz function: the one row of
    its chunk (``_schwarz_chunk``), so a suite's omega is this one bitwise."""
    return TruncatedSeries(_schwarz_chunk([sample], order).coeffs[0])


def _tail_window(N: int, r: float, order: int) -> np.ndarray:
    """Weights r^j for j >= N and 0 below, at the indices j = 0..order."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    _check_radius(r)
    window = np.zeros(order + 1)
    np.power(r, np.arange(N, order + 1), out=window[N:])
    return window


def _windowed(f: TruncatedSeries, window: np.ndarray) -> float:
    return float(np.dot(np.abs(f.coeffs), window))


def bohr_tail(f: TruncatedSeries, N: int, r: float) -> float:
    """Tail functional sum_{n=N}^{K} |c_n| r^n; N = 0 is the full majorant."""
    return _windowed(f, _tail_window(N, r, f.order))


def _dropped_tail(f: TruncatedSeries, r: float) -> float:
    """|a_1| sum_{n>K} n r^n for f of order K, which bounds f's dropped tail
    sum_{n>K} |a_n| r^n when f is univalent (|a_n| <= n |a_1|)."""
    k = f.order
    return abs(float(f.coeffs[1])) * r ** (k + 1) * ((k + 1) - k * r) / (1.0 - r) ** 2


def _reports(margins, limits, fields):
    """Reports of the checks whose margin lies below its limit, in check order:
    the order of the flattened margins, whose axes run (sample, extremal,
    check) in the kernels.

    ``fields(i)`` gives the report of flat check i, to which ``margin`` is
    appended last.  The reports are built one at a time as they are read,
    and none for a check that holds, so a reader that keeps few of them
    holds few at once however many checks a chunk has.
    """
    margins = np.asarray(margins)
    return ({**fields(int(i)), "margin": float(margins.flat[i])}
            for i in np.flatnonzero(np.less(margins, limits)))


def _checked(margin, checks, sample: SchwarzSample) -> float:
    """The margin of a single check of the kernel's extremal composed with
    the sampled omega, as a chunk of one, or raise on its violation report
    with ``checks.message`` formatted by it."""
    omega = _schwarz_chunk([sample], checks.f.order)
    margins, reports = margin(checks, checks.f.compose(omega), [sample.describe()])
    report = next(reports, None)
    if report is not None:
        raise InequalityViolation(checks.message.format(**report), report)
    return float(margins.flat[0])


class _TailChecks:
    """The tail checks of extremals f (one row of ``f`` each) at every
    (N, r) of a grid, r <= 1/3.

    Column (N, r) of ``weights`` is the tail window from N at r, so
    |f| @ weights is the majorant tail M(f, N, r) at every grid point.  The
    windows depend only on (N, r, K), so one matrix serves every extremal.
    """

    message = "tail inequality violated for {psi}: margin {margin:.3e} at N={N}, r={r:g}"

    def __init__(self, fs: list[TruncatedSeries], labels: list[str], n_values, r_values):
        self.f = TruncatedSeries([f.coeffs for f in fs])
        self.labels = labels
        order = self.f.order
        self.grid = [(n, r) for n in n_values for r in r_values]
        for n, r in self.grid:
            if n > order:  # the window would be empty and check nothing
                raise ValueError(f"N={n} exceeds the truncation order {order}")
            if r > 1.0 / 3.0:
                raise ValueError(f"tail inequality is only claimed for r <= 1/3, got {r}")
        columns = [_tail_window(n, r, order) for n, r in self.grid]
        self.weights = np.array(columns).reshape(len(self.grid), order + 1).T
        self.majorant = _rowwise(np.abs(self.f.coeffs), self.weights)
        self.tol = 1e-9 * self.majorant + [[_dropped_tail(f, r) for _, r in self.grid]
                                           for f in fs]
        # As floats, so that the reports at one grid point share one object.
        self.majorant_tails = self.majorant.tolist()


def _tail_margin(checks: _TailChecks, g: TruncatedSeries,
                 samples: list[dict]) -> tuple[np.ndarray, Iterator[dict]]:
    """Margins M(f, N, r) - M(g, N, r) over the grid for the (sample,
    extremal) stack g, and the violation reports; ``samples`` describes the
    omega behind each row of g."""
    composed = _rowwise(np.abs(g.coeffs), checks.weights)
    margins = checks.majorant - composed
    per_sample, per_f = margins[0].size, len(checks.grid)

    def fields(i: int) -> dict:
        t, rest = divmod(i, per_sample)
        s, p = divmod(rest, per_f)
        return {
            "check": "tail-inequality",
            "psi": checks.labels[s],
            "sample": samples[t],
            "N": checks.grid[p][0],
            "r": checks.grid[p][1],
            "composed_tail": float(composed[t, s, p]),
            "majorant_tail": checks.majorant_tails[s][p],
        }

    return margins, _reports(margins, -checks.tol, fields)


def verify_tail_inequality(f: TruncatedSeries, sample: SchwarzSample, N: int,
                           r: float, label: str = "f") -> float:
    """Margin M(f, N, r) - M(f(omega), N, r) for r <= 1/3.

    For N <= 1 the margin is proven nonnegative: the constant terms agree
    (f(omega(0)) = f(0)), and the full majorant inequality for subordinates
    at r <= 1/3 is the lemma of Bhowmik and Das (J. Math. Anal. Appl. 462,
    2018).  For N >= 2 it is false in general: for the sine extremal
    (t_3 = 1/2) a single Blaschke zero near sqrt(2/3) gives a negative
    margin at N = 3.

    Raises ``InequalityViolation`` when the margin is below the tolerance
    1e-9 * M(f, N, r) plus the bound on f's dropped tail, the only
    truncation term that can lift the margin (f univalent; g's dropped tail
    only lowers it).  Such a report is a genuine counterexample, not a
    numerical artifact (``bohrad verify`` exits 4 when it finds one).
    """
    return _checked(_tail_margin, _TailChecks([f], [label], (N,), (r,)), sample)


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
    at_n, at_0 = _tail_window(N, r, f.order), _tail_window(0, r, f.order)
    m_f = _windowed(f, at_n)
    m_g = _windowed(g, at_n)
    window_zero = not f.coeffs[N:].any()
    margins = {
        "nonnegativity": m_f,
        "definiteness_ok": (m_f == 0.0) == window_zero or r == 0.0,
        "subadditivity": m_f + m_g - _windowed(f + g, at_n),
        "homogeneity": -abs(_windowed(alpha * f, at_n) - abs(alpha) * m_f),
        "submultiplicativity_n0": _windowed(f, at_0) * _windowed(g, at_0)
        - _windowed(f * g, at_0),
        # M0(1) = |1| r^0, the first weight of the window at 0.
        "unit": -abs(float(at_0[0]) - 1.0),
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


class _WeightedCheck:
    """The weighted checks of extremals f (one row of ``f`` each) with weight
    h at one (N, r): the tail kernel's window there, the majorant tails and
    tolerances times tau, and the Toeplitz matrix by which h multiplies."""

    message = "weighted tail inequality violated for {psi}: margin {margin:.3e}"

    def __init__(self, tau: float, fs: list[TruncatedSeries], labels: list[str],
                 h: TruncatedSeries, N: int, r: float):
        _check_weighted_claim(tau, h, r)
        tail = _TailChecks(fs, labels, (N,), (r,))
        self.f, self.labels, self.tau, self.N, self.r = tail.f, labels, tau, N, r
        self.h_matrix = _toeplitz(h.coeffs)
        self.weights = tail.weights
        self.scaled_majorant = tau * tail.majorant[:, 0]
        self.scaled_majorants = self.scaled_majorant.tolist()
        self.tol = tau * tail.tol[:, 0]


def _weighted_margin(check: _WeightedCheck, g: TruncatedSeries,
                     samples: list[dict]) -> tuple[np.ndarray, Iterator[dict]]:
    """Margins tau M(f, N, r) - M(h g, N, r) for the (sample, extremal)
    stack g, and the violation reports."""
    weighted = _rowwise(np.abs(_rowwise(g.coeffs, check.h_matrix)), check.weights)[..., 0]
    margins = check.scaled_majorant - weighted

    def fields(i: int) -> dict:
        t, s = divmod(i, len(check.labels))
        return {
            "check": "weighted-tail",
            "psi": check.labels[s],
            "tau": check.tau,
            "sample": samples[t],
            "N": check.N,
            "r": check.r,
            "weighted_tail": float(weighted[t, s]),
            "scaled_majorant": check.scaled_majorants[s],
        }

    return margins, _reports(margins, -check.tol, fields)


def verify_weighted(tau: float, f: TruncatedSeries, sample: SchwarzSample,
                    h: TruncatedSeries, N: int, r: float, label: str = "f") -> float:
    """Margin tau * M(f, N, r) - M(h * f(omega), N, r) for r <= tau/3.

    The weight h must satisfy the majorant bound sum |h_n| tau^n <= tau,
    the literal reading of |h| <= tau on |z| < tau.
    """
    return _checked(_weighted_margin, _WeightedCheck(tau, [f], [label], h, N, r), sample)


class _BRChecks:
    """The radius checks of one problem at every r of a list."""

    message = "radius inequality violated for {psi}: margin {margin:.3e}"

    def __init__(self, problem: RadiusProblem, pair: ExtremalPair, r_values):
        self.problem = problem
        self.f, self.rstar = _family_extremal(problem, pair)
        self.r_values = list(r_values)
        for r in self.r_values:
            _check_radius(r)
        self.tol = 1e-9 * max(self.rstar, 1.0)


def _br_margin(checks: _BRChecks, g: TruncatedSeries,
               samples: list[dict]) -> tuple[np.ndarray, Iterator[dict]]:
    """Margins -G_g(r) at each r for each row g of the stack, where G_g is
    the radius equation of the problem built from the moduli of g, and the
    violation reports.

    ``0.0 - G`` rather than ``-G``, so that a zero G gives the margin +0.0.
    """
    problem, r_values = checks.problem, checks.r_values
    margins = []
    for row in g.coeffs:
        evaluate, _ = _radius_equations([(problem.m, problem.N)], problem.mode,
                                        TruncatedSeries(row), checks.rstar)
        margins.append([0.0 - value for value, _ in evaluate([0] * len(r_values), r_values)])
    margins = np.array(margins)

    def fields(i: int) -> dict:
        t, k = divmod(i, len(r_values))
        return {
            "check": "bohr-rogosinski",
            "psi": problem.psi.label,
            "family": problem.family.value,
            "sample": samples[t],
            "m": problem.m,
            "N": 1 if problem.mode == Mode.BOHR_LIMIT else problem.N,
            "r": r_values[k],
        }

    return margins, _reports(margins, -checks.tol, fields)


def verify_br_inequality(problem: RadiusProblem, pair: ExtremalPair,
                         sample: SchwarzSample, r: float) -> float:
    """Margin -G_g(r) = r* - ghat(r^m) - M(g, N, r) for g = extremal(omega).

    G_g is the solver's radius equation built from the moduli of g: |g(z^m)|
    is dominated by the majorant ghat at r^m, and the Bohr limit drops that
    term and takes N = 1.  At the identity sample and r equal to the solved
    radius the margin is minus the solver's residual (the extremal attains
    the bound).  The pair must be built at ``problem.order``.

    Raises ``InequalityViolation`` when the margin is below 1e-9 * max(r*, 1),
    with no truncation term at any r: g's dropped terms only add to G_g.
    """
    return _checked(_br_margin, _BRChecks(problem, pair, (r,)), sample)


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
        return asdict(self)


def _resolve_psis(psi_labels) -> list[PsiSpec]:
    return [parse_psi(p) if isinstance(p, str) else p for p in psi_labels]


def _chunk_size(order: int) -> int:
    """Samples per chunk at the order: as many as ``_CHUNK_BYTES`` holds, each
    with a power table and a Toeplitz block of (K + 1)^2 floats, at least one."""
    return max(1, _CHUNK_BYTES // (2 * 8 * (order + 1) ** 2))


def _samples(seed: int, trials: int, degree_max: int, order: int):
    """The seeded stream of the suites, in chunks that fit ``_CHUNK_BYTES``:
    per chunk, its omegas as one stacked series and the descriptions of
    their samples.  The samples are drawn in trial order."""
    rng = random.Random(seed)
    size = _chunk_size(order)
    for start in range(0, trials, size):
        chunk = [sample_schwarz(rng, degree_max) for _ in range(min(size, trials - start))]
        yield _schwarz_chunk(chunk, order), [sample.describe() for sample in chunk]


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

    def extend(self, margins, reports) -> None:
        """Record the margins of several checks and the reports of the
        violated ones, an iterable read once."""
        self.worst = float(np.min(margins, initial=self.worst))
        for report in reports:
            self.violations += 1
            if self._lead is None or report["margin"] < self._lead["margin"]:
                self._lead = report
            if len(self._kept) < self.cap:
                self._kept.append(report)

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
    checks = _TailChecks([build_f0(spec, order) for spec in specs],
                         [spec.label for spec in specs], n_values, r_values)
    tally = _Tally(max_reports)
    for omegas, described in _samples(seed, trials, degree_max, order):
        tally.extend(*_tail_margin(checks, checks.f.compose(omegas), described))
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

    margins, keys = [], []
    for _ in range(trials):
        f, g = random_series(), random_series()
        alpha = rng.uniform(-2.0, 2.0)
        for n in n_values:
            checked = verify_bohr_operator_axioms(f, g, alpha, n, r)
            if not checked.pop("definiteness_ok"):
                tally.violations += 1
            margins += checked.values()
            keys += zip(checked, repeat(n))
    tally.extend(margins, _reports(margins, -_AXIOM_TOL,
                                   lambda i: {"axiom": keys[i][0], "N": keys[i][1]}))
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
    if order < 1:
        raise ValueError("order must be at least 1")
    specs = _resolve_psis(psi_labels)
    h_coeffs = np.zeros(order + 1)
    h_coeffs[0] = tau / 2.0
    h_coeffs[1] = tau / 2.0
    h = TruncatedSeries(h_coeffs)
    r = tau / 3.0
    check = _WeightedCheck(tau, [build_f0(spec, order) for spec in specs],
                           [spec.label for spec in specs], h, N, r)
    tally = _Tally()
    for omegas, described in _samples(seed, trials, degree_max, order):
        tally.extend(*_weighted_margin(check, check.f.compose(omegas), described))
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
    the subordination chain.  The margin of the identity sample at rb itself,
    where the extremal function should attain the bound, is reported as
    ``identity_margin_at_rb``.
    """
    spec = parse_psi(psi_label)
    problem = RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode, order=order)
    pair = build_extremal_pair(spec, order)
    solved = solve(problem, pair)
    r_cap = min(solved.rb, 1.0 / 3.0)
    checks = _BRChecks(problem, pair, [frac * r_cap for frac in (0.25, 0.5, 0.75, 1.0)])
    tally = _Tally()
    for omegas, described in _samples(seed, trials, degree_max, order):
        tally.extend(*_br_margin(checks, checks.f.compose(omegas), described))
    return tally.report(seed, trials, {
        "check": "bohr-rogosinski",
        "psi": spec.label,
        "family": family.value,
        "m": m,
        "N": N,
        "mode": mode.value,
        "r0": solved.r0,
        "rb": solved.rb,
        # At the identity sample g is the extremal bitwise, so its margin at
        # rb is -G(rb) of the solver's own equation (-residual when rb = r0).
        "identity_margin_at_rb": 0.0 - g_function(problem, pair, solved.rb),
        "degree_max": degree_max,
        "order": order,
    })
