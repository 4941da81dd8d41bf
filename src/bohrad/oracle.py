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
margin of g at r is -G_g(r): the solver's radius equation, the one row of
``radius._moduli_row``, built from |g| in place of the extremal's
moduli and with no certified start, which only the solver needs.

The public checks and the suites share one kernel per kind of check, built
once from what does not depend on the subordinant: the tail windows (one
matrix serves every extremal), the majorant tails of each f and the fixed
part of the tolerance.  The suites take the seeded stream of samples
(``_samples``) a chunk at a time, in trial order, with the chunk sized by
bytes (``_CHUNK_BYTES``).  A chunk's omegas are built as one stack
(``_schwarz_chunk``), each from its own Blaschke factors only, their power
tables by one stacked doubling, and the stack of extremals is composed
with every omega by one product.  One workspace per suite call
(``_workspace``) holds the chunk's Toeplitz factors and power tables, and
every chunk is built in place in it.  The tail kernel then takes every
(N, r) margin of the chunk from one product |g| @ weights, the weighted
kernel applies h by one Toeplitz product, and the Bohr-Rogosinski kernel
takes the moduli of the chunk's composed rows at once and evaluates one
radius equation per row, by plain-float Horner passes.
Margins run (sample, extremal, check); one scan over them finds the
violated checks and gathers their values at once, the reports follow in
that order, each built only when read, a sample described only when its
first report is (``_Descriptions``), and ``_Tally.extend`` collects them
into a serializable report; the axiom suite's definiteness check, which
holds or fails with no margin between, takes the margin +inf or -inf and
goes the same way.  Every product is taken a row at a time
(``series._rowwise``), so a margin does not depend on the chunk it came
in, and the public checks run the same kernels on a chunk of one.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import repeat
from typing import NamedTuple

from .catalog import parse_psi
from .extremal import ExtremalPair, build_extremal_pair, build_f0
from .radius import (_LEMMA_RADIUS, Family, Mode, RadiusProblem, _check_radius,
                     _equation_index, _family_extremal, _moduli_row, g_function, solve)
from .series import DEFAULT_ORDER, TruncatedSeries, _rowwise, _toeplitz, np

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
# Bytes of the workspace of one suite call (``_workspace``): a power table
# and a Toeplitz block for each sample of a chunk (``_chunk_size``).  1 MB
# holds 15 samples at order 64, enough that a chunk's fixed work is small
# beside its products; at 2 MB the workspace outgrows a 2 MB L2 cache and a
# suite runs slower than at 512 KB.
_CHUNK_BYTES = 1 << 20
# Counterexamples a suite report keeps.
_MAX_REPORTS = 10
# Trials of a suite run, and the largest Blaschke degree it samples.
_TRIALS = 200
_DEGREE_MAX = 4
# Tolerance on a margin, relative to its claimed bound: the margins that a
# check reports lie below -_REL_TOL times the bound (see the module docstring).
_REL_TOL = 1e-9


class InequalityViolation(Exception):
    """A verified inequality came out negative beyond tolerance."""

    def __init__(self, message: str, report: dict):
        super().__init__(message)
        self.report = report


class _SampleFields(NamedTuple):
    degree: int
    zeros: tuple[float, ...]
    sign: int


class SchwarzSample(_SampleFields):
    """A finite real-zero Blaschke product times a sign."""

    __slots__ = ()

    def __new__(cls, degree: int, zeros: tuple[float, ...], sign: int) -> "SchwarzSample":
        if degree != len(zeros):
            raise ValueError("degree must match the number of zeros")
        if any(abs(a) >= 1.0 for a in zeros):
            raise ValueError("Blaschke zeros must lie in (-1, 1)")
        if sign not in (-1, 1):
            raise ValueError("sign must be +1 or -1")
        return super().__new__(cls, degree, zeros, sign)

    @classmethod
    def _make(cls, iterable) -> "SchwarzSample":
        # Through __new__, so that _replace checks what it builds.
        return cls(*iterable)

    def describe(self) -> dict:
        return {"degree": self.degree, "zeros": list(self.zeros), "sign": self.sign}


IDENTITY_SAMPLE = SchwarzSample(degree=0, zeros=(), sign=1)


class _Descriptions(dict):
    """The descriptions of a chunk's samples by index, each made when a
    report first reads it: most samples break no check and are never
    described, and the reports of one sample share its description."""

    def __init__(self, samples: list[SchwarzSample]):
        super().__init__()
        self.samples = samples

    def __missing__(self, t: int) -> dict:
        return self.setdefault(t, self.samples[t].describe())


def sample_schwarz(rng: random.Random, degree_max: int = _DEGREE_MAX) -> SchwarzSample:
    """Draw a sample: degree uniform on 0..degree_max, zeros uniform in
    (-0.95, 0.95), sign uniform on {-1, +1}."""
    if degree_max < 0:
        raise ValueError("degree_max must be nonnegative")
    degree = rng.randint(0, degree_max)
    # tuple() of a list, not of a generator: that one resizes its tuple
    # outside CPython's tuple free list, and a long suite then grows the
    # free list, and its peak memory, with every trial.
    zeros = tuple([rng.uniform(-_ZERO_RANGE, _ZERO_RANGE) for _ in range(degree)])
    sign = rng.choice((-1, 1))
    return SchwarzSample(degree=degree, zeros=zeros, sign=sign)


def _schwarz_chunk(samples: list[SchwarzSample], order: int,
                   scratch: np.ndarray | None = None) -> TruncatedSeries:
    """Taylor coefficients of sampled Schwarz functions, stacked one row each.

    Each factor expands as (z - a)/(1 - az) = -a + sum_{i>=1} a^(i-1)(1 - a^2) z^i,
    whose terms from z on are one running product.  All factor rows are
    built at once, and each sample's omega is built from its own factors
    only.  sign * z times the first factor is that factor shifted (a sample
    without zeros takes the factor 1 there); each further factor is one
    Toeplitz product per row of the samples that have it, its Toeplitz
    matrices copied into the front of ``scratch`` (a flat array of at least
    len(samples) * (order + 1)^2 floats) when given.  The rows are built in
    order of falling degree, so that the samples with a j-th factor are the
    first rows, and then put back in the order of ``samples``.
    """
    by_degree = sorted(range(len(samples)), key=lambda i: -samples[i].degree)
    samples = [samples[i] for i in by_degree]
    degrees = [sample.degree for sample in samples]
    degree = max(1, degrees[0])
    zeros = np.array([sample.zeros + (0.0,) * (degree - sample.degree) for sample in samples])
    zeros = zeros.reshape(len(samples), degree, 1)
    factors = np.empty((len(samples), degree, order + 1))
    factors[..., :1] = -zeros
    factors[..., 1:2] = 1.0 - zeros * zeros
    factors[..., 2:] = zeros
    np.cumprod(factors[..., 1:], axis=-1, out=factors[..., 1:])
    factors[sum(d > 0 for d in degrees):, 0] = np.eye(1, order + 1)
    rows = np.zeros((len(samples), order + 1))
    rows[:, 1:] = np.array([[sample.sign] for sample in samples]) * factors[:, 0, :-1]
    for j in range(1, degree):
        n = sum(d > j for d in degrees)
        block = None if scratch is None else \
            scratch[: n * (order + 1) ** 2].reshape(n, order + 1, order + 1)
        rows[:n] = _rowwise(rows[:n], _toeplitz(factors[:n, j], block))
    omegas = np.empty_like(rows)
    omegas[by_degree] = rows
    return TruncatedSeries(omegas)


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


def _reports(margins, limits, report, *values):
    """Reports of the checks whose margin lies below its limit, in check order:
    the order of the flattened margins, whose axes run (sample, extremal,
    check) in the kernels.

    The violated checks are found once, and their indices along each axis
    of the margins, their entries of each array of ``values`` (of the
    margins' shape) and their margins are gathered as Python numbers.
    ``report`` takes these, in that order, and builds the report of one
    check, its margin last.  The reports are built one at a time as they
    are read, and none for a check that holds, so a reader that keeps few
    of them holds few at once however many checks a chunk has.
    """
    margins = np.asarray(margins)
    hits = np.flatnonzero(np.less(margins, limits))
    columns = [axis.tolist() for axis in np.unravel_index(hits, margins.shape)]
    columns += [array.flat[hits].tolist() for array in values + (margins,)]
    return map(report, *columns)


def _checked(margin, checks, sample: SchwarzSample) -> float:
    """The margin of a single check of the kernel's extremal composed with
    the sampled omega, as a chunk of one, or raise on its violation report
    with ``checks.message`` formatted by it."""
    omega = _schwarz_chunk([sample], checks.f.order)
    margins, reports = margin(checks, checks.f.compose(omega), _Descriptions([sample]))
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
        empty = [name for name, given in (("psi_labels", fs), ("n_values", n_values),
                                          ("r_values", r_values)) if not len(given)]
        if empty:  # a suite of none would check nothing
            raise ValueError(f"{' and '.join(empty)} must not be empty")
        self.f = TruncatedSeries([f.coeffs for f in fs])
        self.labels = labels
        order = self.f.order
        self.grid = [(n, r) for n in n_values for r in r_values]
        for n, r in self.grid:
            if n > order:  # the window would be empty and check nothing
                raise ValueError(f"N={n} exceeds the truncation order {order}")
            if r > _LEMMA_RADIUS:
                raise ValueError(f"tail inequality is only claimed for r <= 1/3, got {r}")
        columns = [_tail_window(n, r, order) for n, r in self.grid]
        self.weights = np.array(columns).reshape(len(self.grid), order + 1).T
        self.majorant = _rowwise(np.abs(self.f.coeffs), self.weights)
        self.tol = _REL_TOL * self.majorant + [[_dropped_tail(f, r) for _, r in self.grid]
                                           for f in fs]
        # As floats, so that the reports at one grid point share one object.
        self.majorant_tails = self.majorant.tolist()


def _tail_margin(checks: _TailChecks, g: TruncatedSeries,
                 samples: _Descriptions) -> tuple[np.ndarray, Iterator[dict]]:
    """Margins M(f, N, r) - M(g, N, r) over the grid for the (sample,
    extremal) stack g, and the violation reports; ``samples`` describes the
    omega behind each row of g."""
    composed = _rowwise(np.abs(g.coeffs), checks.weights)
    margins = checks.majorant - composed

    def report(t: int, s: int, p: int, composed_tail: float, margin: float) -> dict:
        return {
            "check": "tail-inequality",
            "psi": checks.labels[s],
            "sample": samples[t],
            "N": checks.grid[p][0],
            "r": checks.grid[p][1],
            "composed_tail": composed_tail,
            "majorant_tail": checks.majorant_tails[s][p],
            "margin": margin,
        }

    return margins, _reports(margins, -checks.tol, report, composed)


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


def submultiplicativity_counterexample(r: float = 0.25) -> dict:
    """The documented failure of the product axiom at N >= 1: f = g = z, N = 2.

    M(fg, 2, r) = r^2 while M(f, 2, r) M(g, 2, r) = 0, so the margin is -r^2.
    """
    f = TruncatedSeries.identity(8)
    margin = bohr_tail(f, 2, r) * bohr_tail(f, 2, r) - bohr_tail(f * f, 2, r)
    return {
        "check": "submultiplicativity",
        "N": 2,
        "r": r,
        "margin": margin,
        "expected_margin": -(r**2),
        "holds": margin >= -_AXIOM_TOL,
    }


def _check_weighted_claim(tau: float, h: np.ndarray, r: float) -> None:
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau}")
    if r > tau / 3.0:
        raise ValueError(f"weighted inequality is only claimed for r <= tau/3, got {r}")
    h_majorant = float(np.dot(np.abs(h), tau ** np.arange(h.shape[-1])))
    if h_majorant > tau * (1.0 + 1e-12):
        raise ValueError("weight violates its bound: sum |h_n| tau^n > tau")


class _WeightedCheck:
    """The weighted checks of extremals f (one row of ``f`` each) with weight
    h, given by its coefficients, at one (N, r): the tail kernel's window
    there, the majorant tails and tolerances times tau, and the Toeplitz
    matrix by which h multiplies.  tau is checked before h is read, so a
    NaN or infinite tau is named as such."""

    message = "weighted tail inequality violated for {psi}: margin {margin:.3e}"

    def __init__(self, tau: float, fs: list[TruncatedSeries], labels: list[str],
                 h: np.ndarray, N: int, r: float):
        _check_weighted_claim(tau, h, r)
        tail = _TailChecks(fs, labels, (N,), (r,))
        self.f, self.labels, self.tau, self.N, self.r = tail.f, labels, tau, N, r
        self.h_matrix = _toeplitz(h)
        self.weights = tail.weights
        self.scaled_majorant = tau * tail.majorant[:, 0]
        self.scaled_majorants = self.scaled_majorant.tolist()
        self.tol = tau * tail.tol[:, 0]


def _weighted_margin(check: _WeightedCheck, g: TruncatedSeries,
                     samples: _Descriptions) -> tuple[np.ndarray, Iterator[dict]]:
    """Margins tau M(f, N, r) - M(h g, N, r) for the (sample, extremal)
    stack g, and the violation reports."""
    weighted = _rowwise(np.abs(_rowwise(g.coeffs, check.h_matrix)), check.weights)[..., 0]
    margins = check.scaled_majorant - weighted

    def report(t: int, s: int, weighted_tail: float, margin: float) -> dict:
        return {
            "check": "weighted-tail",
            "psi": check.labels[s],
            "tau": check.tau,
            "sample": samples[t],
            "N": check.N,
            "r": check.r,
            "weighted_tail": weighted_tail,
            "scaled_majorant": check.scaled_majorants[s],
            "margin": margin,
        }

    return margins, _reports(margins, -check.tol, report, weighted)


def verify_weighted(tau: float, f: TruncatedSeries, sample: SchwarzSample,
                    h: TruncatedSeries, N: int, r: float, label: str = "f") -> float:
    """Margin tau * M(f, N, r) - M(h * f(omega), N, r) for r <= tau/3.

    The weight h must satisfy the majorant bound sum |h_n| tau^n <= tau,
    the literal reading of |h| <= tau on |z| < tau.
    """
    return _checked(_weighted_margin, _WeightedCheck(tau, [f], [label], h.coeffs, N, r), sample)


class _BRChecks:
    """The radius checks of one problem at every r of a list, of the (m, N)
    of the equation it solves (``radius._equation_index``)."""

    message = "radius inequality violated for {psi}: margin {margin:.3e}"

    def __init__(self, problem: RadiusProblem, pair: ExtremalPair, r_values):
        self.problem = problem
        self.index = _equation_index(problem.mode, problem.m, problem.N)
        coeffs, self.rstar = _family_extremal(problem, pair)
        self.f = TruncatedSeries(coeffs)
        self.r_values = list(r_values)
        for r in self.r_values:
            _check_radius(r)
        self.tol = _REL_TOL * max(self.rstar, 1.0)


def _br_margin(checks: _BRChecks, g: TruncatedSeries,
               samples: _Descriptions) -> tuple[np.ndarray, Iterator[dict]]:
    """Margins -G_g(r) at each r for each row g of the stack, where G_g is
    the radius equation of the problem built from the moduli of g, and the
    violation reports.

    ``0.0 - G`` rather than ``-G``, so that a zero G gives the margin +0.0.
    """
    problem, r_values = checks.problem, checks.r_values
    rows, margins = [0] * len(r_values), []
    for a in np.abs(g.coeffs).tolist():
        evaluate = _moduli_row(checks.index, a, checks.rstar)
        margins.append([0.0 - value for value in evaluate(rows, r_values, slopes=False)])
    margins = np.array(margins)

    def report(t: int, k: int, margin: float) -> dict:
        return {
            "check": "bohr-rogosinski",
            "psi": problem.psi.label,
            "family": problem.family.value,
            "sample": samples[t],
            "m": problem.m,
            "N": checks.index[1],
            "r": r_values[k],
            "margin": margin,
        }

    return margins, _reports(margins, -checks.tol, report)


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


class VerificationReport(NamedTuple):
    """Aggregate of one seeded verification run."""

    seed: int
    trials: int
    violations: int
    worst_margin: float
    config: dict
    counterexamples: list

    def to_json_dict(self) -> dict:
        """The fields in order, as a deep copy the caller may change."""
        import copy  # here, not at the top: a call that prints no report never loads it
        return copy.deepcopy(self._asdict())


def _chunk_size(order: int) -> int:
    """Samples per chunk at the order: as many as ``_CHUNK_BYTES`` holds, each
    with a power table and a Toeplitz block of (K + 1)^2 floats, at least one."""
    return max(1, _CHUNK_BYTES // (2 * 8 * (order + 1) ** 2))


def _workspace(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The memory of one suite call, reused by each of its chunks: power
    tables for ``_chunk_size(order)`` samples, and a flat scratch block of as
    many Toeplitz matrices of order + 1 rows."""
    size = _chunk_size(order)
    return np.empty((size, order + 1, order + 1)), np.empty(size * (order + 1) ** 2)


def _samples(seed: int, trials: int, degree_max: int, order: int, workspace):
    """The seeded stream of the suites, in chunks of ``_chunk_size(order)``:
    per chunk, its omegas as one stacked series and the descriptions of
    their samples, made as reports read them (``_Descriptions``).  The
    samples are drawn in trial order.
    Each chunk's Toeplitz factors and power tables are built in
    ``workspace`` (``_workspace``), so its omegas' ``powers`` last until the
    next chunk."""
    rng = random.Random(seed)
    tables, scratch = workspace
    size = len(tables)
    for start in range(0, trials, size):
        chunk = [sample_schwarz(rng, degree_max) for _ in range(min(size, trials - start))]
        omegas = _schwarz_chunk(chunk, order, scratch)._take_powers(tables[:len(chunk)], scratch)
        yield omegas, _Descriptions(chunk)


class _Tally:
    """Violations, worst margin and capped counterexamples of one suite run
    of ``trials`` trials, at least one: a run of none would check nothing.

    Kept counterexamples are the first ``cap`` reports, led by the one with
    the worst margin.
    """

    def __init__(self, trials: int, cap: int = _MAX_REPORTS):
        if trials < 1:
            raise ValueError("--trials must be at least 1")
        if cap < 0:
            raise ValueError(f"max_reports must be nonnegative, got {cap}")
        self.trials = trials
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

    def report(self, seed: int, config: dict) -> VerificationReport:
        kept = self._kept
        if self._lead is not None:
            kept = [self._lead] + [ce for ce in kept if ce is not self._lead]
        return VerificationReport(
            seed=seed,
            trials=self.trials,
            violations=self.violations,
            worst_margin=self.worst,
            config=config,
            counterexamples=kept[:self.cap],
        )


def _run_suite(checks, margin, seed: int, trials: int, degree_max: int, order: int,
               config: dict, max_reports: int = _MAX_REPORTS) -> VerificationReport:
    """The report of kernel ``checks`` and its ``margin`` over the seeded samples,
    whose ``degree_max`` and ``order`` the config records after the suite's own."""
    tally = _Tally(trials, max_reports)
    for omegas, described in _samples(seed, trials, degree_max, order, _workspace(order)):
        tally.extend(*margin(checks, checks.f.compose(omegas), described))
    return tally.report(seed, {**config, "degree_max": degree_max, "order": order})


def run_tail_suite(psi_labels=DEFAULT_ORACLE_PSIS, trials: int = _TRIALS, seed: int = 0,
                   n_values=(1, 2, 3), r_values=(0.1, 0.25, _LEMMA_RADIUS),
                   degree_max: int = _DEGREE_MAX, order: int = DEFAULT_ORDER,
                   max_reports: int = _MAX_REPORTS) -> VerificationReport:
    """Tail inequality over seeded samples crossed with the catalog extremals."""
    specs = [parse_psi(label) for label in psi_labels]
    checks = _TailChecks([build_f0(spec, order) for spec in specs],
                         [spec.label for spec in specs], n_values, r_values)
    return _run_suite(checks, _tail_margin, seed, trials, degree_max, order, {
        "check": "tail-inequality",
        "psis": [spec.label for spec in specs],
        "N": list(n_values),
        "r": list(r_values),
    }, max_reports)


def run_axiom_suite(trials: int = _TRIALS, seed: int = 0) -> VerificationReport:
    """Tail-functional axioms on random series pairs, plus the documented
    failure of the product axiom at N = 2, on one fixed grid of order, N
    and r, which the report's config records.  ``bohrad verify --lemma
    bohr-operator`` takes these defaults for the flags not given."""
    order, n_values, r = 16, (0, 1, 3), 0.2
    rng = random.Random(seed)
    tally = _Tally(trials)

    def random_series() -> TruncatedSeries:
        return TruncatedSeries([rng.uniform(-1.0, 1.0) for _ in range(order + 1)])

    margins, keys = [], []
    for _ in range(trials):
        f, g = random_series(), random_series()
        alpha = rng.uniform(-2.0, 2.0)
        for n in n_values:
            checked = verify_bohr_operator_axioms(f, g, alpha, n, r)
            # Definiteness holds or fails outright: its margin is +inf, which
            # moves no worst margin, or -inf.
            checked["definiteness"] = float("inf" if checked.pop("definiteness_ok") else "-inf")
            margins += checked.values()
            keys += zip(checked, repeat(n))
    tally.extend(margins, _reports(margins, -_AXIOM_TOL, lambda i, margin: {
        "axiom": keys[i][0], "N": keys[i][1], "margin": margin}))
    return tally.report(seed, {
        "check": "bohr-operator-axioms",
        "N": list(n_values),
        "r": r,
        "order": order,
        "documented_counterexample": submultiplicativity_counterexample(r=r),
    })


def run_weighted_suite(tau: float = 0.8, trials: int = _TRIALS, seed: int = 0,
                       psi_labels=DEFAULT_ORACLE_PSIS, N: int = 1, degree_max: int = _DEGREE_MAX,
                       order: int = DEFAULT_ORDER) -> VerificationReport:
    """Weighted tail inequality with the ramp weight h = tau (1 + z)/2 at r = tau/3."""
    specs = [parse_psi(label) for label in psi_labels]
    # The extremals first: build_f0 rejects an order below 1, which h needs.
    fs = [build_f0(spec, order) for spec in specs]
    h_coeffs = np.zeros(order + 1)
    h_coeffs[:2] = tau / 2.0
    r = tau / 3.0
    check = _WeightedCheck(tau, fs, [spec.label for spec in specs], h_coeffs, N, r)
    return _run_suite(check, _weighted_margin, seed, trials, degree_max, order, {
        "check": "weighted-tail",
        "tau": tau,
        "psis": [spec.label for spec in specs],
        "N": N,
        "r": r,
    })


def run_br_suite(psi_label: str = DEFAULT_ORACLE_PSIS[0], family: Family = Family.STARLIKE,
                 m: int = 1, N: int = 1, trials: int = _TRIALS, seed: int = 0,
                 degree_max: int = _DEGREE_MAX, order: int = DEFAULT_ORDER,
                 mode: Mode = Mode.BOHR_ROGOSINSKI) -> VerificationReport:
    """Full radius inequality on sampled subordinants below the solved radius.

    Sampled subordinants are tested at fractions of rb, the radius that
    ``solve`` reports as covered.  The margin of the identity sample at rb
    itself, where the extremal function should attain the bound, is reported
    as ``identity_margin_at_rb``.  ``bohrad verify --lemma br`` takes these
    defaults for the flags not given, and the entry's ``default_family``.
    """
    spec = parse_psi(psi_label)
    problem = RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode, order=order)
    pair = build_extremal_pair(spec, order)
    solved = solve(problem, pair)
    checks = _BRChecks(problem, pair, [frac * solved.rb for frac in (0.25, 0.5, 0.75, 1.0)])
    return _run_suite(checks, _br_margin, seed, trials, degree_max, order, {
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
    })
