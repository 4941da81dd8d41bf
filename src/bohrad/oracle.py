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
dropped |b_k| only lower the Bohr-Rogosinski margin.  So a tolerance
of 1e-9 times the claimed bound plus f's dropped tail (``_dropped_tail``;
none for the Bohr-Rogosinski margin) makes every reported violation
genuine.  Each kernel fixes its tolerance when it is built.

Every sampled margin is one product, bound - |T g| @ W (``_tail_margin``).
The tail window (``_tail_window``) holds r^j for j >= N and 0 below, so
M(f, N, r) = |f| @ window.  The tail kernel takes T the identity, W the
windows of its grid and the bound M(f, N, r); the weighted kernel takes T
the Toeplitz matrix of h, W its one window and the bound tau M(f, N, r);
the Bohr-Rogosinski kernel takes T the identity, W the window from N at
each r plus the powers r^(mk) of the point term ghat(r^m) (none in the
Bohr limit) and the bound r*.  Its margin is then -G_g(r), the solver's
radius equation built from |g| in place of the extremal's moduli, up to
rounding: the solver sums G by Horner passes (``radius._moduli_row``).

The public checks and the suites share one kernel per kind of check, built
once from what does not depend on the subordinant: the weights (one
matrix serves every extremal), the bounds and the tolerances.  A kernel
class holds these, the message of a failed public check and the builder
of a violation report.  The weighted kernel is the tail kernel
(``_TailChecks``) at its one (N, r), its majorant tails and tolerances
scaled by tau, so the two kernels share one window and one tolerance rule.

They share one runner too.  One step (``_tally_chunk``) takes a chunk of
samples to tallied margins: it builds the chunk's omegas as one stack
(``_schwarz_chunk``), each from its own Blaschke factors only, and their
power tables by one stacked doubling, all in a workspace (``_workspace``)
of Toeplitz factors and power tables; it composes the stack of extremals
with every omega by one product, takes every margin of the chunk by one
product |T g| @ W (``_tail_margin``), after one Toeplitz product where T
is a weight's, and extends a ``_Tally``.  A suite (``_run_suite``) feeds
it the seeded stream of samples in trial order, a chunk at a time, with
the chunk sized by bytes (``_CHUNK_BYTES``), every chunk built in place
in the suite's one workspace.  A public check (``_checked``) feeds it its
one sample, a chunk of one in a workspace of one, and raises on the
tally's report or returns its worst margin.
Margins run (sample, extremal, check); one scan over them finds the
violated checks and gathers their values at once, the reports follow in
that order, each built only when read and holding the one description
the chunk makes of its sample, and ``_Tally.extend`` collects them
into a serializable report; the axiom suite's definiteness check, which
holds or fails with no margin between, takes the margin +inf or -inf and
goes the same way.  Its axioms are written as their definitions, each
sum ``bohr_tail``'s, taken through a window cache that builds each tail
window once per call and order (``verify_bohr_operator_axioms``): at most
three windows per call.  Every product is taken a row at a time
(``series._rowwise``), so a margin does not depend on the chunk it came
in, and a public check's margin is the one its sample gets in a suite of
the same kernel.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from functools import partial
from itertools import repeat
from typing import NamedTuple

from .catalog import parse_psi
from .extremal import ExtremalPair, build_extremal_pair, build_f0
from .radius import (_LEMMA_RADIUS, Family, Mode, RadiusProblem, _check_radius,
                     _equation_index, _family_extremal, g_function, solve)
from .series import (DEFAULT_ORDER, TruncatedSeries, _integer, _rowwise, _toeplitz,
                     _truncation_order, np)

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


def _as_int(name: str, value) -> int:
    """``value`` as an int, taken as ``RadiusProblem`` takes m and N: an int
    or a numpy integer, where a bool or a float raises ``ValueError``."""
    whole = _integer(value)
    if whole is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return whole


def _degree_max(degree_max) -> int:
    degree_max = _as_int("degree_max", degree_max)
    if degree_max < 0:
        raise ValueError("degree_max must be nonnegative")
    return degree_max


def sample_schwarz(rng: random.Random, degree_max: int = _DEGREE_MAX) -> SchwarzSample:
    """Draw a sample: degree uniform on 0..degree_max, zeros uniform in
    (-0.95, 0.95), sign uniform on {-1, +1}."""
    degree = rng.randint(0, _degree_max(degree_max))
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
    if _integer(N) is None or N < 0:
        raise ValueError("N must be a nonnegative integer")
    _check_radius(r)
    window = np.zeros(order + 1)
    np.power(r, np.arange(N, order + 1), out=window[N:])
    return window


def bohr_tail(f: TruncatedSeries, N: int, r: float) -> float:
    """Tail functional sum_{n=N}^{K} |c_n| r^n; N = 0 is the full majorant."""
    return float(np.dot(np.abs(f.coeffs), _tail_window(N, r, f.order)))


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


class _TailChecks:
    """The tail checks of extremals f (one row of ``f`` each) at every
    (N, r) of a grid, r <= 1/3.

    Column (N, r) of ``weights`` is the tail window from N at r, so
    |f| @ weights is the majorant tail M(f, N, r) at every grid point.  The
    windows depend only on (N, r, K), so one matrix serves every extremal.
    """

    message = "tail inequality violated for {psi}: margin {margin:.3e} at N={N}, r={r:g}"
    transform = None

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
            _truncation_order(order, n)
            if r > _LEMMA_RADIUS:
                raise ValueError(f"tail inequality is only claimed for r <= 1/3, got {r}")
        columns = [_tail_window(n, r, order) for n, r in self.grid]
        # Each N is checked by now; kept as an int for the reports and configs.
        self.n_values = [_integer(n) for n in n_values]
        self.grid = [(n, r) for n in self.n_values for r in r_values]
        self.weights = np.array(columns).reshape(len(self.grid), order + 1).T
        self.majorant = _rowwise(np.abs(self.f.coeffs), self.weights)
        self.tol = _REL_TOL * self.majorant + [[_dropped_tail(f, r) for _, r in self.grid]
                                           for f in fs]
        # As floats, so that the reports at one grid point share one object.
        self.majorant_tails = self.majorant.tolist()

    def report(self, samples: list[dict], t: int, s: int, p: int, composed_tail: float,
               margin: float) -> dict:
        return {
            "check": "tail-inequality",
            "psi": self.labels[s],
            "sample": samples[t],
            "N": self.grid[p][0],
            "r": self.grid[p][1],
            "composed_tail": composed_tail,
            "majorant_tail": self.majorant_tails[s][p],
            "margin": margin,
        }


def _tail_margin(checks, g: TruncatedSeries,
                 samples: list[dict]) -> tuple[np.ndarray, Iterator[dict]]:
    """Margins bound - |T g| @ W of the kernel ``checks`` for the stack g
    of composed rows, and the violation reports, built by ``checks.report``
    from the indices, the tested sum |T g| @ W and the margin of each
    violated check; ``samples[t]`` describes the omega behind row t of g.

    T is ``checks.transform``, the Toeplitz matrix of a weight h or None
    for the identity, W is ``checks.weights`` and the bound
    ``checks.majorant``: M(f, N, r) - M(g, N, r) over the tail kernel's
    grid, tau M(f, N, r) - M(h g, N, r) in the weighted kernel and
    r* - ghat(r^m) - M(g, N, r) in the Bohr-Rogosinski kernel.
    """
    coeffs = g.coeffs if checks.transform is None else _rowwise(g.coeffs, checks.transform)
    tested = _rowwise(np.abs(coeffs), checks.weights)
    margins = checks.majorant - tested
    return margins, _reports(margins, -checks.tol, partial(checks.report, samples), tested)


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
    return _checked(_TailChecks([f], [label], (N,), (r,)), sample)


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
    Each M is ``bohr_tail``'s sum, but each window r^j (j >= n) is built
    once per call and order: one at N and one at 0 serve the sums of f, g
    and their sum, multiple and product.
    """
    windows = {}

    def M(h: TruncatedSeries, n: int = N) -> float:
        key = (n, h.order)
        if key not in windows:
            windows[key] = _tail_window(n, r, h.order)
        return float(np.dot(np.abs(h.coeffs), windows[key]))

    m_f = M(f)
    return {
        "nonnegativity": m_f,
        "definiteness_ok": (m_f == 0.0) == (not f.coeffs[N:].any()) or r == 0.0,
        "subadditivity": m_f + M(g) - M(f + g),
        "homogeneity": -abs(M(alpha * f) - abs(alpha) * m_f),
        "submultiplicativity_n0": M(f, 0) * M(g, 0) - M(f * g, 0),
        "unit": -abs(M(TruncatedSeries([1.0]), 0) - 1.0),
    }


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


class _WeightedCheck(_TailChecks):
    """The weighted checks of extremals f (one row of ``f`` each) with weight
    h, given by its coefficients, at one (N, r): the tail kernel there, its
    majorant tails and tolerances times tau, and the Toeplitz matrix by
    which h multiplies.  tau and the claim's range are checked before h is
    read, so a NaN or infinite tau is named as such."""

    message = "weighted tail inequality violated for {psi}: margin {margin:.3e}"

    def __init__(self, tau: float, fs: list[TruncatedSeries], labels: list[str],
                 h: np.ndarray, N: int, r: float):
        if not 0.0 < tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {tau}")
        if r > tau / 3.0:
            raise ValueError(f"weighted inequality is only claimed for r <= tau/3, got {r}")
        h_majorant = float(np.dot(np.abs(h), tau ** np.arange(h.shape[-1])))
        if h_majorant > tau * (1.0 + 1e-12):
            raise ValueError("weight violates its bound: sum |h_n| tau^n > tau")
        super().__init__(fs, labels, (N,), (r,))
        self.tau, self.transform = tau, _toeplitz(h)
        self.majorant, self.tol = tau * self.majorant, tau * self.tol
        self.majorant_tails = self.majorant.tolist()

    def report(self, samples: list[dict], t: int, s: int, p: int, weighted_tail: float,
               margin: float) -> dict:
        return {
            "check": "weighted-tail",
            "psi": self.labels[s],
            "tau": self.tau,
            "sample": samples[t],
            "N": self.grid[p][0],
            "r": self.grid[p][1],
            "weighted_tail": weighted_tail,
            "scaled_majorant": self.majorant_tails[s][p],
            "margin": margin,
        }


def verify_weighted(tau: float, f: TruncatedSeries, sample: SchwarzSample,
                    h: TruncatedSeries, N: int, r: float, label: str = "f") -> float:
    """Margin tau * M(f, N, r) - M(h * f(omega), N, r) for r <= tau/3.

    The weight h must satisfy the majorant bound sum |h_n| tau^n <= tau,
    the literal reading of |h| <= tau on |z| < tau.
    """
    f._check_order(h)
    return _checked(_WeightedCheck(tau, [f], [label], h.coeffs, N, r), sample)


class _BRChecks:
    """The radius checks of one problem at every r of a list, of the (m, N)
    of the equation it solves (``radius._equation_index``).

    Column r of ``weights`` is the tail window from N at r plus the powers
    r^(mk) of the point term, absent in the Bohr limit (m None), so that
    |g| @ weights is ghat(r^m) + M(g, N, r) and the bound is r*.
    """

    message = "radius inequality violated for {psi}: margin {margin:.3e}"
    transform = None

    def __init__(self, problem: RadiusProblem, pair: ExtremalPair, r_values):
        self.problem = problem
        m, self.N = _equation_index(problem.mode, problem.m, problem.N)
        coeffs, self.majorant = _family_extremal(problem, pair)
        self.f = TruncatedSeries(coeffs)
        self.r_values, order = list(r_values), self.f.order
        columns = [_tail_window(self.N, r, order) for r in self.r_values]
        if m is not None:  # the point term ghat(r^m)
            columns = [c + _tail_window(0, r**m, order) for c, r in zip(columns, self.r_values)]
        self.weights = np.array(columns).T
        self.tol = _REL_TOL * max(self.majorant, 1.0)

    def report(self, samples: list[dict], t: int, k: int, tested: float,
               margin: float) -> dict:
        # The margin says all that the tested sum would: r* - margin.
        return {
            "check": "bohr-rogosinski",
            "psi": self.problem.psi.label,
            "family": self.problem.family.value,
            "sample": samples[t],
            "m": self.problem.m,
            "N": self.N,
            "r": self.r_values[k],
            "margin": margin,
        }


def verify_br_inequality(problem: RadiusProblem, pair: ExtremalPair,
                         sample: SchwarzSample, r: float) -> float:
    """Margin r* - ghat(r^m) - M(g, N, r) for g = extremal(omega), as one
    product r* - |g| @ W (``_BRChecks``).

    This is -G_g(r), the solver's radius equation built from the moduli of
    g, up to rounding: |g(z^m)| is dominated by the majorant ghat at r^m,
    and the Bohr limit drops that term and takes N = 1.  At the identity
    sample and r equal to the solved radius the margin is minus the
    solver's residual to within rounding (the extremal attains the bound).
    The pair must be built at ``problem.order``.

    Raises ``InequalityViolation`` when the margin is below 1e-9 * max(r*, 1),
    with no truncation term at any r: g's dropped terms only add to G_g.
    """
    return _checked(_BRChecks(problem, pair, (r,)), sample)


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


def _workspace(order: int, size: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The memory of one suite call, reused by each of its chunks, or of one
    single check: power tables for ``size`` samples, ``_chunk_size(order)``
    unless given, and a flat scratch block of as many Toeplitz matrices of
    order + 1 rows."""
    size = _chunk_size(order) if size is None else size
    return np.empty((size, order + 1, order + 1)), np.empty(size * (order + 1) ** 2)


class _Tally:
    """Violations, worst margin and capped counterexamples of one suite run
    of ``trials`` trials, at least one: a run of none would check nothing.

    Kept counterexamples are the first ``cap`` reports, led by the one with
    the worst margin.
    """

    def __init__(self, trials: int, cap: int = _MAX_REPORTS):
        trials = _as_int("trials", trials)
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


def _tally_chunk(tally: _Tally, checks, chunk: list[SchwarzSample], workspace) -> None:
    """Extend ``tally`` by the margins and violation reports of kernel
    ``checks`` over its extremals composed with the omegas of ``chunk``.

    The chunk's Toeplitz factors and power tables are built in
    ``workspace`` (``_workspace``), so its omegas' ``powers`` last until the
    next chunk is built there.
    """
    tables, scratch = workspace
    omegas = _schwarz_chunk(chunk, checks.f.order, scratch)
    omegas = omegas._take_powers(tables[:len(chunk)], scratch)
    tally.extend(*_tail_margin(checks, checks.f.compose(omegas),
                               [sample.describe() for sample in chunk]))


def _checked(checks, sample: SchwarzSample) -> float:
    """The margin of a single check of the kernel's extremal composed with
    the sampled omega, a chunk of one in a workspace of one, or raise on its
    violation report with ``checks.message`` formatted by it."""
    tally = _Tally(1, 1)
    _tally_chunk(tally, checks, [sample], _workspace(checks.f.order, 1))
    if tally.violations:
        report = tally._kept[0]
        raise InequalityViolation(checks.message.format(**report), report)
    return tally.worst


def _run_suite(checks, seed: int, trials: int, degree_max: int, config: dict,
               max_reports: int = _MAX_REPORTS) -> VerificationReport:
    """The report of kernel ``checks`` over the seeded stream of samples,
    drawn in trial order and taken in chunks of ``_chunk_size``, all built
    in one workspace; the config records ``degree_max`` and the kernel's
    order after the suite's own."""
    tally = _Tally(trials, max_reports)
    trials, seed, degree_max = tally.trials, _as_int("seed", seed), _degree_max(degree_max)
    order = checks.f.order
    workspace = _workspace(order)
    rng = random.Random(seed)
    size = len(workspace[0])
    for start in range(0, trials, size):
        chunk = [sample_schwarz(rng, degree_max) for _ in range(min(size, trials - start))]
        _tally_chunk(tally, checks, chunk, workspace)
    return tally.report(seed, {**config, "degree_max": degree_max, "order": order})


def run_tail_suite(psi_labels=DEFAULT_ORACLE_PSIS, trials: int = _TRIALS, seed: int = 0,
                   n_values=(1, 2, 3), r_values=(0.1, 0.25, _LEMMA_RADIUS),
                   degree_max: int = _DEGREE_MAX, order: int = DEFAULT_ORDER,
                   max_reports: int = _MAX_REPORTS) -> VerificationReport:
    """Tail inequality over seeded samples crossed with the catalog extremals."""
    specs = [parse_psi(label) for label in psi_labels]
    checks = _TailChecks([build_f0(spec, order) for spec in specs],
                         [spec.label for spec in specs], n_values, r_values)
    return _run_suite(checks, seed, trials, degree_max, {
        "check": "tail-inequality",
        "psis": [spec.label for spec in specs],
        "N": checks.n_values,
        "r": list(r_values),
    }, max_reports)


def run_axiom_suite(trials: int = _TRIALS, seed: int = 0) -> VerificationReport:
    """Tail-functional axioms on random series pairs, plus the documented
    failure of the product axiom at N = 2, on one fixed grid of order, N
    and r, which the report's config records.  ``bohrad verify --lemma
    bohr-operator`` takes these defaults for the flags not given."""
    order, n_values, r = 16, (0, 1, 3), 0.2
    tally = _Tally(trials)
    seed = _as_int("seed", seed)
    rng = random.Random(seed)

    def random_series() -> TruncatedSeries:
        return TruncatedSeries([rng.uniform(-1.0, 1.0) for _ in range(order + 1)])

    margins, keys = [], []
    for _ in range(tally.trials):
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
    return _run_suite(check, seed, trials, degree_max, {
        "check": "weighted-tail",
        "tau": tau,
        "psis": [spec.label for spec in specs],
        "N": check.n_values[0],
        "r": r,
    })


def run_br_suite(psi_label: str = DEFAULT_ORACLE_PSIS[0], family: Family | str | None = None,
                 m: int = 1, N: int = 1, trials: int = _TRIALS, seed: int = 0,
                 degree_max: int = _DEGREE_MAX, order: int = DEFAULT_ORDER,
                 mode: Mode | str = Mode.BOHR_ROGOSINSKI) -> VerificationReport:
    """Full radius inequality on sampled subordinants below the solved radius.

    Sampled subordinants are tested at fractions of rb, the radius that
    ``solve`` reports as covered.  The margin of the identity sample at rb
    itself, where the extremal function should attain the bound, is reported
    as ``identity_margin_at_rb``.  ``family`` and ``mode`` are read as
    ``RadiusProblem`` reads them, so a ``family`` of None is the entry's
    ``default_family``, and the config echoes the problem's checked m, N
    and mode.  ``bohrad verify --lemma br`` takes these defaults for the
    flags not given.
    """
    spec = parse_psi(psi_label)
    problem = RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode, order=order)
    pair = build_extremal_pair(spec, order)
    solved = solve(problem, pair)
    checks = _BRChecks(problem, pair, [frac * solved.rb for frac in (0.25, 0.5, 0.75, 1.0)])
    return _run_suite(checks, seed, trials, degree_max, {
        "check": "bohr-rogosinski",
        "psi": spec.label,
        "family": problem.family.value,
        "m": problem.m,
        "N": problem.N,
        "mode": problem.mode.value,
        "r0": solved.r0,
        "rb": solved.rb,
        # At the identity sample g is the extremal bitwise, so its margin at
        # rb is -G(rb) of the solver's own equation (-residual when rb = r0),
        # which the sampled checks' product gives to within rounding.
        "identity_margin_at_rb": 0.0 - g_function(problem, pair, solved.rb),
    })
