"""Radius equations, solvers, sweeps, and path consistency."""

import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special

import reference
from bohrad import catalog, radius
from bohrad.extremal import build_extremal_pair, build_f0
from bohrad.radius import (
    Family,
    Mode,
    RadiusProblem,
    g_function,
    solve,
    solve_janowski_exact,
    sweep,
)
from bohrad.series import OrderMismatchError

CATALOG_PROBLEMS = [
    ("classical-starlike", Family.STARLIKE),
    ("cardioid", Family.STARLIKE),
    ("zexpz", Family.STARLIKE),
    ("booth", Family.STARLIKE),
    ("sine", Family.STARLIKE),
    ("alpha:0.25", Family.STARLIKE),
    ("classical-convex", Family.CONVEX),
]


def problem(label, family=None, **kwargs):
    spec = catalog.parse_psi(label)
    fam = family or Family(spec.default_family)
    return RadiusProblem(psi=spec, family=fam, **kwargs)


# -- problem validation --------------------------------------------------


def test_problem_validation():
    spec = catalog.cardioid()
    with pytest.raises(ValueError):
        RadiusProblem(psi=spec, m=0)
    with pytest.raises(ValueError):
        RadiusProblem(psi=spec, N=0)
    with pytest.raises(ValueError):
        RadiusProblem(psi=spec, tol=1e-2)
    # Past r = 1/2 a tol/5 widening of 1e-16/5 is below half an ulp.
    with pytest.raises(ValueError, match="tol"):
        RadiusProblem(psi=spec, tol=1e-16)
    RadiusProblem(psi=spec, tol=1e-15)
    with pytest.raises(ValueError):
        RadiusProblem(psi=spec, N=100, order=64)


@pytest.mark.parametrize("index", [{"m": 2.5}, {"N": 2.0}, {"m": True}, {"N": False},
                                   {"m": np.float64(2.0)}, {"m": "2"}])
def test_problem_rejects_a_non_integer_index(index):
    # m = 2.5 once solved G with r^2.5, and m = True echoed "m": true.
    with pytest.raises(ValueError, match=r"^m and N must be positive integers$"):
        RadiusProblem(psi=catalog.cardioid(), **index)


@pytest.mark.parametrize("order", [64.0, True, np.float64(64.0), "64"])
def test_problem_rejects_a_non_integer_order(order):
    with pytest.raises(ValueError, match=r"^order must be an integer$"):
        RadiusProblem(psi=catalog.cardioid(), order=order)


@pytest.mark.parametrize("order", [0, -5])
def test_problem_rejects_an_order_below_1(order):
    # The order is named, not N: N = 1 exceeds an order of 0 only because
    # the order itself is out of range.
    with pytest.raises(ValueError, match=r"^order must be at least 1$"):
        RadiusProblem(psi=catalog.cardioid(), order=order)


def test_numpy_integer_indices_solve_as_ints():
    spec = catalog.cardioid()
    given = RadiusProblem(psi=spec, m=np.int64(2), N=np.int32(3), order=np.int64(64))
    assert given == RadiusProblem(psi=spec, m=2, N=3, order=64)
    assert [type(v) for v in given[2:4] + given[5:6]] == [int, int, int]
    res = solve(given)
    assert res == solve(RadiusProblem(psi=spec, m=2, N=3))
    assert type(res.m) is int and type(res.N) is int
    exact = solve_janowski_exact(1.0, 0.0, m=np.int64(2), N=np.int64(3))
    assert exact == solve_janowski_exact(1.0, 0.0, m=2, N=3)
    assert type(exact.m) is int and type(exact.N) is int


# -- the radius equation ---------------------------------------------------


def test_g_negative_at_origin():
    for label, family in CATALOG_PROBLEMS:
        prob = problem(label, family)
        pair = build_extremal_pair(prob.psi, prob.order)
        rstar = pair.koebe_starlike if family == Family.STARLIKE else pair.koebe_convex
        assert g_function(prob, pair, 0.0) == pytest.approx(-rstar)


def test_g_classical_reduces_to_quadratic():
    # For the Koebe extremal with m = N = 1 the equation collapses to
    # 2 r/(1-r)^2 = 1/4, proportional to 8r - (1-r)^2.
    prob = problem("classical-starlike")
    pair = build_extremal_pair(prob.psi, prob.order)
    for r in (0.02, 0.05, 0.08, 0.1):
        expected = 2 * r / (1 - r) ** 2 - 0.25
        assert g_function(prob, pair, r) == pytest.approx(expected, abs=1e-12)


def test_g_cardioid_bohr_limit_matches_closed_formula():
    prob = problem("cardioid", mode=Mode.BOHR_LIMIT)
    pair = build_extremal_pair(prob.psi, prob.order)
    for r in (0.05, 0.15, 0.25, 0.32):
        expected = r * math.exp(4 * r / 3 + r * r / 3) - math.exp(-1.0)
        assert g_function(prob, pair, r) == pytest.approx(expected, abs=1e-13)


def test_g_domain():
    prob = problem("cardioid")
    pair = build_extremal_pair(prob.psi, prob.order)
    with pytest.raises(ValueError):
        g_function(prob, pair, 1.0)


@pytest.mark.parametrize("label,family", CATALOG_PROBLEMS)
def test_g_strictly_increasing_on_grid(label, family):
    prob = problem(label, family, m=2, N=3)
    pair = build_extremal_pair(prob.psi, prob.order)
    grid = np.linspace(0.0, 0.98, 100)
    values = [g_function(prob, pair, r) for r in grid]
    assert all(b > a for a, b in zip(values, values[1:]))


# -- solve ------------------------------------------------------------------


def test_classical_starlike_root():
    res = solve(problem("classical-starlike"))
    assert res.r0 == pytest.approx(5.0 - 2.0 * math.sqrt(6.0), abs=1e-9)
    assert res.rb == res.r0  # |b_n| <= n for every subordinant: no cap
    assert res.sharp


def test_classical_convex_root():
    res = solve(problem("classical-convex"))
    assert res.r0 == pytest.approx(0.2, abs=1e-9)
    assert res.sharp


def test_cardioid_bohr_limit_root():
    res = solve(problem("cardioid", mode=Mode.BOHR_LIMIT))
    assert res.r0 == pytest.approx(0.25588, abs=1e-4)


def test_cardioid_bohr_limit_against_scalar_oracle():
    # Independent root of the closed-form equation.
    expected = scipy.optimize.brentq(
        lambda r: r * math.exp(4 * r / 3 + r * r / 3) - math.exp(-1.0), 0.1, 0.4,
        xtol=1e-14,
    )
    res = solve(problem("cardioid", mode=Mode.BOHR_LIMIT))
    assert res.r0 == pytest.approx(expected, abs=1e-10)


def test_classical_bohr_limit_is_bohr_radius():
    res = solve(problem("classical-starlike", mode=Mode.BOHR_LIMIT))
    assert res.r0 == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), abs=1e-10)


def test_sine_large_n_value():
    res = solve(problem("sine", N=10))
    assert 0.2905 <= res.r0 <= 0.2908
    assert not res.sharp  # the extremal series has negative coefficients


def test_sharp_does_not_depend_on_the_order():
    # booth's extremal coefficients are all positive; at order 1024 hundreds
    # of them underflow to 0, and f0 still attains the bound.
    assert 0.0 in catalog.booth(4.0).f0_coeff_fn(1024)
    low, high = (solve(problem("booth:k=4", order=order)) for order in (64, 1024))
    assert f"{low.r0:.12g}" == f"{high.r0:.12g}" == "0.187361211959"
    assert low.sharp and high.sharp


def test_a_terminating_extremal_is_sharp():
    # D = 2E ends the recurrence: f0 = z + z^2/2, r* = 1/2, and G(r) =
    # 2r + r^2 - 1/2 at m = N = 1.  f0 attains the bound at rb = r0.
    spec = catalog.parse_psi("janowski:D=1,E=0.5")
    assert spec.f0_coeff_fn(4) == [0.0, 1.0, 0.5, 0.0, 0.0]
    res = solve(problem("janowski:D=1,E=0.5"))
    assert res.rb == res.r0 == pytest.approx(math.sqrt(1.5) - 1.0, abs=1e-12)
    assert res.sharp


SOLVER_GRID_LABELS = catalog.named_labels() + [
    "alpha:0.25", "janowski:D=0.5,E=-0.5", "janowski:D=0.8,E=0.65",
]


def fsum_equation(moduli, rstar, m, N, mode):
    """G re-assembled term by term with math.fsum, apart from the solver."""
    head = 1 if mode == Mode.BOHR_LIMIT else N

    def g(r):
        terms = [moduli[n] * r**n for n in range(head, len(moduli))]
        if mode != Mode.BOHR_LIMIT:
            terms += [a * r ** (n * m) for n, a in enumerate(moduli)]
        return math.fsum(terms + [-rstar])

    return g


def bisection_root(g, lo=0.0, hi=1.0):
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def assert_plain_floats(res):
    # An np.float64 in the Newton loop makes every Horner pass slower.
    assert type(res.r0) is float and type(res.residual) is float
    assert [type(end) for end in res.bracket] == [float, float]


def assert_solver_grid_matches_bisection(label, order, tol):
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec, order)
    for family in Family:
        series = pair.f0 if family == Family.STARLIKE else pair.l0
        rstar = pair.koebe_starlike if family == Family.STARLIKE else pair.koebe_convex
        moduli = [abs(float(c)) for c in series.coeffs]
        for mode in Mode:
            for m in (1, 2, 5, 24):
                for N in (1, 2, 3, 10):
                    prob = RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode,
                                         order=order, tol=tol)
                    res = solve(prob, pair)
                    g = fsum_equation(moduli, rstar, m, N, mode)
                    assert abs(res.r0 - bisection_root(g)) <= 1e-12, prob
                    lo, hi = res.bracket
                    assert g_function(prob, pair, lo) < 0.0 < g_function(prob, pair, hi), prob
                    assert lo < res.r0 < hi and hi - lo <= prob.tol, prob
                    assert res.iterations <= 16, prob
                    assert_plain_floats(res)


@pytest.mark.parametrize("order", [64, 256])
@pytest.mark.parametrize("label", SOLVER_GRID_LABELS)
def test_solver_matches_independent_bisection(label, order):
    assert_solver_grid_matches_bisection(label, order, 1e-10)


@pytest.mark.parametrize("order", [64, 256])
@pytest.mark.parametrize("label", SOLVER_GRID_LABELS)
def test_solver_grid_solves_at_the_smallest_tol(label, order):
    # At tol = 1e-15, 12 of these solves reach a Newton step too small to
    # move hi and end by bisection.
    assert_solver_grid_matches_bisection(label, order, 1e-15)


@pytest.fixture
def newton_runs(monkeypatch):
    """Spy on the root solver: each row's start, G there, and the
    evaluations of G made for each row, with those that asked for values
    only.

    The solver is handed G(0) instead of evaluating it; the spy checks that
    the value handed over is G(0) bitwise on every row.
    """
    runs = []
    newton = radius._newton

    def spy(evaluate, tol, tops, g_lo):
        rows = list(range(len(tops)))
        assert [g for g, _ in evaluate(rows, [0.0] * len(tops))] == [g_lo] * len(tops)
        run = {"hi": list(tops), "g_hi": [g for g, _ in evaluate(rows, list(tops))],
               "calls": [0] * len(tops), "values_only": [0] * len(tops)}
        runs.append(run)

        def counted(rows, r, slopes=True):
            for v in rows:
                run["calls"][v] += 1
                run["values_only"][v] += not slopes
            return evaluate(rows, r, slopes=slopes)

        return newton(counted, tol, tops, g_lo)

    monkeypatch.setattr(radius, "_newton", spy)
    return runs


def lone_run(runs):
    """The start, G there and the calls of the last run, a one-row run."""
    run = runs.pop()
    return {key: value for key, (value,) in run.items()}


def expected_start(rstar, terms):
    """The least (r*/a)^(1/k) over the terms a r^k with a > 0, or 1 - 1e-9
    when that is not below 1."""
    top = min([math.inf] + [(rstar / a) ** (1.0 / k) for a, k in terms if a > 0.0])
    return top if top < 1.0 else 1.0 - 1e-9


@pytest.mark.parametrize("order", [64, 256])
@pytest.mark.parametrize("label", SOLVER_GRID_LABELS)
def test_series_solver_starts_at_the_certified_bound(label, order, newton_runs):
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec, order)
    for family in Family:
        series = pair.f0 if family == Family.STARLIKE else pair.l0
        rstar = pair.koebe_starlike if family == Family.STARLIKE else pair.koebe_convex
        moduli = [abs(float(c)) for c in series.coeffs]
        assert moduli[1] == 1.0
        for mode in Mode:
            for m in (1, 2, 5, 24):
                for N in (1, 2, 3, 10):
                    prob = RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode,
                                         order=order)
                    res = solve(prob, pair)
                    run = lone_run(newton_runs)
                    terms = ([(1.0, 1)] if mode == Mode.BOHR_LIMIT
                             else [(1.0, m), (moduli[N], N)])
                    assert run["hi"] == expected_start(rstar, terms), prob
                    assert run["g_hi"] > 0.0 and res.r0 < run["hi"], prob
                    assert res.iterations == run["calls"], prob
                    # The root and the two widened ends read G alone.
                    assert run["values_only"] == 3, prob


def test_solve_rejects_a_pair_of_another_order():
    # An order-8 pair has no coefficient 20, so the tail sum of an order-64
    # problem at N = 20 would be empty and the root that of another equation.
    prob = problem("cardioid", N=20)
    pair = build_extremal_pair(prob.psi, 8)
    with pytest.raises(OrderMismatchError, match="order"):
        solve(prob, pair)


def test_g_function_rejects_a_pair_of_another_order():
    # Read with the moduli of an order-8 pair, the cardioid equation at
    # N = 5 is off by 1.65e-7 at the radius solved at order 64.
    prob = problem("cardioid", N=5)
    pair = build_extremal_pair(prob.psi, 8)
    with pytest.raises(OrderMismatchError, match="order"):
        g_function(prob, pair, 0.2)


@pytest.mark.parametrize("label,family", CATALOG_PROBLEMS)
def test_residual_and_bracket_invariants(label, family):
    prob = problem(label, family, m=2, N=2)
    pair = build_extremal_pair(prob.psi, prob.order)
    res = solve(prob, pair)
    rstar = pair.koebe_starlike if family == Family.STARLIKE else pair.koebe_convex
    assert abs(res.residual) <= 1e-10 * max(1.0, rstar)
    lo, hi = res.bracket
    assert lo < res.r0 < hi
    assert g_function(prob, pair, lo) < 0.0 < g_function(prob, pair, hi)
    assert 0.0 < res.r0 < 1.0


def test_clamp_applies_to_growth_majorant_families():
    # With N = 1 the cardioid roots stay below the m -> infinity limit
    # 0.25588 < 1/3 for every m; the clamp starts binding once the tail
    # index rises, e.g. m = 2, N = 2.
    res = solve(problem("cardioid", m=2, N=2))
    assert res.r0 > 1 / 3
    assert res.rb == pytest.approx(1 / 3)
    assert not res.sharp


@pytest.mark.parametrize("label,family", CATALOG_PROBLEMS)
def test_m_infinity_consistency(label, family):
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec, 64)
    r_limit = solve(problem(label, family, mode=Mode.BOHR_LIMIT), pair).r0
    r_m50 = solve(problem(label, family, m=50, N=1), pair).r0
    assert abs(r_m50 - r_limit) < 1e-6


# -- closed-form Janowski path ------------------------------------------------


JANOWSKI_GRID = [(1.0, -1.0), (0.5, -0.5), (1.0, 0.0), (0.5, 0.0)]


@pytest.mark.parametrize("de", JANOWSKI_GRID)
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_series_and_exact_paths_agree(de, m, N):
    d, e = de
    r_series = solve(RadiusProblem(psi=catalog.janowski(d, e), m=m, N=N)).r0
    r_exact = solve_janowski_exact(d, e, m=m, N=N).r0
    assert r_series == pytest.approx(r_exact, abs=1e-8)


@pytest.mark.parametrize("mode", list(Mode))
def test_series_and_exact_paths_echo_the_same_indices(mode):
    # In the Bohr limit both paths solve the N = 1 equation and echo the
    # given N, so a result reads the same whichever path made it.
    for m, N in ((3, 5), (1, 1), (2, 3)):
        series = solve(RadiusProblem(psi=catalog.janowski(1.0, 0.0), m=m, N=N, mode=mode))
        exact = solve_janowski_exact(1.0, 0.0, m=m, N=N, mode=mode)
        assert (series.m, series.N) == (exact.m, exact.N) == (m, N)
        assert series.r0 == pytest.approx(exact.r0, abs=1e-8)


def test_exact_degenerate_bohr_limit_is_lambert_value():
    # Dropping the point term at D=1, E=0 leaves r e^r = e^-1, whose root
    # is the Lambert W value W(1/e).
    expected = float(scipy.special.lambertw(math.exp(-1.0)).real)
    res = solve_janowski_exact(1.0, 0.0, N=1, mode=Mode.BOHR_LIMIT)
    assert res.r0 == pytest.approx(expected, abs=1e-9)


def test_exact_alpha_equation_against_partial_sum_oracle():
    # Starlike of order alpha = 1/4 at m=1, N=2, via an independent
    # termwise summation and brentq.
    alpha = 0.25
    d, e = 1.0 - 2.0 * alpha, -1.0

    def tail(r):
        total, prod = 0.0, 1.0
        for n in range(2, 4000):
            prod *= (n - 2 + 2 * (1 - alpha)) / (n - 1)
            term = prod * r**n
            total += term
            if term < 1e-18:
                break
        return total

    def equation(r):
        return r / (1 - r) ** (2 * (1 - alpha)) + tail(r) - 4.0 ** (alpha - 1.0)

    expected = scipy.optimize.brentq(equation, 0.01, 0.9, xtol=1e-13)
    res = solve_janowski_exact(d, e, m=1, N=2)
    assert res.r0 == pytest.approx(expected, abs=1e-9)
    series_res = solve(RadiusProblem(psi=catalog.starlike_alpha(alpha), m=1, N=2))
    assert series_res.r0 == pytest.approx(expected, abs=1e-8)


def test_exact_path_caps_rb_outside_the_classical_generator():
    # No theorem bounds the coefficients of every subordinant of z e^(z/4)
    # by its own, so only the lemma's r <= 1/3 is covered; r0 = 0.477 was
    # printed as rb before, unproven though not refuted.
    res = solve_janowski_exact(0.25, 0.0, m=2, N=1)
    assert res.rb == 1 / 3 < res.r0
    assert not res.sharp


# The labels of psi = (1+z)/(1-z).
CLASSICAL_LABELS = ["classical-starlike", "classical-convex", "alpha:0", "janowski:D=1,E=-1"]


@pytest.mark.parametrize("label", CLASSICAL_LABELS + [
    "alpha:0.5", "janowski:D=1,E=0", "janowski:D=1,E=-0.999", "cardioid", "booth",
])
def test_rb_keeps_r0_only_for_the_classical_generator(label):
    # psi = (1+z)/(1-z) in either family: |b_n| <= n under the Koebe
    # function (de Branges) and |b_n| <= 1 under z/(1-z) (Rogosinski).
    # Everywhere else rb = min(r0, 1/3), the range of the Bhowmik-Das lemma.
    spec = catalog.parse_psi(label)
    classical = label in CLASSICAL_LABELS
    pair = build_extremal_pair(spec)
    for family in Family:
        for m, N in ((1, 1), (2, 2), (24, 10)):
            res = solve(RadiusProblem(psi=spec, family=family, m=m, N=N), pair)
            case = (family, m, N)
            assert res.rb == (res.r0 if classical else min(res.r0, 1 / 3)), case
            assert res.sharp if classical else not (res.sharp and res.rb != res.r0), case


def test_exact_path_head_at_a_long_tail_index():
    # The head comes from the entry's one-term recurrence in one pass, so
    # N = 20000 is quick; past N = 1000 the tail at these roots is below
    # rounding, so the root does not move.
    for d, e in ((1.0, 0.0), (1.0, -1.0), (0.5, -0.5)):
        for m in (1, 2):
            long = solve_janowski_exact(d, e, m=m, N=20000)
            assert long.r0 == pytest.approx(solve_janowski_exact(d, e, m=m, N=1000).r0,
                                            abs=1e-12), (d, e, m)


# Subordinants g = f0(omega), omega = s z (z - a)/(1 - a z), that refute the
# r0 once printed as rb: (label, family, m, N, that rb, s, a).
REFUTED_RB = [
    ("janowski:D=1,E=0", Family.STARLIKE, 3, 3, 0.585210216352, -1.0, 0.6865),
    ("janowski:D=0.5,E=-0.5", Family.STARLIKE, 3, 5, 0.655901776397, -1.0, 0.9183),
    ("janowski:D=1,E=0", Family.CONVEX, 2, 2, 0.590709647967, -1.0, 0.3227),
    ("alpha:0.5", Family.CONVEX, 3, 3, 0.703607032038, -1.0, -0.6707),
]


def closed_extremal(d, e, family):
    """The Janowski f0 or l0 in closed form, on complex arrays."""
    if family == Family.STARLIKE:
        if e == 0.0:
            return lambda z: z * np.exp(d * z)
        return lambda z: z * (1.0 + e * z) ** ((d - e) / e)
    if e == 0.0:
        return lambda z: np.expm1(d * z) / d
    if d == 0.0:
        return lambda z: np.log(1.0 + e * z) / e
    return lambda z: ((1.0 + e * z) ** (d / e) - 1.0) / d


def true_margin(f, omega, m, N, r, points=4096):
    """r* - max_{|z|=r} |g(z^m)| - sum_{k>=N} |b_k| r^k for g = f(omega),
    with r* = -f(-1): the maximum modulus on a circle of ``points`` points,
    and b_k r^k from an FFT of g on the circle of radius (1 + r)/2."""
    circle = np.exp(2j * np.pi * np.arange(points) / points)
    peak = np.abs(f(omega(r**m * circle))).max()
    rho = 0.5 * (1.0 + r)
    scaled = np.abs(np.fft.fft(f(omega(rho * circle)))) / points
    tail = np.sum(scaled[N:] * (r / rho) ** np.arange(N, points))
    return -f(np.complex128(-1.0)).real - peak - tail


@pytest.mark.parametrize("label, family, m, N, old_rb, s, a", REFUTED_RB,
                         ids=[f"{w[0]}-{w[1].value}-m{w[2]}-N{w[3]}" for w in REFUTED_RB])
def test_refuted_radius_is_capped_at_the_lemma_radius(label, family, m, N, old_rb, s, a):
    spec = catalog.parse_psi(label)
    f = closed_extremal(spec.params["D"], spec.params["E"], family)
    witness = lambda z: s * z * (z - a) / (1.0 - a * z)
    # The margin of g = f0 itself vanishes at the old rb, which was r0, so
    # the closed-form margin measures the solver's inequality.
    assert abs(true_margin(f, lambda z: z, m, N, old_rb)) <= 1e-9
    assert true_margin(f, witness, m, N, old_rb) < -1e-2
    assert true_margin(f, witness, m, N, 1 / 3) >= 0.0
    results = [solve(RadiusProblem(psi=spec, family=family, m=m, N=N))]
    if family == Family.STARLIKE:
        results.append(solve_janowski_exact(spec.params["D"], spec.params["E"], m=m, N=N))
    for res in results:
        assert res.r0 == pytest.approx(old_rb, abs=1e-11)
        assert res.rb == 1 / 3 and not res.sharp


def test_exact_path_rejects_positive_e():
    # For E > 0 the extremal coefficients change sign and the closed
    # equation, which sums the signed f0(r^m), would give 0.702845.
    with pytest.raises(ValueError, match="E <= 0"):
        solve_janowski_exact(0.8, 0.65, m=1, N=3)
    res = solve(RadiusProblem(psi=catalog.janowski(0.8, 0.65), m=1, N=3))
    assert res.r0 == pytest.approx(0.682119, abs=1e-6)


def test_exact_path_parameter_validation():
    with pytest.raises(ValueError):
        solve_janowski_exact(0.5, 0.75)
    with pytest.raises(ValueError):
        solve_janowski_exact(1.0, -1.0, m=0)
    with pytest.raises(ValueError, match="tol"):
        solve_janowski_exact(1.0, -1.0, tol=1e-2)


@pytest.mark.parametrize("index", [{"m": 1.5}, {"N": 3.0}, {"m": True}])
def test_exact_path_rejects_a_non_integer_index(index):
    # Without the check m = 1.5 solved G with r^1.5.
    with pytest.raises(ValueError, match=r"^m and N must be positive integers$"):
        solve_janowski_exact(1.0, 0.0, **index)


def closed_equation(d, e, m, N, mode):
    """The closed Janowski G re-assembled with math.fsum, apart from the solver.

    For E <= 0 every extremal coefficient is positive, so fhat0 = f0 and
    the tail is f0 minus its head; the sum is taken with math.fsum.
    """
    spec = catalog.janowski(d, e)
    head = [0.0, 1.0][:N] + [reference.janowski_coeff_bound(d, e, n) for n in range(2, N)]

    def g(r):
        terms = [spec.f0_closed(r), -spec.koebe_closed]
        terms += [-c * r**n for n, c in enumerate(head)]
        if mode != Mode.BOHR_LIMIT:
            terms.append(spec.f0_closed(r**m))
        return math.fsum(terms)

    return g


EXACT_SOLVER_GRID = JANOWSKI_GRID + [(0.0, -0.5), (1.0, -0.6)]


def de_id(de):
    return "D={:g},E={:g}".format(*de)


@pytest.mark.parametrize("de", EXACT_SOLVER_GRID, ids=de_id)
def test_exact_solver_matches_independent_bisection(de):
    d, e = de
    for mode in Mode:
        for m in (1, 2, 5, 24):
            for N in (1, 2, 3, 10):
                res = solve_janowski_exact(d, e, m=m, N=N, mode=mode)
                case = (de, m, N, mode)
                g = closed_equation(d, e, m, 1 if mode == Mode.BOHR_LIMIT else N, mode)
                assert abs(res.r0 - bisection_root(g)) <= 1e-12, case
                lo, hi = res.bracket
                assert g(lo) < 0.0 < g(hi), case
                assert lo < res.r0 < hi and hi - lo <= 1e-10, case
                assert res.iterations <= 20, case
                assert_plain_floats(res)


@pytest.mark.parametrize("de", EXACT_SOLVER_GRID, ids=de_id)
def test_exact_solver_starts_at_the_certified_bound(de, newton_runs):
    d, e = de
    rstar = catalog.janowski(d, e).koebe_closed
    for mode in Mode:
        for m in (1, 2, 5, 24):
            for N in (1, 2, 3, 10):
                res = solve_janowski_exact(d, e, m=m, N=N, mode=mode)
                run = lone_run(newton_runs)
                case = (de, m, N, mode)
                if mode == Mode.BOHR_LIMIT:
                    terms = [(1.0, 1)]
                else:
                    a_n = 1.0 if N == 1 else reference.janowski_coeff_bound(d, e, N)
                    terms = [(1.0, m), (a_n, N)]
                assert run["hi"] == expected_start(rstar, terms), case
                assert run["g_hi"] > 0.0 and res.r0 < run["hi"], case
                assert res.iterations == run["calls"], case
                # The root and the two widened ends read G alone.
                assert run["values_only"] == 3, case


@pytest.mark.parametrize("label", SOLVER_GRID_LABELS + ["booth:k=3"])
def test_large_m_roots_get_certified_brackets(label):
    # At m = 10^8 and 10^9 many roots lie above 1 - 1e-9, below a start
    # (r*)^(1/m) < 1 that is kept rather than capped at 1 - 1e-9.
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec, 64)
    for family in Family:
        for m in (10**8, 10**9):
            for N in (1, 2, 3, 10, 40):
                for tol in (1e-10, 1e-15):
                    prob = RadiusProblem(psi=spec, family=family, m=m, N=N, tol=tol)
                    res = solve(prob, pair)
                    lo, hi = res.bracket
                    assert lo < res.r0 < hi < 1.0 and hi - lo <= tol, prob
                    assert g_function(prob, pair, lo) < 0.0 < g_function(prob, pair, hi), prob


def test_inconsistent_problem_raises_bracket_error():
    # A boundary distance no majorant value can reach leaves the equation
    # single-signed on the whole bracket.
    from bohrad.catalog import PsiSpec
    from bohrad.radius import BracketError

    def coeffs(order):
        c = np.zeros(order + 1)
        c[0] = 1.0
        c[1] = 0.01
        return c

    broken = PsiSpec(label="broken", coeff_fn=coeffs,
                     psi_eval=lambda t: 1.0 + 0.01 * t, koebe_closed=10.0)
    with pytest.raises(BracketError):
        solve(RadiusProblem(psi=broken))
    with pytest.raises(BracketError):
        sweep(RadiusProblem(psi=broken), n_values=[1, 2, 3])


# -- sweeps --------------------------------------------------------------------


def test_cardioid_sweep_approaches_limit():
    swept = sweep(problem("cardioid"), n_values=range(1, 11))
    radii = [res.r0 for res in swept.results]
    assert swept.monotone_nondecreasing
    limit = solve(problem("cardioid", mode=Mode.BOHR_LIMIT)).r0
    assert radii[-1] == pytest.approx(limit, abs=5e-4)
    assert all(r < limit + 1e-12 for r in radii)


def test_sine_sweep_small_n_below_one_third():
    swept = sweep(problem("sine"), n_values=range(1, 5))
    assert all(res.r0 < 1 / 3 for res in swept.results)


def test_cardioid_m_sweep_clamps_from_m2():
    swept = sweep(problem("cardioid", N=2), m_values=range(1, 6))
    first, rest = swept.results[0], swept.results[1:]
    assert first.rb < 1 / 3
    assert all(res.rb == pytest.approx(1 / 3) for res in rest)


def test_cardioid_m_sweep_at_n1_never_clamps():
    # The N = 1 roots increase toward the 0.25588 limit and stay unclamped.
    swept = sweep(problem("cardioid", N=1), m_values=range(1, 6))
    assert swept.monotone_nondecreasing
    assert all(res.rb == res.r0 < 1 / 3 for res in swept.results)


SWEEP_AXES = [("N", "n_values"), ("m", "m_values")]


def family_extremal(pair, family):
    if family == Family.STARLIKE:
        return pair.f0, pair.koebe_starlike
    return pair.l0, pair.koebe_convex


def test_newton_rows_are_independent():
    # A row solved among others takes the steps it takes alone, bitwise:
    # the fallback start, a row that bisects once its Newton steps stall,
    # and rows closing on different passes included.
    pair = build_extremal_pair(catalog.cardioid(), 64)
    rstar = pair.koebe_starlike
    equations, tops = [], []
    for m, N in ((1, 1), (2, 3), (5, 2), (24, 10), (1_000_000, 10)):
        evaluate, (hi,) = radius._radius_equations([(m, N)], pair.f0.coeffs.tolist(), rstar)
        equations.append(evaluate)
        tops.append(hi)
    equations.append(equations[0])
    tops.append(0.01)  # G(0.01) < 0: the start falls back to 1 - 1e-9

    def rows_of(chosen):
        # Row v of the batch is the one row of the evaluator chosen[v].
        return lambda rows, r, slopes=True: [chosen[v]([0], [x], slopes)[0]
                                             for v, x in zip(rows, r)]

    together = radius._newton(rows_of(equations), 1e-10, tops, -rstar)
    for v, (equation, hi) in enumerate(zip(equations, tops)):
        alone = radius._newton(rows_of([equation]), 1e-10, [hi], -rstar)
        assert repr(alone) == repr([together[v]]), v
    iterations = [row[2] for row in together]
    assert iterations[-1] > iterations[0]
    assert len(set(iterations)) > 2


@pytest.mark.parametrize("label", ["sine", "cardioid", "classical-starlike"])
def test_a_start_on_the_root_falls_back_to_the_top(label, newton_runs):
    # At order 1 the Bohr-limit equation is G = |a_1| r - r*: its certified
    # start r*/|a_1| is the root itself, where G is not positive, so the
    # solver starts again from 1 - 1e-9, for a lone solve and for sweeps
    # whose repeated values share the one row alike.
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec, 1)
    for family in Family:
        series, rstar = family_extremal(pair, family)
        a1 = abs(float(series.coeffs[1]))
        base = RadiusProblem(psi=spec, family=family, mode=Mode.BOHR_LIMIT, order=1)
        results = [solve(base), *sweep(base, n_values=[1, 1, 1]).results,
                   *sweep(base, m_values=[3, 1, 3]).results]
        assert len(newton_runs) == 3
        for run in newton_runs:
            assert run["hi"] == [rstar / a1] == [expected_start(rstar, [(a1, 1)])]
            assert run["g_hi"][0] <= 0.0 and run["calls"] == [6], (family, run)
        newton_runs.clear()
        for res in results:
            assert abs(res.r0 - rstar / a1) <= base.tol and res.iterations == 6, (family, res)


@pytest.mark.parametrize("label", SOLVER_GRID_LABELS)
def test_sweep_rows_start_at_the_certified_bound(label, newton_runs):
    # The distinct values are the rows of one solver run, in the order
    # they first appear; each row starts at its own certified top.  In the
    # Bohr limit every value has the same equation, solved as one row.
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec, 64)
    for family in Family:
        series, rstar = family_extremal(pair, family)
        moduli = [abs(float(c)) for c in series.coeffs]
        for mode in Mode:
            for axis, keyword in SWEEP_AXES:
                base = RadiusProblem(psi=spec, family=family, mode=mode)
                swept = sweep(base, **{keyword: [5, 1, 24, 3, 3]})
                by_value = dict(zip(swept.values, swept.results))
                (run,) = newton_runs
                newton_runs.clear()
                rows = (5, 1, 24, 3) if mode == Mode.BOHR_ROGOSINSKI else (5,)
                assert len(run["hi"]) == len(rows)
                for v, res in by_value.items():
                    row = rows.index(v) if mode == Mode.BOHR_ROGOSINSKI else 0
                    assert (res.m, res.N) == ((1, v) if axis == "N" else (v, 1))
                    m, N = res.m, res.N
                    terms = ([(1.0, 1)] if mode == Mode.BOHR_LIMIT
                             else [(1.0, m), (moduli[N], N)])
                    case = (family, mode, axis, v)
                    assert run["hi"][row] == expected_start(rstar, terms), case
                    assert run["g_hi"][row] > 0.0 and res.r0 < run["hi"][row], case
                    assert res.iterations == run["calls"][row], case
                    assert run["values_only"][row] == 3, case


@pytest.mark.parametrize("order", [64, 256])
@pytest.mark.parametrize("label", SOLVER_GRID_LABELS + ["booth:k=3"])
def test_one_row_sweeps_equal_lone_solves(label, order):
    # A sweep of one distinct value, and every Bohr-limit sweep, solves one
    # row, evaluated as a lone solve evaluates it: the results are equal
    # bitwise, bracket and iterations included.
    spec = catalog.parse_psi(label)
    for family in Family:
        bohr_limit = RadiusProblem(psi=spec, family=family, mode=Mode.BOHR_LIMIT, order=order)
        cases = [bohr_limit] + [RadiusProblem(psi=spec, family=family, m=2, N=N, order=order)
                                for N in (1, 3, 10)]
        for prob in cases:
            alone = repr(solve(prob))
            assert repr(sweep(prob, n_values=[prob.N]).results[0]) == alone, prob
            assert repr(sweep(prob, m_values=[prob.m]).results[0]) == alone, prob
        for axis, keyword in SWEEP_AXES:
            swept = sweep(bohr_limit, **{keyword: [5, 1, 3, 3]})
            for v, res in zip(swept.values, swept.results):
                prob = bohr_limit._replace(**{axis: v})
                assert repr(res) == repr(solve(prob)), prob


@pytest.mark.parametrize("order", [64, 1024])
@pytest.mark.parametrize("label", SOLVER_GRID_LABELS + [
    "alpha:0.5", "janowski:D=1,E=0", "booth:k=1.6", "booth:k=4"])
def test_catalog_list_equals_the_pair(label, order, monkeypatch):
    # Without a pair, solve and sweep take the extremal's coefficients from
    # the catalog's list; with one, from its arrays.  The results are equal
    # bitwise.
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec, order)
    from_list = radius._family_extremal
    for family in Family:
        problems = [RadiusProblem(psi=spec, family=family, mode=Mode.BOHR_LIMIT, order=order)]
        problems += [RadiusProblem(psi=spec, family=family, m=m, N=N, order=order)
                     for m in (1, 2, 5, 24) for N in (1, 2, 3, 10)]
        for prob in problems:
            assert repr(solve(prob)) == repr(solve(prob, pair)), prob
        sweeps = [(problems[1], "n_values", (1, 2, 3, 10)), (problems[1], "m_values", (1, 2, 5, 24)),
                  (problems[0], "n_values", (1, 3))]
        listed = [repr(sweep(base, **{keyword: values})) for base, keyword, values in sweeps]
        with monkeypatch.context() as patch:
            patch.setattr(radius, "_family_extremal", lambda prob: from_list(prob, pair))
            paired = [repr(sweep(base, **{keyword: values})) for base, keyword, values in sweeps]
        assert listed == paired


@pytest.mark.parametrize("order", [64, 256])
@pytest.mark.parametrize("label", SOLVER_GRID_LABELS)
def test_sweep_matches_solve_in_the_given_order(label, order):
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec, order)
    values = [5, 1, 24, 3, 3]
    for family in Family:
        for mode in Mode:
            for axis, keyword in SWEEP_AXES:
                base = RadiusProblem(psi=spec, family=family, mode=mode, order=order)
                swept = sweep(base, **{keyword: values})
                assert swept.values == tuple(values)
                for v, res in zip(values, swept.results):
                    prob = base._replace(**{axis: v})
                    assert (res.m, res.N) == (prob.m, prob.N), prob
                    alone = solve(prob, pair)
                    assert abs(res.r0 - alone.r0) <= 1e-15, prob
                    lo, hi = res.bracket
                    assert g_function(prob, pair, lo) < 0.0 < g_function(prob, pair, hi), prob
                    assert lo < res.r0 < hi and hi - lo <= prob.tol, prob
                    assert_plain_floats(res)


@pytest.mark.parametrize("order", [64, 256])
@pytest.mark.parametrize("label", ["classical-starlike", "cardioid", "sine",
                                   "janowski:D=0.8,E=0.65"])
def test_long_sweeps_match_solve(label, order):
    # N runs up to the order, and m up to 50, where the power tables of
    # r^m are mostly subnormal and zero.
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec, order)
    for family in Family:
        base = RadiusProblem(psi=spec, family=family, order=order)
        for axis, values in (("N", range(1, order + 1)), ("m", range(1, 51))):
            swept = sweep(base, **{"n_values" if axis == "N" else "m_values": values})
            for v, res in zip(values, swept.results):
                prob = base._replace(**{axis: v})
                assert abs(res.r0 - solve(prob, pair).r0) <= 1e-15, prob
                lo, hi = res.bracket
                assert g_function(prob, pair, lo) < 0.0 < g_function(prob, pair, hi), prob
                assert lo < res.r0 < hi and hi - lo <= prob.tol, prob


@pytest.mark.parametrize("values", [[65, 1, 2], [1, 65, 2], [1, 2, 65]])
def test_sweep_checks_every_value_before_solving(values, monkeypatch):
    def unreachable(*args):
        raise AssertionError("a sweep solved before it checked every value")

    for name in ("_f0_coefficients", "koebe_radius", "_newton"):
        monkeypatch.setattr(radius, name, unreachable)
    with pytest.raises(ValueError, match="exceeds the truncation order"):
        sweep(problem("cardioid", order=64), n_values=values)
    with pytest.raises(ValueError, match="positive"):
        sweep(problem("cardioid", order=64), m_values=[v % 65 for v in values])


@pytest.mark.parametrize("axis", ["n_values", "m_values"])
def test_sweep_rejects_non_integer_values(axis, monkeypatch):
    # int(v) once truncated these to 1 and 2 and solved those.
    monkeypatch.setattr(radius, "_newton", None)
    for values in ([1.5, 2.7], [1, 2.0], [True, 2]):
        with pytest.raises(ValueError, match=r"^m and N must be positive integers$"):
            sweep(problem("cardioid"), **{axis: values})


def test_sweep_takes_numpy_integers_as_ints():
    base = problem("cardioid")
    swept = sweep(base, n_values=np.arange(1, 4))
    assert swept.values == (1, 2, 3) and all(type(v) is int for v in swept.values)
    assert swept == sweep(base, n_values=[1, 2, 3])
    assert all(type(res.N) is int for res in swept.results)


def test_sweep_rejects_bad_ranges():
    with pytest.raises(ValueError):
        sweep(problem("cardioid"), n_values=[], m_values=None)
    with pytest.raises(ValueError):
        sweep(problem("cardioid"))
    with pytest.raises(ValueError):
        sweep(problem("cardioid"), n_values=[1], m_values=[1])


# -- the one route to f0's coefficients ---------------------------------------


@pytest.fixture
def f0_routes(monkeypatch):
    """The (spec, order) of each call the radius layer makes to the
    extremal layer's ``_f0_coefficients``."""
    calls = []
    route = radius._f0_coefficients

    def spy(psi, order):
        calls.append((psi, order))
        return route(psi, order)

    monkeypatch.setattr(radius, "_f0_coefficients", spy)
    return calls


@pytest.mark.parametrize("label", ["cardioid", "zexpz", "sine", "booth", "classical-convex"])
def test_solve_and_sweep_read_f0_through_the_one_route(label, f0_routes):
    base = problem(label, m=2, N=3, order=128)
    solve(base)
    sweep(base, n_values=[1, 2, 5])
    sweep(base, m_values=[1, 2, 5])
    assert len(f0_routes) == 3
    assert all(psi is base.psi and order == 128 for psi, order in f0_routes)
    # A given pair brings its own coefficients.
    solve(base, build_extremal_pair(base.psi, 128))
    assert len(f0_routes) == 3


@pytest.mark.parametrize("mode, n", [(Mode.BOHR_ROGOSINSKI, 4), (Mode.BOHR_LIMIT, 1)])
def test_exact_path_reads_its_head_through_the_one_route(mode, n, f0_routes):
    solve_janowski_exact(0.5, -0.5, m=2, N=4, mode=mode)
    [(spec, order)] = f0_routes
    assert spec.label == "janowski:D=0.5,E=-0.5" and order == n


@pytest.mark.parametrize("spec", [
    catalog.cardioid()._replace(f0_coeff_fn=lambda order: [0.0, 1.0] + [math.nan] * (order - 1)),
    # The dense recurrence overflows from t_3 on.
    catalog.cardioid()._replace(f0_coeff_fn=None, coeff_fn=lambda order: np.full(order + 1, 1e300)),
], ids=["short-nan", "dense-overflow"])
def test_a_non_finite_f0_coefficient_is_rejected(spec):
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            build_f0(spec, 8)
        for family in Family:
            with pytest.raises(ValueError, match="^coefficients must be finite$"):
                solve(RadiusProblem(psi=spec, family=family, order=8))


# -- values-only evaluations -----------------------------------------------


@pytest.fixture
def solver_equations(monkeypatch):
    """The evaluators handed to the root solver, with each run's roots."""
    runs = []
    newton = radius._newton

    def spy(evaluate, tol, tops, g_lo):
        solved = newton(evaluate, tol, tops, g_lo)
        runs.append((evaluate, list(tops), [row[0] for row in solved]))
        return solved

    monkeypatch.setattr(radius, "_newton", spy)
    return runs


def assert_values_only_bitwise(runs):
    """Asked for values only, each evaluator gives bitwise the G of the full
    request: at the starts, the roots, fixed radii and their midpoints, with
    rows asked for out of order and more than once."""
    assert runs
    for evaluate, tops, roots in runs:
        rows = list(range(len(tops)))
        rows = rows[::-1] + rows
        for at in (tops, roots, [0.0], [1.0 / 3.0], [0.9], [0.5 * (t + r)
                                                              for t, r in zip(tops, roots)]):
            radii = [at[v % len(at)] for v in rows]
            full = [repr(g) for g, _ in evaluate(rows, radii)]
            assert list(map(repr, evaluate(rows, radii, slopes=False))) == full


@pytest.mark.parametrize("order", [64, 256])
@pytest.mark.parametrize("label", SOLVER_GRID_LABELS)
def test_values_only_rows_equal_the_full_request(label, order, solver_equations):
    # One-row rows by solve, multi-row rows by sweeps over N and over m.
    spec = catalog.parse_psi(label)
    for family in Family:
        for mode in Mode:
            base = RadiusProblem(psi=spec, family=family, mode=mode, order=order)
            for m in (1, 2, 5, 24):
                for N in (1, 2, 3, 10):
                    solve(base._replace(m=m, N=N))
                sweep(base._replace(m=m), n_values=[1, 2, 3, 10])
            for N in (1, 2, 3, 10):
                sweep(base._replace(N=N), m_values=[1, 2, 5, 24])
    assert_values_only_bitwise(solver_equations)


@pytest.mark.parametrize("de", [(1.0, -1.0), (1.0, 0.0), (0.5, -0.5), (0.3, -1.0),
                                (0.8, -0.2)])
def test_values_only_closed_rows_equal_the_full_request(de, solver_equations):
    for mode in Mode:
        for m in (1, 2, 5, 24):
            for N in (1, 2, 3, 10):
                solve_janowski_exact(*de, m=m, N=N, mode=mode)
    assert_values_only_bitwise(solver_equations)


@pytest.mark.parametrize("label, family, m, N, mode, order, r, g", [
    ("cardioid", Family.STARLIKE, 2, 3, Mode.BOHR_ROGOSINSKI, 64, 0.3,
     "-0x1.ccb4381261f62p-3"),
    ("sine", Family.CONVEX, 5, 2, Mode.BOHR_ROGOSINSKI, 256, 0.45, "-0x1.0118e05eee2c3p-1"),
    ("zexpz", Family.STARLIKE, 1, 1, Mode.BOHR_LIMIT, 64, 0.2, "-0x1.20a9fb1263952p-2"),
    ("janowski:D=0.8,E=0.65", Family.CONVEX, 24, 10, Mode.BOHR_ROGOSINSKI, 64, 0.6,
     "-0x1.d03116a5fc911p-1"),
    ("booth", Family.STARLIKE, 1, 2, Mode.BOHR_ROGOSINSKI, 256, 0.15,
     "-0x1.3b67a978dde00p-2"),
])
def test_g_function_keeps_its_values(label, family, m, N, mode, order, r, g):
    # The values g_function gave when it read G from the value-and-slope pass.
    spec = catalog.parse_psi(label)
    prob = RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode, order=order)
    assert g_function(prob, build_extremal_pair(spec, order), r) == float.fromhex(g)


# -- serialization ---------------------------------------------------------------


def test_result_json_fields():
    res = solve(problem("cardioid"))
    payload = res.to_json_dict()
    assert list(payload) == [
        "psi", "family", "m", "N", "mode", "r0", "rb", "residual",
        "iterations", "sharp",
    ]
    assert payload["psi"] == "cardioid"
    assert payload["family"] == "starlike"
    assert payload["mode"] == "bohr-rogosinski"
