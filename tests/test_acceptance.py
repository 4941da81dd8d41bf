"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 8 runs the tail inequality sum_{k>=N} |b_k| r^k <= sum_{n>=N} |a_n| r^n
(g = f(omega) subordinate to f, r <= 1/3) over the catalog extremals on one
seeded sample stream, split by N.  At N = 1 the inequality is the lemma of
Bhowmik and Das and the run must find no violation.  At N >= 2 the claim is
false: the run must find counterexamples (on the sine, booth and cardioid
extremals), and the worst one is confirmed by recomposing it at 40 digits.
"""

import math
import time

import numpy as np
import pytest

import reference
from bohrad import catalog
from bohrad.extremal import (
    build_extremal_pair,
    build_f0,
    koebe_radius_quadrature,
)
from bohrad.oracle import (
    DEFAULT_ORACLE_PSIS,
    IDENTITY_SAMPLE,
    run_axiom_suite,
    run_tail_suite,
    submultiplicativity_counterexample,
    verify_br_inequality,
    verify_tail_inequality,
)
from bohrad.radius import Family, Mode, RadiusProblem, solve, solve_janowski_exact, sweep

JANOWSKI_GRID = [(1.0, -1.0), (0.5, -0.5), (1.0, 0.0), (0.5, 0.0)]

CATALOG_FAMILIES = [
    ("classical-starlike", Family.STARLIKE),
    ("cardioid", Family.STARLIKE),
    ("zexpz", Family.STARLIKE),
    ("booth", Family.STARLIKE),
    ("sine", Family.STARLIKE),
    ("alpha:0.25", Family.STARLIKE),
    ("classical-convex", Family.CONVEX),
]


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" :: {detail}" if detail else ""
    print(f"[criterion {number:02d}] {status} {description}{suffix}")


def problem(label, family=None, **kwargs):
    return RadiusProblem(psi=catalog.parse_psi(label), family=family, **kwargs)


def test_criterion_01_cardioid_bohr_radius():
    start = time.perf_counter()
    res = solve(problem("cardioid", mode=Mode.BOHR_LIMIT))
    elapsed = time.perf_counter() - start
    ok = abs(res.r0 - 0.25588) <= 1e-4 and elapsed < 1.0
    report(1, "cardioid Bohr radius 0.25588 +- 1e-4, < 1 s", ok,
           f"r0={res.r0:.6f}, {elapsed:.2f}s")
    assert abs(res.r0 - 0.25588) <= 1e-4
    assert elapsed < 1.0


def test_criterion_02_sine_stabilization():
    start = time.perf_counter()
    swept = sweep(problem("sine"), n_values=range(5, 13))
    elapsed = time.perf_counter() - start
    radii = [res.r0 for res in swept.results]
    in_band = all(0.2905 <= r <= 0.2908 for r in radii)
    below_third = all(r < 1 / 3 for r in radii)
    ok = in_band and below_third and elapsed < 2.0
    report(2, "sine r_N in [0.2905, 0.2908] and < 1/3 for N=5..12, < 2 s", ok,
           f"range=[{min(radii):.6f}, {max(radii):.6f}], {elapsed:.2f}s")
    assert in_band and below_third
    assert elapsed < 2.0


def test_criterion_03_classical_starlike_reduction():
    res = solve(problem("classical-starlike", m=1, N=1))
    expected = 5.0 - 2.0 * math.sqrt(6.0)
    ok = abs(res.r0 - expected) <= 1e-9
    report(3, "classical starlike root equals 5 - 2 sqrt(6) to 1e-9", ok,
           f"r0={res.r0:.12f}")
    assert abs(res.r0 - expected) <= 1e-9


def test_criterion_04_classical_convex_reduction():
    res = solve(problem("classical-convex", m=1, N=1))
    ok = abs(res.r0 - 0.2) <= 1e-9
    report(4, "classical convex root equals 1/5 to 1e-9", ok, f"r0={res.r0:.12f}")
    assert abs(res.r0 - 0.2) <= 1e-9


def test_criterion_05_koebe_radii_against_closed_forms():
    cases = [("classical-starlike", 0.25), ("cardioid", math.exp(-1.0))]
    for d in (0.25, 0.5, 1.0):
        cases.append((f"janowski:D={d:g},E=0", math.exp(-d)))
    for alpha in (0.0, 0.25, 0.5):
        cases.append((f"alpha:{alpha:g}", 4.0 ** (alpha - 1.0)))
    cases.append(("sine", math.exp(catalog.si(-1.0))))
    worst = 0.0
    for label, expected in cases:
        got = koebe_radius_quadrature(catalog.parse_psi(label))
        worst = max(worst, abs(got - expected))
    ok = worst <= 1e-9
    report(5, "Koebe radii: quadrature vs closed forms to 1e-9", ok,
           f"worst |diff|={worst:.2e} over {len(cases)} cases")
    assert worst <= 1e-9


def test_criterion_06_janowski_coefficient_equality():
    # The dense recurrence on psi's series, not the catalog's one-term
    # recurrence, so that the bound product checks an independent path.
    worst = 0.0
    for d, e in JANOWSKI_GRID + [(0.75, 0.25)]:
        spec = catalog.janowski(d, e)._replace(f0_coeff_fn=None)
        f0 = build_f0(spec, 24)
        for n in range(2, 21):
            bound = reference.janowski_coeff_bound(d, e, n)
            rel = abs(abs(f0.coeffs[n]) - bound) / max(bound, 1e-300)
            worst = max(worst, rel)
    ok = worst <= 1e-11
    report(6, "Janowski |t_n| equals the coefficient-bound product to 1e-11", ok,
           f"worst rel diff={worst:.2e}")
    assert worst <= 1e-11


def test_criterion_07_dual_path_consistency():
    worst_coeff = 0.0
    for label, _ in CATALOG_FAMILIES:
        spec = catalog.parse_psi(label)
        rec = build_f0(spec, 64)
        integ = reference.integral_f0(spec, 64)
        scale = np.maximum(np.abs(rec.coeffs), 1e-30)
        worst_coeff = max(worst_coeff, float(np.max(np.abs(rec.coeffs - integ.coeffs) / scale)))
    worst_root = 0.0
    for d, e in JANOWSKI_GRID:
        for m in (1, 2):
            for N in (1, 2, 3):
                r_series = solve(RadiusProblem(psi=catalog.janowski(d, e), m=m, N=N)).r0
                r_exact = solve_janowski_exact(d, e, m=m, N=N).r0
                worst_root = max(worst_root, abs(r_series - r_exact))
    ok = worst_coeff <= 1e-11 and worst_root <= 1e-8
    report(7, "dual paths: f0 coefficients to 1e-11, Janowski roots to 1e-8", ok,
           f"coeff={worst_coeff:.2e}, root={worst_root:.2e}")
    assert worst_coeff <= 1e-11
    assert worst_root <= 1e-8


def recomposed_tail_margin(counterexample):
    """A reported tail margin rebuilt by an independent path: mpmath Taylor
    data, at 40 digits, of the closed-form extremal composed with the sampled
    Blaschke product.  Covers the entries that carry N >= 2 counterexamples."""
    import mpmath

    sample = counterexample["sample"]
    N = counterexample["N"]
    with mpmath.workdps(40):
        k = 1 + mpmath.sqrt(2)
        f0 = {
            "sine": lambda w: w * mpmath.exp(mpmath.si(w)),
            "booth": lambda w: w * mpmath.exp(-w) * (k / (k - w)) ** (2 * k),
            "cardioid": lambda w: w * mpmath.exp(4 * w / 3 + w**2 / 3),
        }[counterexample["psi"]]
        zeros = [mpmath.mpf(a) for a in sample["zeros"]]
        r = mpmath.mpf(counterexample["r"])

        def omega(z):
            value = sample["sign"] * z
            for a in zeros:
                value *= (z - a) / (1 - a * z)
            return value

        b_coeffs = mpmath.taylor(lambda z: f0(omega(z)), 0, 48)
        t_coeffs = mpmath.taylor(f0, 0, 48)
        return float(
            sum(abs(t) * r**n for n, t in enumerate(t_coeffs) if n >= N)
            - sum(abs(b) * r**j for j, b in enumerate(b_coeffs) if j >= N)
        )


def test_criterion_08_tail_inequality_monte_carlo():
    # One seeded sample stream, checked at N in {1, 2, 3}.  The stream does
    # not depend on n_values, so the two runs below make exactly the checks
    # of a single run over all three N.
    sampled = dict(psi_labels=DEFAULT_ORACLE_PSIS, trials=1000, seed=7,
                   r_values=(0.1, 0.25, 1.0 / 3.0), degree_max=4, order=64)
    start = time.perf_counter()
    proven = run_tail_suite(n_values=(1,), **sampled)
    false_claim = run_tail_suite(n_values=(2, 3), **sampled)
    identity_worst = 0.0
    for label in DEFAULT_ORACLE_PSIS:
        f0 = build_extremal_pair(catalog.parse_psi(label), 64).f0
        for n in (1, 2, 3):
            for r in (0.1, 0.25, 1.0 / 3.0):
                identity_worst = max(
                    identity_worst, abs(verify_tail_inequality(f0, IDENTITY_SAMPLE, n, r))
                )
    elapsed = time.perf_counter() - start
    worst_ce = false_claim.counterexamples[0] if false_claim.counterexamples else None
    confirmed = recomposed_tail_margin(worst_ce) if worst_ce is not None else None
    agrees = (confirmed is not None and confirmed < 0.0
              and math.isclose(worst_ce["margin"], confirmed, rel_tol=1e-8))
    ok = (proven.violations == 0 and proven.worst_margin >= -1e-12
          and false_claim.violations > 0 and agrees
          and identity_worst <= 1e-12 and elapsed < 30.0)
    detail = (f"N=1: violations={proven.violations}, worst margin={proven.worst_margin:.2e}; "
              f"N>=2: violations={false_claim.violations}, "
              f"worst margin={false_claim.worst_margin:.2e}; "
              f"identity worst={identity_worst:.1e}, {elapsed:.1f}s")
    if worst_ce is not None:
        detail += (f"; worst {worst_ce['psi']} N={worst_ce['N']} r={worst_ce['r']:.4g} "
                   f"zeros={[round(z, 5) for z in worst_ce['sample']['zeros']]} "
                   f"sign={worst_ce['sample']['sign']}, 40-digit margin={confirmed:.10e}")
    report(8, "tail inequality: clean at N=1, N>=2 counterexamples confirmed at 40 digits",
           ok, detail)
    assert identity_worst <= 1e-12
    assert elapsed < 30.0
    assert proven.violations == 0, (
        f"{proven.violations} violations of the proven N = 1 tail inequality "
        f"(worst margin {proven.worst_margin:.3e})"
    )
    assert proven.worst_margin >= -1e-12
    assert false_claim.violations > 0, "no counterexample found to the false N >= 2 claim"
    assert worst_ce["margin"] == pytest.approx(confirmed, rel=1e-8)
    assert confirmed < 0.0


def test_criterion_09_bohr_operator_axiom_suite():
    rep = run_axiom_suite(trials=200, seed=7)
    # The suite's grid is fixed; its config records it.
    assert rep.config["N"] == [0, 1, 3]
    assert rep.config["r"] == 0.2
    assert rep.config["order"] == 16
    documented = submultiplicativity_counterexample(r=0.25)
    reproduced = (not documented["holds"]) and documented["margin"] == pytest.approx(-0.0625)
    ok = rep.violations == 0 and rep.worst_margin >= -1e-12 and reproduced
    report(9, "operator axioms hold (product axiom at N=0); N=2 counterexample reproduced",
           ok, f"worst margin={rep.worst_margin:.2e}, counterexample margin="
               f"{documented['margin']:.4f}")
    assert rep.violations == 0
    assert rep.worst_margin >= -1e-12
    assert reproduced


def test_criterion_10_sharpness_touch():
    margins = {}
    for label, N in (("cardioid", 12), ("classical-starlike", 1)):
        spec = catalog.parse_psi(label)
        prob = RadiusProblem(psi=spec, m=1, N=N)
        pair = build_extremal_pair(spec, prob.order)
        res = solve(prob, pair)
        margins[label] = verify_br_inequality(prob, pair, IDENTITY_SAMPLE, res.rb)
    worst = max(abs(v) for v in margins.values())
    ok = worst <= 1e-3
    report(10, "extremal attains the bound at rb (identity sample) to 1e-3", ok,
           f"margins: cardioid={margins['cardioid']:.2e}, "
           f"classical={margins['classical-starlike']:.2e}")
    assert worst <= 1e-3


def test_criterion_11_m_infinity_consistency():
    worst = 0.0
    for label, family in CATALOG_FAMILIES:
        spec = catalog.parse_psi(label)
        pair = build_extremal_pair(spec, 64)
        r_limit = solve(RadiusProblem(psi=spec, family=family, mode=Mode.BOHR_LIMIT), pair).r0
        r_m50 = solve(RadiusProblem(psi=spec, family=family, m=50, N=1), pair).r0
        worst = max(worst, abs(r_m50 - r_limit))
    ok = worst < 1e-6
    report(11, "m=50 agrees with the Bohr limit to 1e-6 for every catalog entry", ok,
           f"worst |diff|={worst:.2e}")
    assert worst < 1e-6
