"""Schwarz sampling, tail functional, and the verification checks."""

import functools
import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

import reference
from bohrad import catalog, cli, oracle, radius
from bohrad.extremal import build_extremal_pair, build_f0
from bohrad.oracle import (
    IDENTITY_SAMPLE,
    InequalityViolation,
    SchwarzSample,
    bohr_tail,
    run_axiom_suite,
    run_br_suite,
    run_tail_suite,
    run_weighted_suite,
    _Tally,
    sample_schwarz,
    schwarz_series,
    submultiplicativity_counterexample,
    verify_bohr_operator_axioms,
    verify_br_inequality,
    verify_tail_inequality,
    verify_weighted,
    _dropped_tail,
)
from bohrad.radius import Family, Mode, RadiusProblem, g_function, solve
from bohrad.series import OrderMismatchError, TruncatedSeries


def koebe_series(order=64):
    return TruncatedSeries(np.arange(order + 1, dtype=float))


# -- sampling ------------------------------------------------------------


def test_sample_is_deterministic_per_seed():
    a = sample_schwarz(random.Random(123), degree_max=4)
    b = sample_schwarz(random.Random(123), degree_max=4)
    assert a == b


def test_sample_bounds():
    rng = random.Random(5)
    for _ in range(200):
        s = sample_schwarz(rng, degree_max=4)
        assert 0 <= s.degree <= 4
        assert all(-0.95 < a < 0.95 for a in s.zeros)
        assert s.sign in (-1, 1)


def test_sample_validation():
    with pytest.raises(ValueError):
        SchwarzSample(degree=1, zeros=(), sign=1)
    with pytest.raises(ValueError):
        SchwarzSample(degree=1, zeros=(1.2,), sign=1)
    with pytest.raises(ValueError):
        SchwarzSample(degree=0, zeros=(), sign=0)


def test_replacing_a_field_still_validates():
    # _replace builds through _make, which must go through the checks of
    # __new__, not around them.
    problem = RadiusProblem(psi=catalog.cardioid())
    with pytest.raises(ValueError, match=r"^m and N must be positive integers$"):
        problem._replace(N=0)
    with pytest.raises(ValueError, match=r"^tol must lie in \[1e-15, 1e-3\), got 1e-16$"):
        problem._replace(tol=1e-16)
    with pytest.raises(ValueError, match=r"^Blaschke zeros must lie in \(-1, 1\)$"):
        IDENTITY_SAMPLE._replace(degree=1, zeros=(1.0,))


def test_schwarz_series_identity():
    w = schwarz_series(IDENTITY_SAMPLE, 8)
    assert np.array_equal(w.coeffs, TruncatedSeries.identity(8).coeffs)


def test_schwarz_series_single_zero_hand_expansion():
    # z (z - 1/2)/(1 - z/2) = -z/2 + 3z^2/4 + 3z^3/8 + 3z^4/16 + ...
    w = schwarz_series(SchwarzSample(degree=1, zeros=(0.5,), sign=1), 8)
    np.testing.assert_allclose(
        w.coeffs[:5], [0.0, -0.5, 0.75, 0.375, 0.1875], rtol=1e-15
    )


def test_schwarz_series_sign_flips_coefficients():
    plus = schwarz_series(SchwarzSample(degree=2, zeros=(0.3, -0.6), sign=1), 16)
    minus = schwarz_series(SchwarzSample(degree=2, zeros=(0.3, -0.6), sign=-1), 16)
    np.testing.assert_allclose(minus.coeffs, -plus.coeffs, rtol=0)


def test_schwarz_series_zero_at_origin_and_bounded():
    rng = random.Random(11)
    for _ in range(50):
        s = sample_schwarz(rng, degree_max=4)
        w = schwarz_series(s, 64)
        assert w.coeffs[0] == 0.0
        # |omega| < 1 on the disk forces the majorant at small r below 1.
        assert bohr_tail(w, 0, 0.5) < 3.0


def test_schwarz_series_is_its_row_of_any_chunk():
    # The suites build a chunk of omegas at once, each from its own factors
    # only; each row is bitwise the single series, and agrees with the
    # factor-by-factor convolution.  The second chunk has every degree from
    # 0 to 7, and degree 0 with either sign.
    rng = random.Random(13)
    chunks = [
        [sample_schwarz(rng, 4) for _ in range(9)] + [IDENTITY_SAMPLE],
        [sample_schwarz(rng, 7) for _ in range(24)] + [
            SchwarzSample(degree=d, zeros=tuple(rng.uniform(-0.95, 0.95) for _ in range(d)),
                          sign=(-1) ** d) for d in range(8)
        ] + [SchwarzSample(degree=0, zeros=(), sign=-1), IDENTITY_SAMPLE],
    ]
    for samples, order in itertools.product(chunks, (8, 64)):
        chunk = oracle._schwarz_chunk(samples, order).coeffs
        for row, sample in zip(chunk, samples):
            single = schwarz_series(sample, order).coeffs
            np.testing.assert_array_equal(row, single)
            assert np.abs(row).tobytes() == np.abs(single).tobytes()
            reference = np.zeros(order + 1)
            reference[1] = sample.sign
            for a in sample.zeros:
                factor = np.concatenate(([-a], (1.0 - a * a) * a ** np.arange(order)))
                reference = np.convolve(reference, factor)[: order + 1]
            np.testing.assert_allclose(row, reference, rtol=0, atol=1e-15)


def test_power_coefficients_obey_unit_bound():
    # For omega^n the tail functional at r = 1/3 stays below r^n: the
    # content of the classical unit-disk bound applied to (omega/z)^n.
    rng = random.Random(21)
    r = 1 / 3
    for _ in range(25):
        s = sample_schwarz(rng, degree_max=4)
        w = schwarz_series(s, 64)
        power = reference.one(64)
        for n in range(1, 6):
            power = power * w
            assert bohr_tail(power, 0, r) <= r**n + 1e-9


# -- tail functional -------------------------------------------------------


def test_bohr_tail_full_majorant():
    f = TruncatedSeries([1.0, -2.0, 3.0])
    assert bohr_tail(f, 0, 0.5) == pytest.approx(1 + 1 + 0.75)
    assert bohr_tail(f, 1, 0.5) == pytest.approx(1 + 0.75)
    assert bohr_tail(f, 5, 0.5) == 0.0


def test_bohr_tail_domain():
    f = TruncatedSeries([1.0, 1.0])
    with pytest.raises(ValueError):
        bohr_tail(f, -1, 0.5)
    with pytest.raises(ValueError):
        bohr_tail(f, 0, 1.0)


# -- tail inequality ---------------------------------------------------------


def test_identity_sample_gives_exact_equality():
    f0 = build_extremal_pair(catalog.cardioid()).f0
    for n in (1, 2, 3):
        for r in (0.1, 0.25, 1 / 3):
            assert verify_tail_inequality(f0, IDENTITY_SAMPLE, n, r) == 0.0


def test_rotation_gives_exact_equality_for_positive_coefficients():
    f0 = build_extremal_pair(catalog.z_exp_z()).f0
    rotation = SchwarzSample(degree=0, zeros=(), sign=-1)
    for n in (1, 2, 3):
        assert verify_tail_inequality(f0, rotation, n, 0.25) == 0.0


def test_koebe_with_square_substitution_hand_values():
    # omega = z^2: the composed tail at N=2, r=1/3 is sum n 9^{-n} = 9/64,
    # against the majorant tail 3/4 - 1/3 = 5/12.
    f = koebe_series(64)
    square = SchwarzSample(degree=1, zeros=(0.0,), sign=1)
    margin = verify_tail_inequality(f, square, 2, 1 / 3)
    assert margin == pytest.approx(5 / 12 - 9 / 64, abs=1e-12)


def test_tail_inequality_rejects_radius_beyond_one_third():
    f = koebe_series(16)
    with pytest.raises(ValueError):
        verify_tail_inequality(f, IDENTITY_SAMPLE, 1, 0.4)


def test_tail_suite_rejects_radius_beyond_one_third():
    # The lemma makes no claim past 1/3, so a suite must not report
    # "violations" there.
    with pytest.raises(ValueError, match="only claimed for r <= 1/3"):
        run_tail_suite(trials=2, r_values=(0.25, 0.5))


def test_tail_inequality_counterexample_for_small_coefficient_extremal():
    # The N >= 2 claim is genuinely false once the extremal's tail
    # coefficients are small: for the sine extremal (t_3 = 1/2) a single
    # Blaschke zero near sqrt(2/3) pushes |b_3| = a(1 - a^2/2) above t_3.
    # Confirmed independently by high-precision recomposition; the check
    # must detect and report it rather than swallow it.
    f0 = build_extremal_pair(catalog.sine()).f0
    sample = SchwarzSample(degree=1, zeros=(math.sqrt(2.0 / 3.0),), sign=1)
    with pytest.raises(InequalityViolation) as excinfo:
        verify_tail_inequality(f0, sample, 3, 0.1, label="sine")
    report = excinfo.value.report
    assert report["margin"] < -1e-6
    assert report["psi"] == "sine"
    assert report["N"] == 3


def test_counterexample_margin_confirmed_by_high_precision_recomposition():
    # Same margin through a fully independent path: mpmath Taylor data of
    # f0(omega(z)) built from the closed forms, at 40 digits.
    import mpmath

    with mpmath.workdps(40):
        a1, a2 = mpmath.mpf("0.157"), mpmath.mpf("0.778")
        r = mpmath.mpf("0.25")

        def omega(z):
            return -z * (z - a1) / (1 - a1 * z) * (z - a2) / (1 - a2 * z)

        def f0_closed(w):
            return w * mpmath.exp(mpmath.si(w))

        depth = 48
        b_coeffs = mpmath.taylor(lambda z: f0_closed(omega(z)), 0, depth)
        t_coeffs = mpmath.taylor(f0_closed, 0, depth)
        expected = float(
            sum(abs(t) * r**n for n, t in enumerate(t_coeffs) if n >= 3)
            - sum(abs(b) * r**k for k, b in enumerate(b_coeffs) if k >= 3)
        )

    f0 = build_extremal_pair(catalog.sine()).f0
    sample = SchwarzSample(degree=2, zeros=(0.157, 0.778), sign=-1)
    with pytest.raises(InequalityViolation) as excinfo:
        verify_tail_inequality(f0, sample, 3, 0.25, label="sine")
    got = excinfo.value.report["margin"]
    assert got == pytest.approx(expected, rel=1e-8)
    assert got < -1e-4


@functools.lru_cache(maxsize=None)
def _recomposed(label, zeros, sign, order=256):
    f = build_f0(catalog.parse_psi(label), order)
    omega = SchwarzSample(len(zeros), zeros, sign)
    return f, f.compose(schwarz_series(omega, order))


def _recomposed_margin(report):
    """The margin of a tail or weighted report, recomputed from f0 and omega
    at order 256, where the dropped tails at r <= 1/3 are negligible."""
    sample = report["sample"]
    f, g = _recomposed(report["psi"], tuple(sample["zeros"]), sample["sign"])
    n, r = report["N"], report["r"]
    if report["check"] == "tail-inequality":
        return bohr_tail(f, n, r) - bohr_tail(g, n, r)
    tau = report["tau"]
    return tau * bohr_tail(f, n, r) - bohr_tail(_ramp_weight(tau, f.order) * g, n, r)


def test_low_order_counterexample_at_a_small_radius_is_reported():
    # At order 8 the true margin -2.75e-4 sits far beyond the bound on f's
    # dropped tail at r = 0.1 (about 1e-8), so it must be reported.
    f0 = build_f0(catalog.sine(), 8)
    sample = SchwarzSample(degree=3, zeros=(0.5363754797863709, 0.4752668736778709,
                                            -0.041737785271399486), sign=-1)
    with pytest.raises(InequalityViolation) as excinfo:
        verify_tail_inequality(f0, sample, 3, 0.1, label="sine")
    report = excinfo.value.report
    assert report["margin"] < -2e-4
    assert abs(report["margin"] - _recomposed_margin(report)) <= 1e-6


@pytest.mark.parametrize("order", [1, 8, 64])
@pytest.mark.parametrize("r", [0.1, 1.0 / 3.0, 0.7])
def test_dropped_tail_is_the_koebe_tail(order, r):
    # The Koebe function attains |a_n| = n |a_1|, so its dropped tail is the bound.
    tail = math.fsum(n * r**n for n in range(order + 1, 4001))
    assert _dropped_tail(koebe_series(order), r) == pytest.approx(tail, rel=1e-12, abs=0)


@pytest.mark.parametrize("label", catalog.named_labels() + [
    "alpha:0.25", "janowski:D=0.5,E=-0.5", "janowski:D=0.75,E=0.25",
    "booth:k=1.5", "booth:k=2", "booth:k=4"])
def test_extremal_coefficients_obey_the_de_branges_bound(label):
    # _dropped_tail rests on |a_n| <= n |a_1| for the extremal f.
    coeffs = np.abs(build_f0(catalog.parse_psi(label), 256).coeffs)
    assert np.all(coeffs <= np.arange(257) * coeffs[1] * (1.0 + 1e-12))


@pytest.mark.parametrize("order", [3, 8])
def test_low_order_tail_reports_are_genuine(order):
    # Without f's dropped tail in the tolerance, order 3 reports 21 margins
    # that are positive at order 256.
    report = run_tail_suite(order=order, seed=7, trials=150, max_reports=10**6)
    assert len(report.counterexamples) == report.violations > 0
    assert all(_recomposed_margin(ce) < 0.0 for ce in report.counterexamples)


def test_order_8_weighted_reports_are_genuine():
    report = run_weighted_suite(order=8, N=2, tau=0.5, seed=7, trials=200)
    assert report.counterexamples
    assert all(_recomposed_margin(ce) < 0.0 for ce in report.counterexamples)


def test_tail_suite_runs_clean_on_dominant_coefficient_entries():
    report = run_tail_suite(
        psi_labels=("classical-starlike", "zexpz", "alpha:0.25"),
        trials=150, seed=3,
    )
    assert report.violations == 0
    assert report.worst_margin >= -1e-12


def test_tail_suite_detects_and_reports_sine_counterexamples():
    report = run_tail_suite(psi_labels=("sine",), trials=150, seed=3)
    assert report.violations > 0
    assert report.counterexamples
    assert all(ce["psi"] == "sine" for ce in report.counterexamples)
    assert report.worst_margin < -1e-6


def test_tail_suite_reports_worst_counterexample_first():
    report = run_tail_suite(psi_labels=("sine",), trials=200, seed=7, max_reports=5)
    assert report.violations > 0
    assert report.counterexamples[0]["margin"] == report.worst_margin
    assert len(report.counterexamples) <= 5


def test_only_samples_that_break_a_check_are_described(monkeypatch):
    # A sample is described when its first report is read, once, and the
    # reports of one sample share that description.
    described = []
    describe = SchwarzSample.describe
    monkeypatch.setattr(SchwarzSample, "describe",
                        lambda sample: described.append(sample) or describe(sample))
    report = run_tail_suite(trials=40, seed=0, max_reports=10**6)
    shared = {id(ce["sample"]) for ce in report.counterexamples}
    assert 0 < len(described) == len(shared) < min(40, report.violations)


def test_tail_suite_is_deterministic():
    a = run_tail_suite(trials=25, seed=9)
    b = run_tail_suite(trials=25, seed=9)
    assert a.to_json_dict() == b.to_json_dict()


def test_tail_suite_matches_public_check():
    # The suite takes all nine (N, r) margins of a composed series from one
    # product; the public check sums one window at a time.
    trials, seed, labels = 40, 11, ("sine", "booth", "cardioid")
    n_values, r_values = (1, 2, 3), (0.1, 0.25, 1.0 / 3.0)
    report = run_tail_suite(psi_labels=labels, trials=trials, seed=seed, n_values=n_values,
                            r_values=r_values, max_reports=10**6)
    f0s = [build_extremal_pair(catalog.parse_psi(label)).f0 for label in labels]
    rng = random.Random(seed)
    margins, violations = [], []
    for _ in range(trials):
        sample = sample_schwarz(rng, 4)
        for label, f0 in zip(labels, f0s):
            for n in n_values:
                for r in r_values:
                    try:
                        margins.append(verify_tail_inequality(f0, sample, n, r, label))
                    except InequalityViolation as exc:
                        margins.append(exc.report["margin"])
                        violations.append(exc.report)
    assert violations
    assert report.violations == len(violations)
    # The worst report leads; the rest keep the order the checks ran in.
    lead = min(violations, key=lambda ce: ce["margin"])
    ordered = [lead] + [ce for ce in violations if ce is not lead]
    key = ("sample", "psi", "N", "r")
    assert [[ce[k] for k in key] for ce in report.counterexamples] == \
        [[ce[k] for k in key] for ce in ordered]
    for got, want in zip(report.counterexamples, ordered):
        assert abs(got["margin"] - want["margin"]) <= 1e-13 * want["majorant_tail"]
    assert abs(report.worst_margin - min(margins)) <= 1e-13 * lead["majorant_tail"]


@pytest.mark.parametrize("order", [64, 256])
def test_tail_suite_chunks_match_chunks_of_one(order):
    # Three whole chunks and a remainder (at order 256 a chunk holds one
    # sample): every report and margin of the chunked suite is the public
    # check's, which composes each omega as a chunk of one.
    size = oracle._chunk_size(order)
    trials, seed, labels = 3 * size + max(size // 2, 1), 11, ("sine", "booth", "cardioid")
    n_values, r_values = (1, 2, 3), (0.1, 0.25, 1.0 / 3.0)
    report = run_tail_suite(psi_labels=labels, trials=trials, seed=seed, n_values=n_values,
                            r_values=r_values, order=order, max_reports=10**6)
    f0s = [build_f0(catalog.parse_psi(label), order) for label in labels]
    rng = random.Random(seed)
    violations = []
    for _ in range(trials):
        sample = sample_schwarz(rng, 4)
        for label, f0 in zip(labels, f0s):
            for n in n_values:
                for r in r_values:
                    try:
                        verify_tail_inequality(f0, sample, n, r, label)
                    except InequalityViolation as exc:
                        violations.append(exc.report)
    assert violations
    assert report.violations == len(violations) == len(report.counterexamples)
    lead = min(violations, key=lambda ce: ce["margin"])
    ordered = [lead] + [ce for ce in violations if ce is not lead]
    key = ("sample", "psi", "N", "r")
    assert [[ce[k] for k in key] for ce in report.counterexamples] == \
        [[ce[k] for k in key] for ce in ordered]
    for got, want in zip(report.counterexamples, ordered):
        assert abs(got["margin"] - want["margin"]) <= 1e-13 * want["majorant_tail"]


def _tail_suite_peak(trials: int, order: int) -> int:
    tracemalloc.start()
    try:
        run_tail_suite(trials=trials, seed=3, order=order)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tail_suite_memory_is_bounded_by_the_chunk():
    # The suites hold one chunk of power tables at a time, so ten times the
    # trials take the same peak, and it stays within a few chunk budgets.
    run_tail_suite(trials=2, order=64)
    short, long = _tail_suite_peak(100, 64), _tail_suite_peak(1000, 64)
    assert abs(long - short) <= 0.1 * short
    assert long <= 3 * oracle._CHUNK_BYTES
    # At order 256 one table alone exceeds the budget: chunks of one.
    assert oracle._chunk_size(256) == 1
    assert _tail_suite_peak(10, 256) <= 3 * oracle._CHUNK_BYTES


def _with_fresh_tables(monkeypatch, run):
    """What ``run`` returns when each chunk is built in fresh memory: its
    Toeplitz factors by ``_toeplitz`` alone, its table by ``powers``."""
    chunk = oracle._schwarz_chunk
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_schwarz_chunk",
                      lambda samples, order, scratch=None: chunk(samples, order))
        patch.setattr(TruncatedSeries, "_take_powers", lambda self, table, scratch: self)
        return run()


def _with_stale_workspace(monkeypatch, run):
    """What ``run`` returns when its workspace starts full of NaN, as memory
    left by an earlier build may be."""
    workspace = oracle._workspace
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_workspace", lambda order: tuple(
            np.full_like(block, np.nan) for block in workspace(order)))
        return run()


_SUITES = {
    "tail": lambda order, trials: run_tail_suite(trials=trials, seed=5, order=order,
                                                 max_reports=10**6),
    "weighted": lambda order, trials: run_weighted_suite(trials=trials, seed=5, order=order),
    "br": lambda order, trials: run_br_suite("cardioid", trials=trials, seed=5, order=order),
}


@pytest.mark.parametrize("kind", sorted(_SUITES))
@pytest.mark.parametrize("order, trials", [(8, oracle._chunk_size(8) + 17), (64, 17), (256, 3)])
def test_suites_match_tables_built_by_powers(monkeypatch, kind, order, trials):
    # Each trial count leaves a short last chunk (chunks of 809 and 15 at
    # orders 8 and 64; of one at 256).  Building every chunk in the suite's
    # one workspace changes no bit of the report, whatever it held before.
    def run():
        return repr(_SUITES[kind](order, trials))

    assert run() == _with_fresh_tables(monkeypatch, run) == \
        _with_stale_workspace(monkeypatch, run)


@pytest.mark.parametrize("kind", sorted(_SUITES))
def test_suites_do_not_depend_on_the_chunk_budget(monkeypatch, kind):
    # Chunks of one sample, of 7 (512 KB) and of 15 (1 MB) at order 64, each
    # with a short last chunk: every margin is taken a row at a time, so the
    # reports agree bitwise.
    def run(budget):
        with monkeypatch.context() as patch:
            patch.setattr(oracle, "_CHUNK_BYTES", budget)
            return repr(_SUITES[kind](64, 38))

    assert run(1) == run(1 << 19) == run(1 << 20)


def test_back_to_back_suites_match_fresh_runs(monkeypatch):
    # Suites of other orders and degrees, one after another, build in memory
    # that earlier suites freed; an entry they left would show here.
    runs = [
        lambda: run_tail_suite(trials=17, seed=2, order=64, degree_max=7),
        lambda: run_weighted_suite(trials=9, seed=3, order=8, degree_max=1),
        lambda: run_br_suite("sine", trials=3, seed=4, order=256, degree_max=2),
        lambda: run_tail_suite(trials=30, seed=6, order=16, degree_max=0),
        lambda: run_br_suite("booth", trials=10, seed=8, order=32, degree_max=5),
        lambda: run_tail_suite(trials=17, seed=2, order=64, degree_max=7),
    ]
    back_to_back = [repr(run()) for run in runs]
    assert back_to_back[0] == back_to_back[-1]
    assert back_to_back == [_with_fresh_tables(monkeypatch, lambda: repr(run()))
                            for run in runs]


def test_a_suite_builds_every_chunk_in_one_workspace(monkeypatch):
    tables = []
    compose = TruncatedSeries.compose

    def spied(self, w):
        tables.append(w.powers)
        return compose(self, w)

    size = oracle._chunk_size(64)
    with monkeypatch.context() as patch:
        patch.setattr(TruncatedSeries, "compose", spied)
        run_tail_suite(trials=17, seed=1, order=64)
        chunks = len(tables)
        # The 30-trial order-64 suites of the oracle benchmark: two chunks.
        run_tail_suite(trials=30, seed=1, order=64)
    assert [len(table) for table in tables[:chunks]] == \
        [min(size, 17 - start) for start in range(0, 17, size)]
    assert len(tables) - chunks == 2
    assert all(np.shares_memory(table, tables[0]) for table in tables[:chunks])
    assert not any(table.flags.writeable for table in tables)
    # A public composition builds its omega's table in fresh memory of its own.
    w = schwarz_series(SchwarzSample(degree=2, zeros=(0.5, -0.3), sign=-1), 64)
    build_f0(catalog.parse_psi("sine"), 64).compose(w)
    assert w.powers.flags.owndata and not w.powers.flags.writeable
    assert not any(np.shares_memory(w.powers, table) for table in tables)


@pytest.mark.parametrize("run", [
    lambda: run_tail_suite(trials=2, n_values=(65,), order=64),
    lambda: run_tail_suite(psi_labels=("sine",), trials=2, n_values=(1, 17), order=16),
    lambda: run_weighted_suite(trials=2, N=70, order=64),
])
def test_suites_reject_a_tail_index_past_the_order(run):
    # The tail window from N > K is empty, so such a run would check nothing.
    with pytest.raises(ValueError, match="exceeds the truncation order"):
        run()


def test_tally_leads_with_worst_even_past_the_cap():
    tally = _Tally(trials=1, cap=2)
    for margin in (-1.0, 0.5, -2.0, -3.0):
        tally.extend([margin], [{"margin": margin}] if margin < 0 else [])
    report = tally.report(seed=0, config={})
    assert report.violations == 3
    assert report.worst_margin == -3.0
    assert [ce["margin"] for ce in report.counterexamples] == [-3.0, -1.0]


def test_tail_suite_keeps_no_counterexample_at_a_cap_of_zero():
    report = run_tail_suite(psi_labels=("sine",), trials=50, seed=1, max_reports=0)
    assert report.violations == 88
    assert report.counterexamples == []


def test_tail_suite_rejects_a_negative_cap():
    with pytest.raises(ValueError, match="max_reports must be nonnegative"):
        run_tail_suite(psi_labels=("sine",), trials=50, seed=1, max_reports=-1)


@pytest.mark.parametrize("trials", [0, -1])
@pytest.mark.parametrize("suite", [run_tail_suite, run_weighted_suite, run_br_suite,
                                   run_axiom_suite], ids=["tail", "weighted", "br", "axiom"])
def test_suites_reject_fewer_than_one_trial(suite, trials):
    # A run of no trials checks nothing: it must not pass as clean, with an
    # infinite worst margin that is not even valid JSON.
    with pytest.raises(ValueError, match="--trials must be at least 1"):
        suite(trials=trials)


@pytest.mark.parametrize("grid", ["n_values", "r_values"])
def test_tail_suite_rejects_an_empty_grid(grid):
    # An empty grid checks nothing, as a run of no trials does.
    with pytest.raises(ValueError, match=f"^{grid} must not be empty$"):
        run_tail_suite(trials=5, **{grid: ()})


@pytest.mark.parametrize("suite", [run_tail_suite, run_weighted_suite], ids=["tail", "weighted"])
def test_suites_name_an_empty_label_list(suite):
    with pytest.raises(ValueError, match="^psi_labels must not be empty$"):
        suite(psi_labels=(), trials=5)


def _margin_or_violation(check, *args):
    try:
        return check(*args)
    except InequalityViolation as exc:
        return exc.report["margin"]


# -- operator axioms -----------------------------------------------------------


def test_axiom_hand_example():
    f = TruncatedSeries([1.0, 1.0, 0.0])
    margins = verify_bohr_operator_axioms(f, f, alpha=1.0, N=0, r=0.2)
    # M(fg) = M(1 + 2z + z^2) = 1.44 = M(f) M(g): equality.
    assert margins["submultiplicativity_n0"] == pytest.approx(0.0, abs=1e-15)
    assert bohr_tail(f * f, 0, 0.2) == pytest.approx(1.44)


def test_axiom_homogeneity_negative_scalar():
    f = TruncatedSeries([0.5, -1.0, 2.0])
    assert bohr_tail(-2.0 * f, 0, 0.3) == pytest.approx(2.0 * bohr_tail(f, 0, 0.3))


def test_axiom_unit():
    one = reference.one(8)
    assert bohr_tail(one, 0, 0.7) == 1.0


def test_axiom_definiteness():
    zero = TruncatedSeries(np.zeros(9))
    assert bohr_tail(zero, 0, 0.5) == 0.0
    margins = verify_bohr_operator_axioms(zero, zero, 1.0, 0, 0.5)
    assert margins["definiteness_ok"]


def reference_axiom_margins(f, g, alpha, N, r):
    """The axiom margins written out with bohr_tail, one window per sum."""
    m_f = bohr_tail(f, N, r)
    return {
        "nonnegativity": m_f,
        "definiteness_ok": (m_f == 0.0) == (not f.coeffs[N:].any()) or r == 0.0,
        "subadditivity": m_f + bohr_tail(g, N, r) - bohr_tail(f + g, N, r),
        "homogeneity": -abs(bohr_tail(alpha * f, N, r) - abs(alpha) * m_f),
        "submultiplicativity_n0": bohr_tail(f, 0, r) * bohr_tail(g, 0, r)
        - bohr_tail(f * g, 0, r),
        "unit": -abs(bohr_tail(reference.one(f.order), 0, r) - 1.0),
    }


def test_axiom_margins_match_their_definitions_bitwise():
    rng = random.Random(11)
    for order in (0, 1, 4, 16):
        for _ in range(10):
            f, g = (TruncatedSeries([rng.uniform(-1.0, 1.0) for _ in range(order + 1)])
                    for _ in range(2))
            alpha = rng.uniform(-2.0, 2.0)
            for N in range(order + 2):
                for r in (0.0, 0.2, 0.5, 0.9):
                    margins = verify_bohr_operator_axioms(f, g, alpha, N, r)
                    expected = reference_axiom_margins(f, g, alpha, N, r)
                    assert list(margins) == list(expected)
                    for key, value in expected.items():
                        assert type(margins[key]) is type(value), (key, order, N, r)
                        assert repr(margins[key]) == repr(value), (key, order, N, r)


def test_axiom_suite_clean():
    report = run_axiom_suite(trials=200, seed=1)
    assert report.violations == 0
    assert report.worst_margin >= -1e-12


def test_a_failed_definiteness_check_is_reported(monkeypatch, capsys):
    # Real runs never fail it.  Forced to fail on one call, it is one
    # violation with its report, the axiom and its N, like every other check.
    axioms, calls = oracle.verify_bohr_operator_axioms, []

    def flipped(f, g, alpha, N, r):
        margins = axioms(f, g, alpha, N, r)
        calls.append(N)
        if len(calls) == 5:
            margins["definiteness_ok"] = not margins["definiteness_ok"]
        return margins

    monkeypatch.setattr(oracle, "verify_bohr_operator_axioms", flipped)
    report = run_axiom_suite(trials=20, seed=0)
    assert report.violations == len(report.counterexamples) == 1
    assert report.counterexamples == [{"axiom": "definiteness", "N": 1, "margin": -math.inf}]
    assert calls[4] == 1 and report.worst_margin == -math.inf
    calls.clear()
    code = cli.main(["verify", "--lemma", "bohr-operator", "--trials", "20"])
    assert code == cli.EXIT_VIOLATIONS
    out = json.loads(capsys.readouterr().out)
    assert out["violations"] == len(out["counterexamples"]) == 1
    assert out["counterexamples"][0]["axiom"] == "definiteness"


def test_documented_submultiplicativity_counterexample():
    record = submultiplicativity_counterexample(r=0.25)
    assert record["margin"] == pytest.approx(-0.0625)
    assert not record["holds"]


# -- weighted inequality ----------------------------------------------------------


def _ramp_weight(tau, order=64):
    c = np.zeros(order + 1)
    c[0] = tau / 2.0
    c[1] = tau / 2.0
    return TruncatedSeries(c)


def test_weighted_reduces_to_tail_inequality_at_unit_weight():
    f0 = build_extremal_pair(catalog.cardioid()).f0
    one = reference.one(64)
    sample = SchwarzSample(degree=1, zeros=(0.4,), sign=1)
    for n in (1, 2):
        weighted = verify_weighted(1.0, f0, sample, one, n, 0.25)
        plain = verify_tail_inequality(f0, sample, n, 0.25)
        assert weighted == pytest.approx(plain, abs=1e-15)


def test_weighted_constant_weight_scales_margin():
    tau = 0.8
    f0 = build_extremal_pair(catalog.cardioid()).f0
    const = tau * reference.one(64)
    sample = SchwarzSample(degree=2, zeros=(0.2, -0.5), sign=-1)
    r = tau / 3.0
    got = verify_weighted(tau, f0, sample, const, 1, r)
    plain = bohr_tail(f0, 1, r) - bohr_tail(f0.compose(schwarz_series(sample, 64)), 1, r)
    assert got == pytest.approx(tau * plain, rel=1e-12, abs=1e-15)


def test_weighted_precondition_on_h():
    f0 = build_extremal_pair(catalog.cardioid()).f0
    too_big = reference.one(64) * 2.0
    with pytest.raises(ValueError):
        verify_weighted(0.8, f0, IDENTITY_SAMPLE, too_big, 1, 0.2)
    with pytest.raises(ValueError):
        verify_weighted(0.8, f0, IDENTITY_SAMPLE, _ramp_weight(0.8), 1, 0.3)


def test_weighted_suite_clean_at_default_head_index():
    report = run_weighted_suite(tau=0.8, trials=120, seed=4)
    assert report.violations == 0
    assert report.worst_margin >= -1e-12


def test_weighted_suite_worst_margin_matches_public_check():
    tau, trials, seed, labels = 0.8, 20, 5, ("cardioid", "sine")
    report = run_weighted_suite(tau=tau, trials=trials, seed=seed, psi_labels=labels, N=2)
    f0s = [build_extremal_pair(catalog.parse_psi(label)).f0 for label in labels]
    rng = random.Random(seed)
    margins = []
    for _ in range(trials):
        sample = sample_schwarz(rng, 4)
        margins += [_margin_or_violation(verify_weighted, tau, f0, sample, _ramp_weight(tau),
                                         2, tau / 3.0, label)
                    for label, f0 in zip(labels, f0s)]
    assert report.worst_margin == min(margins)


# -- full radius inequality ---------------------------------------------------------


def test_br_margin_at_origin_is_koebe_radius():
    spec = catalog.cardioid()
    pair = build_extremal_pair(spec)
    prob = RadiusProblem(psi=spec)
    margin = verify_br_inequality(prob, pair, IDENTITY_SAMPLE, 0.0)
    assert margin == pytest.approx(pair.koebe_starlike)


def test_br_sharpness_touch_classical():
    spec = catalog.classical_starlike()
    pair = build_extremal_pair(spec)
    prob = RadiusProblem(psi=spec)
    res = solve(prob, pair)
    margin = verify_br_inequality(prob, pair, IDENTITY_SAMPLE, res.rb)
    assert abs(margin) <= 1e-6


def test_br_margin_monotone_in_radius():
    spec = catalog.cardioid()
    pair = build_extremal_pair(spec)
    prob = RadiusProblem(psi=spec, N=2)
    res = solve(prob, pair)
    grid = np.linspace(0.0, res.rb, 12)
    margins = [verify_br_inequality(prob, pair, IDENTITY_SAMPLE, r) for r in grid]
    assert all(b < a for a, b in zip(margins, margins[1:]))


def test_br_suite_cardioid_clean():
    report = run_br_suite("cardioid", trials=60, seed=2)
    assert report.violations == 0
    assert abs(report.config["identity_margin_at_rb"]) <= 1e-6


def test_br_suite_convex_clean():
    report = run_br_suite("classical-convex", family=Family.CONVEX, trials=40, seed=2)
    assert report.violations == 0


@pytest.mark.parametrize("label, family, m, N, worst, identity", [
    ("cardioid", Family.STARLIKE, 2, 3, "0x1.71a26e30eba41p-3", "0x1.71a26e30eba41p-3"),
    ("sine", Family.CONVEX, 1, 2, "0x1.728343c19d2f4p-3", "0x1.728343c19d2f4p-3"),
    ("janowski:D=1,E=0", Family.STARLIKE, 3, 3, "0x1.333e52b3b9c33p-2",
     "0x1.3c17fc2a75269p-2"),
])
def test_br_suite_keeps_its_margins(label, family, m, N, worst, identity):
    # The margins the suite reported when it read G from the value-and-slope
    # pass, bitwise.
    report = run_br_suite(label, family, m, N, trials=100, seed=4)
    assert report.violations == 0
    assert report.worst_margin == float.fromhex(worst)
    assert report.config["identity_margin_at_rb"] == float.fromhex(identity)


@pytest.fixture
def certified_starts(monkeypatch):
    """The arguments of each call to the solver's certified start."""
    calls = []
    start = radius._certified_top

    def spy(*args):
        calls.append(args)
        return start(*args)

    monkeypatch.setattr(radius, "_certified_top", spy)
    return calls


@pytest.mark.parametrize("mode", list(Mode))
def test_a_br_suite_makes_one_certified_start(mode, certified_starts):
    # The solve needs its Newton start; the margins of the sampled
    # subordinants and the identity margin at rb evaluate G without one.
    run_br_suite("cardioid", m=2, N=3, trials=40, seed=1, mode=mode)
    assert len(certified_starts) == 1


@pytest.mark.parametrize("mode", list(Mode))
def test_g_function_makes_no_certified_start(mode, certified_starts):
    spec = catalog.cardioid()
    g_function(RadiusProblem(psi=spec, m=2, N=3, mode=mode), build_extremal_pair(spec), 0.3)
    assert certified_starts == []


def test_br_bohr_limit_mode_drops_point_term():
    spec = catalog.cardioid()
    pair = build_extremal_pair(spec)
    prob = RadiusProblem(psi=spec, mode=Mode.BOHR_LIMIT)
    res = solve(prob, pair)
    margin = verify_br_inequality(prob, pair, IDENTITY_SAMPLE, res.rb)
    assert abs(margin) <= 1e-6


def test_br_sharpness_at_tail_index_equal_to_order():
    # N = K proxies the infinite-tail limit; the identity sample at the
    # solved radius still touches the bound.
    spec = catalog.cardioid()
    pair = build_extremal_pair(spec, 64)
    prob = RadiusProblem(psi=spec, m=1, N=64, order=64)
    res = solve(prob, pair)
    margin = verify_br_inequality(prob, pair, IDENTITY_SAMPLE, res.rb)
    assert abs(margin) <= 1e-3
    limit = solve(RadiusProblem(psi=spec, mode=Mode.BOHR_LIMIT), pair).r0
    assert res.r0 == pytest.approx(limit, abs=1e-3)


def test_br_suite_worst_margin_matches_public_check():
    # The suite samples fractions of the reported rb: 1/3 for cardioid at
    # N = 2, and r0 = 0.6186 for the classical generator at m = 24, N = 10.
    trials, seed = 20, 3
    for label, m, N in (("cardioid", 1, 2), ("classical-starlike", 24, 10)):
        spec = catalog.parse_psi(label)
        report = run_br_suite(label, m=m, N=N, trials=trials, seed=seed)
        pair = build_extremal_pair(spec)
        prob = RadiusProblem(psi=spec, m=m, N=N)
        rb = solve(prob, pair).rb
        rng = random.Random(seed)
        margins = []
        for _ in range(trials):
            sample = sample_schwarz(rng, 4)
            margins += [_margin_or_violation(verify_br_inequality, prob, pair, sample, frac * rb)
                        for frac in (0.25, 0.5, 0.75, 1.0)]
        assert report.violations == 0, label
        assert report.worst_margin == min(margins), label


@pytest.mark.parametrize("mode, N, reported_N", [
    (Mode.BOHR_ROGOSINSKI, 2, 2),
    (Mode.BOHR_LIMIT, 5, 1),
])
def test_br_violation_report(mode, N, reported_N):
    # r = 0.6 lies above the solved radius, so the extremal itself violates
    # the bound; the Bohr limit reports the N = 1 it solves.
    spec = catalog.cardioid()
    pair = build_extremal_pair(spec)
    prob = RadiusProblem(psi=spec, m=2, N=N, mode=mode)
    with pytest.raises(InequalityViolation,
                       match="radius inequality violated for cardioid") as excinfo:
        verify_br_inequality(prob, pair, IDENTITY_SAMPLE, 0.6)
    report = excinfo.value.report
    assert list(report) == ["check", "psi", "family", "sample", "m", "N", "r", "margin"]
    assert report == {
        "check": "bohr-rogosinski",
        "psi": "cardioid",
        "family": "starlike",
        "sample": IDENTITY_SAMPLE.describe(),
        "m": 2,
        "N": reported_N,
        "r": 0.6,
        "margin": report["margin"],
    }
    assert report["margin"] == 0.0 - g_function(prob, pair, 0.6)
    assert report["margin"] < 0.0


def test_br_check_rejects_a_pair_of_another_order():
    # The moduli of an order-8 pair would check another equation: the
    # margin at the solved radius comes out 1.65e-7 instead of -9.5e-18.
    spec = catalog.cardioid()
    prob = RadiusProblem(psi=spec, N=5)
    pair = build_extremal_pair(spec, 8)
    with pytest.raises(OrderMismatchError, match="order"):
        verify_br_inequality(prob, pair, IDENTITY_SAMPLE, 0.2)


def test_identity_margin_at_a_clamped_rb_is_the_identity_check():
    # Below r0 the margin is no residual; it is still that of g = f0.
    spec = catalog.cardioid()
    pair = build_extremal_pair(spec)
    for m, N in ((2, 2), (3, 3), (5, 10)):
        prob = RadiusProblem(psi=spec, m=m, N=N)
        config = run_br_suite("cardioid", Family.STARLIKE, m, N, trials=1).config
        assert config["rb"] == 1 / 3 < config["r0"]
        margin = verify_br_inequality(prob, pair, IDENTITY_SAMPLE, config["rb"])
        assert config["identity_margin_at_rb"] == margin > 0.0


@pytest.mark.parametrize("label", catalog.named_labels()
                         + ["alpha:0.25", "janowski:D=0.5,E=-0.5", "janowski:D=1,E=0"])
def test_identity_margin_at_rb_is_minus_the_residual(label):
    # The check evaluates the solver's own equation with the moduli of g,
    # and g = f0 at the identity sample, so at an unclamped rb the margin
    # is the solver's residual with its sign flipped, bit for bit.
    spec = catalog.parse_psi(label)
    pair = build_extremal_pair(spec)
    cases = [(Mode.BOHR_ROGOSINSKI, m, N) for m in (1, 2, 5) for N in (1, 2, 3, 10)]
    cases.append((Mode.BOHR_LIMIT, 1, 1))
    checked = 0
    for family in Family:
        for mode, m, N in cases:
            res = solve(RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode), pair)
            if res.rb != res.r0:
                continue
            margin = run_br_suite(label, family, m, N, trials=1, mode=mode
                                  ).config["identity_margin_at_rb"]
            assert margin == -res.residual, (family, mode, m, N)
            assert math.copysign(1.0, margin) == 1.0 or margin != 0.0
            checked += 1
    assert checked > 0
