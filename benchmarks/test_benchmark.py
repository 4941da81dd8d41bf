"""Tests of the benchmark itself.

Every check must reject a wrong value, and a short run of every workload
must complete with a well-formed result.  Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import bohrad  # noqa: E402
import checks  # noqa: E402
import cli_mix  # noqa: E402
import library  # noqa: E402
from bohrad import Family, Mode, RadiusProblem  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KOEBE_ROOT = 5.0 - 2.0 * math.sqrt(6.0)


def _solved(label="classical-starlike", family=Family.STARLIKE, m=1, N=1,
            mode=Mode.BOHR_ROGOSINSKI):
    spec = bohrad.parse_psi(label)
    pair = bohrad.build_extremal_pair(spec, 64)
    res = bohrad.solve(RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode), pair)
    series = pair.f0 if family == Family.STARLIKE else pair.l0
    rstar = pair.koebe_starlike if family == Family.STARLIKE else pair.koebe_convex
    g = checks.reassembled_g([abs(c) for c in series.coeffs], rstar, m, N, mode.value)
    return res, g


# -- radius checks ------------------------------------------------------------------


def test_closed_forms_accept_the_program_and_reject_r0_off_by_1e9():
    known = checks.closed_forms()
    for (label, family, mode, m, N), want in known.items():
        res, _ = _solved(label, Family(family), m, N, Mode(mode))
        assert checks.check_close("r0", res.r0, want) == []
        assert checks.check_close("r0", res.r0 + 1e-9, want) != []
        assert checks.check_close("r0", res.r0 - 1e-9, want) != []


def test_cardioid_bohr_radius_is_the_documented_root():
    assert checks.cardioid_bohr_radius() == pytest.approx(0.255888962214, abs=1e-12)


@pytest.mark.parametrize("label,family,m,N,mode", [
    ("classical-starlike", Family.STARLIKE, 1, 1, Mode.BOHR_ROGOSINSKI),
    ("sine", Family.STARLIKE, 2, 3, Mode.BOHR_ROGOSINSKI),
    ("booth", Family.CONVEX, 3, 2, Mode.BOHR_ROGOSINSKI),
    ("zexpz", Family.CONVEX, 1, 1, Mode.BOHR_LIMIT),
])
def test_root_check_rejects_a_moved_root_or_bracket(label, family, m, N, mode):
    res, g = _solved(label, family, m, N, mode)
    lo, hi = res.bracket
    assert checks.check_root(res.r0, res.bracket, g) == []
    assert checks.check_root(res.r0 + 1e-9, res.bracket, g) != []
    assert checks.check_root(res.r0 + 1e-9, (lo + 1e-9, hi + 1e-9), g) != []
    assert checks.check_root(res.r0 - 1e-9, (lo - 1e-9, hi - 1e-9), g) != []
    assert checks.check_root(res.r0, (lo - 1e-9, hi), g) != []


def test_reassembled_g_matches_the_program():
    spec = bohrad.parse_psi("sine")
    pair = bohrad.build_extremal_pair(spec, 64)
    problem = RadiusProblem(psi=spec, m=2, N=3)
    g = checks.reassembled_g([abs(c) for c in pair.f0.coeffs], pair.koebe_starlike, 2, 3,
                             "bohr-rogosinski")
    for r in (0.1, 0.3, 0.6):
        assert g(r) == pytest.approx(bohrad.g_function(problem, pair, r), abs=1e-14)


def test_nondecreasing_check():
    assert checks.check_nondecreasing("x", [0.1, 0.2, 0.2]) == []
    assert checks.check_nondecreasing("x", [0.1, 0.2, 0.2 - 1e-9]) != []


@pytest.mark.parametrize("d,e", [(1.0, -1.0), (0.5, -0.5), (0.7, 0.0), (0.8, 0.3), (0.0, -0.5)])
def test_janowski_koebe_closed_forms(d, e):
    pair = bohrad.build_extremal_pair(bohrad.janowski(d, e), 64)
    for family, got in (("starlike", pair.koebe_starlike), ("convex", pair.koebe_convex)):
        want = checks.janowski_koebe(d, e, family)
        assert checks.check_rel("k", got, want, checks.KOEBE_RTOL) == []
        assert checks.check_rel("k", got * (1 + 1e-9), want, checks.KOEBE_RTOL) != []


def test_series_against_exact_check_rejects_r0_off_by_1e9():
    series = bohrad.solve(RadiusProblem(psi=bohrad.janowski(0.5, -0.5), m=2, N=2)).r0
    exact = bohrad.solve_janowski_exact(0.5, -0.5, m=2, N=2).r0
    assert checks.check_close("x", series, exact, checks.SERIES_EXACT_TOL) == []
    assert checks.check_close("x", series + 1e-9 + 1e-10, exact, checks.SERIES_EXACT_TOL) != []


def test_janowski_e0_closed_form_root():
    res = bohrad.solve_janowski_exact(1.0, 0.0, m=1, N=2)
    assert checks.check_close("r0", res.r0, checks.janowski_e0_radius(1.0, 1, 2)) == []


# -- oracle checks -------------------------------------------------------------------


@pytest.fixture(scope="module")
def tail_report():
    rep = bohrad.run_tail_suite(trials=40, seed=3, max_reports=10**6).to_json_dict()
    assert rep["violations"] > 0
    return rep


def test_tail_report_check_accepts_the_program(tail_report):
    assert checks.check_tail_report(tail_report) == []


def _mutated(rep, fn):
    rep = json.loads(json.dumps(rep))
    fn(rep)
    return rep


def test_tail_report_check_rejects_a_flipped_margin(tail_report):
    def flip(rep):
        rep["counterexamples"][0]["margin"] *= -1
        rep["worst_margin"] = rep["counterexamples"][0]["margin"]
    assert checks.check_tail_report(_mutated(tail_report, flip)) != []


def test_tail_report_check_rejects_a_margin_off_by_rel_1e7(tail_report):
    def nudge(rep):
        rep["counterexamples"][0]["margin"] *= 1 + 1e-7
        rep["worst_margin"] = rep["counterexamples"][0]["margin"]
    assert checks.check_tail_report(_mutated(tail_report, nudge)) != []


def test_tail_report_check_rejects_a_violation_at_n1(tail_report):
    def at_one(rep):
        rep["counterexamples"][-1]["N"] = 1
    assert checks.check_tail_report(_mutated(tail_report, at_one)) != []


def test_tail_report_check_rejects_a_lost_counterexample(tail_report):
    assert checks.check_tail_report(
        _mutated(tail_report, lambda rep: rep["counterexamples"].pop())) != []


def test_tail_report_check_rejects_a_moved_zero(tail_report):
    def move(rep):
        zeros = rep["counterexamples"][0]["sample"]["zeros"]
        zeros[0] *= 1.001
    assert checks.check_tail_report(_mutated(tail_report, move)) != []


def test_cauchy_margin_agrees_with_the_program_on_a_sine_counterexample():
    sample = bohrad.SchwarzSample(degree=2, zeros=(0.157, 0.778), sign=-1)
    f0 = bohrad.build_extremal_pair(bohrad.sine()).f0
    with pytest.raises(bohrad.InequalityViolation) as excinfo:
        bohrad.verify_tail_inequality(f0, sample, 3, 0.25, label="sine")
    got = excinfo.value.report["margin"]
    want = checks.tail_margin("sine", sample.zeros, sample.sign, 3, 0.25)
    assert got == pytest.approx(want, rel=1e-10)


def test_clean_report_check():
    rep = bohrad.run_weighted_suite(trials=20, seed=1).to_json_dict()
    assert checks.check_clean_report(rep) == []
    rep["violations"] = 1
    assert checks.check_clean_report(rep) != []
    rep["violations"], rep["worst_margin"] = 0, -1e-6
    assert checks.check_clean_report(rep) != []


# -- CLI output checks ----------------------------------------------------------------


def _out(stdout, code=0):
    return cli_mix.CliOutput(code, stdout, "", 0, {})


def _csv(psi="classical-starlike", r0=KOEBE_ROOT, extra=None):
    row = [psi, "starlike", "1", "1", "bohr-rogosinski", repr(r0), repr(r0), "0", "34", "true"]
    if extra is not None:
        row.insert(1, extra)
    return ",".join(checks.CSV_HEADER) + "\n" + ",".join(row) + "\n"


def test_csv_check_rejects_a_row_with_an_extra_field():
    check = cli_mix._check_radius(cli_mix._one_csv_row, "classical-starlike", "starlike",
                                  1, 1, "bohr-rogosinski", KOEBE_ROOT)
    assert check(_out(_csv())) == []
    assert check(_out(_csv(extra="x"))) != []
    assert check(_out(_csv(r0=KOEBE_ROOT + 1e-9))) != []
    assert check(_out(_csv().replace("psi,family", "family,psi"))) != []
    assert check(_out(_csv(), code=3)) != []


def test_json_and_table_checks_reject_malformed_or_mislabelled_output():
    res = bohrad.solve(RadiusProblem(psi=bohrad.parse_psi("classical-starlike")))
    good = json.dumps(res.to_json_dict())
    check = cli_mix._check_radius(checks.parse_json, "classical-starlike", "starlike", 1, 1,
                                  "bohr-rogosinski", KOEBE_ROOT)
    assert check(_out(good)) == []
    assert check(_out(good[:-1])) != []
    assert check(_out(good.replace('"starlike"', '"convex"'))) != []
    table = "\n".join(f"{k} {v}" for k, v in res.to_json_dict().items())
    check_table = cli_mix._check_radius(checks.parse_table, "classical-starlike", "starlike",
                                        1, 1, "bohr-rogosinski", KOEBE_ROOT)
    assert check_table(_out(table)) == []
    assert check_table(_out(table.replace("N 1", "N 2"))) != []
    assert check_table(_out("\n".join(table.splitlines()[:-1]))) != []


def test_exact_convex_check():
    assert cli_mix._check_exact_convex(_out("", code=2)) == []
    starlike = bohrad.solve_janowski_exact(1.0, -1.0).to_json_dict()
    table = "\n".join(f"{k} {v}" for k, v in starlike.items())
    assert cli_mix._check_exact_convex(_out(table)) != []
    convex = dict(starlike, psi="classical-convex", family="convex", r0=0.2)
    assert cli_mix._check_exact_convex(
        _out("\n".join(f"{k} {v}" for k, v in convex.items()))) == []


def test_sweep_check_rejects_a_decreasing_radius():
    check = cli_mix._check_sweep("sine", "starlike", range(1, 3))
    rows = [["sine", "starlike", "1", str(n), "bohr-rogosinski", r, r, "0", "34", "true"]
            for n, r in ((1, "0.25"), (2, "0.26"))]
    text = ",".join(checks.CSV_HEADER) + "\n" + "\n".join(",".join(r) for r in rows)
    assert check(_out(text)) == []
    assert check(_out(text.replace("0.26", "0.24"))) != []


def test_catalog_check():
    proc = subprocess.run([sys.executable, "-m", "bohrad.cli", "catalog"], capture_output=True,
                          text=True, cwd=ROOT, env=cli_mix.src_env(), check=True)
    assert cli_mix._check_catalog(_out(proc.stdout)) == []
    assert cli_mix._check_catalog(_out(proc.stdout.replace("0.25", "0.2500001"))) != []
    assert cli_mix._check_catalog(_out("\n".join(proc.stdout.splitlines()[1:]))) != []


# -- whole runs ------------------------------------------------------------------------


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], capture_output=True,
                          text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_completes(workload):
    proc = _run("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    n_ops = len(cli_mix.commands(5) if workload == "cli" else library.WORKLOADS[workload](5).ops)
    assert result["attempted"] % n_ops == 0 and result["attempted"] >= 2 * n_ops
    if workload == "cli":
        assert result["failed"] * n_ops == 2 * result["attempted"]
    else:
        assert result["failed"] == 0


def test_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "oracle-mc", "--seed", "5", "--seconds", "0.1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True, proc.stderr
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["metrics"]["series.compose_per_op"]["value"] > 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "radius-sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
