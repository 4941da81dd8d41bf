"""Command-line interface: exit codes, formats, determinism."""

import csv
import gc
import io
import json
import math
import os
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import bohrad
from bohrad import cli
from bohrad.cli import CSV_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- radius ----------------------------------------------------------------


def test_radius_cardioid_bohr_limit(capsys):
    code, out, _ = run_cli(
        capsys, "radius", "--psi", "cardioid", "--family", "starlike",
        "--mode", "bohr-limit", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["r0"] - 0.25588) <= 1e-4
    assert payload["mode"] == "bohr-limit"


def test_radius_classical_table(capsys):
    code, out, _ = run_cli(capsys, "radius", "--psi", "classical-starlike",
                           "--m", "1", "--N", "1")
    assert code == 0
    assert "r0         0.101020514434" in out


def test_radius_janowski_exact_method_agrees(capsys):
    code, out_series, _ = run_cli(
        capsys, "radius", "--psi", "janowski:D=1,E=0", "--m", "1", "--N", "2",
        "--format", "json",
    )
    assert code == 0
    code, out_exact, _ = run_cli(
        capsys, "radius", "--psi", "janowski:D=1,E=0", "--m", "1", "--N", "2",
        "--method", "exact", "--format", "json",
    )
    assert code == 0
    r_series = json.loads(out_series)["r0"]
    r_exact = json.loads(out_exact)["r0"]
    assert abs(r_series - r_exact) <= 1e-8


def test_radius_convex_pole_near_minus_one(capsys):
    # psi has its pole at -1/0.999, where the quadrature rules disagree; the
    # convex Koebe radius is the catalog's closed form.
    code, out, _ = run_cli(capsys, "radius", "--psi", "janowski:D=1,E=0.999",
                           "--family", "convex")
    assert code == 0
    assert "r0         0.499350541385" in out


def child_env():
    """The environment of a child interpreter that imports this checkout's bohrad."""
    src = str(Path(bohrad.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_python(*args):
    """A child interpreter that imports this checkout's bohrad."""
    return subprocess.run([sys.executable, *args], env=child_env(), capture_output=True,
                          text=True)


def test_import_leaves_scipy_unloaded():
    # numpy is the one runtime dependency; the test extras stay unloaded.
    extras = ("scipy", "mpmath", "sympy", "hypothesis")
    code = ("import sys, bohrad, bohrad.cli; "
            f"print(sorted(m for m in sys.modules if m.split('.')[0] in {extras!r}))")
    child = run_python("-c", code)
    assert child.returncode == 0
    assert child.stdout.strip() == "[]"


def test_import_leaves_numpy_unloaded_and_loads_every_layer():
    # numpy loads at the first array operation; every layer module still
    # loads with the package, so an import profile sees each of them.  No
    # record is a dataclass, so neither dataclasses nor the inspect it
    # imports is loaded either.
    code = ("import sys, bohrad, bohrad.cli; print('numpy' in sys.modules, "
            "'dataclasses' in sys.modules, 'inspect' in sys.modules, "
            "sorted(m for m in sys.modules if m.startswith('bohrad.')))")
    child = run_python("-c", code)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == ("False False False ['bohrad.catalog', 'bohrad.cli', "
                                    "'bohrad.extremal', 'bohrad.oracle', 'bohrad.radius', "
                                    "'bohrad.series']")


@pytest.mark.parametrize("argv, exit_code", [
    ("radius --psi cardioid --mode bohr-limit", 0),
    ("radius --psi classical-starlike --m 1 --N 1 --format json", 0),
    ("radius --psi classical-convex --mode bohr-limit --format csv", 0),
    ("radius --psi janowski:D=1,E=0 --m 1 --N 2 --method exact", 0),
    ("radius --psi janowski:D=1,E=-1 --format csv", 0),
    ("catalog", 0),
    ("radius --psi classical-convex --method exact", 2),
])
def test_a_call_without_arrays_leaves_numpy_unloaded(argv, exit_code):
    # A lone solve from the catalog's recurrence, the listing and a usage
    # error need no arrays; the check runs at exit, through the entry point.
    code = ("import atexit, sys; atexit.register(lambda: print('numpy' in sys.modules, "
            "file=sys.stderr)); from bohrad import cli; cli.run()")
    child = run_python("-c", code, *argv.split())
    assert child.returncode == exit_code, child.stderr
    assert child.stderr.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", [
    "radius --psi cardioid --family convex",
    "verify --lemma br --psi cardioid --trials 20",
])
def test_a_convex_radius_by_quadrature_leaves_numpy_polynomial_unloaded(argv):
    # The Gauss-Legendre rules come from numpy's core: no eigen-solve, and
    # none of numpy.polynomial's modules.
    code = ("import atexit, sys; atexit.register(lambda: print('numpy' in sys.modules, "
            "'numpy.polynomial' in sys.modules, file=sys.stderr)); from bohrad import cli; "
            "cli.run()")
    child = run_python("-c", code, *argv.split())
    assert child.returncode == 0, child.stderr
    assert child.stderr.splitlines()[-1] == "True False"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_reader_ends_the_process_on_sigpipe():
    # Some 290 kB of CSV, more than a pipe holds: the child is still writing
    # when the reader stops after one line, as `| head -1` does.
    child = subprocess.Popen(
        [sys.executable, "-m", "bohrad.cli", "sweep", "--psi", "cardioid", "--m", "1..3000",
         "--N", "2"], env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline().startswith(b"psi,family,m,N,")
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=30) == -signal.SIGPIPE
    assert stderr == b""


@pytest.mark.parametrize("argv, exit_code", [
    (("catalog",), 0),
    (("radius", "--psi", "cardioid", "--mode", "bohr-limit", "--format", "json"), 0),
    (("verify", "--psi", "sine", "--N", "3", "--trials", "50"), 4),
    (("radius", "--psi", "booth:"), 2),
], ids=["catalog", "radius", "verify", "bad-psi"])
def test_module_entry_point_prints_what_main_prints(capsys, argv, exit_code):
    code, out, err = run_cli(capsys, *argv)
    child = run_python("-m", "bohrad.cli", *argv)
    assert code == exit_code
    assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


def test_entry_point_freezes_and_main_does_not(capsys):
    # The process entry freezes what the imports left; main(), called many
    # times in one process, leaves the collector as it found it.
    stub = ("import gc, bohrad.cli as cli; "
            "cli.main = lambda: print(gc.get_freeze_count()) or 0; cli.run()")
    child = run_python("-c", stub)
    assert child.returncode == 0, child.stderr
    assert int(child.stdout) > 0
    frozen = gc.get_freeze_count()
    assert run_cli(capsys, "catalog")[0] == 0
    assert gc.get_freeze_count() == frozen


def test_entry_point_sets_one_blas_thread_and_main_does_not(capsys, monkeypatch):
    # The process entry asks for one OpenBLAS thread before numpy loads,
    # unless the caller chose a count; main() sets nothing process-wide.
    stub = ("import os, bohrad.cli as cli; "
            "cli.main = lambda: print(os.environ.get('OPENBLAS_NUM_THREADS')) or 0; cli.run()")
    env = {k: v for k, v in child_env().items() if k != "OPENBLAS_NUM_THREADS"}
    for given, seen in ((None, "1"), ("2", "2")):
        child = subprocess.run([sys.executable, "-c", stub], capture_output=True, text=True,
                               env=env if given is None else dict(env, OPENBLAS_NUM_THREADS=given))
        assert child.returncode == 0, child.stderr
        assert child.stdout.strip() == seen
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    assert run_cli(capsys, "catalog")[0] == 0
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_entry_point_freezes_what_the_command_loaded():
    # verify imports numpy inside main(); the freeze after main() keeps its
    # objects out of the shutdown collections too.
    stub = ("import atexit, gc, sys, bohrad.cli as cli; command = cli.main; "
            "cli.main = lambda: print(gc.get_freeze_count(), file=sys.stderr) or command(); "
            "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr)); cli.run()")
    child = run_python("-c", stub, "verify", "--lemma", "bohr-operator", "--trials", "20")
    assert child.returncode == 0, child.stderr
    before_main, at_exit = map(int, child.stderr.split())
    assert at_exit > before_main + 1000


PUBLIC_NAMES = [
    "BracketError", "DEFAULT_ORACLE_PSIS", "Family", "IDENTITY_SAMPLE",
    "InequalityViolation", "Mode", "OrderMismatchError", "QuadratureError",
    "RadiusProblem", "SchwarzSample", "build_extremal_pair", "build_f0", "cardioid",
    "g_function", "janowski", "named_labels", "parse_psi", "run_axiom_suite",
    "run_br_suite", "run_tail_suite", "run_weighted_suite", "schwarz_series", "sine",
    "solve", "solve_janowski_exact", "sweep", "verify_tail_inequality",
]


def test_public_surface_is_the_names_callers_use():
    assert sorted(bohrad.__all__) == PUBLIC_NAMES
    assert all(getattr(bohrad, name) is not None for name in bohrad.__all__)
    namespace = {}
    exec("from bohrad import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def test_radius_exact_method_needs_janowski(capsys):
    code, _, err = run_cli(capsys, "radius", "--psi", "sine", "--method", "exact")
    assert code == 2
    assert "error" in err


def test_radius_exact_method_rejects_convex_family(capsys):
    for argv in (("--psi", "classical-convex"),
                 ("--psi", "janowski:D=1,E=-1", "--family", "convex")):
        code, out, err = run_cli(capsys, "radius", *argv, "--method", "exact")
        assert code == 2
        assert out == ""
        assert "error" in err


def test_radius_exact_method_rejects_positive_e(capsys):
    code, out, err = run_cli(capsys, "radius", "--psi", "janowski:D=0.8,E=0.65",
                             "--m", "1", "--N", "3", "--method", "exact")
    assert code == 2
    assert out == ""
    assert "E <= 0" in err and "series" in err


def test_radius_exact_method_prints_catalog_label(capsys):
    code, out, _ = run_cli(capsys, "radius", "--psi", "classical-starlike",
                           "--method", "exact")
    assert code == 0
    assert "psi        classical-starlike" in out
    assert "r0         0.101020514434" in out


def test_radius_exact_method_rejects_order(capsys):
    # The closed equation has no truncation order to honour.
    code, out, err = run_cli(capsys, "radius", "--psi", "janowski:D=1,E=0",
                             "--method", "exact", "--order", "256")
    assert code == 2
    assert out == ""
    assert "--order" in err


def test_radius_exact_method_takes_n_past_the_series_order(capsys):
    # At N = 100 the tail of z e^z is below rounding, so the root is the
    # Lambert value r e^r = e^-1 of the point term alone.
    code, out, _ = run_cli(capsys, "radius", "--psi", "janowski:D=1,E=0", "--N", "100",
                           "--method", "exact", "--format", "json")
    assert code == 0
    r0 = json.loads(out)["r0"]
    assert abs(r0 * math.exp(r0) - math.exp(-1.0)) <= 1e-11
    code, _, err = run_cli(capsys, "radius", "--psi", "janowski:D=1,E=0", "--N", "100")
    assert code == 2
    assert "exceeds the truncation order 64" in err


def test_radius_invalid_psi_exits_2(capsys):
    for label in ("", "heart", "janowski:D=1,E=-1,X=3", "booth:k=inf", "janowski:D,E",
                  "janowski:D=1=2,E=0", "booth:k", "booth:", "sine:", "cardioid:",
                  "zexpz:", "classical-starlike:"):
        code, out, err = run_cli(capsys, "radius", "--psi", label)
        assert code == 2
        assert out == ""
        assert "error" in err and repr(label) in err


def _assert_usage_error_names_psi(capsys, *argv):
    # radius and sweep require --psi: argparse exits on its usage error.
    with pytest.raises(SystemExit) as excinfo:
        main(list(argv))
    assert excinfo.value.code == 2
    assert "--psi" in capsys.readouterr().err


def test_radius_missing_psi_exits_2(capsys):
    _assert_usage_error_names_psi(capsys, "radius")


def test_sweep_missing_psi_exits_2(capsys):
    _assert_usage_error_names_psi(capsys, "sweep", "--N", "1..3")


def test_radius_csv_format(capsys):
    code, out, _ = run_cli(capsys, "radius", "--psi", "cardioid", "--format", "csv")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("cardioid,starlike,1,1,bohr-rogosinski,")


def test_csv_quotes_janowski_labels(capsys):
    for argv in (("radius", "--format", "csv"), ("sweep", "--N", "1..3")):
        code, out, _ = run_cli(capsys, *argv, "--psi", "janowski:D=1,E=-1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == CSV_HEADER.split(",")
        assert all(len(row) == 10 and row[0] == "janowski:D=1,E=-1" for row in rows[1:])


def test_radius_output_deterministic(capsys):
    args = ("radius", "--psi", "booth", "--N", "3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# -- sweep ------------------------------------------------------------------


def test_sweep_sine_stabilizes(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--psi", "sine", "--N", "1..10",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    final = [float(line.split(",")[5]) for line in lines[-2:]]
    assert all(0.2905 <= r0 <= 0.2908 for r0 in final)


def test_sweep_m_axis_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--psi", "cardioid", "--m", "1..4",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["axis"] == "m"
    assert payload["values"] == [1, 2, 3, 4]
    assert payload["monotone_nondecreasing"] is True


def test_sweep_table_is_the_csv_and_a_monotonicity_line(capsys):
    args = ("sweep", "--psi", "sine", "--N", "1..10")
    code, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    code, table_out, err = run_cli(capsys, *args, "--format", "table")
    assert code == 0
    assert err == ""
    assert table_out == csv_out + "# N sweep monotone nondecreasing: true\n"


def test_sweep_empty_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "sweep", "--psi", "sine", "--N", "5..3")
    assert code == 2
    assert "error" in err


def test_sweep_needs_exactly_one_range(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--psi", "sine")
    assert code == 2
    code, _, _ = run_cli(capsys, "sweep", "--psi", "sine", "--N", "1..3",
                         "--m", "1..2")
    assert code == 2


def test_sweep_deterministic(capsys):
    args = ("sweep", "--psi", "cardioid", "--N", "1..6", "--format", "csv")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


# In each, a Newton step falls below half an ulp of hi while the secant
# bound is still more than tol/2 below it, so the solve ends by bisection.
ONCE_STALLED = [
    ("radius", "--psi", "cardioid", "--m", "1000000", "--N", "10"),
    ("sweep", "--psi", "cardioid", "--m", "1000000", "--N", "9..10"),
    ("radius", "--psi", "sine", "--m", "24", "--N", "10", "--tol", "1e-15"),
]


@pytest.mark.parametrize("argv", ONCE_STALLED, ids=lambda argv: " ".join(argv[:5]))
def test_stalled_newton_steps_return_a_certified_bracket(argv):
    done = subprocess.run([sys.executable, "-m", "bohrad.cli", *argv, "--format", "json"],
                          env=child_env(), capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    # It returns, so the same solves can be checked in-process.
    opts = dict(zip(argv[1::2], argv[2::2]))
    tol = float(opts.get("--tol", 1e-10))
    spec = bohrad.parse_psi(opts["--psi"])
    pair = bohrad.build_extremal_pair(spec, 64)
    base = bohrad.RadiusProblem(psi=spec, m=int(opts["--m"]), tol=tol)
    if argv[0] == "radius":
        problems = [base._replace(N=int(opts["--N"]))]
        results = [bohrad.solve(problems[0], pair)]
        assert json.loads(done.stdout)["r0"] == float(f"{results[0].r0:.12g}")
    else:
        problems = [base._replace(N=n) for n in (9, 10)]
        results = bohrad.sweep(base, n_values=(9, 10)).results
        assert [row["r0"] for row in json.loads(done.stdout)["results"]] == [
            float(f"{res.r0:.12g}") for res in results]
    for prob, res in zip(problems, results):
        lo, hi = res.bracket
        assert lo < res.r0 < hi and hi - lo <= tol
        assert bohrad.g_function(prob, pair, lo) < 0.0 < bohrad.g_function(prob, pair, hi)


@pytest.mark.parametrize("argv", [
    ("radius", "--psi", "cardioid", "--family", "convex", "--m", "1000000000", "--N", "10"),
    ("sweep", "--psi", "cardioid", "--family", "convex", "--m", "999999999..1000000000",
     "--N", "10"),
], ids=["radius", "sweep"])
def test_root_above_one_minus_1e_9_is_solved(capsys, argv):
    # At m = 10^9 the root lies above 1 - 1e-9.  The certified start
    # (r*)^(1/m) is below 1, so it is kept, not capped below the root.
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out)
    rows = payload["results"] if argv[0] == "sweep" else [payload]
    spec = bohrad.parse_psi("cardioid")
    pair = bohrad.build_extremal_pair(spec, 64)
    for row in rows:
        assert 1.0 - 1e-9 < row["r0"] < 1.0
        prob = bohrad.RadiusProblem(psi=spec, family=bohrad.Family.CONVEX, m=row["m"], N=10)
        res = bohrad.solve(prob, pair)
        assert row["r0"] == float(f"{res.r0:.12g}")
        lo, hi = res.bracket
        assert lo < res.r0 < hi < 1.0 and hi - lo <= prob.tol
        assert bohrad.g_function(prob, pair, lo) < 0.0 < bohrad.g_function(prob, pair, hi)


@pytest.mark.parametrize("argv", [
    ("radius", "--psi", "janowski:D=0.5,E=-0.5", "--m", "3", "--N", "5"),
    ("radius", "--psi", "janowski:D=0.5,E=-0.5", "--m", "3", "--N", "5", "--method", "exact"),
    ("sweep", "--psi", "cardioid", "--N", "1..5"),
], ids=["radius", "exact", "sweep"])
def test_tol_below_1e_15_exits_2(capsys, argv):
    # Past r = 1/2 a tol/5 widening of 2e-17 is below half an ulp, so the
    # widened bracket would collapse to a point.
    code, out, err = run_cli(capsys, *argv, "--tol", "1e-16")
    assert code == 2
    assert out == ""
    assert "tol" in err


# -- verify -----------------------------------------------------------------


def test_verify_cardioid_tail_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--psi", "cardioid",
                           "--trials", "150", "--seed", "7", "--N", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["seed"] == 7


def test_verify_full_catalog_reports_known_counterexamples(capsys):
    # The default run includes the sine entry, whose N >= 2 tail claim has
    # genuine counterexamples; the tool must find them and exit 4.
    code, out, _ = run_cli(capsys, "verify", "--trials", "200", "--seed", "7")
    assert code == 4
    payload = json.loads(out)
    assert payload["violations"] > 0
    assert payload["counterexamples"]


def test_verify_bohr_operator(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "bohr-operator",
                           "--trials", "100", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    documented = payload["config"]["documented_counterexample"]
    assert documented["holds"] is False
    assert documented["margin"] < 0


def test_verify_weighted_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--weighted", "--tau", "0.8",
                           "--trials", "100", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert payload["config"]["tau"] == 0.8


@pytest.mark.parametrize("lemma", ["tail", "bohr-operator", "br"])
def test_verify_weighted_flag_rejects_another_lemma(capsys, lemma):
    code, out, err = run_cli(capsys, "verify", "--weighted", "--lemma", lemma,
                             "--trials", "10")
    assert code == 2
    assert out == ""
    assert "--weighted" in err and lemma in err


def test_verify_weighted_flag_is_the_weighted_lemma(capsys):
    args = ("verify", "--trials", "10", "--seed", "1")
    runs = [run_cli(capsys, *args, *flags)
            for flags in (("--weighted",), ("--lemma", "weighted"),
                          ("--weighted", "--lemma", "weighted"))]
    assert [code for code, _, _ in runs] == [0, 0, 0]
    assert runs[0][1] == runs[1][1] == runs[2][1]
    assert json.loads(runs[0][1])["config"]["check"] == "weighted-tail"


def test_verify_br(capsys):
    code, out, _ = run_cli(capsys, "verify", "--lemma", "br", "--psi", "cardioid",
                           "--trials", "50", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["violations"] == 0
    assert abs(payload["config"]["identity_margin_at_rb"]) <= 1e-6


def test_verify_deterministic(capsys):
    args = ("verify", "--psi", "zexpz", "--trials", "80", "--seed", "11")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_rejects_tol():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--trials", "10", "--tol", "1e-4"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("lemma_args", [(), ("--weighted",), ("--lemma", "bohr-operator")])
@pytest.mark.parametrize("flag", [("--family", "convex"), ("--mode", "bohr-limit"),
                                  ("--m", "2")])
def test_verify_rejects_br_only_flags_for_other_lemmas(capsys, lemma_args, flag):
    code, out, err = run_cli(capsys, "verify", "--psi", "cardioid", "--trials", "50",
                             "--seed", "7", "--N", "1", *lemma_args, *flag)
    assert code == 2
    assert out == ""
    assert flag[0] in err


@pytest.mark.parametrize("lemma_args,flag", [
    *[(("--lemma", "bohr-operator"), flag)
      for flag in (("--psi", "cardioid"), ("--order", "32"), ("--N", "2"),
                   ("--degree-max", "2"), ("--tau", "0.5"))],
    ((), ("--tau", "0.5")),
    (("--lemma", "br", "--psi", "cardioid"), ("--tau", "0.5")),
])
def test_verify_rejects_flags_the_lemma_does_not_read(capsys, lemma_args, flag):
    code, out, err = run_cli(capsys, "verify", "--trials", "10", "--seed", "1",
                             *lemma_args, *flag)
    assert code == 2
    assert out == ""
    assert flag[0] in err


def test_verify_defaults_when_flags_are_not_given(capsys):
    _, out, _ = run_cli(capsys, "verify", "--weighted", "--trials", "10", "--seed", "1")
    config = json.loads(out)["config"]
    assert (config["tau"], config["degree_max"], config["order"]) == (0.8, 4, 64)


def test_verify_br_reads_family_mode_and_m(capsys):
    args = ("verify", "--lemma", "br", "--psi", "cardioid", "--trials", "10", "--seed", "2")
    code, out, _ = run_cli(capsys, *args, "--family", "convex", "--m", "2")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["family"], config["mode"], config["m"]) == ("convex", "bohr-rogosinski", 2)
    code, out, _ = run_cli(capsys, *args, "--family", "convex", "--mode", "bohr-limit")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["family"], config["mode"], config["m"]) == ("convex", "bohr-limit", 1)


@pytest.mark.parametrize("argv", [
    ("radius", "--psi", "cardioid", "--N", "3", "--m", "4"),
    ("radius", "--psi", "cardioid", "--m", "2"),
    ("radius", "--psi", "janowski:D=1,E=0", "--N", "2", "--method", "exact"),
    ("sweep", "--psi", "cardioid", "--N", "1..3"),
    ("sweep", "--psi", "cardioid", "--m", "1..3"),
    ("verify", "--lemma", "br", "--psi", "cardioid", "--trials", "10", "--N", "3",
     "--m", "2"),
])
def test_bohr_limit_rejects_n_and_m_other_than_1(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--mode", "bohr-limit")
    assert code == 2
    assert out == ""
    assert "bohr-limit" in err


@pytest.mark.parametrize("argv", [
    ("--N", "65"),
    ("--weighted", "--N", "70"),
    ("--lemma", "br", "--N", "70"),
    ("--psi", "sine", "--order", "16", "--N", "17"),
])
def test_verify_rejects_n_past_the_order(capsys, argv):
    # An empty tail window checks nothing; it must not pass as clean.
    code, out, err = run_cli(capsys, "verify", "--trials", "2", *argv)
    assert code == 2
    assert out == ""
    assert "exceeds the truncation order" in err


@pytest.mark.parametrize("lemma_args", [(), ("--weighted",)])
@pytest.mark.parametrize("order", ["0", "-3"])
def test_verify_rejects_an_order_below_1(capsys, lemma_args, order):
    code, out, err = run_cli(capsys, "verify", "--trials", "2", *lemma_args, "--order", order)
    assert code == 2
    assert out == ""
    assert "order must be at least 1" in err


@pytest.mark.parametrize("argv", [
    ("radius", "--psi", "cardioid"),
    ("sweep", "--psi", "cardioid", "--N", "1..3"),
])
@pytest.mark.parametrize("order", ["0", "-5"])
def test_radius_and_sweep_reject_an_order_below_1(capsys, argv, order):
    code, out, err = run_cli(capsys, *argv, "--order", order)
    assert code == 2
    assert out == ""
    assert err == "error: order must be at least 1\n"


@pytest.mark.parametrize("argv, message", [
    (("--weighted", "--tau", "0"), "tau must lie in (0, 1], got 0.0"),
    (("--weighted", "--tau", "1.5"), "tau must lie in (0, 1], got 1.5"),
    (("--degree-max", "-1"), "degree_max must be nonnegative"),
])
def test_verify_rejects_a_bad_tau_or_degree(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", "--trials", "2", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("tau", ["nan", "inf"])
def test_verify_names_a_tau_that_is_not_finite(capsys, tau):
    # tau is checked before the weight h = tau (1 + z)/2 is built from it.
    code, out, err = run_cli(capsys, "verify", "--lemma", "weighted", "--tau", tau,
                             "--trials", "2")
    assert code == 2
    assert out == ""
    assert err == f"error: tau must lie in (0, 1], got {float(tau)}\n"


@pytest.mark.parametrize("error", [cli.BracketError, cli.QuadratureError])
def test_solver_errors_exit_3(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error("no sign change")

    monkeypatch.setattr(cli, "solve", fail)
    code, out, err = run_cli(capsys, "radius", "--psi", "cardioid")
    assert code == 3
    assert out == ""
    assert err == "solver error: no sign change\n"


def test_verify_bad_trials(capsys):
    code, out, err = run_cli(capsys, "verify", "--trials", "0")
    assert code == 2
    assert out == ""
    assert err == "error: --trials must be at least 1\n"


# -- defaults and the README --------------------------------------------------


@pytest.mark.parametrize("argv, library_call", [
    (("verify", "--lemma", "tail"), bohrad.run_tail_suite),
    (("verify", "--lemma", "weighted"), bohrad.run_weighted_suite),
    (("verify", "--lemma", "br"), bohrad.run_br_suite),
    (("verify", "--lemma", "bohr-operator"), bohrad.run_axiom_suite),
    (("radius", "--psi", "cardioid", "--format", "json"),
     lambda: bohrad.solve(bohrad.RadiusProblem(bohrad.parse_psi("cardioid")))),
    (("radius", "--psi", "janowski:D=1,E=0", "--method", "exact", "--format", "json"),
     lambda: bohrad.solve_janowski_exact(1, 0)),
], ids=["tail", "weighted", "br", "bohr-operator", "radius", "radius-exact"])
def test_a_flag_not_given_takes_the_library_default(capsys, argv, library_call):
    _, out, _ = run_cli(capsys, *argv)
    expected = cli._round12(library_call().to_json_dict())
    assert out == json.dumps(expected, indent=2) + "\n"


@pytest.mark.parametrize("lemma, runner, exit_code", [
    ("tail", "run_tail_suite", 4),
    ("weighted", "run_weighted_suite", 0),
    ("br", "run_br_suite", 0),
    ("bohr-operator", "run_axiom_suite", 0),
])
def test_verify_passes_on_no_psi_or_family_that_was_not_given(capsys, monkeypatch, lemma,
                                                              runner, exit_code):
    # The suites hold the default labels and the entry's default family;
    # with no optional flag given, the CLI passes its runner no keyword.
    calls = []
    original = getattr(cli.oracle, runner)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(cli.oracle, runner, record)
    assert run_cli(capsys, "verify", "--lemma", lemma)[0] == exit_code
    assert calls == [((), {})]


@pytest.mark.parametrize("lemma_args", [(), ("--weighted",), ("--lemma", "br"),
                                        ("--lemma", "bohr-operator")])
def test_verify_rejects_an_empty_psi(capsys, lemma_args):
    # An empty label is a label, which no suite knows; it is not "no --psi".
    code, out, err = run_cli(capsys, "verify", "--psi", "", *lemma_args, "--trials", "3")
    assert code == 2
    assert out == ""
    assert ("--psi" if "bohr-operator" in lemma_args else "''") in err


def readme_commands():
    """Each ``bohrad`` line of the README's CLI block, as argv, with the
    ``# -> ...`` comment below it or ''."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.split("## CLI\n\n```sh\n", 1)[1].split("```", 1)[0].splitlines()
    return [(shlex.split(line)[1:], below if below.startswith("# -> ") else "")
            for line, below in zip(lines, lines[1:] + [""]) if line.startswith("bohrad ")]


def printed_r0(out: str) -> str:
    """The last r0 of a table, JSON or CSV output, as printed."""
    if out.startswith("{"):
        return repr(json.loads(out)["r0"])
    if out.startswith(CSV_HEADER):
        return list(csv.DictReader(io.StringIO(out)))[-1]["r0"]
    return next(line.split()[1] for line in out.splitlines() if line.startswith("r0 "))


README_COMMANDS = readme_commands()


def test_readme_cli_block_has_its_commands():
    assert len(README_COMMANDS) == 9


@pytest.mark.parametrize("argv, comment", README_COMMANDS,
                         ids=[" ".join(argv) for argv, _ in README_COMMANDS])
def test_readme_cli_commands_print_what_the_readme_says(capsys, argv, comment):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if comment.startswith("# -> r0 = "):
        assert printed_r0(out) == comment.split()[4]
    elif "stabilizes at" in comment:
        assert printed_r0(out).startswith(comment.split("stabilizes at ")[1].split()[0])
    else:
        assert comment == ""


@pytest.mark.parametrize("family", ["starlike", "convex"])
@pytest.mark.parametrize("m, N", [(1, 1), (2, 2), (3, 5), (24, 10)])
def test_booth_at_large_k_prints_the_radii_of_z_exp_z(capsys, family, m, N):
    # As k grows, booth's f0 = z e^-z (k/(k-z))^(2k) tends to z e^z, the
    # extremal of janowski:D=1,E=0.
    def r0(label):
        code, out, _ = run_cli(capsys, "radius", "--psi", label, "--family", family,
                               "--m", str(m), "--N", str(N), "--format", "json")
        assert code == 0
        return json.loads(out)["r0"]

    assert r0("booth:k=1e17") == r0("janowski:D=1,E=0")


# -- catalog ------------------------------------------------------------------


def test_catalog_listing(capsys):
    code, out, _ = run_cli(capsys, "catalog")
    assert code == 0
    for label in ("classical-starlike", "cardioid", "zexpz", "booth", "sine"):
        assert label in out


def test_catalog_json(capsys):
    code, out, _ = run_cli(capsys, "catalog", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    labels = [entry["psi"] for entry in payload["entries"]]
    assert "cardioid" in labels
    assert "alpha:0.25" in labels


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["radius", "--psi", "cardioid", "--format", "yaml"])
    assert excinfo.value.code == 2
