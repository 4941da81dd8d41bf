"""The ``cli`` workload: the README's commands as child processes.

Import and the CLI layer do most of the work of each call.  This module
does not import ``bohrad``: the benchmark process only starts the calls
and judges their output.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import checks
import hostref
from ops import BENCH_DIR, ROOT, Op, Workload, src_env
from tracing import TRACE_MARK


@dataclass
class CliOutput:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: int
    # Span totals the traced child recorded (empty when untraced).
    trace: dict


def run_cli(argv: list, traced: bool) -> CliOutput:
    """One CLI call in a child process, with the child's own peak RSS."""
    if traced:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "bohrad.cli", *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=src_env(), cwd=ROOT, text=True)
    # The CLI writes little to stderr, so reading stdout first cannot block.
    with proc.stdout, proc.stderr:
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    trace = {}
    lines = stderr.splitlines()
    if traced and lines and lines[-1].startswith(TRACE_MARK):
        trace = json.loads(lines[-1][len(TRACE_MARK):])
        stderr = "\n".join(lines[:-1])
    return CliOutput(proc.returncode, stdout, stderr, usage.ru_maxrss, trace)


def _exit_ok(out: CliOutput) -> list:
    if out.returncode != 0:
        return [f"exit {out.returncode}: {out.stderr.strip()[-200:]}"]
    return []


def _check_radius(parse, psi, family, m, N, mode, r0):
    """A single radius result, printed as a table, JSON or CSV."""
    def check(out):
        row, errors = parse(out.stdout)
        errors = _exit_ok(out) + errors
        if row:
            errors += checks.check_result_row(row, psi, family, m, N, mode, r0)
        return errors
    return check


def _one_csv_row(text):
    rows, errors = checks.parse_csv(text)
    if not errors and len(rows) != 1:
        errors.append(f"{len(rows)} CSV rows, want 1")
    return (rows[0] if len(rows) == 1 and not errors else {}), errors


def _check_sweep(psi, family, values):
    def check(out):
        rows, errors = checks.parse_csv(out.stdout)
        errors = _exit_ok(out) + errors
        if [row["N"] for row in rows] != list(values):
            return errors + [f"sweep rows for N={[row['N'] for row in rows]}"]
        for row in rows:
            errors += checks.check_result_row(row, psi, family, 1, row["N"], "bohr-rogosinski")
        return errors + checks.check_nondecreasing(psi, [row["r0"] for row in rows])
    return check


def _check_verify(trials, check_config=None):
    def check(out):
        rep, errors = checks.parse_json(out.stdout)
        errors = _exit_ok(out) + errors
        if not rep:
            return errors
        errors += checks.check_clean_report(rep)
        if rep.get("trials") != trials:
            errors.append(f"report for {rep.get('trials')} trials, want {trials}")
        if check_config is not None:
            errors += check_config(rep.get("config", {}))
        return errors
    return check


def _check_catalog(out):
    koebe, errors = checks.parse_catalog(out.stdout)
    errors = _exit_ok(out) + errors
    want = checks.catalog_koebe()
    if sorted(koebe) != sorted(want):
        return errors + [f"catalog lists {sorted(koebe)!r}"]
    for label, value in want.items():
        errors += checks.check_rel(f"catalog {label} Koebe radius", koebe[label], value,
                                   checks.PRINTED_RTOL)
    return errors


def _check_exact_convex(out):
    """Rejected with exit 2, or solved for the convex class (r0 = 1/5)."""
    if out.returncode == 2:
        return []
    return _check_radius(checks.parse_table, "classical-convex", "convex", 1, 1,
                         "bohr-rogosinski", 0.2)(out)


def commands(seed: int) -> list:
    """(argv, check, known fault) for the README's commands and two faulty ones."""
    rng = random.Random(seed)
    s_tail, s_weighted, s_br = (rng.randrange(10**6) for _ in range(3))
    koebe_root = 5.0 - 2.0 * math.sqrt(6.0)
    cardioid_br = checks.cardioid_br_radius()
    table = [
        (["radius", "--psi", "cardioid", "--mode", "bohr-limit"],
         _check_radius(checks.parse_table, "cardioid", "starlike", 1, 1, "bohr-limit",
                       checks.cardioid_bohr_radius()), None),
        (["radius", "--psi", "classical-starlike", "--m", "1", "--N", "1", "--format", "json"],
         _check_radius(checks.parse_json, "classical-starlike", "starlike", 1, 1,
                       "bohr-rogosinski", koebe_root), None),
        (["radius", "--psi", "classical-convex", "--mode", "bohr-limit", "--format", "csv"],
         _check_radius(_one_csv_row, "classical-convex", "convex", 1, 1, "bohr-limit",
                       1.0 / 3.0), None),
        (["radius", "--psi", "janowski:D=1,E=0", "--m", "1", "--N", "2", "--method", "exact"],
         _check_radius(checks.parse_table, "janowski:D=1,E=0", "starlike", 1, 2,
                       "bohr-rogosinski", checks.janowski_e0_radius(1.0, 1, 2)), None),
        (["sweep", "--psi", "sine", "--N", "1..10"],
         _check_sweep("sine", "starlike", range(1, 11)), None),
        (["verify", "--psi", "cardioid", "--trials", "1000", "--seed", str(s_tail), "--N", "1"],
         _check_verify(1000), None),
        (["verify", "--weighted", "--tau", "0.8", "--trials", "500", "--seed", str(s_weighted)],
         _check_verify(500), None),
        (["verify", "--lemma", "br", "--psi", "cardioid", "--trials", "200", "--seed", str(s_br)],
         _check_verify(200, lambda cfg: checks.check_close("br r0", cfg.get("r0", math.nan),
                                                           cardioid_br)), None),
        (["catalog"], _check_catalog, None),
        (["radius", "--psi", "janowski:D=1,E=-1", "--format", "csv"],
         _check_radius(_one_csv_row, "janowski:D=1,E=-1", "starlike", 1, 1, "bohr-rogosinski",
                       koebe_root),
         "CSV rows are not quoted: the label's comma splits the row into 11 fields"),
        (["radius", "--psi", "classical-convex", "--method", "exact"], _check_exact_convex,
         "--method exact ignores --family: prints the starlike root under a Janowski label"),
    ]
    rng.shuffle(table)
    return table


def build(seed: int) -> Workload:
    ops = [Op(" ".join(argv), call=lambda traced, argv=argv: run_cli(argv, traced),
              check=check, units=1, known_fault=fault)
           for argv, check, fault in commands(seed)]
    # The reference costs almost as much as a call, so it runs after every
    # second call.
    return Workload("cli", ops, hostref.process_ref, subprocess_ops=True, ops_per_ref=2)
