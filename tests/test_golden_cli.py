"""The golden CLI corpus: fixed commands replayed through ``cli.main`` and
compared with their checked-in output, ``tests/golden/cli.txt``.

The commands are the README's, the benchmark ``cli`` workload's eleven at
fixed seeds, one call for each suite and solver path, one booth
call far out in k, one call for each nonzero exit code, the two calls at
the least tol, the calls that reject an order below 1 or an N past the
order, one solve whose certified start is its root to rounding, the
verify calls at the edges of the oracle's chunk step, and the calls that
take the Bohr-Rogosinski suite's default psi or an entry's default family,
the verify calls given an empty --psi, the closed equation past the series
order, a sweep in JSON and as a table, and the Bohr limit given an N.
Each record of the corpus is the command, its exit code and
its stdout, one line per result row: text output (tables and CSV) line
for line as printed, and each JSON object on one line, with every list
of objects in it (a report's counterexamples, a sweep's results, the
catalog's entries) replaced by its length and its objects on the lines
that follow.

Everything compares exactly except ``residual`` and the floats of
``verify`` reports, which sit at the ulp level, where another BLAS or
numpy build can move them.  These compare within 1e-13 times the bound of
the command's checks: r* for radius rows and Bohr-Rogosinski reports, the
largest majorant tail M(f, N, r) of a tail or weighted suite (times tau),
and 1 for the axiom suite, whose sums are of that size.  An absolute bound
so scaled holds for margins near zero, where a relative one cannot.

The CI ``installed`` job replays this test against the installed package,
without the checkout's ``src`` on the path:

    python -m pytest -q -o pythonpath= tests/test_golden_cli.py

so the corpus is the one pin of printed output, checkout and install alike.

The test never writes the corpus.  A change that moves printed output on
purpose rewrites it with

    PYTHONPATH=src python tests/test_golden_cli.py --rewrite

and names in its change notes each group of commands that moved.
"""

import contextlib
import io
import json
import re
import shlex
import sys
from pathlib import Path

from bohrad import cli
from bohrad.catalog import parse_psi
from bohrad.extremal import build_extremal_pair, build_f0
from bohrad.oracle import bohr_tail
from bohrad.radius import Family, _family

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.txt"

COMMANDS = (
    # The README's commands.
    "radius --psi cardioid --mode bohr-limit",
    "radius --psi classical-starlike --m 1 --N 1 --format json",
    "radius --psi janowski:D=1,E=0 --m 1 --N 2 --method exact",
    "sweep --psi sine --N 1..10",
    "verify --psi cardioid --trials 1000 --seed 7 --N 1",
    "verify --lemma bohr-operator",
    "verify --weighted --tau 0.8 --trials 500",
    "verify --lemma br --psi cardioid --trials 200",
    "catalog",
    # The rest of the cli workload, at the seeds it draws at seed 0.
    "radius --psi classical-convex --mode bohr-limit --format csv",
    "verify --psi cardioid --trials 1000 --seed 885440 --N 1",
    "verify --weighted --tau 0.8 --trials 500 --seed 403958",
    "verify --lemma br --psi cardioid --trials 200 --seed 794772",
    "radius --psi janowski:D=1,E=-1 --format csv",
    "radius --psi classical-convex --method exact",
    # Each suite and solver path once: chunked tail and weighted suites,
    # the Bohr-Rogosinski suite in both modes and at order 256, rb capped
    # at 1/3 and rb = r0 > 1/3, the Bohr limit on the series and closed
    # paths, and booth's convex r* from a quadrature of its closed f0.
    "verify --lemma bohr-operator --trials 20",
    "verify --psi cardioid --N 1 --trials 50",
    "verify --weighted --trials 30",
    "verify --lemma br --psi sine --family convex --m 3 --N 2 --trials 50",
    "verify --lemma br --psi cardioid --mode bohr-limit --trials 50",
    "verify --lemma br --psi classical-starlike --m 24 --N 10 --order 256 --trials 50",
    "verify --lemma weighted --tau 0.5 --N 2 --trials 30",
    "verify --lemma weighted --tau 1 --order 8 --trials 30",
    "radius --psi janowski:D=1,E=0 --m 3 --N 3 --format json",
    "radius --psi classical-starlike --m 24 --N 10 --format json",
    "radius --psi janowski:D=1,E=0 --mode bohr-limit --format json",
    "radius --psi janowski:D=1,E=0 --mode bohr-limit --format json --method exact",
    "radius --psi booth --family convex --m 2 --N 2 --format json",
    # booth far out in k, whose closed f0 and r* hold to 12 digits only
    # through log1p (the README's catalog notes).
    "radius --psi booth:k=1e6 --format csv",
    # One call for each nonzero exit code: 2, 3 (a tolerance whose final
    # bracket shows no sign change) and 4.
    "radius --psi booth:",
    "radius --psi janowski:D=1,E=0 --m 50 --N 3 --method exact --tol 1e-15",
    "verify --N 2 --trials 30",
    # The other call at the floor tol = 1e-15 whose final brackets can show
    # no sign change: the rounding of G near a root decides it, not a bound.
    "sweep --psi janowski:D=0.8,E=0.65 --N 1..24 --tol 1e-15",
    # Truncation orders below 1, and an N past the order, each exit 2.
    "radius --psi cardioid --order 0",
    "radius --psi cardioid --order -5",
    "radius --psi cardioid --N 65",
    "sweep --psi cardioid --N 60..65",
    "verify --order 0 --trials 5",
    "verify --lemma br --psi cardioid --N 65 --trials 5",
    # A certified start that is the root to rounding, restarted just above.
    "radius --psi classical-starlike --m 1000 --N 64",
    # The edges of the oracle's chunk step: a last chunk of 91 after one of
    # 809, degrees 0..7 in three chunks, the samples +-z alone, and the
    # Bohr-Rogosinski suite over degrees 0..7.
    "verify --order 8 --trials 900",
    "verify --degree-max 7 --trials 40",
    "verify --degree-max 0 --trials 20",
    "verify --lemma br --psi classical-starlike --m 24 --N 10 --degree-max 7 --trials 40",
    # The Bohr-Rogosinski suite's default psi, and the entry's default family
    # where no --family is given, for the suite and for a sweep.
    "verify --lemma br --trials 20",
    "verify --lemma br --psi classical-convex --trials 20",
    "sweep --psi classical-convex --N 1..3",
    # An empty label is a label, unknown to the catalog: exit 2.
    'verify --psi "" --trials 3',
    'verify --lemma br --psi "" --trials 3',
    # The closed equation has no truncation order, so its N may pass the
    # series order; a sweep's JSON and table output; and the Bohr limit
    # given an N other than 1, exit 2.
    "radius --psi janowski:D=1,E=0 --N 65 --method exact",
    "sweep --psi cardioid --m 1..4 --N 2 --format json",
    "sweep --psi sine --N 1..3 --format table",
    "radius --psi cardioid --mode bohr-limit --N 2",
)

_HEADER = "$ bohrad "
_NUMBER = r"-?(?:\d+(?:\.\d*)?(?:e[-+]?\d+)?|Infinity|NaN)"
_KEYS = ("residual", "worst_margin", "margin", "composed_tail", "majorant_tail",
         "weighted_tail", "scaled_majorant", "identity_margin_at_rb")
# A tolerant float and what precedes it: a JSON key of _KEYS, the residual
# line of a table, or the residual column of a CSV row (before iterations
# and sharp, the last two).
_TOLERANT = re.compile(rf'("(?:{"|".join(_KEYS)})": |^residual +'
                       rf'|,(?={_NUMBER},\d+,(?:true|false)$))({_NUMBER})')


def _rows(stdout: str) -> list[str]:
    """stdout as the corpus stores it, one line per result row."""
    try:
        payload = json.loads(stdout)
    except ValueError:
        return stdout.splitlines()
    objects = {key: value for key, value in payload.items()
               if isinstance(value, list) and all(isinstance(item, dict) for item in value)}
    rows = [json.dumps({**payload, **{key: len(value) for key, value in objects.items()}})]
    return rows + [json.dumps(item) for value in objects.values() for item in value]


def replay(command: str) -> list[str]:
    """The record of one command: its exit code, then its stdout's rows."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(shlex.split(command))
    return [f"exit {code}"] + _rows(stdout.getvalue())


def read_corpus() -> dict[str, list[str]]:
    records: dict[str, list[str]] = {}
    for line in CORPUS.read_text().splitlines():
        if line.startswith(_HEADER):
            lines = records[line[len(_HEADER):]] = []
        else:
            lines.append(line)
    return records


def _r_star(label: str, family: Family) -> float:
    pair = build_extremal_pair(parse_psi(label))
    return pair.koebe_starlike if family == Family.STARLIKE else pair.koebe_convex


def _bound(command: str, record: list[str]) -> float:
    """The bound of the command's checks, which scales its tolerance."""
    args = cli.build_parser().parse_args(shlex.split(command))
    if args.command != "verify":
        spec = parse_psi(args.psi)
        return _r_star(spec.label, _family(spec, args.family))
    config = json.loads(record[1])["config"]
    if config["check"] == "bohr-operator-axioms":
        return 1.0
    if config["check"] == "bohr-rogosinski":
        return _r_star(config["psi"], Family(config["family"]))
    n_values, r_values = config["N"], config["r"]
    if not isinstance(n_values, list):  # the weighted suite's one (N, r)
        n_values, r_values = [n_values], [r_values]
    # M(f, N, r) is largest at the least N and the largest r.
    return config.get("tau", 1.0) * max(
        bohr_tail(build_f0(parse_psi(label), config["order"]), min(n_values), max(r_values))
        for label in config["psis"])


def _split(line: str) -> tuple[str, list[float]]:
    """The line with its tolerant floats masked, and those floats."""
    values = []

    def mask(match):
        values.append(float(match[2]))
        return match[1] + "#"

    return _TOLERANT.sub(mask, line), values


def _differences(command: str, old: list[str], new: list[str]) -> list[str]:
    """The lines of ``new`` that differ from ``old`` beyond the bound."""
    if len(old) != len(new):
        return [f"{len(old)} lines, now {len(new)}: {old[:3]} -> {new[:3]}"]
    found, bound = [], None
    for i, (was, now) in enumerate(zip(old, new)):
        if was == now:
            continue
        (masked_was, floats_was), (masked_now, floats_now) = _split(was), _split(now)
        if masked_was == masked_now:
            bound = _bound(command, old) if bound is None else bound
            if all(abs(a - b) <= 1e-13 * bound for a, b in zip(floats_was, floats_now)):
                continue
        found.append(f"line {i}:\n  old: {was}\n  new: {now}")
    return found


def test_cli_output_matches_the_golden_corpus():
    corpus = read_corpus()
    assert list(corpus) == list(COMMANDS), "the corpus is stale: rewrite it (see the docstring)"
    failures = [f"$ bohrad {command}\n{difference}"
                for command in COMMANDS
                for difference in _differences(command, corpus[command], replay(command))]
    assert not failures, "\n".join(failures[:5])


def write_corpus() -> None:
    lines = []
    for command in COMMANDS:
        lines += [_HEADER + command] + replay(command)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit("usage: python tests/test_golden_cli.py --rewrite")
    write_corpus()
