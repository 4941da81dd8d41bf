"""Command-line front end: radius solving, sweeps, catalog, verification.

Exit codes: 0 success, 2 usage/configuration error, 3 solver failure,
4 verification found violations.  Where the platform has SIGPIPE, the
``bohrad`` process ends on it when its reader closes the pipe early, as
``seq`` or ``cat`` do: no traceback, shell status 141.  All numeric output
is printed with 12 significant digits and identical inputs produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import signal
import sys

from . import catalog
from .extremal import QuadratureError
from .radius import (
    DEFAULT_TOL,
    BracketError,
    Family,
    Mode,
    RadiusProblem,
    RadiusResult,
    solve,
    solve_janowski_exact,
    sweep,
)
from .series import DEFAULT_ORDER
from . import oracle

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_VIOLATIONS = 4

CSV_HEADER = ",".join(name for name in RadiusResult._fields if name != "bracket")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _round12(value):
    """Round floats to 12 significant digits for stable JSON output."""
    if isinstance(value, float):
        return float(_fmt(value))
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _emit_json(payload: dict) -> None:
    print(json.dumps(_round12(payload), indent=2))


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _fmt(value)
    return str(value)


def _print_csv(results) -> None:
    print(CSV_HEADER)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for res in results:
        writer.writerow(_cell(v) for v in res.to_json_dict().values())


def _print_result(res: RadiusResult, fmt: str) -> None:
    if fmt == "json":
        _emit_json(res.to_json_dict())
    elif fmt == "csv":
        _print_csv([res])
    else:
        for key, value in res.to_json_dict().items():
            print(f"{key:10s} {_cell(value)}")


def _parse_range(text: str) -> list[int]:
    """``a..b`` inclusive, or a single integer."""
    if ".." in text:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
        return list(range(lo, hi + 1))
    return [int(text)]


def _family(args, spec) -> Family:
    return Family(args.family or spec.default_family)


def _given(**options) -> dict:
    """The options whose flag was given; the library call applies its own
    default to the others."""
    return {name: value for name, value in options.items() if value is not None}


def _mode(args, *indices) -> Mode | None:
    """The requested mode, if given; the Bohr limit (m -> infinity at N = 1)
    takes no other m or N, so any of ``indices`` other than 1 is an error."""
    if args.mode == "bohr-limit" and any(v not in (None, 1) for v in indices):
        raise ValueError("--mode bohr-limit is the m -> infinity limit at N = 1; "
                         "it takes no --N or --m other than 1")
    return None if args.mode is None else Mode(args.mode)


def _cmd_radius(args) -> int:
    spec = catalog.parse_psi(args.psi)
    options = _given(m=args.m, N=args.N, mode=_mode(args, args.m, args.N),
                     order=args.order, tol=args.tol)
    family = _family(args, spec)
    if args.method == "exact":
        if "order" in options:
            raise ValueError("--order: the closed equation of --method exact has no "
                             "truncation order")
        params = spec.params
        if "D" not in params or "E" not in params:
            raise ValueError(f"--method exact needs a Janowski-family psi, got {spec.label}")
        if family == Family.CONVEX:
            raise ValueError("--method exact solves the starlike Janowski equation only; "
                             "there is no closed convex equation")
        res = solve_janowski_exact(params["D"], params["E"], **options)._replace(
            psi=spec.label)
    else:
        res = solve(RadiusProblem(psi=spec, family=family, **options))
    _print_result(res, args.format)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = catalog.parse_psi(args.psi)
    n_range = _parse_range(args.N)
    m_range = _parse_range(args.m)
    n_is_range = ".." in args.N
    m_is_range = ".." in args.m
    if n_is_range == m_is_range:
        raise ValueError("sweep needs a range in exactly one of --N and --m (use a..b)")
    if not n_range or not m_range:
        raise ValueError("empty sweep range")
    problem = RadiusProblem(
        psi=spec, family=_family(args, spec), m=m_range[0], N=n_range[0],
        **_given(mode=_mode(args, *n_range, *m_range), order=args.order, tol=args.tol),
    )
    swept = sweep(problem,
                  n_values=n_range if n_is_range else None,
                  m_values=m_range if m_is_range else None)
    if args.format == "json":
        _emit_json({
            "axis": swept.axis,
            "values": list(swept.values),
            "monotone_nondecreasing": swept.monotone_nondecreasing,
            "results": [res.to_json_dict() for res in swept.results],
        })
    else:
        _print_csv(swept.results)
        if args.format == "table":
            print(f"# {swept.axis} sweep monotone nondecreasing: "
                  f"{str(swept.monotone_nondecreasing).lower()}")
    return EXIT_OK


# The optional verify flags each lemma reads; a flag given to a lemma that
# does not read it exits with EXIT_USAGE.
_VERIFY_READS = {
    "tail": ("psi", "order", "N", "degree_max"),
    "weighted": ("psi", "order", "N", "degree_max", "tau"),
    "br": ("psi", "order", "N", "degree_max", "family", "mode", "m"),
    "bohr-operator": (),
}
_VERIFY_OPTIONAL = tuple(dict.fromkeys(sum(_VERIFY_READS.values(), ())))


def _cmd_verify(args) -> int:
    if args.weighted and args.lemma not in (None, "weighted"):
        raise ValueError(f"--weighted is --lemma weighted; it contradicts --lemma {args.lemma}")
    lemma = "weighted" if args.weighted else args.lemma or "tail"
    unread = ["--" + name.replace("_", "-") for name in _VERIFY_OPTIONAL
              if getattr(args, name) is not None and name not in _VERIFY_READS[lemma]]
    if unread:
        raise ValueError(f"{', '.join(unread)}: not read by --lemma {lemma}")
    psis = [args.psi] if args.psi else list(oracle.DEFAULT_ORACLE_PSIS)
    seeded = _given(trials=args.trials, seed=args.seed)
    sampled = _given(degree_max=args.degree_max, order=args.order, **seeded)
    if lemma == "tail":
        # A given --N restricts the suite's grid of head indices to it.
        report = oracle.run_tail_suite(psi_labels=psis, **sampled,
                                       **_given(n_values=None if args.N is None else (args.N,)))
    elif lemma == "bohr-operator":
        report = oracle.run_axiom_suite(**seeded)
    elif lemma == "weighted":
        report = oracle.run_weighted_suite(psi_labels=psis, **sampled,
                                           **_given(tau=args.tau, N=args.N))
    else:
        spec = catalog.parse_psi(psis[0])
        report = oracle.run_br_suite(psi_label=psis[0], family=_family(args, spec), **sampled,
                                     **_given(m=args.m, N=args.N,
                                              mode=_mode(args, args.m, args.N)))
    _emit_json(report.to_json_dict())
    return EXIT_OK if report.violations == 0 else EXIT_VIOLATIONS


def _cmd_catalog(args) -> int:
    rows = []
    for label in catalog.named_labels() + ["alpha:0.25", "janowski:D=0.5,E=-0.5"]:
        spec = catalog.parse_psi(label)
        rows.append({
            "psi": spec.label,
            "params": spec.params,
            "default_family": spec.default_family,
            "koebe_closed": spec.koebe_closed,
            "has_f0_closed": spec.f0_closed is not None,
        })
    if args.format == "json":
        _emit_json({"entries": rows})
    else:
        for row in rows:
            koebe = _fmt(row["koebe_closed"]) if row["koebe_closed"] is not None else "-"
            print(f"{row['psi']:28s} family={row['default_family']:8s} "
                  f"koebe_starlike={koebe}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrad",
        description="Bohr and Bohr-Rogosinski radii for Ma-Minda function classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_mn=True):
        p.add_argument("--psi", default=None, help="catalog label, e.g. cardioid, "
                       "janowski:D=0.5,E=-0.5, alpha:0.25, booth, sine")
        p.add_argument("--family", choices=[f.value for f in Family], default=None,
                       help="starlike or convex (default: the entry's natural family)")
        # Every optional flag defaults to None: a command passes on only the
        # flags given, and can reject one that it cannot honour.
        p.add_argument("--mode", choices=[m.value for m in Mode], default=None)
        p.add_argument("--order", type=int, default=None,
                       help=f"series truncation order (default {DEFAULT_ORDER})")
        if with_mn:
            p.add_argument("--m", type=int, default=None)
            p.add_argument("--N", type=int, default=None)

    p_radius = sub.add_parser("radius", help="solve one radius equation")
    common(p_radius)
    p_radius.add_argument("--method", choices=["series", "exact"], default="series",
                          help="series path, or the closed Janowski equation")
    p_radius.add_argument("--format", choices=["table", "csv", "json"], default="table")
    p_radius.set_defaults(func=_cmd_radius, needs_psi=True)

    p_sweep = sub.add_parser("sweep", help="solve over a range of N or m")
    common(p_sweep, with_mn=False)
    p_sweep.add_argument("--m", default="1", help="fixed value or range a..b")
    p_sweep.add_argument("--N", default="1", help="fixed value or range a..b")
    p_sweep.add_argument("--format", choices=["table", "csv", "json"], default="csv")
    p_sweep.set_defaults(func=_cmd_sweep, needs_psi=True)

    for p in (p_radius, p_sweep):
        p.add_argument("--tol", type=float, default=None,
                       help=f"root bracketing tolerance (default {DEFAULT_TOL:g})")

    p_verify = sub.add_parser("verify", help="run a Monte-Carlo verification suite",
                              description="A flag not given takes the suite's default.")
    common(p_verify)
    p_verify.add_argument("--lemma", choices=["tail", "bohr-operator", "weighted", "br"],
                          default=None, help="lemma to check (default: tail)")
    p_verify.add_argument("--weighted", action="store_true",
                          help="shorthand for --lemma weighted")
    p_verify.add_argument("--tau", type=float, default=None,
                          help="weight of the weighted lemma")
    p_verify.add_argument("--trials", type=int, default=None)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--degree-max", type=int, default=None, dest="degree_max",
                          help="largest Blaschke degree sampled")
    p_verify.set_defaults(func=_cmd_verify, needs_psi=False)

    p_catalog = sub.add_parser("catalog", help="list catalog entries")
    p_catalog.add_argument("--format", choices=["table", "json"], default="table")
    p_catalog.set_defaults(func=_cmd_catalog, needs_psi=False)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "needs_psi", False) and not args.psi:
        print("error: --psi is required", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BracketError, QuadratureError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def run() -> None:
    # The imports leave thousands of GC-tracked objects alive until exit,
    # and every collection walks them, the interpreter's shutdown passes
    # included.  Frozen, they are skipped, so a call collects only what its
    # command allocated (the README gives the cost); numpy, which only a
    # command with arrays imports, is frozen after main().  main() must
    # not freeze: tests and benchmarks call it many times in one process,
    # and the freeze is process-wide.  So is a signal handler: Python ignores
    # SIGPIPE and raises BrokenPipeError instead, and only here is the
    # default restored, under which a closed reader ends bohrad quietly.
    gc.freeze()
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
