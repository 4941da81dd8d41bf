"""Benchmark of bohrad: four workloads, host-adjusted timings, checked outputs.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload radius-sweep --seed 1 --seconds 8 --trace 0

Workloads: cli, radius-sweep, param-scan, oracle-mc (see benchmarks/README.md).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones from a traced run.
Failures found by the checks are listed on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostref
import tracing
from ops import ROOT, SRC, src_env

WORKLOADS = ("cli", "radius-sweep", "param-scan", "oracle-mc")
SETUP_REPS = 3
# Every operation is timed at least twice in a run.
MIN_ROUNDS = 2
IMPORT_REPS = 3


@dataclass
class Sample:
    op: object
    raw_s: float
    adj_s: float
    output: object
    traced: bool


def load_program() -> None:
    """Put this checkout's ``src`` first on the import path, or stop."""
    if not (SRC / "bohrad" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'bohrad'} not found; run from the root of a "
                         "bohrad checkout")
    sys.path.insert(0, str(SRC))


def build(name: str, seed: int):
    if name == "cli":
        import cli_mix
        return cli_mix.build(seed)
    import bohrad
    import library
    if Path(bohrad.__file__).resolve().parent != SRC / "bohrad":
        raise SystemExit(f"error: imported bohrad from {bohrad.__file__}, not from {SRC}")
    return library.WORKLOADS[name](seed)


def setup(name: str, seed: int):
    """Imports, input generation and a warm-up run of the first operation."""
    workload = build(name, seed)
    workload.ops[0].call(False)
    return workload


def measure_setup(name: str, seed: int) -> float:
    """Median host-adjusted wall time of fresh processes doing the set-up.

    The host reference runs once before and once after the set-ups.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    before = hostref.process_ref()
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    factor = hostref.NOMINAL_S[hostref.process_ref] / (0.5 * (before + hostref.process_ref()))
    return statistics.median(times) * factor


def timed_phase(workload, seconds: float, tracer=None):
    """Whole rounds until ``seconds`` have passed, and at least MIN_ROUNDS.

    The host reference runs after every ``workload.ops_per_ref`` operations,
    so that each group of operations sits between two runs of it; with a
    tracer every operation runs untraced, then traced.  Returns the samples,
    the raw reference times and the span totals of the traced runs.
    """
    nominal = hostref.NOMINAL_S[workload.ref]
    samples, refs = [], [workload.ref()]
    totals = tracing.empty_stats()
    start = time.perf_counter()
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds += 1
        for i in range(0, len(workload.ops), workload.ops_per_ref):
            group = []
            for op in workload.ops[i:i + workload.ops_per_ref]:
                for traced in ((False, True) if tracer else (False,)):
                    with tracer if traced else contextlib.nullcontext():
                        t0 = time.perf_counter()
                        output = op.call(traced)
                        raw = time.perf_counter() - t0
                    stats = tracer.take() if traced else {}
                    if traced and workload.subprocess_ops:
                        tracing.merge(stats, output.trace)
                    group.append((Sample(op, raw, raw, output, traced), stats))
            refs.append(workload.ref())
            factor = nominal / (0.5 * (refs[-2] + refs[-1]))
            for sample, stats in group:
                sample.adj_s = sample.raw_s * factor
                samples.append(sample)
                tracing.merge(totals, stats, factor)
    return samples, refs, totals


def peak_rss_mb(workload, samples) -> float:
    if workload.subprocess_ops:
        return max(s.output.maxrss_kb for s in samples if not s.traced) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_samples(workload, samples) -> tuple[int, list]:
    """Failed operations, and the failures that are not known program faults."""
    failed, problems, faults = 0, [], set()
    for s in samples:
        try:
            errors = s.op.check(s.output)
        except Exception as exc:  # a check that cannot read the output fails the op
            errors = [f"check raised {exc!r}"]
        if not errors:
            continue
        failed += 1
        if s.op.known_fault is None:
            problems.append(f"{s.op.label}: {errors[0]}")
        elif s.op.label not in faults:
            faults.add(s.op.label)
            print(f"known fault, counted as failed: {s.op.label}: {s.op.known_fault}: "
                  f"{errors[0]}", file=sys.stderr)
    return failed, problems + workload.run_checks()


def layer_probe(seed: int) -> dict:
    """Span totals of fixed calls into every layer, in this process.

    The README's CLI commands through ``bohrad.cli.main`` cover the CLI,
    catalog, extremal, radius and oracle layers at order 64; a build and a
    composition at order 256 complete them.  Each call sits between two
    runs of the host reference.
    """
    import bohrad.cli
    import cli_mix
    from bohrad import SchwarzSample

    sample = SchwarzSample(degree=2, zeros=(0.3, -0.7), sign=-1)
    calls = [lambda argv=argv: bohrad.cli.main(argv) for argv, _, _ in cli_mix.commands(seed)]
    calls += [lambda label=label: bohrad.build_f0(bohrad.parse_psi(label), 256).compose(
        bohrad.schwarz_series(sample, 256)) for label in ("cardioid", "sine")]
    nominal = hostref.NOMINAL_S[hostref.radius_ref]
    tracer, totals = tracing.Tracer(), tracing.empty_stats()
    prev = hostref.radius_ref()
    for call in calls:
        with tracer, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            call()
        nxt = hostref.radius_ref()
        tracing.merge(totals, tracer.take(), nominal / (0.5 * (prev + nxt)))
        prev = nxt
    return totals


def import_probe() -> dict:
    """Median host-adjusted import times from ``python -X importtime``."""
    nominal = hostref.NOMINAL_S[hostref.process_ref]
    rows = []
    for _ in range(IMPORT_REPS):
        factor = nominal / hostref.process_ref()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        python_s = time.perf_counter() - t0
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import bohrad; import bohrad.cli"],
                              env=src_env(), cwd=ROOT, capture_output=True, text=True,
                              check=True)
        row = tracing.parse_importtime(proc.stderr)
        row["import.python_ms"] = python_s * 1e3
        rows.append({k: v * factor for k, v in row.items()})
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def end_to_end_metrics(setup_s: float, samples, rss_mb: float) -> dict:
    adj = [s.adj_s for s in samples]
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (1e3 * statistics.median(adj), "ms"),
        "work_per_s": (sum(s.op.units for s in samples) / sum(adj), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer_metrics(samples, refs, op_totals: dict, probe_totals: dict,
                      imports: dict) -> dict:
    plain = [s for s in samples if not s.traced]
    traced = [s for s in samples if s.traced]
    totals = tracing.empty_stats()
    tracing.merge(totals, op_totals)
    tracing.merge(totals, probe_totals)

    def mean(key, scale, self_time=False):
        calls, incl, self_s = totals[key]
        if calls == 0:
            raise RuntimeError(f"no traced call for {key}")
        return (self_s if self_time else incl) / calls * scale

    def per_op(prefix):
        return sum(v[0] for k, v in op_totals.items() if k.startswith(prefix)) / len(traced)

    overhead = (statistics.median(s.adj_s for s in traced)
                / statistics.median(s.adj_s for s in plain) - 1.0)
    metrics = {
        "host.ref_ms": (1e3 * statistics.median(refs), "ms"),
        "host.raw_op_p50_ms": (1e3 * statistics.median(s.raw_s for s in plain), "ms"),
        "trace.overhead_pct": (100.0 * overhead, "%"),
        "cli.main_ms": (mean("cli.main", 1e3), "ms"),
        "catalog.parse_psi_us": (mean("catalog.parse_psi", 1e6), "us"),
        "catalog.psi_series_us": (mean("catalog.psi_series", 1e6), "us"),
        "extremal.build_f0_64_ms": (mean("extremal.build_f0_64", 1e3), "ms"),
        "extremal.build_f0_256_ms": (mean("extremal.build_f0_256", 1e3), "ms"),
        "extremal.koebe_starlike_ms": (mean("extremal.koebe_starlike", 1e3), "ms"),
        "extremal.koebe_convex_ms": (mean("extremal.koebe_convex", 1e3), "ms"),
        "extremal.pair_ms": (mean("extremal.pair", 1e3), "ms"),
        "extremal.pairs_per_op": (per_op("extremal.pair"), "count"),
        "radius.solve_ms": (mean("radius.solve", 1e3, self_time=True), "ms"),
        "radius.iterations_per_solve": (
            totals["radius.iterations"][0] / totals["radius.solve"][0], "count"),
        "radius.solves_per_op": (per_op("radius.solve"), "count"),
        "radius.exact_ms": (mean("radius.exact", 1e3), "ms"),
        "series.compose_64_ms": (mean("series.compose_64", 1e3), "ms"),
        "series.compose_256_ms": (mean("series.compose_256", 1e3), "ms"),
        "series.compose_per_op": (per_op("series.compose_"), "count"),
        "oracle.schwarz_series_ms": (mean("oracle.schwarz_series", 1e3), "ms"),
        "oracle.tail_check_us": (mean("oracle.tail_check", 1e6), "us"),
        "oracle.suite_self_ms": (mean("oracle.suite", 1e3, self_time=True), "ms"),
    }
    metrics.update({k: (v, "ms") for k, v in sorted(imports.items())})
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (times one set-up)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    workload = setup(args.workload, args.seed)
    if args.setup_only:
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if not args.trace:
        setup_s = measure_setup(args.workload, args.seed)
    samples, refs, op_totals = timed_phase(workload, args.seconds, tracer)
    rss_mb = peak_rss_mb(workload, samples)
    print(f"{args.workload} seed {args.seed}: {len(samples)} operations, raw op p50 "
          f"{1e3 * statistics.median(s.raw_s for s in samples if not s.traced):.2f} ms, "
          f"host reference p50 {1e3 * statistics.median(refs):.3f} ms", file=sys.stderr)
    failed, problems = check_samples(workload, samples)
    for problem in problems[:20]:
        print(f"FAILED CHECK {problem}", file=sys.stderr)

    if args.trace:
        metrics = per_layer_metrics(samples, refs, op_totals, layer_probe(args.seed),
                                    import_probe())
    else:
        metrics = end_to_end_metrics(setup_s, samples, rss_mb)
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
