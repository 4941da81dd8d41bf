"""The library workloads: radius-sweep, param-scan and oracle-mc.

Each builds one round of operations against the public API of ``bohrad``
from its seed.  An operation is a batch of about a tenth of a second or
more, so that it sits well above timer and scheduling noise.  The checks
build extremal pairs of their own, outside the timed phase.
"""

from __future__ import annotations

import random

import bohrad
from bohrad import DEFAULT_ORACLE_PSIS, IDENTITY_SAMPLE, Family, Mode, RadiusProblem

import checks
import hostref
from ops import Op, Workload

TAIL_RADII = (0.1, 0.25, 1.0 / 3.0)
TAIL_NS = (1, 2, 3)
ORACLE_TRIALS = 30


class _PairCache:
    """Extremal pairs for the checks."""

    def __init__(self):
        self._pairs = {}

    def get(self, label: str, order: int):
        key = (label, order)
        if key not in self._pairs:
            self._pairs[key] = bohrad.build_extremal_pair(bohrad.parse_psi(label), order)
        return self._pairs[key]

    def moduli_and_rstar(self, label: str, family: str, order: int):
        pair = self.get(label, order)
        if family == "starlike":
            return [abs(x) for x in pair.f0.coeffs], pair.koebe_starlike
        return [abs(x) for x in pair.l0.coeffs], pair.koebe_convex


def _check_results(results, label: str, order: int, pairs: _PairCache, want: list) -> list:
    """Each result against its request, its re-assembled G and known radii.

    ``want`` holds (family, m, N, mode) per result.
    """
    out = []
    if len(results) != len(want):
        out.append(f"{len(results)} results for {len(want)} problems")
    known = checks.closed_forms()
    for res, (family, m, N, mode) in zip(results, want):
        got = (res.psi, res.family, res.m, res.N, res.mode)
        if got != (label, family, m, N, mode):
            out.append(f"result labelled {got!r}, want {(label, family, m, N, mode)!r}")
            continue
        moduli, rstar = pairs.moduli_and_rstar(label, family, order)
        g = checks.reassembled_g(moduli, rstar, m, N, mode)
        out += checks.check_root(res.r0, res.bracket, g)
        key = (label, family, mode) + ((1, 1) if mode == "bohr-limit" else (m, N))
        if key in known:
            out += checks.check_close(f"{label} {family} {mode} m={m} N={N}", res.r0, known[key])
    return out


# -- radius-sweep ----------------------------------------------------------------

# Sweep lengths per truncation order; a solve at order 256 costs about three
# at order 64, so both kinds of sweep take about the same time.
SWEEP_LEN = {64: 24, 256: 8}


def radius_sweep(seed: int) -> Workload:
    """Every catalog entry, both families: sweeps over N and over m, and a
    Bohr-limit batch.  Each sweep builds one pair; the solves do the work."""
    rng = random.Random(seed)
    d = round(rng.uniform(0.2, 1.0), 4)
    e = round(rng.uniform(-1.0, d - 0.1), 4)
    labels = bohrad.named_labels() + [
        f"alpha:{round(rng.uniform(0.05, 0.9), 4):g}",
        f"janowski:D={d:g},E={e:g}",
        f"booth:k={round(rng.uniform(1.5, 4.0), 4):g}",
    ]
    at_256 = set(rng.sample(labels, 3))
    pairs = _PairCache()
    ops = []
    for label in labels:
        spec = bohrad.parse_psi(label)
        order = 256 if label in at_256 else 64
        values = range(1, SWEEP_LEN[order] + 1)
        for family in ("starlike", "convex"):
            base = RadiusProblem(psi=spec, family=Family(family), order=order)
            for axis in ("N", "m"):
                want = [(family, 1, v, "bohr-rogosinski") if axis == "N"
                        else (family, v, 1, "bohr-rogosinski") for v in values]
                kwargs = {"n_values": values} if axis == "N" else {"m_values": values}
                ops.append(Op(
                    label=f"sweep {axis} {label} {family} order {order}",
                    call=lambda traced, base=base, kwargs=kwargs: bohrad.sweep(base, **kwargs),
                    check=lambda sw, label=label, order=order, want=want: (
                        _check_results(sw.results, label, order, pairs, want)
                        + checks.check_nondecreasing(label, [r.r0 for r in sw.results])),
                    units=len(values),
                ))

    def bohr_limit(traced):
        results = []
        for label in labels:
            spec = bohrad.parse_psi(label)
            pair = bohrad.build_extremal_pair(spec, 64)
            for family in (Family.STARLIKE, Family.CONVEX):
                problem = RadiusProblem(psi=spec, family=family, mode=Mode.BOHR_LIMIT)
                results.append(bohrad.solve(problem, pair))
        return results

    def check_bohr_limit(results):
        want = [(family, 1, 1, "bohr-limit") for family in ("starlike", "convex")]
        out = []
        for i, label in enumerate(labels):
            out += _check_results(results[2 * i:2 * i + 2], label, 64, pairs, want)
        return out

    ops.append(Op("bohr-limit batch", bohr_limit, check_bohr_limit, 2 * len(labels)))
    rng.shuffle(ops)
    return Workload("radius-sweep", ops, hostref.radius_ref)


# -- param-scan ------------------------------------------------------------------

JANOWSKI_D = (0.2, 0.4, 0.6, 0.8, 1.0)
JANOWSKI_E = (-1.0, -0.6, -0.2, 0.0, 0.2, 0.6)
SCAN_BATCH = 10


def scan_generators(rng: random.Random) -> list[str]:
    """A jittered Janowski (D, E) grid, and alpha:a and booth:k generators."""
    labels = []
    for d in JANOWSKI_D:
        for e in JANOWSKI_E:
            if e >= d:
                continue
            # E = 0 (the exponential case) and E = -1 stay on their exact values.
            dj = min(1.0, round(d + rng.uniform(-0.05, 0.05), 4))
            ej = e if e in (-1.0, 0.0) else round(e + rng.uniform(-0.05, 0.05), 4)
            labels.append(f"janowski:D={dj:g},E={ej:g}")
    labels += [f"alpha:{round(rng.uniform(0.0, 0.9), 4):g}" for _ in range(7)]
    labels += [f"booth:k={round(rng.uniform(1.5, 4.0), 4):g}" for _ in range(7)]
    rng.shuffle(labels)
    return labels


def _has_exact_path(label: str) -> bool:
    """Janowski rows with E <= 0 are also solved by the closed equation.

    For E > 0 the extremal coefficients change sign, and the closed
    equation's signed f0(r^m) term differs from the majorant the series
    path sums, so the two paths disagree on every seed (D=0.8, E=0.65,
    m=1, N=3: 0.702845 against 0.682119).  That comparison is left out
    until the program settles which equation is meant.
    """
    return label.startswith("janowski:") and bohrad.parse_psi(label).params["E"] <= 0.0


def _scan_batch(batch):
    """Fresh solves as the CLI makes them: parse, build the pair, solve."""
    out = []
    for label, m, N, mode, exact in batch:
        spec = bohrad.parse_psi(label)
        results = [bohrad.solve(RadiusProblem(psi=spec, family=family, m=m, N=N, mode=mode))
                   for family in (Family.STARLIKE, Family.CONVEX)]
        if exact:
            results.append(bohrad.solve_janowski_exact(spec.params["D"], spec.params["E"],
                                                       m=m, N=N, mode=mode))
        out.append(results)
    return out


def _check_scan_batch(batch, outputs, pairs: _PairCache) -> list:
    out = []
    for (label, m, N, mode, exact), results in zip(batch, outputs):
        want = [(family, m, N, mode.value) for family in ("starlike", "convex")]
        out += _check_results(results[:2], label, 64, pairs, want)
        params = bohrad.parse_psi(label).params
        if "E" in params:
            pair = pairs.get(label, 64)
            for family, got in (("starlike", pair.koebe_starlike), ("convex", pair.koebe_convex)):
                out += checks.check_rel(f"{label} {family} Koebe radius", got,
                                        checks.janowski_koebe(params["D"], params["E"], family),
                                        checks.KOEBE_RTOL)
        if exact:
            closed = results[2]
            out += checks.check_close(f"{label} series against exact", results[0].r0,
                                      closed.r0, checks.SERIES_EXACT_TOL)
            if not closed.bracket[0] <= closed.r0 <= closed.bracket[1]:
                out.append(f"{label} exact r0 outside its bracket")
    return out


def param_scan(seed: int) -> Workload:
    """Generators each solved fresh for both families, Janowski rows with
    E <= 0 also by the closed equation; pair building is a fifth of the work.

    Every batch holds the same mix: half of it rows with the closed
    equation, and one row in four in Bohr-limit mode.
    """
    rng = random.Random(seed)
    labels = scan_generators(rng)
    exact = [label for label in labels if _has_exact_path(label)]
    other = [label for label in labels if not _has_exact_path(label)]
    per_kind = SCAN_BATCH // 2
    pairs = _PairCache()
    ops = []
    for i in range(0, min(len(exact), len(other)) // per_kind * per_kind, per_kind):
        batch = []
        rows = [(label, True) for label in exact[i:i + per_kind]]
        rows += [(label, False) for label in other[i:i + per_kind]]
        for j, (label, with_exact) in enumerate(rows):
            mode = Mode.BOHR_LIMIT if j % 4 == 3 else Mode.BOHR_ROGOSINSKI
            batch.append((label, rng.randint(1, 3), rng.randint(1, 3), mode, with_exact))
        ops.append(Op(f"scan batch {len(ops)}",
                      call=lambda traced, batch=batch: _scan_batch(batch),
                      check=lambda outputs, batch=batch: _check_scan_batch(batch, outputs, pairs),
                      units=3 * per_kind + 2 * per_kind))
    return Workload("param-scan", ops, hostref.radius_ref)


# -- oracle-mc -------------------------------------------------------------------

TAIL_OPS = 8
WEIGHTED_OPS = 2


def _identity_margins() -> list:
    out = []
    for label in DEFAULT_ORACLE_PSIS:
        f0 = bohrad.build_extremal_pair(bohrad.parse_psi(label), 64).f0
        for n in TAIL_NS:
            for r in TAIL_RADII:
                margin = bohrad.verify_tail_inequality(f0, IDENTITY_SAMPLE, n, r, label)
                if abs(margin) > 1e-12:
                    out.append(f"identity sample margin {margin!r} for {label} N={n} r={r:g}")
    return out


def oracle_mc(seed: int) -> Workload:
    """Seeded tail suites over the default generators and N in {1, 2, 3},
    and weighted suites; composition does most of the work."""
    rng = random.Random(seed)
    # Room for every counterexample, so that each can be checked by N.
    cap = ORACLE_TRIALS * len(DEFAULT_ORACLE_PSIS) * len(TAIL_NS) * len(TAIL_RADII)
    units = ORACLE_TRIALS * len(DEFAULT_ORACLE_PSIS)
    ops = []
    for _ in range(TAIL_OPS):
        s = rng.randrange(2**31)
        ops.append(Op(
            f"tail suite seed {s}",
            call=lambda traced, s=s: bohrad.run_tail_suite(
                psi_labels=DEFAULT_ORACLE_PSIS, trials=ORACLE_TRIALS, seed=s,
                n_values=TAIL_NS, r_values=TAIL_RADII, degree_max=4, order=64,
                max_reports=cap),
            check=lambda rep: checks.check_tail_report(rep.to_json_dict()),
            units=units))
    for _ in range(WEIGHTED_OPS):
        s = rng.randrange(2**31)
        ops.append(Op(
            f"weighted suite seed {s}",
            call=lambda traced, s=s: bohrad.run_weighted_suite(
                tau=0.8, trials=ORACLE_TRIALS, seed=s, psi_labels=DEFAULT_ORACLE_PSIS,
                N=1, degree_max=4, order=64),
            check=lambda rep: checks.check_clean_report(rep.to_json_dict()),
            units=units))
    rng.shuffle(ops)
    return Workload("oracle-mc", ops, hostref.oracle_ref, run_checks=_identity_margins)


WORKLOADS = {"radius-sweep": radius_sweep, "param-scan": param_scan, "oracle-mc": oracle_mc}
