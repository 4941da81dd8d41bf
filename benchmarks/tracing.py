"""Per-layer tracing from outside the program.

``Tracer`` replaces the public entry points of each ``bohrad`` layer with
timing wrappers while it is active, in every module namespace that holds
them, and restores the originals afterwards.  Each wrapper records a span:
its calls, its inclusive time, and its self time (inclusive time less the
spans it caused).  Spans are kept in memory as per-key totals.

The import layer is measured apart, from ``python -X importtime``.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

LAYER_MODULES = ("series", "catalog", "extremal", "radius", "oracle", "cli")
# Prefix of the stderr line on which a traced CLI child reports its spans.
TRACE_MARK = "BENCH_TRACE "


def _order_key(name: str, pos: int):
    def key(args, kwargs):
        order = kwargs.get("order", args[pos] if len(args) > pos else 64)
        return f"{name}_{order}"
    return key


def _family_key(args, kwargs):
    family = kwargs.get("family", args[1] if len(args) > 1 else "starlike")
    return f"extremal.koebe_{family}"


def _const(name: str):
    return lambda args, kwargs: name


# (module, attribute, key function).  A dotted attribute is a method.
TARGETS = (
    ("catalog", "parse_psi", _const("catalog.parse_psi")),
    ("catalog", "PsiSpec.series", _const("catalog.psi_series")),
    ("extremal", "build_f0", _order_key("extremal.build_f0", 1)),
    ("extremal", "koebe_radius", _family_key),
    ("extremal", "build_extremal_pair", _const("extremal.pair")),
    ("radius", "solve", _const("radius.solve")),
    ("radius", "solve_janowski_exact", _const("radius.exact")),
    ("series", "TruncatedSeries.compose", lambda a, k: f"series.compose_{a[0].order}"),
    ("oracle", "schwarz_series", _const("oracle.schwarz_series")),
    ("oracle", "_tail_margin", _const("oracle.tail_check")),
    ("oracle", "run_tail_suite", _const("oracle.suite")),
    ("oracle", "run_weighted_suite", _const("oracle.suite")),
    ("oracle", "run_br_suite", _const("oracle.suite")),
    ("oracle", "run_axiom_suite", _const("oracle.suite")),
    ("cli", "main", _const("cli.main")),
)


def empty_stats() -> dict:
    """key -> [calls, inclusive seconds, self seconds]."""
    return defaultdict(lambda: [0, 0.0, 0.0])


def merge(into: dict, stats: dict, scale: float = 1.0) -> None:
    """Add stats into a total, times scaling the seconds (not the counts)."""
    for key, (calls, incl, self_s) in stats.items():
        rec = into.setdefault(key, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += incl * scale
        rec[2] += self_s * scale


class Tracer:
    """Context manager that installs the span wrappers while active."""

    def __init__(self):
        self.stats = empty_stats()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, key_of):
        stats, stack = self.stats, self._stack

        def wrapper(*args, **kwargs):
            key = key_of(args, kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                rec = stats[key]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
            if key == "radius.solve":
                stats["radius.iterations"][0] += result.iterations
            return result

        return wrapper

    def __enter__(self):
        modules = [importlib.import_module(f"bohrad.{m}") for m in LAYER_MODULES]
        namespaces = modules + [sys.modules["bohrad"]]
        for mod_name, attr, key_of in TARGETS:
            owner = importlib.import_module(f"bohrad.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, key_of))
                continue
            original = getattr(owner, attr)
            wrapped = self._wrap(original, key_of)
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._saved.append((ns, attr, original))
                    setattr(ns, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def take(self) -> dict:
        """The stats recorded since the last take, as a plain dict."""
        out = {k: list(v) for k, v in self.stats.items()}
        self.stats.clear()
        return out


def parse_importtime(stderr: str) -> dict:
    """Self and cumulative milliseconds per bohrad module from -X importtime."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        name = fields[2].strip()
        try:
            self_us, cum_us = int(fields[0]), int(fields[1])
        except ValueError:
            continue
        if name == "bohrad":
            out["import.bohrad_ms"] = cum_us / 1e3
        elif name.startswith("bohrad.") and name[7:] in LAYER_MODULES:
            out[f"import.{name[7:]}_self_ms"] = self_us / 1e3
            out[f"import.{name[7:]}_cum_ms"] = cum_us / 1e3
    return out
