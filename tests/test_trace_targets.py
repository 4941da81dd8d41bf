"""The per-layer trace of benchmarks/tracing.py against the program.

The tracer wraps entry points by name and fails a traced run on a layer
that saw no call, so every name it lists must exist and the suites must
reach the oracle layers through them.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from bohrad import oracle
from bohrad.series import TruncatedSeries

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    for module, attr, _ in load_tracing().TARGETS:
        owner = importlib.import_module(f"bohrad.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name)
        assert callable(owner), f"{module}.{attr}"


def spy(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


@pytest.mark.parametrize("suite", [
    lambda: oracle.run_tail_suite(trials=3, seed=1, order=64),
    lambda: oracle.run_weighted_suite(trials=3, seed=1, order=64),
    lambda: oracle.run_br_suite(trials=3, seed=1, order=64),
], ids=["tail", "weighted", "br"])
def test_suites_call_the_traced_layers(monkeypatch, suite):
    # The suites take their omegas a chunk at a time: per chunk, one chunk
    # build, one composition of every extremal with it and one margin
    # product of the composed stack, which every suite takes by the tail
    # kernel.
    counts = Counter()
    spy(monkeypatch, oracle, "_schwarz_chunk", counts)
    spy(monkeypatch, oracle, "_tail_margin", counts)
    spy(monkeypatch, TruncatedSeries, "compose", counts)
    suite()
    assert counts["compose"] >= 1
    assert counts["_schwarz_chunk"] == counts["compose"]
    # One margin product per composed chunk.
    assert counts["_tail_margin"] == counts["compose"]
