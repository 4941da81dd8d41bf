"""Operations, workloads and the checkout the benchmark runs in."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


@dataclass
class Op:
    """One timed operation: ``call(traced)`` runs it, ``check(output)`` judges it."""

    label: str
    call: Callable[[bool], object]
    check: Callable[[object], list]
    units: int
    # A program fault this operation shows until it is mended; its failure
    # counts in ``failed`` without making the run incorrect.
    known_fault: str | None = None


@dataclass
class Workload:
    """One round of operations, and the host reference that times them."""

    name: str
    ops: list
    ref: Callable[[], float]
    # Checks of the run as a whole, made once after the timed phase.
    run_checks: Callable[[], list] = field(default=lambda: [])
    # True when operations are child processes (peak RSS is theirs).
    subprocess_ops: bool = False
    # Operations between two runs of the host reference.
    ops_per_ref: int = 1


def src_env() -> dict:
    """Environment for a child that imports bohrad from this checkout."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env
