"""Host-speed reference kernels.

The machine's speed drifts by up to 2x within seconds, and CPU time drifts
with wall time.  Timed operations are therefore bracketed by runs of a
fixed reference kernel that does the same kind of work without the
program: an operation's host-adjusted time is its raw time times the
kernel's nominal time over the kernel's mean time just before and just
after it.

Nothing here imports ``bohrad``.  The nominal times are fixed constants,
close to the kernels' medians on the machine the benchmark was built on;
they only set the scale of the adjusted figures.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np
from numpy.polynomial import polynomial as npoly

_COEFFS = 1.0 / np.arange(1, 66) ** 2
_F = np.concatenate(([0.0], 1.0 / np.arange(1, 65)))
_W = np.concatenate(([0.0, -0.6], 0.3 * 0.5 ** np.arange(63)))
_RADII = (0.1, 0.25, 1.0 / 3.0)

# What the CLI imports besides bohrad itself: numpy, scipy.integrate (which
# bohrad.extremal pulls in; most of a call's time) and the stdlib modules.
PROCESS_IMPORTS = ("import numpy, scipy.integrate, argparse, json, csv, random, math, "
                   "dataclasses, enum, warnings")


def _bisect_polynomial() -> float:
    """A scan and bisection on a majorant-like polynomial, as radius.solve does."""
    g = lambda r: float(npoly.polyval(r, _COEFFS)) + float(npoly.polyval(r * r, _COEFFS)) - 0.5
    hi = 0.999
    scan = [g(hi * i / 64.0) for i in range(65)]
    lo = 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return lo + scan[0]


def _horner_compose() -> float:
    """A Horner composition at order 64 plus tail sums, as the oracle does."""
    acc = np.zeros(65)
    acc[0] = _F[64]
    for n in range(63, -1, -1):
        acc = np.convolve(acc, _W)[:65]
        acc[0] += _F[n]
    out = np.array(acc, dtype=float)
    total = float(np.all(np.isfinite(out)))
    for n in (1, 2, 3):
        for r in _RADII:
            total += float(np.dot(np.abs(out[n:]), r ** np.arange(n, 65)))
    return total


def radius_ref() -> float:
    """Seconds for three bisection solves (the radius layer's kind of work)."""
    t0 = time.perf_counter()
    for _ in range(3):
        _bisect_polynomial()
    return time.perf_counter() - t0


def oracle_ref() -> float:
    """Seconds for twenty order-64 compositions with their tail sums."""
    t0 = time.perf_counter()
    for _ in range(20):
        _horner_compose()
    return time.perf_counter() - t0


def process_ref() -> float:
    """Seconds for an interpreter to start and import what the CLI imports."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", PROCESS_IMPORTS], check=True)
    return time.perf_counter() - t0


# Nominal seconds of each kernel; adjusted = raw * nominal / measured.
NOMINAL_S = {
    radius_ref: 0.008,
    oracle_ref: 0.0065,
    process_ref: 0.75,
}
