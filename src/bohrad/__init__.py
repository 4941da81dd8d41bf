"""Bohr and Bohr-Rogosinski radii for Ma-Minda starlike/convex classes.

The pipeline: a generator psi from the catalog produces the extremal
series of its class, the radius module assembles the majorant radius
equation and solves it by monotone Newton steps inside a certified
bracket (the lower end a convexity secant; one solver loop for a lone
equation and a sweep's rows alike), and the oracle module checks the
underlying coefficient-tail inequalities on random subordinants.

The package exports the names its callers use; everything else is
reached through its module (``bohrad.series``, ``bohrad.catalog``,
``bohrad.extremal``, ``bohrad.radius``, ``bohrad.oracle``).
"""

from .series import OrderMismatchError
from .catalog import cardioid, janowski, named_labels, parse_psi, sine
from .extremal import QuadratureError, build_extremal_pair, build_f0
from .radius import (
    BracketError,
    Family,
    Mode,
    RadiusProblem,
    g_function,
    solve,
    solve_janowski_exact,
    sweep,
)
from .oracle import (
    DEFAULT_ORACLE_PSIS,
    IDENTITY_SAMPLE,
    InequalityViolation,
    SchwarzSample,
    run_axiom_suite,
    run_br_suite,
    run_tail_suite,
    run_weighted_suite,
    schwarz_series,
    verify_tail_inequality,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_ORACLE_PSIS",
    "IDENTITY_SAMPLE",
    "BracketError",
    "Family",
    "InequalityViolation",
    "Mode",
    "OrderMismatchError",
    "QuadratureError",
    "RadiusProblem",
    "SchwarzSample",
    "build_extremal_pair",
    "build_f0",
    "cardioid",
    "g_function",
    "janowski",
    "named_labels",
    "parse_psi",
    "run_axiom_suite",
    "run_br_suite",
    "run_tail_suite",
    "run_weighted_suite",
    "schwarz_series",
    "sine",
    "solve",
    "solve_janowski_exact",
    "sweep",
    "verify_tail_inequality",
]
