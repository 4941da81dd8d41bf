"""Truncated real power-series arithmetic.

A series is a coefficient vector c[0..K] for a fixed truncation order K;
index n holds the coefficient of z^n.  Every operation keeps the order
fixed (uniform truncation), so a result is the exact Taylor data of the
represented operation up to z^K whenever that is well defined (it is for
sums, Cauchy products and composition with series vanishing at 0).

A ``TruncatedSeries`` may also hold a stack of series of one order, with
leading axes in front of the coefficient axis.  Composition and power
tables work on stacks; every other operation takes a single series.

Composition f(w) is one matrix product of f's coefficients with the power
table [w^0..w^K] of the inner series.  The table is built at most once per
inner series and is shared by every series composed with it.  It is built
by doubling: rows n+1..2n are rows 1..n times row n, one product with the
Toeplitz matrix of row n, so order K takes ceil(log2 K) products, each
over the whole stack.  Row n vanishes below index n, so each product skips
that zero triangle.  One kernel (``_fill_powers``) builds a table in place,
in memory it is given: ``powers`` gives it fresh memory, and the oracle's
runner gives it one workspace per suite or single check, reused by every
chunk of samples (``_take_powers``).  Composing a stack of S series with a stack of
T inner series gives a (T, S) stack in one product, taken one row at a time
(``_rowwise``): BLAS rounds a row the same however many rows come with it,
so a composed row does not depend on the stack it was composed in.

Majorant sums sum |c_n| r^n are taken where they are used: in the radius
equation and in the tail functional ``oracle.bohr_tail`` (N = 0 is the
full majorant).
"""

from __future__ import annotations

import operator
from functools import cached_property

DEFAULT_ORDER = 64


class _Numpy:
    """numpy, imported at the first attribute looked up, which is then
    cached on the instance.  No module of the package uses numpy when it is
    imported, so a call that needs no arrays (a lone solve, the catalog
    listing) never loads it."""

    def __getattr__(self, name: str):
        import numpy
        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


np = _Numpy()


class OrderMismatchError(ValueError):
    """Operands of a binary series operation have different orders."""


def _integer(value) -> int | None:
    """``value`` as an int if it is an int or a numpy integer, else None; a
    bool is None too, where it would pass for 0 or 1."""
    if isinstance(value, bool):
        return None
    try:
        return operator.index(value)
    except TypeError:
        return None


def _truncation_order(order, N: int = 0) -> int:
    """``order`` as an int, checked as every truncation order is: an integer
    (not a bool), at least 1, and at least the tail index N that it must
    hold, where a window from N past the order would be empty.  The one
    statement of the rule: ``identity``, ``PsiSpec.series``, ``build_f0``,
    ``RadiusProblem``, ``sweep`` and the oracle's tail and weighted kernels
    take their order through it."""
    order = _integer(order)
    if order is None:
        raise ValueError("order must be an integer")
    if order < 1:
        raise ValueError("order must be at least 1")
    if N > order:
        raise ValueError(f"N={N} exceeds the truncation order {order}")
    return order


def _rowwise(rows: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """rows @ matrices taken one row at a time, stacks broadcast.

    Each row is its own vector-matrix product, which BLAS rounds alike
    whatever the rows around it, where a matrix-matrix product may round a
    row otherwise than alone.
    """
    return (rows[..., None, :] @ matrices)[..., 0, :]


def _toeplitz(rows: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The upper-triangular Toeplitz matrix of each row along the last axis:
    entry (j, i) is row[i - j], and 0 below the diagonal, so that
    x @ _toeplitz(row) is the Cauchy product of x and row truncated at
    their length.  Copied from a strided view of the zero-padded rows into
    ``out``, an array of the matrices' shape, or else into fresh memory.
    """
    m = rows.shape[-1]
    padded = np.zeros(rows.shape[:-1] + (2 * m - 1,))
    padded[..., m - 1:] = rows
    # Entry (j, i) sits at padded[m - 1 - j + i]: one step back per row.
    step = padded.itemsize
    matrices = np.ndarray(rows.shape[:-1] + (m, m), buffer=padded, offset=(m - 1) * step,
                          strides=padded.strides[:-1] + (-step, step))
    if out is None:
        return matrices.copy()
    np.copyto(out, matrices)
    return out


def _fill_powers(coeffs: np.ndarray, table: np.ndarray, scratch: np.ndarray) -> None:
    """Write the power table of the series ``coeffs`` (a stack, or one) into
    ``table``, of shape stack + (K + 1, K + 1), by doubling.

    Every entry of ``table`` is written, so its prior contents do not
    matter.  Each step copies the Toeplitz matrices of row n into the front
    of ``scratch``, a flat array of at least (stack size) * K^2 floats, and
    writes the product straight into the table's rows n+1..n+b.
    """
    if np.any(coeffs[..., 0] != 0.0):
        raise ValueError("a power table requires w(0) = 0")
    stack, k = coeffs.shape[:-1], coeffs.shape[-1] - 1
    table[..., 0, :] = 0.0
    table[..., 0, 0] = 1.0
    table[..., 1:2, :] = coeffs[..., None, :]  # an empty slice at order 0
    n = 1
    while n < k:
        b, m = min(n, k - n), k - n + 1
        rows = table[..., n + 1 : n + b + 1, :]
        rows[..., :n] = 0.0
        block = scratch[: coeffs[..., 0].size * m * m].reshape(stack + (m, m))
        np.matmul(table[..., 1 : b + 1, :m], _toeplitz(table[..., n, n:], block),
                  out=rows[..., n:])
        n += b


class TruncatedSeries:
    """Real power series truncated at a fixed order.

    ``coeffs`` holds finite entries c_0..c_K along its last axis, and
    ``order`` is K; leading axes, if any, hold a stack of series.  Instances
    are immutable (the coefficient array is locked, and no attribute can be
    set) and safe to share; two series are equal only if they are one
    object.
    """

    def __init__(self, coeffs):
        arr = np.array(coeffs, dtype=float)
        if arr.ndim == 0 or arr.shape[-1] == 0:
            raise ValueError("coefficients must form non-empty sequences")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "order", arr.shape[-1] - 1)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _check_single(self) -> None:
        if self.coeffs.ndim != 1:
            raise ValueError("this operation takes a single series, not a stack")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, order: int = DEFAULT_ORDER) -> "TruncatedSeries":
        """The series z."""
        c = np.zeros(_truncation_order(order) + 1)
        c[1] = 1.0
        return cls(c)

    # -- ring operations ----------------------------------------------

    def _check_order(self, other: "TruncatedSeries") -> None:
        if self.order != other.order:
            raise OrderMismatchError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_single()
        other._check_single()
        self._check_order(other)
        return TruncatedSeries(self.coeffs + other.coeffs)

    def __mul__(self, other):
        """Cauchy product truncated at the common order; scalars rescale."""
        self._check_single()
        if isinstance(other, TruncatedSeries):
            other._check_single()
            self._check_order(other)
            return TruncatedSeries(np.convolve(self.coeffs, other.coeffs)[: self.order + 1])
        if isinstance(other, (int, float)):
            return TruncatedSeries(self.coeffs * float(other))
        return NotImplemented

    __rmul__ = __mul__

    # -- analytic operations ------------------------------------------

    @cached_property
    def powers(self) -> np.ndarray:
        """Read-only table whose row n holds the coefficients of self**n,
        for a series vanishing at 0; a stack gets one table per series.

        The table is built by doubling (``_fill_powers``), in fresh memory.
        Once rows 0..n are known, rows n+1..n+b with b = min(n, K - n) are
        rows 1..b times row n: one matrix product with the triangular
        Toeplitz matrix of row n.  That is ceil(log2 K) products in place
        of K convolutions.  Row n is zero below index n, so the product
        takes columns 0..K-n of rows 1..b against the Toeplitz matrix of
        row n from index n on, and writes columns n..K.
        """
        stack, k = self.coeffs.shape[:-1], self.order
        table = np.empty(stack + (k + 1, k + 1))
        _fill_powers(self.coeffs, table, np.empty(self.coeffs[..., 0].size * k * k))
        table.flags.writeable = False
        return table

    def _take_powers(self, table: np.ndarray, scratch: np.ndarray) -> "TruncatedSeries":
        """This series, its power table built into ``table`` with ``scratch``
        (as ``_fill_powers`` takes them) and then read through ``powers``.

        The memory stays the caller's: it must outlive every use of this
        series' ``powers`` and not be written meanwhile.
        """
        _fill_powers(self.coeffs, table, scratch)
        powers = table.view()
        powers.flags.writeable = False
        # Where cached_property keeps the value it would have built.
        self.__dict__["powers"] = powers
        return self

    def compose(self, w: "TruncatedSeries") -> "TruncatedSeries":
        """Taylor coefficients of self(w(z)) truncated at the order.

        Requires w(0) = 0, which makes the truncated composition exact:
        the coefficient of z^n only sees coefficients of self up to n.
        The sum c_n w^n is taken against ``w.powers``, so composing many
        series with one w builds its power table once.  For stacks, the
        result's axes are w's stack axes, then self's: a stack of S series
        composed with a stack of T inner series is a (T, S) stack.
        """
        self._check_order(w)
        # w's stack axes, then one axis for each of self's, then the table.
        tables = w.powers.reshape(w.coeffs.shape[:-1] + (1,) * (self.coeffs.ndim - 1)
                                  + w.powers.shape[-2:])
        return TruncatedSeries(_rowwise(self.coeffs, tables))
