"""Exact linear algebra over Q(zeta_m): rank, membership, subspace equality
and intersection.

None of it is in the verification pipeline: every rank and membership there
is decided per sigma-orbit block by liealg.block_spans, whose differential
tests use RowSpace as their oracle.  The benchmark's tracer still wraps
RowSpace.add and RowSpace.contains by name.

RowSpace, an incrementally reduced row echelon basis, is the only Gaussian
elimination.  It takes and keeps sparse rows, dicts {column: value} of the
nonzero entries (the format of a group-algebra element's terms), so an
elimination step costs the nonzeros of the rows involved, not the number of
columns.  A CycloMatrix is the dense front end: it is the one place that
turns dense rows into sparse ones, and it reduces them into one RowSpace on
first use.  A RowSpace can be copied, so a sum of subspaces extends one
finished reduction instead of redoing it.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from .cyclo import CycloContext, CycloScalar
from .errors import DimensionMismatch


class CycloMatrix:
    """Dense matrix over Q(zeta_m); rows span a subspace of Q(zeta_m)^cols.

    The rows are stored as tuples, so the row space reduced on first use
    stays valid and every rank or membership question reads that one
    reduction.
    """

    def __init__(self, ctx: CycloContext, entries, cols: int | None = None):
        self.ctx = ctx
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        if self.rows:
            self.cols = len(self.entries[0])
            if any(len(r) != self.cols for r in self.entries):
                raise DimensionMismatch("ragged rows")
        else:
            if cols is None:
                raise DimensionMismatch("empty matrix needs an explicit column count")
            self.cols = cols
        self._row_space: RowSpace | None = None

    def transpose(self) -> "CycloMatrix":
        if not self.rows:
            return CycloMatrix(self.ctx, [[] for _ in range(self.cols)], cols=0)
        return CycloMatrix(self.ctx, [list(col) for col in zip(*self.entries)])

    def rank(self) -> int:
        return self.row_space().rank

    def row_space(self) -> "RowSpace":
        """The reduced row space, built on first use; callers must not add to it."""
        if self._row_space is None:
            self._row_space = RowSpace(self.ctx, self.cols,
                                       [dict(enumerate(row)) for row in self.entries])
        return self._row_space

    def to_complex_array(self) -> np.ndarray:
        return np.array(
            [[complex(x) for x in row] for row in self.entries], dtype=complex
        ).reshape(self.rows, self.cols)

    def __repr__(self):
        return f"CycloMatrix({self.rows}x{self.cols}, m={self.ctx.m})"


class RowSpace:
    """Incrementally maintained reduced row echelon basis of sparse rows
    {column: value}, starting from the span of `vectors`.

    Each row is stored as a dict of its nonzero entries, keyed by its pivot:
    the row's smallest nonzero column, where its entry is 1.  Every pivot
    column is zero in every other row, so clearing one pivot from a vector
    leaves the vector's entries at the other pivots unchanged.  The pivots
    can therefore be cleared in any order, each once, and the reduced vector
    is the same exact vector whichever order is used.
    """

    def __init__(self, ctx: CycloContext, ncols: int, vectors=()):
        self.ctx = ctx
        self.ncols = ncols
        self._rows: dict[int, dict[int, CycloScalar]] = {}
        for vec in vectors:
            self.add(vec)

    @property
    def rank(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> Mapping[int, dict[int, CycloScalar]]:
        """The reduced rows keyed by pivot, read-only; callers must not
        modify a row."""
        return MappingProxyType(self._rows)

    def reduce(self, vec) -> dict[int, CycloScalar]:
        """The nonzero entries of vec (a dict; zero values are dropped)
        reduced by every pivot row."""
        v = {j: x for j, x in vec.items() if x}
        rows = self._rows
        zero = self.ctx.zero
        for p in [j for j in v if j in rows]:
            coef = v.pop(p)
            for k, r in rows[p].items():
                if k != p:
                    x = v.get(k, zero) - coef * r
                    if x:
                        v[k] = x
                    else:
                        del v[k]
        return v

    def contains(self, vec) -> bool:
        return not self.reduce(vec)

    def copy(self) -> "RowSpace":
        """An independent RowSpace with the same rows; adding to either
        leaves the other unchanged."""
        out = RowSpace(self.ctx, self.ncols)
        out._rows = {piv: dict(row) for piv, row in self._rows.items()}
        return out

    def add(self, vec) -> bool:
        """Insert a vector; returns True when it enlarges the span.

        The new row is the reduced vector scaled to 1 at its pivot.  A
        single-entry vector becomes {piv: 1} and a vector already 1 at its
        pivot is kept as it is, so neither pays for an inverse.
        """
        v = self.reduce(vec)
        if not v:
            return False
        piv = min(v)
        one = self.ctx.one
        if len(v) == 1:
            v = {piv: one}
        elif v[piv] != one:
            inv = v[piv].inverse()
            v = {k: x * inv for k, x in v.items()}
        zero = self.ctx.zero
        for row in self._rows.values():
            coef = row.get(piv)
            if coef is not None:
                for k, x in v.items():
                    y = row.get(k, zero) - coef * x
                    if y:
                        row[k] = y
                    else:
                        del row[k]
        self._rows[piv] = v
        return True


def intersect(a: CycloMatrix, b: CycloMatrix) -> CycloMatrix:
    """Matrix whose rows span rowspace(a) & rowspace(b) (Zassenhaus trick)."""
    if a.cols != b.cols:
        raise DimensionMismatch(f"ambient dimensions differ: {a.cols} vs {b.cols}")
    n = a.cols
    ctx = a.ctx
    zero = ctx.zero
    rs = RowSpace(ctx, 2 * n)
    for row in a.entries:
        rs.add(dict(enumerate(row + row)))
    for row in b.entries:
        rs.add(dict(enumerate(row)))
    out = [[row.get(k, zero) for k in range(n, 2 * n)]
           for piv, row in sorted(rs._rows.items()) if piv >= n]
    return CycloMatrix(ctx, out, cols=n)


def row_spaces_equal(a: CycloMatrix, b: CycloMatrix) -> bool:
    if a.cols != b.cols:
        raise DimensionMismatch(f"ambient dimensions differ: {a.cols} vs {b.cols}")
    rs = a.row_space()
    return rs.rank == b.rank() and all(rs.contains(dict(enumerate(row))) for row in b.entries)
