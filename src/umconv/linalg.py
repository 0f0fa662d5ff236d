"""Exact dense linear algebra over a finite field.

Matrices are immutable; every operation returns a new matrix.  The entry
type is the owning field's integer encoding.  Reduction uses the first
nonzero entry in column order as the pivot, so reduced forms are canonical
and byte-reproducible.
"""

from __future__ import annotations

import numpy as np

from .galois import array_tables, op_tables


class FieldMismatch(ValueError):
    """Operands live over different fields."""


class IndexOutOfRange(IndexError):
    """Row or column index outside the matrix."""


class FMatrix:
    """Immutable matrix over a Field or ExtField."""

    __slots__ = ("field", "rows", "cols", "_data")

    def __init__(self, field, data):
        data = tuple(tuple(int(x) for x in row) for row in data)
        if data and any(len(row) != len(data[0]) for row in data):
            raise ValueError("ragged rows")
        order = field.order
        for row in data:
            for x in row:
                if not 0 <= x < order:
                    raise ValueError(f"entry {x} outside GF({order})")
        self.field = field
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        self._data = data

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, [[0] * cols for _ in range(rows)])

    def row(self, r):
        if not 0 <= r < self.rows:
            raise IndexOutOfRange(f"row {r} of {self.rows}")
        return self._data[r]

    def column(self, c):
        if not 0 <= c < self.cols:
            raise IndexOutOfRange(f"column {c} of {self.cols}")
        return tuple(row[c] for row in self._data)

    def __getitem__(self, rc):
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexOutOfRange(f"entry ({r}, {c}) of {self.rows}x{self.cols}")
        return self._data[r][c]

    def to_lists(self):
        return [list(row) for row in self._data]

    def is_zero(self):
        return all(all(x == 0 for x in row) for row in self._data)

    def take_rows(self, indices):
        return FMatrix(self.field, [self.row(r) for r in indices])

    def take_cols(self, indices):
        for c in indices:
            if not 0 <= c < self.cols:
                raise IndexOutOfRange(f"column {c} of {self.cols}")
        return FMatrix(self.field, [[row[c] for c in indices] for row in self._data])

    def vstack(self, other):
        if other.field != self.field:
            raise FieldMismatch("vstack over different fields")
        if self.rows and other.rows and other.cols != self.cols:
            raise ValueError("column count mismatch")
        return FMatrix(self.field, self._data + other._data)

    def matvec(self, v):
        v = tuple(v)
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != {self.cols}")
        f = self.field
        return tuple(_dot(f, row, v) for row in self._data)

    def __eq__(self, other):
        if not isinstance(other, FMatrix):
            return NotImplemented
        return self.field == other.field and self._data == other._data

    def __hash__(self):
        return hash((self.field, self._data))

    def __repr__(self):
        return f"FMatrix({self.rows}x{self.cols} over GF({self.field.order}))"

    def render(self):
        """Text form, entries separated by ' | ' within a row."""
        f = self.field
        return "\n".join(
            " | ".join(f.element_str(x) for x in row) for row in self._data
        )


def _dot(field, u, v):
    acc = 0
    for a, b in zip(u, v):
        if a and b:
            acc = field.add(acc, field.mul(a, b))
    return acc


def rref(mat):
    """Reduced row echelon form.

    Returns (reduced matrix, rank, pivot column tuple).  Pivots are chosen as
    the first nonzero entry in column order, which makes the output canonical.
    The arithmetic reads the field's `op_tables`.
    """
    f = mat.field
    _, sub, mul, inv = op_tables(f)
    data = mat.to_lists()
    nrows, ncols = mat.rows, mat.cols
    pivots = []
    prow = 0
    for col in range(ncols):
        if prow >= nrows:
            break
        sel = None
        for r in range(prow, nrows):
            if data[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        data[prow], data[sel] = data[sel], data[prow]
        pivot = data[prow][col]
        if pivot != 1:
            scale = mul[inv[pivot]]
            data[prow] = [scale[x] for x in data[prow]]
        rowp = data[prow]
        for r in range(nrows):
            if r != prow and data[r][col] != 0:
                times_c = mul[data[r][col]]
                data[r] = [sub[x][times_c[y]] for x, y in zip(data[r], rowp)]
        pivots.append(col)
        prow += 1
    return FMatrix(f, data), len(pivots), tuple(pivots)


def rref_stack(field, mats):
    """Reduced row echelon forms of a (B, r, c) stack of element codes.

    Returns (reduced stack, (B, c) pivot mask).  One vectorized step per
    column: every matrix with a nonzero entry at or below its own rank there
    pivots on the first such entry, as `rref` does, and clears the column in
    its other rows.  RREF is unique, so each matrix equals its `rref` entry
    for entry.  The arithmetic indexes `array_tables` in 2-D, so fields above
    256 elements run through their elementwise stand-ins.
    """
    add, mul, dtype = array_tables(field)
    m = np.array(mats, dtype=dtype)
    count, nrows, ncols = m.shape
    mask = np.zeros((count, ncols), dtype=bool)
    ranks = np.zeros(count, dtype=np.intp)
    minus_one = field.neg(1)
    for col in range(ncols):
        below = (m[:, :, col] != 0) & (np.arange(nrows) >= ranks[:, None])
        idx = np.flatnonzero(below.any(axis=1))
        if not idx.size:
            continue
        k, prow, sel = np.arange(idx.size), ranks[idx], below[idx].argmax(axis=1)
        sub = m[idx]
        pivot_row = sub[k, sel]
        sub[k, sel] = sub[k, prow]
        present, which = np.unique(pivot_row[:, col], return_inverse=True)
        inv = np.array([field.inv(a) for a in present.tolist()], dtype=dtype)
        pivot_row = mul[inv[which, None], pivot_row]
        factor = mul[minus_one, sub[:, :, col]]
        sub = add[sub, mul[factor[:, :, None], pivot_row[:, None, :]]]
        sub[k, prow] = pivot_row
        m[idx] = sub
        mask[idx, col] = True
        ranks[idx] += 1
    return m, mask


def rank(mat):
    return rref(mat)[1]


def nullspace(mat):
    """Canonical right-kernel basis, one vector per free column.

    Each basis vector has a 1 in its free column and zeros in the other free
    columns; vectors are ordered by ascending free column index.
    """
    f = mat.field
    reduced, _, pivots = rref(mat)
    pivot_set = set(pivots)
    free = [c for c in range(mat.cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [0] * mat.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = f.neg(reduced[r, fc])
        basis.append(tuple(v))
    return basis

