"""Exact dense linear algebra over a finite field.

Matrices are immutable; every operation returns a new matrix.  The entry
type is the owning field's integer encoding.  Reduction uses the first
nonzero entry in column order as the pivot, so reduced forms are canonical
and byte-reproducible.
"""

from __future__ import annotations

from .galois import op_tables


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

