"""Unit-memory convolutional codes and their distance certificates.

A code is described by a polynomial parity-check matrix H(D) = H0 + H1 D
with H0 of full row rank.  This module computes exact column distances,
certified free-distance bounds, and three-valued verdicts for the MDS,
strongly-MDS and maximal-distance-profile properties.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from enum import Enum
from functools import partial
from itertools import combinations
from math import comb

import numpy as np

from .blockcode import BudgetExceeded, _Budget, min_distance
from .galois import (
    array_tables, poly_add, poly_deg, poly_gcd, poly_mul, poly_neg, poly_trim,
)
from .linalg import FMatrix, rank, rref, rref_stack


class InvalidParams(ValueError):
    """Parameters outside the admissible range."""


class RankDeficient(ValueError):
    """Matrix does not have full row rank where full row rank is required."""


class RowCountExceeded(ValueError):
    """Degree-1 coefficient has more rows than the degree-0 coefficient."""


class PropertyViolation(RuntimeError):
    """A computation contradicts a property that provably always holds."""


class Verdict(Enum):
    CONFIRMED = "confirmed"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"


class PolyMatrix:
    """Polynomial matrix, stored as coefficient matrices by ascending degree.

    Trailing zero coefficient matrices are trimmed, so the memory (the
    highest degree with a nonzero coefficient) is len(coeffs) - 1; the zero
    matrix keeps a single all-zero coefficient.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("at least one coefficient matrix required")
        shape = (coeffs[0].rows, coeffs[0].cols)
        for m in coeffs:
            if m.field != field:
                raise ValueError("coefficient matrix over the wrong field")
            if (m.rows, m.cols) != shape:
                raise ValueError("coefficient matrices differ in shape")
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        self.field = field
        self.coeffs = coeffs

    @property
    def rows(self):
        return self.coeffs[0].rows

    @property
    def cols(self):
        return self.coeffs[0].cols

    @property
    def memory(self):
        return len(self.coeffs) - 1

    def coefficient(self, d):
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return FMatrix.zero(self.field, self.rows, self.cols)

    def entry_poly(self, r, c):
        return poly_trim(tuple(m[r, c] for m in self.coeffs))

    def row_degree(self, r):
        """Highest degree with a nonzero coefficient in row r, or -1."""
        for d in range(len(self.coeffs) - 1, -1, -1):
            if any(self.coeffs[d].row(r)):
                return d
        return -1

    def row_degrees(self):
        return tuple(self.row_degree(r) for r in range(self.rows))

    def leading_coefficients(self):
        """Leading-row-coefficient matrix: row r from the coefficient of
        row r's degree.  Full row rank means the matrix is row reduced."""
        return FMatrix(
            self.field,
            [self.coefficient(d).row(r) for r, d in enumerate(self.row_degrees())],
        )

    def to_json(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "coeffs": [m.to_lists() for m in self.coeffs],
        }

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return (
            f"PolyMatrix({self.rows}x{self.cols}, memory {self.memory}, "
            f"over GF({self.field.order}))"
        )


def unit_memory_parity(h0, h1):
    """H(D) = H0 + H1 D with H1 zero-padded on top to H0's row count.

    Both inputs must be of full row rank; H1 may have fewer rows than H0
    (the padding rows carry the degree-0-only parity rows).
    """
    if h1.field != h0.field:
        raise ValueError("coefficient matrices over different fields")
    if h1.rows and h1.cols != h0.cols:
        raise ValueError("coefficient matrices differ in column count")
    if h1.rows > h0.rows:
        raise RowCountExceeded(f"{h1.rows} degree-1 rows > {h0.rows} rows")
    if rank(h0) != h0.rows:
        raise RankDeficient("degree-0 coefficient is not of full row rank")
    if h1.rows and rank(h1) != h1.rows:
        raise RankDeficient("degree-1 coefficient is not of full row rank")
    pad = FMatrix.zero(h0.field, h0.rows - h1.rows, h0.cols)
    return PolyMatrix(h0.field, (h0, pad.vstack(h1)))


def sliding_matrix(pm, j):
    """Truncated sliding matrix: block (r, c) = coefficient r - c, 0 <= r, c <= j."""
    if j < 0:
        raise ValueError("window index must be nonnegative")
    kappa, n = pm.rows, pm.cols
    zero_row = (0,) * n
    data = []
    for r in range(j + 1):
        for br in range(kappa):
            row = []
            for c in range(j + 1):
                d = r - c
                if 0 <= d <= pm.memory:
                    row.extend(pm.coeffs[d].row(br))
                else:
                    row.extend(zero_row)
            data.append(row)
    return FMatrix(pm.field, data)


@dataclass(frozen=True)
class ConvCodeDesc:
    """Convolutional code described by a minimal polynomial parity check."""

    n: int
    k: int
    delta: int
    nu: int
    parity: PolyMatrix
    row_degrees: tuple

    @property
    def field(self):
        return self.parity.field

    @classmethod
    def from_parity(cls, parity):
        degs = parity.row_degrees()
        if any(d < 0 for d in degs):
            raise RankDeficient("parity check has a zero row")
        n = parity.cols
        k = n - parity.rows
        if not 1 <= k <= n - 1:
            raise InvalidParams(f"dimension {k} outside 1..{n - 1}")
        if parity.memory > 1:
            raise InvalidParams(
                f"memory {parity.memory} > 1: only unit-memory parity checks "
                "H0 + H1 D are supported"
            )
        if rank(parity.coefficient(0)) != parity.rows:
            raise RankDeficient("degree-0 coefficient is not of full row rank")
        if rank(parity.leading_coefficients()) != parity.rows:
            raise RankDeficient(
                "parity check not row reduced: its leading-row-coefficient "
                "matrix (each degree-1 row from H1, the rest from H0) is not "
                "of full row rank"
            )
        return cls(
            n=n,
            k=k,
            delta=sum(degs),
            nu=parity.memory,
            parity=parity,
            row_degrees=degs,
        )


def singleton_and_indices(n, k, delta):
    """Generalized Singleton bound and the indices M and L.

    M is the first window index at which the bound can be attained by a
    column distance; L is the last index at which the per-window cap
    (n-k)(j+1)+1 can still be met.
    """
    if not (1 <= k <= n - 1) or delta < 0:
        raise InvalidParams(f"(n, k, delta) = ({n}, {k}, {delta})")
    r = n - k
    bound = r * (delta // k + 1) + delta + 1
    m_index = delta // k + -(-delta // r)
    l_index = delta // k + delta // r
    return bound, m_index, l_index


def _cap(kappa, j):
    """Per-window cap kappa (j + 1) + 1 on the column distance d_j."""
    return kappa * (j + 1) + 1


def dfree_bounds(desc, block_d, d0, dm=None):
    """Certified free-distance bounds from the three block distances.

    block_d is the distance of the kernel of the stacked coefficients (None
    when that kernel is zero), d0 of the degree-0 kernel, dm of the kernel of
    the nonzero degree-1 rows (None when the code has no memory).  Lower
    bound: any codeword is either constant (weight >= block_d) or spans
    several blocks, with first block in the degree-0 kernel and last block in
    the degree-1 kernel.  Upper bound: a constant codeword, if there is one,
    and the generalized Singleton bound.
    """
    bound, _, _ = singleton_and_indices(desc.n, desc.k, desc.delta)
    if block_d is None:
        lower, upper = d0 + dm, bound
    else:
        lower = block_d if dm is None else min(d0 + dm, block_d)
        upper = min(block_d, bound)
    if lower > upper:
        raise PropertyViolation(
            f"free-distance certificate {lower} exceeds its upper bound {upper}"
        )
    return lower, upper


def block_split_certificate(desc):
    """Exact distances (block_d, d0, dm) of the three block codes of H(D).

    block_d is None when the stacked [H0; H1nz] has full column rank, i.e.
    the code has no constant codeword.
    """
    h0 = desc.parity.coefficient(0)
    h1 = desc.parity.coefficient(1)
    data_rows = [r for r in range(h1.rows) if any(h1.row(r))]
    if data_rows:
        h1nz = h1.take_rows(data_rows)
        stacked = h0.vstack(h1nz)
        full_rank = rank(stacked) == desc.n
        block_d = None if full_rank else min_distance(stacked)
        d0 = min_distance(h0)
        dm = min_distance(h1nz)
        return block_d, d0, dm
    d0 = min_distance(h0)
    return d0, d0, None


_F_TABLE_LIMIT = 250_000


def _lookup(table, q, a, b):
    return table.take(np.multiply(a, q, dtype=np.intp) + b)


class _Layer:
    """Every size-w support S of H0, in lexicographic order, ready to solve
    H0_S x = t for any target t at once.

    Per support: `system`, the transform T_S (the right-hand block of the
    reduced [H0_S | I] that `_ColumnSearch._layer` gets from `rref_stack`)
    stacked on G_S T_S, where G_S = -H1 on the columns of S, pivot columns
    first (past the rank G_S meets only zero entries of T_S t whenever the
    system is solvable, so only -H1 on the pivot columns counts); the mask
    of entries of T_S t past the rank (all zero exactly when H0_S x = t is
    solvable); the number of free columns; the reduced rows of H0_S and -H1
    on S, both pivot columns first; and, once built, the slice
    [start, start + count) of the row arrays (start -1 until then).  One
    row per all-nonzero assignment c of the free columns: pivot offsets
    -R_S[:, free] c, so the pivot values are T_S t + offset, and carry
    offsets -(H1_piv offset + H1_free c), so the carry -H1 x is
    G_S T_S t + offset.  Pivot offsets past the rank are 1: there T_S t is
    zero, so those entries pass the all-nonzero test.
    """

    __slots__ = (
        "system", "beyond", "free", "reduced", "neg_h1",
        "start", "count", "pivot_off", "carry_off",
    )

    def __init__(self, system, beyond, free, reduced, neg_h1):
        self.system = system
        self.beyond = beyond
        self.free = free
        self.reduced = reduced
        self.neg_h1 = neg_h1
        self.start = np.full(free.size, -1, dtype=np.intp)
        self.count = np.zeros(free.size, dtype=np.intp)
        self.pivot_off = np.zeros((0, reduced.shape[1]), dtype=reduced.dtype)
        self.carry_off = np.zeros((0, reduced.shape[1]), dtype=reduced.dtype)


class _ColumnSearch:
    """Exact column distances by best-first search over the blocks.

    The sliding system couples consecutive blocks only through the carry
    -H1 v_{i-1}, the target of block i's system H0 v_i = t, so a window's
    search state is (block i, the line of t).  Each state is expanded weight
    by weight over the solutions of H0 v = t of that exact weight (supports
    in lexicographic order, full-support solutions only, so each solution is
    seen exactly once); solutions whose carries share a line collapse.  The
    heuristic h(t) is F(t), the least weight of a solution of H0 v = t, from
    a coset-leader table when the syndrome space is small (`_build_f_table`),
    and [t != 0] otherwise: a node's weight rises one pop at a time, so the
    search reaches F(t) on its own.  The first path to block j that leaves
    the heap with a solution has weight d_j, and an exhausted budget still
    proves the priority it was expanding.

    The supports of each weight are row-reduced once, on first use, into
    one numpy layer (`_Layer`), so solving one target on every support of
    that weight is a few array operations over lookup tables, and the
    heuristic of all the carries it leaves is one gather.
    """

    def __init__(self, desc, budget=None, d0=None):
        parity = desc.parity
        self.field = parity.field
        self.h0 = parity.coefficient(0)
        self.n = parity.cols
        self.kappa = parity.rows
        self.q = self.field.order
        self.budget = _Budget(budget)
        add, mul, self._dtype = array_tables(self.field)
        if self._dtype == np.uint8:  # flat take beats 2-D indexing on small arrays
            add, mul = (partial(_lookup, t.ravel(), self.q) for t in (add, mul))
        self._add, self._mul = add, mul
        self._minus_one = self.field.neg(1)
        self._neg_h1 = self._neg(
            np.array(parity.coefficient(1).to_lists(), dtype=self._dtype)
        )
        powers = [self.q**i for i in range(self.kappa)]
        wide = self.q**self.kappa > 2**62
        self._powers = np.array(powers, dtype=object if wide else np.int64)
        self._layers = {}
        self._sol_cache = {}
        self._dist = {}
        self._d0 = d0
        self._ftable = None
        if self.q**self.kappa <= _F_TABLE_LIMIT:
            self._build_f_table()

    def _neg(self, a):
        return self._mul(self._minus_one, a)

    def _dot(self, mats, vecs):
        """Field products mats @ vecs over the last axis, broadcasting the
        leading axes: mats (..., a, b), vecs (..., b) -> (..., a)."""
        add, mul = self._add, self._mul
        if mats.shape[-1] == 0:
            shape = np.broadcast_shapes(mats.shape[:-1], vecs.shape[:-1] + (1,))
            return np.zeros(shape, dtype=self._dtype)
        acc = mul(mats[..., 0], vecs[..., None, 0])
        for j in range(1, mats.shape[-1]):
            acc = add(acc, mul(mats[..., j], vecs[..., None, j]))
        return acc

    def _dec(self, code):
        return (code // self._powers % self.q).astype(self._dtype)

    def _build_f_table(self):
        """F(t), the least weight of a solution of H0 v = t, for every
        syndrome t, by dynamic programming over the columns of H0.

        F lives on the syndrome array, one axis per coordinate of t.  After
        column h, F(t) = min(F(t), 1 + min_{a != 0} F(t + a h)), since a
        and -a run over the same nonzero elements.  The shift t -> t + a h
        acts on each coordinate alone, so it is one `take` along each axis
        where h is nonzero, indexed by the add table's column of a h_i;
        successive takes beat one `np.ix_` gather several times over.  A
        zero column, and a column parallel to an earlier one, reach no new
        syndrome, so they are skipped.  A least-weight solution has
        independent columns, so its weight is at most kappa: a syndrome
        still at the sentinel kappa + 1 at the end is unreachable.
        """
        f, q, kappa = self.field, self.q, self.kappa
        add = array_tables(f)[0]
        elems = np.arange(q)
        unreached = kappa + 1
        table = np.full((q,) * kappa, unreached, dtype=np.int16)
        table[(0,) * kappa] = 0
        nonzero = list(f.nonzero_elements())
        lines = set()
        for c in range(self.n):
            col = self.h0.column(c)
            multiples = [tuple(f.mul(a, x) for x in col) for a in nonzero]
            line = min(multiples)  # the same for every column on one line
            if not any(line) or line in lines:
                continue
            lines.add(line)
            best = None
            for mult in multiples:
                moved = table
                for axis, x in enumerate(mult):
                    if x:
                        moved = moved.take(add[elems, x], axis=axis)
                best = moved if best is None else np.minimum(best, moved, out=best)
            table = np.minimum(table, best + 1)
        if (table == unreached).any():
            raise RuntimeError("syndrome space not fully reachable")
        # Axis i holds coordinate i of t, so Fortran order is the code order.
        self._ftable = table.ravel(order="F")

    def _layer(self, w):
        """The weight-w layer, built on first use by one `rref_stack` of
        [H0_S | I_kappa] over every size-w support S; `rref` of the last
        support cross-checks it.  It has no rows yet: `_add_rows` builds
        them for the supports a query has paid for.

        T H0_S is the reduced form of H0_S, so H0_S x = t is inconsistent
        exactly when T t is nonzero past the rank; otherwise RREF is unique,
        and rref([H0_S | t]) is the reduced rows with right-hand column T t.
        """
        layer = self._layers.get(w)
        if layer is not None:
            return layer
        kappa, dt = self.kappa, self._dtype
        supports = np.array([*combinations(range(self.n), w)], np.intp)
        size = len(supports)
        h0 = np.array(self.h0.to_lists(), dtype=dt)[:, supports].swapaxes(0, 1)
        ident = np.broadcast_to(np.eye(kappa, dtype=dt), (size, kappa, kappa))
        aug = np.concatenate([h0, ident], axis=2)
        stack, mask = rref_stack(self.field, aug)
        check, _, pivots = rref(FMatrix(self.field, aug[-1]))
        found = (stack[-1].tolist(), tuple(np.flatnonzero(mask[-1]).tolist()))
        if (check.to_lists(), pivots) != found:
            raise PropertyViolation(f"rref_stack disagrees with rref at weight {w}")
        # Columns of each support and its reduced rows, pivot columns first.
        order = np.argsort(~mask[:, :w], axis=1, kind="stable")
        cols = np.take_along_axis(supports, order, axis=1)
        ranks = mask[:, :w].sum(axis=1)
        transform = stack[:, :, w:]
        neg_h1 = np.moveaxis(self._neg_h1[:, cols], 0, 1)  # (size, kappa, w)
        carry = np.zeros((size, kappa, kappa), dtype=dt)
        carry[:, :, : min(w, kappa)] = neg_h1[:, :, :kappa]
        carry_map = self._dot(carry[:, None], transform.swapaxes(1, 2)).swapaxes(1, 2)
        layer = _Layer(
            system=np.concatenate([transform, carry_map], axis=1),
            beyond=np.arange(kappa) >= ranks[:, None],
            free=w - ranks,
            reduced=np.take_along_axis(stack[:, :, :w], order[:, None], axis=2),
            neg_h1=neg_h1,
        )
        self._layers[w] = layer
        return layer

    def _add_rows(self, layer, idx):
        """Build the rows of the supports idx of the layer, for all of them
        with equal number of free columns at once."""
        kappa, dt = self.kappa, self._dtype
        w = layer.reduced.shape[2]
        used = len(layer.pivot_off)
        pivot_off, carry_off = [layer.pivot_off], [layer.carry_off]
        free = layer.free[idx]
        for nfree in np.unique(free).tolist():
            group = idx[free == nfree]
            rk = w - nfree
            reduced = layer.reduced[group, None, :rk, rk:]  # (m, 1, rk, nfree)
            # Every all-nonzero assignment of the free columns, one per row.
            combos = (self.q - 1) ** nfree
            grid = np.indices((self.q - 1,) * nfree, dtype=dt)
            assign = grid.reshape(nfree, combos).T + 1
            offset = self._neg(self._dot(reduced, assign[None]))  # (m, K, rk)
            x = np.concatenate(
                [offset, np.broadcast_to(assign, offset.shape[:2] + (nfree,))], axis=2
            )
            carry_off.append(self._dot(layer.neg_h1[group, None], x).reshape(-1, kappa))
            pad = np.ones(offset.shape[:2] + (kappa - rk,), dtype=dt)
            pivot_off.append(np.concatenate([offset, pad], axis=2).reshape(-1, kappa))
            layer.count[group] = combos
            layer.start[group] = used + combos * np.arange(group.size)
            used += combos * group.size
        layer.pivot_off = np.concatenate(pivot_off)
        layer.carry_off = np.concatenate(carry_off)

    def _solutions(self, t_enc, w):
        """Encoded next targets -H1 v over solutions of H0 v = t, wt(v) = w,
        one per line: each scaled so its first nonzero coordinate is 1.  For
        a != 0, H0(a v) = a t, wt(a v) = wt(v) and a v carries a times v's
        carry, so the answer for a t is the answer for t (see `_search`).

        Each weight-w solution has full support on exactly one size-w column
        set, so scanning all supports and keeping the everywhere-nonzero
        solutions enumerates each solution once.  The budget is charged one
        step per support and q^|free| per solvable support with free columns,
        one step per assignment of its free columns.  Both charges come
        before the work they pay for: the supports' reductions, and the rows
        of supports that have none yet, so rows never outnumber steps spent.
        """
        key = (t_enc, w)
        cached = self._sol_cache.get(key)
        if cached is not None:
            return cached
        self.budget.spend(comb(self.n, w))
        layer = self._layer(w)
        # T_S t and G_S T_S t per support S; solvable: T_S t zero past rank.
        out = self._dot(layer.system, self._dec(t_enc))
        rhs, base = out[:, : self.kappa], out[:, self.kappa :]
        hit = np.flatnonzero(~((rhs != 0) & layer.beyond).any(axis=1))
        per_free = np.bincount(layer.free[hit], minlength=w + 1).tolist()
        self.budget.spend(sum(c * self.q**f for f, c in enumerate(per_free) if f))
        missing = hit[layer.start[hit] < 0]
        if missing.size:
            try:
                self._add_rows(layer, missing)
            except (MemoryError, ValueError) as exc:  # ValueError: a size past intp
                raise InvalidParams(
                    f"cannot build up to {self.q - 1}^{layer.free[missing].max()} "
                    f"rows per support of weight {w} over GF({self.q}): {exc}"
                ) from None
        counts = layer.count[hit]
        firsts = layer.start[hit] - (np.cumsum(counts) - counts)
        rows = np.arange(counts.sum()) + np.repeat(firsts, counts)
        pivots = self._add(np.repeat(rhs[hit], counts, axis=0), layer.pivot_off[rows])
        full = pivots.all(axis=1)
        base = np.repeat(base[hit], counts, axis=0)[full]
        carries = self._add(base, layer.carry_off[rows[full]])
        codes = np.unique(carries.astype(self._powers.dtype) @ self._powers)
        digits = self._dec(codes[:, None])
        leads = digits[np.arange(codes.size), (digits != 0).argmax(axis=1)]
        present, which = np.unique(leads, return_inverse=True)
        inv = [self.field.inv(a) if a else 0 for a in present.tolist()]
        scale = np.array(inv, dtype=self._dtype)[which]
        digits = self._mul(scale[:, None], digits)
        result = np.unique(digits.astype(self._powers.dtype) @ self._powers)
        result.flags.writeable = False
        self._sol_cache[key] = result
        return result

    def distance(self, j):
        if j in self._dist:
            return self._dist[j]
        cap = _cap(self.kappa, j)
        if self._d0 is None:
            self._d0 = min_distance(self.h0)
        d = self._d0 if j == 0 else self._search(j, cap)
        if d > cap:
            raise PropertyViolation(f"d_{j} = {d} exceeds its cap {cap}")
        self._dist[j] = d
        return d

    def _search(self, j, cap):
        """d_j by best-first (A*) search over the nodes (block i, target t).

        A heap entry (priority, -i, t, w) solves H0 v_i = t at weight w
        after weight g = priority - w on blocks 0..i-1.  A node enters at
        w = h(t), block 0 at w = d_0 with t = 0.  Popping an entry pushes
        the same node at weight w + 1 and asks `_solutions(t, w)`: at block
        j a nonempty answer is the goal, below it each carry t' becomes a
        node of block i + 1 at g + w + h(t').  Nothing is pushed above the
        cap; ties pop the deepest block first.

        Exactness: h(t) <= F(t) <= wt(v) for every block v with H0 v = t
        (F(0) = 0 and F(t) >= 1 otherwise), so h is consistent.  A child's
        g is the priority just popped, and pops never decrease, so a node's
        first push carries its least g and is its only push.  Every entry on
        a cheapest path has priority <= d_j, because h never exceeds the
        weight of the block it stands for.  So the first block-j pop with a
        solution is d_j, and an exhausted budget proves the priority being
        expanded.  With the table the first block-j pop is the goal: a
        weight-F(t) solution has full support on F(t) columns.

        Targets are carry lines (`_solutions`).  That changes none of the
        above: F(a t) = F(t) and [a t != 0] = [t != 0], so h is the same on
        every point of a line; whether `_solutions(t, w)` is empty, the goal
        test, is too; and the weights reachable from block i onward depend
        only on the line, so `reached` may dedupe by line.
        """
        d0, n, ftable = self._d0, self.n, self._ftable
        reached = [set() for _ in range(j + 1)]  # targets pushed, per block
        heap = [(d0, 0, 0, d0)]
        while heap:
            priority, neg_i, t, w = heapq.heappop(heap)
            if w < n and priority < cap:
                heapq.heappush(heap, (priority + 1, neg_i, t, w + 1))
            try:
                carries = self._solutions(t, w)
            except BudgetExceeded as e:
                raise BudgetExceeded(str(e), lower_bound=priority) from None
            if -neg_i == j:
                if carries.size:
                    return priority
                continue
            h = (carries != 0).astype(np.intp) if ftable is None else ftable[carries]
            keep = h <= cap - priority
            seen = reached[1 - neg_i]
            for c, f in zip(carries[keep].tolist(), h[keep].tolist()):
                if c not in seen:
                    seen.add(c)
                    heapq.heappush(heap, (priority + f, neg_i - 1, c, f))
        raise PropertyViolation(
            f"no weight <= {cap} kernel vector with nonzero first block "
            f"at window {j}"
        )


def column_distance(desc, j, budget=None):
    """Exact j-th column distance: the least weight of a kernel vector of the
    sliding matrix whose first length-n block is nonzero.

    The search walks the blocks sequentially with the carry syndrome as
    state (`_ColumnSearch`).
    """
    if j < 0:
        raise InvalidParams("window index must be nonnegative")
    return _ColumnSearch(desc, budget=budget).distance(j)


@dataclass(frozen=True)
class ConvReport:
    """Classification result with certified bounds and their provenance."""

    desc: ConvCodeDesc
    singleton_bound: int
    M: int
    L: int
    column_distances: dict
    dfree_lower: int
    dfree_upper: int
    mds: Verdict
    strongly_mds: Verdict
    mdp: Verdict
    certificates: tuple

    def to_json(self):
        return {
            "n": self.desc.n,
            "k": self.desc.k,
            "delta": self.desc.delta,
            "nu": self.desc.nu,
            "singleton_bound": self.singleton_bound,
            "M": self.M,
            "L": self.L,
            "column_distances": {
                str(j): d for j, d in sorted(self.column_distances.items())
            },
            "dfree": [self.dfree_lower, self.dfree_upper],
            "verdicts": {key: v.value for key, v in self.verdicts().items()},
            "certificates": [dict(c) for c in self.certificates],
        }

    def verdicts(self):
        """Verdict per property, keyed as in reports and `expected` tags."""
        return {"mds": self.mds, "smds": self.strongly_mds, "mdp": self.mdp}


# classify's last column-distance window and step budget, shared with the CLI
# and check_fixture.
DEFAULT_JMAX = 4
DEFAULT_BUDGET = 10_000_000


def classify(desc, certs=None, jmax=DEFAULT_JMAX, budget=DEFAULT_BUDGET):
    """Full MDS / strongly-MDS / maximal-distance-profile classification.

    certs may carry precomputed (block_d, d0, dm) block distances.  Column
    distances are computed for windows 0..jmax under the step budget; once a
    column distance reaches the Singleton bound the remaining windows are
    filled without search (the sequence is nondecreasing and capped by the
    bound).  Verdicts are Refuted only on an exact computed shortfall and
    Inconclusive only when the budget or jmax truncated the evidence.
    """
    bound, m_index, l_index = singleton_and_indices(desc.n, desc.k, desc.delta)
    kappa = desc.n - desc.k
    if certs is None:
        certs = block_split_certificate(desc)
    block_d, d0, dm = certs
    cert_lower, upper = dfree_bounds(desc, block_d, d0, dm)
    certificates = [
        {
            "type": "block-split",
            "block_d": block_d,
            "d0": d0,
            "dm": dm,
            "lower": cert_lower,
            "upper": upper,
        }
    ]
    engine = _ColumnSearch(desc, budget=budget, d0=d0)
    dists = {}
    saturated_from = None
    budget_note = None
    for j in range(jmax + 1):
        if j - 1 in dists and dists[j - 1] == bound:
            dists[j] = bound
            if saturated_from is None:
                saturated_from = j
            continue
        try:
            dists[j] = engine.distance(j)
        except BudgetExceeded as e:
            budget_note = {
                "type": "budget-exhausted",
                "j": j,
                "lower_bound": e.lower_bound,
            }
            break
    for j in sorted(dists):
        cap_j = _cap(kappa, j)
        if dists[j] > cap_j:
            raise PropertyViolation(f"d_{j} = {dists[j]} exceeds its cap {cap_j}")
        if dists[j] > upper:
            raise PropertyViolation(
                f"d_{j} = {dists[j]} exceeds the free-distance bound {upper}"
            )
        if j - 1 in dists and dists[j] < dists[j - 1]:
            raise PropertyViolation(f"column distances decrease at window {j}")
    if saturated_from is not None:
        certificates.append({"type": "saturation", "from_j": saturated_from})
    cap_hits = [j for j in dists if dists[j] == _cap(kappa, j)]
    cascade_ok = True
    if cap_hits:
        top = max(cap_hits)
        cascade_ok = all(dists[i] == _cap(kappa, i) for i in range(top + 1))
    certificates.append({"type": "cascade", "ok": cascade_ok})
    best_cd = max(dists.values(), default=0)
    lower = max(cert_lower, best_cd)
    if lower > upper:
        raise PropertyViolation(
            f"merged lower bound {lower} exceeds the upper bound {upper}"
        )
    if dists and best_cd > cert_lower:
        j_star = min(j for j in dists if dists[j] == best_cd)
        certificates.append(
            {"type": "column-distance", "j": j_star, "value": best_cd}
        )
    if budget_note is not None:
        certificates.append(budget_note)

    if lower == bound:
        mds = Verdict.CONFIRMED
    elif upper < bound:
        mds = Verdict.REFUTED
    else:
        mds = Verdict.INCONCLUSIVE

    def window_verdict(index, target):
        if index in dists:
            return Verdict.CONFIRMED if dists[index] == target else Verdict.REFUTED
        return Verdict.INCONCLUSIVE

    smds = window_verdict(m_index, bound)
    mdp = window_verdict(l_index, _cap(kappa, l_index))
    return ConvReport(
        desc=desc,
        singleton_bound=bound,
        M=m_index,
        L=l_index,
        column_distances=dists,
        dfree_lower=lower,
        dfree_upper=upper,
        mds=mds,
        strongly_mds=smds,
        mdp=mdp,
        certificates=tuple(certificates),
    )


def minimality_check(pm):
    """Minimal-encoder test: row_reduced (full-rank leading-row-coefficient
    matrix) and basic (gcd of the maximal minors is a nonzero constant).
    """
    degs = pm.row_degrees()
    if any(d < 0 for d in degs):
        raise RankDeficient("zero row")
    f = pm.field
    kappa, n = pm.rows, pm.cols
    if kappa > n:
        raise RankDeficient("more rows than columns")
    row_reduced = rank(pm.leading_coefficients()) == kappa
    entries = [[pm.entry_poly(r, c) for c in range(n)] for r in range(kappa)]
    gcd = ()
    seen_nonzero = False
    for cols in combinations(range(n), kappa):
        det = _poly_det(f, [[entries[r][c] for c in cols] for r in range(kappa)])
        if det:
            seen_nonzero = True
            gcd = poly_gcd(f, gcd, det)
            if poly_deg(gcd) == 0:
                break
    if not seen_nonzero:
        raise RankDeficient("all maximal minors vanish")
    return {"row_reduced": row_reduced, "basic": poly_deg(gcd) == 0}


def _poly_det(field, rows):
    size = len(rows)
    memo = {}

    def det(cols):
        if not cols:
            return (1,)
        cached = memo.get(cols)
        if cached is not None:
            return cached
        r = size - len(cols)
        acc = ()
        for i, c in enumerate(cols):
            entry = rows[r][c]
            if not entry:
                continue
            sub = det(cols[:i] + cols[i + 1 :])
            if not sub:
                continue
            term = poly_mul(field, entry, sub)
            if i % 2:
                term = poly_neg(field, term)
            acc = poly_add(field, acc, term)
        memo[cols] = acc
        return acc

    return det(tuple(range(size)))
