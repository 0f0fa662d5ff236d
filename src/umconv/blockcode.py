"""MDS block codes from root and evaluation parity checks.

Builds parity-check matrices for polynomially cyclic codes (ideals of
F_q[x]/(f)), constacyclic codes and generalized Reed-Solomon codes, turns
parity checks over a quadratic extension into base-field parity checks, and
computes exact minimum distances by two independent routes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .galois import (
    ExtField, array_tables, op_tables, poly_divmod, poly_from_roots, poly_trim,
)
from .linalg import FMatrix, nullspace, rank

_ENUMERATION_LIMIT = 2**20
_MIN_DISTANCE_MEMO = {}  # parity FMatrix -> proven distance; see min_distance


class DuplicateRoots(ValueError):
    """Root list contains a repeated root."""


class DuplicatePoints(ValueError):
    """Evaluation points are not pairwise distinct."""


class BudgetExceeded(RuntimeError):
    """Search budget exhausted; lower_bound holds the best proven bound."""

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


class _Budget:
    """Search steps left to spend; a limit of None is unlimited."""

    __slots__ = ("remaining",)

    def __init__(self, limit):
        self.remaining = limit

    def spend(self, amount=1, lower_bound=None):
        if self.remaining is None:
            return
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceeded("search budget exhausted", lower_bound)


@dataclass(frozen=True)
class RootSpec:
    """Geometric progression of roots: base_point * step^j for j in [lo, hi]."""

    ambient: object
    step: int
    lo: int
    hi: int
    base_point: int = 1

    def roots(self):
        f = self.ambient
        return tuple(
            f.mul(self.base_point, f.pow(self.step, j))
            for j in range(self.lo, self.hi + 1)
        )


def base_field_closure_check(spec):
    """Whether the root set over GF(q^2) defines a polynomial over GF(q).

    Checks both that the root set is closed under x -> x^q and that the
    expanded polynomial has all coefficients in the base field; the two
    conditions are equivalent and both are evaluated.
    """
    field, roots = spec.ambient, spec.roots()
    if not isinstance(field, ExtField):
        raise TypeError("closure check needs roots over an ExtField")
    if len(set(roots)) != len(roots):
        raise DuplicateRoots(f"repeated root in {roots}")
    root_set = set(roots)
    closed = all(field.frobenius(r) in root_set for r in roots)
    poly = poly_from_roots(field, roots)
    coeffs_ok = all(field.in_base(c) for c in poly)
    if closed != coeffs_ok:
        raise RuntimeError("closure and coefficient tests disagree")
    return closed


def downcast_poly(ext, poly):
    """Coefficients of a base-field polynomial given over the extension."""
    out = []
    for c in poly:
        a, b = ext.decompose(c)
        if b != 0:
            raise ValueError("polynomial has a coefficient outside the base field")
        out.append(a)
    return tuple(out)


def root_parity_matrix(field, roots, n):
    """Parity check with entry (j, i) = roots[j]^i, i = 0..n-1."""
    roots = tuple(roots)
    if len(set(roots)) != len(roots):
        raise DuplicateRoots(f"repeated root in {roots}")
    return FMatrix(field, [[field.pow(r, i) for i in range(n)] for r in roots])


def evaluation_parity_matrix(field, points, r):
    """Parity check with entry (j, i) = points[i]^j.

    The convention 0^0 = 1 applies, so the zero point contributes the column
    (1, 0, ..., 0).
    """
    points = tuple(points)
    if len(set(points)) != len(points):
        raise DuplicatePoints(f"repeated evaluation point in {points}")
    return FMatrix(field, [[field.pow(v, j) for v in points] for j in range(r)])


def realify(ext_matrix):
    """Base-field parity check with the same kernel on base-field vectors.

    Each row h over GF(q^2) is split along the basis (1, e) into h = h1 + e*h2
    and contributes the base-field rows h1 then h2, in that order; component
    rows that are identically zero are dropped.
    """
    ext = ext_matrix.field
    if not isinstance(ext, ExtField):
        raise TypeError("realify needs a matrix over an ExtField")
    base = ext.base
    rows = []
    for r in range(ext_matrix.rows):
        part1 = []
        part2 = []
        for x in ext_matrix.row(r):
            a, b = ext.decompose(x)
            part1.append(a)
            part2.append(b)
        if any(part1):
            rows.append(part1)
        if any(part2):
            rows.append(part2)
    return FMatrix(base, rows)


@dataclass(frozen=True)
class BlockCode:
    """Linear [n, k, d] code given by a parity-check matrix."""

    field: object
    n: int
    k: int
    d: int
    is_mds: bool
    parity: FMatrix
    generator_poly: tuple | None = None
    modulus_poly: tuple | None = None

    def to_json(self):
        return {
            "q": self.field.order,
            "n": self.n,
            "k": self.k,
            "d": self.d,
            "is_mds": self.is_mds,
            "parity": self.parity.to_lists(),
            "generator_poly": list(self.generator_poly)
            if self.generator_poly is not None
            else None,
            "modulus_poly": list(self.modulus_poly)
            if self.modulus_poly is not None
            else None,
        }


def block_code_from_parity(field, parity, generator_poly=None, modulus_poly=None):
    n = parity.cols
    k = n - rank(parity)
    if generator_poly is not None:
        gen = poly_trim(generator_poly)
        if len(gen) - 1 != n - k:
            raise ValueError("generator degree does not match the parity rank")
        if modulus_poly is not None:
            _, rem = poly_divmod(field, modulus_poly, gen)
            if rem:
                raise ValueError("generator polynomial does not divide the modulus")
    d = min_distance(parity)
    return BlockCode(
        field=field,
        n=n,
        k=k,
        d=d,
        is_mds=(d == n - k + 1),
        parity=parity,
        generator_poly=tuple(generator_poly) if generator_poly is not None else None,
        modulus_poly=tuple(modulus_poly) if modulus_poly is not None else None,
    )


def min_distance(parity, budget=None):
    """Exact minimum distance of the kernel of a parity-check matrix.

    Computed as the smallest w such that some w columns of the parity check
    are linearly dependent, spending at most ``budget`` search steps
    (_dependency_min_weight says what a step is; None is unlimited) before
    raising BudgetExceeded.  The search runs on the side of smaller rank:
    when k < r it first runs on the checked kernel basis G (k x n, whose
    kernel is the dual code), and a result of k + 1 means the dual is MDS,
    so this code is MDS and d = r + 1 (MacWilliams & Sloane, The Theory of
    Error-Correcting Codes, ch. 11, Thm 2); any other result falls back to
    the search on the parity check.  Both searches spend from the one
    budget.  When the codeword count q^k is at most 2^20 the value is
    recomputed by exhaustive enumeration of one codeword per line,
    (q^k - 1)/(q - 1) words, since scalar multiples share a weight; any
    disagreement raises, and the two routes are independent.

    An unbudgeted call is memoized for the life of the process, keyed by
    the FMatrix itself (its field, modulus included, and its entries), so
    each distinct matrix is proven and cross-checked once.  Only completed
    values are stored.  A call with a budget neither reads nor writes the
    memo, so it always spends its steps.
    """
    if budget is None and parity in _MIN_DISTANCE_MEMO:
        return _MIN_DISTANCE_MEMO[parity]
    r = rank(parity)
    if r == 0:
        return 1
    n = parity.cols
    k = n - r
    if k <= 0:
        raise ValueError("code has no nonzero codewords")
    steps = _Budget(budget)
    if k < r and _dependency_min_weight(_kernel_basis(parity, k), k, steps) == k + 1:
        d = r + 1  # the dual code is MDS, so this one is
    else:
        d = _dependency_min_weight(parity, r, steps)
    if parity.field.order**k <= _ENUMERATION_LIMIT:
        d_enum = _enumeration_min_weight(parity)
        if d_enum != d:
            raise RuntimeError(
                f"minimum distance mismatch: column search {d}, enumeration {d_enum}"
            )
    if budget is None:
        _MIN_DISTANCE_MEMO[parity] = d
    return d


def _kernel_basis(parity, k):
    """nullspace(parity) as a k x n FMatrix G, checked: H G^T = 0, rank k."""
    add, _, mul, _ = op_tables(parity.field)
    basis = FMatrix(parity.field, nullspace(parity))
    rows = basis.to_lists()
    for h in parity.to_lists():
        for g in rows:
            acc = 0
            for a, b in zip(h, g):
                acc = add[acc][mul[a][b]]
            if acc:
                raise RuntimeError("kernel basis check failed: H G^T != 0")
    if rank(basis) != k:
        raise RuntimeError(f"kernel basis check failed: rank is not {k}")
    return basis


def _dependency_min_weight(parity, r, budget=None):
    """Smallest w with a dependent w-subset of parity columns, for rank r.

    Any r + 1 columns are dependent, so the bound starts at best = r + 1.
    One depth-first pass grows independent column sets in lexicographic
    order: a node of size s tests each later column, sets best = s + 1 and
    returns on the first one that reduces to zero, and recurses only while
    a child could still beat the bound (s + 2 < best).  The first w - 1
    columns of any minimal dependent w-set are independent, so the pass
    reaches that node unless a set of size <= w was already found; the
    result is exact.  Each node holds its later columns already reduced by
    its pivots, so a child reduces them by its one new pivot only.

    A node that recurses first cuts its later columns L_0..L_end: it
    reduces them from the end, each against the ones after it, up to the
    first L_j that reduces to zero, and tests only L_0..L_j (none when no
    L_j does).  Exact, because the skipped columns are independent modulo
    the node's span: no set of the node's columns, one of them and later
    ones is dependent.

    A node of size s with best = s + 3 has only leaf children, which could
    find a later column that is zero modulo the node's span (best = s + 1)
    or two later columns on one line modulo it (best = s + 2).  The node's
    reduction is the projection along its span, so these are exactly a
    zero column and two columns that are equal once each is scaled to a
    leading 1: the node hashes its scaled later columns once instead of
    building a reduced list per child.

    One budget step is spent per column tested, hashed or cut-reduced.
    ``budget`` is a step limit (None is unlimited) or a _Budget to spend
    from.
    """
    _, sub, mul, inv = op_tables(parity.field)
    spend = (budget if isinstance(budget, _Budget) else _Budget(budget)).spend
    best = r + 1

    def eliminate(col, prow, pivot):
        c = col[prow]
        if not c:
            return col
        times_c = mul[c]
        return [sub[x][times_c[y]] for x, y in zip(col, pivot)]

    def pivot_of(vec):
        prow = next(p for p, x in enumerate(vec) if x)
        scale = mul[inv[vec[prow]]]
        return prow, [scale[x] for x in vec]

    def cut(later):
        basis = []
        for j in range(len(later) - 1, -1, -1):
            spend()
            vec = later[j]
            for pivot in basis:
                vec = eliminate(vec, *pivot)
            if not any(vec):
                return j + 1
            basis.append(pivot_of(vec))
        return 0

    def dfs(size, later):
        nonlocal best
        if size + 3 == best:  # the children are leaves: hash their lines
            lines = set()
            for col in later:
                spend()
                if not any(col):
                    best = size + 1
                    return
                lines.add(tuple(pivot_of(col)[1]))
            if len(lines) < len(later):
                best = size + 2
            return
        stop = cut(later) if size + 2 < best else len(later)
        for i in range(stop):
            spend()
            if not any(later[i]):
                best = size + 1
                return
            if size + 2 < best:
                pivot = pivot_of(later[i])
                dfs(size + 1, [eliminate(col, *pivot) for col in later[i + 1:]])

    dfs(0, [parity.column(c) for c in range(parity.cols)])
    return best


def _enumeration_min_weight(parity):
    """Minimum weight of the kernel, by enumerating one codeword per line.

    Scalar multiples of a codeword share its weight, so it suffices to
    weigh, for each i, the words b_i + span(b_{i+1}, ..., b_{k-1}) of the
    nullspace basis: the words whose first nonzero coefficient is at i,
    scaled to 1.  That is (q^k - 1)/(q - 1) words, and the largest array
    holds q^(k-1) of them.  The arithmetic indexes the field's `array_tables`
    in 2-D, add[a, b]: uint8 lookups within the table limit, the field's own
    operations applied elementwise above it.
    """
    add, mul, dtype = array_tables(parity.field)
    basis = nullspace(parity)
    n = parity.cols
    span = np.zeros((1, n), dtype=dtype)
    scalars = np.arange(parity.field.order, dtype=dtype)
    least = []
    for i in range(len(basis) - 1, -1, -1):
        v = np.array(basis[i], dtype=dtype)
        least.append(int(np.count_nonzero(add[v, span], axis=1).min()))
        if i:
            scaled = mul[scalars[:, None], v[None, :]]
            span = add[span[None, :, :], scaled[:, None, :]].reshape(-1, n)
    return min(least)
