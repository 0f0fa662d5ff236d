"""Unit-memory convolutional codes and their distance certificates.

A code is described by a polynomial parity-check matrix H(D) = H0 + H1 D
with H0 of full row rank.  This module computes exact column distances,
certified free-distance bounds, and three-valued verdicts for the MDS,
strongly-MDS and maximal-distance-profile properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import combinations, product

import numpy as np

from .blockcode import min_distance
from .galois import poly_add, poly_deg, poly_gcd, poly_mul, poly_neg, poly_trim
from .linalg import FMatrix, rank, rref


class InvalidParams(ValueError):
    """Parameters outside the admissible range."""


class RankDeficient(ValueError):
    """Matrix does not have full row rank where full row rank is required."""


class RowCountExceeded(ValueError):
    """Degree-1 coefficient has more rows than the degree-0 coefficient."""


class NotMaximalDegreeRow(ValueError):
    """Row deletion is only defined for rows of maximal row degree."""


class BudgetExceeded(RuntimeError):
    """Search budget exhausted; lower_bound holds the best proven bound."""

    def __init__(self, message, lower_bound=None):
        super().__init__(message)
        self.lower_bound = lower_bound


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


def block_split_certificate(desc, budget=None):
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
        block_d = None if full_rank else min_distance(stacked, budget=budget)
        d0 = min_distance(h0, budget=budget)
        dm = min_distance(h1nz, budget=budget)
        return block_d, d0, dm
    d0 = min_distance(h0, budget=budget)
    return d0, d0, None


_F_TABLE_LIMIT = 250_000


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit):
        self.remaining = limit

    def spend(self, amount=1):
        if self.remaining is None:
            return
        self.remaining -= amount
        if self.remaining < 0:
            raise BudgetExceeded("search budget exhausted")


class _ColumnSearch:
    """Exact column distances by block-sequential branch and bound.

    The sliding system couples consecutive blocks only through the carry
    H1 v_{i-1}, so the search walks the blocks left to right with the carry
    as state, iteratively deepening on the total weight W.  A level-W pass
    enumerates, per block, the solutions of H0 v = t of each exact weight
    (supports in lexicographic order, full-support solutions only, so each
    solution is seen exactly once); distinct solutions with equal carry
    collapse.  The final block only needs the minimum solution weight F(t),
    precomputed as a coset-leader table when the syndrome space is small
    and found by first-hit support search otherwise.  Exhausting level W
    proves d > W, so the first witness level is the exact distance.
    """

    def __init__(self, desc, budget=None, d0=None):
        parity = desc.parity
        self.field = parity.field
        self.h0 = parity.coefficient(0)
        self.h1 = parity.coefficient(1)
        self.n = parity.cols
        self.kappa = parity.rows
        self.q = self.field.order
        self.budget = _Budget(budget)
        self._powers = [self.q**i for i in range(self.kappa)]
        self._h0_rows = [self.h0.row(r) for r in range(self.kappa)]
        self._h1_rows = [self.h1.row(r) for r in range(self.kappa)]
        self._reductions = {}
        self._sol_cache = {}
        self._fmin_cache = {0: 0}
        self._memo = {}
        self._dist = {}
        self._d0 = d0
        self._ftable = None
        if self.q**self.kappa <= _F_TABLE_LIMIT:
            self._build_f_table()

    def _enc(self, digits):
        return sum(d * p for d, p in zip(digits, self._powers))

    def _dec(self, code):
        digits = []
        for _ in range(self.kappa):
            code, d = divmod(code, self.q)
            digits.append(d)
        return tuple(digits)

    def _build_f_table(self):
        f, q, kappa = self.field, self.q, self.kappa
        add_table = np.array(
            [[f.add(a, b) for b in range(q)] for a in range(q)], dtype=np.uint8
        )
        deltas = set()
        for c in range(self.n):
            col = self.h0.column(c)
            for a in f.nonzero_elements():
                d = tuple(f.mul(a, x) for x in col)
                if any(d):
                    deltas.add(d)
        powers = np.array(self._powers, dtype=np.int64)
        table = np.full(q**kappa, -1, dtype=np.int16)
        table[0] = 0
        frontier = np.zeros((1, kappa), dtype=np.uint8)
        w = 0
        while frontier.size:
            w += 1
            fresh_codes = []
            for d in sorted(deltas):
                cand = add_table[frontier, np.array(d, dtype=np.uint8)]
                codes = cand.astype(np.int64) @ powers
                fresh = codes[table[codes] < 0]
                if fresh.size:
                    fresh = np.unique(fresh)
                    table[fresh] = w
                    fresh_codes.append(fresh)
            if not fresh_codes:
                break
            merged = np.concatenate(fresh_codes)
            frontier = ((merged[:, None] // powers[None, :]) % q).astype(np.uint8)
        if (table < 0).any():
            raise RuntimeError("syndrome space not fully reachable")
        self._ftable = table

    def _f_min(self, t_enc):
        """Minimum weight of a solution of H0 v = t."""
        if self._ftable is not None:
            return int(self._ftable[t_enc])
        cached = self._fmin_cache.get(t_enc)
        if cached is not None:
            return cached
        t = self._dec(t_enc)
        for w in range(self.kappa + 1):
            for support in combinations(range(self.n), w):
                self.budget.spend()
                if self._solve(support, t) is not None:
                    self._fmin_cache[t_enc] = w
                    return w
        raise RuntimeError("no solution found for a full-row-rank system")

    def _reduction(self, support):
        """Pivots inside S, reduced rows of H0_S and transform T, from one
        rref of [H0_S | I_kappa] per support S.

        T H0_S is the reduced form of H0_S, so H0_S x = t is inconsistent
        exactly when T t is nonzero past the rank; otherwise RREF is unique,
        and rref([H0_S | t]) is the reduced rows with right-hand column T t.
        """
        cached = self._reductions.get(support)
        if cached is not None:
            return cached
        w, kappa = len(support), self.kappa
        aug = [
            [row[c] for c in support] + [int(i == r) for i in range(kappa)]
            for r, row in enumerate(self._h0_rows)
        ]
        reduced, _, pivots = rref(FMatrix(self.field, aug))
        pivots = tuple(p for p in pivots if p < w)
        cached = (
            pivots,
            [reduced.row(r)[:w] for r in range(len(pivots))],
            reduced.take_cols(range(w, w + kappa)),
        )
        self._reductions[support] = cached
        return cached

    def _solve(self, support, t):
        """(pivots, reduced rows, right-hand column) of rref([H0_S | t]), or
        None when H0_S x = t has no solution."""
        pivots, reduced, transform = self._reduction(support)
        rhs = transform.matvec(t)
        if any(rhs[len(pivots):]):
            return None
        return pivots, reduced, rhs

    def _solutions(self, t_enc, w):
        """Encoded next targets -H1 v over solutions of H0 v = t, wt(v) = w.

        Each weight-w solution has full support on exactly one size-w column
        set, so scanning all supports and keeping the everywhere-nonzero
        solutions enumerates each solution once.
        """
        key = (t_enc, w)
        cached = self._sol_cache.get(key)
        if cached is not None:
            return cached
        t = self._dec(t_enc)
        found = set()
        for support in combinations(range(self.n), w):
            self.budget.spend()
            found.update(self._support_targets(support, t))
        result = tuple(sorted(found))
        self._sol_cache[key] = result
        return result

    def _support_targets(self, support, t):
        solved = self._solve(support, t)
        if solved is None:
            return
        pivots, reduced, rhs = solved
        f = self.field
        w = len(support)
        pivot_set = set(pivots)
        free = [c for c in range(w) if c not in pivot_set]
        for combo in product(range(self.q), repeat=len(free)):
            if free:
                self.budget.spend()
            x = [0] * w
            for fc, val in zip(free, combo):
                x[fc] = val
            ok = all(combo) if free else True
            for r, pc in enumerate(pivots):
                acc = rhs[r]
                for fc, val in zip(free, combo):
                    if val:
                        acc = f.sub(acc, f.mul(reduced[r][fc], val))
                x[pc] = acc
                if acc == 0:
                    ok = False
                    break
            if not ok:
                continue
            target = []
            for row in self._h1_rows:
                acc = 0
                for c, xv in zip(support, x):
                    if xv and row[c]:
                        acc = f.add(acc, f.mul(row[c], xv))
                target.append(f.neg(acc))
            yield self._enc(target)

    def _exists(self, m, t_enc, limit):
        """Whether m further blocks solving into target t fit in weight limit."""
        fmin = self._f_min(t_enc)
        if fmin > limit:
            return False
        if m == 1:
            return True
        key = (m, t_enc, limit)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = False
        for w in range(fmin, min(limit, self.n) + 1):
            for t2 in self._solutions(t_enc, w):
                if self._exists(m - 1, t2, limit - w):
                    result = True
                    break
            if result:
                break
        self._memo[key] = result
        return result

    def distance(self, j):
        if j in self._dist:
            return self._dist[j]
        cap = self.kappa * (j + 1) + 1
        if self._d0 is None:
            self._d0 = min_distance(self.h0)
        if j == 0:
            d = self._d0
            if d > cap:
                raise PropertyViolation(f"d_0 = {d} exceeds its cap {cap}")
        else:
            start = self.distance(j - 1)
            d = None
            for level in range(start, cap + 1):
                try:
                    if self._witness_at(j, level):
                        d = level
                        break
                except BudgetExceeded as e:
                    raise BudgetExceeded(str(e), lower_bound=level) from None
            if d is None:
                raise PropertyViolation(
                    f"no weight <= {cap} kernel vector with nonzero first block "
                    f"at window {j}"
                )
        self._dist[j] = d
        return d

    def _witness_at(self, j, level):
        for w0 in range(self._d0, min(level, self.n) + 1):
            for t in self._solutions(0, w0):
                if self._exists(j, t, level - w0):
                    return True
        return False


def column_distance(desc, j, budget=None, method="block"):
    """Exact j-th column distance: the least weight of a kernel vector of the
    sliding matrix whose first length-n block is nonzero.

    method "block" walks the blocks sequentially with the carry syndrome as
    state; method "support" enumerates supports of the full sliding system in
    lexicographic order, as a slow reference.  Both are exact.
    """
    if j < 0:
        raise InvalidParams("window index must be nonnegative")
    if method == "block":
        return _ColumnSearch(desc, budget=budget).distance(j)
    if method == "support":
        return _column_distance_support(desc, j, budget)
    raise ValueError(f"unknown method {method!r}")


def _column_distance_support(desc, j, budget):
    from .linalg import solve_on_support

    sliding = sliding_matrix(desc.parity, j)
    n = desc.n
    cap = (desc.n - desc.k) * (j + 1) + 1
    spent = 0
    for w in range(1, cap + 1):
        for support in combinations(range(sliding.cols), w):
            if support[0] >= n:
                break
            spent += 1
            if budget is not None and spent > budget:
                raise BudgetExceeded(
                    f"support budget exhausted at weight {w}", lower_bound=w
                )
            if solve_on_support(sliding, support, require_nonzero_block=(0, n)):
                return w
    raise PropertyViolation(
        f"no weight <= {cap} kernel vector with nonzero first block at window {j}"
    )


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


def classify(desc, certs=None, jmax=4, budget=10_000_000):
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
        cap_j = kappa * (j + 1) + 1
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
    cap_hits = [j for j in dists if dists[j] == kappa * (j + 1) + 1]
    cascade_ok = True
    if cap_hits:
        top = max(cap_hits)
        cascade_ok = all(dists[i] == kappa * (i + 1) + 1 for i in range(top + 1))
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
    mdp = window_verdict(l_index, kappa * (l_index + 1) + 1)
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


def omit_rows(pm, which):
    """Delete the given rows, all of which must have the maximal row degree."""
    which = sorted(set(which))
    degs = pm.row_degrees()
    vmax = max(degs)
    for r in which:
        if not 0 <= r < pm.rows:
            raise ValueError(f"row {r} of {pm.rows}")
        if degs[r] != vmax:
            raise NotMaximalDegreeRow(
                f"row {r} has degree {degs[r]}, maximal degree is {vmax}"
            )
    keep = [r for r in range(pm.rows) if r not in set(which)]
    if not keep:
        raise ValueError("cannot delete every row")
    return PolyMatrix(pm.field, [m.take_rows(keep) for m in pm.coeffs])
