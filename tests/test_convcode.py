"""Convolutional layer: polynomial parity checks, column distances,
free-distance certificates, classification, minimality."""

import hashlib
import itertools
import json
import math
import random
import time

import numpy as np
import pytest

from umconv import convcode
from umconv.blockcode import min_distance, root_parity_matrix
from umconv.constructions import sec3_code, sec5_construction_one, sec5_part2_code
from umconv.convcode import (
    BudgetExceeded,
    ConvCodeDesc,
    InvalidParams,
    PolyMatrix,
    PropertyViolation,
    RankDeficient,
    RowCountExceeded,
    Verdict,
    _ColumnSearch,
    block_split_certificate,
    classify,
    column_distance,
    dfree_bounds,
    minimality_check,
    singleton_and_indices,
    sliding_matrix,
    unit_memory_parity,
)
from umconv.fixtures import FIXTURES, build_fixture, fixture_by_number
from umconv.galois import field_for_order
from umconv.linalg import FMatrix, rank, rref, rref_stack
from oracles import column_distance_support

F2 = field_for_order(2)
F3 = field_for_order(3)
F8 = field_for_order(8)


def _random_unit_memory(rng, f, n, kappa, h1_rows):
    """Random valid unit-memory parity: full-rank H0, independent nonzero
    H1 data rows, and a full-rank leading-row-coefficient matrix (row
    reduced), as ConvCodeDesc.from_parity requires."""
    while True:
        h0 = FMatrix(
            f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(kappa)]
        )
        if rank(h0) != kappa:
            continue
        h1 = FMatrix(
            f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(h1_rows)]
        )
        if rank(h1) != h1_rows:
            continue
        if not all(any(h1.row(r)) for r in range(h1.rows)):
            continue
        pm = unit_memory_parity(h0, h1)
        if rank(pm.leading_coefficients()) == kappa:
            return pm


def _brute_column_distance(desc, j):
    """Exhaust all truncated sequences; independent of both search methods."""
    f = desc.field
    n = desc.n
    sl = sliding_matrix(desc.parity, j)
    width = n * (j + 1)
    best = None
    for digits in itertools.product(range(f.q), repeat=width):
        if all(x == 0 for x in digits[:n]):
            continue
        if any(x != 0 for x in sl.matvec(digits)):
            continue
        w = sum(1 for x in digits if x)
        if best is None or w < best:
            best = w
    return best


# -- PolyMatrix ---------------------------------------------------------------


def test_poly_matrix_basics():
    c0 = FMatrix(F3, [[1, 2], [0, 1]])
    c1 = FMatrix(F3, [[0, 0], [1, 1]])
    zero = FMatrix.zero(F3, 2, 2)
    pm = PolyMatrix(F3, (c0, c1, zero))
    assert pm.memory == 1  # trailing zero coefficient is trimmed
    assert (pm.rows, pm.cols) == (2, 2)
    assert pm.coefficient(0) == c0
    assert pm.coefficient(1) == c1
    assert pm.coefficient(5) == zero
    assert pm.row_degree(0) == 0
    assert pm.row_degree(1) == 1
    assert pm.row_degrees() == (0, 1)
    assert pm.entry_poly(1, 0) == (0, 1)
    assert pm.entry_poly(0, 0) == (1,)
    data = pm.to_json()
    assert data["rows"] == 2 and data["cols"] == 2
    assert len(data["coeffs"]) == 2
    assert pm == PolyMatrix(F3, (c0, c1))
    assert pm != PolyMatrix(F3, (c0,))
    all_zero = PolyMatrix(F3, (zero,))
    assert all_zero.memory == 0
    assert all_zero.row_degree(0) == -1


def test_unit_memory_parity_padding_and_checks():
    h0 = FMatrix(F3, [[1, 0, 0], [0, 1, 0]])
    h1 = FMatrix(F3, [[1, 1, 1]])
    pm = unit_memory_parity(h0, h1)
    assert pm.coefficient(0) == h0
    # Padding sits on top, the data row at the bottom.
    assert pm.coefficient(1).to_lists() == [[0, 0, 0], [1, 1, 1]]
    with pytest.raises(RowCountExceeded):
        unit_memory_parity(h1, h0)
    with pytest.raises(RankDeficient):
        unit_memory_parity(FMatrix(F3, [[1, 1, 0], [2, 2, 0]]), h1)
    with pytest.raises(RankDeficient):
        unit_memory_parity(h0, FMatrix(F3, [[0, 0, 0]]))


def test_sliding_matrix_layout():
    h0 = FMatrix(F2, [[1, 1, 0]])
    h1 = FMatrix(F2, [[0, 1, 1]])
    pm = unit_memory_parity(h0, h1)
    sl = sliding_matrix(pm, 2)
    assert (sl.rows, sl.cols) == (3, 9)
    want = [
        [1, 1, 0, 0, 0, 0, 0, 0, 0],
        [0, 1, 1, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 1, 1, 0],
    ]
    assert sl.to_lists() == want


def test_desc_from_parity():
    h0 = FMatrix(F3, [[1, 0, 2], [0, 1, 1]])
    h1 = FMatrix(F3, [[1, 2, 0]])
    pm = unit_memory_parity(h0, h1)
    desc = ConvCodeDesc.from_parity(pm)
    assert (desc.n, desc.k, desc.delta, desc.nu) == (3, 1, 1, 1)
    assert desc.row_degrees == (0, 1)
    assert desc.field == F3
    # A parity with an identically-zero row is rejected.
    bad = PolyMatrix(F3, (FMatrix(F3, [[1, 1, 1], [0, 0, 0]]),))
    with pytest.raises(RankDeficient):
        ConvCodeDesc.from_parity(bad)
    # kappa = n leaves no message symbols.
    square = PolyMatrix(F3, (FMatrix(F3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]),))
    with pytest.raises(InvalidParams):
        ConvCodeDesc.from_parity(square)
    # Memory above one is rejected: the search reads coefficients 0 and 1 only.
    h2 = FMatrix(F3, [[0, 0, 0], [2, 1, 1]])
    with pytest.raises(InvalidParams):
        ConvCodeDesc.from_parity(PolyMatrix(F3, (h0, pm.coefficient(1), h2)))
    # H0 must have full row rank even when H1 fills its zero row.
    deficient = PolyMatrix(
        F3, (FMatrix(F3, [[1, 0, 2], [0, 0, 0]]), FMatrix(F3, [[0, 0, 0], [1, 2, 0]]))
    )
    with pytest.raises(RankDeficient):
        ConvCodeDesc.from_parity(deficient)
    # Dependent nonzero H1 rows: the row degrees would overstate delta.
    dependent = PolyMatrix(F3, (h0, FMatrix(F3, [[1, 2, 0], [2, 1, 0]])))
    with pytest.raises(RankDeficient):
        ConvCodeDesc.from_parity(dependent)
    # Not row reduced although H0 and H1's nonzero row have full row rank:
    # the degree-0 row's H0 row equals the degree-1 row's H1 row.
    unreduced = PolyMatrix(F3, (h0, FMatrix(F3, [[0, 0, 0], [1, 0, 2]])))
    assert rank(unreduced.leading_coefficients()) == 1
    with pytest.raises(RankDeficient):
        ConvCodeDesc.from_parity(unreduced)


def test_singleton_and_indices():
    # (n, k, delta) -> (bound, M, L)
    assert singleton_and_indices(7, 4, 2) == (6, 1, 0)
    assert singleton_and_indices(7, 4, 3) == (7, 1, 1)
    assert singleton_and_indices(8, 5, 3) == (7, 1, 1)
    assert singleton_and_indices(9, 6, 2) == (6, 1, 0)
    assert singleton_and_indices(4, 2, 0) == (3, 0, 0)
    assert singleton_and_indices(5, 2, 4) == (3 * 3 + 5, 2 + 2, 2 + 1)
    with pytest.raises(InvalidParams):
        singleton_and_indices(3, 0, 1)
    with pytest.raises(InvalidParams):
        singleton_and_indices(3, 3, 1)
    with pytest.raises(InvalidParams):
        singleton_and_indices(4, 2, -1)


def test_dfree_bounds():
    desc = ConvCodeDesc.from_parity(
        unit_memory_parity(
            FMatrix(F3, [[1, 0, 2], [0, 1, 1]]), FMatrix(F3, [[1, 2, 0]])
        )
    )
    # Bounds combine the one-block and split-block weight arguments.
    lower, upper = dfree_bounds(desc, block_d=3, d0=2, dm=2)
    assert (lower, upper) == (3, 3)
    lower, upper = dfree_bounds(desc, block_d=3, d0=1, dm=1)
    assert lower == 2
    # Without memory the single-block argument is everything.
    lower, upper = dfree_bounds(desc, block_d=3, d0=3, dm=None)
    assert lower == 3
    with pytest.raises(PropertyViolation):
        dfree_bounds(desc, block_d=9, d0=9, dm=9)


def test_block_split_certificate_examples():
    b1 = build_fixture(fixture_by_number(1))
    assert block_split_certificate(b1.desc) == (6, 4, 3)
    b9 = build_fixture(fixture_by_number(9))
    assert block_split_certificate(b9.desc) == (8, 5, 4)
    memoryless = PolyMatrix(
        F8, (root_parity_matrix(F8, [1, F8.theta], 5),)
    )
    desc = ConvCodeDesc.from_parity(memoryless)
    block_d, d0, dm = block_split_certificate(desc)
    assert (block_d, d0, dm) == (3, 3, None)


def _full_rank_stack_desc():
    # [H0; H1] is invertible, so the code has no constant codeword.
    f5 = field_for_order(5)
    h0 = FMatrix(f5, [[1, 4, 3], [3, 4, 3]])
    h1 = FMatrix(f5, [[3, 3, 1], [4, 4, 1]])
    return ConvCodeDesc.from_parity(unit_memory_parity(h0, h1))


def test_block_split_certificate_full_rank_stack():
    desc = _full_rank_stack_desc()
    assert block_split_certificate(desc) == (None, 2, 2)
    assert dfree_bounds(desc, None, 2, 2) == (4, 9)


def test_classify_full_rank_stack():
    desc = _full_rank_stack_desc()
    report = classify(desc, jmax=3)
    assert report.singleton_bound == 9
    assert report.column_distances == {0: 2, 1: 4, 2: 5, 3: 6}
    for j, d in report.column_distances.items():
        assert column_distance_support(desc, j) == d
    assert report.dfree_upper == 9
    cert = report.to_json()["certificates"][0]
    assert cert["type"] == "block-split" and cert["block_d"] is None


def test_classify_reuses_certificate_d0(monkeypatch):
    calls = []

    def counting_min_distance(*args, **kwargs):
        calls.append(args)
        return min_distance(*args, **kwargs)

    monkeypatch.setattr(convcode, "min_distance", counting_min_distance)
    b1 = build_fixture(fixture_by_number(1))
    classify(b1.desc, certs=b1.split_distances, jmax=2)
    assert calls == []
    classify(b1.desc, jmax=2)
    assert len(calls) == 3  # block_d, d0 and dm, each once
    calls.clear()
    column_distance(b1.desc, 1)
    assert len(calls) == 1  # no certificate: the engine computes d0 itself


# -- column distances: three independent routes -------------------------------


def test_column_distance_three_routes_small():
    rng = random.Random(29)
    cases = []
    for f in (F2, F3):
        for _ in range(4):
            n = rng.randint(2, 3)
            kappa = rng.randint(1, n - 1)
            h1_rows = rng.randint(1, kappa)
            cases.append(_random_unit_memory(rng, f, n, kappa, h1_rows))
    for pm in cases:
        desc = ConvCodeDesc.from_parity(pm)
        for j in range(3):
            brute = _brute_column_distance(desc, j)
            block = column_distance(desc, j)
            support = column_distance_support(desc, j)
            assert brute == block == support, (pm.to_json(), j)


def test_column_distance_routes_wider():
    rng = random.Random(31)
    f4 = field_for_order(4)
    for f in (F3, f4):
        for _ in range(4):
            n = rng.randint(3, 5)
            kappa = rng.randint(1, min(3, n - 1))
            h1_rows = rng.randint(1, kappa)
            pm = _random_unit_memory(rng, f, n, kappa, h1_rows)
            desc = ConvCodeDesc.from_parity(pm)
            for j in range(3):
                assert column_distance(desc, j) == column_distance_support(desc, j)


def _check_engine_reuse(seed, monkeypatch):
    """One engine walks windows 0..3 on random codes; every window must match
    the support engine (and brute force where it is small), and the engine
    must row-reduce each support exactly once: the stacks handed to
    `rref_stack` hold one matrix per support, and `rref` runs once per layer
    as its cross-check."""
    stacked, calls = [], []
    real_stack, real_rref = convcode.rref_stack, convcode.rref

    def counting_stack(field, mats):
        stacked.append(len(mats))
        return real_stack(field, mats)

    def counting_rref(mat):
        calls.append(mat)
        return real_rref(mat)

    monkeypatch.setattr(convcode, "rref_stack", counting_stack)
    monkeypatch.setattr(convcode, "rref", counting_rref)
    rng = random.Random(seed)
    engines = []
    for _ in range(8):
        f = field_for_order(rng.choice((2, 3, 4, 5)))
        n = rng.randint(3, 6)
        kappa = rng.randint(1, min(3, n - 1))
        pm = _random_unit_memory(rng, f, n, kappa, rng.randint(1, kappa))
        desc = ConvCodeDesc.from_parity(pm)
        engine = _ColumnSearch(desc)
        stacked.clear()
        calls.clear()
        for j in range(4):
            d = engine.distance(j)
            assert d == column_distance_support(desc, j), (pm.to_json(), j)
            if f.q ** (n * (j + 1)) <= 20_000:
                assert d == _brute_column_distance(desc, j), (pm.to_json(), j)
        supports = sum(layer.free.size for layer in engine._layers.values())
        assert sum(stacked) == supports <= 2**n
        assert len(calls) == len(stacked) == len(engine._layers)
        engines.append(engine)
    return engines


def test_column_search_reuses_support_reductions(monkeypatch):
    engines = _check_engine_reuse(47, monkeypatch)
    assert all(e._ftable is not None for e in engines)


def test_column_search_first_hit_route(monkeypatch):
    # Without the coset-leader table the heuristic is [t != 0], and the
    # search raises each node's weight through the same per-support
    # reductions until it finds F(t).
    monkeypatch.setattr(convcode, "_F_TABLE_LIMIT", 0)
    engines = _check_engine_reuse(47, monkeypatch)
    assert all(e._ftable is None for e in engines)


def _support_layer(desc, w):
    """A layer's arrays, as lists, from one `rref` of [H0_S | I] per support
    S: pivot columns first, and -H1 on the first kappa of them times T_S as
    the carry map."""
    f, pm = desc.field, desc.parity
    h0, h1 = pm.coefficient(0).to_lists(), pm.coefficient(1).to_lists()
    kappa = len(h0)
    out = {"system": [], "beyond": [], "free": [], "reduced": [], "neg_h1": []}
    for support in itertools.combinations(range(desc.n), w):
        aug = [[row[c] for c in support] + [int(i == r) for i in range(kappa)]
               for r, row in enumerate(h0)]
        reduced, _, pivots = rref(FMatrix(f, aug))
        pivots = [p for p in pivots if p < w]
        rk, order = len(pivots), pivots + [c for c in range(w) if c not in pivots]
        rows = reduced.to_lists()
        trans = [row[w:] for row in rows]
        neg_h1 = [[f.neg(row[support[c]]) for c in order] for row in h1]
        carry = FMatrix(f, [[row[c] if c < w else 0 for c in range(kappa)]
                            for row in neg_h1])
        columns = [carry.matvec(col) for col in zip(*trans)]
        carry_map = [list(row) for row in zip(*columns)]
        out["system"].append(trans + carry_map)
        out["beyond"].append([r >= rk for r in range(kappa)])
        out["free"].append(w - rk)
        out["reduced"].append([[row[c] for c in order] for row in rows])
        out["neg_h1"].append(neg_h1)
    return out


def test_layers_match_support_rref(sweep_results):
    # Every weight of every fixture and q <= 5 sweep code: the stacked
    # reduction gives each support exactly its own rref, ranks and pivots.
    descs = [build_fixture(fx).desc for fx in FIXTURES]
    descs += [b.desc for spec, b, _, _ in sweep_results if spec.q <= 5]
    assert len(descs) == 11 + 14
    for desc in descs:
        engine = _ColumnSearch(desc)
        for w in range(desc.n + 1):
            layer = engine._layer(w)
            want = _support_layer(desc, w)
            got = {key: getattr(layer, key).tolist() for key in want}
            assert got == want, (desc.parity.to_json(), w)


def test_layer_cross_checks_the_stack(monkeypatch):
    # A stack kernel off by one entry of the support that `rref` re-reduces
    # stops the layer before any search uses it.
    real_stack = convcode.rref_stack

    def flipped(field, mats):
        stack, mask = real_stack(field, mats)
        stack[-1, 0, -1] = (int(stack[-1, 0, -1]) + 1) % field.order
        return stack, mask

    monkeypatch.setattr(convcode, "rref_stack", flipped)
    engine = _ColumnSearch(build_fixture(FIXTURES[0]).desc)
    with pytest.raises(PropertyViolation, match="rref_stack disagrees with rref"):
        engine._layer(3)
    assert engine._layers == {}


def _brute_f_table(h0):
    """Least weight of a solution of H0 v = t per syndrome code t, over
    every v in F_q^n."""
    q = h0.field.q
    best = {}
    for v in itertools.product(range(q), repeat=h0.cols):
        code = sum(x * q**i for i, x in enumerate(h0.matvec(v)))
        w = sum(1 for x in v if x)
        if w < best.get(code, w + 1):
            best[code] = w
    return [best[c] for c in range(q**h0.rows)]


def _f_table_cases():
    """Seeded random full-row-rank H0 with a zero column and a scaled copy
    of another column, in shuffled column order, at q^n <= 20,000; and two
    kappa = 1 checks over GF(257), whose table is built elementwise."""
    rng = random.Random(29)
    for q, n, kappa in (
        (2, 6, 3), (3, 6, 3), (4, 6, 3), (5, 6, 3), (7, 5, 2), (8, 4, 2), (9, 4, 2),
    ):
        f = field_for_order(q)
        while True:
            cols = [[rng.randrange(q) for _ in range(kappa)] for _ in range(n - 2)]
            scale = rng.randrange(1, q)
            cols += [[0] * kappa, [f.mul(scale, x) for x in rng.choice(cols)]]
            rng.shuffle(cols)
            h0 = FMatrix(f, [list(row) for row in zip(*cols)])
            if rank(h0) == kappa:
                yield h0
                break
    f = field_for_order(257)
    yield FMatrix(f, [[5, f.mul(3, 5)]])
    yield FMatrix(f, [[0, 200]])


def test_f_table_against_brute_force():
    # The coset-leader table from the column-by-column dynamic program
    # against exhaustive enumeration, including the columns it skips.
    for h0 in _f_table_cases():
        desc = ConvCodeDesc.from_parity(PolyMatrix(h0.field, (h0,)))
        engine = _ColumnSearch(desc)
        assert engine._ftable.tolist() == _brute_f_table(h0), h0.to_lists()


def _batched_cases(q):
    """Seeded random codes over GF(q); n - kappa >= 2 on most, so the
    weight layers above kappa have supports with free columns."""
    rng = random.Random(100 + q)
    f = field_for_order(q)
    shapes = ((2, 1), (3, 1)) if q > 256 else ((2, 1), (3, 1), (4, 2), (4, 1), (5, 3))
    return [
        _random_unit_memory(rng, f, n, kappa, rng.randint(1, kappa))
        for n, kappa in shapes
    ]


def _layer_rows(engine):
    return sum(len(layer.pivot_off) for layer in engine._layers.values())


@pytest.mark.parametrize("route", ["table", "first-hit"])
@pytest.mark.parametrize("q", [8, 9, 257])
def test_batched_search_against_support_and_brute_force(q, route, monkeypatch):
    # GF(8) has characteristic 2; GF(9) is an odd-characteristic extension
    # field, where negation is not the identity; GF(257) does not fit uint8
    # lookup tables, so its arithmetic is the field's own, elementwise.
    # "first-hit" drops the coset-leader table, so the heuristic is [t != 0].
    if route == "first-hit":
        monkeypatch.setattr(convcode, "_F_TABLE_LIMIT", 0)
    f = field_for_order(q)
    assert (f.neg(1) == 1) == (q == 8)
    rows_with_free_columns = 0
    for pm in _batched_cases(q):
        desc = ConvCodeDesc.from_parity(pm)
        engine = _ColumnSearch(desc)
        assert (engine._ftable is None) == (route == "first-hit")
        assert (engine._dtype == np.uint8) == (q <= 256)
        for j in range(3):
            d = engine.distance(j)
            assert d == column_distance_support(desc, j), (pm.to_json(), j)
            if q ** (desc.n * (j + 1)) <= 20_000:
                assert d == _brute_column_distance(desc, j), (pm.to_json(), j)
        for layer in engine._layers.values():
            rows_with_free_columns += int(layer.count[layer.free > 0].sum())
    assert rows_with_free_columns > 0


def _encode(q, vec):
    return sum(x * q**i for i, x in enumerate(vec))


def _decode(q, code, kappa):
    return [code // q**i % q for i in range(kappa)]


def _line(f, vec):
    """vec scaled so its first nonzero coordinate is 1; zero stays zero."""
    lead = next((x for x in vec if x), 0)
    return [f.mul(f.inv(lead), x) for x in vec] if lead else list(vec)


def _check_line_answers(engine, f, t, w, rng):
    """_solutions(t, w) holds normalized carry codes only, and every nonzero
    multiple of t gets the same answer."""
    q, kappa = f.q, engine.kappa
    got = engine._solutions(t, w).tolist()
    for c in got:
        digits = _decode(q, c, kappa)
        assert digits == _line(f, digits), (t, w, c)
    t_vec = _decode(q, t, kappa)
    for a in rng.sample(range(1, q), min(3, q - 1)):
        at = _encode(q, [f.mul(a, x) for x in t_vec])
        assert engine._solutions(at, w).tolist() == got, (t, w, a)
    return got


@pytest.mark.parametrize("route", ["table", "first-hit"])
@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 257])
def test_solutions_keep_one_carry_per_line(q, route, monkeypatch):
    # Each answer of _solutions is a set of carry lines, checked on seeded
    # random codes; where F_q^n has at most 20,000 vectors it must be the
    # normalized carries -H1 v of every v with H0 v = t and wt(v) = w.
    if route == "first-hit":
        monkeypatch.setattr(convcode, "_F_TABLE_LIMIT", 0)
    rng = random.Random(60 + q)
    f = field_for_order(q)
    shapes = [(3, 1), (4, 2), (5, 2), (5, 3)]
    if q > 256:  # the (3,2) table would take half a minute elementwise
        shapes = [(2, 1), (3, 1)] + ([(3, 2)] if route == "first-hit" else [])
    brute_checked = 0
    for n, kappa in shapes:
        pm = _random_unit_memory(rng, f, n, kappa, rng.randint(1, kappa))
        engine = _ColumnSearch(ConvCodeDesc.from_parity(pm))
        assert (engine._ftable is None) == (route == "first-hit")
        h0, h1 = pm.coefficient(0), pm.coefficient(1)
        brute = None
        if q**n <= 20_000:
            brute = {}
            for v in itertools.product(range(q), repeat=n):
                key = (_encode(q, h0.matvec(v)), sum(1 for x in v if x))
                carry = _line(f, [f.neg(x) for x in h1.matvec(v)])
                brute.setdefault(key, set()).add(_encode(q, carry))
        for t in [0] + [rng.randrange(1, q**kappa) for _ in range(3)]:
            for w in range(1, n + 1):
                got = _check_line_answers(engine, f, t, w, rng)
                if brute is not None:
                    assert got == sorted(brute.get((t, w), ())), (t, w)
                    brute_checked += 1
    assert brute_checked or q > 256


def test_solutions_over_a_61_bit_prime_field():
    # Normalizing inverts only the leads that occur: no array of q entries
    # exists over GF(2^61 - 1), and codes past 2^62 are Python ints.
    f = field_for_order(2**61 - 1)
    h0 = FMatrix(f, [[1, 1, 1], [1, 2, 3]])  # every 2 columns independent
    pm = unit_memory_parity(h0, FMatrix(f, [[1, 4, 9]]))
    engine = _ColumnSearch(ConvCodeDesc.from_parity(pm))
    assert engine._ftable is None
    rng = random.Random(61)
    h1 = pm.coefficient(1)
    start = time.perf_counter()
    for v in ([5, 0, 0], [f.q - 2, 7, 0], [3, 10**15, 0]):
        # v is the only solution of H0 x = H0 v on its support, so its
        # carry line is in the answer at v's weight.
        t = _encode(f.q, h0.matvec(v))
        w = sum(1 for x in v if x)
        got = _check_line_answers(engine, f, t, w, rng)
        assert _encode(f.q, _line(f, [f.neg(x) for x in h1.matvec(v)])) in got
    assert time.perf_counter() - start < 1.0


def test_batched_search_every_budget(monkeypatch):
    # Every budget below the exact need raises, every query answered under
    # any budget has the unlimited answer, and the layers never hold more
    # rows than the budget: rows are built only for supports already paid.
    # The raising window's lower bound is proven: d_{j-1} <= bound <= d_j.
    # Both heuristics: F(t) from the coset-leader table, and [t != 0].
    pm = _random_unit_memory(random.Random(3), F8, 5, 2, 1)
    desc = ConvCodeDesc.from_parity(pm)
    for limit in (convcode._F_TABLE_LIMIT, 0):
        monkeypatch.setattr(convcode, "_F_TABLE_LIMIT", limit)
        _check_every_budget(desc, first_hit=limit == 0)


def _check_every_budget(desc, first_hit):
    def run(budget):
        engine = _ColumnSearch(desc, budget=budget)
        dists = []
        try:
            for j in range(3):
                dists.append(engine.distance(j))
        except BudgetExceeded as e:
            return dists, e.lower_bound, engine
        return dists, None, engine

    big = 10**12
    want, _, full = run(big)
    assert (full._ftable is None) == first_hit
    need = big - full.budget.remaining
    assert _layer_rows(full) <= need
    for budget in range(need + 1):
        dists, bound, engine = run(budget)
        assert dists == want[: len(dists)], budget
        if budget == need:
            assert dists == want and bound is None
        else:
            j = len(dists)
            assert 1 <= j < 3 and want[j - 1] <= bound <= want[j], (budget, bound)
        assert all(
            np.array_equal(full._sol_cache[key], v)
            for key, v in engine._sol_cache.items()
        )
        assert _layer_rows(engine) <= budget


@pytest.mark.parametrize(
    "budget, weights", [(100, []), (3_000, [1, 5, 6]), (30_000, [1, 2, 5, 6, 7])]
)
def test_layer_rows_bounded_by_budget(budget, weights):
    # Without a budget, windows 0-3 of sec5p2 (10,6,4) over GF(9) build
    # 76,951 rows.  A budget pays for a layer's supports before they are
    # reduced and for a support's rows before they are built: 100 steps run
    # out on the 252 supports of weight 5 before any layer exists.
    b = sec5_part2_code(9, 2, 2)
    engine = _ColumnSearch(b.desc, budget=budget)
    with pytest.raises(BudgetExceeded):
        for j in range(4):
            engine.distance(j)
    assert sorted(engine._layers) == weights
    assert _layer_rows(engine) <= budget


def test_column_distance_fixture_vs_support():
    b1 = build_fixture(fixture_by_number(1))
    assert column_distance_support(b1.desc, 0) == 4
    assert column_distance_support(b1.desc, 1) == 6
    assert column_distance(b1.desc, 0) == 4
    assert column_distance(b1.desc, 1) == 6


def test_column_distance_monotone_and_capped():
    rng = random.Random(37)
    for f in (F2, F3):
        for _ in range(3):
            n = rng.randint(3, 4)
            kappa = rng.randint(1, n - 1)
            pm = _random_unit_memory(rng, f, n, kappa, rng.randint(1, kappa))
            desc = ConvCodeDesc.from_parity(pm)
            prev = 0
            for j in range(4):
                d = column_distance(desc, j)
                assert d >= prev
                assert d <= (desc.n - desc.k) * (j + 1) + 1
                prev = d
            assert prev >= min_distance(pm.coefficient(0))


def test_column_distance_j0_is_h0_distance():
    rng = random.Random(41)
    for _ in range(5):
        pm = _random_unit_memory(rng, F3, 4, 2, rng.randint(1, 2))
        desc = ConvCodeDesc.from_parity(pm)
        assert column_distance(desc, 0) == min_distance(pm.coefficient(0))


def test_column_distance_budget():
    b10 = build_fixture(fixture_by_number(10))
    with pytest.raises(BudgetExceeded) as info:
        column_distance(b10.desc, 3, budget=50)
    assert info.value.lower_bound is not None
    assert info.value.lower_bound >= 1
    with pytest.raises(BudgetExceeded):
        column_distance_support(b10.desc, 1, budget=10)


# -- classification -----------------------------------------------------------


def test_classify_report_schema():
    b1 = build_fixture(fixture_by_number(1))
    report = classify(b1.desc, certs=b1.split_distances, jmax=2)
    data = report.to_json()
    assert set(data) == {
        "n",
        "k",
        "delta",
        "nu",
        "singleton_bound",
        "M",
        "L",
        "column_distances",
        "dfree",
        "verdicts",
        "certificates",
    }
    assert data["n"] == 7 and data["k"] == 4 and data["delta"] == 2
    assert data["singleton_bound"] == 6
    assert data["M"] == 1 and data["L"] == 0
    assert data["column_distances"] == {"0": 4, "1": 6, "2": 6}
    assert data["dfree"] == [6, 6]
    assert data["verdicts"] == {
        "mds": "confirmed",
        "smds": "confirmed",
        "mdp": "confirmed",
    }
    kinds = [c["type"] for c in data["certificates"]]
    assert "block-split" in kinds
    assert "saturation" in kinds
    assert "cascade" in kinds


def test_classify_is_deterministic():
    b5 = build_fixture(fixture_by_number(5))
    first = classify(b5.desc, certs=b5.split_distances, jmax=4).to_json()
    second = classify(b5.desc, certs=b5.split_distances, jmax=4).to_json()
    assert first == second


def test_classify_refutations_are_exact():
    b3 = build_fixture(fixture_by_number(3))
    report = classify(b3.desc, certs=b3.split_distances, jmax=2)
    assert report.mds is Verdict.CONFIRMED
    assert report.strongly_mds is Verdict.REFUTED
    assert report.mdp is Verdict.REFUTED
    # Refutation means the window value provably misses the target.
    assert report.column_distances[1] < report.singleton_bound


def test_classify_budget_inconclusive():
    b10 = build_fixture(fixture_by_number(10))
    report = classify(b10.desc, certs=b10.split_distances, jmax=4, budget=200)
    assert any(c.get("type") == "budget-exhausted" for c in report.certificates)
    assert report.mds in (Verdict.INCONCLUSIVE, Verdict.CONFIRMED)
    assert Verdict.INCONCLUSIVE in (
        report.mds,
        report.strongly_mds,
        report.mdp,
    )


@pytest.mark.parametrize(
    "bundle, steps",
    [
        pytest.param(lambda: sec3_code(8, 7, 2, 2), 1701, id="sec3-q8"),
        pytest.param(lambda: sec5_part2_code(7, 2, 1), 4601, id="sec5p2-q7"),
        # The (9,5,4) code, the slowest of the q <= 8 sweep.
        pytest.param(lambda: sec5_part2_code(8, 1, 2), 78_432, id="sec5p2-q8"),
        # The (9,3,2) code: 8^6 syndromes, so there is no coset-leader table
        # and the heuristic is [t != 0]; the search queries its way to F(t).
        pytest.param(lambda: sec5_part2_code(8, 1, 1), 1828, id="sec5p2-q8-first-hit"),
    ],
)
def test_classify_budget_step_counts(bundle, steps):
    # Exact step counts: the budget is charged per query, so these hold
    # while the search makes the same queries in the same order.  They move
    # when the search changes which queries it makes, and not when it
    # changes how one query is answered.  Each window's goal is a popped
    # block-j entry whose own query has a solution, and that query counts.
    b = bundle()

    def exhausted(budget):
        report = classify(b.desc, certs=b.split_distances, budget=budget)
        return any(c["type"] == "budget-exhausted" for c in report.certificates)

    assert not exhausted(steps)
    assert exhausted(steps - 1)


@pytest.mark.parametrize(
    "budget, j, lower_bound",
    [(1, 1, 5), (447, 1, 5), (448, 1, 6), (1847, 1, 6), (1848, 1, 7), (4599, 1, 7)],
)
def test_classify_budget_exhausted_certificate(budget, j, lower_bound):
    # The level at which the budget runs out, measured on the scalar search
    # this batched one replaced: the whole level's steps are charged in one
    # query, so exhaustion must land in the same query.
    b = sec5_part2_code(7, 2, 1)
    report = classify(b.desc, certs=b.split_distances, budget=budget)
    notes = [c for c in report.certificates if c["type"] == "budget-exhausted"]
    assert notes == [{"type": "budget-exhausted", "j": j, "lower_bound": lower_bound}]


def test_classify_sec5c1_q11_paper_claim():
    # The paper's (12,5,4) code over GF(11): 11^7 syndromes, so no
    # coset-leader table.  The default budget settles it: every window from
    # 1 on meets the Singleton bound 12.
    b = sec5_construction_one(11, 1, 2)
    report = classify(b.desc, certs=b.split_distances)
    assert report.column_distances == {0: 8, 1: 12, 2: 12, 3: 12, 4: 12}
    assert (report.dfree_lower, report.dfree_upper) == (12, 12)
    assert set(report.verdicts().values()) == {Verdict.CONFIRMED}
    assert all(c["type"] != "budget-exhausted" for c in report.certificates)


def test_classify_memoryless():
    parity = PolyMatrix(F8, (root_parity_matrix(F8, [1, F8.theta], 5),))
    desc = ConvCodeDesc.from_parity(parity)
    report = classify(desc, jmax=3)
    assert report.singleton_bound == 3
    assert report.dfree_lower == report.dfree_upper == 3
    assert report.column_distances == {0: 3, 1: 3, 2: 3, 3: 3}
    assert report.mds is Verdict.CONFIRMED
    assert report.strongly_mds is Verdict.CONFIRMED
    assert report.mdp is Verdict.CONFIRMED


def test_classify_jmax_too_small_is_inconclusive():
    # Window 1 is needed to decide strong MDS here; stopping at 0 must not
    # fabricate a verdict.
    b1 = build_fixture(fixture_by_number(1))
    report = classify(b1.desc, certs=b1.split_distances, jmax=0)
    assert report.strongly_mds is Verdict.INCONCLUSIVE
    assert report.mdp is Verdict.CONFIRMED  # L = 0 is available


# -- minimality and row surgery ------------------------------------------------


def test_minimality_fixture_parities():
    for number in (1, 9, 10):
        pm = build_fixture(fixture_by_number(number)).parity
        result = minimality_check(pm)
        assert result == {"row_reduced": True, "basic": True}


def test_minimality_not_row_reduced():
    c0 = FMatrix(F2, [[1, 0], [0, 1]])
    c1 = FMatrix(F2, [[1, 1], [1, 1]])
    pm = PolyMatrix(F2, (c0, c1))
    result = minimality_check(pm)
    assert result["row_reduced"] is False
    assert result["basic"] is True  # determinant is the constant 1


def test_minimality_not_basic():
    # Single row (1+D, 1+D): gcd of the maximal minors is 1+D.
    c0 = FMatrix(F2, [[1, 1]])
    c1 = FMatrix(F2, [[1, 1]])
    pm = PolyMatrix(F2, (c0, c1))
    result = minimality_check(pm)
    assert result["row_reduced"] is True
    assert result["basic"] is False


def test_minimality_rank_deficient():
    with pytest.raises(RankDeficient):
        minimality_check(PolyMatrix(F2, (FMatrix(F2, [[1, 1], [1, 1]]),)))
    with pytest.raises(RankDeficient):
        minimality_check(PolyMatrix(F2, (FMatrix(F2, [[1], [1]]),)))
    with pytest.raises(RankDeficient):
        minimality_check(
            PolyMatrix(F2, (FMatrix(F2, [[1, 0], [0, 0]]),))
        )


def test_verdict_values():
    assert Verdict.CONFIRMED.value == "confirmed"
    assert Verdict.REFUTED.value == "refuted"
    assert Verdict.INCONCLUSIVE.value == "inconclusive"


# -- cap hits against sliding-matrix minors ----------------------------------
#
# Gluesing-Luerssen, Rosenthal & Smarandache, "Strongly-MDS convolutional
# codes", IEEE Trans. IT 52(2), 2006, Thm 2.4: with H0 of full row rank,
# d_j = (n-k)(j+1) + 1 exactly when every full-size minor of the window-j
# sliding matrix is nonzero over the column sets t_1 < ... < t_{(j+1)(n-k)}
# (1-based) with t_{s(n-k)} <= s n for s = 1..j.  Other column sets have a
# zero minor in any case, since the first s(n-k) rows live on the first s n
# columns.  This decides cap hits with no column search at all.

_MINOR_SET_LIMIT = 300_000


def _block_counts(n, kappa, j, s=0, taken=0):
    """Columns taken from each block of n: at least (s+1) kappa from blocks
    0..s, and (j+1) kappa in all."""
    total = (j + 1) * kappa
    if s == j + 1:
        return [()]
    return [
        (c,) + rest
        for c in range(max(0, (s + 1) * kappa - taken), min(n, total - taken) + 1)
        for rest in _block_counts(n, kappa, j, s + 1, taken + c)
    ]


def _minors_nonzero(desc, j):
    """Whether every minor of the theorem is nonzero at window j, or None
    when there are more than _MINOR_SET_LIMIT column sets."""
    n, kappa = desc.n, desc.n - desc.k
    counts = _block_counts(n, kappa, j)
    if sum(math.prod(math.comb(n, c) for c in cs) for cs in counts) > _MINOR_SET_LIMIT:
        return None
    window = np.array(sliding_matrix(desc.parity, j).to_lists())
    # Sets heavy in the early blocks first: a short codeword starts at
    # block 0, so a zero minor turns up sooner there.
    for cs in reversed(counts):
        blocks = [
            itertools.combinations(range(s * n, (s + 1) * n), c)
            for s, c in enumerate(cs)
        ]
        sets = [sum(parts, ()) for parts in itertools.product(*blocks)]
        for start in range(0, len(sets), 2000):
            cols = np.array(sets[start : start + 2000])
            minors = window[:, cols].transpose(1, 0, 2)
            if not rref_stack(desc.field, minors)[1].all():
                return False
    return True


def test_sweep_reports_are_pinned(sweep_results):
    # Every q <= 9 sweep report, in sweep order, by the sha256 of its
    # canonical JSON: a change to any distance, verdict or certificate of
    # the 141 codes shows here.
    digest = hashlib.sha256()
    for _, _, report, _ in sweep_results:
        digest.update(json.dumps(report.to_json(), sort_keys=True).encode() + b"\n")
    assert len(sweep_results) == 141
    assert digest.hexdigest() == (
        "abd4becef452608691878689bdd8ca5db5f5dc91ed3c0619f45acc8b3997ac0b"
    )


def test_heuristics_agree_on_sweep_codes(sweep_results, monkeypatch):
    # The q <= 7 sweep codes without the coset-leader table, so the
    # heuristic is [t != 0]: the column distances are the reported ones.
    monkeypatch.setattr(convcode, "_F_TABLE_LIMIT", 0)
    codes = [(b, r) for spec, b, r, _ in sweep_results if spec.q <= 7]
    assert len(codes) == 40
    for bundle, report in codes:
        engine = _ColumnSearch(bundle.desc, d0=bundle.split_distances[1])
        assert engine._ftable is None
        dists = {j: engine.distance(j) for j in range(5)}
        assert dists == report.column_distances, bundle.desc.parity.to_json()


def test_cap_hits_match_sliding_matrix_minors(sweep_results, fixture_results, capsys):
    # Every reported d_j of the q <= 7 sweep meets its cap exactly when the
    # minors say so, and so does each fixture's MDP claim at window L.
    checked = hits = skipped = 0
    for spec, bundle, report, _ in sweep_results:
        if spec.q > 7:
            continue
        desc = bundle.desc
        for j, d in report.column_distances.items():
            nonzero = _minors_nonzero(desc, j)
            if nonzero is None:
                skipped += 1
                continue
            assert nonzero == (d == (desc.n - desc.k) * (j + 1) + 1), (spec, j, d)
            checked += 1
            hits += nonzero
    for fx in FIXTURES:
        report = fixture_results[fx.number]["report"]
        assert _minors_nonzero(report.desc, report.L) == fx.claims["mdp"], fx.number
    with capsys.disabled():
        print(
            f"\nMINORS: {checked} column distances agree ({hits} cap hits), "
            f"{skipped} skipped above {_MINOR_SET_LIMIT} column sets, "
            f"{len(FIXTURES)} fixture MDP claims agree"
        )
