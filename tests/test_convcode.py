"""Convolutional layer: polynomial parity checks, column distances,
free-distance certificates, classification, minimality."""

import itertools
import random

import pytest

from umconv import convcode
from umconv.blockcode import min_distance, root_parity_matrix
from umconv.constructions import sec3_code, sec5_part2_code
from umconv.convcode import (
    BudgetExceeded,
    ConvCodeDesc,
    InvalidParams,
    NotMaximalDegreeRow,
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
    omit_rows,
    singleton_and_indices,
    sliding_matrix,
    unit_memory_parity,
)
from umconv.fixtures import build_fixture, fixture_by_number
from umconv.galois import field_for_order
from umconv.linalg import FMatrix, rank

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
        if any(h1.row_is_zero(r) for r in range(h1.rows)):
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
    square = PolyMatrix(F3, (FMatrix.identity(F3, 3),))
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
        assert column_distance(desc, j, method="support") == d
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
            block = column_distance(desc, j, method="block")
            support = column_distance(desc, j, method="support")
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
                assert column_distance(desc, j, method="block") == column_distance(
                    desc, j, method="support"
                )


def _check_engine_reuse(seed, monkeypatch):
    """One engine walks windows 0..3 on random codes; every window must match
    the support engine (and brute force where it is small), and the engine
    must row-reduce each support exactly once."""
    calls = []
    real_rref = convcode.rref

    def counting_rref(mat):
        calls.append(mat)
        return real_rref(mat)

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
        calls.clear()
        for j in range(4):
            d = engine.distance(j)
            assert d == column_distance(desc, j, method="support"), (pm.to_json(), j)
            if f.q ** (n * (j + 1)) <= 20_000:
                assert d == _brute_column_distance(desc, j), (pm.to_json(), j)
        assert len(calls) == len(engine._reductions) <= 2**n
        engines.append(engine)
    return engines


def test_column_search_reuses_support_reductions(monkeypatch):
    engines = _check_engine_reuse(47, monkeypatch)
    assert all(e._ftable is not None for e in engines)


def test_column_search_first_hit_route(monkeypatch):
    # Without the coset-leader table, F(t) comes from the first-hit support
    # search, which goes through the same per-support reductions.
    monkeypatch.setattr(convcode, "_F_TABLE_LIMIT", 0)
    engines = _check_engine_reuse(47, monkeypatch)
    assert all(e._ftable is None for e in engines)
    assert any(len(e._fmin_cache) > 1 for e in engines)


def test_column_distance_fixture_vs_support():
    b1 = build_fixture(fixture_by_number(1))
    assert column_distance(b1.desc, 0, method="support") == 4
    assert column_distance(b1.desc, 1, method="support") == 6
    assert column_distance(b1.desc, 0, method="block") == 4
    assert column_distance(b1.desc, 1, method="block") == 6


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
        column_distance(b10.desc, 1, budget=10, method="support")


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
        pytest.param(lambda: sec3_code(8, 7, 2, 2), 1680, id="sec3-q8"),
        pytest.param(lambda: sec5_part2_code(7, 2, 1), 4600, id="sec5p2-q7"),
    ],
)
def test_classify_budget_step_counts(bundle, steps):
    # Exact step counts: the search spends its budget at fixed points, so a
    # change to how it solves per-support systems must leave these unchanged.
    b = bundle()

    def exhausted(budget):
        report = classify(b.desc, certs=b.split_distances, budget=budget)
        return any(c["type"] == "budget-exhausted" for c in report.certificates)

    assert not exhausted(steps)
    assert exhausted(steps - 1)


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
    c0 = FMatrix.identity(F2, 2)
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


def test_omit_rows():
    b3 = build_fixture(fixture_by_number(3))
    pm = b3.parity  # all three rows have degree 1
    kept = omit_rows(pm, (2,))
    assert kept.rows == 2
    assert kept.coefficient(0) == pm.coefficient(0).take_rows((0, 1))
    assert kept.coefficient(1) == pm.coefficient(1).take_rows((0, 1))
    b1 = build_fixture(fixture_by_number(1))
    with pytest.raises(NotMaximalDegreeRow):
        omit_rows(b1.parity, (0,))  # row 0 has degree 0, max is 1
    with pytest.raises(ValueError):
        omit_rows(pm, (0, 1, 2))
    # Dropping every degree-1 row leaves a memoryless parity.
    b2 = build_fixture(fixture_by_number(2))
    trimmed = omit_rows(b2.parity, (2, 3))
    assert trimmed.memory == 0


def test_verdict_values():
    assert Verdict.CONFIRMED.value == "confirmed"
    assert Verdict.REFUTED.value == "refuted"
    assert Verdict.INCONCLUSIVE.value == "inconclusive"
