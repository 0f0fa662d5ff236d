"""Block-code layer: parity constructions, distances, realification."""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from umconv import blockcode
from umconv.blockcode import (
    BudgetExceeded,
    DuplicatePoints,
    DuplicateRoots,
    RootSpec,
    _dependency_min_weight,
    _enumeration_min_weight,
    base_field_closure_check,
    block_code_from_parity,
    downcast_poly,
    evaluation_parity_matrix,
    min_distance,
    realify,
    root_parity_matrix,
)
from umconv.galois import (
    Field,
    field_for_order,
    make_ext_field,
    make_field,
    poly_deg,
    poly_eval,
    poly_from_roots,
    poly_mod,
)
from umconv.linalg import FMatrix, nullspace, rank
from oracles import columns_independent

F8 = field_for_order(8)


def test_root_parity_matrix_entries():
    roots = [F8.pow(F8.theta, i) for i in range(3)]
    mat = root_parity_matrix(F8, roots, 5)
    assert (mat.rows, mat.cols) == (3, 5)
    for j, r in enumerate(roots):
        for i in range(5):
            assert mat[j, i] == F8.pow(r, i)
    # A vector is in the kernel iff its polynomial vanishes at every root.
    for vec in nullspace(mat):
        for r in roots:
            assert poly_eval(F8, vec, r) == 0


def test_evaluation_parity_matrix_entries():
    f = field_for_order(5)
    points = [0, 1, 2, 3]
    mat = evaluation_parity_matrix(f, points, 3)
    for j in range(3):
        for i, pt in enumerate(points):
            assert mat[j, i] == f.pow(pt, j)
    assert mat[0, 0] == 1  # 0^0
    assert mat[1, 0] == 0


def test_parity_constructor_validation():
    with pytest.raises(DuplicateRoots):
        root_parity_matrix(F8, [1, 1], 4)
    with pytest.raises(DuplicatePoints):
        evaluation_parity_matrix(F8, [0, 3, 3], 2)


def test_generator_from_roots_and_closure():
    ext = make_ext_field(F8, modulus=(1, 2, 1))
    spec = RootSpec(ambient=ext, step=ext.beta, lo=-2, hi=2)
    assert len(spec.roots()) == 5
    assert base_field_closure_check(spec)
    gen = poly_from_roots(ext, spec.roots())
    for r in spec.roots():
        assert poly_eval(ext, gen, r) == 0
    down = downcast_poly(ext, gen)
    assert all(0 <= c < 8 for c in down)
    # A root range that is not conjugation-closed cannot be downcast.
    open_spec = RootSpec(ambient=ext, step=ext.beta, lo=0, hi=1)
    assert not base_field_closure_check(open_spec)
    with pytest.raises(ValueError):
        downcast_poly(ext, poly_from_roots(ext, open_spec.roots()))


def test_rootspec_base_point():
    ext = make_ext_field(F8, modulus=(1, 2, 1))
    spec = RootSpec(ambient=ext, step=ext.beta, lo=1, hi=3, base_point=ext.theta)
    want = [ext.mul(ext.theta, ext.pow(ext.beta, j)) for j in (1, 2, 3)]
    assert list(spec.roots()) == want


def test_min_distance_known_codes():
    # Reed-Solomon codes meet the Singleton bound.
    for k in (1, 2, 3, 5):
        roots = [F8.pow(F8.theta, i) for i in range(7 - k)]
        mat = root_parity_matrix(F8, roots, 7)
        assert min_distance(mat) == 7 - k + 1
    # Binary Hamming [7,4] has distance 3.
    cols = [[(c >> b) & 1 for c in range(1, 8)] for b in range(3)]
    hamming = FMatrix(field_for_order(2), cols)
    assert min_distance(hamming) == 3
    # Full space: empty parity check.
    assert min_distance(FMatrix.zero(field_for_order(3), 2, 5)) == 1


def test_min_distance_dual_routes_random():
    rng = random.Random(101)
    sizes = (2, 3, 4, 5, 7)
    count = 0
    while count < 100:
        f = field_for_order(rng.choice(sizes))
        n = rng.randint(2, 8)
        r = rng.randint(1, n - 1)
        mat = FMatrix(
            f, [[rng.randrange(f.q) for _ in range(n)] for _ in range(r)]
        )
        if rank(mat) == n:
            continue
        count += 1
        d_search = _dependency_min_weight(mat, rank(mat))
        d_enum = _enumeration_min_weight(mat)
        assert d_search == d_enum


def test_min_distance_budget():
    roots = [F8.pow(F8.theta, i) for i in range(4)]
    mat = root_parity_matrix(F8, roots, 7)
    with pytest.raises(BudgetExceeded):
        min_distance(mat, budget=3)
    # One step per column tested, hashed or cut-reduced.  k = 3 < r = 4, so
    # the search runs on the 3 x 7 kernel basis, every 3 columns of which
    # are independent.  Its root cuts columns 6, 5, 4 and 3, the first that
    # reduces to zero (4 steps), and tests columns 0..3 (4 steps).  Each
    # child of one column has best = 4 = 1 + 3, so it hashes its 6 - i
    # later columns: 6 + 5 + 4 + 3 = 18.  The result is k + 1, so d = r + 1
    # in 26 steps (79 on the parity check, 98 without the cut).  The first
    # cut alone spends more than 3.
    assert min_distance(mat, budget=26) == 5
    with pytest.raises(BudgetExceeded):
        min_distance(mat, budget=25)


def test_min_distance_pair_rule_steps_when_k_is_at_least_r():
    # k = r = 3, so the search runs on the parity check.  Every 3 columns
    # are independent: the root cuts columns 5, 4, 3 and 2 (4 steps) and
    # tests columns 0..2 (3 steps), and each child of one column has
    # best = 4 = 1 + 3 and hashes its 5 - i later columns: 5 + 4 + 3 = 12.
    mat = root_parity_matrix(F8, [F8.pow(F8.theta, i) for i in range(3)], 6)
    assert min_distance(mat, budget=19) == 4
    with pytest.raises(BudgetExceeded):
        min_distance(mat, budget=18)


def test_min_distance_spends_one_budget_on_both_searches():
    # k = 1 < r = 3 and d = 3: the kernel is spanned by (2, 2, 0, 1).  The
    # search on that basis tests columns 0, 1 and 2, which is zero, and
    # returns 1, not k + 1 (3 steps).  The search on the parity check then
    # cuts columns 3, 2, 1 and 0 = col 3 - col 1 (4 steps), tests column 0
    # (1 step), and its child hashes the 3 reduced later columns, of which
    # columns 1 and 3 are equal (3 steps): 11 in all, though each search
    # alone fits in 10.
    mat = FMatrix(field_for_order(3), [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]])
    assert nullspace(mat) == [(2, 2, 0, 1)]
    assert min_distance(mat, budget=11) == 3
    with pytest.raises(BudgetExceeded):
        min_distance(mat, budget=10)


def _oracle_min_distance(parity):
    """Smallest w such that some w columns are dependent, by trying all."""
    for w in range(1, parity.cols + 1):
        for subset in itertools.combinations(range(parity.cols), w):
            if not columns_independent(parity, subset):
                return w
    raise AssertionError("parity has full column rank")


def _random_parity(rng, f, n, r, extra_rows):
    """r random rows plus extra_rows random combinations of them."""
    rows = [[rng.randrange(f.q) for _ in range(n)] for _ in range(r)]
    return _add_combinations(rng, f, rows, extra_rows)


def _add_combinations(rng, f, rows, count):
    """rows followed by count random combinations of them."""
    base = list(rows)
    for _ in range(count):
        combo = [0] * len(base[0])
        for row in base:
            c = rng.randrange(f.q)
            combo = [f.add(x, f.mul(c, y)) for x, y in zip(combo, row)]
        rows.append(combo)
    return rows


def test_min_distance_matches_subset_oracle():
    rng = random.Random(211)
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        f = field_for_order(q)
        for trial in range(10):
            n = rng.randint(2, 10)
            rows = _random_parity(rng, f, n, rng.randint(1, n - 1), rng.randint(0, 2))
            if trial == 8:  # a zero column: d = 1
                zero = rng.randrange(n)
                for row in rows:
                    row[zero] = 0
            if trial == 9:  # a column repeated up to a scalar: d <= 2
                src, dst = rng.sample(range(n), 2)
                c = rng.randrange(1, q)
                for row in rows:
                    row[dst] = f.mul(c, row[src])
            mat = FMatrix(f, rows)
            want = _oracle_min_distance(mat)
            if trial >= 8:
                assert want <= trial - 7
            assert _dependency_min_weight(mat, rank(mat)) == want, (q, rows)
    f7 = field_for_order(7)
    zero_col = FMatrix(f7, [[1, 0, 2, 3], [4, 0, 5, 6], [5, 0, 0, 2]])
    assert min_distance(zero_col) == 1
    repeated = FMatrix(f7, [[1, 2, 3, 2], [4, 5, 6, 5], [1, 1, 2, 1]])
    assert min_distance(repeated) == 2


def _damaged_mds_rows(rng, f, n, r, kind):
    """A shuffled MDS root parity of rank r (random rows where GF(q) has too
    few powers of theta); kind 1 zeroes a column, kind 2 repeats one up to
    a scalar and kind 3 adds two dependent rows."""
    q = f.q
    if q < 4:
        rows = _random_parity(rng, f, n, r, 0)
    else:
        roots = [f.pow(f.theta, i) for i in range(r)]
        rows = root_parity_matrix(f, roots, n).to_lists()
    order = rng.sample(range(n), n)
    rows = [[row[i] for i in order] for row in rows]
    if kind == 1:  # a zero column
        zero = rng.randrange(n)
        for row in rows:
            row[zero] = 0
    if kind == 2:  # a column repeated up to a scalar
        src, dst = rng.sample(range(n), 2)
        c = rng.randrange(1, q)
        for row in rows:
            row[dst] = f.mul(c, row[src])
    if kind == 3:  # dependent rows: combinations of the others
        rows = _add_combinations(rng, f, rows, 2)
    return rows


def test_dependency_cut_matches_subset_oracle():
    # Damaged MDS parities, so that the first column of a node's cut that
    # depends on the ones after it sits anywhere in its later list.
    rng = random.Random(1021)
    for q in (2, 3, 4, 5, 7, 8, 9, 11):
        f = field_for_order(q)
        for trial in range(16):
            n = rng.randint(3, 9 if q < 4 else min(9, q - 1))
            r = rng.randint(1, n - 1)
            kind = trial % 4
            rows = _damaged_mds_rows(rng, f, n, r, kind)
            mat = FMatrix(f, rows)
            want = _oracle_min_distance(mat)
            if kind in (1, 2):
                assert want <= kind
            assert _dependency_min_weight(mat, rank(mat)) == want, (q, rows)


def test_dual_and_pair_rules_match_subset_oracle():
    # min_distance on both sides of k = r against trying every subset: in
    # odd trials the rank is drawn above n / 2, so k < r and the dual rule
    # runs, in even ones at most n / 2.  Damaged parities are not MDS, so
    # the dual search falls back, and the pair rule meets zero and scaled
    # repeated columns on both sides.  GF(257) runs on-demand arithmetic,
    # and above k = 2 no enumeration backs it.
    rng = random.Random(2207)
    cases = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 257):
        f = field_for_order(q)
        for trial in range(16 if q < 257 else 8):
            n = rng.randint(3, 9 if q < 4 else min(9, q - 1))
            if trial % 2:
                r = rng.randint(n // 2 + 1, n - 1)
            else:
                r = rng.randint(1, n // 2)
            cases.append(FMatrix(f, _damaged_mds_rows(rng, f, n, r, trial // 2 % 4)))
    kinds = set()
    for mat in cases:
        want = _oracle_min_distance(mat)
        r = rank(mat)
        kinds.add((mat.cols - r < r, want == r + 1))
        assert min_distance(mat) == want, (mat.field.q, mat.to_lists())
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_dependency_cut_steps_of_a_gf16_mds_parity():
    # Rank 13 of 15 columns, so k = 2: the search runs on the 2 x 15 kernel
    # basis, whose root has best = 3 = 0 + 3 and hashes its 15 columns.
    # On the parity check the search took 637 steps with the cut and
    # 32,751 column tests without it.
    f16 = field_for_order(16)
    mat = root_parity_matrix(f16, [f16.pow(f16.theta, i) for i in range(13)], 15)
    assert rank(mat) == 13
    assert min_distance(mat, budget=15) == 14
    with pytest.raises(BudgetExceeded):
        min_distance(mat, budget=14)


def test_min_distance_without_lookup_tables():
    # GF(257) is above the table limit, so both routes index on-demand
    # arithmetic instead; the budget pin holds there too.
    f257 = field_for_order(257)
    roots = [f257.pow(f257.theta, i) for i in range(4)]
    assert min_distance(root_parity_matrix(f257, roots, 7), budget=26) == 5
    with pytest.raises(BudgetExceeded):
        min_distance(root_parity_matrix(f257, roots, 7), budget=25)
    assert min_distance(root_parity_matrix(f257, roots, 10)) == 5
    repeated = FMatrix(f257, [[1, 2, 3, 2], [4, 5, 6, 5], [1, 1, 2, 1]])
    assert min_distance(repeated) == 2
    assert min_distance(FMatrix(field_for_order(65537), [[1, 2]])) == 2


def test_enumeration_above_table_limit_calls_field_per_word(monkeypatch):
    # Above 256 elements the enumeration applies the field operations to the
    # words it weighs; it must not tabulate all q^2 products first.
    f = field_for_order(1009)
    calls = [0]

    def counted(op):
        def wrapper(self, a, b):
            calls[0] += 1
            return op(self, a, b)

        return wrapper

    monkeypatch.setattr(Field, "add", counted(Field.add))
    monkeypatch.setattr(Field, "mul", counted(Field.mul))
    assert _enumeration_min_weight(FMatrix(f, [[1, 2, 3]])) == 2
    assert 0 < calls[0] < f.q**2 / 10


def test_min_distance_mds_up_to_length_12():
    # Over GF(11), consecutive roots beta^-a..beta^a of the order-12 element
    # of GF(121) give a conjugation-closed set, so the realified parity is an
    # MDS check over GF(11) of rank 2a+1 with more rows than that, n up to q+1.
    f11 = field_for_order(11)
    ext = make_ext_field(f11)
    cases = []
    for a in (1, 2, 3):
        spec = RootSpec(ambient=ext, step=ext.beta, lo=-a, hi=a)
        for n in range(2 * a + 2, 13):
            cases.append(realify(root_parity_matrix(ext, spec.roots(), n)))
    for r in (2, 4, 6):
        roots = [f11.pow(f11.theta, i) for i in range(r)]
        cases.append(root_parity_matrix(f11, roots, 10))
    for mat in cases:
        r = rank(mat)
        assert _dependency_min_weight(mat, r) == r + 1
        if 11 ** (mat.cols - r) <= 2**20:
            assert _enumeration_min_weight(mat) == r + 1


@st.composite
def _small_parity(draw, sizes=(2, 3, 4, 5)):
    f = field_for_order(draw(st.sampled_from(sizes)))
    n = draw(st.integers(2, 6))
    rows = draw(st.integers(1, 4))
    entry = st.integers(0, f.q - 1)
    row = st.lists(entry, min_size=n, max_size=n)
    data = draw(st.lists(row, min_size=rows, max_size=rows))
    return FMatrix(f, data)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_parity())
def test_min_distance_routes_agree_property(mat):
    r = rank(mat)
    assume(r < mat.cols)
    assert _dependency_min_weight(mat, r) == _enumeration_min_weight(mat)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_small_parity((7, 8, 9, 11)))
def test_min_distance_routes_agree_large_fields_property(mat):
    # One codeword per line drops a factor q - 1 of the words, the most here.
    r = rank(mat)
    assume(r < mat.cols)
    assert _dependency_min_weight(mat, r) == _enumeration_min_weight(mat)


def _kernel_oracle_min_weight(parity):
    """Least weight of a nonzero x in F_q^n with parity.matvec(x) == 0."""
    return min(
        sum(1 for c in x if c)
        for x in itertools.product(range(parity.field.q), repeat=parity.cols)
        if any(x) and not any(parity.matvec(x))
    )


def test_enumeration_matches_kernel_oracle():
    rng = random.Random(307)
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field_for_order(q)
        max_n = max(n for n in range(2, 11) if q**n <= 4096)
        for trial in range(6):
            n = rng.randint(2, max_n)
            if trial == 0:  # k = 1: [I | c] has a one-dimensional kernel
                rows = [
                    [int(i == j) for j in range(n - 1)] + [rng.randrange(q)]
                    for i in range(n - 1)
                ]
            else:
                rows = _random_parity(rng, f, n, rng.randint(1, n - 1), trial % 2)
            if trial == 4:  # a zero column: d = 1
                zero = rng.randrange(n)
                for row in rows:
                    row[zero] = 0
            if trial == 5:  # a column repeated up to a scalar: d <= 2
                src, dst = rng.sample(range(n), 2)
                c = rng.randrange(1, q)
                for row in rows:
                    row[dst] = f.mul(c, row[src])
            mat = FMatrix(f, rows)
            if trial == 0:
                assert rank(mat) == n - 1
            want = _kernel_oracle_min_weight(mat)
            if trial >= 4:
                assert want <= trial - 3
            assert _enumeration_min_weight(mat) == want, (q, rows)
    # GF(257) takes the elementwise stand-ins; k = 1 and k = 2.
    f257 = field_for_order(257)
    for rows in ([[256, 3]], [[0, 0]]):
        mat = FMatrix(f257, rows)
        assert _enumeration_min_weight(mat) == _kernel_oracle_min_weight(mat)


def test_min_distance_cross_check_guard(monkeypatch):
    roots = [F8.pow(F8.theta, i) for i in range(4)]
    mat = root_parity_matrix(F8, roots, 7)
    # The stub is wrong on either side: k on the kernel basis is not
    # k + 1, so the search falls back to the parity check, where r < 5.
    with monkeypatch.context() as m:
        m.setattr(blockcode, "_dependency_min_weight", lambda parity, r, budget: r)
        with pytest.raises(RuntimeError, match="mismatch"):
            min_distance(mat)
    # The cross-check runs exactly when q^k <= 2^20.
    calls = []

    def counted(parity):
        calls.append(parity.cols)
        return 2

    monkeypatch.setattr(blockcode, "_enumeration_min_weight", counted)
    f2 = field_for_order(2)
    assert min_distance(FMatrix(f2, [[1] * 21])) == 2  # k = 20
    assert min_distance(FMatrix(f2, [[1] * 22])) == 2  # k = 21
    assert calls == [21]


def test_min_distance_memo_proves_each_matrix_once(distance_route_calls):
    calls = distance_route_calls
    rng = random.Random(503)
    mats = []
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field_for_order(q)
        for _ in range(4):
            n = rng.randint(3, 8)
            rows = _random_parity(rng, f, n, rng.randint(1, n - 1), rng.randint(0, 1))
            mats.append(FMatrix(f, rows))
    f257 = field_for_order(257)
    mats.append(FMatrix(f257, [[1, 2, 3, 2, 7], [4, 5, 6, 5, 0], [1, 1, 2, 1, 9]]))
    for mat in mats:
        want = _oracle_min_distance(mat)
        calls.clear()
        assert min_distance(mat) == want
        assert "_dependency_min_weight" in calls or rank(mat) == 0
        calls.clear()
        assert min_distance(mat) == want
        # A separately built matrix with equal entries is the same key.
        assert min_distance(FMatrix(mat.field, mat.to_lists())) == want
        assert calls == []


def test_min_distance_memo_keys_on_the_modulus(distance_route_calls):
    calls = distance_route_calls
    rows = [[1, 2, 3, 4, 5], [0, 1, 4, 7, 8]]
    default = FMatrix(field_for_order(9), rows)
    other = FMatrix(field_for_order(9, modulus=(2, 1, 1)), rows)
    assert default.field.modulus != other.field.modulus
    assert min_distance(default) == _oracle_min_distance(default)
    calls.clear()
    assert min_distance(other) == _oracle_min_distance(other)
    assert "_dependency_min_weight" in calls


def test_min_distance_memo_leaves_budgeted_calls_alone():
    roots = [F8.pow(F8.theta, i) for i in range(4)]
    mat = root_parity_matrix(F8, roots, 7)
    assert min_distance(mat) == 5
    with pytest.raises(BudgetExceeded):
        min_distance(mat, budget=25)
    assert min_distance(mat, budget=26) == 5


def test_min_distance_memo_stores_no_failed_proof(monkeypatch):
    roots = [F8.pow(F8.theta, i) for i in range(4)]
    mat = root_parity_matrix(F8, roots, 7)
    # The stub is wrong on either side: k on the kernel basis is not
    # k + 1, so the search falls back to the parity check, where r < 5.
    with monkeypatch.context() as m:
        m.setattr(blockcode, "_dependency_min_weight", lambda parity, r, budget: r)
        with pytest.raises(RuntimeError, match="mismatch"):
            min_distance(mat)
    assert blockcode._MIN_DISTANCE_MEMO == {}
    assert min_distance(mat) == 5


def test_min_distance_dual_guard(monkeypatch):
    # k = 1 < r = 3 and d = 3; a stub that calls the dual MDS (k + 1 on the
    # kernel basis) is caught by the enumeration.
    mat = FMatrix(field_for_order(3), [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]])
    asked = []

    def stub(parity, r, budget):
        asked.append(r)
        return r + 1

    monkeypatch.setattr(blockcode, "_dependency_min_weight", stub)
    with pytest.raises(RuntimeError, match="mismatch"):
        min_distance(mat)
    assert asked == [1]
    assert blockcode._MIN_DISTANCE_MEMO == {}


def test_min_distance_checks_the_kernel_basis(monkeypatch, distance_route_calls):
    # A basis with a vector outside the kernel, or one of too low a rank,
    # raises before either route runs.
    roots = [F8.pow(F8.theta, i) for i in range(4)]
    mat = root_parity_matrix(F8, roots, 7)
    basis = nullspace(mat)
    outside = [basis[0][:-1] + (F8.add(basis[0][-1], 1),)] + basis[1:]
    short = [basis[0], basis[1], basis[0]]
    for wrong, message in ((outside, "H G"), (short, "rank")):
        monkeypatch.setattr(blockcode, "nullspace", lambda parity, w=wrong: w)
        with pytest.raises(RuntimeError, match=f"kernel basis check failed: {message}"):
            min_distance(mat)
    assert distance_route_calls == []
    assert blockcode._MIN_DISTANCE_MEMO == {}


def test_block_code_from_parity():
    roots = [F8.pow(F8.theta, i) for i in range(5)]
    mat = root_parity_matrix(F8, roots, 7)
    gen = poly_from_roots(F8, roots)
    modulus = poly_from_roots(F8, [F8.pow(F8.theta, i) for i in range(7)])
    code = block_code_from_parity(F8, mat, generator_poly=gen, modulus_poly=modulus)
    assert (code.n, code.k, code.d) == (7, 2, 6)
    assert code.is_mds
    assert poly_mod(F8, modulus, gen) == ()
    data = code.to_json()
    assert data["q"] == 8 and data["d"] == 6 and data["is_mds"]
    # Generator of the wrong degree is rejected.
    with pytest.raises(ValueError):
        block_code_from_parity(F8, mat, generator_poly=gen[:-2] + (1,))
    # Generator that does not divide the modulus is rejected (root 6 of the
    # generator is missing from the modulus).
    bad_mod = poly_from_roots(F8, [1, 2, 3, 4, 5, 7])
    with pytest.raises(ValueError):
        block_code_from_parity(F8, mat, generator_poly=gen, modulus_poly=bad_mod)


def test_realify_kernel_exhaustive_q4():
    """Kernel preservation for every vector, many row sets, at q = 4."""
    base = make_field(2, 2)
    ext = make_ext_field(base)
    n = 4
    rng = random.Random(53)
    matrices = []
    beta = ext.beta
    matrices.append(root_parity_matrix(ext, [ext.pow(beta, j) for j in (0, 1)], n))
    matrices.append(root_parity_matrix(ext, [ext.pow(beta, j) for j in (1, 2)], n))
    for _ in range(12):
        rows = rng.randint(1, 2)
        matrices.append(
            FMatrix(
                ext,
                [[rng.randrange(16) for _ in range(n)] for _ in range(rows)],
            )
        )
    for mat in matrices:
        real = realify(mat)
        assert real.field == base
        for digits in itertools.product(range(4), repeat=n):
            in_ext = all(x == 0 for x in mat.matvec(digits))
            in_real = real.rows == 0 or all(
                x == 0 for x in real.matvec(digits)
            )
            assert in_ext == in_real, (mat.to_lists(), digits)


def test_realify_row_layout():
    base = make_field(2, 3)
    ext = make_ext_field(base, modulus=(1, 2, 1))
    row = [ext.pow(ext.beta, j) for j in range(4)]
    mat = FMatrix(ext, [row])
    real = realify(mat)
    assert real.rows == 2
    for i, x in enumerate(row):
        a, b = ext.decompose(x)
        assert real[0, i] == a
        assert real[1, i] == b
    # Rows lying in the base field produce a single row.
    flat = FMatrix(ext, [[1, 2, 3]])
    assert realify(flat).rows == 1
    # The zero part of a purely imaginary row is dropped.
    imag = FMatrix(ext, [[ext.compose(0, 1), ext.compose(0, 3)]])
    got = realify(imag)
    assert got.rows == 1
    assert got.to_lists() == [[1, 3]]
