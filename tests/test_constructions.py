"""Family builders: admissible ranges, validation, structure invariants."""

import hashlib
import json
from itertools import product

import pytest

from umconv.blockcode import min_distance
from umconv.constructions import (
    FAMILIES,
    FAMILY_TABLE,
    FamilySpec,
    OddFieldSize,
    ParityConditionViolated,
    admissible_parameters,
    construct_family,
    sec3_code,
    sec4_code,
    sec5_construction_one,
    sec5_construction_two,
    sec5_part2_code,
)
from umconv.convcode import InvalidParams, minimality_check
from umconv.galois import field_for_order, make_ext_field, make_field
from umconv.linalg import rank


def test_admissible_q3_single_tuple():
    specs = admissible_parameters(3)
    assert len(specs) == 1
    spec = specs[0]
    assert (spec.family, spec.q, spec.n, spec.k, spec.delta) == ("sec4", 3, 3, 1, 1)


def test_sweep_construction_proves_each_block_distance_once(distance_route_calls):
    # The same block matrices recur across a family table; min_distance's
    # memo proves each distinct one once per process (without it, 423
    # dependency searches and 376 enumerations).
    specs = [s for q in (3, 4, 5, 7, 8, 9) for s in admissible_parameters(q)]
    assert len(specs) == 141
    for spec in specs:
        construct_family(spec)
    assert distance_route_calls.count("_dependency_min_weight") == 270
    assert distance_route_calls.count("_enumeration_min_weight") == 226


def test_admissible_q8_contains_known_smds_points():
    specs = admissible_parameters(8)
    keyed = {(s.family, s.n, s.k, s.delta): s for s in specs}
    sec3pt = keyed[("sec3", 7, 2, 2)]
    assert sec3pt.expected["smds"] is True
    sec4pt = keyed[("sec4", 8, 2, 2)]
    assert sec4pt.expected["smds"] is True


def test_admissible_sorted_and_in_range():
    for q in (4, 5, 7, 8, 9):
        specs = admissible_parameters(q)
        keys = [(s.family, s.n, s.k, s.delta) for s in specs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for s in specs:
            assert s.family in FAMILIES
            assert set(s.expected) == {"mds", "smds", "mdp"}
    assert admissible_parameters(5, families=("sec5c2",)) == []
    with pytest.raises(ValueError):
        admissible_parameters(5, families=("sec6",))


def test_admissible_guarantee_windows():
    # Guarantee tags follow the stated inequalities.
    for q in (5, 7, 8, 9):
        for s in admissible_parameters(q, families=("sec3", "sec4")):
            assert s.expected["mds"] == (2 * s.delta <= s.n - s.k)
            assert s.expected["smds"] == (3 * s.delta <= s.n - s.k + 1)
            assert s.expected["mdp"] == (2 * s.delta < s.n - s.k)
        for s in admissible_parameters(q, families=("sec5c1",)):
            guaranteed = 6 * s.delta <= q - s.k + 2
            assert s.expected == {
                "mds": guaranteed, "smds": guaranteed, "mdp": guaranteed
            }
        for s in admissible_parameters(q, families=("sec5p2",)):
            guaranteed = 6 * s.delta <= q - s.k + 1
            assert s.expected == {
                "mds": guaranteed, "smds": guaranteed, "mdp": guaranteed
            }
        for s in admissible_parameters(q, families=("sec5c2",)):
            assert s.expected == {"mds": True, "smds": False, "mdp": False}


# Admissible points per family (sec3, sec4, sec5c1, sec5c2, sec5p2) at each
# q, as enumerated by the per-family loops the family table replaced.
ADMISSIBLE_COUNTS = {
    3: (0, 1, 0, 0, 0),
    4: (1, 2, 0, 1, 0),
    5: (3, 4, 1, 0, 1),
    7: (13, 9, 2, 0, 2),
    8: (22, 12, 2, 3, 4),
    9: (34, 16, 4, 0, 4),
    11: (70, 25, 6, 0, 6),
}


def test_admissible_counts_pinned():
    got = {
        q: tuple(len(admissible_parameters(q, families=(f,))) for f in FAMILIES)
        for q in ADMISSIBLE_COUNTS
    }
    assert got == ADMISSIBLE_COUNTS
    assert sum(sum(c) for q, c in got.items() if q <= 9) == 141
    assert sum(sum(c) for c in got.values()) == 248


@pytest.mark.parametrize("name", FAMILIES)
def test_builders_reject_every_point_outside_the_table(name):
    # The grid reaches one step past the table's own (1..q+1 per parameter).
    fam = FAMILY_TABLE[name]
    for q in (4, 5, 7, 8, 9):
        admitted = {
            tuple(getattr(s, p) for p in fam.params)
            for s in admissible_parameters(q, families=(name,))
        }
        for point in product(range(0, q + 3), repeat=len(fam.params)):
            if point not in admitted:
                with pytest.raises(ValueError):
                    fam.build(q, *point)


def test_built_expected_matches_table(sweep_results):
    assert len(sweep_results) == 141
    for spec, bundle, _, _ in sweep_results:
        assert (bundle.family, bundle.q) == (spec.family, spec.q)
        assert bundle.expected == spec.expected


def test_construct_family_dispatch():
    spec = admissible_parameters(5)[0]
    bundle = construct_family(spec)
    assert bundle.family == spec.family
    with pytest.raises(ValueError):
        construct_family(
            FamilySpec(family="sec6", q=5, n=4, k=1, delta=1)
        )


def test_bundle_structure_invariants():
    bundles = [
        sec3_code(8, 7, 2, 2),
        sec4_code(8, 2, 2),
        sec5_construction_one(8, 4, 1),
        sec5_construction_two(8, 3),
        sec5_part2_code(8, 1, 1),
    ]
    for b in bundles:
        kappa = b.n - b.k
        assert b.parity.rows == kappa
        assert b.parity.cols == b.n
        # Padding is on top of the degree-1 coefficient.
        pad = kappa - b.h1.rows
        for r in range(pad):
            assert not any(b.parity.coefficient(1).row(r))
        assert b.parity.coefficient(1).take_rows(
            range(pad, kappa)
        ) == b.h1
        assert b.parity.coefficient(0) == b.h0.vstack(
            b.h1
        ) or b.parity.coefficient(0) == b.h0
        # Degree bookkeeping.
        assert sum(b.desc.row_degrees) == b.delta
        assert b.desc.nu == 1
        # Split distances are the exact block distances.
        assert b.split_distances == (
            b.block.d,
            min_distance(b.h0),
            min_distance(b.h1),
        )
        # The stacked rows define the same block code (sec4 re-orders H1).
        stacked = b.h0.vstack(b.h1)
        assert stacked.rows == b.block.parity.rows
        assert rank(b.block.parity.vstack(stacked)) == rank(b.block.parity)
        assert b.block.is_mds
        result = minimality_check(b.parity)
        assert result == {"row_reduced": True, "basic": True}


def test_family_degree_accounting():
    # sec3/sec4 contribute delta, realified families 2*delta, split tau.
    assert sec3_code(8, 7, 2, 2).delta == 2
    assert sec4_code(8, 2, 3).delta == 3
    assert sec5_construction_one(8, 4, 1).delta == 2
    assert sec5_construction_two(8, 3).delta == 3
    assert sec5_part2_code(8, 1, 1).delta == 2
    assert sec5_construction_two(8, 2).delta == 2


def test_sec3_validation():
    with pytest.raises(InvalidParams):
        sec3_code(8, 8, 2, 2)  # n must stay below q
    with pytest.raises(InvalidParams):
        sec3_code(8, 7, 2, 3)  # gamma < delta
    with pytest.raises(InvalidParams):
        sec3_code(8, 7, 0, 2)
    with pytest.raises(InvalidParams):
        sec3_code(8, 7, 2, 0)


def test_sec4_validation():
    with pytest.raises(InvalidParams):
        sec4_code(8, 7, 1)  # gamma = 0
    with pytest.raises(InvalidParams):
        sec4_code(8, 4, 3)  # gamma = 1 < delta
    with pytest.raises(InvalidParams):
        sec4_code(8, 0, 2)


def test_sec5c1_validation():
    with pytest.raises(ParityConditionViolated):
        sec5_construction_one(8, 3, 1)  # k must be even with q
    with pytest.raises(InvalidParams):
        sec5_construction_one(8, 4, 2)  # gamma = 1 <= delta
    with pytest.raises(InvalidParams):
        sec5_construction_one(4, 2, 1)  # q too small: gamma = delta
    with pytest.raises(InvalidParams):
        sec5_construction_one(8, 4, 0)


def test_sec5c2_validation():
    with pytest.raises(OddFieldSize):
        sec5_construction_two(9, 2)
    with pytest.raises(InvalidParams):
        sec5_construction_two(8, 0)
    with pytest.raises(InvalidParams):
        sec5_construction_two(8, 4)  # tau > (q-1)//2
    with pytest.raises(InvalidParams):
        sec5_construction_two(2, 1)


def test_sec5p2_validation():
    with pytest.raises(ParityConditionViolated):
        sec5_part2_code(8, 2, 1)  # q - k must be odd
    with pytest.raises(InvalidParams):
        sec5_part2_code(8, 1, 3)  # gamma = 1 < delta
    with pytest.raises(InvalidParams):
        sec5_part2_code(4, 1, 1)  # q too small


def test_sec5p2_gamma_equal_delta_allowed():
    # The constacyclic family allows gamma = delta, unlike sec5c1.
    bundle = sec5_part2_code(8, 3, 1)  # tau = 2, gamma = 2 - 1 + 1 = 2? no:
    # tau = (8-3-1)/2 = 2, gamma = tau + 1 - delta = 2, delta = 1 < gamma.
    assert bundle.gamma == 2
    b_eq = sec5_part2_code(8, 1, 2)  # would need gamma >= delta
    # (8,1,2): tau = 3, gamma = 2 = delta -> allowed.


def test_field_override_validation():
    f5 = field_for_order(5)
    with pytest.raises(InvalidParams):
        sec3_code(8, 7, 2, 2, field=f5)
    base = make_field(2, 3)
    other = make_ext_field(make_field(2, 2))
    with pytest.raises(InvalidParams):
        sec5_construction_one(8, 4, 1, field=base, ext=other)


def test_sec5_generators_recorded():
    b = sec5_construction_one(8, 4, 1)
    assert b.block.generator_poly is not None
    assert b.block.modulus_poly is not None
    # Cyclic family reduces modulo x^(q+1) - 1.
    assert b.block.modulus_poly[0] == b.parity.field.neg(1)
    assert b.block.modulus_poly[-1] == 1
    p2 = sec5_part2_code(8, 1, 1)
    assert p2.block.modulus_poly is not None
    # Constacyclic modulus has constant term -theta^(q+1) in the base field.
    f = p2.parity.field
    ext = make_ext_field(f)
    norm = ext.pow(ext.theta, 9)
    a, b_part = ext.decompose(norm)
    assert b_part == 0
    assert p2.block.modulus_poly[0] == f.neg(a)


def test_expected_tags_do_not_affect_equality():
    a = FamilySpec(family="sec3", q=8, n=7, k=2, delta=2, expected={"mds": True})
    b = FamilySpec(family="sec3", q=8, n=7, k=2, delta=2, expected=None)
    assert a == b


def _bundle_digest(bundle):
    """sha256 of the bundle's canonical JSON and split distances, as
    bench/workloads.bundle_digest computes it."""
    payload = {"bundle": bundle.to_json(), "split_distances": list(bundle.split_distances)}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# Realified bundles over fields no fixture uses (the fixtures are all over
# GF(8)), pinned by the sha256 of their canonical JSON and split distances.
@pytest.mark.parametrize(
    "build, args, digest",
    [
        (sec5_construction_one, (9, 1, 2),
         "da05e795fd8bbbb26379c2cade5f322eebfec927496c532b45a24d3cd3265bb8"),
        (sec5_construction_one, (25, 21, 1),
         "ffabe8ba4ad04801335fa733c25b482b5906af6d7804052efe22773585bdbe14"),
        (sec5_construction_one, (27, 23, 1),
         "5ef943cfd41ceb6799e5176dac9122599609e9daef3cbcf20d69c89d3c6f58a9"),
        (sec5_construction_two, (16, 3),
         "10461705e4239da9448aeb7df0e488878be2d11b6fe581724bf1bc66e961dad2"),
        (sec5_part2_code, (9, 2, 2),
         "6af655662ca97799f1183cd2b29fb48c0c3439425a74221064c668e3485aeab8"),
        (sec5_part2_code, (11, 2, 2),
         "437a0eef625d267ca36be6ba85037ce274b43698b587063ba95192810c206305"),
    ],
)
def test_realified_bundles_pinned(build, args, digest):
    assert _bundle_digest(build(*args)) == digest


# Every admissible code at a q above the sweep's, pinned as
# tools/bench_construct.py digests them: sha256 over the hex bundle digests
# in admissible_parameters order.
@pytest.mark.parametrize(
    "q, count, digest",
    [
        (11, 107, "292b4852c21db75d877054aa83a536b322b9e22e18dfed6266ad27a7d8e3a43f"),
        (13, 179, "277fa310f067a0f2829c845b77d443b3ab219db769081e019366d23ade3654bf"),
    ],
)
def test_admissible_constructions_pinned(q, count, digest):
    specs = admissible_parameters(q)
    assert len(specs) == count
    total = hashlib.sha256()
    for spec in specs:
        total.update(_bundle_digest(construct_family(spec)).encode())
    assert total.hexdigest() == digest
