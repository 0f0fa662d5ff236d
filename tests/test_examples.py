"""The eleven pinned examples: regeneration, distances, claims."""

import pytest

from umconv.convcode import Verdict, column_distance
from umconv.fixtures import FIXTURES, build_fixture, check_fixture, fixture_by_number
from umconv.linalg import FMatrix
from oracles import column_distance_support

EXPECTED_DFREE = {1: 6, 2: 7, 3: 7, 4: 7, 5: 7, 6: 8, 7: 8, 8: 6, 9: 8, 10: 9, 11: 8}
SMDS_CLAIMED = {1, 2, 4, 6, 8, 10, 11}
MDP_CLAIMED = {1, 2, 4, 6, 7, 8, 9, 10, 11}
EXPECTED_BLOCKS = {
    1: (7, 2, 6),
    2: (7, 1, 7),
    3: (7, 1, 7),
    4: (8, 2, 7),
    5: (8, 2, 7),
    6: (8, 1, 8),
    7: (8, 1, 8),
    8: (9, 4, 6),
    9: (9, 2, 8),
    10: (9, 1, 9),
    11: (9, 2, 8),
}


def test_fixture_table_is_complete():
    numbers = sorted(fx.number for fx in FIXTURES)
    assert numbers == list(range(1, 12))
    for fx in FIXTURES:
        assert fx.dfree == EXPECTED_DFREE[fx.number]
        assert fx.block_params == EXPECTED_BLOCKS[fx.number]
        assert fx.claims["mds"] is True
        assert fx.claims["smds"] == (fx.number in SMDS_CLAIMED)
        assert fx.claims["mdp"] == (fx.number in MDP_CLAIMED)
    with pytest.raises(ValueError):
        fixture_by_number(12)


@pytest.mark.parametrize("number", sorted(EXPECTED_DFREE))
def test_fixture_regenerates_byte_exact(number):
    fx = fixture_by_number(number)
    bundle = build_fixture(fx)
    f = bundle.parity.field
    assert bundle.parity.coefficient(0) == FMatrix(f, fx.g0)
    assert bundle.parity.coefficient(1) == FMatrix(f, fx.g1)
    block = bundle.block
    assert (block.n, block.k, block.d) == fx.block_params
    assert block.is_mds


def test_all_fixtures_check_clean(fixture_results):
    for number, result in sorted(fixture_results.items()):
        assert result["ok"], (number, result["failures"])


def test_free_distances_pinned(fixture_results):
    for number, result in sorted(fixture_results.items()):
        report = result["report"]
        want = EXPECTED_DFREE[number]
        assert report.dfree_lower == report.dfree_upper == want
        assert want == report.singleton_bound


def test_claimed_verdicts_confirmed(fixture_results):
    for number, result in sorted(fixture_results.items()):
        report = result["report"]
        assert report.mds is Verdict.CONFIRMED
        if number in SMDS_CLAIMED:
            assert report.strongly_mds is Verdict.CONFIRMED
        if number in MDP_CLAIMED:
            assert report.mdp is Verdict.CONFIRMED


def test_window_values_match_claims(fixture_results):
    for number, result in sorted(fixture_results.items()):
        report = result["report"]
        assert report.M == 1
        kappa = report.desc.n - report.desc.k
        if number in SMDS_CLAIMED:
            assert report.column_distances[1] == report.singleton_bound
        if number in MDP_CLAIMED and report.L == 0:
            assert report.column_distances[0] == kappa + 1


def test_dual_route_free_distance(fixture_results):
    """The certificate upper route and the column-distance lower route meet."""
    for number, result in sorted(fixture_results.items()):
        report = result["report"]
        split = next(
            c for c in report.certificates if c["type"] == "block-split"
        )
        assert report.dfree_upper == split["upper"]
        lower_route = max(
            [split["lower"]] + list(report.column_distances.values())
        )
        assert report.dfree_lower == lower_route


def test_example_nine_row_layout():
    """The even/odd split puts the four odd-exponent rows in degree zero and
    pads the even side with one zero row."""
    bundle = build_fixture(fixture_by_number(9))
    assert bundle.h0.rows == 4
    assert bundle.h1.rows == 3
    assert not any(bundle.parity.coefficient(1).row(0))
    # The degree-0 rows of Example 8 appear among Example 9's rows: both use
    # beta powers over the same extension setup.
    b8 = build_fixture(fixture_by_number(8))
    rows9 = set(bundle.h0.to_lists()[i].__str__() for i in range(4))
    shared = [str(r) for r in b8.h0.to_lists()[1:]]
    assert all(s in rows9 for s in shared)


def test_example_ten_uses_theta_override():
    fx = fixture_by_number(10)
    assert fx.ext_theta == 44
    assert fx.ext_modulus == (1, 2, 1)
    bundle = build_fixture(fx)
    assert bundle.family == "sec5p2"
    assert (bundle.n, bundle.k, bundle.delta) == (9, 3, 2)


def test_support_method_agrees_on_small_fixture():
    desc = build_fixture(fixture_by_number(1)).desc
    assert column_distance_support(desc, 0) == column_distance(desc, 0)
