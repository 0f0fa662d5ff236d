"""Pinned worked examples over GF(8) with their full coefficient matrices.

Each fixture records the construction inputs, the expected coefficient
matrices of the polynomial parity check (integer encodings), the free
distance, the block-code parameters, and which properties are claimed.
The extension-field fixtures fix the modulus t^2 + theta*t + 1 over GF(8),
and the constacyclic one additionally fixes the primitive element of the
extension, so the stored matrices are reproduced entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import construct_family, family
from .convcode import DEFAULT_BUDGET, DEFAULT_JMAX, Verdict, classify, minimality_check
from .galois import make_ext_field, make_field
from .linalg import FMatrix


@dataclass(frozen=True)
class Fixture:
    number: int
    family: str
    args: tuple
    g0: tuple
    g1: tuple
    dfree: int
    block_params: tuple
    claims: dict
    ext_modulus: tuple | None = None
    ext_theta: int | None = None


FIXTURES = (
    Fixture(
        number=1,
        family="sec3",
        args=(8, 7, 2, 2),
        g0=(
            (1, 1, 1, 1, 1, 1, 1),
            (1, 2, 4, 3, 6, 7, 5),
            (1, 4, 6, 5, 2, 3, 7),
        ),
        g1=(
            (0, 0, 0, 0, 0, 0, 0),
            (1, 3, 5, 4, 7, 2, 6),
            (1, 6, 2, 7, 4, 5, 3),
        ),
        dfree=6,
        block_params=(7, 2, 6),
        claims={"mds": True, "smds": True, "mdp": True},
    ),
    Fixture(
        number=2,
        family="sec3",
        args=(8, 7, 1, 2),
        g0=(
            (1, 1, 1, 1, 1, 1, 1),
            (1, 2, 4, 3, 6, 7, 5),
            (1, 4, 6, 5, 2, 3, 7),
            (1, 3, 5, 4, 7, 2, 6),
        ),
        g1=(
            (0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0),
            (1, 6, 2, 7, 4, 5, 3),
            (1, 7, 3, 2, 5, 6, 4),
        ),
        dfree=7,
        block_params=(7, 1, 7),
        claims={"mds": True, "smds": True, "mdp": True},
    ),
    Fixture(
        number=3,
        family="sec3",
        args=(8, 7, 1, 3),
        g0=(
            (1, 1, 1, 1, 1, 1, 1),
            (1, 2, 4, 3, 6, 7, 5),
            (1, 4, 6, 5, 2, 3, 7),
        ),
        g1=(
            (1, 3, 5, 4, 7, 2, 6),
            (1, 6, 2, 7, 4, 5, 3),
            (1, 7, 3, 2, 5, 6, 4),
        ),
        dfree=7,
        block_params=(7, 1, 7),
        claims={"mds": True, "smds": False, "mdp": False},
    ),
    Fixture(
        number=4,
        family="sec4",
        args=(8, 2, 2),
        g0=(
            (1, 1, 1, 1, 1, 1, 1, 1),
            (0, 2, 4, 3, 6, 7, 5, 1),
            (0, 4, 6, 5, 2, 3, 7, 1),
            (0, 3, 5, 4, 7, 2, 6, 1),
        ),
        g1=(
            (0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (0, 7, 3, 2, 5, 6, 4, 1),
            (0, 6, 2, 7, 4, 5, 3, 1),
        ),
        dfree=7,
        block_params=(8, 2, 7),
        claims={"mds": True, "smds": True, "mdp": True},
    ),
    Fixture(
        number=5,
        family="sec4",
        args=(8, 2, 3),
        g0=(
            (1, 1, 1, 1, 1, 1, 1, 1),
            (0, 2, 4, 3, 6, 7, 5, 1),
            (0, 4, 6, 5, 2, 3, 7, 1),
        ),
        g1=(
            (0, 7, 3, 2, 5, 6, 4, 1),
            (0, 6, 2, 7, 4, 5, 3, 1),
            (0, 3, 5, 4, 7, 2, 6, 1),
        ),
        dfree=7,
        block_params=(8, 2, 7),
        claims={"mds": True, "smds": False, "mdp": False},
    ),
    Fixture(
        number=6,
        family="sec4",
        args=(8, 1, 2),
        g0=(
            (1, 1, 1, 1, 1, 1, 1, 1),
            (0, 2, 4, 3, 6, 7, 5, 1),
            (0, 4, 6, 5, 2, 3, 7, 1),
            (0, 3, 5, 4, 7, 2, 6, 1),
            (0, 6, 2, 7, 4, 5, 3, 1),
        ),
        g1=(
            (0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0),
            (0, 5, 7, 6, 3, 4, 2, 1),
            (0, 7, 3, 2, 5, 6, 4, 1),
        ),
        dfree=8,
        block_params=(8, 1, 8),
        claims={"mds": True, "smds": True, "mdp": True},
    ),
    Fixture(
        number=7,
        family="sec4",
        args=(8, 1, 3),
        g0=(
            (1, 1, 1, 1, 1, 1, 1, 1),
            (0, 2, 4, 3, 6, 7, 5, 1),
            (0, 4, 6, 5, 2, 3, 7, 1),
            (0, 3, 5, 4, 7, 2, 6, 1),
        ),
        g1=(
            (0, 0, 0, 0, 0, 0, 0, 0),
            (0, 5, 7, 6, 3, 4, 2, 1),
            (0, 7, 3, 2, 5, 6, 4, 1),
            (0, 6, 2, 7, 4, 5, 3, 1),
        ),
        dfree=8,
        block_params=(8, 1, 8),
        claims={"mds": True, "smds": False, "mdp": True},
    ),
    Fixture(
        number=8,
        family="sec5c1",
        args=(8, 4, 1),
        ext_modulus=(1, 2, 1),
        g0=(
            (1, 1, 1, 1, 1, 1, 1, 1, 1),
            (1, 0, 1, 2, 5, 3, 3, 5, 2),
            (0, 1, 2, 5, 3, 3, 5, 2, 1),
        ),
        g1=(
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (1, 1, 5, 3, 2, 0, 2, 3, 5),
            (0, 2, 3, 5, 1, 1, 5, 3, 2),
        ),
        dfree=6,
        block_params=(9, 4, 6),
        claims={"mds": True, "smds": True, "mdp": True},
    ),
    Fixture(
        number=9,
        family="sec5c2",
        args=(8, 3),
        ext_modulus=(1, 2, 1),
        g0=(
            (1, 0, 1, 2, 5, 3, 3, 5, 2),
            (0, 1, 2, 5, 3, 3, 5, 2, 1),
            (1, 2, 3, 1, 2, 3, 1, 2, 3),
            (0, 5, 5, 0, 5, 5, 0, 5, 5),
        ),
        g1=(
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (1, 1, 1, 1, 1, 1, 1, 1, 1),
            (1, 1, 5, 3, 2, 0, 2, 3, 5),
            (0, 2, 3, 5, 1, 1, 5, 3, 2),
        ),
        dfree=8,
        block_params=(9, 2, 8),
        claims={"mds": True, "smds": False, "mdp": True},
    ),
    Fixture(
        number=10,
        family="sec5p2",
        args=(8, 1, 1),
        ext_modulus=(1, 2, 1),
        ext_theta=44,
        g0=(
            (1, 5, 0, 7, 7, 1, 7, 2, 4),
            (0, 5, 5, 2, 5, 4, 3, 1, 5),
            (1, 5, 1, 4, 2, 4, 6, 3, 6),
            (0, 4, 7, 0, 6, 1, 0, 5, 4),
            (1, 4, 4, 3, 0, 4, 1, 5, 3),
            (0, 6, 4, 2, 7, 2, 3, 3, 6),
        ),
        g1=(
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (1, 6, 7, 7, 2, 1, 7, 1, 0),
            (0, 3, 1, 2, 2, 6, 3, 2, 3),
        ),
        dfree=9,
        block_params=(9, 1, 9),
        claims={"mds": True, "smds": True, "mdp": True},
    ),
    Fixture(
        number=11,
        family="sec5c1",
        args=(8, 2, 1),
        ext_modulus=(1, 2, 1),
        g0=(
            (1, 1, 1, 1, 1, 1, 1, 1, 1),
            (1, 0, 1, 2, 5, 3, 3, 5, 2),
            (0, 1, 2, 5, 3, 3, 5, 2, 1),
            (1, 1, 5, 3, 2, 0, 2, 3, 5),
            (0, 2, 3, 5, 1, 1, 5, 3, 2),
        ),
        g1=(
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 0, 0, 0, 0, 0, 0),
            (1, 2, 3, 1, 2, 3, 1, 2, 3),
            (0, 5, 5, 0, 5, 5, 0, 5, 5),
        ),
        dfree=8,
        block_params=(9, 2, 8),
        claims={"mds": True, "smds": True, "mdp": True},
    ),
)


def fixture_by_number(number):
    for fx in FIXTURES:
        if fx.number == number:
            return fx
    raise ValueError(f"no fixture numbered {number}")


def build_fixture(fx):
    """Construct the bundle for a fixture, applying its field overrides."""
    base = make_field(2, 3)
    ext = None
    if fx.ext_modulus is not None:
        ext = make_ext_field(base, modulus=fx.ext_modulus, theta=fx.ext_theta)
    return construct_family(family(fx.family).spec(*fx.args), field=base, ext=ext)


def check_fixture(fx, jmax=DEFAULT_JMAX, budget=DEFAULT_BUDGET):
    """Re-derive a fixture and compare against every pinned value.

    Returns {"number", "ok", "failures", "bundle", "report"}.  Claims are
    decided by window 1 (every fixture has M <= 1 and L <= 1) but pinning
    the free distance needs window 3 where the block-split bound is loose.
    """
    bundle = build_fixture(fx)
    f = bundle.parity.field
    failures = []
    for deg, expect in ((0, fx.g0), (1, fx.g1)):
        got = bundle.parity.coefficient(deg)
        want = FMatrix(f, expect)
        if got != want:
            failures.append(
                f"degree-{deg} coefficient differs:\n"
                f"got:\n{got.render()}\nwant:\n{want.render()}"
            )
    block = bundle.block
    if (block.n, block.k, block.d) != fx.block_params:
        failures.append(
            f"block parameters {(block.n, block.k, block.d)} != {fx.block_params}"
        )
    if not block.is_mds:
        failures.append("block code is not MDS")
    minimal = minimality_check(bundle.parity)
    if not (minimal["row_reduced"] and minimal["basic"]):
        failures.append(f"parity check not a minimal encoder: {minimal}")
    report = classify(
        bundle.desc, certs=bundle.split_distances, jmax=jmax, budget=budget
    )
    if (report.dfree_lower, report.dfree_upper) != (fx.dfree, fx.dfree):
        failures.append(
            f"free distance bounds {(report.dfree_lower, report.dfree_upper)} "
            f"do not pin {fx.dfree}"
        )
    for claim, verdict in report.verdicts().items():
        if fx.claims.get(claim) and verdict is not Verdict.CONFIRMED:
            failures.append(f"claimed {claim} came back {verdict.value}")
    return {
        "number": fx.number,
        "ok": not failures,
        "failures": failures,
        "bundle": bundle,
        "report": report,
    }
