"""Exact-arithmetic toolkit for unit-memory MDS convolutional codes.

The package builds five families of unit-memory convolutional codes over
small finite fields from carefully split parity-check matrices of MDS block
codes, and verifies their distance properties (MDS, strongly-MDS, maximal
distance profile) by exact computation of block minimum distances, column
distances and free-distance certificates.
"""

from .galois import (
    ExtField,
    Field,
    make_ext_field,
    make_field,
    field_for_order,
)
from .linalg import FMatrix, nullspace, rank, rref
from .blockcode import (
    BlockCode,
    RootSpec,
    base_field_closure_check,
    evaluation_parity_matrix,
    min_distance,
    realify,
    root_parity_matrix,
)
from .convcode import (
    ConvCodeDesc,
    ConvReport,
    PolyMatrix,
    Verdict,
    classify,
    column_distance,
    dfree_bounds,
    minimality_check,
    singleton_and_indices,
    sliding_matrix,
    unit_memory_parity,
)
from .constructions import (
    Bundle,
    FamilySpec,
    admissible_parameters,
    construct_family,
    sec3_code,
    sec4_code,
    sec5_construction_one,
    sec5_construction_two,
    sec5_part2_code,
)
from .fixtures import FIXTURES, build_fixture, check_fixture

__version__ = "0.1.0"

__all__ = [
    "Field",
    "ExtField",
    "make_field",
    "make_ext_field",
    "field_for_order",
    "FMatrix",
    "rref",
    "rank",
    "nullspace",
    "BlockCode",
    "RootSpec",
    "base_field_closure_check",
    "root_parity_matrix",
    "evaluation_parity_matrix",
    "realify",
    "min_distance",
    "PolyMatrix",
    "ConvCodeDesc",
    "ConvReport",
    "Verdict",
    "unit_memory_parity",
    "sliding_matrix",
    "column_distance",
    "singleton_and_indices",
    "dfree_bounds",
    "minimality_check",
    "classify",
    "Bundle",
    "FamilySpec",
    "admissible_parameters",
    "construct_family",
    "sec3_code",
    "sec4_code",
    "sec5_construction_one",
    "sec5_construction_two",
    "sec5_part2_code",
    "FIXTURES",
    "build_fixture",
    "check_fixture",
]
