"""Five families of unit-memory convolutional codes over small fields.

Each builder returns a bundle holding the underlying MDS block code, the
split (H0, H1) of its parity rows, the polynomial parity check, and the
property flags the construction guarantees on its parameter range.  The
guarantees are tags only; nothing is assumed, the verification machinery
recomputes every distance.

Families (block-side parameters; the convolutional code is (n, k+delta,
delta), except the even/odd split where it is (q+1, q-tau, tau)):

  sec3    length n <= q-1, parity rows are powers of theta^i,
          H1 = the last delta rows in ascending order.
  sec4    length q, generalized Reed-Solomon on all of F_q (point 0
          included), H1 = the last delta rows reversed.
  sec5c1  length q+1, cyclic over F_{q^2} with roots beta^j, |j| <= tau,
          realified; needs k = q (mod 2).
  sec5c2  length q+1, even field size, rows split by parity of j; the
          larger realified side is H0.
  sec5p2  length q+1, constacyclic with roots theta*beta^j; needs
          k = q+1 (mod 2).

The three realified builders compute only their points and row split and
share one tail, ``_realified``: the closure check, the generator downcast,
the x^(q+1) - norm modulus, realify with its row-count check, the bundle.

FAMILY_TABLE holds one entry per family: its parameter names after q, the
spec function that alone holds the family's range check and guarantee
formula, its builder, and whether it is built over GF(q^2).  Builders,
admissible_parameters, the command line and the fixtures all go through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import product
from typing import Callable, NamedTuple

from .blockcode import (
    RootSpec,
    base_field_closure_check,
    block_code_from_parity,
    downcast_poly,
    evaluation_parity_matrix,
    min_distance,
    realify,
    root_parity_matrix,
)
from .convcode import ConvCodeDesc, InvalidParams, unit_memory_parity
from .galois import field_for_order, make_ext_field, poly_from_roots


class ParityConditionViolated(ValueError):
    """k does not have the parity the family requires relative to q."""


class OddFieldSize(ValueError):
    """The even/odd split construction needs an even field size."""


@dataclass(frozen=True)
class FamilySpec:
    """One admissible parameter point of a family, with its guarantees.

    n and k are block-side; delta is the construction's delta (the
    convolutional degree is delta for sec3/sec4/sec5c2 and 2*delta for the
    realified families).
    """

    family: str
    q: int
    n: int
    k: int
    delta: int
    tau: int | None = None
    expected: dict | None = dataclass_field(default=None, compare=False)


@dataclass(frozen=True)
class Bundle:
    """Constructed code: block code, row split, parity check, and tags.

    n, k, delta are the convolutional parameters; h1 holds the data rows
    only (the zero padding lives in the parity matrix).
    """

    family: str
    q: int
    n: int
    k: int
    delta: int
    gamma: int | None
    tau: int | None
    block: object
    h0: object
    h1: object
    parity: object
    desc: ConvCodeDesc
    expected: dict
    split_distances: tuple

    def to_json(self):
        return {
            "family": self.family,
            "q": self.q,
            "n": self.n,
            "k": self.k,
            "delta": self.delta,
            "gamma": self.gamma,
            "tau": self.tau,
            "block": self.block.to_json(),
            "H0": self.h0.to_lists(),
            "H1": self.h1.to_lists(),
            "parity": self.parity.to_json(),
            "expected": dict(self.expected),
        }


def _bundle(spec, block, h0, h1, gamma, want):
    parity = unit_memory_parity(h0, h1)
    desc = ConvCodeDesc.from_parity(parity)
    if (desc.n, desc.k, desc.delta) != want:
        raise RuntimeError(
            f"{spec.family} produced {(desc.n, desc.k, desc.delta)}, expected {want}"
        )
    split = (block.d, min_distance(h0), min_distance(h1))
    return Bundle(
        family=spec.family,
        q=spec.q,
        n=desc.n,
        k=desc.k,
        delta=desc.delta,
        gamma=gamma,
        tau=spec.tau,
        block=block,
        h0=h0,
        h1=h1,
        parity=parity,
        desc=desc,
        expected=spec.expected,
        split_distances=split,
    )


def _base_field(q, field):
    if field is None:
        return field_for_order(q)
    if field.order != q:
        raise InvalidParams(f"field of order {field.order} given, q = {q}")
    return field


def _ext_field(base, ext):
    if ext is None:
        return make_ext_field(base)
    if ext.base != base:
        raise InvalidParams("extension field does not sit over the base field")
    return ext


# -- ranges and guarantees: each family's spec is the only place for both ----


def _range_flags(n, k, delta):
    return {
        "mds": 2 * delta <= n - k,
        "smds": 3 * delta <= n - k + 1,
        "mdp": 2 * delta < n - k,
    }


def _all_flags(guaranteed):
    return {"mds": guaranteed, "smds": guaranteed, "mdp": guaranteed}


def sec3_spec(q, n, k, delta):
    if not (1 <= k < n <= q - 1) or delta < 1 or n - k - delta < delta:
        raise InvalidParams(f"sec3 parameters (q, n, k, delta) = {(q, n, k, delta)}")
    return FamilySpec("sec3", q, n, k, delta, expected=_range_flags(n, k, delta))


def sec4_spec(q, k, delta):
    if k < 1 or delta < 1 or q - k - delta < delta:
        raise InvalidParams(f"sec4 parameters (q, k, delta) = {(q, k, delta)}")
    return FamilySpec("sec4", q, q, k, delta, expected=_range_flags(q, k, delta))


def sec5c1_spec(q, k, delta):
    if (q - k) % 2:
        raise ParityConditionViolated(f"k = {k} must have the parity of q = {q}")
    tau = (q - k) // 2
    if q < 5 or k < 1 or delta < 1 or tau + 1 - delta <= delta:
        raise InvalidParams(f"sec5c1 parameters (q, k, delta) = {(q, k, delta)}")
    return FamilySpec(
        "sec5c1", q, q + 1, k, delta, tau=tau,
        expected=_all_flags(6 * delta <= q - k + 2),
    )


def sec5c2_spec(q, tau):
    if q % 2:
        raise OddFieldSize(f"q = {q} must be even")
    if q < 4 or not 1 <= tau <= (q - 1) // 2:
        raise InvalidParams(f"sec5c2 parameters (q, tau) = {(q, tau)}")
    return FamilySpec(
        "sec5c2", q, q + 1, q - 2 * tau, tau, tau=tau,
        expected={"mds": True, "smds": False, "mdp": False},
    )


def sec5p2_spec(q, k, delta):
    if (q - k) % 2 == 0:
        raise ParityConditionViolated(f"k = {k} must have the parity of q+1 = {q + 1}")
    tau = (q - k - 1) // 2
    if q < 5 or k < 1 or delta < 1 or tau + 1 - delta < delta:
        raise InvalidParams(f"sec5p2 parameters (q, k, delta) = {(q, k, delta)}")
    return FamilySpec(
        "sec5p2", q, q + 1, k, delta, tau=tau,
        expected=_all_flags(6 * delta <= q - k + 1),
    )


# -- builders ----------------------------------------------------------------


def sec3_code(q, n, k, delta, field=None):
    """Length n <= q-1 family; H1 rows ascending, no reversal."""
    spec = sec3_spec(q, n, k, delta)
    field = _base_field(q, field)
    gamma = n - k - delta
    theta = field.theta
    roots = [field.pow(theta, i) for i in range(n - k)]
    parity = root_parity_matrix(field, roots, n)
    gen = poly_from_roots(field, roots)
    modulus = poly_from_roots(field, [field.pow(theta, i) for i in range(n)])
    block = block_code_from_parity(
        field, parity, generator_poly=gen, modulus_poly=modulus
    )
    h0 = parity.take_rows(range(gamma))
    h1 = parity.take_rows(range(gamma, gamma + delta))
    return _bundle(spec, block, h0, h1, gamma, (n, k + delta, delta))


def sec4_code(q, k, delta, field=None):
    """Length q family on all evaluation points; H1 rows reversed."""
    spec = sec4_spec(q, k, delta)
    field = _base_field(q, field)
    gamma = q - k - delta
    theta = field.theta
    points = [0] + [field.pow(theta, i) for i in range(1, q)]
    parity = evaluation_parity_matrix(field, points, q - k)
    block = block_code_from_parity(field, parity)
    h0 = parity.take_rows(range(gamma))
    h1 = parity.take_rows(range(gamma + delta - 1, gamma - 1, -1))
    return _bundle(spec, block, h0, h1, gamma, (q, k + delta, delta))


def _realified(spec, field, ext, roots, sides, gamma, want):
    """Tail of the GF(q^2) families: the roots' closure check, their generator
    over GF(q) dividing x^(q+1) - norm(base point), and the realified sides
    (points of H0's rows, then H1's): two rows per point, one for the point 1."""
    if not base_field_closure_check(roots):
        raise RuntimeError("root set is not closed under conjugation")
    gen = downcast_poly(ext, poly_from_roots(ext, roots.roots()))
    norm_base, norm_e = ext.decompose(ext.pow(roots.base_point, spec.q + 1))
    if norm_e:
        raise RuntimeError("norm of the base point lies outside the base field")
    modulus = (field.neg(norm_base),) + (0,) * spec.q + (1,)
    h0, h1 = (realify(root_parity_matrix(ext, points, spec.n)) for points in sides)
    if [h0.rows, h1.rows] != [2 * len(points) - (1 in points) for points in sides]:
        raise RuntimeError("unexpected realified row counts")
    block = block_code_from_parity(
        field, h0.vstack(h1), generator_poly=gen, modulus_poly=modulus
    )
    return _bundle(spec, block, h0, h1, gamma, want)


def sec5_construction_one(q, k, delta, field=None, ext=None):
    """Length q+1 cyclic family over the quadratic extension, k = q (mod 2)."""
    spec = sec5c1_spec(q, k, delta)
    field = _base_field(q, field)
    ext = _ext_field(field, ext)
    tau, beta = spec.tau, ext.beta
    gamma = tau + 1 - delta
    points = [ext.pow(beta, j) for j in range(tau + 1)]
    roots = RootSpec(ambient=ext, step=beta, lo=-tau, hi=tau)
    sides = (points[:gamma], points[gamma:])
    want = (q + 1, k + 2 * delta, 2 * delta)
    return _realified(spec, field, ext, roots, sides, gamma, want)


def sec5_construction_two(q, tau, field=None, ext=None):
    """Length q+1 family for even q, rows split by the parity of the root
    exponent; the larger realified side takes the degree-0 slot."""
    spec = sec5c2_spec(q, tau)
    field = _base_field(q, field)
    ext = _ext_field(field, ext)
    beta = ext.beta
    evens = [ext.pow(beta, j) for j in range(0, tau + 1, 2)]
    odds = [ext.pow(beta, j) for j in range(1, tau + 1, 2)]
    # The evens hold the point 1, so they realify to one row fewer per count.
    sides = (evens, odds) if len(evens) > len(odds) else (odds, evens)
    roots = RootSpec(ambient=ext, step=beta, lo=-tau, hi=tau)
    return _realified(spec, field, ext, roots, sides, None, (q + 1, q - tau, tau))


def sec5_part2_code(q, k, delta, field=None, ext=None):
    """Length q+1 constacyclic family, k = q+1 (mod 2)."""
    spec = sec5p2_spec(q, k, delta)
    field = _base_field(q, field)
    ext = _ext_field(field, ext)
    tau, theta, beta = spec.tau, ext.theta, ext.beta
    gamma = tau + 1 - delta
    points = [ext.mul(theta, ext.pow(beta, j)) for j in range(1, tau + 2)]
    roots = RootSpec(ambient=ext, step=beta, lo=-tau, hi=tau + 1, base_point=theta)
    sides = (points[:gamma], points[gamma:])
    want = (q + 1, k + 2 * delta, 2 * delta)
    return _realified(spec, field, ext, roots, sides, gamma, want)


# -- the family table ----------------------------------------------------------


class Family(NamedTuple):
    params: tuple  # parameter names after q
    spec: Callable  # spec(q, *params) -> FamilySpec; raises outside the range
    build: Callable  # build(q, *params, field=None[, ext=None]) -> Bundle
    extension: bool  # built over GF(q^2); the builder takes ext


FAMILY_TABLE = {
    "sec3": Family(("n", "k", "delta"), sec3_spec, sec3_code, False),
    "sec4": Family(("k", "delta"), sec4_spec, sec4_code, False),
    "sec5c1": Family(("k", "delta"), sec5c1_spec, sec5_construction_one, True),
    "sec5c2": Family(("tau",), sec5c2_spec, sec5_construction_two, True),
    "sec5p2": Family(("k", "delta"), sec5p2_spec, sec5_part2_code, True),
}
FAMILIES = tuple(FAMILY_TABLE)


def family(name):
    """The table entry of a family; ValueError for an unknown name."""
    try:
        return FAMILY_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


def construct_family(spec, field=None, ext=None):
    """Build the bundle for one FamilySpec."""
    fam = family(spec.family)
    params = [getattr(spec, name) for name in fam.params]
    if fam.extension:
        return fam.build(spec.q, *params, field=field, ext=ext)
    if ext is not None:
        raise InvalidParams(f"{spec.family} is not built over an extension field")
    return fam.build(spec.q, *params, field=field)


def admissible_parameters(q, families=None):
    """All parameter points of the chosen families at field size q, each
    tagged with the verdicts its parameter range guarantees, sorted by
    (family, n, k, delta).  A point is admissible when its family's spec
    accepts it; no parameter exceeds q + 1."""
    specs = []
    for name in FAMILIES if families is None else families:
        fam = family(name)
        for point in product(range(1, q + 2), repeat=len(fam.params)):
            try:
                specs.append(fam.spec(q, *point))
            except ValueError:
                pass
    specs.sort(key=lambda s: (s.family, s.n, s.k, s.delta))
    return specs
