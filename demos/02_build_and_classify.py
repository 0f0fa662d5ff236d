"""
One code from each family, built and classified
===============================================

Each constructor splits the parity-check matrix of an MDS block code into
a degree-0 part H0 and a degree-1 part H1, producing the unit-memory
parity check H(D) = H0 + H1*D of a convolutional code.  classify() then
certifies the distance properties by exact computation.
"""

from umconv import (
    classify,
    sec3_code,
    sec4_code,
    sec5_construction_one,
    sec5_construction_two,
    sec5_part2_code,
)

BUILDS = (
    ("roots in ascending order", sec3_code, dict(q=8, n=7, k=2, delta=2)),
    ("all evaluation points", sec4_code, dict(q=8, k=2, delta=2)),
    ("cyclic, consecutive roots", sec5_construction_one, dict(q=8, k=4, delta=1)),
    ("cyclic, roots split by parity", sec5_construction_two, dict(q=8, tau=3)),
    ("constacyclic", sec5_part2_code, dict(q=8, k=1, delta=1)),
)

for label, build, kwargs in BUILDS:
    bundle = build(**kwargs)
    block = bundle.block
    print(f"{label} ({bundle.family}, {kwargs})")
    print(f"  block code   [{block.n},{block.k},{block.d}] over GF({bundle.q})"
          f"{'  (MDS)' if block.is_mds else ''}")
    print(f"  conv code    ({bundle.n},{bundle.k},{bundle.delta}), "
          f"memory {bundle.desc.nu}")

    # The construction already knows which properties its parameters
    # guarantee; classify() must confirm every one of them.
    report = classify(bundle.desc, certs=bundle.split_distances)
    profile = " ".join(
        f"d{j}={d}" for j, d in sorted(report.column_distances.items())
    )
    print(f"  column distances  {profile}")
    print(f"  dfree in [{report.dfree_lower},{report.dfree_upper}], "
          f"Singleton bound {report.singleton_bound}")
    for prop, verdict in report.verdicts().items():
        guaranteed = bundle.expected[prop]
        print(f"    {prop:4s} {verdict.value:12s} "
              f"(guaranteed: {guaranteed})")
        if guaranteed:
            assert verdict.value == "confirmed"
    print()
