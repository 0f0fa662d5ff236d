"""
Sweeping every admissible parameter set over tiny fields
========================================================

admissible_parameters() enumerates every tuple each family can build over
a given field, including tuples outside the ranges where the distance
properties are guaranteed.  Classifying all of them shows the guarantees
holding on their ranges and failing honestly outside: a refuted verdict
on an unguaranteed tuple is a fact about the code, not a bug.
"""

from umconv import admissible_parameters, classify, construct_family

tally = {"confirmed": 0, "refuted": 0}
guaranteed_confirmed = 0
guaranteed_total = 0

print(f"{'family':7s} {'q':>2s} {'(n,k,delta)':12s} {'dfree':>5s} "
      f"{'mds':>9s} {'smds':>9s} {'mdp':>9s}")
for q in (3, 4, 5):
    for spec in admissible_parameters(q):
        bundle = construct_family(spec)
        report = classify(bundle.desc, certs=bundle.split_distances)
        assert report.dfree_lower == report.dfree_upper
        cells = []
        for prop, v in report.verdicts().items():
            verdict = v.value
            tally[verdict] += 1
            if bundle.expected[prop]:
                guaranteed_total += 1
                assert verdict == "confirmed", (spec, prop)
                guaranteed_confirmed += 1
                cells.append(verdict + "*")
            else:
                cells.append(verdict)
        shape = f"({bundle.n},{bundle.k},{bundle.delta})"
        print(f"{spec.family:7s} {q:2d} {shape:12s} "
              f"{report.dfree_lower:5d} "
              f"{cells[0]:>9s} {cells[1]:>9s} {cells[2]:>9s}")

print(f"\n{tally['confirmed']} confirmed and {tally['refuted']} refuted "
      f"verdicts overall; a * marks the {guaranteed_total} guaranteed "
      f"claims, all {guaranteed_confirmed} confirmed")
