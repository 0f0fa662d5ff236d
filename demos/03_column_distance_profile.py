"""
Column distances, three ways
============================

The column distance at window j is the smallest weight of a truncated
codeword whose first block is nonzero, or equivalently the smallest weight
of a kernel vector of the truncated sliding parity matrix with a nonzero
leading block.  This script computes one profile with the search engine,
checks it by brute force over supports and, at window 0, by enumerating
the kernel, and shows how the profile drives the strongly-MDS and
distance-profile verdicts.
"""

import itertools

from umconv import (
    classify,
    column_distance,
    nullspace,
    rank,
    sec3_code,
    singleton_and_indices,
    sliding_matrix,
)

bundle = sec3_code(q=8, n=7, k=2, delta=2)
desc = bundle.desc
n, k, delta = desc.n, desc.k, desc.delta
print(f"code ({n},{k},{delta}) over GF(8), parity check H(D) = H0 + H1*D")

# The sliding matrix at window j stacks j+1 shifted copies of the parity
# coefficients; its kernel is the set of truncated codewords.
for j in range(3):
    s = sliding_matrix(desc.parity, j)
    print(f"  window {j}: sliding matrix {s.rows} x {s.cols}")


def support_distance(j):
    """Route two: the fewest columns S of the window-j sliding matrix that
    carry a kernel vector nonzero on block 0.  Those exist exactly when the
    block-0 columns of S are dependent modulo the other columns of S."""
    s = sliding_matrix(desc.parity, j)
    for w in range(1, s.cols + 1):
        for support in itertools.combinations(range(s.cols), w):
            if support[0] >= n:
                break
            r = rank(s.take_cols(support))
            later = [c for c in support if c >= n]
            if r < w and r < w - len(later) + rank(s.take_cols(later)):
                return w


# Route one: a best-first search over blocks, with the syndrome carried
# into the next block as its state (the engine).  Route two tries supports
# in order of size, which scales worse with the window, so the comparison
# stops at j = 2.
profile = {}
for j in range(5):
    profile[j] = column_distance(desc, j)
    if j <= 2:
        assert profile[j] == support_distance(j)
print(f"\nprofile (engines agree through j = 2): {profile}")

# Route three, for window 0 only: at j = 0 the nonzero-first-block
# condition is just "nonzero", so d_0 is the minimum weight of the kernel
# of H0, small enough here to enumerate outright.
field = desc.field
h0 = desc.parity.coefficient(0)
basis = nullspace(h0)
min_w = n + 1
for coeffs in itertools.product(range(field.order), repeat=len(basis)):
    if not any(coeffs):
        continue
    vec = [0] * n
    for c, b in zip(coeffs, basis):
        if c:
            vec = [field.add(v, field.mul(c, x)) for v, x in zip(vec, b)]
    min_w = min(min_w, sum(1 for x in vec if x))
print(f"window 0 by exhaustive kernel enumeration: {min_w}")
assert min_w == profile[0]

# The generalized Singleton bound fixes the two decisive windows: M is
# where a strongly-MDS code must reach the bound, L is the last window
# where the profile of an MDP code must stay maximal.
bound, M, L = singleton_and_indices(n, k, delta)
print(f"\nSingleton bound {bound}, decisive windows M = {M}, L = {L}")
print(f"d_{M} = {profile[M]} (strongly-MDS iff this equals {bound})")
kappa = n - k
print(f"d_{L} = {profile[L]} (profile maximal iff this equals "
      f"{kappa * (L + 1) + 1})")

report = classify(desc, certs=bundle.split_distances)
print(f"\nverdicts: mds={report.mds.value} smds={report.strongly_mds.value} "
      f"mdp={report.mdp.value}")
