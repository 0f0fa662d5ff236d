"""Slow reference routes that the tests use as oracles.

None of these runs in the program: each recomputes, by brute force over
column subsets, a value that a faster route in `umconv` computes.
"""

from __future__ import annotations

from itertools import combinations

from umconv.blockcode import _Budget
from umconv.convcode import PropertyViolation, _cap, sliding_matrix
from umconv.linalg import nullspace, rank


def columns_independent(mat, subset):
    """Whether the chosen columns are linearly independent."""
    subset = tuple(subset)
    if len(set(subset)) != len(subset):
        raise ValueError("repeated column index")
    if not subset:
        return True
    return rank(mat.take_cols(subset)) == len(subset)


def solve_on_support(mat, support, require_nonzero_block=None):
    """A kernel vector supported inside the given columns, or None.

    Returns a full-length vector v with mat @ v == 0 and support(v) a subset
    of ``support``.  When ``require_nonzero_block`` is a (start, stop) column
    range, v must additionally be nonzero somewhere in that range; None is
    returned when no such vector exists.
    """
    support = tuple(support)
    if not support:
        return None
    basis = nullspace(mat.take_cols(support))
    if not basis:
        return None
    choice = None
    if require_nonzero_block is None:
        choice = basis[0]
    else:
        start, stop = require_nonzero_block
        positions = [i for i, c in enumerate(support) if start <= c < stop]
        for vec in basis:
            if any(vec[i] != 0 for i in positions):
                choice = vec
                break
        if choice is None:
            return None
    out = [0] * mat.cols
    for i, c in enumerate(support):
        out[c] = choice[i]
    return tuple(out)


def column_distance_support(desc, j, budget=None):
    """Exact j-th column distance by trying supports of the window-j
    sliding matrix in lexicographic order, one budget step per support."""
    sliding = sliding_matrix(desc.parity, j)
    n = desc.n
    cap = _cap(desc.n - desc.k, j)
    spend = _Budget(budget).spend
    for w in range(1, cap + 1):
        for support in combinations(range(sliding.cols), w):
            if support[0] >= n:
                break
            spend(lower_bound=w)
            if solve_on_support(sliding, support, require_nonzero_block=(0, n)):
                return w
    raise PropertyViolation(
        f"no weight <= {cap} kernel vector with nonzero first block at window {j}"
    )
