"""Size of a search query's logical range, counted by combinatorics.

The exhaustive searches fix the qualified set B = {0..k-1} and walk
(n, support) slices: anonymous profiles with n voters of whom exactly
`support` rank B on top.  A slice is a pair of count vectors, one over the
k!(m-k)! ballot types that top-rank B and one over the remaining types, so
its size is a product of two stars-and-bars counts.  Counting the range
this way gives the same number for every program version, so a version
that prunes or reduces by symmetry shows up as more profiles per second.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _count_vectors(total: int, parts: int) -> int:
    """Nonnegative integer vectors of length `parts` summing to `total`."""
    return math.comb(total + parts - 1, parts - 1)


def slice_size(m: int, k: int, n: int, support: int) -> int:
    """Anonymous m-candidate profiles with n voters, `support` of them top-ranking B."""
    b_types = math.factorial(k) * math.factorial(m - k)
    o_types = math.factorial(m) - b_types
    return _count_vectors(support, b_types) * _count_vectors(n - support, o_types)


def criterion_range(m: int, k: int, q: Fraction, last_n: int) -> int:
    """Profiles a criterion search covers up to last_n voters: support > q*n."""
    q = Fraction(q)
    return sum(
        slice_size(m, k, n, s)
        for n in range(1, last_n + 1)
        for s in range(math.floor(q * n) + 1, n + 1)
    )


def max_violation_range(m: int, k: int, last_n: int) -> int:
    """Profiles a max_violation scan covers up to last_n voters: support >= 1."""
    return sum(
        slice_size(m, k, n, s) for n in range(1, last_n + 1) for s in range(1, n + 1)
    )
