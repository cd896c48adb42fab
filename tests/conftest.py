import functools
import itertools
from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import strategies as st

from votelab import (
    Profile,
    convex_median_score,
    default_candidates,
    dodgson_score,
    tradeoff_score,
    young_score,
)
from votelab.rules import _dodgson
from votelab.search import _count_vectors, _split_types


@pytest.fixture
def four_bloc():
    """Four candidates, four voter blocs of 29/28/22/21; a beats everyone
    pairwise while c tops the positional counts."""
    return Profile.from_names(
        "abcd", [(29, "abcd"), (28, "bacd"), (22, "cdab"), (21, "cdba")]
    )


@pytest.fixture
def primary_five():
    """Five fictional candidates, percent shares scaled to 100 voters."""
    names = ["Hillary", "Donald", "John", "Ted", "Bernie"]
    return Profile.from_names(
        names,
        [
            (22, ["Hillary", "John", "Bernie", "Ted", "Donald"]),
            (21, ["Donald", "John", "Ted", "Bernie", "Hillary"]),
            (18, ["John", "Ted", "Bernie", "Donald", "Hillary"]),
            (19, ["Ted", "Bernie", "John", "Donald", "Hillary"]),
            (20, ["Bernie", "John", "Ted", "Hillary", "Donald"]),
        ],
    )


@pytest.fixture
def cycle3():
    return Profile.from_names("abc", [(1, "abc"), (1, "bca"), (1, "cab")])


@st.composite
def profiles(draw, max_m=4, max_voters=8, min_m=1):
    m = draw(st.integers(min_m, max_m))
    rankings = st.permutations(range(m)).map(tuple)
    ballots = draw(
        st.lists(st.tuples(st.integers(1, 3), rankings), min_size=1, max_size=max_voters)
    )
    total = sum(c for c, _ in ballots)
    if total > max_voters:
        # trim counts down to respect the voter bound
        trimmed = []
        left = max_voters
        for count, ranking in ballots:
            take = min(count, left)
            if take:
                trimmed.append((take, ranking))
            left -= take
            if left == 0:
                break
        ballots = trimmed or [ballots[0][:1] + (ballots[0][1],)]
        ballots = [(max(1, c), r) for c, r in ballots]
    return Profile(default_candidates(m), tuple(ballots))


# Independent references for the tests: the library ranks candidates by
# truncated scores only through `rules._piecewise_depth_pieces`, relabels
# profiles only inside the search's orbit tables, finds a majority winner
# only in `rules._majority_winner` and the search's screen, and enumerates a
# slice of profiles only through the search's count vectors.


def relabel_profile(profile: Profile, perm: Sequence[int]) -> Profile:
    """Apply a candidate permutation: old index i becomes perm[i]."""
    m = profile.m
    if sorted(perm) != list(range(m)):
        raise ValueError("perm must be a permutation of the candidate indices")
    new_names = [""] * m
    for old, new in enumerate(perm):
        new_names[new] = profile.candidates[old]
    ballots = tuple(
        (count, tuple(perm[c] for c in ranking)) for count, ranking in profile.ballots
    )
    return Profile(tuple(new_names), ballots)


def truncated_borda(profile: Profile, cand: int, t: Fraction | int) -> Fraction:
    """Positional score with linearly decaying weights cut off at depth t.

    The weight of rank i (1-based) is t - (i - 1), applied while positive;
    rank counts beyond m are zero.  Exact for fractional t.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("depth t must be positive")
    m, pos = profile.m, profile.rank_counts
    total = Fraction(0)
    depth = min(int(t) + 1, m)
    for i in range(1, depth + 1):
        total += (t - (i - 1)) * pos[(i - 1) * m + cand]
    return total


def majority_winner(profile: Profile) -> int | None:
    """Candidate top-ranked by more than half the voters, if any."""
    n = profile.n
    for a, top in enumerate(profile.rank_counts[: profile.m]):
        if 2 * top > n:
            return a
    return None


def young_input(profile: Profile, cand: int) -> tuple[list[int], dict[int, int]]:
    """The input `rules._young` takes for cand: its duel counts h(cand, b)
    against the other candidates in order, and its voters pooled by upper
    contour, a bitmask over those candidates' positions in that order, in
    order of first appearance; voters ranking cand on top are left out."""
    m = profile.m
    others = [b for b in range(m) if b != cand]
    row = [sum(c for c, r in profile.ballots if r.index(cand) < r.index(b)) for b in others]
    pools: dict[int, int] = {}
    for count, ranking in profile.ballots:
        above = ranking[: ranking.index(cand)]
        contour = sum(1 << others.index(b) for b in above)
        if contour:
            pools[contour] = pools.get(contour, 0) + count
    return row, pools


def young_first_removal(n: int, row: Sequence[int], pools: dict[int, int]):
    """Young's score and removal by brute force, on `rules._young`'s input:
    for each removal size in turn, every vector of voters per pool in
    lexicographic order, with no bound; the first that leaves cand weakly
    unbeaten by every opponent b, 2 h'(cand, b) >= voters kept."""
    caps = list(pools.values())
    for size in range(sum(caps) + 1):
        for removal in itertools.product(*(range(cap + 1) for cap in caps)):
            if sum(removal) != size:
                continue
            kept = n - size
            if all(
                2 * (h - sum(x for x, c in zip(removal, pools) if not c >> b & 1)) >= kept
                for b, h in enumerate(row)
            ):
                return size, list(removal)
    raise AssertionError("removing every voter who ranks an opponent above cand works")


def profiles_with_support(m: int, k: int, n: int, support: int):
    """Profiles with n voters of whom exactly `support` top-rank B = {0..k-1}.

    The plain enumeration of one slice of the exhaustive search, the
    reference its orbit-reduced walk is tested against.
    """
    b_types, o_types = _split_types(m, k)
    labels = default_candidates(m)
    for bvec in _count_vectors(support, len(b_types)):
        b_part = tuple((c, b_types[i]) for i, c in enumerate(bvec) if c)
        for ovec in _count_vectors(n - support, len(o_types)):
            ballots = b_part + tuple((c, o_types[i]) for i, c in enumerate(ovec) if c)
            yield Profile(labels, ballots)


# Independent references for the search's loser screens.  Each works on a
# profile's B part, its voters ranking B = {0..k-1} on top, held to all of
# the profile's n voters, and counts from the rankings.


def _b_part(p: Profile, k: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The profile's ballots that rank B = {0..k-1} on top."""
    return tuple((c, r) for c, r in p.ballots if set(r[:k]) == set(range(k)))


def score_gap_excludes_outsiders(p: Profile, k: int, vec: Sequence) -> bool:
    """Whether, under the score vector vec, each outsider c trails B on the
    B part by more than the other voters can make up: the sum over b in B
    of score(c) - score(b) on the B part, plus n - s times the most one
    ranking adds to it, found by trying every ranking, is below 0."""
    m, n, vec = p.m, p.n, tuple(map(Fraction, vec))
    head = _b_part(p, k)
    s = sum(c for c, _ in head)
    for c in range(k, m):
        gap = sum(count * _score_gap(vec, k, r, c) for count, r in head)
        if gap + (n - s) * _most_score_gap(vec, k, c) >= 0:
            return False
    return True


def _score_gap(vec: tuple, k: int, r: tuple[int, ...], c: int) -> Fraction:
    return sum(vec[r.index(c)] - vec[r.index(b)] for b in range(k))


@functools.cache
def _most_score_gap(vec: tuple, k: int, c: int) -> Fraction:
    return max(_score_gap(vec, k, r, c) for r in itertools.permutations(range(len(vec))))


def veto_blocks_outsiders(p: Profile, k: int) -> bool:
    """Whether the B part alone blocks every outsider c in the proportional
    veto core: some nonempty set X of other candidates has (m - |X|) * n
    < m * t, t the B part's voters ranking all of X above c.  Every X is
    tried."""
    m, n = p.m, p.n
    head = _b_part(p, k)
    for c in range(k, m):
        others = [b for b in range(m) if b != c]
        if not any(
            (m - size) * n
            < m * sum(count for count, r in head if all(r.index(b) < r.index(c) for b in xs))
            for size in range(1, m)
            for xs in itertools.combinations(others, size)
        ):
            return False
    return True


def b_holds_a_majority(p: Profile, k: int) -> bool:
    """Whether more than half of the profile's voters rank B = {0..k-1} on
    top, so that a rule satisfying mutual majority at k elects only members
    of B."""
    return 2 * sum(c for c, _ in _b_part(p, k)) > p.n


# The k at which each rule satisfies mutual majority at m candidates, as the
# rule records declare them; a rule left out declares none.  Written out
# here so that a record gaining or losing a cell fails a test.
MUTUAL_MAJORITY = {
    "plurality": lambda m: {1},
    "runoff": lambda m: {1, 2, m - 1},
    "irv": lambda m: set(range(1, m)),
    "borda": lambda m: {m - 1},
    "simpson": lambda m: {1, 2},
    "young": lambda m: {1, 2},
    "dodgson": lambda m: {1},
    "clr": lambda m: {1, 2},
    "black": lambda m: {1, m - 1},
    "convexmedian": lambda m: {1},
    "t12rule": lambda m: {1},
}


def mutual_majority_cells(rule_id: str, m: int) -> set[int]:
    """The k, 1 <= k < m, at which MUTUAL_MAJORITY declares rule_id."""
    return MUTUAL_MAJORITY.get(rule_id, lambda m: set())(m) & set(range(1, m))


BOUND_SCORES = {
    "convexmedian": convex_median_score, "t12rule": tradeoff_score, "young": young_score,
    "dodgson": dodgson_score,
}


def dodgson_worst(p: Profile, k: int, b: int) -> int:
    """An upper bound on b's Dodgson score in every completion of p's B
    part to n voters: the least, over x, of x (m - 1) swaps lifting x of
    the other n - s voters from a last place to the first, plus the fewest
    swaps of the B part's own voters closing b's deficits on the profile
    with x voters ranking b first and n - s - x ranking it last.  An x
    leaving a deficit larger than the B part's voters ranking that
    opponent above b is skipped.  Counted from the rankings."""
    m, n = p.m, p.n
    head = _b_part(p, k)
    rest = n - sum(c for c, _ in head)
    others = [d for d in range(m) if d != b]
    types = [
        (c, tuple(others.index(d) for d in reversed(r[: r.index(b)])))
        for c, r in head
        if r[0] != b
    ]
    above = [sum(c for c, r in head if r.index(d) < r.index(b)) for d in others]
    last, first = tuple(others) + (b,), (b,) + tuple(others)
    totals = []
    for x in range(rest + 1):
        ballots = head + tuple((c, r) for c, r in ((x, first), (rest - x, last)) if c)
        row = [sum(c for c, r in ballots if r.index(b) < r.index(d)) for d in others]
        if any(n // 2 + 1 - h > voters for h, voters in zip(row, above)):
            continue
        totals.append(x * (m - 1) + _dodgson(n, row, types))
    return min(totals)


def bound_excludes_outsiders(p: Profile, k: int, rule_id: str) -> bool:
    """Whether the B part alone shows every outsider c losing under
    rule_id's score, least wins, even at c's best against each b's worst.
    The worst profile of b in B adds n - s voters ranking b last to the B
    part, and the best of c adds n - s ranking c first; both are built and
    scored.  Under dodgson b's worst is `dodgson_worst` instead, as its
    score on one such profile depends on the order above b.  c is
    excluded when some b's worst score is below c's best or, under
    t12rule, ties it and second-order dominates it on the integer
    truncated scores of those two profiles.  Where the rule elects a
    strict majority winner, a b with one in its worst profile excludes
    every outsider, and an outsider with one in its best is never
    excluded."""
    m, n, score = p.m, p.n, BOUND_SCORES[rule_id]
    head = _b_part(p, k)
    rest = n - sum(c for c, _ in head)

    def filled(a: int, last: bool) -> Profile:
        others = tuple(b for b in range(m) if b != a)
        ranking = others + (a,) if last else (a,) + others
        return Profile(p.candidates, head + ((rest, ranking),) if rest else head)

    def majority(q: Profile, a: int) -> bool:
        return rule_id in ("convexmedian", "t12rule") and majority_winner(q) == a

    worst = {b: filled(b, True) for b in range(k)}
    if any(majority(q, b) for b, q in worst.items()):
        return True
    if rule_id == "dodgson":
        high = {b: dodgson_worst(p, k, b) for b in range(k)}
    else:
        high = {b: score(q, b) for b, q in worst.items()}
    for c in range(k, m):
        best = filled(c, False)
        if majority(best, c):
            return False
        low = score(best, c)
        if not any(
            high[b] < low
            or rule_id == "t12rule" and high[b] == low and _dominates(q, b, best, c)
            for b, q in worst.items()
        ):
            return False
    return True


def _dominates(p: Profile, b: int, q: Profile, c: int) -> bool:
    """Whether b on p second-order dominates c on q: its truncated scores
    at every integer depth up to m - 1 are at least c's, the last above."""
    bt_b = [truncated_borda(p, b, t) for t in range(1, p.m)]
    bt_c = [truncated_borda(q, c, t) for t in range(1, q.m)]
    return bt_b[-1] > bt_c[-1] and all(x >= y for x, y in zip(bt_b, bt_c))
