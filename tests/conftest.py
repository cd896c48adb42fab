from fractions import Fraction
from typing import Sequence

import pytest
from hypothesis import strategies as st

from votelab import Profile, default_candidates


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
# truncated scores only through `rules._piecewise_depth_pieces`, and relabels
# profiles only inside the search's orbit tables.


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
