import dataclasses
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings

import votelab.model
from votelab import (
    RULE_IDS,
    Profile,
    condorcet_winner,
    majority_loser,
    majority_winner,
    positional_matrix,
    relabel_profile,
    report,
    restrict_profile,
    tournament_matrix,
    truncated_borda,
    weak_condorcet_winners,
)

from conftest import profiles


class TestProfile:
    def test_normalizes_duplicates(self):
        p = Profile(("a", "b"), ((1, (0, 1)), (2, (0, 1)), (1, (1, 0))))
        assert p.ballots == ((3, (0, 1)), (1, (1, 0)))
        assert p.n == 4 and p.m == 2

    def test_rejects_bad_rankings(self):
        with pytest.raises(ValueError):
            Profile(("a", "b"), ((1, (0, 0)),))
        with pytest.raises(ValueError):
            Profile(("a", "b"), ((1, (0,)),))
        with pytest.raises(ValueError):
            Profile(("a", "b"), ((0, (0, 1)),))
        with pytest.raises(ValueError):
            Profile(("a", "b"), ())
        with pytest.raises(ValueError):
            Profile(("a", "a"), ((1, (0, 1)),))

    def test_single_candidate_profile_is_legal(self):
        p = Profile(("only",), ((3, (0,)),))
        assert p.m == 1 and p.n == 3

    def test_equality_is_canonical(self):
        p = Profile(("a", "b"), ((1, (1, 0)), (2, (0, 1))))
        q = Profile(("a", "b"), ((2, (0, 1)), (1, (1, 0))))
        assert p == q and hash(p) == hash(q)


class TestTallies:
    def test_tournament_four_bloc(self, four_bloc):
        tm = tournament_matrix(four_bloc)
        assert tm.h[0][1] == 51
        assert tm.h[0][2] == tm.h[0][3] == 57
        assert tm.h[2][3] == 100 and tm.h[3][2] == 0

    def test_positional_four_bloc(self, four_bloc):
        pos = positional_matrix(four_bloc)
        assert pos.counts[0][2] == 43 and pos.counts[2][2] == 57
        assert pos.counts[0][3] == 0 and pos.counts[3][3] == 57

    def test_single_voter(self):
        p = Profile(("a", "b"), ((1, (0, 1)),))
        tm = tournament_matrix(p)
        assert tm.h[0][1] == 1 and tm.h[1][0] == 0

    def test_unanimous_positional(self):
        p = Profile(("a", "b", "c"), ((5, (2, 0, 1)),))
        pos = positional_matrix(p)
        for col in range(3):
            nonzero = [pos.counts[l][col] for l in range(3) if pos.counts[l][col]]
            assert nonzero == [5]

    def test_primary_five_top_counts(self, primary_five):
        pos = positional_matrix(primary_five)
        assert pos.counts[0] == (22, 21, 18, 19, 20)


def _recount(p):
    """Flat pairwise and rank counts from one ranking per voter."""
    m = p.m
    pairs, ranks = [0] * (m * m), [0] * (m * m)
    for ranking in p.expand():
        for i, a in enumerate(ranking):
            ranks[i * m + a] += 1
            for b in ranking[i + 1 :]:
                pairs[a * m + b] += 1
    return tuple(pairs), tuple(ranks)


def _read_tallies(p):
    return p.pair_counts, p.rank_counts


class TestStoredTallies:
    """A profile stores n and its tallies; they are not part of its value."""

    def test_value_ignores_read_tallies(self, four_bloc):
        fresh = Profile(four_bloc.candidates, four_bloc.ballots)
        before = (repr(fresh), pickle.dumps(fresh))
        _read_tallies(four_bloc)
        assert four_bloc == fresh and hash(four_bloc) == hash(fresh)
        assert repr(four_bloc) == before[0] == repr(fresh)
        assert pickle.dumps(four_bloc) == before[1] == pickle.dumps(fresh)
        assert "pair_counts" not in repr(four_bloc) and "n=" not in repr(four_bloc)

    def test_unpickled_profile_counts_its_own_tallies(self, four_bloc):
        tallies = _read_tallies(four_bloc)
        back = pickle.loads(pickle.dumps(four_bloc))
        assert back == four_bloc and back.n == 100
        assert back._pair_counts is None and back._rank_counts is None
        assert _read_tallies(back) == tallies

    def test_replace_gives_fresh_tallies(self, four_bloc):
        _read_tallies(four_bloc)
        other = dataclasses.replace(four_bloc, ballots=((3, (3, 2, 1, 0)),))
        assert other.n == 3
        assert other._pair_counts is None and other._rank_counts is None
        assert _read_tallies(other) == _recount(other)
        assert _read_tallies(four_bloc) == _recount(four_bloc)

    def test_tallies_are_counted_once(self, four_bloc, monkeypatch):
        """Reporting every rule reads each tally, and counts it once."""
        calls = {"tournament_matrix": 0, "positional_matrix": 0}
        for name in calls:
            count = getattr(votelab.model, name)

            def counted(profile, name=name, count=count):
                calls[name] += 1
                return count(profile)

            monkeypatch.setattr(votelab.model, name, counted)
        p = Profile(four_bloc.candidates, four_bloc.ballots)
        for rule in RULE_IDS:
            report(rule, p)
        assert len(RULE_IDS) == 13
        assert calls == {"tournament_matrix": 1, "positional_matrix": 1}


@settings(max_examples=40, deadline=None)
@given(profiles())
def test_stored_tallies_match_a_recount(p):
    assert p.n == len(p.expand())
    assert _read_tallies(p) == _recount(p)
    assert isinstance(p.pair_counts, tuple) and isinstance(p.rank_counts, tuple)
    for rule in RULE_IDS:
        fresh = Profile(p.candidates, p.ballots)
        assert report(rule, p) == report(rule, fresh), rule


class TestCondorcet:
    def test_four_bloc_winner(self, four_bloc):
        assert four_bloc.label(condorcet_winner(four_bloc)) == "a"
        assert weak_condorcet_winners(four_bloc) == {0}

    def test_cycle_has_none(self, cycle3):
        assert condorcet_winner(cycle3) is None
        assert weak_condorcet_winners(cycle3) == frozenset()

    def test_primary_five_winner(self, primary_five):
        assert primary_five.label(condorcet_winner(primary_five)) == "John"

    def test_exact_tie_is_weak_only(self):
        p = Profile(("a", "b"), ((1, (0, 1)), (1, (1, 0))))
        assert condorcet_winner(p) is None
        assert weak_condorcet_winners(p) == {0, 1}

    def test_subset_argument(self, four_bloc):
        assert condorcet_winner(four_bloc, {2, 3}) == 2
        with pytest.raises(ValueError):
            condorcet_winner(four_bloc, set())


class TestMajority:
    def test_four_bloc_has_no_majority_winner(self, four_bloc):
        assert majority_winner(four_bloc) is None

    def test_unanimous(self):
        p = Profile(("a", "b", "c"), ((4, (1, 2, 0)),))
        assert majority_winner(p) == 1
        assert majority_loser(p) == 0

    def test_primary_five_majority_loser(self, primary_five):
        assert majority_winner(primary_five) is None
        assert primary_five.label(majority_loser(primary_five)) == "Hillary"


class TestRestrict:
    def test_primary_five_restriction_top_counts(self, primary_five):
        keep = [primary_five.candidates.index(x) for x in ("John", "Ted", "Bernie")]
        r = restrict_profile(primary_five, keep)
        pos = positional_matrix(r)
        tops = dict(zip(r.candidates, pos.counts[0]))
        assert tops == {"John": 61, "Ted": 19, "Bernie": 20}

    def test_full_restriction_is_identity(self, four_bloc):
        assert restrict_profile(four_bloc, range(4)) == four_bloc

    def test_singleton_restriction(self, four_bloc):
        r = restrict_profile(four_bloc, {2})
        assert r.m == 1 and r.n == 100

    def test_preserves_pairwise_counts(self, primary_five):
        keep = (0, 2, 4)
        r = restrict_profile(primary_five, keep)
        full = tournament_matrix(primary_five)
        sub = tournament_matrix(r)
        for i, a in enumerate(keep):
            for j, b in enumerate(keep):
                if a != b:
                    assert sub.h[i][j] == full.h[a][b]


class TestTruncatedScores:
    def test_four_bloc_values(self, four_bloc):
        assert truncated_borda(four_bloc, 0, 2) == 86
        assert truncated_borda(four_bloc, 0, 3) == 165  # full positional score
        assert truncated_borda(four_bloc, 0, 1) == 29  # top counts only

    def test_fractional_depth(self, four_bloc):
        assert truncated_borda(four_bloc, 0, Fraction(3, 2)) == Fraction(3, 2) * 29 + Fraction(1, 2) * 28

    def test_depth_beyond_m(self, four_bloc):
        # all ranks included once the depth covers them
        assert truncated_borda(four_bloc, 0, 10) == 10 * 29 + 9 * 28 + 8 * 22 + 7 * 21

    def test_rejects_nonpositive_depth(self, four_bloc):
        with pytest.raises(ValueError):
            truncated_borda(four_bloc, 0, 0)


@settings(max_examples=60)
@given(profiles())
def test_pairwise_complement_identity(p):
    tm = tournament_matrix(p)
    for a in range(p.m):
        for b in range(p.m):
            if a != b:
                assert tm.h[a][b] + tm.h[b][a] == p.n


@settings(max_examples=60)
@given(profiles())
def test_positional_sums(p):
    pos = positional_matrix(p)
    for a in range(p.m):
        assert sum(pos.counts[l][a] for l in range(p.m)) == p.n
    for l in range(p.m):
        assert sum(pos.counts[l]) == p.n


@settings(max_examples=60)
@given(profiles(min_m=2))
def test_condorcet_winner_is_weak_winner(p):
    cw = condorcet_winner(p)
    if cw is not None:
        assert cw in weak_condorcet_winners(p)


@settings(max_examples=40)
@given(profiles(min_m=2))
def test_truncated_score_monotone_in_depth(p):
    grid = [Fraction(i, 4) for i in range(4, 4 * p.m + 5)]
    for a in range(p.m):
        values = [truncated_borda(p, a, t) for t in grid]
        assert all(x <= y for x, y in zip(values, values[1:]))
        averages = [v / t for v, t in zip(values, grid)]
        assert all(x <= y for x, y in zip(averages, averages[1:]))


@settings(max_examples=40)
@given(profiles(min_m=2))
def test_neutrality_of_tallies(p):
    perm = tuple(reversed(range(p.m)))
    q = relabel_profile(p, perm)
    tm_p, tm_q = tournament_matrix(p), tournament_matrix(q)
    pos_p, pos_q = positional_matrix(p), positional_matrix(q)
    for a in range(p.m):
        for b in range(p.m):
            if a != b:
                assert tm_p.h[a][b] == tm_q.h[perm[a]][perm[b]]
        for l in range(p.m):
            assert pos_p.counts[l][a] == pos_q.counts[l][perm[a]]
    cw = condorcet_winner(p)
    if cw is not None:
        assert condorcet_winner(q) == perm[cw]
