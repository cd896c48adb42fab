import collections
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from votelab import (
    ChoiceSet,
    ExactNumber,
    Profile,
    all_profiles,
    condorcet_winner,
    convex_median_score,
    default_candidates,
    dodgson_score,
    exact,
    oracle_dodgson_score,
    oracle_veto_core,
    oracle_young_score,
    random_profile,
    report,
    scoring_winners,
    serialize_profile,
    tournament_matrix,
    tradeoff_score,
    winners,
    young_score,
)
from votelab.cli import main
from votelab.rules import (
    RULE_IDS,
    ScoreVector,
    _piecewise_depth_pieces,
    _dodgson,
    _rule,
    _tradeoff_depth,
    _young,
)

from conftest import (
    profiles,
    relabel_profile,
    truncated_borda,
    young_first_removal,
    young_input,
)


def names(profile, choice):
    return set(profile.labels(choice))


class TestScoreVector:
    def test_standard_vectors(self):
        assert ScoreVector.plurality(4).scores == (1, 0, 0, 0)
        assert ScoreVector.borda(4).scores == (3, 2, 1, 0)
        assert ScoreVector.antiplurality(4).scores == (1, 1, 1, 0)

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            ScoreVector((0, 1))
        with pytest.raises(ValueError):
            ScoreVector((1, 1))

    def test_convexity(self):
        assert ScoreVector.borda(5).is_convex
        assert not ScoreVector.antiplurality(5).is_convex
        # plurality's bottom gap is zero for m > 2, so it is not convex
        assert not ScoreVector.plurality(3).is_convex
        assert ScoreVector.plurality(2).is_convex
        assert ScoreVector((3, 1, 0)).is_convex
        assert not ScoreVector((3, 2, 0)).is_convex  # gaps grow downward


class TestScoringRules:
    def test_primary_five_plurality(self, primary_five):
        assert names(primary_five, winners("plurality", primary_five)) == {"Hillary"}

    def test_four_bloc_borda(self, four_bloc):
        rep = report("borda", four_bloc)
        assert names(four_bloc, rep.winners) == {"c"}
        assert [rep.scores[a] for a in range(4)] == [165, 163, 186, 86]

    def test_four_bloc_antiplurality(self, four_bloc):
        rep = report("antiplurality", four_bloc)
        assert names(four_bloc, rep.winners) == {"c"}
        assert [rep.scores[a] for a in range(4)] == [79, 78, 100, 43]

    def test_scoring_length_mismatch(self, four_bloc):
        with pytest.raises(ValueError):
            scoring_winners(four_bloc, ScoreVector((1, 0)))

    def test_scoring_rule_id(self, four_bloc):
        """A scoring: id and the fixed vector it spells have one record shape:
        the same winners, shown scores and per-m quota."""
        vector, borda = report("scoring:3,2,1,0", four_bloc), report("borda", four_bloc)
        assert (vector.winners, vector.scores) == (borda.winners, borda.scores)
        assert all(isinstance(s, Fraction) for s in vector.scores.values())
        assert _rule("scoring:3,2,1,0", 4).majority(2, 4) == _rule("borda", 4).majority(2, 4)

    def test_scoring_record_is_cached(self, four_bloc):
        """A scoring: id's record is built once per (id, m); a bad vector
        raises on every call, since a raise is never cached."""
        assert _rule("scoring:3,2,1,0", 4) is _rule("scoring:3,2,1,0", 4)
        for _ in range(2):
            with pytest.raises(ValueError, match="nonincreasing"):
                winners("scoring:0,1,2,3", four_bloc)

    def test_borda_positional_equals_pairwise(self, four_bloc):
        rep = report("borda", four_bloc)
        tm = tournament_matrix(four_bloc)
        for a in range(4):
            assert rep.scores[a] == sum(tm.h[a][b] for b in range(4) if b != a)


class TestRunoff:
    def test_primary_five(self, primary_five):
        rep = report("runoff", primary_five)
        assert names(primary_five, rep.winners) == {"Donald"}
        (pair,) = rep.trace["finalist_pairs"]
        assert set(primary_five.labels(pair)) == {"Hillary", "Donald"}
        assert rep.trace["duels"][pair] == (42, 58)

    def test_small_example(self):
        p = Profile.from_names("abc", [(2, "abc"), (2, "bac"), (1, "cab")])
        assert winners("runoff", p) == {0}

    def test_majority_winner_always_wins(self):
        p = Profile.from_names("abc", [(3, "cab"), (1, "abc"), (1, "bca")])
        assert winners("runoff", p) == {2}

    def test_finalist_tie_union(self):
        # tops 2/2/2: all three finalist pairs contribute
        p = Profile.from_names("abc", [(2, "abc"), (2, "bca"), (2, "cab")])
        assert winners("runoff", p) == {0, 1, 2}


class TestInstantRunoff:
    def test_primary_five_elimination_order(self, primary_five):
        rep = report("irv", primary_five)
        assert names(primary_five, rep.winners) == {"Ted"}
        order = [primary_five.label(r["eliminated"][0]) for r in rep.trace["rounds"]]
        assert order == ["John", "Bernie", "Donald", "Hillary"]

    def test_small_example(self):
        p = Profile.from_names("abc", [(2, "abc"), (2, "bac"), (1, "cab")])
        assert winners("irv", p) == {0}

    def test_majority_winner_always_wins(self):
        p = Profile.from_names("abc", [(3, "cab"), (1, "abc"), (1, "bca")])
        assert winners("irv", p) == {2}

    def test_tie_union_keeps_supported_set(self):
        # deleting the whole tied minimum at once would elect c here
        p = Profile.from_names("abc", [(3, "abc"), (3, "bac"), (4, "cab")])
        assert winners("irv", p) == {0, 1}

    @pytest.mark.parametrize("m", [7, 8, 30])
    def test_many_candidates_match_plain_elimination(self, m):
        # past m = 7 a report counts the contour lanes in a dict of the
        # nonzero ones: a list would hold m 2^(m-1) lanes
        rng = random.Random(m)
        for _ in range(3):
            # each candidate tops one group, of a size no other group has
            groups = []
            for i, top in enumerate(rng.sample(range(m), m)):
                rest = rng.sample([c for c in range(m) if c != top], m - 1)
                groups.append((i + 1, (top, *rest)))
            p = Profile(tuple(f"c{i}" for i in range(m)), tuple(groups))
            active, order = set(range(m)), []
            while len(active) > 1:
                firsts = dict.fromkeys(active, 0)
                for count, ranking in p.ballots:
                    firsts[next(c for c in ranking if c in active)] += count
                losers = [a for a in active if firsts[a] == min(firsts.values())]
                if len(losers) > 1:
                    break  # the plain elimination has no tie to follow
                order.append(losers)
                active -= set(losers)
            rep = report("irv", p)
            assert [r["eliminated"] for r in rep.trace["rounds"]] == order
            if len(active) == 1:
                assert rep.winners == active


class TestSimpson:
    def test_four_bloc(self, four_bloc):
        rep = report("simpson", four_bloc)
        assert names(four_bloc, rep.winners) == {"a"}
        assert [rep.scores[a] for a in range(4)] == [51, 49, 43, 0]

    def test_cycle_ties(self, cycle3):
        rep = report("simpson", cycle3)
        assert rep.winners == {0, 1, 2}
        assert set(rep.scores.values()) == {1}


class TestYoung:
    def test_condorcet_winner_scores_zero(self, four_bloc):
        assert young_score(four_bloc, 0) == 0
        assert names(four_bloc, winners("young", four_bloc)) == {"a"}

    def test_cycle_scores_one(self, cycle3):
        assert [young_score(cycle3, a) for a in range(3)] == [1, 1, 1]
        assert winners("young", cycle3) == {0, 1, 2}

    def test_removal_trace(self):
        """Each candidate's traced removal is checked from the trace alone:
        it stays within the ballot counts, its size is the score, and the
        candidate is weakly unbeaten once those voters are gone."""
        rng = random.Random(8)
        cases = list(all_profiles(3, 5))
        cases += [random_profile(rng, m, rng.randint(1, 24)) for m in (4, 5) for _ in range(40)]
        for p in cases:
            rep = report("young", p)
            for a in range(p.m):
                removed = rep.trace["removals"][a]
                assert len(removed) == len(p.ballots)
                assert all(0 <= x <= count for x, (count, _) in zip(removed, p.ballots))
                assert sum(removed) == rep.scores[a]
                kept = [(count - x, r) for x, (count, r) in zip(removed, p.ballots)]
                left = sum(count for count, _ in kept)
                for b in range(p.m):
                    wins = sum(count for count, r in kept if r.index(a) < r.index(b))
                    assert b == a or 2 * wins >= left, (p, a, b)

    def test_large_profile(self):
        """m = 6 and 40 voters in 39 ballot types: up to 22 pools and a
        removal of 14.  The deficit cut answers it in milliseconds; testing
        every composition of each removal size takes over a minute."""
        p = random_profile(random.Random(3), 6, 40)
        rep = report("young", p)
        assert [rep.scores[a] for a in range(6)] == [2, 0, 14, 4, 10, 12]
        assert rep.winners == {1}
        removed = {
            0: [29, 31],
            1: [],
            2: [2, 3, 4, 7, 11, 13, 17, 18, 25, 26, 27, 31, 32, 35],
            3: [3, 21, 24, 36],
            4: [11, 14, 19, 20, 21, 22, 25, 26, 27, 29],
            5: [0, 1, 10, 12, 14, 15, 16, 19, 25, 26, 27, 29],
        }
        assert len(p.ballots) == 39
        assert rep.trace["removals"] == {
            a: [int(i in types) for i in range(39)] for a, types in removed.items()
        }

    def test_matches_oracle_at_five_candidates(self):
        rng = random.Random(55)
        for _ in range(25):
            p = random_profile(rng, 5, rng.randint(1, 9))
            for a in range(5):
                assert young_score(p, a) == oracle_young_score(p, a)

    def test_interval_cuts_keep_the_first_removal(self):
        """The per-pool intervals drop only branches with no completion: on
        every candidate of every profile with 3 candidates and up to 6
        voters and with 4 candidates and up to 4, the score and the removal
        are those of trying every removal vector in lexicographic order,
        size by size, with no bound."""
        checked = 0
        for p in itertools.chain(all_profiles(3, 6), all_profiles(4, 4)):
            for a in range(p.m):
                row, pools = young_input(p, a)
                assert _young(p.n, row, pools) == young_first_removal(p.n, row, pools), (p, a)
                checked += 1
        assert checked == 3 * 923 + 4 * 20474


class TestDodgson:
    def test_condorcet_winner_scores_zero(self, four_bloc):
        assert dodgson_score(four_bloc, 0) == 0
        assert names(four_bloc, winners("dodgson", four_bloc)) == {"a"}

    def test_cycle_scores_one(self, cycle3):
        assert [dodgson_score(cycle3, a) for a in range(3)] == [1, 1, 1]

    def test_lift_past_blockers(self):
        # b must climb the whole single ballot: 2 swaps through c then a
        p = Profile.from_names("abc", [(1, "acb")])
        assert dodgson_score(p, 1) == 2
        assert dodgson_score(p, 2) == 1
        assert dodgson_score(p, 0) == 0

    def test_many_ballot_types(self):
        """300 one-voter types at m = 7: the search keeps one frame per
        ballot type, not one per lift depth, so it stays within Python's
        recursion limit."""
        orders = itertools.islice(itertools.permutations("bcdefg"), 300)
        p = Profile.from_names("abcdefg", [(1, "".join(o) + "a") for o in orders])
        assert len(p.ballots) == 300
        assert dodgson_score(p, 0) == 906

    @staticmethod
    def deficit_sum(p, a):
        need = p.n // 2 + 1
        return sum(max(0, need - p.pair_counts[a * p.m + b]) for b in range(p.m) if b != a)

    def test_tight_pass_and_wasted_swaps_match_oracle(self):
        """Seeded weighted profiles over 4 and 5 candidates, up to 7
        voters: every score equals the unrestricted-swap oracle's, both
        where the tight pass decides (the score is the deficit sum) and
        where some swaps must be wasted."""
        rng = random.Random(2407)
        waste = collections.Counter()
        for m in (4, 5):
            types = list(itertools.permutations(range(m)))
            for _ in range(30):
                chosen = rng.sample(types, rng.randint(2, 4))
                counts = [rng.randint(1, 3) for _ in chosen]
                while sum(counts) > 7:
                    counts.pop()
                p = Profile(default_candidates(m), tuple(zip(counts, chosen)))
                for a in range(m):
                    score = dodgson_score(p, a)
                    assert score == oracle_dodgson_score(p, a), (p, a)
                    waste[score - self.deficit_sum(p, a)] += 1
        assert waste[0] and max(waste) >= 2, waste

    def test_weighted_five_candidates(self):
        """Eight weighted blocs, 44 voters (tests/golden/profiles/weighted5.txt).
        The tight pass decides a, c and e at their deficit sums; b needs four
        wasted swaps, so budgets 1 to 4 run."""
        p = Profile.from_names("abcde", [
            (2, "acdeb"), (7, "cbead"), (4, "cdabe"), (5, "ceadb"),
            (7, "dbcae"), (3, "dcbae"), (7, "dceab"), (9, "dceba"),
        ])
        assert [dodgson_score(p, a) for a in range(5)] == [42, 38, 5, 0, 34]
        assert [self.deficit_sum(p, a) for a in range(5)] == [42, 34, 5, 0, 34]

    def test_wasted_swaps_at_six_candidates(self):
        """Two weighted m = 6 profiles whose scores exceed the deficit sum,
        by 3 (candidate 0 of the first) and by 2 (candidate 4 of the
        second), each a heavy case for a search bounded by the deficit sum
        alone."""
        first = Profile(default_candidates(6), (
            (1, (1, 4, 0, 2, 3, 5)), (4, (1, 4, 2, 3, 5, 0)), (4, (1, 4, 3, 0, 2, 5)),
            (5, (1, 5, 4, 0, 2, 3)), (7, (2, 1, 4, 5, 3, 0)), (6, (4, 1, 2, 5, 0, 3)),
            (2, (4, 1, 5, 0, 3, 2)), (1, (5, 1, 3, 2, 0, 4)), (1, (5, 4, 0, 2, 1, 3)),
        ))
        second = Profile(default_candidates(6), (
            (6, (0, 2, 3, 1, 4, 5)), (5, (1, 3, 0, 2, 5, 4)), (5, (2, 3, 4, 1, 0, 5)),
            (5, (2, 5, 1, 0, 4, 3)), (5, (3, 1, 2, 0, 5, 4)),
        ))
        assert (first.n, second.n) == (31, 26)
        assert (dodgson_score(first, 0), self.deficit_sum(first, 0)) == (48, 45)
        assert (dodgson_score(second, 4), self.deficit_sum(second, 4)) == (46, 44)

    def test_deficit_no_voters_can_close_raises(self):
        """Five voters need 3 votes against each opponent.  One voter
        ranking opponent 0 above the candidate cannot close its deficit of
        3, so no budget of wasted swaps would: _dodgson raises at once
        instead of raising the budget forever.  With three such voters it
        closes in 3 swaps."""
        with pytest.raises(ValueError, match="deficit exceeds"):
            _dodgson(5, [0, 5], [(1, (0,))])
        with pytest.raises(ValueError, match="deficit exceeds"):
            _dodgson(5, [2, 1], [(3, (0,)), (1, (1, 0))])
        assert _dodgson(5, [0, 5], [(3, (0,))]) == 3


class TestCLR:
    def test_four_bloc(self, four_bloc):
        rep = report("clr", four_bloc)
        assert names(four_bloc, rep.winners) == {"a"}
        assert rep.scores[0] == 0

    def test_cycle_margins(self, cycle3):
        rep = report("clr", cycle3)
        assert set(rep.scores.values()) == {Fraction(1, 2)}
        assert rep.winners == {0, 1, 2}

    def test_trace_recomputes_scores(self):
        """Each score is half the sum of the trace's doubled per-pair deficits,
        and each deficit is max(n - 2 h(a, b), 0)."""
        rng = random.Random(31)
        samples = [
            random_profile(rng, rng.choice((4, 5)), rng.randint(1, 15)) for _ in range(80)
        ]
        for p in itertools.chain(all_profiles(3, 5), samples):
            rep = report("clr", p)
            deficits = rep.trace["doubled_deficits"]
            assert set(deficits) == set(range(p.m))
            for a, row in deficits.items():
                assert set(row) == set(range(p.m)) - {a}
                assert rep.scores[a] == Fraction(sum(row.values()), 2), (p, a)
            h = tournament_matrix(p).h
            assert deficits == {
                a: {b: max(p.n - 2 * h[a][b], 0) for b in range(p.m) if b != a}
                for a in range(p.m)
            }


class TestBlack:
    def test_four_bloc_condorcet_branch(self, four_bloc):
        assert names(four_bloc, winners("black", four_bloc)) == {"a"}

    def test_primary_five(self, primary_five):
        assert names(primary_five, winners("black", primary_five)) == {"John"}

    def test_cycle_borda_fallback(self, cycle3):
        assert winners("black", cycle3) == {0, 1, 2}

    def test_weak_winner_does_not_preempt_borda(self):
        # a ties b, beats c; no strict winner, so the positional scores decide
        p = Profile.from_names("abc", [(1, "abc"), (1, "bac")])
        rep = report("black", p)
        assert rep.trace["condorcet_winner"] is None
        assert rep.winners == {0, 1}


class TestConvexMedian:
    def test_four_bloc_scores(self, four_bloc):
        rep = report("convexmedian", four_bloc)
        assert names(four_bloc, rep.winners) == {"c"}
        expected = {
            0: Fraction(72, 29),
            1: Fraction(71, 28),
            2: Fraction(57, 25),
            3: Fraction(107, 25),
        }
        assert rep.scores == expected

    def test_four_bloc_scores_match_grid_scan(self, four_bloc):
        # independent check: densely scan depths for the last feasible point
        for a in range(4):
            feasible = [
                Fraction(i, 512)
                for i in range(512, 6 * 512)
                if truncated_borda(four_bloc, a, Fraction(i, 512)) / Fraction(i, 512)
                <= Fraction(100, 2)
            ]
            grid_value = feasible[-1]
            assert abs(grid_value - convex_median_score(four_bloc, a)) <= Fraction(1, 512)

    def test_majority_winner_override(self):
        p = Profile.from_names("abc", [(3, "cab"), (2, "abc")])
        rep = report("convexmedian", p)
        assert rep.winners == {2}
        assert rep.trace["majority_winner"] == 2

    def test_mutual_majority_at_m_equals_k_plus_1(self):
        from votelab import worst_case_profile

        p = worst_case_profile(3, 2, Fraction(51, 100), 200)
        assert winners("convexmedian", p) <= {0, 1}


class TestVetoCore:
    def test_cycle_all_stable(self, cycle3):
        assert winners("vetocore", cycle3) == {0, 1, 2}

    def test_four_bloc(self, four_bloc):
        rep = report("vetocore", four_bloc)
        assert names(four_bloc, rep.winners) == {"a", "b"}
        assert set(rep.trace["blocked"]) == {2, 3}
        assert rep.trace["blocked"][2]["blocking_set"] == [0, 1]

    def test_single_voter_unanimity(self):
        p = Profile.from_names("abcd", [(1, "cadb")])
        assert winners("vetocore", p) == {2}

    def test_many_ballot_types_answered(self, tmp_path, capsys):
        # no cap on ballot types: 31 types here, where a scan over
        # coalitions of types would need 2^31 steps per candidate
        p = random_profile(random.Random(1), 5, 40)
        assert len(p.ballots) > 18
        rep = report("vetocore", p)
        assert rep.winners == {0, 1, 2}
        path = tmp_path / "many_types.txt"
        path.write_text(serialize_profile(p))
        assert main(["winners", "--rule", "vetocore", "--format", "json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["winners"] == ["a", "b", "c"]

    def test_many_candidates_few_types(self, tmp_path, capsys):
        # only intersections of upper contours are tried as blocking sets,
        # so 30 candidates with few ballot types need no 2^29 scan
        labels = [f"c{i}" for i in range(30)]
        p = Profile.from_names(labels, [(1, labels[::-1])])
        rep = report("vetocore", p)
        assert rep.winners == {29}
        assert rep.trace["blocked"][0]["blocking_set"] == list(range(1, 30))
        path = tmp_path / "many_candidates.txt"
        path.write_text(serialize_profile(p))
        assert main(["winners", "--rule", "vetocore", "--format", "json", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["winners"] == ["c29"]
        rng = random.Random(30)
        for _ in range(5):
            groups = [(rng.randint(1, 6), rng.sample(labels, 30)) for _ in range(4)]
            p = Profile.from_names(labels, groups)
            assert winners("vetocore", p) == oracle_veto_core(p), p


class TestTradeoffRule:
    def test_quadratic_scores(self):
        p = Profile.from_names("abc", [(2, "abc"), (2, "bca")])
        rep = report("t12rule", p)
        assert rep.scores[0] == 1
        assert rep.scores[1] == 1
        assert rep.scores[2] == ExactNumber(9, 1, 129, 8)
        # b outscores a under every convex scoring rule, so the tie at the
        # minimum resolves to b alone
        assert rep.trace["score_argmin"] == [0, 1]
        assert names(p, rep.winners) == {"b"}

    def test_scores_match_numeric_scan(self):
        p = Profile.from_names("abc", [(2, "abc"), (2, "bca")])
        n = p.n
        for a in range(3):
            feasible = 1
            for i in range(256, 5 * 256):
                t = Fraction(i, 256)
                if (3 * t + 1) * truncated_borda(p, a, t) <= n * t * (t + 1):
                    feasible = t
            assert abs(feasible - exact(report("t12rule", p).scores[a])) < Fraction(1, 128)

    def test_majority_winner_override(self):
        p = Profile.from_names("abc", [(3, "cab"), (2, "abc")])
        assert winners("t12rule", p) == {2}

    def test_selects_from_supported_set_above_threshold(self):
        from votelab import worst_case_profile

        p = worst_case_profile(3, 1, Fraction(59, 100), 100)
        assert winners("t12rule", p) == {0}

    def test_tradeoff_score_undefined_for_majority_winner(self):
        p = Profile.from_names("ab", [(3, "ab")])
        with pytest.raises(ValueError):
            tradeoff_score(p, 0)

    @staticmethod
    def in_piece_depth(m, n, col):
        """Both roots of the crossing piece's quadratic, keeping the largest
        inside [j, j+1]."""
        for j, N, C in _piecewise_depth_pieces(col, m):
            if (3 * j + 4) * (C + (j + 1) * N) <= n * (j + 1) * (j + 2):
                continue
            roots = ExactNumber.quadratic_roots(3 * N - n, 3 * C + N - n, C)
            in_piece = [t for t in roots if exact(j) <= t <= exact(j + 1)]
            assert in_piece
            return in_piece[-1]

    def test_crossing_root_matches_in_piece_selection(self):
        profiles = list(all_profiles(3, 6))
        rng = random.Random(1212)
        profiles += [
            random_profile(rng, m, rng.randint(1, 40)) for m in range(4, 9) for _ in range(60)
        ]
        checked = 0
        for p in profiles:
            for a in range(p.m):
                col = p.rank_counts[a :: p.m]
                if 2 * col[0] > p.n:
                    continue
                depth = _tradeoff_depth(p.m, p.n, col)
                expected = self.in_piece_depth(p.m, p.n, col)
                assert (depth, repr(depth)) == (expected, repr(expected)), (p, a)
                checked += 1
        assert checked > 3000


class TestRegistry:
    def test_unknown_rule(self, four_bloc):
        with pytest.raises(ValueError):
            winners("approval", four_bloc)

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_single_candidate(self, rule_id):
        p = Profile(("solo",), ((2, (0,)),))
        assert winners(rule_id, p) == {0}


ALL_RULES = list(RULE_IDS)


@pytest.mark.parametrize("rule_id", ALL_RULES)
def test_m2_coincides_with_simple_majority(rule_id):
    rng = random.Random(42)
    for _ in range(30):
        counts = (rng.randint(1, 6), rng.randint(0, 6))
        ballots = [(counts[0], (0, 1))]
        if counts[1]:
            ballots.append((counts[1], (1, 0)))
        p = Profile(("a", "b"), tuple(ballots))
        assert winners(rule_id, p) == winners("plurality", p)


@pytest.mark.parametrize(
    "rule_id", ["simpson", "young", "dodgson", "clr", "black"]
)
def test_condorcet_consistency(rule_id):
    rng = random.Random(5)
    from votelab import random_profile

    found = 0
    while found < 25:
        p = random_profile(rng, rng.randint(2, 4), rng.randint(1, 7))
        cw = condorcet_winner(p)
        if cw is None:
            continue
        found += 1
        assert winners(rule_id, p) == {cw}


@settings(max_examples=40, deadline=None)
@given(profiles(max_m=3, max_voters=6))
def test_universality_and_anonymity(p):
    for rule_id in ALL_RULES:
        won = winners(rule_id, p)
        assert isinstance(won, ChoiceSet) and won
        assert won <= set(range(p.m))


@settings(max_examples=25, deadline=None)
@given(profiles(min_m=2, max_m=3, max_voters=6))
def test_neutrality_of_rules(p):
    perm = tuple(reversed(range(p.m)))
    q = relabel_profile(p, perm)
    for rule_id in ALL_RULES:
        mapped = {perm[a] for a in winners(rule_id, p)}
        assert mapped == set(winners(rule_id, q))


def _neutrality_cases():
    """all_profiles(m, 5) for m <= 3 and seeded 4-candidate samples."""
    yield from all_profiles(2, 5)
    yield from all_profiles(3, 5)
    rng = random.Random(31)
    for _ in range(12):
        yield random_profile(rng, 4, rng.randint(1, 8))


def test_neutrality_under_every_permutation():
    """Relabelling candidates relabels the winners, for every permutation at
    m <= 4.  The exhaustive search evaluates one profile per orbit of the
    permutations fixing the qualified set, which is sound only if this holds."""
    non_borda = {2: "scoring:1,0", 3: "scoring:5,2,0", 4: "scoring:6,3,1,0"}
    perms = {m: list(itertools.permutations(range(m))) for m in (2, 3, 4)}
    for p in _neutrality_cases():
        for rule_id in ALL_RULES + [non_borda[p.m]]:
            won = winners(rule_id, p)
            for perm in perms[p.m]:
                relabelled = winners(rule_id, relabel_profile(p, perm))
                assert relabelled == {perm[a] for a in won}, (rule_id, p, perm)


@settings(max_examples=30, deadline=None)
@given(profiles(min_m=2, max_m=4, max_voters=8))
def test_borda_dual_formulas(p):
    rep = report("borda", p)
    tm = tournament_matrix(p)
    for a in range(p.m):
        assert rep.scores[a] == sum(tm.h[a][b] for b in range(p.m) if b != a)


def _homogeneity_cases():
    """all_profiles(3, 5) and seeded 4- and 5-candidate samples."""
    yield from all_profiles(3, 5)
    rng = random.Random(77)
    for _ in range(120):
        yield random_profile(rng, rng.choice((4, 5)), rng.randint(1, 8))


def _scaled(p: Profile, factor: int) -> Profile:
    return Profile(p.candidates, tuple((factor * c, r) for c, r in p.ballots))


def test_homogeneity():
    """Doubling or tripling every count leaves the winners unchanged, for
    every rule but Dodgson (see the next test)."""
    homogeneous = [r for r in ALL_RULES if r != "dodgson"]
    for p in _homogeneity_cases():
        for rule_id in homogeneous + (["scoring:3,1,0"] if p.m == 3 else []):
            won = winners(rule_id, p)
            for factor in (2, 3):
                assert winners(rule_id, _scaled(p, factor)) == won, (rule_id, p, factor)


def test_dodgson_is_not_homogeneous():
    """Dodgson's rule is not homogeneous (Fishburn 1977): doubling every
    count of this profile changes its winners from {b, e} to {e}."""
    p = Profile.from_names(
        "abcde", [(1, r) for r in ("badec", "bedca", "cadeb", "daecb", "ebadc", "ebdac")]
    )
    assert names(p, winners("dodgson", p)) == {"b", "e"}
    assert names(p, winners("dodgson", _scaled(p, 2))) == {"e"}
