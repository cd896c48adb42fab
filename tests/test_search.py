import itertools
import random
from fractions import Fraction

import pytest

from votelab import (
    Profile,
    SearchBudget,
    SearchBudgetExceeded,
    all_profiles,
    condorcet_k_tuple,
    default_candidates,
    dodgson_score,
    empirical_quota,
    exhaustive_criterion_search,
    max_violation,
    oracle_dodgson_score,
    oracle_veto_core,
    oracle_young_score,
    parallel_universe_irv,
    positional_matrix,
    random_profile,
    exact,
    report,
    tournament_matrix,
    tradeoff_threshold,
    winners,
    worst_case_profile,
    young_score,
)
from votelab import search
from votelab.search import smallest_worst_case_n

F = Fraction


class TestKTuple:
    def test_three_cycle(self):
        p = condorcet_k_tuple(3, 3)
        tm = tournament_matrix(p)
        assert tm.h[0][1] == 2 and tm.h[0][2] == 1

    def test_matrix_formula(self):
        for k, n in ((2, 2), (3, 6), (4, 4), (5, 10)):
            p = condorcet_k_tuple(k, n)
            tm = tournament_matrix(p)
            for i in range(k):
                for j in range(k):
                    if i != j:
                        assert tm.h[i][j] * k == n * (k - ((j - i) % k))

    def test_two_tuple_ties(self):
        p = condorcet_k_tuple(2, 2)
        tm = tournament_matrix(p)
        assert tm.h[0][1] == tm.h[1][0] == 1

    def test_equal_positional_scores(self):
        p = condorcet_k_tuple(4, 4)
        rep = report("borda", p)
        assert len(set(rep.scores.values())) == 1

    def test_divisibility_error(self):
        with pytest.raises(ValueError):
            condorcet_k_tuple(3, 4)
        with pytest.raises(ValueError):
            condorcet_k_tuple(1, 3)

    @pytest.mark.parametrize("n", [0, -3])
    def test_voter_count_must_be_positive(self, n):
        with pytest.raises(ValueError, match="number of voters must be"):
            condorcet_k_tuple(3, n)


class TestWorstCase:
    def test_simpson_tie_construction(self):
        p = worst_case_profile(3, 2, F(1, 2), 4)
        rep = report("simpson", p)
        assert set(rep.scores.values()) == {2}
        assert rep.winners == {0, 1, 2}

    def test_rank_distribution_invariant(self):
        p = worst_case_profile(5, 3, F(2, 3), 9)
        # majority block: each supported candidate gets exactly qn/k of each
        # rank 1..k; minority voters rank all outsiders above all of B
        majority = [(c, r) for c, r in p.ballots if r[0] < 3]
        assert sum(c for c, _ in majority) == 6
        for b in range(3):
            for l in range(3):
                assert sum(c for c, r in majority if r[l] == b) == 2
        for count, ranking in p.ballots:
            if ranking[0] >= 3:
                assert all(c >= 3 for c in ranking[:2])
                assert all(c < 3 for c in ranking[2:])

    def test_plurality_winner_escapes(self):
        p = worst_case_profile(5, 3, F(2, 3), 9)
        rep = report("plurality", p)
        assert rep.winners == {3}  # the first outsider

    def test_degenerate_k1(self):
        p = worst_case_profile(3, 1, F(3, 5), 5)
        assert p.ballots == ((3, (0, 1, 2)), (2, (1, 2, 0)))

    def test_divisibility_error_reports_minimum(self):
        with pytest.raises(ValueError) as err:
            worst_case_profile(4, 2, F(5, 9), 9)
        assert str(smallest_worst_case_n(2, F(5, 9))) in str(err.value)
        assert smallest_worst_case_n(2, F(5, 9)) == 18
        worst_case_profile(4, 2, F(5, 9), 18)

    @pytest.mark.parametrize("n", [0, -2])
    def test_voter_count_must_be_positive(self, n):
        with pytest.raises(ValueError, match="number of voters must be"):
            worst_case_profile(3, 1, F(1, 2), n)


class TestOracles:
    def test_cycle_agreement(self, cycle3):
        for cand in range(3):
            assert oracle_young_score(cycle3, cand) == 1
            assert oracle_dodgson_score(cycle3, cand) == 1

    def test_condorcet_winner_zero(self, four_bloc):
        small = Profile.from_names("abc", [(2, "abc"), (1, "bca")])
        assert oracle_young_score(small, 0) == 0
        assert oracle_dodgson_score(small, 0) == 0

    def test_oracle_matches_implementation_small(self):
        rng = random.Random(404)
        for _ in range(40):
            p = random_profile(rng, 3, rng.randint(1, 5))
            for cand in range(3):
                assert young_score(p, cand) == oracle_young_score(p, cand)
                assert dodgson_score(p, cand) == oracle_dodgson_score(p, cand)

    def test_oracle_matches_implementation_weighted(self):
        """Few ballot types with several voters each, so the lift search
        splits a type's voters across depths."""
        rng = random.Random(515)
        checked = 0
        for m in (4, 5):
            types = list(itertools.permutations(range(m)))
            for _ in range(26):
                chosen = rng.sample(types, rng.randint(2, 4))
                counts = [rng.randint(1, 3) for _ in chosen]
                while sum(counts) > 8:
                    counts.pop()
                p = Profile(default_candidates(m), tuple(zip(counts, chosen)))
                for cand in range(m):
                    assert dodgson_score(p, cand) == oracle_dodgson_score(p, cand), p
                    checked += 1
        assert checked == 26 * 4 + 26 * 5

    def test_young_oracle_matches_weighted(self):
        """Few ballot types with several voters each, so Young's pools hold
        more than one voter and a removal can take part of a type."""
        rng = random.Random(616)
        checked = 0
        for m in (4, 5):
            types = list(itertools.permutations(range(m)))
            for _ in range(26):
                chosen = rng.sample(types, rng.randint(2, 4))
                counts = [rng.randint(1, 4) for _ in chosen]
                while sum(counts) > 12:
                    counts.pop()
                p = Profile(default_candidates(m), tuple(zip(counts, chosen)))
                for cand in range(m):
                    assert young_score(p, cand) == oracle_young_score(p, cand), p
                    checked += 1
        assert checked == 26 * 4 + 26 * 5

    def test_bounded_search_equals_plain_bfs(self):
        rng = random.Random(17)
        for _ in range(25):
            p = random_profile(rng, 3, rng.randint(1, 4))
            for cand in range(3):
                a = oracle_dodgson_score(p, cand, use_bound=True)
                b = oracle_dodgson_score(p, cand, use_bound=False)
                assert a == b

    def test_budget_guard(self):
        p = condorcet_k_tuple(3, 18)
        with pytest.raises(SearchBudgetExceeded):
            oracle_young_score(p, 0)
        with pytest.raises(SearchBudgetExceeded):
            oracle_dodgson_score(p, 0, max_nodes=1)


def _check_blocked_trace(p, rep):
    """Every blocked candidate's trace entry proves the block on its own."""
    for a, entry in rep.trace["blocked"].items():
        bset, types = entry["blocking_set"], entry["coalition_types"]
        assert bset and a not in bset
        assert (p.m - len(bset)) * p.n < p.m * entry["coalition_size"]
        assert entry["coalition_size"] == sum(p.ballots[i][0] for i in types)
        for i in types:
            ranking = p.ballots[i][1]
            assert all(ranking.index(b) < ranking.index(a) for b in bset)
    assert rep.winners == {a for a in range(p.m) if a not in rep.trace["blocked"]}


class TestVetoCoreOracle:
    def test_all_three_candidate_profiles(self):
        for p in all_profiles(3, 7):
            rep = report("vetocore", p)
            assert rep.winners == oracle_veto_core(p), p
            _check_blocked_trace(p, rep)

    def test_seeded_four_and_five_candidates(self):
        rng = random.Random(4242)
        for m in (4, 5):
            for _ in range(60):
                # at most 18 types, with counts other than 1
                drawn = random_profile(rng, m, rng.randint(1, 18))
                p = Profile(drawn.candidates, tuple((rng.randint(1, 4), r) for _, r in drawn.ballots))
                rep = report("vetocore", p)
                assert rep.winners == oracle_veto_core(p), p
                _check_blocked_trace(p, rep)

    def test_homogeneity(self):
        rng = random.Random(12)
        for _ in range(40):
            p = random_profile(rng, rng.choice((3, 4, 5)), rng.randint(1, 16))
            core = report("vetocore", p).winners
            for factor in (2, 3):
                scaled = Profile(p.candidates, tuple((factor * c, r) for c, r in p.ballots))
                assert report("vetocore", scaled).winners == core

    def test_oracle_budget(self):
        p = random_profile(random.Random(1), 5, 40)
        assert len(p.ballots) > 18
        with pytest.raises(SearchBudgetExceeded):
            oracle_veto_core(p)


class TestParallelUniverseIrv:
    def test_primary_five(self, primary_five):
        assert set(primary_five.labels(parallel_universe_irv(primary_five))) == {"Ted"}

    def test_symmetric_cycle(self):
        p = Profile.from_names("abc", [(2, "abc"), (2, "bca"), (2, "cab")])
        assert parallel_universe_irv(p) == {0, 1, 2}

    def test_agrees_with_instant_runoff(self):
        rng = random.Random(12)
        for _ in range(120):
            p = random_profile(rng, rng.randint(1, 4), rng.randint(1, 7))
            assert parallel_universe_irv(p) == winners("irv", p)


class TestExhaustiveSearch:
    def test_plurality_clean_at_quota(self):
        budget = SearchBudget(max_voters=12)
        assert exhaustive_criterion_search("plurality", 3, 2, F(2, 3), budget) is None

    def test_plurality_minimal_witness_below_quota(self):
        budget = SearchBudget(max_voters=12)
        violation = exhaustive_criterion_search("plurality", 3, 2, F(3, 5), budget)
        assert violation.profile.n == 3
        assert violation.support == 2
        # two voters split B's top slots, one backs an outsider
        tops = positional_matrix(violation.profile).counts[0]
        assert tops == (1, 1, 1)

    def test_clr_reduced_quota_witness_at_nine_voters(self):
        """Below CLR's k = 3 quota the first witness needs n = 9 (share 5/9);
        acceptance criterion 7's strict xfail shows there is none at n <= 8."""
        budget = SearchBudget(max_voters=9)
        found = exhaustive_criterion_search("clr", 4, 3, F(5, 9) - F(1, 20), budget)
        assert (found.profile.n, found.support) == (9, 5)
        assert found.winners == {0, 1, 2, 3}
        assert found.profile == Profile.from_names(
            "abcd",
            [(1, "abcd"), (1, "bcad"), (3, "cabd"), (2, "dabc"), (2, "dbca")],
        )

    def test_irv_clean_at_half(self):
        budget = SearchBudget(max_voters=12)
        assert exhaustive_criterion_search("irv", 3, 2, F(1, 2), budget) is None

    def test_worker_determinism(self):
        serial = SearchBudget(max_voters=7, workers=1)
        parallel = SearchBudget(max_voters=7, workers=2)
        a = exhaustive_criterion_search("plurality", 3, 2, F(3, 5), serial)
        b = exhaustive_criterion_search("plurality", 3, 2, F(3, 5), parallel)
        assert a.profile == b.profile and a.support == b.support
        ea = max_violation("black", 3, 2, serial)
        eb = max_violation("black", 3, 2, parallel)
        assert ea[0] == eb[0] and ea[1].profile == eb[1].profile
        # an m = 4 witness found through the orbit-reduced search
        a = exhaustive_criterion_search("convexmedian", 4, 2, F(11, 20), serial)
        b = exhaustive_criterion_search("convexmedian", 4, 2, F(11, 20), parallel)
        assert a.profile == b.profile and a.support == b.support
        assert a.winners == b.winners
        assert (a.profile.n, a.support) == (7, 4)

    def test_empirical_quota_plurality(self):
        budget = SearchBudget(max_voters=12)
        share, witness = max_violation("plurality", 3, 2, budget)
        assert share == F(2, 3)
        assert witness.profile.n == 3
        assert empirical_quota("plurality", 3, 2, budget) == F(2, 3)

    def test_empirical_quota_irv_bounded(self):
        budget = SearchBudget(max_voters=8)
        assert empirical_quota("irv", 3, 2, budget) <= F(1, 2)

    def test_t12rule_empirical_quotas(self):
        """t12rule has no closed-form quota; the paper leaves its per-m quota
        open.  The largest violating shares the exhaustive search finds, up
        to 11 voters at m = 3 and 7 at m = 4, are lower bounds on its
        quotas, not the quotas: 1/2 for k = 1, 6/11 for m = 3, k = 2 (first
        at 11 voters; 31 voters give 17/31), and 4/7 for m = 4, k = 2 and 3
        (first at 7 voters).  Each is at most tradeoff_threshold(k) =
        2k/(3k+1): 1/2 reaches it at k = 1 and 4/7 at k = 2, while 6/11
        (k = 2) and 4/7 (k = 3) stay below."""
        table = {
            (m, k): empirical_quota("t12rule", m, k, SearchBudget(max_voters=n))
            for m, n in ((3, 11), (4, 7))
            for k in range(1, m)
        }
        assert table == {
            (3, 1): F(1, 2), (3, 2): F(6, 11),
            (4, 1): F(1, 2), (4, 2): F(4, 7), (4, 3): F(4, 7),
        }
        for (m, k), share in table.items():
            assert exact(share) <= tradeoff_threshold(k).value, (m, k)
        reached = {
            (m, k) for (m, k), share in table.items()
            if exact(share) == tradeoff_threshold(k).value
        }
        assert reached == {(3, 1), (4, 1), (4, 2)}

    def test_t12rule_m3_k2_grows_past_six_elevenths(self):
        """Up to 31 voters t12rule's largest violating share at m = 3, k = 2
        is 17/31, above the 6/11 found up to 11 voters and still below
        tradeoff_threshold(2) = 4/7.  Its witness elects a and c, which tie
        at the least tradeoff depth and neither dominates the other."""
        share, witness = max_violation("t12rule", 3, 2, SearchBudget(max_voters=31))
        assert share == F(17, 31)
        assert witness.profile.ballots == (
            (8, (0, 1, 2)), (9, (1, 0, 2)), (8, (2, 0, 1)), (6, (2, 1, 0)),
        )
        assert witness.support == 17 and set(witness.winners) == {0, 2}
        assert report("t12rule", witness.profile).trace == {"score_argmin": [0, 2]}

    def test_six_candidates_take_only_a_voter_budget(self):
        """A search is bounded by its voter count alone: at m = 6 two voters
        with different first choices, one of them in B = {a, b}, already
        escape a 1/3 quota."""
        found = exhaustive_criterion_search(
            "plurality", 6, 2, F(1, 3), SearchBudget(max_voters=2)
        )
        assert (found.profile.n, found.support) == (2, 1)
        assert found.profile.labels(found.winners) == ("a", "c")


class TestSettledSlices:
    @pytest.mark.parametrize("rule_id, m, k, max_voters", [
        pytest.param("irv", 3, 1, 12, id="irv-1"),
        pytest.param("plurality", 3, 1, 12, id="plurality-1"),
        pytest.param("runoff", 3, 2, 12, id="runoff-2"),
        pytest.param("young", 3, 2, 12, id="young-2"),
        pytest.param("irv", 4, 2, 8, id="irv-m4-2"),
    ])
    def test_majority_slices_are_never_dispatched(self, monkeypatch, rule_id, m, k, max_voters):
        """At a k where the rule's record declares mutual majority, here k
        = 1 for a rule with a winner screen, k = m - 1 and k = 2, the search
        loop hands `_min_violation` no slice with more than half the voters
        ranking B on top, and still hands it those with exactly half."""
        dispatched = []
        evaluate = search._min_violation

        def counted(args):
            dispatched.append(args)
            return evaluate(args)

        monkeypatch.setattr(search, "_min_violation", counted)
        budget = SearchBudget(max_voters=max_voters)
        assert empirical_quota(rule_id, m, k, budget) == F(1, 2)
        assert exhaustive_criterion_search(rule_id, m, k, F(2, 5), budget) is not None
        assert exhaustive_criterion_search(rule_id, m, k, F(1, 2), budget) is None
        assert all(2 * s <= n for *_, n, s in dispatched)
        assert any(2 * s == n for *_, n, s in dispatched)


class TestEnumeration:
    def test_profile_counts(self):
        assert sum(1 for _ in all_profiles(2, 3)) == 2 + 3 + 4
        # m=3: compositions of n over 6 types
        assert sum(1 for _ in all_profiles(3, 2)) == 6 + 21

    def test_minimal_n_first(self):
        sizes = [p.n for p in all_profiles(2, 4)]
        assert sizes == sorted(sizes)


class TestBudget:
    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("VOTELAB_MAX_VOTERS", "5")
        assert SearchBudget.default(max_voters=12).max_voters == 5
        assert SearchBudget.default(max_voters=3).max_voters == 3
        monkeypatch.delenv("VOTELAB_MAX_VOTERS")
        assert SearchBudget.default(max_voters=12).max_voters == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_voters=0)
        with pytest.raises(ValueError):
            SearchBudget(workers=0)

    @pytest.mark.parametrize(
        "field, value",
        [("max_voters", 2.5), ("workers", 1.5), ("max_voters", True),
         ("workers", True), ("workers", "2")],
    )
    def test_refuses_non_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            SearchBudget(**{field: value})

    def test_pool_has_at_most_one_process_per_cpu(self, monkeypatch):
        """The pool starts all of its processes at once, so a large worker
        count is cut to the CPU count; this fake pool starts none."""
        import concurrent.futures
        import os

        requested = []

        class SerialPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def map(self, fn, items):
                return map(fn, items)

            def shutdown(self):
                pass

        serial = max_violation("plurality", 3, 1, SearchBudget(max_voters=4))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        budget = SearchBudget(max_voters=4, workers=10**6)
        assert max_violation("plurality", 3, 1, budget) == serial
        assert requested == [3]

    @pytest.mark.parametrize("m, k", [(8, 4), (9, 1)])
    def test_refuses_more_than_seven_candidates(self, monkeypatch, m, k):
        """Past m = 7 the orbit tables would need tens of millions of
        entries, so the query is refused before any is built."""
        from votelab import search

        def no_tables(m, k):
            raise AssertionError("orbit tables built")

        monkeypatch.setattr(search, "_tables", no_tables)
        budget = SearchBudget(max_voters=1)
        with pytest.raises(ValueError, match="m <= 7.*entries"):
            max_violation("plurality", m, k, budget)
        with pytest.raises(ValueError, match="m <= 7.*entries"):
            exhaustive_criterion_search("plurality", m, k, F(1, 2), budget)
