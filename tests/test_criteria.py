import random
from fractions import Fraction

import pytest

from votelab import (
    ExactNumber,
    Profile,
    Quota,
    all_profiles,
    check_qk_majority,
    check_ql_veto,
    exact,
    mutual_majority_groups,
    mutual_minority_groups,
    quota_majority,
    quota_majority_sup,
    quota_veto_sup,
    random_profile,
    second_order_dominance,
    tradeoff_threshold,
)
from votelab import criteria
from votelab.criteria import TRADEOFF_THRESHOLD_SUP, scoring_majority_loser_ok
from votelab.rules import RULE_IDS, ScoreVector, scoring_rule_quota, winners

F = Fraction


class TestMutualMajorityGroups:
    def test_primary_five_k3(self, primary_five):
        groups = dict(mutual_majority_groups(primary_five, 3))
        key = frozenset(
            primary_five.candidates.index(x) for x in ("Bernie", "John", "Ted")
        )
        assert groups[key] == 57

    def test_four_bloc_k2(self, four_bloc):
        groups = dict(mutual_majority_groups(four_bloc, 2))
        assert groups == {frozenset({0, 1}): 57, frozenset({2, 3}): 43}

    def test_unanimous(self):
        p = Profile.from_names("abcd", [(6, "cbda")])
        for k in (1, 2, 3):
            ((b_set, support),) = mutual_majority_groups(p, k)
            assert support == 6 and len(b_set) == k

    def test_k_range_checked(self, four_bloc):
        with pytest.raises(ValueError):
            mutual_majority_groups(four_bloc, 0)
        with pytest.raises(ValueError):
            mutual_majority_groups(four_bloc, 4)


class TestCheckMajority:
    def test_plurality_fails_on_primary_five(self, primary_five):
        violation = check_qk_majority("plurality", primary_five, F(1, 2), 3)
        assert violation is not None
        assert set(primary_five.labels(violation.b_set)) == {"Bernie", "John", "Ted"}
        assert set(primary_five.labels(violation.winners)) == {"Hillary"}
        assert violation.support == 57

    def test_irv_passes_on_primary_five(self, primary_five):
        assert check_qk_majority("irv", primary_five, F(1, 2), 3) is None

    def test_vacuous_pass_without_qualified_group(self, cycle3):
        assert check_qk_majority("plurality", cycle3, F(1, 2), 2) is None

    def test_monotone_in_q(self, four_bloc):
        # borda fails the (1/2,2,4)-criterion here but passes at 3/5 (support 57)
        assert check_qk_majority("borda", four_bloc, F(1, 2), 2) is not None
        assert check_qk_majority("borda", four_bloc, F(3, 5), 2) is None

    def test_invalid_q(self, four_bloc):
        for bad in (F(0), F(1), F(3, 2)):
            with pytest.raises(ValueError):
                check_qk_majority("plurality", four_bloc, bad, 2)


class TestCheckVeto:
    def test_plurality_elects_majority_loser(self, primary_five):
        violation = check_ql_veto("plurality", primary_five, F(1, 2), 1)
        assert violation is not None
        assert set(primary_five.labels(violation.vetoed)) == {"Hillary"}
        assert violation.support == 58

    def test_irv_respects_veto(self, primary_five):
        assert check_ql_veto("irv", primary_five, F(1, 2), 2) is None

    def test_duality_with_majority_check(self):
        rng = random.Random(11)
        rules = ["plurality", "borda", "irv", "simpson", "black", "antiplurality"]
        for _ in range(60):
            m = rng.randint(2, 4)
            p = random_profile(rng, m, rng.randint(1, 8))
            l = rng.randint(1, m - 1)
            q = F(rng.randint(1, 9), 10)
            rule = rng.choice(rules)
            veto = check_ql_veto(rule, p, q, l)
            maj = check_qk_majority(rule, p, q, m - l)
            assert (veto is None) == (maj is None)
            if veto is not None:
                # the veto witness, read as a top-ranked complement, is a
                # valid majority-criterion violation in its own right
                assert veto.b_set == frozenset(range(m)) - veto.vetoed
                assert not veto.winners <= veto.b_set
                assert maj.support * 1 > q * p.n


class TestLazyWinners:
    """The checks compute a rule's winners only when some group's support
    clears the quota, and answer as if they had computed them first."""

    @staticmethod
    def eager(won, groups, q, n, veto):
        """The first qualifying group the winners violate, with its support."""
        for group, support in groups:
            if support > q * n and (won & group if veto else not won <= group):
                return group, support
        return None

    def test_results_equal_eager_evaluation(self, monkeypatch):
        cached, calls = {}, []

        def counted(rule_id, p):
            calls.append((rule_id, p))
            if (rule_id, p) not in cached:
                cached[rule_id, p] = winners(rule_id, p)
            return cached[rule_id, p]

        monkeypatch.setattr(criteria, "rule_winners", counted)
        universe = frozenset(range(3))
        for p in all_profiles(3, 6):
            for rule_id in list(RULE_IDS) + ["scoring:5,2,0"]:
                won = winners(rule_id, p)
                for size in (1, 2):
                    majority = mutual_majority_groups(p, size)
                    minority = mutual_minority_groups(p, size)
                    for q in (F(1, 3), F(1, 2), F(2, 3)):
                        calls.clear()
                        got = check_qk_majority(rule_id, p, q, size)
                        expected = self.eager(won, majority, q, p.n, veto=False)
                        assert (got and (got.b_set, got.support)) == expected, (rule_id, p)
                        assert got is None or got.winners == won
                        qualifies = any(support > q * p.n for _, support in majority)
                        assert len(calls) == qualifies, (rule_id, p, q)
                        calls.clear()
                        got = check_ql_veto(rule_id, p, q, size)
                        expected = self.eager(won, minority, q, p.n, veto=True)
                        assert (got and (got.vetoed, got.support)) == expected, (rule_id, p)
                        assert got is None or got.b_set == universe - got.vetoed
                        qualifies = any(support > q * p.n for _, support in minority)
                        assert len(calls) == qualifies, (rule_id, p, q)

    def test_bad_ids_raise_without_a_qualifying_group(self, cycle3):
        for check in (check_qk_majority, check_ql_veto):
            assert check("plurality", cycle3, F(1, 2), 1) is None
            with pytest.raises(ValueError, match="unknown rule id"):
                check("nosuchrule", cycle3, F(1, 2), 1)
            with pytest.raises(ValueError, match="2 weights for m=3"):
                check("scoring:1,0", cycle3, F(1, 2), 1)


class TestDominance:
    def test_four_bloc_pairs(self, four_bloc):
        dom = second_order_dominance(four_bloc)
        c, a, b = 2, 0, 1
        assert (c, a) in dom and (c, b) in dom

    def test_unanimous_top_dominates(self):
        p = Profile.from_names("abc", [(4, "bca")])
        dom = second_order_dominance(p)
        assert (1, 2) in dom and (1, 0) in dom and (2, 0) in dom

    def test_cycle_empty(self, cycle3):
        assert second_order_dominance(cycle3) == set()

    def test_strict_partial_order(self):
        rng = random.Random(3)
        for _ in range(80):
            p = random_profile(rng, rng.randint(2, 4), rng.randint(1, 8))
            dom = second_order_dominance(p)
            for a, b in dom:
                assert a != b
                assert (b, a) not in dom
                for c, d in dom:
                    if b == c:
                        assert (a, d) in dom


class TestQuotaMajority:
    def test_table4_values(self):
        expected = {
            ("irv", 1, 3): F(1, 2),
            ("clr", 2, 3): F(1, 2),
            ("clr", 3, 4): F(5, 9),
            ("convexmedian", 2, 3): F(1, 2),
            ("runoff", 2, 4): F(1, 2),
            ("simpson", 3, 4): F(2, 3),
            ("young", 3, 4): F(2, 3),
            ("plurality", 2, 4): F(2, 3),
            ("plurality", 3, 4): F(3, 4),
            ("black", 2, 4): F(5, 8),
            ("black", 3, 4): F(1, 2),
            ("vetocore", 1, 3): F(2, 3),
            ("vetocore", 2, 4): F(1, 2),
            ("vetocore", 3, 4): F(1, 4),
            ("borda", 1, 3): F(2, 3),
            ("borda", 2, 4): F(5, 8),
            ("antiplurality", 2, 3): F(1, 3),
            ("antiplurality", 2, 4): F(1),
            ("antiplurality", 3, 4): F(1, 4),
        }
        for (rule, k, m), value in expected.items():
            assert quota_majority(rule, k, m).value == value, (rule, k, m)

    def test_convex_median_irrational_cell(self):
        q = quota_majority("convexmedian", 2, 4)
        assert q.value == ExactNumber(-1, 1, 33, 8)
        assert q.value.decimal() == "0.593"

    def test_dodgson_interval(self):
        q = quota_majority("dodgson", 2, 4)
        assert q.is_interval and not q.attainable
        assert (q.lo, q.hi) == (F(1, 2), F(2, 3))
        point = quota_majority("dodgson", 1, 3)
        assert not point.is_interval and point.lo == F(1, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            quota_majority("plurality", 3, 3)
        with pytest.raises(ValueError):
            quota_majority("nosuchrule", 1, 3)
        with pytest.raises(ValueError):
            quota_majority("t12rule", 1, 3)

    def test_scoring_vector_rule(self):
        assert quota_majority("scoring:1,0,0", 2, 3).value == F(2, 3)
        assert quota_majority("scoring:3,2,1,0", 2, 4).value == F(5, 8)


class TestQuotaSup:
    def test_table3_columns(self):
        rows = {
            "irv": [F(1, 2)] * 4,
            "convexmedian": [F(1, 2), F(5, 8), F(2, 3), F(11, 16)],
            "runoff": [F(1, 2), F(1, 2), F(3, 5), F(2, 3)],
            "simpson": [F(1, 2), F(1, 2), F(2, 3), F(3, 4)],
            "young": [F(1, 2), F(1, 2), F(2, 3), F(3, 4)],
            "plurality": [F(1, 2), F(2, 3), F(3, 4), F(4, 5)],
            "black": [F(1, 2), F(1), F(1), F(1)],
            "vetocore": [F(1)] * 4,
            "borda": [F(1)] * 4,
            "antiplurality": [F(1)] * 4,
        }
        for rule, cells in rows.items():
            for k, value in enumerate(cells, start=1):
                assert quota_majority_sup(rule, k).value == value, (rule, k)
        assert quota_majority_sup("clr", 2).value == F(1, 2)
        assert quota_majority_sup("clr", 4).value == F(9, 16)
        assert quota_majority_sup("clr", 1).value == F(1, 2)
        assert quota_majority_sup("clr", 3).value == F(5, 9)

    def test_sup_dominates_each_m(self):
        for rule in ("plurality", "simpson", "black", "borda", "convexmedian",
                     "runoff", "clr", "vetocore", "antiplurality"):
            for k in (1, 2, 3):
                sup = quota_majority_sup(rule, k).value
                for m in range(k + 1, k + 8):
                    assert exact(quota_majority(rule, k, m).value) <= exact(sup)


class TestQuotaVeto:
    def test_table5_values(self):
        rows = {
            "irv": [F(1, 2)] * 4,
            "clr": [F(5, 8)] * 4,
            "black": [F(1, 2), F(5, 8), F(7, 10), F(3, 4)],
            "vetocore": [F(1, 3), F(2, 3), F(3, 4), F(4, 5)],
            "borda": [F(1, 2), F(2, 3), F(3, 4), F(4, 5)],
            "antiplurality": [F(1, 3), F(1), F(1), F(1)],
            "runoff": [F(1, 2), F(1), F(1), F(1)],
            "simpson": [F(1)] * 4,
            "young": [F(1)] * 4,
            "plurality": [F(1)] * 4,
        }
        for rule, cells in rows.items():
            for l, value in enumerate(cells, start=1):
                assert quota_veto_sup(rule, l).value == value, (rule, l)
        cm = [F(1, 2), ExactNumber(-1, 1, 33, 8), ExactNumber(1, 1, 17, 8), F(2, 3)]
        for l, value in enumerate(cm, start=1):
            assert quota_veto_sup("convexmedian", l).value == value

    def test_table6_values(self):
        rows = {
            "vetocore": [F(1, 3), F(1, 2), F(1, 2), F(1, 2)],
            "irv": [F(1, 2)] * 4,
            "clr": [F(5, 8)] * 4,
            "black": [F(1, 2), F(5, 8), F(2, 3), F(11, 16)],
            "borda": [F(1, 2), F(5, 8), F(2, 3), F(11, 16)],
            "antiplurality": [F(1, 3), F(1), F(1), F(1)],
        }
        for rule, cells in rows.items():
            for l, value in enumerate(cells, start=1):
                assert quota_veto_sup(rule, l, half_restricted=True).value == value

    def test_half_restricted_cm_closed_form(self):
        for l in range(2, 9):
            got = quota_veto_sup("convexmedian", l, half_restricted=True).value
            assert got == ExactNumber(3 * l - 7, 1, 9 * l * l - 10 * l + 17, 8 * l - 8)

    def test_veto_sup_covers_scanned_range(self):
        # the closed forms must dominate the per-m duality values
        for rule in ("black", "borda", "vetocore", "convexmedian", "clr",
                     "antiplurality", "runoff"):
            for l in (1, 2, 3, 4):
                for half in (False, True):
                    sup = quota_veto_sup(rule, l, half).value
                    start = max(l + 1, 3, 2 * l if half else 3)
                    for m in range(start, l + 10):
                        per_m = quota_majority(rule, m - l, m).value
                        assert exact(per_m) <= exact(sup), (rule, l, half, m)


class TestScoringTheorems:
    def test_specializations(self):
        for m in range(3, 8):
            for k in range(1, m):
                plur = scoring_rule_quota(ScoreVector.plurality(m), k)
                assert plur == quota_majority("plurality", k, m).value
                borda = scoring_rule_quota(ScoreVector.borda(m), k)
                assert borda == F(2 * m - k - 1, 2 * m)
                anti = scoring_rule_quota(ScoreVector.antiplurality(m), k)
                assert anti == (F(1, m) if k == m - 1 else F(1))

    def test_majority_loser_inequality(self):
        for m in range(3, 7):
            assert scoring_majority_loser_ok(ScoreVector.borda(m))
            assert not scoring_majority_loser_ok(ScoreVector.plurality(m))
            # equivalent to the veto quota at l=1 being at most 1/2
            assert scoring_rule_quota(ScoreVector.borda(m), m - 1) <= F(1, 2)
            assert scoring_rule_quota(ScoreVector.plurality(m), m - 1) > F(1, 2)


class TestTradeoffThreshold:
    def test_formula(self):
        assert tradeoff_threshold(1).value == F(1, 2)
        assert tradeoff_threshold(2).value == F(4, 7)
        assert TRADEOFF_THRESHOLD_SUP == F(2, 3)
        assert exact(TRADEOFF_THRESHOLD_SUP).decimal() == "0.667"
        with pytest.raises(ValueError):
            tradeoff_threshold(0)


class TestQuotaType:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Quota.point(F(3, 2))
        with pytest.raises(ValueError):
            Quota(exact(F(2, 3)), exact(F(1, 2)))

    def test_render(self):
        assert Quota.point(F(5, 8)).render() == "5/8 ~ 0.625"
        assert "0.500" in Quota.interval(F(1, 2), F(2, 3)).render()
