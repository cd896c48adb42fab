"""Acceptance suite: one test per criterion, each printing a PASS line.

Every tolerance and runtime bound is stated inline.  Searches are exact and
deterministic; no tolerance is ever loosened at runtime.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import votelab as v
from votelab import ExactNumber, exact
from votelab.tables import emit_table, table_data

F = Fraction
GOLDEN = Path(__file__).parent / "golden"

TEN_RULES = (
    "plurality",
    "runoff",
    "irv",
    "borda",
    "antiplurality",
    "simpson",
    "clr",
    "black",
    "convexmedian",
    "vetocore",
)


def _elapsed(t0):
    return time.monotonic() - t0


def _stamp(num, detail, t0, limit):
    took = _elapsed(t0)
    assert took < limit, f"criterion {num} exceeded its {limit}s budget ({took:.1f}s)"
    print(f"ACCEPTANCE {num}: PASS ({detail}, {took:.1f}s < {limit}s)")


@pytest.fixture(scope="module")
def primary_five():
    names = ["Hillary", "Donald", "John", "Ted", "Bernie"]
    return v.Profile.from_names(
        names,
        [
            (22, ["Hillary", "John", "Bernie", "Ted", "Donald"]),
            (21, ["Donald", "John", "Ted", "Bernie", "Hillary"]),
            (18, ["John", "Ted", "Bernie", "Donald", "Hillary"]),
            (19, ["Ted", "Bernie", "John", "Donald", "Hillary"]),
            (20, ["Bernie", "John", "Ted", "Hillary", "Donald"]),
        ],
    )


@pytest.fixture(scope="module")
def four_bloc():
    return v.Profile.from_names(
        "abcd", [(29, "abcd"), (28, "bacd"), (22, "cdab"), (21, "cdba")]
    )


def test_criterion_01_majority_power_table(tmp_path):
    t0 = time.monotonic()
    data = table_data(3)
    cells = {(label, i + 1): q for label, row, _, _ in data.rows for i, q in enumerate(row)}

    def cell(label, k):
        return cells[(label, k)].value

    for k in range(1, 5):
        assert cell("irv", k) == F(1, 2)
        assert cell("plurality", k) == F(k, k + 1)
        assert cell("convexmedian", k) == F(3 * k - 1, 4 * k) if k > 1 else F(1, 2)
        assert cell("simpson", k) == (F(1, 2) if k == 1 else F(k - 1, k))
        assert cell("young", k) == cell("simpson", k)
        assert cell("black", k) == (F(1, 2) if k == 1 else F(1))
        for flat in ("vetocore", "borda", "antiplurality"):
            assert cell(flat, k) == F(1)
    for k in (2, 4):
        assert cells[("clr (even k)", k)].value == F(5 * k - 2, 8 * k)
        assert cells[("clr (odd k)", k)] is None
    for k in (1, 3):
        assert cells[("clr (odd k)", k)].value == F(5 * k * k - 2 * k + 1, 8 * k * k)
        assert cells[("clr (even k)", k)] is None
    assert cell("runoff", 1) == cell("runoff", 2) == F(1, 2)
    assert cell("runoff", 3) == F(3, 5) and cell("runoff", 4) == F(2, 3)
    sup = {label: s.value for label, _, _, s in data.rows}
    assert sup["irv"] == F(1, 2)
    assert sup["clr (even k)"] == sup["clr (odd k)"] == F(5, 8)
    assert sup["convexmedian"] == F(3, 4)
    for one in ("runoff", "simpson", "young", "plurality", "black",
                "vetocore", "borda", "antiplurality"):
        assert sup[one] == F(1)
    rendered = emit_table(3)
    assert rendered == (GOLDEN / "table3.txt").read_text()
    assert "0.563" in rendered  # 9/16 printed to 3 places
    _stamp(1, "table 3 exact + golden rendering", t0, 1.0)


def test_criterion_02_per_m_table():
    t0 = time.monotonic()
    data = table_data(4)
    rows = {label: row for label, row, _, _ in data.rows}
    combos = ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3))
    expected = {
        "irv": [F(1, 2)] * 5,
        "clr": [F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(5, 9)],
        "convexmedian": [F(1, 2), F(1, 2), F(1, 2), None, F(1, 2)],
        "runoff": [F(1, 2)] * 5,
        "simpson": [F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(2, 3)],
        "young": [F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(2, 3)],
        "plurality": [F(1, 2), F(2, 3), F(1, 2), F(2, 3), F(3, 4)],
        "black": [F(1, 2), F(1, 2), F(1, 2), F(5, 8), F(1, 2)],
        "vetocore": [F(2, 3), F(1, 3), F(3, 4), F(1, 2), F(1, 4)],
        "borda": [F(2, 3), F(1, 2), F(3, 4), F(5, 8), F(1, 2)],
        "antiplurality": [F(1), F(1, 3), F(1), F(1), F(1, 4)],
    }
    for label, values in expected.items():
        for i, value in enumerate(values):
            got = rows[label][i].value
            if value is None:
                continue
            assert got == value, (label, combos[i])
            assert got.is_rational
    irrational = rows["convexmedian"][3].value
    assert irrational == ExactNumber(-1, 1, 33, 8)
    assert irrational.decimal() == "0.593"
    # the root solves 8q^2 + 2q - 4 = 0 within (1/2, 5/8)
    assert irrational * irrational * 8 + irrational * 2 - 4 == 0
    assert emit_table(4) == (GOLDEN / "table4.txt").read_text()
    _stamp(2, "table 4 exact incl. quadratic cell", t0, 1.0)


def test_criterion_03_veto_tables():
    t0 = time.monotonic()
    for which in (5, 6):
        assert emit_table(which) == (GOLDEN / f"table{which}.txt").read_text()
    data5 = {label: row for label, row, _, _ in table_data(5).rows}
    data6 = {label: row for label, row, _, _ in table_data(6).rows}
    assert [q.value for q in data5["irv"]] == [F(1, 2)] * 4
    assert [q.value for q in data5["clr"]] == [F(5, 8)] * 4
    assert [q.value for q in data5["black"]] == [F(1, 2), F(5, 8), F(7, 10), F(3, 4)]
    assert [q.value for q in data5["vetocore"]] == [F(1, 3), F(2, 3), F(3, 4), F(4, 5)]
    assert [q.value for q in data5["borda"]] == [F(1, 2), F(2, 3), F(3, 4), F(4, 5)]
    assert [q.value for q in data5["antiplurality"]] == [F(1, 3), F(1), F(1), F(1)]
    assert [q.value for q in data6["vetocore"]] == [F(1, 3), F(1, 2), F(1, 2), F(1, 2)]
    assert [q.value for q in data6["black"]] == [F(1, 2), F(5, 8), F(2, 3), F(11, 16)]
    assert data5["convexmedian"][1].value == ExactNumber(-1, 1, 33, 8)
    assert data5["convexmedian"][2].value == ExactNumber(1, 1, 17, 8)
    for l in range(4, 9):
        closed = ExactNumber(3 * l - 7, 1, 9 * l * l - 10 * l + 17, 8 * l - 8)
        assert v.quota_veto_sup("convexmedian", l, half_restricted=True).value == closed
    _stamp(3, "tables 5-6 exact + CM closed form l>3", t0, 1.0)


def test_criterion_04_worked_example_winners(primary_five, four_bloc):
    t0 = time.monotonic()
    labels5 = lambda cs: set(primary_five.labels(cs))
    assert labels5(v.winners("plurality", primary_five)) == {"Hillary"}
    assert labels5(v.winners("runoff", primary_five)) == {"Donald"}
    irv = v.report("irv", primary_five)
    assert labels5(irv.winners) == {"Ted"}
    order = [primary_five.label(r["eliminated"][0]) for r in irv.trace["rounds"]]
    assert order == ["John", "Bernie", "Donald", "Hillary"]

    assert four_bloc.label(v.condorcet_winner(four_bloc)) == "a"
    for rule in ("black", "simpson", "young", "dodgson", "clr"):
        assert set(four_bloc.labels(v.winners(rule, four_bloc))) == {"a"}, rule
    assert set(four_bloc.labels(v.winners("plurality", four_bloc))) == {"c"}
    borda = v.report("borda", four_bloc)
    assert set(four_bloc.labels(borda.winners)) == {"c"}
    assert [borda.scores[a] for a in range(4)] == [165, 163, 186, 86]
    tm = v.tournament_matrix(four_bloc)
    assert tm.h == (
        (0, 51, 57, 57),
        (49, 0, 57, 57),
        (43, 43, 0, 100),
        (43, 43, 0, 0),
    )
    pos = v.positional_matrix(four_bloc)
    assert pos.counts == (
        (29, 28, 43, 0),
        (28, 29, 0, 43),
        (22, 21, 57, 0),
        (21, 22, 0, 57),
    )
    _stamp(4, "both worked-example profiles, exact equality", t0, 1.0)


def test_criterion_05_positional_dominance_instance(four_bloc):
    t0 = time.monotonic()
    dom = v.second_order_dominance(four_bloc)
    c, a, b = 2, 0, 1
    assert (c, a) in dom and (c, b) in dom
    # the 57% mutual majority for {a, b} coexists with c dominating both
    groups = dict(v.mutual_majority_groups(four_bloc, 2))
    assert groups[frozenset({a, b})] == 57
    _stamp(5, "dominated mutual-majority instance", t0, 1.0)


def test_criterion_06_tightness_m3():
    t0 = time.monotonic()
    budget = v.SearchBudget(max_voters=12)
    for rule in TEN_RULES:
        for k in (1, 2):
            quota = v.quota_majority(rule, k, 3).value
            found = v.exhaustive_criterion_search(rule, 3, k, quota, budget)
            assert found is None, (rule, k, found)
            share = v.empirical_quota(rule, 3, k, budget)
            assert exact(share) <= exact(quota), (rule, k)
            assert exact(quota) - share <= exact(F(1, 12)), (rule, k, share)
    assert v.empirical_quota("plurality", 3, 2, budget) == F(2, 3)
    _stamp(6, "10 rules x k in {1,2}, n <= 12 exhaustive", t0, 300.0)


@pytest.fixture(scope="module")
def m4_searches():
    budget = v.SearchBudget(max_voters=8)
    quotas = {
        "black": (2, exact(F(5, 8))),
        "convexmedian": (2, ExactNumber(-1, 1, 33, 8)),
        "simpson": (3, exact(F(2, 3))),
        "clr": (3, exact(F(5, 9))),
    }
    t0 = time.monotonic()
    at_quota = {}
    reduced = {}
    for rule, (k, q) in quotas.items():
        at_quota[rule] = v.exhaustive_criterion_search(rule, 4, k, q, budget)
        reduced[rule] = v.exhaustive_criterion_search(
            rule, 4, k, q - F(1, 20), budget
        )
    return at_quota, reduced, _elapsed(t0)


def test_criterion_07_m4_spot_checks(m4_searches):
    at_quota, reduced, took = m4_searches
    for rule, result in at_quota.items():
        assert result is None, (rule, result)
    for rule in ("black", "convexmedian", "simpson"):
        assert reduced[rule] is not None, rule
    assert reduced["black"].profile.n == 8 and reduced["black"].support == 5
    assert reduced["convexmedian"].profile.n == 7 and reduced["convexmedian"].support == 4
    assert F(reduced["simpson"].support, reduced["simpson"].profile.n) == F(2, 3)
    assert took < 600.0, f"criterion 7 searches took {took:.0f}s"
    print(f"ACCEPTANCE 7: PASS (m=4 spot checks, {took:.0f}s < 600s; "
          "clr reduced-q expected failure reported separately)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "No profile with n <= 8 can violate the CLR bound at q = 5/9 - 1/20: "
        "violating support shares must lie in (91/180, 5/9] (shares above 5/9 "
        "cannot violate, as the clean at-quota search confirms), and no "
        "fraction with denominator <= 8 falls in that interval — the largest "
        "share <= 5/9 at this scale is 1/2. The smallest attaining witness "
        "needs n = 9 (share 5/9)."
    ),
)
def test_criterion_07_clr_reduced_quota_witness(m4_searches):
    _, reduced, _ = m4_searches
    assert reduced["clr"] is not None


def test_criterion_08_oracle_equivalence():
    t0 = time.monotonic()
    checked = 0
    for profile in v.all_profiles(3, 6):
        for cand in range(3):
            assert v.young_score(profile, cand) == v.oracle_young_score(profile, cand)
            assert v.dodgson_score(profile, cand) == v.oracle_dodgson_score(
                profile, cand
            )
            checked += 1
    rng = random.Random(2024)
    for _ in range(200):
        profile = v.random_profile(rng, 4, rng.randint(1, 8))
        for cand in range(4):
            assert v.young_score(profile, cand) == v.oracle_young_score(profile, cand)
            assert v.dodgson_score(profile, cand) == v.oracle_dodgson_score(
                profile, cand
            )
            checked += 1
    _stamp(8, f"{checked} score comparisons", t0, 300.0)


def test_criterion_09_positional_equals_pairwise_scores():
    t0 = time.monotonic()
    rng = random.Random(9)
    for _ in range(1000):
        profile = v.random_profile(rng, rng.randint(2, 5), rng.randint(1, 30))
        rep = v.report("borda", profile)
        tm = v.tournament_matrix(profile)
        for a in range(profile.m):
            assert rep.scores[a] == sum(
                tm.h[a][b] for b in range(profile.m) if b != a
            )
    _stamp(9, "1000 random profiles", t0, 10.0)


def test_criterion_10_tradeoff_rule():
    t0 = time.monotonic()
    threshold = v.tradeoff_threshold(1).value
    assert threshold == F(1, 2)
    # above the threshold the rule picks from the supported set
    for num in range(51, 100):
        q = F(num, 100)
        profile = v.worst_case_profile(3, 1, q, 100)
        assert v.winners("t12rule", profile) == {0}, q
    for q, n in ((F(3, 5), 5), (F(5, 8), 8), (F(7, 10), 10)):
        profile = v.worst_case_profile(3, 1, q, n)
        assert v.winners("t12rule", profile) == {0}
    # winners are never positionally dominated on the full small enumeration
    for profile in v.all_profiles(3, 8):
        dom = v.second_order_dominance(profile)
        if not dom:
            continue
        dominated = {b for _, b in dom}
        assert not (v.winners("t12rule", profile) & dominated), profile
    # below the threshold the construction makes the outsider dominate B
    low = v.worst_case_profile(3, 1, F(12, 25), 25)
    dom = v.second_order_dominance(low)
    assert (1, 0) in dom  # a1 dominates the single supported candidate
    _stamp(10, "threshold, n <= 8 enumeration, sub-threshold construction", t0, 120.0)


def test_criterion_11_veto_majority_duality():
    t0 = time.monotonic()
    rng = random.Random(1105)
    rules = list(v.RULE_IDS)
    for _ in range(500):
        m = rng.randint(2, 4)
        profile = v.random_profile(rng, m, rng.randint(1, 8))
        l = rng.randint(1, m - 1)
        q = F(rng.randint(1, 19), 20)
        rule = rng.choice(rules)
        veto = v.check_ql_veto(rule, profile, q, l)
        maj = v.check_qk_majority(rule, profile, q, m - l)
        assert (veto is None) == (maj is None), (rule, profile, q, l)
    _stamp(11, "500 seeded random instances", t0, 60.0)
