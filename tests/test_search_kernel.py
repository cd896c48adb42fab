"""Differential tests of the statistic-level rule functions and the search kernel.

The references here are deliberately plain: rules computed on a Profile with
Fraction arithmetic, the brute-force oracles for the rules the search decides
on contour or prefix lanes, and slices enumerated profile by profile with
`profiles_with_support` and `rules.winners`.
"""

import collections
import itertools
import random
from fractions import Fraction

import pytest

from votelab import (
    Profile,
    all_profiles,
    condorcet_winner,
    convex_median_score,
    default_candidates,
    dodgson_score,
    positional_matrix,
    random_profile,
    tournament_matrix,
    tradeoff_score,
    winners,
    young_score,
)
from votelab.rules import (
    RULE_IDS,
    ScoreVector,
    _blocked,
    _blocking_set,
    _convex_median_depth,
    _dodgson_score,
    _dodgson_worst,
    _prefixes,
    _rule,
    _tradeoff_value,
    _young_score,
    integer_truncated_scores,
    parse_score_vector,
    report,
    second_order_dominates,
)
from votelab import search
from votelab.search import (
    _count_vectors,
    _kernel,
    _min_violation,
    _split_types,
    max_violation,
    oracle_dodgson_score,
    oracle_veto_core,
    oracle_young_score,
    parallel_universe_irv,
    rule_winners,
)

from conftest import (
    b_holds_a_majority,
    bound_excludes_outsiders,
    dodgson_worst,
    majority_winner,
    mutual_majority_cells,
    profiles_with_support,
    relabel_profile,
    score_gap_excludes_outsiders,
    veto_blocks_outsiders,
)

F = Fraction
TALLY_RULES = (
    "plurality", "runoff", "borda", "antiplurality", "simpson", "clr", "black",
    "convexmedian", "t12rule",
)
BALLOT_RULES = ("irv", "young", "dodgson", "vetocore")  # decided on contour or prefix lanes
LAYOUTS = dict.fromkeys(("simpson", "clr", "black"))
LAYOUTS.update(dict.fromkeys(("irv", "young", "vetocore"), "contours"), dodgson="prefixes")
CONDORCET_RULES = ("simpson", "young", "dodgson", "clr", "black")
MAJORITY_RULES = ("plurality", "runoff", "irv", "convexmedian", "t12rule")
SCORING = {3: "scoring:5,2,0", 4: "scoring:6,3,1,0", 5: "scoring:9,4,3,1,0"}
CONDORCET_LOSER_RULES = ("irv", "runoff", "borda", "black")  # never elect a strict Condorcet loser
# least value wins; values rise as it falls
BOUND_RULES = ("convexmedian", "t12rule", "young", "dodgson")
FIXED_VECTORS = {
    "plurality": ScoreVector.plurality,
    "borda": ScoreVector.borda,
    "antiplurality": ScoreVector.antiplurality,
}


def _best(scores, better):
    top = scores[0]
    for v in scores[1:]:
        if better(v, top):
            top = v
    return {a for a, v in enumerate(scores) if v == top}


def _convex_median_score(pos, n, m, a):
    """Largest t with B_t(a) <= t n / 2, B_t piecewise linear in t."""
    col = [pos[l][a] for l in range(m)]
    for j in itertools.count(1):  # on [j, j + 1], B_t = const + t * inside
        top = col[: j + 1]  # voters ranking a in the top j + 1 positions
        inside = sum(top)
        const = -sum(i * x for i, x in enumerate(top))
        if 2 * (const + (j + 1) * inside) > n * (j + 1):
            return F(-2 * const, 2 * inside - n)


def reference_winners(rule_id, p):
    """Winners of a tally-based rule, computed on the Profile with Fractions."""
    m, n = p.m, p.n
    h = tournament_matrix(p).h
    pos = positional_matrix(p).counts
    others = [[b for b in range(m) if b != a] for a in range(m)]
    if rule_id in FIXED_VECTORS or rule_id.startswith("scoring:"):
        if rule_id in FIXED_VECTORS:
            vec = FIXED_VECTORS[rule_id](m)
        else:
            vec = parse_score_vector(rule_id[len("scoring:"):], m)
        totals = [sum((vec[l] * pos[l][a] for l in range(m)), F(0)) for a in range(m)]
        return _best(totals, lambda x, y: x > y)
    if rule_id == "runoff":
        top = list(pos[0])
        first = max(top)
        leaders = [a for a in range(m) if top[a] == first]
        if len(leaders) == 1:
            second = max(top[a] for a in others[leaders[0]])
            finalists = [(leaders[0], y) for y in others[leaders[0]] if top[y] == second]
        else:
            finalists = [(x, y) for x in leaders for y in leaders if x < y]
        won = set()
        for x, y in finalists:
            margin = F(h[x][y]) - F(n, 2)
            won |= {x} if margin > 0 else {y} if margin < 0 else {x, y}
        return won
    if rule_id == "simpson":
        return _best([min(h[a][b] for b in others[a]) for a in range(m)], lambda x, y: x > y)
    if rule_id == "clr":
        deficits = [
            sum((max(F(n, 2) - h[a][b], F(0)) for b in others[a]), F(0)) for a in range(m)
        ]
        return _best(deficits, lambda x, y: x < y)
    if rule_id == "black":
        cw = condorcet_winner(p)
        if cw is not None:
            return {cw}
        borda = [sum((m - 1 - l) * pos[l][a] for l in range(m)) for a in range(m)]
        return _best(borda, lambda x, y: x > y)
    if rule_id == "convexmedian":
        mw = majority_winner(p)
        if mw is not None:
            return {mw}
        return _best([_convex_median_score(pos, n, m, a) for a in range(m)], lambda x, y: x < y)
    if rule_id == "t12rule":
        mw = majority_winner(p)
        if mw is not None:
            return {mw}
        low = _best([tradeoff_score(p, a) for a in range(m)], lambda x, y: x < y)
        bt = {a: integer_truncated_scores(p, a) for a in low}
        return {a for a in low if not any(second_order_dominates(bt[b], bt[a]) for b in low)}
    raise AssertionError(rule_id)


def _counts(p):
    """The count vector of a profile over the search's ballot types."""
    types = search._tables(p.m, 1).types
    index = {r: t for t, r in enumerate(types)}
    counts = [0] * len(types)
    for c, r in p.ballots:
        counts[index[r]] = c
    return counts


def _tally(counts, kernel):
    """The kernel's packed tallies of a count vector."""
    return sum(c * part for c, part in zip(counts, kernel.contrib))


def _decision_cases():
    yield from all_profiles(3, 6)
    rng = random.Random(77)
    for m in (4, 5):
        for _ in range(60):
            yield random_profile(rng, m, rng.randint(1, 12))


def _kernel_answers(kernel, n, tally, **cleared):
    """The kernel's winners, and its winners with the fields named in
    cleared replaced: the winner screen, so that the rest of the kernel is
    checked on every profile, and for the tally rules the per-candidate
    values too, so that the decision is.  The rank columns' values are
    defined only past the majority screen."""
    return (
        set(rule_winners(kernel, n, tally)),
        set(rule_winners(kernel._replace(always_elects=None, **cleared), n, tally)),
    )


def test_statistic_level_functions_match_reference():
    """Each statistic-level function, fed the search's packed tallies, gives
    the winners of rules.winners and of the Fraction reference, screened or
    not."""
    for p in _decision_cases():
        kernel_rules = {rule_id: _kernel(rule_id, p.m, 1, p.n) for rule_id in TALLY_RULES}
        kernel_rules[SCORING[p.m]] = _kernel(SCORING[p.m], p.m, 1, p.n)
        counts = _counts(p)
        for rule_id, kernel in kernel_rules.items():
            expected = reference_winners(rule_id, p)
            assert set(winners(rule_id, p)) == expected, (rule_id, p)
            got = _kernel_answers(kernel, p.n, _tally(counts, kernel), value=None)
            assert got == (expected, expected), (rule_id, p)


def test_wide_lanes_hold_large_counts():
    """Counts above 255 move the packed tallies, and the contour and prefix
    lanes, to two-byte lanes; each candidate's memo key then holds its
    two-byte counts: its rank column, its contour counts c(a, .) or its
    prefix counts.  irv's decision reads the two-byte contour lanes."""
    p = Profile(("a", "b", "c"), ((300, (0, 1, 2)), (200, (1, 2, 0)), (100, (2, 0, 1))))
    kernel = _kernel("clr", 3, 1, p.n)
    assert kernel.lane_format == "H"
    counts = _counts(p)
    assert set(rule_winners(kernel, p.n, _tally(counts, kernel))) == reference_winners("clr", p)
    lane = {a: _contour_lanes(3, a) for a in range(3)}
    contours = {
        sum(c << 16 * lane[a].index(u) for u, c in _contours(p, a)) for a in range(3)
    }
    columns = {sum(c << 16 * l * 3 for l, c in enumerate(col)) for col in _rank_columns(p)}
    order = _prefix_lanes(3)
    prefixes = {
        sum(c << 16 * order.index(u) for u, c in _prefix_counts(p, a)) for a in range(3)
    }
    for rule_id, keys in (
        ("vetocore", contours), ("young", contours), ("dodgson", prefixes),
        ("convexmedian", columns), ("t12rule", columns),
    ):
        kernel = _kernel(rule_id, 3, 1, p.n)._replace(always_elects=None)
        assert kernel.lane_format == "H", rule_id
        memo = {}
        got = rule_winners(kernel, p.n, _tally(counts, kernel), memo)
        assert set(got) == set(winners(rule_id, p))
        assert {~key for key in memo if key < 0} == keys, rule_id
    kernel = _kernel("irv", 3, 1, p.n)._replace(always_elects=None)
    assert kernel.lane_format == "H"
    tally = _tally(counts, kernel)
    assert tally >> 16 * 9 == sum(
        c << 16 * (4 * a + lane[a].index(u)) for a in range(3) for u, c in _contours(p, a)
    )
    assert set(rule_winners(kernel, p.n, tally)) == set(winners("irv", p)) == {0}


def test_every_registered_rule_has_a_kernel_decision():
    """Every rule id, and a scoring: vector, has one decision the kernel
    calls, and packs after the tournament the lanes of its record's
    statistic: none, the rank counts, or per candidate a block of contour
    or prefix lanes, a's block starting ``stride`` lanes after a - 1's.
    The winner screens are the paper's grouping: the Condorcet-consistent
    rules, the majority-consistent ones, and none for the rest.  The loser
    screen, at most one per rule: the veto core's blocking, the score gap
    of every positional rule, which carries its integer weights, and the
    value bounds of convexmedian, t12rule, young and dodgson."""
    assert set(RULE_IDS) == set(TALLY_RULES) | set(BALLOT_RULES)
    for m in (2, 3, 4):
        width = {None: 0, "ranks": m, "contours": 2 ** (m - 1), "prefixes": len(_prefix_lanes(m))}
        for rule_id in RULE_IDS:
            kernel = _kernel(rule_id, m, 1, 1)
            assert callable(kernel.decide), rule_id
            layout = LAYOUTS.get(rule_id, "ranks")
            assert _rule(rule_id, m).stat == layout, rule_id
            assert kernel.tally_bytes == m * m + m * width[layout], rule_id  # one-byte lanes
            assert kernel.stride == (1 if layout == "ranks" else width[layout]), rule_id
            screen = (
                "condorcet" if rule_id in CONDORCET_RULES
                else "majority" if rule_id in MAJORITY_RULES else None
            )
            assert kernel.always_elects == screen, rule_id
            loser = "blocked" if rule_id == "vetocore" else None
            if rule_id in FIXED_VECTORS:
                loser = "score-gap"
                assert kernel.weights == tuple(FIXED_VECTORS[rule_id](m).scores), rule_id
            else:
                assert kernel.weights is None, rule_id
            if rule_id in BOUND_RULES:
                loser = "bound"
            assert kernel.loser_screen == loser, rule_id
    kernel = _kernel(SCORING[3], 3, 1, 1)
    assert (kernel.tally_bytes, kernel.stride, kernel.always_elects) == (18, 1, None)
    assert (kernel.loser_screen, kernel.weights) == ("score-gap", (5, 2, 0))
    assert _kernel("scoring:1/2,1/3,0", 3, 1, 1).weights == (3, 2, 0)
    with pytest.raises(ValueError, match="unknown rule id"):
        _kernel("nosuchrule", 3, 1, 1)
    with pytest.raises(ValueError, match="unknown rule id"):
        max_violation("nosuchrule", 3, 1, search.SearchBudget(max_voters=1))
    with pytest.raises(ValueError, match="3 weights for m=4"):
        max_violation(SCORING[3], 4, 1, search.SearchBudget(max_voters=1))


def test_mutual_majority_records_match_the_table():
    """Each record declares mutual majority at the k the table in conftest
    writes out, at m = 2 to 7, a scoring: id at none; and every rule that
    always elects a strict Condorcet or majority winner alone declares
    k = 1, where B's one member with more than n/2 first places is both."""
    for m in range(2, 8):
        vector = "scoring:" + ",".join(map(str, range(m - 1, -1, -1)))
        for rule_id in list(RULE_IDS) + [vector]:
            rule = _rule(rule_id, m)
            declared = {k for k in range(1, m) if k in rule.mutual_majority(m)}
            assert declared == mutual_majority_cells(rule_id, m), (rule_id, m)
            if rule.always_elects:
                assert 1 in declared, (rule_id, m)


def _strict_winners(p, k=None):
    """The profile's strict Condorcet winner and strict first-place majority
    winner, each None when there is none, counted from its rankings.  Given
    k, only the voters top-ranking B = {0..k-1} are counted, still against
    all n voters: the winners the B part alone shows."""
    n, m = p.n, p.m
    beats = [[0] * m for _ in range(m)]
    first = [0] * m
    for c, r in p.ballots:
        if k is not None and set(r[:k]) != set(range(k)):
            continue
        first[r[0]] += c
        for i, a in enumerate(r):
            for b in r[i + 1 :]:
                beats[a][b] += c
    condorcet = [a for a in range(m) if all(2 * beats[a][b] > n for b in range(m) if b != a)]
    majority = [a for a in range(m) if 2 * first[a] > n]
    return (condorcet or [None])[0], (majority or [None])[0]


def test_winner_screens_never_change_a_winner_set():
    """On every profile with at most 7 voters over 3 candidates or 4 over 4,
    a rule screened for the Condorcet (majority) winner elects it alone
    whenever there is one.  Every other rule elects something else on some
    profile, so no rule could carry a stronger screen than it has."""
    deviates = {}  # rule id -> the kinds of winner it fails to elect alone
    for p in itertools.chain(all_profiles(3, 7), all_profiles(4, 4)):
        strict = dict(zip(("condorcet", "majority"), _strict_winners(p)))
        if strict["condorcet"] is None:
            continue  # a majority winner is a Condorcet winner
        for rule_id in list(RULE_IDS) + [SCORING[p.m]]:
            seen = deviates.setdefault(rule_id.partition(":")[0], set())
            kinds = [kind for kind, w in strict.items() if w is not None and kind not in seen]
            if kinds:  # else this profile can show nothing new
                won = set(winners(rule_id, p))
                seen.update(kind for kind in kinds if won != {strict[kind]})
    both = {"condorcet", "majority"}
    expected = {"condorcet": set(), "majority": {"condorcet"}, None: both}
    for rule_id in RULE_IDS:
        screen = _kernel(rule_id, 3, 1, 1).always_elects
        assert deviates[rule_id] == expected[screen], rule_id
    assert deviates["scoring"] == both


def test_head_screen_winner_wins_every_completion():
    """Wherever the voters top-ranking B = {0..k-1} alone give a candidate
    more than n/2 votes in each of its duels (more than n/2 first places),
    every rule screened for the Condorcet (majority) winner elects that
    candidate alone on the whole profile, and it is in B.  So the search may
    skip every completion of such a B part.  Checked for every k on every
    profile with at most 7 voters over 3 candidates or 4 over 4."""
    screened = {"condorcet": CONDORCET_RULES, "majority": MAJORITY_RULES}
    fired = {kind: 0 for kind in screened}
    for p in itertools.chain(all_profiles(3, 7), all_profiles(4, 4)):
        won = {}  # rule id -> its winners on p, computed once
        for k in range(1, p.m):
            head = dict(zip(screened, _strict_winners(p, k)))
            for kind, rule_ids in screened.items():
                if head[kind] is None:
                    continue
                fired[kind] += 1
                assert head[kind] < k, (p, k)
                for rule_id in rule_ids:
                    if rule_id not in won:
                        won[rule_id] = set(winners(rule_id, p))
                    assert won[rule_id] == {head[kind]}, (rule_id, p, k)
    assert all(fired.values()), fired


def _group(m, k):
    """The candidate permutations fixing B = {0..k-1}: S_k x S_{m-k}."""
    return [
        head + tail
        for head in itertools.permutations(range(k))
        for tail in itertools.permutations(range(k, m))
    ]


def _screened_rules(p, k, vectors):
    """The rules whose loser screen the references in conftest fire for on
    p's B part, mapped to that screen, and where more than half the voters
    rank B on top, each rule the table in conftest declares at k, mapped to
    "mutual-majority" unless a loser screen fires too."""
    fired = {}
    if b_holds_a_majority(p, k):
        fired.update(
            (rule_id, "mutual-majority") for rule_id in RULE_IDS
            if k in mutual_majority_cells(rule_id, p.m)
        )
    for rule_id, vec in vectors.items():
        if score_gap_excludes_outsiders(p, k, vec):
            fired[rule_id] = "score-gap"
    if veto_blocks_outsiders(p, k):
        fired["vetocore"] = "blocked"
    for rule_id in BOUND_RULES:
        if bound_excludes_outsiders(p, k, rule_id):
            fired[rule_id] = "bound"
    return fired


@pytest.mark.parametrize("m, max_voters", [(3, 7), (4, 6)])
def test_loser_screens_hold_on_every_completion(m, max_voters):
    """Wherever the reference of a loser screen fires on a B part, the
    voters ranking B = {0..k-1} on top held to n voters, no completion of
    it to n voters elects a candidate outside B under rules.report, for each
    rule declaring that screen: the score gap of plurality, borda,
    antiplurality and a scoring: vector, the veto core's blocking of every
    outsider and the value bounds of convexmedian, t12rule, young and
    dodgson.  Where more than n/2 voters are in the B part, as in every
    slice the search settles by a declaration, every completion is also
    checked for each rule the table in conftest declares at k; at k = 1
    such a B part shows candidate 0 as the strict majority and Condorcet
    winner.  One B part per orbit of S_k x S_{m-k} is checked,
    as every rule is neutral; the completions are all checked."""
    labels = default_candidates(m)
    vectors = {rule_id: make(m).scores for rule_id, make in FIXED_VECTORS.items()}
    vectors[SCORING[m]] = parse_score_vector(SCORING[m][len("scoring:"):], m).scores
    fired, bounded = collections.Counter(), set()
    for k in range(1, m):
        b_types, o_types = _split_types(m, k)
        group = _group(m, k)
        for n in range(1, max_voters + 1):
            for s in range(1, n + 1):
                for bvec in _count_vectors(s, len(b_types)):
                    head = Profile(labels, tuple((c, b_types[i]) for i, c in enumerate(bvec) if c))
                    if min(relabel_profile(head, g).ballots for g in group) != head.ballots:
                        continue  # not its orbit's smallest
                    # the screens read the B part and n alone
                    filled = Profile(labels, head.ballots + ((n - s, o_types[0]),)) if n > s else head
                    screened = _screened_rules(filled, k, vectors)
                    if k == 1 and 2 * s > n:
                        assert _strict_winners(filled, k) == (0, 0)
                    if not screened:
                        continue
                    fired.update(screened.values())
                    bounded.update(r for r, screen in screened.items() if screen == "bound")
                    for ovec in _count_vectors(n - s, len(o_types)):
                        p = Profile(labels, head.ballots + tuple(
                            (c, o_types[i]) for i, c in enumerate(ovec) if c
                        ))
                        for rule_id in screened:
                            assert max(winners(rule_id, p)) < k, (rule_id, p, k)
    assert set(fired) == {"score-gap", "blocked", "bound", "mutual-majority"}, fired
    assert bounded == set(BOUND_RULES), bounded


def _majority_profile(rng, m):
    """A seeded profile over m candidates in which more than half of 3 to
    12 voters rank B = {0..k-1} on top, k drawn from 1..m-1, each ranking
    B and the rest in shuffled order; the other voters rank at random."""
    k, n = rng.randrange(1, m), rng.randint(3, 12)
    support = rng.randint(n // 2 + 1, n)
    ballots = []
    for i in range(n):
        head, tail = list(range(k)), list(range(k, m))
        if i >= support:
            head, tail = [], head + tail
        rng.shuffle(head)
        rng.shuffle(tail)
        ballots.append((1, tuple(head + tail)))
    return Profile(default_candidates(m), tuple(ballots))


# Per undeclared (rule, k), a profile on which more than half the voters
# rank B = {0..k-1} on top and the rule elects a candidate outside B, as
# the exhaustive search first finds it at q = 1/2.
MUTUAL_MAJORITY_WITNESSES = {
    ("black", 2): ((1, (0, 1, 2, 3)), (4, (1, 0, 2, 3)), (3, (2, 3, 0, 1))),
    ("clr", 3): (
        (1, (0, 1, 2, 3)), (1, (1, 2, 0, 3)), (3, (2, 0, 1, 3)), (2, (3, 0, 1, 2)),
        (2, (3, 1, 2, 0)),
    ),
    ("young", 3): ((1, (0, 1, 2, 3)), (1, (1, 2, 0, 3)), (1, (3, 2, 0, 1))),
    ("simpson", 3): ((1, (0, 1, 2, 3, 4)), (1, (1, 2, 0, 3, 4)), (1, (3, 2, 0, 1, 4))),
    ("t12rule", 2): ((2, (0, 1, 2)), (4, (1, 0, 2)), (4, (2, 0, 1)), (1, (2, 1, 0))),
}
# Undeclared cells with no proof and no counterexample: none up to 8 voters
# at m = 4 (exhaustive search at q = 1/2), nor on the profiles below.
UNPROVED = {"dodgson": lambda m: set(range(2, m)), "convexmedian": lambda m: {m - 1}}


def test_mutual_majority_declarations():
    """Every (rule, k) the table in conftest declares elects only members
    of B = {0..k-1} wherever more than half the voters rank B on top: on
    every profile of up to 7 voters over 3 candidates and on 600 seeded
    such profiles each over 5 and 6 candidates.  irv, runoff, borda and
    black, declared at k = m - 1, never elect a strict Condorcet loser
    there, which the lone outsider then is.  Of the undeclared cells,
    those of antiplurality, borda, plurality, simpson, young and the veto
    core elect an outsider on these profiles.  Each witness above elects
    one for black at m = 4, k = 2, clr and young at m = 4, k = 3, simpson
    at m = 5, k = 3 and t12rule at m = 3, k = 2, and is the first
    violation the search finds at q = 1/2, which a record declaring its
    cell would hide.  dodgson at k >= 2 and convexmedian at k = m - 1
    elect none here and are listed as unproved, not declared."""
    rng = random.Random(2027)
    seeded = [_majority_profile(rng, m) for m in (5, 6) for _ in range(600)]
    elected = set()  # (rule id, m, k) electing a candidate outside B
    majorities = losers = 0
    for p in itertools.chain(all_profiles(3, 7), seeded):
        m, h = p.m, p.pair_counts
        held = [k for k in range(1, m) if b_holds_a_majority(p, k)]
        loser = [c for c in range(m) if all(2 * h[b * m + c] > p.n for b in range(m) if b != c)]
        majorities += bool(held)
        losers += bool(loser)
        for rule_id in RULE_IDS:
            won = winners(rule_id, p)
            elected.update((rule_id, m, k) for k in held if max(won) >= k)
            if rule_id in CONDORCET_LOSER_RULES:
                assert not set(loser) & won, (rule_id, p)
    assert majorities > 1500 and losers > 2000
    for rule_id, m, k in elected:
        assert k not in mutual_majority_cells(rule_id, m), (rule_id, m, k)
    assert {rule_id for rule_id, _, _ in elected} == {
        "antiplurality", "borda", "plurality", "simpson", "young", "vetocore",
    }, elected
    for rule_id in CONDORCET_LOSER_RULES:
        assert all(m - 1 in mutual_majority_cells(rule_id, m) for m in range(2, 8)), rule_id
    for (rule_id, k), ballots in MUTUAL_MAJORITY_WITNESSES.items():
        p = Profile(default_candidates(len(ballots[0][1])), ballots)
        assert b_holds_a_majority(p, k) and max(winners(rule_id, p)) >= k, rule_id
        assert k not in mutual_majority_cells(rule_id, p.m), rule_id
        budget = search.SearchBudget(max_voters=p.n)
        found = search.exhaustive_criterion_search(rule_id, p.m, k, Fraction(1, 2), budget)
        assert found is not None and found.profile == p, rule_id
    for rule_id, cells in UNPROVED.items():
        for m in range(3, 8):
            assert not cells(m) & mutual_majority_cells(rule_id, m), (rule_id, m)


def _moved_down(p, ranking, pos):
    """p with one voter ranking `ranking` swapping its places pos and pos + 1."""
    swapped = ranking[:pos] + (ranking[pos + 1], ranking[pos]) + ranking[pos + 2 :]
    ballots = [(c - (r == ranking), r) for c, r in p.ballots] + [(1, swapped)]
    return Profile(p.candidates, tuple((c, r) for c, r in ballots if c))


def test_bound_values_never_fall_as_a_candidate_moves_down():
    """The premise of the bound screen: moving a candidate one place down
    in one voter's ranking never lowers its Young or Dodgson score, its
    convex median depth or its tradeoff depth (the depths where they are
    defined, the candidate not a strict majority winner), and lowers none
    of its integer truncated scores, on which t12rule breaks ties.  Checked
    for every swap on every profile of up to 6 voters over 3 candidates
    and on seeded profiles over 4 and 5."""
    rng = random.Random(2023)
    seeded = [random_profile(rng, m, rng.randint(2, 9)) for m in (4, 5) for _ in range(60)]
    swaps = 0
    for p in itertools.chain(all_profiles(3, 6), seeded):
        m = p.m
        for _, ranking in p.ballots:
            for pos in range(m - 1):
                a, q = ranking[pos], _moved_down(p, ranking, pos)
                swaps += 1
                assert young_score(q, a) >= young_score(p, a), (p, ranking, pos)
                assert dodgson_score(q, a) >= dodgson_score(p, a), (p, ranking, pos)
                before, after = integer_truncated_scores(p, a), integer_truncated_scores(q, a)
                assert all(x <= y for x, y in zip(after, before)), (p, ranking, pos)
                if majority_winner(p) != a:
                    for depth in (convex_median_score, tradeoff_score):
                        assert depth(q, a) >= depth(p, a), (depth, p, ranking, pos)
    assert swaps > 5000


def test_dodgson_last_prefix_lane_is_not_the_worst():
    """Why dodgson declares its own ``worst`` rather than the default, the
    other voters added to a candidate's last lane: no one prefix lane is a
    candidate's worst.  Here one more voter ranking candidate 0 last, on
    its last prefix lane (3 > 2 > 1 > 0), leaves it a Dodgson score of 1,
    while one ranking it last below 1 > 2 > 3 gives 2: candidate 0 trails
    1, and the last lane puts 1 just above it.  So the default would bound
    its score by 1, below a completion's, while _dodgson_worst, which
    lifts the added voter past every opponent whatever their order, gives
    2.  The same happens to candidate 1 on a second part of 5 voters held
    to 6, where the bound screen for B = {0, 1} would then fire: the
    default worst 1 is below outsider 3's best of 2.  Yet one more voter
    ranking 3 > 0 > 2 > 1 elects 3 alongside 1, so the declared worst,
    2, keeps the screen from firing."""
    last = _prefixes(4)[-1]  # over the others relabelled b - 1
    assert tuple(b + 1 for b in last) + (0,) == (3, 2, 1, 0)
    part = ((2, (0, 1, 3, 2)), (1, (1, 2, 0, 3)), (1, (1, 3, 0, 2)))
    for ranking, score in (((3, 2, 1, 0), 1), ((1, 2, 3, 0), 2)):
        p = Profile(default_candidates(4), part + ((1, ranking),))
        assert dodgson_score(p, 0) == oracle_dodgson_score(p, 0) == score, ranking
    lanes = _lane_vector(Profile(default_candidates(4), part), 0)
    assert _dodgson_score(4, 5, lanes[:-1] + [lanes[-1] + 1]) == 1
    assert _rule("dodgson", 4).worst is _dodgson_worst
    assert _dodgson_worst(4, 5, lanes, 1) == 2

    part = ((1, (0, 2, 1, 3)), (3, (1, 3, 0, 2)), (1, (0, 3, 1, 2)))
    p = Profile(default_candidates(4), part + ((1, (3, 0, 2, 1)),))
    assert [dodgson_score(p, a) for a in range(4)] == [3, 2, 9, 2]
    assert set(winners("dodgson", p)) == {1, 3}
    kernel = _kernel("dodgson", 4, 2, 6)
    index = {r: t for t, r in enumerate(search._tables(4, 2).types)}
    tally = sum(c * kernel.contrib[index[r]] for c, r in part)
    assert search._outsiders_lose(kernel._replace(worst=None), 2, 6, 5, tally, {})
    assert not search._outsiders_lose(kernel, 2, 6, 5, tally, {})


def _lane_vector(p, a):
    """a's prefix lanes on p, a list in _prefixes order."""
    order, lanes = _prefix_lanes(p.m), [0] * len(_prefixes(p.m))
    for u, c in _prefix_counts(p, a):
        lanes[order.index(u)] = c
    return lanes


@pytest.mark.parametrize("m, max_voters", [(3, 7), (4, 5)])
def test_dodgson_bounds_hold_on_every_completion(m, max_voters):
    """On every completion of a B part to n voters, each b in B scores at
    most _dodgson_worst of its B-part prefix lanes with the other n - s
    voters to come, and each outsider at least _dodgson_score of its lanes
    with those voters ranking it first, the two bounds the search's bound
    screen compares.  Every k, one B part per orbit of S_k x S_{m-k}; the
    completions are all checked against dodgson_score.  The worst agrees
    with conftest's dodgson_worst, counted from the rankings, and some
    completion attains it where no voter is to come."""
    labels = default_candidates(m)
    checked = 0
    for k in range(1, m):
        b_types, o_types = _split_types(m, k)
        group = _group(m, k)
        for n in range(1, max_voters + 1):
            for s in range(1, n + 1):
                for bvec in _count_vectors(s, len(b_types)):
                    head = Profile(labels, tuple((c, b_types[i]) for i, c in enumerate(bvec) if c))
                    if min(relabel_profile(head, g).ballots for g in group) != head.ballots:
                        continue  # not its orbit's smallest
                    filled = Profile(labels, head.ballots + ((n - s, o_types[0]),)) if n > s else head
                    worst = [_dodgson_worst(m, n, _lane_vector(head, b), n - s) for b in range(k)]
                    assert worst == [dodgson_worst(filled, k, b) for b in range(k)], head
                    best = []
                    for c in range(k, m):
                        lanes = _lane_vector(head, c)
                        lanes[0] += n - s
                        best.append(_dodgson_score(m, n, lanes))
                    for ovec in _count_vectors(n - s, len(o_types)):
                        p = Profile(labels, head.ballots + tuple(
                            (c, o_types[i]) for i, c in enumerate(ovec) if c
                        ))
                        scores = [dodgson_score(p, a) for a in range(m)]
                        assert all(x <= y for x, y in zip(scores, worst)), (p, worst)
                        assert all(x <= y for x, y in zip(best, scores[k:])), (p, best)
                        checked += 1
                    if n == s:
                        assert worst == scores[:k], head
    assert checked > 1000, checked


def test_memo_key_determines_the_winners():
    """Profiles sharing a rule's memo key, the tally lanes its record says
    the rule reads, share its winner set under rules.winners, on every
    profile of up to 6 voters over 3 candidates and 4 over 4.  The rules on
    contour or prefix lanes have no key: young, dodgson and the veto core
    keep their values per candidate, and irv's contour lanes determine the
    profile at m = 3, so a key there would never repeat."""
    for rule_id in BALLOT_RULES:
        assert _kernel(rule_id, 3, 1, 1).key_mask == 0, rule_id
    for m, profiles in ((3, all_profiles(3, 6)), (4, all_profiles(4, 4))):
        kernels = {rule_id: _kernel(rule_id, m, 1, 1) for rule_id in TALLY_RULES + (SCORING[m],)}
        groups = {rule_id: {} for rule_id in kernels}
        for p in profiles:
            counts = _counts(p)
            for rule_id, kernel in kernels.items():
                key = _tally(counts, kernel) >> kernel.key_shift & kernel.key_mask
                groups[rule_id].setdefault(key, []).append(p)
        for rule_id, by_key in groups.items():
            for same in by_key.values():
                if len(same) > 1:
                    won = {frozenset(winners(rule_id, p)) for p in same}
                    assert len(won) == 1, (rule_id, same)


def _argmin_oracle(p, score):
    values = [score(p, a) for a in range(p.m)]
    return {a for a, x in enumerate(values) if x == min(values)}


def test_ballot_decisions_match_rules_and_oracles():
    """The kernel's answers for the rules on contour or prefix lanes, fed
    its packed tallies, screened or not, give rules.winners' answer, which
    these rules' decisions compute from the ballots, and the independent
    oracles' (the Dodgson oracle on profiles of up to 7 voters, within its
    budget)."""
    dodgson_checked = 0
    for p in _decision_cases():
        counts = _counts(p)
        got = {}
        for rule_id in BALLOT_RULES:
            kernel = _kernel(rule_id, p.m, 1, p.n)
            screened, decided = _kernel_answers(kernel, p.n, _tally(counts, kernel))
            assert screened == decided == set(winners(rule_id, p)), (rule_id, p)
            got[rule_id] = decided
        assert got["irv"] == set(parallel_universe_irv(p)), p
        assert got["vetocore"] == set(oracle_veto_core(p)), p
        assert got["young"] == _argmin_oracle(p, oracle_young_score), p
        if p.n <= 7:
            assert got["dodgson"] == _argmin_oracle(p, oracle_dodgson_score), p
            dodgson_checked += 1
    assert dodgson_checked >= 923 + 60  # every m = 3 profile, most seeded ones


def _contour_lanes(m, a):
    """The contours U of a in the order of a's contour lanes: increasing
    bitmask, which stays increasing with bit a taken out."""
    return [u for u in range(1 << m) if not u >> a & 1]


def _contours(p, a):
    """c(a, .): the voters per upper contour of a, a bitmask, counted from
    the rankings, in increasing bitmask order."""
    c = {}
    for count, r in p.ballots:
        up = sum(1 << b for b in r[: r.index(a)])
        c[up] = c.get(up, 0) + count
    return tuple(sorted(c.items()))


def _prefix_lanes(m):
    """The ordered sets a ballot can rank above a candidate, over the other
    m - 1 candidates relabelled b - (b > a), in the order of its prefix
    lanes: shortest first, then lexicographic."""
    every = (p for j in range(m) for p in itertools.permutations(range(m - 1), j))
    return sorted(every, key=lambda p: (len(p), p))


def _prefix_counts(p, a):
    """The voters per ordered prefix above a, relabelled as in
    _prefix_lanes, counted from the rankings, in increasing order."""
    c = {}
    for count, r in p.ballots:
        above = tuple(b - (b > a) for b in r[: r.index(a)])
        c[above] = c.get(above, 0) + count
    return tuple(sorted(c.items()))


def test_prefix_key_determines_dodgson_score():
    """Profiles sharing a candidate's prefix counts and n, the search's
    memo key for it, share its Dodgson score, across candidates, on every
    profile of up to 7 voters over 3 candidates and 4 over 4.
    _dodgson_score gives dodgson_score from the key alone, and tally >>
    shifts[a] & mask holds a's prefix counts, one lane per ordered prefix."""
    for m, profiles in ((3, all_profiles(3, 7)), (4, all_profiles(4, 4))):
        kernel = _kernel("dodgson", m, 1, 1)
        assert kernel.value is _dodgson_score
        order = _prefix_lanes(m)
        assert list(_prefixes(m)) == order
        seen, lookups = {}, 0
        for p in profiles:
            tally = _tally(_counts(p), kernel)
            for a in range(m):
                prefixes = _prefix_counts(p, a)
                key = tally >> kernel.shifts[a] & kernel.mask
                assert key == sum(c << 8 * order.index(u) for u, c in prefixes), (p, a)
                score = dodgson_score(p, a)
                if (p.n, key) not in seen:
                    lanes = [0] * len(order)
                    for u, c in prefixes:
                        lanes[order.index(u)] = c
                    assert _dodgson_score(m, p.n, lanes) == score, (p, a)
                assert seen.setdefault((p.n, key), score) == score, (p, a)
                lookups += 1
        assert 2 * len(seen) < lookups  # keys repeat, as the memo relies on


def test_contour_key_determines_veto_core_and_young():
    """Profiles sharing a candidate's key (n, a, c(a, .)) share, in their
    reports, the set through which the veto core blocks it (or None) with
    the coalition's size, and its Young score, on every profile of up to 7
    voters over 3 candidates and 4 over 4.  The contour functions give
    those values from the key alone, and the kernel's contour lanes for a
    hold c(a, .), one lane per contour of a in increasing bitmask order.
    Across candidates, those lanes and n, the search's memo key, determine
    whether the veto core blocks the candidate and its Young score."""
    for m, profiles in ((3, all_profiles(3, 7)), (4, all_profiles(4, 4))):
        kernel = _kernel("vetocore", m, 1, 1)
        assert kernel.value is _blocked
        assert _kernel("young", m, 1, 1).value is _young_score
        lane = {a: _contour_lanes(m, a) for a in range(m)}
        seen, shared, lookups = {}, {}, 0
        for p in profiles:
            tally = _tally(_counts(p), kernel)
            veto, young = report("vetocore", p), report("young", p)
            for a in range(m):
                contours = _contours(p, a)
                block = tally >> kernel.shifts[a] & kernel.mask
                assert block == sum(c << 8 * lane[a].index(u) for u, c in contours), (p, a)
                blocked = veto.trace["blocked"].get(a)
                got = (
                    blocked and (blocked["blocking_set"], blocked["coalition_size"]),
                    young.scores[a],
                )
                key = (p.n, a, contours)
                if key not in seen:
                    bset, size = _blocking_set(m, p.n, {u: c for u, c in contours if u})
                    members = [b for b in range(m) if bset >> b & 1]
                    lanes = [0] * len(lane[a])
                    for u, c in contours:
                        lanes[lane[a].index(u)] = c
                    from_key = ((members, size) if bset else None, _young_score(m, p.n, lanes))
                    assert from_key == got, (p, a)
                    assert (_blocked(m, p.n, lanes) == (0, 0)) == (not bset), (p, a)
                assert seen.setdefault(key, got) == got, (p, a)
                across = (blocked is None, young.scores[a])
                assert shared.setdefault((p.n, block), across) == across, (p, a)
                lookups += 1
        assert 2 * len(seen) < lookups  # keys repeat, as the memo relies on
        assert len(shared) < len(seen)  # and more so across candidates


def _rank_columns(p):
    """Per candidate, the voters ranking it at each position, counted from
    the rankings."""
    cols = [[0] * p.m for _ in range(p.m)]
    for count, r in p.ballots:
        for l, a in enumerate(r):
            cols[a][l] += count
    return cols


def test_column_key_determines_convex_median_and_t12_values():
    """Profiles sharing a candidate's rank column and n, the search's memo
    key for it, share that candidate's convex median score and tradeoff
    score in their reports, across candidates, on every profile without a
    strict majority winner of up to 7 voters over 3 candidates and 4 over
    4.  The value functions give those scores from the key alone, and
    tally >> shifts[a] & mask holds a's rank counts in candidate 0's rank
    lanes, whatever a."""
    for m, profiles in ((3, all_profiles(3, 7)), (4, all_profiles(4, 4))):
        kernel = _kernel("convexmedian", m, 1, 1)
        t12 = _kernel("t12rule", m, 1, 1)
        assert kernel.value is _convex_median_depth and t12.value is _tradeoff_value
        assert (kernel.shifts, kernel.mask) == (t12.shifts, t12.mask)
        seen, lookups = {}, 0
        for p in profiles:
            tally = _tally(_counts(p), kernel)
            cols = _rank_columns(p)
            keys = [tally >> shift & kernel.mask for shift in kernel.shifts]
            for a, key in enumerate(keys):
                assert key == sum(c << 8 * l * m for l, c in enumerate(cols[a])), (p, a)
            if majority_winner(p) is not None:
                continue  # the scores are undefined
            median, tradeoff = report("convexmedian", p), report("t12rule", p)
            for a, key in enumerate(keys):
                got = (median.scores[a], tradeoff.scores[a])
                if (p.n, key) not in seen:
                    col = [key >> 8 * l * m & 0xFF for l in range(m)]
                    from_key = (
                        F(*_convex_median_depth(m, p.n, col)), _tradeoff_value(m, p.n, col)[0],
                    )
                    assert from_key == got, (p, a)
                assert seen.setdefault((p.n, key), got) == got, (p, a)
                lookups += 1
        assert 4 * len(seen) < lookups  # keys repeat, as the memo relies on


@pytest.mark.parametrize("rule_id", BALLOT_RULES)
def test_ballot_rule_search_builds_profiles_only_for_witnesses(monkeypatch, rule_id):
    """A full m = 3 max_violation scan decides every profile without a
    Profile; only the returned witness builds one."""
    built = []

    class Counted(Profile):
        __slots__ = ()

        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(search, "Profile", Counted)
    found = max_violation(rule_id, 3, 2, search.SearchBudget(max_voters=7))
    assert found is not None
    assert built == [found[1].profile]


def plain_min_violation(rule_id, m, k, n, support):
    """The slice's smallest Profile.ballots key among violations, enumerated
    profile by profile."""
    best = None
    for p in profiles_with_support(m, k, n, support):
        won = winners(rule_id, p)
        if max(won) >= k and (best is None or p.ballots < best[0]):
            best = p.ballots, support, tuple(sorted(won))
    return best


def _assert_slices_match_plain(rule_id, m, ks, max_voters):
    """Each (n, support) slice with at most max_voters voters, for each k in
    ks, gives the plain enumeration's result."""
    for k in ks:
        for n in range(1, max_voters + 1):
            for s in range(1, n + 1):
                expected = plain_min_violation(rule_id, m, k, n, s)
                assert _min_violation((rule_id, m, k, n, s)) == expected, (k, n, s)


@pytest.mark.parametrize("rule_id", list(RULE_IDS) + [SCORING[3]])
def test_orbit_reduced_slices_match_plain_enumeration_m3(rule_id):
    _assert_slices_match_plain(rule_id, 3, (1, 2), 6)


def test_orbit_reduced_slices_match_plain_enumeration_convexmedian_m4():
    """The slices the convex median search walks at q = 11/20 up to 7 voters."""
    hits = 0
    for n in range(1, 8):
        for s in range(11 * n // 20 + 1, n + 1):
            expected = plain_min_violation("convexmedian", 4, 2, n, s)
            assert _min_violation(("convexmedian", 4, 2, n, s)) == expected, (n, s)
            hits += expected is not None
    assert hits  # the witness slice n = 7, support 4 is among them


@pytest.mark.parametrize("rule_id, max_voters", [
    pytest.param(rule_id, n, id=rule_id)
    for rule_id, n in (("irv", 4), ("young", 3), ("dodgson", 4))
])
def test_orbit_reduced_slices_match_plain_enumeration_ballot_rules_m4(rule_id, max_voters):
    """The screened rules on contour or prefix lanes at m = 4 and every k,
    up to 4 voters; young, which the contour rules' test below takes to 4,
    up to 3."""
    _assert_slices_match_plain(rule_id, 4, (1, 2, 3), max_voters)


def test_orbit_reduced_slices_match_plain_enumeration_t12rule_m4():
    """t12rule, decided per candidate from memoised rank columns, with its
    dominance tie-break, at m = 4 and every k, up to 4 voters."""
    _assert_slices_match_plain("t12rule", 4, (1, 2, 3), 4)


@pytest.mark.parametrize("rule_id", ["simpson", "clr", "black", "runoff", "plurality"])
def test_orbit_reduced_slices_match_plain_enumeration_screened_tally_rules_m4(rule_id):
    """The screened tally rules at m = 4 and every k, up to 4 voters: slices
    where the head screen settles some B parts and not others."""
    _assert_slices_match_plain(rule_id, 4, (1, 2, 3), 4)


@pytest.mark.parametrize("rule_id", ["antiplurality", "borda", SCORING[4]] + list(BOUND_RULES))
def test_orbit_reduced_slices_match_plain_enumeration_score_gap_rules_m4(monkeypatch, rule_id):
    """The rules screened by the score gap or by the value bounds at m = 4
    and every k, up to 4 voters: slices where the screen settles some B
    parts and not others."""
    settled = []
    screen = search._outsiders_lose

    def counted(*args):
        settled.append(screen(*args))
        return settled[-1]

    monkeypatch.setattr(search, "_outsiders_lose", counted)
    _assert_slices_match_plain(rule_id, 4, (1, 2, 3), 4)
    assert any(settled) and not all(settled)


@pytest.mark.parametrize("rule_id", ["vetocore", "young"])
def test_orbit_reduced_slices_match_plain_enumeration_contour_rules_m4(rule_id):
    """The rules decided per candidate from memoised contour lanes, at m = 4
    and every k, up to 4 voters: a slice of 4 voters repeats contours."""
    _assert_slices_match_plain(rule_id, 4, (1, 2, 3), 4)


def test_capped_memo_keeps_slice_results(monkeypatch):
    """A memo cleared every 8 entries gives each m = 4 slice the same
    result as the default memo and as plain enumeration, and never holds
    more than 8 entries, whether it keys whole tallies or each candidate's
    rank column (convexmedian, t12rule), contour lanes (the veto core) or
    prefix lanes (dodgson)."""
    slices = [("convexmedian", 4, 2, 4, s) for s in range(1, 5)]
    slices += [("t12rule", 4, 2, 4, s) for s in range(1, 5)]
    slices += [("clr", 4, 3, 4, s) for s in range(1, 5)]
    slices += [("vetocore", 4, 3, 4, s) for s in range(1, 5)]
    slices += [("dodgson", 4, 3, 4, s) for s in range(1, 5)]
    uncapped = [_min_violation(args) for args in slices]
    sizes, per_candidate = [], set()
    evaluate = search.rule_winners

    def measured(kernel, n, tally, memo=None):
        won = evaluate(kernel, n, tally, memo)
        sizes.append(len(memo))
        if any(key < 0 for key in memo):  # the per-candidate keys are negated
            per_candidate.add(kernel.value.__name__)
        return won

    monkeypatch.setattr(search, "_MEMO_ENTRIES", 8)
    monkeypatch.setattr(search, "rule_winners", measured)
    for args, expected in zip(slices, uncapped):
        assert _min_violation(args) == expected == plain_min_violation(*args), args
    assert max(sizes) == 8
    assert per_candidate == {
        "_convex_median_depth", "_tradeoff_value", "_blocked", "_dodgson_score",
    }


def test_per_candidate_rules_never_call_their_decision(monkeypatch):
    """convexmedian, t12rule, young, dodgson and vetocore answer every
    m = 3 slice of up to 6 voters and the m = 4 slices of the capped-memo test from
    their screens and per-candidate values alone, t12rule's dominance
    tie-break included: a kernel whose decision raises gives each slice
    the plain enumeration's result."""
    slices = [
        (rule_id, 3, k, n, s)
        for rule_id in ("convexmedian", "t12rule", "young", "dodgson", "vetocore")
        for k in (1, 2)
        for n in range(1, 7)
        for s in range(1, n + 1)
    ]
    slices += [(rule_id, 4, 2, 4, s) for rule_id in ("convexmedian", "t12rule") for s in range(1, 5)]
    slices += [
        (rule_id, 4, 3, 4, s) for rule_id in ("young", "dodgson", "vetocore") for s in range(1, 5)
    ]
    expected = [plain_min_violation(*args) for args in slices]
    build = search._kernel

    def decide(m, n, h, stat):
        raise AssertionError("the decision was called")

    monkeypatch.setattr(search, "_kernel", lambda *args: build(*args)._replace(decide=decide))
    for args, want in zip(slices, expected):
        assert _min_violation(args) == want, args


def _orbits(m, k, n, support):
    """The orbits of S_k x S_{m-k} on one slice, found by relabelling
    profiles: each orbit's smallest Profile.ballots key, mapped to one of
    its profiles."""
    group = _group(m, k)
    return {
        min(relabel_profile(p, g).ballots for g in group): p
        for p in profiles_with_support(m, k, n, support)
    }


ORBIT_SLICES = [(3, 1, 5), (3, 2, 5), (4, 2, 3), (4, 3, 3)]


def _head_majority(p, k):
    return _strict_winners(p, k)[1] is not None


def _gap_screen(rule_id):
    return lambda p, k: score_gap_excludes_outsiders(p, k, FIXED_VECTORS[rule_id](p.m).scores)


def _head_condorcet(p, k):
    return _strict_winners(p, k)[0] is not None


def _bound_screen(rule_id):
    return lambda p, k: bound_excludes_outsiders(p, k, rule_id)


# per rule, the references for the screens that settle a B part
ORBIT_SCREENS = {
    "plurality": (_head_majority, _gap_screen("plurality")),
    "antiplurality": (_gap_screen("antiplurality"),),
    "vetocore": (veto_blocks_outsiders,),
    "irv": (_head_majority,),
    "convexmedian": (_head_majority, _bound_screen("convexmedian")),
    "t12rule": (_head_majority, _bound_screen("t12rule")),
    "young": (_head_condorcet, _bound_screen("young")),
    "dodgson": (_head_condorcet, _bound_screen("dodgson")),
    "simpson": (_head_condorcet,),
    "clr": (_head_condorcet,),
}


@pytest.mark.parametrize("rule_id, m, k, n", [
    pytest.param("plurality", *mkn, id="-".join(map(str, mkn))) for mkn in ORBIT_SLICES
] + [
    pytest.param(rule_id, *mkn, id="-".join(map(str, (rule_id,) + mkn)))
    for rule_id, slices in (
        ("antiplurality", ORBIT_SLICES), ("vetocore", [(3, 2, 5)]), ("irv", [(3, 2, 5)]),
        ("convexmedian", [(3, 2, 5), (4, 2, 3)]), ("t12rule", [(3, 2, 5), (4, 2, 3)]),
        ("young", [(3, 2, 5), (4, 2, 3)]), ("dodgson", [(3, 2, 5), (4, 2, 3)]),
        ("simpson", [(3, 2, 5)]), ("clr", [(3, 2, 5)]),
    )
    for mkn in slices
])
def test_one_evaluation_per_orbit(monkeypatch, rule_id, m, k, n):
    """The kernel evaluates each orbit of a slice once, except those whose
    B part a screen settles: the head screen of plurality, irv,
    convexmedian and t12rule (a candidate with more than n/2 first places
    on the B part alone) and of young, dodgson, simpson and clr (a
    candidate beating each other one on more than n/2 of the B part's
    ballots), the score gap of plurality and antiplurality, the veto
    core's blocking of every outsider and the value bounds of
    convexmedian, t12rule, young and dodgson.  The settled orbits are
    found by the references in conftest, on one profile of each orbit.
    Where the table in conftest declares the rule at k, the search loop
    dispatches no slice in which more than half the voters rank B on top,
    and every other slice."""
    calls = []
    evaluate = search.rule_winners

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(search, "rule_winners", counted)
    declared = k in mutual_majority_cells(rule_id, m)
    settled, left = 0, []
    for s in range(1, n + 1):
        orbits = list(_orbits(m, k, n, s).values())
        if declared and all(b_holds_a_majority(p, k) for p in orbits):
            settled += len(orbits)
            continue
        left.append(s)
        kept = [p for p in orbits if not any(screen(p, k) for screen in ORBIT_SCREENS[rule_id])]
        settled += len(orbits) - len(kept)
        calls.clear()
        _min_violation((rule_id, m, k, n, s))
        assert len(calls) == len(kept), s
    dispatched = []
    monkeypatch.setattr(search, "_min_violation", lambda args: dispatched.append(args))
    for _ in search._violations(rule_id, m, k, search.SearchBudget(max_voters=n), lambda n: 0):
        pass
    assert [s for *_, size, s in dispatched if size == n] == left
    assert settled  # each case has orbits a screen settles
