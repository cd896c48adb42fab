"""Voting rules as choice correspondences with inspectable score reports.

Every rule maps a profile to a nonempty set of tied winners; no arbitrary
tie-breaking is ever applied.  Scores are exact: integers, rationals, or
quadratic irrationals, so argmin/argmax decisions are never made in floating
point.

Every rule is decided by one function that needs no Profile,
``decide(m, n, h, stat) -> (winners, scores, trace)``.  ``h[a*m + b]``
counts the voters preferring a to b, a flat integer sequence.  A tally-based
rule's ``stat`` is the flat rank counts, ``pos[l*m + a]`` voters ranking a
at position l + 1; instant runoff, Young, Dodgson and the veto core read
ballots instead, and their ``stat`` is the nonzero (count, ranking) pairs
in any order.  Winners come back as ascending candidate indices and scores
in the rule's raw form, integers wherever the value is an integer.  The
exhaustive search calls the same functions on tallies it updates
incrementally and on its count vectors, so each rule has one definition.

The registry at the end of the module maps each rule id to one record: the
factory of its decision per m, the statistics the decision reads, how its
raw scores and trace are shown, the winner it always elects alone when
there is one, and the paper's closed-form quotas with their table text.
``report`` is the one function that builds a ``ScoreReport``: it tallies
only what the record says the decision reads, passes None for the rest,
and presents the result as the record says.
``scoring:<s1,...,sm>`` ids are the one parametric case; their record is
built from the vector by the constructor of the fixed vectors.  Adding a
rule means writing its decision and one registry entry.  A rule has no
other name: callers ask for it by its id, through ``report`` or
``winners``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .exact import ExactNumber, exact
# The tallies are read from Profile.pair_counts and rank_counts.  The two
# counting functions stay bound here, as in cli, because perfbench's tracer
# test checks that it wraps every module's binding of tournament_matrix.
from .model import ChoiceSet, Profile, positional_matrix, tournament_matrix  # noqa: F401

ExactScore = ExactNumber | Fraction | int
Ballots = Sequence[tuple[int, Sequence[int]]]  # nonzero (count, ranking) pairs
Decision = Callable[
    [int, int, Sequence[int] | None, Sequence[int] | Ballots | None],
    tuple[tuple[int, ...], list | None, dict | None],
]


@dataclass(frozen=True)
class ScoreVector:
    """Monotonic positional weights s_1 >= ... >= s_m with s_1 > s_m."""

    scores: tuple[Fraction, ...]

    def __post_init__(self):
        s = tuple(Fraction(x) for x in self.scores)
        if len(s) < 2:
            raise ValueError("a score vector needs at least two positions")
        if any(s[i] < s[i + 1] for i in range(len(s) - 1)):
            raise ValueError("scores must be nonincreasing")
        if s[0] == s[-1]:
            raise ValueError("the top score must exceed the bottom score")
        object.__setattr__(self, "scores", s)

    def __len__(self) -> int:
        return len(self.scores)

    def __getitem__(self, i: int) -> Fraction:
        return self.scores[i]

    @property
    def is_convex(self) -> bool:
        """Score gaps positive at the bottom and nondecreasing toward the top."""
        s = self.scores
        gaps = [s[i] - s[i + 1] for i in range(len(s) - 1)]
        if gaps[-1] <= 0:
            return False
        return all(gaps[i] >= gaps[i + 1] for i in range(len(gaps) - 1))

    @classmethod
    def plurality(cls, m: int) -> "ScoreVector":
        return cls((Fraction(1),) + (Fraction(0),) * (m - 1))

    @classmethod
    def borda(cls, m: int) -> "ScoreVector":
        return cls(tuple(Fraction(m - 1 - i) for i in range(m)))

    @classmethod
    def antiplurality(cls, m: int) -> "ScoreVector":
        return cls((Fraction(1),) * (m - 1) + (Fraction(0),))


@dataclass(frozen=True)
class ScoreReport:
    """Winners of a rule plus its per-candidate scores and decision trace."""

    rule_id: str
    winners: ChoiceSet
    scores: dict[int, ExactScore | None]
    trace: dict = field(default_factory=dict)


def _argmax(values: Sequence) -> tuple[int, ...]:
    best = max(values)
    return tuple(a for a, v in enumerate(values) if v == best)


def _argmin(values: Sequence) -> tuple[int, ...]:
    best = min(values)
    return tuple(a for a, v in enumerate(values) if v == best)


def _upper_contours(m: int, ballots: Ballots) -> list[list[int]]:
    """up[a][i]: bitmask of the candidates ballot type i ranks above a."""
    up = [[0] * len(ballots) for _ in range(m)]
    for i, (_, ranking) in enumerate(ballots):
        seen = 0
        for c in ranking:
            up[c][i] = seen
            seen |= 1 << c
    return up


# -- positional scoring rules -------------------------------------------------


def _integer_weights(scores: ScoreVector) -> tuple[tuple[int, ...], int]:
    """The score vector times the least common denominator, and that denominator."""
    den = math.lcm(*(s.denominator for s in scores.scores))
    return tuple(int(s * den) for s in scores.scores), den


def scoring_decision(weights: Sequence[int]) -> Decision:
    """Positional rule with integer weights, one per rank: maximize the total."""
    terms = [(l, w) for l, w in enumerate(weights) if w]

    def decide(m, n, h, pos):
        totals = [sum(w * pos[l * m + a] for l, w in terms) for a in range(m)]
        return _argmax(totals), totals, None

    return decide


def scoring_winners(profile: Profile, scores: ScoreVector) -> ChoiceSet:
    """All candidates maximizing the positional score sum."""
    return winners("scoring:" + ",".join(map(str, scores.scores)), profile)


# -- plurality with runoff ----------------------------------------------------


def runoff_decision(m, n, h, pos):
    """Top-two runoff; finalist ties produce the union over all resolutions.
    With at most two candidates it is plurality."""
    top = list(pos[:m])
    if m <= 2:
        return _argmax(top), top, None
    first = max(top)
    leaders = [a for a in range(m) if top[a] == first]
    if len(leaders) >= 2:
        pairs = list(itertools.combinations(leaders, 2))
    else:
        x = leaders[0]
        second = max(top[a] for a in range(m) if a != x)
        pairs = [(x, y) for y in range(m) if y != x and top[y] == second]
    winners: set[int] = set()
    duels = {}
    for x, y in pairs:
        hxy, hyx = h[x * m + y], h[y * m + x]
        if 2 * hxy > n:
            winners.add(x)
        elif 2 * hxy < n:
            winners.add(y)
        else:
            winners |= {x, y}
        duels[(x, y)] = (hxy, hyx)
    return tuple(sorted(winners)), top, {"finalist_pairs": pairs, "duels": duels}


# -- instant runoff -----------------------------------------------------------


def _transfer_tally(ballots: Ballots, active: frozenset[int]) -> dict[int, int]:
    tally = {a: 0 for a in active}
    for count, ranking in ballots:
        for c in ranking:
            if c in active:
                tally[c] += count
                break
    return tally


def instant_runoff_decision(m, n, h, ballots):
    """Iteratively delete a candidate with the fewest top positions.

    When several candidates tie at the minimum, the winners are the union
    over all ways of deleting one of them (deleting the whole tied group at
    once can wipe out a mutually top-ranked majority set, so the union over
    single deletions is the tie handling consistent with the runoff rule's).
    Scores are the first-round tallies; the trace follows the elimination
    path while it is unambiguous.
    """
    tallies: dict[frozenset[int], dict[int, int]] = {}
    winners_of: dict[frozenset[int], frozenset[int]] = {}

    def resolve(active: frozenset[int]) -> frozenset[int]:
        if len(active) == 1:
            return active
        hit = winners_of.get(active)
        if hit is not None:
            return hit
        tally = tallies[active] = _transfer_tally(ballots, active)
        low = min(tally.values())
        out: set[int] = set()
        for loser in active:
            if tally[loser] == low:
                out |= resolve(active - {loser})
        result = frozenset(out)
        winners_of[active] = result
        return result

    everyone = frozenset(range(m))
    final = resolve(everyone)
    # Every set on the unambiguous path was resolved, so its tally is known.
    rounds = []
    active = everyone
    while len(active) > 1:
        tally = tallies[active]
        low = min(tally.values())
        losers = sorted(a for a in active if tally[a] == low)
        if len(losers) > 1:
            break
        rounds.append({"scores": dict(tally), "eliminated": losers})
        active = active - {losers[0]}
    first = tallies[everyone] if m > 1 else {0: n}
    trace = {"rounds": rounds, "tie_branching": len(active) > 1}
    return tuple(sorted(final)), [first[a] for a in range(m)], trace


# -- pairwise-comparison rules --------------------------------------------------


def simpson_decision(m, n, h, pos):
    """Maximin: maximize the worst pairwise support min_b h(a, b); a lone
    candidate's is n."""
    scores = [
        min((h[a * m + b] for b in range(m) if b != a), default=n) for a in range(m)
    ]
    return _argmax(scores), scores, None


def clr_decision(m, n, h, pos):
    """Minimize the total of losing pairwise margins below n/2.

    Scores are the doubled deficits sum_b max(n - 2 h(a, b), 0), integers.
    The trace's ``doubled_deficits[a*m + b]`` is the pair's term; on the
    diagonal, where h(a, a) = 0, it reads n, which the scores take off.
    """
    deficits = [n - 2 * x if 2 * x < n else 0 for x in h]
    doubled = [sum(deficits[a * m : a * m + m]) - n for a in range(m)]
    return _argmin(doubled), doubled, {"doubled_deficits": deficits}


def _clr_trace(m: int, trace: dict) -> dict:
    """The report's CLR trace maps each a to its doubled deficits
    max(n - 2 h(a, b), 0) against every b."""
    flat = trace["doubled_deficits"]
    return {
        "doubled_deficits": {
            a: {b: flat[a * m + b] for b in range(m) if b != a} for a in range(m)
        }
    }


def black_decision(m, n, h, pos):
    """The strict pairwise-unbeaten candidate if one exists, else the Borda winners.

    Borda scores are read off the tournament as sum_b h(a, b).
    """
    borda = [sum(h[a * m : a * m + m]) for a in range(m)]
    for a in range(m):
        if all(2 * h[a * m + b] > n for b in range(m) if b != a):
            return (a,), borda, {"condorcet_winner": a}
    return _argmax(borda), borda, {"condorcet_winner": None}


# -- Young ---------------------------------------------------------------------


def _young(row: Sequence[int], up: Sequence[int], counts: Sequence[int], cand: int):
    """Young score of cand and a minimal removal, as voters per ballot type.

    ``row`` is cand's tournament row h(cand, .), ``up`` its upper contour
    in each ballot type and ``counts`` the types' voter counts.  Writing h'
    for the kept votes, the target "2 h'(cand, b) >= n - removed" becomes,
    per opponent, (removed voters ranking cand above b) - (removed voters
    ranking b above cand) <= 2 h(cand, b) - n, which no longer mentions the
    removal size; so one removal improves each pairwise deficit by at most
    one, giving the starting size max_b (n - 2 h(cand, b)), and voters
    ranking cand on top never belong to a minimal removal set.  The
    constraints see a removed voter only through its sign pattern, cand
    above or below each opponent, which its upper contour determines.  So
    the voters are pooled per contour, at most 2^(m-1) - 1 pools, and
    removals are searched per pool in increasing total size, which is
    exhaustive because the profile is anonymous.  Each size is walked depth
    first, pool by pool in lexicographic order, and a branch is cut once the
    voters still to remove cannot close its largest open deficit.  The
    first removal found is spread over each pool's types in ballot order.
    """
    n = sum(counts)
    opponents = [b for b in range(len(row)) if b != cand]
    slack = [2 * row[b] - n for b in opponents]
    removals = [0] * len(counts)
    start = -min(slack, default=0)
    if start <= 0:
        return 0, removals
    pools: dict[int, int] = {}
    for contour, count in zip(up, counts):
        if contour:
            pools[contour] = pools.get(contour, 0) + count
    caps = list(pools.values())
    signs = [[-1 if c >> b & 1 else 1 for b in opponents] for c in pools]
    tails = [sum(caps[i + 1 :]) for i in range(len(caps))]

    def first(i: int, left: int, res: list[int]) -> list[int] | None:
        """The lexicographically first voter counts for pools i, i+1, ...
        that remove left voters and leave every residual nonnegative, or
        None.  res[j] is slack[j] less the signs of the voters removed so
        far against opponent j; one more removal raises it by at most one."""
        for x in range(max(0, left - tails[i]), min(caps[i], left) + 1):
            after = [r - x * s for r, s in zip(res, signs[i])]
            if left - x < -min(after):
                continue
            if x == left:
                return [x] + [0] * (len(caps) - i - 1)
            rest = first(i + 1, left - x, after)
            if rest is not None:
                return [x] + rest
        return None

    for removed in range(start, sum(caps) + 1):
        comp = first(0, removed, slack)
        if comp is not None:
            left = dict(zip(pools, comp))
            for i, contour in enumerate(up):
                if left.get(contour):
                    removals[i] = min(left[contour], counts[i])
                    left[contour] -= removals[i]
            return removed, removals
    raise AssertionError("removing every opposing voter always works")


def young_score(profile: Profile, cand: int) -> int:
    """Fewest voters whose removal leaves cand unbeaten in every pairwise duel."""
    m = profile.m
    row = profile.pair_counts[cand * m : cand * m + m]
    counts = [count for count, _ in profile.ballots]
    return _young(row, _upper_contours(m, profile.ballots)[cand], counts, cand)[0]


def young_decision(m, n, h, ballots):
    """The least Young scores; the trace's removals are per ballot in order."""
    counts = [count for count, _ in ballots]
    found = [
        _young(h[a * m : a * m + m], up, counts, a)
        for a, up in enumerate(_upper_contours(m, ballots))
    ]
    scores = [score for score, _ in found]
    removals = {a: removed for a, (_, removed) in enumerate(found)}
    return _argmin(scores), scores, {"removals": removals}


# -- Dodgson --------------------------------------------------------------------


def dodgson_score(profile: Profile, cand: int) -> int:
    """Fewest adjacent swaps making cand beat everyone strictly."""
    m = profile.m
    row = profile.pair_counts[cand * m : cand * m + m]
    return _dodgson(m, profile.n, profile.ballots, row, cand)


def _dodgson(m: int, n: int, ballots: Ballots, row: Sequence[int], cand: int) -> int:
    """Dodgson score of cand, given its tournament row h(cand, .).

    Only upward moves of cand are searched: a swap not lifting cand never
    increases any h(cand, .), and displacing a blocker costs exactly as much
    as passing it.  The unrestricted-swap oracle in the search module
    cross-checks this restriction.
    """
    need = n // 2 + 1
    opponents = [b for b in range(m) if b != cand]
    deficits = tuple(max(0, need - row[b]) for b in opponents)
    if not any(deficits):
        return 0
    opp_index = {b: j for j, b in enumerate(opponents)}
    # For each ballot type: a voter lifting cand by s positions gains one
    # duel vote against each of the s candidates immediately above cand.
    # Per type the choice is the nonincreasing vector z, where z[d] voters
    # lift past depth d+1; its cost is sum(z).
    types = []
    for count, ranking in ballots:
        p = ranking.index(cand)
        above = [opp_index[ranking[p - 1 - off]] for off in range(p)]
        types.append((count, above))

    # Lifting cand to the top of every ballot costs at most n * (m - 1)
    # swaps, so this bound marks a state with no completion: it exceeds every
    # feasible cost.
    INFEASIBLE = n * (m - 1) + 1
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def best(i: int, defs: tuple[int, ...]) -> int:
        if not any(defs):
            return 0
        if i == len(types):
            return INFEASIBLE
        key = (i, defs)
        if key in memo:
            return memo[key]
        count, above = types[i]
        # open_[d]: the largest deficit against a candidate at depth d + 1 or
        # deeper; lifting more voters than that past depth d + 1 is pure waste
        open_ = [0] * (len(above) + 1)
        for d in range(len(above) - 1, -1, -1):
            open_[d] = max(open_[d + 1], defs[above[d]])
        result = INFEASIBLE
        # Depth-first over this type's z, one frame per ballot type.  A node
        # has lifted past `depth` candidates, the last with `cap` voters, at
        # `cost` swaps; with cap 0 it stops and hands the deficits `left` to
        # the next type.
        stack = [(0, count, 0, defs)]
        while stack:
            depth, cap, cost, left = stack.pop()
            # each swap gains at most one needed duel vote, so the remaining
            # deficit bounds the remaining cost from below
            if cost + sum(left) >= result:
                continue
            top = min(cap, open_[depth])
            if not top:
                result = min(result, cost + best(i + 1, left))
                continue
            j = above[depth]
            # Largest lifts pop first.  Past a candidate with no deficit left
            # a lift pays only deeper, so there stopping pops first.
            stop = (depth, 0, cost, left)
            if left[j]:
                stack.append(stop)
            for z in range(1, top + 1):
                new = left[:j] + (max(0, left[j] - z),) + left[j + 1 :]
                stack.append((depth + 1, z, cost + z, new))
            if not left[j]:
                stack.append(stop)
        memo[key] = result
        return result

    score = best(0, deficits)
    assert score < INFEASIBLE, "lifting cand to the top of every ballot always works"
    return score


def dodgson_decision(m, n, h, ballots):
    """The least Dodgson scores."""
    scores = [_dodgson(m, n, ballots, h[a * m : a * m + m], a) for a in range(m)]
    return _argmin(scores), scores, None


# -- convex median ----------------------------------------------------------------


def _piecewise_depth_pieces(pos_column: Sequence[int], m: int):
    """Yield (j, N, C): on depth interval [j, j+1] the truncated positional
    score is C + t*N, where N counts voters ranking the candidate in the top
    j+1 and C is the constant part."""
    N = pos_column[0] + (pos_column[1] if m > 1 else 0)
    C = -(pos_column[1] if m > 1 else 0)
    j = 1
    while True:
        yield j, N, C
        j += 1
        if j + 1 <= m:
            N += pos_column[j]
            C -= j * pos_column[j]


def _column(pos: Sequence[int], m: int, cand: int) -> Sequence[int]:
    """Rank counts of one candidate, rank 1 first."""
    return pos[cand::m]


def _majority_winner(m: int, n: int, pos: Sequence[int]) -> int | None:
    for a in range(m):
        if 2 * pos[a] > n:
            return a
    return None


def _convex_median_depth(col: Sequence[int], m: int, n: int) -> tuple[int, int]:
    """The convex median score of a rank-count column as (numerator, denominator)."""
    if 2 * col[0] > n:
        raise ValueError("score undefined for a strict majority winner")
    for j, N, C in _piecewise_depth_pieces(col, m):
        right = C + (j + 1) * N
        if 2 * right <= n * (j + 1):
            continue
        # Crossing inside [j, j+1): solve 2(C + tN) = n t exactly; the
        # left side grows faster than n t there, so 2N - n > 0.
        num, den = -2 * C, 2 * N - n
        assert j * den <= num < (j + 1) * den
        return num, den


def convex_median_score(profile: Profile, cand: int) -> Fraction:
    """Largest depth t with truncated-score average B_t/t still at most n/2.

    Piecewise linear in t, so the crossing is solved exactly per unit
    interval.  Undefined (raises) when the candidate is a strict majority
    winner, since then no depth satisfies the condition.
    """
    col = _column(profile.rank_counts, profile.m, cand)
    return Fraction(*_convex_median_depth(col, profile.m, profile.n))


def convex_median_decision(m, n, h, pos):
    """The strict majority winner, else the least convex median scores.

    Scores are (numerator, denominator) pairs compared by cross-multiplying.
    """
    mw = _majority_winner(m, n, pos)
    if mw is not None:
        return (mw,), None, {"majority_winner": mw}
    depths = [_convex_median_depth(_column(pos, m, a), m, n) for a in range(m)]
    low, low_den = depths[0]
    for num, den in depths[1:]:
        if num * low_den < low * den:
            low, low_den = num, den
    won = tuple(a for a, (num, den) in enumerate(depths) if num * low_den == low * den)
    return won, depths, None


# -- proportional veto core -------------------------------------------------------


def proportional_veto_core_decision(m, n, h, ballots):
    """All candidates no coalition can block.

    A coalition of t voters blocks candidate a through a nonempty set B of
    candidates they all prefer to a when |A \\ B| * n < m * t.  For a fixed
    B the largest such coalition is every voter ranking all of B above a,
    so a is blocked iff some nonempty B within A \\ {a} has
    (m - |B|) * n < m * t(B), where t(B) counts the voters whose upper
    contour of a contains B.  Widening B to the intersection of every
    contour containing it keeps t(B) and only lowers m - |B|, so only the
    nonempty intersections of contours need trying: at most
    min(2^T, 2^(m-1)) - 1 sets for T ballot types, tried in increasing
    bitmask order.  Scores are 1 for a stable candidate and 0 for a blocked
    one.
    """
    counts = [count for count, _ in ballots]
    blocked: dict[int, dict] = {}
    for a, up in enumerate(_upper_contours(m, ballots)):
        pooled: dict[int, int] = {}
        for contour, count in zip(up, counts):
            if contour:
                pooled[contour] = pooled.get(contour, 0) + count
        family: set[int] = set()
        for contour in pooled:
            family |= {contour} | {contour & s for s in family}
        family.discard(0)
        for bset in sorted(family):
            voters = sum(t for c, t in pooled.items() if c & bset == bset)
            if (m - bset.bit_count()) * n < m * voters:
                blocked[a] = {
                    "coalition_types": [i for i, c in enumerate(up) if c & bset == bset],
                    "coalition_size": voters,
                    "blocking_set": [c for c in range(m) if bset >> c & 1],
                }
                break
    stable = tuple(a for a in range(m) if a not in blocked)
    return stable, [0 if a in blocked else 1 for a in range(m)], {"blocked": blocked}


# -- depth-threshold rule trading off with positional dominance --------------------


def _truncated_scores(col: Sequence[int], m: int) -> list[int]:
    """B_t for t = 1..m-1: the piece j = t gives B_t = C + t*N."""
    pieces = itertools.islice(_piecewise_depth_pieces(col, m), m - 1)
    return [C + t * N for t, N, C in pieces]


def integer_truncated_scores(profile: Profile, cand: int) -> list[int]:
    """B_t(cand) for integer depths t = 1..m-1 (integer arithmetic)."""
    return _truncated_scores(_column(profile.rank_counts, profile.m, cand), profile.m)


def second_order_dominates(bt_a: Sequence[int], bt_b: Sequence[int]) -> bool:
    """Second-order positional dominance via integer truncated scores."""
    if bt_a[-1] <= bt_b[-1]:
        return False
    return all(x >= y for x, y in zip(bt_a, bt_b))


def tradeoff_score(profile: Profile, cand: int) -> ExactNumber:
    """Largest depth t with (3t+1)/(2(t+1)) * B_t/t at most n/2.

    The weighting factor and the truncated-score average are both
    nondecreasing in t, so the feasible set is an initial interval; per unit
    interval the boundary is a quadratic with integer coefficients, solved
    exactly.  Undefined (raises) for a strict majority winner.
    """
    col = _column(profile.rank_counts, profile.m, cand)
    return _tradeoff_depth(col, profile.m, profile.n)


def _tradeoff_depth(col: Sequence[int], m: int, n: int) -> ExactNumber:
    if 2 * col[0] > n:
        raise ValueError("score undefined for a strict majority winner")
    for j, N, C in _piecewise_depth_pieces(col, m):
        t1 = j + 1
        right = C + t1 * N
        if (3 * t1 + 1) * right <= n * t1 * (t1 + 1):
            continue
        # Crossing inside [j, j+1): (3N-n) t^2 + (3C+N-n) t + C = 0.
        roots = ExactNumber.quadratic_roots(3 * N - n, 3 * C + N - n, C)
        in_piece = [t for t in roots if exact(j) <= t <= exact(j + 1)]
        assert in_piece, "a sign change must bracket a root"
        return in_piece[-1]


def theorem12_decision(m, n, h, pos):
    """The strict majority winner, else the lowest tradeoff scores, dropping
    dominated candidates on ties.

    When several candidates tie at the minimal score, any of them that is
    second-order positionally dominated loses to its dominator (which
    necessarily ties too); dropping dominated candidates keeps the choice
    set nonempty and makes the rule respect positional dominance.
    """
    mw = _majority_winner(m, n, pos)
    if mw is not None:
        return (mw,), None, {"majority_winner": mw}
    cols = [_column(pos, m, a) for a in range(m)]
    scores = [_tradeoff_depth(col, m, n) for col in cols]
    argmin = _argmin(scores)
    won = argmin
    if len(argmin) > 1:
        bt = {a: _truncated_scores(cols[a], m) for a in argmin}
        won = tuple(
            a for a in argmin if not any(second_order_dominates(bt[b], bt[a]) for b in argmin)
        )
    return won, scores, {"score_argmin": list(argmin)}


# -- closed-form quotas ---------------------------------------------------------------

HALF = Fraction(1, 2)
ONE = Fraction(1)


def scoring_rule_quota(scores: ScoreVector, k: int) -> Fraction:
    """Tight majority quota of a monotonic scoring rule for a given k."""
    m = len(scores)
    if not 1 <= k < m:
        raise ValueError(f"k must satisfy 1 <= k < m, got k={k}, m={m}")
    s = scores.scores
    bottom_avg = sum(s[m - i] for i in range(1, k + 1)) / k
    top_avg = sum(s[i] for i in range(k)) / k
    num = s[0] - bottom_avg
    den = num + top_avg - s[k]
    return num / den


def _clr_bound(k: int) -> Fraction:
    if k % 2 == 0:
        return Fraction(5 * k - 2, 8 * k)
    return Fraction(5 * k * k - 2 * k + 1, 8 * k * k)


def _convex_median_quota(k: int, m: int) -> ExactNumber:
    if m > 2 * k:
        return exact(Fraction(3 * k - 1, 4 * k))
    if m == k + 1:
        return exact(HALF)
    # k + 1 < m <= 2k: the bound is the root, between 1/2 and (3k-1)/(4k),
    # of 4k(m-k-1) q^2 + (5k^2 + 5k - 2mk - m^2 + m) q + m(m-1-2k) = 0.
    roots = ExactNumber.quadratic_roots(
        4 * k * (m - k - 1),
        5 * k * k + 5 * k - 2 * m * k - m * m + m,
        m * (m - 1 - 2 * k),
    )
    inside = [r for r in roots if exact(HALF) <= r <= exact(Fraction(3 * k - 1, 4 * k))]
    assert len(inside) == 1, "exactly one root lies in the admissible range"
    return inside[0]


def _convex_median_veto(l: int, half: bool) -> ExactScore:
    if l == 1:
        return HALF
    at_double = _convex_median_quota(l, 2 * l)
    return at_double if half else max(at_double, _convex_median_quota(l - 1, 2 * l - 1))


# -- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class _Rule:
    """A registered rule: the factory giving its decision at m candidates,
    the statistics that decision reads, how a report shows its result, and
    the paper's closed-form quotas.

    ``tournament`` says whether the decision reads the tournament counts,
    and ``stat`` whether its last argument is the rank counts ("ranks"), the
    ballots ("ballots") or nothing (None).  The exhaustive search memoises
    a rule that reads no ballots on exactly these statistics, with those
    its winner screen reads, so the decision gets None for any it leaves
    out.  ``show`` turns a raw score into
    the report's score and ``explain`` turns the raw trace of a profile with
    m candidates into the report's; None keeps the raw value.

    ``majority(k, m)`` is the tight (q,k,m)-majority quota, ``majority_sup(k)``
    its supremum over m (by default the per-m form, when that ignores m) and
    ``veto_sup(l, half)`` the (q,l)-veto quota's supremum over m >= 3, or
    over m >= 2l with ``half``.  Each returns a value, or Dodgson's (lo, hi)
    interval; None means the paper gives no closed form.  ``text`` maps a
    table's mode ("majority", "veto", "veto-half"; clr splits "majority:even"
    and "majority:odd") to the general-size formula and its supremum over
    the size; a mode it leaves out reads ("1", 1).

    ``always_elects`` names the winner the rule elects alone whenever the
    profile has one: "condorcet" for a strict Condorcet winner, beating
    every other candidate in a strict majority duel, and "majority" for a
    strict first-place majority winner.  The exhaustive search then answers
    such a profile without calling the decision; reports never do.  None
    makes no such claim.
    """

    decision: Callable[[int], Decision]
    tournament: bool
    stat: str | None
    show: Callable[[object], ExactScore] | None = None
    explain: Callable[[int, dict], dict] | None = None
    majority: Callable[[int, int | None], object] | None = None
    majority_sup: Callable[[int], object] | None = None
    veto_sup: Callable[[int, bool], object] | None = None
    text: dict[str, tuple[str, Fraction]] = field(default_factory=dict)
    always_elects: str | None = None

    def __post_init__(self):
        if self.majority_sup is None and self.majority is not None:
            object.__setattr__(self, "majority_sup", lambda k: self.majority(k, None))


def _vector_rule(make: Callable[[int], ScoreVector], den: int = 1, **fields) -> _Rule:
    """The positional rule scoring m candidates with the vector make(m).
    Its decision sums the vector times ``den``, its weights' common
    denominator, so a total t is shown as the fraction t/den.  A lone
    candidate has no score vector; its one position counts 1 per voter.
    Its per-m quota is the scoring rule's."""

    @functools.cache
    def decide(m: int) -> Decision:
        return scoring_decision(_integer_weights(make(m))[0] if m > 1 else (1,))

    return _Rule(decide, False, "ranks", lambda t: Fraction(t, den),
                 majority=lambda k, m: scoring_rule_quota(make(m), k), **fields)


_BORDA = _vector_rule(
    ScoreVector.borda, majority_sup=lambda k: ONE,
    veto_sup=lambda l, half: (
        HALF if l == 1 else Fraction(3 * l - 1, 4 * l) if half else Fraction(l, l + 1)
    ),
    text={"veto": ("l/(l+1)", ONE), "veto-half": ("(3l-1)/(4l)", Fraction(3, 4))},
)
_SIMPSON_QUOTAS = dict(
    majority=lambda k, m: max(HALF, Fraction(k - 1, k)), veto_sup=lambda l, half: ONE,
    text={"majority": ("(k-1)/k", ONE)},
)
_RULES: dict[str, _Rule] = {
    "plurality": _vector_rule(
        ScoreVector.plurality, majority_sup=lambda k: Fraction(k, k + 1),
        veto_sup=lambda l, half: ONE, text={"majority": ("k/(k+1)", ONE)},
        always_elects="majority",
    ),
    "runoff": _Rule(
        lambda m: runoff_decision, True, "ranks",
        majority=lambda k, m: HALF if k in (1, m - 1) else Fraction(k, k + 2),
        majority_sup=lambda k: max(HALF, Fraction(k, k + 2)),
        veto_sup=lambda l, half: HALF if l == 1 else ONE, text={"majority": ("k/(k+2)", ONE)},
        always_elects="majority",
    ),
    "irv": _Rule(
        lambda m: instant_runoff_decision, False, "ballots",
        majority=lambda k, m: HALF, veto_sup=lambda l, half: HALF,
        text=dict.fromkeys(("majority", "veto", "veto-half"), ("1/2", HALF)),
        always_elects="majority",
    ),
    "borda": _BORDA,
    "antiplurality": _vector_rule(
        ScoreVector.antiplurality, majority_sup=lambda k: ONE,
        veto_sup=lambda l, half: Fraction(1, 3) if l == 1 else ONE,
    ),
    "simpson": _Rule(
        lambda m: simpson_decision, True, None, **_SIMPSON_QUOTAS, always_elects="condorcet",
    ),
    "young": _Rule(
        lambda m: young_decision, True, "ballots", **_SIMPSON_QUOTAS,
        always_elects="condorcet",
    ),
    "dodgson": _Rule(
        lambda m: dodgson_decision, True, "ballots",
        majority=lambda k, m: (_clr_bound(k), Fraction(k, k + 1)),
        veto_sup=lambda l, half: (Fraction(5, 8), ONE), always_elects="condorcet",
    ),
    "clr": _Rule(
        lambda m: clr_decision, True, None, lambda d: Fraction(d, 2), _clr_trace,
        majority=lambda k, m: _clr_bound(k), veto_sup=lambda l, half: Fraction(5, 8),
        text={
            "majority:even": ("(5k-2)/(8k)", Fraction(5, 8)),
            "majority:odd": ("(5k^2-2k+1)/(8k^2)", Fraction(5, 8)),
            **dict.fromkeys(("veto", "veto-half"), ("5/8", Fraction(5, 8))),
        },
        always_elects="condorcet",
    ),
    "black": _Rule(
        lambda m: black_decision, True, None, Fraction,
        majority=lambda k, m: HALF if k == 1 else _BORDA.majority(k, m),
        majority_sup=lambda k: HALF if k == 1 else ONE,
        veto_sup=lambda l, half: (
            _BORDA.veto_sup(l, half) if l == 1 or half else Fraction(2 * l + 1, 2 * l + 4)
        ),
        text={**_BORDA.text, "veto": ("(2l+1)/(2l+4)", ONE)},
        always_elects="condorcet",
    ),
    "convexmedian": _Rule(
        lambda m: convex_median_decision, False, "ranks", lambda depth: Fraction(*depth),
        majority=_convex_median_quota, majority_sup=lambda k: Fraction(3 * k - 1, 4 * k),
        veto_sup=_convex_median_veto,
        text={
            "majority": ("(3k-1)/(4k)", Fraction(3, 4)),
            "veto": ("(3l-4)/(4l-4)", Fraction(3, 4)),
            "veto-half": ("(-7+3l+sqrt(17-10l+9l^2))/(8l-8)", Fraction(3, 4)),
        },
        always_elects="majority",
    ),
    "vetocore": _Rule(
        lambda m: proportional_veto_core_decision, False, "ballots",
        majority=lambda k, m: Fraction(m - k, m), majority_sup=lambda k: ONE,
        veto_sup=lambda l, half: (
            Fraction(1, 3) if l == 1 else HALF if half else Fraction(l, l + 1)
        ),
        text={"veto": ("l/(l+1)", ONE), "veto-half": ("1/2", HALF)},
    ),
    "t12rule": _Rule(lambda m: theorem12_decision, False, "ranks", always_elects="majority"),
}

RULE_IDS = tuple(_RULES)


def parse_score_vector(spec: str, m: int) -> ScoreVector:
    """Parse the payload of a scoring:<s1,...,sm> rule id."""
    parts = [p.strip() for p in spec.split(",")]
    if len(parts) != m:
        raise ValueError(f"scoring rule has {len(parts)} weights for m={m}")
    return ScoreVector(tuple(Fraction(p) for p in parts))


@functools.lru_cache(maxsize=256)
def _rule(rule_id: str, m: int) -> _Rule:
    """The record of a rule id at m candidates; a scoring:<s1,...,sm> id's
    record is built from its m-entry vector once per cached (id, m)."""
    if rule_id.startswith("scoring:"):
        vec = parse_score_vector(rule_id[len("scoring:") :], m)
        return _vector_rule(lambda _: vec, _integer_weights(vec)[1])
    if rule_id not in _RULES:
        raise ValueError(f"unknown rule id {rule_id!r}")
    return _RULES[rule_id]


def report(rule_id: str, profile: Profile) -> ScoreReport:
    """Evaluate a rule by its stable identifier.

    The decision reads only the statistics its record names, from the
    profile's stored tallies, which are counted once per profile.  A decision
    returning no scores (a strict majority winner under convexmedian or
    t12rule) leaves every candidate's score None.
    """
    m = profile.m
    rule = _rule(rule_id, m)
    h = profile.pair_counts if rule.tournament else None
    if rule.stat == "ballots":
        stat = profile.ballots
    else:
        stat = profile.rank_counts if rule.stat == "ranks" else None
    won, raw, trace = rule.decision(m)(m, profile.n, h, stat)
    if raw is None:
        scores = dict.fromkeys(range(m))
    else:
        scores = dict(enumerate(raw if rule.show is None else map(rule.show, raw)))
    if trace and rule.explain is not None:
        trace = rule.explain(m, trace)
    return ScoreReport(rule_id, ChoiceSet(won), scores, trace or {})


def winners(rule_id: str, profile: Profile) -> ChoiceSet:
    return report(rule_id, profile).winners


def closed_form(rule_id: str, name: str, what: str, m: int | None = None):
    """A rule's closed-form quota or table text, its record's field
    ``name``; a ValueError naming ``what`` when the rule has none.  Given m,
    a scoring:<s1,...,sm> id's record at m candidates is read too."""
    scoring = m is not None and rule_id.startswith("scoring:")
    rule = _rule(rule_id, m) if scoring else _RULES.get(rule_id)
    form = getattr(rule, name, None)
    if form is None:
        raise ValueError(f"no closed-form {what} for rule id {rule_id!r}")
    return form
