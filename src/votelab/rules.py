"""Voting rules as choice correspondences with inspectable score reports.

Every rule maps a profile to a nonempty set of tied winners; no arbitrary
tie-breaking is ever applied.  Scores are exact: integers, rationals, or
quadratic irrationals, so argmin/argmax decisions are never made in floating
point.

Every rule is decided by one function that needs no Profile,
``decide(m, n, h, stat) -> (winners, scores, trace)``.  ``h[a*m + b]``
counts the voters preferring a to b, a flat integer sequence; ``stat`` is
as the rule's record says (see ``_Rule``), for a tally-based rule the flat
rank counts, ``pos[l*m + a]`` voters ranking a at position l + 1.  Winners
come back as ascending candidate indices and scores in the rule's raw
form, integers wherever the value is an integer.  The exhaustive search
calls the same functions on tallies it updates incrementally, so each rule
has one definition; no rule reads ballots there.  Five rules value each
candidate by a function of its own lanes alone, which the search calls in
place of the decision: convex median and the t12 rule of its rank-count
column, Young and the veto core of its contour lanes, Dodgson of its prefix
lanes.  Their decisions compute the same values from the ballots.

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

import bisect
import collections
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Container, Sequence

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


@functools.cache
def _prefixes(m: int) -> tuple[tuple[int, ...], ...]:
    """The ordered sets a ballot can rank above a candidate, top first, over
    the other m - 1 candidates relabelled 0..m-2, shortest first."""
    return tuple(p for j in range(m) for p in itertools.permutations(range(m - 1), j))


def _contour_lane(a: int, above: int) -> int:
    """a's contour lane among its own for the bitmask of the set ranked above
    it: the set relabelled over the others as b - (b > a), bit a taken out."""
    return above & (1 << a) - 1 | above >> a + 1 << a


@functools.cache
def _layout(m: int, stat: str | None):
    """Where the search counts a rule's ``stat``, as (lanes, stride, step,
    width): ``lanes(r)[a]`` is the lane a voter ranking r adds one to for
    candidate a, cached per ranking met, and a's lanes are a*stride +
    j*step for j < width, j = 0 its first places.  Rank counts are
    rank-major, lane l*m + a for rank l + 1; a's contour lanes are
    _contour_lane's, its prefix lane j the index in _prefixes(m) of the
    ordered set ranked above it, relabelled as there."""
    cached = functools.lru_cache(maxsize=8192)  # a search meets 5,040 rankings at most
    if stat is None:
        return cached(lambda r: ()), 0, 0, 0
    if stat == "ranks":
        return cached(lambda r: tuple(r.index(a) * m + a for a in range(m))), 1, m, m
    if stat == "contours":
        w, j = 1 << m - 1, lambda a, above: _contour_lane(a, sum(1 << b for b in above))
    else:
        index = {p: i for i, p in enumerate(_prefixes(m))}
        w, j = len(index), lambda a, above: index[tuple(b - (b > a) for b in above)]
    return cached(lambda r: tuple(a * w + j(a, r[: r.index(a)]) for a in range(m))), w, 1, w


def _packed(m: int, ballots: Ballots):
    """The contour lanes counted from the ballots: a list of them all up to
    m = 7, the most candidates a search takes.  Past that, as a block grows
    as 2^m, per candidate its nonzero lanes as (U, count) pairs, U the
    bitmask of the candidates ranked above it, not relabelled, fewest
    members first, and ends, where ends[j] pairs have at most j members."""
    if m > 7:
        blocks = [collections.defaultdict(int) for _ in range(m)]
        for count, ranking in ballots:
            above = 0
            for a in ranking:
                blocks[a][above] += count
                above |= 1 << a
        sized = []
        for block in blocks:
            pairs = sorted(block.items(), key=lambda lane: lane[0].bit_count())
            sizes = [u.bit_count() for u, _ in pairs]
            sized.append((pairs, [bisect.bisect_right(sizes, j) for j in range(m)]))
        return sized
    lanes_of, width = _layout(m, "contours")[::3]
    lanes = [0] * (m * width)
    for count, ranking in ballots:
        for i in lanes_of(ranking):
            lanes[i] += count
    return lanes


def _upper_contours(m: int, ballots: Ballots) -> list[list[int]]:
    """up[a][i]: ballot type i's contour lane among a's, the bitmask of the
    candidates it ranks above a, relabelled b - (b > a)."""
    lanes_of, width = _layout(m, "contours")[::3]
    rows = [lanes_of(r) for _, r in ballots]
    return [[row[a] - a * width for row in rows] for a in range(m)]


def _pooled(up: Sequence[int], counts: Sequence[int]) -> dict[int, int]:
    """Voters per nonempty upper contour of one candidate, given each ballot
    type's contour and count; contours in order of first appearance."""
    pools: dict[int, int] = {}
    for contour, count in zip(up, counts):
        if contour:
            pools[contour] = pools.get(contour, 0) + count
    return pools


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


@functools.lru_cache(maxsize=4096)
def _transfer_getters(m: int, active: frozenset[int]) -> tuple[tuple[int, Callable], ...]:
    """Per active candidate a, a getter of its contour lanes c(a, U) whose U
    holds no other active candidate, from the list of lanes _packed gives
    up to m = 7."""
    width, held = _layout(m, "contours")[3], sum(1 << a for a in active)
    getters = []
    for a in active:
        bits = _contour_lane(a, held)
        lanes = [a * width + u for u in range(width) if not u & bits]
        # a getter of one index gives no tuple, one of a slice a sequence
        get = operator.itemgetter(*lanes if len(lanes) > 1 else [slice(lanes[0], lanes[0] + 1)])
        getters.append((a, get))
    return tuple(getters)


def instant_runoff_decision(m, n, h, contours):
    """Iteratively delete a candidate with the fewest top positions: a's
    among the active candidates sums its contour lanes c(a, U), as _packed
    gives them, of every U holding none of the others.  Past m = 7 such a U
    has at most m - |active| members, so a's nonzero lanes are scanned up
    to that size.

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
        if m > 7:
            held, most = sum(1 << a for a in active), m - len(active)
            tally = {
                a: sum(c for u, c in contours[a][0][: contours[a][1][most]] if not u & held)
                for a in active
            }
        else:
            tally = {a: sum(get(contours)) for a, get in _transfer_getters(m, active)}
        tallies[active] = tally
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


def _young(n: int, row: Sequence[int], pools: dict[int, int]):
    """Young score of cand and a minimal removal, as voters per pool.

    ``row`` holds cand's duel counts h(cand, b) against its opponents and
    ``pools`` maps each nonempty upper contour of cand, a bitmask over row's
    indices, to the voters who have it; the others rank cand on top.
    Writing h' for the kept votes, the target
    "2 h'(cand, b) >= n - removed" becomes, per opponent, (removed voters
    ranking cand above b) - (removed voters ranking b above cand) <=
    2 h(cand, b) - n, which no longer mentions the removal size; so one
    removal improves each pairwise deficit by at most one, giving the
    starting size max_b (n - 2 h(cand, b)), and voters ranking cand on top
    never belong to a minimal removal set.  The constraints see a removed
    voter only through its sign pattern, cand above or below each opponent,
    which its upper contour determines, so removals are searched per pool
    in increasing total size, which is exhaustive because the profile is
    anonymous.  Each size is walked depth first, pool by pool in the
    order given, taking the fewest voters from each pool first, so the
    removal returned is the lexicographically first of the least size.
    The score does not depend on the order of the pools; that removal does.

    A pool's count is not tried value by value: the cut below leaves one
    interval of counts, computed in closed form.  After x voters leave
    pool i, with ``rest`` still to remove from the later pools, of which
    H_b rank b above cand, the most a completion can add to opponent b's
    residual is min(rest, H_b) - (rest - min(rest, H_b)), so a branch with
    res_b + 2 min(rest, H_b) - rest < 0 for some b returns None.  Against
    an opponent the pool ranks below cand, x lowers res_b by x: with
    rest <= H_b the cut reads x <= (left + res_b) / 2, and with rest > H_b
    it reads res_b + 2 H_b - left >= 0, whatever x is.  Where that fails,
    no count works, as then left - H_b > (left + res_b) / 2; where it
    holds, every count below left - H_b is below (left + res_b) / 2 too.
    So the top of the interval is (left + res_b) // 2.  Against an
    opponent the pool ranks above cand, res_b + left >= 0 must hold
    already, and the bottom is ceil((left - res_b) / 2) - H_b.  Every count
    the interval drops has a branch that returns None, so the first
    removal found, and with it every trace, is the one the plain walk
    finds.
    """
    slack = [2 * x - n for x in row]
    start = -min(slack, default=0)
    if start <= 0:
        return 0, [0] * len(pools)
    contours, caps = list(pools), list(pools.values())
    bits = range(len(row))
    # tails[i], helps[i][b]: the voters in pools i, i+1, ..., and those of
    # them ranking b above cand
    tails, helps = [0], [[0] * len(row)]
    for c, cap in zip(reversed(contours), reversed(caps)):
        tails.append(tails[-1] + cap)
        helps.append([h + cap if c >> b & 1 else h for b, h in zip(bits, helps[-1])])
    tails.reverse()
    helps.reverse()

    def first(i: int, left: int, res: list[int]) -> list[int] | None:
        """The lexicographically first voter counts for pools i, i+1, ...
        that remove left voters and leave every residual nonnegative, or
        None.  res[b] is slack[b] less the signs of the voters removed so
        far against opponent b."""
        c, later = contours[i], helps[i + 1]
        lo, hi = max(0, left - tails[i + 1]), min(caps[i], left)
        for b in bits:
            r = res[b]
            if c >> b & 1:
                if r + left < 0:
                    return None
                bound = (left - r + 1) // 2 - later[b]
                if bound > lo:
                    lo = bound
            else:
                if r + 2 * later[b] < left:
                    return None
                if (left + r) // 2 < hi:
                    hi = (left + r) // 2
        for x in range(lo, hi + 1):
            if x == left:
                return [x] + [0] * (len(caps) - i - 1)
            after = [r + x if c >> b & 1 else r - x for b, r in zip(bits, res)] if x else res
            rest = first(i + 1, left - x, after)
            if rest is not None:
                return [x] + rest
        return None

    for removed in range(start, tails[0] + 1):
        comp = first(0, removed, slack)
        if comp is not None:
            return removed, comp
    raise AssertionError("removing every opposing voter always works")


def _young_score(m: int, n: int, lanes: Sequence[int]) -> int:
    """Young score of a candidate from its contour counts alone, lanes[U]
    the voters whose upper contour of it is U, a bitmask over the other
    m - 1 candidates: h(cand, b) is n less the voters whose contour holds
    b.  The score does not change when candidates are relabelled."""
    pools = {u: c for u, c in enumerate(lanes) if u and c}
    row = [n - sum(t for c, t in pools.items() if c >> b & 1) for b in range(m - 1)]
    return _young(n, row, pools)[0]


def young_score(profile: Profile, cand: int) -> int:
    """Fewest voters whose removal leaves cand unbeaten in every pairwise duel."""
    m = profile.m
    row = [profile.pair_counts[cand * m + b] for b in range(m) if b != cand]
    counts = [count for count, _ in profile.ballots]
    return _young(profile.n, row, _pooled(_upper_contours(m, profile.ballots)[cand], counts))[0]


def young_decision(m, n, h, ballots):
    """The least Young scores.  The trace's removals are per ballot in
    order: each pool's removed voters spread over its types in that order."""
    counts = [count for count, _ in ballots]
    scores, removals = [], {}
    for a, up in enumerate(_upper_contours(m, ballots)):
        pools = _pooled(up, counts)
        score, comp = _young(n, [h[a * m + b] for b in range(m) if b != a], pools)
        left = dict(zip(pools, comp))
        removed = [0] * len(counts)
        for i, contour in enumerate(up):
            take = left.get(contour)
            if take:
                removed[i] = min(take, counts[i])
                left[contour] = take - removed[i]
        scores.append(score)
        removals[a] = removed
    return _argmin(scores), scores, {"removals": removals}


# -- Dodgson --------------------------------------------------------------------


def dodgson_score(profile: Profile, cand: int) -> int:
    """Fewest adjacent swaps making cand beat everyone strictly."""
    m, n = profile.m, profile.n
    row = _dodgson_row(m, n, profile.pair_counts, cand)
    return _dodgson(n, row, _prefix_types(m, profile.ballots)[cand])


def _dodgson_row(m: int, n: int, h: Sequence[int], a: int) -> list[int]:
    """a's row of h for _dodgson, indexed by candidate, with n in a's own
    place, so that a has no deficit against itself."""
    row = list(h[a * m : a * m + m])
    row[a] = n
    return row


def _prefix_types(m: int, ballots: Ballots) -> list[list[tuple[int, tuple[int, ...]]]]:
    """Per candidate, its voters pooled by the ordered candidates they rank
    above it, as (count, above) types for _dodgson, above nearest first, in
    order of first appearance; voters ranking it on top are left out.  One
    pass over the ballots."""
    pools: list[dict[tuple[int, ...], int]] = [{} for _ in range(m)]
    for count, ranking in ballots:
        for d in range(1, m):
            pool, above = pools[ranking[d]], ranking[d - 1 :: -1]
            pool[above] = pool.get(above, 0) + count
    return [[(count, above) for above, count in pool.items()] for pool in pools]


def _dodgson_score(m: int, n: int, lanes: Sequence[int]) -> int:
    """Dodgson score of a candidate from its prefix lanes alone, lanes[i]
    the voters ranking _prefixes(m)[i] above it: h(cand, b) is n less the
    voters whose prefix holds b."""
    types = [(c, p[::-1]) for c, p in zip(lanes, _prefixes(m)) if c and p]
    return _dodgson(n, [n - sum(c for c, p in types if b in p) for b in range(m - 1)], types)


def _dodgson(n: int, row: Sequence[int], types: Sequence[tuple[int, Sequence[int]]]) -> int:
    """Dodgson score of a candidate, given its duel counts h(cand, b)
    against its opponents, ``row``, and its voters pooled into (count,
    above) types, ``above`` the opponents ranked above it, nearest first,
    as indices into row.  An entry no type names, such as cand's own given
    as n by `_dodgson_row`, must leave no deficit.

    Only upward moves of cand are searched: a swap not lifting cand never
    increases any h(cand, .), and displacing a blocker costs exactly as much
    as passing it.  The unrestricted-swap oracle in the search module
    cross-checks this restriction.

    A swap closes at most one unit of cand's deficits, so the score is
    their sum plus the fewest wasted swaps, those passing an opponent
    against whom cand needs no more votes.  The waste is found by iterative
    deepening over a budget for it.  Budget 0 is the tight pass: per type
    at most left[j] voters lift past j, and none past an opponent with no
    deficit left; where it closes every deficit, the score is their sum.
    Each larger budget repeats the search, allowing that many wasted
    swaps, until one closes every deficit; the first such budget is the
    least waste, as every smaller one failed.  A deficit larger than the
    voters ranking its opponent above cand closes under no budget, so it
    raises ValueError before the first pass.
    """
    need = n // 2 + 1
    deficits = tuple(max(0, need - x) for x in row)
    total = sum(deficits)
    if not total:
        return 0
    # For each type: a voter lifting cand by s positions gains one duel vote
    # against each of the s candidates immediately above cand.  Per type
    # the choice is the nonincreasing vector z, where z[d] voters lift past
    # depth d+1; its cost is sum(z).

    # avail[i][j]: the voters of types i, i+1, ... ranking j above cand; no
    # budget completes a state whose deficit against j exceeds it
    avail = [[0] * len(row)]
    for count, above in reversed(types):
        voters = avail[-1][:]
        for j in above:
            voters[j] += count
        avail.append(voters)
    avail.reverse()
    if not all(map(operator.le, deficits, avail[0])):
        raise ValueError("a deficit exceeds the voters ranking its opponent above the candidate")
    # failed[(i, defs)]: the largest budget known to leave the deficits defs
    # open after types i, i+1, ...; a smaller one fails too
    failed: dict[tuple[int, tuple[int, ...]], float] = {}
    bounded: set[tuple[int, tuple[int, ...]]] = set()

    def closes(i: int, defs: tuple[int, ...], budget: int) -> bool:
        """Whether types i, i+1, ... close the deficits defs with at most
        budget wasted swaps."""
        if not any(defs):
            return True
        if i == len(types):
            return False
        key = (i, defs)
        if failed.get(key, -1) >= budget:
            return False
        if not all(map(operator.le, defs, avail[i])):
            failed[key] = math.inf
            return False
        if budget and key not in bounded:
            # A voter can pass j closing a deficit only if every opponent
            # it passes first still has one; each further voter passing j
            # wastes a swap, and deficits never reopen.  The tight pass
            # leaves this bound out: it only pays where some budget is spent.
            bounded.add(key)
            reach = [0] * len(row)
            for count, above in types[i:]:
                for j in above:
                    if not defs[j]:
                        break
                    reach[j] += count
            least = max(d - r for d, r in zip(defs, reach))
            if least > 0:
                failed[key] = max(failed.get(key, -1), least - 1)
            if least > budget:
                return False
        count, above = types[i]
        # Depth-first over this type's z, one frame per ballot type.  A node
        # has lifted past `depth` candidates, the last with `cap` voters,
        # leaving the deficits `left` and `spare` of the budget; depth -1
        # stops there and hands them to the next type.  Larger lifts pop
        # first, and stopping last.
        stack = [(0, count, defs, budget)]
        while stack:
            depth, cap, left, spare = stack.pop()
            if depth < 0:
                if closes(i + 1, left, spare):
                    return True
                continue
            stack.append((-1, 0, left, spare))
            if depth < len(above):
                j = above[depth]
                have = left[j]
                top = min(cap, have + spare)
                for z in range(1, min(top, have) + 1):
                    stack.append((depth + 1, z, left[:j] + (have - z,) + left[j + 1 :], spare))
                if top > have:
                    # past have, each further voter wastes its swap past j
                    closed = left[:j] + (0,) + left[j + 1 :]
                    for z in range(have + 1, top + 1):
                        stack.append((depth + 1, z, closed, spare - z + have))
        failed[key] = budget
        return False

    waste = 0
    while not closes(0, deficits, waste):
        waste += 1
    return total + waste


def _dodgson_worst(m: int, n: int, lanes: Sequence[int], rest: int) -> int:
    """An upper bound on a candidate's Dodgson score on every profile of n
    voters adding rest voters to those its prefix lanes count.  Its score
    only rises as it moves down a ballot, so let the rest rank it last, in
    any order: h(cand, b) is then the counted voters' own.  Lifting x of
    the rest from last to first costs x (m - 1) swaps and passes every
    opponent whatever that order, and _dodgson on the counted voters' own
    prefix types closes the deficits left.  That swap sequence exists in
    every completion, so the least total over x is the bound.  x starts
    where the counted voters can close every deficit left, as each opponent
    needs at most n // 2 + 1 - x of them and they rank it above cand where
    they do not rank cand above it; x = rest always can, as n // 2 + 1 <= n.
    It stops once x (m - 1) alone reaches the least total so far."""
    types = [(c, p[::-1]) for c, p in zip(lanes, _prefixes(m)) if c and p]
    counted = sum(lanes)
    row = [counted - sum(c for c, p in types if b in p) for b in range(m - 1)]
    least = math.inf
    for x in range(max(0, n // 2 + 1 - counted), rest + 1):
        if x * (m - 1) >= least:
            break
        least = min(least, x * (m - 1) + _dodgson(n, [h + x for h in row], types))
    return least


def dodgson_decision(m, n, h, ballots):
    """The least Dodgson scores."""
    scores = [
        _dodgson(n, _dodgson_row(m, n, h, a), types)
        for a, types in enumerate(_prefix_types(m, ballots))
    ]
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


def _majority_winner(m: int, n: int, pos: Sequence[int]) -> int | None:
    for a in range(m):
        if 2 * pos[a] > n:
            return a
    return None


def _convex_median_depth(m: int, n: int, col: Sequence[int]) -> tuple[int, int]:
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
    col = profile.rank_counts[cand :: profile.m]
    return Fraction(*_convex_median_depth(profile.m, profile.n, col))


def _least_depths(depths: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """The candidates of least depth, (numerator, denominator) pairs with
    positive denominators compared by cross-multiplying."""
    low, low_den = depths[0]
    won = [0]
    for a in range(1, len(depths)):
        num, den = depths[a]
        left, right = num * low_den, low * den
        if left < right:
            low, low_den = num, den
            won = [a]
        elif left == right:
            won.append(a)
    return tuple(won)


def convex_median_decision(m, n, h, pos):
    """The strict majority winner, else the least convex median scores,
    (numerator, denominator) pairs."""
    mw = _majority_winner(m, n, pos)
    if mw is not None:
        return (mw,), None, {"majority_winner": mw}
    depths = [_convex_median_depth(m, n, pos[a::m]) for a in range(m)]
    return _least_depths(depths), depths, None


# -- proportional veto core -------------------------------------------------------


def _blocking_set(m: int, n: int, pools: dict[int, int]) -> tuple[int, int]:
    """The first set of candidates blocking a candidate, as a bitmask, and
    the size of its largest blocking coalition; (0, 0) when no coalition
    can block it.

    ``pools`` maps each nonempty upper contour of the candidate, a bitmask
    of the candidates ranked above it, to the voters who have it.  A
    coalition of t voters blocks it through a nonempty set B of candidates
    they all prefer to it when |A \\ B| * n < m * t.  For a fixed B the
    largest such coalition is every voter ranking all of B above it, so it
    is blocked iff some nonempty B has (m - |B|) * n < m * t(B), where t(B)
    sums the pools whose contour contains B.  Widening B to the
    intersection of every contour containing it keeps t(B) and only lowers
    m - |B|, so only the nonempty intersections of contours need trying: at
    most min(2^T, 2^(m-1)) - 1 sets for T contours, tried in increasing
    bitmask order.
    """
    family: set[int] = set()
    for contour in pools:
        family |= {contour} | {contour & s for s in family}
    family.discard(0)
    for bset in sorted(family):
        voters = sum(t for c, t in pools.items() if c & bset == bset)
        if (m - bset.bit_count()) * n < m * voters:
            return bset, voters
    return 0, 0


def _blocked(m: int, n: int, lanes: Sequence[int]) -> tuple[int, int]:
    """_blocking_set from a candidate's contour counts alone, the lanes of
    _young_score; the set comes back in their bits."""
    return _blocking_set(m, n, {u: c for u, c in enumerate(lanes) if u and c})


def proportional_veto_core_decision(m, n, h, ballots):
    """All candidates no coalition can block, each tested by _blocking_set.
    Scores are 1 for a stable candidate and 0 for a blocked one; the trace
    names each blocked candidate's blocking set, the ballot types of the
    coalition and its size."""
    counts = [count for count, _ in ballots]
    blocked: dict[int, dict] = {}
    for a, up in enumerate(_upper_contours(m, ballots)):
        bset, voters = _blocking_set(m, n, _pooled(up, counts))
        if bset:
            blocked[a] = {
                "coalition_types": [i for i, c in enumerate(up) if c & bset == bset],
                "coalition_size": voters,
                "blocking_set": [b for b in range(m) if b != a and bset >> b - (b > a) & 1],
            }
    stable = tuple(a for a in range(m) if a not in blocked)
    return stable, [0 if a in blocked else 1 for a in range(m)], {"blocked": blocked}


# -- depth-threshold rule trading off with positional dominance --------------------


def _truncated_scores(col: Sequence[int], m: int) -> list[int]:
    """B_t for t = 1..m-1: the piece j = t gives B_t = C + t*N."""
    pieces = itertools.islice(_piecewise_depth_pieces(col, m), m - 1)
    return [C + t * N for t, N, C in pieces]


def integer_truncated_scores(profile: Profile, cand: int) -> list[int]:
    """B_t(cand) for integer depths t = 1..m-1 (integer arithmetic)."""
    return _truncated_scores(profile.rank_counts[cand :: profile.m], profile.m)


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
    return _tradeoff_depth(profile.m, profile.n, profile.rank_counts[cand :: profile.m])


def _tradeoff_depth(m: int, n: int, col: Sequence[int]) -> ExactNumber:
    """The depth at which g(t) = (3N-n) t^2 + (3C+N-n) t + C, which is
    (3t+1) B_t - n t (t+1) on the piece [j, j+1], first turns positive.

    The loop stops at the first j with g(j) <= 0 < g(j+1): g(1) = 4 B_1 - 2n
    is not positive without a strict majority winner, and each piece starts
    where the last one ends.  With a = 3N-n > 0, j lies between the roots
    and j+1 past the larger, so the larger root is in [j, j+1).  With a < 0,
    g is positive only between the roots, so j+1 lies between them and j at
    or below the smaller, which is in [j, j+1).  Either root is
    (-b + sqrt(b^2 - 4ac)) / (2a); with a = 0 the crossing is -C/b.
    """
    if 2 * col[0] > n:
        raise ValueError("score undefined for a strict majority winner")
    for j, N, C in _piecewise_depth_pieces(col, m):
        t1 = j + 1
        right = C + t1 * N
        if (3 * t1 + 1) * right <= n * t1 * (t1 + 1):
            continue
        a, b = 3 * N - n, 3 * C + N - n
        if a == 0:
            return ExactNumber(-C, 0, 0, b)
        return ExactNumber(-b, 1, b * b - 4 * a * C, 2 * a)


def _tradeoff_value(m: int, n: int, col: Sequence[int]) -> tuple[ExactNumber, list[int]]:
    """A rank-count column's tradeoff depth and truncated scores."""
    return _tradeoff_depth(m, n, col), _truncated_scores(col, m)


def _least_undominated(values: Sequence[tuple[ExactNumber, list[int]]]) -> tuple[int, ...]:
    """The candidates of least tradeoff depth, less those that another of
    them second-order dominates, from each candidate's _tradeoff_value."""
    won = _argmin([depth for depth, _ in values])
    if len(won) > 1:
        bt = [scores for _, scores in values]
        won = tuple(a for a in won if not any(second_order_dominates(bt[b], bt[a]) for b in won))
    return won


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
    values = [_tradeoff_value(m, n, pos[a::m]) for a in range(m)]
    scores = [depth for depth, _ in values]
    return _least_undominated(values), scores, {"score_argmin": list(_argmin(scores))}


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
    and ``stat`` names the lanes the exhaustive search packs after them
    (``_layout``): none (None), the rank counts ("ranks"), or per candidate
    its contour or prefix lanes ("contours", "prefixes").  The decision
    gets those lanes, the ballots if the rule has a ``value``, and None for
    any statistic the record leaves out, as the search memoises it on the
    declared ones.  ``show`` turns a raw score into the report's score and
    ``explain`` turns the raw trace of a profile with m candidates into the
    report's; None keeps the raw value.

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
    such a profile without calling the decision; reports never do.  As
    voters added to a profile only add to its winner's counts, the search
    also skips every profile of a slice that extends a B part (the voters
    ranking the qualified set on top) in which the B part alone shows such
    a winner against the whole voter count.  None makes no such claim.

    ``mutual_majority(m)`` holds the k at which the rule is proved to
    satisfy mutual majority at m candidates: whenever more than half the
    voters rank a k-set B on top, every winner is in B.  The search loop
    never dispatches such a slice at those k; reports never read it.  Each
    declaration rests on the rule's definition, never on its closed form,
    so a search can still refute a closed form.  The proofs:
    k = 1 for every rule with ``always_elects``: B's member is then the
    strict first-place majority winner and Condorcet winner, which the
    rule elects alone.
    k = m - 1 for borda and black: every B voter ranks the lone outsider
    last, so it loses every duel strictly; its Borda score is then below
    the average, and black elects a Condorcet winner, never it, or the
    Borda winners.
    irv at every k: while a member of B is active, B's voters give their
    first places to B, so the last active member holds more than n/2 of
    them and is never the fewest.
    runoff at k <= 2 and k = m - 1: two outsiders cannot both be
    finalists, since with B's members they would hold more than n first
    places, and a finalist in B beats an outsider by a strict majority.
    simpson, young and clr at k = 2: some b in B has 2 h(b, b') >= n
    against the other member and 2 h(b, c) > n against every outsider c,
    so b has maximin >= n/2, Young score 0 and CLR deficit 0, while every
    outsider c has 2 h(c, b) < n, so maximin < n/2, Young score >= 1 and
    CLR deficit > 0.
    dodgson at k >= 2, convexmedian at k = m - 1 and t12rule at k >= 2
    have no proof, so they stay undeclared.

    ``loser_screen`` names the test by which the search shows, from part
    of a slice's voters, that no candidate outside the qualified set B can
    win, whatever the other voters do; it stays true as voters are added
    to a fixed voter count n.  "blocked": the record's ``value`` is
    ``_blocked``'s, and a candidate whose value, on the voters ranking B on
    top alone and held to all n, has a nonzero blocking set is blocked on
    every profile adding voters, as a set's coalition only grows.
    "score-gap": the rule maximises the total of its integer ``weights(m)``,
    one per rank; an outsider c wins only if the sum over b in B of
    score(c) - score(b) is at least 0, and a voter adds at most k*w_1 less
    the sum of the k least weights to it.  "bound": the rule elects the
    ``least`` of its ``value``s, and a candidate's value never falls as one
    voter moves it down one place: a depth, as every truncated score falls,
    a Young score, as a removal that served the candidate one place higher
    serves it still, or a Dodgson score, as a swap sequence for the lower
    place, less its swap past the candidate just above, serves the higher.
    So its value is at least the one with the other voters ranking it
    first and at most the record's ``worst``, and an outsider not among
    the least of B's worst values and its own best never wins; t12rule's
    dominance tie-break holds at those bounds too, as each truncated score
    moves the same way as the depth.  The search runs the screen per B
    part; reports never do.

    ``value`` declares a per-candidate statistic, for a rule whose winners,
    past its winner screen, depend on each candidate's own lanes alone: the
    function ``(m, n, lanes) -> value`` of one candidate, given its lanes of
    ``stat`` in ``_layout`` order (a rank-count column, contour lanes or
    prefix lanes).  ``least`` picks the winners from the list of every
    candidate's value, and always decides: by default it elects the
    candidates of least value.  The search calls both on the lanes it
    keeps, memoises each value under its lanes and never calls the
    decision, which computes the same values through the same functions
    from the ballots, in any order, and names ballot types in its trace.
    None keeps the search on the decision.

    ``worst(m, n, lanes, rest)`` bounds from above the value of a
    candidate on every profile of n voters adding rest voters to those its
    lanes count, for the "bound" screen.  None takes the value with the
    rest added to its last lane, which ranks the candidate last whatever
    the order above it on rank or contour lanes.  A last prefix lane fixes
    that order, and no one order is a Dodgson score's worst, so dodgson
    declares its own.
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
    mutual_majority: Callable[[int], Container[int]] = lambda m: ()
    value: Callable[[int, int, Sequence[int]], object] | None = None
    least: Callable[[Sequence], tuple[int, ...]] = _argmin
    loser_screen: str | None = None
    weights: Callable[[int], tuple[int, ...]] | None = None
    worst: Callable[[int, int, Sequence[int], int], object] | None = None

    def __post_init__(self):
        if self.majority_sup is None and self.majority is not None:
            object.__setattr__(self, "majority_sup", lambda k: self.majority(k, None))


def _vector_rule(make: Callable[[int], ScoreVector], den: int = 1, **fields) -> _Rule:
    """The positional rule scoring m candidates with the vector make(m).
    Its decision sums the vector times ``den``, its weights' common
    denominator, so a total t is shown as the fraction t/den.  A lone
    candidate has no score vector; its one position counts 1 per voter.
    Its per-m quota is the scoring rule's, and the search screens it by the
    score gap of those weights."""

    @functools.cache
    def weights(m: int) -> tuple[int, ...]:
        return _integer_weights(make(m))[0] if m > 1 else (1,)

    @functools.cache
    def decide(m: int) -> Decision:
        return scoring_decision(weights(m))

    return _Rule(decide, False, "ranks", lambda t: Fraction(t, den),
                 majority=lambda k, m: scoring_rule_quota(make(m), k),
                 loser_screen="score-gap", weights=weights, **fields)


_BORDA = _vector_rule(
    ScoreVector.borda, mutual_majority=lambda m: (m - 1,), majority_sup=lambda k: ONE,
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
        always_elects="majority", mutual_majority=lambda m: (1,),
    ),
    "runoff": _Rule(
        lambda m: runoff_decision, True, "ranks",
        majority=lambda k, m: HALF if k in (1, m - 1) else Fraction(k, k + 2),
        majority_sup=lambda k: max(HALF, Fraction(k, k + 2)),
        veto_sup=lambda l, half: HALF if l == 1 else ONE, text={"majority": ("k/(k+2)", ONE)},
        always_elects="majority", mutual_majority=lambda m: (1, 2, m - 1),
    ),
    "irv": _Rule(
        lambda m: instant_runoff_decision, False, "contours",
        majority=lambda k, m: HALF, veto_sup=lambda l, half: HALF,
        text=dict.fromkeys(("majority", "veto", "veto-half"), ("1/2", HALF)),
        always_elects="majority", mutual_majority=lambda m: range(1, m),
    ),
    "borda": _BORDA,
    "antiplurality": _vector_rule(
        ScoreVector.antiplurality, majority_sup=lambda k: ONE,
        veto_sup=lambda l, half: Fraction(1, 3) if l == 1 else ONE,
    ),
    "simpson": _Rule(
        lambda m: simpson_decision, True, None, **_SIMPSON_QUOTAS, always_elects="condorcet",
        mutual_majority=lambda m: (1, 2),
    ),
    "young": _Rule(
        lambda m: young_decision, True, "contours", **_SIMPSON_QUOTAS,
        always_elects="condorcet", mutual_majority=lambda m: (1, 2), value=_young_score,
        loser_screen="bound",
    ),
    "dodgson": _Rule(
        lambda m: dodgson_decision, True, "prefixes",
        majority=lambda k, m: (_clr_bound(k), Fraction(k, k + 1)),
        veto_sup=lambda l, half: (Fraction(5, 8), ONE), always_elects="condorcet",
        mutual_majority=lambda m: (1,), value=_dodgson_score, worst=_dodgson_worst,
        loser_screen="bound",
    ),
    "clr": _Rule(
        lambda m: clr_decision, True, None, lambda d: Fraction(d, 2), _clr_trace,
        majority=lambda k, m: _clr_bound(k), veto_sup=lambda l, half: Fraction(5, 8),
        text={
            "majority:even": ("(5k-2)/(8k)", Fraction(5, 8)),
            "majority:odd": ("(5k^2-2k+1)/(8k^2)", Fraction(5, 8)),
            **dict.fromkeys(("veto", "veto-half"), ("5/8", Fraction(5, 8))),
        },
        always_elects="condorcet", mutual_majority=lambda m: (1, 2),
    ),
    "black": _Rule(
        lambda m: black_decision, True, None, Fraction,
        majority=lambda k, m: HALF if k == 1 else _BORDA.majority(k, m),
        majority_sup=lambda k: HALF if k == 1 else ONE,
        veto_sup=lambda l, half: (
            _BORDA.veto_sup(l, half) if l == 1 or half else Fraction(2 * l + 1, 2 * l + 4)
        ),
        text={**_BORDA.text, "veto": ("(2l+1)/(2l+4)", ONE)},
        always_elects="condorcet", mutual_majority=lambda m: (1, m - 1),
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
        always_elects="majority", mutual_majority=lambda m: (1,), value=_convex_median_depth,
        least=_least_depths, loser_screen="bound",
    ),
    "vetocore": _Rule(
        lambda m: proportional_veto_core_decision, False, "contours",
        majority=lambda k, m: Fraction(m - k, m), majority_sup=lambda k: ONE,
        veto_sup=lambda l, half: (
            Fraction(1, 3) if l == 1 else HALF if half else Fraction(l, l + 1)
        ),
        text={"veto": ("l/(l+1)", ONE), "veto-half": ("1/2", HALF)},
        # the core is never empty (Moulin 1981), so its members, of value
        # (0, 0), are the least
        value=_blocked, loser_screen="blocked",
    ),
    "t12rule": _Rule(
        lambda m: theorem12_decision, False, "ranks", always_elects="majority",
        mutual_majority=lambda m: (1,), value=_tradeoff_value, least=_least_undominated,
        loser_screen="bound",
    ),
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

    The decision reads only the statistics its record names: the
    profile's stored tallies, counted once per profile, its ballots, or
    the lanes of its record's ``stat`` counted from them.  A decision
    returning no scores (a strict majority winner under convexmedian or
    t12rule) leaves every candidate's score None.
    """
    m = profile.m
    rule = _rule(rule_id, m)
    h = profile.pair_counts if rule.tournament else None
    if rule.stat in (None, "ranks"):
        stat = rule.stat and profile.rank_counts
    else:  # irv is decided on contour lanes; the others' traces name ballot types
        stat = profile.ballots if rule.value else _packed(m, profile.ballots)
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
