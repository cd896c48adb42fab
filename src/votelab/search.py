"""Worst-case profile generators, brute-force oracles, and exhaustive search.

Everything here is exact and deterministic: searches enumerate anonymous
profiles by increasing voter count and lexicographic ballot-count order, so
reported witnesses are minimal and reproducible regardless of worker count.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import itertools
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .criteria import Violation
from .errors import SearchBudgetExceeded
from .exact import exact
from .model import ChoiceSet, Profile, default_candidates
from .rules import SEARCH_MAX_M, Decision, _layout, _rule

ENV_MAX_VOTERS = "VOTELAB_MAX_VOTERS"


def env_max_voters() -> int | None:
    raw = os.environ.get(ENV_MAX_VOTERS)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise SearchBudgetExceeded(f"{ENV_MAX_VOTERS} must be an integer, got {raw!r}")
    if value < 1:
        raise SearchBudgetExceeded(f"{ENV_MAX_VOTERS} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for exhaustive searches: voters and worker processes."""

    max_voters: int = 12
    workers: int = 1

    def __post_init__(self):
        for name in ("max_voters", "workers"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.max_voters < 1:
            raise ValueError("max_voters must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")

    @classmethod
    def default(cls, **overrides) -> "SearchBudget":
        """Budget with the environment cap applied to max_voters."""
        budget = cls(**overrides)
        cap = env_max_voters()
        if cap is not None and cap < budget.max_voters:
            budget = cls(**{**overrides, "max_voters": cap})
        return budget


# -- profile generators ---------------------------------------------------------


def condorcet_k_tuple(k: int, n: int) -> Profile:
    """Maximally cyclic profile: n/k voters on each cyclic shift of b1 > ... > bk.

    Its pairwise counts are h(b_i, b_j) = n * (k - ((j - i) mod k)) / k.
    """
    if k < 2:
        raise ValueError("a cyclic tuple needs at least two candidates")
    if n < 1 or n % k:
        raise ValueError(f"number of voters must be a positive multiple of k={k}, got {n}")
    share = n // k
    ballots = []
    order = list(range(k))
    for j in range(k):
        ballots.append((share, tuple(order[j:] + order[:j])))
    return Profile(default_candidates(k), tuple(ballots))


def worst_case_profile(m: int, k: int, q: Fraction, n: int) -> Profile:
    """Adversarial qualified-majority profile.

    A q share of voters ranks the k-set B = {b1..bk} on top in k balanced
    cyclic shifts and the fixed order a1 > ... > a_{m-k} below; the remaining
    voters rank a1 > ... > a_{m-k} on top and the same B shifts below.  Both
    qn/k and (1-q)n/k must be integers.
    """
    q = Fraction(q)
    if not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    if not 0 < q < 1:
        raise ValueError("q must lie strictly between 0 and 1")
    if n < 1:
        raise ValueError(f"number of voters must be positive, got {n}")
    qn = q * n
    rest = (1 - q) * n
    if qn.denominator != 1 or qn.numerator % k or rest.numerator % k:
        raise ValueError(
            f"q*n/k and (1-q)*n/k must be integers; smallest valid n is "
            f"{smallest_worst_case_n(k, q)}"
        )
    maj = int(qn) // k
    minority = int(rest) // k
    bcands = list(range(k))
    acands = list(range(k, m))
    ballots = []
    for j in range(k):
        shift = bcands[j:] + bcands[:j]
        ballots.append((maj, tuple(shift + acands)))
        ballots.append((minority, tuple(acands + shift)))
    labels = tuple(f"b{i + 1}" for i in range(k)) + tuple(
        f"a{i + 1}" for i in range(m - k)
    )
    return Profile(labels, tuple(ballots))


def smallest_worst_case_n(k: int, q: Fraction) -> int:
    """Least n making the adversarial construction's group sizes integral."""
    q = Fraction(q)
    kd = k * q.denominator
    n1 = kd // math.gcd(kd, q.numerator)
    n2 = kd // math.gcd(kd, q.denominator - q.numerator)
    return n1 * n2 // math.gcd(n1, n2)


def random_profile(rng, m: int, n: int) -> Profile:
    """n voters with independently shuffled rankings (seeded rng)."""
    ballots = []
    base = list(range(m))
    for _ in range(n):
        ranking = base[:]
        rng.shuffle(ranking)
        ballots.append((1, tuple(ranking)))
    return Profile(default_candidates(m), tuple(ballots))


def _count_vectors(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _count_vectors(total - head, parts - 1):
            yield (head,) + tail


def all_profiles(m: int, max_voters: int):
    """Every anonymous profile with at most max_voters voters, minimal-n first."""
    types = list(itertools.permutations(range(m)))
    labels = default_candidates(m)
    for n in range(1, max_voters + 1):
        for vec in _count_vectors(n, len(types)):
            ballots = tuple(
                (count, types[i]) for i, count in enumerate(vec) if count
            )
            yield Profile(labels, ballots)


# -- brute-force oracles -----------------------------------------------------------


def oracle_young_score(profile: Profile, cand: int, max_voters: int = 16) -> int:
    """Naive removal search: try every voter subset in increasing size.

    Independent of the per-type composition search in the rules module.
    """
    voters = profile.expand()
    n = len(voters)
    if n > max_voters:
        raise SearchBudgetExceeded(f"oracle limited to {max_voters} voters, got {n}")
    others = [b for b in range(profile.m) if b != cand]
    for size in range(n + 1):
        for removed in itertools.combinations(range(n), size):
            gone = set(removed)
            kept = [voters[i] for i in range(n) if i not in gone]
            ok = True
            for b in others:
                wins = sum(1 for r in kept if r.index(cand) < r.index(b))
                if 2 * wins < len(kept):
                    ok = False
                    break
            if ok:
                return size
    return n


def oracle_dodgson_score(
    profile: Profile,
    cand: int,
    use_bound: bool = True,
    max_nodes: int = 2_000_000,
) -> int:
    """Optimal-cost search over unrestricted adjacent-swap states.

    Explores the graph whose nodes are whole ballot lists and whose edges are
    single adjacent transpositions in any one ballot.  With ``use_bound`` the
    search is ordered by cost plus the remaining pairwise deficit, a valid
    lower bound because one swap changes exactly one pairwise count by one;
    without it this is plain breadth-first search.  Either way the result is
    the exact minimum; the search never approximates and raises when the node
    budget is hit.
    """
    m = profile.m
    perms = list(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    swap_to = [
        [index[p[:pos] + (p[pos + 1], p[pos]) + p[pos + 2 :]] for pos in range(m - 1)]
        for p in perms
    ]
    others = [b for b in range(m) if b != cand]
    beats = [
        tuple(1 if p.index(cand) < p.index(b) else 0 for b in others) for p in perms
    ]
    start = tuple(sorted(index[r] for r in profile.expand()))
    n = len(start)
    need = n // 2 + 1

    def h_row(state):
        row = [0] * len(others)
        for pi in state:
            for j, v in enumerate(beats[pi]):
                row[j] += v
        return tuple(row)

    def deficit(row):
        return sum(need - v for v in row if v < need)

    start_row = h_row(start)
    if deficit(start_row) == 0:
        return 0
    frontier = [(deficit(start_row) if use_bound else 0, 0, start, start_row)]
    best_g = {start: 0}
    expanded = 0
    while frontier:
        f, g, state, row = heapq.heappop(frontier)
        if best_g.get(state, g) < g:
            continue
        if deficit(row) == 0:
            return g
        expanded += 1
        if expanded > max_nodes:
            raise SearchBudgetExceeded(
                f"dodgson oracle exceeded {max_nodes} expansions"
            )
        for slot, pi in enumerate(state):
            if slot and state[slot - 1] == pi:
                continue  # identical ballot already expanded
            for pos in range(m - 1):
                new_pi = swap_to[pi][pos]
                new_state = tuple(sorted(state[:slot] + (new_pi,) + state[slot + 1 :]))
                new_g = g + 1
                if best_g.get(new_state, new_g + 1) <= new_g:
                    continue
                best_g[new_state] = new_g
                delta = [0] * len(others)
                for j in range(len(others)):
                    delta[j] = beats[new_pi][j] - beats[pi][j]
                new_row = tuple(r + d for r, d in zip(row, delta))
                bound = deficit(new_row) if use_bound else 0
                heapq.heappush(frontier, (new_g + bound, new_g, new_state, new_row))
    raise AssertionError("the all-top state is always reachable")


def oracle_veto_core(profile: Profile, max_types: int = 18) -> ChoiceSet:
    """Proportional veto core by scanning every coalition of ballot types.

    A coalition of t voters blocks a through the set B of candidates they
    all prefer to a when (m - |B|) * n < m * t.  Only coalitions taking
    every voter of each included type need checking, since adding a voter
    of a type already present never shrinks the common upper contour; so
    the scan covers 2^T coalitions and refuses more than max_types types.
    Independent of the blocking-set search in the rules module.
    """
    types = len(profile.ballots)
    if types > max_types:
        raise SearchBudgetExceeded(
            f"{types} ballot types exceed the veto-core oracle's budget of {max_types}"
        )
    m, n = profile.m, profile.n

    def blocks(coalition) -> bool:
        common = frozenset.intersection(*(up for _, up in coalition))
        return (m - len(common)) * n < m * sum(count for count, _ in coalition)

    stable = []
    for a in range(m):
        # voters ranking a on top belong to no blocking coalition
        contours = [
            (count, frozenset(ranking[: ranking.index(a)]))
            for count, ranking in profile.ballots
            if ranking[0] != a
        ]
        if not any(
            blocks(coalition)
            for size in range(1, len(contours) + 1)
            for coalition in itertools.combinations(contours, size)
        ):
            stable.append(a)
    return ChoiceSet(stable)


def parallel_universe_irv(profile: Profile, max_candidates: int = 8) -> ChoiceSet:
    """Union of instant-runoff winners over every single-elimination order.

    Tries each of the m! candidate orders as an elimination sequence, with
    no memo: an order counts when each candidate it eliminates has the
    fewest first preferences among the candidates still in, and its last
    candidate is then a winner.  Independent of the memoised recursion in
    the rules module, whose tie handling it cross-checks.
    """
    if profile.m > max_candidates:
        raise SearchBudgetExceeded(
            f"parallel-universe search limited to {max_candidates} candidates"
        )
    won = set()
    for order in itertools.permutations(range(profile.m)):
        for i, loser in enumerate(order[:-1]):
            firsts = dict.fromkeys(order[i:], 0)
            for count, ranking in profile.ballots:
                firsts[next(c for c in ranking if c in firsts)] += count
            if firsts[loser] > min(firsts.values()):
                break
        else:
            won.add(order[-1])
    return ChoiceSet(won)


# -- exhaustive criterion verification -----------------------------------------------


def _split_types(m: int, k: int):
    """Ballot types partitioned into those top-ranking B = {0..k-1} and the rest."""
    b_set = frozenset(range(k))
    b_types, o_types = [], []
    for p in itertools.permutations(range(m)):
        (b_types if frozenset(p[:k]) == b_set else o_types).append(p)
    return b_types, o_types


# The search fixes the qualified set B = {0..k-1} (every rule is neutral)
# and walks (n, support) slices: the profiles with n voters of whom exactly
# `support` rank B on top.  A profile in a slice is a count vector over the
# ballot types, those top-ranking B first.  The walk keeps the profile's
# tallies packed into one integer, a lane of whole bytes per entry, and
# adds a type's packed contribution as its count changes: the tournament
# lanes, then the lanes of the statistic the rule's record names, laid out
# by `rules._layout`; no rule reads ballots.  A rule whose record says it
# always elects a strict Condorcet or majority winner alone is answered
# from the unpacked lanes, undecided, when they show one.  The same screen
# runs once per B part, the counts of the types top-ranking B, on that
# part's tallies against all n voters: the other voters only add to a
# candidate's first places and duel votes, so a winner it finds wins every
# completion of the B part alone, and none of them is evaluated.  That
# winner is in B, since a B voter ranks every candidate of B above every
# other, so no skipped profile is a violation.  The loser screen a rule's
# record names is the dual test, sound for the same reason.  Per B part:
# every candidate outside B is blocked on the part's contour lanes against
# all n, or each one trails B on the score gap by more than the other
# voters can add, or each one's value, with the other voters all ranking
# it first, still loses to B's members' worst values: by default with the
# other voters all ranking them last, for dodgson with some of those
# voters lifted past every opponent.  Whole slices are settled by the loop
# over slices, which never dispatches them, when more than half the n
# voters rank B on top and the rule's record declares mutual majority at
# k: every winner of every profile there is in B.  That loop reads the
# declaration once per query, and takes the supports above q*n, or above
# the best share found so far, as an integer range from the floor of that
# share times n.  A rule with a per-candidate value is otherwise decided
# by its pick from each candidate's value on that candidate's lanes
# alone; any other rule by its decision on the unpacked lanes, without
# building a Profile.  Each slice keeps a memo from the tally or rank
# lanes a rule and its screen read to the winners, and from one
# candidate's lanes, cut by one shift and one mask and stored bitwise
# negated, to its value: a whole profile's lanes rarely repeat while one
# candidate's do.  The memo lives for one slice and is cleared at
# a fixed size, so results and memory do not depend on the worker count.
#
# The candidate permutations fixing B (the group S_k x S_{m-k}) map a slice
# onto itself and, as every rule is neutral, a violation onto a violation.
# Only the lexicographically largest count vector of each orbit is
# evaluated: its B part must be the largest in its orbit, and its other part
# the largest under the permutations fixing the B part.  A violating
# representative stands for the smallest Profile.ballots key over its
# orbit, so each slice yields the same minimal witness as full enumeration.

_LANES = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))  # bytes per lane, memoryview format


class _Tables(NamedTuple):
    """Ballot types and the action of S_k x S_{m-k} on them, for one (m, k)."""

    types: tuple[tuple[int, ...], ...]  # types top-ranking B, then the rest
    split: int  # number of types top-ranking B
    group: tuple[tuple[int, ...], ...]  # candidate permutations, identity first
    # per non-identity g, the positions whose counts move to each position
    # of the B part and of the other part: image[j] = counts[pull[j]]
    pulls: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]


@functools.cache
def _tables(m: int, k: int) -> _Tables:
    b_types, o_types = _split_types(m, k)
    types = tuple(b_types + o_types)
    split = len(b_types)
    index = {r: t for t, r in enumerate(types)}
    group = tuple(
        head + tail
        for head in itertools.permutations(range(k))
        for tail in itertools.permutations(range(k, m))
    )
    pulls = []
    for g in group[1:]:
        pull = [0] * len(types)
        for t, r in enumerate(types):
            pull[index[tuple(g[c] for c in r)]] = t
        pulls.append((tuple(pull[:split]), tuple(pull[split:])))
    return _Tables(types, split, group, tuple(pulls))


@functools.cache
def _contributions(m: int, k: int, lane_bytes: int, stat: str | None) -> tuple[int, ...]:
    """Per ballot type, its packed tallies: lane a*m + b holds h(a, b), and
    lane m*m + i the lane i of the rule's ``stat`` in its layout."""
    lanes_of = _layout(m, stat)[0]
    out = []
    for r in _tables(m, k).types:
        lanes = [r[i] * m + r[j] for i in range(m) for j in range(i + 1, m)]
        lanes += [m * m + i for i in lanes_of(r)]
        out.append(sum(1 << (8 * lane_bytes * lane) for lane in lanes))
    return tuple(out)


class _Kernel(NamedTuple):
    """One rule at m candidates, for profiles of a given voter count.

    The tallies hold the tournament lanes, then those of the rule's
    ``stat``; lane m*m + a*stride holds a's first places.  The decision
    gets the tournament if ``reads_tournament`` and the rest if the rule has
    a ``stat``, else None.  ``tally >> key_shift & key_mask`` is the memo
    key: the tournament lanes when the decision or the Condorcet screen
    reads them and the rank lanes when the rule reads them; 0 on contour or
    prefix lanes.  A rule with a per-candidate ``value`` is decided by it
    and ``least``, never by ``decide``: ``tally >> shifts[a] & mask`` is
    a's lanes moved down to candidate 0's, the key of its value in the
    memo, and ``cut`` takes them from the unpacked block.
    ``loser_screen`` and ``weights`` are the record's, the weights at m.
    """

    m: int
    decide: Decision
    always_elects: str | None  # "condorcet", "majority" or None, as in its record
    contrib: tuple[int, ...]
    tally_bytes: int
    lane_format: str
    lane: int  # bits of one lane
    reads_tournament: bool
    stride: int  # 0 for a rule packing no lanes after the tournament
    key_shift: int
    key_mask: int
    value: Callable[[int, int, Sequence[int]], object] | None
    shifts: tuple[int, ...]
    mask: int
    cut: slice
    least: Callable[[Sequence], tuple[int, ...]]
    loser_screen: str | None
    weights: tuple[int, ...] | None
    worst: Callable[[int, int, Sequence[int], int], object] | None


@functools.lru_cache(maxsize=1024)
def _kernel(rule_id: str, m: int, k: int, n: int) -> _Kernel:
    size, fmt = next((size, fmt) for size, fmt in _LANES if n < 1 << (8 * size))
    rule = _rule(rule_id, m)
    _, stride, step, width = _layout(m, rule.stat)
    lane = 8 * size  # bits of one lane
    block = lane * m * m  # bits of the tournament block
    # the blocks the memo key covers: those the decision or the screen reads
    tournament = rule.tournament or rule.always_elects == "condorcet"
    keyed = tournament + (rule.stat == "ranks") if rule.stat in (None, "ranks") else 0
    return _Kernel(
        m, rule.decision(m), rule.always_elects, _contributions(m, k, size, rule.stat),
        tally_bytes=size * m * (m + width), lane_format=fmt, lane=lane,
        reads_tournament=rule.tournament,
        stride=stride, key_shift=0 if tournament else block, key_mask=(1 << block * keyed) - 1,
        value=rule.value, shifts=tuple(block + a * stride * lane for a in range(m)),
        mask=sum((1 << lane) - 1 << j * step * lane for j in range(width)),
        cut=slice(0, width * step, step or 1), least=rule.least,
        loser_screen=rule.loser_screen, weights=rule.weights and rule.weights(m),
        worst=rule.worst,
    )


# Entries a slice's memo holds before it is cleared.  One plurality slice at
# m = 5 and 6 voters has about 780,000 distinct rank tallies; the m = 4
# slices of the tight-bound searches have fewer than 2^16.
_MEMO_ENTRIES = 1 << 16


def rule_winners(kernel: _Kernel, n: int, tally: int, memo=None) -> Sequence[int]:
    """Winners of the enumerated profile with these packed tallies.

    A rule that always elects a strict Condorcet or first-place majority
    winner alone is not decided when `_screened_winner` finds one in the
    unpacked lanes: that winner is returned.  A rule with a per-candidate
    value is otherwise decided by each candidate's value on its own lanes,
    any other rule by its decision on the unpacked lanes.  Given a memo, a
    dict that lives for one slice, the winners are kept under the key the
    kernel's key_mask cuts, if any, and each value under its candidate's
    lanes, and a profile repeating them is answered from the memo.
    """
    key = None
    if memo is not None and kernel.key_mask:
        key = tally >> kernel.key_shift & kernel.key_mask
        won = memo.get(key)
        if won is not None:
            return won
    won = None
    if kernel.always_elects or kernel.value is None:
        m = kernel.m
        lanes = _lanes(kernel, tally)
        if kernel.always_elects:
            won = _screened_winner(kernel, n, lanes)
        if won is None and kernel.value is None:
            h = lanes[: m * m] if kernel.reads_tournament else None
            stat = lanes[m * m :] if kernel.stride else None
            won = kernel.decide(m, n, h, stat)[0]
    if won is None:
        won = kernel.least(_values(kernel, n, tally, memo, kernel.shifts))
    if key is not None:
        if len(memo) >= _MEMO_ENTRIES:
            memo.clear()
        memo[key] = won
    return won


def _lanes(kernel: _Kernel, tally: int):
    """The packed tallies unpacked, one memoryview item per lane."""
    return memoryview(tally.to_bytes(kernel.tally_bytes, sys.byteorder)).cast(kernel.lane_format)


def _screened_winner(kernel: _Kernel, n: int, lanes) -> tuple[int] | None:
    """The candidate the lanes show as a strict Condorcet winner, or a strict
    first-place majority winner, among n voters, as the rule's record says
    it always elects alone; None when they show none.

    The lanes may count only some of the n voters: the others can only add
    to the counts, so a candidate found here wins on every profile that
    adds them, and the rule elects it alone there.
    """
    m = kernel.m
    if kernel.always_elects == "condorcet":
        for a in range(m):
            # its row's least entry is h(a, a) = 0, the next its worst duel
            if 2 * sorted(lanes[a * m : a * m + m])[1] > n:
                return (a,)
    else:
        for a in range(m):
            if 2 * lanes[m * m + a * kernel.stride] > n:
                return (a,)
    return None


def _outsiders_lose(kernel: _Kernel, k: int, n: int, support: int, tally: int, memo) -> bool:
    """Whether the tallies of the B part, the support voters ranking B =
    {0..k-1} on top, alone show that no candidate outside B wins any
    profile of n voters extending it, by the loser screen the rule declares.

    "blocked": every outsider's value on its contour lanes has a nonzero
    blocking set.  "score-gap": for every outsider c, k*score(c) less B's
    total score, plus n - support times the most one more voter can add to
    it, k*w_1 less the k least weights, is below 0.  "bound": the rule
    elects the ``least`` of the per-candidate values, each of which never
    falls as one voter moves its candidate down one place.  Each b in B
    takes its worst value, the record's ``worst`` of its lanes for the
    other voters (by default the value with them added to its last lane,
    rank m or the full upper contour), and each outsider c its best, the
    other voters adding to its lane 0 (first place, or the empty contour);
    no completion gives b more or c less.  c cannot win when it is not among
    the least of B's worst values and its own best: some b's worst is then
    below c's best, or ties it and second-order dominates it, as t12rule
    breaks ties, and the truncated scores behind that dominance only rise
    for b and fall for c from the bounds to any completion.  Where the rule
    elects a strict majority winner and c's best has one, c's value is
    undefined and c may win, so the screen does not fire; a b with one on
    the B part alone never gets here, as the head screen settles it first.
    The best and the default worst are added to the packed tally itself:
    no lane exceeds support + rest = n, which its width holds, so each
    bound block is cut, and its value kept in the slice's memo, like a
    candidate's own.  A declared worst is computed from b's lanes alone.
    """
    m = kernel.m
    if kernel.loser_screen == "blocked":
        blocks = (_lanes(kernel, tally >> kernel.shifts[c] & kernel.mask) for c in range(k, m))
        return all(kernel.value(m, n, lanes[kernel.cut])[0] for lanes in blocks)
    if kernel.loser_screen == "score-gap":
        # the weights fall with the rank, so the k least are the last k
        w, ranks = kernel.weights, _lanes(kernel, tally)[m * m :]
        scores = [sum(x * ranks[l * m + a] for l, x in enumerate(w) if x) for a in range(m)]
        slack = (n - support) * (k * w[0] - sum(w[m - k :])) - sum(scores[:k])
        return all(k * scores[c] + slack < 0 for c in range(k, m))
    if kernel.loser_screen == "bound":
        rest, members, outsiders = n - support, kernel.shifts[:k], kernel.shifts[k:]
        tally += sum(rest << s for s in outsiders)
        first = (1 << kernel.lane) - 1
        if kernel.always_elects == "majority" and any(
            2 * (tally >> s & first) > n for s in outsiders
        ):
            return False
        if kernel.worst is None:
            last = rest << kernel.mask.bit_length() - kernel.lane
            worst = _values(kernel, n, tally + sum(last << s for s in members), memo, members)
        else:
            worst = [
                kernel.worst(m, n, _lanes(kernel, tally >> s & kernel.mask)[kernel.cut], rest)
                for s in members
            ]
        return all(k not in kernel.least(worst + [value])
                   for value in _values(kernel, n, tally, memo, outsiders))
    return False


def _values(kernel: _Kernel, n: int, tally: int, memo, shifts: Sequence[int]) -> list:
    """The value of each candidate whose block these shifts cut, read from
    the memo under the block, bitwise negated so that it never meets a
    whole-profile key, or computed from the block's lanes."""
    values = []
    for shift in shifts:
        block = tally >> shift & kernel.mask
        key = ~block
        value = None if memo is None else memo.get(key)
        if value is None:
            value = kernel.value(kernel.m, n, _lanes(kernel, block)[kernel.cut])
            if memo is not None:
                if len(memo) >= _MEMO_ENTRIES:
                    memo.clear()
                memo[key] = value
        values.append(value)
    return values


def _fill(counts: list[int], lo: int, hi: int, total: int, contrib, tally: int):
    """Write every count vector over positions lo..hi-1 summing to total into
    counts, in increasing lexicographic order, and yield the tally plus their
    packed contributions after each."""
    last = hi - 1
    counts[lo:hi] = [0] * (hi - lo)
    counts[last] = total
    tally += total * contrib[last]
    top = -1  # the last nonzero position before `last`, if any
    while True:
        yield tally
        if counts[last] and last > lo:
            counts[last - 1] += 1
            counts[last] -= 1
            tally += contrib[last - 1] - contrib[last]
            top = last - 1
        elif top > lo:
            # counts[top] voters: one moves up to top - 1, the rest to last
            c = counts[top]
            counts[top] = 0
            counts[top - 1] += 1
            counts[last] = c - 1
            tally += contrib[top - 1] - c * contrib[top] + (c - 1) * contrib[last]
            top -= 1
        else:
            return


def _orbit_minimum(tables: _Tables, counts) -> tuple[tuple, tuple[int, ...]]:
    """The smallest Profile.ballots key over the orbit of a count vector,
    and the candidate permutation reaching it."""
    held = [(tables.types[t], c) for t, c in enumerate(counts) if c]
    best = None
    for g in tables.group:
        ranked = sorted((tuple([g[a] for a in r]), c) for r, c in held)
        key = tuple((c, r) for r, c in ranked)
        if best is None or key < best[0]:
            best = key, g
    return best


def _min_violation(args):
    """The smallest violation key in one (n, support) slice, with its
    support and winners, or None when the slice is clean."""
    rule_id, m, k, n, support = args
    kernel = _kernel(rule_id, m, k, n)
    tables = _tables(m, k)
    split = tables.split
    counts = [0] * len(tables.types)
    memo = {}  # this slice's winners by the statistic the rule reads
    best = None
    for b_tally in _fill(counts, 0, split, support, kernel.contrib, 0):
        head = counts[:split]
        stabiliser = []
        for pull_b, pull_o in tables.pulls:
            image = [head[j] for j in pull_b]
            if image > head:
                break  # not its orbit's representative
            if image == head:
                stabiliser.append(pull_o)
        else:
            if kernel.always_elects and _screened_winner(kernel, n, _lanes(kernel, b_tally)):
                continue  # every completion elects that candidate, which is in B, alone
            if kernel.loser_screen and _outsiders_lose(kernel, k, n, support, b_tally, memo):
                continue  # no completion elects a candidate outside B
            for tally in _fill(counts, split, len(counts), n - support, kernel.contrib, b_tally):
                if stabiliser:
                    tail = counts[split:]
                    if any([counts[j] for j in pull] > tail for pull in stabiliser):
                        continue
                won = rule_winners(kernel, n, tally, memo)
                if max(won) >= k:
                    key, g = _orbit_minimum(tables, counts)
                    if best is None or key < best[0]:
                        best = key, support, tuple(sorted(g[a] for a in won))
    return best


def _check_query(rule_id: str, m: int, k: int) -> None:
    _rule(rule_id, m)  # raises on an unknown id or a vector of the wrong length
    if not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    if m > SEARCH_MAX_M:
        # _tables keeps one m!-long pull per non-identity element of
        # S_k x S_{m-k}: 3.6 million entries at m = 7, k = 1
        entries = (math.factorial(k) * math.factorial(m - k) - 1) * math.factorial(m)
        raise ValueError(
            f"searches need m <= {SEARCH_MAX_M}: the orbit tables for m={m}, k={k} "
            f"would hold {entries:,} entries"
        )


def _violations(rule_id: str, m: int, k: int, budget: SearchBudget, floor):
    """For n = 1..max_voters, yield n and the minimal violations of the
    slices whose support exceeds floor(n), in increasing support.

    Where the rule's record declares mutual majority at k, the slices with
    2 * support > n are clean and are never dispatched.  Slices go to a process pool when
    the budget has more than one worker, with at most one process per CPU:
    the pool starts all of them at once.
    """
    settled = k in _rule(rule_id, m).mutual_majority(m)
    pool = None
    workers = min(budget.workers, os.cpu_count() or 1)
    if workers > 1:
        # imported on demand: multiprocessing is a large share of the
        # time `import votelab` takes
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(workers)
    try:
        for n in range(1, budget.max_voters + 1):
            top = n // 2 if settled else n
            slices = [(rule_id, m, k, n, s) for s in range(floor(n) + 1, top + 1)]
            results = (pool.map if pool else map)(_min_violation, slices)
            yield n, [r for r in results if r is not None]
    finally:
        if pool is not None:
            pool.shutdown()


def exhaustive_criterion_search(
    rule_id: str, m: int, k: int, q, budget: SearchBudget
) -> Violation | None:
    """Search every anonymous profile within budget for a criterion violation.

    By neutrality the qualified set is fixed to the lexicographically first k
    candidates, and only profiles whose support for it strictly exceeds q*n
    are generated.  Returns a violation witness minimal in (n, ballot-count
    order), or None when the whole range is clean.
    """
    _check_query(rule_id, m, k)
    qq = exact(q)
    if not exact(0) < qq <= exact(1):
        raise ValueError("q must lie in (0, 1]")

    with contextlib.closing(_violations(rule_id, m, k, budget, qq.floor_times)) as scan:
        for n, hits in scan:
            if hits:
                key, support, won = min(hits)
                profile = Profile(default_candidates(m), key)
                return Violation(frozenset(range(k)), support, ChoiceSet(won), profile, qq)
    return None


def max_violation(
    rule_id: str, m: int, k: int, budget: SearchBudget
) -> tuple[Fraction, Violation] | None:
    """Largest support share among violating profiles, with a witness.

    The witness attains the maximal share at the smallest voter count and
    ballot-count order among attaining profiles.
    """
    _check_query(rule_id, m, k)
    best = None  # (share, key, support, winners)

    def floor(n):
        # the largest support whose share does not exceed the best so far
        return 0 if best is None else best[0].numerator * n // best[0].denominator

    with contextlib.closing(_violations(rule_id, m, k, budget, floor)) as scan:
        for n, hits in scan:
            if hits:
                # each hit's share beats the best so far; the last has the most support
                key, support, won = hits[-1]
                best = Fraction(support, n), key, support, won
    if best is None:
        return None
    share, key, support, won = best
    profile = Profile(default_candidates(m), key)
    return share, Violation(frozenset(range(k)), support, ChoiceSet(won), profile)


def empirical_quota(rule_id: str, m: int, k: int, budget: SearchBudget) -> Fraction:
    """Largest violating support share found within budget (0 when none)."""
    found = max_violation(rule_id, m, k, budget)
    return found[0] if found else Fraction(0)
