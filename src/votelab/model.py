"""Election data model: anonymous profiles, pairwise and positional tallies.

A profile is an anonymous multiset of strict rankings with integer
multiplicities.  All derived quantities (tournament matrix, positional
matrix, Condorcet-style winners, truncated positional scores) are pure
functions of the profile, and all threshold tests against n/2 are done in
integer arithmetic.  A profile counts its pairwise and rank tallies at most
once, on first read, and every reader shares them.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence


class ChoiceSet(frozenset):
    """Nonempty set of winning candidate indices."""

    def __new__(cls, winners: Iterable[int]):
        ws = super().__new__(cls, winners)
        if not ws:
            raise ValueError("a choice set must be nonempty")
        return ws

    def __repr__(self) -> str:
        return "ChoiceSet({%s})" % ", ".join(map(str, sorted(self)))


def default_candidates(m: int) -> tuple[str, ...]:
    """Letter labels a, b, c, ... (falling back to c27, c28, ... past z)."""
    letters = string.ascii_lowercase
    return tuple(letters[i] if i < 26 else f"c{i + 1}" for i in range(m))


@dataclass(frozen=True, slots=True)
class Profile:
    """Anonymous preference profile over m labelled candidates.

    ``ballots`` holds (count, ranking) pairs where a ranking is a permutation
    of the candidate indices, most-preferred first.  Construction normalizes:
    duplicate rankings are merged and groups are sorted, so equal profiles
    compare and hash equal.

    Three derived fields are stored on the instance: ``n``, the number of
    voters, set at construction, and the flat tallies ``pair_counts`` and
    ``rank_counts``, counted by `tournament_matrix` and `positional_matrix`
    on first read and kept as tuples.  Every report, criterion and command
    reads them, so a profile is tallied once however many rules score it.
    They are functions of the ballots, so they take no part in ``==``,
    ``hash``, ``repr`` or pickling: a profile whose tallies were read equals
    and pickles like a fresh one, and ``dataclasses.replace`` builds a
    profile with its own, unread tallies.
    """

    candidates: tuple[str, ...]
    ballots: tuple[tuple[int, tuple[int, ...]], ...]
    n: int = field(init=False, repr=False, compare=False)
    _pair_counts: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _rank_counts: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        cands = tuple(str(c) for c in self.candidates)
        if not cands:
            raise ValueError("at least one candidate is required")
        if len(set(cands)) != len(cands):
            raise ValueError("candidate labels must be distinct")
        m = len(cands)
        base = list(range(m))
        merged: dict[tuple[int, ...], int] = {}
        for count, ranking in self.ballots:
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ValueError(f"ballot count must be a positive integer, got {count!r}")
            r = tuple(int(x) for x in ranking)
            if sorted(r) != base:
                raise ValueError(f"ranking {r} is not a permutation of 0..{m - 1}")
            merged[r] = merged.get(r, 0) + count
        if not merged:
            raise ValueError("a profile needs at least one voter")
        object.__setattr__(self, "candidates", cands)
        object.__setattr__(
            self, "ballots", tuple((c, r) for r, c in sorted(merged.items()))
        )
        object.__setattr__(self, "n", sum(merged.values()))

    def __reduce__(self):
        return type(self), (self.candidates, self.ballots)

    @property
    def m(self) -> int:
        return len(self.candidates)

    @property
    def pair_counts(self) -> tuple[int, ...]:
        """Flat pairwise counts: [a*m + b] voters prefer a to b."""
        h = self._pair_counts
        if h is None:
            h = tuple(itertools.chain.from_iterable(tournament_matrix(self).h))
            object.__setattr__(self, "_pair_counts", h)
        return h

    @property
    def rank_counts(self) -> tuple[int, ...]:
        """Flat rank counts: [l*m + a] voters give candidate a rank l+1."""
        pos = self._rank_counts
        if pos is None:
            pos = tuple(itertools.chain.from_iterable(positional_matrix(self).counts))
            object.__setattr__(self, "_rank_counts", pos)
        return pos

    @classmethod
    def from_names(
        cls,
        candidates: Sequence[str],
        groups: Iterable[tuple[int, Sequence[str]]],
    ) -> "Profile":
        """Build a profile from (count, [names most-preferred first]) groups."""
        index = {str(name): i for i, name in enumerate(candidates)}
        ballots = []
        for count, names in groups:
            try:
                ranking = tuple(index[str(name)] for name in names)
            except KeyError as exc:
                raise ValueError(f"unknown candidate {exc.args[0]!r}") from None
            ballots.append((count, ranking))
        return cls(tuple(candidates), tuple(ballots))

    def label(self, cand: int) -> str:
        return self.candidates[cand]

    def labels(self, cands: Iterable[int]) -> tuple[str, ...]:
        return tuple(self.candidates[c] for c in sorted(cands))

    def expand(self) -> list[tuple[int, ...]]:
        """One ranking per voter (used by the brute-force oracles)."""
        out: list[tuple[int, ...]] = []
        for count, ranking in self.ballots:
            out.extend([ranking] * count)
        return out


@dataclass(frozen=True, slots=True)
class TournamentMatrix:
    """Pairwise counts: h[a][b] voters prefer a to b; h[a][b] + h[b][a] = n."""

    h: tuple[tuple[int, ...], ...]


@dataclass(frozen=True, slots=True)
class PositionalMatrix:
    """Rank counts: counts[l][a] voters give candidate a rank l+1."""

    counts: tuple[tuple[int, ...], ...]


def tournament_matrix(profile: Profile) -> TournamentMatrix:
    """Count, for every ordered pair, the voters preferring the first candidate.

    Each call counts afresh; `Profile.pair_counts` keeps one count."""
    m = profile.m
    h = [[0] * m for _ in range(m)]
    for count, ranking in profile.ballots:
        for i in range(m):
            a = ranking[i]
            row = h[a]
            for j in range(i + 1, m):
                row[ranking[j]] += count
    return TournamentMatrix(tuple(tuple(row) for row in h))


def positional_matrix(profile: Profile) -> PositionalMatrix:
    """Count, for every rank l and candidate a, the voters placing a at rank l.

    Each call counts afresh; `Profile.rank_counts` keeps one count."""
    m = profile.m
    counts = [[0] * m for _ in range(m)]
    for count, ranking in profile.ballots:
        for pos, a in enumerate(ranking):
            counts[pos][a] += count
    return PositionalMatrix(tuple(tuple(row) for row in counts))


def _resolve_subset(profile: Profile, subset: Iterable[int] | None) -> tuple[int, ...]:
    if subset is None:
        return tuple(range(profile.m))
    sub = tuple(sorted(set(int(c) for c in subset)))
    if not sub:
        raise ValueError("candidate subset must be nonempty")
    if sub[0] < 0 or sub[-1] >= profile.m:
        raise ValueError("candidate index out of range")
    return sub


def condorcet_winner(profile: Profile, subset: Iterable[int] | None = None) -> int | None:
    """The candidate beating every other one in the subset strictly, if any."""
    sub = _resolve_subset(profile, subset)
    h, m, n = profile.pair_counts, profile.m, profile.n
    for a in sub:
        if all(2 * h[a * m + b] > n for b in sub if b != a):
            return a
    return None


def weak_condorcet_winners(
    profile: Profile, subset: Iterable[int] | None = None
) -> frozenset[int]:
    """All candidates that never lose a pairwise comparison within the subset."""
    sub = _resolve_subset(profile, subset)
    h, m, n = profile.pair_counts, profile.m, profile.n
    return frozenset(
        a for a in sub if all(2 * h[a * m + b] >= n for b in sub if b != a)
    )


def majority_winner(profile: Profile) -> int | None:
    """Candidate top-ranked by more than half the voters, if any."""
    n = profile.n
    for a, top in enumerate(profile.rank_counts[: profile.m]):
        if 2 * top > n:
            return a
    return None


def majority_loser(profile: Profile) -> int | None:
    """Candidate bottom-ranked by more than half the voters, if any."""
    m, n = profile.m, profile.n
    for a, bottom in enumerate(profile.rank_counts[(m - 1) * m :]):
        if 2 * bottom > n:
            return a
    return None


def restrict_profile(profile: Profile, subset: Iterable[int]) -> Profile:
    """Project every ranking onto the subset, preserving relative order."""
    sub = _resolve_subset(profile, subset)
    keep = set(sub)
    remap = {old: new for new, old in enumerate(sub)}
    ballots = tuple(
        (count, tuple(remap[c] for c in ranking if c in keep))
        for count, ranking in profile.ballots
    )
    return Profile(tuple(profile.candidates[c] for c in sub), ballots)


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
