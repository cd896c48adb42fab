"""Majority-power and veto-power criteria: checkers and tight quota bounds.

A rule satisfies the (q,k,m)-majority criterion when, on every m-candidate
profile, any k-set top-ranked (in any order) by strictly more than a q share
of the voters contains the whole choice set.  The (q,l)-veto criterion is the
mirror image for bottom-ranked l-sets.  This module checks the criteria on
concrete profiles and looks up the tight quota bounds, whose closed forms
each rule's registry record in ``rules`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .exact import ExactNumber, exact
from .model import ChoiceSet, Profile
from .rules import (
    ScoreVector,
    closed_form,
    integer_truncated_scores,
    second_order_dominates,
    winners as rule_winners,
)


@dataclass(frozen=True)
class Quota:
    """Exact quota bound: a point value or an interval [lo, hi] of values."""

    lo: ExactNumber
    hi: ExactNumber

    def __post_init__(self):
        lo, hi = exact(self.lo), exact(self.hi)
        if not (exact(0) <= lo <= hi <= exact(1)):
            raise ValueError("quota bounds must satisfy 0 <= lo <= hi <= 1")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value) -> "Quota":
        return cls(exact(value), exact(value))

    @classmethod
    def interval(cls, lo, hi) -> "Quota":
        return cls(exact(lo), exact(hi))

    @property
    def is_interval(self) -> bool:
        return self.lo != self.hi

    @property
    def attainable(self) -> bool:
        """An if-and-only-if bound, as a point is; an interval only brackets
        the quota."""
        return not self.is_interval

    @property
    def value(self) -> ExactNumber:
        if self.is_interval:
            raise ValueError("interval quota has no single value")
        return self.lo

    def render(self) -> str:
        if self.is_interval:
            return f"[{self.lo}, {self.hi}] ~ [{self.lo.decimal()}, {self.hi.decimal()}]"
        return f"{self.lo} ~ {self.lo.decimal()}"


@dataclass(frozen=True)
class Violation:
    """A witnessed criterion failure: the qualified set and the escaping winners."""

    b_set: frozenset[int]
    support: int
    winners: ChoiceSet
    profile: Profile
    q: ExactNumber | None = None
    vetoed: frozenset[int] | None = None

    def __post_init__(self):
        if self.winners <= self.b_set:
            raise ValueError("not a violation: winners lie inside the qualified set")
        if self.q is not None and not exact(self.support) > exact(self.q) * self.profile.n:
            raise ValueError("not a violation: support does not exceed the quota share")


# -- criterion checkers -----------------------------------------------------------


def mutual_majority_groups(profile: Profile, k: int) -> list[tuple[frozenset[int], int]]:
    """Every k-set together with the number of voters top-ranking exactly it."""
    if not 1 <= k < profile.m:
        raise ValueError(f"k must satisfy 1 <= k < m, got k={k}, m={profile.m}")
    support: dict[frozenset[int], int] = {}
    for count, ranking in profile.ballots:
        top = frozenset(ranking[:k])
        support[top] = support.get(top, 0) + count
    return sorted(support.items(), key=lambda item: tuple(sorted(item[0])))


def mutual_minority_groups(profile: Profile, l: int) -> list[tuple[frozenset[int], int]]:
    """Every l-set together with the number of voters bottom-ranking exactly it."""
    if not 1 <= l < profile.m:
        raise ValueError(f"l must satisfy 1 <= l < m, got l={l}, m={profile.m}")
    support: dict[frozenset[int], int] = {}
    for count, ranking in profile.ballots:
        bottom = frozenset(ranking[profile.m - l :])
        support[bottom] = support.get(bottom, 0) + count
    return sorted(support.items(), key=lambda item: tuple(sorted(item[0])))


def _coerce_q(q) -> ExactNumber:
    qq = exact(q)
    if not exact(0) < qq < exact(1):
        raise ValueError(f"quota must lie strictly between 0 and 1, got {q}")
    return qq


def check_qk_majority(rule_id: str, profile: Profile, q, k: int) -> Violation | None:
    """None when every sufficiently supported k-set contains all winners."""
    qq = _coerce_q(q)
    groups = mutual_majority_groups(profile, k)
    threshold = qq * profile.n
    won = rule_winners(rule_id, profile)
    for b_set, support in groups:
        if exact(support) > threshold and not won <= b_set:
            return Violation(b_set, support, won, profile, qq)
    return None


def check_ql_veto(rule_id: str, profile: Profile, q, l: int) -> Violation | None:
    """None when no sufficiently supported bottom l-set intersects the winners."""
    qq = _coerce_q(q)
    groups = mutual_minority_groups(profile, l)
    threshold = qq * profile.n
    won = rule_winners(rule_id, profile)
    universe = frozenset(range(profile.m))
    for l_set, support in groups:
        if exact(support) > threshold and won & l_set:
            return Violation(universe - l_set, support, won, profile, qq, vetoed=l_set)
    return None


# -- positional dominance -----------------------------------------------------------


def second_order_dominance(profile: Profile) -> set[tuple[int, int]]:
    """Ordered pairs (a, b) where a beats b under every convex scoring rule.

    Equivalent to the truncated-score conditions B_t(a) >= B_t(b) for every
    integer depth t < m with strict inequality at depth m - 1.
    """
    if profile.m < 2:
        raise ValueError("dominance needs at least two candidates")
    bt = {a: integer_truncated_scores(profile, a) for a in range(profile.m)}
    return {
        (a, b)
        for a in range(profile.m)
        for b in range(profile.m)
        if a != b and second_order_dominates(bt[a], bt[b])
    }


# -- closed-form quota bounds ---------------------------------------------------------


def scoring_majority_loser_ok(scores: ScoreVector) -> bool:
    """Whether the scoring rule can never elect a bottom-majority candidate."""
    s = scores.scores
    m = len(s)
    lhs = s[0] - Fraction(sum(s[1:]), m - 1)
    rhs = Fraction(sum(s[: m - 1]), m - 1) - s[m - 1]
    return lhs <= rhs


def _quota(form) -> Quota:
    """A registry form's value, or Dodgson's (lo, hi) pair, as a Quota."""
    return Quota.interval(*form) if isinstance(form, tuple) else Quota.point(form)


def quota_majority(rule_id: str, k: int, m: int) -> Quota:
    """Tight quota of the (q,k,m)-majority criterion for a rule.

    All bounds are if-and-only-if except Dodgson's, which is returned as the
    known sufficient/necessary interval.
    """
    if m < 2 or not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m with m >= 2, got k={k}, m={m}")
    return _quota(closed_form(rule_id, "majority", "quota", m)(k, m))


def quota_majority_sup(rule_id: str, k: int) -> Quota:
    """Supremum of the per-m quota over every m > k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return _quota(closed_form(rule_id, "majority_sup", "quota supremum")(k))


def quota_veto_sup(rule_id: str, l: int, half_restricted: bool = False) -> Quota:
    """Supremum over m >= 3 of the (q, m-l, m)-majority quota.

    ``half_restricted`` limits the range to m >= 2l (vetoing at most half
    the candidates).
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    return _quota(closed_form(rule_id, "veto_sup", "veto quota")(l, half_restricted))


def tradeoff_threshold(k: int) -> Quota:
    """Smallest quota at which positional dominance and (q,k)-majority coexist."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return Quota.point(Fraction(2 * k, 3 * k + 1))


TRADEOFF_THRESHOLD_SUP = Fraction(2, 3)
