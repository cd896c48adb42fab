"""Majority-power and veto-power criteria: checkers and tight quota bounds.

A rule satisfies the (q,k,m)-majority criterion when, on every m-candidate
profile, any k-set top-ranked (in any order) by strictly more than a q share
of the voters contains the whole choice set.  The (q,l)-veto criterion is the
mirror image for bottom-ranked l-sets.  This module checks the criteria on
concrete profiles and computes the tight quota bounds in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .exact import ExactNumber, exact
from .model import ChoiceSet, Profile
from .rules import (
    ScoreVector,
    integer_truncated_scores,
    parse_score_vector,
    second_order_dominates,
    winners as rule_winners,
)

HALF = Fraction(1, 2)
ONE = Fraction(1)


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


@dataclass(frozen=True)
class CriterionQuery:
    """A quota lookup: rule, group size, and candidate-count scope.

    mode 'majority' sizes the top-ranked set k; modes 'veto' and 'veto-half'
    size the bottom-ranked set l (the half-restricted variant only ranges
    over m >= 2l).  ``m`` None means the supremum over all m (at least 3 in
    the veto modes).
    """

    rule_id: str
    mode: str  # majority | veto | veto-half
    size: int
    m: int | None = None

    def __post_init__(self):
        if self.mode not in ("majority", "veto", "veto-half"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.size < 1:
            raise ValueError("group size must be at least 1")
        if self.m is not None:
            if self.mode == "majority" and not self.size < self.m:
                raise ValueError("majority mode needs k < m")
            if self.mode.startswith("veto") and not self.size < self.m:
                raise ValueError("veto mode needs l < m")
            if self.mode == "veto-half" and self.m < 2 * self.size:
                raise ValueError("half-restricted veto needs m >= 2l")

    def resolve(self) -> Quota:
        if self.mode == "majority":
            if self.m is None:
                return quota_majority_sup(self.rule_id, self.size)
            return quota_majority(self.rule_id, self.size, self.m)
        if self.m is None:
            return quota_veto_sup(self.rule_id, self.size, self.mode == "veto-half")
        return quota_majority(self.rule_id, self.m - self.size, self.m)


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
    n = profile.n
    won = rule_winners(rule_id, profile)
    for b_set, support in groups:
        if exact(support) > qq * n and not won <= b_set:
            return Violation(b_set, support, won, profile, qq)
    return None


def check_ql_veto(rule_id: str, profile: Profile, q, l: int) -> Violation | None:
    """None when no sufficiently supported bottom l-set intersects the winners."""
    qq = _coerce_q(q)
    groups = mutual_minority_groups(profile, l)
    n = profile.n
    won = rule_winners(rule_id, profile)
    universe = frozenset(range(profile.m))
    for l_set, support in groups:
        if exact(support) > qq * n and won & l_set:
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


def _clr_bound(k: int) -> Fraction:
    if k % 2 == 0:
        return Fraction(5 * k - 2, 8 * k)
    return Fraction(5 * k * k - 2 * k + 1, 8 * k * k)


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


def scoring_majority_loser_ok(scores: ScoreVector) -> bool:
    """Whether the scoring rule can never elect a bottom-majority candidate."""
    s = scores.scores
    m = len(s)
    lhs = s[0] - Fraction(sum(s[1:]), m - 1)
    rhs = Fraction(sum(s[: m - 1]), m - 1) - s[m - 1]
    return lhs <= rhs


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


def quota_majority(rule_id: str, k: int, m: int) -> Quota:
    """Tight quota of the (q,k,m)-majority criterion for a rule.

    All bounds are if-and-only-if except Dodgson's, which is returned as the
    known sufficient/necessary interval.
    """
    if m < 2 or not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m with m >= 2, got k={k}, m={m}")
    if rule_id.startswith("scoring:"):
        vec = parse_score_vector(rule_id[len("scoring:") :], m)
        return Quota.point(scoring_rule_quota(vec, k))
    if rule_id == "plurality":
        return Quota.point(Fraction(k, k + 1))
    if rule_id in ("simpson", "young"):
        return Quota.point(HALF if k == 1 else Fraction(k - 1, k))
    if rule_id == "clr":
        return Quota.point(_clr_bound(k))
    if rule_id == "runoff":
        if k == 1 or k == m - 1:
            return Quota.point(HALF)
        return Quota.point(max(Fraction(k, k + 2), HALF))
    if rule_id == "black":
        return Quota.point(HALF if k == 1 else Fraction(2 * m - k - 1, 2 * m))
    if rule_id == "borda":
        return Quota.point(Fraction(2 * m - k - 1, 2 * m))
    if rule_id == "antiplurality":
        return Quota.point(Fraction(1, m) if k == m - 1 else ONE)
    if rule_id == "convexmedian":
        return Quota.point(_convex_median_quota(k, m))
    if rule_id == "irv":
        return Quota.point(HALF)
    if rule_id == "vetocore":
        return Quota.point(Fraction(m - k, m))
    if rule_id == "dodgson":
        return Quota.interval(_clr_bound(k), Fraction(k, k + 1))
    raise ValueError(f"no closed-form quota for rule id {rule_id!r}")


def quota_majority_sup(rule_id: str, k: int) -> Quota:
    """Supremum of the per-m quota over every m > k."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if rule_id == "plurality":
        return Quota.point(Fraction(k, k + 1))
    if rule_id in ("simpson", "young"):
        return Quota.point(HALF if k == 1 else Fraction(k - 1, k))
    if rule_id == "clr":
        return Quota.point(_clr_bound(k))
    if rule_id == "runoff":
        return Quota.point(HALF if k <= 2 else Fraction(k, k + 2))
    if rule_id == "convexmedian":
        return Quota.point(Fraction(3 * k - 1, 4 * k))
    if rule_id == "irv":
        return Quota.point(HALF)
    if rule_id == "black":
        return Quota.point(HALF if k == 1 else ONE)
    if rule_id in ("borda", "vetocore", "antiplurality"):
        return Quota.point(ONE)
    if rule_id == "dodgson":
        return Quota.interval(_clr_bound(k), Fraction(k, k + 1))
    raise ValueError(f"no closed-form quota supremum for rule id {rule_id!r}")


def quota_veto_sup(rule_id: str, l: int, half_restricted: bool = False) -> Quota:
    """Supremum over m >= 3 of the (q, m-l, m)-majority quota.

    ``half_restricted`` limits the range to m >= 2l (vetoing at most half
    the candidates).
    """
    if l < 1:
        raise ValueError("l must be at least 1")
    if rule_id == "irv":
        return Quota.point(HALF)
    if rule_id == "clr":
        return Quota.point(Fraction(5, 8))
    if rule_id == "convexmedian":
        if l == 1:
            return Quota.point(HALF)
        at_double = _convex_median_quota(l, 2 * l)
        if half_restricted:
            return Quota.point(at_double)
        below = _convex_median_quota(l - 1, 2 * l - 1)
        return Quota.point(max(at_double, exact(below)))
    if rule_id == "black":
        if l == 1:
            return Quota.point(HALF)
        if half_restricted:
            return Quota.point(Fraction(3 * l - 1, 4 * l))
        return Quota.point(Fraction(2 * l + 1, 2 * l + 4))
    if rule_id == "borda":
        if l == 1:
            return Quota.point(HALF)
        if half_restricted:
            return Quota.point(Fraction(3 * l - 1, 4 * l))
        return Quota.point(Fraction(l, l + 1))
    if rule_id == "vetocore":
        if l == 1:
            return Quota.point(Fraction(1, 3))
        return Quota.point(HALF if half_restricted else Fraction(l, l + 1))
    if rule_id == "antiplurality":
        return Quota.point(Fraction(1, 3) if l == 1 else ONE)
    if rule_id == "runoff":
        return Quota.point(HALF if l == 1 else ONE)
    if rule_id in ("simpson", "young", "plurality"):
        return Quota.point(ONE)
    if rule_id == "dodgson":
        return Quota.interval(Fraction(5, 8), ONE)
    raise ValueError(f"no closed-form veto quota for rule id {rule_id!r}")


def tradeoff_threshold(k: int) -> Quota:
    """Smallest quota at which positional dominance and (q,k)-majority coexist."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return Quota.point(Fraction(2 * k, 3 * k + 1))


TRADEOFF_THRESHOLD_SUP = Fraction(2, 3)
