"""Line-oriented profile files: parsing, validation, and serialization.

Native format::

    # comment
    m 4
    candidates a b c d
    29: a > b > c > d
    22%: c > d > a > b        # percent lines scale to an integer total

Rankings may use candidate names or 1-based indices.  A strict-order
import variant (``fmt="soc"``) accepts comma-separated rankings
(``29: 1,2,3,4``) as found in common preference-data collections; only
complete strict orders are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ProfileFormatError
from .model import Profile, default_candidates


@dataclass(frozen=True)
class BallotLine:
    line: int
    count_token: str
    entries: tuple[str, ...]


@dataclass(frozen=True)
class ProfileDocument:
    """Parsed but not yet validated profile text."""

    m: int | None
    candidates: tuple[str, ...] | None
    ballots: tuple[BallotLine, ...]

    def to_profile(self) -> Profile:
        m = self.m if self.m is not None else (
            len(self.candidates) if self.candidates else None
        )
        if m is None:
            raise ProfileFormatError("missing header: need an 'm' or 'candidates' line")
        if m < 1:
            raise ProfileFormatError(f"m must be at least 1, got {m}")
        if self.candidates is not None and len(self.candidates) != m:
            raise ProfileFormatError(
                f"candidates line has {len(self.candidates)} names but m is {m}"
            )
        names = self.candidates or default_candidates(m)
        index = {name: i for i, name in enumerate(names)}
        if self.candidates is None:
            # Unnamed candidates are addressed by 1-based index only.
            index = {}
        for i in range(m):
            index.setdefault(str(i + 1), i)
        if not self.ballots:
            raise ProfileFormatError("profile has no ballots")

        percent_mode = any(b.count_token.endswith("%") for b in self.ballots)
        if percent_mode and not all(b.count_token.endswith("%") for b in self.ballots):
            bad = next(b for b in self.ballots if not b.count_token.endswith("%"))
            raise ProfileFormatError(
                "mixing percent and absolute counts", line=bad.line
            )

        groups: list[tuple[int, tuple[int, ...]]] = []
        shares: list[tuple[Fraction, tuple[int, ...], int]] = []
        for ballot in self.ballots:
            ranking = self._resolve(ballot, index, m)
            if percent_mode:
                share = _parse_fraction(ballot.count_token[:-1], ballot.line)
                if share <= 0:
                    raise ProfileFormatError(
                        f"share must be positive, got {share}", line=ballot.line
                    )
                shares.append((share, ranking, ballot.line))
            else:
                try:
                    count = int(ballot.count_token)
                except ValueError:
                    raise ProfileFormatError(
                        f"bad count {ballot.count_token!r}", line=ballot.line
                    ) from None
                if count < 1:
                    raise ProfileFormatError(
                        f"count must be positive, got {count}", line=ballot.line
                    )
                groups.append((count, ranking))

        if percent_mode:
            total_share = sum(s for s, _, _ in shares)
            if total_share != 100:
                raise ProfileFormatError(
                    f"percent shares must sum to 100, got {total_share}"
                )
            for share, ranking, line in shares:
                if share.denominator != 1:
                    raise ProfileFormatError(
                        f"share {share}% does not scale to an integer count "
                        "over 100 voters",
                        line=line,
                    )
                groups.append((int(share), ranking))
        return Profile(names, tuple(groups))

    @staticmethod
    def _resolve(ballot: BallotLine, index: dict[str, int], m: int) -> tuple[int, ...]:
        if len(ballot.entries) != m:
            raise ProfileFormatError(
                f"ranking lists {len(ballot.entries)} candidates, expected {m}",
                line=ballot.line,
            )
        ranking = []
        seen = set()
        for token in ballot.entries:
            if token not in index:
                raise ProfileFormatError(
                    f"unknown candidate {token!r}", line=ballot.line
                )
            c = index[token]
            if c in seen:
                raise ProfileFormatError(
                    f"duplicate candidate {token!r} in ranking", line=ballot.line
                )
            seen.add(c)
            ranking.append(c)
        return tuple(ranking)


def _parse_fraction(token: str, line: int) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ProfileFormatError(f"bad number {token!r}", line=line) from None


def parse_document(text: str, fmt: str = "native") -> ProfileDocument:
    if fmt not in ("native", "soc"):
        raise ProfileFormatError(f"unknown format {fmt!r}")
    sep = ">" if fmt == "native" else ","
    m: int | None = None
    candidates: tuple[str, ...] | None = None
    ballots: list[BallotLine] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")
        if head == "m" and ":" not in line:
            try:
                m = int(rest.strip())
            except ValueError:
                raise ProfileFormatError(f"bad m value {rest.strip()!r}", line=lineno)
            continue
        if head == "candidates" and ":" not in line:
            names = tuple(rest.split())
            if len(set(names)) != len(names):
                raise ProfileFormatError("duplicate candidate names", line=lineno)
            candidates = names
            continue
        count_token, colon, ranking_text = line.partition(":")
        if not colon:
            raise ProfileFormatError(
                f"expected 'count: ranking', got {line!r}", line=lineno
            )
        entries = tuple(tok.strip() for tok in ranking_text.split(sep))
        if any(not tok for tok in entries):
            raise ProfileFormatError("empty entry in ranking", line=lineno)
        ballots.append(BallotLine(lineno, count_token.strip(), entries))
    return ProfileDocument(m, candidates, tuple(ballots))


def parse_profile(text: str, fmt: str = "native") -> Profile:
    """Parse profile text; errors carry the offending line number."""
    return parse_document(text, fmt).to_profile()


def serialize_profile(profile: Profile) -> str:
    """Canonical native text; parse(serialize(p)) == p."""
    lines = [f"m {profile.m}", "candidates " + " ".join(profile.candidates)]
    for count, ranking in profile.ballots:
        lines.append(
            f"{count}: " + " > ".join(profile.candidates[c] for c in ranking)
        )
    return "\n".join(lines) + "\n"
