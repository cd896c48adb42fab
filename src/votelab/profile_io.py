"""Line-oriented profile files: parsing, validation, and serialization.

Native format::

    # comment
    m 4
    candidates a b c d
    29: a > b > c > d
    22%: c > d > a > b        # percent lines scale to an integer total

The header lines (``m``, ``candidates``) may come anywhere, also after the
ballots; when one is repeated, its last value counts.  Any whitespace
separates a header keyword from its value, as it separates the names.
Rankings may use candidate names or 1-based indices; a name that is also
an index token (``candidates 2 1 3``) means the named candidate.  A name is one
whitespace-free token without ``>``, ``:`` or ``#``, in either format, so
that every parsed profile can be written back.  A strict-order
import variant (``fmt="soc"``) accepts comma-separated rankings
(``29: 1,2,3,4``) as found in common preference-data collections; only
complete strict orders are accepted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ProfileFormatError
from .model import Profile, default_candidates


def parse_profile(text: str, fmt: str = "native") -> Profile:
    """Parse profile text; errors carry the offending line number."""
    if fmt not in ("native", "soc"):
        raise ProfileFormatError(f"unknown format {fmt!r}")
    sep = ">" if fmt == "native" else ","
    m: int | None = None
    candidates: tuple[str, ...] | None = None
    ballots: list[tuple[int, str, list[str]]] = []  # (line, count token, entries)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *tail = line.split(None, 1)
        rest = tail[0] if tail else ""
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
            bad = next((name for name in names if ">" in name), None)
            if bad is not None:
                raise ProfileFormatError(f"candidate name {bad!r} contains '>'", line=lineno)
            candidates = names
            continue
        count_token, colon, ranking_text = line.partition(":")
        if not colon:
            raise ProfileFormatError(f"expected 'count: ranking', got {line!r}", line=lineno)
        entries = [tok.strip() for tok in ranking_text.split(sep)]
        if not all(entries):
            raise ProfileFormatError("empty entry in ranking", line=lineno)
        ballots.append((lineno, count_token.strip(), entries))

    if m is None and not candidates:
        raise ProfileFormatError("missing header: need an 'm' or 'candidates' line")
    m = len(candidates) if m is None else m
    if m < 1:
        raise ProfileFormatError(f"m must be at least 1, got {m}")
    if candidates is not None and len(candidates) != m:
        raise ProfileFormatError(f"candidates line has {len(candidates)} names but m is {m}")
    if not ballots:
        raise ProfileFormatError("profile has no ballots")
    absolute = [lineno for lineno, token, _ in ballots if not token.endswith("%")]
    percent_mode = len(absolute) < len(ballots)
    if percent_mode and absolute:
        raise ProfileFormatError("mixing percent and absolute counts", line=absolute[0])

    # The rankings and counts are resolved once the whole header is read.
    index: dict[str, int] | None = None
    groups: list[tuple[int | Fraction, tuple[int, ...]]] = []
    for lineno, token, entries in ballots:
        if len(entries) != m:
            raise ProfileFormatError(
                f"ranking lists {len(entries)} candidates, expected {m}", line=lineno
            )
        if index is None:
            # built once a ranking has m tokens, so m is bounded by the text
            index = {str(i + 1): i for i in range(m)}
            index.update(zip(candidates or (), range(m)))  # names before indices
        ranking = tuple(map(index.get, entries))
        if None in ranking or len(set(ranking)) != m:
            seen = set()
            for entry, c in zip(entries, ranking):
                if c is None:
                    raise ProfileFormatError(f"unknown candidate {entry!r}", line=lineno)
                if c in seen:
                    raise ProfileFormatError(
                        f"duplicate candidate {entry!r} in ranking", line=lineno
                    )
                seen.add(c)
        if percent_mode:
            try:
                count = Fraction(token[:-1])
            except (ValueError, ZeroDivisionError):
                raise ProfileFormatError(f"bad number {token[:-1]!r}", line=lineno) from None
            if count <= 0:
                raise ProfileFormatError(f"share must be positive, got {count}", line=lineno)
        else:
            try:
                count = int(token)
            except ValueError:
                raise ProfileFormatError(f"bad count {token!r}", line=lineno) from None
            if count < 1:
                raise ProfileFormatError(f"count must be positive, got {count}", line=lineno)
        groups.append((count, ranking))

    if percent_mode:
        total_share = sum(share for share, _ in groups)
        if total_share != 100:
            raise ProfileFormatError(f"percent shares must sum to 100, got {total_share}")
        for (lineno, _, _), (share, _) in zip(ballots, groups):
            if share.denominator != 1:
                raise ProfileFormatError(
                    f"share {share}% does not scale to an integer count over 100 voters",
                    line=lineno,
                )
        groups = [(int(share), ranking) for share, ranking in groups]
    return Profile(candidates or default_candidates(m), tuple(groups))


def serialize_profile(profile: Profile) -> str:
    """Canonical native text; parse(serialize(p)) == p.

    Raises ValueError for a candidate label that cannot be read back: one
    that is empty or holds whitespace, ``>``, ``:`` or ``#``.
    """
    for label in profile.candidates:
        if not label or any(c.isspace() or c in ">:#" for c in label):
            raise ValueError(
                f"candidate label {label!r} cannot be written as a profile name"
            )
    lines = [f"m {profile.m}", "candidates " + " ".join(profile.candidates)]
    for count, ranking in profile.ballots:
        lines.append(
            f"{count}: " + " > ".join(profile.candidates[c] for c in ranking)
        )
    return "\n".join(lines) + "\n"
