"""Command-line interface.

Exit codes: 0 success (or criterion passes), 1 a criterion violation was
found (check/verify), 2 usage or input errors.  Output formats: plain
(human-readable), json, csv (flattened key/value rows).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import criteria, search
from .errors import VotelabError
from .exact import exact
# tournament_matrix and positional_matrix stay bound here for perfbench's
# tracer test; the matrix command reads the profile's stored tallies.
from .model import (  # noqa: F401
    Profile,
    positional_matrix,
    tournament_matrix,
)
from .profile_io import parse_profile, serialize_profile
from .rules import report as rule_report
from .tables import emit_table, table_data

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


@dataclass
class ResultDocument:
    """Uniform command result: echo of the command, payload, exit status."""

    command: str
    payload: dict
    plain: str
    status: int = EXIT_OK

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(
                {"command": self.command, "status": self.status, **self.payload},
                indent=2,
                sort_keys=True,
            )
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(("key", "value"))
            writer.writerows(_flatten(self.payload))
            return buf.getvalue().removesuffix("\n")
        return self.plain


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}{k}.")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix[:-1], "" if value is None else str(value)


def _jsonable(value):
    """Recursively convert traces and scores into JSON-friendly data."""
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: _jsonable(v) for k, v in value.items()}
        return [[_jsonable(k), _jsonable(v)] for k, v in sorted(value.items(), key=str)]
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=str)
        return [_jsonable(v) for v in items]
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    return str(value)


def _score_cell(value):
    if value is None:
        return None
    e = exact(value)
    return {"exact": str(e), "decimal": e.decimal()}


def _read_profile(args) -> Profile:
    path = args.file
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    return parse_profile(text, fmt="soc" if args.soc else "native")


def _quota_payload(quota: criteria.Quota) -> dict:
    if quota.is_interval:
        return {
            "interval": {
                "lo": {"exact": str(quota.lo), "decimal": quota.lo.decimal()},
                "hi": {"exact": str(quota.hi), "decimal": quota.hi.decimal()},
            },
            "attainable": quota.attainable,
        }
    return {
        "exact": str(quota.value),
        "decimal": quota.value.decimal(),
        "attainable": quota.attainable,
    }


def _violation_payload(profile: Profile, violation: criteria.Violation) -> dict:
    payload = {
        "qualified_set": list(profile.labels(violation.b_set)),
        "support": violation.support,
        "winners": list(profile.labels(violation.winners)),
        "witness": serialize_profile(violation.profile),
    }
    if violation.vetoed is not None:
        payload["vetoed_set"] = list(profile.labels(violation.vetoed))
    return payload


# -- subcommand handlers ----------------------------------------------------------


def _cmd_winners(args) -> ResultDocument:
    profile = _read_profile(args)
    rep = rule_report(args.rule, profile)
    payload = {
        "rule": args.rule,
        "winners": list(profile.labels(rep.winners)),
    }
    plain = f"winners ({args.rule}): " + ", ".join(payload["winners"])
    if args.scores:
        payload["scores"] = {
            profile.label(c): _score_cell(v) for c, v in sorted(rep.scores.items())
        }
        payload["trace"] = _jsonable(rep.trace)
        lines = [plain]
        for name, cell in payload["scores"].items():
            lines.append(
                f"  {name}: -" if cell is None else f"  {name}: {cell['exact']} ~ {cell['decimal']}"
            )
        plain = "\n".join(lines)
    return ResultDocument("winners", payload, plain=plain)


def _cmd_matrix(args) -> ResultDocument:
    profile = _read_profile(args)
    m = profile.m
    h = [list(profile.pair_counts[a * m : a * m + m]) for a in range(m)]
    pos = [list(profile.rank_counts[l * m : l * m + m]) for l in range(m)]
    payload = {
        "candidates": list(profile.candidates),
        "n": profile.n,
        "tournament": h,
        "positional": pos,
    }
    width = max(len(c) for c in profile.candidates) + 2
    lines = ["tournament matrix h(row, col):"]
    lines.append(" " * width + "".join(c.rjust(6) for c in profile.candidates))
    for a, row in enumerate(h):
        lines.append(
            profile.candidates[a].ljust(width)
            + "".join(("-" if a == b else str(v)).rjust(6) for b, v in enumerate(row))
        )
    lines.append("positional matrix (rank x candidate):")
    lines.append(" " * width + "".join(c.rjust(6) for c in profile.candidates))
    for l, row in enumerate(pos):
        lines.append(str(l + 1).ljust(width) + "".join(str(v).rjust(6) for v in row))
    return ResultDocument("matrix", payload, plain="\n".join(lines))


def _cmd_quota(args) -> ResultDocument:
    rule, m = args.rule, args.m
    if args.k is not None:
        mode, size = "majority", args.k
        if m is None:
            quota = criteria.quota_majority_sup(rule, size)
        else:
            quota = criteria.quota_majority(rule, size, m)
    else:
        mode, size = "veto-half" if args.half else "veto", args.l
        if m is None:
            quota = criteria.quota_veto_sup(rule, size, args.half)
        elif not 1 <= size < m or args.half and m < 2 * size:
            bound = "1 <= l <= m/2" if args.half else "1 <= l < m"
            raise ValueError(f"a veto quota needs {bound}, got l={size}, m={m}")
        else:
            # vetoing l of m candidates is a majority for the other m - l
            quota = criteria.quota_majority(rule, m - size, m)
    payload = {
        "rule": rule,
        "mode": mode,
        "size": size,
        "m": "sup" if m is None else m,
        **_quota_payload(quota),
    }
    return ResultDocument("quota", payload, plain=f"quota: {quota.render()}")


def _cmd_tables(args) -> ResultDocument:
    data = table_data(args.which)
    rows = []
    for label, cells, formula, sup in data.rows:
        row = {
            "rule": label,
            "cells": [None if q is None else _quota_payload(q) for q in cells],
        }
        if sup is not None:
            row["closed_form"] = formula
            row["sup"] = _quota_payload(sup)
        rows.append(row)
    payload = {"which": args.which, "title": data.title, "rows": rows}
    return ResultDocument("tables", payload, plain=emit_table(args.which).rstrip("\n"))


def _cmd_check(args) -> ResultDocument:
    profile = _read_profile(args)
    if args.k is not None:
        violation = criteria.check_qk_majority(args.rule, profile, args.q, args.k)
        mode = "majority"
        size = args.k
    else:
        violation = criteria.check_ql_veto(args.rule, profile, args.q, args.l)
        mode = "veto"
        size = args.l
    payload = {
        "rule": args.rule,
        "mode": mode,
        "size": size,
        "q": str(args.q),
        "pass": violation is None,
    }
    if violation is None:
        return ResultDocument("check", payload, plain="pass")
    payload["violation"] = _violation_payload(profile, violation)
    plain = (
        "VIOLATION: qualified set {"
        + ", ".join(payload["violation"]["qualified_set"])
        + f"}} supported by {violation.support}/{profile.n} voters, winners "
        + ", ".join(payload["violation"]["winners"])
    )
    return ResultDocument("check", payload, plain, EXIT_VIOLATION)


def _cmd_verify(args) -> ResultDocument:
    requested = args.max_voters
    budget = search.SearchBudget.default(max_voters=requested, workers=args.workers)
    effective = budget.max_voters
    violation = search.exhaustive_criterion_search(
        args.rule, args.m, args.k, args.q, budget
    )
    payload = {
        "rule": args.rule,
        "m": args.m,
        "k": args.k,
        "q": str(args.q),
        "requested_max_voters": requested,
        "covered_max_voters": effective,
        "partial": effective < requested,
        "pass": violation is None,
    }
    if violation is None:
        plain = f"no violation up to {effective} voters"
        if payload["partial"]:
            plain += f" (PARTIAL: {requested} requested, capped by {search.ENV_MAX_VOTERS})"
        return ResultDocument("verify", payload, plain=plain)
    payload["violation"] = _violation_payload(violation.profile, violation)
    plain = (
        f"VIOLATION at n={violation.profile.n}:\n"
        + serialize_profile(violation.profile)
        + "winners: "
        + ", ".join(violation.profile.labels(violation.winners))
    )
    return ResultDocument("verify", payload, plain, EXIT_VIOLATION)


def _cmd_worstcase(args) -> ResultDocument:
    profile = search.worst_case_profile(args.m, args.k, args.q, args.voters)
    text = serialize_profile(profile)
    return ResultDocument("worstcase", {"profile": text}, plain=text.rstrip("\n"))


def _cmd_ktuple(args) -> ResultDocument:
    profile = search.condorcet_k_tuple(args.k, args.voters)
    text = serialize_profile(profile)
    return ResultDocument("ktuple", {"profile": text}, plain=text.rstrip("\n"))


def _cmd_dominance(args) -> ResultDocument:
    profile = _read_profile(args)
    pairs = sorted(criteria.second_order_dominance(profile))
    payload = {
        "pairs": [[profile.label(a), profile.label(b)] for a, b in pairs],
    }
    plain = "\n".join(f"{a} dominates {b}" for a, b in payload["pairs"]) or "none"
    return ResultDocument("dominance", payload, plain=plain)


# -- parser -------------------------------------------------------------------------


def _quota(text: str) -> Fraction:
    """A --q value: an exact fraction such as 3/5 or 0.6."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid quota {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="votelab",
        description="Voting rules, quota bounds, and exhaustive criterion checks.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json", "csv"), default="plain"
    )
    file_common = argparse.ArgumentParser(add_help=False)
    file_common.add_argument("--soc", action="store_true",
                             help="read comma-separated strict-order rankings")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("winners", parents=[common, file_common],
                       help="evaluate a rule on a profile file")
    p.add_argument("--rule", required=True)
    p.add_argument("--scores", action="store_true")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_winners)

    p = sub.add_parser("matrix", parents=[common, file_common],
                       help="tournament and positional matrices")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser("quota", parents=[common], help="closed-form quota bounds")
    p.add_argument("--rule", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--l", type=int)
    p.add_argument("--half", action="store_true",
                   help="with --l: restrict to m >= 2l")
    p.add_argument("--m", type=int,
                   help="number of candidates (default: the supremum over m)")
    p.set_defaults(fn=_cmd_quota, usage_error=p.error)

    p = sub.add_parser("tables", parents=[common], help="regenerate a quota table")
    p.add_argument("--which", type=int, required=True, choices=(3, 4, 5, 6))
    p.set_defaults(fn=_cmd_tables)

    p = sub.add_parser("check", parents=[common, file_common],
                       help="check one profile against a criterion")
    p.add_argument("--rule", required=True)
    p.add_argument("--q", type=_quota, required=True, help="quota as a fraction P/S")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int)
    group.add_argument("--l", type=int)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("verify", parents=[common],
                       help="exhaustively search small elections for violations")
    p.add_argument("--rule", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=_quota, required=True)
    p.add_argument("--max-voters", type=int, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("worstcase", parents=[common],
                       help="generate the adversarial qualified-majority profile")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=_quota, required=True)
    p.add_argument("--voters", type=int, required=True)
    p.set_defaults(fn=_cmd_worstcase)

    p = sub.add_parser("ktuple", parents=[common],
                       help="generate a maximally cyclic profile")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--voters", type=int, required=True)
    p.set_defaults(fn=_cmd_ktuple)

    p = sub.add_parser("dominance", parents=[common, file_common],
                       help="second-order positional dominance pairs")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_dominance)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.cmd == "quota" and args.half and args.k is not None:
        args.usage_error("--half applies only with --l")
    try:
        result: ResultDocument = args.fn(args)
    except (VotelabError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(result.render(args.format), flush=True)
    except BrokenPipeError:
        # The reader closed the pipe early (`votelab ... | head`): send the
        # rest, and the interpreter's final flush, to the null device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return result.status


if __name__ == "__main__":
    sys.exit(main())
