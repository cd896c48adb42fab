"""The benchmark's three workloads: seeded inputs, one timed pass, checks.

Every workload drives votelab through its public calls only, single
process.  `build` turns a seed into inputs (this is the timed set-up),
`run_pass` performs one pass over them, or the part of it that fits before
a deadline, and `check` turns a pass's outcomes into verdicts against the
expected outputs in `expected/` and against invariants the benchmark
computes on its own.

A call's outcome is ("ok", value), ("refused", message) when votelab
raised SearchBudgetExceeded, its documented refusal, or ("error", message)
for any other exception.  A refusal that the recorded outputs also have
is votelab's answer for that input; any other refusal is a wrong result.
Errors and wrong results are failed operations and make the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

from . import covered

EXPECTED = Path(__file__).resolve().parent / "expected"

# A fixed copy of the 13 rule ids, so that the workloads stay the same
# whatever a later version does to votelab.RULE_IDS.
RULES = (
    "plurality",
    "runoff",
    "irv",
    "borda",
    "antiplurality",
    "simpson",
    "young",
    "dodgson",
    "clr",
    "black",
    "convexmedian",
    "vetocore",
    "t12rule",
)

OK, REFUSED, ERROR = "ok", "refused", "error"
WRONG = "wrong"  # verdict for an "ok" outcome whose value is not the expected one


def attempt(v, fn, *args, **kwargs):
    """Call into votelab and classify the outcome."""
    try:
        return OK, fn(*args, **kwargs)
    except v.SearchBudgetExceeded as err:
        return REFUSED, str(err)
    except Exception as err:  # a broken version must still produce a report
        return ERROR, f"{type(err).__name__}: {err}"


def direct(name, fn, *args, **kwargs):
    """Untraced stand-in for Tracer.run."""
    return fn(*args, **kwargs)


class PassResult:
    """One pass: its units' and queries' (start, seconds) times, and outcomes.

    A unit is a query, or a block of profiles.  Every pass has the same
    units in the same order; a pass cut by its deadline has a prefix of
    them.
    """

    def __init__(self):
        self.units: list[tuple[float, float]] = []
        self.latencies: list[tuple[float, float]] = []
        self.outcomes: list = []


def load_expected(name: str) -> dict:
    return json.loads((EXPECTED / f"{name}.json").read_text())


def _violation_form(violation) -> dict:
    profile = violation.profile
    return {
        "n": profile.n,
        "support": violation.support,
        "winners": list(profile.labels(violation.winners)),
    }


class _QueryWorkload:
    """A workload whose pass is a list of independent queries."""

    def run_pass(
        self, v, queries, span=direct, deadline=math.inf, clock=time.perf_counter
    ) -> PassResult:
        result = PassResult()
        for key, call in queries:
            t0 = clock()
            if t0 >= deadline:
                break
            outcome = span("bench.query", attempt, v, call, v)
            result.latencies.append((t0, clock() - t0))
            result.outcomes.append((key, outcome))
        result.units = result.latencies
        return result

    def check(self, v, queries, result: PassResult, expected: dict) -> list[str]:
        verdicts = []
        for key, (status, value) in result.outcomes:
            if status == REFUSED:  # the recorded outputs have no refusals
                verdicts.append(WRONG)
            elif status != OK:
                verdicts.append(status)
            else:
                verdicts.append(OK if self.form(value) == expected[key] else WRONG)
        return verdicts

    def covered(self, queries, expected: dict) -> int:
        return sum(self.query_range(key, expected[key]) for key, _ in queries)


VERIFY_QUERIES = (
    # rule, k, q, voter budget
    ("clr", 3, "5/9", 6),
    ("black", 2, "5/8", 6),
    # 11/20 stands in for (-1+sqrt(33))/8 - 1/20: for n <= 7 it selects
    # the same slices, so the witness is byte-identical.
    ("convexmedian", 2, "11/20", 7),
    ("simpson", 3, "37/60", 8),
)


class VerifyM4(_QueryWorkload):
    """`votelab verify --format json` in process at m = 4."""

    name = "verify-m4"

    def build(self, v, seed):
        order = list(VERIFY_QUERIES)
        random.Random(seed).shuffle(order)
        queries = []
        for rule, k, q, budget in order:
            argv = [
                "verify", "--rule", rule, "--m", "4", "--k", str(k), "--q", q,
                "--max-voters", str(budget), "--format", "json",
            ]
            queries.append((f"{rule} k={k} q={q} n<={budget}", _cli_call(argv)))
        return queries

    @staticmethod
    def form(value):
        status, payload = value
        return {
            "status": status,
            "pass": payload["pass"],
            "partial": payload["partial"],
            "violation": payload.get("violation"),
        }

    @staticmethod
    def query_range(key, expected):
        _, k_text, q_text, n_text = key.split()
        violation = expected["violation"]
        last_n = int(n_text[3:]) if violation is None else _voters(violation["witness"])
        return covered.criterion_range(4, int(k_text[2:]), Fraction(q_text[2:]), last_n)


def _cli_call(argv):
    def call(v):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = v.cli.main(argv)
        return status, json.loads(out.getvalue())

    return call


def _voters(witness: str) -> int:
    return sum(
        int(line.split(":", 1)[0]) for line in witness.splitlines() if ":" in line
    )


QUOTA_BUDGET = 12


class QuotaM3(_QueryWorkload):
    """empirical_quota for every rule at m = 3, plus the closed-form check."""

    name = "quota-m3"

    def build(self, v, seed):
        budget = v.SearchBudget(max_voters=QUOTA_BUDGET)
        queries = []
        for rule in RULES:
            for k in (1, 2):
                queries.append(
                    (f"empirical {rule} k={k}", _empirical_call(rule, k, budget))
                )
                try:
                    quota = v.quota_majority(rule, k, 3)
                except ValueError:
                    continue  # no closed form (t12rule)
                # Dodgson's quota is an interval; its upper end is sufficient.
                queries.append(
                    (f"search {rule} k={k} q={quota.hi}",
                     _search_call(rule, k, quota.hi, budget))
                )
        random.Random(seed).shuffle(queries)
        return queries

    @staticmethod
    def form(value):
        if isinstance(value, Fraction):
            return str(value)
        return None if value is None else _violation_form(value)

    @staticmethod
    def query_range(key, expected):
        kind, rule, k_text, *q_text = key.split()
        k = int(k_text[2:])
        if kind == "empirical":
            return covered.max_violation_range(3, k, QUOTA_BUDGET)
        last_n = QUOTA_BUDGET if expected is None else expected["n"]
        return covered.criterion_range(3, k, Fraction(q_text[0][2:]), last_n)


def _empirical_call(rule, k, budget):
    return lambda v: v.empirical_quota(rule, 3, k, budget)


def _search_call(rule, k, q, budget):
    return lambda v: v.exhaustive_criterion_search(rule, 3, k, q, budget)


SAMPLE_SEED = 1811_06739
CELLS = tuple((m, n) for m in (3, 4, 5) for n in range(8, 25))
BLOCKS = 10
WINNER_CHARS = "0123456789abcdefghijklmnopqrstuv"  # bitmask of winners, m <= 5
REFUSED_CHAR = "!"
CONDORCET_RULES = ("simpson", "young", "dodgson", "clr", "black")
MAJORITY_RULES = ("plurality", "runoff", "irv", "convexmedian", "t12rule")
UNDOMINATED_RULES = ("borda", "t12rule")


class ScoreProfiles:
    """Impartial-culture profiles scored by every rule.

    A block holds one profile per (m, n) cell, m in {3, 4, 5} and n in
    [8, 24]; a pass scores every block.  The profiles are one fixed
    impartial-culture sample, and the seed shuffles each profile's voters.
    It leaves the candidates' labels alone: relabeling changes Young's cost
    on one profile of the sample eightfold.  So every seed has the same
    costs and the same expected winners.
    """

    name = "score-profiles"

    def build(self, v, seed):
        base = random.Random(SAMPLE_SEED)
        rng = random.Random(seed)
        criteria = {m: _criteria(v, m) for m in (3, 4, 5)}
        profiles = []
        for _ in range(BLOCKS):
            for m, n in CELLS:
                rankings = [tuple(base.sample(range(m), m)) for _ in range(n)]
                rng.shuffle(rankings)
                text = f"m {m}\n" + "".join(
                    "1: " + ",".join(str(c + 1) for c in r) + "\n" for r in rankings
                )
                pairs = criteria[m]
                profiles.append((rankings, text, pairs[len(profiles) % len(pairs)]))
        return profiles

    def run_pass(
        self, v, profiles, span=direct, deadline=math.inf, clock=time.perf_counter
    ) -> PassResult:
        result = PassResult()
        per_block = len(CELLS)
        for block in range(0, len(profiles), per_block):
            t_block = clock()
            if t_block >= deadline:
                break
            for _, text, (crit_rule, k, q) in profiles[block:block + per_block]:
                parsed = span("bench.profile", attempt, v, v.parse_profile, text, fmt="soc")
                if parsed[0] != OK:
                    result.outcomes.append((parsed, None, None, None))
                    continue
                profile = parsed[1]
                won = []
                for rule in RULES:
                    t0 = clock()
                    status, value = span("bench.report", attempt, v, v.report, rule, profile)
                    result.latencies.append((t0, clock() - t0))
                    won.append((status, value.winners if status == OK else value))
                qk = span("bench.check", attempt, v, v.check_qk_majority,
                          crit_rule, profile, q, k)
                dom = span("bench.dominance", attempt, v, v.second_order_dominance, profile)
                result.outcomes.append((parsed, won, qk, dom))
            result.units.append((t_block, clock() - t_block))
        return result

    def winner_codes(self, profiles, result: PassResult) -> str:
        """Per report, the winners' bitmask, or "!" for a refusal."""
        codes = []
        for _, won, _, _ in result.outcomes:
            for status, value in won:
                if status == REFUSED:
                    codes.append(REFUSED_CHAR)
                else:
                    codes.append(WINNER_CHARS[sum(1 << c for c in value)])
        return "".join(codes)

    def check(self, v, profiles, result: PassResult, expected: dict) -> list[str]:
        codes = expected["winners"]
        verdicts = []
        for i, ((rankings, _, (crit_rule, _, _)), outcome) in enumerate(
            zip(profiles, result.outcomes)
        ):
            parsed, won, qk, dom = outcome
            if parsed[0] != OK:
                verdicts += [parsed[0]] + [ERROR] * (len(RULES) + 2)
                continue
            facts = _facts(rankings)
            m = len(rankings[0])
            same = parsed[1] == v.Profile(
                tuple("abcde"[:m]), tuple((1, r) for r in rankings)
            )
            verdicts.append(OK if same else WRONG)
            row = codes[i * len(RULES):(i + 1) * len(RULES)]
            for rule, code, (status, value) in zip(RULES, row, won):
                if status == REFUSED and code != REFUSED_CHAR:
                    verdicts.append(WRONG)  # the sample was answered
                    continue
                if status != OK:
                    verdicts.append(status)
                    continue
                good = _plausible(rule, value, facts)
                if code != REFUSED_CHAR:  # a refusal in the sample has no winners to compare
                    mask = WINNER_CHARS.index(code)
                    good = good and set(value) == {c for c in range(m) if mask >> c & 1}
                verdicts.append(OK if good else WRONG)
            # At a rule's tight quota the criterion holds on every profile.
            # The check may refuse only where the sample's report refused.
            if qk[0] == OK:
                verdicts.append(OK if qk[1] is None else WRONG)
            elif qk[0] == REFUSED and row[RULES.index(crit_rule)] != REFUSED_CHAR:
                verdicts.append(WRONG)
            else:
                verdicts.append(qk[0])
            if dom[0] == OK:
                verdicts.append(OK if dom[1] == facts["dominance"] else WRONG)
            else:
                verdicts.append(WRONG if dom[0] == REFUSED else dom[0])
        return verdicts

    def covered(self, profiles, expected) -> int:
        return len(profiles)


def _criteria(v, m):
    """(rule, k, quota) triples with a closed-form quota strictly inside (0, 1)."""
    out = []
    for rule in RULES:
        for k in range(1, m):
            try:
                q = v.quota_majority(rule, k, m).hi
            except ValueError:
                continue
            if 0 < q < 1:
                out.append((rule, k, q))
    return out


def _facts(rankings) -> dict:
    """Tallies computed here, independently of votelab."""
    m, n = len(rankings[0]), len(rankings)
    beats = [[0] * m for _ in range(m)]
    pos = [[0] * m for _ in range(m)]
    for r in rankings:
        for i, a in enumerate(r):
            pos[i][a] += 1
            for b in r[i + 1:]:
                beats[a][b] += 1
    condorcet = [a for a in range(m) if all(2 * beats[a][b] > n for b in range(m) if b != a)]
    majority = [a for a in range(m) if 2 * pos[0][a] > n]
    # truncated scores B_t(a) = sum over ranks i <= t of (t - i) * pos[i][a]
    bt = [
        [sum((t - i) * pos[i][a] for i in range(t + 1)) for t in range(1, m)]
        for a in range(m)
    ]
    dominance = {
        (a, b)
        for a in range(m)
        for b in range(m)
        if a != b and bt[a][-1] > bt[b][-1] and all(x >= y for x, y in zip(bt[a], bt[b]))
    }
    return {
        "condorcet": condorcet[0] if condorcet else None,
        "majority": majority[0] if majority else None,
        "dominance": dominance,
    }


def _plausible(rule, winners, facts) -> bool:
    """Properties each rule's winners must have, whatever the seed."""
    if facts["condorcet"] is not None and rule in CONDORCET_RULES:
        return set(winners) == {facts["condorcet"]}
    if facts["majority"] is not None and rule in MAJORITY_RULES:
        return set(winners) == {facts["majority"]}
    if rule in UNDOMINATED_RULES:
        return not any(b in winners for _, b in facts["dominance"])
    return True


WORKLOADS = {w.name: w for w in (VerifyM4(), QuotaM3(), ScoreProfiles())}
