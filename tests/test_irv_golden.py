"""Instant-runoff reports past seven candidates against tests/golden/irv_reports.txt.

One line per profile: its name, its voter count, the winners, every
candidate's first-round score, whether the elimination branches on a tie,
and each unambiguous round's eliminated candidate with the active
candidates' tallies.  Past seven candidates, the most a search takes, a
report tallies each active set from the ballots, so these lines pin that
branch.  The profiles are seeded, over 8, 10, 12, 20 and 30 candidates:
weighted ones (5 groups per candidate of 1..1000 voters each), whose
eliminations mostly run without a tie, sparse ones (one group per
candidate of 1..30 voters), whose first rounds tie among the candidates
no group ranks first, tie-heavy 8-candidate ones (4..12 groups of 1..3
voters), and three branching 30-candidate ones (30 groups of 1..30
voters).
Regenerate the file only when an answer is meant to change:

    PYTHONPATH=src python tests/test_irv_golden.py > tests/golden/irv_reports.txt

tests/golden/profiles/irv30.txt is the first of the three branching
30-candidate profiles; tests/golden/winners/irv30.txt holds its
`votelab winners --rule irv --scores --format json` output.
"""

import random
from pathlib import Path

from votelab import Profile, default_candidates, parse_profile, report
from votelab.cli import main

GOLDEN = Path(__file__).parent / "golden"


def weighted_profile(rng, m: int, groups: int, most: int) -> Profile:
    """``groups`` random rankings over m candidates, each held by 1..most voters."""
    ballots = tuple((rng.randint(1, most), tuple(rng.sample(range(m), m))) for _ in range(groups))
    return Profile(default_candidates(m), ballots)


def branching_30():
    """Three 30-candidate profiles of 30 groups of 1..30 voters each."""
    rng = random.Random(30)
    return [weighted_profile(rng, 30, 30, 30) for _ in range(3)]


def golden_profiles():
    rng = random.Random(2028)
    for m in (8, 10, 12, 20, 30):
        for i in range(2):
            yield f"weighted {i} m={m}", weighted_profile(rng, m, 5 * m, 1000)
        yield f"sparse m={m}", weighted_profile(rng, m, m, 30)
    for i in range(6):
        yield f"ties {i} m=8", weighted_profile(rng, 8, rng.randint(4, 12), 3)
    for i, p in enumerate(branching_30()):
        yield f"branching {i} m=30", p


def irv_lines():
    for name, p in golden_profiles():
        rep = report("irv", p)
        scores = [rep.scores[a] for a in range(p.m)]
        rounds = [(r["eliminated"], sorted(r["scores"].items())) for r in rep.trace["rounds"]]
        yield (
            f"{name} n={p.n}: winners={sorted(rep.winners)} scores={scores} "
            f"tie_branching={rep.trace['tie_branching']} rounds={rounds}"
        )


def test_irv_reports_match_golden():
    assert "\n".join(irv_lines()) + "\n" == (GOLDEN / "irv_reports.txt").read_text()


def test_cli_report_on_thirty_candidates_matches_golden(capsys):
    path = GOLDEN / "profiles" / "irv30.txt"
    assert parse_profile(path.read_text()) == branching_30()[0]
    assert main(["winners", "--rule", "irv", "--scores", "--format", "json", str(path)]) == 0
    assert capsys.readouterr().out == (GOLDEN / "winners" / "irv30.txt").read_text()


if __name__ == "__main__":
    print("\n".join(irv_lines()))
