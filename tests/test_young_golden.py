"""Young's scores and removal traces against tests/golden/young_reports.txt.

One line per profile: its name, the Young scores of every candidate and
the trace's removals, voters per ballot type in ballot order.  The profiles
are 150 seeded impartial-culture profiles (m = 4..6, 5..24 voters) and 50
seeded weighted profiles (m = 3..5, 2..5 ballot types, 1..15 voters each),
where a type's voters can be split across a removal.  The trace is the
lexicographically first minimal pooled removal, so any change to the
search order shows here.  Regenerate the file only when an answer is meant
to change:

    PYTHONPATH=src python tests/test_young_golden.py > tests/golden/young_reports.txt
"""

import itertools
import random
from pathlib import Path

from votelab import Profile, default_candidates, random_profile, report

GOLDEN = Path(__file__).parent / "golden" / "young_reports.txt"


def golden_profiles():
    rng = random.Random(1010)
    for i in range(150):
        m = 4 + i % 3
        yield f"random {i} m={m}", random_profile(rng, m, rng.randint(5, 24))
    for i in range(50):
        m = 3 + i % 3
        types = rng.sample(list(itertools.permutations(range(m))), rng.randint(2, 5))
        ballots = tuple((rng.randint(1, 15), t) for t in types)
        yield f"weighted {i} m={m}", Profile(default_candidates(m), ballots)


def young_lines():
    for name, p in golden_profiles():
        rep = report("young", p)
        scores = [rep.scores[a] for a in range(p.m)]
        removals = [rep.trace["removals"][a] for a in range(p.m)]
        yield f"{name} n={p.n}: scores={scores} removals={removals}"


def test_young_reports_match_golden():
    assert "\n".join(young_lines()) + "\n" == GOLDEN.read_text()


if __name__ == "__main__":
    print("\n".join(young_lines()))
