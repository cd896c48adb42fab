"""`votelab verify` witnesses below three tight m = 4 bounds against
tests/golden/verify.txt.

Each query sits 1/20 below a quota (or, for the convex median, below its
irrational quota) and exits 1 with the search's minimal witness: black at
k = 2 and q = 23/40 up to 8 voters (n = 8, support 5), the convex median at
k = 2 and q = 11/20 up to 7 (n = 7, support 4) and simpson at k = 3 and
q = 37/60 up to 8.  The file holds their JSON output in that order, so any
change to a witness, its winners or its support shows here.  Regenerate
the file only when a witness is meant to change:

    PYTHONPATH=src python tests/test_verify_golden.py > tests/golden/verify.txt
"""

from pathlib import Path

from votelab.cli import main

GOLDEN = Path(__file__).parent / "golden" / "verify.txt"
QUERIES = (
    ("black", 2, "23/40", 8),
    ("convexmedian", 2, "11/20", 7),
    ("simpson", 3, "37/60", 8),
)


def _argv(rule, k, q, max_voters):
    return ["verify", "--rule", rule, "--m", "4", "--k", str(k), "--q", q,
            "--max-voters", str(max_voters), "--format", "json"]


def test_verify_witnesses_match_golden(capsys):
    out = []
    for query in QUERIES:
        assert main(_argv(*query)) == 1, query
        out.append(capsys.readouterr().out)
    assert "".join(out) == GOLDEN.read_text()


if __name__ == "__main__":
    for query in QUERIES:
        main(_argv(*query))
