"""Every closed-form quota, and every refusal, against tests/golden/quotas.txt.

One line per call: the call, then ``Quota.render()`` or the error class and
message (``votelab quota`` prints that message on stderr).  The calls cover
``quota_majority`` for every rule id plus one ``scoring:`` id at
2 <= m <= 7 and 1 <= k < m, ``quota_majority_sup`` for k = 1..8 and
``quota_veto_sup`` for l = 1..8 with and without ``half_restricted``, each
also for an unknown id.  Regenerate the file only when a quota is meant to
change:

    PYTHONPATH=src python tests/test_quota_golden.py > tests/golden/quotas.txt
"""

from pathlib import Path

from votelab import RULE_IDS, quota_majority, quota_majority_sup, quota_veto_sup

GOLDEN = Path(__file__).parent / "golden" / "quotas.txt"
RULES = (*RULE_IDS, "scoring:3,2,1,0", "nosuchrule")


def _line(call: str, fn, *args) -> str:
    try:
        result = fn(*args).render()
    except ValueError as err:
        result = f"{type(err).__name__}: {err}"
    return f"{call}: {result}"


def quota_lines():
    for rule in RULES:
        for m in range(2, 8):
            for k in range(1, m):
                yield _line(f"majority {rule} k={k} m={m}", quota_majority, rule, k, m)
        for k in range(1, 9):
            yield _line(f"majority-sup {rule} k={k}", quota_majority_sup, rule, k)
        for l in range(1, 9):
            for half in (False, True):
                call = f"veto-sup {rule} l={l}{' half' if half else ''}"
                yield _line(call, quota_veto_sup, rule, l, half)


def test_quotas_match_golden():
    assert "\n".join(quota_lines()) + "\n" == GOLDEN.read_text()


if __name__ == "__main__":
    print("\n".join(quota_lines()))
