"""Every parse refusal, and the accepted edge cases, against tests/golden/parse.txt.

One line per case: the format, the text's ``repr``, then either the error
class with its ``line`` and message or the parsed profile's ``repr``.  The
refusals hold one malformed text per raise site of `parse_profile`, in
each format where the site applies, plus texts with two faults that pin
which one is reported.  The accepted cases pin header lines after the
ballots, a repeated header line (the last one counts), digit-string names
that resolve before index tokens, ``22.0%`` shares, and header keywords
followed by a tab.  Regenerate the file only when parsing is meant to
change:

    PYTHONPATH=src python tests/test_parse_golden.py > tests/golden/parse.txt
"""

from pathlib import Path

from votelab import ProfileFormatError, parse_profile

GOLDEN = Path(__file__).parent / "golden" / "parse.txt"


def _both(text: str):
    """The native text, and its --soc twin with ' > ' written as ','."""
    return [("native", text), ("soc", text.replace(" > ", ","))]


CASES = [
    ("xml", "m 2\n1: 1 > 2\n"),
    # header lines
    *_both("m x\n1: 1 > 2\n"),
    *_both("m\n1: 1 > 2\n"),
    *_both("candidates a b a\n1: a > b\n"),
    *_both("m 2\ncandidates a>b c\n1: 1 > 2\n"),
    # ballot lines
    *_both("m 2\n1 > 2\n"),
    *_both("m\t2\n1: 1 > 2\n"),  # accepted: a header keyword ends at any whitespace
    ("native", "m 3\n1: 1 > > 2\n"),
    ("soc", "m 3\n1: 1,,2\n"),
    ("native", "m 2\n1: 1 > 2 >\n"),
    ("soc", "m 2\n1: 1,2,\n"),
    *_both("m 1\n1:\n"),
    # the header as a whole
    *_both("1: 1 > 2\n"),
    *_both("candidates\n1: 1\n"),
    *_both("m: 2\n"),
    *_both("m 0\n1: 1\n"),
    *_both("m -2\n"),
    *_both("m 3\ncandidates a b\n1: a > b\n"),
    *_both("m 3\n"),
    *_both("# nothing\n"),
    *_both("candidates a b\n"),
    # counts of either kind
    *_both("m 2\n58%: 1 > 2\n42: 2 > 1\n"),
    *_both("m 2\n42: 2 > 1\n58%: 1 > 2\n"),
    *_both("m 2\n50%: 1 > 2\n30: 2 > 1\n20: 1 > 2\n"),
    # rankings
    *_both("m 3\n1: 1 > 2\n"),
    *_both("m 2\ncandidates a b\n1: a > z\n"),
    *_both("m 2\n1: a > b\n"),
    *_both("m 2\n1: 1 > 3\n"),
    *_both("m 2\n1: 0 > 1\n"),
    *_both("m 3\ncandidates a b c\n2: a > a > b\n"),
    *_both("m 2\ncandidates a b\n1: a > 1\n"),
    *_both("candidates 3 x y\n1: 3 > 1 > 2\n"),
    *_both("candidates 10 1 2\n1: 3 > 2 > 1\n"),
    # percent counts
    *_both("m 2\nx%: 1 > 2\n100%: 2 > 1\n"),
    *_both("m 2\n%: 1 > 2\n"),
    *_both("m 2\n1/0%: 1 > 2\n"),
    *_both("m 2\n0%: 1 > 2\n100%: 2 > 1\n"),
    *_both("m 2\n-5%: 1 > 2\n105%: 2 > 1\n"),
    *_both("m 2\n58%: 1 > 2\n41%: 2 > 1\n"),
    *_both("m 2\n50.5%: 1 > 2\n49.5%: 2 > 1\n"),
    # absolute counts
    *_both("m 2\nx: 1 > 2\n"),
    *_both("m 2\n1.5: 1 > 2\n"),
    *_both("m 2\n: 1 > 2\n"),
    *_both("m 2\n0: 1 > 2\n"),
    *_both("m 2\n-3: 1 > 2\n"),
    # two faults: the first one reported wins
    *_both("m 2\nx: 1 > 2\nm y\n"),
    *_both("m 2\n0: 1 > 1\n"),
    *_both("m 2\n0: 1 > 2\n1: 1 > 1\n"),
    *_both("m 2\n50%: 1 > 1\n50: 2 > 1\n"),
    *_both("m 2\n0%: 1 > 2\n100%: 2 > 2\n"),
    *_both("m 2\n50.5%: 1 > 2\n50%: 2 > 1\n"),
    *_both("m 0\ncandidates a\n"),
    *_both("m 3\ncandidates a b\n"),
    *_both("m 3\n1: z > y\n"),
    *_both("m 2\n1: 1 > 2 > 3\n1: z > z\n"),
    # accepted
    *_both("1: 2 > 1\nm 2\n"),
    *_both("1: b > a\ncandidates a b\n3: a > b\n"),
    *_both("m 5\nm 2\n1: 1 > 2\n"),
    *_both("candidates a b\ncandidates x y\n1: y > x\n"),
    *_both("candidates 2 1 3\n1: 1 > 2 > 3\n"),
    *_both("candidates 10 1 2\n1: 1 > 2 > 10\n2: 2 > 10 > 1\n"),
    *_both("m 2\n22.0%: 1 > 2\n78%: 2 > 1\n"),
    *_both("m 2\n50 %: 1 > 2\n50%: 2 > 1\n"),
    *_both("  # comment\nm 2 # two\n\n3 : 1 > 2  \n+2: 2 > 1\n1: 1 > 2\n"),
    *_both("m 2\r\n1_0: 1 > 2\r\n"),
    *_both("m 1\n1: 1\n"),
    *_both("m 3\ncandidates a b c\n1: c > 1 > b\n"),
    ("soc", "candidates x,y z\n1: 1,2\n"),
    *_both("candidates\ta b\n1: b > a\n"),
    *_both("candidates\ta\tb\nm\t2\n1: b > a\n"),
]


def _line(fmt: str, text: str) -> str:
    try:
        result = repr(parse_profile(text, fmt=fmt))
    except ProfileFormatError as err:
        result = f"{type(err).__name__} line={err.line}: {err}"
    return f"{fmt} {text!r}: {result}"


def parse_lines():
    return [_line(fmt, text) for fmt, text in CASES]


def test_parse_matches_golden():
    assert "\n".join(parse_lines()) + "\n" == GOLDEN.read_text()


if __name__ == "__main__":
    print("\n".join(parse_lines()))
