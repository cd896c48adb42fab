import csv
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import votelab
from votelab import (
    Profile,
    ProfileFormatError,
    parse_profile,
    random_profile,
    serialize_profile,
)
from votelab.cli import main
from votelab.rules import RULE_IDS

GOLDEN = Path(__file__).parent / "golden"
# the profiles under golden/profiles, each with a score vector of its length
GOLDEN_WINNERS = {"fourbloc": "scoring:3,1,1/2,0", "ties": "scoring:3,1,0"}

FOUR_BLOC_TEXT = """\
# four blocs over four candidates
m 4
candidates a b c d
29: a > b > c > d
28: b > a > c > d
22: c > d > a > b
21: c > d > b > a
"""

# the README's percent profile
PRIMARY_FIVE_TEXT = """\
m 5
candidates Hillary Donald John Ted Bernie
22%: Hillary > John > Bernie > Ted > Donald
21%: Donald > John > Ted > Bernie > Hillary
18%: John > Ted > Bernie > Donald > Hillary
19%: Ted > Bernie > John > Donald > Hillary
20%: Bernie > John > Ted > Hillary > Donald
"""


class TestParse:
    def test_four_bloc(self):
        p = parse_profile(FOUR_BLOC_TEXT)
        assert p.m == 4 and p.n == 100
        assert len(p.ballots) == 4

    def test_indices_without_names(self):
        p = parse_profile("m 3\n2: 1 > 3 > 2\n1: 2 > 1 > 3\n")
        assert p.candidates == ("a", "b", "c")
        assert p.ballots == ((2, (0, 2, 1)), (1, (1, 0, 2)))

    def test_single_candidate(self):
        p = parse_profile("m 1\n1: 1\n")
        assert p.m == 1 and p.n == 1

    def test_percent_lines_scale_to_hundred(self):
        text = "m 2\ncandidates x y\n58%: x > y\n42%: y > x\n"
        p = parse_profile(text)
        assert p.n == 100
        assert dict((r, c) for c, r in p.ballots) == {(0, 1): 58, (1, 0): 42}

    def test_percent_requires_total_100(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("m 2\n58%: 1 > 2\n41%: 2 > 1\n")

    def test_percent_mixing_rejected(self):
        with pytest.raises(ProfileFormatError) as err:
            parse_profile("m 2\n58%: 1 > 2\n42: 2 > 1\n")
        assert "line 3" in str(err.value)

    @pytest.mark.parametrize("token", ["inf", "nan", "1/0"])
    def test_nonfinite_percent_share_reports_line(self, token):
        with pytest.raises(ProfileFormatError) as err:
            parse_profile(f"m 2\n58%: 1 > 2\n{token}%: 2 > 1\n")
        assert err.value.line == 3
        assert str(err.value) == f"line 3: bad number {token!r}"

    def test_duplicate_candidate_reports_line(self):
        text = "m 4\ncandidates a b c d\n29: a > a > b > c\n"
        with pytest.raises(ProfileFormatError) as err:
            parse_profile(text)
        assert err.value.line == 3

    def test_unknown_candidate(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("m 2\ncandidates a b\n1: a > z\n")

    def test_wrong_arity(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("m 3\ncandidates a b c\n1: a > b\n")

    def test_nonpositive_count(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("m 2\n0: 1 > 2\n")
        with pytest.raises(ProfileFormatError):
            parse_profile("m 2\n-3: 1 > 2\n")

    def test_empty_profile(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("m 3\n")
        with pytest.raises(ProfileFormatError):
            parse_profile("# nothing\n")

    def test_soc_variant(self):
        p = parse_profile("m 3\n2: 1,3,2\n1: 2,1,3\n", fmt="soc")
        assert p.ballots == ((2, (0, 2, 1)), (1, (1, 0, 2)))

    def test_m_mismatch(self):
        with pytest.raises(ProfileFormatError):
            parse_profile("m 3\ncandidates a b\n1: a > b\n")

    @pytest.mark.parametrize("fmt", ["native", "soc"])
    def test_name_with_ranking_separator_reports_line(self, fmt):
        """A '>' in a name could not be written back in native text."""
        text = "# names\ncandidates a>b c d\n3: 1,2,3\n"
        with pytest.raises(ProfileFormatError) as err:
            parse_profile(text, fmt=fmt)
        assert str(err.value) == "line 2: candidate name 'a>b' contains '>'"


class TestRoundTrip:
    def test_four_bloc(self):
        p = parse_profile(FOUR_BLOC_TEXT)
        assert parse_profile(serialize_profile(p)) == p

    def test_random_profiles(self):
        rng = random.Random(99)
        for _ in range(50):
            p = random_profile(rng, rng.randint(1, 5), rng.randint(1, 10))
            assert parse_profile(serialize_profile(p)) == p

    def test_label_with_comma_round_trips(self):
        p = Profile.from_names(["x,y", "z"], [(2, ["x,y", "z"])])
        assert parse_profile(serialize_profile(p)) == p

    @pytest.mark.parametrize("label", ["a>b", "a b", "a\tb", "a:b", "a#b", ""])
    def test_unwritable_label_is_refused(self, label):
        p = Profile.from_names([label, "z"], [(1, [label, "z"])])
        with pytest.raises(ValueError, match="cannot be written"):
            serialize_profile(p)


class TestCli:
    @pytest.fixture
    def four_bloc_file(self, tmp_path):
        path = tmp_path / "fourbloc.txt"
        path.write_text(FOUR_BLOC_TEXT)
        return str(path)

    def test_winners(self, four_bloc_file, capsys):
        assert main(["winners", "--rule", "borda", four_bloc_file]) == 0
        assert "c" in capsys.readouterr().out

    def test_winners_scores_json(self, four_bloc_file, capsys):
        code = main(
            ["winners", "--rule", "convexmedian", "--scores", "--format", "json",
             four_bloc_file]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["winners"] == ["c"]
        assert data["scores"]["c"] == {"exact": "57/25", "decimal": "2.280"}

    def test_matrix(self, four_bloc_file, capsys):
        assert main(["matrix", "--format", "json", four_bloc_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tournament"][2][3] == 100
        assert data["positional"][0][2] == 43

    def test_quota_point(self, capsys):
        assert main(["quota", "--rule", "convexmedian", "--k", "2", "--m", "4",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact"] == "(-1+sqrt(33))/8"
        assert data["decimal"] == "0.593"

    def test_quota_veto_sup(self, capsys):
        assert main(["quota", "--rule", "vetocore", "--l", "4", "--half",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["exact"] == "1/2" and data["m"] == "sup"

    def test_quota_half_with_k_is_a_usage_error(self, capsys):
        """--half restricts a veto quota to m >= 2l; a majority quota takes none."""
        with pytest.raises(SystemExit) as exit_:
            main(["quota", "--rule", "borda", "--k", "2", "--half"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: votelab quota ") and "--half" in err

    @pytest.mark.parametrize("args, mode, size, m, value", [
        (["plurality", "--k", "2", "--m", "3"], "majority", 2, 3, "2/3"),
        (["plurality", "--k", "2"], "majority", 2, "sup", "2/3"),
        (["borda", "--l", "2"], "veto", 2, "sup", "2/3"),
        (["borda", "--l", "2", "--half"], "veto-half", 2, "sup", "5/8"),
        (["borda", "--l", "1", "--m", "4"], "veto", 1, 4, "1/2"),
        (["scoring:3,2,1,0", "--k", "2", "--m", "4"], "majority", 2, 4, "5/8"),
    ])
    def test_quota_lookups(self, args, mode, size, m, value, capsys):
        """Each flag combination reads its own quota function; a per-m veto
        quota is the majority quota of the m - l others."""
        assert main(["quota", "--rule", *args, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["mode"], data["size"], data["m"]) == (mode, size, m)
        assert data["exact"] == value

    @pytest.mark.parametrize("args", [
        ["--l", "2", "--half", "--m", "3"], ["--l", "3", "--m", "3"], ["--l", "0", "--m", "3"],
    ])
    def test_quota_veto_size_is_checked(self, args, capsys):
        assert main(["quota", "--rule", "borda", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a veto quota needs 1 <= l") and "got l=" in err

    def test_quota_interval(self, capsys):
        assert main(["quota", "--rule", "dodgson", "--k", "2", "--m", "4",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["interval"]["lo"]["exact"] == "1/2"
        assert data["interval"]["hi"]["exact"] == "2/3"
        assert data["attainable"] is False

    def test_tables_plain(self, capsys):
        assert main(["tables", "--which", "3"]) == 0
        out = capsys.readouterr().out
        assert "0.563" in out and "(5k-2)/(8k)" in out

    @pytest.mark.parametrize("which", [3, 4, 5, 6])
    def test_tables_match_golden(self, which, capsys):
        assert main(["tables", "--which", str(which)]) == 0
        assert capsys.readouterr().out == (GOLDEN / f"table{which}.txt").read_text()

    @pytest.mark.parametrize("profile, vector", GOLDEN_WINNERS.items())
    def test_winners_scores_match_golden(self, profile, vector, capsys):
        """Every rule's `winners --scores --format json` output, byte for byte:
        on the four-bloc profile and on a pairwise cycle whose first
        preferences tie, so that instant runoff branches and Black's rule
        falls back to Borda."""
        path = str(GOLDEN / "profiles" / f"{profile}.txt")
        for rule in RULE_IDS + (vector,):
            argv = ["winners", "--rule", rule, "--scores", "--format", "json", path]
            assert main(argv) == 0, rule
        expected = (GOLDEN / "winners" / f"{profile}.txt").read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("profile", GOLDEN_WINNERS)
    def test_matrix_and_dominance_match_golden(self, profile, capsys):
        """`matrix` and `dominance` in JSON, byte for byte: both read the
        profile's stored tallies."""
        path = str(GOLDEN / "profiles" / f"{profile}.txt")
        assert main(["matrix", "--format", "json", path]) == 0
        assert main(["dominance", "--format", "json", path]) == 0
        expected = (GOLDEN / "tallies" / f"{profile}.txt").read_text()
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("command", ["verify", "check", "worstcase"])
    def test_zero_denominator_quota_is_a_usage_error(self, command, four_bloc_file):
        """`--q 1/0` exits 2 with an error line, not 1 (a violation) with a
        traceback."""
        args = {
            "verify": ["--rule", "plurality", "--m", "3", "--k", "2", "--max-voters", "3"],
            "check": ["--rule", "plurality", "--k", "2", four_bloc_file],
            "worstcase": ["--m", "3", "--k", "2", "--voters", "4"],
        }[command]
        env = {**os.environ, "PYTHONPATH": str(Path(votelab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "votelab.cli", command, "--q", "1/0", *args],
            capture_output=True, env=env, timeout=60,
        )
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"invalid quota '1/0'" in proc.stderr

    def test_closed_pipe_is_quiet(self):
        """A reader that stops early (`votelab ktuple ... | head -c 50`) gets
        no traceback, and the command keeps its own exit status."""
        env = {**os.environ, "PYTHONPATH": str(Path(votelab.__file__).parents[1])}
        argv = ["ktuple", "--k", "400", "--voters", "400"]  # about 1 MB of output
        proc = subprocess.Popen(
            [sys.executable, "-m", "votelab.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.read(50).startswith(b"m 400\n")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
        assert err == b""

    def test_check_pass_and_violation_exit_codes(self, four_bloc_file, capsys):
        assert main(["check", "--rule", "borda", "--q", "5/8", "--k", "2",
                     four_bloc_file]) == 0
        assert main(["check", "--rule", "borda", "--q", "1/2", "--k", "2",
                     four_bloc_file]) == 1
        out = capsys.readouterr().out
        assert "VIOLATION" in out

    def test_check_veto(self, four_bloc_file):
        assert main(["check", "--rule", "borda", "--q", "1/2", "--l", "1",
                     four_bloc_file]) == 0

    def test_check_veto_violation_json(self, tmp_path, capsys):
        """58 of 100 voters rank Hillary last, yet plurality elects her."""
        path = tmp_path / "primary.txt"
        path.write_text(PRIMARY_FIVE_TEXT)
        assert main(["check", "--rule", "plurality", "--q", "1/2", "--l", "1",
                     "--format", "json", str(path)]) == 1
        violation = json.loads(capsys.readouterr().out)["violation"]
        assert violation["vetoed_set"] == ["Hillary"]
        assert violation["support"] == 58
        assert violation["qualified_set"] == ["Donald", "John", "Ted", "Bernie"]
        assert violation["winners"] == ["Hillary"]

    def test_verify_finds_violation(self, capsys):
        code = main(["verify", "--rule", "plurality", "--m", "3", "--k", "2",
                     "--q", "3/5", "--max-voters", "6", "--format", "json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["pass"] is False
        assert "violation" in data
        # witness round-trips through the profile format
        witness = parse_profile(data["violation"]["witness"])
        assert witness.n == 3

    def test_verify_clean(self, capsys):
        code = main(["verify", "--rule", "plurality", "--m", "3", "--k", "2",
                     "--q", "2/3", "--max-voters", "6"])
        assert code == 0

    def test_verify_has_no_seed_option(self, capsys):
        # verify is exhaustive only; it takes no sampling seed
        with pytest.raises(SystemExit) as exit_:
            main(["verify", "--rule", "plurality", "--m", "3", "--k", "2",
                  "--q", "2/3", "--max-voters", "6", "--seed", "3"])
        assert exit_.value.code == 2

    def test_verify_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("VOTELAB_MAX_VOTERS", "4")
        code = main(["verify", "--rule", "plurality", "--m", "3", "--k", "2",
                     "--q", "2/3", "--max-voters", "9", "--format", "json"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["partial"] is True and data["covered_max_voters"] == 4

    def test_worstcase_ktuple(self, capsys):
        assert main(["worstcase", "--m", "3", "--k", "2", "--q", "1/2",
                     "--voters", "4"]) == 0
        out = capsys.readouterr().out
        assert "b1 > b2 > a1" in out
        assert main(["ktuple", "--k", "3", "--voters", "3"]) == 0

    @pytest.mark.parametrize("argv", [
        ["ktuple", "--k", "3", "--voters", "0"],
        ["worstcase", "--m", "3", "--k", "1", "--q", "1/2", "--voters", "0"],
    ])
    def test_generators_need_a_voter(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: number of voters must be") and err.endswith("got 0\n")

    def test_worstcase_divisibility_error(self, capsys):
        assert main(["worstcase", "--m", "3", "--k", "2", "--q", "1/2",
                     "--voters", "5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_dominance(self, four_bloc_file, capsys):
        assert main(["dominance", "--format", "json", four_bloc_file]) == 0
        data = json.loads(capsys.readouterr().out)
        assert ["c", "a"] in data["pairs"] and ["c", "b"] in data["pairs"]

    def test_csv_format(self, four_bloc_file, capsys):
        assert main(["winners", "--rule", "borda", "--format", "csv",
                     four_bloc_file]) == 0
        out = capsys.readouterr().out
        assert out.startswith("key,value")

    def test_csv_quotes_keys_and_values(self, tmp_path, capsys):
        """Candidate names holding a comma or a double quote stay one field,
        in keys as in values."""
        path = tmp_path / "quoted.txt"
        path.write_text('m 2\ncandidates x,y z"q\n3: x,y > z"q\n1: z"q > x,y\n')
        assert main(["winners", "--rule", "plurality", "--scores", "--format", "csv",
                     str(path)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert all(len(row) == 2 for row in rows)
        assert [key for key, _ in rows] == [
            "key", "rule", "winners.0",
            "scores.x,y.exact", "scores.x,y.decimal",
            'scores.z"q.exact', 'scores.z"q.decimal',
        ]
        assert rows[2] == ["winners.0", "x,y"]

    def test_csv_keeps_trailing_dots_of_names(self, tmp_path, capsys):
        """A candidate named x. keeps its dot in CSV keys, apart from x."""
        path = tmp_path / "dots.txt"
        path.write_text("m 2\ncandidates x. x\n3: x. > x\n1: x > x.\n")
        assert main(["winners", "--rule", "convexmedian", "--scores", "--format", "csv",
                     str(path)]) == 0
        keys = [key for key, _ in csv.reader(io.StringIO(capsys.readouterr().out))]
        assert "scores.x." in keys and "scores.x" in keys
        assert len(keys) == len(set(keys))

    def test_winners_negative_scores(self, tmp_path, capsys):
        """A score vector with negative entries gives negative scores, which
        --scores renders with a minus sign."""
        path = tmp_path / "neg.txt"
        path.write_text("m 3\ncandidates a b c\n2: a > b > c\n1: c > b > a\n")
        assert main(["winners", "--rule", "scoring:0,-1,-2", "--scores",
                     "--format", "json", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["winners"] == ["a"]
        assert data["scores"]["a"] == {"exact": "-2", "decimal": "-2.000"}

    def test_check_rejects_name_with_ranking_separator(self, tmp_path, capsys):
        """A --soc name holding '>' is refused with its line (exit 2), rather
        than checked into a witness text that cannot be read back."""
        path = tmp_path / "gt.txt"
        path.write_text("candidates a>b c d\n3: a>b,c,d\n2: c,d,a>b\n")
        argv = ["check", "--soc", "--rule", "plurality", "--k", "1", "--q", "1/3",
                "--format", "json", str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 1: candidate name 'a>b' contains '>'\n"

    def test_bad_input_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("m 2\n1: a > a\n")
        assert main(["winners", "--rule", "borda", str(bad)]) == 2
        assert main(["winners", "--rule", "nosuch", str(bad)]) == 2
