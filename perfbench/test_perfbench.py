"""Tests of the benchmark's own parts.

    python3 -m pytest perfbench -q
"""

import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import votelab as v  # noqa: E402
import votelab.cli  # noqa: E402,F401  (the benchmark wraps cli.main)
from votelab import search  # noqa: E402

from perfbench import covered, run, speed, tracer as tracing  # noqa: E402
from perfbench.workloads import OK, REFUSED, WORKLOADS, WRONG, load_expected  # noqa: E402

F = Fraction


def _brute_slices(m, k, max_voters):
    """(n, support) -> number of profiles, by enumeration."""
    b_types, _ = search._split_types(m, k)
    b_types = set(b_types)
    sizes = {}
    for profile in search.all_profiles(m, max_voters):
        support = sum(c for c, r in profile.ballots if r in b_types)
        key = (profile.n, support)
        sizes[key] = sizes.get(key, 0) + 1
    return sizes


@pytest.mark.parametrize("m,k,max_voters", [(3, 1, 5), (3, 2, 5), (4, 3, 3), (4, 2, 3)])
def test_covered_counter_matches_enumeration(m, k, max_voters):
    sizes = _brute_slices(m, k, max_voters)
    for (n, s), size in sizes.items():
        assert covered.slice_size(m, k, n, s) == size
    for last_n in range(1, max_voters + 1):
        assert covered.max_violation_range(m, k, last_n) == sum(
            size for (n, s), size in sizes.items() if n <= last_n and s >= 1
        )
        for q in (F(1, 2), F(5, 9), F(2, 3), F(37, 60), F(1)):
            assert covered.criterion_range(m, k, q, last_n) == sum(
                size for (n, s), size in sizes.items() if n <= last_n and s > q * n
            )


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_times_sum_to_root_duration():
    tracer = tracing.Tracer()
    leaf = tracer.wrap("leaf", _busy)

    def middle():
        _busy(0.002)
        leaf(0.003)
        leaf(0.001)

    mid = tracer.wrap("middle", middle)

    def root():
        mid()
        _busy(0.001)
        mid()

    tracer.run("root", root)
    assert tracer.calls == {"root": 1, "middle": 2, "leaf": 4}
    root_index = tracer.names.index("root")
    (r,) = [i for i in range(tracer.spans) if tracer.span_name[i] == root_index]
    duration = tracer.span_end[r] - tracer.span_start[r]
    assert sum(tracer.self_s.values()) == pytest.approx(duration, abs=1e-9)
    # the same self times follow from the written records alone
    rebuilt = {}
    for i in range(tracer.spans):
        own = tracer.span_end[i] - tracer.span_start[i]
        children = sum(
            tracer.span_end[j] - tracer.span_start[j]
            for j in range(tracer.spans)
            if tracer.span_parent[j] == i
        )
        name = tracer.names[tracer.span_name[i]]
        rebuilt[name] = rebuilt.get(name, 0.0) + own - children
    for name, took in tracer.self_s.items():
        assert rebuilt[name] == pytest.approx(took, abs=1e-9)


def test_same_layer_reentry_is_one_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("exact.coerce", lambda x: x)
    outer = tracer.wrap("exact.coerce", lambda x: inner(x))
    assert outer(3) == 3
    assert tracer.calls == {"exact.coerce": 1}


def test_install_wraps_every_binding_and_reports_missing_ones():
    tally = v.model.tournament_matrix
    coerce = v.ExactNumber.__dict__["of"]
    layers = tracing.LAYERS + (
        ("gone.layer", "votelab.search:function_removed_by_a_refactor", False),
    )
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, layers)
    try:
        assert inst.missing == ["votelab.search:function_removed_by_a_refactor"]
        assert inst.missing_layers() == ["gone.layer"]
        # tournament_matrix is bound in model, rules, cli and the package
        for module in (v, v.model, v.rules, v.cli):
            assert module.tournament_matrix is not tally
        # the search layer's rule evaluations are counted at search's binding only
        assert inst.found["search.rule_winners"] == 1
        assert v.criteria.rule_winners is v.rules.winners
        profile = v.Profile.from_names("abc", [(2, "abc"), (1, "bca")])
        v.check_qk_majority("clr", profile, F(1, 2), 1)
    finally:
        inst.uninstall()
    assert v.rules.tournament_matrix is tally and v.ExactNumber.__dict__["of"] is coerce
    assert tracer.calls["rules.report.clr"] == 1
    assert tracer.calls["criteria.check_qk_majority"] == 1
    assert tracer.calls["model.tournament_matrix"] >= 1
    assert "search.rule_winners" not in tracer.calls and "gone.layer" not in tracer.calls


def test_speed_probe_samples_and_leaves_its_own_time_out():
    with speed.SpeedProbe() as probe:
        start, wall = probe.clock(), time.perf_counter()
        _busy(0.3)
        measured, wall = probe.clock() - start, time.perf_counter() - wall
    assert len(probe.samples) >= 3 and probe.scale() > 0
    assert measured == pytest.approx(wall - probe.spent, abs=1e-3)


def test_speed_scale_follows_its_window_and_ignores_outliers():
    probe = speed.SpeedProbe()
    probe.at = [i * 0.05 for i in range(100)]
    # nominal speed for two seconds, then half speed for three
    probe.samples = [speed.NOMINAL_S] * 40 + [2 * speed.NOMINAL_S] * 60
    probe.samples[10] = 100 * speed.NOMINAL_S  # one outlier
    assert probe.scale(0.2, 0.3) == pytest.approx(1.0)  # widened to [-0.25, 0.75)
    assert probe.scale(3.5, 3.6) == pytest.approx(0.5)
    # ten samples at each speed; the slowest two are dropped
    assert probe.scale(1.5, 2.5) == pytest.approx(18 / (10 + 8 * 2))
    assert probe.at_speed(4.0, 0.5) == pytest.approx(0.25)
    assert probe.scale(10.0, 10.5) == probe.scale()  # no samples: the whole run's


def test_expected_search_outputs_agree_with_acceptance_suite():
    verify = load_expected("verify-m4")
    assert verify["clr k=3 q=5/9 n<=6"]["pass"] is True
    assert verify["black k=2 q=5/8 n<=6"]["pass"] is True
    cm = verify["convexmedian k=2 q=11/20 n<=7"]["violation"]
    assert cm["support"] == 4 and v.parse_profile(cm["witness"]).n == 7
    simpson = verify["simpson k=3 q=37/60 n<=8"]["violation"]
    assert F(simpson["support"], v.parse_profile(simpson["witness"]).n) == F(2, 3)

    quota = load_expected("quota-m3")
    searches = {key: value for key, value in quota.items() if key.startswith("search")}
    assert len(searches) == 24 and all(value is None for value in searches.values())
    assert quota["empirical plurality k=2"] == "2/3"
    for key, value in searches.items():
        _, rule, k_text, q_text = key.split()
        if rule in ("young", "dodgson"):
            continue  # not among the acceptance suite's ten rules
        share = F(quota[f"empirical {rule} {k_text}"])
        assert share <= F(q_text[2:]) and F(q_text[2:]) - share <= F(1, 12)


def test_rational_stand_in_gives_the_irrational_quota_witness():
    q = v.ExactNumber(-1, 1, 33, 8) - F(1, 20)
    found = v.exhaustive_criterion_search(
        "convexmedian", 4, 2, q, v.SearchBudget(max_voters=7)
    )
    expected = load_expected("verify-m4")["convexmedian k=2 q=11/20 n<=7"]["violation"]
    assert v.serialize_profile(found.profile) == expected["witness"]


def test_shuffled_profiles_check_against_the_sample_table():
    workload = WORKLOADS["score-profiles"]
    block = workload.build(v, 7)[:51]
    result = workload.run_pass(v, block)
    verdicts = workload.check(v, block, result, load_expected("score-profiles"))
    assert set(verdicts) <= {OK, REFUSED} and verdicts.count(OK) > 0.9 * len(verdicts)


def test_refusal_of_an_answered_sample_report_is_wrong():
    workload = WORKLOADS["score-profiles"]
    block = workload.build(v, 3)[:51]
    result = workload.run_pass(v, block)
    expected = load_expected("score-profiles")
    parsed, won, qk, dom = result.outcomes[0]
    won[0] = (REFUSED, "over budget")
    assert expected["winners"][0] != "!"
    assert workload.check(v, block, result, expected)[1] == WRONG


def test_recorded_refusals_are_not_failures():
    workload = WORKLOADS["score-profiles"]
    profiles = workload.build(v, 4)
    result = workload.run_pass(v, profiles)
    attempted, failed, counts, problems = run.judge(
        workload, v, profiles, [result], load_expected("score-profiles")
    )
    assert failed == 0 and not problems
    assert counts[REFUSED] == 44 and attempted == counts[OK] + counts[REFUSED]


def test_stripped_checkout_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-m4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
