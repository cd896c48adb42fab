"""Run one votelab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-m4 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; votelab is imported from ./src.  The
untraced run (--trace 0) reports the end-to-end metrics; the traced run
(--trace 1) reports per-layer span counts and self times.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds details such as the number
of passes, the latency sample count and the verdict counts.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import speed, tracer as tracing  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    OK, REFUSED, RULES, WORKLOADS, load_expected,
)

SETUP_REPEATS = 7
SETUP_REFERENCE_RUNS = 10
TRACE_OUT = ROOT / "perfbench" / "out"


class SourcesMissing(Exception):
    pass


def import_votelab():
    """Import votelab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "votelab" / "__init__.py").is_file():
        raise SourcesMissing(f"no votelab sources under {src}")
    sys.path.insert(0, str(src))
    v = importlib.import_module("votelab")
    importlib.import_module("votelab.cli")
    if not Path(v.__file__).resolve().is_relative_to(src):
        raise SourcesMissing(f"votelab was imported from {v.__file__}, not {src}")
    return v


def setup_probe(workload, seed) -> tuple[float, float]:
    """Import votelab and build the inputs in this fresh process.

    Returns the time as measured and at reference speed.  The reference
    runs here, just before and after, because this process may run on
    another CPU than the one that spawned it.
    """
    samples = [speed.time_reference() for _ in range(SETUP_REFERENCE_RUNS)]
    t0 = time.perf_counter()
    v = import_votelab()
    workload.build(v, seed)
    took = time.perf_counter() - t0
    samples += [speed.time_reference() for _ in range(SETUP_REFERENCE_RUNS)]
    return took, took * speed.factor(samples)


def measure_setup(args) -> list[tuple[float, float]]:
    """setup_probe's figures for SETUP_REPEATS fresh processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        measured, at_speed = done.stdout.split()[-2:]
        samples.append((float(measured), float(at_speed)))
    return samples


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def run_passes(workload, v, inputs, seconds, clock=time.perf_counter):
    """One whole pass, then passes cut at a unit boundary once `seconds` are up.

    Returns the passes and the peak resident memory in MB after the first
    one, before the results of later passes pile up.
    """
    deadline = clock() + seconds
    passes = [workload.run_pass(v, inputs, clock=clock)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while clock() < deadline:
        passes.append(workload.run_pass(v, inputs, deadline=deadline, clock=clock))
    return passes, peak_rss_mb


def as_measured(start, seconds):
    return seconds


def medians(passes, field, seconds=as_measured) -> list[float]:
    """Per unit or per query, the median over the passes that reached it of
    seconds(start, measured seconds)."""
    rows = [[seconds(*timed) for timed in getattr(p, field)] for p in passes]
    return [
        statistics.median(row[i] for row in rows if i < len(row))
        for i in range(len(rows[0]))
    ]


def pass_time(passes, seconds=as_measured) -> float:
    """One pass, estimated unit by unit: the sum of each unit's median time."""
    return sum(medians(passes, "units", seconds))


def judge(workload, v, inputs, passes, expected):
    """Verdict counts over the passes.

    An operation failed if it raised an error or returned a wrong result.
    A refusal that the recorded outputs also have is votelab's answer for
    that input, so it is not a failure; it lowers answered_frac instead.
    """
    counts = {OK: 0, REFUSED: 0}
    problems = []
    for result in passes:
        for i, verdict in enumerate(workload.check(v, inputs, result, expected)):
            counts[verdict] = counts.get(verdict, 0) + 1
            if verdict not in (OK, REFUSED) and len(problems) < 5:
                problems.append(f"op {i}: {verdict}")
    attempted = sum(counts.values())
    failed = attempted - counts[OK] - counts[REFUSED]
    return attempted, failed, counts, problems


def timings(passes, setup_s, seconds) -> dict:
    """The time metrics, with each time taken as seconds(start, measured)."""
    latencies = medians(passes, "latencies", seconds)
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": pass_time(passes, seconds),
        "query_p50_ms": percentile(latencies, 50) * 1e3,
        "query_p99_ms": percentile(latencies, 99) * 1e3,
    }


def end_to_end(args, workload, v, inputs, expected):
    with speed.SpeedProbe() as probe:
        setup = measure_setup(args)
        passes, peak_rss_mb = run_passes(workload, v, inputs, args.seconds, clock=probe.clock)
    attempted, failed, counts, problems = judge(
        workload, v, inputs, passes, expected
    )
    setup_measured, setup_at_speed = zip(*setup)
    measured = timings(passes, setup_measured, as_measured)
    at_speed = timings(passes, setup_at_speed, probe.at_speed)
    profiles = workload.covered(inputs, expected)
    metrics = {
        "setup_s": (at_speed["setup_s"], "s"),
        "wall_s": (at_speed["wall_s"], "s"),
        "profiles_per_s": (profiles / at_speed["wall_s"], "1/s"),
        "query_p50_ms": (at_speed["query_p50_ms"], "ms"),
        "query_p99_ms": (at_speed["query_p99_ms"], "ms"),
        "answered_frac": (counts[OK] / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "passes": len(passes),
        "query_samples": len(passes[0].latencies),
        "profiles_per_pass": profiles,
        "setup_samples_s": setup_measured,
        "measured": measured,
        "speed_scale": probe.scale(),
        "reference_samples": len(probe.samples),
        "verdicts": counts,
        "problems": problems,
    }
    return attempted, failed, metrics, details


def traced(args, workload, v, inputs, expected):
    half = args.seconds / 2
    plain, _ = run_passes(workload, v, inputs, half)
    tracer = tracing.Tracer()
    inst = tracing.install(tracer)
    try:  # whole passes only, so that counts divide into per-pass figures
        deadline = time.perf_counter() + half
        passes = [workload.run_pass(v, inputs, tracer.run)]
        while time.perf_counter() < deadline:
            passes.append(workload.run_pass(v, inputs, tracer.run))
    finally:
        inst.uninstall()
    attempted, failed, counts, problems = judge(
        workload, v, inputs, plain + passes, expected
    )
    per_pass = 1 / len(passes)
    calls = {name: count * per_pass for name, count in tracer.calls.items()}
    self_s = {name: took * per_pass for name, took in tracer.self_s.items()}
    metrics = {}

    def layer(name):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    layer("search")
    evals = calls.get("search.rule_winners", 0)
    metrics["search.rule_evals"] = (evals, "count")
    metrics["search.evals_per_covered"] = (evals / workload.covered(inputs, expected), "ratio")
    for name in ("model.Profile", "model.tournament_matrix", "model.positional_matrix"):
        layer(name)
    reports = sum(calls.get(f"rules.report.{rule}", 0) for rule in RULES)
    tallies = calls.get("model.tournament_matrix", 0) + calls.get("model.positional_matrix", 0)
    metrics["model.tallies_per_eval"] = (tallies / reports if reports else 0.0, "ratio")
    for rule in RULES:
        layer(f"rules.report.{rule}")
    for name in (
        "exact.coerce", "exact.compare", "criteria.check_qk_majority",
        "criteria.second_order_dominance", "profile_io.parse_profile",
        "profile_io.serialize_profile", "cli.main",
    ):
        layer(name)
    metrics["trace.overhead_frac"] = (pass_time(passes) / pass_time(plain) - 1, "ratio")
    metrics["trace.spans"] = (tracer.spans * per_pass, "count")
    TRACE_OUT.mkdir(exist_ok=True)
    out = TRACE_OUT / f"spans-{workload.name}-seed{args.seed}.tsv.gz"
    details = {
        "plain_passes": len(plain),
        "traced_passes": len(passes),
        "spans_written": tracer.write(out),
        "spans_file": str(out.relative_to(ROOT)),
        "missing_layers": inst.missing_layers(),
        "missing_targets": inst.missing,
        "verdicts": counts,
        "problems": problems,
    }
    return attempted, failed, metrics, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ.pop("VOTELAB_MAX_VOTERS", None)  # would cap verify's budget
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_probe:
            print(*setup_probe(workload, args.seed))
            return 0
        v = import_votelab()
    except SourcesMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    inputs = workload.build(v, args.seed)
    expected = load_expected(workload.name)
    run = traced if args.trace else end_to_end
    attempted, failed, metrics, details = run(
        args, workload, v, inputs, expected
    )
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(declared) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"workload": workload.name, "seed": args.seed, **details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
