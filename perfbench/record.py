"""Record the expected outputs the benchmark checks against.

    python3 perfbench/record.py

Writes expected/verify-m4.json, expected/quota-m3.json and
expected/score-profiles.json, the winners on the profile sample.  Run it only at a commit whose outputs are known to be right; the
files are the reference every later version is checked against.
"""

from __future__ import annotations

import json

from run import ROOT, import_votelab  # also puts the checkout on sys.path

from perfbench.workloads import EXPECTED, OK, WORKLOADS


def _write(name, data):
    path = EXPECTED / f"{name}.json"
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def main() -> None:
    v = import_votelab()
    for name in ("verify-m4", "quota-m3", "score-profiles"):
        workload = WORKLOADS[name]
        inputs = workload.build(v, 0)
        result = workload.run_pass(v, inputs)
        if name == "score-profiles":
            _write(name, {"winners": workload.winner_codes(inputs, result)})
            continue
        data = {}
        for key, (status, value) in result.outcomes:
            if status != OK:
                raise SystemExit(f"{name}: {key} gave {status}: {value}")
            data[key] = workload.form(value)
        _write(name, data)


if __name__ == "__main__":
    main()
