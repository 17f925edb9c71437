#!/usr/bin/env python3
"""Check perfbench's exact output against the committed seed-7 values.

Usage, from the root of a checkout:

    dune build --root . --build-dir .bench_build --profile release ./perfbench/perfbench.exe
    python3 test/perfbench_exact.py [EXE]

EXE defaults to .bench_build/default/perfbench/perfbench.exe. For every
workload in test/expected/perfbench-seed7.json, runs
`EXE --workload W --seed 7` and compares its `counts`, `arrival_digest`
and `metrics_digest` with the committed ones. Prints each field that
differs and exits 1 if any does. A change that moves them on purpose
updates the JSON file and says why.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXPECTED = os.path.join(ROOT, "test", "expected", "perfbench-seed7.json")
DEFAULT_EXE = os.path.join(ROOT, ".bench_build", "default", "perfbench", "perfbench.exe")
FIELDS = ("counts", "arrival_digest", "metrics_digest")


def main():
    exe = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_EXE
    with open(EXPECTED) as f:
        expected = json.load(f)
    bad = 0
    for workload, want in expected.items():
        out = subprocess.run([exe, "--workload", workload, "--seed", "7"], check=True,
                             stdout=subprocess.PIPE, timeout=600).stdout
        got = json.loads(out)
        differ = [field for field in FIELDS if got[field] != want[field]]
        for field in differ:
            print(f"{workload}: {field} differs\n  expected {json.dumps(want[field])}\n"
                  f"  got      {json.dumps(got[field])}")
        print(f"{workload}: {'differs' if differ else 'ok'}")
        bad += len(differ)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
