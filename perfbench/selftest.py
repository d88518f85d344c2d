#!/usr/bin/env python3
"""Self-test of the benchmark's tracing: counters must repeat exactly.

Usage (from the repository root): python3 perfbench/selftest.py

For every workload, runs `run.py --trace 1` twice in fresh processes at
seed SEED and requires (1) every output check to pass, including the
traced-equals-untraced result digest that run.py itself enforces, and
(2) every work counter to be identical across the two runs.  Times and
shares are allowed to differ; counters that did not repeat exactly could
not be reported as counters.  Exits 1 on any difference.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def traced(name) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", str(SEED), "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{name}: traced run failed (exit "
                         f"{proc.returncode}, {result['failed']} failed)")
    return {k: m["value"] for k, m in result["metrics"].items()
            if tracing.unit_of(k) == "count" or k.endswith("_ratio")}


def main() -> int:
    status = 0
    for name in workloads.WORKLOADS:
        first, second = traced(name), traced(name)
        diff = {k: (first[k], second[k]) for k in first
                if first[k] != second[k]}
        nonzero = sum(1 for v in first.values() if v)
        print(f"{name}: {len(first)} counters ({nonzero} nonzero) "
              f"{'differ: ' + repr(diff) if diff else 'identical'}")
        status = status or bool(diff)
    print("SELFTEST", "FAIL" if status else "PASS")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
