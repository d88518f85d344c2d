#!/usr/bin/env python3
"""Regenerate the benchmark's golden outputs from the current program.

Usage (from the repository root): python3 perfbench/golden.py

Writes golden/cli/ (every bundled job's artifacts, byte for byte),
golden/results.json (the canonical result of every fixed-input op) and
the `result_digests` of record.json (round 0 of each workload at the
default seed).  Run it only at a commit whose outputs are known good:
the benchmark treats these files as the truth.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run
import workloads

GOLDEN = workloads.GOLDEN_DIR


def main() -> int:
    mods = run.load_program()
    cli_dir = GOLDEN / "cli"
    shutil.rmtree(cli_dir, ignore_errors=True)
    cli_dir.mkdir(parents=True)
    for job in sorted((run.ROOT / "jobs").glob("*.json")):
        with contextlib.redirect_stdout(io.StringIO()):
            rc = mods.cli.main(["run", "--job", str(job), "--out",
                                str(cli_dir)])
        if rc != 0:
            raise SystemExit(f"{job.name}: exit code {rc}")

    seed = run.RECORD["default_seed"]
    fixed = workloads.PolytopeBodies(mods, seed).fixed_ops()
    results = {key: op.canon(op.run()) for key, op in sorted(fixed.items())}
    (GOLDEN / "results.json").write_text(
        json.dumps(results, indent=1, sort_keys=True) + "\n")

    digests, failing = {}, []
    out_dir = run.ROOT / ".perfbench" / "golden-tmp"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            _, _, wl = run.set_up(name, seed, out_dir)
            tally = run.Tally(results)
            for op in wl.round(0):
                tally.run(op)
            if tally.failed:
                failing.append(name)
            digests[name] = tally.digest.hexdigest()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    record = json.loads((run.HERE / "record.json").read_text())
    record["result_digests"] = digests
    (run.HERE / "record.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(digests, indent=2))
    if failing:
        # The digests are recorded all the same: they pin today's outputs.
        print(f"failed checks in round 0 of: {', '.join(failing)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
