#!/usr/bin/env python3
"""okounkov benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload zariski-mix --seed 1 --seconds 30
    python3 perfbench/run.py --workload polytope-bodies --trace 1
    python3 perfbench/run.py --workload all        # every workload, a table

The program is imported from `src/` of the checkout this file sits in.
Each workload runs in its own single-threaded process.  With `--trace 0`
the run repeats whole rounds of operations, as many as fit in `--seconds`
(at least one), and reports the end-to-end metrics; with `--trace 1` it runs a fixed
number of rounds once untraced and once with every layer wrapped
(see tracing.py), and reports per-layer self time and work counters.
Every operation's output is checked; the last line of standard output is
one JSON object `{"correct", "attempted", "failed", "metrics"}`, and the
exit code is 1 when any check failed.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ("numbers", "linalg", "lp", "polytope", "toric", "surface",
           "invariants", "registry", "render", "cli")
SETUP_REPEATS = 5
RECORD = json.loads((HERE / "record.json").read_text())
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}


# Host CPU speed on a small shared VM swings by up to 2x within seconds,
# for every process alike.  So every timed interval is scaled to a nominal
# speed: a fixed reference kernel (exact row reduction of a small Fraction
# matrix, the same kind of work as the program's LP and linear algebra) is
# timed just before and just after the interval, and the interval is
# multiplied by REF_NOMINAL_S / (mean of those two times).  All times the
# benchmark reports are in these reference-speed units; the raw figures
# are printed on the summary lines.
REF_NOMINAL_S = 3.0e-3
_REF_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4)
                for j in range(9)] for i in range(7)]


def reference_s() -> float:
    """Wall time of the reference kernel."""
    t0 = time.perf_counter()
    m = [row[:] for row in _REF_MATRIX]
    r = 0
    for c in range(9):
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return time.perf_counter() - t0


class ProgramMissing(Exception):
    pass


def load_program() -> SimpleNamespace:
    """Import okounkov afresh from this checkout's src/ directory."""
    src = ROOT / "src"
    for name in [m for m in sys.modules
                 if m == "okounkov" or m.startswith("okounkov.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    try:
        pkg = importlib.import_module("okounkov")
    except ImportError as exc:
        raise ProgramMissing(f"cannot import okounkov from {src}: {exc}")
    if Path(pkg.__file__).resolve().parent != src / "okounkov":
        raise ProgramMissing(f"okounkov imported from {pkg.__file__}, "
                             f"not from {src}")
    return SimpleNamespace(**{
        m: importlib.import_module(f"okounkov.{m}") for m in MODULES})


def set_up(name, seed, out_dir):
    """Import, generate round 0 and warm up; the median of several runs."""
    times = []
    for _ in range(SETUP_REPEATS):
        ref = reference_s()
        t0 = time.perf_counter()
        mods = load_program()
        cls = workloads.WORKLOADS[name]
        wl = (cls(mods, seed, ROOT, out_dir) if name == "cli-jobs"
              else cls(mods, seed))
        dt = time.perf_counter() - t0
        times.append(dt * 2 * REF_NOMINAL_S / (ref + reference_s()))
    return statistics.median(times), mods, wl


class Tally:
    """Per-op times, failures, and the digest of the outputs."""

    def __init__(self, golden):
        self.golden = golden
        self.raw: list[float] = []
        self.refs: list[float] = []
        self.kinds: list[str] = []
        self.failed = 0
        self.digest = hashlib.sha256()

    def run(self, op, tracer=None, op_id=0):
        if tracer is not None:
            tracer.op = op_id
        if not self.refs:
            self.refs.append(reference_s())
        self.kinds.append(op.kind)
        t0 = time.perf_counter()
        try:
            res = op.run()
        except Exception:  # count it, report it, keep measuring
            self.raw.append(time.perf_counter() - t0)
            self.refs.append(reference_s())
            self.fail(f"{op.kind}: {traceback.format_exc(limit=3)}")
            self.digest.update(b"exception\n")
            return
        self.raw.append(time.perf_counter() - t0)
        self.refs.append(reference_s())
        try:
            problems = op.check(res)
            canon = op.canon(res)
        except Exception:
            problems, canon = [traceback.format_exc(limit=3)], "unchecked"
        if op.key is not None and self.golden.get(op.key) != canon:
            problems.append(f"{op.key}: result differs from golden")
        if problems:
            self.fail(f"{op.kind}: {'; '.join(problems)}")
        self.digest.update(canon.encode() + b"\n")

    def fail(self, msg):
        self.failed += 1
        if self.failed <= 10:
            print(f"FAILED {msg}", file=sys.stderr)

    @property
    def scales(self) -> list[float]:
        """Per op: nominal / measured reference speed around it."""
        return [2 * REF_NOMINAL_S / (a + b)
                for a, b in zip(self.refs, self.refs[1:])]

    @property
    def durations(self) -> list[float]:
        """Per-op times at the nominal reference speed."""
        return [t * k for t, k in zip(self.raw, self.scales)]

    @property
    def busy_s(self) -> float:
        return sum(self.durations)

    def raw_summary(self) -> str:
        q = statistics.quantiles(self.raw, n=10, method="inclusive")
        return (f"    raw wall times: ops_per_s {len(self.raw) / sum(self.raw):.4f}"
                f" 1/s, op_p50_ms {q[4] * 1e3:.4f}, op_p90_ms "
                f"{q[8] * 1e3:.4f}; host speed "
                f"{REF_NOMINAL_S / statistics.median(self.refs):.3f}x nominal")

    def by_kind(self) -> list[str]:
        """One line per op kind: count, median and total scaled time."""
        groups: dict[str, list[float]] = {}
        for kind, dt in zip(self.kinds, self.durations):
            groups.setdefault(kind, []).append(dt)
        return [f"    {kind:22s} n={len(ds):4d} median "
                f"{statistics.median(ds) * 1e3:10.3f} ms total {sum(ds):8.3f} s"
                for kind, ds in sorted(groups.items())]


def check_digest(name, seed, digest, tally) -> None:
    """The first round's digest at the default seed is recorded."""
    if seed == RECORD["default_seed"]:
        want = RECORD["result_digests"].get(name)
        if digest != want:
            tally.fail(f"{name}: result digest {digest} != recorded {want}")


def measure(wl, seconds, golden):
    """Whole rounds, so that every run has the same op mix.

    A round starts only if, at the pace of the rounds so far, it ends
    within `seconds`; the first round always runs, even when it alone
    takes longer.
    """
    tally = Tally(golden)
    start = time.perf_counter()
    k = 0
    while k == 0 or (time.perf_counter() - start) * (k + 1) / k <= seconds:
        for op in wl.round(k):
            tally.run(op)
        if k == 0:
            first_digest = tally.digest.hexdigest()
        k += 1
    return tally, k, first_digest


def end_to_end(setup_s, tally):
    q = statistics.quantiles(tally.durations, n=10, method="inclusive")
    return {
        "setup_s": setup_s,
        "ops_per_s": len(tally.raw) / tally.busy_s,
        "op_p50_ms": q[4] * 1e3,
        "op_p90_ms": q[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def traced_run(mods, wl, golden):
    """The same rounds untraced, then traced; returns both tallies."""
    rounds = [wl.round(k) for k in range(wl.trace_rounds)]
    plain = Tally(golden)
    for ops in rounds:
        for op in ops:
            plain.run(op)
    tracer = tracing.Tracer()
    traced = Tally(golden)
    tracer.install(mods)
    try:
        for op_id, op in enumerate(op for ops in rounds for op in ops):
            traced.run(op, tracer, op_id)
    finally:
        tracer.uninstall()
    return plain, traced, tracer


def run_one(args) -> int:
    name, seed = args.workload, args.seed
    out_dir = ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    golden = json.loads((workloads.GOLDEN_DIR / "results.json").read_text())
    try:
        setup_s, mods, wl = set_up(name, seed, out_dir)
        if args.trace:
            plain, traced, tracer = traced_run(mods, wl, golden)
            d0, d1 = plain.digest.hexdigest(), traced.digest.hexdigest()
            if d0 != d1:
                traced.fail(f"digest traced {d1} != untraced {d0}")
            attempted = len(plain.raw) + len(traced.raw)
            failed = plain.failed + traced.failed
            metrics = tracer.layer_metrics(traced.busy_s, traced.scales)
            metrics["trace_overhead"] = traced.busy_s / plain.busy_s - 1
            units = {k: tracing.unit_of(k) for k in metrics}
            dump = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.json.gz"
            tracer.dump(dump)
            summary = (f"{name} seed {seed} traced: {attempted} ops in "
                       f"{wl.trace_rounds} round(s) x 2, {failed} failed, "
                       f"spans in {dump.relative_to(ROOT)}")
        else:
            tally, rounds, first = measure(wl, args.seconds, golden)
            check_digest(name, seed, first, tally)
            attempted, failed = len(tally.raw), tally.failed
            metrics = end_to_end(setup_s, tally)
            units = END_TO_END
            summary = "\n".join([
                f"{name} seed {seed}: {attempted} ops in {rounds} round(s), "
                f"{failed} failed, failed_frac {failed / attempted} "
                f"(fraction)", tally.raw_summary(), *tally.by_kind()])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()  # only when nothing else is in it
    print(summary)
    for key, value in metrics.items():
        print(f"  {key:34s} {value:14.6f} {units[key]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; a table of every metric."""
    rows, status = {}, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        status = status or proc.returncode
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {proc.returncode})")
            status = status or 1
            continue
        rows[name] = json.loads(lines[-1])
    for name, res in rows.items():
        frac = res["failed"] / res["attempted"]
        print(f"{name}: {res['attempted']} ops, failed_frac {frac} "
              f"(fraction)")
        for key, m in res["metrics"].items():
            print(f"  {key:34s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in rows.values()),
        "attempted": sum(r["attempted"] for r in rows.values()),
        "failed": sum(r["failed"] for r in rows.values()),
        "metrics": {f"{n}.{k}": m for n, r in rows.items()
                    for k, m in r["metrics"].items()},
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=RECORD["default_seed"])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except (ProgramMissing, tracing.TracingIncomplete) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
