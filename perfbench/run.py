#!/usr/bin/env python3
"""The hopfib benchmark: time the user-facing CLI on one workload.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload corpus7 --seed 1 --seconds 52 --trace 0

Load model: closed loop, one client, one process at a time. Each
repetition is a fresh interpreter (perfbench/rep.py) that runs the
workload's instances in order, ``corpus`` then ``verify --seed <seed>``
for each. Repetitions start while the next one is expected to end within
``--seconds``; at least one always runs.

``--trace 0`` prints the end-to-end metrics, as medians over repetitions:
``setup_s`` (interpreter start to the first timed operation, also sampled
by extra set-up-only interpreters), ``build_s`` (summed ``corpus`` time),
``verify_s`` (summed ``verify`` time), all wall times, and ``peak_rss_mb``.
``--trace 1`` runs untraced, traced, traced and untraced repetitions and
prints the per-layer metrics of the first traced one, plus
``trace.overhead``: traced over untraced operation time.

Every verify report is checked against the pinned verdict, and its bytes
must be identical across the repetitions of a run. Informational lines
(samples, input properties, report digests) precede the result, which is
the last stdout line: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # extra set-up-only interpreters per untraced run
CHILD_TIMEOUT_S = 150


def spawn(workload, seed, workdir, *flags):
    """Run one rep.py interpreter; returns (spawn time, parsed result or None, error)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    cmd = [sys.executable, os.path.join(HERE, "rep.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, *flags]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return t0, None, f"repetition timed out after {CHILD_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return t0, json.loads(lines[-1]), None
    except json.JSONDecodeError:
        pass
    return t0, None, f"repetition exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"


class Tally:
    """Attempted and failed operations, and why."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def ops(self, rep):
        for op in rep["ops"]:
            self.attempted += 1
            if op["error"] is not None:
                self.errors.append(f"{op['kind']} {op['instance']}: {op['error']}")

    def digests(self, reps):
        """Report bytes must repeat exactly across the repetitions of a run."""
        for name, digest in reps[0]["digests"].items():
            for rep in reps[1:]:
                if rep["digests"].get(name) != digest:
                    self.attempted += 1
                    self.errors.append(f"verify {name}: report bytes differ across repetitions")


def stats(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "n": len(values)}


def op_seconds(rep, kind=None):
    """Summed wall seconds of a repetition's operations (of one kind, if given)."""
    return sum(op["s"] for op in rep["ops"] if kind in (None, op["kind"]))


def untraced_run(args, workdir, tally):
    reps, setups = [], []
    start = time.monotonic()
    last = 0.0
    while not reps or time.monotonic() - start + last <= args.seconds:
        t0, rep, err = spawn(args.workload, args.seed, os.path.join(workdir, f"r{len(reps)}"))
        if rep is None:
            tally.attempted += 1
            tally.errors.append(err)
            break
        last = time.monotonic() - t0
        reps.append(rep)
        setups.append(rep["ready"] - t0)
        tally.ops(rep)
    for i in range(SETUP_PROBES):
        t0, rep, err = spawn(args.workload, args.seed, os.path.join(workdir, f"s{i}"),
                             "--setup-only")
        if rep is None:
            tally.attempted += 1
            tally.errors.append(err)
            continue
        setups.append(rep["ready"] - t0)
    if not reps:
        return reps, {}
    tally.digests(reps)
    samples = {
        "setup_s": (setups, "s"),
        "build_s": ([op_seconds(r, "corpus") for r in reps], "s"),
        "verify_s": ([op_seconds(r, "verify") for r in reps], "s"),
        "peak_rss_mb": ([r["rss_kb"] / 1024 for r in reps], "MB"),
    }
    print(json.dumps({"samples": {k: stats(v) for k, (v, _) in samples.items()}}))
    metrics = {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in samples.items()}
    return reps, metrics


def traced_run(args, workdir, tally):
    # untraced, traced, traced, untraced: the ABBA order cancels a steady
    # drift in machine speed out of the overhead ratio
    reps = []
    for i, flags in enumerate(((), ("--trace",), ("--trace",), ())):
        _, rep, err = spawn(args.workload, args.seed, os.path.join(workdir, f"t{i}"), *flags)
        if rep is None:
            tally.attempted += 1
            tally.errors.append(err)
            return [r for r in reps if r], {}
        tally.ops(rep)
        reps.append(rep)
    tally.digests(reps)
    traced = reps[1]
    with open(traced["spans_file"], encoding="utf-8") as fh:
        spans = [tuple(s) for s in json.load(fh)]
    agg = tracer.aggregate(spans)
    agg.update(traced["counters"])
    agg["rewrite.calls"] = sum(v for k, v in agg.items()
                               if k.startswith("rewrite.") and k.endswith(".calls"))
    agg["repn.annihilators_per_simple"] = (
        agg.get("repn.annihilator.calls", 0) / max(agg["repn.simple_types"], 1))
    untraced_s = op_seconds(reps[0]) + op_seconds(reps[3])
    traced_s = op_seconds(reps[1]) + op_seconds(reps[2])
    agg["trace.overhead"] = traced_s / untraced_s
    print(json.dumps({"trace": {"untraced_ops_s": untraced_s, "traced_ops_s": traced_s,
                                "spans": len(spans)}}))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    metrics = {m["name"]: {"value": agg.get(m["name"], 0), "unit": m["unit"]} for m in per_layer}
    return reps, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="hopfib benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hopfib", "cli.py")):
        print(f"error: no hopfib sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(os.path.join(ROOT, ".perfbench_run"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench_run"))
    tally = Tally()
    try:
        run = traced_run if args.trace else untraced_run
        reps, metrics = run(args, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if reps:
        print(json.dumps({"inputs": reps[0]["props"], "report_sha256": reps[0]["digests"]}))
    for e in tally.errors:
        print("FAILED:", e, file=sys.stderr)
    if not metrics:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not tally.errors, "attempted": tally.attempted,
                      "failed": len(tally.errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
