"""One repetition of a workload, in a fresh interpreter.

Usage (from run.py, with hopfib importable):
    python3 perfbench/rep.py --workload NAME --seed N --workdir DIR
                             [--setup-only] [--trace]

A fresh process per repetition matters: hopfib keeps module-global caches
(``repn._SIMPLES_CACHE``), so a second repetition in one process would be
served from memory. The last stdout line is one JSON object:
``ready`` (``time.monotonic()`` when set-up ended; the clock is shared by
all processes), ``ops`` (per operation: instance, kind, seconds, failure),
``digests`` (sha256 of each verify report), ``rss_kb`` (peak resident
set), ``props`` (input properties per instance) and, with ``--trace``,
``spans_file`` (where the spans were written at exit) and ``counters``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def _run_cli(main, argv):
    """(exit code, stdout text, error) of one in-process CLI call."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
        return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), None if code == 0 else f"exit code {code}"


def props(inst_path: str, report: dict) -> dict:
    """Input properties a later change may exploit."""
    with open(inst_path, encoding="utf-8") as fh:
        d = json.load(fh)
    n, p = d["dim"], d["field"]["p"]
    w = report["results"]["witnesses"]
    return {
        "dim": n,
        "p": p,
        "mul_nnz": len(d["mul"]),
        "mul_density": len(d["mul"]) / n**3,
        "comul_nnz": len(d["comul"]),
        "comul_density": len(d["comul"]) / n**3,
        "object_path": n * (p - 1) ** 2 >= 2**63,
        "simple_types": w["prim_count"],
        "max_simple_dim": max(w["prim_simple_dims"]),
        "x_order": report["results"]["x_order"],
        "fiber_algebra_is_h": w.get("fiber_algebra_dim") == n,
    }


def _object_path_probe(contracted):
    """Count products whose contracted length * (p-1)^2 overflows int64."""
    def probe(tracer, args, kwargs, result):
        p = kwargs["p"] if "p" in kwargs else args[-1]
        tracer.counters["linalg.object_path_calls"] += contracted(args) * (p - 1) ** 2 >= 2**63

    return probe


def _tensordot_contracted(args):
    import numpy as np

    return int(np.prod([args[0].shape[ax] for ax in np.atleast_1d(args[2][0])]))


def install_probes(tracer) -> set:
    """Counters computed from call arguments and results; returns the simple-type set."""
    simple_types: set = set()

    def simples_probe(tr, args, kwargs, result):
        alg_key = hashlib.sha256(args[0].digest()).digest()
        simple_types.update((alg_key, r.annihilator.key()) for r in result)

    def confluence_probe(tr, args, kwargs, result):
        tr.counters["rewrite.ambiguities"] += result.checked

    tracer.probes.update({
        "linalg.matmul_mod": _object_path_probe(lambda a: a[0].shape[-1]),
        "linalg.tensordot_mod": _object_path_probe(_tensordot_contracted),
        "repn.simples": simples_probe,
        "rewrite.complete_check": confluence_probe,
    })
    return simple_types


def write_cayley_files(instances, workdir) -> dict[str, str]:
    """Write each group's Cayley table once; returns group name -> path."""
    paths = {}
    for inst in instances:
        if inst.cayley and inst.cayley not in paths:
            path = os.path.join(workdir, inst.cayley + ".cayley.json")
            table = workloads.permutation_group_cayley(workloads.GROUP_GENERATORS[inst.cayley])
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"cayley": table}, fh)
            paths[inst.cayley] = path
    return paths


def make_call(tracer=None):
    """A function (kind, argv) -> (seconds, (code, stdout, error)) running the CLI.

    With a tracer, each call is a root span ``op.<kind>`` with its own op id.
    """
    import hopfib.cli

    def call(kind, argv):
        start = time.perf_counter()
        if tracer is None:
            got = _run_cli(hopfib.cli.main, argv)
        else:
            tracer.op += 1
            got = tracer.span("op." + kind, _run_cli, hopfib.cli.main, argv)
        return time.perf_counter() - start, got

    return call


def run_instances(instances, workdir, seed, cayley_paths, call):
    """``corpus`` then ``verify`` per instance; returns (ops, digests, reports)."""
    ops, digests, reports = [], {}, {}
    for inst in instances:
        inst_path = os.path.join(workdir, inst.name + ".json")
        secs, (_, _, err) = call(
            "corpus", inst.corpus_argv(inst_path, cayley_paths.get(inst.cayley)))
        ops.append({"instance": inst.name, "kind": "corpus", "s": secs, "error": err})
        if err is None:
            secs, (_, out, err) = call(
                "verify", ["verify", "--input", inst_path, "--seed", str(seed)])
            if err is None:
                reports[inst.name] = report = json.loads(out)
                digests[inst.name] = hashlib.sha256(out.encode()).hexdigest()
                bad = workloads.gate(report, inst.pin)
                if bad:
                    err = "verdict differs from pin on " + ", ".join(bad)
        else:
            secs, err = 0.0, "skipped: corpus failed"
        ops.append({"instance": inst.name, "kind": "verify", "s": secs, "error": err})
    return ops, digests, reports


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import hopfib.cli  # noqa: F401  (set-up includes the import)

    os.makedirs(args.workdir, exist_ok=True)
    instances = workloads.WORKLOADS[args.workload]
    cayley_paths = write_cayley_files(instances, args.workdir)
    result = {"ready": time.monotonic()}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = simple_types = None
    if args.trace:
        import hopfib

        from tracer import Tracer

        tracer = Tracer()
        simple_types = install_probes(tracer)
        tracer.install(hopfib)

    ops, digests, reports = run_instances(
        instances, args.workdir, args.seed, cayley_paths, make_call(tracer))
    result.update(ops=ops, digests=digests,
                  rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    result["props"] = {
        name: props(os.path.join(args.workdir, name + ".json"), rep)
        for name, rep in reports.items()
    }
    if tracer is not None:
        spans_file = os.path.join(args.workdir, "spans.json")
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
        result["spans_file"] = spans_file
        result["counters"] = dict(tracer.counters, **{"repn.simple_types": len(simple_types)})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
