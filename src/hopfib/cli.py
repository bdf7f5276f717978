"""Command-line front end.

Subcommands: corpus (build instances to JSON), axioms, characters, simples
and verify (reports on an instance file). Exit codes: 0 success, 1 failed
axioms or an inconsistent verdict, 2 bad parameters, unreadable input,
or a budget or the memory run out.
All randomized internals derive from --seed (default 0), the sole
nondeterminism knob; reports are byte-stable for fixed input and seed.
Set HOPFIB_LOG=debug for timing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .corpus import (
    GroupTable,
    builtin_group,
    group_algebra_pair,
    named_central_subgroup,
    quantum_m2_kernel,
    quantum_sl2_kernel,
    small_quantum_sl2,
)
from .errors import BadParameters, HopfibError
from .fileio import (
    canonical_json,
    instance_from_dict,
    raw_bialgebra_from_dict,
    report_dict,
    write_instance,
)
from .hopf import axiom_checks, enumerate_characters
from .linalg import FieldSpec
from .repn import simples, spectrum
from .specmap import fibers, remark_uniform_fibers, require_hopf_subalgebra, verify_theorem


def _log(msg: str):
    if os.environ.get("HOPFIB_LOG", "").lower() in ("debug", "info"):
        print(msg, file=sys.stderr)


def _emit(report: dict, path: str | None) -> None:
    text = canonical_json(report)
    sys.stdout.write(text)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_input(path: str) -> tuple[bytes, dict]:
    with open(path, "rb") as fh:
        raw = fh.read()
    return raw, json.loads(raw.decode())


def cmd_corpus(args) -> int:
    if args.family == "group":
        field = FieldSpec(args.p)
        if args.cayley_file and args.group is not None:
            raise BadParameters("--group and --cayley-file exclude each other")
        if args.cayley_file:
            with open(args.cayley_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            if not isinstance(data, dict) or "cayley" not in data:
                raise BadParameters(f"{args.cayley_file} has no 'cayley' key")
            g = GroupTable.from_cayley(data["cayley"])
        elif args.group is None:
            raise BadParameters("--family group needs --group or --cayley-file")
        else:
            g = builtin_group(args.group)
        z = named_central_subgroup(g, args.central_subgroup)
        inst = group_algebra_pair(
            field, g, z,
            provenance={"family": "group", "group": args.group or "custom",
                        "z": args.central_subgroup, "p": args.p},
        )
    else:
        flag, build = {"qsl2": ("ell", quantum_sl2_kernel), "usl2": ("ell", small_quantum_sl2),
                       "qm2": ("t", quantum_m2_kernel)}[args.family]
        if getattr(args, flag) is None:
            raise BadParameters(f"--family {args.family} needs --{flag}")
        inst = build(getattr(args, flag), args.p)
    data = write_instance(args.output, inst)
    _log(f"wrote {args.output} ({len(data)} bytes, dim {inst.dim})")
    return 0


def cmd_axioms(args) -> int:
    raw, d = _read_input(args.input)
    report = axiom_checks(raw_bialgebra_from_dict(d))
    checks = [{"name": c.name, "passed": c.passed,
               "witness": list(c.witness) if isinstance(c.witness, tuple) else c.witness}
              for c in report.checks]
    _emit(report_dict("axioms", None, raw, {"passed": report.passed, "checks": checks}), args.report)
    return 0 if report.passed else 1


def cmd_characters(args) -> int:
    raw, d = _read_input(args.input)
    inst = instance_from_dict(d)
    chars = enumerate_characters(inst.h, seed=args.seed)
    results = {
        "count": len(chars),
        "characters": [list(ch.values) for ch in chars],
    }
    _emit(report_dict("characters", args.seed, raw, results), args.report)
    return 0


def cmd_simples(args) -> int:
    raw, d = _read_input(args.input)
    inst = instance_from_dict(d)
    results = {
        "records": [
            {
                "dim": r.dim,
                "multiplicity": multiplicity,
                "annihilator_dim": r.annihilator.dim,
                "annihilator_basis": [[int(x) for x in row] for row in r.annihilator.basis],
            }
            for r, multiplicity in simples(inst.h.alg, seed=args.seed)
        ]
    }
    _emit(report_dict("simples", args.seed, raw, results), args.report)
    return 0


def cmd_verify(args) -> int:
    raw, d = _read_input(args.input)
    inst = instance_from_dict(d)
    if args.uniform_fibers:
        require_hopf_subalgebra(inst)  # refuse before the spectrum, not after the verdict
    fib = fibers(inst, spectrum(inst.h.alg, seed=args.seed))
    verdict = verify_theorem(inst, fib, mode=args.mode)
    results = verdict.to_dict()
    if args.uniform_fibers:
        rep = remark_uniform_fibers(inst, fib)
        results["uniform_fibers"] = {
            "consistent": rep.consistent,
            "entries": [
                {
                    "xi": list(e.xi_values),
                    "extends_to_h": e.extends_to_h,
                    "ideal_proper": e.ideal_proper,
                    "quotient_dim": e.quotient_dim,
                    "all_one_dim": e.all_one_dim,
                }
                for e in rep.entries
            ],
        }
    _emit(report_dict("verify", args.seed, raw, results), args.report)
    return 0 if verdict.agree else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfib",
        description="exact fiber/orbit verification for finite centralizing "
        "extensions of bialgebras over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("corpus", help="build a corpus instance and write it to JSON")
    c.add_argument("--family", required=True, choices=["group", "qsl2", "usl2", "qm2"])
    c.add_argument("--group", help="builtin group name (c2, c3, c4, c2c2, q8, s3, s3c2)")
    c.add_argument("--cayley-file", help="JSON file with a 'cayley' table for a custom group")
    c.add_argument("--central-subgroup", default="trivial",
                   help="'trivial', 'center', 'full' or comma-separated element indices")
    c.add_argument("--p", type=int, required=True, help="odd prime modulus")
    c.add_argument("--ell", type=int, help="odd root-of-unity order (qsl2/usl2)")
    c.add_argument("--t", type=int, help="odd root-of-unity order (qm2)")
    c.add_argument("-o", "--output", required=True)
    c.set_defaults(func=cmd_corpus)

    for name, func, extra in [
        ("axioms", cmd_axioms, False),
        ("characters", cmd_characters, True),
        ("simples", cmd_simples, True),
    ]:
        s = sub.add_parser(name, help=f"run {name} on an instance file")
        s.add_argument("--input", required=True)
        if extra:
            s.add_argument("--seed", type=int, default=0)
        s.add_argument("--report", help="also write the report to this path")
        s.set_defaults(func=func)

    v = sub.add_parser("verify", help="check the fiber/orbit equivalence conditions")
    v.add_argument("--input", required=True)
    v.add_argument("--mode", choices=["global", "local"], default="global")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--uniform-fibers", action="store_true",
                   help="also report per-character fiber quotients of A")
    v.add_argument("--report", help="also write the report to this path")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "seed"):
        args.seed = None
    start = time.monotonic()
    try:
        code = args.func(args)
    except (HopfibError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # a budget run out, like BudgetExceeded: no traceback
        print(f"error: out of memory in {args.command}", file=sys.stderr)
        return 2
    _log(f"{args.command} finished in {time.monotonic() - start:.2f}s")
    return code


if __name__ == "__main__":
    sys.exit(main())
