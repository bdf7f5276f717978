#!/usr/bin/env python3
"""Build every shipped instance and print its verdict as a table.

Usage: python3 scripts/verify_corpus.py [--seed N] [--mode global|local]

Exits nonzero if any instance's applicable conditions disagree (which
would indicate a bug, since the equivalence is a theorem).
"""

import argparse
import sys
import time

from hopfib.corpus import SHIPPED_NAMES, shipped_instance
from hopfib.repn import spectrum
from hopfib.specmap import fibers, verify_theorem


def fmt(value):
    return {True: "T", False: "F", None: "-"}[value]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--mode", choices=["global", "local"], default="global")
    args = parser.parse_args()

    print(f"{'instance':8s} {'dim':>4s} {'|X|':>4s}  i ii iii iv  agree  fibers/orbits      time")
    all_agree = True
    for name in SHIPPED_NAMES:
        t0 = time.monotonic()
        inst = shipped_instance(name)
        mode = args.mode if inst.h.antipode is not None else "local"
        v = verify_theorem(inst, fibers(inst, spectrum(inst.h.alg, seed=args.seed)), mode=mode)
        elapsed = time.monotonic() - t0
        if "fiber_sizes" in v.witnesses:
            fib, orb = v.witnesses["fiber_sizes"], v.witnesses["orbit_sizes"]
        else:  # local mode: the counit fiber alone
            fib = [len(v.witnesses["fiber_algebra_simple_dims"])]
            orb = v.witnesses["counit_fiber_orbit_sizes"]
        print(
            f"{name:8s} {inst.dim:4d} {v.x_order:4d}  "
            f"{fmt(v.cond_i)}  {fmt(v.cond_ii)}  {fmt(v.cond_iii)}   {fmt(v.cond_iv)}  "
            f"{str(v.agree):5s}  {str(fib):8s}/{str(orb):8s} {elapsed:6.2f}s"
        )
        all_agree &= v.agree
    if not all_agree:
        print("DISAGREEMENT FOUND: conditions that must be equivalent differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
