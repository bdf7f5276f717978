"""The benchmark's workloads, the inputs each one generates, and the verdict gate.

A workload is an ordered list of instances. For each instance one
repetition runs two user-facing operations through ``hopfib.cli.main``:
``corpus`` (materialize the instance file) and ``verify --seed <seed>``
(load with full axiom re-verification, decide the four conditions, emit
the canonical report). The workload seed is passed only as
``verify --seed``; the instances themselves are fixed.

Pins are the verdicts each instance must produce. Shipped instances are
pinned from their ``expected`` dicts; the group algebras are pinned from
their character theory (see the comments at each pin).
"""

from __future__ import annotations

from dataclasses import dataclass

P_BIG = 2**31 - 1  # the largest prime the verifier accepts


def cycles(degree: int, *cyc: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of range(degree) given as a product of disjoint cycles."""
    perm = list(range(degree))
    for c in cyc:
        for i, x in enumerate(c):
            perm[x] = c[(i + 1) % len(c)]
    return tuple(perm)


def permutation_group_cayley(gens: list[tuple[int, ...]]) -> list[list[int]]:
    """Cayley table of the group generated by the permutations ``gens``.

    Elements are sorted as tuples, so the identity is element 0 and the
    table depends only on the generated group.
    """
    degree = len(gens[0])
    identity = tuple(range(degree))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                c = tuple(g[a[i]] for i in range(degree))
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    elements = sorted(seen)
    index = {g: i for i, g in enumerate(elements)}
    # (a*b)(i) = a(b(i)): apply b first
    return [[index[tuple(a[b[i]] for i in range(degree))] for b in elements] for a in elements]


# S3 x S3 acting on {0,1,2} and {3,4,5}.
GROUP_GENERATORS = {
    "s3s3": [cycles(6, (0, 1)), cycles(6, (0, 1, 2)), cycles(6, (3, 4)), cycles(6, (3, 4, 5))],
}


def _pin(mode, x_order, conditions, fiber_sizes, orbit_sizes):
    if mode == "experiment":
        conds = {"cond_i": None, "cond_ii": None, "cond_iii": conditions, "cond_iv": None}
    else:
        conds = {k: conditions for k in ("cond_i", "cond_ii", "cond_iii", "cond_iv")}
    return {
        "mode": mode,
        "hopf": mode != "experiment",
        "x_order": x_order,
        "conditions": conds,
        "agree": True,
        "fiber_sizes": sorted(fiber_sizes),
        "orbit_sizes": sorted(orbit_sizes),
    }


@dataclass(frozen=True)
class Instance:
    """One instance: its ``hopfib corpus`` arguments and its pinned verdict.

    ``cayley`` names a group in GROUP_GENERATORS whose table the
    repetition writes to a file and passes as ``--cayley-file``.
    """

    name: str
    corpus_args: tuple[str, ...]
    pin: dict
    cayley: str | None = None

    def corpus_argv(self, out_path: str, cayley_path: str | None = None) -> list[str]:
        argv = ["corpus", *self.corpus_args, "-o", out_path]
        if self.cayley is not None:
            argv += ["--cayley-file", cayley_path]
        return argv


def _group(name, group, z, p, pin):
    return Instance(name, ("--family", "group", "--group", group,
                           "--central-subgroup", z, "--p", str(p)), pin)


def _cayley(name, group, p, pin):
    return Instance(name, ("--family", "group", "--central-subgroup", "center",
                           "--p", str(p)), pin, cayley=group)


# The seven shipped instances, pinned from corpus.shipped_instance(...).expected.
# usl2's expected dict names no fiber sizes: its one character makes X
# trivial (orbits are singletons) and A is the scalars (one fiber).
CORPUS7 = (
    _group("c3", "c3", "trivial", 7, _pin("global", 3, True, [3], [3])),
    _group("c4c2", "c4", "0,2", 5, _pin("global", 2, True, [2, 2], [2, 2])),
    _group("q8", "q8", "center", 7, _pin("global", 4, True, [4, 1], [4, 1])),
    _group("s3c2", "s3c2", "0,1", 7, _pin("global", 2, False, [3, 3], [1, 1, 2, 2])),
    Instance("qsl2", ("--family", "qsl2", "--ell", "3", "--p", "7"),
             _pin("global", 3, True, [3], [3])),
    Instance("usl2", ("--family", "usl2", "--ell", "3", "--p", "7"),
             _pin("global", 1, False, [3], [1, 1, 1])),
    Instance("qm2", ("--family", "qm2", "--t", "3", "--p", "7"),
             _pin("experiment", 9, True, [9], [9])),
)

# S3 x S3, A = centre = scalars: X is the four linear characters, acting on
# the nine simples by sign twists with orbits {1 (x) 1, ...} (4),
# {1 (x) rho, sgn (x) rho} (2), {rho (x) 1, rho (x) sgn} (2), {rho (x) rho} (1).
S3S3_PIN = _pin("global", 4, False, [9], [4, 2, 2, 1])

WORKLOADS: dict[str, tuple[Instance, ...]] = {
    "corpus7": CORPUS7,
    "groups-bigp": (_cayley("s3s3-bigp", "s3s3", P_BIG, S3S3_PIN),),
}


def verdict_of(report: dict) -> dict:
    """The pinned fields of a ``verify`` report, in pin form."""
    r = report["results"]
    return {
        "mode": r["mode"],
        "hopf": r["hopf"],
        "x_order": r["x_order"],
        "conditions": r["conditions"],
        "agree": r["agree"],
        "fiber_sizes": sorted(r["witnesses"]["fiber_sizes"]),
        "orbit_sizes": sorted(r["witnesses"]["orbit_sizes"]),
    }


def gate(report: dict, pin: dict) -> list[str]:
    """Names of the pinned fields on which ``report`` differs from ``pin``."""
    try:
        got = verdict_of(report)
    except (KeyError, TypeError) as exc:
        return [f"malformed report: {exc!r}"]
    return [k for k in pin if got[k] != pin[k]]
