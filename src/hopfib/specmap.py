"""Primitive ideals, contraction fibers, winding orbits, and verdicts.

In finite dimension prime, primitive and maximal ideals coincide, so the
fiber/orbit comparison on prime spectra and on primitive spectra collapse
to one check; the verdict records that collapse by assigning the same
boolean to the third and fourth conditions.

The four conditions of the equivalence being verified:

  cond_i   every simple module of the counit fiber algebra H/HA+ is
           one-dimensional;
  cond_ii  the primitive ideals of H over the counit of A form a single
           orbit under the winding action of the character group X;
  cond_iii the fibers of the contraction P -> P intersect A on primitive
           ideals are exactly the X-orbits;
  cond_iv  the same on prime ideals (equal to cond_iii here).

verify_theorem and remark_uniform_fibers read one spectrum of H, the list
prims = prim_enumerate(h.alg, seed) that the caller takes once. With A
central and H split, A acts on the simple module of P through a
character xi_P (Schur), and the fiber over a character xi of A is the set
of P with xi_P = xi (fibers): Prim(H/H*ker(xi)), so no fiber algebra is
chopped. Every character of A is some xi_P, as H is a faithful finite
A-module (Nakayama), and the characters of H that make up X are the
1-dimensional members of prims; so nothing but H is chopped. The orbits
match each winding image through the codim P dimensional annihilator of
P in the dual of H (orbits), not through P itself.

The conditions are about simple modules over a splitting field, so a
verdict needs F_p to split H. A simple module S with annihilator P has
H/P = M_d(F_{p^e}) (Wedderburn), dim S = d e and codim P = d^2 e, so
e = (dim S)^2 / codim P; both raise NotSplit unless e = 1 for every P.
A quotient of H needs no check of its own: its simple modules are simple
modules of H, with the same endomorphisms.

The equivalence is about centralizing extensions, so both verify_theorem
and remark_uniform_fibers first check, once, that A is central
(algebra.is_central_subalgebra: A inside the centre of H, which chop
reads too); NotCentral
otherwise. For bialgebras without an antipode only the two-sided orbit
experiment is run and reported as such. Once per run, and alike for
bialgebras and Hopf algebras, verify_theorem builds X
(hopf.character_group_X), the right winding maps of its generators and
one orbit partition: of Prim(H) in global and experiment modes, of the
counit fiber in local mode. The windings fix A pointwise, so they
preserve every fiber (not checked again).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import StructureConstantAlgebra, is_central_subalgebra
from .corpus import CorpusInstance
from .errors import (
    HopfibError,
    NotAHopfSubalgebra,
    NotAPermutation,
    NotCentral,
    NotSplit,
)
from .hopf import (
    BialgebraData,
    Character,
    CoidealSubalgebra,
    character_group_X,
    character_kernel,
    fiber_quotient,
    one_dim_characters,
    winding,
)
from .linalg import Subspace, matmul_mod
from .repn import SimpleRecord, chop


def prim_enumerate(alg: StructureConstantAlgebra, seed: int = 0) -> list[SimpleRecord]:
    """All primitive ideals, each the annihilator of a simple module, with
    that module's action stack; ordered by (simple dimension, annihilator)."""
    return chop(alg, seed=seed)


def _dual(prim: SimpleRecord) -> Subspace:
    """The annihilator of P in the dual of H: the row space of the action
    flattened to (d^2, n), of dimension codim P."""
    n, d = prim.action.shape[:2]
    return Subspace(prim.annihilator.field, n, prim.action.reshape(n, d * d).T)


@dataclass
class Partition:
    """Blocks of indices into a list of primitive ideals."""

    blocks: list[list[int]]

    def sizes(self):
        return sorted(len(b) for b in self.blocks)


def fibers(prims: list[SimpleRecord], a: CoidealSubalgebra) -> dict[Character, list[int]]:
    """Group primitive ideals by the character xi_P of A on their simple
    module: the indices of the fiber over each xi_P, in the order of the
    canonical keys of the kernels ker(xi_P).

    A is central and F_p splits H (the callers check both first), so each
    a in A acts on the simple module of P by a scalar xi_P(a) (Schur),
    read off one entry of its matrix, and P intersect A = ker(xi_P).
    """
    p = a.subspace.field.p
    groups: dict[Character, list[int]] = {}
    for idx, prim in enumerate(prims):
        xi = Character.from_vector(p, matmul_mod(a.subspace.basis, prim.action[:, 0, 0], p))
        groups.setdefault(xi, []).append(idx)
    return {xi: groups[xi] for xi in sorted(groups, key=lambda xi: character_kernel(a, xi).key())}


def orbits(prims: list[SimpleRecord], maps: list[np.ndarray]) -> Partition:
    """Orbits of the group generated by the maps acting on annihilators.

    An invertible map W sends P_i onto P_j iff the duals (_dual) satisfy
    P_j^perp W = P_i^perp, so each map is matched through the small duals
    (codim P rows) rather than the annihilators themselves. Each map must
    permute the annihilator list; a missing image raises NotAPermutation
    (an invalid character set or winding side). Callers pass the maps of
    XGroup.generators(), which generate X's and so give its orbits.
    """
    duals = [_dual(prim) for prim in prims]
    index = {dual.key(): i for i, dual in enumerate(duals)}
    n = len(prims)
    perms = []
    for mat in maps:
        perm = []  # perm[j] = i with W(P_i) = P_j; W^-1 has the same orbits
        for dual in duals:
            source = index.get(dual.image_under(mat.T).key())
            if source is None:
                raise NotAPermutation(
                    "winding image of a primitive ideal matches no primitive ideal"
                )
            perm.append(source)
        if len(set(perm)) != n:
            raise NotAPermutation("winding action on primitive ideals is not injective")
        perms.append(perm)
    seen = [False] * n
    blocks = []
    for start in range(n):
        if seen[start]:
            continue
        block = []
        work = [start]
        seen[start] = True
        while work:
            cur = work.pop()
            block.append(cur)
            for perm in perms:
                nxt = perm[cur]
                if not seen[nxt]:
                    seen[nxt] = True
                    work.append(nxt)
        blocks.append(sorted(block))
    blocks.sort(key=lambda b: b[0])
    return Partition(blocks)


@dataclass
class Verdict:
    """Outcome of the fiber/orbit equivalence check on one instance."""

    mode: str  # 'global', 'local', or 'experiment'
    hopf: bool
    x_order: int
    cond_i: bool | None
    cond_ii: bool | None
    cond_iii: bool | None
    cond_iv: bool | None
    agree: bool
    witnesses: dict = dc_field(default_factory=dict)

    def conditions(self):
        return {
            "cond_i": self.cond_i,
            "cond_ii": self.cond_ii,
            "cond_iii": self.cond_iii,
            "cond_iv": self.cond_iv,
        }

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "hopf": self.hopf,
            "x_order": self.x_order,
            "conditions": self.conditions(),
            "agree": self.agree,
            "witnesses": self.witnesses,
        }


def _require_split(alg: StructureConstantAlgebra, prims: list[SimpleRecord]) -> None:
    """NotSplit naming the first P in prims with e = (dim S)^2 / codim P > 1."""
    for index, prim in enumerate(prims):
        codim = alg.dim - prim.annihilator.dim
        if prim.dim ** 2 != codim:
            raise NotSplit("H", index, prim.dim, prim.dim ** 2 // codim)


def _require_central(h: BialgebraData, a: CoidealSubalgebra) -> None:
    if not is_central_subalgebra(h.alg, a.subspace):
        raise NotCentral("the subalgebra must be central")


def verify_theorem(instance: CorpusInstance, prims: list[SimpleRecord], mode: str = "global") -> Verdict:
    """Check the equivalence conditions on a concrete instance whose
    spectrum is prims.

    Global mode additionally compares the full fiber partition with the
    full orbit partition on all primitive ideals. Bialgebras without an
    antipode fall back to the two-sided orbit experiment (third condition
    only, against the combined left/right winding action). NotCentral
    unless A is central; NotSplit if F_p does not split H.
    """
    h = instance.h
    a = instance.a
    p = h.field.p
    _require_central(h, a)
    _require_split(h.alg, prims)
    x = character_group_X(h, a, one_dim_characters(p, [prim.action for prim in prims]))
    fib = fibers(prims, a)
    gens = x.generators()
    if h.antipode is None:
        maps = [winding(h, x.chars[i], side) for side in ("right", "left") for i in gens]
        cond_iii, witnesses = _fibers_against_orbits(prims, fib, orbits(prims, maps))
        witnesses.update({"x_order": x.order, "action": "two-sided"})
        return Verdict("experiment", False, x.order, None, None, cond_iii, None, True, witnesses)
    maps = [winding(h, x.chars[i]) for i in gens]
    eps_a = Character.from_vector(p, matmul_mod(a.subspace.basis, h.counit, p))
    fiber = fib[eps_a]
    dims = [prims[i].dim for i in fiber]
    cond_i = all(d == 1 for d in dims)
    # the fiber is X-stable, so its X-orbits are the orbit blocks within it
    if mode == "global":
        orb = orbits(prims, maps)
        fiber_orbits = [b for b in orb.blocks if b[0] in fiber]
    else:
        fiber_orbits = orbits([prims[i] for i in fiber], maps).blocks
    cond_ii = len(fiber_orbits) == 1

    witnesses = {
        "x_order": x.order,
        "fiber_algebra_dim": fiber_quotient(h, a, eps_a).dim,
        "fiber_algebra_simple_dims": dims,
        "failing_simple_dims": sorted(set(dims) - {1}),
        "counit_fiber_orbit_sizes": sorted(len(b) for b in fiber_orbits),
    }
    cond_iii = cond_iv = None
    if mode == "global":
        cond_iii, partitions = _fibers_against_orbits(prims, fib, orb)
        cond_iv = cond_iii  # prime = primitive in finite dimension
        witnesses.update(partitions)
    agree = len({c for c in (cond_i, cond_ii, cond_iii, cond_iv) if c is not None}) <= 1
    return Verdict(mode, True, x.order, cond_i, cond_ii, cond_iii, cond_iv, agree, witnesses)


def _fibers_against_orbits(prims: list[SimpleRecord], fib: dict[Character, list[int]], orb: Partition):
    """Do the fibers on Prim(H) (fibers) equal the orbit partition orb?

    Returns that verdict and the partition witnesses; when it is False they
    include the first fiber block that is not a single orbit. Every fiber
    must be a union of orbits, that is, every orbit must meet one fiber
    only (HopfibError otherwise), so a fiber block is an orbit exactly when
    it meets only one.
    """
    blocks = list(fib.values())
    meets = [[ob for ob in orb.blocks if set(ob) & set(fblock)] for fblock in blocks]
    if sum(map(len, meets)) != len(orb.blocks):
        raise HopfibError("a fiber failed to be a union of winding orbits")
    witnesses = {
        "prim_count": len(prims),
        "prim_simple_dims": [it.dim for it in prims],
        "fiber_sizes": Partition(blocks).sizes(),
        "orbit_sizes": orb.sizes(),
    }
    for fblock, parts in zip(blocks, meets):
        if len(parts) != 1:
            witnesses["mismatch_fiber_vs_orbits"] = {"fiber_block": fblock, "orbit_blocks": parts}
            return False, witnesses
    return True, witnesses


# -- the counit is not special: per-character fiber reports -------------------


@dataclass
class FiberReportEntry:
    xi_values: tuple[int, ...]
    extends_to_h: bool
    ideal_proper: bool  # always True: each xi is some xi_P
    quotient_dim: int
    all_one_dim: bool


@dataclass
class FiberUniformityReport:
    entries: list[FiberReportEntry]
    consistent: bool


def require_hopf_subalgebra(instance: CorpusInstance) -> None:
    """NotAHopfSubalgebra unless A is a Hopf subalgebra: Delta(A) in A (x) A,
    an antipode, and S(A) in A. The left legs of Delta(A) lie in A since A
    is a right coideal (checked at load). Needs nothing from the spectrum,
    so verify --uniform-fibers runs it before the chop."""
    h, a = instance.h, instance.a
    for v in a.subspace.basis:
        if not a.subspace.contains_rows(h.comul_of(v)):
            raise NotAHopfSubalgebra("Delta(A) is not contained in A (x) A")
    if h.antipode is None:
        raise NotAHopfSubalgebra("A Hopf subalgebra needs an ambient antipode")
    if not a.subspace.contains_rows(matmul_mod(a.subspace.basis, h.antipode.T, h.field.p)):
        raise NotAHopfSubalgebra("antipode does not preserve A")


def remark_uniform_fibers(instance: CorpusInstance, prims: list[SimpleRecord]) -> FiberUniformityReport:
    """For every character xi of a central Hopf subalgebra A, the fiber over
    xi, read off the spectrum prims of H.

    Characters of A that are restrictions of characters of H must all give
    the same one-dimensionality verdict (winding by a lift carries one
    fiber ideal onto another); characters that do not extend are reported
    without entering the consistency claim. The characters of A are the
    xi_P (fibers), sorted by value vector; H*ker(xi) lies in every P over
    xi, so it is proper, and fiber_quotient gives the dimension of
    H/H*ker(xi). A character of H kills H*ker(xi) iff it restricts to xi,
    ker(xi) having codimension 1 in A; so xi extends iff the fiber has a
    1-dimensional simple module. NotSplit unless F_p splits H.
    """
    h = instance.h
    a = instance.a
    require_hopf_subalgebra(instance)
    _require_central(h, a)
    _require_split(h.alg, prims)

    fib = fibers(prims, a)
    entries = []
    for xi in sorted(fib, key=lambda c: c.values):
        dims = [prims[i].dim for i in fib[xi]]
        entries.append(FiberReportEntry(xi.values, 1 in dims, True, fiber_quotient(h, a, xi).dim,
                                        all(d == 1 for d in dims)))
    verdicts = {e.all_one_dim for e in entries if e.extends_to_h}
    return FiberUniformityReport(entries, len(verdicts) <= 1)
