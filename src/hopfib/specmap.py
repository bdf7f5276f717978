"""Primitive ideals, contraction fibers, winding orbits, and verdicts.

In finite dimension prime, primitive and maximal ideals coincide, so the
fiber/orbit comparison on prime spectra and on primitive spectra collapse
to one check; the verdict records that collapse by assigning the same
boolean to the third and fourth conditions.

The four conditions of the equivalence being verified:

  cond_i   every simple module of the counit fiber algebra H/HA+ is
           one-dimensional;
  cond_ii  the primitive ideals of the fiber algebra form a single orbit
           under the winding action of the character group X;
  cond_iii the fibers of the contraction P -> P intersect A on primitive
           ideals are exactly the X-orbits;
  cond_iv  the same on prime ideals (equal to cond_iii here).

The conditions are about simple modules over a splitting field, so a
verdict needs F_p to split H and the counit fiber algebra. A simple module S
with annihilator P has H/P = M_d(F_{p^e}) (Wedderburn), dim S = d e and
codim P = d^2 e, so e = (dim S)^2 / codim P; verify_theorem raises NotSplit
unless e = 1 for every simple module of both algebras.

For bialgebras without an antipode only the two-sided orbit experiment is
run and reported as such. Both modes compare fibers with orbits through
one helper, and the character group X is built by the same
hopf.character_group_X for bialgebras and Hopf algebras.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import (
    StructureConstantAlgebra,
    is_commutative,
    quotient_algebra,
    subalgebra_as_algebra,
)
from .corpus import CorpusInstance
from .errors import (
    HopfibError,
    ImproperIdeal,
    NotAHopfSubalgebra,
    NotAPermutation,
    NotSplit,
)
from .hopf import (
    BialgebraData,
    Character,
    CoidealSubalgebra,
    XGroup,
    character_group_X,
    enumerate_characters,
    fiber_quotient,
    winding,
)
from .linalg import Subspace, kernel, matmul_mod
from .repn import simples


@dataclass
class PrimItem:
    """A primitive ideal: annihilator of a simple module."""

    annihilator: Subspace
    simple_dim: int
    character: Character | None


def prim_enumerate(alg: StructureConstantAlgebra, seed: int = 0) -> list[PrimItem]:
    """All primitive ideals, ordered by (simple dimension, annihilator)."""
    items = []
    for rec in simples(alg, seed=seed):
        char = None
        if rec.module.dim == 1:
            char = Character.from_vector(alg.field.p, rec.module.action[:, 0, 0])
        items.append(PrimItem(rec.annihilator, rec.module.dim, char))
    return items


def contract(prim: PrimItem, a: CoidealSubalgebra) -> Subspace:
    """The contraction P intersect A, canonical in ambient coordinates."""
    return prim.annihilator.intersect(a.subspace)


def contraction_is_maximal(alg: StructureConstantAlgebra, prim: PrimItem,
                           a: CoidealSubalgebra) -> bool:
    """Is A/(P intersect A) a field? Decided through the p-power map.

    The quotient is a field iff the iterated p-power map has zero kernel
    (no nilpotents) and its fixed space is one-dimensional (one factor).
    Only defined for commutative A. P intersect A is an ideal of A because
    P is an ideal; quotient_algebra checks that once (NotAnIdeal).
    """
    asub, _embedding = subalgebra_as_algebra(alg, a.subspace)
    if not is_commutative(asub):
        raise HopfibError("maximality diagnostic requires a commutative subalgebra")
    p = alg.field.p
    cont = contract(prim, a)
    coords = cont.basis[:, list(a.subspace.pivots)]
    ideal_in_a = Subspace(alg.field, asub.dim, coords)
    q = quotient_algebra(asub, ideal_in_a).algebra
    frob = np.zeros((q.dim, q.dim), dtype=np.int64)
    for i in range(q.dim):
        e = np.zeros(q.dim, dtype=np.int64)
        e[i] = 1
        frob[:, i] = q.element_power(e, p)
    power = np.eye(q.dim, dtype=np.int64)
    for _ in range(q.dim):
        power = matmul_mod(power, frob, p)
    nilradical_dim = kernel(power, p).shape[0]
    fixed_dim = kernel((frob - np.eye(q.dim, dtype=np.int64)) % p, p).shape[0]
    return nilradical_dim == 0 and fixed_dim == 1


@dataclass
class Partition:
    """Blocks of indices into a list of primitive ideals; fibers are labelled
    by their contraction."""

    blocks: list[list[int]]
    labels: list[Subspace] | None = None

    def sizes(self):
        return sorted(len(b) for b in self.blocks)


def fibers(prims: list[PrimItem], a: CoidealSubalgebra) -> Partition:
    """Group primitive ideals by identical contraction subspaces."""
    groups: dict[bytes, list[int]] = {}
    labels: dict[bytes, Subspace] = {}
    for idx, prim in enumerate(prims):
        cont = contract(prim, a)
        groups.setdefault(cont.key(), []).append(idx)
        labels[cont.key()] = cont
    keys = sorted(groups)
    return Partition([sorted(groups[k]) for k in keys], [labels[k] for k in keys])


def orbits(prims: list[PrimItem], maps: list[np.ndarray]) -> Partition:
    """Orbits of the group generated by the maps acting on annihilators.

    Each map must permute the annihilator list; a missing image raises
    NotAPermutation (an invalid character set or winding side). Callers pass
    the maps of XGroup.generators(), which generate X's and so give its orbits.
    """
    index = {prim.annihilator.key(): i for i, prim in enumerate(prims)}
    n = len(prims)
    perms = []
    for mat in maps:
        perm = []
        for prim in prims:
            image = prim.annihilator.image_under(mat)
            target = index.get(image.key())
            if target is None:
                raise NotAPermutation(
                    "winding image of a primitive ideal matches no primitive ideal"
                )
            perm.append(target)
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


def refinement_holds(fib: Partition, orb: Partition) -> bool:
    """Every fiber block must be an exact union of orbit blocks."""
    for fblock in fib.blocks:
        fset = set(fblock)
        covered: set[int] = set()
        for oblock in orb.blocks:
            oset = set(oblock)
            if oset & fset:
                if not oset <= fset:
                    return False
                covered |= oset
        if covered != fset:
            return False
    return True


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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _applicable_agree(values) -> bool:
    applicable = [v for v in values if v is not None]
    return len(set(applicable)) <= 1


def _require_split(name: str, alg: StructureConstantAlgebra, recs) -> None:
    """NotSplit naming the first simple record of alg with e = (dim S)^2 / codim P > 1."""
    for index, rec in enumerate(recs):
        codim = alg.dim - rec.annihilator.dim
        if rec.module.dim ** 2 != codim:
            raise NotSplit(name, index, rec.module.dim, rec.module.dim ** 2 // codim)


def verify_theorem(instance: CorpusInstance, mode: str = "global", seed: int = 0,
                   x_group: XGroup | None = None) -> Verdict:
    """Check the equivalence conditions on a concrete instance.

    Global mode additionally compares the full fiber partition with the
    full orbit partition on all primitive ideals. Bialgebras without an
    antipode fall back to the two-sided orbit experiment (third condition
    only, against the combined left/right winding action). X is built here
    unless x_group, built with the same seed, is given. NotSplit if F_p does
    not split H or the counit fiber algebra.
    """
    h = instance.h
    a = instance.a
    p = h.field.p
    _require_split("H", h.alg, simples(h.alg, seed=seed))
    x = x_group if x_group is not None else character_group_X(h, a, seed=seed)
    gens = x.generators()
    if h.antipode is None:
        maps = [winding(h, x.chars[i], side) for side in ("right", "left") for i in gens]
        cond_iii, witnesses = _fibers_against_orbits(h, a, maps, seed)
        witnesses.update({"x_order": x.order, "action": "two-sided"})
        return Verdict("experiment", False, x.order, None, None, cond_iii, None, True, witnesses)
    eps_a = Character.from_vector(p, matmul_mod(a.subspace.basis, h.counit, p))
    fq = fiber_quotient(h, a, eps_a, x_group=x)

    fiber_recs = simples(fq.algebra, seed=seed)
    _require_split("the counit fiber algebra", fq.algebra, fiber_recs)
    cond_i = all(r.module.dim == 1 for r in fiber_recs)

    fiber_prims = prim_enumerate(fq.algebra, seed=seed)
    fiber_orbits = orbits(fiber_prims, [fq.descended_winding[i] for i in gens])
    cond_ii = len(fiber_orbits.blocks) == 1

    witnesses = {
        "x_order": x.order,
        "fiber_algebra_dim": fq.algebra.dim,
        "fiber_algebra_simple_dims": [r.module.dim for r in fiber_recs],
        "failing_simple_dims": sorted({r.module.dim for r in fiber_recs} - {1}),
        "counit_fiber_orbit_sizes": fiber_orbits.sizes(),
    }
    cond_iii = cond_iv = None
    if mode == "global":
        cond_iii, partitions = _fibers_against_orbits(h, a, [fq.winding[i] for i in gens], seed)
        cond_iv = cond_iii  # prime = primitive in finite dimension
        witnesses.update(partitions)
    agree = _applicable_agree([cond_i, cond_ii, cond_iii, cond_iv])
    return Verdict(mode, True, x.order, cond_i, cond_ii, cond_iii, cond_iv, agree, witnesses)


def _fibers_against_orbits(h: BialgebraData, a: CoidealSubalgebra, maps, seed: int):
    """Do the contraction fibers on Prim(H) equal the orbits of the maps?

    Returns that verdict and the partition witnesses; when it is False they
    include the first fiber block that is not a single orbit. Every fiber
    must be a union of orbits (HopfibError otherwise), so a fiber block is
    an orbit exactly when it meets only one.
    """
    prims = prim_enumerate(h.alg, seed=seed)
    fib = fibers(prims, a)
    orb = orbits(prims, maps)
    if not refinement_holds(fib, orb):
        raise HopfibError("a fiber failed to be a union of winding orbits")
    witnesses = {
        "prim_count": len(prims),
        "prim_simple_dims": [it.simple_dim for it in prims],
        "fiber_sizes": fib.sizes(),
        "orbit_sizes": orb.sizes(),
    }
    for fblock in fib.blocks:
        parts = [ob for ob in orb.blocks if set(ob) & set(fblock)]
        if len(parts) != 1:
            witnesses["mismatch_fiber_vs_orbits"] = {"fiber_block": fblock, "orbit_blocks": parts}
            return False, witnesses
    return True, witnesses


# -- the counit is not special: per-character fiber reports -------------------


@dataclass
class FiberReportEntry:
    xi_values: tuple[int, ...]
    extends_to_h: bool
    ideal_proper: bool
    quotient_dim: int | None
    all_one_dim: bool | None


@dataclass
class FiberUniformityReport:
    entries: list[FiberReportEntry]
    consistent: bool


def remark_uniform_fibers(instance: CorpusInstance, seed: int = 0,
                          x_group: XGroup | None = None) -> FiberUniformityReport:
    """For every character xi of a Hopf subalgebra A, chop H/H*ker(xi).

    Characters of A that are restrictions of characters of H must all give
    the same one-dimensionality verdict (winding by a lift carries one
    fiber ideal onto another); characters that do not extend are reported
    without entering the consistency claim. H's characters and X come from
    x_group when it is given (built with the same seed, as by verify).
    """
    h = instance.h
    a = instance.a
    p = h.field.p
    # A must be a Hopf subalgebra: Delta(A) in A (x) A and S(A) in A
    for v in a.subspace.basis:
        m = h.comul_of(v)
        if not (a.subspace.contains_rows(m.T) and a.subspace.contains_rows(m)):
            raise NotAHopfSubalgebra("Delta(A) is not contained in A (x) A")
    if h.antipode is None:
        raise NotAHopfSubalgebra("A Hopf subalgebra needs an ambient antipode")
    if not a.subspace.contains_rows(matmul_mod(a.subspace.basis, h.antipode.T, p)):
        raise NotAHopfSubalgebra("antipode does not preserve A")

    asub, _embedding = subalgebra_as_algebra(h.alg, a.subspace)
    a_chars = enumerate_characters(asub, seed=seed)
    x = x_group if x_group is not None else character_group_X(h, a, seed=seed)
    restrictions = {
        tuple(int(t) for t in matmul_mod(a.subspace.basis, c.vector(), p))
        for c in x.all_chars
    }
    entries = []
    for xi in a_chars:
        extends = xi.values in restrictions
        try:
            fq = fiber_quotient(h, a, xi, x_group=x)
            recs = simples(fq.algebra, seed=seed)
            entry = FiberReportEntry(
                xi.values,
                extends,
                True,
                fq.algebra.dim,
                all(r.module.dim == 1 for r in recs),
            )
        except ImproperIdeal:
            entry = FiberReportEntry(xi.values, extends, False, None, None)
        entries.append(entry)
    verdicts = {e.all_one_dim for e in entries if e.extends_to_h and e.ideal_proper}
    return FiberUniformityReport(entries, len(verdicts) <= 1)
