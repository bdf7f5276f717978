"""Prim H and the simple modules of a structure-constant algebra, read off
the blocks of H/I, I = J(H) (spectrum, simples).

Every primitive ideal P holds J(H), and is the kernel of one block of the
semisimple H/J(H): if e is that block's primitive central idempotent, P is
the set of x with x e in J(H). So spectrum finds the primitive idempotents
of Zbar = Z(H/I), in the coordinates of H/I (Subspace.quotient_map): Zbar
is the joint kernel of x -> g x - x g over the classes of the generators
G, which generate H/I (StructureConstantAlgebra.quotient_mult), or the
centre of H when I = 0. For each idempotent e, P^perp, the annihilator of
P in the dual of H, is the row space of x -> x e mod I, and P is its null
space. No module is split: there is no MeatAxe and no action stack.

The ideal I. R0, the radical of the trace form, holds J(H) (algebra
module docstring), so H/R0 is semisimple and its blocks are blocks of H.
With R0 = 0, H is semisimple and I = 0. With 0 != R0 != H, spectrum takes
I = R0 where the degrees f of the blocks of H/R0 (below) add up to
dim H/T(H) (StructureConstantAlgebra.simple_count), the sum of the
degrees of End(S) over the simples S of H: H/R0 has a simple for every
block and the count is at least their degrees' sum, so equality proves
that every simple of H is a simple of H/R0, that is R0 = J(H). Where the
count falls short, or R0 = H (a modular group algebra, where the trace
form is 0), I is the exact radical (StructureConstantAlgebra.radical, the
chain of Cohen, Ivanyos and Wales), which needs no certificate.

The field split. Zbar is commutative and semisimple, a product of fields,
so every minimal polynomial F on it is squarefree, and its irreducible
factors g give orthogonal idempotents E_g = (F/g) ((F/g)^-1 mod g) of
F_p[z] that sum to 1 (linalg.crt_idempotents; for a linear g, the
Lagrange polynomial of its root). The unit is split first by the minimal
polynomial of one central element drawn from random.Random(seed), then
each part by those of the basis elements of Zbar, until there are
k = dim Zbar parts, all then of dimension 1 (Ronyai, J. Symb. Comp. 9,
1990; Eberly and Giesbrecht, J. Symb. Comp. 29, 2000). Otherwise the
sweep runs through the whole basis, and a part e is a field once
dim e Zbar is the lcm of the degrees of the factors that e's elements
met: each such factor has a root in every field of e Zbar, so each field
has a multiple of that lcm as its degree, and two fields would need
twice it. A part that is not yet certified is split by further random
central elements. A block of degree f = dim e Zbar is M_d(F_(p^f)), so
dim P^perp = d**2 f and dim S = d f.

simples reads the same blocks, with the multiplicity [H : S] of each
simple in the regular module: the block idempotent, lifted to H at the
free columns of I, becomes an idempotent e of H under Newton's
x <- 3 x**2 - 2 x**3, since x**2 - x lies in the nilpotent I; H e is then
d copies of the projective cover of S, so dim e H = d f [H : S]
= dim S [H : S], where e H is the right ideal that e generates
(algebra.ideal_closure under the right multiplications by G).

All randomness is confined to one random.Random(seed) per call, so no
package module loads numpy.random. A negative seed is refused. The
records are canonically ordered by (dim, P) and do not depend on the
seed at all. Nothing is cached: a run reads each algebra once and passes
the result on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt, lcm

import numpy as np

from .algebra import StructureConstantAlgebra, closing_maps, ideal_closure
from .errors import BudgetExceeded, HopfibError
from .linalg import (
    Subspace,
    asmat,
    crt_idempotents,
    irreducible_factors,
    matmul_mod,
    modinv,
    null_space,
    rref,
)

# random central elements tried, after the basis sweep, on parts of the
# centre that are not yet certified fields; each splits such a part with
# probability at least 2/3
EXTRA_DRAWS = 64


@dataclass
class SpectrumRecord:
    """A primitive ideal P, the annihilator of a simple module of dimension
    dim, with P^perp, the annihilator of P in the dual of the algebra, the
    span of the module's matrix coefficients (dimension dim**2 where F_p
    splits the module)."""

    dim: int
    annihilator: Subspace
    dual: Subspace

    def central_character(self, unit: np.ndarray) -> np.ndarray:
        """phi = f / f(1) for the first row f of P^perp with f(1) != 0 (1 is
        not in P, so there is one). Every f in P^perp is x -> tr(M rho(x))
        for a matrix M, so a central a acting by a scalar xi(a) has
        f(a) = xi(a) f(1) and phi(a) = xi(a); on a 1-dimensional module phi
        is the character itself."""
        p = self.dual.field.p
        at_one = matmul_mod(self.dual.basis, unit, p)
        i = int(np.flatnonzero(at_one)[0])
        return self.dual.basis[i] * modinv(int(at_one[i]), p) % p


def minpoly_on_vector(theta: np.ndarray, v: np.ndarray, p: int) -> list[int]:
    """Monic minimal polynomial of theta at v, dense descending coefficients.

    The Krylov vectors v, theta v, ..., theta^m v are the columns of one
    matrix. theta^d v is the first that depends on those before it, so the
    rank d is the first non-pivot column of the RREF, and that column holds
    theta^d v in the basis v, ..., theta^(d-1) v.
    """
    krylov = [asmat(v, p)]
    for _ in range(theta.shape[0]):
        krylov.append(matmul_mod(theta, krylov[-1], p))
    r, d, _ = rref(np.array(krylov).T, p)
    return [1] + [int(-c) % p for c in r[:d, d][::-1]]


def spectrum(alg: StructureConstantAlgebra, seed: int = 0) -> list[SpectrumRecord]:
    """The primitive ideals of the algebra, each with its simple module's
    dimension and its annihilator in the dual, ordered by (dimension,
    annihilator): read off the blocks of H/J(H) (see the module
    docstring)."""
    return [rec for rec, _ in _blocks(alg, seed)[1]]


def simples(alg: StructureConstantAlgebra, seed: int = 0) -> list[tuple[SpectrumRecord, int]]:
    """The spectrum's records, each with the multiplicity of its simple
    module in the regular module (see the module docstring)."""
    ideal, blocks = _blocks(alg, seed)
    lifts = _lifted_idempotents(alg, ideal, [e for _, e in blocks])
    rights = closing_maps(alg)[1]
    return [(rec, ideal_closure(alg, Subspace(alg.field, alg.dim, e[None]), rights).dim // rec.dim)
            for (rec, _), e in zip(blocks, lifts)]


def _lifted_idempotents(alg: StructureConstantAlgebra, ideal: Subspace, idempotents: list) -> np.ndarray:
    """Idempotents of H, one per row, lifting idempotents of H/I given in
    its coordinates, I nilpotent: each put at the free columns of I, then
    x <- 3 x**2 - 2 x**3 for all rows at once until x**2 = x."""
    p = alg.field.p
    lifts = np.zeros((len(idempotents), alg.dim), dtype=np.int64)
    lifts[:, ideal.free_columns()] = idempotents
    times = alg.products(len(lifts))
    while not np.array_equal(square := times(lifts, lifts), lifts):
        lifts = (3 * square - 2 * times(square, lifts)) % p
    return lifts


def _blocks(alg: StructureConstantAlgebra, seed: int) -> tuple[Subspace, list]:
    """(I, the (record, block idempotent in the coordinates of H/I) pairs in
    the records' order) for I = R0 where that is certified, else the exact
    radical."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if not alg.certified:
        raise HopfibError("the spectrum needs a certified algebra, one whose unit laws and "
                          "associativity build_algebra has checked")
    rng, radical = random.Random(seed), alg.trace_radical
    if radical.dim < alg.dim:
        idempotents, degrees = _primitive_idempotents(alg, radical, rng)
        if not radical.dim or sum(degrees) == alg.simple_count:
            return radical, _records(alg, radical, idempotents, degrees)
    idempotents, degrees = _primitive_idempotents(alg, alg.radical, rng)
    return alg.radical, _records(alg, alg.radical, idempotents, degrees)


def _records(alg: StructureConstantAlgebra, ideal: Subspace, idempotents: np.ndarray,
             degrees: list[int]) -> list:
    """The (record, idempotent) pairs of the blocks of H/I, sorted by the
    records' (dim, annihilator key)."""
    # P^perp is spanned by the coordinates of x -> x e mod I, the rows of
    # (e_{r_a} e)^T reduced mod I and read back on H through the quotient map
    blocks = alg.quotient_mult(ideal, idempotents).transpose(0, 2, 1)
    if ideal.dim:
        blocks = matmul_mod(blocks, ideal.quotient_map().T, alg.field.p)
    pairs = []
    for rows, e, f in zip(blocks, idempotents, degrees):
        dual = Subspace(alg.field, alg.dim, rows)
        pairs.append((SpectrumRecord(isqrt(dual.dim // f) * f, null_space(dual.basis, alg.field), dual), e))
    return sorted(pairs, key=lambda pair: (pair[0].dim, pair[0].annihilator.key()))


def _primitive_idempotents(alg: StructureConstantAlgebra, ideal: Subspace,
                           rng: random.Random) -> tuple[np.ndarray, list[int]]:
    """The primitive idempotents of Zbar = Z(H/I), as rows in the
    coordinates of H/I, with their degrees f = dim e Zbar. The unit is
    split by one element of Zbar with coordinates drawn from rng, then by
    the basis elements of Zbar in turn (_split), until there are dim Zbar
    parts; failing that, by further random elements until every part is a
    certified field (see the module docstring). Products in Zbar are read
    in its own coordinates, the pivot entries of its RREF basis, from one
    quotient_mult per batch of elements."""
    p = alg.field.p
    if ideal.dim:
        # Zbar is the joint kernel of x -> g x - x g over the classes of G
        gens = ideal.quotient_map()[list(alg.generators)]
        comm = (alg.quotient_mult(ideal, gens, left=True) - alg.quotient_mult(ideal, gens)) % p
        centre = null_space(comm.transpose(0, 2, 1).reshape(-1, comm.shape[1]), alg.field)
    else:
        centre = alg.centre
    k, basis, piv = centre.dim, centre.basis, list(centre.pivots)

    def on_centre(rows):  # column j of matrix i: the coordinates of rows_i * basis_j
        return matmul_mod(basis, alg.quotient_mult(ideal, rows), p)[:, :, piv].transpose(0, 2, 1)

    def draw():
        z = matmul_mod(np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64), basis, p)
        return on_centre(z[None])[0]

    unit = matmul_mod(alg.unit, ideal.quotient_map(), p)[piv]
    parts = _split(draw(), [(unit, 1)], p)
    for theta in on_centre(basis) if len(parts) < k else ():
        parts = _split(theta, parts, p)
        if len(parts) == k:
            break
    for _ in range(EXTRA_DRAWS + 1):
        rows = np.array([e for e, _ in parts])
        degrees = [1] * k if len(parts) == k else [rref(m, p)[1] for m in on_centre(matmul_mod(rows, basis, p))]
        if all(f == met for f, (_, met) in zip(degrees, parts)):
            return matmul_mod(rows, basis, p), degrees
        parts = _split(draw(), parts, p)
    raise BudgetExceeded(f"{EXTRA_DRAWS} random central elements (repn.EXTRA_DRAWS) did not split "
                         "the centre of H/J(H) into fields")


def _split(theta: np.ndarray, parts: list, p: int) -> list:
    """Orthogonal idempotents of a commutative semisimple algebra, given as
    (coordinate vector, lcm of the degrees of the factors met) pairs whose
    vectors sum to its unit, each split by the multiplication theta by some
    element z: if the minimal polynomial F of theta at the unit has the
    irreducible factors g, the E_g(z) (linalg.crt_idempotents) are
    orthogonal idempotents that sum to 1, so each e is the sum of its
    nonzero parts e E_g(z), read off the Krylov rows theta^j e of all the e
    at once; a part e E_g(z) met g."""
    f = minpoly_on_vector(theta, sum(e for e, _ in parts) % p, p)
    factors = [g for g, _ in irreducible_factors(f, p)]
    if len(factors) == 1:
        return [(e, lcm(met, len(factors[0]) - 1)) for e, met in parts]
    krylov = [np.array([e for e, _ in parts])]
    for _ in range(len(f) - 2):
        krylov.append(matmul_mod(krylov[-1], theta.T, p))
    split = matmul_mod(crt_idempotents(f, factors, p), np.stack(krylov, axis=1), p)  # (e, factor, coordinate)
    return [(part, lcm(met, len(g) - 1)) for (_, met), row in zip(parts, split)
            for g, part in zip(factors, row) if part.any()]
