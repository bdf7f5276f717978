"""The simple modules of a structure-constant algebra: the composition
factors of its regular module (chop), and its primitive ideals, read off
the blocks of H/R0 where that is certified (spectrum).

spectrum is what verify and characters read. Every primitive ideal P holds
J(H), and is the kernel of one block of the semisimple H/J(H): if e is
that block's primitive central idempotent, P is the set of x with
x e in J(H). R0, the radical of the trace form, holds J(H) (algebra module
docstring), so H/R0 is a quotient of H/J(H), and its blocks are blocks of
H. So spectrum finds the primitive idempotents of Zbar = Z(H/R0), in the
coordinates of H/R0 (Subspace.quotient_map): Zbar is the joint kernel of
x -> g x - x g over the classes of the generators G, which generate H/R0
(StructureConstantAlgebra.quotient_mult), or the centre of H when R0 = 0.
Zbar is commutative and semisimple, and where F_p splits it, Zbar = F_p^k.
Its unit is split first by the roots of the minimal polynomial of one
central element drawn from random.Random(seed), then each
idempotent by those of the basis elements of Zbar, until there are
k = dim Zbar; each split is a Lagrange interpolation in one element
(Ronyai, J. Symb. Comp. 9, 1990; Eberly and Giesbrecht, J. Symb. Comp. 29,
2000). For each idempotent e, P^perp, the annihilator of P in the dual of
H, is the row space of x -> x e mod R0, of dimension d**2 for a block
M_d(F_p); P is its null space. No module is split, so there is no
MeatAxe and no action stack in this route.

The certificate is the same in kind as chop's. With R0 != 0, the
idempotents must number dim H/T(H) (StructureConstantAlgebra.simple_count):
that count is the sum of the degrees of End(S) over F_p, at least the
number of simples of H, which is at least the number of blocks of H/R0,
so equality proves that every simple of H is a simple of H/R0 (R0 = J(H))
and that F_p splits H. With R0 = 0, H is semisimple, and k idempotents,
all from linear factors, prove Z(H) = F_p^k: a simple block whose centre
is F_p is M_d(F_p), as finite division rings are fields. Any nonlinear or
repeated factor, a short count, R0 = H (a modular group algebra, where
the trace form is 0) or data that is not certified falls back to
chop(alg, seed), run once; its records are turned into spectrum records,
P^perp being the span of the matrix coefficients of the simple module.

The decomposition ("chop") is what simples reads, and spectrum's
fallback. It takes the regular module only: every simple module occurs in
it. It first splits the module along its centre. It
draws one random element z of the centre Z (StructureConstantAlgebra.centre)
and takes the minimal polynomial of z, from the action of z on Z. For each
irreducible factor g, with multiplicity e, the piece is ker g(rho(z))^e,
the generalized eigenspace of g; e <= dim Z / deg g, since F_p[z] lies in
Z, and ker g(rho(z))^j is the same for every j >= e, so chop takes the
smallest power of two j >= e. rho(z) commutes with every rho(h), so each
piece is a submodule; the pieces of distinct factors are independent, and
they fill the module because the minimal polynomial kills rho(z), so the
module is their direct sum and its composition factors are those of the
pieces together (Jordan-Hoelder). The pieces are used only if their
dimensions add up to the module's, which fails only where Z is not closed
under the product (data that is not a certified algebra); the whole module
is then one piece. Each piece is a sum of blocks of the algebra; z keeps
two blocks together only where its components there share a factor, which
a random z rarely does at a large prime.

The split reads the sparse multiplication alone: rho(z) is the left
multiplication matrix of z, and each piece is a left ideal, whose action
is read off mul's entries (StructureConstantAlgebra.left_ideal_action:
every term reduced below p before the sum, at most n terms per sum, so
each sum stays below 2**47 for n < 2**16) when the split stack reaches
it, so one piece's action is alive at a time. The dense n x n x n action
stack is built only when the centre leaves the module in one piece (a
local centre, as for qsl2).

Each piece then goes through the standard randomized strategy for
modules over small finite fields: take an element theta = rho(h) of the
acting algebra's image, split off kernels of irreducible factors g of its
minimal polynomial, and spin up submodules, each with one product (see
spin). Irreducibility is certified by the dual-module (Norton) criterion,
which needs a factor g whose kernel dimension equals its degree. Both hold
for any element and any irreducible g, and rho(h) still acts on the
children of a module it split; so a child first tries the h and g that
split its parent, draws random elements only when they do not decide, and
hands its own deciding h and g down. The submodule child always inherits;
the quotient child only when the submodule is at least a third of it (see
_split_to_simples). Other factors are not handed down: a g(theta)
invertible on a module is invertible on its children. A random
element's factors, of its minimal polynomial at a random vector, are drawn
lazily, lowest degree first (linalg.irreducible_factors), until one
decides. MAX_ATTEMPTS bounds the elements tried per module, the inherited
one included. Spun subspaces and their Norton complements are invariant,
which restriction and quotient do not re-check (the tests do, against the
checked helpers in tests/oracles.py).

All randomness is confined to one seeded generator per chop or spectrum
call: numpy.random.default_rng(seed) in chop, whose helpers the tests
drive with numpy generators, and the standard library's
random.Random(seed) for the one element that spectrum's split route
draws, so verify and characters on a split H never load numpy.random.
Both refuse a negative seed. All public outputs are canonically ordered,
so results are reproducible; spectrum's records do not depend on the
seed at all.
Nothing is cached: a run reads each algebra once and passes the result on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from .algebra import StructureConstantAlgebra
from .errors import BudgetExceeded
from .linalg import (
    Subspace,
    asmat,
    irreducible_factors,
    kernel,
    matmul_mod,
    modinv,
    null_space,
    rref,
    tensordot_mod,
)


# elements chop may try for one module of its split tree, the one inherited
# from its parent included, before it gives up (BudgetExceeded)
MAX_ATTEMPTS = 256
# kernel vectors spun per irreducible factor before the dual criterion decides
SPIN_VECTORS_PER_KERNEL = 8


@dataclass
class SimpleRecord:
    """A simple module, by its action stack (one matrix per basis element of
    the algebra), with its annihilator, a primitive ideal, and its
    multiplicity in the regular module."""

    action: np.ndarray
    annihilator: Subspace
    multiplicity: int

    @property
    def dim(self) -> int:
        return self.action.shape[1]


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


def spin(action: np.ndarray, seed_rows, field) -> Subspace:
    """Smallest action-invariant subspace containing the seed rows: with a
    matrix A_b per basis element b of a unital algebra, span{A_b w} holds w
    (b = 1) and is invariant (A_c A_b = A_cb), so no loop re-checks it. The
    same holds for the dual (transposed) stack."""
    m = action.shape[1]
    imgs = matmul_mod(action, asmat(seed_rows, field.p).T, field.p)  # (n, m, k)
    return Subspace(field, m, imgs.transpose(0, 2, 1).reshape(-1, m))


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


def poly_eval_matrix(coeffs_desc, theta: np.ndarray, p: int) -> np.ndarray:
    """g(theta) for a matrix theta reduced mod p, by Horner's rule started at
    the leading terms c0*theta + c1*I (each entry below 2**62 + 2**31): a
    polynomial of degree d >= 1 takes d - 1 products, a linear one none."""
    coeffs = [int(c) % p for c in coeffs_desc]
    eye = np.eye(theta.shape[0], dtype=np.int64)
    out = coeffs[0] * eye if len(coeffs) == 1 else (coeffs[0] * theta + coeffs[1] * eye) % p
    for c in coeffs[2:]:
        out = (matmul_mod(out, theta, p) + c * eye) % p
    return out


def restrict_action(action: np.ndarray, sub: Subspace, p: int) -> np.ndarray:
    """Action matrices on an invariant subspace, in its RREF basis: the pivot
    rows of the image. Invariance is not re-checked; chop passes spun
    subspaces (see spin) and their Norton complements, invariant by duality."""
    return matmul_mod(action[:, list(sub.pivots), :], sub.basis.T, p)


def quotient_action(action: np.ndarray, sub: Subspace, p: int) -> np.ndarray:
    """Action on the quotient by an invariant subspace, in the standard vectors
    at the other columns: x mod sub is x[rest] - basis[:, rest]^T x[pivots].
    Only the rows at rest and at the pivots of the images of the quotient
    basis are gathered, and the difference is taken in place."""
    rest = sub.free_columns()
    pivots = np.array(sub.pivots, dtype=np.intp)
    out = action[:, rest[:, None], rest]  # (n, q, q)
    out -= matmul_mod(sub.basis[:, rest].T, action[:, pivots[:, None], rest], p)
    out %= p
    return out


def _try_split(action, field, rng, inherited=None):
    """(a proper nonzero invariant subspace, or None if certified simple; the
    deciding element as (coefficients h, factor g)), within MAX_ATTEMPTS
    elements. The inherited (h, g), from the split of the parent, is tried
    first; then random elements."""
    p = field.p
    n, m, _ = action.shape
    if m == 1:
        return None, None
    for attempt in range(MAX_ATTEMPTS):
        if attempt == 0 and inherited is not None:
            coeffs, g = inherited
            theta = tensordot_mod(coeffs, action, ([0], [0]), p)
            factors = [g]
        else:
            coeffs = rng.integers(0, p, size=n)
            theta = tensordot_mod(coeffs, action, ([0], [0]), p)
            v = rng.integers(0, p, size=m)
            if not v.any():
                continue
            factors = (g for g, _mult in irreducible_factors(minpoly_on_vector(theta, v, p), p))
        for g in factors:
            gtheta = poly_eval_matrix(g, theta, p)
            nullsp = kernel(gtheta, p)
            if nullsp.shape[0] == 0:
                continue
            for w in nullsp[:SPIN_VECTORS_PER_KERNEL]:
                w_spun = spin(action, [w], field)
                if 0 < w_spun.dim < m:
                    return w_spun, (coeffs, g)
            if nullsp.shape[0] == len(g) - 1:
                # good element: the dual criterion is decisive
                dual_null = kernel(poly_eval_matrix(g, theta.T % p, p), p)
                u_spun = spin(action.transpose(0, 2, 1), [dual_null[0]], field)
                if u_spun.dim < m:
                    perp = null_space(u_spun.basis, field)
                    assert 0 < perp.dim < m
                    return perp, (coeffs, g)
                return None, (coeffs, g)
    raise BudgetExceeded(
        f"the attempt budget of {MAX_ATTEMPTS} elements (repn.MAX_ATTEMPTS) ran "
        f"out before a decisive splitting element was found for a module of "
        f"dimension {m} over F_{p}"
    )


def _central_pieces(alg: StructureConstantAlgebra, rng) -> list:
    """The regular module split along a random central element z: the
    nonzero generalized eigenspaces of the left multiplication by z, as
    subspaces (left ideals, whose actions the split stack reads from mul
    when it reaches them), or the dense action stack of the whole module
    in one piece when z does not split it (see the module docstring)."""
    centre, p = alg.centre, alg.field.p
    factors, pieces = [], []
    if centre.dim > 1:
        z = matmul_mod(rng.integers(0, p, size=centre.dim), centre.basis, p)
        left_z = alg.left_mult_matrix(z)
        # z times the basis of Z, in Z's coordinates: the pivot entries of an RREF basis
        piv = list(centre.pivots)
        on_centre = matmul_mod(left_z, centre.basis.T, p)[piv]
        factors = list(irreducible_factors(minpoly_on_vector(on_centre, alg.unit[piv], p), p))
    if len(factors) > 1:
        for g, mult in factors:
            power = poly_eval_matrix(g, left_z, p)
            for _ in range((mult - 1).bit_length()):  # g(left_z)^(2^s) with 2^s >= mult
                power = matmul_mod(power, power, p)
            piece = null_space(power, alg.field)
            if piece.dim:
                pieces.append(piece)
    if sum(piece.dim for piece in pieces) != alg.dim:
        return [alg.left_regular()]
    return pieces


def _split_to_simples(alg: StructureConstantAlgebra, pieces: list, rng) -> list[np.ndarray]:
    """Leaves of the MeatAxe split tree over each central piece; a piece
    given as a left ideal gets its action when it is popped. The submodule
    child of a split first tries the element that split its parent; the
    quotient child does so only when the submodule is at least a third of
    the quotient. That element tends to split the quotient again into a
    submodule of about the same size, and each split pays quotient_action's
    copy of the whole quotient, so on a much larger quotient it would peel
    off small submodules one copy at a time."""
    field = alg.field
    stack = [(piece, None) for piece in pieces]
    leaves = []
    while stack:
        act, inherited = stack.pop()
        if isinstance(act, Subspace):
            act = alg.left_ideal_action(act)
        w, decider = _try_split(act, field, rng, inherited)
        if w is None:
            leaves.append(act)
            continue
        stack.append((restrict_action(act, w, field.p), decider))
        stack.append((quotient_action(act, w, field.p), decider if 3 * w.dim >= w.ambient - w.dim else None))
    return leaves


def _merge_leaves(alg: StructureConstantAlgebra, leaves: list[np.ndarray]) -> list[SimpleRecord]:
    """Simple records, one per (dimension, annihilator), sorted by that key."""
    # cheap first pass: identical action stacks are identical modules (the
    # byte length fixes the dimension; 1-dim actions are canonical scalars)
    by_bytes: dict[bytes, tuple[np.ndarray, int]] = {}
    for act in leaves:
        key = act.tobytes()
        stack_, count = by_bytes.get(key, (act, 0))
        by_bytes[key] = (stack_, count + 1)
    classes: dict[tuple[int, bytes], SimpleRecord] = {}
    for act, count in by_bytes.values():
        ann = annihilator(alg, act)
        key = (act.shape[1], ann.key())
        if key in classes:
            classes[key].multiplicity += count
        else:
            classes[key] = SimpleRecord(act, ann, count)
    return [classes[key] for key in sorted(classes)]


def chop(alg: StructureConstantAlgebra, seed: int = 0) -> list[SimpleRecord]:
    """The simple modules of the algebra, with annihilators and
    multiplicities: the composition factors of its regular module,
    canonically ordered.

    The regular module is first split into its central pieces
    (_central_pieces); each piece then seeds the split stack. Every leaf of
    the split tree is a subquotient of the regular module, so its action is
    an algebra map by exactness and is not checked, nor is the invariance of
    the subspaces it splits along (see spin). Leaves are merged by
    (dimension, annihilator), which decides isomorphism: two simples with
    one annihilator P are both the simple module of the simple artinian
    B/P. The records are sorted by that key. The multiset of factors is
    independent of the seed; the attempt budget guards the randomized
    search for each module of the split tree.
    """
    rng = np.random.default_rng(seed)
    leaves = _split_to_simples(alg, _central_pieces(alg, rng), rng)
    assert sum(a.shape[1] for a in leaves) == alg.dim
    return _merge_leaves(alg, leaves)


def spectrum(alg: StructureConstantAlgebra, seed: int = 0) -> list[SpectrumRecord]:
    """The primitive ideals of the algebra, each with its simple module's
    dimension and its annihilator in the dual, ordered by (dimension,
    annihilator), as chop orders its records: read off the primitive
    idempotents of the centre of H/R0 (_block_records) where that is
    certified, else off chop(alg, seed), errors included (see the module
    docstring)."""
    if seed < 0:  # as numpy's generator, which chop seeds, refuses it on either route
        raise ValueError("expected non-negative integer")
    if alg.certified and alg.trace_radical.dim < alg.dim:
        records = _block_records(alg, random.Random(seed))
        if records is not None:
            return records
    # P^perp is the span of the matrix coefficients, the action flattened to (d^2, n)
    return [SpectrumRecord(rec.dim, rec.annihilator,
                           Subspace(alg.field, alg.dim, rec.action.reshape(alg.dim, -1).T))
            for rec in chop(alg, seed)]


def _block_records(alg: StructureConstantAlgebra, rng: random.Random) -> list[SpectrumRecord] | None:
    """The records of the blocks of H/R0, or None where they are not
    certified: a nonlinear or repeated factor, fewer idempotents than
    dim Z(H/R0), or, with R0 != 0, a count short of simple_count."""
    radical, p = alg.trace_radical, alg.field.p
    if radical.dim:
        # Z(H/R0) is the joint kernel of x -> g x - x g over the classes of G
        gens = radical.quotient_map()[list(alg.generators)]
        comm = (alg.quotient_mult(radical, gens, left=True) - alg.quotient_mult(radical, gens)) % p
        centre = null_space(comm.transpose(0, 2, 1).reshape(-1, comm.shape[1]), alg.field)
    else:
        centre = alg.centre
    idempotents = _primitive_idempotents(alg, centre, rng)
    if idempotents is None or (radical.dim and len(idempotents) != alg.simple_count):
        return None
    # P^perp is spanned by the coordinates of x -> x e mod R0, the rows of
    # (e_{r_a} e)^T reduced mod R0 and read back on H through the quotient map
    blocks = alg.quotient_mult(radical, idempotents).transpose(0, 2, 1)
    if radical.dim:
        blocks = matmul_mod(blocks, radical.quotient_map().T, p)
    records = []
    for rows in blocks:
        dual = Subspace(alg.field, alg.dim, rows)
        records.append(SpectrumRecord(isqrt(dual.dim), null_space(dual.basis, alg.field), dual))
    return sorted(records, key=lambda rec: (rec.dim, rec.annihilator.key()))


def _primitive_idempotents(alg: StructureConstantAlgebra, centre: Subspace,
                           rng: random.Random) -> np.ndarray | None:
    """The primitive idempotents of Zbar = Z(H/R0), given by its basis in the
    coordinates of H/R0, as rows in those coordinates; None unless they
    number dim Zbar and every minimal polynomial on the way splits into
    distinct linear factors. The unit is split first by the roots of one
    element of Zbar with coordinates drawn from rng (a random.Random, not
    numpy's generator, whose import a split run would otherwise pay for
    this one draw), then each idempotent by the basis elements of
    Zbar in turn (_split_by_roots), until there are dim Zbar of them.
    Products in Zbar are read in its own coordinates, the pivot entries of
    its RREF basis, from one quotient_mult per batch of elements."""
    p, k = alg.field.p, centre.dim
    basis, piv = centre.basis, list(centre.pivots)

    def on_centre(rows):  # column j of matrix i: the coordinates of rows_i * basis_j
        return matmul_mod(basis, alg.quotient_mult(alg.trace_radical, rows), p)[:, :, piv].transpose(0, 2, 1)

    unit = matmul_mod(alg.unit, alg.trace_radical.quotient_map(), p)[piv]
    z = matmul_mod(np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64), basis, p)
    idempotents = _split_by_roots(on_centre(z[None])[0], [unit], p)
    if idempotents is not None and len(idempotents) < k:
        for theta in on_centre(basis):
            idempotents = _split_by_roots(theta, idempotents, p)
            if idempotents is None or len(idempotents) == k:
                break
    if idempotents is None or len(idempotents) < k:
        return None
    return matmul_mod(np.array(idempotents), basis, p)


def _split_by_roots(theta: np.ndarray, idempotents: list, p: int) -> list | None:
    """Orthogonal idempotents of a commutative algebra, given as coordinate
    vectors that sum to its unit, each split by the multiplication theta by
    some element z: if the minimal polynomial of theta at the unit is
    prod (x - l_i) over distinct roots, the L_i(z), L_i the Lagrange
    polynomials of the roots, are orthogonal idempotents that sum to 1, so
    each e is the sum of its nonzero parts e L_i(z), read off the Krylov
    rows theta^j e of all the e at once. None if a factor is nonlinear or
    repeated."""
    roots = []
    for g, mult in irreducible_factors(minpoly_on_vector(theta, sum(idempotents) % p, p), p):
        if len(g) != 2 or mult != 1:
            return None
        roots.append(-g[1] % p)
    if len(roots) == 1:
        return idempotents
    krylov = [np.array(idempotents)]
    for _ in roots[1:]:
        krylov.append(matmul_mod(krylov[-1], theta.T, p))
    parts = matmul_mod(_lagrange(roots, p), np.stack(krylov, axis=1), p)  # (e, root, coordinate)
    return [part for part in parts.reshape(-1, theta.shape[0]) if part.any()]


def _lagrange(roots: list[int], p: int) -> np.ndarray:
    """Row i: the coefficients, lowest degree first, of the Lagrange
    polynomial L_i = prod_{j != i} (x - l_j) / (l_i - l_j) of distinct roots."""
    full = [1]  # prod (x - l_j), highest degree first
    for root in roots:
        full = [(a - root * b) % p for a, b in zip(full + [0], [0] + full)]
    rows = []
    for root in roots:
        quotient = [1]  # full / (x - root), by synthetic division
        for c in full[1:-1]:
            quotient.append((c + root * quotient[-1]) % p)
        value = 0
        for c in quotient:
            value = (value * root + c) % p
        inv = modinv(value, p)
        rows.append([c * inv % p for c in quotient[::-1]])
    return np.array(rows, dtype=np.int64)


def annihilator(alg: StructureConstantAlgebra, action: np.ndarray) -> Subspace:
    """Kernel of the action map of a module, given by its action stack, as a
    canonical subspace of the algebra.

    The action map of a module is an algebra homomorphism, so its kernel is
    a two-sided ideal; that is not re-derived here.
    """
    m = action.shape[1]
    return null_space(action.reshape(alg.dim, m * m).T, alg.field)
