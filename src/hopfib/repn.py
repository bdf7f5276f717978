"""The simple modules of a structure-constant algebra: the composition
factors of its regular module (chop), or of H/R0 where a count certifies
that every simple occurs there (spectrum).

spectrum is what verify and characters read. Every primitive ideal holds
J(H), so they need the simples of H/J(H) only. R0, the radical of the trace
form, holds J(H) (algebra module docstring), so the H-module H/R0 has
simples of H only; its action is read from mul
(StructureConstantAlgebra.left_quotient_action), split along the centre as
below, chopped, and its leaves merged by their annihilators in H, so
nothing is pulled back or re-sorted. Its records are accepted iff they
number dim H/T(H) (StructureConstantAlgebra.simple_count), which proves that
none is missing and that F_p splits H; a record's multiplicity is then its
multiplicity in H/J(H), its dimension, not its multiplicity in H. Otherwise,
and on semisimple H (R0 = 0), spectrum is chop: simples reports
multiplicities in H and keeps chop.

The decomposition ("chop") takes the regular module only: every simple
module occurs in it. It first splits the module along its centre. It
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

All randomness is confined to one seeded generator per chop call, and all
public outputs are canonically ordered, so results are reproducible.
Nothing is cached: a run chops each algebra once and passes the result on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import StructureConstantAlgebra
from .errors import BudgetExceeded
from .linalg import (
    Subspace,
    asmat,
    irreducible_factors,
    kernel,
    matmul_mod,
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


def _central_pieces(alg: StructureConstantAlgebra, rng, action=None) -> list:
    """A module split along a random central element z: the nonzero
    generalized eigenspaces of rho(z). For the regular module (action None)
    rho(z) is the left multiplication by z, and the pieces are subspaces
    (left ideals, whose actions the split stack reads from mul when it
    reaches them), or the dense action stack of the whole module in one
    piece when z does not split it (see the module docstring). For a module
    given by its action stack, the pieces are its restrictions, or the
    stack itself."""
    centre, p = alg.centre, alg.field.p
    factors, pieces = [], []
    if centre.dim > 1:
        z = matmul_mod(rng.integers(0, p, size=centre.dim), centre.basis, p)
        left_z = alg.left_mult_matrix(z)
        # z times the basis of Z, in Z's coordinates: the pivot entries of an RREF basis
        piv = list(centre.pivots)
        on_centre = matmul_mod(left_z, centre.basis.T, p)[piv]
        factors = list(irreducible_factors(minpoly_on_vector(on_centre, alg.unit[piv], p), p))
        rho_z = left_z if action is None else tensordot_mod(z, action, ([0], [0]), p)
    if len(factors) > 1:
        for g, mult in factors:
            power = poly_eval_matrix(g, rho_z, p)
            for _ in range((mult - 1).bit_length()):  # g(rho(z))^(2^s) with 2^s >= mult
                power = matmul_mod(power, power, p)
            piece = null_space(power, alg.field)
            if piece.dim:
                pieces.append(piece)
    if action is not None:
        return [restrict_action(action, piece, p) for piece in pieces] if len(pieces) > 1 else [action]
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


def spectrum(alg: StructureConstantAlgebra, seed: int = 0) -> list[SimpleRecord]:
    """The simple modules of the algebra, with their annihilators, read off
    H/R0, R0 the radical of the trace form (StructureConstantAlgebra.trace_radical),
    where the count of simple modules certifies it; else chop's records.

    R0 is a two-sided ideal that holds J(H), so the simples of H/R0 are
    simples of H. The H-module H/R0 is chopped with its action read from
    mul (left_quotient_action) and its leaves merged by their annihilators
    in H. The records are accepted iff there are simple_count of them: that
    count is the sum of the degrees of End(S) over F_p, at least the number
    of simples of H, so equality proves that no simple is missing and that
    F_p splits H; then R0 = J(H), and each multiplicity is that in
    H/J(H), the simple's dimension. Otherwise (p divides some [H:S], F_p
    does not split H, R0 = H as for a modular group algebra, or data that
    is not certified) this is chop(alg, seed), errors included; with R0 = 0
    H is semisimple and chop reads the regular module as it is."""
    if alg.certified and 0 < alg.trace_radical.dim < alg.dim:
        rng = np.random.default_rng(seed)
        pieces = _central_pieces(alg, rng, alg.left_quotient_action(alg.trace_radical))
        leaves = _split_to_simples(alg, pieces, rng)
        records = _merge_leaves(alg, leaves)
        if len(records) == alg.simple_count:
            return records
    return chop(alg, seed)


def annihilator(alg: StructureConstantAlgebra, action: np.ndarray) -> Subspace:
    """Kernel of the action map of a module, given by its action stack, as a
    canonical subspace of the algebra.

    The action map of a module is an algebra homomorphism, so its kernel is
    a two-sided ideal; that is not re-derived here.
    """
    m = action.shape[1]
    return null_space(action.reshape(alg.dim, m * m).T, alg.field)
