"""Finite-dimensional associative unital algebras given by structure constants.

An algebra of dimension n over F_p is stored as the canonical rank-3
:class:`~hopfib.linalg.SparseTensor` ``mul``, whose entry (i, j, k) is the
coefficient of e_k in e_i * e_j, together with the coefficient vector of
the unit. Products, multiplication matrices and the exhaustive axiom
checks are sparse contractions of ``mul``. The only dense views are the
regular module's action stacks :meth:`StructureConstantAlgebra.left_regular`
and :meth:`~StructureConstantAlgebra.right_regular`, built on demand for
the stacked products of ``chop``, ``center`` and the closures.

Associativity and the unit axioms are checked exhaustively once, when
:func:`build_algebra` reads the data, so everything downstream can assume
a genuine algebra. Algebras derived from a checked one (quotients by a
checked ideal, checked subalgebras) inherit the axioms and are built
without checking them again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    ImproperIdeal,
    NotAnIdeal,
    NotAssociative,
    NotASubalgebra,
    UnitAxiomFails,
)
from .linalg import (
    FieldSpec,
    SparseTensor,
    Subspace,
    asmat,
    complement_projection,
    contract,
    first_difference,
    joint_kernel,
    matmul_mod,
    permute,
)


@dataclass
class StructureConstantAlgebra:
    """Associative unital algebra over F_p with an explicit basis.

    Do not call the constructor directly unless the data is already known
    to satisfy the axioms; use :func:`build_algebra`, which verifies them.
    """

    field: FieldSpec
    dim: int
    unit: np.ndarray
    mul: SparseTensor  # rank 3: (i, j, k) holds the coefficient of e_k in e_i e_j
    labels: tuple[str, ...]

    def __post_init__(self):
        self.unit = asmat(self.unit, self.field.p)
        if self.unit.shape != (self.dim,):
            raise DimensionMismatch("unit vector has wrong length")
        if (self.mul.n, self.mul.rank) != (self.dim, 3):
            raise DimensionMismatch("multiplication tensor has wrong shape")
        if not self.labels:
            self.labels = tuple(f"e{i}" for i in range(self.dim))
        for arr in (self.unit, self.mul.keys, self.mul.vals):
            arr.setflags(write=False)

    # -- arithmetic ------------------------------------------------------

    def _sparse(self, v) -> SparseTensor:
        v = asmat(v, self.field.p)
        if v.shape != (self.dim,):
            raise DimensionMismatch(f"vector of shape {v.shape} in an algebra of dimension {self.dim}")
        return SparseTensor.from_dense(v)

    def multiply(self, u, v) -> np.ndarray:
        return matmul_mod(self.left_mult_matrix(u), asmat(v, self.field.p), self.field.p)

    def left_mult_matrix(self, v) -> np.ndarray:
        """Matrix of x -> v * x acting on column vectors."""
        return contract(self._sparse(v), self.mul, 1, self.field.p).dense().T

    def right_mult_matrix(self, v) -> np.ndarray:
        """Matrix of x -> x * v acting on column vectors."""
        p = self.field.p
        return contract(permute(self.mul, (0, 2, 1)), self._sparse(v), 1, p).dense().T

    def left_regular(self) -> np.ndarray:
        """Stack of left multiplication matrices, one per basis element."""
        return permute(self.mul, (0, 2, 1)).dense()

    def right_regular(self) -> np.ndarray:
        """Stack of right multiplication matrices, one per basis element."""
        return permute(self.mul, (1, 2, 0)).dense()

    def element_power(self, v, k: int) -> np.ndarray:
        out = self.unit.copy()
        base = asmat(v, self.field.p)
        while k:
            if k & 1:
                out = self.multiply(out, base)
            base = self.multiply(base, base)
            k >>= 1
        return out

    def digest(self) -> bytes:
        head = f"{self.dim},{self.field.p},".encode()
        return head + self.unit.tobytes() + self.mul.keys.tobytes() + self.mul.vals.tobytes()

    def __repr__(self):
        return f"StructureConstantAlgebra(dim={self.dim}, p={self.field.p})"


def _check_unit(field, dim, unit, mul):
    """1 e_i = e_i for every i, then e_i 1 = e_i; the witness is the first failing i."""
    p = field.p
    u = SparseTensor.from_dense(unit)
    eye = SparseTensor.from_dense(np.eye(dim, dtype=np.int64))
    sides = (("left", contract(u, mul, 1, p)), ("right", contract(permute(mul, (0, 2, 1)), u, 1, p)))
    for side, prod in sides:
        at = first_difference(prod, eye)
        if at is not None:
            raise UnitAxiomFails(at[0], side)


def _check_associative(field, dim, mul):
    """Exhaustive check of (e_i e_j) e_k = e_i (e_j e_k) for all triples.

    Both sides are sparse rank-4 tensors over (i, j, k, t), t indexing the
    coefficient of e_t: (e_i e_j) e_k = sum_s m[i,j,s] m[s,k,t] is one
    contraction of the multiplication tensor m with itself, and
    e_i (e_j e_k) = sum_s m[j,k,s] m[i,s,t] is m contracted with m
    permuted to (s, i, t), then permuted back from (j, k, i, t). The
    witness is the lexicographically smallest failing triple.
    """
    p = field.p
    lhs = contract(mul, mul, 1, p)
    rhs = permute(contract(mul, permute(mul, (1, 0, 2)), 1, p), (2, 0, 1, 3))
    at = first_difference(lhs, rhs)
    if at is not None:
        raise NotAssociative(*at[:3])


def build_algebra(field: FieldSpec, dim: int, unit, entries, labels=()) -> StructureConstantAlgebra:
    """Construct an algebra from sparse multiplication entries and verify it.

    Raises NotAssociative or UnitAxiomFails with a witness when the data
    does not define an associative unital algebra.
    """
    mul = SparseTensor.from_entries(dim, 3, entries, field.p)
    unit = asmat(unit, field.p)
    if unit.shape != (dim,):
        raise DimensionMismatch("unit vector has wrong length")
    _check_unit(field, dim, unit, mul)
    _check_associative(field, dim, mul)
    return StructureConstantAlgebra(field, dim, unit, mul, tuple(labels))


# -- subspaces of an algebra ---------------------------------------------


def multiply_rows_by_basis(alg, rows, side) -> np.ndarray:
    """All products e_i * v (side='left') or v * e_i (side='right'), as rows
    in no particular order."""
    stack = alg.left_regular() if side == "left" else alg.right_regular()
    imgs = matmul_mod(stack, asmat(rows, alg.field.p).T, alg.field.p)  # (i, k, r)
    return imgs.transpose(0, 2, 1).reshape(-1, alg.dim)


def ideal_closure(alg: StructureConstantAlgebra, seed: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the seed subspace."""
    if seed.ambient != alg.dim:
        raise DimensionMismatch("seed lives in the wrong ambient space")
    current = seed
    while True:
        rows = np.vstack(
            [
                current.basis,
                multiply_rows_by_basis(alg, current.basis, "left"),
                multiply_rows_by_basis(alg, current.basis, "right"),
            ]
        )
        bigger = Subspace(alg.field, alg.dim, rows)
        if bigger.dim == current.dim:
            return bigger
        current = bigger


def subalgebra_closure(alg: StructureConstantAlgebra, seed: Subspace) -> Subspace:
    """Smallest unital subalgebra containing the seed subspace."""
    current = Subspace(alg.field, alg.dim, np.vstack([seed.basis, alg.unit[None, :]]))
    while True:
        prods = []
        for v in current.basis:
            lm = alg.left_mult_matrix(v)
            prods.append(matmul_mod(current.basis, lm.T, alg.field.p))
        rows = np.vstack([current.basis] + prods)
        bigger = Subspace(alg.field, alg.dim, rows)
        if bigger.dim == current.dim:
            return bigger
        current = bigger


def is_subalgebra(alg: StructureConstantAlgebra, a: Subspace) -> bool:
    """True iff the subspace contains the unit and is closed under products."""
    if not a.contains_vector(alg.unit):
        return False
    for v in a.basis:
        lm = alg.left_mult_matrix(v)
        prods = matmul_mod(a.basis, lm.T, alg.field.p)
        if not a.contains_rows(prods):
            return False
    return True


def center(alg: StructureConstantAlgebra) -> Subspace:
    """Joint kernel of the commutator maps v -> e_i v - v e_i."""
    return joint_kernel(alg.field, (alg.left_regular() - alg.right_regular()) % alg.field.p)


def is_central_subalgebra(alg: StructureConstantAlgebra, a: Subspace) -> bool:
    if not is_subalgebra(alg, a):
        raise NotASubalgebra("subspace is not a unital subalgebra")
    return center(alg).contains(a)


def is_commutative(alg: StructureConstantAlgebra) -> bool:
    return first_difference(alg.mul, permute(alg.mul, (1, 0, 2))) is None


# -- quotients -------------------------------------------------------------


@dataclass
class QuotientData:
    """Quotient algebra together with the projection and a linear section.

    ``projection`` maps ambient coordinates onto quotient coordinates (a
    (q, n) matrix acting on column vectors) and ``section`` embeds quotient
    basis vectors back as ambient standard vectors ((n, q) matrix), so
    projection @ section = identity.
    """

    algebra: StructureConstantAlgebra
    projection: np.ndarray
    section: np.ndarray
    ideal: Subspace


def quotient_algebra(alg: StructureConstantAlgebra, ideal: Subspace) -> QuotientData:
    """Quotient by a proper two-sided ideal.

    The quotient basis consists of the images of the standard vectors at
    the non-pivot columns of the ideal's canonical basis, which makes the
    construction deterministic. The ideal is checked (NotAnIdeal,
    ImproperIdeal); the quotient's unit and associativity then follow from
    the algebra's and are not checked again.
    """
    p = alg.field.p
    if ideal.ambient != alg.dim:
        raise DimensionMismatch("ideal lives in the wrong ambient space")
    if ideal_closure(alg, ideal) != ideal:
        raise NotAnIdeal("subspace is not a two-sided ideal")
    if ideal.contains_vector(alg.unit):
        raise ImproperIdeal("ideal contains the unit")
    n = alg.dim
    qdim = n - ideal.dim
    proj, section, nonpivot = complement_projection(ideal)
    assert len(nonpivot) == qdim
    # products of the representatives, [a, k, b] = mul[nonpivot[a], nonpivot[b], k], projected
    reps = alg.left_regular()[nonpivot][:, :, nonpivot]
    qmul = SparseTensor.from_dense(matmul_mod(proj, reps, p).transpose(0, 2, 1))
    qunit = matmul_mod(proj, alg.unit, p)
    qlabels = tuple(alg.labels[c] for c in nonpivot)
    qalg = StructureConstantAlgebra(alg.field, qdim, qunit, qmul, qlabels)
    return QuotientData(qalg, proj, section, ideal)


def subalgebra_as_algebra(alg: StructureConstantAlgebra, a: Subspace):
    """Present a unital multiplicatively closed subspace as its own algebra.

    Returns (algebra, embedding) where embedding rows are the chosen basis
    of the subspace inside the ambient algebra. The subspace is checked to
    be a unital subalgebra (NotASubalgebra); its unit and associativity are
    inherited from the ambient algebra and are not checked again.
    """
    if not is_subalgebra(alg, a):
        raise NotASubalgebra("subspace is not a unital subalgebra")
    p = alg.field.p
    n, k = alg.dim, a.dim
    basis = a.basis
    piv = list(a.pivots)
    # coordinates w.r.t. an RREF basis are the pivot entries: [r, t, j] = (b_r e_j)[piv[t]]
    lefts = matmul_mod(basis, alg.left_regular()[:, piv].reshape(n, k * n), p).reshape(k, k, n)
    sub_mul = SparseTensor.from_dense(matmul_mod(lefts, basis.T, p).transpose(0, 2, 1))
    unit_coords = alg.unit[piv]
    sub = StructureConstantAlgebra(alg.field, k, unit_coords, sub_mul,
                                   tuple(f"a{i}" for i in range(k)))
    return sub, basis
