"""Bialgebra and Hopf algebra structure on a structure-constant algebra.

Comultiplication is stored once, as a rank-3 :class:`~hopfib.linalg.SparseTensor`
whose key (i*n + a)*n + b holds the coefficient of e_a (x) e_b in
Delta(e_i). The tensor square B (x) B is identified with F_p**(n*n)
through the flat index a*n + b.

verify_structure checks every axiom on basis elements and reports a
witness index for each failure, the lexicographically smallest failing one:

  * Delta(1) = 1 (x) 1 and eps(1) = 1
  * coassociativity and both counit laws on every basis element
  * Delta and eps multiplicative on every basis pair
  * both antipode identities on every basis element (when an antipode is
    present)

Most laws need only their first factor in the algebra's generating set G
(algebra.StructureConstantAlgebra.generators), by a subalgebra argument.
Once the algebra is certified (unit laws and associativity) and
Delta(1) = 1 (x) 1 and eps(1) = 1 hold, the x with Delta(xy) = Delta(x)Delta(y)
for all y form a unital subalgebra, and likewise for eps; so both
multiplicativity laws need x in G only. Once both are multiplicative as
well, both sides of coassociativity and of each counit law are algebra
maps, and the set where two algebra maps agree is a unital subalgebra; so
those laws need x in G only. The antipode laws stay exhaustive: nothing
makes S anti-multiplicative before they hold. A law whose prerequisites
were not established, or that fails on G, is checked on every basis
element (algebra.first_failure), so witnesses do not depend on G.

Each law is two sparse contractions of the structure constants compared
by linalg.first_difference. Convolution, winding maps and the character
group X are built on the same sparse data. Those derived objects are built
once from the verified axioms and not re-proved: products of characters
are characters, winding maps are algebra maps, and the winding maps of X
fix A pointwise and preserve every fiber ideal. coideal_subalgebra proves
A a unital subalgebra once, at load. character_group_X takes X's members
from its caller, who reads them off the simple modules over the counit of
A (one_dim_characters), and certifies the group law from the products by
its generators alone. character_kernel carries ker(xi) into H, once per
fiber (specmap.fibers, which orders the fibers by its key), and fiber_dim
reads dim H/H*ker(xi) off one ideal closure of that kernel and builds no
quotient. enumerate_characters reads the 1-dimensional records of
repn.spectrum, each character off the record's dual: every character
kills J(H), so the simples of H/J(H) hold them all.
The quotient algebras and the coproduct and antipode the counit fiber
inherits are test oracles (tests/oracles.py). The tests hold each of these
facts on the shipped corpus, and two the verifier does not use: chi o S is
the convolution inverse of chi, and the adjoint action (tests/oracles.py)
is a module structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    StructureConstantAlgebra,
    _check_associative,
    _check_unit,
    first_failure,
    ideal_closure,
    is_subalgebra,
)
from .errors import (
    DimensionMismatch,
    HopfibError,
    ImproperIdeal,
    NotACoideal,
    NotASubalgebra,
    NotAssociative,
    StructureCheckFailed,
    UnitAxiomFails,
)
from .linalg import (
    SparseTensor,
    Subspace,
    asmat,
    contract,
    first_difference,
    kernel,
    matmul_mod,
    permute,
    restrict_first,
)
from .repn import spectrum


# -- data ------------------------------------------------------------------


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    witness: object = None


@dataclass
class StructureReport:
    checks: list[AxiomCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[AxiomCheck]:
        return [c for c in self.checks if not c.passed]


class BialgebraData:
    """Algebra plus comultiplication, counit and optional antipode.

    Use :func:`build_bialgebra` to construct verified instances; the raw
    constructor only shapes the data, for axiom reports on possibly-broken
    input files (the CLI).
    """

    __slots__ = ("alg", "comul", "counit", "antipode")

    def __init__(self, alg: StructureConstantAlgebra, comul_entries, counit, antipode=None):
        p = alg.field.p
        n = alg.dim
        self.alg = alg
        self.comul = SparseTensor.from_entries(n, 3, comul_entries, p)
        self.counit = asmat(counit, p)
        if self.counit.shape != (n,):
            raise DimensionMismatch("counit vector has wrong length")
        self.counit.setflags(write=False)
        if antipode is not None:
            antipode = asmat(antipode, p)
            if antipode.shape != (n, n):
                raise DimensionMismatch("antipode matrix has wrong shape")
            antipode.setflags(write=False)
        self.antipode = antipode

    @property
    def field(self):
        return self.alg.field

    @property
    def dim(self):
        return self.alg.dim

    def comul_of(self, vec) -> np.ndarray:
        """Delta(vec) as an (n, n) matrix over the tensor-square legs."""
        p = self.field.p
        return contract(SparseTensor.from_dense(asmat(vec, p)), self.comul, 1, p).dense()

    def __repr__(self):
        kind = "Hopf" if self.antipode is not None else "bialgebra"
        return f"BialgebraData(dim={self.dim}, p={self.field.p}, {kind})"


@dataclass(frozen=True)
class Character:
    """Multiplicative linear functional onto F_p, as a dual vector."""

    p: int
    values: tuple[int, ...]

    @classmethod
    def from_vector(cls, p, values) -> "Character":
        return cls(p, tuple(int(v) % p for v in values))

    def vector(self) -> np.ndarray:
        return np.array(self.values, dtype=np.int64)


# -- axiom verification ----------------------------------------------------


def verify_structure(b: BialgebraData) -> StructureReport:
    """Bialgebra/Hopf axiom report with failure witnesses.

    Each law compares two sparse tensors whose leading axes index the basis
    elements it is checked on; the witness is that prefix of the first
    index where the two sides differ. Each is one chain over an index set
    for its first factor: the algebra's generators where the module
    docstring's prerequisites hold, which must then pass, else every basis
    element. With m the multiplication tensor (i, j, k) and d = Delta
    (i, a, b), first factor i:

      * coassociativity: sum_a d[i,a,z] d[a,x,y] against sum_b d[i,x,b] d[b,y,z];
      * Delta multiplicative: sum_m m[i,j,m] d[m,u,v] against
        sum d[i,a,b] d[j,c,d] m[a,c,u] m[b,d,v], contracted over a, then c,
        then (b, d);
      * antipode: sum d[i,a,b] S(e_a) e_b and sum d[i,a,b] e_a S(e_b)
        against eps(e_i) 1.
    """
    p = b.field.p
    n = b.dim
    alg = b.alg
    eps = SparseTensor.from_dense(b.counit)
    unit = SparseTensor.from_dense(alg.unit)
    mul, d = alg.mul, b.comul
    d_ba = permute(d, (0, 2, 1))  # (i, b, a)
    gens = alg.generators if alg.certified else None
    checks: dict[str, AxiomCheck] = {}

    def law(name, chain, on_gens, prefix=1):
        at = first_failure(chain, gens if on_gens else None)
        witness = None if at is None else (at[0] if prefix == 1 else at[:prefix])
        checks[name] = AxiomCheck(name, at is None, witness)
        return at is None

    def outer(u, v):
        return SparseTensor.from_dense(np.outer(u, v) % p)

    # the unit laws have the single witness 0
    for name, ok in (
        ("comul_unit", first_difference(contract(unit, d, 1, p), outer(alg.unit, alg.unit)) is None),
        ("counit_unit", int(matmul_mod(b.counit, alg.unit, p)) == 1),
    ):
        checks[name] = AxiomCheck(name, ok, None if ok else 0)
    units = checks["comul_unit"].passed and checks["counit_unit"].passed

    def comul_multiplicative(first):
        ibcu = contract(restrict_first(d_ba, first), mul, 1, p)
        ibujd = contract(permute(ibcu, (0, 1, 3, 2)), permute(d, (1, 0, 2)), 1, p)
        iujv = contract(permute(ibujd, (0, 2, 3, 1, 4)), mul, 2, p)
        lhs = contract(restrict_first(mul, first), d, 1, p)
        return first_difference(lhs, permute(iujv, (0, 2, 1, 3)))

    def counit_multiplicative(first):
        lhs = contract(restrict_first(mul, first), eps, 1, p)
        return first_difference(lhs, restrict_first(outer(b.counit, b.counit), first))

    multiplicative = [law("comul_multiplicative", comul_multiplicative, units, 2),
                      law("counit_multiplicative", counit_multiplicative, units, 2)]
    eye = SparseTensor.from_dense(np.eye(n, dtype=np.int64))
    coalgebra = units and all(multiplicative)
    law("coassociativity", lambda first: first_difference(
        permute(contract(restrict_first(d_ba, first), d, 1, p), (0, 2, 3, 1)),
        contract(restrict_first(d, first), d, 1, p)), coalgebra)
    law("counit_left", lambda first: first_difference(
        contract(restrict_first(d_ba, first), eps, 1, p), restrict_first(eye, first)), coalgebra)
    law("counit_right", lambda first: first_difference(
        contract(restrict_first(d, first), eps, 1, p), restrict_first(eye, first)), coalgebra)
    if b.antipode is not None:
        s = SparseTensor.from_dense(np.ascontiguousarray(b.antipode.T))  # (a, x): S(e_a)
        ibx = contract(d_ba, s, 1, p)
        expected = outer(b.counit, alg.unit)
        law("antipode_left", lambda _: first_difference(
            contract(permute(ibx, (0, 2, 1)), mul, 2, p), expected), False)
        law("antipode_right", lambda _: first_difference(
            contract(contract(d, s, 1, p), mul, 2, p), expected), False)
    order = ("comul_unit", "counit_unit", "coassociativity", "counit_left", "counit_right",
             "comul_multiplicative", "counit_multiplicative", "antipode_left", "antipode_right")
    return StructureReport([checks[name] for name in order if name in checks])


def axiom_checks(b: BialgebraData) -> StructureReport:
    """Every axiom of possibly-broken data: the unit laws (witness: the
    first failing basis index), associativity (the first failing triple, on
    the generators once the unit laws hold), then verify_structure's laws.
    The algebra is certified when the first two hold."""
    alg = b.alg
    try:
        _check_unit(alg)
        unit = AxiomCheck("unit", True)
    except UnitAxiomFails as exc:
        unit = AxiomCheck("unit", False, exc.witness)
    try:
        _check_associative(alg, alg.generators if unit.passed else None)
        assoc = AxiomCheck("associativity", True)
    except NotAssociative as exc:
        assoc = AxiomCheck("associativity", False, exc.witness)
    alg.certified = unit.passed and assoc.passed
    return StructureReport([unit, assoc] + verify_structure(b).checks)


def build_bialgebra(alg, comul_entries, counit, antipode=None) -> BialgebraData:
    """Construct a bialgebra (or Hopf algebra) and verify every axiom."""
    b = BialgebraData(alg, comul_entries, counit, antipode)
    report = verify_structure(b)
    if not report.passed:
        raise StructureCheckFailed(report)
    return b


# -- characters and convolution ---------------------------------------------


def one_dim_characters(alg: StructureConstantAlgebra, records) -> list[Character]:
    """The characters among the simple modules of spectrum records: a 1-dim
    module is an algebra map onto F_p (not checked again), read off its
    dual (SpectrumRecord.central_character). Sorted lexicographically by
    value vector."""
    return sorted((Character.from_vector(alg.field.p, rec.central_character(alg.unit))
                   for rec in records if rec.dim == 1), key=lambda c: c.values)


def enumerate_characters(b_or_alg, seed: int = 0) -> list[Character]:
    """All algebra maps onto F_p, the 1-dim simple modules of the spectrum
    (repn.spectrum): complete because every character kills J(H)."""
    alg = b_or_alg.alg if isinstance(b_or_alg, BialgebraData) else b_or_alg
    return one_dim_characters(alg, spectrum(alg, seed=seed))


def counit_character(b: BialgebraData) -> Character:
    return Character.from_vector(b.field.p, b.counit)


def convolve(b: BialgebraData, chi: Character, chi2: Character) -> Character:
    """(chi * chi2)(x) = sum chi(x_1) chi2(x_2).

    The result is a character because Delta is multiplicative (checked
    when the bialgebra was built); that is not checked again here.
    """
    p = b.field.p
    v1, v2 = (SparseTensor.from_dense(c.vector()) for c in (chi, chi2))
    return Character.from_vector(p, contract(contract(b.comul, v2, 1, p), v1, 1, p).dense())


# -- winding maps ------------------------------------------------------------


def winding(b: BialgebraData, chi: Character, side: str = "right") -> np.ndarray:
    """Matrix of the winding map attached to a character.

    side='right': x -> sum chi(x_1) x_2; side='left': x -> sum x_1 chi(x_2).
    Since Delta and chi are multiplicative (Delta by the axioms checked when
    the bialgebra was built), the result is an algebra endomorphism; with an
    antipode it is invertible, its inverse being the winding map of chi o S.
    Neither fact is checked again here.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    p = b.field.p
    # chi is contracted with the last leg: x_1 after swapping the legs for 'right'
    delta = permute(b.comul, (0, 2, 1)) if side == "right" else b.comul
    return contract(delta, SparseTensor.from_dense(chi.vector()), 1, p).dense().T


# -- coideal subalgebras and the character group X ---------------------------


@dataclass
class CoidealSubalgebra:
    """Unital subalgebra that is also a right coideal; built by coideal_subalgebra."""

    subspace: Subspace

    @property
    def dim(self):
        return self.subspace.dim


def is_right_coideal(b: BialgebraData, a: Subspace) -> bool:
    """Delta(A) contained in A (x) B, checked on a basis of A."""
    if not is_subalgebra(b.alg, a):
        raise NotASubalgebra("subspace is not a unital subalgebra")
    for v in a.basis:
        m = b.comul_of(v)  # (left leg, right leg)
        if not a.contains_rows(m.T):
            return False
    return True


def coideal_subalgebra(b: BialgebraData, a: Subspace) -> CoidealSubalgebra:
    if not is_right_coideal(b, a):
        raise NotACoideal("Delta(A) is not contained in A (x) B")
    return CoidealSubalgebra(a)


@dataclass
class XGroup:
    """The group X of characters restricting to the counit on A, and the
    indices of its generators."""

    chars: list[Character]
    gens: list[int]

    @property
    def order(self):
        return len(self.chars)


def character_group_X(b: BialgebraData, members: list[Character]) -> XGroup:
    """X from its members, which the caller reads off the counit fiber.

    Each member not yet reached from the counit by right convolution with
    the generators so far becomes a generator, in index order; each product
    r * g of a reached member and a generator is formed once (|X| |gens|
    in all) and must be a member. As Delta is coassociative, X is then
    closed. Each generator needs some r * g = eps, a left inverse, which in
    a finite monoid is an inverse; a bialgebra may lack it: HopfibError.
    The generators' winding maps generate X's, since W_chi o W_psi winds
    by a convolution of chi and psi.
    """
    index = {c.values: i for i, c in enumerate(members)}
    ident = index.get(counit_character(b).values)
    if ident is None:
        raise HopfibError("counit is missing from the character set")
    reached, gens, product = [ident], [], {}  # product[r, g]: the index of members[r] * members[g]
    for i in range(len(members)):
        if i in reached:
            continue
        gens.append(i)
        todo = [(r, i) for r in reached]
        while todo:
            r, g = todo.pop()
            product[r, g] = index.get(convolve(b, members[r], members[g]).values)
            if product[r, g] is None:
                raise HopfibError("character set is not closed under convolution")
            if product[r, g] not in reached:
                reached.append(product[r, g])
                todo += [(product[r, g], h) for h in gens]
    if not all(ident in (product[r, g] for r in reached) for g in gens):
        raise HopfibError("character has no convolution inverse in the set")
    return XGroup(members, gens)


# -- fibers over the characters of A ----------------------------------------


def character_kernel(a: CoidealSubalgebra, xi: Character) -> Subspace:
    """ker(xi) in H's coordinates, for xi a character of A in the coordinates
    of its canonical basis. A primitive ideal P holds it iff P meets A in
    exactly ker(xi), as P intersect A is a proper ideal of A and ker(xi) has
    codimension 1; and iff P holds the ideal H*ker(xi) it generates."""
    field = a.subspace.field
    rows = matmul_mod(kernel(xi.vector()[None, :], field.p), a.subspace.basis, field.p)
    return Subspace(field, a.subspace.ambient, rows)


def fiber_dim(b: BialgebraData, kernel: Subspace) -> int:
    """dim H/H*K for K = ker(xi) in H's coordinates (character_kernel), read
    off one ideal_closure; ImproperIdeal if that ideal is all of H. Since A
    is central (specmap checks that once per run), H*K = K*H is that ideal."""
    ideal = ideal_closure(b.alg, kernel)
    if ideal.contains_vector(b.alg.unit):
        raise ImproperIdeal("ideal contains the unit")
    return b.dim - ideal.dim
