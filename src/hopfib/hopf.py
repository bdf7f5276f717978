"""Bialgebra and Hopf algebra structure on a structure-constant algebra.

Comultiplication is stored sparsely as entries (i, a, b, c) meaning that
Delta(e_i) contains c * e_a (x) e_b. The tensor square B (x) B is
identified with F_p**(n*n) through the flat index a*n + b.

verify_structure checks every axiom exhaustively on basis elements and
reports a witness index for each failure:

  * Delta(1) = 1 (x) 1 and eps(1) = 1
  * coassociativity on every basis element
  * both counit laws on every basis element
  * Delta and eps multiplicative on every basis pair
  * both antipode identities on every basis element (when an antipode is
    present)

Convolution, winding maps and the character group restricting trivially
to a coideal subalgebra are built on top of the same sparse data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    StructureConstantAlgebra,
    is_central_subalgebra,
    is_subalgebra,
    multiply_rows_by_basis,
    quotient_algebra,
    subalgebra_as_algebra,
)
from .errors import (
    DimensionMismatch,
    HopfibError,
    ImproperIdeal,
    NoAntipode,
    NotABimodule,
    NotACoideal,
    NotASubalgebra,
    NotCentral,
    StructureCheckFailed,
)
from .linalg import Subspace, asmat, joint_kernel, kernel, matmul_mod, tensordot_mod
from .repn import simples as _simples


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
    constructor only shapes the data. It serves axiom reports on
    possibly-broken input files (the CLI) and structures induced from a
    verified bialgebra (:func:`fiber_quotient`).
    """

    __slots__ = ("alg", "comul", "counit", "antipode", "hopf_flag", "_mulcsr")

    def __init__(self, alg: StructureConstantAlgebra, comul_entries, counit, antipode=None):
        p = alg.field.p
        n = alg.dim
        self.alg = alg
        dt = np.zeros((n, n, n), dtype=np.int64)
        for i, a, b, c in comul_entries:
            dt[int(i), int(a), int(b)] = (dt[int(i), int(a), int(b)] + int(c)) % p
        dt.setflags(write=False)
        self.comul = dt  # comul[i, a, b]: coefficient of e_a (x) e_b in Delta(e_i)
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
        self.hopf_flag = False
        self._mulcsr = None

    @property
    def field(self):
        return self.alg.field

    @property
    def dim(self):
        return self.alg.dim

    def comul_entries(self) -> list[tuple[int, int, int, int]]:
        idx = np.argwhere(self.comul != 0)
        return [(int(i), int(a), int(b), int(self.comul[i, a, b])) for i, a, b in idx]

    def comul_coo(self):
        """(i, a, b, coeff) arrays of the nonzero comultiplication entries."""
        i, a, b = np.nonzero(self.comul)
        return i, a, b, self.comul[i, a, b]

    def comul_of(self, vec) -> np.ndarray:
        """Delta(vec) as an (n, n) matrix over the tensor-square legs."""
        return tensordot_mod(asmat(vec, self.field.p), self.comul, ([0], [0]), self.field.p)

    def mul_csr(self):
        """CSR layout of the multiplication tensor over flattened index pairs."""
        if self._mulcsr is None:
            n = self.dim
            flat = self.alg.mul.reshape(n * n, n)
            rows, cols = np.nonzero(flat)
            vals = flat[rows, cols]
            counts = np.bincount(rows, minlength=n * n)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            self._mulcsr = (counts.astype(np.int64), indptr.astype(np.int64),
                            cols.astype(np.int64), vals.astype(np.int64))
        return self._mulcsr

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

    def of(self, vec) -> int:
        return int(matmul_mod(self.vector(), asmat(vec, self.p), self.p))

    def key(self) -> tuple[int, ...]:
        return self.values


def is_character(alg: StructureConstantAlgebra, values) -> bool:
    p = alg.field.p
    v = asmat(values, p)
    if v.shape != (alg.dim,):
        return False
    if int(matmul_mod(v, alg.unit, p)) != 1:
        return False
    lhs = tensordot_mod(alg.mul, v, ([2], [0]), p)
    rhs = np.outer(v, v) % p
    return bool(np.array_equal(lhs, rhs))


# -- ragged gather used by the exhaustive Delta-multiplicativity check -----


def _ragged_positions(starts, counts):
    """Flat positions [s, s+1, ..., s+c-1] concatenated over (start, count) rows."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    rows = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
    bases = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - bases
    return rows, np.repeat(starts, counts) + offsets


def _comul_product_into(b: BialgebraData, terms_a, terms_b, terms_coeff, other_i,
                        other_a, other_b, other_c, out):
    """Accumulate Delta-term products into out[j, u, v].

    terms_* describe the comultiplication of one fixed basis element;
    other_* is the full comultiplication in COO form, providing the second
    factor Delta(e_j) for every j simultaneously.
    """
    p = b.field.p
    n = b.dim
    counts, indptr, cols, vals = b.mul_csr()
    t = len(terms_a)
    s = len(other_i)
    if t == 0 or s == 0:
        return
    # cross join of the fixed element's terms with every COO entry
    pa = np.repeat(terms_a, s)
    pb = np.repeat(terms_b, s)
    alpha = np.repeat(terms_coeff, s)
    pj = np.tile(other_i, t)
    pc = np.tile(other_a, t)
    pd = np.tile(other_b, t)
    beta = np.tile(other_c, t)
    w0 = (alpha * beta) % p
    key1 = pa * n + pc
    key2 = pb * n + pd
    rows1, pos1 = _ragged_positions(indptr[key1], counts[key1])
    u = cols[pos1]
    w1 = (w0[rows1] * vals[pos1]) % p
    key2e = key2[rows1]
    rows2, pos2 = _ragged_positions(indptr[key2e], counts[key2e])
    v = cols[pos2]
    w2 = (w1[rows2] * vals[pos2]) % p
    j_final = pj[rows1][rows2]
    u_final = u[rows2]
    np.add.at(out, (j_final, u_final, v), w2)


# -- axiom verification ----------------------------------------------------


def verify_structure(b: BialgebraData) -> StructureReport:
    """Exhaustive bialgebra/Hopf axiom report with failure witnesses."""
    p = b.field.p
    n = b.dim
    alg = b.alg
    dt = b.comul
    eps = b.counit
    checks: list[AxiomCheck] = []

    # Delta(1) = 1 (x) 1
    d_unit = b.comul_of(alg.unit)
    ok = np.array_equal(d_unit, np.outer(alg.unit, alg.unit) % p)
    checks.append(AxiomCheck("comul_unit", bool(ok), None if ok else 0))

    # eps(1) = 1
    ok = int(matmul_mod(eps, alg.unit, p)) == 1
    checks.append(AxiomCheck("counit_unit", bool(ok), None if ok else 0))

    # coassociativity: (Delta x id)Delta = (id x Delta)Delta on each basis elt
    witness = None
    ci, ca, cb, cc = b.comul_coo()
    for i in range(n):
        sel = ci == i
        lhs = np.zeros((n, n, n), dtype=np.int64)
        rhs = np.zeros((n, n, n), dtype=np.int64)
        for a, bb, c in zip(ca[sel], cb[sel], cc[sel]):
            lhs[:, :, bb] = (lhs[:, :, bb] + c * dt[a]) % p
            rhs[a] = (rhs[a] + c * dt[bb]) % p
        if not np.array_equal(lhs, rhs):
            witness = i
            break
    checks.append(AxiomCheck("coassociativity", witness is None, witness))

    # counit laws: (eps x id)Delta = id = (id x eps)Delta
    left = np.zeros((n, n), dtype=np.int64)
    np.add.at(left, (cb, ci), (cc * eps[ca]) % p)
    left %= p
    eye = np.eye(n, dtype=np.int64)
    ok = np.array_equal(left, eye)
    checks.append(
        AxiomCheck("counit_left", bool(ok), None if ok else int(np.argmax((left != eye).any(axis=0))))
    )
    right = np.zeros((n, n), dtype=np.int64)
    np.add.at(right, (ca, ci), (cc * eps[cb]) % p)
    right %= p
    ok = np.array_equal(right, eye)
    checks.append(
        AxiomCheck("counit_right", bool(ok), None if ok else int(np.argmax((right != eye).any(axis=0))))
    )

    # Delta multiplicative: Delta(e_i e_j) = Delta(e_i) Delta(e_j) for all pairs
    witness = None
    dmat_t = b.comul.reshape(n, n * n)  # row i = Delta(e_i) flattened
    use_sparse = n >= 24 and n * (p - 1) ** 2 < 2**63
    if use_sparse:
        from scipy import sparse
    for i in range(n):
        sel = ci == i
        rhs = np.zeros((n, n, n), dtype=np.int64)
        _comul_product_into(b, ca[sel], cb[sel], cc[sel], ci, ca, cb, cc, rhs)
        rhs %= p
        mul_i = sparse.csr_matrix(alg.mul[i]) if use_sparse else alg.mul[i]
        lhs = matmul_mod(mul_i, dmat_t, p).reshape(n, n, n)
        if not np.array_equal(lhs, rhs):
            j = int(np.argmax((lhs != rhs).any(axis=(1, 2))))
            witness = (i, j)
            break
    checks.append(AxiomCheck("comul_multiplicative", witness is None, witness))

    # eps multiplicative
    lhs = tensordot_mod(alg.mul, eps, ([2], [0]), p)
    rhs = np.outer(eps, eps) % p
    ok = np.array_equal(lhs, rhs)
    witness = None if ok else tuple(int(t) for t in np.argwhere(lhs != rhs)[0])
    checks.append(AxiomCheck("counit_multiplicative", bool(ok), witness))

    # antipode identities
    if b.antipode is not None:
        s = b.antipode
        for name, first in (("antipode_left", True), ("antipode_right", False)):
            witness = None
            for i in range(n):
                sel = ci == i
                acc = np.zeros(n, dtype=np.int64)
                for a, bb, c in zip(ca[sel], cb[sel], cc[sel]):
                    if first:
                        term = matmul_mod(s[:, a], alg.mul[:, bb, :], p)  # S(e_a) * e_b
                    else:
                        term = matmul_mod(s[:, bb], alg.mul[a], p)  # e_a * S(e_b)
                    acc = (acc + c * term) % p
                if not np.array_equal(acc, (int(eps[i]) * alg.unit) % p):
                    witness = i
                    break
            checks.append(AxiomCheck(name, witness is None, witness))

    return StructureReport(checks)


def build_bialgebra(alg, comul_entries, counit, antipode=None) -> BialgebraData:
    """Construct a bialgebra (or Hopf algebra) and verify every axiom."""
    b = BialgebraData(alg, comul_entries, counit, antipode)
    report = verify_structure(b)
    if not report.passed:
        raise StructureCheckFailed(report)
    b.hopf_flag = antipode is not None
    return b


# -- characters and convolution ---------------------------------------------


def enumerate_characters(b_or_alg, seed: int = 0) -> list[Character]:
    """All algebra maps onto F_p, via 1-dim factors of the regular module.

    Complete because every simple module occurs in the regular module;
    output sorted lexicographically by value vector.
    """
    alg = b_or_alg.alg if isinstance(b_or_alg, BialgebraData) else b_or_alg
    chars = []
    for rec in _simples(alg, seed=seed):
        if rec.module.dim == 1:
            values = rec.module.action[:, 0, 0]
            ch = Character.from_vector(alg.field.p, values)
            assert is_character(alg, ch.vector())
            chars.append(ch)
    chars.sort(key=lambda c: c.values)
    return chars


def counit_character(b: BialgebraData) -> Character:
    return Character.from_vector(b.field.p, b.counit)


def convolve(b: BialgebraData, chi: Character, chi2: Character) -> Character:
    """(chi * chi2)(x) = sum chi(x_1) chi2(x_2).

    The result is a character because Delta is multiplicative (checked
    when the bialgebra was built); that is not checked again here.
    """
    p = b.field.p
    ci, ca, cb, cc = b.comul_coo()
    v1 = chi.vector()
    v2 = chi2.vector()
    out = np.zeros(b.dim, dtype=np.int64)
    np.add.at(out, ci, (cc * v1[ca] % p) * v2[cb] % p)
    return Character.from_vector(p, out)


def convolution_inverse(b: BialgebraData, chi: Character) -> Character:
    """chi composed with the antipode; satisfies chi * inverse = counit."""
    if b.antipode is None:
        raise NoAntipode("convolution inverse requires an antipode")
    p = b.field.p
    inv = Character.from_vector(p, matmul_mod(chi.vector(), b.antipode, p))
    eps = counit_character(b)
    if convolve(b, chi, inv) != eps or convolve(b, inv, chi) != eps:
        raise HopfibError("antipode did not produce a convolution inverse")
    return inv


# -- winding maps ------------------------------------------------------------


def winding(b: BialgebraData, chi: Character, side: str = "right") -> np.ndarray:
    """Matrix of the winding map attached to a character.

    side='right': x -> sum chi(x_1) x_2; side='left': x -> sum x_1 chi(x_2).
    Since Delta and chi are multiplicative (Delta by the axioms checked when
    the bialgebra was built), the result is an algebra endomorphism; with an
    antipode it is invertible, its inverse being the winding map of chi o S.
    Neither fact is checked again here.
    """
    p = b.field.p
    n = b.dim
    ci, ca, cb, cc = b.comul_coo()
    v = chi.vector()
    mat = np.zeros((n, n), dtype=np.int64)
    if side == "right":
        np.add.at(mat, (cb, ci), (cc * v[ca]) % p)
    elif side == "left":
        np.add.at(mat, (ca, ci), (cc * v[cb]) % p)
    else:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    return mat % p


# -- coideal subalgebras and the character group X ---------------------------


@dataclass
class CoidealSubalgebra:
    """Verified unital subalgebra that is also a right coideal."""

    parent: BialgebraData
    subspace: Subspace
    verified_subalgebra: bool
    verified_right_coideal: bool

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
    return CoidealSubalgebra(b, a, True, True)


@dataclass
class XGroup:
    """The group of characters restricting to the counit on a subalgebra."""

    chars: list[Character]
    table: np.ndarray  # table[i, j] = index of chars[i] * chars[j]
    inverse: list[int]
    identity_index: int

    @property
    def order(self):
        return len(self.chars)

    def winding_matrices(self, b: BialgebraData, side: str = "right") -> list[np.ndarray]:
        return [winding(b, chi, side=side) for chi in self.chars]


def restricts_to_counit(b: BialgebraData, chi: Character, a: Subspace) -> bool:
    p = b.field.p
    return bool(
        np.array_equal(matmul_mod(a.basis, chi.vector(), p), matmul_mod(a.basis, b.counit, p))
    )


def _group_from_chars(b: BialgebraData, members: list[Character], inverse_by_search: bool):
    p = b.field.p
    members = sorted(members, key=lambda c: c.values)
    index = {c.values: i for i, c in enumerate(members)}
    k = len(members)
    table = np.zeros((k, k), dtype=np.int64)
    for i, c1 in enumerate(members):
        for j, c2 in enumerate(members):
            prod = convolve(b, c1, c2)
            if prod.values not in index:
                raise HopfibError("character set is not closed under convolution")
            table[i, j] = index[prod.values]
    eps = counit_character(b)
    if eps.values not in index:
        raise HopfibError("counit is missing from the character set")
    ident = index[eps.values]
    inverse = [-1] * k
    for i in range(k):
        if inverse_by_search:
            hits = [j for j in range(k) if table[i, j] == ident and table[j, i] == ident]
            if not hits:
                raise HopfibError("character has no convolution inverse in the set")
            inverse[i] = hits[0]
        else:
            inv = convolution_inverse(b, members[i])
            if inv.values not in index:
                raise HopfibError("character set is not closed under inversion")
            inverse[i] = index[inv.values]
    return XGroup(members, table, inverse, ident)


def character_group_X(b: BialgebraData, a: CoidealSubalgebra, seed: int = 0) -> XGroup:
    """Characters agreeing with the counit on A, with their group structure.

    Also verifies both directions of the fixed-subalgebra criterion: the
    winding map of a character fixes A pointwise exactly when the
    character lies in X.
    """
    if not (a.verified_subalgebra and a.verified_right_coideal):
        raise NotACoideal("subalgebra must be a verified right coideal")
    if b.antipode is None:
        raise NoAntipode("the character group of a Hopf algebra needs the antipode")
    return _build_x_group(b, a, seed, inverse_by_search=False)


def character_group_bialgebra(b: BialgebraData, a: CoidealSubalgebra, seed: int = 0) -> XGroup:
    """Like character_group_X but for bialgebras: inverses found by search.

    Supports the two-sided winding experiments on bialgebras without an
    antipode; every member must have a convolution inverse inside the set.
    """
    if not (a.verified_subalgebra and a.verified_right_coideal):
        raise NotACoideal("subalgebra must be a verified right coideal")
    return _build_x_group(b, a, seed, inverse_by_search=True)


def _build_x_group(b, a, seed, inverse_by_search):
    p = b.field.p
    all_chars = enumerate_characters(b, seed=seed)
    members = [c for c in all_chars if restricts_to_counit(b, c, a.subspace)]
    x = _group_from_chars(b, members, inverse_by_search)
    member_keys = {c.values for c in members}
    basis_t = a.subspace.basis.T
    for chi in all_chars:
        mat = winding(b, chi, side="right")
        fixes = bool(np.array_equal(matmul_mod(mat, basis_t, p), basis_t))
        if fixes != (chi.values in member_keys):
            raise HopfibError(
                "winding fixed-point criterion violated: winding of a character "
                "fixes A pointwise iff the character restricts to the counit"
            )
    return x


# -- adjoint action ----------------------------------------------------------


def adjoint_action(b: BialgebraData, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """ad matrices of a bimodule: ad(h) v = sum h_1 . v . S(h_2).

    `left` and `right` are stacks of commuting left/right action matrices;
    the left action must be an algebra map and the right action an
    anti-map (checked).
    """
    if b.antipode is None:
        raise NoAntipode("the adjoint action requires an antipode")
    p = b.field.p
    n = b.dim
    left = asmat(left, p)
    right = asmat(right, p)
    m = left.shape[1]
    eye = np.eye(m, dtype=np.int64)
    if not np.array_equal(tensordot_mod(b.alg.unit, left, ([0], [0]), p), eye):
        raise NotABimodule("unit does not act as identity on the left")
    if not np.array_equal(tensordot_mod(b.alg.unit, right, ([0], [0]), p), eye):
        raise NotABimodule("unit does not act as identity on the right")
    flat_l = left.reshape(n, m * m)
    flat_r = right.reshape(n, m * m)
    for i in range(n):
        if not np.array_equal(
            matmul_mod(left[i], left, p),
            matmul_mod(b.alg.mul[i], flat_l, p).reshape(n, m, m),
        ):
            raise NotABimodule("left action is not an algebra homomorphism")
        if not np.array_equal(
            matmul_mod(right, right[i], p),
            matmul_mod(b.alg.mul[i], flat_r, p).reshape(n, m, m),
        ):
            raise NotABimodule("right action is not an algebra anti-homomorphism")
        if not np.array_equal(
            matmul_mod(left[i], right, p), matmul_mod(right, left[i], p)
        ):
            raise NotABimodule("left and right actions do not commute")
    right_s = tensordot_mod(b.antipode, right, ([0], [0]), p)  # action of S(e_b)
    ci, ca, cb, cc = b.comul_coo()
    ad = np.zeros((n, m, m), dtype=np.int64)
    for i, a, bb, c in zip(ci, ca, cb, cc):
        ad[i] = (ad[i] + c * matmul_mod(left[a], right_s[bb], p)) % p
    # ad must itself be a left module structure
    flat_ad = ad.reshape(n, m * m)
    for i in range(n):
        if not np.array_equal(
            matmul_mod(ad[i], ad, p),
            matmul_mod(b.alg.mul[i], flat_ad, p).reshape(n, m, m),
        ):
            raise HopfibError("adjoint action failed to be a left module structure")
    return ad


def ad_one_dim_submodules(b: BialgebraData, ad: np.ndarray, chars=None):
    """Joint eigenspaces of the adjoint action, one per character.

    Every vector of a returned eigenspace spans a one-dimensional
    ad-submodule with the given character as its eigenvalue system.
    """
    p = b.field.p
    eye = np.eye(ad.shape[1], dtype=np.int64)
    if chars is None:
        chars = enumerate_characters(b)
    found = []
    for chi in chars:
        shifted = (ad - chi.vector()[:, None, None] * eye) % p
        current = joint_kernel(b.field, shifted)
        if current.dim > 0:
            found.append((chi, current))
    return found


# -- fiber quotients ----------------------------------------------------------


@dataclass
class FiberQuotient:
    """Quotient of a bialgebra by the ideal generated by ker(xi) inside A."""

    algebra: StructureConstantAlgebra
    projection: np.ndarray
    section: np.ndarray
    ideal: Subspace
    bialgebra: BialgebraData | None
    x_chars: list[Character]
    descended_winding: list[np.ndarray]


def fiber_quotient(b: BialgebraData, a: CoidealSubalgebra, xi: Character,
                   x_group: XGroup | None = None) -> FiberQuotient:
    """Quotient by B*ker(xi|A), with induced structure where it exists.

    xi is a character of the subalgebra A in the coordinates of its
    canonical basis. When xi agrees with the counit on A and the ideal I
    passes the descent checks (eps(I) = 0, (pi x pi)Delta(I) = 0, and
    S(I) in I when there is an antipode), the quotient bialgebra/Hopf
    structure is induced; its axioms are images of the verified axioms of
    b and are not checked again. Otherwise only the algebra quotient is
    returned. Winding maps of characters in X are verified to preserve the
    ideal and are pushed down to the quotient.
    """
    alg = b.alg
    p = alg.field.p
    if not is_central_subalgebra(alg, a.subspace):
        raise NotCentral("the subalgebra must be central")
    asub, embedding = subalgebra_as_algebra(alg, a.subspace)
    if not is_character(asub, xi.vector()):
        raise HopfibError("xi is not a character of the subalgebra")
    # K = ker xi inside A, expressed in ambient coordinates
    kcoords = kernel(xi.vector()[None, :], p)
    k_ambient = matmul_mod(kcoords, embedding, p)
    left_rows = np.vstack([k_ambient, multiply_rows_by_basis(alg, k_ambient, "left")])
    right_rows = np.vstack([k_ambient, multiply_rows_by_basis(alg, k_ambient, "right")])
    ideal = Subspace(alg.field, alg.dim, left_rows)
    if ideal != Subspace(alg.field, alg.dim, right_rows):
        raise HopfibError("B*K != K*B for a central subalgebra; data corrupt")
    if ideal.contains_vector(alg.unit):
        raise ImproperIdeal("xi does not extend: the induced ideal is everything")
    qd = quotient_algebra(alg, ideal)
    proj, section = qd.projection, qd.section

    # winding maps for X descend when they preserve the ideal (they must,
    # since they fix A pointwise)
    if x_group is None and b.antipode is not None:
        x_group = character_group_X(b, a)
    x_chars: list[Character] = []
    descended: list[np.ndarray] = []
    if x_group is not None:
        for chi in x_group.chars:
            mat = winding(b, chi, side="right")
            if ideal.image_under(mat) != ideal:
                raise HopfibError("winding map of X does not preserve the fiber ideal")
            x_chars.append(chi)
            descended.append(matmul_mod(matmul_mod(proj, mat, p), section, p))

    # induced bialgebra structure over the counit fiber
    quotient_b = None
    eps_on_a = Character.from_vector(p, matmul_mod(embedding, b.counit, p))
    if xi == eps_on_a:
        ok = not matmul_mod(b.counit, ideal.basis.T, p).any()
        for v in ideal.basis:
            m = b.comul_of(v)
            if matmul_mod(matmul_mod(proj, m, p), proj.T, p).any():
                ok = False
                break
        if ok and b.antipode is not None:
            ok = ideal.contains_rows(matmul_mod(ideal.basis, b.antipode.T, p))
        if ok:
            qn = qd.algebra.dim
            entries = []
            for r in range(qn):
                m = b.comul_of(section[:, r])
                mq = matmul_mod(matmul_mod(proj, m, p), proj.T, p)
                for u, v in np.argwhere(mq):
                    entries.append((r, int(u), int(v), int(mq[u, v])))
            q_counit = matmul_mod(b.counit, section, p)
            q_antipode = None
            if b.antipode is not None:
                q_antipode = matmul_mod(matmul_mod(proj, b.antipode, p), section, p)
            quotient_b = BialgebraData(qd.algebra, entries, q_counit, q_antipode)
            quotient_b.hopf_flag = q_antipode is not None
    return FiberQuotient(qd.algebra, proj, section, ideal, quotient_b, x_chars, descended)
