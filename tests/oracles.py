"""Independent test oracles, deliberately ignorant of the routes the library takes."""

import itertools
import random
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from hopfib.algebra import (
    StructureConstantAlgebra,
    build_algebra,
    closing_maps,
    first_failure,
    ideal_closure,
)
from hopfib.corpus import GroupTable
from hopfib.errors import (
    BudgetExceeded,
    DimensionMismatch,
    HopfibError,
    ImproperIdeal,
    NotASubgroup,
    NotCentral,
)
from hopfib.hopf import (
    BialgebraData,
    Character,
    character_group_X,
    character_kernel,
    convolve,
    counit_character,
    enumerate_characters,
    winding,
)
from hopfib.linalg import (
    FieldSpec,
    SparseTensor,
    Subspace,
    asmat,
    first_difference,
    irreducible_factors,
    kernel,
    matmul_mod,
    modinv,
    null_space,
    permute,
    rref,
)
from hopfib.linalg import _limb_product
from hopfib.linalg import contract as sparse_contract
from hopfib.repn import minpoly_on_vector, spectrum
from hopfib.rewrite import Presentation, enumerate_basis, normalize
from hopfib.specmap import orbits


LinearSolution = namedtuple("LinearSolution", "consistent particular kernel")


def tensordot_mod(a: np.ndarray, b: np.ndarray, axes, p: int) -> np.ndarray:
    """np.tensordot(a, b, axes) mod p, exact for every odd prime p <= 2**31.

    Entries of a must lie in [0, p). The contracted length inner is the
    product of a's contracted axis lengths; the same bound as in
    linalg.matmul_mod picks a direct product or w-bit limbs of b.
    """
    inner = int(np.prod([a.shape[ax] for ax in np.atleast_1d(axes[0])]))
    if inner * (p - 1) ** 2 < 2**63:
        return np.tensordot(a, b, axes=axes) % p
    return _limb_product(lambda x, y: np.tensordot(x, y, axes=axes), a, b, inner, p)


def solve(m, rhs, p: int) -> LinearSolution:
    """Solve m @ x = rhs for a vector rhs over F_p from the reduced echelon
    form of [m | rhs]; particular is None when inconsistent, and the kernel
    rows span the homogeneous solutions."""
    m = asmat(m, p)
    ncols = m.shape[1]
    aug, rank, pivots = rref(np.column_stack([m, asmat(rhs, p)]), p)
    if ncols in pivots:
        return LinearSolution(False, None, kernel(m, p))
    part = np.zeros(ncols, dtype=np.int64)
    part[list(pivots)] = aug[:rank, ncols]
    return LinearSolution(True, part, kernel(m, p))


def multiply(alg: StructureConstantAlgebra, u, v) -> np.ndarray:
    """The product u v, through the left multiplication matrix of u."""
    return matmul_mod(alg.left_mult_matrix(u), asmat(v, alg.field.p), alg.field.p)


def element_power(alg: StructureConstantAlgebra, v, k: int) -> np.ndarray:
    """v**k by the binary ladder from the unit."""
    out, base = alg.unit.copy(), asmat(v, alg.field.p)
    while k:
        if k & 1:
            out = multiply(alg, out, base)
        base = multiply(alg, base, base)
        k >>= 1
    return out


def is_commutative(alg: StructureConstantAlgebra) -> bool:
    return first_difference(alg.mul, permute(alg.mul, (1, 0, 2))) is None


def character_of(chi, vec) -> int:
    """The value of a character on a coefficient vector."""
    return int(matmul_mod(chi.vector(), asmat(vec, chi.p), chi.p))


def intersect(u: Subspace, v: Subspace) -> Subspace:
    """u intersect v, via the kernel of the stacked bases."""
    if u.dim == 0 or v.dim == 0:
        return Subspace(u.field, u.ambient)
    p = u.field.p
    ker = kernel(np.vstack([u.basis, (-v.basis) % p]).T, p)  # ambient x (d1+d2)
    return Subspace(u.field, u.ambient, matmul_mod(ker[:, : u.dim], u.basis, p))


def contract(prim, a) -> Subspace:
    """The contraction P intersect A, canonical in ambient coordinates."""
    return intersect(prim.annihilator, a.subspace)


def contraction_is_maximal(alg: StructureConstantAlgebra, prim, a) -> bool:
    """Is A/(P intersect A) a field? Decided through the p-power map.

    The quotient is a field iff the iterated p-power map has zero kernel
    (no nilpotents) and its fixed space is one-dimensional (one factor).
    Only defined for commutative A. P intersect A is an ideal of A because
    P is an ideal, so quotient_algebra's closure of it adds nothing.
    """
    asub, _embedding = subalgebra_as_algebra(alg, a.subspace)
    if not is_commutative(asub):
        raise HopfibError("maximality diagnostic requires a commutative subalgebra")
    p = alg.field.p
    coords = contract(prim, a).basis[:, list(a.subspace.pivots)]
    q = quotient_algebra(asub, Subspace(alg.field, asub.dim, coords))
    eye = np.eye(q.dim, dtype=np.int64)
    frob = np.stack([element_power(q, e, p) for e in eye], axis=1)
    power = eye
    for _ in range(q.dim):
        power = matmul_mod(power, frob, p)
    nilradical_dim = kernel(power, p).shape[0]
    fixed_dim = kernel((frob - eye) % p, p).shape[0]
    return nilradical_dim == 0 and fixed_dim == 1


def quotient_group(g: GroupTable, z_indices) -> tuple[GroupTable, np.ndarray]:
    """Quotient by a central subgroup; cosets ordered by least member.

    Returns the quotient table and the index map element -> coset.
    """
    z = sorted(set(int(i) for i in z_indices))
    if not g.is_subgroup(z):
        raise NotASubgroup("subset is not a subgroup")
    if not g.is_central_subset(z):
        raise NotCentral("subgroup is not central")
    seen, cosets = {}, []
    for x in range(g.order):
        if x not in seen:
            coset = sorted(int(g.cayley[x, s]) for s in z)
            seen.update((y, len(cosets)) for y in coset)
            cosets.append(coset)
    table = [[seen[int(g.cayley[a[0], b[0]])] for b in cosets] for a in cosets]
    mapping = np.array([seen[x] for x in range(g.order)], dtype=np.int64)
    return GroupTable.from_cayley(table), mapping


class NotABimodule(Exception):
    pass


def adjoint_action(b, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """ad matrices of a bimodule: ad(h) v = sum h_1 . v . S(h_2), from stacks
    of commuting left and right action matrices. Both stacks go through
    checked_module, the right one transposed (an anti-map), re-raised as
    NotABimodule; the commutation is checked on every basis element."""
    if b.antipode is None:
        raise ValueError("the adjoint action requires an antipode")
    p, n = b.field.p, b.dim
    left, right = asmat(left, p), asmat(right, p)
    for side, stack in (("left", left), ("right", right.transpose(0, 2, 1))):
        try:
            checked_module(b.alg, stack)
        except DimensionMismatch as exc:
            raise NotABimodule(f"{side} action: {exc}") from exc
    for i in range(n):
        if not np.array_equal(matmul_mod(left[i], right, p), matmul_mod(right, left[i], p)):
            raise NotABimodule("left and right actions do not commute")
    right_s = tensordot_mod(b.antipode, right, ([0], [0]), p)  # action of S(e_b)
    ad = np.zeros((n, left.shape[1], left.shape[1]), dtype=np.int64)
    for i, a, bb, c in b.comul.entries():
        ad[i] = (ad[i] + c * matmul_mod(left[a], right_s[bb], p)) % p
    return ad


def parse_poly(names: tuple[str, ...], text: str, p: int) -> dict:
    """A polynomial written by Presentation.poly_str: terms joined by '+',
    each 'c*word', 'word' or an integer c (a multiple of the empty word)."""
    index = {g: i for i, g in enumerate(names)}
    out: dict = {}
    for term in text.split("+") if text.strip() != "0" else ():
        coeff_s, star, word_s = term.strip().rpartition("*")
        if not star and word_s.lstrip("-").isdigit():
            coeff_s, word_s = word_s, ""
        word = tuple(index[t] for t in word_s.split(".")) if word_s else ()
        out[word] = (out.get(word, 0) + int(coeff_s or 1)) % p
    return {w: c for w, c in out.items() if c}


def parse_presentation(text: str) -> Presentation:
    """The presentation in rewrite's text format ('#' starts a comment)."""
    fields: dict = {"weights": None}
    rules = []
    for line in text.splitlines():
        head, _, rest = line.split("#", 1)[0].strip().partition(" ")
        if head == "rule":
            lhs, arrow, rhs = rest.partition("->")
            if not arrow:
                raise ValueError(f"malformed rule line: {line!r}")
            rules.append((lhs.strip(), rhs))
        elif head in ("field", "bound", "generators", "weights"):
            fields[head] = rest.split()
        elif head:
            raise ValueError(f"unknown directive {head!r}")
    gens, p = tuple(fields["generators"]), int(fields["field"][0])
    index = {g: i for i, g in enumerate(gens)}
    weights = fields["weights"] and tuple(int(w) for w in fields["weights"])
    return Presentation(
        FieldSpec(p), gens,
        [(tuple(index[t] for t in lhs.split(".")), parse_poly(gens, rhs, p)) for lhs, rhs in rules],
        int(fields["bound"][0]), weights)


def subalgebra_as_algebra(alg: StructureConstantAlgebra, a: Subspace):
    """Present a unital multiplicatively closed subspace as its own algebra.

    Returns (algebra, embedding) where embedding rows are the chosen basis
    of the subspace inside the ambient algebra. The subspace must be a
    unital subalgebra (hopf.coideal_subalgebra proves that at load); its
    unit and associativity are inherited from the ambient algebra.
    """
    basis, piv = a.basis, list(a.pivots)
    # coordinates w.r.t. an RREF basis are the pivot entries
    sub_mul = induced_constants(alg.mul, (basis, basis, np.eye(alg.dim, dtype=np.int64)[piv]), alg.field.p)
    sub = StructureConstantAlgebra(alg.field, a.dim, alg.unit[piv], sub_mul,
                                   tuple(f"a{i}" for i in range(a.dim)), certified=True)
    return sub, basis


def subalgebra_closure(alg: StructureConstantAlgebra, seed: Subspace) -> Subspace:
    """Smallest unital subalgebra containing the seed subspace, closing the
    span under all pairwise products of its basis until it stops growing."""
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


def greedy_generating_set(alg: StructureConstantAlgebra) -> list[int]:
    """Small set of basis indices generating the algebra as a unital algebra:
    the smallest index outside the subalgebra generated so far, each time.
    Independent of StructureConstantAlgebra.generators, which it checks."""
    gens: list[int] = []
    current = subalgebra_closure(alg, Subspace(alg.field, alg.dim))
    while current.dim < alg.dim:
        nxt = next(
            i for i in range(alg.dim)
            if not current.contains_vector(np.eye(alg.dim, dtype=np.int64)[i])
        )
        gens.append(nxt)
        rows = np.eye(alg.dim, dtype=np.int64)[gens]
        current = subalgebra_closure(alg, Subspace(alg.field, alg.dim, rows))
    return gens


def left_normed_span(alg: StructureConstantAlgebra, gens) -> Subspace:
    """Span of the left-normed words g_1(g_2(...(g_k 1))) in gens, growing the
    words one letter at a time with multiply until the span stops growing."""
    eye = np.eye(alg.dim, dtype=np.int64)
    span, words = Subspace(alg.field, alg.dim, [alg.unit]), [alg.unit]
    while words:
        longer, words = [multiply(alg, eye[g], w) for g in gens for w in words], []
        for w in longer:  # keep the words that are new to the span
            if not span.contains_vector(w):
                span = Subspace(alg.field, alg.dim, np.vstack([span.basis, w]))
                words.append(w)
    return span


def brute_force_characters(alg: StructureConstantAlgebra) -> list[tuple[int, ...]]:
    """Multiplicative functionals found by backtracking over generator images.

    For each candidate assignment of values to a generating set, spanning
    products with forced values are accumulated until they span the whole
    algebra, the unique linear functional matching them is solved for, and
    it is kept iff it is genuinely multiplicative. Completeness: a true
    character restricts to some assignment, and all the forced values are
    consequences of multiplicativity.
    """
    p = alg.field.p
    n = alg.dim
    mul = alg.mul.dense()  # products here are raw int64: p is small enough to enumerate F_p

    def product(u, v):
        return np.tensordot(np.tensordot(u, mul, axes=([0], [0])), v, axes=([0], [0])) % p

    gens = greedy_generating_set(alg)
    eye = np.eye(n, dtype=np.int64)
    found = set()
    for assignment in itertools.product(range(p), repeat=len(gens)):
        rows = [alg.unit.copy()]
        vals = [1]
        for g, val in zip(gens, assignment):
            rows.append(eye[g].copy())
            vals.append(val)
        span = Subspace(alg.field, n, np.array(rows))
        # close under products until the known values span everything
        grew = True
        while grew and span.dim < n:
            grew = False
            count = len(rows)
            for i in range(count):
                for j in range(count):
                    prod = product(rows[i], rows[j])
                    if not span.contains_vector(prod):
                        rows.append(prod)
                        vals.append(vals[i] * vals[j] % p)
                        span = Subspace(alg.field, n, np.array(rows))
                        grew = True
        if span.dim < n:
            continue  # generators fail to generate; cannot happen by construction
        sol = solve(np.array(rows), np.array(vals), p)
        if not sol.consistent or sol.kernel.shape[0] != 0:
            continue
        cand = sol.particular
        lhs = np.tensordot(mul, cand, axes=([2], [0])) % p
        if np.array_equal(lhs, np.outer(cand, cand) % p) and int(cand @ alg.unit % p) == 1:
            found.add(tuple(int(x) for x in cand))
    return sorted(found)


def highest_weight_module_small_sl2(instance):
    """Action stack of the ladder module of top weight q^(l-1) for the small
    quantum sl2, checked as a module (checked_module).

    Built directly from the classical weight/ladder formulas, independent
    of the chop machinery: K v_i = w q^(-2i) v_i, F v_i = v_{i+1},
    E v_i = [i] (w q^(1-i) - w^-1 q^(i-1)) / (q - q^-1) v_{i-1}.
    """
    p = instance.h.field.p
    ell = instance.provenance["ell"]
    q = instance.provenance["q"]
    qi = modinv(q, p)
    w = pow(q, ell - 1, p)  # highest weight
    m = ell
    kmat = np.diag([w * pow(qi, 2 * i, p) % p for i in range(m)]).astype(np.int64)
    fmat = np.zeros((m, m), dtype=np.int64)
    for i in range(m - 1):
        fmat[i + 1, i] = 1
    emat = np.zeros((m, m), dtype=np.int64)
    denom = modinv((q - qi) % p, p)
    for i in range(1, m):
        bracket = (pow(q, i, p) - pow(qi, i, p)) * denom % p
        coeff = bracket * ((w * pow(qi, i - 1, p) - modinv(w, p) * pow(q, i - 1, p)) % p) % p
        emat[i - 1, i] = coeff * denom % p
    gen_mats = {"F": fmat, "K": kmat, "E": emat}
    labels = instance.h.alg.labels
    action = np.zeros((instance.h.dim, m, m), dtype=np.int64)
    for idx, label in enumerate(labels):
        mat = np.eye(m, dtype=np.int64)
        if label != "1":
            for letter in label.split("."):
                mat = (mat @ gen_mats[letter]) % p
        action[idx] = mat
    return checked_module(instance.h.alg, action)


def intertwiner_exists(alg: StructureConstantAlgebra, action1, action2) -> bool:
    """True iff a nonzero X with X a1_i = a2_i X for all i exists (equal dims),
    for two modules over alg given by their action stacks.

    Solves the linear intertwiner equations directly (Kronecker form), so
    it decides isomorphism of simple modules without using annihilators.
    """
    p = alg.field.p
    eye = np.eye(action1.shape[1], dtype=np.int64)
    blocks = [
        (np.kron(eye, a.T) - np.kron(b, eye)) % p
        for a, b in zip(action1, action2)
    ]
    return kernel(np.vstack(blocks), p).shape[0] > 0


def is_algebra_endomorphism(alg: StructureConstantAlgebra, mat: np.ndarray, gens) -> bool:
    """Check f(1) = 1 and f(e_g e_j) = f(e_g) f(e_j) for every j and every g in gens.

    gens is a set of basis indices generating the algebra as a unital
    algebra, such as greedy_generating_set(alg). That is enough: the x with
    f(xy) = f(x) f(y) for all y form a unital subalgebra, so it contains
    every product of generators.
    """
    p = alg.field.p
    if not np.array_equal(matmul_mod(mat, alg.unit, p), alg.unit):
        return False
    left = left_regular(alg)
    for g in gens:
        f_of_g_times = matmul_mod(mat, left[g], p)  # x -> f(e_g x)
        f_g_times_f = matmul_mod(alg.left_mult_matrix(mat[:, g]), mat, p)  # x -> f(e_g) f(x)
        if not np.array_equal(f_of_g_times, f_g_times_f):
            return False
    return True


def right_regular(alg: StructureConstantAlgebra) -> np.ndarray:
    """Stack of the matrices of x -> x e_i, one per basis element, read from
    the dense table."""
    return alg.mul.dense().transpose(1, 2, 0)


def trace_form_radical(alg: StructureConstantAlgebra) -> Subspace:
    """The radical of the regular trace form by its definition: the x with
    tr(L_x L_y) = 0 for every y, Gram[a, b] = tr(L_a L_b) read from the
    dense regular stack."""
    stack, p = left_regular(alg), alg.field.p
    return Subspace(alg.field, alg.dim, kernel(tensordot_mod(stack, stack, ([1, 2], [2, 1]), p), p))


def all_commutators(alg: StructureConstantAlgebra) -> Subspace:
    """[H, H] as the span of e_i e_j - e_j e_i over every pair (i, j)."""
    products = alg.mul.dense()  # (i, j, t)
    return Subspace(alg.field, alg.dim, (products - products.transpose(1, 0, 2)).reshape(-1, alg.dim))


def truncated_times_f3() -> StructureConstantAlgebra:
    """F_3[x]/(x^3) x F_3 in the basis (1, x, x^2) of the first factor, then
    the unit of the second: the trace of left multiplication by (1, 0) is
    3 = 0, so R0 = F_3[x]/(x^3), of dimension 3, against dim J = 2, and
    H/R0 has one simple module where H has two."""
    entries = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 0, 1, 1), (1, 1, 2, 1),
               (2, 0, 2, 1), (3, 3, 3, 1)]
    return build_algebra(FieldSpec(3), 4, [1, 0, 0, 1], entries)


def endomorphism_degrees(alg: StructureConstantAlgebra, recs) -> int:
    """The sum over simple records of e = (dim S)**2 / codim P, the degree
    of End(S) over F_p (Wedderburn: H/P = M_d(F_{p^e}))."""
    return sum(r.dim ** 2 // (alg.dim - r.annihilator.dim) for r in recs)


def joint_kernel(field: FieldSpec, maps: np.ndarray) -> Subspace:
    """Common kernel of a stack of (m, m) matrices acting on column vectors."""
    p = field.p
    current = Subspace.full(field, maps.shape[-1])
    for mat in maps:
        if current.dim == 0:
            break
        imgs = matmul_mod(current.basis, mat.T, p)
        coeffs = kernel(imgs.T, p)  # combinations of the current basis killed by mat
        current = Subspace(field, current.ambient, matmul_mod(coeffs, current.basis, p))
    return current


def is_character(alg: StructureConstantAlgebra, values) -> bool:
    """chi(1) = 1 and chi(e_i e_j) = chi(e_i) chi(e_j) for every pair, read
    from the dense table."""
    p = alg.field.p
    v = asmat(values, p)
    if v.shape != (alg.dim,) or int(matmul_mod(v, alg.unit, p)) != 1:
        return False
    return np.array_equal(matmul_mod(alg.mul.dense(), v, p), np.outer(v, v) % p)


def refinement_holds(fib, orb) -> bool:
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


def complement_projection(sub: Subspace):
    """Projection onto a complement of `sub` spanned by standard vectors.

    Returns (projection, section, nonpivot_columns): projection is a
    (q, n) matrix sending x to the coordinates of x modulo `sub` in the
    basis of standard vectors at the non-pivot columns, and section is the
    (n, q) embedding of those standard vectors, so projection @ section is
    the identity and the kernel of projection is exactly `sub`.
    """
    n = sub.ambient
    p = sub.field.p
    pivot_set = set(sub.pivots)
    nonpivot = [c for c in range(n) if c not in pivot_set]
    q = len(nonpivot)
    proj = np.zeros((q, n), dtype=np.int64)
    for r, c in enumerate(nonpivot):
        proj[r, c] = 1
    for r, pc in enumerate(sub.pivots):
        proj[:, pc] = (proj[:, pc] - sub.basis[r][nonpivot]) % p
    section = np.zeros((n, q), dtype=np.int64)
    for r, c in enumerate(nonpivot):
        section[c, r] = 1
    return proj, section, nonpivot


def induced_constants(t: SparseTensor, mats, p: int) -> SparseTensor:
    """sum_{i,j,k} m0[a, i] m1[b, j] m2[c, k] t[i, j, k] over (d,)*3, for a
    rank-3 t over (n,)*3 and (d, n) matrices (m0, m1, m2): each leg of t read
    through its matrix, one sparse contraction per leg."""
    for m in mats:
        at = np.nonzero(m)
        leg = SparseTensor.from_entries(t.n, 2, np.column_stack([*at, m[at]]), p)
        t = permute(sparse_contract(leg, t, 1, p), (1, 2, 0))
    return SparseTensor.from_entries(len(mats[0]), 3, np.column_stack([*t.indices(), t.vals]), p)


def quotient_algebra(alg: StructureConstantAlgebra, seed: Subspace) -> StructureConstantAlgebra:
    """Quotient by the two-sided ideal the seed subspace generates.

    The ideal is one ideal_closure of the seed; ImproperIdeal if it holds
    the unit. The quotient basis consists of the images of the standard
    vectors at the non-pivot columns of the ideal's canonical basis, which
    makes the construction deterministic. The quotient's unit and
    associativity follow from the algebra's and are not checked again.
    """
    p = alg.field.p
    ideal = ideal_closure(alg, seed)
    if ideal.contains_vector(alg.unit):
        raise ImproperIdeal("ideal contains the unit")
    proj, section, nonpivot = complement_projection(ideal)
    # products of the representatives e_c, c in nonpivot, projected
    qmul = induced_constants(alg.mul, (section.T, section.T, proj), p)
    qunit = matmul_mod(proj, alg.unit, p)
    qlabels = tuple(alg.labels[c] for c in nonpivot)
    return StructureConstantAlgebra(alg.field, len(nonpivot), qunit, qmul, qlabels, certified=True)


def quotient_maps(alg: StructureConstantAlgebra, seed: Subspace):
    """The projection onto alg/I, a (q, n) matrix acting on column vectors,
    and a section back, an (n, q) matrix with projection @ section = 1, for I
    the ideal the seed generates: the maps that quotient_algebra
    reads its quotient through, on the standard vectors at the non-pivot
    columns of I."""
    proj, section, _ = complement_projection(ideal_closure(alg, seed))
    return proj, section


MappedQuotient = namedtuple("MappedQuotient", "algebra projection section")


def mapped_fiber(b, a, xi) -> MappedQuotient:
    """The fiber algebra H/H*ker(xi) (quotient_algebra of character_kernel)
    with the projection and section of quotient_maps."""
    kernel_h = character_kernel(a, xi)
    return MappedQuotient(quotient_algebra(b.alg, kernel_h), *quotient_maps(b.alg, kernel_h))


def quotient_ideal(q) -> Subspace:
    """The ideal a MappedQuotient divides by: the kernel of its projection."""
    field = q.algebra.field
    return Subspace(field, q.projection.shape[1], kernel(q.projection, field.p))


ChoppedFiber = namedtuple("ChoppedFiber", "dim simple_dims orbits")


def chopped_fiber(b, a, xi, maps, seed: int = 0):
    """The fiber over xi by chopping its own algebra: the primitive ideals of
    H/H*ker(xi), acted on by each map W descended as projection . W . section
    (quotient_maps). Returns the quotient's dimension, its simple dimensions
    and the orbit partition, or None when H*ker(xi) is all of H."""
    p = b.field.p
    kernel_h = character_kernel(a, xi)
    try:
        q = quotient_algebra(b.alg, kernel_h)
    except ImproperIdeal:
        return None
    proj, section = quotient_maps(b.alg, kernel_h)
    prims = spectrum(q, seed=seed)
    descended = [matmul_mod(matmul_mod(proj, mat, p), section, p) for mat in maps]
    return ChoppedFiber(q.dim, [it.dim for it in prims], orbits(prims, descended))


def chopped_counit_fiber(inst, seed: int = 0) -> dict:
    """cond_i, cond_ii and their witnesses from the chopped counit fiber
    algebra, under the right windings of every member of X."""
    h, a = inst.h, inst.a
    p = h.field.p
    maps = [winding(h, c) for c in x_members(h, a, enumerate_characters(h, seed=seed))]
    eps_a = Character.from_vector(p, matmul_mod(a.subspace.basis, h.counit, p))
    fiber = chopped_fiber(h, a, eps_a, maps, seed)
    return {"cond_i": all(d == 1 for d in fiber.simple_dims),
            "cond_ii": len(fiber.orbits.blocks) == 1,
            "fiber_algebra_dim": fiber.dim,
            "fiber_algebra_simple_dims": fiber.simple_dims,
            "counit_fiber_orbit_sizes": fiber.orbits.sizes()}


def chopped_uniform_fibers(inst, seed: int = 0) -> list[tuple]:
    """(xi, extends_to_h, ideal_proper, quotient_dim, all_one_dim) for every
    character xi of A, each from its chopped fiber algebra."""
    h, a = inst.h, inst.a
    entries = []
    for xi in enumerate_characters(subalgebra_as_algebra(h.alg, a.subspace)[0], seed=seed):
        fiber = chopped_fiber(h, a, xi, [], seed)
        if fiber is None:
            entries.append((xi.values, False, False, None, None))
        else:
            dims = fiber.simple_dims
            entries.append((xi.values, 1 in dims, True, fiber.dim, all(d == 1 for d in dims)))
    return entries


def fiber_bialgebra(b, a, q):
    """The bialgebra (Hopf algebra) the fiber quotient q = H/I (a
    MappedQuotient) inherits if I
    holds A+ (for proper I = H*ker(xi): xi is the counit on A) and S(I);
    else None. Delta is read at the section's vectors and projected twice."""
    p = b.field.p
    basis = a.subspace.basis
    a_plus = matmul_mod(kernel(matmul_mod(basis, b.counit, p)[None, :], p), basis, p)
    ideal = quotient_ideal(q)
    if not ideal.contains_rows(a_plus):
        return None
    if b.antipode is not None and not ideal.contains_rows(matmul_mod(ideal.basis, b.antipode.T, p)):
        return None
    proj, section = q.projection, q.section
    comul = induced_constants(b.comul, (section.T, proj, proj), p)
    antipode = None if b.antipode is None else matmul_mod(matmul_mod(proj, b.antipode, p), section, p)
    return BialgebraData(q.algebra, comul.entries(), matmul_mod(b.counit, section, p), antipode)


def x_members(b, a, chars) -> list:
    """The members of chars that agree with the counit on a basis of the
    coideal subalgebra a: X by its definition, where verify_theorem reads it
    off the counit fiber."""
    p, basis = b.field.p, a.subspace.basis
    eps_a = matmul_mod(basis, b.counit, p)
    return [c for c in chars if np.array_equal(matmul_mod(basis, c.vector(), p), eps_a)]


def x_by_restriction(b, a, chars):
    """character_group_X of the members of chars that restrict to the counit on a."""
    return character_group_X(b, x_members(b, a, chars))


def convolution_table(b, chars):
    """The whole convolution table of a character set, by |chars|^2 calls of
    convolve: table[i, j] is the index of chars[i] * chars[j], and the second
    value is the index of the counit. HopfibError if a product or the counit
    is missing from the set."""
    index = {c.values: i for i, c in enumerate(chars)}
    table = np.zeros((len(chars), len(chars)), dtype=np.int64)
    for i, c1 in enumerate(chars):
        for j, c2 in enumerate(chars):
            prod = convolve(b, c1, c2).values
            if prod not in index:
                raise HopfibError("character set is not closed under convolution")
            table[i, j] = index[prod]
    if counit_character(b).values not in index:
        raise HopfibError("counit is missing from the character set")
    return table, index[counit_character(b).values]


def table_greedy_generators(table, ident) -> list[int]:
    """Generators of a finite group from its whole table, chosen greedily in
    index order: each index not yet reached from the identity by right
    products with the generators so far becomes one."""
    gens, reached = [], np.arange(len(table)) == ident
    for i in range(len(table)):
        if not reached[i]:
            gens.append(i)
            while not reached[table[np.ix_(reached, gens)]].all():
                reached[table[np.ix_(reached, gens)]] = True
    return gens


def exhaustive_center(alg: StructureConstantAlgebra) -> Subspace:
    """Joint kernel of the commutator maps v -> e_i v - v e_i over every basis element."""
    return joint_kernel(alg.field, (left_regular(alg) - right_regular(alg)) % alg.field.p)


def brute_force_centre(alg: StructureConstantAlgebra) -> Subspace:
    """{z : z e_i = e_i z for every i}, solved from the structure constants
    entry by entry: sum_j z_j (m[j, i, k] - m[i, j, k]) = 0 for all i, k."""
    n, p = alg.dim, alg.field.p
    system = [[0] * n for _ in range(n * n)]
    for i, j, k, c in alg.mul.entries():  # e_i e_j holds c e_k
        system[j * n + k][i] += c  # in z e_j, from z_i
        system[i * n + k][j] -= c  # in e_i z, from z_j
    rows = [[x % p for x in row] for row in system]
    return Subspace(alg.field, n, kernel(np.array(rows, dtype=np.int64), p))


def multiply_rows_by_basis(alg: StructureConstantAlgebra, rows, side) -> np.ndarray:
    """All products e_i * v (side='left') or v * e_i (side='right'), as rows
    in no particular order."""
    stack = left_regular(alg) if side == "left" else right_regular(alg)
    imgs = matmul_mod(stack, asmat(rows, alg.field.p).T, alg.field.p)  # (i, k, r)
    return imgs.transpose(0, 2, 1).reshape(-1, alg.dim)


def exhaustive_ideal_closure(alg: StructureConstantAlgebra, seed: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the seed, closing under left and
    right multiplication by every basis element until the span stops growing."""
    current = seed
    while True:
        rows = np.vstack([current.basis, multiply_rows_by_basis(alg, current.basis, "left"),
                          multiply_rows_by_basis(alg, current.basis, "right")])
        bigger = Subspace(alg.field, alg.dim, rows)
        if bigger.dim == current.dim:
            return bigger
        current = bigger


def whole_basis_ideal_closure(alg: StructureConstantAlgebra, seed: Subspace) -> Subspace:
    """Smallest two-sided ideal containing the seed, mapping the whole basis
    of the span under every map of closing_maps on each round until the span
    stops growing."""
    maps = np.concatenate(closing_maps(alg))
    current = seed
    while True:
        imgs = matmul_mod(maps, current.basis.T, alg.field.p).transpose(0, 2, 1)
        bigger = Subspace(alg.field, alg.dim, np.vstack([current.basis, imgs.reshape(-1, alg.dim)]))
        if bigger.dim == current.dim:
            return bigger
        current = bigger


def masked_rref(m, p: int, dtype=np.int64):
    """linalg.rref as it eliminated before: every row with a nonzero entry in
    the pivot column, gathered and scattered through a boolean mask, over all
    columns. With dtype=object the arithmetic is on Python ints, exact."""
    r = np.array(m, dtype=np.int64).astype(dtype) % p
    nrows, ncols = r.shape
    pivots = []
    row = 0
    for col in range(ncols):
        if row == nrows:
            break
        piv = row + int(np.argmax(r[row:, col] != 0))
        if r[piv, col] == 0:
            continue
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        r[row] = (r[row] * modinv(int(r[row, col]), p)) % p
        mask = r[:, col] != 0
        mask[row] = False
        if mask.any():
            r[mask] = (r[mask] - np.outer(r[mask, col], r[row])) % p
        pivots.append(col)
        row += 1
    return r, row, tuple(pivots)


def per_vector_fiber_comul(b, fq) -> np.ndarray:
    """Dense induced coproduct of a fiber quotient: projection Delta(s) projection^T
    for each section column s, two dense products per quotient basis vector."""
    p, proj = b.field.p, fq.projection
    return np.stack([matmul_mod(matmul_mod(proj, b.comul_of(col), p), proj.T, p) for col in fq.section.T])


def all_pairs_module_witness(alg: StructureConstantAlgebra, action: np.ndarray):
    """"unit" if the unit does not act as the identity, else the smallest pair
    (i, j) with rho(e_i) rho(e_j) != rho(e_i e_j) over every pair, or None;
    one stacked product per i, over every j."""
    p, n = alg.field.p, alg.dim
    action = asmat(action, p)
    m = action.shape[1]
    if not np.array_equal(tensordot_mod(alg.unit, action, ([0], [0]), p), np.eye(m, dtype=np.int64)):
        return "unit"
    mul, flat = alg.mul.dense(), action.reshape(n, m * m)
    for i in range(n):
        actual = matmul_mod(action[i], action, p)
        expected = matmul_mod(mul[i], flat, p).reshape(n, m, m)  # mul[i][j, k]: e_k in e_i e_j
        bad = np.flatnonzero((actual != expected).any(axis=(1, 2)))
        if bad.size:
            return i, int(bad[0])
    return None


def ad_one_dim_submodules(b, ad: np.ndarray, chars=None):
    """Joint eigenspaces of the adjoint action, one per character (every
    character of b by default) with a nonzero one: every vector of a
    returned eigenspace spans a one-dimensional ad-submodule with that
    character as its eigenvalues."""
    p = b.field.p
    eye = np.eye(ad.shape[1], dtype=np.int64)
    if chars is None:
        chars = enumerate_characters(b)
    found = []
    for chi in chars:
        current = joint_kernel(b.field, (ad - chi.vector()[:, None, None] * eye) % p)
        if current.dim > 0:
            found.append((chi, current))
    return found


def iso_simple(alg: StructureConstantAlgebra, action1, action2) -> bool:
    """True iff two simple modules over alg, given by their action stacks,
    are isomorphic.

    Criterion: equal dimensions and equal annihilators. The annihilator P of
    a simple module S is a primitive ideal; B/P is a finite-dimensional
    primitive algebra, hence simple artinian (Wedderburn), and a simple
    artinian algebra has exactly one simple module up to isomorphism. So two
    simples with the same annihilator are both that module of B/P. Both
    arguments must be simple; this is not checked.
    """
    return action1.shape[1] == action2.shape[1] and annihilator(alg, action1) == annihilator(alg, action2)


# elements the whole-module chop tries for one module of its split tree
MAX_ATTEMPTS = 256
# kernel vectors spun per irreducible factor before the dual criterion decides
SPIN_VECTORS_PER_KERNEL = 8


@dataclass
class SimpleRecord:
    """A simple module, by its action stack (one matrix per basis element of
    the algebra), with its annihilator, a primitive ideal, and its
    multiplicity in the chopped module."""

    action: np.ndarray
    annihilator: Subspace
    multiplicity: int

    @property
    def dim(self) -> int:
        return self.action.shape[1]


def left_regular(alg: StructureConstantAlgebra) -> np.ndarray:
    """Stack of left multiplication matrices, one per basis element, read
    from the dense table."""
    return permute(alg.mul, (0, 2, 1)).dense()


def annihilator(alg: StructureConstantAlgebra, action: np.ndarray) -> Subspace:
    """Kernel of the action map of a module, given by its action stack, as a
    canonical subspace of the algebra (an ideal, the action map being an
    algebra homomorphism)."""
    m = action.shape[1]
    return null_space(action.reshape(alg.dim, m * m).T, alg.field)


def spin(action: np.ndarray, seed_rows, field) -> Subspace:
    """Smallest action-invariant subspace containing the seed rows: with a
    matrix A_b per basis element b of a unital algebra, span{A_b w} holds w
    (b = 1) and is invariant (A_c A_b = A_cb), so no loop re-checks it. The
    same holds for the dual (transposed) stack."""
    m = action.shape[1]
    imgs = matmul_mod(action, asmat(seed_rows, field.p).T, field.p)  # (n, m, k)
    return Subspace(field, m, imgs.transpose(0, 2, 1).reshape(-1, m))


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
    rows of the image. Invariance is not re-checked; the chop passes spun
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


def merge_leaves(alg: StructureConstantAlgebra, leaves: list[np.ndarray]) -> list[SimpleRecord]:
    """Simple records, one per (dimension, annihilator), sorted by that key:
    two simples with one annihilator P are both the simple module of the
    simple artinian H/P."""
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


def fresh_element_try_split(action, field, rng):
    """A proper nonzero invariant subspace, or None if certified simple, from
    a fresh random element per attempt, every factor of its minimal
    polynomial at a random vector tried in turn, within MAX_ATTEMPTS
    attempts. Irreducibility is certified by the dual-module (Norton)
    criterion, which needs a factor g whose kernel dimension equals its
    degree."""
    p = field.p
    n, m, _ = action.shape
    if m == 1:
        return None
    for _ in range(MAX_ATTEMPTS):
        coeffs = rng.integers(0, p, size=n)
        theta = tensordot_mod(coeffs, action, ([0], [0]), p)
        v = rng.integers(0, p, size=m)
        if not v.any():
            continue
        f = minpoly_on_vector(theta, v, p)
        if len(f) <= 1:
            continue
        for g, _mult in irreducible_factors(f, p):
            nullsp = kernel(poly_eval_matrix(g, theta, p), p)
            if nullsp.shape[0] == 0:
                continue
            for w in nullsp[:SPIN_VECTORS_PER_KERNEL]:
                w_spun = spin(action, [w], field)
                if 0 < w_spun.dim < m:
                    return w_spun
            if nullsp.shape[0] == len(g) - 1:
                # the dual (Norton) criterion is decisive
                dual_null = kernel(poly_eval_matrix(g, theta.T % p, p), p)
                u_spun = spin(action.transpose(0, 2, 1), [dual_null[0]], field)
                if u_spun.dim < m:
                    return Subspace(field, m, kernel(u_spun.basis, p))
                return None
    raise BudgetExceeded(f"no decisive element for a module of dimension {m}")


def whole_module_chop(alg: StructureConstantAlgebra, action: np.ndarray, seed: int = 0) -> list:
    """The composition factors of any module, given by its action stack, by
    the standard randomized MeatAxe: the whole module seeds the split stack,
    each module of the split tree draws its own elements
    (fresh_element_try_split), and the leaves are merged by (dimension,
    annihilator) (merge_leaves). Every leaf is a subquotient of the module,
    so its action is an algebra map by exactness and is not checked, nor is
    the invariance of the subspaces it splits along (see spin)."""
    rng = np.random.default_rng(seed)
    stack, leaves = [asmat(action, alg.field.p)], []
    while stack:
        act = stack.pop()
        w = fresh_element_try_split(act, alg.field, rng)
        if w is None:
            leaves.append(act)
            continue
        stack += [restrict_action(act, w, alg.field.p), quotient_action(act, w, alg.field.p)]
    assert sum(a.shape[1] for a in leaves) == action.shape[1]
    return merge_leaves(alg, leaves)


def chop(alg: StructureConstantAlgebra, seed: int = 0) -> list[SimpleRecord]:
    """The simple modules of the algebra, with annihilators and
    multiplicities: the whole-module chop of its regular module."""
    return whole_module_chop(alg, left_regular(alg), seed)


def power_sum_poly_eval(coeffs_desc, theta, p: int) -> np.ndarray:
    """g(theta) as the sum of c_i theta^(d-i) over the powers of theta, in
    exact Python integers."""
    theta = np.array(np.asarray(theta) % p, dtype=object)
    power = np.eye(theta.shape[0], dtype=np.int64).astype(object)
    out = np.zeros_like(power)
    for c in reversed(list(coeffs_desc)):
        out = (out + int(c) * power) % p
        power = power.dot(theta) % p
    return out.astype(np.int64)


def checked_module(alg: StructureConstantAlgebra, action) -> np.ndarray:
    """The action stack of a left module over alg, reduced mod p, after the
    module axioms: a square matrix per basis element, the unit acting as the
    identity, then rho(e_i) rho(e_j) = rho(e_i e_j) for i in G
    (algebra.first_failure; the i on which rho is multiplicative form a
    unital subalgebra of a certified algebra) and over the whole basis only
    on a failure there, so the witness is the smallest failing pair. Raises
    DimensionMismatch naming the failure."""
    p = alg.field.p
    action = asmat(action, p)
    if action.ndim != 3 or action.shape[0] != alg.dim or action.shape[1] != action.shape[2]:
        raise DimensionMismatch(f"action stack has shape {action.shape}")
    m = action.shape[1]
    if not np.array_equal(tensordot_mod(alg.unit, action, ([0], [0]), p), np.eye(m, dtype=np.int64)):
        raise DimensionMismatch("unit does not act as the identity")
    flat = action.reshape(alg.dim, m * m)
    eye = np.eye(alg.dim, dtype=np.int64)

    def chain(first):
        for i in range(alg.dim) if first is None else first:
            actual = matmul_mod(action[i], action, p)
            # left_mult_matrix(e_i).T[j, k] = coefficient of e_k in e_i e_j
            expected = matmul_mod(alg.left_mult_matrix(eye[i]).T, flat, p).reshape(actual.shape)
            bad = np.flatnonzero((actual != expected).any(axis=(1, 2)))
            if bad.size:
                return int(i), int(bad[0])
        return None

    at = first_failure(chain, alg.generators if alg.certified else None)
    if at is not None:
        raise DimensionMismatch(f"action is not an algebra homomorphism at basis pair {at}")
    return action


def two_elimination_kernel(m, p: int) -> np.ndarray:
    """RREF row basis of {x : m @ x = 0}: one null vector per free column of
    rref(m), then a second rref to bring the vectors to canonical form."""
    m = np.asarray(m, dtype=np.int64)
    ncols = m.shape[1]
    r, _rank, pivots = rref(m, p)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for idx, fc in enumerate(free):
        basis[idx, fc] = 1
        for rr, pc in enumerate(pivots):
            basis[idx, pc] = (-r[rr, fc]) % p
    if not free:
        return basis
    canon, krank, _ = rref(basis, p)
    assert krank == len(free)
    return canon[:krank]


def fixed_point_spin(action: np.ndarray, seed_rows, field) -> Subspace:
    """Smallest invariant subspace containing the seed rows, by iterating.

    Images of the newest basis vectors are added until none is new, so it
    needs neither a unit nor a full basis of the acting algebra.
    """
    p = field.p
    m = action.shape[1]
    sub = Subspace(field, m, seed_rows)
    new = sub.basis
    while new.shape[0] and sub.dim < m:
        imgs = matmul_mod(action, new.T, p).transpose(0, 2, 1).reshape(-1, m)
        resid = sub.reduce_rows(imgs)
        resid = resid[resid.any(axis=1)]
        if resid.shape[0] == 0:
            break
        grown = Subspace(field, m, np.vstack([sub.basis, resid]))
        if grown.dim == sub.dim:
            break
        sub = grown
        new = resid
    return sub


def checked_restrict_action(action: np.ndarray, sub: Subspace, p: int) -> np.ndarray:
    """Action on `sub` from the full image; DimensionMismatch unless `sub` is invariant."""
    m = action.shape[1]
    imgs = matmul_mod(action, sub.basis.T, p)  # (n, m, k)
    if sub.reduce_rows(imgs.transpose(0, 2, 1).reshape(-1, m)).any():
        raise DimensionMismatch("subspace is not invariant under the action")
    return imgs[:, list(sub.pivots), :]


def product_quotient_action(action: np.ndarray, sub: Subspace, p: int) -> np.ndarray:
    """Action on the quotient by `sub` as projection @ action @ section."""
    proj, section, _ = complement_projection(sub)
    return matmul_mod(proj, matmul_mod(action, section, p), p)


def krylov_solve_minpoly(theta: np.ndarray, v: np.ndarray, p: int) -> list[int]:
    """Minimal polynomial of theta at v, solving the Krylov system again for
    every new vector theta^k v until it depends on the ones before it."""
    rows = [v % p]
    while True:
        nxt = matmul_mod(theta, rows[-1], p)
        sol = solve(np.array(rows, dtype=np.int64).T, nxt, p)
        if sol.consistent:
            k = len(rows)
            return [1] + [int(-sol.particular[k - 1 - i]) % p for i in range(k)]
        rows.append(nxt)


def binary_ladder_pow(ring, a: list[int], e: int) -> list[int]:
    """a**e in a linalg._Quotient ring by the plain binary ladder from 1: one
    squaring per bit of e and one product per 1 bit."""
    out = [1]
    for bit in bin(e)[2:]:
        out = ring.mul(out, out)
        if bit == "1":
            out = ring.mul(out, a)
    return out


def pairwise_quotient_mul(alg: StructureConstantAlgebra, ideal: Subspace) -> np.ndarray:
    """Dense structure constants of alg/ideal on the standard vectors at the
    ideal's non-pivot columns, one projected product per pair."""
    p = alg.field.p
    proj, _, nonpivot = complement_projection(ideal)
    mul = alg.mul.dense()
    q = len(nonpivot)
    qmul = np.zeros((q, q, q), dtype=np.int64)
    for a in range(q):
        for b in range(q):
            qmul[a, b] = matmul_mod(proj, mul[nonpivot[a], nonpivot[b]], p)
    return qmul


def pairwise_subalgebra_mul(alg: StructureConstantAlgebra, a: Subspace) -> np.ndarray:
    """Dense structure constants of a subalgebra in its RREF basis, one
    product per pair; coordinates are the pivot entries."""
    k = a.dim
    piv = list(a.pivots)
    sub_mul = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            sub_mul[i, j] = multiply(alg, a.basis[i], a.basis[j])[piv]
    return sub_mul


def first_nonassociative_triple(cayley) -> tuple[int, int, int] | None:
    """The first (i, j, k) in lexicographic order with (ij)k != i(jk), by looping."""
    n = len(cayley)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if cayley[cayley[i][j]][k] != cayley[i][cayley[j][k]]:
                    return (i, j, k)
    return None


def rightmost_normal_form(pres, poly: dict) -> dict:
    """Normal form of a polynomial by uncached rightmost reduction.

    Each step rewrites the rightmost position where a leading word occurs,
    trying the rules in reverse declaration order: the opposite choices to
    the library's cached leftmost path. On a confluent presentation both
    give the same normal form (Bergman's diamond lemma).
    """
    p = pres.field.p
    out: dict = {}
    work = [(w, c % p) for w, c in poly.items() if c % p]
    while work:
        word, coeff = work.pop()
        red = next(
            ((pos, rule) for pos in reversed(range(len(word))) for rule in reversed(pres.rules)
             if word[pos : pos + len(rule.lhs)] == rule.lhs),
            None,
        )
        if red is None:
            out[word] = (out.get(word, 0) + coeff) % p
            continue
        pos, rule = red
        for rw, rc in rule.rhs:
            work.append((word[:pos] + rw + word[pos + len(rule.lhs) :], coeff * rc % p))
    return {w: c for w, c in out.items() if c}


def multiplication_by_normal_forms(pres) -> SparseTensor:
    """The multiplication of a certified presentation by the normal form of
    every one of the n**2 concatenations of two basis words."""
    basis = enumerate_basis(pres)
    index = {w: i for i, w in enumerate(basis)}
    entries = [(i, j, index[w], c) for i, wi in enumerate(basis) for j, wj in enumerate(basis)
               for w, c in normalize(pres, {wi + wj: 1}).items()]
    return SparseTensor.from_entries(len(basis), 3, entries, pres.field.p)


def inverse_mod(t, p):
    """Inverse of an invertible list-of-lists matrix over F_p, by Gauss-Jordan."""
    n = len(t)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(t)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [x * inv % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _transform3(entries, m0, m1, m2, p):
    """out[x][y][z] = sum of m0[x][u] m1[y][v] c m2[w][z] over entries (u, v, w, c)."""
    n = len(m0)
    acc = [[[0] * n for _ in range(n)] for _ in range(n)]
    for u, v, w, c in entries:
        for x in range(n):
            cx = m0[x][u] * c
            if cx:
                for y in range(n):
                    acc[x][y][w] += cx * m1[y][v]
    m2_rows = [[(z, b) for z, b in enumerate(row) if b] for row in m2]
    out = []
    for plane in acc:
        out.append([])
        for row in plane:
            orow = [0] * n
            for w, a in enumerate(row):
                for z, b in m2_rows[w] if a else ():
                    orow[z] += a * b
            out[-1].append([c % p for c in orow])
    return out


def random_change_of_basis(d: dict, seed: int, dense: bool = True) -> dict:
    """The instance dict d rewritten in a seeded random basis, in Python ints.

    The new basis is f_i = sum_j T[i][j] e_j with T = P D (I + N): P a
    random permutation, D a random invertible diagonal and N strictly upper
    triangular with every entry above the diagonal random, so T is dense
    and so, in general, are mul, comul and the antipode in the new basis.
    With dense=False, N = 0: T is monomial and the tensors keep their
    sparsity, while their nonzero coefficients still become random.
    Old coordinates x become T^-T x: the unit and A's basis rows transform
    so, the counit as T eps, mul and comul multilinearly, and the antipode
    matrix (column j is S(e_j)) as S' = T^-T S T^T. Every entry stays a
    Python int, so the result is exact at any p.
    """
    p = d["field"]["p"]
    n = d["dim"]
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    scale = [rng.randrange(1, p) for _ in range(n)]
    t = [[0] * n for _ in range(n)]
    for i in range(n):
        t[perm[i]][i] = scale[i]
        for j in range(i + 1, n) if dense else ():
            t[perm[i]][j] = scale[i] * rng.randrange(1, p) % p
    tinv = inverse_mod(t, p)
    tinv_t = [list(col) for col in zip(*tinv)]

    def coords(x):  # T^-T x
        return [sum(tinv[c][k] * x[c] for c in range(n)) % p for k in range(n)]

    def entries3(tensor):
        return [[i, j, k, c] for i, plane in enumerate(tensor)
                for j, row in enumerate(plane) for k, c in enumerate(row) if c]

    out = dict(d)
    out["basis_labels"] = [f"f{i}" for i in range(n)]
    out["unit"] = coords(d["unit"])
    # f_i f_j = sum T[i][a] T[j][b] e_a e_b, and e_k = sum_l Tinv[k][l] f_l
    out["mul"] = entries3(_transform3(d["mul"], t, t, tinv, p))
    # Delta(f_i) = sum T[i][a] Delta(e_a), with both legs rewritten in f
    out["comul"] = entries3(_transform3(d["comul"], t, tinv_t, tinv, p))
    out["counit"] = [sum(t[i][a] * d["counit"][a] for a in range(n)) % p for i in range(n)]
    if "antipode" in d:
        s = [[0] * n for _ in range(n)]
        for i, j, c in d["antipode"]:
            s[i][j] = (s[i][j] + c) % p
        s_new = [
            [sum(tinv[a][i] * s[a][b] * t[j][b] for a in range(n) for b in range(n)) % p
             for j in range(n)]
            for i in range(n)
        ]
        out["antipode"] = [
            [i, j, c] for i, row in enumerate(s_new) for j, c in enumerate(row) if c
        ]
    if "subalgebra_A" in d:
        out["subalgebra_A"] = {
            "basis_vectors": [coords(row) for row in d["subalgebra_A"]["basis_vectors"]]
        }
    return out


def checked_entry_rows(rows, key: str, arity: int, n: int, p: int) -> list[tuple]:
    """fileio's check of one mul, comul or antipode list before the bulk
    pass, entry by entry: every entry a list of arity - 1 JSON integers in
    [0, n) and an integer coefficient, which is read mod p. Raises the
    DimensionMismatch that fileio words, for the fault that loop finds
    first: an arity or index fault in any entry before a coefficient fault."""
    def typed(x, what):
        if type(x) is not int:
            raise DimensionMismatch(f"{what} {x!r} is not an integer")
        return x

    for e in rows:
        shaped = isinstance(e, list) and len(e) == arity
        if not (shaped and all(0 <= typed(i, f"{key} index") < n for i in e[:-1])):
            raise DimensionMismatch(
                f"{key} entry {e!r} is not {arity - 1} indices in [0, {n}) and a coefficient")
    return [(*e[:-1], typed(e[-1], f"{key} coefficient") % p) for e in rows]
