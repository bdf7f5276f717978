"""Finite-dimensional associative unital algebras given by structure constants.

An algebra of dimension n over F_p is stored as the canonical rank-3
:class:`~hopfib.linalg.SparseTensor` ``mul``, whose entry (i, j, k) is the
coefficient of e_k in e_i * e_j, together with the coefficient vector of
the unit. Products, multiplication matrices and the axiom checks are
sparse contractions of ``mul``. So are the multiplications by a batch of
elements on a quotient H/I (:meth:`StructureConstantAlgebra.quotient_mult`),
from which ``repn.spectrum`` reads the centre of H/I below, products in
it, and the annihilator in the dual of each block, and the batched
products of rows (:meth:`StructureConstantAlgebra.products`). No dense
(n, n, n) view of the multiplication is built: the radical chain reads
its matrices a batch at a time.

The unit laws and associativity are checked once, when :func:`build_algebra`
reads the data, and recorded as ``certified``, so everything downstream can
assume a genuine algebra. Algebras derived from a checked one (the
rewriting families, group algebras) inherit the axioms and are built
without checking them again.

Associativity is checked on a generating set. :attr:`StructureConstantAlgebra.generators`
is a greedy set G of basis indices whose left-normed words
g_1(g_2(...(g_k 1))) span the algebra. The left nucleus
{x : (xy)z = x(yz) for all y, z} of a unital bilinear product is a subspace
that holds 1 and is closed under the product; that needs no associativity
(Schafer, An Introduction to Nonassociative Algebras, 1966, ch. II). So
once the unit laws hold, associativity holds iff it holds with the first
factor in G. :func:`first_failure` runs a law's chain on G and reruns it
over the whole basis only on a failure there, so a witness is the
lexicographically smallest failing index, unless that rerun would pass
linalg.MAX_JOIN_TERMS: then the failure on G stands, with a warning.

The same argument bounds the closures. In a certified algebra the
elements that commute with a given z, and those whose left (or right)
products map a given subspace into itself, form unital subalgebras; so
the centre (:attr:`StructureConstantAlgebra.centre`, computed once per
algebra and read by :func:`is_central_subalgebra` and ``repn.spectrum``) and
:func:`ideal_closure` need the multiplication maps of G only, and on
uncertified data they take every basis element instead
(:func:`closing_maps`). The tests' module-axiom check
(``checked_module`` in tests/oracles.py) takes the homomorphism law on G
for the same reason. The package builds no quotient algebra: the size of
a fiber H/H*ker(xi) is read off one :func:`ideal_closure`
(``hopf.fiber_dim``). :func:`is_central_subalgebra`
takes a subspace already proved a unital subalgebra
(``hopf.coideal_subalgebra`` does so at load) and does not check it again.

One stack of commutator maps v -> e_g v - v e_g per algebra gives two
facts at once: its joint kernel is the centre, and its image is [H, H]
(:attr:`StructureConstantAlgebra.commutator_span`).
On a certified algebra [G, H] = [H, H]: for a functional f, the x with
f([x, H]) = 0 form a unital subalgebra, as [xy, h] = [x, yh] + [y, hx], so
a functional that kills [G, H] kills [H, H].

The algebra also owns the three facts from which ``repn.spectrum`` reads
Prim H off the primitive central idempotents of H/J(H):

* R0 (:attr:`StructureConstantAlgebra.trace_radical`), the radical of the
  regular trace form (x, y) -> tau(xy), tau(x) = tr(y -> xy). It is a
  two-sided ideal, since tau(xy) = tau(yx), and it holds J(H), since xy is
  nilpotent for x in J(H); so H/R0 is semisimple and its simples are simples
  of H. R0 = J(H) unless p divides a multiplicity [H : S]. R0 = 0 iff H is
  semisimple, and R0 = H for a modular group algebra, where tau = 0.
* The count dim H/T(H) (:attr:`StructureConstantAlgebra.simple_count`),
  with T(H) = {x : x^(p^N) in [H, H] for some N}: the sum over the simple
  modules S of the degree of End(S) over F_p (Kuelshammer, J. Algebra 72,
  1981). It is at least the number of simples, with equality iff F_p
  splits H, and it equals the sum of the degrees of the blocks of H/R0
  iff R0 = J(H). spectrum reads it only where 0 != R0 != H.
* J(H) itself (:attr:`StructureConstantAlgebra.radical`), where the count
  falls short or R0 = H: the chain I_0 = R0 ⊇ I_1 ⊇ ... ⊇ I_l = J(H),
  l = floor(log_p n), of Cohen, Ivanyos and Wales (J. Pure Appl. Algebra
  117-118, 1997; Ronyai, J. Symb. Comp. 9, 1990, for l = 1). I_i is the
  set of x in I_(i-1) with g_i(x y) = 0 for every y, where
  g_i(a) = (tr(A^(p^i)) mod p^(i+1)) / p^i for the lift A, with entries in
  [0, p), of the matrix of y -> a y; g_i is F_p-linear on I_(i-1) and
  does not depend on the lift or the basis. The chain needs no
  certificate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    NotAssociative,
    UnitAxiomFails,
)
from .linalg import (
    FieldSpec,
    SparseTensor,
    Subspace,
    asmat,
    contract,
    first_difference,
    kernel,
    matmul_mod,
    null_space,
    permute,
    restrict_first,
    rref,
)

# entries of a temporary of terms that StructureConstantAlgebra.products and
# quotient_mult hold at once
PRODUCT_TERMS = 2**12
# entries of the batch of (n, n) matrices that StructureConstantAlgebra.radical
# holds at once
MATRIX_BATCH = 2**20


@dataclass
class StructureConstantAlgebra:
    """Associative unital algebra over F_p with an explicit basis.

    The constructor only shapes the data. ``certified`` records that the
    unit laws and associativity hold: :func:`build_algebra` sets it after
    checking them, and builders whose output inherits the axioms (rewriting,
    group tables, and the tests' quotients and subalgebras) pass it.
    """

    field: FieldSpec
    dim: int
    unit: np.ndarray
    mul: SparseTensor  # rank 3: (i, j, k) holds the coefficient of e_k in e_i e_j
    labels: tuple[str, ...]
    certified: bool = False

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

    def left_mult_matrix(self, v) -> np.ndarray:
        """Matrix of x -> v * x acting on column vectors."""
        return contract(self._sparse(v), self.mul, 1, self.field.p).dense().T

    def right_mult_matrix(self, v) -> np.ndarray:
        """Matrix of x -> x * v acting on column vectors."""
        p = self.field.p
        return contract(permute(self.mul, (0, 2, 1)), self._sparse(v), 1, p).dense().T

    def quotient_mult(self, ideal: Subspace, rows: np.ndarray, left: bool = False) -> np.ndarray:
        """Stack of the matrices of x -> x y (of x -> y x when left) on H/I for
        a two-sided ideal I (not checked), one per row y, in row convention:
        entry (k, a, c) is the c-th coordinate of e_{r_a} y_k mod I
        (y_k e_{r_a}). H/I has the coordinates of Subspace.quotient_map, the
        classes of the standard vectors e_r at the columns r outside I's
        pivots, and each row y_k is given in them, so it lifts to the sum of
        y_k[b] e_{r_b}. Each entry mul[r_a, r_b, t] (mul[r_b, r_a, t] when
        left) adds mul[r_a, r_b, t] y_k[b] to coordinate t of e_{r_a} y_k,
        every term reduced below p before the sum of at most n terms; the
        entries are read PRODUCT_TERMS // len(rows) at a time. The products
        are kept only at the targets t that occur, and then reduced mod I,
        one product with the quotient map's rows there (a scatter when
        I = 0)."""
        p, n = self.field.p, self.dim
        rest = ideal.free_columns()
        q, m = len(rest), len(rows)
        slot = np.full(n, -1)
        slot[rest] = np.arange(q)
        mul = permute(self.mul, (1, 0, 2)) if left else self.mul
        x, y, t = mul.indices()
        keep = np.flatnonzero((slot[x] >= 0) & (slot[y] >= 0))
        targets, column = np.unique(t[keep], return_inverse=True)
        key = slot[x[keep]] * len(targets) + column
        order = np.argsort(key, kind="stable")
        key, keep = key[order], keep[order]
        coeffs = asmat(rows, p).T  # (q, m)
        out = np.zeros((q * len(targets), m), dtype=np.int64)
        step = max(1, PRODUCT_TERMS // max(1, m))
        for lo in range(0, len(keep), step):
            part, at = keep[lo:lo + step], key[lo:lo + step]
            terms = mul.vals[part, None] * coeffs[slot[y[part]]] % p  # (term, k)
            starts = np.flatnonzero(np.diff(at, prepend=-1))
            out[at[starts]] = (out[at[starts]] + np.add.reduceat(terms, starts, axis=0)) % p
        out = out.reshape(q, len(targets), m).transpose(2, 0, 1)  # (k, a, target)
        if ideal.dim:
            return matmul_mod(out, ideal.quotient_map()[targets], p)
        full = np.zeros((m, q, n), dtype=np.int64)
        full[:, :, targets] = out
        return full

    def products(self, count: int):
        """The function (u, v) -> the rows u_i v_i of two stacks of count
        rows: each entry mul[a, b, t] adds mul[a, b, t] u_i[a] v_i[b] to
        entry t of row i, every term reduced below p before the sum of at
        most n**2 terms. The entries are put in target order once, and read
        PRODUCT_TERMS // count at a time, so the temporaries stay small."""
        p, n = self.field.p, self.dim
        by_target = permute(self.mul, (2, 0, 1))
        t, a, b = by_target.indices()
        step = max(1, PRODUCT_TERMS // max(1, count))
        chunks = []
        for lo in range(0, len(t), step):
            part = slice(lo, lo + step)
            starts = np.flatnonzero(np.diff(t[part], prepend=-1))
            chunks.append((a[part], b[part], by_target.vals[part], starts, t[part][starts]))

        def times(u, v):
            out = np.zeros((len(u), n), dtype=np.int64)
            for left, right, vals, starts, targets in chunks:
                terms = u[:, left] * v[:, right] % p * vals % p
                out[:, targets] = (out[:, targets] + np.add.reduceat(terms, starts, axis=1)) % p
            return out

        return times

    def powers(self, rows: np.ndarray, e: int) -> np.ndarray:
        """Row i is rows_i ** e, e >= 1, by squaring and multiplying, each
        step one batched product of the rows (products)."""
        times = self.products(len(rows))
        power = None
        while True:
            if e & 1:
                power = rows if power is None else times(power, rows)
            e >>= 1
            if not e:
                return power
            rows = times(rows, rows)

    @cached_property
    def generators(self) -> tuple[int, ...] | None:
        """Basis indices G whose left-normed words g_1(g_2(...(g_k 1))) span
        the algebra, chosen greedily; None if there is no such G, which
        needs a failing unit law.

        G grows by the smallest i with e_i outside the span of the words so
        far, and that span is closed under x -> e_g x for g in G. Each batch
        of images is reduced against the current reduced echelon rows; only
        the residual goes through rref, and the old rows are then cleared at
        its pivots. Only left products are taken, so associativity is not
        assumed. Computed once per algebra.
        """
        p, n = self.field.p, self.dim
        rows, pivots = np.zeros((0, n), dtype=np.int64), []

        def times(a, b):  # a @ b mod p over the nonzero rows and columns of a
            out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
            r, c = np.flatnonzero(a.any(axis=1)), np.flatnonzero(a.any(axis=0))
            out[r] = matmul_mod(a[np.ix_(r, c)], b[c], p)
            return out

        def extend(images):  # the new echelon rows the images add to the span
            nonlocal rows
            resid = (images - times(images[:, pivots], rows)) % p
            new, rank, piv = rref(resid[resid.any(axis=1)], p)
            new = new[:rank]
            rows = np.vstack([(rows - times(rows[:, list(piv)], new)) % p, new])
            pivots.extend(piv)
            return new

        gens, maps = [], []
        fresh = extend(self.unit[None, :])  # rows not yet multiplied by every generator
        while True:
            while len(fresh) and maps:
                fresh = extend(np.vstack([times(fresh, m) for m in maps]))
            if len(pivots) == n:
                return tuple(gens)
            # e_i is in the span iff i is a pivot whose row is e_i
            inside = {pivots[r] for r in np.flatnonzero(np.count_nonzero(rows, axis=1) == 1)}
            g = min(set(range(n)) - inside)
            if g in gens:
                return None
            gens.append(g)
            maps.append(contract(self._sparse(np.eye(n, dtype=np.int64)[g]), self.mul, 1, p).dense())
            fresh = extend(times(rows, maps[-1]))

    @cached_property
    def _commutator_facts(self) -> tuple[Subspace, Subspace]:
        """The joint kernel and the image of one stack of commutator maps
        v -> e_g v - v e_g, g over the index set of closing_maps: the centre
        and [H, H] (see the module docstring). The stack is built once per
        algebra and not kept."""
        lefts, rights = closing_maps(self)
        stack = (lefts - rights) % self.field.p
        return (null_space(stack.reshape(-1, self.dim), self.field),
                Subspace(self.field, self.dim, stack.transpose(0, 2, 1).reshape(-1, self.dim)))

    @property
    def centre(self) -> Subspace:
        """The centre: the joint kernel of the commutator maps."""
        return self._commutator_facts[0]

    @property
    def commutator_span(self) -> Subspace:
        """[H, H]: the span of the images of the commutator maps, the
        columns e_g e_k - e_k e_g."""
        return self._commutator_facts[1]

    @cached_property
    def trace_radical(self) -> Subspace:
        """R0, the radical of the regular trace form: the x with
        tau(x y) = 0 for every y, tau(x) = tr(y -> x y). tau_c is the sum of
        mul[c, s, s] (the diagonal entries of mul, summed as repeats), and
        Gram[a, b] = tau(e_a e_b) the sum of mul[a, b, c] tau_c, one
        contraction of mul. See the module docstring for what R0 is."""
        p, n = self.field.p, self.dim
        j, s, t = self.mul.indices()
        tau = SparseTensor.from_entries(n, 1, np.column_stack([j, self.mul.vals])[s == t], p)
        return null_space(contract(self.mul, tau, 1, p).dense().T, self.field)

    @cached_property
    def simple_count(self) -> int:
        """dim H/T(H), T(H) = {x : x^(p^N) in [H, H] for some N}: the sum
        over the simple modules S of the degree of End(S) over F_p
        (Kuelshammer), so at least the number of simples, with equality iff
        F_p splits H. Modulo K = [H, H] the p-th power map F is F_p-linear
        (Jacobson's formula) and maps K into K, so T(H)/K is the generalized
        kernel of F on H/K and dim H/T(H) the rank of F^c, c = dim H/K. F is
        read off the p-th powers of the standard vectors at the columns
        outside K's pivots, a basis of H/K, by squaring and multiplying in
        batches (powers). Needs a certified algebra."""
        p, n = self.field.p, self.dim
        k = self.commutator_span
        rest = k.free_columns()
        frob = k.reduce_rows(self.powers(np.eye(n, dtype=np.int64)[rest], p))[:, rest]  # row i: F(e_rest[i])
        for _ in range(len(rest).bit_length()):  # F^(2^s) with 2^s > c
            frob = matmul_mod(frob, frob, p)
        return rref(frob, p)[1]

    @cached_property
    def radical(self) -> Subspace:
        """J(H), the last ideal of the chain R0 = I_0 ⊇ I_1 ⊇ ... over the
        levels i with p**i <= n (see the module docstring). I_i is the set
        of x in I_(i-1) with g_i(x y) = 0 for every y, and g_i is F_p-linear
        on I_(i-1); so with phi its values on the basis u_k of I_(i-1), put
        at their pivot columns, I_i is the set of sum c_k u_k with
        sum_k c_k phi(u_k e_b) = 0 for every b, one contraction of mul with
        phi. g_i(u) is read from the map y -> u y on I_(i-1), lifted to
        [0, p): its p**i-th power's trace mod q = p**(i+1) (_power_traces),
        divided by p**i. Since u H lies in I_(i-1), the map on H has a lift
        that is block triangular in a basis through I_(i-1), with this one
        as its only nonzero diagonal block, so the traces agree. The matrices come from quotient_mult(0, rows, left=True)
        for a batch of basis rows at a time; the RREF basis b_j of I_(i-1)
        has the unit vectors at its pivots, so the coordinates of u_k b_j
        need a product only over its free columns. q <= n**2 < 2**31 keeps
        matmul_mod exact for every n below 46,341. Needs a certified
        algebra."""
        p, n = self.field.p, self.dim
        ideal, level, zero = self.trace_radical, 1, Subspace(self.field, n)
        while ideal.dim and p ** level <= n:
            piv, free = list(ideal.pivots), ideal.free_columns()
            step = max(1, MATRIX_BATCH // n**2)
            traces = []
            for lo in range(0, ideal.dim, step):
                # row a of matrix k: the coordinates of u_k e_a in I_(i-1), its pivot entries
                acts = self.quotient_mult(zero, ideal.basis[lo:lo + step], left=True)[:, :, piv]
                acts = (acts[:, piv] + matmul_mod(ideal.basis[:, free], acts[:, free], p)) % p
                traces.append(_power_traces(acts, p ** level, p ** (level + 1)))
            phi = np.zeros(n, dtype=np.int64)
            phi[piv] = np.concatenate(traces) // p ** level
            if phi.any():
                form = contract(self.mul, SparseTensor.from_dense(phi), 1, p).dense()  # [s, b]: phi(e_s e_b)
                coeffs = kernel(matmul_mod(ideal.basis, form, p).T, p)
                ideal = Subspace(self.field, n, matmul_mod(coeffs, ideal.basis, p))
            level += 1
        return ideal

    def __repr__(self):
        return f"StructureConstantAlgebra(dim={self.dim}, p={self.field.p})"


def _power_traces(acts: np.ndarray, e: int, q: int) -> np.ndarray:
    """tr(A**e) mod q for each matrix A of the stack, entries in [0, q), e
    odd: A**h, h = e // 2, by squaring and multiplying, then A**(h+1), and
    tr(A**h A**(h+1)) as one dot product of the two matrices' entries, the
    second transposed, which saves the last product."""
    power, base, h = None, acts, e // 2
    while True:
        if h & 1:
            power = base if power is None else matmul_mod(power, base, q)
        h >>= 1
        if not h:
            break
        base = matmul_mod(base, base, q)
    c, m, _ = acts.shape
    upper = matmul_mod(power, acts, q).transpose(0, 2, 1)
    return matmul_mod(power.reshape(c, 1, m * m), upper.reshape(c, m * m, 1), q).reshape(c)


def first_failure(chain, gens):
    """The witness of a law, or None where it holds.

    chain(first) checks the law with its first factor in the index array
    first (None: every basis element) and returns the lexicographically
    smallest failing index there. With gens, a set on which a pass implies
    the law (see the module docstring), the chain runs on gens first; a
    failure there, or gens None, runs it over the whole basis. If that rerun
    would pass linalg.MAX_JOIN_TERMS, the failure on gens, which is genuine,
    is the witness, with a warning that it may not be the smallest.
    """
    if gens is None:
        return chain(None)
    at = chain(np.asarray(gens))
    if at is None:
        return None
    try:
        return chain(None)
    except BudgetExceeded:
        warnings.warn(f"the witness is the failure at {tuple(map(int, at))}, found on the generating "
                      "set G: the rerun over every basis element would pass linalg.MAX_JOIN_TERMS",
                      stacklevel=2)
        return at


def _check_unit(alg):
    """1 e_i = e_i for every i, then e_i 1 = e_i; the witness is the first failing i."""
    p = alg.field.p
    u = SparseTensor.from_dense(alg.unit)
    eye = SparseTensor.from_dense(np.eye(alg.dim, dtype=np.int64))
    sides = (("left", contract(u, alg.mul, 1, p)),
             ("right", contract(permute(alg.mul, (0, 2, 1)), u, 1, p)))
    for side, prod in sides:
        at = first_difference(prod, eye)
        if at is not None:
            raise UnitAxiomFails(at[0], side)


def _check_associative(alg, gens=None):
    """Check (e_i e_j) e_k = e_i (e_j e_k) for i in gens, else for all triples.

    gens may be alg.generators once the unit laws hold: the left nucleus
    then contains the span of the left-normed words in gens, which is the
    whole algebra (see the module docstring). A failure on gens reruns the
    check on every triple, so the witness is the lexicographically
    smallest failing triple.

    Both sides are sparse rank-4 tensors over (i, j, k, t), t indexing the
    coefficient of e_t: (e_i e_j) e_k = sum_s m[i,j,s] m[s,k,t] is one
    contraction of the multiplication tensor m, restricted to the i in
    question, with m, and e_i (e_j e_k) = sum_s m[j,k,s] m[i,s,t] is m
    contracted with the restricted m permuted to (s, i, t), then permuted
    back from (j, k, i, t).
    """
    p, mul = alg.field.p, alg.mul

    def chain(first):
        left = restrict_first(mul, first)
        lhs = contract(left, mul, 1, p)
        rhs = permute(contract(mul, permute(left, (1, 0, 2)), 1, p), (2, 0, 1, 3))
        at = first_difference(lhs, rhs)
        return None if at is None else at[:3]

    at = first_failure(chain, gens)
    if at is not None:
        raise NotAssociative(*at)


def build_algebra(field: FieldSpec, dim: int, unit, entries, labels=()) -> StructureConstantAlgebra:
    """Construct an algebra from sparse multiplication entries and verify it.

    Raises NotAssociative or UnitAxiomFails with a witness when the data
    does not define an associative unital algebra.
    """
    alg = StructureConstantAlgebra(field, dim, unit, SparseTensor.from_entries(dim, 3, entries, field.p),
                                   tuple(labels))
    _check_unit(alg)
    _check_associative(alg, alg.generators)
    alg.certified = True
    return alg


# -- subspaces of an algebra ---------------------------------------------


def closing_maps(alg: StructureConstantAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Stacks of the matrices of x -> e_g x and of x -> x e_g, for g in G when
    the algebra is certified (see the module docstring), else for every
    basis index."""
    gens = alg.generators if alg.certified else None
    index = range(alg.dim) if gens is None else gens
    eye = np.eye(alg.dim, dtype=np.int64)
    shape = (len(index), alg.dim, alg.dim)
    return (np.array([alg.left_mult_matrix(eye[g]) for g in index]).reshape(shape),
            np.array([alg.right_mult_matrix(eye[g]) for g in index]).reshape(shape))


def ideal_closure(alg: StructureConstantAlgebra, seed: Subspace, maps: np.ndarray | None = None) -> Subspace:
    """Smallest two-sided ideal containing the seed subspace: its closure
    under the maps of closing_maps, or under the given stack of maps (the
    right ones alone give the right ideal). Each round maps only the rows
    the last round added (modulo the span so far), since the images of the
    older rows are already in that span."""
    if seed.ambient != alg.dim:
        raise DimensionMismatch("seed lives in the wrong ambient space")
    if maps is None:
        maps = np.concatenate(closing_maps(alg))
    current, new = seed, seed.basis
    while True:
        imgs = matmul_mod(maps, new.T, alg.field.p).transpose(0, 2, 1)  # (map, row, coordinate)
        added = Subspace(alg.field, alg.dim, current.reduce_rows(imgs.reshape(-1, alg.dim)))
        if added.dim == 0:
            return current
        current, new = current + added, added.basis


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


def is_central_subalgebra(alg: StructureConstantAlgebra, a: Subspace) -> bool:
    """Is the subspace a inside the centre? a must be a unital subalgebra
    (see the module docstring)."""
    return alg.centre.contains_rows(a.basis)
