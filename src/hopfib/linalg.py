"""Exact linear algebra over prime fields F_p.

Matrices are plain numpy int64 arrays with entries reduced into [0, p).
Subspaces are stored as row spans in reduced row echelon form, so two
subspaces are equal iff their basis arrays are identical; no tolerances
anywhere.

Every product of field data in the package goes through
:func:`matmul_mod` or :func:`tensordot_mod`, and both are exact in int64
for every odd prime p <= 2**31. A contraction of length ``inner`` is
summed directly while ``inner * (p-1)**2 < 2**63``. Beyond that bound
the right operand is split into w-bit limbs, w being the largest width
with ``inner * (p-1) * (2**w - 1) < 2**63``, so each limb product is
exact before its reduction; the reduced limb products are recombined
Horner-style, ``acc = ((acc << w) + limb_product) % p``. At p = 2**31 - 1
and inner < 2**16 that is two 16-bit limbs (delayed modular reduction
over word-size limbs; Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).

Structure constants enter the exhaustive axiom checks as
:class:`SparseTensor`s, the usual sparse form of structure-constant
tables (de Graaf, Lie Algebras: Theory and Algorithms, 2000, ch. 1). Each
check compares two :func:`contract`/:func:`permute` chains with
:func:`first_difference`. A contraction is exact in int64: each product
of two entries is below 2**62 and is reduced before it is summed, and a
sum over k <= 2 contracted axes has at most n**k < 2**32 terms while
n < 2**16. Keys are int64 flat indices, so n**rank < 2**63; rank 5 is the
largest used.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import sympy

from .errors import DimensionMismatch, NoSuchRoot


def modinv(a: int, p: int) -> int:
    """Inverse of a modulo a prime p (works for p = 2 as well)."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p for an odd prime p <= 2**31."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or p < 3 or p > 2**31 or p % 2 == 0:
            raise ValueError(f"modulus must be an odd prime <= 2**31, got {p!r}")
        if not sympy.isprime(p):
            raise ValueError(f"modulus must be prime, got {p}")

    def inv(self, a: int) -> int:
        return modinv(a, self.p)


def asmat(entries, p: int) -> np.ndarray:
    return np.asarray(entries, dtype=np.int64) % p


def _limb_product(product, a, b, inner: int, p: int) -> np.ndarray:
    """product(a, b) mod p with b split into limbs that keep each sum in int64.

    a has entries in [0, p); b may hold any int64 values and is reduced
    first. Each product(a, limb) term is at most (p-1) * (2**w - 1), so a
    contraction of length inner stays below 2**63. The Horner step is
    exact too: limbs are used only when inner * (p-1)**2 >= 2**63, so
    2**w - 1 < p - 1, and with acc < p <= 2**31 that keeps acc << w below
    2**62.
    """
    budget = (2**63 - 1) // (inner * (p - 1))
    w = (budget + 1).bit_length() - 1  # largest w with 2**w - 1 <= budget
    b = b % p
    mask = (1 << w) - 1
    top = ((p - 1).bit_length() - 1) // w * w
    acc = product(a, b >> top) % p
    for shift in range(top - w, -1, -w):
        acc = ((acc << w) + product(a, (b >> shift) & mask) % p) % p
    return acc


def matmul_mod(a, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p, exact for every odd prime p <= 2**31.

    Entries of a must lie in [0, p); a may be any matrix type with @. With
    inner = a.shape[-1], the product is formed directly when
    inner * (p-1)**2 < 2**63 and otherwise from w-bit limbs of b, w the
    largest width with inner * (p-1) * (2**w - 1) < 2**63.
    """
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 < 2**63:
        return (a @ b) % p
    return _limb_product(lambda x, y: x @ y, a, b, inner, p)


def tensordot_mod(a: np.ndarray, b: np.ndarray, axes, p: int) -> np.ndarray:
    """np.tensordot(a, b, axes) mod p, exact for every odd prime p <= 2**31.

    Entries of a must lie in [0, p). The contracted length inner is the
    product of a's contracted axis lengths; the same bound as in
    matmul_mod picks a direct product or w-bit limbs of b.
    """
    inner = int(np.prod([a.shape[ax] for ax in np.atleast_1d(axes[0])]))
    if inner * (p - 1) ** 2 < 2**63:
        return np.tensordot(a, b, axes=axes) % p
    return _limb_product(lambda x, y: np.tensordot(x, y, axes=axes), a, b, inner, p)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def rref(m, p: int):
    """Reduced row echelon form.

    Returns (rref matrix, rank, pivot column tuple). The input is not
    modified.
    """
    r = np.array(m, dtype=np.int64) % p
    if r.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {r.shape}")
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


def kernel(m, p: int) -> np.ndarray:
    """RREF row basis of the right null space {x : m @ x = 0}."""
    m = np.asarray(m, dtype=np.int64)
    _, ncols = m.shape
    r, rank, pivots = rref(m, p)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for idx, fc in enumerate(free):
        basis[idx, fc] = 1
        for rr, pc in enumerate(pivots):
            basis[idx, pc] = (-r[rr, fc]) % p
    if len(free) == 0:
        return basis
    canon, krank, _ = rref(basis, p)
    assert krank == len(free)
    return canon[:krank]


@dataclass
class LinearSolution:
    """Result of a linear solve; `particular` is None when inconsistent."""

    consistent: bool
    particular: np.ndarray | None
    kernel: np.ndarray


def solve(m, rhs, p: int) -> LinearSolution:
    """Solve m @ x = rhs exactly over F_p.

    `rhs` may be a vector or a matrix of stacked right-hand-side columns;
    the kernel rows span all homogeneous solutions.
    """
    m = asmat(m, p)
    rhs = asmat(rhs, p)
    vector_rhs = rhs.ndim == 1
    if vector_rhs:
        rhs = rhs[:, None]
    if rhs.shape[0] != m.shape[0]:
        raise DimensionMismatch(f"rhs rows {rhs.shape[0]} != matrix rows {m.shape[0]}")
    ncols = m.shape[1]
    aug, _, pivots = rref(np.hstack([m, rhs]), p)
    if any(c >= ncols for c in pivots):
        return LinearSolution(False, None, kernel(m, p))
    part = np.zeros((ncols, rhs.shape[1]), dtype=np.int64)
    for rr, pc in enumerate(pivots):
        part[pc] = aug[rr, ncols:]
    if vector_rhs:
        part = part[:, 0]
    return LinearSolution(True, part, kernel(m, p))


def invert(m, p: int) -> np.ndarray:
    """Inverse of a square matrix; raises if singular."""
    m = asmat(m, p)
    n = m.shape[0]
    sol = solve(m, identity(n), p)
    if not sol.consistent or sol.kernel.shape[0] != 0:
        raise DimensionMismatch("matrix is singular")
    return sol.particular


def find_root_of_unity(field: FieldSpec, m: int) -> int:
    """Smallest element of F_p with multiplicative order exactly m."""
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    p = field.p
    if (p - 1) % m != 0:
        raise NoSuchRoot(f"no element of order {m} in F_{p}: {m} does not divide {p - 1}")
    prime_divs = sympy.primefactors(m)
    for x in range(1, p):
        if pow(x, m, p) != 1:
            continue
        if all(pow(x, m // q, p) != 1 for q in prime_divs):
            return x
    raise NoSuchRoot(f"no element of order {m} in F_{p}")  # unreachable for m | p-1


def complement_projection(sub: "Subspace"):
    """Projection onto a complement of `sub` spanned by standard vectors.

    Returns (projection, section, nonpivot_columns): projection is a
    (q, n) matrix sending x to the coordinates of x modulo `sub` in the
    basis of standard vectors at the non-pivot columns, and section is the
    (n, q) embedding of those standard vectors, so projection @ section is
    the identity and the kernel of projection is exactly `sub`.
    """
    n = sub.ambient
    p = sub.field.p
    nonpivot = [c for c in range(n) if c not in set(sub.pivots)]
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


class Subspace:
    """Canonical subspace of F_p**n: the row span of an RREF basis.

    Equality, hashing and fiber grouping all reduce to comparing the
    canonical basis arrays bit for bit.
    """

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field: FieldSpec, ambient: int, rows=None):
        self.field = field
        self.ambient = ambient
        if rows is None or (hasattr(rows, "__len__") and len(rows) == 0):
            basis = np.zeros((0, ambient), dtype=np.int64)
            pivots = ()
        else:
            rows = asmat(rows, field.p)
            if rows.ndim != 2 or rows.shape[1] != ambient:
                raise DimensionMismatch(
                    f"rows of width {rows.shape} do not fit ambient {ambient}"
                )
            r, rank, pivots = rref(rows, field.p)
            basis = r[:rank]
        basis.setflags(write=False)
        self.basis = basis
        self.pivots = pivots

    @classmethod
    def zero(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls(field, ambient)

    @classmethod
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls(field, ambient, identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def is_zero(self) -> bool:
        return self.dim == 0

    def key(self) -> bytes:
        return self.basis.tobytes()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis.shape == other.basis.shape
            and bool(np.array_equal(self.basis, other.basis))
        )

    def __hash__(self):
        return hash((self.ambient, self.key()))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient}, p={self.field.p})"

    def reduce_rows(self, rows: np.ndarray) -> np.ndarray:
        """Residual of row vectors after subtracting their projection on self."""
        rows = asmat(rows, self.field.p)
        if self.dim == 0:
            return rows
        coeff = rows[..., list(self.pivots)]
        return (rows - matmul_mod(coeff, self.basis, self.field.p)) % self.field.p

    def contains_vector(self, v) -> bool:
        v = asmat(v, self.field.p)
        if v.shape != (self.ambient,):
            raise DimensionMismatch(f"vector shape {v.shape} vs ambient {self.ambient}")
        return not self.reduce_rows(v[None, :]).any()

    def contains_rows(self, rows) -> bool:
        return not self.reduce_rows(rows).any()

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return self.contains_rows(other.basis)

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.field, self.ambient, np.vstack([self.basis, other.basis]))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Intersection via the kernel of the stacked bases."""
        self._check_compatible(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.field, self.ambient)
        p = self.field.p
        stacked = np.vstack([self.basis, (-other.basis) % p]).T  # ambient x (d1+d2)
        ker = kernel(stacked, p)
        coeffs = ker[:, : self.dim]
        rows = matmul_mod(coeffs, self.basis, p)
        return Subspace(self.field, self.ambient, rows)

    def image_under(self, matrix: np.ndarray) -> "Subspace":
        """Subspace spanned by matrix @ v for v in self (column convention)."""
        rows = matmul_mod(self.basis, matrix.T % self.field.p, self.field.p)
        return Subspace(self.field, self.ambient, rows)

    def _check_compatible(self, other: "Subspace"):
        if self.ambient != other.ambient or self.field.p != other.field.p:
            raise DimensionMismatch(
                f"subspace ambient/field mismatch: ({self.ambient}, {self.field.p})"
                f" vs ({other.ambient}, {other.field.p})"
            )


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


# -- sparse tensors ------------------------------------------------------------


@dataclass(frozen=True)
class SparseTensor:
    """A tensor over (n,)*rank: the strictly increasing row-major flat
    indices (keys) of its nonzero entries and their values (vals) in [1, p).

    The form is canonical, so two tensors are equal iff their arrays are.
    """

    n: int
    rank: int
    keys: np.ndarray
    vals: np.ndarray

    @classmethod
    def from_dense(cls, arr: np.ndarray) -> "SparseTensor":
        """From an array of shape (n,)*rank with entries in [0, p)."""
        keys = np.flatnonzero(arr)
        return cls(arr.shape[0], arr.ndim, keys, arr.ravel()[keys])

    @classmethod
    def from_entries(cls, n: int, rank: int, entries, p: int) -> "SparseTensor":
        """From (index_1, ..., index_rank, coefficient) rows; repeats add up."""
        data = np.array(entries, dtype=np.int64).reshape(-1, rank + 1)
        keys = np.ravel_multi_index(tuple(data[:, :rank].T), (n,) * rank)
        return _canonical(n, rank, keys, data[:, rank] % p, p)

    def indices(self) -> tuple[np.ndarray, ...]:
        return np.unravel_index(self.keys, (self.n,) * self.rank)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.n**self.rank, dtype=np.int64)
        out[self.keys] = self.vals
        return out.reshape((self.n,) * self.rank)


def _canonical(n: int, rank: int, keys: np.ndarray, vals: np.ndarray, p: int) -> SparseTensor:
    """Sort, add up the values (in [0, p)) of equal keys mod p, drop zeros."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    vals = np.add.reduceat(vals[order], starts) % p
    nonzero = vals != 0
    return SparseTensor(n, rank, keys[starts][nonzero], vals[nonzero])


def permute(t: SparseTensor, axes) -> SparseTensor:
    """Axis q of the result is axis axes[q] of t, as in np.transpose."""
    idx = t.indices()
    keys = np.ravel_multi_index(tuple(idx[ax] for ax in axes), (t.n,) * t.rank)
    order = np.argsort(keys, kind="stable")
    return SparseTensor(t.n, t.rank, keys[order], t.vals[order])


def contract(a: SparseTensor, b: SparseTensor, k: int, p: int) -> SparseTensor:
    """sum_s a[x, s] b[s, y] mod p over a's last k and b's first k axes, as (x, y).

    Each a entry is joined with the run of b entries (found by
    searchsorted on b's sorted keys) whose first k indices equal its last k.
    """
    tail = a.n ** (b.rank - k)
    a_outer, a_inner = np.divmod(a.keys, a.n**k)
    b_inner = b.keys // tail
    lo = np.searchsorted(b_inner, a_inner, side="left")
    counts = np.searchsorted(b_inner, a_inner, side="right") - lo
    rows = np.repeat(np.arange(len(counts)), counts)
    pos = np.arange(len(rows)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    keys = a_outer[rows] * tail + b.keys[pos] % tail
    return _canonical(a.n, a.rank + b.rank - 2 * k, keys, a.vals[rows] * b.vals[pos] % p, p)


def first_difference(a: SparseTensor, b: SparseTensor) -> tuple[int, ...] | None:
    """The lexicographically smallest index where a and b differ, or None.

    Both agree below the first position where their arrays part, and
    differ at the smaller of the two keys there.
    """
    m = min(len(a.keys), len(b.keys))
    same = (a.keys[:m] == b.keys[:m]) & (a.vals[:m] == b.vals[:m])
    if len(a.keys) == len(b.keys) and same.all():
        return None
    at = m if same.all() else int(np.argmin(same))
    key = min(np.concatenate([a.keys[at : at + 1], b.keys[at : at + 1]]))
    return tuple(int(i) for i in np.unravel_index(key, (a.n,) * a.rank))
