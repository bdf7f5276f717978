"""Exact linear algebra over prime fields F_p.

Matrices are plain numpy int64 arrays with entries reduced into [0, p).
Subspaces are stored as row spans in reduced row echelon form, so two
subspaces are equal iff their basis arrays are identical; no tolerances
anywhere.

Every product of field data in the package goes through
:func:`matmul_mod`, which is exact in int64 for every modulus p <= 2**31:
the odd primes, and the prime powers of the radical chain
(``StructureConstantAlgebra.radical``), since the bounds below use only
the modulus' size. A contraction of length ``inner`` is
summed directly while ``inner * (p-1)**2 < 2**63``. Beyond that bound
the right operand is split into w-bit limbs, w being the largest width
with ``inner * (p-1) * (2**w - 1) < 2**63``, so each limb product is
exact before its reduction; the reduced limb products are recombined
Horner-style, ``acc = ((acc << w) + limb_product) % p``. At p = 2**31 - 1
and inner < 2**16 that is two 16-bit limbs (delayed modular reduction
over word-size limbs; Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008).

Structure constants are stored only as :class:`SparseTensor`s, the usual
sparse form of structure-constant tables (de Graaf, Lie Algebras: Theory
and Algorithms, 2000, ch. 1): the multiplication and the comultiplication
are canonical rank-3 tensors, read from and written back to (index...,
coefficient) rows by :meth:`SparseTensor.from_entries` and
:meth:`SparseTensor.entries`. Products with vectors and each axiom
check are :func:`contract`/:func:`permute` chains; a check compares
two of them with :func:`first_difference`. A contraction is exact in int64: each product
of two entries is below 2**62 and is reduced before it is summed, and a
sum over k <= 2 contracted axes has at most n**k < 2**32 terms while
n < 2**16. Keys are int64 flat indices, so n**rank < 2**63; rank 5 is the
largest used. A join of more than MAX_JOIN_TERMS term pairs raises BudgetExceeded.

Polynomials over F_p are lists of Python ints, highest degree first.
:func:`irreducible_factors` is the standard finite-field factoriser as a
stream, lowest degree first, computed only as far as it is read:
squarefree decomposition (with p-th roots, since a minimal polynomial may
have degree >= p), distinct-degree factorisation one degree at a time
(von zur Gathen and Shoup, Comput. Complexity 2, 1992; degree 1 needs only
x**p, the Frobenius rows are built at degree 2), and depth-first
Cantor-Zassenhaus splitting (Math. Comp. 36, 1981). Products are Kronecker
substitutions: the coefficients are packed into one Python int,
multiplied once and unpacked; powers take sliding windows sized to the
exponent. The splitting is randomised with a fixed-seed generator per
stream, so the stream is deterministic; factorisation in F_p[x] being
unique, the set of factors it yields does not depend on that seed.
:func:`is_prime` is deterministic Miller-Rabin with bases 2, 3, 5 and 7,
which is exact below 3,215,031,751 and so for every modulus up to 2**31.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, DimensionMismatch, NoSuchRoot


def modinv(a: int, p: int) -> int:
    """Inverse of a modulo a prime p (works for p = 2 as well)."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse mod {p}")
    return pow(a, p - 2, p)


MILLER_RABIN_BOUND = 3_215_031_751  # least strong pseudoprime to bases 2, 3, 5 and 7


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 3, 5, 7, exact for n < 3,215,031,751."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"is_prime is exact only below {MILLER_RABIN_BOUND}, got {n}")
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(m: int) -> list[int]:
    """The distinct prime divisors of m >= 1, increasing, by trial division."""
    out = []
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return out + [m] if m > 1 else out


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p for an odd prime p <= 2**31."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or p < 3 or p > 2**31 or p % 2 == 0:
            raise ValueError(f"modulus must be an odd prime <= 2**31, got {p!r}")
        if not is_prime(p):
            raise ValueError(f"modulus must be prime, got {p}")


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
    """a @ b mod p, exact for every modulus p <= 2**31 (see the module
    docstring).

    Entries of a must lie in [0, p); a may be any matrix type with @. With
    inner = a.shape[-1], the product is formed directly when
    inner * (p-1)**2 < 2**63 and otherwise from w-bit limbs of b, w the
    largest width with inner * (p-1) * (2**w - 1) < 2**63.
    """
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 < 2**63:
        return (a @ b) % p
    return _limb_product(lambda x, y: x @ y, a, b, inner, p)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def rref(m, p: int):
    """Reduced row echelon form.

    Returns (rref matrix, rank, pivot column tuple). The input is not
    modified. At a column without a pivot, one scan of the rows below the
    last pivot finds the next column where they are not all zero, and the
    elimination jumps there, or stops if there is none: row operations
    cannot make a pivot out of zero rows. So an elimination that finds a
    pivot in every column pays nothing for the scans, and a run of columns
    without a pivot costs one scan.
    """
    r = np.array(m, dtype=np.int64) % p
    if r.ndim != 2:
        raise DimensionMismatch(f"expected a 2-d array, got shape {r.shape}")
    nrows, ncols = r.shape
    pivots = []
    row = col = 0
    while row < nrows and col < ncols:
        piv = row + int(np.argmax(r[row:, col] != 0))
        if r[piv, col] == 0:
            # the rows below are zero left of col + 1
            ahead = np.flatnonzero(r[row:, col + 1:].any(axis=0))
            if not ahead.size:
                break
            col += 1 + int(ahead[0])
            continue
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        # the pivot row is zero left of col, so only the columns from col on change
        tail = r[:, col:]
        tail[row] = (tail[row] * modinv(int(tail[row, 0]), p)) % p
        rows = np.flatnonzero(tail[:, 0])
        rows = rows[rows != row]
        if rows.size:
            tail[rows] = (tail[rows] - np.outer(tail[rows, 0], tail[row])) % p
        pivots.append(col)
        row += 1
        col += 1
    return r, row, tuple(pivots)


def kernel(m, p: int) -> np.ndarray:
    """RREF row basis of the right null space {x : m @ x = 0}, from one
    elimination.

    The RREF of m with its columns reversed gives one null vector per free
    column f: 1 at f, the negated entries of column f at the pivots, all
    left of f. Read back in the original column order, each vector's first
    nonzero entry is its 1, at a column where every other vector is 0; so
    the vectors, in reverse order of f, are already in RREF.
    """
    m = np.asarray(m, dtype=np.int64)
    ncols = m.shape[1]
    r, rank, pivots = rref(m[:, ::-1], p)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set][::-1]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, list(pivots)] = (-r[:rank, free]).T % p
    return basis[:, ::-1].copy()


def null_space(m, field: FieldSpec) -> "Subspace":
    """The right null space of m as a Subspace. kernel's rows are already its
    RREF basis, so they are taken as they are, without a second elimination;
    each pivot is its row's first nonzero column."""
    basis = kernel(m, field.p)
    basis.setflags(write=False)
    sub = Subspace(field, basis.shape[1])
    sub.basis, sub.pivots = basis, tuple((basis != 0).argmax(axis=1).tolist())
    return sub


def find_root_of_unity(field: FieldSpec, m: int) -> int:
    """Smallest element of F_p with multiplicative order exactly m.

    The elements of order m are the powers x^k, gcd(k, m) = 1, of any one
    of them, x. For h = 2, 3, ... the power h^((p-1)/m) has order dividing
    m, and order exactly m for a generator h of F_p^*, so the search stops.
    Comparing the powers of x takes m products. The residues 2, 3, ... are
    tested alongside; the first one of order m is the answer, which ends
    the search early when m is large.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    p = field.p
    if (p - 1) % m != 0:
        raise NoSuchRoot(f"no element of order {m} in F_{p}: {m} does not divide {p - 1}")
    prime_divs = prime_factors(m)

    def has_order_m(x: int) -> bool:
        return pow(x, m, p) == 1 and all(pow(x, m // q, p) != 1 for q in prime_divs)

    x = next(x for x in (pow(h, (p - 1) // m, p) for h in range(2, p)) if has_order_m(x))
    best, y = x, x
    for k in range(2, m):
        if has_order_m(k):  # no smaller residue has order m
            return k
        y = y * x % p
        if y < best and all(k % q for q in prime_divs):
            best = y
    return best


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
    def full(cls, field: FieldSpec, ambient: int) -> "Subspace":
        return cls(field, ambient, identity(ambient))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

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

    def free_columns(self) -> np.ndarray:
        """The columns outside the pivots, increasing: the standard vectors
        there are a basis of the ambient space modulo self."""
        free = np.ones(self.ambient, dtype=bool)
        free[list(self.pivots)] = False
        return np.flatnonzero(free)

    def quotient_map(self) -> np.ndarray:
        """The (ambient, codim) matrix whose row t is the class of e_t modulo
        self, in the classes of the standard vectors at free_columns: the
        standard vector at t's slot for a free t, and -b_i at the free
        columns for the pivot of basis row b_i, since e_t - b_i lies in self."""
        p, rest = self.field.p, self.free_columns()
        out = np.zeros((self.ambient, len(rest)), dtype=np.int64)
        out[rest, np.arange(len(rest))] = 1
        out[list(self.pivots)] = -self.basis[:, rest] % p
        return out

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

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        return Subspace(self.field, self.ambient, np.vstack([self.basis, other.basis]))

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
        """From (index_1, ..., index_rank, coefficient) rows, a sequence or an
        int64 array, which is read as it is; repeats add up."""
        data = np.asarray(entries, dtype=np.int64).reshape(-1, rank + 1)
        keys = np.ravel_multi_index(tuple(data[:, :rank].T), (n,) * rank)
        return _canonical(n, rank, keys, data[:, rank] % p, p)

    def entries(self) -> list[tuple[int, ...]]:
        """The (index_1, ..., index_rank, value) rows, sorted, as Python ints;
        from_entries reads them back to the same tensor."""
        return list(zip(*(x.tolist() for x in (*self.indices(), self.vals))))

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


def restrict_first(t: SparseTensor, index) -> SparseTensor:
    """The entries of t whose first index lies in index; all of t if index is None."""
    if index is None:
        return t
    keep = np.isin(t.keys // t.n ** (t.rank - 1), index)
    return SparseTensor(t.n, t.rank, t.keys[keep], t.vals[keep])


# term pairs one contract may join; each holds 64 bytes in flight, so 8 GB at the budget
MAX_JOIN_TERMS = 125_000_000


def contract(a: SparseTensor, b: SparseTensor, k: int, p: int) -> SparseTensor:
    """sum_s a[x, s] b[s, y] mod p over a's last k and b's first k axes, as (x, y).

    Each a entry is joined with the run of b entries (found by
    searchsorted on b's sorted keys) whose first k indices equal its last k;
    past MAX_JOIN_TERMS pairs it raises BudgetExceeded before allocating them.
    """
    tail = a.n ** (b.rank - k)
    a_outer, a_inner = np.divmod(a.keys, a.n**k)
    b_inner = b.keys // tail
    lo = np.searchsorted(b_inner, a_inner, side="left")
    counts = np.searchsorted(b_inner, a_inner, side="right") - lo
    if counts.sum() > MAX_JOIN_TERMS:
        raise BudgetExceeded(
            f"a sparse contraction at dimension {a.n} would join {counts.sum()} term pairs, "
            f"more than the budget of {MAX_JOIN_TERMS} (linalg.MAX_JOIN_TERMS)")
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


# -- polynomials over F_p ------------------------------------------------------
# A polynomial is a list of ints in [0, p), highest degree first, with a
# nonzero leading coefficient; [] is zero.


def _strip(a: list[int]) -> list[int]:
    i = 0
    while i < len(a) and a[i] == 0:
        i += 1
    return a[i:]


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a, b = [0] * (n - len(a)) + a, [0] * (n - len(b)) + b
    return _strip([(x - y) % p for x, y in zip(a, b)])


def _monic(a: list[int], p: int) -> list[int]:
    if not a or a[0] == 1:
        return a
    inv = pow(a[0], -1, p)
    return [c * inv % p for c in a]


def _divmod(a: list[int], f: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by a monic f; reductions are delayed to the lead."""
    n = len(f) - 1
    a, tail, q = list(a), f[1:], []
    for i in range(len(a) - n):
        c = a[i] % p
        q.append(c)
        if c:
            a[i + 1 : i + n + 1] = [x - c * y for x, y in zip(a[i + 1 : i + n + 1], tail)]
    return q, _strip([c % p for c in a[max(len(a) - n, 0) :]])


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _pack(a: list[int], w: int) -> int:
    return int.from_bytes(b"".join(c.to_bytes(w, "big") for c in a), "big")


def _unpack(v: int, n: int, w: int, p: int) -> list[int]:
    """The n lowest w-byte slots of v mod p, highest slot first."""
    raw = v.to_bytes(n * w, "big")
    return [int.from_bytes(raw[i : i + w], "big") % p for i in range(0, n * w, w)]


class _Quotient:
    """F_p[x]/(f) for a monic f of degree n >= 1; elements are polynomials of
    degree < n.

    A product is one Kronecker substitution: both factors are packed into
    w-byte slots of one Python int and multiplied once. Its upper n - 1
    coefficients are folded back with the packed rows x**k mod f, k in
    [n, 2n-2]. Every slot then holds fewer than 2n products of two
    elements of [0, p), which w is sized for, so no slot carries.
    """

    def __init__(self, f: list[int], p: int):
        self.f, self.n, self.p = f, len(f) - 1, p
        self.w = ((2 * self.n) * (p - 1) ** 2).bit_length() // 8 + 1
        row, fold = _divmod([1] + [0] * self.n, f, p)[1], []  # x**n mod f
        for _ in range(self.n - 1):
            fold.append(_pack(row, self.w))
            row = _divmod(row + [0], f, p)[1]
        self.fold = fold[::-1]
        self._xp = self._frob = None

    def _combine(self, low: int, coeffs: list[int], rows: list[int]) -> list[int]:
        """low + sum_i coeffs[i] * rows[i], unpacked and reduced."""
        packed = low + sum(c * r for c, r in zip(coeffs, rows))
        return _strip(_unpack(packed, self.n, self.w, self.p))

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        w, shift = self.w, 8 * self.w * self.n
        packed = _pack(a, w)
        prod = packed * (packed if b is a else _pack(b, w))
        high = _unpack(prod >> shift, self.n - 1, w, self.p)  # x**(2n-2), ..., x**n
        return self._combine(prod & ((1 << shift) - 1), high, self.fold)

    def pow(self, a: list[int], e: int) -> list[int]:
        """a**e, e >= 1, left to right over windows of at most k bits from 1 to 1,
        each one product with a tabled a**j, j odd; k = 1 (the binary ladder
        from a) up to 12 bits of e, and k = 3 for the 30 of (p-1)/2 at 2**31-1,
        where the table costs fewer products than it saves."""
        bits = bin(e)[2:]
        k = 1 + sum(len(bits) > b for b in (12, 24, 80))
        odd, a2 = [a], self.mul(a, a) if k > 1 else None
        for _ in range(2 ** (k - 1) - 1):
            odd.append(self.mul(odd[-1], a2))
        out, i = None, 0
        while i < len(bits):
            if bits[i] == "0":
                out, i = self.mul(out, out), i + 1
                continue
            j = bits.rfind("1", i, i + k) + 1
            for _ in range(j - i if out is not None else 0):
                out = self.mul(out, out)
            window = odd[int(bits[i:j], 2) >> 1]
            out, i = window if out is None else self.mul(out, window), j
        return out

    def xp(self) -> list[int]:
        """x**p, computed on the first call."""
        if self._xp is None:
            self._xp = self.pow(_divmod([1, 0], self.f, self.p)[1], self.p)
        return self._xp

    def frobenius(self, r: list[int]) -> list[int]:
        """r**p, as one vector-matrix product with the packed rows x**(i*p), i < n,
        since r(x)**p = sum_i r_i x**(i*p) over F_p. The rows are built from
        x**p on the first call.
        """
        if self._frob is None:
            rows = [[1]]
            for _ in range(self.n - 1):
                rows.append(self.mul(rows[-1], self.xp()))
            self._frob = [_pack(row, self.w) for row in rows]
        return self._combine(0, r[::-1], self._frob)


def _squarefree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Pairwise coprime squarefree monic g with multiplicities, f = prod g**m.

    In characteristic p the derivative misses factors whose multiplicity is a
    multiple of p; they are left over as a p-th power, whose root is
    recursed on.
    """
    n = len(f) - 1
    out, mult = [], 1
    df = _strip([c * (n - i) % p for i, c in enumerate(f[:-1])])
    c = _gcd(f, df, p) if df else f
    w = _divmod(f, c, p)[0]
    while len(w) > 1:
        y = _gcd(w, c, p)
        z = _divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, mult))
        mult, w, c = mult + 1, y, _divmod(c, y, p)[0]
    if len(c) > 1:
        out += [(g, m * p) for g, m in _squarefree(c[::p], p)]  # c(x) = c[::p](x)**p
    return out


def _distinct_degree(g: list[int], mult: int, p: int):
    """Yields (k, product of g's irreducible factors of degree k, ring, mult)
    for a squarefree monic g, k = 1, 2, ..., one step per read; the product
    is [1] where there are none. The cofactor left once 2k exceeds its
    degree is irreducible and comes last."""
    ring = _Quotient(g, p)
    h, k = [1, 0], 0
    while 2 * (k + 1) <= len(g) - 1:
        k += 1
        h = ring.xp() if k == 1 else ring.frobenius(h)  # x**(p**k) mod ring.f
        d = _gcd(g, _sub(h, [1, 0], p), p)
        yield k, d, ring, mult
        if len(d) > 1:
            g = _divmod(g, d, p)[0]
    if len(g) > 1:
        yield len(g) - 1, g, ring, mult


def _equal_degree(f: list[int], k: int, big: _Quotient, rng: random.Random):
    """Yields the irreducible factors of a squarefree monic f whose factors all
    have degree k, depth first: each split recurses into its smaller part
    first, so the first factor takes at most log2(deg f / k) successful splits.

    f divides big's modulus, whose Frobenius map serves f too. For random r,
    the norm t = r * r**p * ... * r**(p**(k-1)) lies in F_p in each residue
    field of f, so t**((p-1)/2) is 0 or +-1 there, and gcd(t**((p-1)/2) - 1, f)
    splits f with probability at least 4/9 (the worst case is p = 3, k = 1,
    two factors). 64 failures in a row (chance below 10**-16) mean f is not
    of the promised form.
    """
    p, n = big.p, len(f) - 1
    if n == k:
        yield f
        return
    ring = _Quotient(f, p)
    for _ in range(64):
        r = _strip([rng.randrange(p) for _ in range(n)])
        t = s = r
        for _ in range(k - 1):
            s = _divmod(big.frobenius(s), f, p)[1]
            t = ring.mul(t, s)
        g = _gcd(f, _sub(ring.pow(t, (p - 1) // 2), [1], p), p)
        if 1 < len(g) < len(f):
            for part in sorted((g, _divmod(f, g, p)[0]), key=len):
                yield from _equal_degree(part, k, big, rng)
            return
    raise ArithmeticError(f"no equal-degree split of a degree-{n} polynomial into degree {k}")


def irreducible_factors(coeffs_desc: list[int], p: int):
    """Yields each monic irreducible factor (a tuple, highest degree first) of
    a nonzero polynomial over F_p, p an odd prime, once, with its
    multiplicity, degrees never decreasing, computing only as far as it is
    read; a constant has none. The squarefree parts are found up front;
    their distinct-degree steps are merged on the degree, and splitting uses
    one fixed-seed generator per call, so the stream is deterministic."""
    f = _monic(_strip([int(c) % p for c in coeffs_desc]), p)
    rng = random.Random(0)
    parts = [_distinct_degree(g, mult, p) for g, mult in _squarefree(f, p)] if len(f) > 1 else []
    for k, d, ring, mult in heapq.merge(*parts, key=lambda step: step[0]):
        if len(d) > 1:
            for h in _equal_degree(d, k, ring, rng):
                yield tuple(h), mult


def crt_idempotents(f: list[int], factors, p: int) -> np.ndarray:
    """Row i: the deg f coefficients, lowest degree first, of the idempotent
    E_i = (f/g_i) ((f/g_i)^-1 mod g_i) of F_p[x]/(f), for a monic squarefree
    f and its monic irreducible factors g_i (highest degree first): E_i is 1
    mod g_i and 0 mod every other factor (Chinese remainders). For
    g_i = x - l, (f/g_i) mod g_i is the value of f/g_i at l, and E_i is the
    Lagrange polynomial of the root l; otherwise the inverse is the power
    p**deg(g_i) - 2 in the field F_p[x]/(g_i), and the product has degree
    below deg f, so F_p[x]/(f) multiplies it without a reduction."""
    f = list(f)
    rows = np.zeros((len(factors), len(f) - 1), dtype=np.int64)
    for row, g in zip(rows, factors):
        g = list(g)
        cofactor = _divmod(f, g, p)[0]
        rest = _divmod(cofactor, g, p)[1]
        if len(g) == 2:
            inv = modinv(rest[0], p)
            e = [c * inv % p for c in cofactor]
        else:
            e = _Quotient(f, p).mul(cofactor, _Quotient(g, p).pow(rest, p ** (len(g) - 1) - 2))
        row[:len(e)] = e[::-1]
    return rows

