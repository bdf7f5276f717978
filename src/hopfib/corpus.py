"""Builders for the example families the verification harness runs on.

Group-algebra pairs supply the classical baseline (positive and negative
cases); the rewriting engine materializes three quantum families at an
odd root of unity:

  * the quantum SL2 kernel: quantized 2x2 coordinate functions with
    quantum determinant 1, reduced modulo the augmentation ideal of the
    central classical subalgebra, with d eliminated through
    d = a^(l-1) (1 + q b c); generator order a < b < c, relations
    ba = q^-1 ab, ca = q^-1 ac, cb = bc, a^l = 1, b^l = c^l = 0.
  * the small quantum sl2: PBW basis F^i K^j E^k with
    K F = q^-2 F K, E K = q^-2 K E, E F = F E + (K - K^-1)/(q - q^-1),
    K^l = 1, E^l = F^l = 0, coproducts Delta(K) = K (x) K,
    Delta(E) = E (x) 1 + K (x) E, Delta(F) = F (x) K^-1 + 1 (x) F.
  * the quantum 2x2 matrix kernel (bialgebra only): relations
    ba = q^-1 ab, ca = q^-1 ac, cb = bc, da = ad - (q - q^-1) bc,
    db = q^-1 bd, dc = q^-1 cd, a^t = d^t = 1, b^t = c^t = 0, with the
    matrix coproduct.

Relation and coproduct sign conventions differ across the literature;
the ones above are fixed here and certified by the axiom checker
plus the character-count expectations stored on each instance,
so a convention error cannot pass silently.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, NotASubgroup, NotCentral
from .hopf import (
    BialgebraData,
    CoidealSubalgebra,
    build_bialgebra,
    coideal_subalgebra,
)
from .algebra import StructureConstantAlgebra
from .linalg import FieldSpec, SparseTensor, Subspace, find_root_of_unity, modinv
from .rewrite import Presentation, extract_bialgebra


# -- finite groups -----------------------------------------------------------


@dataclass
class GroupTable:
    """Finite group as a Cayley table on indices 0..n-1."""

    order: int
    cayley: np.ndarray
    identity: int
    inverse: np.ndarray

    @classmethod
    def from_cayley(cls, cayley) -> "GroupTable":
        cayley = np.asarray(cayley, dtype=np.int64)
        n = cayley.shape[0]
        if cayley.shape != (n, n) or cayley.min() < 0 or cayley.max() >= n:
            raise NotASubgroup("malformed Cayley table")
        identity = None
        for e in range(n):
            if all(cayley[e, x] == x and cayley[x, e] == x for x in range(n)):
                identity = e
                break
        if identity is None:
            raise NotASubgroup("Cayley table has no identity element")
        # [i, j, k]: (ij)k against i(jk); the witness is the first failing triple
        fails = np.argwhere(cayley[cayley] != cayley[:, cayley])
        if len(fails):
            i, j, k = fails[0]
            raise NotASubgroup(f"Cayley table not associative at ({i},{j},{k})")
        inverse = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            hits = np.nonzero(cayley[i] == identity)[0]
            if len(hits) != 1 or cayley[hits[0], i] != identity:
                raise NotASubgroup(f"element {i} has no two-sided inverse")
            inverse[i] = hits[0]
        return cls(n, cayley, identity, inverse)

    def is_subgroup(self, indices) -> bool:
        s = set(int(i) for i in indices)
        if self.identity not in s:
            return False
        return all(
            int(self.cayley[i, j]) in s and int(self.inverse[i]) in s
            for i in s
            for j in s
        )

    def is_central_subset(self, indices) -> bool:
        return all(
            self.cayley[z, g] == self.cayley[g, z]
            for z in indices
            for g in range(self.order)
        )

    def center(self) -> list[int]:
        return [z for z in range(self.order) if self.is_central_subset([z])]


def cyclic_group(n: int) -> GroupTable:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return GroupTable.from_cayley(table)


def symmetric_group_3() -> GroupTable:
    perms = sorted(itertools.permutations(range(3)))
    index = {q: i for i, q in enumerate(perms)}
    table = [
        [index[tuple(a[b[t]] for t in range(3))] for b in perms]
        for a in perms
    ]
    return GroupTable.from_cayley(table)


def quaternion_group() -> GroupTable:
    """Q8 with basis order 1, -1, i, -i, j, -j, k, -k."""
    # symbol products: (sign, symbol) with e=0, i=1, j=2, k=3
    sym = {
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
    }
    n = 8
    table = np.zeros((n, n), dtype=np.int64)
    for u in range(4):
        for su in range(2):
            for v in range(4):
                for sv in range(2):
                    s, w = sym[(u, v)]
                    table[2 * u + su, 2 * v + sv] = 2 * w + ((su + sv + s) % 2)
    return GroupTable.from_cayley(table)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    n, m = g.order, h.order
    table = np.zeros((n * m, n * m), dtype=np.int64)
    for i1 in range(n):
        for j1 in range(m):
            for i2 in range(n):
                for j2 in range(m):
                    table[i1 * m + j1, i2 * m + j2] = g.cayley[i1, i2] * m + h.cayley[j1, j2]
    return GroupTable.from_cayley(table)


def builtin_group(name: str) -> GroupTable:
    """Named standard groups: c2, c3, c4, c2c2, q8, s3, s3c2."""
    builders = {
        "c2": lambda: cyclic_group(2),
        "c3": lambda: cyclic_group(3),
        "c4": lambda: cyclic_group(4),
        "c2c2": lambda: direct_product(cyclic_group(2), cyclic_group(2)),
        "q8": quaternion_group,
        "s3": symmetric_group_3,
        "s3c2": lambda: direct_product(symmetric_group_3(), cyclic_group(2)),
    }
    if name not in builders:
        raise BadParameters(f"unknown builtin group {name!r}")
    return builders[name]()


def named_central_subgroup(g: GroupTable, spec: str) -> list[int]:
    """Resolve 'trivial', 'center', 'full' or a comma list of indices."""
    if spec == "trivial":
        return [g.identity]
    if spec == "center":
        return g.center()
    if spec == "full":
        return list(range(g.order))
    try:
        return [int(t) for t in spec.split(",")]
    except ValueError as exc:
        raise BadParameters(f"cannot parse subgroup spec {spec!r}") from exc


# -- corpus instances ---------------------------------------------------------


@dataclass
class CorpusInstance:
    """A bialgebra with a distinguished central coideal subalgebra."""

    h: BialgebraData
    a: CoidealSubalgebra
    provenance: dict
    expected: dict | None = None

    @property
    def dim(self):
        return self.h.dim


def group_algebra(field: FieldSpec, g: GroupTable) -> BialgebraData:
    """F_p[G] with group-like coproduct and inversion antipode.

    GroupTable.from_cayley has certified the table associative with an
    identity, so the algebra axioms hold and are not checked again; the
    bialgebra axioms are.
    """
    n = g.order
    unit = np.zeros(n, dtype=np.int64)
    unit[g.identity] = 1
    mul = [(i, j, int(g.cayley[i, j]), 1) for i in range(n) for j in range(n)]
    comul = [(i, i, i, 1) for i in range(n)]
    counit = np.ones(n, dtype=np.int64)
    antipode = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        antipode[g.inverse[i], i] = 1
    alg = StructureConstantAlgebra(field, n, unit, SparseTensor.from_entries(n, 3, mul, field.p),
                                   tuple(f"g{i}" for i in range(n)), certified=True)
    return build_bialgebra(alg, comul, counit, antipode)


def group_algebra_pair(field: FieldSpec, g: GroupTable, z_indices,
                       expected: dict | None = None,
                       provenance: dict | None = None) -> CorpusInstance:
    """The pair A = F_p[Z] inside H = F_p[G] for a central subgroup Z."""
    z = sorted(set(int(i) for i in z_indices))
    for i in z:
        if not 0 <= i < g.order:
            raise BadParameters(f"central subgroup index {i} is not in [0, |G|) = [0, {g.order})")
    if not g.is_subgroup(z):
        raise NotASubgroup("Z is not a subgroup")
    if not g.is_central_subset(z):
        raise NotCentral("Z is not central in G")
    if g.order % field.p == 0:
        warnings.warn(
            f"p = {field.p} divides |G| = {g.order}; the group algebra is not semisimple",
            stacklevel=2,
        )
    h = group_algebra(field, g)
    rows = np.zeros((len(z), g.order), dtype=np.int64)
    for r, idx in enumerate(z):
        rows[r, idx] = 1
    # span of Z is central in F_p[G] by linearity, since Z is central in G
    a = coideal_subalgebra(h, Subspace(field, g.order, rows))
    return CorpusInstance(
        h,
        a,
        provenance or {"family": "group", "order": g.order, "z": z, "p": field.p},
        expected,
    )


def _check_odd_order_params(ell: int, p: int, name: str) -> tuple[FieldSpec, int]:
    if ell % 2 == 0 or ell < 3:
        raise BadParameters(f"{name} needs an odd order >= 3, got {ell}")
    field = FieldSpec(p)
    if (p - 1) % ell != 0:
        raise BadParameters(f"{name} needs {ell} | p-1, got p = {p}")
    return field, find_root_of_unity(field, ell)


def quantum_sl2_presentation(ell: int, p: int) -> Presentation:
    field, q = _check_odd_order_params(ell, p, "quantum_sl2_kernel")
    qi = modinv(q, p)
    A, B, C = 0, 1, 2
    rules = [
        ((B, A), {(A, B): qi}),
        ((C, A), {(A, C): qi}),
        ((C, B), {(B, C): 1}),
        ((A,) * ell, {(): 1}),
        ((B,) * ell, {}),
        ((C,) * ell, {}),
    ]
    return Presentation(field, ("a", "b", "c"), rules, word_bound=8 * ell)


def quantum_sl2_kernel(ell: int, p: int) -> CorpusInstance:
    """Quantized SL2 coordinate kernel of dimension ell**3 over F_p.

    A is the scalars, so the character group is all of the ell characters
    a -> zeta, b, c -> 0 (and the eliminated d takes zeta^-1).
    """
    field, q = _check_odd_order_params(ell, p, "quantum_sl2_kernel")
    qi = modinv(q, p)
    A, B, C = 0, 1, 2
    pres = quantum_sl2_presentation(ell, p)
    # d = a^(l-1) + q a^(l-1) b c  (from the quantum determinant a d - q b c = 1)
    d_poly = {(A,) * (ell - 1): 1, (A,) * (ell - 1) + (B, C): q}
    comul = [
        {((A,), (A,)): 1, ((B,), (C,)): 1},  # Delta(a)
        {((A,), (B,)): 1, **{((B,), w): c for w, c in d_poly.items()}},  # Delta(b)
        {((C,), (A,)): 1, **{(w, (C,)): c for w, c in d_poly.items()}},  # Delta(c)
    ]
    counit = [1, 0, 0]
    antipode = [d_poly, {(B,): (-qi) % p}, {(C,): (-q) % p}]
    h = extract_bialgebra(pres, comul, counit, antipode)
    a_sub = coideal_subalgebra(h, Subspace(field, h.dim, [h.alg.unit]))
    return CorpusInstance(
        h,
        a_sub,
        {"family": "qsl2", "ell": ell, "p": p, "q": q},
        {
            "dim": ell**3,
            "num_characters": ell,
            "x_order": ell,
            "conditions": True,
            "fiber_sizes": [ell],
            "orbit_sizes": [ell],
        },
    )


def small_quantum_sl2_presentation(ell: int, p: int) -> Presentation:
    field, q = _check_odd_order_params(ell, p, "small_quantum_sl2")
    q2i = modinv(q * q % p, p)
    c = modinv((q - modinv(q, p)) % p, p)
    F, K, E = 0, 1, 2
    rules = [
        ((K, F), {(F, K): q2i}),
        ((E, K), {(K, E): q2i}),
        ((E, F), {(F, E): 1, (K,): c, (K,) * (ell - 1): (-c) % p}),
        ((K,) * ell, {(): 1}),
        ((E,) * ell, {}),
        ((F,) * ell, {}),
    ]
    # the E.F rule rewrites a weight-2l word into K-powers of length up to
    # l-1, so K must weigh less than E and F for the order to decrease
    return Presentation(
        field, ("F", "K", "E"), rules, word_bound=12 * ell, weights=(ell, 1, ell)
    )


def small_quantum_sl2(ell: int, p: int) -> CorpusInstance:
    """The small quantum group of sl2 at an odd root of unity.

    PBW basis F^i K^j E^k of dimension ell**3; exactly one character
    (E, F -> 0, K -> 1), which makes the fiber/orbit conditions fail.
    """
    field, q = _check_odd_order_params(ell, p, "small_quantum_sl2")
    F, K, E = 0, 1, 2
    pres = small_quantum_sl2_presentation(ell, p)
    comul = [
        {((F,), (K,) * (ell - 1)): 1, ((), (F,)): 1},  # Delta(F) = F (x) K^-1 + 1 (x) F
        {((K,), (K,)): 1},
        {((E,), ()): 1, ((K,), (E,)): 1},  # Delta(E) = E (x) 1 + K (x) E
    ]
    counit = [0, 1, 0]
    antipode = [
        {(F, K): (-1) % p},  # S(F) = -F K
        {(K,) * (ell - 1): 1},  # S(K) = K^-1
        {(K,) * (ell - 1) + (E,): (-1) % p},  # S(E) = -K^-1 E
    ]
    h = extract_bialgebra(pres, comul, counit, antipode)
    a_sub = coideal_subalgebra(h, Subspace(field, h.dim, [h.alg.unit]))
    return CorpusInstance(
        h,
        a_sub,
        {"family": "usl2", "ell": ell, "p": p, "q": q},
        {
            "dim": ell**3,
            "num_characters": 1,
            "x_order": 1,
            "conditions": False,
            "has_simple_of_dim": ell,
        },
    )


def quantum_m2_presentation(t: int, p: int) -> Presentation:
    field, q = _check_odd_order_params(t, p, "quantum_m2_kernel")
    qi = modinv(q, p)
    A, B, C, D = 0, 1, 2, 3
    rules = [
        ((B, A), {(A, B): qi}),
        ((C, A), {(A, C): qi}),
        ((C, B), {(B, C): 1}),
        ((D, A), {(A, D): 1, (B, C): (qi - q) % p}),
        ((D, B), {(B, D): qi}),
        ((D, C), {(C, D): qi}),
        ((A,) * t, {(): 1}),
        ((B,) * t, {}),
        ((C,) * t, {}),
        ((D,) * t, {(): 1}),
    ]
    return Presentation(field, ("a", "b", "c", "d"), rules, word_bound=10 * t)


def quantum_m2_kernel(t: int, p: int) -> CorpusInstance:
    """Quantized 2x2 matrix kernel: a bialgebra of dimension t**4.

    No antipode exists, but the t**2 characters (a -> alpha, d -> delta,
    b, c -> 0) still form a group under convolution, acting by right and
    left winding maps.
    """
    field, q = _check_odd_order_params(t, p, "quantum_m2_kernel")
    A, B, C, D = 0, 1, 2, 3
    pres = quantum_m2_presentation(t, p)
    comul = [
        {((A,), (A,)): 1, ((B,), (C,)): 1},
        {((A,), (B,)): 1, ((B,), (D,)): 1},
        {((C,), (A,)): 1, ((D,), (C,)): 1},
        {((C,), (B,)): 1, ((D,), (D,)): 1},
    ]
    counit = [1, 0, 0, 1]
    h = extract_bialgebra(pres, comul, counit, antipode_gens=None)
    a_sub = coideal_subalgebra(h, Subspace(field, h.dim, [h.alg.unit]))
    return CorpusInstance(
        h,
        a_sub,
        {"family": "qm2", "t": t, "p": p, "q": q},
        {
            "dim": t**4,
            "num_characters": t**2,
            "x_order": t**2,
            "experiment_single_orbit": True,
        },
    )


# -- the shipped fixture set ---------------------------------------------------


def shipped_instance(name: str) -> CorpusInstance:
    """The named test fixtures exercised by the acceptance suite."""
    if name == "c3":
        g = builtin_group("c3")
        return group_algebra_pair(
            FieldSpec(7), g, [g.identity],
            expected={"dim": 3, "num_characters": 3, "x_order": 3,
                      "conditions": True, "fiber_sizes": [3], "orbit_sizes": [3]},
            provenance={"family": "group", "group": "c3", "z": "trivial", "p": 7},
        )
    if name == "c4c2":
        g = builtin_group("c4")
        return group_algebra_pair(
            FieldSpec(5), g, [0, 2],
            expected={"dim": 4, "num_characters": 4, "x_order": 2,
                      "conditions": True, "fiber_sizes": [2, 2], "orbit_sizes": [2, 2]},
            provenance={"family": "group", "group": "c4", "z": "0,2", "p": 5},
        )
    if name == "q8":
        g = builtin_group("q8")
        return group_algebra_pair(
            FieldSpec(7), g, g.center(),
            expected={"dim": 8, "num_characters": 4, "x_order": 4,
                      "conditions": True, "fiber_sizes": [4, 1], "orbit_sizes": [4, 1]},
            provenance={"family": "group", "group": "q8", "z": "center", "p": 7},
        )
    if name == "s3c2":
        g = builtin_group("s3c2")
        e3 = symmetric_group_3().identity
        z = [e3 * 2, e3 * 2 + 1]
        return group_algebra_pair(
            FieldSpec(7), g, z,
            expected={"dim": 12, "num_characters": 4, "x_order": 2,
                      "conditions": False, "fiber_sizes": [3, 3],
                      "orbit_sizes": [1, 1, 2, 2]},
            provenance={"family": "group", "group": "s3c2", "z": "c2-factor", "p": 7},
        )
    if name == "qsl2":
        return quantum_sl2_kernel(3, 7)
    if name == "usl2":
        return small_quantum_sl2(3, 7)
    if name == "qm2":
        return quantum_m2_kernel(3, 7)
    raise BadParameters(f"unknown fixture {name!r}")


SHIPPED_NAMES = ("c3", "c4c2", "q8", "s3c2", "qsl2", "usl2", "qm2")
