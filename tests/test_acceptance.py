"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each criterion prints a single line `criterion <n>: PASS (<elapsed>)` and
enforces its stated wall-clock budget. Instance construction happens once
in a module fixture; the budgets cover the checks themselves.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from hopfib.algebra import StructureConstantAlgebra, _check_associative, _check_unit
from hopfib.corpus import SHIPPED_NAMES, builtin_group, direct_product, group_algebra
from hopfib.errors import NotAssociative, UnitAxiomFails
from hopfib.hopf import (
    BialgebraData,
    Character,
    axiom_checks,
    convolve,
    enumerate_characters,
    one_dim_characters,
    verify_structure,
    winding,
)
from hopfib.linalg import FieldSpec, SparseTensor, rref
from hopfib.repn import spectrum
from hopfib.specmap import (
    Partition,
    fibers,
    orbits,
    verify_theorem,
)

from oracles import (
    chop,
    left_regular,
    ad_one_dim_submodules,
    adjoint_action,
    brute_force_characters,
    checked_module,
    chopped_fiber,
    greedy_generating_set,
    is_algebra_endomorphism,
    mapped_fiber,
    multiply,
    quotient_group,
    refinement_holds,
    right_regular,
    x_by_restriction,
    x_members,
)

HOPF_NAMES = ("c3", "c4c2", "q8", "s3c2", "qsl2", "usl2")


@pytest.fixture(scope="module")
def corpus(instances):
    return {name: instances(name) for name in SHIPPED_NAMES}


@contextmanager
def criterion(num: int, limit: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({time.monotonic() - start:.2f}s)")
        raise
    elapsed = time.monotonic() - start
    print(f"criterion {num}: PASS ({elapsed:.2f}s, limit {limit:.0f}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


# -- direct single-index axiom evaluators (independent of verify_structure) --


def _comul_dense(b):
    comul = np.zeros((b.dim,) * 3, dtype=np.int64)
    for i, a, bb, c in b.comul.entries():
        comul[i, a, bb] = c
    return comul


def _delta(b, vec):
    return np.tensordot(vec, _comul_dense(b), axes=([0], [0])) % b.field.p


def axiom_fails_at(b: BialgebraData, name: str, witness) -> bool:
    """Recompute the named axiom at the witness index; True if it fails there."""
    p = b.field.p
    n = b.dim
    eye = np.eye(n, dtype=np.int64)
    if name == "associativity":
        i, j, k = witness
        lhs = multiply(b.alg, multiply(b.alg, eye[i], eye[j]), eye[k])
        rhs = multiply(b.alg, eye[i], multiply(b.alg, eye[j], eye[k]))
        return not np.array_equal(lhs, rhs)
    if name == "unit":
        i = witness
        return not (
            np.array_equal(multiply(b.alg, b.alg.unit, eye[i]), eye[i])
            and np.array_equal(multiply(b.alg, eye[i], b.alg.unit), eye[i])
        )
    if name == "coassociativity":
        i = witness
        d = _delta(b, eye[i])
        lhs = np.zeros((n, n, n), dtype=np.int64)
        rhs = np.zeros((n, n, n), dtype=np.int64)
        for a, bb in np.argwhere(d):
            lhs += d[a, bb] * _delta(b, eye[a])[:, :, None] * eye[bb][None, None, :]
            rhs += d[a, bb] * eye[a][:, None, None] * _delta(b, eye[bb])[None, :, :]
        return not np.array_equal(lhs % p, rhs % p)
    if name in ("counit_left", "counit_right"):
        j = witness
        d = _delta(b, eye[j])
        if name == "counit_left":
            out = (b.counit @ d) % p
        else:
            out = (d @ b.counit) % p
        return not np.array_equal(out, eye[j])
    if name == "comul_multiplicative":
        i, j = witness
        lhs = _delta(b, multiply(b.alg, eye[i], eye[j]))
        di, dj = _delta(b, eye[i]), _delta(b, eye[j])
        rhs = np.zeros((n, n), dtype=np.int64)
        for a, bb in np.argwhere(di):
            for c, dd in np.argwhere(dj):
                term = np.outer(
                    multiply(b.alg, eye[a], eye[c]), multiply(b.alg, eye[bb], eye[dd])
                )
                rhs = (rhs + di[a, bb] * dj[c, dd] * term) % p
        return not np.array_equal(lhs, rhs)
    if name == "counit_multiplicative":
        i, j = witness
        lhs = int(b.counit @ multiply(b.alg, eye[i], eye[j]) % p)
        return lhs != int(b.counit[i]) * int(b.counit[j]) % p
    if name in ("antipode_left", "antipode_right"):
        i = witness
        d = _delta(b, eye[i])
        acc = np.zeros(n, dtype=np.int64)
        for a, bb in np.argwhere(d):
            if name == "antipode_left":
                term = multiply(b.alg, b.antipode[:, a], eye[bb])
            else:
                term = multiply(b.alg, eye[a], b.antipode[:, bb])
            acc = (acc + d[a, bb] * term) % p
        return not np.array_equal(acc, int(b.counit[i]) * b.alg.unit % p)
    if name == "comul_unit":
        return not np.array_equal(_delta(b, b.alg.unit), np.outer(b.alg.unit, b.alg.unit) % p)
    if name == "counit_unit":
        return int(b.counit @ b.alg.unit % p) != 1
    raise AssertionError(f"unknown axiom {name}")


def first_failure(b: BialgebraData, name: str) -> tuple[int, ...] | None:
    """Lexicographically first index at which the named axiom fails.

    A dense evaluation of the whole index space (row by row for Delta
    multiplicativity), exact in int64 for the small shipped primes.
    """
    p = b.field.p
    n = b.dim
    assert n * n * (p - 1) ** 2 < 2**40
    m, d, eps, unit, s = b.alg.mul.dense(), _comul_dense(b), b.counit, b.alg.unit, b.antipode
    eye = np.eye(n, dtype=np.int64)

    def td(x, y, axes):
        return np.tensordot(x, y, axes=axes) % p

    def first(fails):
        hits = np.argwhere(fails)
        return tuple(int(t) for t in hits[0]) if len(hits) else None

    def differ(x, y, keep):  # over the leading `keep` axes
        return (x != y).reshape(x.shape[:keep] + (-1,)).any(axis=-1)

    if name == "unit":
        return first(differ(td(unit, m, ([0], [0])), eye, 1) | differ(td(m, unit, ([1], [0])), eye, 1))
    if name == "associativity":  # (e_i e_j) e_k against e_i (e_j e_k)
        return first(differ(td(m, m, ([2], [0])), td(m, m, ([2], [1])).transpose(2, 0, 1, 3), 3))
    if name == "coassociativity":
        return first(differ(td(d, d, ([1], [0])).transpose(0, 2, 3, 1), td(d, d, ([2], [0])), 1))
    if name == "counit_left":
        return first(differ(td(eps, d, ([0], [1])), eye, 1))
    if name == "counit_right":
        return first(differ(td(d, eps, ([2], [0])), eye, 1))
    if name == "comul_multiplicative":
        lhs = td(m, d, ([2], [0]))  # Delta(e_i e_j), axes (i, j, u, v)
        for i in range(n):
            x = td(d[i], m, ([0], [0]))  # (b, c, u)
            x = td(x, d, ([1], [1]))  # (b, u, j, d)
            rhs = td(x, m, ([0, 3], [0, 1])).transpose(1, 0, 2)  # (j, u, v)
            j = first(differ(lhs[i], rhs, 1))
            if j is not None:
                return (i, *j)
        return None
    if name == "counit_multiplicative":
        return first(td(m, eps, ([2], [0])) != np.outer(eps, eps) % p)
    if name in ("antipode_left", "antipode_right"):
        if name == "antipode_left":  # sum d[i,a,b] S(e_a) e_b
            act = td(td(d, s, ([1], [1])), m, ([2, 1], [0, 1]))
        else:  # sum d[i,a,b] e_a S(e_b)
            act = td(td(d, s, ([2], [1])), m, ([1, 2], [0, 1]))
        return first(differ(act, np.outer(eps, unit) % p, 1))
    if name == "comul_unit":
        return (0,) if differ(td(unit, d, ([0], [0])), np.outer(unit, unit) % p, 0) else None
    if name == "counit_unit":
        return (0,) if int(eps @ unit % p) != 1 else None
    raise AssertionError(f"unknown axiom {name}")


def bump_mul(at):
    def act(p, mul, comul, counit, antipode):
        i, j, k, c = mul[at]
        mul[at] = (i, j, k, (c + 1) % p)
        return mul, comul, counit, antipode
    return act


def add_comul_term(i, a, bb):
    def act(p, mul, comul, counit, antipode):
        comul = comul + [(i, a, bb, 1)]
        return mul, comul, counit, antipode
    return act


def bump_comul(at):
    def act(p, mul, comul, counit, antipode):
        i, a, bb, c = comul[at]
        comul[at] = (i, a, bb, (c + 1) % p)
        return mul, comul, counit, antipode
    return act


def bump_counit(idx):
    def act(p, mul, comul, counit, antipode):
        counit[idx] = (counit[idx] + 1) % p
        return mul, comul, counit, antipode
    return act


def bump_antipode(i, j):
    def act(p, mul, comul, counit, antipode):
        antipode[i, j] = (antipode[i, j] + 1) % p
        return mul, comul, counit, antipode
    return act


def unchanged(p, mul, comul, counit, antipode):
    return mul, comul, counit, antipode


def twist_comul(group, x):
    """Delta(g) = g (x) x g x^-1 on F_p[G]: still multiplicative, since
    conjugation (inversion when x is None, G abelian) is an automorphism, but
    neither coassociative nor left counital where the twist moves g."""
    g = builtin_group(group)

    def act(p, mul, comul, counit, antipode):
        twist = g.inverse if x is None else g.cayley[g.cayley[x], g.inverse[x]]
        return mul, [(i, i, int(twist[i]), 1) for i in range(g.order)], counit, antipode
    return act


CRITERION_1_MUTATIONS = [
    ("c3", bump_mul(4)),
    ("q8", add_comul_term(2, 0, 3)),
    ("c4c2", bump_counit(1)),
    ("q8", bump_antipode(2, 3)),
    ("s3c2", bump_mul(7)),
    ("qsl2", bump_comul(5)),
    ("usl2", bump_antipode(0, 1)),
    ("usl2", add_comul_term(3, 0, 2)),
    ("qsl2", bump_mul(11)),
    ("s3c2", bump_comul(3)),
]


def mutated(inst, mutate) -> BialgebraData:
    """A fresh, unverified and uncertified copy of inst.h with the mutation applied."""
    h = inst.h
    p = h.field.p
    antipode = None if h.antipode is None else h.antipode.copy()
    mul, comul, counit, antipode = mutate(p, h.alg.mul.entries(), h.comul.entries(),
                                          h.counit.copy(), antipode)
    alg = StructureConstantAlgebra(h.field, h.dim, h.alg.unit.copy(),
                                   SparseTensor.from_entries(h.dim, 3, mul, p), h.alg.labels)
    return BialgebraData(alg, comul, counit, antipode)


def exhaustive_witnesses(b: BialgebraData) -> dict:
    """Each law's witness (None where it holds), every law over the whole
    basis: no generators are passed, and b's algebra stays uncertified."""
    out = {"unit": None, "associativity": None}
    try:
        _check_unit(b.alg)
    except UnitAxiomFails as exc:
        out["unit"] = exc.witness
    try:
        _check_associative(b.alg)
    except NotAssociative as exc:
        out["associativity"] = exc.witness
    assert not b.alg.certified
    out.update((c.name, c.witness) for c in verify_structure(b).checks)
    return out


def _mutated_fails_with_correct_witness(inst, mutate):
    """Apply a single-coefficient mutation and demand a pinpointing witness."""
    b = mutated(inst, mutate)
    failures = [(name, w) for name, w in exhaustive_witnesses(b).items() if w is not None]
    assert failures, "mutation was not detected"
    for name, witness in failures:
        assert axiom_fails_at(b, name, witness), (name, witness)
        # and no lexicographically smaller index fails
        assert first_failure(b, name) == (witness if isinstance(witness, tuple) else (witness,))


def test_criterion_1_axiom_suite_and_mutations(corpus):
    with criterion(1, 5.0):
        for name in SHIPPED_NAMES:
            report = verify_structure(corpus[name].h)
            assert report.passed, f"{name} fails {report.failed()}"
            # the rewriting families (the diamond lemma) and the group
            # algebras (a certified Cayley table) build their algebra
            # unchecked; hold the algebra axioms, on every triple, for every
            # instance and for F_p[S3 x S3] at p = 2**31 - 1
            alg = corpus[name].h.alg
            _check_unit(alg)
            _check_associative(alg)
            if name != "qm2":
                assert corpus[name].h.antipode is not None
        s3 = builtin_group("s3")
        alg = group_algebra(FieldSpec(2**31 - 1), direct_product(s3, s3)).alg
        _check_unit(alg)
        _check_associative(alg)
        assert len(CRITERION_1_MUTATIONS) == 10
        for name, mutate in CRITERION_1_MUTATIONS:
            _mutated_fails_with_correct_witness(corpus[name], mutate)


def _seeded_mutations(names, per_instance):
    """Single-entry mutations: a seeded bump of one mul, comul, counit or
    antipode coefficient, several per instance."""
    out = []
    for name in names:
        for k in range(per_instance):
            rng = random.Random(f"{name}-{k}")
            kind = rng.choice(["mul", "comul", "counit"] + (["antipode"] if name != "qm2" else []))
            at = rng.randrange(10**6)

            def act(p, mul, comul, counit, antipode, kind=kind, at=at):
                if kind == "counit":
                    return bump_counit(at % len(counit))(p, mul, comul, counit, antipode)
                if kind == "antipode":
                    i, j = divmod(at % antipode.size, len(antipode))
                    return bump_antipode(i, j)(p, mul, comul, counit, antipode)
                bump = bump_mul if kind == "mul" else bump_comul
                return bump(at % len(mul if kind == "mul" else comul))(p, mul, comul, counit, antipode)

            out.append((name, act))
    return out


GENERATOR_LAWS = ("associativity", "comul_multiplicative", "counit_multiplicative",
                  "coassociativity", "counit_left", "counit_right")


@pytest.fixture(scope="module")
def witnesses_both_ways(corpus):
    """(on the generators, exhaustively) witness dicts for every shipped
    instance, criterion 1's mutations, four seeded mutations per instance and
    three twisted coproducts, which fail coassociativity and a counit law
    with Delta and eps multiplicative."""
    cases = [(name, unchanged) for name in SHIPPED_NAMES] + CRITERION_1_MUTATIONS
    cases += _seeded_mutations(SHIPPED_NAMES, 4)
    cases += [("c3", twist_comul("c3", None)), ("q8", twist_comul("q8", 2)),
              ("s3c2", twist_comul("s3c2", 4))]
    out = []
    for name, mutate in cases:
        report = axiom_checks(mutated(corpus[name], mutate))
        out.append(({c.name: c.witness for c in report.checks},
                    exhaustive_witnesses(mutated(corpus[name], mutate))))
    return out


@pytest.mark.parametrize("law", GENERATOR_LAWS)
def test_generator_checks_match_the_exhaustive_chains(witnesses_both_ways, law):
    # the axioms report checks law with its first factor on the generators
    # where the lemma allows and reruns it over every basis element on a
    # failure; it must agree with the exhaustive chain, and the cases must
    # include failures of law
    failed = 0
    for on_gens, everywhere in witnesses_both_ways:
        assert on_gens[law] == everywhere[law]
        failed += everywhere[law] is not None
    assert failed


def test_criterion_2_winding_group_law(corpus):
    with criterion(2, 5.0):
        for name in HOPF_NAMES:
            inst = corpus[name]
            h = inst.h
            p = h.field.p
            chars = enumerate_characters(h)
            mats = {c.values: winding(h, c, side="right") for c in chars}
            for c1 in chars:
                for c2 in chars:
                    composed = (mats[c1.values] @ mats[c2.values]) % p
                    conv = convolve(h, c2, c1)
                    assert np.array_equal(composed, mats[conv.values])
            members = {c.values for c in x_members(h, inst.a, chars)}
            basis_t = inst.a.subspace.basis.T
            for ch in chars:
                fixes = np.array_equal((mats[ch.values] @ basis_t) % p, basis_t)
                assert fixes == (ch.values in members)
        # winding maps are built unchecked: both sides are algebra maps on
        # every instance, and invertible when there is an antipode
        for name in SHIPPED_NAMES:
            h = corpus[name].h
            gens = greedy_generating_set(h.alg)
            for ch in enumerate_characters(h):
                for side in ("right", "left"):
                    mat = winding(h, ch, side=side)
                    assert is_algebra_endomorphism(h.alg, mat, gens)
                    if h.antipode is not None:
                        assert rref(mat, h.field.p)[1] == h.dim


def test_criterion_3_adjoint_identity(corpus):
    with criterion(3, 10.0):
        for name in HOPF_NAMES:
            h = corpus[name].h
            p = h.field.p
            ad = adjoint_action(h, left_regular(h.alg), right_regular(h.alg))
            checked_module(h.alg, ad)  # ad is built unchecked: it must be a left module
            found = ad_one_dim_submodules(h, ad)
            assert found  # at least the counit eigenvector (the unit element)
            for chi, eigenspace in found:
                sigma = winding(h, chi, side="right")
                for nvec in eigenspace.basis:
                    lhs = h.alg.right_mult_matrix(nvec)
                    rhs = (h.alg.left_mult_matrix(nvec) @ sigma) % p
                    assert np.array_equal(lhs, rhs)


def test_criterion_4_positive_group_case(corpus):
    with criterion(4, 10.0):
        v = verify_theorem(corpus["q8"], fibers(corpus["q8"], spectrum(corpus["q8"].h.alg, seed=7)))
        assert (v.cond_i, v.cond_ii, v.cond_iii, v.cond_iv) == (True, True, True, True)
        assert v.agree
        assert v.x_order == 4
        assert v.witnesses["fiber_sizes"] == [1, 4]
        assert v.witnesses["orbit_sizes"] == [1, 4]


def test_criterion_5_negative_group_case(corpus):
    with criterion(5, 10.0):
        inst = corpus["s3c2"]
        prims = spectrum(inst.h.alg, seed=7)
        v = verify_theorem(inst, fibers(inst, prims))
        assert (v.cond_i, v.cond_ii, v.cond_iii, v.cond_iv) == (False, False, False, False)
        assert v.agree
        assert v.witnesses["failing_simple_dims"] == [2]
        # the counit fiber (3 primitives) splits into orbits of sizes 2 and 1
        assert v.witnesses["counit_fiber_orbit_sizes"] == [1, 2]
        assert sorted(map(len, fibers(inst, prims).blocks.values())) == [3, 3]


def test_criterion_6_quantum_positive_case(corpus):
    with criterion(6, 30.0):
        inst = corpus["qsl2"]
        assert inst.dim == 27
        prims = spectrum(inst.h.alg, seed=7)
        assert len(prims) == 3
        assert all(it.dim == 1 for it in prims)
        v = verify_theorem(inst, fibers(inst, prims), mode="local")
        assert v.cond_i is True and v.cond_ii is True and v.agree
        assert v.x_order == 3
        assert v.witnesses["counit_fiber_orbit_sizes"] == [3]


def test_criterion_7_quantum_negative_case(corpus):
    with criterion(7, 30.0):
        inst = corpus["usl2"]
        prims = spectrum(inst.h.alg, seed=7)
        assert any(it.dim == 3 for it in prims)
        v = verify_theorem(inst, fibers(inst, prims))
        assert v.x_order == 1
        assert v.cond_i is False and v.cond_ii is False and v.agree
        assert v.witnesses["fiber_sizes"] == [3]
        assert v.witnesses["orbit_sizes"] == [1, 1, 1]


def test_criterion_8_fibers_are_unions_of_orbits(corpus):
    # verify_theorem hands orbits only the winding maps of X's generators;
    # here every member's map must permute the ideals, and the generators'
    # orbits must be those of all of X, on Prim(H) and on the chopped
    # counit fiber algebra (the oracle)
    with criterion(8, 10.0):
        for name in SHIPPED_NAMES:
            inst = corpus[name]
            h = inst.h
            p = h.field.p
            prims = spectrum(h.alg, seed=0)
            x = x_by_restriction(h, inst.a, one_dim_characters(h.alg, prims))
            gens = x.gens
            sides = ("right",) if h.antipode is not None else ("right", "left")
            every = [[winding(h, c, side) for c in x.chars] for side in sides]
            orb = orbits(prims, [mat for mats in every for mat in mats])
            assert orb == orbits(prims, [mats[i] for mats in every for i in gens])
            assert refinement_holds(Partition(list(fibers(inst, prims).blocks.values())), orb)
            eps_a = Character.from_vector(p, (inst.a.subspace.basis @ h.counit) % p)
            every_fiber = chopped_fiber(h, inst.a, eps_a, every[0])
            assert every_fiber.orbits == chopped_fiber(h, inst.a, eps_a, [every[0][i] for i in gens]).orbits
            # consistency gate: all applicable conditions agree on every instance
            v = verify_theorem(inst, fibers(inst, prims))
            assert v.agree


def test_criterion_9_oracle_equivalences(corpus):
    with criterion(9, 60.0):
        # characters by chop match brute-force backtracking, dims <= 30
        for name in HOPF_NAMES:
            inst = corpus[name]
            assert inst.dim <= 30
            got = [c.values for c in enumerate_characters(inst.h)]
            assert got == brute_force_characters(inst.h.alg)
        # fiber algebra of the q8 pair is the group algebra of the quotient
        inst = corpus["q8"]
        p = inst.h.field.p
        eps_a = Character.from_vector(p, (inst.a.subspace.basis @ inst.h.counit) % p)
        fq = mapped_fiber(inst.h, inst.a, eps_a)
        g = builtin_group("q8")
        q, mapping = quotient_group(g, g.center())
        ga = group_algebra(FieldSpec(p), q)
        perm = [int(mapping[np.argmax(fq.section[:, r])]) for r in range(4)]
        assert sorted(perm) == [0, 1, 2, 3]
        assert np.array_equal(fq.algebra.mul.dense(), ga.alg.mul.dense()[np.ix_(perm, perm, perm)])
        # dimension accounting and seed independence on every instance
        for name in SHIPPED_NAMES:
            inst = corpus[name]
            outcomes = set()
            for seed in (0, 1, 2):
                recs = chop(inst.h.alg, seed=seed)
                assert sum(r.dim * r.multiplicity for r in recs) == inst.dim
                outcomes.add(tuple((r.dim, r.multiplicity) for r in recs))
            assert len(outcomes) == 1


def test_criterion_10_quantum_matrices_experiment(corpus):
    with criterion(10, 120.0):
        inst = corpus["qm2"]
        assert inst.dim == 81
        assert inst.h.antipode is None
        chars = enumerate_characters(inst.h)
        assert len(chars) == 9
        v = verify_theorem(inst, fibers(inst, spectrum(inst.h.alg, seed=7)), mode="local")
        assert v.mode == "experiment"  # excluded from the equivalence gate
        assert v.x_order == 9
        assert v.cond_iii is True
        assert v.cond_i is None and v.cond_ii is None and v.cond_iv is None
        assert v.witnesses["fiber_sizes"] == [9]
        assert v.witnesses["orbit_sizes"] == [9]
        assert v.witnesses["action"] == "two-sided"
