import itertools
import re

import numpy as np
import pytest

from hopfib.algebra import ideal_closure, is_central_subalgebra
from hopfib.corpus import (
    SHIPPED_NAMES,
    GroupTable,
    builtin_group,
    cyclic_group,
    direct_product,
    group_algebra,
    group_algebra_pair,
    quantum_m2_kernel,
    quantum_sl2_kernel,
    small_quantum_sl2,
)
from hopfib.errors import BadParameters, NotASubgroup, NotCentral
from hopfib.hopf import (
    Character,
    enumerate_characters,
    is_right_coideal,
    verify_structure,
)
from hopfib.linalg import FieldSpec, Subspace, rref

from oracles import (
    annihilator,
    chop,
    left_regular,
    spin,
    brute_force_characters,
    character_of,
    checked_module,
    first_nonassociative_triple,
    highest_weight_module_small_sl2,
    intertwiner_exists,
    inverse_mod,
    iso_simple,
    mapped_fiber,
    quotient_group,
)

F7 = FieldSpec(7)


class TestGroups:
    def test_q8_table_is_a_group_of_order_8(self):
        g = builtin_group("q8")
        assert g.order == 8
        assert g.center() == [0, 1]  # 1 and -1

    def test_s3c2_center(self):
        g = builtin_group("s3c2")
        e3 = builtin_group("s3").identity
        assert g.center() == [2 * e3, 2 * e3 + 1]

    def test_quotient_group_of_q8_is_klein(self):
        g = builtin_group("q8")
        q, mapping = quotient_group(g, [0, 1])
        assert q.order == 4
        assert all(q.cayley[i, i] == q.identity for i in range(4))

    def test_non_subgroup_rejected(self):
        g = builtin_group("c4")
        with pytest.raises(NotASubgroup):
            quotient_group(g, [0, 1])  # {1, g} is not closed

    def test_non_central_rejected(self):
        g = builtin_group("s3")
        # any 2-element subgroup of S3 is non-central
        two = [i for i in range(6) if g.cayley[i, i] == g.identity and i != g.identity][0]
        with pytest.raises(NotCentral):
            quotient_group(g, [g.identity, two])

    def test_associativity_witness_matches_the_loop_oracle(self):
        # S3 x S3, with one entry off the identity's row and column changed
        s3 = builtin_group("s3")
        g = direct_product(s3, s3)
        assert g.identity == 0 and first_nonassociative_triple(g.cayley.tolist()) is None
        rng = np.random.default_rng(0)
        witnesses = set()
        for _ in range(30):
            table = g.cayley.copy()
            i, j = rng.integers(1, g.order, size=2)
            table[i, j] = (table[i, j] + rng.integers(1, g.order)) % g.order
            expected = first_nonassociative_triple(table.tolist())
            message = "not associative at ({},{},{})".format(*expected)
            with pytest.raises(NotASubgroup, match=re.escape(message)):
                GroupTable.from_cayley(table)
            witnesses.add(expected)
        assert len(witnesses) > 10


class TestGroupAlgebraPair:
    def test_span_of_z_is_central_in_the_group_algebra(self, instances):
        # group_algebra_pair checks only that Z is central in G; span(Z) is
        # then central in F_p[G] by linearity
        pairs = [instances(name) for name in ("c3", "c4c2", "q8", "s3c2")]
        s3 = builtin_group("s3")
        s3s3 = direct_product(s3, s3)
        pairs.append(group_algebra_pair(FieldSpec(2**31 - 1), s3s3, s3s3.center()))
        for inst in pairs:
            assert is_central_subalgebra(inst.h.alg, inst.a.subspace)

    def test_q8_pair_shape(self, q8_pair):
        assert q8_pair.dim == 8
        assert q8_pair.a.dim == 2
        assert verify_structure(q8_pair.h).passed
        assert is_right_coideal(q8_pair.h, q8_pair.a.subspace)
        assert is_central_subalgebra(q8_pair.h.alg, q8_pair.a.subspace)

    def test_modular_case_warns(self):
        g = cyclic_group(7)
        with pytest.warns(UserWarning):
            group_algebra_pair(F7, g, [g.identity])

    def test_fiber_algebra_matches_quotient_group_algebra(self, instances):
        # H/HA+ must agree entrywise with F_p[G/Z] built from the coset table
        for name, group_name, z_spec in [
            ("q8", "q8", "center"),
            ("s3c2", "s3c2", None),
            ("c4c2", "c4", None),
        ]:
            inst = instances(name)
            h, a = inst.h, inst.a
            p = h.field.p
            eps_a = Character.from_vector(p, (a.subspace.basis @ h.counit) % p)
            fq = mapped_fiber(h, a, eps_a)
            g = builtin_group(group_name)
            z = [int(np.argmax(row)) for row in a.subspace.basis]
            q, mapping = quotient_group(g, z)
            ga = group_algebra(FieldSpec(p), q)
            perm = [int(mapping[np.argmax(fq.section[:, r])]) for r in range(q.order)]
            assert sorted(perm) == list(range(q.order))
            assert np.array_equal(fq.algebra.mul.dense(), ga.alg.mul.dense()[np.ix_(perm, perm, perm)])

    def test_expected_records_present(self, instances):
        for name in ("c3", "c4c2", "q8", "s3c2"):
            inst = instances(name)
            assert inst.expected["dim"] == inst.dim
            chars = enumerate_characters(inst.h)
            assert len(chars) == inst.expected["num_characters"]


class TestQuantumSl2Kernel:
    def test_dimension_and_axioms(self, qsl2_pair):
        assert qsl2_pair.dim == 27
        assert verify_structure(qsl2_pair.h).passed
        assert qsl2_pair.h.antipode is not None

    def test_characters_kill_b_and_c_and_cube_on_a(self, qsl2_pair):
        h = qsl2_pair.h
        labels = list(h.alg.labels)
        ia, ib, ic = labels.index("a"), labels.index("b"), labels.index("c")
        chars = enumerate_characters(h)
        assert len(chars) == 3
        zetas = set()
        for ch in chars:
            v = ch.vector()
            assert v[ib] == 0 and v[ic] == 0
            assert pow(int(v[ia]), 3, 7) == 1
            zetas.add(int(v[ia]))
            # the eliminated generator d = a^2 + q a^2 b c takes the value zeta^-1
            q = qsl2_pair.provenance["q"]
            d_vec = np.zeros(27, dtype=np.int64)
            d_vec[labels.index("a.a")] = 1
            d_vec[labels.index("a.a.b.c")] = q
            assert character_of(ch, d_vec) == pow(int(v[ia]), -1, 7)
        assert len(zetas) == 3

    def test_parameter_validation(self):
        with pytest.raises(BadParameters):
            quantum_sl2_kernel(2, 7)  # even order
        with pytest.raises(BadParameters):
            quantum_sl2_kernel(3, 5)  # 3 does not divide 4

    def test_brute_force_character_oracle_agrees(self, qsl2_pair):
        got = [c.values for c in enumerate_characters(qsl2_pair.h)]
        assert got == brute_force_characters(qsl2_pair.h.alg)


class TestSmallQuantumSl2:
    def test_dimension_axioms_and_unit_arithmetic(self, usl2_pair):
        assert usl2_pair.dim == 27
        q = usl2_pair.provenance["q"]
        assert q == 2  # smallest element of order 3 mod 7
        assert (q - pow(q, -1, 7)) % 7 == 5  # q - q^-1 is invertible
        assert verify_structure(usl2_pair.h).passed

    def test_exactly_one_character(self, usl2_pair):
        h = usl2_pair.h
        chars = enumerate_characters(h)
        assert len(chars) == 1
        labels = list(h.alg.labels)
        v = chars[0].vector()
        assert v[labels.index("K")] == 1
        assert v[labels.index("E")] == 0 and v[labels.index("F")] == 0
        # oracle: brute force over candidate images of K alone
        assert [c.values for c in chars] == brute_force_characters(h.alg)

    def test_three_dimensional_simple_exists(self, usl2_pair):
        # independent highest-weight construction, certified irreducible by
        # exhaustive spinning of every nonzero vector
        mod = highest_weight_module_small_sl2(usl2_pair)
        assert mod.shape[1] == 3
        for coords in np.ndindex(7, 7, 7):
            v = np.array(coords, dtype=np.int64)
            if v.any():
                assert spin(mod, [v], F7).dim == 3
        # and the chop of the regular module finds an isomorphic factor
        three = [r for r in chop(usl2_pair.h.alg, seed=1) if r.dim == 3]
        assert len(three) == 1
        assert iso_simple(usl2_pair.h.alg, three[0].action, mod)

    def test_parameter_validation(self):
        with pytest.raises(BadParameters):
            small_quantum_sl2(4, 7)
        with pytest.raises(BadParameters):
            small_quantum_sl2(3, 11)  # 3 does not divide 10


class TestQuantumM2Kernel:
    def test_dimension_and_bialgebra_only(self, qm2_pair):
        assert qm2_pair.dim == 81
        assert qm2_pair.h.antipode is None
        assert verify_structure(qm2_pair.h).passed

    def test_nine_characters_of_expected_shape(self, qm2_pair):
        h = qm2_pair.h
        labels = list(h.alg.labels)
        ia, ib = labels.index("a"), labels.index("b")
        ic, idx_d = labels.index("c"), labels.index("d")
        chars = enumerate_characters(h)
        assert len(chars) == 9
        pairs = set()
        for ch in chars:
            v = ch.vector()
            assert v[ib] == 0 and v[ic] == 0
            assert pow(int(v[ia]), 3, 7) == 1 and pow(int(v[idx_d]), 3, 7) == 1
            pairs.add((int(v[ia]), int(v[idx_d])))
        assert len(pairs) == 9

    def test_parameter_validation(self):
        with pytest.raises(BadParameters):
            quantum_m2_kernel(4, 13)  # even order

    def test_expected_record(self, qm2_pair):
        assert qm2_pair.expected["dim"] == 81
        assert qm2_pair.expected["x_order"] == 9


class TestIrreducibilityCertificates:
    def test_reported_simples_have_no_invariant_subspace(self, instances):
        # exhaustive at small dims: spin every nonzero vector of every
        # reported simple; any proper invariant subspace would contain one
        rng = np.random.default_rng(13)
        for name in ("c3", "c4c2", "q8", "s3c2", "qsl2", "usl2"):
            inst = instances(name)
            p = inst.h.field.p
            for rec in chop(inst.h.alg, seed=0):
                act = rec.action
                m = rec.dim
                if m == 1:
                    continue
                if m <= 4:
                    vectors = (np.array(c) for c in np.ndindex(*(p,) * m))
                else:
                    vectors = (rng.integers(0, p, size=m) for _ in range(256))
                for v in vectors:
                    if v.any():
                        assert spin(act, [v], inst.h.field).dim == m

    def test_simple_records_are_modules_with_ideal_annihilators(self, instances):
        # chop builds its leaves unchecked and merges them by annihilator;
        # here every record of H and of the counit fiber algebra is checked
        # as a module, its annihilator as an ideal, and the merge against
        # the Kronecker intertwiner oracle
        rng = np.random.default_rng(17)
        for name in SHIPPED_NAMES:
            inst = instances(name)
            h, a = inst.h, inst.a
            p = h.field.p
            eps_a = Character.from_vector(p, (a.subspace.basis @ h.counit) % p)
            for alg in (h.alg, mapped_fiber(h, a, eps_a).algebra):
                recs = chop(alg, seed=0)
                for rec in recs:
                    checked_module(alg, rec.action)
                    assert ideal_closure(alg, rec.annihilator) == rec.annihilator
                for r1, r2 in itertools.combinations(recs, 2):
                    if r1.dim == r2.dim <= 12:
                        assert not intertwiner_exists(alg, r1.action, r2.action)
                for rec in recs:
                    m = rec.dim
                    g = rng.integers(0, p, size=(m, m))
                    while rref(g, p)[1] < m:
                        g = rng.integers(0, p, size=(m, m))
                    ginv = np.array(inverse_mod(g.tolist(), p))
                    conj = checked_module(alg, np.stack([g @ x % p @ ginv % p for x in rec.action]))
                    assert annihilator(alg, conj) == rec.annihilator
                    if m <= 12:
                        assert intertwiner_exists(alg, rec.action, conj)


class TestIdealClosureOnCorpus:
    def test_monotone_idempotent_on_200_seeded_random_subspaces(self, instances):
        rng = np.random.default_rng(11)
        for name in ("c3", "c4c2", "q8", "s3c2", "qsl2", "usl2"):
            alg = instances(name).h.alg
            for _ in range(200):
                k = int(rng.integers(0, 3))
                seed_rows = rng.integers(0, alg.field.p, size=(k, alg.dim))
                seed = Subspace(alg.field, alg.dim, seed_rows)
                closed = ideal_closure(alg, seed)
                assert closed.contains_rows(seed.basis)
                assert ideal_closure(alg, closed) == closed

    def test_wedderburn_sum_of_squares_on_semisimple_group_algebras(self, instances):
        # p does not divide |G| for any shipped group pair, and every simple
        # splits over the chosen prime, so the squares of the dims add up
        for name in ("c3", "c4c2", "q8", "s3c2"):
            inst = instances(name)
            recs = chop(inst.h.alg, seed=0)
            assert sum(r.dim ** 2 for r in recs) == inst.dim

    def test_regular_homomorphism_identity_on_qsl2(self, qsl2_pair):
        alg = qsl2_pair.h.alg
        left = left_regular(alg)
        flat = left.reshape(27, 27 * 27)
        for i in range(27):
            actual = (left[i] @ left) % 7
            expected = ((alg.mul.dense()[i] @ flat) % 7).reshape(27, 27, 27)
            assert np.array_equal(actual, expected)
