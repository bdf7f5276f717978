import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfib.repn
from hopfib.algebra import StructureConstantAlgebra, build_algebra, closing_maps, ideal_closure
from hopfib.corpus import SHIPPED_NAMES, GroupTable, builtin_group, direct_product, group_algebra_pair
from hopfib.errors import DimensionMismatch, HopfibError
from hopfib.fileio import instance_from_dict
from hopfib.linalg import (
    FieldSpec,
    SparseTensor,
    Subspace,
    irreducible_factors,
    kernel,
    matmul_mod,
    null_space,
)
from hopfib.repn import minpoly_on_vector, simples, spectrum

from hopfib.rewrite import extract_bialgebra

import oracles
from oracles import (
    all_pairs_module_witness,
    annihilator,
    checked_module,
    chop,
    endomorphism_degrees,
    checked_restrict_action,
    fixed_point_spin,
    inverse_mod,
    iso_simple,
    krylov_solve_minpoly,
    left_regular,
    poly_eval_matrix,
    power_sum_poly_eval,
    product_quotient_action,
    quotient_action,
    restrict_action,
    spin,
    tensordot_mod,
    truncated_times_f3,
    whole_module_chop,
)
from test_rewrite import quantum_plane

F7 = FieldSpec(7)


def cyclic_entries(n):
    return [(i, j, (i + j) % n, 1) for i in range(n) for j in range(n)]


def s3_table():
    """Cayley table of S3 as permutations of {0,1,2} in a fixed listing."""
    perms = sorted(itertools.permutations(range(3)))
    index = {q: i for i, q in enumerate(perms)}
    table = np.zeros((6, 6), dtype=np.int64)
    for i, a in enumerate(perms):
        for j, b in enumerate(perms):
            comp = tuple(a[b[t]] for t in range(3))  # (a o b)(t)
            table[i, j] = index[comp]
    return table


def group_algebra_entries(table):
    n = table.shape[0]
    return [(i, j, int(table[i, j]), 1) for i in range(n) for j in range(n)]


@pytest.fixture(scope="module")
def c3():
    return build_algebra(F7, 3, [1, 0, 0], cyclic_entries(3))


@pytest.fixture(scope="module")
def s3():
    table = s3_table()
    ident = int(np.argmax([np.array_equal(table[i], np.arange(6)) for i in range(6)]))
    unit = np.zeros(6, dtype=np.int64)
    unit[ident] = 1
    return build_algebra(F7, 6, unit, group_algebra_entries(table))


@pytest.fixture(scope="module")
def m2():
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    entries = [
        (i, j, idx[(a, d)], 1)
        for (a, b), i in idx.items()
        for (c, d), j in idx.items()
        if b == c
    ]
    return build_algebra(F7, 4, [1, 0, 0, 1], entries)


class TestModuleRep:
    """The module-axiom check of the tests (oracles.checked_module)."""

    def test_regular_module_valid(self, c3):
        assert checked_module(c3, left_regular(c3)).shape == (3, 3, 3)

    def test_broken_action_rejected(self, c3):
        # g acts by diag(3,1,1) but g*g would then act by diag(2,1,1) != identity
        bad = np.stack(
            [np.eye(3, dtype=np.int64), np.diag([3, 1, 1]), np.eye(3, dtype=np.int64)]
        )
        with pytest.raises(DimensionMismatch):
            checked_module(c3, bad)

    def test_spin_of_invariant_vector(self, c3):
        reg = left_regular(c3)
        full = spin(reg, [[1, 0, 0]], F7)
        assert full.dim == 3
        # the all-ones vector spans the trivial submodule of a group algebra
        triv = spin(reg, [[1, 1, 1]], F7)
        assert triv.dim == 1


def module_witness(alg, action):
    """checked_module's witness against action: "unit", the failing pair, or None."""
    try:
        checked_module(alg, action)
    except DimensionMismatch as exc:
        if str(exc) == "unit does not act as the identity":
            return "unit"
        pair = re.fullmatch(r"action is not an algebra homomorphism at basis pair \((\d+), (\d+)\)", str(exc))
        return int(pair[1]), int(pair[2])
    return None


class TestModuleCheckOnGenerators:
    """checked_module checks the homomorphism law with its first factor in G and
    reruns every pair only on a failure there; the all-pairs check is the
    oracle for its verdict and witness."""

    def test_seeded_bad_actions_give_the_all_pairs_witness(self, oracle_cases):
        # the simples of each case and its regular module up to dimension 36,
        # each intact and with one entry bumped at a seeded place
        rng = random.Random(0)
        pairs = 0
        for inst in oracle_cases:
            alg, p = inst.h.alg, inst.h.field.p
            actions = [rec.action for rec in chop(alg)]
            actions += [left_regular(alg)] if alg.dim <= 36 else []
            for action in actions:
                assert module_witness(alg, action) is None is all_pairs_module_witness(alg, action)
                for _ in range(2):
                    bad = action.copy()
                    at = tuple(rng.randrange(s) for s in bad.shape)
                    bad[at] = (bad[at] + rng.randrange(1, p)) % p
                    expected = all_pairs_module_witness(alg, bad)
                    assert module_witness(alg, bad) == expected
                    pairs += isinstance(expected, tuple)
        assert pairs >= 40


class TestSplitHelpersMatchOracles:
    """The whole-module chop's spin, restrict_action and quotient_action skip
    work their answers do not need; each must match the checked helper it
    replaced bit for bit."""

    @staticmethod
    def _seeds(stack, field, rng):
        """Random vectors and, as chop draws them, vectors killed by g(theta)
        for the irreducible factors g of a random element's minimal polynomial."""
        p = field.p
        n, m, _ = stack.shape
        seeds = [rng.integers(0, p, size=(k, m)) for k in (1, 2)]
        theta = tensordot_mod(rng.integers(0, p, size=n), stack, ([0], [0]), p)
        f = minpoly_on_vector(theta, rng.integers(1, p, size=m), p)
        for g, _mult in itertools.islice(irreducible_factors(f, p), 4):
            nullsp = kernel(poly_eval_matrix(g, theta, p), p)
            if nullsp.shape[0]:
                seeds.append(matmul_mod(rng.integers(0, p, size=(1, nullsp.shape[0])), nullsp, p))
        return seeds

    @staticmethod
    def _check_split(stack, sub, p):
        # the oracle re-checks invariance: it must accept every subspace here
        assert np.array_equal(restrict_action(stack, sub, p), checked_restrict_action(stack, sub, p))
        assert np.array_equal(quotient_action(stack, sub, p), product_quotient_action(stack, sub, p))

    def test_regular_modules_of_the_corpus_and_q8_at_the_largest_prime(
            self, instances, rebased_big_p):
        algebras = [instances(name).h.alg for name in SHIPPED_NAMES]
        algebras.append(instance_from_dict(rebased_big_p("q8")).h.alg)
        for k, alg in enumerate(algebras):
            field, p = alg.field, alg.field.p
            action = left_regular(alg)
            m = action.shape[1]
            rng = np.random.default_rng(k)
            splits = perps = 0
            for stack in (action, action.transpose(0, 2, 1)):
                for seeds in self._seeds(stack, field, rng):
                    sub = spin(stack, seeds, field)
                    oracle = fixed_point_spin(stack, seeds, field)
                    assert np.array_equal(sub.basis, oracle.basis) and sub.pivots == oracle.pivots
                    if not 0 < sub.dim < m:
                        continue
                    self._check_split(stack, sub, p)
                    splits += 1
                    if stack is not action:
                        # the Norton complement is invariant under the action
                        self._check_split(action, Subspace(field, m, kernel(sub.basis, p)), p)
                        perps += 1
            assert splits >= 2 and perps >= 1

    def test_minpoly_matches_the_krylov_solve_oracle(self, instances, rebased_big_p):
        # random elements of the regular modules, as chop draws them, at random
        # nonzero vectors, standard vectors and vectors killed by a factor
        algebras = [instances(name).h.alg for name in SHIPPED_NAMES]
        algebras.append(instance_from_dict(rebased_big_p("q8")).h.alg)
        degrees = set()
        for k, alg in enumerate(algebras):
            p = alg.field.p
            action = left_regular(alg)
            n, m, _ = action.shape
            rng = np.random.default_rng(k)
            for _ in range(3):
                theta = tensordot_mod(rng.integers(0, p, size=n), action, ([0], [0]), p)
                vectors = [rng.integers(1, p, size=m), np.eye(m, dtype=np.int64)[rng.integers(m)]]
                f = minpoly_on_vector(theta, vectors[0], p)
                for g, _mult in itertools.islice(irreducible_factors(f, p), 2):
                    nullsp = kernel(poly_eval_matrix(g, theta, p), p)
                    vectors += list(nullsp[:1])
                for v in vectors:
                    f = minpoly_on_vector(theta, v, p)
                    assert f == krylov_solve_minpoly(theta, v, p)
                    degrees.add(len(f) - 1)
            assert minpoly_on_vector(theta, np.zeros(m, dtype=np.int64), p) == [1]
        assert min(degrees) == 1 and max(degrees) > 10

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([7, 2**31 - 1]), st.integers(0, 6), st.integers(1, 5), st.data())
    def test_poly_eval_matches_the_power_sum(self, p, degree, m, data):
        # the leading coefficient may be any residue, the extreme ones included
        residues = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
        coeffs = data.draw(st.lists(residues, min_size=degree + 1, max_size=degree + 1))
        theta = np.array(data.draw(st.lists(st.lists(residues, min_size=m, max_size=m),
                                            min_size=m, max_size=m)), dtype=np.int64)
        out = poly_eval_matrix(coeffs, theta, p)
        assert out.dtype == np.int64 and out.shape == (m, m)
        assert np.array_equal(out, power_sum_poly_eval(coeffs, theta, p))

    @pytest.mark.parametrize("degree", range(4))
    def test_poly_eval_of_degree_d_takes_d_minus_one_products(self, s3, spy, degree):
        theta = tensordot_mod(np.arange(6), left_regular(s3), ([0], [0]), 7)
        calls = spy("matmul_mod", oracles)
        out = poly_eval_matrix([1] + [3] * degree, theta, 7)
        # a linear factor, the usual one, is theta + c*I with no product
        assert len(calls) == max(degree - 1, 0)
        assert np.array_equal(out, power_sum_poly_eval([1] + [3] * degree, theta, 7))

    def test_one_spin_is_one_product(self, s3, spy):
        calls = spy("matmul_mod", oracles)
        # 1 - t for a transposition t generates a proper left ideal of F_7[S3]
        sub = spin(left_regular(s3), [[1, 6, 0, 0, 0, 0]], F7)
        assert len(calls) == 1 and sub.dim == 3


class TestChop:
    def test_c3_regular_three_linear_factors(self, c3):
        factors = chop(c3, seed=0)
        assert [(r.dim, r.multiplicity) for r in factors] == [(1, 1), (1, 1), (1, 1)]
        # factor scalars are exactly the cube roots of unity mod 7
        scalars = sorted(int(r.action[1, 0, 0]) for r in factors)
        cube_roots = sorted(x for x in range(1, 7) if pow(x, 3, 7) == 1)
        assert scalars == cube_roots

    def test_simple_input_returned_unchanged(self, m2):
        # the column module of the matrix algebra, through the chop of any
        # module that the tests keep
        col = np.zeros((4, 2, 2), dtype=np.int64)
        col[0] = [[1, 0], [0, 0]]
        col[1] = [[0, 1], [0, 0]]
        col[2] = [[0, 0], [1, 0]]
        col[3] = [[0, 0], [0, 1]]
        factors = whole_module_chop(m2, checked_module(m2, col), seed=3)
        assert len(factors) == 1
        rec = factors[0]
        assert rec.multiplicity == 1 and rec.dim == 2
        assert np.array_equal(rec.action, col)

    def test_s3_regular_wedderburn_shape(self, s3):
        # F_7[S3] = F_7 + F_7 + M_2(F_7): factors 1, 1, and 2 twice
        factors = chop(s3, seed=0)
        assert [(r.dim, r.multiplicity) for r in factors] == [(1, 1), (1, 1), (2, 2)]

    def test_dimension_accounting_and_seed_independence(self, s3):
        shapes = set()
        for seed in (0, 1, 2):
            factors = chop(s3, seed=seed)
            assert sum(r.dim * r.multiplicity for r in factors) == 6
            shapes.add(tuple((r.dim, r.multiplicity) for r in factors))
        assert len(shapes) == 1


def big_p_s3s3():
    g = direct_product(builtin_group("s3"), builtin_group("s3"))
    return group_algebra_pair(FieldSpec(2**31 - 1), g, g.center()).h.alg


def records(recs):
    return [(r.dim, r.multiplicity, r.annihilator.key()) for r in recs]


def s4_group():
    """S4 as the permutations of {0, 1, 2, 3} in lexicographic order."""
    perms = sorted(itertools.permutations(range(4)))
    index = {q: i for i, q in enumerate(perms)}
    return GroupTable.from_cayley([[index[tuple(a[b[t]] for t in range(4))] for b in perms] for a in perms])


class TestCentralSplit:
    """simples splits H along the primitive central idempotents of H/J(H),
    each lifted to an idempotent e of H, and reads the multiplicity of each
    simple off the right ideal e H; the whole-module chop of the regular
    module, which draws fresh elements for every module of its split tree,
    is the oracle for its records, and the intersection of the chop's
    annihilators for J(H). The cases: the shipped instances, F_p[S3 x S3]
    and q8 and s3c2 rebased at p = 2**31 - 1, F_p[C4] at that prime (not
    split), and the modular F_3[S3], F_3[S3 x C2] and F_3[S4]."""

    @pytest.fixture(scope="class")
    def cases(self, instances, rebased_big_p):
        algs = {name: instances(name).h.alg for name in SHIPPED_NAMES}
        algs["s3s3-bigp"] = big_p_s3s3()
        for name in ("q8", "s3c2"):
            algs[f"{name}-bigp-rebased"] = instance_from_dict(rebased_big_p(name)).h.alg
        algs["c4c2-bigp"] = group_algebra_pair(FieldSpec(2**31 - 1), builtin_group("c4"), [0, 2]).h.alg
        with pytest.warns(UserWarning, match="not semisimple"):
            algs["f3s3"] = group_algebra_pair(FieldSpec(3), builtin_group("s3"), [0]).h.alg
            s3c2 = direct_product(builtin_group("s3"), builtin_group("c2"))
            algs["f3s3c2"] = group_algebra_pair(FieldSpec(3), s3c2, s3c2.center()).h.alg
            algs["f3s4"] = group_algebra_pair(FieldSpec(3), s4_group(), [0]).h.alg
        return algs

    @pytest.mark.parametrize("seed", range(4))
    def test_records_match_the_whole_module_chop(self, cases, seed):
        assert len(cases) == 14
        for name, alg in cases.items():
            want = records(whole_module_chop(alg, left_regular(alg), seed=seed))
            got = [(r.dim, multiplicity, r.annihilator.key()) for r, multiplicity in simples(alg, seed=seed)]
            assert got == want, name

    def test_the_radical_is_the_intersection_of_the_chop_annihilators(self, cases):
        # J(H) is the kernel of the action on the sum of the simple modules;
        # the chain runs levels only where p <= dim H, and is R0 elsewhere
        levels = {}
        for name, alg in cases.items():
            actions = [rec.action.reshape(alg.dim, -1).T for rec in chop(alg, seed=0)]
            assert alg.radical == null_space(np.vstack(actions), alg.field), name
            levels[name] = (alg.trace_radical.dim, alg.radical.dim)
        assert levels["f3s3"] == (6, 4) and levels["f3s3c2"] == (12, 8) and levels["f3s4"] == (24, 4)
        assert levels["qm2"] == (72, 72) and levels["s3s3-bigp"] == (0, 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_pieces_read_from_mul_equal_the_restricted_dense_stack(self, cases, seed):
        # each lifted block idempotent e is an idempotent of H, held on the
        # dense regular stack, in the class of its block idempotent mod I,
        # and the right ideal e H that simples closes from the sparse mul is
        # the column space of the stack contracted with e
        from hopfib import repn

        for name, alg in cases.items():
            p, stack = alg.field.p, left_regular(alg)
            ideal, blocks = repn._blocks(alg, seed)
            lifts = repn._lifted_idempotents(alg, ideal, [e for _, e in blocks])
            assert np.array_equal(matmul_mod(lifts, ideal.quotient_map(), p), [e for _, e in blocks]), name
            rights = closing_maps(alg)[1]
            for e, mat in zip(lifts, tensordot_mod(lifts, stack, ([1], [0]), p)):
                assert np.array_equal(matmul_mod(mat, mat, p), mat), name
                piece = ideal_closure(alg, Subspace(alg.field, alg.dim, e[None]), rights)
                assert piece == Subspace(alg.field, alg.dim, mat.T), name


class TestSimples:
    def test_s3_simples(self, s3):
        recs = simples(s3, seed=0)
        assert [(r.dim, multiplicity) for r, multiplicity in recs] == [(1, 1), (1, 1), (2, 2)]
        # semisimple: sum of squares of dims equals algebra dim (Wedderburn)
        assert sum(r.dim ** 2 for r, _ in recs) == 6

    def test_m2_single_simple(self, m2):
        recs = simples(m2, seed=0)
        assert len(recs) == 1
        assert recs[0][0].dim == 2 and recs[0][1] == 2
        assert recs[0][0].annihilator.dim == 0

    def test_irreducibility_certificates_by_exhaustive_search(self, s3):
        # independent check of the chop oracle: no nonzero proper invariant
        # subspace, found by spinning every nonzero vector (dims here are at
        # most 2)
        for rec in chop(s3, seed=0):
            act = rec.action
            m = rec.dim
            for coords in np.ndindex(*(7,) * m):
                v = np.array(coords, dtype=np.int64)
                if not v.any():
                    continue
                assert spin(act, [v], F7).dim == m

    def test_uncertified_data_is_refused(self, s3):
        # the spectrum reads G and the centre, which need the axioms
        raw = StructureConstantAlgebra(s3.field, s3.dim, s3.unit, s3.mul, ())
        for read in (spectrum, simples):
            with pytest.raises(HopfibError, match="needs a certified algebra"):
                read(raw, seed=0)


class TestBudget:
    def test_exhausted_budget_raises(self, q8_pair, monkeypatch):
        # an element that splits nothing leaves the centre of H in one part
        # that is not a field, and no further draw is allowed
        from hopfib import repn
        from hopfib.errors import BudgetExceeded

        monkeypatch.setattr(repn, "EXTRA_DRAWS", 0)
        monkeypatch.setattr(repn, "_split", lambda theta, parts, p: parts)
        with pytest.raises(BudgetExceeded, match=r"0 random central elements \(repn\.EXTRA_DRAWS\)"):
            spectrum(q8_pair.h.alg, seed=0)

    def test_parts_the_sweep_leaves_whole_are_split_by_further_draws(self, instances, monkeypatch):
        # the first draw and the whole basis sweep split nothing here; the
        # parts are then not certified fields, and the draws after the sweep
        # must find the same records
        from hopfib import repn

        alg = instances("s3c2").h.alg
        want = [(r.dim, r.dual.key()) for r in spectrum(alg, seed=0)]
        real, calls = repn._split, []

        def late(theta, parts, p):
            calls.append(len(parts))
            return parts if len(calls) <= 1 + alg.centre.dim else real(theta, parts, p)

        monkeypatch.setattr(repn, "_split", late)
        assert [(r.dim, r.dual.key()) for r in spectrum(alg, seed=0)] == want
        assert len(calls) > 1 + alg.centre.dim

    def test_non_split_simple_is_still_certified(self):
        # F_7[C5]: x^5 - 1 = (x - 1) * (irreducible quartic) over F_7, so the
        # regular module has a 4-dim factor whose endomorphisms are a field
        # extension; its part of the centre is certified a field of degree 4
        c5 = build_algebra(F7, 5, [1, 0, 0, 0, 0], cyclic_entries(5))
        recs = simples(c5, seed=0)
        assert [(r.dim, multiplicity) for r, multiplicity in recs] == [(1, 1), (4, 1)]
        # non-split: annihilator codimension is dim * degree, not dim**2
        assert 5 - recs[1][0].annihilator.dim == 4


class TestIsoSimple:
    def test_module_iso_to_itself(self, m2):
        recs = chop(m2, seed=0)
        assert iso_simple(m2, recs[0].action, recs[0].action)

    def test_distinct_characters_not_iso(self, c3):
        recs = chop(c3, seed=0)
        assert not iso_simple(c3, recs[0].action, recs[1].action)

    def test_conjugated_module_is_iso(self, m2):
        recs = chop(m2, seed=0)
        act = recs[0].action
        g = np.array([[1, 2], [3, 1]], dtype=np.int64)  # det = 1-6 = 2 mod 7, invertible
        ginv = np.array(inverse_mod(g.tolist(), 7))
        conj = checked_module(m2, np.stack([(g @ a @ ginv) % 7 for a in act]))
        assert iso_simple(m2, act, conj)


class TestAnnihilator:
    def test_regular_module_is_faithful(self, s3):
        assert annihilator(s3, left_regular(s3)).dim == 0

    def test_one_elimination_per_annihilator(self, s3, spy):
        # kernel's rows are already the RREF basis of the annihilator, so the
        # subspace is built without a second elimination
        from hopfib import linalg

        actions = [rec.action for rec in chop(s3, seed=0)] + [left_regular(s3)]
        calls = spy("rref", linalg)
        anns = [annihilator(s3, action) for action in actions]
        assert len(calls) == len(actions) == 4
        assert [ann.dim for ann in anns] == [5, 5, 2, 0]

    def test_character_kernel_has_codim_one(self, c3):
        recs = chop(c3, seed=0)
        for rec in recs:
            if rec.dim == 1:
                assert rec.annihilator.dim == 2

    def test_s3_two_dim_annihilator(self, s3):
        recs = chop(s3, seed=0)
        two = [r for r in recs if r.dim == 2][0]
        assert two.annihilator.dim == 2  # 6 - dim M_2 = 2

    def test_codim_is_square_of_dim_for_split_simples(self, s3):
        for rec in chop(s3, seed=0):
            assert 6 - rec.annihilator.dim == rec.dim ** 2


class TestSpectrum:
    """spectrum reads Prim H off the primitive idempotents of the centre of
    H/R0 where the count of simple modules (R0 != 0) or R0 = 0 certifies
    it, and off those of H/J(H), J(H) from the exact radical chain,
    elsewhere; the whole-module chop of the regular module is the oracle.
    The cases: the oracle pairs, F_3[S3] and F_3[S3 x C2] (modular group
    algebras, R0 = H), the primitive bialgebra F_3[x, y]/(x^3, y^3) (R0 = H)
    and F_3[x]/(x^3) x F_3, where p divides a multiplicity: R0 has
    dimension 3, H/R0 has one simple and H two, so the count falls short."""

    @pytest.fixture(scope="class")
    def cases(self, oracle_cases):
        names = [*SHIPPED_NAMES, *(f"{name}-bigp-rebased" for name in SHIPPED_NAMES), "s3s3-bigp"]
        algs = {name: inst.h.alg for name, inst in zip(names, oracle_cases, strict=True)}
        with pytest.warns(UserWarning, match="not semisimple"):
            algs["f3s3"] = group_algebra_pair(FieldSpec(3), builtin_group("s3"), [0]).h.alg
            s3c2 = direct_product(builtin_group("s3"), builtin_group("c2"))
            algs["f3s3c2"] = group_algebra_pair(FieldSpec(3), s3c2, s3c2.center()).h.alg
        primitive = [{((g,), ()): 1, ((), (g,)): 1} for g in (0, 1)]
        algs["f3[x,y]/(x3,y3)"] = extract_bialgebra(quantum_plane(q=1, p=3, bound=5), primitive, [0, 0]).alg
        algs["f3[x]/(x3)xf3"] = truncated_times_f3()
        return algs

    @pytest.mark.parametrize("seed", range(4))
    def test_records_match_the_chop_of_h(self, cases, seed):
        # the dual of a chop record is the row space of its flattened action
        assert len(cases) == 19
        for name, alg in cases.items():
            want = [(r.dim, r.annihilator.key(), Subspace(alg.field, alg.dim, r.action.reshape(alg.dim, -1).T).key())
                    for r in chop(alg, seed=seed)]
            got = [(r.dim, r.annihilator.key(), r.dual.key()) for r in spectrum(alg, seed=seed)]
            assert got == want, name

    def test_the_count_is_the_chop_record_count_where_p_splits_h(self, cases):
        # in general the sum of the degrees of End(S); c4c2 at 2**31 - 1 is
        # the one case that F_p does not split
        unsplit = []
        for name, alg in cases.items():
            recs = chop(alg, seed=0)
            assert alg.simple_count == endomorphism_degrees(alg, recs), name
            if alg.simple_count != len(recs):
                unsplit.append(name)
        assert unsplit == ["c4c2-bigp-rebased"]

    def test_which_cases_take_the_exact_radical(self, cases, spy):
        # R0 = H and a short count read the blocks of H/J(H); every other
        # case, split or not, semisimple or not, is read off H/R0
        calls, exact = spy("_primitive_idempotents", hopfib.repn), []
        for name, alg in cases.items():
            spectrum(alg, seed=0)
            if calls[-1][1] is not alg.trace_radical:
                exact.append(name)
        assert exact == ["f3s3", "f3s3c2", "f3[x,y]/(x3,y3)", "f3[x]/(x3)xf3"]
        radicals = {name: (cases[name].trace_radical.dim, cases[name].radical.dim, cases[name].dim) for name in exact}
        assert radicals == {"f3s3": (6, 4, 6), "f3s3c2": (12, 8, 12), "f3[x,y]/(x3,y3)": (9, 8, 9),
                            "f3[x]/(x3)xf3": (3, 2, 4)}

    def test_a_short_count_takes_the_exact_radical_after_h_mod_r0(self, cases, spy):
        # the idempotents of H/R0 are found and counted first, then those of
        # H/J(H); no module is split
        alg = cases["f3[x]/(x3)xf3"]
        calls = spy("_primitive_idempotents", hopfib.repn)
        recs = spectrum(alg, seed=0)
        assert [args[1].dim for args in calls] == [3, 2]
        assert alg.simple_count == len(recs) == 2

    @pytest.mark.parametrize("name", ["q8-bigp-rebased", "s3c2-bigp-rebased", "s3s3-bigp"])
    def test_records_do_not_depend_on_the_seed_at_the_large_prime(self, cases, spy, name):
        # each seed draws its own central element, and the records are the same
        alg = cases[name]
        splits = spy("_split", hopfib.repn)
        records, first_elements = set(), set()
        for seed in range(8):
            before = len(splits)
            records.add(tuple((r.dim, r.annihilator.key(), r.dual.key()) for r in spectrum(alg, seed=seed)))
            first_elements.add(splits[before][0].tobytes())
        assert len(records) == 1 and len(first_elements) == 8

    def test_a_record_dual_has_dimension_dim_squared(self, instances):
        recs = spectrum(instances("usl2").h.alg, seed=0)
        assert [(r.dim, r.dual.dim, r.annihilator.dim) for r in recs] == [(1, 1, 26), (2, 4, 23), (3, 9, 18)]

    @pytest.mark.parametrize("seed", range(4))
    def test_qm2_at_7_is_split_by_the_basis_of_the_centre(self, instances, spy, seed):
        # H/R0 is commutative of dimension 9 with 9 characters, and a central
        # element has at most 7 eigenvalues at p = 7: the first split leaves
        # at most 7 idempotents, and the basis sweep finds the other two
        alg = instances("qm2").h.alg
        splits = spy("_split", hopfib.repn)
        recs = spectrum(alg, seed=seed)
        assert [r.dim for r in recs] == [1] * 9
        assert len(splits) >= 2 and len(splits[0][1]) == 1
        assert len(splits[1][1]) <= 7

    def test_a_character_is_read_off_the_dual(self, cases):
        # f / f(1) for a row f of P^perp is the character of a 1-dim simple,
        # and the scalar of a central element on every simple
        for name, alg in cases.items():
            p = alg.field.p
            for rec, want in zip(spectrum(alg, seed=0), chop(alg, seed=0)):
                phi = rec.central_character(alg.unit)
                if rec.dim == 1:
                    assert np.array_equal(phi, want.action[:, 0, 0]), name
                for z in alg.centre.basis if rec.dim ** 2 == alg.dim - rec.annihilator.dim else ():
                    scalar = tensordot_mod(z, want.action, ([0], [0]), p)
                    assert np.array_equal(scalar, int(matmul_mod(phi, z, p)) * np.eye(rec.dim, dtype=np.int64)), name
