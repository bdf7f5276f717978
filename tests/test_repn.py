import itertools
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hopfib.repn
from hopfib.algebra import StructureConstantAlgebra, build_algebra
from hopfib.corpus import SHIPPED_NAMES, builtin_group, direct_product, group_algebra_pair
from hopfib.errors import DimensionMismatch
from hopfib.fileio import instance_from_dict
from hopfib.linalg import (
    FieldSpec,
    SparseTensor,
    Subspace,
    irreducible_factors,
    kernel,
    matmul_mod,
    tensordot_mod,
)
from hopfib.repn import (
    annihilator,
    chop,
    spectrum,
    minpoly_on_vector,
    poly_eval_matrix,
    quotient_action,
    restrict_action,
    spin,
)

from hopfib.rewrite import extract_bialgebra

from oracles import (
    all_pairs_module_witness,
    checked_module,
    endomorphism_degrees,
    checked_restrict_action,
    dense_central_pieces,
    fixed_point_spin,
    inverse_mod,
    iso_simple,
    krylov_solve_minpoly,
    power_sum_poly_eval,
    product_quotient_action,
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
        assert checked_module(c3, c3.left_regular()).shape == (3, 3, 3)

    def test_broken_action_rejected(self, c3):
        # g acts by diag(3,1,1) but g*g would then act by diag(2,1,1) != identity
        bad = np.stack(
            [np.eye(3, dtype=np.int64), np.diag([3, 1, 1]), np.eye(3, dtype=np.int64)]
        )
        with pytest.raises(DimensionMismatch):
            checked_module(c3, bad)

    def test_spin_of_invariant_vector(self, c3):
        reg = c3.left_regular()
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
            actions += [alg.left_regular()] if alg.dim <= 36 else []
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
    """spin, restrict_action and quotient_action skip work their answers do
    not need; each must match the checked helper it replaced bit for bit."""

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
            action = alg.left_regular()
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
            action = alg.left_regular()
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
        from hopfib import repn

        theta = tensordot_mod(np.arange(6), s3.left_regular(), ([0], [0]), 7)
        calls = spy("matmul_mod", repn)
        out = poly_eval_matrix([1] + [3] * degree, theta, 7)
        # a linear factor, the usual one, is theta + c*I with no product
        assert len(calls) == max(degree - 1, 0)
        assert np.array_equal(out, power_sum_poly_eval([1] + [3] * degree, theta, 7))

    def test_one_spin_is_one_product(self, s3, spy):
        from hopfib import repn

        calls = spy("matmul_mod", repn)
        # 1 - t for a transposition t generates a proper left ideal of F_7[S3]
        sub = spin(s3.left_regular(), [[1, 6, 0, 0, 0, 0]], F7)
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


class TestCentralSplit:
    """chop splits the regular module along a random central element before
    the split stack, whose children first try the element that split their
    parent; the whole-module chop, which draws fresh elements for every
    module of its split tree, is the oracle."""

    @pytest.fixture(scope="class")
    def cases(self, instances, rebased_big_p):
        algs = {name: instances(name).h.alg for name in SHIPPED_NAMES}
        algs["s3s3-bigp"] = big_p_s3s3()
        for name in ("q8", "s3c2"):
            algs[f"{name}-bigp-rebased"] = instance_from_dict(rebased_big_p(name)).h.alg
        return algs

    @pytest.mark.parametrize("seed", range(4))
    def test_records_match_the_whole_module_chop(self, cases, seed):
        assert len(cases) == 10
        for name, alg in cases.items():
            want = records(whole_module_chop(alg, alg.left_regular(), seed=seed))
            assert records(chop(alg, seed=seed)) == want, name

    @pytest.mark.parametrize("seed", range(4))
    def test_pieces_read_from_mul_equal_the_restricted_dense_stack(self, cases, seed):
        # the regular module's pieces come from the sparse mul; the oracle is
        # the same central split of the dense stack, through restrict_action
        from hopfib import repn

        for name, alg in cases.items():
            pieces = repn._central_pieces(alg, np.random.default_rng(seed))
            sparse = [alg.left_ideal_action(a) if isinstance(a, Subspace) else a for a in pieces]
            dense = dense_central_pieces(alg, np.random.default_rng(seed))
            assert len(sparse) == len(dense), name
            assert all(np.array_equal(a, b) for a, b in zip(sparse, dense)), name

    def test_left_ideal_action_on_random_left_ideals(self, cases):
        rng = np.random.default_rng(0)
        for name, alg in cases.items():
            p, stack = alg.field.p, alg.left_regular()
            for _ in range(3):
                # H v, the span of the e_i v
                ideal = Subspace(alg.field, alg.dim, alg.right_mult_matrix(rng.integers(0, p, size=alg.dim)).T)
                assert np.array_equal(alg.left_ideal_action(ideal), restrict_action(stack, ideal, p)), name

    @pytest.mark.parametrize("name, dense_stacks", [("qm2", 0), ("s3c2", 0), ("qsl2", 1)])
    def test_the_dense_stack_is_built_only_for_a_single_piece(self, instances, spy, name, dense_stacks):
        # qm2's and s3c2's centres split the regular module; qsl2's is local
        alg = instances(name).h.alg
        stacks = spy("left_regular", StructureConstantAlgebra)
        denses = spy("dense", SparseTensor)
        chop(alg, seed=0)
        assert len(stacks) == dense_stacks
        assert [t.rank for (t,) in denses].count(3) == dense_stacks

    def pieces_and_first_split(self, alg, monkeypatch):
        from hopfib import repn

        pieces, tried = [], []
        real_pieces, real_try = repn._central_pieces, repn._try_split

        def counted_pieces(*args):
            out = real_pieces(*args)
            pieces.extend(a.dim if isinstance(a, Subspace) else a.shape[1] for a in out)
            return out

        def counted_try(action, *args):
            tried.append((len(pieces), action.shape[1]))
            return real_try(action, *args)

        monkeypatch.setattr(repn, "_central_pieces", counted_pieces)
        monkeypatch.setattr(repn, "_try_split", counted_try)
        return chop(alg, seed=0), pieces, tried

    def test_each_piece_stack_is_built_when_the_split_stack_pops_it(self, qm2_pair, spy, monkeypatch):
        # qm2's pieces are left ideals; only the one the split stack pops
        # first has its action stack when the first element is tried
        from hopfib import repn

        built = spy("left_ideal_action", StructureConstantAlgebra)
        real_try, built_at_try = repn._try_split, []

        def counted_try(*args):
            built_at_try.append(len(built))
            return real_try(*args)

        monkeypatch.setattr(repn, "_try_split", counted_try)
        recs, pieces, _ = self.pieces_and_first_split(qm2_pair.h.alg, monkeypatch)
        assert len(pieces) >= 2 and built_at_try[0] == 1
        assert len(built) == len(pieces) and sorted(ideal.dim for _, ideal in built) == sorted(pieces)
        assert [(r.dim, r.multiplicity) for r in recs] == [(1, 9)] * 9

    def test_s3s3_is_split_into_central_pieces_before_any_random_element(self, monkeypatch):
        alg = big_p_s3s3()
        recs, pieces, tried = self.pieces_and_first_split(alg, monkeypatch)
        assert len(pieces) >= 2 and sum(pieces) == alg.dim == 36
        # every random element is drawn for a piece, never for the whole module
        assert tried[0][0] == len(pieces) and max(dim for _, dim in tried) < 36
        assert sorted(r.dim for r in recs) == [1, 1, 1, 1, 2, 2, 2, 2, 4]

    def test_a_centre_with_nilpotents_splits_into_generalized_eigenspaces(self, qm2_pair, monkeypatch):
        # qm2's centre is not semisimple, so the pieces fill the module only
        # as generalized eigenspaces, not as eigenspaces
        recs, pieces, _ = self.pieces_and_first_split(qm2_pair.h.alg, monkeypatch)
        assert len(pieces) >= 2 and sum(pieces) == 81
        assert [(r.dim, r.multiplicity) for r in recs] == [(1, 9)] * 9

    def test_a_local_centre_leaves_one_piece(self, qsl2_pair, monkeypatch):
        alg = qsl2_pair.h.alg
        assert alg.centre.dim == 3
        recs, pieces, _ = self.pieces_and_first_split(alg, monkeypatch)
        assert pieces == [27]
        assert [(r.dim, r.multiplicity) for r in recs] == [(1, 9), (1, 9), (1, 9)]


class TestInheritedElement:
    """A child of a split first tries the element that split its parent, on
    the factor that decided there, and draws fresh elements only when it
    does not decide: the submodule child always, the quotient child when the
    submodule is at least a third of it."""

    def test_s3s3_factors_fewer_minimal_polynomials(self, spy, monkeypatch):
        # a fresh element for every module factored 22, 24, 24 and 20 minimal
        # polynomials per chop at seeds 0-3, the central element's included
        from hopfib import repn

        alg = big_p_s3s3()
        counts = []
        for seed in range(4):
            calls = spy("irreducible_factors", repn)
            recs = chop(alg, seed=seed)
            monkeypatch.undo()
            assert sorted(r.dim for r in recs) == [1, 1, 1, 1, 2, 2, 2, 2, 4]
            counts.append(len(calls))
        assert all(0 < count < before for count, before in zip(counts, (22, 24, 24, 20)))

    def test_an_element_without_kernel_on_the_child_gives_way_to_a_fresh_draw(self, spy):
        # F_7[C5]: the generator acts on the quartic factor by a root of the
        # irreducible x^4 + x^3 + x^2 + x + 1, so x - 1 has no kernel there
        from hopfib import repn

        c5 = build_algebra(F7, 5, [1, 0, 0, 0, 0], cyclic_entries(5))
        quartic = [r.action for r in chop(c5, seed=0) if r.dim == 4][0]
        inherited = (np.eye(5, dtype=np.int64)[1], (1, 6))
        draws = spy("minpoly_on_vector", repn)
        sub, decider = repn._try_split(quartic, F7, np.random.default_rng(0), inherited)
        # certified simple by the dual criterion at a quartic factor of a fresh element
        assert sub is None and len(draws) >= 1
        assert not np.array_equal(decider[0], inherited[0]) and len(decider[1]) == 5

    def test_qm2_children_decide_with_and_without_a_fresh_draw(self, qm2_pair, spy, monkeypatch):
        from hopfib import repn

        alg = qm2_pair.h.alg
        draws = spy("minpoly_on_vector", repn)
        real_try, tries = repn._try_split, []

        def counted_try(action, field, rng, inherited=None):
            before = len(draws)
            out = real_try(action, field, rng, inherited)
            tries.append((inherited is not None, len(draws) > before))
            return out

        monkeypatch.setattr(repn, "_try_split", counted_try)
        recs = chop(alg, seed=0)
        monkeypatch.undo()
        assert records(recs) == records(whole_module_chop(alg, alg.left_regular(), seed=0))
        # (inherited, drew fresh): children the inherited element decides,
        # and children it cannot decide that certify through a fresh draw
        assert {(True, False), (True, True)} <= set(tries)


    def test_a_quotient_inherits_only_from_a_submodule_a_third_its_size(self, qm2_pair, monkeypatch):
        from hopfib import repn

        alg = qm2_pair.h.alg
        made = {}  # id of a child's action -> (that action, side, parent's dimension)
        real = {name: getattr(repn, name) for name in ("restrict_action", "quotient_action", "_try_split")}

        def child(name, side):
            def wrapper(action, sub, p):
                out = real[name](action, sub, p)
                made[id(out)] = (out, side, action.shape[1])
                return out
            return wrapper

        tries = []

        def tried(action, field, rng, inherited=None):
            if id(action) in made:
                _, side, parent = made[id(action)]
                tries.append((side, 3 * (parent - action.shape[1]) >= action.shape[1], inherited is not None))
            return real["_try_split"](action, field, rng, inherited)

        monkeypatch.setattr(repn, "restrict_action", child("restrict_action", "sub"))
        monkeypatch.setattr(repn, "quotient_action", child("quotient_action", "quo"))
        monkeypatch.setattr(repn, "_try_split", tried)
        chop(alg, seed=0)
        monkeypatch.undo()
        assert all(inherited == (side == "sub" or big_sub) for side, big_sub, inherited in tries)
        # qm2's split tree has quotients on both sides of the mark
        assert {("quo", True, True), ("quo", False, False)} <= set(tries)


class TestSimples:
    def test_s3_simples(self, s3):
        recs = chop(s3, seed=0)
        assert [r.dim for r in recs] == [1, 1, 2]
        # semisimple: sum of squares of dims equals algebra dim (Wedderburn)
        assert sum(r.dim ** 2 for r in recs) == 6

    def test_m2_single_simple(self, m2):
        recs = chop(m2, seed=0)
        assert len(recs) == 1
        assert recs[0].dim == 2
        assert recs[0].annihilator.dim == 0

    def test_irreducibility_certificates_by_exhaustive_search(self, s3):
        # independent check: no nonzero proper invariant subspace, found by
        # spinning every nonzero vector (dims here are at most 2)
        for rec in chop(s3, seed=0):
            act = rec.action
            m = rec.dim
            for coords in np.ndindex(*(7,) * m):
                v = np.array(coords, dtype=np.int64)
                if not v.any():
                    continue
                assert spin(act, [v], F7).dim == m


class TestBudget:
    def test_exhausted_budget_raises(self, s3, monkeypatch):
        from hopfib import repn
        from hopfib.errors import BudgetExceeded

        monkeypatch.setattr(repn, "MAX_ATTEMPTS", 0)
        with pytest.raises(BudgetExceeded, match=r"attempt budget of 0 .*repn\.MAX_ATTEMPTS"):
            chop(s3, seed=0)

    def test_budget_bounds_each_module_not_the_whole_chop(self, instances, monkeypatch):
        # each attempt forms one random element with one tensordot_mod; a
        # budget below qsl2's total but at least its largest per-module use
        # gives the same records, since the draws do not depend on it
        from hopfib import repn

        alg = instances("qsl2").h.alg
        per_call = []
        real_try, real_dot = repn._try_split, repn.tensordot_mod

        def counted_dot(*args):
            per_call[-1] += 1
            return real_dot(*args)

        def counted_try(*args):
            per_call.append(0)
            return real_try(*args)

        monkeypatch.setattr(repn, "tensordot_mod", counted_dot)
        monkeypatch.setattr(repn, "_try_split", counted_try)
        expected = chop(alg, seed=0)
        largest, total = max(per_call), sum(per_call)
        assert largest < total

        monkeypatch.setattr(repn, "MAX_ATTEMPTS", largest)
        again = chop(alg, seed=0)
        assert records(again) == records(expected)

    def test_non_split_simple_is_still_certified(self):
        # F_7[C5]: x^5 - 1 = (x - 1) * (irreducible quartic) over F_7, so the
        # regular module has a 4-dim factor whose endomorphisms are a field
        # extension; the certificate must handle it without a split
        c5 = build_algebra(F7, 5, [1, 0, 0, 0, 0], cyclic_entries(5))
        recs = chop(c5, seed=0)
        assert [r.dim for r in recs] == [1, 4]
        # non-split: annihilator codimension is dim * degree, not dim**2
        assert 5 - recs[1].annihilator.dim == 4

    def test_chop_reads_factors_only_until_one_decides(self, monkeypatch):
        # F_p[S3 x S3] at p = 2**31 - 1: when every minimal polynomial was
        # factored completely, chop(seed=0) made 11,460 products in the
        # quotient rings F_p[x]/(f) of the factoriser
        from hopfib import linalg

        s3 = builtin_group("s3")
        g = direct_product(s3, s3)
        alg = group_algebra_pair(FieldSpec(2**31 - 1), g, g.center()).h.alg
        calls = []
        real_mul = linalg._Quotient.mul

        def counted_mul(ring, a, b):
            calls.append(1)
            return real_mul(ring, a, b)

        monkeypatch.setattr(linalg._Quotient, "mul", counted_mul)
        recs = chop(alg, seed=0)
        assert sorted(r.dim for r in recs) == [1, 1, 1, 1, 2, 2, 2, 2, 4]
        assert 0 < len(calls) <= 11_460 // 2


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
        assert annihilator(s3, s3.left_regular()).dim == 0

    def test_one_elimination_per_annihilator(self, s3, spy):
        # kernel's rows are already the RREF basis of the annihilator, so the
        # subspace is built without a second elimination
        from hopfib import linalg

        actions = [rec.action for rec in chop(s3, seed=0)] + [s3.left_regular()]
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
    H/R0 where the count of simple modules (R0 != 0), or dim Z idempotents
    from linear factors (R0 = 0), certify it; chop of the regular module is
    the oracle. The cases: the oracle pairs, F_3[S3] and F_3[S3 x C2]
    (modular group algebras, R0 = H), the primitive bialgebra
    F_3[x, y]/(x^3, y^3) (R0 = H) and F_3[x]/(x^3) x F_3, where p divides a
    multiplicity: R0 has dimension 3, H/R0 has one simple and H two, so
    spectrum falls back to chop."""

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

    def test_which_cases_fall_back_to_chop(self, cases, spy):
        # R0 = H, a short count and a field that does not split H chop H;
        # every split case, semisimple or not, is read off H/R0
        calls, chopped = spy("chop", hopfib.repn), []
        for name, alg in cases.items():
            before = len(calls)
            spectrum(alg, seed=0)
            if len(calls) != before:
                chopped.append(name)
        assert chopped == ["c4c2-bigp-rebased", "f3s3", "f3s3c2", "f3[x,y]/(x3,y3)", "f3[x]/(x3)xf3"]
        radicals = {name: (cases[name].trace_radical.dim, cases[name].dim)
                    for name in ("f3s3", "f3s3c2", "f3[x,y]/(x3,y3)", "f3[x]/(x3)xf3")}
        assert radicals == {"f3s3": (6, 6), "f3s3c2": (12, 12), "f3[x,y]/(x3,y3)": (9, 9),
                            "f3[x]/(x3)xf3": (3, 4)}

    def test_a_short_count_chops_h_after_h_mod_r0(self, cases, spy):
        # one chop, of H itself: H/R0 is read off its idempotents, not chopped
        alg = cases["f3[x]/(x3)xf3"]
        splits = spy("_split_to_simples", hopfib.repn)
        chops = spy("chop", hopfib.repn)
        recs = spectrum(alg, seed=0)
        modules = [sum(a.dim if isinstance(a, Subspace) else a.shape[1] for a in pieces)
                   for _, pieces, _ in splits]
        assert modules == [4] and len(chops) == 1
        assert alg.simple_count == len(recs) == 2

    @pytest.mark.parametrize("name", ["q8-bigp-rebased", "s3c2-bigp-rebased", "s3s3-bigp"])
    def test_records_do_not_depend_on_the_seed_at_the_large_prime(self, cases, spy, name):
        # each seed draws its own central element, and the records are the same
        alg = cases[name]
        splits = spy("_split_by_roots", hopfib.repn)
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
        splits = spy("_split_by_roots", hopfib.repn)
        chops = spy("chop", hopfib.repn)
        recs = spectrum(alg, seed=seed)
        assert [r.dim for r in recs] == [1] * 9 and chops == []
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
