import numpy as np
import pytest

from hopfib import algebra
from hopfib.algebra import (
    StructureConstantAlgebra,
    _check_associative,
    build_algebra,
    closing_maps,
    ideal_closure,
    is_central_subalgebra,
    is_subalgebra,
)
from hopfib.corpus import SHIPPED_NAMES, builtin_group, direct_product, group_algebra, group_algebra_pair
from hopfib.errors import ImproperIdeal, NotAssociative, UnitAxiomFails
from hopfib.fileio import corpus_instance_to_dict, instance_from_dict, raw_bialgebra_from_dict
from hopfib.hopf import character_kernel, enumerate_characters
from hopfib.linalg import FieldSpec, SparseTensor, Subspace, kernel
from hopfib.repn import spectrum

from oracles import (
    chop,
    left_regular,
    all_commutators,
    brute_force_centre,
    element_power,
    exhaustive_center,
    exhaustive_ideal_closure,
    greedy_generating_set,
    is_commutative,
    left_normed_span,
    multiply,
    pairwise_quotient_mul,
    pairwise_subalgebra_mul,
    mapped_fiber,
    quotient_algebra,
    quotient_ideal,
    quotient_maps,
    subalgebra_as_algebra,
    subalgebra_closure,
    trace_form_radical,
    truncated_times_f3,
    whole_basis_ideal_closure,
)

F5 = FieldSpec(5)
F7 = FieldSpec(7)


def cyclic_entries(n):
    """Multiplication table of the cyclic group algebra F_p[C_n]."""
    return [(i, j, (i + j) % n, 1) for i in range(n) for j in range(n)]


def matrix_units_entries():
    """2x2 matrix units e_ab, basis order (e00, e01, e10, e11)."""
    idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
    entries = []
    for (a, b), i in idx.items():
        for (c, d), j in idx.items():
            if b == c:
                entries.append((i, j, idx[(a, d)], 1))
    return entries


@pytest.fixture
def c3():
    return build_algebra(F7, 3, [1, 0, 0], cyclic_entries(3))


@pytest.fixture
def m2():
    return build_algebra(F7, 4, [1, 0, 0, 1], matrix_units_entries())


class TestBuild:
    def test_c3_group_algebra_valid(self, c3):
        assert c3.dim == 3

    def test_perturbed_constant_fails_with_witness(self):
        entries = cyclic_entries(3)
        entries[4] = (entries[4][0], entries[4][1], entries[4][2], 2)  # e1*e1 = 2*e2
        with pytest.raises(NotAssociative) as exc:
            build_algebra(F7, 3, [1, 0, 0], entries)
        i, j, k = exc.value.witness
        assert all(0 <= t < 3 for t in (i, j, k))

    def test_matrix_units_valid(self, m2):
        assert m2.dim == 4

    def test_bad_unit_reports_witness(self):
        with pytest.raises(UnitAxiomFails):
            build_algebra(F7, 3, [0, 1, 0], cyclic_entries(3))

    def test_multiply_matches_table(self, c3):
        g = np.array([0, 1, 0])
        assert np.array_equal(multiply(c3, g, g), [0, 0, 1])
        assert np.array_equal(multiply(c3, multiply(c3, g, g), g), [1, 0, 0])


class TestRegularModule:
    def test_unit_acts_as_identity(self, c3):
        l_unit = c3.left_mult_matrix(c3.unit)
        assert np.array_equal(l_unit, np.eye(3, dtype=np.int64))

    def test_group_element_is_permutation_matrix(self, c3):
        l_g = c3.left_mult_matrix([0, 1, 0])
        assert np.array_equal(np.sort(l_g.sum(axis=0)), [1, 1, 1])
        assert np.array_equal(np.sort(l_g.sum(axis=1)), [1, 1, 1])
        assert set(np.unique(l_g)) <= {0, 1}

    def test_homomorphism_identity_all_pairs(self, m2):
        left = left_regular(m2)
        for i in range(m2.dim):
            for j in range(m2.dim):
                prod = (left[i] @ left[j]) % 7
                expected = np.tensordot(m2.mul.dense()[i, j], left, axes=([0], [0])) % 7
                assert np.array_equal(prod, expected)


class TestIdealClosure:
    def test_closure_of_unit_is_everything(self, c3):
        seed = Subspace(F7, 3, [c3.unit])
        assert ideal_closure(c3, seed).dim == 3

    def test_closure_of_zero_is_zero(self, c3):
        assert ideal_closure(c3, Subspace(F7, 3)).dim == 0

    def test_m2_is_simple(self, m2):
        # brute force over a spanning set of nonzero elements: every single
        # nonzero generator already generates the whole algebra
        rng = np.random.default_rng(5)
        vectors = list(np.eye(4, dtype=np.int64)) + [rng.integers(0, 7, size=4) for _ in range(20)]
        for v in vectors:
            if not v.any():
                continue
            assert ideal_closure(m2, Subspace(F7, 4, [v])).dim == 4

    def test_monotone_and_idempotent(self, m2):
        rng = np.random.default_rng(6)
        for _ in range(50):
            seed = Subspace(F7, 4, rng.integers(0, 7, size=(2, 4)))
            closed = ideal_closure(m2, seed)
            assert closed.contains_rows(seed.basis)
            assert ideal_closure(m2, closed) == closed


class TestQuotient:
    def test_quotient_by_zero_ideal_is_identity_copy(self, c3):
        q = quotient_algebra(c3, Subspace(F7, 3))
        assert q.dim == 3
        assert np.array_equal(q.mul.dense(), c3.mul.dense())
        assert np.array_equal(q.unit, c3.unit)

    def test_c4_mod_g2_minus_1_is_c2(self):
        c4 = build_algebra(F5, 4, [1, 0, 0, 0], cyclic_entries(4))
        seed = Subspace(F5, 4, [[-1 % 5, 0, 1, 0]])  # g^2 - 1
        ideal = ideal_closure(c4, seed)
        q = quotient_algebra(c4, ideal)
        c2 = build_algebra(F5, 2, [1, 0], cyclic_entries(2))
        assert q.dim == 2
        assert np.array_equal(q.mul.dense(), c2.mul.dense())
        assert np.array_equal(q.unit, c2.unit)

    def test_quotient_by_ideal_containing_unit_rejected(self, c3):
        with pytest.raises(ImproperIdeal):
            quotient_algebra(c3, Subspace.full(F7, 3))

    def test_non_ideal_seed_gives_the_quotient_by_its_closure(self, m2):
        c4 = build_algebra(F5, 4, [1, 0, 0, 0], cyclic_entries(4))
        seed = Subspace(F5, 4, [[-1 % 5, 0, 1, 0]])  # g^2 - 1 alone spans no ideal
        ideal = ideal_closure(c4, seed)
        assert ideal.dim == 2
        q = quotient_algebra(c4, seed)
        assert q.dim == 4 - ideal.dim
        assert np.array_equal(q.mul.dense(), pairwise_quotient_mul(c4, ideal))
        assert np.array_equal(q.mul.dense(), quotient_algebra(c4, ideal).mul.dense())
        # e01 alone is not an ideal, and it generates all of the simple algebra M_2
        with pytest.raises(ImproperIdeal):
            quotient_algebra(m2, Subspace(F7, 4, [[0, 1, 0, 0]]))

    def test_projection_kernel_is_ideal(self):
        c4 = build_algebra(F5, 4, [1, 0, 0, 0], cyclic_entries(4))
        ideal = ideal_closure(c4, Subspace(F5, 4, [[-1 % 5, 0, 1, 0]]))
        q = quotient_algebra(c4, ideal)
        proj, _section = quotient_maps(c4, ideal)
        ker = Subspace(F5, 4, kernel(proj, 5))
        assert ker == ideal
        # projection is an algebra map onto the quotient
        for i in range(4):
            for j in range(4):
                lhs = (proj @ c4.mul.dense()[i, j]) % 5
                rhs = multiply(q, proj[:, i], proj[:, j])
                assert np.array_equal(lhs, rhs)


class TestCenter:
    def test_commutative_algebra_center_is_everything(self, c3):
        assert exhaustive_center(c3).dim == 3
        assert is_commutative(c3)

    def test_center_of_m2_is_scalars(self, m2):
        z = exhaustive_center(m2)
        assert z.dim == 1
        assert z.contains_vector(m2.unit)
        # cross-check by brute force: every center vector commutes with all basis
        for v in z.basis:
            for i in range(4):
                e = np.zeros(4, dtype=np.int64)
                e[i] = 1
                assert np.array_equal(multiply(m2, v, e), multiply(m2, e, v))

    def test_center_is_commutative_unital_subalgebra(self, m2):
        z = exhaustive_center(m2)
        assert is_subalgebra(m2, z)
        sub, _ = subalgebra_as_algebra(m2, z)
        assert is_commutative(sub)

    def test_is_central_subalgebra(self, m2):
        scalars = Subspace(F7, 4, [m2.unit])
        assert is_central_subalgebra(m2, scalars)
        # span{1, e01, e10} is not closed (e01*e10 = e00 lies outside), which
        # is_central_subalgebra leaves to coideal_subalgebra at load; it is
        # not central either, as e00 e01 != e01 e00
        offdiag = Subspace(F7, 4, [m2.unit, [0, 1, 0, 0], [0, 0, 1, 0]])
        assert not is_subalgebra(m2, offdiag)
        assert is_central_subalgebra(m2, offdiag) is False

    def test_non_central_subalgebra_detected(self, m2):
        diag = Subspace(F7, 4, [[1, 0, 0, 0], [0, 0, 0, 1]])
        assert is_subalgebra(m2, diag)
        assert not is_central_subalgebra(m2, diag)


def assert_canonical_mul(alg):
    """alg.mul is a canonical rank-3 SparseTensor that round-trips through entries()."""
    mul, p = alg.mul, alg.field.p
    assert isinstance(mul, SparseTensor) and (mul.n, mul.rank) == (alg.dim, 3)
    assert (np.diff(mul.keys) > 0).all() and ((0 < mul.vals) & (mul.vals < p)).all()
    back = SparseTensor.from_entries(alg.dim, 3, mul.entries(), p)
    assert np.array_equal(back.keys, mul.keys) and np.array_equal(back.vals, mul.vals)


def fiber_quotients(inst):
    """mapped_fiber for every character of A whose fiber ideal is proper."""
    asub = subalgebra_as_algebra(inst.h.alg, inst.a.subspace)[0]
    out = []
    for xi in enumerate_characters(asub):
        try:
            out.append(mapped_fiber(inst.h, inst.a, xi))
        except ImproperIdeal:
            pass
    return out


def random_unital_product(seed: int) -> StructureConstantAlgebra:
    """A random unital product over F_7 with e_0 as the unit, mostly not
    associative, and not certified."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    table = rng.integers(0, 7, size=(n, n, n)) * (rng.random((n, n, n)) < 0.3)
    table[0], table[:, 0] = np.eye(n, dtype=np.int64), np.eye(n, dtype=np.int64)
    return StructureConstantAlgebra(F7, n, np.eye(n, dtype=np.int64)[0],
                                    SparseTensor.from_dense(table % 7), ())


class TestCentre:
    """StructureConstantAlgebra.centre, read from the commutator maps of G,
    against the centre solved entry by entry from the structure constants."""

    def test_matches_the_brute_force_centre(self, oracle_cases):
        for inst in oracle_cases:
            assert inst.h.alg.centre == brute_force_centre(inst.h.alg)

    def test_group_algebra_centre_is_spanned_by_the_class_sums(self):
        g = direct_product(builtin_group("s3"), builtin_group("s3"))
        alg = group_algebra(FieldSpec(2**31 - 1), g).alg
        classes = {frozenset(int(g.cayley[g.cayley[h, x], g.inverse[h]]) for h in range(g.order))
                   for x in range(g.order)}
        sums = np.zeros((len(classes), g.order), dtype=np.int64)
        for row, cls in zip(sums, classes):
            row[list(cls)] = 1
        assert alg.centre.dim == len(classes) == 9
        assert alg.centre == Subspace(alg.field, alg.dim, sums) == brute_force_centre(alg)

    def test_qsl2_centre_has_dimension_three(self, qsl2_pair):
        alg = qsl2_pair.h.alg
        assert alg.centre.dim == 3 and alg.centre == brute_force_centre(alg)

    def test_centrality_and_the_chop_build_the_commutator_maps_once(self, spy):
        import hopfib.algebra

        # the spectrum of the semisimple F_7[S3 x C2] splits its centre, the
        # package's reader of the centre since chop left it
        alg = group_algebra(F7, builtin_group("s3c2")).alg
        calls = spy("closing_maps", hopfib.algebra)
        assert is_central_subalgebra(alg, Subspace(F7, alg.dim, [alg.unit]))
        spectrum(alg, seed=0)
        assert len(calls) == 1


def central_by_the_oracle(alg, subs):
    """is_central_subalgebra against the exhaustive centre on each subalgebra."""
    z = exhaustive_center(alg)
    outcomes = [is_central_subalgebra(alg, sub) for sub in subs]
    assert outcomes == [z.contains_rows(sub.basis) for sub in subs]
    return set(outcomes)


class TestClosuresOnGenerators:
    """is_central_subalgebra and ideal_closure read the multiplication maps of
    G only (closing_maps); the exhaustive centre and closure are the oracles."""

    def test_center_and_ideal_closure_match_the_exhaustive_oracles(self, oracle_cases):
        # H, A and the fiber algebras of each case; subalgebras: the scalars,
        # the centre, the whole algebra and the one the last basis vector
        # generates; seeds: two basis vectors and a random vector
        rng = np.random.default_rng(0)
        proper = 0
        central = set()
        for inst in oracle_cases:
            algs = [inst.h.alg, subalgebra_as_algebra(inst.h.alg, inst.a.subspace)[0]]
            algs += [fq.algebra for fq in fiber_quotients(inst)]
            for alg in algs:
                n = alg.dim
                assert len(closing_maps(alg)[0]) == len(alg.generators)
                eye = np.eye(n, dtype=np.int64)
                central |= central_by_the_oracle(alg, [
                    Subspace(alg.field, n, [alg.unit]), exhaustive_center(alg), Subspace.full(alg.field, n),
                    subalgebra_closure(alg, Subspace(alg.field, n, eye[[n - 1]]))])
                for rows in (eye[[n - 1]], eye[[n // 2]], rng.integers(0, alg.field.p, size=(1, n))):
                    seed = Subspace(alg.field, n, rows)
                    got = ideal_closure(alg, seed)
                    assert got == exhaustive_ideal_closure(alg, seed)
                    proper += 0 < got.dim < n
        assert proper >= 20 and central == {True, False}

    @pytest.mark.parametrize("seed", range(6))
    def test_uncertified_data_takes_every_basis_element(self, seed):
        alg = random_unital_product(seed)
        lefts, rights = closing_maps(alg)
        assert len(lefts) == len(rights) == alg.dim
        assert central_by_the_oracle(alg, [Subspace(F7, alg.dim, [alg.unit]), Subspace.full(F7, alg.dim)])
        rows = np.random.default_rng(seed).integers(0, 7, size=(1, alg.dim))
        seed_space = Subspace(F7, alg.dim, rows)
        assert ideal_closure(alg, seed_space) == exhaustive_ideal_closure(alg, seed_space)


class TestSemiNaiveClosure:
    """ideal_closure maps only the rows the last round added; the loop that
    maps the whole span on every round is the oracle."""

    @staticmethod
    def closure_and_rows_mapped(alg, seed, spy):
        calls = spy("matmul_mod", algebra)
        got = ideal_closure(alg, seed)
        return got, sum(args[1].shape[1] for args in calls if np.ndim(args[0]) == 3)

    def test_every_oracle_case_maps_each_row_once(self, oracle_cases, spy, monkeypatch):
        rng = np.random.default_rng(1)
        grew = 0
        for inst in oracle_cases:
            for alg in (inst.h.alg, subalgebra_as_algebra(inst.h.alg, inst.a.subspace)[0]):
                n = alg.dim
                eye = np.eye(n, dtype=np.int64)
                for rows in (eye[[n - 1]], eye[[n // 2]], rng.integers(0, alg.field.p, size=(2, n)), None):
                    seed = Subspace(alg.field, n, rows)
                    got, mapped = self.closure_and_rows_mapped(alg, seed, spy)
                    monkeypatch.undo()
                    assert got == whole_basis_ideal_closure(alg, seed)
                    # one round per growth step, each mapping only the new rows
                    assert mapped == got.dim
                    grew += got.dim > seed.dim
        assert grew >= 20

    @pytest.mark.parametrize("name", ["c4c2", "q8", "s3c2"])
    def test_fiber_seeds(self, instances, name, spy, monkeypatch):
        inst = instances(name)
        asub = subalgebra_as_algebra(inst.h.alg, inst.a.subspace)[0]
        chars = enumerate_characters(asub)
        assert len(chars) >= 2
        for xi in chars:
            seed = character_kernel(inst.a, xi)
            got, mapped = self.closure_and_rows_mapped(inst.h.alg, seed, spy)
            monkeypatch.undo()
            assert got == whole_basis_ideal_closure(inst.h.alg, seed)
            assert mapped == got.dim


class TestSparseMul:
    """The multiplication is stored once, as a canonical sparse tensor, on
    every path that makes an algebra."""

    def test_every_algebra_path_stores_a_canonical_sparse_mul(self, c3, m2, instances, rebased_big_p):
        assert_canonical_mul(c3)  # build_algebra
        assert_canonical_mul(m2)
        assert_canonical_mul(instance_from_dict(rebased_big_p("q8")).h.alg)  # the file reader
        for name in SHIPPED_NAMES:  # build_algebra for groups, extract_bialgebra for the rest
            inst = instances(name)
            alg = inst.h.alg
            assert_canonical_mul(alg)
            raw = raw_bialgebra_from_dict(corpus_instance_to_dict(inst)).alg
            assert_canonical_mul(raw)
            assert raw.mul.entries() == alg.mul.entries()
            assert_canonical_mul(subalgebra_as_algebra(alg, inst.a.subspace)[0])
            quotients = fiber_quotients(inst)
            assert quotients
            for fq in quotients:
                assert_canonical_mul(fq.algebra)

    def test_quotients_and_subalgebras_match_the_pairwise_oracles(self, instances, rebased_big_p):
        # fiber ideals and primitive ideals; A, the center, the whole algebra
        # (not commutative for q8, s3c2, usl2 and qm2) and the subalgebra
        # generated by the last two basis vectors
        cases = [instances(name) for name in SHIPPED_NAMES]
        cases.append(instance_from_dict(rebased_big_p("q8")))
        checked = 0
        for inst in cases:
            alg = inst.h.alg
            gens = Subspace(alg.field, alg.dim, np.eye(alg.dim, dtype=np.int64)[-2:])
            subs = (inst.a.subspace, exhaustive_center(alg), Subspace.full(alg.field, alg.dim),
                    subalgebra_closure(alg, gens))
            for sub in subs:
                got = subalgebra_as_algebra(alg, sub)[0].mul.dense()
                assert np.array_equal(got, pairwise_subalgebra_mul(alg, sub))
            ideals = [quotient_ideal(fq) for fq in fiber_quotients(inst)]
            ideals += [rec.annihilator for rec in chop(alg)]
            for ideal in ideals:
                got = quotient_algebra(alg, ideal).mul.dense()
                assert np.array_equal(got, pairwise_quotient_mul(alg, ideal))
                checked += got.shape[0] > 1
        assert checked >= 15  # quotients of dimension above 1


class TestGenerators:
    """StructureConstantAlgebra.generators: basis indices G, chosen greedily,
    whose left-normed words g_1(g_2(...(g_k 1))) span the algebra."""

    def test_matches_the_greedy_oracle_and_spans(self, m2, instances, rebased_big_p):
        # in an associative algebra the left-normed words in G span the
        # subalgebra G generates, so the greedy choices are the oracle's
        s3 = builtin_group("s3")
        algs = [m2, group_algebra(FieldSpec(2**31 - 1), direct_product(s3, s3)).alg,
                instance_from_dict(rebased_big_p("s3c2")).h.alg]
        for name in SHIPPED_NAMES:
            inst = instances(name)
            algs += [inst.h.alg, subalgebra_as_algebra(inst.h.alg, inst.a.subspace)[0]]
            algs += [fq.algebra for fq in fiber_quotients(inst)[:2]]
        for alg in algs:
            assert alg.generators == tuple(greedy_generating_set(alg))
            assert left_normed_span(alg, alg.generators).dim == alg.dim

    @pytest.mark.parametrize("seed", range(12))
    def test_spans_and_certifies_associativity_without_assuming_it(self, seed):
        # random unital products with e_0 as the unit, mostly not
        # associative: the words in G span, and associativity checked on G
        # has the exhaustive check's outcome and witness
        alg = random_unital_product(seed)
        assert alg.generators is not None
        assert left_normed_span(alg, alg.generators).dim == alg.dim

        def witness(gens):
            try:
                _check_associative(alg, gens)
            except NotAssociative as exc:
                return exc.witness
            return None

        assert witness(alg.generators) == witness(None)

    def test_none_when_the_words_cannot_span(self):
        # e_1 posing as the unit of F_7[C3]: the words in e_0 stay in span{e_1}
        alg = StructureConstantAlgebra(F7, 3, [0, 1, 0],
                                       SparseTensor.from_entries(3, 3, cyclic_entries(3), 7), ())
        assert alg.generators is None


class TestTraceRadicalAndCount:
    """The two facts the spectrum reads: R0, the radical of the regular trace
    form, and dim H/T(H), against their definitions on dense data."""

    @pytest.fixture(scope="class")
    def cases(self, oracle_cases):
        algs = [inst.h.alg for inst in oracle_cases]
        with pytest.warns(UserWarning, match="not semisimple"):
            algs += [group_algebra_pair(FieldSpec(3), g, g.center()).h.alg
                     for g in (builtin_group("s3"), direct_product(builtin_group("s3"), builtin_group("c2")))]
        return algs + [truncated_times_f3()]

    def test_trace_radical_matches_the_dense_trace_form(self, cases):
        assert len(cases) == 18
        for alg in cases:
            assert alg.trace_radical == trace_form_radical(alg), alg

    def test_trace_radical_is_a_two_sided_ideal(self, cases):
        for alg in cases:
            assert ideal_closure(alg, alg.trace_radical) == alg.trace_radical, alg

    def test_commutator_span_is_every_commutator(self, cases):
        for alg in cases:
            assert alg.commutator_span == all_commutators(alg), alg

    def test_the_commutator_stack_is_built_once(self, instances, spy):
        # on a fresh copy of qm2, whose centre and [H, H] are not read yet
        h = instances("qm2").h.alg
        alg = StructureConstantAlgebra(h.field, h.dim, h.unit, h.mul, h.labels, certified=True)
        calls = spy("closing_maps", algebra)
        assert alg.centre.dim == 9 and alg.commutator_span.dim == 66
        assert len(calls) == 1

    @pytest.mark.parametrize("name, radical, count", [
        ("c3", 0, 3), ("q8", 0, 5), ("s3c2", 0, 6), ("qsl2", 24, 3), ("usl2", 13, 3), ("qm2", 72, 9)])
    def test_shipped_radicals_and_counts(self, instances, name, radical, count):
        alg = instances(name).h.alg
        assert (alg.trace_radical.dim, alg.simple_count) == (radical, count)

    def test_the_count_exceeds_the_simples_of_h_mod_r0_when_p_divides_a_multiplicity(self):
        alg = truncated_times_f3()
        assert (alg.trace_radical.dim, alg.simple_count) == (3, 2)

    @pytest.mark.parametrize("e", [1, 2, 3, 7, 11, 2**31 - 1])
    def test_powers_match_the_binary_ladder(self, instances, rebased_big_p, e):
        for alg in (instances("qm2").h.alg, instance_from_dict(rebased_big_p("usl2")).h.alg):
            rows = np.random.default_rng(e).integers(0, alg.field.p, size=(3, alg.dim))
            want = [element_power(alg, row, e) for row in rows]
            assert np.array_equal(alg.powers(rows, e), np.array(want))

    def test_powers_hold_few_terms_at_once(self, instances, monkeypatch):
        # the same rows, with the entries of mul read a few at a time
        alg = instances("usl2").h.alg
        rows = np.random.default_rng(0).integers(0, 7, size=(4, alg.dim))
        want = alg.powers(rows, 7)
        monkeypatch.setattr(algebra, "PRODUCT_TERMS", 37)
        assert np.array_equal(alg.powers(rows, 7), want)

    def test_quotient_mult_holds_few_terms_at_once(self, instances, monkeypatch):
        # the same stacks, with the entries of mul read a few at a time, so
        # that a sum is split across reads
        alg = instances("usl2").h.alg
        rows = np.random.default_rng(0).integers(0, 7, size=(3, alg.dim - alg.trace_radical.dim))
        want = [alg.quotient_mult(alg.trace_radical, rows, left) for left in (False, True)]
        monkeypatch.setattr(algebra, "PRODUCT_TERMS", 37)
        for left, stack in zip((False, True), want):
            assert np.array_equal(alg.quotient_mult(alg.trace_radical, rows, left), stack)

    def test_quotient_mult_matches_the_quotient_algebra(self, cases):
        # row convention: matrix k is the transpose of the multiplication
        # matrix of rows_k in quotient_algebra, which has the same basis
        rng = np.random.default_rng(0)
        for alg in cases:
            p = alg.field.p
            random_ideal = ideal_closure(alg, Subspace(alg.field, alg.dim, [rng.integers(0, p, alg.dim)]))
            for ideal in (alg.trace_radical, random_ideal, Subspace(alg.field, alg.dim)):
                if ideal.dim < alg.dim:
                    quotient = quotient_algebra(alg, ideal)
                    rows = rng.integers(0, p, size=(2, quotient.dim))
                    for left, mult in ((False, quotient.right_mult_matrix), (True, quotient.left_mult_matrix)):
                        want = np.array([mult(row).T for row in rows])
                        assert np.array_equal(alg.quotient_mult(ideal, rows, left), want), alg
