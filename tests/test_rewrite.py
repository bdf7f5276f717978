import re

import numpy as np
import pytest

from hopfib import rewrite
from hopfib.corpus import (
    quantum_m2_kernel,
    quantum_m2_presentation,
    quantum_sl2_kernel,
    quantum_sl2_presentation,
    small_quantum_sl2,
    small_quantum_sl2_presentation,
)
from hopfib.errors import BoundExceeded, HopfibError, InfiniteBasis
from hopfib.linalg import FieldSpec
from hopfib.rewrite import (
    Presentation,
    complete_check,
    enumerate_basis,
    normalize,
    poly_mul,
    render_presentation,
)

from oracles import multiplication_by_normal_forms, parse_presentation, rightmost_normal_form

F7 = FieldSpec(7)


def corpus_presentations():
    return {
        "qsl2": quantum_sl2_presentation(3, 7),
        "usl2": small_quantum_sl2_presentation(3, 7),
        "qm2": quantum_m2_presentation(3, 7),
    }


def seeded_polys(rng, ngens, count, max_len):
    for _ in range(count):
        poly = {}
        for _ in range(int(rng.integers(1, 4))):
            length = int(rng.integers(0, max_len + 1))
            poly[tuple(int(g) for g in rng.integers(0, ngens, size=length))] = int(rng.integers(1, 7))
        yield poly


def quantum_plane(q=2, t=3, p=7, bound=12):
    """x, y with yx = q xy and x^t = y^t = 0."""
    X, Y = 0, 1
    rules = [
        ((Y, X), {(X, Y): q}),
        ((X,) * t, {}),
        ((Y,) * t, {}),
    ]
    return Presentation(FieldSpec(p), ("x", "y"), rules, bound)


class TestNormalize:
    def test_irreducible_word_unchanged(self):
        pres = quantum_plane()
        poly = {(0, 0, 1): 3}
        assert normalize(pres, poly) == poly

    def test_single_rule_application(self):
        pres = quantum_plane(q=2)
        assert normalize(pres, {(1, 0): 1}) == {(0, 1): 2}

    def test_power_rule_kills_word(self):
        pres = quantum_plane()
        assert normalize(pres, {(0, 0, 0): 5}) == {}

    def test_strategies_agree_on_500_seeded_polys(self):
        pres = quantum_plane()
        assert complete_check(pres).confluent
        rng = np.random.default_rng(7)
        for poly in seeded_polys(rng, 2, 500, 4):
            assert normalize(pres, poly) == rightmost_normal_form(pres, poly)

    def test_corpus_normal_forms_match_the_rightmost_oracle(self):
        # normalize only reduces leftmost; confluence, certified once by
        # enumerate_basis, makes that the unique normal form
        rng = np.random.default_rng(11)
        for name, pres in corpus_presentations().items():
            enumerate_basis(pres)
            for poly in seeded_polys(rng, len(pres.generators), 100, 7):
                assert normalize(pres, poly) == rightmost_normal_form(pres, poly), name

    def test_every_rule_application_decreases_the_order(self):
        # the rewriting steps are not compared at run time: the order is
        # monomial and each rule is checked when the presentation is built
        rng = np.random.default_rng(5)
        presentations = [*corpus_presentations().values(), small_quantum_sl2_presentation(5, 11)]
        for pres in presentations:
            k = len(pres.generators)
            for rule in pres.rules:
                for _ in range(20):
                    pre, suf = (tuple(int(g) for g in rng.integers(0, k, size=int(rng.integers(0, 6))))
                                for _ in range(2))
                    big = pre + rule.lhs + suf
                    for rw, _c in rule.rhs:
                        assert pres.word_less(pre + rw + suf, big)

    def test_bound_exceeded(self):
        pres = quantum_plane(bound=3)
        with pytest.raises(BoundExceeded):
            normalize(pres, {(1, 1, 0, 0): 1})  # rewriting yyxx keeps length 4

    def test_termination_order_enforced_at_construction(self):
        with pytest.raises(HopfibError):
            Presentation(F7, ("a", "b"), [((0,), {(0, 1): 1})], 10)


class TestCompleteCheck:
    def test_quantum_plane_confluent(self):
        report = complete_check(quantum_plane())
        assert report.confluent
        assert report.checked >= 2  # y.x^t and y^t.x overlaps at least

    def test_duplicate_leading_word_rejected(self):
        with pytest.raises(HopfibError):
            Presentation(
                F7,
                ("a", "b"),
                [((1, 0), {(0, 1): 1}), ((1, 0), {(0, 1): 1, (): 1})],
                10,
            )

    def test_engineered_clash_reported_with_both_normal_forms(self):
        # ba -> a and ab -> b clash on bab: (ba)b -> ab -> b, b(ab) -> bb
        pres = Presentation(F7, ("a", "b"), [((1, 0), {(0,): 1}), ((0, 1), {(1,): 1})], 10)
        report = complete_check(pres)
        assert not report.confluent
        amb = report.unresolved[0]
        assert amb.word == (1, 0, 1)
        assert {tuple(sorted(amb.nf_a)), tuple(sorted(amb.nf_b))} == {((1,),), ((1, 1),)}
        # enumerate_basis refuses it naming that ambiguity: both rules, the word and both forms
        with pytest.raises(HopfibError, match=re.escape(
                "2 of 2 ambiguities do not resolve; the first, rules 0 (b.a) and 1 (a.b) "
                "on b.a.b, gives b and b.b")):
            enumerate_basis(Presentation(F7, ("a", "b"), [((1, 0), {(0,): 1}), ((0, 1), {(1,): 1})], 10))


class TestEnumerateBasis:
    def test_quantum_plane_nine_words(self):
        pres = quantum_plane()
        basis = enumerate_basis(pres)
        assert len(basis) == 9
        assert set(basis) == {(0,) * i + (1,) * j for i in range(3) for j in range(3)}

    def test_free_algebra_infinite(self):
        pres = Presentation(F7, ("a", "b"), [], 10)
        pres._certified = True  # no rules, trivially confluent
        with pytest.raises(InfiniteBasis):
            enumerate_basis(pres)

    def test_missing_power_rule_detected(self):
        pres = Presentation(F7, ("a", "b"), [((1, 0), {(0, 1): 1})], 10)
        assert complete_check(pres).confluent
        with pytest.raises(InfiniteBasis):
            enumerate_basis(pres)

    def test_bound_too_small_for_basis(self):
        pres = quantum_plane(bound=2)
        with pytest.raises(BoundExceeded):
            enumerate_basis(pres)

    def test_corpus_presentation_basis_counts(self):
        # cube of the order for both sl2 kernels, fourth power for matrices
        assert len(enumerate_basis(quantum_sl2_presentation(3, 7))) == 27
        assert len(enumerate_basis(small_quantum_sl2_presentation(3, 7))) == 27
        assert len(enumerate_basis(quantum_m2_presentation(3, 7))) == 81
        assert len(enumerate_basis(small_quantum_sl2_presentation(5, 11))) == 125


class TestPolyMul:
    def test_q_commuting_product(self):
        pres = quantum_plane(q=2)
        # (y)(x) = 2 xy, then (2xy)(x) = 2 x (yx) = 4 x^2 y
        yx = poly_mul(pres, {(1,): 1}, {(0,): 1})
        assert yx == {(0, 1): 2}
        yxx = poly_mul(pres, yx, {(0,): 1})
        assert yxx == {(0, 0, 1): 4}


class TestExtractBialgebra:
    @pytest.mark.parametrize("build,presentation,args", [
        (quantum_sl2_kernel, quantum_sl2_presentation, (3, 7)),
        (small_quantum_sl2, small_quantum_sl2_presentation, (3, 7)),
        (quantum_m2_kernel, quantum_m2_presentation, (3, 7)),
        (small_quantum_sl2, small_quantum_sl2_presentation, (5, 11)),
    ])
    def test_table_equals_the_normal_forms_of_all_products(self, build, presentation, args):
        # the table is formed from the generators' left actions; the oracle
        # normalizes every concatenation of two basis words
        mul = build(*args).h.alg.mul
        oracle = multiplication_by_normal_forms(presentation(*args))
        assert np.array_equal(mul.keys, oracle.keys)
        assert np.array_equal(mul.vals, oracle.vals)

    def test_qm2_build_normalizes_few_words(self, spy):
        # normalizing all 81**2 products of basis words makes 44,666 reduction searches
        calls = spy("_find_reduction", rewrite)
        quantum_m2_kernel(3, 7)
        assert len(calls) <= 2000

    def test_table_normalizes_one_letter_past_the_longest_basis_word(self):
        # F_3[x, y]/(x^3, y^3) with x and y primitive: the longest basis word
        # x.x.y.y has length 4, so bound 5 is enough for the table, though
        # normalizing the product of two basis words passes the bound
        with pytest.raises(BoundExceeded):
            normalize(quantum_plane(q=1, p=3, bound=5), {(0, 0, 1, 1) * 2: 1})
        primitive = [{((g,), ()): 1, ((), (g,)): 1} for g in (0, 1)]
        h = rewrite.extract_bialgebra(quantum_plane(q=1, p=3, bound=5), primitive, [0, 0])
        assert h.dim == 9
        oracle = multiplication_by_normal_forms(quantum_plane(q=1, p=3, bound=8))
        assert np.array_equal(h.alg.mul.keys, oracle.keys)
        assert np.array_equal(h.alg.mul.vals, oracle.vals)

    def test_uncertified_presentation_refused_before_the_table(self, monkeypatch):
        # ba -> a and ab -> b do not resolve bab (see the engineered clash);
        # the left-action table is only sound on a confluent presentation
        pres = Presentation(F7, ("a", "b"), [((1, 0), {(0,): 1}), ((0, 1), {(1,): 1})], 10)
        monkeypatch.setattr(rewrite, "SparseTensor", None)  # no table may be formed
        with pytest.raises(HopfibError, match="not confluent"):
            rewrite.extract_bialgebra(pres, [{}, {}], [0, 0])


class TestTextFormat:
    def test_corpus_presentations_round_trip(self):
        for pres in (
            quantum_sl2_presentation(3, 7),
            small_quantum_sl2_presentation(3, 7),
            quantum_m2_presentation(3, 7),
            small_quantum_sl2_presentation(5, 11),
        ):
            again = parse_presentation(render_presentation(pres))
            assert again.rules == pres.rules
            assert again.weights == pres.weights
            assert again.generators == pres.generators

    def test_round_trip(self):
        pres = quantum_plane()
        text = render_presentation(pres)
        again = parse_presentation(text)
        assert again.generators == pres.generators
        assert again.weights == pres.weights
        assert again.word_bound == pres.word_bound
        assert again.rules == pres.rules
        assert render_presentation(again) == text

    def test_parse_constant_and_zero(self):
        text = "\n".join(
            [
                "field 7",
                "bound 8",
                "generators a",
                "rule a.a -> 3 + 2*a",
                "# a comment line",
            ]
        )
        pres = parse_presentation(text)
        assert pres.rules[0].rhs_poly() == {(): 3, (0,): 2}
        # direct check: a^3 = a*(a^2) = a*(3 + 2a) = 3a + 2a^2 = 3a + 6 + 4a = 6 + 0*a
        assert normalize(pres, {(0, 0, 0): 1}) == {(): 6}
