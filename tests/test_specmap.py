import numpy as np
import pytest

import hopfib.cli
import hopfib.hopf
import hopfib.repn
import hopfib.specmap
from hopfib.algebra import build_algebra
from hopfib.corpus import SHIPPED_NAMES, builtin_group, group_algebra_pair
from hopfib.errors import HopfibError, NotAHopfSubalgebra, NotAPermutation, NotSplit
from hopfib.fileio import canonical_json, instance_from_dict
from hopfib.hopf import character_group_X, counit_character, one_dim_characters, winding
from hopfib.linalg import FieldSpec, Subspace
from hopfib.repn import spectrum
from hopfib.specmap import (
    Partition,
    _fibers_against_orbits,
    fibers,
    orbits,
    remark_uniform_fibers,
    verify_theorem,
)

from oracles import (
    chop,
    chopped_counit_fiber,
    chopped_uniform_fibers,
    contract,
    contraction_is_maximal,
    convolution_table,
    intersect,
    refinement_holds,
    table_greedy_generators,
    x_by_restriction,
    x_members,
)

F7 = FieldSpec(7)

HOPF_NAMES = ("c3", "c4c2", "q8", "s3c2", "qsl2", "usl2")

# every module that binds repn.spectrum, so a spy sees each call
SPECTRUM_OWNERS = (hopfib.repn, hopfib.hopf, hopfib.cli)


def verify(inst, mode="global", seed=0):
    """verify_theorem on the instance's spectrum at the seed."""
    return verify_theorem(inst, fibers(inst, spectrum(inst.h.alg, seed=seed)), mode=mode)


def fiber_partition(inst, prims):
    """The fibers as a Partition, in the order fibers gives them."""
    return Partition(list(fibers(inst, prims).blocks.values()))


def x_of(inst, prims):
    """X, from the characters among the simple modules of prims that
    restrict to the counit on A (x_by_restriction)."""
    return x_by_restriction(inst.h, inst.a, one_dim_characters(inst.h.alg, prims))


class TestPrimEnumerate:
    def test_q8_five_primitives(self, q8_pair):
        prims = spectrum(q8_pair.h.alg, seed=0)
        assert [it.dim for it in prims] == [1, 1, 1, 1, 2]
        # split simples: codimension of the annihilator is the dim squared
        for it in prims:
            assert 8 - it.annihilator.dim == it.dim ** 2

    def test_m2_single_zero_ideal(self):
        idx = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
        entries = [
            (i, j, idx[(a, d)], 1)
            for (a, b), i in idx.items()
            for (c, d), j in idx.items()
            if b == c
        ]
        m2 = build_algebra(F7, 4, [1, 0, 0, 1], entries)
        prims = spectrum(m2, seed=0)
        assert len(prims) == 1
        assert prims[0].annihilator.dim == 0

    def test_s3c2_six_primitives(self, s3c2_pair):
        prims = spectrum(s3c2_pair.h.alg, seed=0)
        assert [it.dim for it in prims] == [1, 1, 1, 1, 2, 2]

    def test_characters_attached_to_linear_items(self, q8_pair):
        prims = spectrum(q8_pair.h.alg, seed=0)
        recs = chop(q8_pair.h.alg, seed=0)
        for it, rec in zip(prims, recs, strict=True):
            assert it.dim == rec.dim
            if it.dim == 1:
                # annihilator is exactly the kernel of the character
                character = rec.action[:, 0, 0]
                assert it.annihilator.dim == 7
                assert not (it.annihilator.basis @ character % 7).any()


class TestContract:
    def test_character_kernels_contract_to_codim_one(self, q8_pair):
        prims = spectrum(q8_pair.h.alg, seed=0)
        a = q8_pair.a
        for it in prims:
            if it.dim == 1:
                cont = contract(it, a)
                assert cont.dim == a.dim - 1
                assert contraction_is_maximal(q8_pair.h.alg, it, a)

    def test_q8_two_dim_contraction_is_sign_kernel(self, q8_pair):
        prims = spectrum(q8_pair.h.alg, seed=0)
        two = [it for it in prims if it.dim == 2][0]
        cont = contract(two, q8_pair.a)
        # z acts by -1 on the 2-dim simple, so the contraction is span{1 + z}
        expected = Subspace(F7, 8, [[1, 1, 0, 0, 0, 0, 0, 0]])
        assert cont == expected
        assert contraction_is_maximal(q8_pair.h.alg, two, q8_pair.a)

    def test_scalar_subalgebra_contractions_are_zero(self, qsl2_pair):
        prims = spectrum(qsl2_pair.h.alg, seed=0)
        for it in prims:
            cont = contract(it, qsl2_pair.a)
            assert cont.dim == 0
            assert contraction_is_maximal(qsl2_pair.h.alg, it, qsl2_pair.a)

    def test_contraction_invariant_under_x_windings(self, instances):
        for name in HOPF_NAMES:
            inst = instances(name)
            prims = spectrum(inst.h.alg, seed=0)
            x = x_of(inst, prims)
            for mat in [winding(inst.h, c) for c in x.chars]:
                for it in prims:
                    moved = it.annihilator.image_under(mat)
                    assert intersect(moved, inst.a.subspace) == contract(it, inst.a)


class TestFibers:
    def test_q8_fiber_sizes(self, q8_pair):
        prims = spectrum(q8_pair.h.alg, seed=0)
        fib = fiber_partition(q8_pair, prims)
        assert fib.sizes() == [1, 4]

    def test_s3c2_fiber_sizes(self, s3c2_pair):
        prims = spectrum(s3c2_pair.h.alg, seed=0)
        fib = fiber_partition(s3c2_pair, prims)
        assert fib.sizes() == [3, 3]

    def test_scalars_give_single_fiber(self, usl2_pair):
        prims = spectrum(usl2_pair.h.alg, seed=0)
        fib = fiber_partition(usl2_pair, prims)
        assert fib.sizes() == [3]

    def test_blocks_match_the_contractions_in_order(self, instances, rebased_big_p):
        # fibers groups by the character of A on each simple module; the
        # oracle intersects each P with A and orders the blocks by P ∩ A
        cases = [instances(name) for name in SHIPPED_NAMES]
        cases += [instance_from_dict(rebased_big_p(name)) for name in ("q8", "s3c2")]
        for inst in cases:
            prims = spectrum(inst.h.alg, seed=0)
            groups = {}
            for idx, prim in enumerate(prims):
                groups.setdefault(contract(prim, inst.a).key(), []).append(idx)
            assert fiber_partition(inst, prims).blocks == [groups[k] for k in sorted(groups)]

    def test_s3c2_mismatch_witness(self, s3c2_pair):
        v = verify(s3c2_pair)
        assert v.witnesses["mismatch_fiber_vs_orbits"] == {"fiber_block": [1, 2, 5], "orbit_blocks": [[1, 2], [5]]}

    def test_fibers_finite_and_nonempty(self, instances):
        for name in HOPF_NAMES:
            inst = instances(name)
            prims = spectrum(inst.h.alg, seed=0)
            fib = fiber_partition(inst, prims)
            assert all(len(b) >= 1 for b in fib.blocks)
            assert sum(len(b) for b in fib.blocks) == len(prims)


class TestOrbits:
    def test_q8_orbit_sizes(self, q8_pair):
        prims = spectrum(q8_pair.h.alg, seed=0)
        x = x_of(q8_pair, prims)
        orb = orbits(prims, [winding(q8_pair.h, c) for c in x.chars])
        assert orb.sizes() == [1, 4]

    def test_counit_winding_gives_singletons(self, q8_pair):
        prims = spectrum(q8_pair.h.alg, seed=0)
        eps = counit_character(q8_pair.h)
        orb = orbits(prims, [winding(q8_pair.h, eps)])
        assert orb.sizes() == [1, 1, 1, 1, 1]

    def test_s3c2_counit_fiber_splits(self, s3c2_pair):
        prims = spectrum(s3c2_pair.h.alg, seed=0)
        x = x_of(s3c2_pair, prims)
        fib = fiber_partition(s3c2_pair, prims)
        orb = orbits(prims, [winding(s3c2_pair.h, c) for c in x.chars])
        assert orb.sizes() == [1, 1, 2, 2]
        # the fiber over the augmentation ideal splits into orbits of 2 and 1
        counit_kernel = [
            b for b in fib.blocks
            if not (contract(prims[b[0]], s3c2_pair.a).basis @ s3c2_pair.h.counit % 7).any()
        ]
        assert len(counit_kernel) == 1
        sizes = sorted(
            len(set(ob) & set(counit_kernel[0]))
            for ob in orb.blocks
            if set(ob) & set(counit_kernel[0])
        )
        assert sizes == [1, 2]

    def test_first_fiber_that_is_not_one_orbit_is_the_witness(self, q8_pair):
        # with only the counit's winding every orbit is a singleton, so the
        # 4-element fiber is the mismatch
        h = q8_pair.h
        prims = spectrum(h.alg, seed=0)
        orb = orbits(prims, [winding(h, counit_character(h))])
        same, witnesses = _fibers_against_orbits(fibers(q8_pair, prims), orb)
        assert same is False
        assert witnesses["fiber_sizes"] == [1, 4] and witnesses["orbit_sizes"] == [1] * 5
        block = witnesses["mismatch_fiber_vs_orbits"]["fiber_block"]
        assert len(block) == 4
        assert witnesses["mismatch_fiber_vs_orbits"]["orbit_blocks"] == [[i] for i in block]

    def test_a_fiber_that_is_not_a_union_of_orbits_raises(self, q8_pair):
        # against refinement_holds, on every set partition of q8's five
        # primitive ideals standing in for the orbits
        prims = spectrum(q8_pair.h.alg, seed=0)
        fib = fibers(q8_pair, prims)
        partition = Partition(list(fib.blocks.values()))

        def set_partitions(items):
            if not items:
                yield []
                return
            first, rest = items[0], items[1:]
            for part in set_partitions(rest):
                yield [[first]] + part
                for k in range(len(part)):
                    yield part[:k] + [[first] + part[k]] + part[k + 1:]

        raised = []
        for blocks in set_partitions(list(range(len(prims)))):
            orb = Partition(sorted(sorted(b) for b in blocks))
            try:
                _fibers_against_orbits(fib, orb)
                raised.append(False)
            except HopfibError:
                raised.append(True)
            assert raised[-1] == (not refinement_holds(partition, orb))
        assert len(raised) == 52 and 0 < sum(raised) < 52

    def test_bad_map_raises_not_a_permutation(self, q8_pair):
        prims = spectrum(q8_pair.h.alg, seed=0)
        with pytest.raises(NotAPermutation):
            orbits(prims, [np.zeros((8, 8), dtype=np.int64)])

    def test_refinement_on_all_hopf_instances(self, instances):
        for name in HOPF_NAMES:
            inst = instances(name)
            prims = spectrum(inst.h.alg, seed=0)
            x = x_of(inst, prims)
            fib = fiber_partition(inst, prims)
            orb = orbits(prims, [winding(inst.h, c) for c in x.chars])
            assert refinement_holds(fib, orb)


class TestVerifyTheorem:
    def test_q8_all_conditions_true(self, q8_pair):
        v = verify(q8_pair, seed=7)
        assert (v.cond_i, v.cond_ii, v.cond_iii, v.cond_iv) == (True, True, True, True)
        assert v.agree
        assert v.witnesses["fiber_sizes"] == [1, 4]
        assert v.witnesses["orbit_sizes"] == [1, 4]
        assert v.x_order == 4

    def test_global_verify_builds_each_x_winding_once(self, q8_pair, spy):
        # verify_theorem builds the right windings of X's generators once and
        # uses them on Prim(H), the counit fiber included
        import hopfib.specmap

        prims = spectrum(q8_pair.h.alg, seed=0)
        calls = spy("winding", hopfib.specmap)
        v = verify_theorem(q8_pair, fibers(q8_pair, prims))
        gens = x_of(q8_pair, prims).gens
        assert v.x_order == 4 and v.cond_iii is True
        assert len(calls) == len({args[1] for args in calls}) == len(gens) == 2

    def test_fiber_quotient_closes_its_ideal_once(self, q8_pair, spy):
        # counted under every name the package binds ideal_closure to
        import hopfib.algebra
        import hopfib.hopf

        owners = [m for m in (hopfib.algebra, hopfib.hopf) if hasattr(m, "ideal_closure")]
        prims = spectrum(q8_pair.h.alg, seed=0)
        calls = spy("ideal_closure", *owners)
        v = verify_theorem(q8_pair, fibers(q8_pair, prims))
        assert v.witnesses["fiber_algebra_dim"] == 4
        assert len(calls) == 1

    @pytest.mark.parametrize("name, images", [("q8", 10), ("s3c2", 6), ("c4c2", 4)])
    def test_global_verify_chops_h_alone_and_takes_one_orbit_partition(
        self, name, images, instances, spy
    ):
        # every fiber is read from Prim(H): one spectrum, and one image per
        # primitive ideal of H and generator of X (prim_count x |gens|)
        inst = instances(name)
        spectra = spy("spectrum", *SPECTRUM_OWNERS)
        moved = spy("image_under", Subspace)
        prims = hopfib.repn.spectrum(inst.h.alg, seed=0)
        v = verify_theorem(inst, fibers(inst, prims))
        assert len(spectra) == 1
        gens = x_of(inst, prims).gens
        assert len(moved) == images == v.witnesses["prim_count"] * len(gens)

    def test_verify_then_remark_chop_h_and_a_once_each(self, q8_pair, spy):
        # given one spectrum, the verdict and the remark read nothing more:
        # one spectrum, of H (dim 8), and none of A
        spectra = spy("spectrum", *SPECTRUM_OWNERS)
        prims = hopfib.repn.spectrum(q8_pair.h.alg, seed=0)
        verify_theorem(q8_pair, fibers(q8_pair, prims))
        remark_uniform_fibers(q8_pair, fibers(q8_pair, prims))
        assert [args[0].dim for args in spectra] == [8]

    def test_orbits_see_only_the_generators_of_x(self, qm2_pair, spy):
        # one image_under per primitive ideal and generator winding map (right
        # and left here): X = Z3 x Z3 has two generators, not nine members
        prims = spectrum(qm2_pair.h.alg, seed=0)
        calls = spy("image_under", Subspace)
        v = verify_theorem(qm2_pair, fibers(qm2_pair, prims))
        gens = x_of(qm2_pair, prims).gens
        assert v.x_order == 9 and len(gens) == 2
        assert len(calls) == v.witnesses["prim_count"] * 2 * len(gens) == 36

    def test_x_convolves_each_member_with_each_generator_once(self, qm2_pair, spy):
        # X = Z3 x Z3 with two generators: |X| |gens| = 18 products, where
        # its whole table would take 81
        prims = spectrum(qm2_pair.h.alg, seed=0)
        calls = spy("convolve", hopfib.hopf)
        v = verify_theorem(qm2_pair, fibers(qm2_pair, prims))
        assert v.x_order == 9
        assert 0 < len(calls) <= 18

    def test_x_is_the_counit_fiber_with_the_table_greedy_generators(self, oracle_cases, spy):
        # character_group_X picks X's generators without a table: they must be
        # the greedy choice from the whole convolution table. verify_theorem
        # reads X's members off the counit fiber: they must be the characters
        # of H that restrict to the counit on A (X's definition), wherever
        # F_p splits H (c4c2 at 2**31 - 1 needs a fourth root of unity)
        calls, verified = spy("character_group_X", hopfib.specmap), 0
        for inst in oracle_cases:
            h = inst.h
            prims = spectrum(h.alg, seed=0)
            members = x_members(h, inst.a, one_dim_characters(h.alg, prims))
            gens = character_group_X(h, members).gens
            assert gens == table_greedy_generators(*convolution_table(h, members))
            if all(it.dim ** 2 == h.dim - it.annihilator.dim for it in prims):
                calls.clear()
                verify_theorem(inst, fibers(inst, prims))
                assert calls == [(h, members)]
                verified += 1
        assert verified == len(oracle_cases) - 1

    def test_s3c2_all_conditions_false_with_witnesses(self, s3c2_pair):
        v = verify(s3c2_pair, seed=7)
        assert (v.cond_i, v.cond_ii, v.cond_iii, v.cond_iv) == (False, False, False, False)
        assert v.agree
        assert 2 in v.witnesses["failing_simple_dims"]
        assert v.witnesses["mismatch_fiber_vs_orbits"] is not None

    def test_qsl2_local_positive(self, qsl2_pair):
        v = verify(qsl2_pair, "local", seed=7)
        assert v.cond_i is True and v.cond_ii is True
        assert v.cond_iii is None and v.cond_iv is None
        assert v.agree and v.x_order == 3

    def test_usl2_negative_in_both_modes(self, usl2_pair):
        prims = spectrum(usl2_pair.h.alg, seed=7)
        vg = verify_theorem(usl2_pair, fibers(usl2_pair, prims), mode="global")
        vl = verify_theorem(usl2_pair, fibers(usl2_pair, prims), mode="local")
        assert vg.cond_i is False and vg.cond_ii is False
        assert vg.cond_iii is False and vg.cond_iv is False
        assert vl.cond_i is False and vl.cond_ii is False
        assert vg.agree and vl.agree

    def test_qm2_experiment(self, qm2_pair):
        v = verify(qm2_pair, "local", seed=7)
        assert v.mode == "experiment"
        assert not v.hopf
        assert v.cond_i is None and v.cond_ii is None and v.cond_iv is None
        assert v.cond_iii is True
        assert v.x_order == 9
        assert v.witnesses["fiber_sizes"] == [9]
        assert v.witnesses["orbit_sizes"] == [9]

    @pytest.mark.parametrize("group, p", [("c3", 5), ("c4", 2**31 - 1)])
    def test_non_split_prime_is_refused_naming_the_degree(self, group, p):
        # x^2 + x + 1 (C3) and x^2 + 1 (C4) are irreducible over F_p for
        # p = 2 mod 3 and p = 3 mod 4: F_p[G] has a 2-dimensional simple
        # module with annihilator of codimension 2, so e = 4 / 2 = 2
        inst = group_algebra_pair(FieldSpec(p), builtin_group(group), [0])
        prims = spectrum(inst.h.alg, seed=0)
        for mode in ("global", "local"):
            with pytest.raises(NotSplit) as exc:
                verify_theorem(inst, fibers(inst, prims), mode=mode)
            algebra, index, dim, degree = exc.value.witness
            assert (algebra, dim, degree) == ("H", 2, 2)
            rec = chop(inst.h.alg)[index]
            assert rec.dim == 2 and inst.dim - rec.annihilator.dim == 2
            assert "e = (dim S)^2 / codim P = 2" in str(exc.value)

    def test_determinism_same_seed_same_bytes(self, q8_pair):
        a = canonical_json(verify(q8_pair, seed=3).to_dict())
        b = canonical_json(verify(q8_pair, seed=3).to_dict())
        assert a == b

    @pytest.mark.parametrize("name", ["q8", "s3c2"])
    def test_verdict_invariant_under_basis_and_seed_at_the_largest_prime(
        self, name, instances, rebased_big_p
    ):
        # three random bases of F_p[G] at p = 2**31 - 1, two seeds each: the
        # verdict, |X| and the fiber and orbit sizes are those of the shipped
        # instance every time
        expected = instances(name).expected
        outcomes = set()
        for basis_seed in (1, 2, 3):
            inst = instance_from_dict(rebased_big_p(name, seed=basis_seed))
            for seed in (0, 5):
                v = verify(inst, seed=seed)
                outcomes.add((v.agree, tuple(v.conditions().values()), v.x_order,
                              tuple(v.witnesses["fiber_sizes"]), tuple(v.witnesses["orbit_sizes"])))
        assert outcomes == {(True, (expected["conditions"],) * 4, expected["x_order"],
                             tuple(sorted(expected["fiber_sizes"])),
                             tuple(sorted(expected["orbit_sizes"])))}

    @pytest.mark.parametrize("name", ["qsl2", "usl2", "qm2"])
    def test_quantum_verdict_invariant_under_basis_and_seed_at_the_largest_prime(
        self, name, instances, rebased_big_p
    ):
        # the quantum instances built at p = 2**31 - 1, in three random
        # monomial bases, two seeds each: the conditions, |X| and the fiber
        # and orbit sizes are those of the shipped instance every time
        def outcome(v):
            return (v.agree, tuple(v.conditions().values()), v.x_order,
                    tuple(v.witnesses["fiber_sizes"]), tuple(v.witnesses["orbit_sizes"]))

        outcomes = set()
        for basis_seed in (1, 2, 3):
            inst = instance_from_dict(rebased_big_p(name, seed=basis_seed))
            assert inst.h.field.p == 2**31 - 1
            for seed in (0, 5):
                outcomes.add(outcome(verify(inst, seed=seed)))
        assert outcomes == {outcome(verify(instances(name)))}

    def test_conditions_stable_across_seeds(self, s3c2_pair):
        outcomes = {
            tuple(verify(s3c2_pair, seed=s).conditions().items())
            for s in (0, 1, 2)
        }
        assert len(outcomes) == 1


HOPF_CASES = [(name, None) for name in HOPF_NAMES] + [("q8", 1), ("s3c2", 1)]


class TestAgainstTheChoppedFibers:
    """verify_theorem and remark_uniform_fibers read every fiber off Prim(H);
    the oracle chops each fiber algebra H/H*ker(xi) and descends the
    windings into it. qm2 has no antipode: its verdict is the two-sided
    experiment, which has neither a counit fiber condition nor a remark."""

    @pytest.mark.parametrize("name, basis_seed", HOPF_CASES)
    def test_counit_fiber_conditions_match(self, name, basis_seed, instances, rebased_big_p):
        inst = instances(name) if basis_seed is None else instance_from_dict(rebased_big_p(name, basis_seed))
        want = chopped_counit_fiber(inst)
        prims = spectrum(inst.h.alg, seed=0)
        for mode in ("global", "local"):
            v = verify_theorem(inst, fibers(inst, prims), mode=mode)
            got = dict(v.witnesses, cond_i=v.cond_i, cond_ii=v.cond_ii)
            assert {k: got[k] for k in want} == want

    @pytest.mark.parametrize("name, basis_seed", HOPF_CASES)
    def test_uniform_fiber_entries_match(self, name, basis_seed, instances, rebased_big_p):
        inst = instances(name) if basis_seed is None else instance_from_dict(rebased_big_p(name, basis_seed))
        rep = remark_uniform_fibers(inst, fibers(inst, spectrum(inst.h.alg, seed=0)))
        got = [(e.xi_values, e.extends_to_h, e.ideal_proper, e.quotient_dim, e.all_one_dim)
               for e in rep.entries]
        assert got == chopped_uniform_fibers(inst)


class TestRemarkUniformFibers:
    def test_q8_sign_character_does_not_extend(self, q8_pair):
        rep = remark_uniform_fibers(q8_pair, fibers(q8_pair, spectrum(q8_pair.h.alg, seed=0)))
        assert rep.consistent
        by_values = {e.xi_values: e for e in rep.entries}
        assert by_values[(1, 1)].extends_to_h and by_values[(1, 1)].all_one_dim
        sign = by_values[(1, 6)]
        assert not sign.extends_to_h
        assert sign.ideal_proper and sign.all_one_dim is False

    def test_builds_each_x_winding_once(self, q8_pair, spy):
        # the fiber quotients are algebras only, and whether xi extends is
        # read from their simples: the remark needs no winding map at all
        import hopfib.hopf
        import hopfib.specmap

        calls = spy("winding", hopfib.hopf, hopfib.specmap)
        rep = remark_uniform_fibers(q8_pair, fibers(q8_pair, spectrum(q8_pair.h.alg, seed=0)))
        assert len(rep.entries) == 2
        assert calls == []

    def test_c4c2_both_characters_extend_and_agree(self, c4c2_pair):
        rep = remark_uniform_fibers(c4c2_pair, fibers(c4c2_pair, spectrum(c4c2_pair.h.alg, seed=0)))
        assert rep.consistent
        assert len(rep.entries) == 2
        assert all(e.extends_to_h and e.all_one_dim for e in rep.entries)

    def test_scalars_vacuously_consistent(self, qsl2_pair):
        rep = remark_uniform_fibers(qsl2_pair, fibers(qsl2_pair, spectrum(qsl2_pair.h.alg, seed=0)))
        assert rep.consistent
        assert len(rep.entries) == 1  # only the counit itself

    def test_no_antipode_rejected(self, qm2_pair):
        with pytest.raises(NotAHopfSubalgebra):
            remark_uniform_fibers(qm2_pair, fibers(qm2_pair, spectrum(qm2_pair.h.alg, seed=0)))

    def test_non_split_prime_is_refused(self):
        # F_5[C3] with A = F_5: a Hopf subalgebra, central, but x^2 + x + 1
        # is irreducible over F_5, so xi_P cannot be read off one entry of
        # the 2-dimensional simple module
        inst = group_algebra_pair(FieldSpec(5), builtin_group("c3"), [0])
        with pytest.raises(NotSplit) as exc:
            remark_uniform_fibers(inst, fibers(inst, spectrum(inst.h.alg, seed=0)))
        algebra, _index, dim, degree = exc.value.witness
        assert (algebra, dim, degree) == ("H", 2, 2)
