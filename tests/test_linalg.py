import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from sympy import isprime, primefactors
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_irreducible_p, gf_rem, gf_strip

from hopfib import linalg
from hopfib.errors import BudgetExceeded, NoSuchRoot
from hopfib.linalg import (
    MILLER_RABIN_BOUND,
    FieldSpec,
    SparseTensor,
    Subspace,
    contract,
    crt_idempotents,
    find_root_of_unity,
    first_difference,
    irreducible_factors,
    is_prime,
    kernel,
    matmul_mod,
    modinv,
    null_space,
    permute,
    prime_factors,
    rref,
)

from oracles import binary_ladder_pow, intersect, inverse_mod, masked_rref, solve, tensordot_mod, two_elimination_kernel

F7 = FieldSpec(7)


def brute_force_order(x, p):
    k = 1
    y = x % p
    while y != 1:
        y = (y * x) % p
        k += 1
    return k


class TestFieldSpec:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            FieldSpec(9)

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            FieldSpec(2)

    def test_accepts_large_prime(self):
        FieldSpec(2**31 - 1)

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 31])
    def test_inverse_all_nonzero(self, p):
        for x in range(1, p):
            assert (x * modinv(x, p)) % p == 1

    def test_inverse_p2_standalone(self):
        # modinv itself is not restricted to odd p
        assert (1 * modinv(1, 2)) % 2 == 1


def sieve(limit: int) -> list[bool]:
    flags = [False, False] + [True] * (limit - 2)
    for q in range(2, int(limit**0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = [False] * len(range(q * q, limit, q))
    return flags


class TestPrimeHelpers:
    """is_prime and prime_factors against a sieve and sympy."""

    def test_is_prime_matches_a_sieve_below_200000(self):
        flags = sieve(200_000)
        assert [n for n in range(200_000) if is_prime(n) != flags[n]] == []

    def test_is_prime_matches_sympy_on_random_n_below_2_31(self):
        rng = random.Random(11)
        ns = [rng.randrange(2**31) for _ in range(3000)] + [2**31 - 1, 2**31 + 11]
        assert [n for n in ns if is_prime(n) != isprime(n)] == []

    @pytest.mark.parametrize("n", [2047, 1_373_653, 25_326_001])
    def test_rejects_strong_pseudoprimes(self, n):
        # strong pseudoprimes to bases 2; 2, 3; and 2, 3, 5
        assert not isprime(n)
        assert not is_prime(n)

    def test_refuses_n_past_the_bound(self):
        # the least strong pseudoprime to bases 2, 3, 5 and 7
        assert not isprime(MILLER_RABIN_BOUND)
        with pytest.raises(ValueError):
            is_prime(MILLER_RABIN_BOUND)

    def test_prime_factors_match_sympy(self):
        rng = random.Random(12)
        ms = list(range(1, 3000)) + [rng.randrange(1, 2**31) for _ in range(300)] + [2**31 - 2]
        assert [m for m in ms if prime_factors(m) != primefactors(m)] == []


FACTOR_PRIMES = [3, 5, 7, 65521, 2**31 - 1]


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def factor_key(gm):
    return (len(gm[0]), gm[0])


def sorted_factors(f, p):
    return sorted(irreducible_factors(f, p), key=factor_key)


def sympy_factors(f, p):
    """(leading coefficient, sorted monic factors with multiplicities) from gf_factor."""
    lead, factors = gf_factor([c % p for c in f], p, ZZ)
    return int(lead), sorted(((tuple(int(c) for c in g), int(m)) for g, m in factors), key=factor_key)


def check_factorisation(f, p):
    """The sorted factors of f equal sympy's gf_factor and multiply back to monic f."""
    got = sorted_factors(f, p)
    lead, expected = sympy_factors(f, p)
    assert got == expected
    product = [1]
    for g, m in got:
        assert g[0] == 1
        for _ in range(m):
            product = poly_mul(product, list(g), p)
    assert [c * lead % p for c in product] == [c % p for c in f]
    return got


def check_stream(f, p):
    """irreducible_factors(f) yields each of gf_factor's factors exactly once,
    with its multiplicity, and its degrees never decrease."""
    stream = list(irreducible_factors(f, p))
    degrees = [len(g) - 1 for g, _ in stream]
    assert degrees == sorted(degrees)
    assert len({g for g, _ in stream}) == len(stream)
    assert sorted(stream, key=factor_key) == sympy_factors(f, p)[1]


@st.composite
def monic_polys(draw, p, min_degree, max_degree):
    degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
    return [1] + draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))


class TestFactorPoly:
    """The F_p factoriser against sympy's gf_factor, an independent oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(FACTOR_PRIMES))
    def test_random_monic(self, data, p):
        f = data.draw(monic_polys(p, 1, 40))
        check_factorisation(f, p)
        check_stream(f, p)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(FACTOR_PRIMES))
    def test_products_with_repeated_factors(self, data, p):
        parts = data.draw(st.lists(st.tuples(monic_polys(p, 1, 5), st.integers(1, 4)),
                                   min_size=1, max_size=4))
        parts.append((data.draw(monic_polys(p, 1, 3)), data.draw(st.integers(2, 4))))
        f = [1]
        for g, m in parts:
            for _ in range(m):
                f = poly_mul(f, g, p)
        got = check_factorisation(f, p)
        check_stream(f, p)
        assert max(m for _, m in got) > 1

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from(FACTOR_PRIMES))
    def test_crt_idempotents_are_one_at_their_factor_and_zero_at_the_others(self, data, p):
        # the squarefree product of a random polynomial's irreducible
        # factors, linear and nonlinear, against sympy's remainder
        factors = [g for g, _ in irreducible_factors(data.draw(monic_polys(p, 1, 12)), p)]
        f = [1]
        for g in factors:
            f = poly_mul(f, list(g), p)
        rows = crt_idempotents(f, factors, p)
        assert rows.shape == (len(factors), len(f) - 1)
        for i, row in enumerate(rows):
            e = gf_strip(ZZ.map([int(c) for c in row[::-1]]))
            for j, g in enumerate(factors):
                assert gf_rem(e, ZZ.map(list(g)), p, ZZ) == ([1] if i == j else []), (i, j)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from([3, 5, 7]))
    def test_polynomials_in_x_to_the_p(self, data, p):
        # g(x**p) h(x): its derivative misses the p-th-power part, and deg >= p
        g = data.draw(monic_polys(p, 1, 3))
        g_of_xp = [c for coeff in g for c in [coeff] + [0] * (p - 1)][: (len(g) - 1) * p + 1]
        f = poly_mul(g_of_xp, data.draw(monic_polys(p, 0, 6)), p)
        assert len(f) - 1 >= p
        check_factorisation(f, p)
        check_stream(f, p)

    @pytest.mark.parametrize("p", FACTOR_PRIMES)
    def test_constants_and_linear(self, p):
        assert sorted_factors([1], p) == [] and sorted_factors([p - 1], p) == []
        assert sorted_factors([0, 0, 3], p) == []
        assert sorted_factors([1, 0], p) == [((1, 0), 1)]
        assert sorted_factors([2, 4], p) == [((1, 2), 1)]
        assert sorted_factors([0, 2, 2 * (p - 1)], p) == [((1, p - 1), 1)]
        assert list(irreducible_factors([p - 1], p)) == []
        for f in ([1, 0], [2, 4], [p - 1, 1], [1, 2 * p + 1]):
            check_factorisation(f, p)
            check_stream(f, p)

    @pytest.mark.parametrize("p", [7, 2**31 - 1])
    def test_output_does_not_depend_on_the_splitting_seed(self, p, monkeypatch):
        rng = random.Random(13)
        polys = [[1] + [rng.randrange(p) for _ in range(12)] for _ in range(10)]
        expected = [sorted_factors(f, p) for f in polys]
        fixed_seed = random.Random
        for seed in (1, 2, 3):
            monkeypatch.setattr(linalg.random, "Random", lambda _s, seed=seed: fixed_seed(seed))
            assert [sorted_factors(f, p) for f in polys] == expected

    def test_first_factor_is_read_without_the_rest(self, monkeypatch):
        # (x-1)(x-2)...(x-12) q with q an irreducible quartic: the first linear
        # factor needs x**p and a few splits, not the Frobenius rows
        p = 2**31 - 1
        q = next([1, 0, 0, 1, c] for c in range(1, p) if gf_irreducible_p([1, 0, 0, 1, c], p, ZZ))
        f = q
        for a in range(1, 13):
            f = poly_mul(f, [1, p - a], p)
        calls, rings = [], []
        real_mul, real_init = linalg._Quotient.mul, linalg._Quotient.__init__

        def counted_mul(ring, a, b):
            calls.append(1)
            return real_mul(ring, a, b)

        def recorded_init(ring, *args):
            rings.append(ring)
            real_init(ring, *args)

        monkeypatch.setattr(linalg._Quotient, "mul", counted_mul)
        monkeypatch.setattr(linalg._Quotient, "__init__", recorded_init)
        g, mult = next(irreducible_factors(f, p))
        first = len(calls)
        assert len(g) == 2 and mult == 1
        assert rings and all(ring._frob is None for ring in rings)
        calls.clear()
        assert sorted_factors(f, p)[-1] == (tuple(q), 1)
        assert any(ring._frob is not None for ring in rings)
        assert first < len(calls) / 2


class TestQuotientPow:
    """The windowed power against the binary ladder it replaced."""

    @pytest.mark.parametrize("p", FACTOR_PRIMES)
    def test_matches_the_binary_ladder(self, p):
        rng = random.Random(p)
        exponents = [1, 2, 3, p, (p - 1) // 2] + [2**k + d for k in range(1, 34) for d in (-1, 1)]
        for n in (1, 2, 5, 12):
            ring = linalg._Quotient([1] + [rng.randrange(p) for _ in range(n)], p)
            elements = [[], [1], linalg._strip([rng.randrange(p) for _ in range(n)])]
            for a in elements:
                for e in exponents:
                    assert ring.pow(a, e) == binary_ladder_pow(ring, a, e), (n, a, e)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_never_more_products_than_the_ladder_at_small_p(self, p, monkeypatch):
        calls = []
        real_mul = linalg._Quotient.mul

        def counted_mul(ring, a, b):
            calls.append(1)
            return real_mul(ring, a, b)

        monkeypatch.setattr(linalg._Quotient, "mul", counted_mul)
        # every exponent below 2**10, so every one a factorisation at p <= 7 raises to
        ring = linalg._Quotient([1, 2, 1], p)
        for e in range(1, 2**10):
            calls.clear()
            ring.pow([1, 1], e)
            windowed = len(calls)
            calls.clear()
            binary_ladder_pow(ring, [1, 1], e)
            assert windowed <= len(calls), e


class TestRootOfUnity:
    def test_smallest_cube_root_mod_7(self):
        # oracle: scan every nonzero residue and compute its order directly
        orders = {x: brute_force_order(x, 7) for x in range(1, 7)}
        expected = min(x for x, o in orders.items() if o == 3)
        assert expected == 2
        assert find_root_of_unity(F7, 3) == 2

    def test_identity_case(self):
        assert find_root_of_unity(F7, 1) == 1

    def test_no_root_when_order_does_not_divide(self):
        with pytest.raises(NoSuchRoot):
            find_root_of_unity(F7, 5)

    @pytest.mark.parametrize("p,m", [(7, 2), (7, 3), (7, 6), (13, 3), (31, 5)])
    def test_returned_order_is_exact(self, p, m):
        x = find_root_of_unity(FieldSpec(p), m)
        assert brute_force_order(x, p) == m

    def test_smallest_of_its_order_for_every_prime_below_200(self):
        # oracle: the linear scan for the smallest element of each order
        for p in (q for q in range(3, 200) if all(q % d for d in range(2, q))):
            smallest = {}
            for x in range(1, p):
                smallest.setdefault(brute_force_order(x, p), x)
            for m in (d for d in range(1, p) if (p - 1) % d == 0):
                assert find_root_of_unity(FieldSpec(p), m) == smallest[m], (p, m)

    def test_cube_root_and_primitive_root_at_the_largest_prime(self):
        # the linear scan passes 634,005,910 residues before the cube root;
        # the primitive root (m = p - 1) has 2**31 - 3 powers to compare
        p = 2**31 - 1
        x = find_root_of_unity(FieldSpec(p), 3)
        assert x == 634005911
        assert pow(x, 3, p) == 1 and x != 1
        assert find_root_of_unity(FieldSpec(p), p - 1) == 7
        # p - 1 = 2 * 3**2 * 7 * 11 * 31 * 151 * 331: 2, ..., 6 are not generators
        assert all(any(pow(y, (p - 1) // q, p) == 1 for q in (2, 3, 7, 11, 31, 151, 331))
                   for y in range(2, 7))


class TestRref:
    def test_identity_fixed(self):
        r, rank, piv = rref(np.eye(4, dtype=np.int64), 7)
        assert rank == 4 and piv == (0, 1, 2, 3)
        assert np.array_equal(r, np.eye(4, dtype=np.int64))

    def test_proportional_rows(self):
        r, rank, _ = rref([[2, 4], [1, 2]], 7)
        assert rank == 1
        assert np.array_equal(r, [[1, 2], [0, 0]])

    def test_idempotent_on_seeded_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = rng.integers(0, 7, size=(5, 8))
            r1, rank1, piv1 = rref(m, 7)
            r2, rank2, piv2 = rref(r1, 7)
            assert np.array_equal(r1, r2) and rank1 == rank2 and piv1 == piv2

    PRIMES = (3, 7, 65521, 2**31 - 1)

    @staticmethod
    def assert_matches_the_masked_rref(m, p):
        # the masked elimination in int64 and in exact Python ints: equal
        # results mean no int64 product or difference wrapped around
        got = rref(m, p)
        assert got[0].dtype == np.int64
        for dtype in (np.int64, object):
            want = masked_rref(m, p, dtype)
            assert got[0].shape == want[0].shape
            assert np.array_equal(got[0], want[0].astype(np.int64)) and got[1:] == want[1:]

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(0, 8), st.integers(0, 9), st.integers(0, 8), st.data())
    def test_matches_the_masked_rref_bit_for_bit(self, p, nrows, ncols, rank, data):
        # m = a @ b has rank at most `rank`; entries near p - 1 are drawn often
        entries = st.one_of(st.integers(0, p - 1), st.integers(max(0, p - 3), p - 1))
        a = data.draw(st.lists(st.lists(entries, min_size=rank, max_size=rank), min_size=nrows, max_size=nrows))
        b = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=rank, max_size=rank))
        m = np.array([[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] if rank else [0] * ncols
                      for row in a], dtype=np.int64).reshape(nrows, ncols)
        self.assert_matches_the_masked_rref(m, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_empty_and_all_top_entries(self, p):
        cases = [np.zeros((3, 5), dtype=np.int64), np.zeros((0, 4), dtype=np.int64),
                 np.zeros((3, 0), dtype=np.int64), np.zeros((0, 0), dtype=np.int64),
                 np.full((4, 6), p - 1, dtype=np.int64),
                 (np.arange(30, dtype=np.int64).reshape(5, 6) * (p - 1)) % p]
        for m in cases:
            self.assert_matches_the_masked_rref(m, p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_a_tall_rank_deficient_matrix_stops_after_its_last_pivot(self, p, monkeypatch):
        # 40 rows of rank 3 over 25 columns, the first three independent:
        # the rows below the third pivot are zero, so the elimination stops
        # at column 3, the first column without a pivot, and does not scan
        # the 21 columns after it
        rng = np.random.default_rng(p % 1000)
        m = matmul_mod(rng.integers(0, p, size=(40, 3)), np.hstack(
            [np.eye(3, dtype=np.int64), rng.integers(0, p, size=(3, 22))]), p)
        scans, real = [], np.argmax

        def counted(*args, **kwargs):
            scans.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "argmax", counted)
        r, rank, pivots = rref(m, p)
        monkeypatch.setattr(np, "argmax", real)
        assert (rank, pivots, len(scans)) == (3, (0, 1, 2), 4)
        self.assert_matches_the_masked_rref(m, p)


class TestKernel:
    """kernel reads its RREF null basis off one elimination of the
    column-reversed matrix; the two-elimination kernel is the oracle."""

    PRIMES = (3, 7, 65521, 2**31 - 1)

    @staticmethod
    def one_elimination(m, p):
        calls, real = [], linalg.rref

        def counted(*args):
            calls.append(args)
            return real(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "rref", counted)
            got = kernel(m, p)
        assert len(calls) == 1
        return got

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(PRIMES), st.integers(0, 6), st.integers(1, 7), st.integers(0, 7), st.data())
    def test_matches_the_two_elimination_kernel(self, p, nrows, ncols, rank, data):
        # m = a @ b has rank at most `rank`, so wide kernels are common at every p
        entries = st.integers(0, p - 1)
        a = data.draw(st.lists(st.lists(entries, min_size=rank, max_size=rank), min_size=nrows, max_size=nrows))
        b = data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), min_size=rank, max_size=rank))
        m = np.array([[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] if rank else [0] * ncols
                      for row in a], dtype=np.int64).reshape(nrows, ncols)
        got = self.one_elimination(m, p)
        assert np.array_equal(got, two_elimination_kernel(m, p))
        assert all(sum(int(x) * int(y) for x, y in zip(row, v)) % p == 0 for row in m for v in got)

    @pytest.mark.parametrize("p", PRIMES)
    def test_zero_full_rank_no_rows_and_one_column(self, p):
        rng = np.random.default_rng(p % 1000)
        cases = {
            "zero": (np.zeros((3, 5), dtype=np.int64), 5),
            "full rank": (np.eye(4, dtype=np.int64)[::-1] * 2 % p, 0),
            "no rows": (np.zeros((0, 4), dtype=np.int64), 4),
            "one column": (rng.integers(1, p, size=(3, 1)), 0),
            "zero column": (np.zeros((2, 1), dtype=np.int64), 1),
        }
        for name, (m, nullity) in cases.items():
            got = self.one_elimination(m, p)
            assert got.shape == (nullity, m.shape[1]), name
            assert np.array_equal(got, two_elimination_kernel(m, p)), name

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from((7, 2**31 - 1)), st.sampled_from(("zero", "full rank", "rank-deficient")),
           st.integers(1, 7), st.data())
    def test_output_is_its_own_rref(self, p, kind, ncols, data):
        # null_space takes kernel's rows as they are, with each row's first
        # nonzero column as its pivot, so they must already be the RREF of
        # their span. m = l @ u has rank exactly r: u is in echelon form with
        # r pivots, l has the identity in its top r rows
        r = {"zero": 0, "full rank": ncols, "rank-deficient": data.draw(st.integers(0, ncols - 1))}[kind]
        nrows = data.draw(st.integers(r, 8))
        entries = st.integers(0, p - 1)
        piv = sorted(data.draw(st.permutations(range(ncols)))[:r])
        u = np.array(data.draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                                        min_size=r, max_size=r)), dtype=np.int64).reshape(r, ncols)
        for row, c in enumerate(piv):
            u[row, :c], u[row, c] = 0, 1
        below = data.draw(st.lists(st.lists(entries, min_size=r, max_size=r), min_size=nrows - r, max_size=nrows - r))
        l = np.vstack([np.eye(r, dtype=np.int64), np.array(below, dtype=np.int64).reshape(nrows - r, r)])
        m = matmul_mod(l, u, p)[data.draw(st.permutations(range(nrows)))]
        field = FieldSpec(p)
        basis = kernel(m, p)
        again, rank, pivots = rref(basis, p)
        assert basis.shape == (ncols - r, ncols) and rank == ncols - r
        assert np.array_equal(again[:rank], basis)
        sub = null_space(m, field)
        assert np.array_equal(sub.basis, basis) and sub.pivots == pivots
        assert sub == Subspace(field, ncols, basis)


class TestSolve:
    def test_inconsistent_zero_matrix(self):
        sol = solve(np.zeros((2, 2), dtype=np.int64), [1, 0], 7)
        assert not sol.consistent and sol.particular is None

    def test_substitution_reproduces_rhs(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = rng.integers(0, 7, size=(4, 6))
            x = rng.integers(0, 7, size=6)
            rhs = (m @ x) % 7
            sol = solve(m, rhs, 7)
            assert sol.consistent
            assert np.array_equal((m @ sol.particular) % 7, rhs)
            # kernel rows really are homogeneous solutions
            if sol.kernel.shape[0]:
                assert not ((m @ sol.kernel.T) % 7).any()

    def test_matrix_rhs(self):
        m = np.array([[1, 2], [3, 4]], dtype=np.int64)
        inv = np.array(inverse_mod(m.tolist(), 7))
        assert np.array_equal((m @ inv) % 7, np.eye(2, dtype=np.int64))

    def test_overflow_safe_matmul_large_prime(self):
        p = 2**31 - 1
        a = np.full((4, 4), p - 1, dtype=np.int64)
        got = matmul_mod(a, a, p)
        # (p-1)^2 * 4 mod p == (+1) * 4 since p-1 == -1 mod p
        assert np.array_equal(got, np.full((4, 4), 4, dtype=np.int64))


P_BIG = 2**31 - 1
PRIMES = [3, 7, 65521, P_BIG]


def reference_tensordot(a, b, axes, p):
    """np.tensordot in Python ints: exact whatever the sizes."""
    return np.tensordot(a.astype(object), b.astype(object), axes=axes) % p


@st.composite
def field_arrays(draw, shape_a, shape_b):
    p = draw(st.sampled_from(PRIMES))
    entries = st.integers(min_value=0, max_value=p - 1)
    a = draw(arrays(np.int64, shape_a, elements=entries))
    b = draw(arrays(np.int64, shape_b, elements=entries))
    return p, a, b


dims = st.integers(min_value=1, max_value=5)


class TestSparseTensor:
    """The sparse layer against dense Python-int references."""

    @staticmethod
    def random_dense(rng, n, rank, p, density=0.35):
        vals = rng.integers(1, p, size=(n,) * rank, dtype=np.int64)
        return vals * (rng.random((n,) * rank) < density)

    @pytest.mark.parametrize("density", [0.35, 1.0])
    @pytest.mark.parametrize("p", [7, 2**31 - 1])
    def test_contract_and_permute_match_dense(self, p, density):
        # at density 1 and p = 2**31 - 1 a sum of 16 products passes 2**63
        rng = np.random.default_rng(5)
        n = 4
        for rank_a, rank_b, k in [(3, 3, 1), (3, 3, 2), (4, 3, 2), (1, 3, 1), (3, 1, 1), (2, 2, 2)]:
            a = self.random_dense(rng, n, rank_a, p, density)
            b = self.random_dense(rng, n, rank_b, p, density)
            axes = (list(range(rank_a - k, rank_a)), list(range(k)))
            ref = np.tensordot(a.astype(object), b.astype(object), axes=axes) % p
            got = contract(SparseTensor.from_dense(a), SparseTensor.from_dense(b), k, p)
            assert got.rank == rank_a + rank_b - 2 * k
            assert np.all(np.diff(got.keys) > 0) and np.all(got.vals > 0)
            assert np.array_equal(got.dense(), np.array(ref, dtype=np.int64))
            order = tuple(rng.permutation(rank_a))
            assert np.array_equal(permute(SparseTensor.from_dense(a), order).dense(), a.transpose(order))

    def test_join_past_the_budget_names_the_limit(self, monkeypatch):
        # e_i (x) e_i with every (i, j) entry: the rank-1 by rank-2 join pairs each of
        # the 3 a entries with the 3 b entries in its row, 9 pairs in all
        a = SparseTensor.from_entries(3, 1, [(i, 1) for i in range(3)], 7)
        b = SparseTensor.from_entries(3, 2, [(i, j, 1) for i in range(3) for j in range(3)], 7)
        monkeypatch.setattr(linalg, "MAX_JOIN_TERMS", 9)
        assert contract(a, b, 1, 7).vals.tolist() == [3, 3, 3]
        monkeypatch.setattr(linalg, "MAX_JOIN_TERMS", 8)
        with pytest.raises(BudgetExceeded, match=r"join 9 term pairs, more than .* of 8 \(linalg\.MAX_JOIN_TERMS\)"):
            contract(a, b, 1, 7)

    def test_from_entries_adds_repeats_and_drops_zeros(self):
        t = SparseTensor.from_entries(3, 2, [(2, 1, 5), (0, 2, 3), (2, 1, 4), (1, 1, 7)], 7)
        assert t.keys.tolist() == [2, 7] and t.vals.tolist() == [3, 2]

    def test_first_difference_is_the_smallest_differing_index(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = self.random_dense(rng, 3, 3, 5)
            b = a.copy()
            for idx in rng.integers(0, 3, size=(int(rng.integers(0, 3)), 3)):
                b[tuple(idx)] = rng.integers(0, 5)
            hits = np.argwhere(a != b)
            expected = tuple(int(i) for i in hits[0]) if len(hits) else None
            got = first_difference(SparseTensor.from_dense(a), SparseTensor.from_dense(b))
            assert got == expected


class TestProductKernel:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), dims, dims, dims, st.booleans(), st.booleans())
    def test_matmul_matches_python_ints(self, data, m, k, n, vector_a, vector_b):
        shape_a = (k,) if vector_a else (m, k)
        shape_b = (k,) if vector_b else (k, n)
        p, a, b = data.draw(field_arrays(shape_a, shape_b))
        got = matmul_mod(a, b, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_tensordot(a, b, ([-1], [0]), p))

    @settings(max_examples=80, deadline=None)
    @given(st.data(), dims, dims, dims, dims,
           st.sampled_from([((2,), (0,)), ((1,), (1,)), ((0,), (0,)), ((1, 2), (0, 1))]))
    def test_tensordot_matches_python_ints(self, data, x, y, z, w, axes):
        shape_a = (x, y, z)
        contracted = [shape_a[ax] for ax in axes[0]]
        shape_b = [w] * (len(axes[1]) + 1)
        for ax, size in zip(axes[1], contracted):
            shape_b[ax] = size
        p, a, b = data.draw(field_arrays(shape_a, tuple(shape_b)))
        got = tensordot_mod(a, b, axes, p)
        assert got.dtype == np.int64
        assert np.array_equal(got, reference_tensordot(a, b, axes, p))

    def test_contraction_past_two_to_the_sixteen(self):
        # inner = 70000 forces limbs narrower than 16 bits at p = 2**31 - 1
        rng = np.random.default_rng(5)
        a = rng.integers(0, P_BIG, size=(2, 70000))
        b = rng.integers(0, P_BIG, size=(70000, 2))
        a[0] = b[:, 0] = P_BIG - 1  # the largest possible sum in one entry
        expected = reference_tensordot(a, b, ([1], [0]), P_BIG)
        assert np.array_equal(matmul_mod(a, b, P_BIG), expected)
        assert np.array_equal(tensordot_mod(a, b, ([1], [0]), P_BIG), matmul_mod(a, b, P_BIG))

    @pytest.mark.parametrize("p", [7, P_BIG])
    def test_sparse_left_operand(self, p):
        rng = np.random.default_rng(6)
        a = rng.integers(0, p, size=(6, 9)) * (rng.random((6, 9)) < 0.4)
        b = rng.integers(0, p, size=(9, 4))
        got = matmul_mod(sparse.csr_matrix(a), b, p)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, reference_tensordot(a, b, ([1], [0]), p))


@st.composite
def random_subspace(draw, ambient=6, p=7):
    nrows = draw(st.integers(min_value=0, max_value=ambient))
    rows = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=p - 1), min_size=ambient, max_size=ambient),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return Subspace(FieldSpec(p), ambient, rows)


class TestSubspace:
    def test_intersect_idempotent(self):
        rng = np.random.default_rng(2)
        u = Subspace(F7, 6, rng.integers(0, 7, size=(3, 6)))
        assert intersect(u, u) == u

    def test_intersect_coordinate_lines(self):
        e1 = Subspace(F7, 3, [[1, 0, 0]])
        e2 = Subspace(F7, 3, [[0, 1, 0]])
        assert intersect(e1, e2).dim == 0

    def test_dimension_formula_1000_seeded_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            u = Subspace(F7, 6, rng.integers(0, 7, size=(rng.integers(0, 5), 6)))
            v = Subspace(F7, 6, rng.integers(0, 7, size=(rng.integers(0, 5), 6)))
            assert (u + v).dim + intersect(u, v).dim == u.dim + v.dim

    @settings(max_examples=60, deadline=None)
    @given(random_subspace(), random_subspace())
    def test_sum_contains_both(self, u, v):
        s = u + v
        assert s.contains_rows(u.basis) and s.contains_rows(v.basis)
        w = intersect(u, v)
        assert u.contains_rows(w.basis) and v.contains_rows(w.basis)

    @settings(max_examples=60, deadline=None)
    @given(random_subspace())
    def test_canonical_form_idempotent(self, u):
        again = Subspace(u.field, u.ambient, u.basis)
        assert again == u and again.key() == u.key()

    def test_kernel_vectors_annihilate(self):
        rng = np.random.default_rng(4)
        m = rng.integers(0, 7, size=(3, 7))
        k = kernel(m, 7)
        assert k.shape[0] == 7 - rref(m, 7)[1]
        assert not ((m @ k.T) % 7).any()

    def test_equality_is_bitwise(self):
        u = Subspace(F7, 4, [[1, 2, 3, 4], [0, 1, 0, 1]])
        v = Subspace(F7, 4, [[2, 4, 6, 1], [0, 2, 0, 2], [1, 2, 3, 4]])
        assert u == v
        assert hash(u) == hash(v)


SRC = Path(__file__).resolve().parents[1] / "src" / "hopfib"
RAW_PRODUCTS = {"dot", "matmul", "tensordot", "einsum"}
BANNED_IMPORTS = {"scipy", "sympy"}


def _is_object_dtype(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "object") or (
        isinstance(node, ast.Constant) and node.value in ("object", "O")
    )


def lint_products(tree: ast.AST, allow_products: bool) -> list[tuple[int, str]]:
    """Raw products of field data, Python-object arrays and scipy or sympy imports, by line."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Attribute) and node.attr in RAW_PRODUCTS:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call):
            astype = isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
            dtypes = [kw.value for kw in node.keywords if kw.arg == "dtype"]
            if astype:
                dtypes += node.args[:1]
            if any(_is_object_dtype(d) for d in dtypes):
                found.append((node.lineno, "object dtype"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            roots = {m.split(".")[0] for m in modules if m} & BANNED_IMPORTS
            found += [(node.lineno, f"{root} import") for root in sorted(roots)]
    if allow_products:
        found = [f for f in found if f[1] == "object dtype" or f[1].endswith(" import")]
    return found


DENSIFIERS = {"array", "asarray", "ascontiguousarray", "asmat"}


def _is_mul(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "mul"


def lint_dense_mul(tree: ast.AST) -> list[int]:
    """Lines that subscript or densify a multiplication tensor ``x.mul``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and _is_mul(node.value):
            found.append(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "dense" and _is_mul(node.value):
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            func = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
            if func in DENSIFIERS and any(_is_mul(arg) for arg in node.args):
                found.append(node.lineno)
    return sorted(found)


def lint_regular_stack_reads(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, enclosing function) of each read of a ``.left_regular`` attribute."""
    found, scope = [], []

    class Reads(ast.NodeVisitor):
        def visit_FunctionDef(self, node):
            scope.append(node.name)
            self.generic_visit(node)
            scope.pop()

        def visit_Attribute(self, node):
            if node.attr == "left_regular":
                found.append((node.lineno, ".".join(scope)))
            self.generic_visit(node)

    Reads().visit(tree)
    return found


class TestOnlyAlgebraDensifiesMul:
    """The multiplication is stored once, as a sparse tensor; algebra.py alone
    builds a dense view of it, and no package code reads a dense action
    stack of the regular module (the tests' oracles.left_regular)."""

    def test_lint_flags_each_pattern(self):
        bad = ast.parse(
            "x = alg.mul[0]\ny = alg.mul.dense()\nz = np.asarray(alg.mul)\n"
            "w = asmat(b.alg.mul, p)\nq = np.array(alg.mul, dtype=np.int64)\n"
            "ok = contract(alg.mul, v, 1, p)\nok = self.mul(a, b)\nok = alg.left_regular()[0]\n"
        )
        assert lint_dense_mul(bad) == [1, 2, 3, 4, 5]

    def test_only_algebra_densifies_or_subscripts_mul(self):
        files = sorted(SRC.glob("*.py"))
        assert SRC / "algebra.py" in files
        offences = [
            f"{path.name}:{line}"
            for path in files if path.name != "algebra.py"
            for line in lint_dense_mul(ast.parse(path.read_text()))
        ]
        assert offences == []

    def test_lint_finds_each_regular_stack_read(self):
        tree = ast.parse(
            "x = alg.left_regular()\ndef f(alg):\n    return alg.left_regular()[0]\n"
            "def g(alg):\n    stack = alg.left_regular\n    return stack()\n"
            "def left_regular(alg):\n    return alg.mul\n"
        )
        assert lint_regular_stack_reads(tree) == [(1, ""), (3, "f"), (5, "g")]

    def test_only_the_regular_module_reads_the_dense_stack(self):
        reads = {
            (path.name, scope): line
            for path in sorted(SRC.glob("*.py"))
            for line, scope in lint_regular_stack_reads(ast.parse(path.read_text()))
        }
        assert list(reads) == []


class TestEveryProductGoesThroughLinalg:
    """Outside linalg.py a raw int64 product can wrap for p near 2**31.

    scipy is rejected everywhere: the exhaustive checks have one sparse
    path, linalg's SparseTensor, and a second one must not come back.
    sympy is rejected everywhere too: linalg factors polynomials and tests
    primes itself, and importing sympy would more than double the start-up
    time of every CLI call.
    """

    def test_lint_flags_each_pattern(self):
        bad = ast.parse(
            "x = a @ b\nx @= b\nnp.dot(a, b)\nnp.matmul(a, b)\nnp.tensordot(a, b, 1)\n"
            "np.einsum('ij,jk', a, b)\na.astype(object)\nnp.array(a, dtype=object)\n"
            "import scipy.sparse\nfrom scipy import sparse\n"
            "import sympy\nfrom sympy.polys.galoistools import gf_factor\n"
        )
        def lines(allow_products):
            return sorted(line for line, _ in lint_products(bad, allow_products))

        assert lines(allow_products=False) == list(range(1, 13))
        assert lines(allow_products=True) == [7, 8, 9, 10, 11, 12]

    def test_no_raw_product_or_object_array_in_the_package(self):
        files = sorted(SRC.glob("*.py"))
        assert SRC / "linalg.py" in files
        offences = [
            f"{path.name}:{line}: {what}"
            for path in files
            for line, what in lint_products(ast.parse(path.read_text()), path.name == "linalg.py")
        ]
        assert offences == []

    def test_cli_import_does_not_load_sympy(self):
        # sympy is a test-only oracle; a transitive import would bring back its start-up cost
        code = "import hopfib.cli, sys; assert 'sympy' not in sys.modules"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONPATH=str(SRC.parent)))


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(nodes, related, cls=None) -> set[str]:
    """Every ast.Name id and ast.Attribute attr in the nodes, each attr also
    as ".attr"; in the code of a class C (cls, for nodes taken from its
    body), a read self.attr counts only as "K.attr" for each K in
    related(C)."""
    found = set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            if cls and isinstance(node.value, ast.Name) and node.value.id == "self":
                found.update(f"{k}.{node.attr}" for k in related(cls))
            else:
                found.update((node.attr, "." + node.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for node in nodes:
        visit(node, cls)
    return found


def dead_definitions(modules: dict[str, ast.Module], roots) -> list[str]:
    """Top-level defs and classes of `modules`, their classes' non-dunder
    methods and their annotated class-body names (dataclass fields) that no
    live code reads ("module.name", "module.Class.member"). Live code is
    `roots`, the module-level statements that are not definitions, and the
    code of each live definition (for a class, all but its non-dunder
    methods). A definition is live once live code reads its name as an
    ast.Name or ast.Attribute, a field once live code reads it as an
    ast.Attribute (.name), to a fixed point; imports and reads inside a
    definition's own code do not count. A read self.name in the code of a
    class C keeps alive only the member name of C, of C's ancestors and of
    its descendants (by base-class name), not a member that another class
    spells the same way."""
    classes = [node for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    bases = {c.name: {b.id if isinstance(b, ast.Name) else getattr(b, "attr", "") for b in c.bases}
             for c in classes}

    def lineage(cls, step):  # cls and every class reached by repeated steps
        seen, todo = {cls}, [cls]
        while todo:
            new = set(step(todo.pop())) - seen
            seen |= new
            todo += new
        return seen

    def related(cls):
        return (lineage(cls, lambda k: bases.get(k, ()))
                | lineage(cls, lambda k: [c for c, bs in bases.items() if k in bs]))

    pending = {}  # key -> (the names that wake it, the code that becomes live with it, its class)
    live_code = list(roots)
    for mod, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                live_code.append(node)
                continue
            own, cls = [node], None
            if isinstance(node, ast.ClassDef):
                cls = node.name
                methods = [s for s in node.body if isinstance(s, DEFINITIONS[:2])
                           and not (s.name.startswith("__") and s.name.endswith("__"))]
                pending.update((f"{mod}.{node.name}.{m.name}", ({"." + m.name, f"{node.name}.{m.name}"}, [m], node.name))
                               for m in methods)
                pending.update((f"{mod}.{node.name}.{s.target.id}",
                                ({"." + s.target.id, f"{node.name}.{s.target.id}"}, [], node.name))
                               for s in node.body
                               if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name))
                own = node.bases + node.decorator_list + [s for s in node.body if s not in methods]
            pending[f"{mod}.{node.name}"] = ({node.name}, own, cls)
    read = _names_read(live_code, related)
    while woken := [key for key, (names, _, _) in pending.items() if names & read]:
        for key in woken:
            _, code, cls = pending.pop(key)
            read |= _names_read(code, related, cls)
    return sorted(pending)


class TestEveryDefinitionIsReached:
    """Every definition in the package is reached from the CLI (cli.py) or
    scripts/*.py; code that only tests call belongs in tests/oracles.py."""

    def test_lint_flags_a_chain_that_nothing_reaches(self):
        # f calls g and only a dead method calls f; h calls only itself; C's
        # body reaches k; a dunder method is never flagged; a field is live
        # once read as an attribute, and a bare name of the same spelling
        # does not count
        module = ast.parse(
            "def f():\n    return g()\n\ndef g():\n    return 1\n\ndef h():\n    return h()\n\n"
            "def k():\n    return 2\n\nclass C:\n    size = k()\n    seen: int = 0\n    unseen: int = 0\n"
            "    def __init__(self):\n        self.x = 0\n"
            "    def used(self):\n        return 0\n    def unused(self):\n        return f()\n"
        )
        roots = [ast.parse("C().used() + C().seen\nprint(unseen)")]
        assert dead_definitions({"m": module}, roots) == [
            "m.C.unseen", "m.C.unused", "m.f", "m.g", "m.h"]

    def test_a_self_read_keeps_only_its_own_class_field_alive(self):
        # A and B both declare x; only A's methods read self.x, and B's read
        # self.y. Sub inherits z from Base and reads it through self.
        module = ast.parse(
            "class A:\n    x: int = 0\n    def get(self):\n        return self.x\n\n"
            "class B:\n    x: int = 0\n    y: int = 0\n    def get(self):\n        return self.y\n\n"
            "class Base:\n    z: int = 0\n    w: int = 0\n\n"
            "class Sub(Base):\n    def run(self):\n        return self.z\n"
        )
        roots = [ast.parse("A().get() + B().get() + Sub().run()")]
        assert dead_definitions({"m": module}, roots) == ["m.B.x", "m.Base.w"]

    def test_a_bare_name_does_not_wake_a_method(self):
        # a local variable inv spelled like the method F.inv (as in
        # linalg._monic) does not keep it alive; an attribute read .inv or
        # F.inv does
        module = ast.parse(
            "class F:\n    def inv(self):\n        return 1\n\n"
            "def monic(a):\n    inv = pow(a, -1, 7)\n    return inv\n"
        )
        assert dead_definitions({"m": module}, [ast.parse("monic(3) + F()")]) == ["m.F.inv"]
        for read in ("F().inv()", "F.inv(F())"):
            assert dead_definitions({"m": module}, [ast.parse(f"monic(3) + {read}")]) == []

    def test_the_cli_and_the_scripts_reach_every_definition(self):
        modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
        roots = [modules.pop("cli")]
        roots += [ast.parse(path.read_text()) for path in sorted((SRC.parents[1] / "scripts").glob("*.py"))]
        assert len(roots) >= 3 and "specmap" in modules
        assert dead_definitions(modules, roots) == []


MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault"}


def module_state_writes(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) of each store, inside a function, into a container the
    module binds at top level: a subscript assignment, or a call of one of
    MUTATORS on it. A name the function binds itself (a parameter or an
    assignment target) is its own and not flagged."""
    top = {t.id for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
           for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
           if isinstance(t, ast.Name)}
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = func.args
        own = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg] if a}
        own |= {n.id for n in ast.walk(func) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        shared = top - own
        for node in ast.walk(func):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found.update((node.lineno, t.value.id) for t in targets
                             if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
                             and t.value.id in shared)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in shared):
                found.add((node.lineno, node.func.value.id))
    return sorted(found)


class TestNoModuleLevelMemo:
    """No function in the package keeps state in a module-level container: a
    memo shared by every caller in the process hides repeated work and lets
    one caller's results reach the next. Each run computes what it needs
    once and passes it on."""

    def test_lint_flags_both_memo_patterns(self):
        # the chop cache and the builtin-group cache this package once kept,
        # a list grown through a method, and the local and shadowing stores
        # that are not module state
        module = ast.parse(
            "_SIMPLES_CACHE: dict[tuple, list] = {}\n\n"
            "def simples(alg, seed=0):\n"
            "    key = (alg.digest(), seed)\n"
            "    if key not in _SIMPLES_CACHE:\n"
            "        _SIMPLES_CACHE[key] = chop(alg, seed)\n"
            "    return _SIMPLES_CACHE[key]\n\n"
            "_BUILTIN_GROUPS = {}\n\n"
            "def builtin_group(name):\n"
            "    if name not in _BUILTIN_GROUPS:\n"
            "        _BUILTIN_GROUPS[name] = build(name)\n"
            "    return _BUILTIN_GROUPS[name]\n\n"
            "SEEN = []\n\n"
            "def note(x, table):\n"
            "    SEEN.append(x)\n"
            "    groups = {}\n"
            "    groups.setdefault(x, []).append(x)\n"
            "    table[x] = 1\n\n"
            "def shadow(x):\n"
            "    SEEN = []\n"
            "    SEEN.append(x)\n"
            "    return SEEN\n"
        )
        assert module_state_writes(module) == [
            (6, "_SIMPLES_CACHE"), (13, "_BUILTIN_GROUPS"), (19, "SEEN")]

    def test_no_function_in_the_package_stores_into_module_state(self):
        found = {path.name: writes for path in sorted(SRC.glob("*.py"))
                 if (writes := module_state_writes(ast.parse(path.read_text())))}
        assert found == {}
