import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribadic import (
    ExtRing,
    PrecisionError,
    galois,
    prime_context,
    trib_mod,
)
from tribadic._factor import factorize, is_prime, primes_upto
from tribadic.tribonacci import _xpow

from conftest import PSI_12, lifted_roots, oracle_degree, roots_mod_p_oracle, zp_residue


def clear_context_caches():
    galois._prime_data.cache_clear()
    lifted_roots.cache_clear()


def mult_det_mod_p(u):
    # determinant of g -> u*g on the basis 1, x, ..., x^(d-1), mod p (Leibniz formula)
    ring = u.ring
    cols = [(u * ring.elem([0] * i + [1])).coords for i in range(ring.d)]
    det = 0
    for perm in itertools.permutations(range(ring.d)):
        inversions = sum(perm[i] > perm[j] for i in range(ring.d) for j in range(i + 1, ring.d))
        det += (-1) ** inversions * math.prod(cols[i][perm[i]] for i in range(ring.d))
    return det % ring.p


class TestSplittingType:
    def test_p5_irreducible(self):
        assert roots_mod_p_oracle(5) == []
        assert prime_context(5).d == 3

    def test_p13_mixed(self):
        assert len(roots_mod_p_oracle(13)) == 1
        assert prime_context(13).d == 2

    def test_p47_split(self):
        assert len(roots_mod_p_oracle(47)) == 3
        assert prime_context(47).d == 1

    @pytest.mark.parametrize(
        "ps",
        [[p for p in primes_upto(3000) if p not in (2, 11)], [p for p in primes_upto(10**5) if p > 99900]],
        ids=["below-3000", "near-1e5"],
    )
    def test_degree_from_powering_matches_root_count(self, ps):
        assert [prime_context(p).d for p in ps] == [oracle_degree(p) for p in ps]

    def test_factors_multiply_back(self):
        # the oracle's roots r give the factors X - r, times P / (X - r) for d = 2, times P itself for d = 3
        for p in (5, 13, 47, 103, 599):
            roots = roots_mod_p_oracle(p)
            factors = [(-r % p, 1) for r in roots]
            if len(roots) == 1:
                r = roots[0]
                factors.append(((r * r - r - 1) % p, (r - 1) % p, 1))
            elif not roots:
                factors.append(tuple(c % p for c in galois._P))
            prod = [1]
            for f in factors:
                out = [0] * (len(prod) + len(f) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(f):
                        out[i + j] = (out[i + j] + a * b) % p
                prod = out
            assert prod == [(-1) % p, (-1) % p, (-1) % p, 1]

    def test_excluded_primes(self):
        for p in (2, 11):
            with pytest.raises(ValueError):
                prime_context(p)

    def test_non_prime(self):
        with pytest.raises(ValueError):
            prime_context(15)


class TestLiftRoots:
    @pytest.mark.parametrize("p", [3, 5, 13, 47, 83, 397])
    def test_root_identities(self, p):
        ring, roots, _ = lifted_roots(p, 24)
        r1, r2, r3 = roots
        assert r1 + r2 + r3 == ring.one  # e1 of P
        assert r1 * r2 * r3 == ring.one  # -constant term
        for lam in roots:
            val = ((lam - 1) * lam - 1) * lam - 1
            assert val.is_zero()

    @pytest.mark.parametrize("p", [3, 5, 13, 47])
    def test_binet_at_0_and_1(self, p):
        ring, roots, weights = lifted_roots(p, 24)
        c1, c2, c3 = weights
        assert (c1 + c2 + c3).is_zero()  # T(0) = 0
        total = sum((ci * li for ci, li in zip(weights, roots)), ring.zero)
        assert total == ring.one  # T(1) = 1

    def test_c_lambda_units(self):
        for p in (5, 13, 47):
            for ci in lifted_roots(p, 24)[2]:
                assert ci.val() == 0


class TestContextCache:
    @pytest.mark.parametrize("p", [3, 5, 13, 47, 269])  # d = 3, 3, 2, 1, 1
    def test_context_independent_of_cache_history(self, p):
        clear_context_caches()
        prime_context(p, 96)
        lifted_roots(p, 96)
        warm, warm_lift = prime_context(p, 24), lifted_roots(p, 24)
        clear_context_caches()
        fresh, fresh_lift = prime_context(p, 24), lifted_roots(p, 24)
        assert warm is not fresh and warm_lift is not fresh_lift
        assert (warm_lift, warm.d, warm.n_period) == (fresh_lift, fresh.d, fresh.n_period)
        assert warm == fresh

    def test_one_factorization_per_prime(self, monkeypatch):
        clear_context_caches()
        calls = []
        monkeypatch.setattr(galois, "factorize", lambda n: calls.append(n) or factorize(n))
        for prec in (8, 24, 48, 96):
            assert prime_context(83, prec).n_period == 287
        assert calls == [83**2 - 1]


class TestComputeN:
    @pytest.mark.parametrize(
        "p,expected",
        [(5, 31), (3, 13), (83, 287), (397, 132), (13, 168), (47, 46), (269, 268)],
    )
    def test_known_periods(self, p, expected):
        assert prime_context(p, 8).n_period == expected

    @pytest.mark.parametrize("p", [5, 7, 13, 47, 83])
    def test_sequence_period_property(self, p):
        n_period = prime_context(p, 8).n_period
        for n in range(-30, 120):
            assert trib_mod(n + n_period, p) == trib_mod(n, p)

    def test_wrong_splitting_type_is_caught(self, monkeypatch):
        # d = 1 for p = 5 would start the period search at 4; the true N is 31 and x^4 != 1
        clear_context_caches()
        monkeypatch.setattr(galois, "_splitting_degree", lambda p: 1)
        try:
            with pytest.raises(AssertionError):
                galois._prime_data(5)
        finally:
            clear_context_caches()

    @pytest.mark.parametrize("p", [5, 7, 13, 47, 83])
    def test_group_minimality(self, p):
        # no proper divisor N' of N has lambda^N' = 1 mod p for every root
        n_period = prime_context(p, 8).n_period
        ring, lifted, _ = lifted_roots(p, 8)
        res = ExtRing(p, 1, ring.modulus)
        roots = [lam.lift_to(res) for lam in lifted]
        one = res.one
        for q in factorize(n_period):
            shorter = n_period // q
            assert any(lam**shorter != one for lam in roots)

    def test_d3_divides_quadratic_cyclotomic(self):
        for p in (5, 3, 59, 509):
            ctx = prime_context(p, 8)
            if ctx.d == 3:
                assert (p * p + p + 1) % ctx.n_period == 0

    def test_d3_period_equals_the_search_from_the_group_order(self, monkeypatch):
        # oracle: N found by dividing p^3 - 1 down; _prime_data starts from p^2 + p + 1 and
        # factors nothing else
        d3 = [p for p in primes_upto(2 * 10**4) if p not in (2, 11) and galois._splitting_degree(p) == 3]
        assert len(d3) > 700
        clear_context_caches()
        calls = []
        monkeypatch.setattr(galois, "factorize", lambda n: calls.append(n) or factorize(n))
        for p in d3:
            n = p**3 - 1
            for q in factorize(n):
                while n % q == 0 and _xpow(n // q, p) == (1, 0, 0):
                    n //= q
            assert galois._prime_data(p) == (3, n)
        assert calls == [p * p + p + 1 for p in d3]
        clear_context_caches()

    def test_n_divides_group_order(self):
        for p in (5, 13, 47, 269):
            ctx = prime_context(p, 8)
            assert (p**ctx.d - 1) % ctx.n_period == 0

    @pytest.mark.parametrize("p", [p for p in primes_upto(300) if p not in (2, 11)] + [757, 1999])
    def test_n_is_the_least_period_of_the_recurrence(self, p):
        # independent oracle: walk T mod p until the state (T(0), T(1), T(2)) comes back
        a, b, c = 1, 1, 2  # T(1), T(2), T(3)
        n = 1
        while (a, b, c) != (0, 1, 1):
            a, b, c = b, c, (a + b + c) % p
            n += 1
        assert prime_context(p, 8).n_period == n


def schoolbook_mul_mod(a, b, h, pk):
    """a*b mod (h, pk): the full product, then long division by the monic h from the top down."""
    d = len(h) - 1
    prod = [0] * (2 * d - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for top in range(2 * d - 2, d - 1, -1):
        q = prod[top]
        for j in range(d + 1):
            prod[top - d + j] -= q * h[j]
        assert prod[top] == 0
    return tuple(c % pk for c in prod[:d])


class TestRingProduct:
    MODULI = (galois._P, (5, -7, 3, 1), (3, -2, 1))  # P, a cubic with larger signed coefficients, a quadratic

    @given(
        st.sampled_from(MODULI),
        st.sampled_from([3, 5, 7, 13, 47, 587]),
        st.sampled_from([1, 3, 24, 97]),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_product_against_schoolbook_division(self, h, p, prec, rng):
        ring = ExtRing(p, prec, h)
        pk = p**prec
        a = ring.elem([rng.randrange(pk) for _ in range(ring.d)])
        b = ring.elem([rng.randrange(pk) for _ in range(ring.d)])
        expected = schoolbook_mul_mod(a.coords, b.coords, h, pk)
        assert ring._mul(a.coords, b.coords) == expected
        assert (a * b).coords == expected and all(0 <= c < pk for c in expected)

    @pytest.mark.parametrize("prec", [1, 3, 24, 97])
    @pytest.mark.parametrize("p", [3, 5, 47])
    def test_modulus_stored_as_symmetric_residues(self, p, prec):
        pk = p**prec
        reduced = ExtRing(p, prec, tuple(c % pk for c in galois._P[:-1]) + (1,))
        signed = ExtRing(p, prec, galois._P)
        assert reduced == signed and hash(reduced) == hash(signed)
        assert reduced.modulus == (-1, -1, -1, 1)
        # rings are equal exactly when their moduli agree mod p^prec
        other = ExtRing(p, prec, (pk + 5, -7 * pk - 7, 3, 1))
        assert other == ExtRing(p, prec, (5, -7, 3, 1)) != ExtRing(p, prec, (6, -7, 3, 1))
        assert all(-pk / 2 < c <= pk / 2 for c in other.modulus)


class TestExtArithmetic:
    def test_inverse_round_trip(self):
        rng = random.Random(9)
        ring = lifted_roots(5, 20)[0]
        for _ in range(50):
            x = ring.elem([rng.randrange(5**20) for _ in range(3)])
            if x.val() != 0:
                continue
            assert x * x.inv() == ring.one

    @pytest.mark.parametrize("prec", [1, 2, 24, 96])
    def test_inverse_in_every_ring(self, prec):
        # rank 1, the quadratic ring of the d = 2 roots, and R for d = 3, 2, 1; the oracle
        # for "unit" is the determinant of multiplication by u, taken mod p
        rings = [ExtRing(13, prec, (0, 1)), lifted_roots(13, prec)[0]]
        rings += [ExtRing(p, prec, galois._P) for p in (5, 13, 47)]
        rng = random.Random(prec)
        for ring in rings:
            units = 0
            for _ in range(40):
                u = ring.elem([rng.randrange(ring.pk) for _ in range(ring.d)])
                if mult_det_mod_p(u):
                    assert u * u.inv() == ring.one
                    units += 1
                else:
                    with pytest.raises(PrecisionError):
                        u.inv()
            assert units > 20

    def test_generator_is_x_mod_h(self):
        # x = -h_0 mod (x + h_0) on a linear modulus; x itself for d > 1
        assert (ExtRing(5, 4, (-2, 1)).gen - 2).is_zero()
        assert ExtRing(7, 3, (0, 1)).gen.is_zero()
        x = ExtRing(5, 4, galois._P).gen
        assert x.coords == (0, 1, 0) and x**3 == x * x + x + 1

    @pytest.mark.parametrize("p", [47, 13])  # d = 1, d = 2
    @pytest.mark.parametrize("prec", [1, 24])
    def test_non_units_raise(self, p, prec):
        ring = ExtRing(p, prec, galois._P)
        zero_divisors = [ring.gen - r for r in roots_mod_p_oracle(p)]
        multiples = [ring.zero, ring.embed(p), p * ring.elem([1, 2, 3])]
        for g in zero_divisors + multiples:
            with pytest.raises(PrecisionError):
                g.inv()

    def test_extension_exp_log_round_trip(self):
        rng = random.Random(10)
        ring = lifted_roots(7, 16)[0]
        for _ in range(25):
            z = ring.elem([7 * rng.randrange(7**14) for _ in range(3)])
            assert z.exp().log() == z
            u = ring.one + z
            assert u.log().exp() == u

    def test_exp_additive_in_extension(self):
        rng = random.Random(12)
        ring = lifted_roots(13, 12)[0]
        for _ in range(20):
            z = ring.elem([13 * rng.randrange(13**10) for _ in range(2)])
            w = ring.elem([13 * rng.randrange(13**10) for _ in range(2)])
            assert (z + w).exp() == z.exp() * w.exp()

    def test_galois_stable_sums_project(self):
        ring, roots, weights = lifted_roots(5, 16)
        pk = 5**16
        for m in (-7, -1, 0, 1, 9, 40):
            acc = ring.zero
            for ci, li in zip(weights, roots):
                acc = acc + ci * li**m
            assert zp_residue(acc) == trib_mod(m, pk)


class TestFactorHelpers:
    def test_factorize_round_trip(self):
        rng = random.Random(4)
        for _ in range(40):
            n = rng.randrange(2, 10**12)
            fac = factorize(n)
            prod = 1
            for q, e in fac.items():
                assert is_prime(q)
                prod *= q**e
            assert prod == n

    def test_factorize_semiprime_beyond_trial_bound(self):
        n = 1_000_003 * 1_000_033
        fac = factorize(n)
        assert fac == {1_000_003: 1, 1_000_033: 1}

    @pytest.mark.parametrize("q, r", [(10_007, 10_009), (99_991, 100_003), (2**31 - 1, 2**61 - 1)])
    def test_factorize_semiprime_with_both_factors_past_trial_division(self, q, r):
        # both factors exceed the trial bound 10^4, so rho must split n itself
        fac = factorize(q * r)
        assert math.prod(f**e for f, e in fac.items()) == q * r
        assert all(is_prime(f) for f in fac)
        assert fac == {q: 1, r: 1}

    def test_primes_upto(self):
        ps = primes_upto(600)
        assert len(ps) == 109 and ps[0] == 2 and ps[-1] == 599

    def test_is_prime_spot(self):
        assert is_prime(599) and not is_prime(1) and not is_prime(561)

    def test_is_prime_rejects_strong_pseudoprime_to_first_12_bases(self):
        assert not is_prime(PSI_12) and PSI_12 == 399165290221 * 798330580441
        assert is_prime(399165290221) and is_prime(798330580441)
        ps = set(primes_upto(200_000))
        assert all(is_prime(n) == (n in ps) for n in range(200_001))

    def test_lcm_sanity(self):
        assert math.lcm(46, 31) == 1426
