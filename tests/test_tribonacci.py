import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribadic import VAL_INF, ZERO_SET, prime_context, trib, trib_mod, trib_val
from tribadic._factor import primes_upto
from tribadic.galois import EXCLUDED_PRIMES
from tribadic.padic import val_int
from tribadic.tribonacci import _xpow

from conftest import lifted_roots, zp_residue


def forward_oracle(n):
    a, b, c = 0, 1, 1
    for _ in range(n):
        a, b, c = b, c, a + b + c
    return a


def companion_power(n, m=None):
    """M^n for the companion matrix M of the recurrence (M^-1 for n < 0), reduced mod m
    unless m is None: the 3x3 matrix path that x-powering replaced, kept as an oracle."""
    mat = ((1, 1, 1), (1, 0, 0), (0, 1, 0)) if n >= 0 else ((0, 1, 0), (0, 0, 1), (1, -1, -1))
    out = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def mul(a, b):
        prod = tuple(tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3)) for i in range(3))
        return prod if m is None else tuple(tuple(x % m for x in row) for row in prod)

    e = abs(n)
    while e:
        if e & 1:
            out = mul(out, mat)
        mat = mul(mat, mat)
        e >>= 1
    return out


class TestTrib:
    def test_initial_values(self):
        assert (trib(0), trib(1), trib(2)) == (0, 1, 1)

    def test_integer_zero_set(self):
        for n in ZERO_SET:
            assert trib(n) == 0

    def test_ten(self):
        # 0,1,1,2,4,7,13,24,44,81,149
        assert trib(10) == forward_oracle(10) == 149

    def test_matches_forward_oracle(self):
        for n in range(60):
            assert trib(n) == forward_oracle(n)

    def test_recurrence_on_window(self):
        for n in range(-100, 101):
            assert trib(n + 3) == trib(n + 2) + trib(n + 1) + trib(n)


class TestTribMod:
    def test_21_mod_5(self):
        assert forward_oracle(21) == 121415
        assert trib_mod(21, 5) == 0

    def test_6_mod_13(self):
        assert forward_oracle(6) == 13
        assert trib_mod(6, 13) == 0

    def test_random_consistency_with_exact(self):
        rng = random.Random(0)
        for _ in range(200):
            n = rng.randrange(-1000, 1001)
            m = rng.randrange(2, 10**6)
            assert trib_mod(n, m) == trib(n) % m

    @given(st.integers(min_value=-300, max_value=300), st.integers(min_value=2, max_value=10**9))
    @settings(max_examples=60, deadline=None)
    def test_consistency_property(self, n, m):
        assert trib_mod(n, m) == trib(n) % m

    def test_modulus_validation(self):
        with pytest.raises(ValueError):
            trib_mod(5, 1)


class TestXPow:
    """x^n = c0 + c1 x + c2 x^2 in Z[x]/(P) is the reversed last row of M^n, and T(n) = c1 + c2."""

    @given(st.integers(min_value=-(2**200), max_value=2**200), st.integers(min_value=2, max_value=10**40))
    @settings(max_examples=150, deadline=None)
    def test_trib_mod_matches_companion_matrix(self, n, m):
        row = companion_power(n, m)[2]
        assert trib_mod(n, m) == (row[0] + row[1]) % m
        assert _xpow(n, m) == row[::-1]

    def test_exact_powers(self):
        for n in range(-300, 301):
            c0, c1, c2 = _xpow(n, None)
            assert (c0, c1, c2) == companion_power(n)[2][::-1]
            assert c1 + c2 == trib(n)
        assert [trib(n) for n in range(-4, 6)] == [0, -1, 1, 0, 0, 1, 1, 2, 4, 7]

    def test_period_powers_match_matrix_rows(self):
        # the powers _zero_scan reads: x^N mod p^2 for every admissible p < 400, 757, 1999
        for p in [p for p in primes_upto(399) if p not in EXCLUDED_PRIMES] + [757, 1999]:
            n_period = prime_context(p, 24).n_period
            assert _xpow(n_period, p * p) == companion_power(n_period, p * p)[2][::-1], p


class TestTribVal:
    def test_published_values(self):
        assert trib(7) == 24
        assert trib_val(7, 2) == 3
        assert trib_val(13, 3) == 2

    def test_zero_set_is_infinite(self):
        for p in (2, 3, 5, 103):
            assert trib_val(-4, p) == VAL_INF

    def test_matches_exact_valuation(self):
        rng = random.Random(1)
        for _ in range(100):
            n = rng.randrange(-200, 201)
            if n in ZERO_SET:
                continue
            p = rng.choice([2, 3, 5, 7, 13])
            assert trib_val(n, p) == val_int(trib(n), p)

    def test_adaptive_precision(self):
        # T(13 * 3^9) has 3-valuation 9 + 2 = 11, larger than a start precision of 4
        n = 13 * 3**9
        assert trib_val(n, 3, start_prec=4) == 11

    def test_prime_validation(self):
        with pytest.raises(ValueError):
            trib_val(10, 10)


class TestAnalyticConsistency:
    def test_binet_sum_matches(self, ctx5, ctx7):
        # sum over roots of c * lambda^n must reproduce T(n) in Z_p
        for ctx in (ctx5, ctx7):
            pk = ctx.p**ctx.prec
            ring, roots, weights = lifted_roots(ctx.p, ctx.prec)
            for n in range(-50, 51):
                acc = ring.zero
                for ci, li in zip(weights, roots):
                    acc = acc + ci * li**n
                assert zp_residue(acc) == trib_mod(n, pk)

    def test_interpolation_is_lipschitz(self):
        # nu_p(T(l + N m1) - T(l + N m2)) >= nu_p(m1 - m2)
        rng = random.Random(3)
        for p in (5, 7, 13):
            ctx = prime_context(p, 24)
            n_period = ctx.n_period
            pk = p**20
            for _ in range(25):
                ell = rng.randrange(n_period)
                v = rng.randrange(0, 5)
                m1 = rng.randrange(1, 50) * p**v
                m2 = 0
                diff = (trib_mod(ell + n_period * m1, pk) - trib_mod(ell + n_period * m2, pk)) % pk
                got = val_int(diff, p) if diff else 20
                assert got >= val_int(m1 - m2, p)
