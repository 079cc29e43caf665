import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribadic import prime_context, val_int
import tribadic.padic as padic
from tribadic.interpolation import _log, _log_cutoff, _val
from tribadic.tribonacci import _mul

from conftest import _P, OracleRing, known_val, log_series_oracle


def zp(p, prec, residue):
    """residue as an element of the test ring's Z_p mod p^prec, h = (0, 1)."""
    return OracleRing(p, prec, (0, 1)).embed(residue)


def oracle(c, p, prec):
    """The coordinate triple c of R = Z_p[x]/(P) mod p^prec as an element of the test ring modulo P."""
    return OracleRing(p, prec, _P).elem(c)


def recurrence_oracle(n):
    # direct forward recurrence, independent of the matrix path
    a, b, c = 0, 1, 1
    for _ in range(n):
        a, b, c = b, c, a + b + c
    return a


def trial_division_valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


class TestValInt:
    def test_24_base_2(self):
        assert val_int(24, 2) == 3

    def test_t21_base_5(self):
        t21 = recurrence_oracle(21)
        assert t21 == 121415
        assert val_int(121415, 5) == trial_division_valuation(t21, 5) == 1

    def test_t13_base_3(self):
        t13 = recurrence_oracle(13)
        assert t13 == 927 == 3**2 * 103
        assert val_int(927, 3) == trial_division_valuation(t13, 3) == 2

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            val_int(0, 5)

    def test_composite_p_rejected(self):
        with pytest.raises(ValueError):
            val_int(8, 6)

    @given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_additivity(self, a, b):
        assert val_int(a * b, 5) == val_int(a, 5) + val_int(b, 5)


class TestInverse:
    """The test ring's inverse, Newton from a residue inverse, which lifted_roots and
    hensel_cube_root divide by."""

    def test_one(self):
        one = zp(5, 3, 1)
        assert one.inv() == one

    def test_two_mod_125(self):
        y = zp(5, 3, 2).inv()
        assert y.coords == (63,)  # 2 * 63 = 126

    def test_three_mod_169_against_extended_gcd(self):
        # extended-gcd oracle
        def egcd(a, b):
            if b == 0:
                return a, 1, 0
            g, x, y = egcd(b, a % b)
            return g, y, x - (a // b) * y

        g, x, _ = egcd(3, 169)
        assert g == 1
        (y,) = zp(13, 2, 3).inv().coords
        assert y == x % 169
        assert 3 * y % 169 == 1

    def test_non_unit_rejected(self):
        with pytest.raises(ZeroDivisionError):
            zp(5, 3, 10).inv()


class TestUnitInverse:
    """unit_inverse, pow(a, -1, p) lifted by Newton steps, against pow(a, -1, p^k)."""

    @given(st.sampled_from([3, 5, 13, 587]), st.integers(1, 200), st.integers(-(10**600), 10**600))
    @settings(max_examples=200, deadline=None)
    def test_matches_pow(self, p, k, a):
        if a % p == 0:
            with pytest.raises(ValueError):
                padic.unit_inverse(a, p, k)
        else:
            assert padic.unit_inverse(a, p, k) == pow(a, -1, p**k)

    @pytest.mark.parametrize("k", [1, 2, 3, 24, 96])
    def test_every_unit_and_non_units(self, k):
        for a in [1, 2, 4, 6, 7**k - 1, 7**k + 1, 7**k * 3 + 5, -3]:
            assert padic.unit_inverse(a, 7, k) == pow(a, -1, 7**k)
        for a in (0, 7, 49 * 3, -7, 7**k, 7 ** (k + 1)):
            with pytest.raises(ValueError):
                padic.unit_inverse(a, 7, k)

    @pytest.mark.parametrize("p", [3, 5, 587])
    @pytest.mark.parametrize("prec", [1, 24, 96])
    def test_zp_inverse_and_power_are_unit_inverse_and_pow(self, p, prec):
        # on the test ring's Z_p, inv is unit_inverse and ** is builtin pow; a non-unit raises
        rng = random.Random(p * prec)
        pk = p**prec
        for a in [1, 2, p - 1, p + 1, pk - 1] + [rng.randrange(pk) for _ in range(20)]:
            if a % p == 0:
                continue
            x = zp(p, prec, a)
            assert x.inv().coords == (padic.unit_inverse(a, p, prec),)
            for e in (0, 1, 2, p, 10**40 + 7):
                assert (x**e).coords == (pow(a, e, pk),)
            assert (x**-3).coords == (pow(a, -3, pk),)
        for a in (0, p, p * 2, p * (pk - 1)):
            with pytest.raises(ZeroDivisionError):
                zp(p, prec, a).inv()


class TestValuationAtTwo:
    """_vp reads nu_2 off the lowest set bit; it must agree with the division loop."""

    @given(st.integers(1, 2**300))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_loop(self, x):
        for y in (x, -x):
            assert padic._vp(y, 2) == trial_division_valuation(y, 2)

    def test_powers_of_two_and_their_neighbours(self):
        for k in range(200):
            for y in (2**k, -(2**k), 3 * 2**k, -(5 * 2**k), 2**k * (2**70 + 1)):
                assert padic._vp(y, 2) == trial_division_valuation(y, 2) == k


def ring_horner_series(x, coeffs, den, slack):
    """Oracle: sum_n coeffs[n] x^n / den for an element x of the test ring, by plain Horner, one
    product per coefficient, slack digits deeper than x's ring, then one exact division by den."""
    ring = x.ring
    big = ring.lifted(slack)
    y = x.lift_to(big)
    acc = big.zero
    for c in reversed(coeffs):
        acc = acc * y + c
    return (acc.div_exact_p(slack) * pow(den // ring.p**slack, -1, big.pk)).lift_to(ring)


RING_MODULI = [(0, 1), _P]  # the test ring's Z_p and R


def log_terms(p, prec, v):
    """The terms (-1)^(n-1) L/n of log at an argument of valuation v, L = lcm(1..cut), with L
    and slack = nu_p(L)."""
    cut, slack = _log_cutoff(p, prec, v)
    lcm = math.lcm(*range(1, cut + 1))
    return [0] + [(-1) ** (n - 1) * (lcm // n) for n in range(1, cut + 1)], lcm, slack


class TestBlockedRingSeries:
    """_log, blocked Horner over its own terms, against ring_horner_series in the test ring
    modulo P."""

    @given(
        st.sampled_from([3, 5, 587]), st.sampled_from([1, 3, 24, 96]),
        st.integers(1, 4), st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_series_matches_ring_horner(self, p, prec, v, rng):
        # y = 1 + w with coordinates of any sign and nu_p(w) >= v: the series is cut at the
        # actual valuation, so its length and its slack vary with p, prec and w
        pk = p**prec
        w = [p**v * rng.randrange(-pk, 2 * pk) for _ in range(3)]
        ring_w = oracle(w, p, prec)
        log = _log((1 + w[0], w[1], w[2]), p, prec)
        if ring_w.val() >= prec:
            assert log == (0, 0, 0)
            return
        assert log == ring_horner_series(ring_w, *log_terms(p, prec, ring_w.val())).coords

    @pytest.mark.parametrize("modulus", RING_MODULI)
    @pytest.mark.parametrize("p, prec", [(3, 1), (3, 24), (5, 3), (5, 96), (587, 24), (587, 96)])
    def test_exp_and_log(self, p, prec, modulus):
        # the test ring's exp and log invert each other, in Z_p and in R; in R, _log is
        # ring_horner_series over its own terms, and the test ring's exp inverts it
        ring = OracleRing(p, prec, modulus)
        rng = random.Random(p * prec)
        for _ in range(4):
            w = ring.elem([p * rng.randrange(p**prec) for _ in range(ring.d)])
            assert (w + 1).log().exp() == w + 1 and w.exp().log() == w
            if modulus != _P:
                continue
            log = _log((w + 1).coords, p, prec)
            assert oracle(log, p, prec).exp() == w + 1
            v = w.val()
            if v >= prec:
                continue
            assert log == ring_horner_series(w, *log_terms(p, prec, v)).coords


def exp_series_oracle(z, p, prec):
    # sum z^n / n! as exact rationals until the guaranteed tail valuation passes prec
    total = Fraction(0)
    n = 0
    while True:
        tail_val = n - trial_division_valuation_factorial(n, p)
        if n > 0 and tail_val >= prec:
            break
        total += Fraction(z) ** n / factorial(n)
        n += 1
    den = total.denominator
    assert den % p != 0
    return total.numerator * pow(den, -1, p**prec) % p**prec


def factorial(n):
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def trial_division_valuation_factorial(n, p):
    return trial_division_valuation(factorial(n), p) if n > 1 else 0


class TestExpLog:
    """log in R (_log) on the constants Z_p and on all of 1 + pR, with the test ring's
    exp, the direct series, as its inverse; the test ring's exp against exact rationals."""

    def test_exp_zero(self):
        assert zp(7, 4, 0).exp() == zp(7, 4, 1)

    def test_exp_7_against_series_oracle(self):
        r = zp(7, 4, 7).exp()
        assert r.coords == (exp_series_oracle(7, 7, 4),)
        assert (r - 1).val() == 1
        assert r.log() == zp(7, 4, 7)
        assert _log((r.coords[0], 0, 0), 7, 4) == (7, 0, 0)

    def test_exp_preserves_valuation(self):
        rng = random.Random(11)
        for p in (3, 5, 13):
            for _ in range(40):
                v = rng.randrange(1, 6)
                unit = rng.randrange(1, p)
                z = zp(p, 20, unit * p**v)
                assert (z.exp() - 1).val() == v == z.val()

    @given(st.integers(min_value=1, max_value=10**9), st.integers(min_value=1, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_exp_additive(self, a, b):
        p, prec = 7, 16
        z, w = zp(p, prec, p * a), zp(p, prec, p * b)
        assert (z + w).exp() == z.exp() * w.exp()

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=50, deadline=None)
    def test_log_multiplicative(self, a):
        p, prec = 5, 16
        pk = p**prec
        u = (1 + p * a, 0, 0)
        assert _log(_mul(u, u, pk), p, prec) == tuple(2 * c % pk for c in _log(u, p, prec))

    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=50, deadline=None)
    def test_exp_log_round_trip(self, a):
        p, prec = 11, 16
        u = (1 + p * a, p * (a // 7), p * (a // 13))
        assert oracle(_log(u, p, prec), p, prec).exp() == oracle(u, p, prec)

    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=50, deadline=None)
    def test_log_exp_round_trip(self, a):
        p, prec = 3, 16
        z = tuple(c % p**prec for c in (p * a, p * (a // 7), p * (a // 13)))
        assert _log(oracle(z, p, prec).exp().coords, p, prec) == z

    @pytest.mark.parametrize("prec", [24, 97])
    @pytest.mark.parametrize("v", [1, 2, 4])
    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_log_cutoff_follows_the_valuation(self, p, v, prec):
        # the log series stops at the cutoff of nu_p(u - 1) = v; it must agree with the series
        # summed as far as v = 1 requires, on the constants of R and on all of R
        rng = random.Random(p * 1000 + v * 100 + prec)
        pk = p**prec
        for _ in range(4):
            w = p**v * rng.choice([1, p - 1, rng.randrange(1, pk)])
            c = [p**v * rng.randrange(pk) for _ in range(3)]
            for g in ((1 + w, 0, 0), (1 + c[0], c[1], c[2])):
                log_g, ring_g = _log(g, p, prec), oracle(g, p, prec)
                assert oracle(log_g, p, prec) == log_series_oracle(ring_g)
                assert _log((ring_g**p).coords, p, prec) == tuple(p * c % pk for c in log_g)
                assert oracle(log_g, p, prec).exp() == ring_g

    def test_log_one(self):
        assert _log((1, 0, 0), 5, 8) == (0, 0, 0) == _log((1 + 5**8, -(5**9), 0), 5, 8)

    def test_exp_needs_positive_valuation(self):
        with pytest.raises(ValueError):
            zp(5, 8, 2).exp()

    def test_log_needs_one_mod_p(self):
        for y in ((3, 0, 0), (1, 1, 0), (6, 5, -1)):
            with pytest.raises(ValueError):
                _log(y, 5, 8)


class TestPAdicInt:
    """p-adic integers mod p^K as the constants of R = Z_p[x]/(P)."""

    def test_residue_range_and_known_val(self):
        # products land in [0, p^K); _val reads off a triple the valuation its residues certify
        pk = 5**4
        assert _mul((-1, 0, 0), (1, 0, 0), pk) == (pk - 1, 0, 0) and _val((pk - 1, 0, 0), 5, 4) == 0
        for r, v in ((0, 4), (50, 2), (-1, 0), (5**5, 4)):
            assert _val((r, 0, 0), 5, 4) == _val((0, 0, r), 5, 4) == known_val(r, 5, 4) == v

    def test_pow_negative(self):
        x = zp(7, 5, 3)
        assert x ** (-2) == (x.inv()) ** 2

    def test_p2_rejected(self):
        # R's log needs an odd p: p = 2 is rejected where a prime's context is built, before any
        # series
        with pytest.raises(ValueError):
            prime_context(2, 4)

    @pytest.mark.parametrize("modulus", RING_MODULI)
    def test_ring_bounds(self, modulus):
        # p < 3 and prec < 1 are rejected where the test ring is built, so its exp cutoff never
        # divides by p - 2 = 0; log and exp run on the smallest rings admitted
        for p, prec in ((2, 4), (1, 4), (0, 4), (-5, 4), (5, 0), (5, -1)):
            with pytest.raises(ValueError):
                OracleRing(p, prec, modulus)
        oracle = OracleRing(3, 1, modulus)
        assert _log((4, 0, 0), 3, 1) == (0, 0, 0) and oracle.embed(3).exp() == oracle.one
