import builtins
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tribadic import ExtRing, PrecisionError, cube_root, val_int
import tribadic.padic as padic
from tribadic._factor import primes_upto
from tribadic.galois import _P

from conftest import hensel_cube_root, log_series_oracle


def zp(p, prec, residue):
    """residue as an element of Z_p mod p^prec: the d = 1 ring."""
    return ExtRing(p, prec, (0, 1)).embed(residue)


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
        with pytest.raises(PrecisionError):
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

    def test_padic_inv_keeps_its_error(self):
        # the Z_p inverse raises PrecisionError on a non-unit, where unit_inverse raises ValueError
        with pytest.raises(PrecisionError):
            zp(587, 96, 587 * 11).inv()
        assert zp(587, 96, 5).inv().coords == (pow(5, -1, 587**96),)


def ring_horner_series(x, coeffs, den, slack):
    """Oracle: sum_n coeffs[n] x^n / den by plain ring Horner, one product per coefficient,
    slack digits deeper than x's ring, then one exact division by den."""
    ring = x.ring
    big = ring.lifted(slack)
    y = x.lift_to(big)
    acc = big.zero
    for c in reversed(coeffs):
        acc = acc * y + c
    return (acc.div_exact_p(slack) * pow(den // ring.p**slack, -1, big.pk)).lift_to(ring)


RING_MODULI = [(0, 1), _P]  # d = 1 and d = 3


class TestBlockedRingSeries:
    """ExtElem._series, exp and log against ring_horner_series, for d = 1 and d = 3."""

    @given(
        st.sampled_from([3, 5, 587]), st.sampled_from([1, 3, 24, 96]), st.sampled_from(RING_MODULI),
        st.integers(1, 130), st.integers(0, 3), st.randoms(use_true_random=False),
    )
    @settings(max_examples=120, deadline=None)
    def test_series_matches_ring_horner(self, p, prec, modulus, n, slack, rng):
        ring = ExtRing(p, prec, modulus)
        x = ring.elem([rng.randrange(-(p**prec), 2 * p**prec) for _ in range(ring.d)])
        den = p**slack * rng.choice([1, 2, 7, 1 + p])
        # coefficients divisible by p^slack, so the exact division always succeeds
        coeffs = [p**slack * rng.randrange(-(p ** (2 * prec)), p ** (2 * prec)) for _ in range(n)]
        assert x._series(coeffs, den, slack) == ring_horner_series(x, coeffs, den, slack)

    @pytest.mark.parametrize("modulus", RING_MODULI)
    @pytest.mark.parametrize("p, prec", [(3, 1), (3, 24), (5, 3), (5, 96), (587, 24), (587, 96)])
    def test_exp_and_log(self, p, prec, modulus):
        ring = ExtRing(p, prec, modulus)
        rng = random.Random(p * prec)
        for _ in range(4):
            w = ring.elem([p * rng.randrange(p**prec) for _ in range(ring.d)])
            cut = padic._exp_cutoff(p, prec)
            facts = [math.factorial(cut) // math.factorial(n) for n in range(cut + 1)]
            assert w.exp() == ring_horner_series(w, facts, facts[0], padic.vp_factorial(cut, p))
            v = w.val()
            if v >= prec:
                continue
            cut, slack = padic._log_cutoff(p, prec, v)
            lcm = math.lcm(*range(1, cut + 1))
            terms = [0] + [(-1) ** (n - 1) * (lcm // n) for n in range(1, cut + 1)]
            assert (w + 1).log() == ring_horner_series(w, terms, lcm, slack)


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
    def test_exp_zero(self):
        assert zp(7, 4, 0).exp() == zp(7, 4, 1)

    def test_exp_7_against_series_oracle(self):
        r = zp(7, 4, 7).exp()
        assert r.coords == (exp_series_oracle(7, 7, 4),)
        assert (r - 1).val() == 1
        assert r.log() == zp(7, 4, 7)

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
        u = zp(p, prec, 1 + p * a)
        assert (u * u).log() == 2 * u.log()

    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=50, deadline=None)
    def test_exp_log_round_trip(self, a):
        p, prec = 11, 16
        u = zp(p, prec, 1 + p * a)
        assert u.log().exp() == u

    @given(st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=50, deadline=None)
    def test_log_exp_round_trip(self, a):
        p, prec = 3, 16
        z = zp(p, prec, p * a)
        assert z.exp().log() == z

    @pytest.mark.parametrize("prec", [24, 97])
    @pytest.mark.parametrize("v", [1, 2, 4])
    @pytest.mark.parametrize("p", [3, 5, 13])
    def test_log_cutoff_follows_the_valuation(self, p, v, prec):
        # the log series stops at the cutoff of nu_p(u - 1) = v; it must agree with the series
        # summed as far as v = 1 requires, in Z_p and in R = Z_p[x]/(P)
        rng = random.Random(p * 1000 + v * 100 + prec)
        for _ in range(4):
            w = p**v * rng.choice([1, p - 1, rng.randrange(1, p**prec)])
            ring = ExtRing(p, prec, _P)
            for g in (zp(p, prec, 1 + w), ring.one + ring.elem([p**v * rng.randrange(p**prec) for _ in range(3)])):
                log_g = g.log()
                assert log_g == log_series_oracle(g)
                assert (g**p).log() == p * log_g
                assert log_g.exp() == g

    def test_log_one(self):
        assert zp(5, 8, 1).log().is_zero()

    def test_exp_needs_positive_valuation(self):
        with pytest.raises(ValueError):
            zp(5, 8, 2).exp()

    def test_log_needs_one_mod_p(self):
        with pytest.raises(ValueError):
            zp(5, 8, 3).log()


class TestCubeRoot:
    def test_unit_one(self):
        assert cube_root(zp(5, 3, 1)) == zp(5, 3, 1)

    def test_exhaustive_oracle_p5(self):
        expected = [y for y in range(125) if y**3 % 125 == 2]
        assert len(expected) == 1
        assert cube_root(zp(5, 3, 2)).coords == (expected[0],)

    def test_defining_identity_and_inverse(self):
        rng = random.Random(5)
        for p in (5, 17, 23):
            for _ in range(100):
                u = zp(p, 12, rng.randrange(1, p**12))
                if u.val():
                    continue
                y = cube_root(u)
                assert y * y * y == u
                assert cube_root(u * u * u) == u

    def test_one_powering_equals_hensel_lifting(self):
        # the Newton oracle from the residue start u^((2p-1)/3 mod (p-1)), on seeded random units
        # of every p = 2 (mod 3) below 700
        rng = random.Random(700)
        family = [p for p in primes_upto(700) if p % 3 == 2 and p > 2]
        checked = 0
        for p in family:
            for k in (1, 3, 24, 96):
                for _ in range(5):
                    u = zp(p, k, rng.randrange(1, p**k))
                    if u.val():
                        continue
                    start = zp(p, k, pow(u.coords[0] % p, (2 * p - 1) // 3 % (p - 1), p))
                    assert cube_root(u) == hensel_cube_root(u, start), (p, k, u)
                    checked += 1
        assert len(family) == 64 and checked == 1271

    def test_a_wrong_exponent_fails_the_cube_check(self, monkeypatch):
        # u^(e + 1) in place of u^e: the y^3 = u check must raise, not return a wrong root
        def off_by_one(base, exp, mod):
            return builtins.pow(base, exp if exp < 0 else exp + 1, mod)

        monkeypatch.setattr(padic, "pow", off_by_one, raising=False)
        with pytest.raises(AssertionError, match="fails y\\^3 = u"):
            cube_root(zp(5, 3, 2))

    def test_rejects_p_1_mod_3(self):
        with pytest.raises(ValueError):
            cube_root(zp(7, 4, 2))

    def test_rejects_p_3(self):
        with pytest.raises(ValueError):
            cube_root(zp(3, 4, 2))

    def test_rejects_a_non_unit_and_a_wider_ring(self):
        with pytest.raises(ValueError, match="unit"):
            cube_root(zp(5, 3, 10))
        with pytest.raises(ValueError, match="d = 1"):
            cube_root(ExtRing(5, 3, _P).embed(2))


class TestPAdicInt:
    """p-adic integers mod p^K as the d = 1 ring Z/p^K."""

    def test_residue_range_and_known_val(self):
        x = zp(5, 4, -1)
        assert x.coords == (5**4 - 1,) and x.val() == 0
        assert zp(5, 4, 0).val() == 4
        assert zp(5, 4, 50).val() == 2

    def test_mixed_primes_rejected(self):
        with pytest.raises(ValueError):
            zp(5, 4, 1) + zp(7, 4, 1)

    def test_mixed_precisions_rejected(self):
        # elements at two precisions belong to two rings: nothing truncates silently
        with pytest.raises(ValueError):
            zp(5, 6, 7) * zp(5, 3, 2)

    def test_pow_negative(self):
        x = zp(7, 5, 3)
        assert x ** (-2) == (x.inv()) ** 2

    def test_p2_rejected(self):
        with pytest.raises(ValueError):
            zp(2, 4, 1)

    @pytest.mark.parametrize("modulus", RING_MODULI)
    def test_ring_bounds(self, modulus):
        # p < 3 and prec < 1 are rejected where the ring is built, so exp's cutoff never
        # divides by p - 2 = 0
        for p, prec in ((2, 4), (1, 4), (0, 4), (-5, 4), (5, 0), (5, -1)):
            with pytest.raises(ValueError):
                ExtRing(p, prec, modulus).one.exp()
        ring = ExtRing(3, 1, modulus)  # the smallest ring admitted
        assert ring.embed(3).exp() == ring.one
