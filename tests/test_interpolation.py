import functools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tribadic
import tribadic.interpolation as interpolation
import conftest
from tribadic import (
    ConditionNotMet,
    PrecisionError,
    hensel_zero,
    prime_context,
    series_coeffs,
    trib,
    trib_mod,
    trib_val,
)
from tribadic.classifier import QT, _zero_table, certify, class_series
from tribadic.interpolation import SeriesTrunc
from tribadic.padic import _vp, vp_factorial
from tribadic.tribonacci import _phi, _xpow
from tribadic._factor import primes_upto
from tribadic.galois import EXCLUDED_PRIMES

from conftest import (
    OracleRing,
    _P,
    _plain_horner,
    cube_root_certificate,
    hensel_cube_root,
    known_val,
    lifted_roots,
    log_series_oracle,
    series_eval,
    slopes,
    zp_residue,
)


def eval_f(ctx, ell, z):
    """Oracle: f_l(z) = phi(x^l exp(z log x^N)) mod p^prec in the test ring modulo P, for an int
    z; it agrees with T(l + zN) at integers z, and p^e g(z) from series_coeffs must equal it."""
    ring = OracleRing(ctx.p, ctx.prec, _P)
    x_ell, x_n = (ring.elem(_xpow(n, ring.pk)) for n in (ell, ctx.n_period))
    return _phi((x_ell * (x_n.log() * z).exp()).coords, ring.pk)


class TestSeriesCoeffs:
    def test_beta0_is_t21_over_5(self, ctx5):
        # beta_0 = T(21)/5 gives Newton's start b0 = -beta_0/beta_1, here with d0 = 1: the series
        # is built at l' = 21 + 31 = 52, so gamma_0 = T(52)/5
        assert trib(21) == 121415
        ser = series_coeffs(ctx5, 21)
        assert ser.e == 1
        beta_1 = series_oracle(ctx5, 21, 1, 1, 1)[1]
        assert (ser.start * beta_1 + 121415 // 5) % 5**24 == 0 and ser.start % 5 == 1
        assert ser.coeffs[0] == trib(52) // 5 % 5**24

    def test_condition_46_enforced(self, ctx5):
        with pytest.raises(ConditionNotMet) as err:
            series_coeffs(ctx5, 1)  # T(1) = 1
        assert err.value.condition == "divisibility"

    def test_p3_beta1_valuation(self):
        # single-period series at l = 0: nu_3(beta_1) = 1
        ctx = prime_context(3, 24)
        ser = series_coeffs(ctx, 0, 1)
        assert ser.e == 1
        assert known_val(ser.coeffs[1], 3, 24) == 1

    def test_p3_multiplier_3_divisor_and_slope(self):
        # triple-period series at l = -4: divisor exponent 2, nu_3(beta_1) = 3
        ctx = prime_context(3, 24)
        ser = series_coeffs(ctx, -4, 3)
        assert ser.e == 2
        assert ser.coeffs[0] == 0
        assert known_val(ser.coeffs[1], 3, 24) == 3

    @pytest.mark.parametrize("p, ell, s", [(3, 0, 1), (3, 35, 3), (5, 21, 1), (7, 0, 1), (83, 270, 1), (269, 179, 1)])
    def test_log_val_is_the_valuation_of_the_logs(self, p, ell, s):
        # log_val comes from nu_p(lambda^(sN) - 1); the logarithms themselves must agree
        ctx = prime_context(p, 24)
        ser = series_coeffs(ctx, ell, s)
        assert ser.log_val == min((lam ** (s * ctx.n_period)).log().val() for lam in lifted_roots(p, 24)[1])

    def test_higher_coefficients_in_p_zp(self):
        for p in (5, 7, 13):
            ctx = prime_context(p, 20)
            ell = next(l for l in range(ctx.n_period) if trib_mod(l, p) == 0)
            ser = series_coeffs(ctx, ell)
            for beta in ser.coeffs[2:]:
                assert beta % p == 0

    def test_tail_bound_certified(self, ctx5):
        # on the disc, gamma_k u^k and the terms of g' vanish mod p^prec for p | u and every k > J':
        # (k-1)(E+1) - nu_p((k-1)!) >= prec; at 0 (p = 3, l = 0), (k-1)E - nu_p(k!) >= prec for k > J
        ser = series_coeffs(ctx5, 21)
        assert ser.start is not None
        cut = len(ser.coeffs) - 1
        for k in range(cut + 1, cut + 20):
            assert (k - 1) * (ser.log_val + 1) - vp_factorial(k - 1, 5) >= ctx5.prec
        ser = series_coeffs(prime_context(3, 24), 0)
        assert ser.start is None
        cut = len(ser.coeffs) - 1
        for k in range(cut + 1, cut + 20):
            assert (k - 1) * ser.log_val - vp_factorial(k, 3) >= 24

    def test_series_reproduces_function(self, ctx5):
        # p * sum gamma_k (z - d0)^k = f_l(z) for random z on the disc
        ser = series_coeffs(ctx5, 21)
        rng = random.Random(2)
        for _ in range(10):
            z = ser.start % 5 + 5 * rng.randrange(5**23)
            assert 5 * series_eval(ser, z) % 5**24 == eval_f(ctx5, 21, z)

    def test_beta1_matches_divided_difference(self):
        # beta_1 = (T(l+N) - T(l))/p (mod p)
        for p in (5, 7, 13, 47):
            ctx = prime_context(p, 20)
            n_period = ctx.n_period
            for ell in range(n_period):
                if trib_mod(ell, p) != 0:
                    continue
                ser = series_coeffs(ctx, ell)
                delta = (trib_mod(ell + n_period, p * p) - trib_mod(ell, p * p)) % (p * p)
                assert ser.coeffs[1] % p == (delta // p) % p

    def test_derivative_congruent_to_beta1_by_finite_difference(self, ctx5):
        ser = series_coeffs(ctx5, 21)
        beta_1 = series_oracle(ctx5, 21, 1, 1, 1)[1]
        rng = random.Random(7)
        h_exp = 12
        h = 5**h_exp
        for _ in range(8):
            z = ser.start % 5 + 5 * rng.randrange(5**23)
            quotient_residue = ((series_eval(ser, z + h) - series_eval(ser, z)) % 5**24 // 5**h_exp) % 5
            assert quotient_residue == beta_1 % 5


class TestEvalF:
    def test_at_zero_is_t_ell(self, ctx7):
        assert trib(5) == 7
        assert eval_f(ctx7, 5, 0) == 7

    def test_interpolates_sequence(self, ctx5, ctx7):
        rng = random.Random(4)
        for ctx in (ctx5, ctx7):
            pk = ctx.p**ctx.prec
            for _ in range(50):
                ell = rng.randrange(ctx.n_period)
                m = rng.randrange(-40, 40)
                assert eval_f(ctx, ell, m) == trib_mod(ell + m * ctx.n_period, pk)

    def test_reads_z_at_its_own_precision(self, ctx5):
        # at precision 3, f_l(z) is known mod 5^3 only: z = 2 and z = 2 + 5^3 agree there, not beyond
        low = prime_context(5, 3)
        got = eval_f(low, 21, 2)
        assert eval_f(low, 21, 2 + 5**3) == got < 5**3
        near = [eval_f(ctx5, 21, z) for z in (2, 2 + 5**3)]
        assert near[0] != near[1]
        assert all(f % 5**3 == got for f in near)

    def test_unit_when_46_fails(self, ctx7):
        # p does not divide T(l): f_l never vanishes
        rng = random.Random(5)
        ells = [l for l in range(ctx7.n_period) if trib_mod(l, 7) != 0]
        for ell in rng.sample(ells, 6):
            for _ in range(5):
                z = rng.randrange(7**24)
                assert eval_f(ctx7, ell, z) % 7 != 0


def binet_series(p, prec, ell, s, e, cut):
    """Reference coefficients: sum c_lambda lambda^l (log lambda^(sN))^k / (p^e k!) over the
    splitting field, from the roots and weights of the lifted_roots oracle, projected to Z_p."""
    n_period = prime_context(p, prec).n_period
    _, roots, weights = lifted_roots(p, prec + e + vp_factorial(cut, p))  # room for the division by p^(e + nu(k!))
    logs = [(lam ** (s * n_period)).log() for lam in roots]
    terms = [c * lam**ell for c, lam in zip(weights, roots)]
    out = []
    for k in range(cut + 1):
        total = zp_residue(terms[0] + terms[1] + terms[2])
        fact = math.factorial(k)
        v = _vp(fact, p)
        assert total % p ** (e + v) == 0, (p, ell, s, k)
        out.append(total // p ** (e + v) * pow(fact // p**v, -1, p**prec) % p**prec)
        terms = [t * lg for t, lg in zip(terms, logs)]
    return out


def binet_f(ctx, ell, z):
    """Reference f_l(z) = sum c_lambda lambda^l exp(z log lambda^N) over the splitting field."""
    ring, roots, weights = lifted_roots(ctx.p, ctx.prec)
    acc = ring.zero
    for c, lam in zip(weights, roots):
        acc = acc + c * lam**ell * ((lam**ctx.n_period).log() * z).exp()
    return zp_residue(acc)


class TestBinetOracle:
    """series_coeffs and the eval_f oracle work in Z_p[x]/(P); the Binet sums over the lifted roots check both."""

    # d = 3, 2, 1, 2, 1, then the p = 3, s = 3 classes, two of them at their Z_T targets
    CLASSES = [(p, info.ell, 1) for p in (5, 13, 47, 83, 269)
               for info in _zero_table(p, prime_context(p, 3).n_period)]
    CLASSES += [(3, ell, 3) for ell in (22, 35, -17, -4)]

    @pytest.mark.parametrize("prec", [3, 24, 96])
    def test_series_coeffs_match_binet_sums(self, prec):
        assert {prime_context(p, 3).d for p, _, _ in self.CLASSES} == {1, 2, 3}
        for p, ell, s in self.CLASSES:
            ser = series_coeffs(prime_context(p, prec), ell, s)
            n, cut = built_at(ser)
            assert list(ser.coeffs) == binet_series(p, prec, n, s, ser.e, cut), (p, ell, s)

    @pytest.mark.parametrize("prec", [3, 24, 96])
    def test_eval_f_matches_binet_sum(self, prec):
        rng = random.Random(prec)
        for p, ell, _ in self.CLASSES:
            ctx = prime_context(p, prec)
            for _ in range(3):
                z = rng.randrange(p**prec)
                assert eval_f(ctx, ell, z) == binet_f(ctx, ell, z), (p, ell, z)


ADMISSIBLE = [p for p in primes_upto(200) if p not in EXCLUDED_PRIMES]


@given(st.sampled_from(ADMISSIBLE), st.integers(0, 10**6), st.sampled_from([1, 2, 3]), st.integers(3, 40))
@example(3, 0, 1, 24)  # l = 0 of p = 3: beta_1 is no unit, so the series is expanded at 0
@settings(max_examples=60, deadline=None)
def test_series_matches_the_integers_it_interpolates(p, pick, s, prec):
    # integer-only oracle: g(m) = T(l + m*sN) / p^e (mod p^prec) for integer m, at every
    # m in [-40, 40] at 0 and at m in d0 + p*[-40, 40] on a disc
    ctx = prime_context(p, prec)
    zeros = [info.ell for info in _zero_table(p, ctx.n_period)]
    ell = zeros[pick % len(zeros)]
    ser = series_coeffs(ctx, ell, s)
    ms = range(-40, 41) if ser.start is None else [ser.start % p + p * j for j in range(-40, 41)]
    pe = p**ser.e
    for m in ms:
        t = trib_mod(ell + m * s * ctx.n_period, pe * p**prec)
        assert t % pe == 0 and series_eval(ser, m) == t // pe, (p, ell, s, prec, m)


def at_zero_oracle(ser):
    """beta_0..beta_J of ser's class at 0 from series_oracle, J = _default_cut(p, E, prec): the
    expansion certified on all of Z_p, whatever ser holds."""
    ctx = ser.ctx
    return series_oracle(ctx, ser.ell, ser.s, ser.e, interpolation._default_cut(ctx.p, ser.log_val, ctx.prec))


@given(st.sampled_from(ADMISSIBLE), st.integers(0, 10**6), st.integers(3, 40), st.integers(-(10**90), 10**90))
@settings(max_examples=60, deadline=None)
def test_residue_horner_matches_a_padic_oracle(p, pick, prec, z):
    # an int z of any size and sign, moved onto the series' disc and read at the series
    # precision; the oracle is Horner over the expansion at 0
    ctx = prime_context(p, prec)
    zeros = [info.ell for info in _zero_table(p, ctx.n_period)]
    ser = series_coeffs(ctx, zeros[pick % len(zeros)])
    centre = 0
    if ser.start is not None:
        z -= (z - ser.start) % p
        centre = ser.start % p
    betas = at_zero_oracle(ser)
    pk = p**prec
    assert series_eval(ser, z) == _plain_horner(betas, z, pk)
    assert _plain_horner(slopes(ser.coeffs), z - centre, pk) == _plain_horner(slopes(betas), z, pk)


ZP_MODULI = [(p, k) for p in (3, 5, 587) for k in (1, 3, 24, 96)]


class TestZpEval:
    """_zp_eval against _plain_horner: every length through 130 (each block boundary, where
    isqrt(n) + 1 divides n, among them), z = 0, z >= m, and powers read mod a larger modulus."""

    @pytest.mark.parametrize("p, k", ZP_MODULI)
    def test_every_length_through_130(self, p, k):
        m = p**k
        rng = random.Random(p * 1000 + k)
        coeffs = [rng.randrange(-m, 8 * m) for _ in range(130)]
        boundaries = 0
        for n in range(1, 131):
            boundaries += n % (math.isqrt(n) + 1) == 0
            for z in (0, 1, rng.randrange(m), m + rng.randrange(m), -rng.randrange(1, m)):
                powers = interpolation._zp_powers(z, n, m)
                assert len(powers) == math.isqrt(n) + 2
                assert interpolation._zp_eval(coeffs[:n], powers, m) == _plain_horner(coeffs[:n], z, m)
        assert boundaries > 5

    @given(
        st.sampled_from(ZP_MODULI), st.integers(1, 130),
        st.one_of(st.just(0), st.integers(0, 10**300)), st.integers(0, 96),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_plain_horner(self, modulus, n, z, extra, rng):
        p, k = modulus
        m = p**k
        coeffs = [rng.randrange(-(m**2), m**2) for _ in range(n)]
        # powers taken mod p^(k + extra) are also right mod p^k, as hensel_zero's g' reads them
        powers = interpolation._zp_powers(z, n, m * p**extra)
        assert interpolation._zp_eval(coeffs, powers, m) == _plain_horner(coeffs, z, m)

    def test_no_coefficients_is_zero(self):
        assert interpolation._zp_eval([], interpolation._zp_powers(7, 0, 125), 125) == 0


@functools.lru_cache(maxsize=None)
def _log_oracle(p, ring_prec, sn):
    ring = OracleRing(p, ring_prec, _P)
    return log_series_oracle(ring.elem(_xpow(sn, ring.pk)))


def series_oracle(ctx, ell, s, e, J):
    """beta_0..beta_J residues, one coefficient at a time: log x^(sN) summed directly (and kept
    per ring), and the inverse of k!'s unit part built up from pow's inverse of k's."""
    p, prec = ctx.p, ctx.prec
    pk = p**prec
    log_x = _log_oracle(p, prec + e + vp_factorial(J, p), s * ctx.n_period)
    ring = log_x.ring
    term = ring.elem(_xpow(ell, ring.pk))
    out = [trib_mod(ell, p ** (prec + e)) // p**e]
    fact_inv, vfac = 1, 0
    for k in range(1, J + 1):
        term = term * log_x
        w = _vp(k, p)
        vfac += w
        fact_inv = fact_inv * pow(k // p**w, -1, pk) % pk
        phi = (term.coords[1] + term.coords[2]) % ring.pk
        assert phi % p ** (e + vfac) == 0
        out.append(phi // p ** (e + vfac) * fact_inv % pk)
    return out


def built_at(ser):
    """(n, J) of what series_coeffs built.  Where beta_1, read off series_oracle, is a unit, n is
    the disc's class l' = l + d0*sN, with d0 = b0 mod p for Newton's start b0 = -beta_0/beta_1,
    and J' = max(1, _default_cut(p, E + 1, prec - 1)); else n = l and J = _default_cut(p, E, prec).
    The series' start must be that b0, or None."""
    ctx = ser.ctx
    p, prec = ctx.p, ctx.prec
    pk = p**prec
    beta_0, beta_1 = series_oracle(ctx, ser.ell, ser.s, ser.e, 1)
    if beta_1 % p == 0:
        assert ser.start is None
        return ser.ell, interpolation._default_cut(p, ser.log_val, prec)
    b0 = -beta_0 * pow(beta_1, -1, pk) % pk
    assert ser.start == b0
    return ser.ell + b0 % p * ser.s * ctx.n_period, max(1, interpolation._default_cut(p, ser.log_val + 1, prec - 1))


def built_oracle(ser):
    """series_oracle of the terms series_coeffs built (built_at), at the series' own cut."""
    n, cut = built_at(ser)
    assert len(ser.coeffs) == cut + 1
    return series_oracle(ser.ctx, n, ser.s, ser.e, cut)


def mu_oracle(residues, p, prec):
    """The largest k attaining the least valuation over beta_0..beta_J (a zero residue counting as
    prec); None if every beta_k vanishes."""
    vals = [prec if r == 0 else _vp(r, p) for r in residues]
    best = min(vals)
    return None if best >= prec else max(k for k, v in enumerate(vals) if v == best)


class TestSeriesAgainstReference:
    # p = 3 with s = 3 (e = 2), then a d = 1, a d = 2 and a d = 3 prime, plus a class of p = 3
    # whose coefficients all vanish at precision 3
    @pytest.mark.parametrize("prec", [3, 24, 96])
    @pytest.mark.parametrize("p, ell, s", [(3, 35, 3), (269, 179, 1), (83, 270, 1), (5, 21, 1), (3, 9, 1)])
    def test_coefficients_and_mu(self, p, ell, s, prec):
        ctx = prime_context(p, prec)
        ser = series_coeffs(ctx, ell, s)
        residues = list(ser.coeffs)
        assert residues == built_oracle(ser)
        mu = mu_oracle(residues, p, prec)
        if mu is None:
            with pytest.raises(PrecisionError):
                ser.mu
        else:
            assert ser.mu == mu

    def test_cases_cover_what_they_claim(self):
        assert [prime_context(p).d for p in (269, 83, 5)] == [1, 2, 3]
        assert series_coeffs(prime_context(3, 24), 35, 3).e == 2
        ser = series_coeffs(prime_context(3, 3), 9, 1)
        assert mu_oracle(list(ser.coeffs), 3, 3) is None


class TestStrassman:
    def test_mu_one_for_p5_ell21(self, ctx5):
        assert series_coeffs(ctx5, 21).mu == 1

    def test_unit_beta1_gives_mu_one(self):
        for p in (7, 13, 17):
            ctx = prime_context(p, 20)
            for ell in range(ctx.n_period):
                if trib_mod(ell, p) != 0:
                    continue
                ser = series_coeffs(ctx, ell)
                if ser.coeffs[1] % p:
                    assert ser.mu == 1

    def test_dominant_constant_term_gives_mu_zero(self, ctx5):
        ser = series_coeffs(ctx5, 21)
        tweaked = SeriesTrunc(
            ser.ctx, ser.ell, ser.s, ser.e, ser.log_val,
            (3,) + tuple(5 * b % 5**24 for b in ser.coeffs[1:]),
        )
        assert tweaked.mu == 0

    def test_all_vanishing_raises(self, ctx5):
        ser = series_coeffs(ctx5, 21)
        dead = SeriesTrunc(
            ser.ctx, ser.ell, ser.s, ser.e, ser.log_val,
            (0,) * len(ser.coeffs),
        )
        for _ in range(2):  # a raise caches nothing
            with pytest.raises(PrecisionError):
                dead.mu
        assert "mu" not in vars(dead)

    def test_mu_is_kept_on_the_series(self, ctx5):
        ser = series_coeffs(ctx5, 21)
        assert "mu" not in vars(ser)
        assert ser.mu == 1 and vars(ser)["mu"] == 1
        assert ser == series_coeffs(ctx5, 21)  # the kept value is no field: equality ignores it


class TestHenselZero:
    def test_p5_ell21_unique_zero_with_u2(self, ctx5):
        rec = hensel_zero(series_coeffs(ctx5, 21))
        assert rec.series.mu == 1
        a = 21 + 31 * rec.b
        assert a % 5 == 2  # the published u

    def test_integer_zero_at_zt_class(self, ctx83):
        # l = 0 sits over Z_T: the zero is exactly 0
        rec = hensel_zero(series_coeffs(ctx83, 0))
        assert rec.b == 0

    def test_quadratic_convergence(self, ctx5, ctx83):
        rng = random.Random(8)
        for ctx in (ctx5, ctx83):
            candidates = [l for l in range(ctx.n_period) if trib_mod(l, ctx.p) == 0]
            for ell in rng.sample(candidates, min(3, len(candidates))):
                ser = series_coeffs(ctx, ell)
                if ser.coeffs[1] % ctx.p == 0:
                    continue
                rec = hensel_zero(ser)
                vals = rec.residual_vals
                for i in range(len(vals) - 1):
                    assert vals[i + 1] >= min(2 * vals[i], ctx.prec)
                assert vals[-1] >= ctx.prec
                # the zero really is a zero
                assert series_eval(ser, rec.b) == 0

    def test_condition_48_failure_raises(self):
        ctx = prime_context(3, 24)
        with pytest.raises(ConditionNotMet) as err:
            hensel_zero(series_coeffs(ctx, 0))
        assert err.value.condition == "derivative"

    @pytest.mark.parametrize("prec", [24, 96, 192])
    def test_digits_reassemble_the_zero(self, prec):
        rec = hensel_zero(series_coeffs(prime_context(587, prec), 98))
        digits = rec.digits()
        assert len(digits) == prec and all(0 <= d < 587 for d in digits)
        assert sum(d * 587**i for i, d in enumerate(digits)) == rec.b


# (p, s) -> the zero classes l: p = 3 with s = 3, then a d = 3, a d = 2 and a d = 1 prime
KERNEL_CLASSES = {(3, 3): [22, 35, -17, -4]}
KERNEL_CLASSES.update({(p, 1): [info.ell for info in _zero_table(p, prime_context(p, 3).n_period)]
                       for p in (5, 83, 587)})


@pytest.mark.parametrize("prec", [3, 24, 97])
@pytest.mark.parametrize("p, s", sorted(KERNEL_CLASSES))
@given(pick=st.integers(0, 10**6))
@settings(max_examples=4, deadline=None)
def test_recurrence_series_matches_repeated_ring_products(p, s, prec, pick):
    # series_coeffs reads s_k = phi(x^n L^k) off the Cayley-Hamilton recurrence of L = log x^(sN);
    # the oracle multiplies x^n by L once per coefficient in the test ring, with L summed directly and
    # e = min(nu_p(L), nu_p(T(l))) found without the program's series code
    ells = KERNEL_CLASSES[p, s]
    ell = ells[pick % len(ells)]
    ctx = prime_context(p, prec)
    ser = series_coeffs(ctx, ell, s)
    log_val = log_series_oracle(OracleRing(p, prec, _P).elem(_xpow(s * ctx.n_period, p**prec))).val()
    assert ser.e == min(log_val, trib_val(ell, p))
    assert list(ser.coeffs) == built_oracle(ser)


def _ring_newton(ser):
    """Oracle: hensel_zero's iterates on plain residues mod p^prec on the expansion at 0 of
    at_zero_oracle, from -beta_0/beta_1: g(b) and g'(b) read by _plain_horner mod p^prec, and
    g'(b) inverted by pow."""
    p, prec = ser.ctx.p, ser.ctx.prec
    pk = p**prec
    betas = at_zero_oracle(ser)
    derivative = slopes(betas)
    b = -betas[0] * pow(betas[1], -1, pk) % pk
    vals = []
    for _ in range(100):
        g = _plain_horner(betas, b, pk)
        vals.append(known_val(g, p, prec))
        if vals[-1] >= prec:
            return b, vals
        b = (b - g * pow(_plain_horner(derivative, b, pk), -1, pk)) % pk
    raise AssertionError("the ring Newton did not converge")


class TestNewtonOnResidues:
    @pytest.mark.parametrize("prec", [3, 24, 96])
    @pytest.mark.parametrize("p", [5, 13, 83, 269, 587])
    def test_iterates_match_a_padic_newton(self, p, prec):
        ctx = prime_context(p, prec)
        checked = 0
        for info in _zero_table(p, ctx.n_period):
            ser = series_coeffs(ctx, info.ell)
            if ser.start is None:
                continue
            rec = hensel_zero(ser)
            assert (rec.b, list(rec.residual_vals)) == _ring_newton(ser), (p, info.ell)
            checked += 1
        assert checked

    def test_p5_ell21_doubles_to_precision_96(self):
        rec = hensel_zero(series_coeffs(prime_context(5, 96), 21))
        assert rec.residual_vals == (1, 3, 7, 15, 31, 63, 96)

    def test_vanishing_derivative_at_an_iterate_raises(self, ctx5):
        # g = -1 + z + 2z^2 over Z_5, on the disc of b_0 = 1: g(1 + u) = 2 + 5u + 2u^2, and
        # g'(1) = 5, so the first step has no unit to divide by
        ser = SeriesTrunc(ctx5, 21, 1, 1, 1, tuple(c % 5**24 for c in (2, 5, 2)), 1)
        with pytest.raises(PrecisionError):
            hensel_zero(ser)


def disc_classes():
    """(p, l, s) of every derivative-ok zero class of an admissible p < 200, then three with
    s = p at l = 0 (p = 7 and 19: E = 2) and p = 587, l = 98."""
    out = []
    for p in primes_upto(200):
        if p not in EXCLUDED_PRIMES:
            out += [(p, info.ell, 1) for info in _zero_table(p, prime_context(p).n_period) if info.deriv_ok]
    return out + [(7, 0, 7), (13, 0, 13), (587, 98, 1)]


def certificate_oracle(ser, b):
    """The first t in Q_T with z = (t - l)/sN in Z_p and z = b (mod p^prec), b the zero: where
    g is a unit multiple of z - b, the target certify must find, or None."""
    p, prec = ser.ctx.p, ser.ctx.prec
    q = ser.s * ser.ctx.n_period
    vq = _vp(q, p)
    for t in QT:
        num, den = t.as_integer_ratio()
        diff = num - ser.ell * den
        if den % p and diff % p**vq == 0:
            if diff // p**vq * pow(q // p**vq * den, -1, p**prec) % p**prec == b:
                return t
    return None


class TestDiscSeries:
    """Where beta_1 is a unit, series_coeffs builds g on the disc of its zero: J' + 1
    coefficients of g(d0 + u), with mu = 1 by the disc lemma.  The oracles hold the expansion at 0:
    series_oracle, _ring_newton on it, mu_oracle, and the targets the oracle zero sits over."""

    @pytest.mark.parametrize("prec", [3, 24, 96])
    def test_disc_path_agrees_with_the_expansion_at_zero(self, prec):
        for p, ell, s in disc_classes():
            ctx = prime_context(p, prec)
            ser = series_coeffs(ctx, ell, s)
            assert ser.start is not None and list(ser.coeffs) == built_oracle(ser), (p, ell, s, prec)
            assert len(ser.coeffs) - 1 < interpolation._default_cut(p, ser.log_val, prec), (p, ell, s, prec)
            assert (ser.e, ser.mu, mu_oracle(ser.coeffs, p, prec)) == (ser.log_val, 1, 1)
            zero = hensel_zero(ser)
            assert (zero.b, list(zero.residual_vals)) == _ring_newton(ser), (p, ell, s, prec)
            cert = certify(ser)
            assert (cert and cert.a) == certificate_oracle(ser, zero.b), (p, ell, s, prec)

    def test_named_classes(self):
        # s = p: E = 2 at p = 7, l = 0; p = 19, l = 302 has its zero at first digit 0, so l' = l
        ser = series_coeffs(prime_context(7, 24), 0, 7)
        assert (ser.e, ser.log_val) == (2, 2) and ser.start is not None
        ctx = prime_context(19, 24)
        ser = series_coeffs(ctx, 302)
        assert ser.start % 19 == 0 and list(ser.coeffs) == series_oracle(ctx, 302, 1, ser.e, len(ser.coeffs) - 1)

    @pytest.mark.parametrize("p, ell, s", [(5, 21, 1), (7, 0, 7), (19, 302, 1), (587, 98, 1)])
    def test_eval_on_and_off_the_disc(self, p, ell, s):
        # on the disc, the disc's terms and their derivative agree with Horner over the expansion
        # at 0; off it, where they are not certified, g(z) = T(l + sN*z)/p^e is a unit
        ctx = prime_context(p, 24)
        ser = series_coeffs(ctx, ell, s)
        betas = at_zero_oracle(ser)
        pk = p**24
        d0 = ser.start % p
        rng = random.Random(p)
        on = [d0, d0 + p, d0 - p, ser.start] + [d0 + p * rng.randrange(p**24) for _ in range(5)]
        for z in on:
            assert series_eval(ser, z) == _plain_horner(betas, z, pk), z
            assert _plain_horner(slopes(ser.coeffs), z - d0, pk) == _plain_horner(slopes(betas), z, pk), z
        off = [z for z in range(-3, 2 * p) if (z - d0) % p] + [rng.randrange(p**30) * p + d0 + 1]
        for z in off:
            t = trib_mod(ell + z * s * ctx.n_period, p ** (ser.e + 1))
            assert t % p**ser.e == 0 and t // p**ser.e != 0, z

    def test_a_corrupted_disc_powering_raises_under_python_O(self):
        # T(l' + N) from trib_mod off by one, where l' = 21 + d0*31 is the disc's class; then a
        # powering of x^21 with a wrong constant coordinate, which moves x^(l') but not T(21)
        code = (
            "import tribadic.interpolation as i\n"
            "from tribadic import PrecisionError, prime_context\n"
            "assert False, 'not running under -O'\n"
            "ctx = prime_context(5, 24)\n"
            "target = 21 + (i.series_coeffs(ctx, 21).start % 5 + 1) * 31\n"
            "real_mod, real_pow = i.trib_mod, i._xpow\n"
            "i.trib_mod = lambda n, m: (real_mod(n, m) + (n == target)) % m\n"
            "for step in ('trib_mod', 'xpow'):\n"
            "    try:\n"
            "        i.series_coeffs(ctx, 21)\n"
            "        print(step, 'passed')\n"
            "    except PrecisionError as exc:\n"
            "        print(step, 'raised:', exc)\n"
            "    i.trib_mod = real_mod\n"
            "    i._xpow = lambda n, m: (lambda c: ((c[0] + 1) % m, c[1], c[2]))(real_pow(n, m)) if n == 21 else real_pow(n, m)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert "trib_mod raised: phi(x^l * x^(sN)) disagrees with T(l + sN)" in out.stdout
        assert "xpow raised:" in out.stdout, out.stdout


class TestCayleyHamiltonCheck:
    """series_coeffs checks L^3 = t1 L^2 - t2 L + t3 in the ring, once per memo entry, before it
    runs the recurrence.  Every corruption starts on a cold memo and each test ends on one, so no
    entry built from a corrupted _char_poly reaches another test."""

    @pytest.fixture
    def corrupt(self, monkeypatch):
        real = interpolation._char_poly
        interpolation._log_data.cache_clear()

        def corrupt(which, shift):
            def corrupted(a, m):
                t = list(real(a, m))
                t[which] = (t[which] + shift(m)) % m
                return tuple(t)

            monkeypatch.setattr(interpolation, "_char_poly", corrupted)
            interpolation._log_data.cache_clear()

        yield corrupt
        interpolation._log_data.cache_clear()

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_corrupted_coefficient_raises(self, corrupt, which):
        corrupt(which, lambda m: 1)
        with pytest.raises(PrecisionError, match="Cayley-Hamilton"):
            series_coeffs(prime_context(5, 24), 21)

    @pytest.mark.parametrize("which", [0, 1, 2])
    def test_a_last_digit_passes_only_where_the_recurrence_ignores_it(self, corrupt, which):
        # L = 0 (mod p), so p^(R-1) t1 L^2 and p^(R-1) t2 L vanish mod p^R, and so do
        # p^(R-1) t1 s_(k+2) and p^(R-1) t2 s_(k+1); the constant t3 meets no such factor
        ref = series_coeffs(prime_context(5, 24), 21)
        corrupt(which, lambda m: m // 5)  # p^(R-1), p = 5
        if which == 2:
            with pytest.raises(PrecisionError, match="Cayley-Hamilton"):
                series_coeffs(prime_context(5, 24), 21)
        else:
            assert series_coeffs(prime_context(5, 24), 21) == ref

    def test_check_survives_python_O(self):
        code = (
            "import tribadic.interpolation as i\n"
            "from tribadic import PrecisionError, prime_context\n"
            "assert False, 'not running under -O'\n"
            "print('cold:', i._log_data.cache_info().currsize)\n"
            "real = i._char_poly\n"
            "i._char_poly = lambda a, m: (lambda t: (t[0], t[1], t[2] + 1))(real(a, m))\n"
            "try:\n"
            "    i.series_coeffs(prime_context(5, 24), 21)\n"
            "except PrecisionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert "cold: 0\n" in out.stdout
        assert "raised: log x^(sN) fails its Cayley-Hamilton relation" in out.stdout


class TestLogMemo:
    """series_coeffs reads L = log x^(sN), x^(sN) and t1, t2, t3 from one memo entry per
    (p, prec, sN), built mod the largest ring any class needs.  A series must not depend on
    whether its class built that entry (cold) or another class did (warm)."""

    @pytest.fixture(autouse=True)
    def cold_after(self):
        yield
        interpolation._log_data.cache_clear()

    @staticmethod
    def cold_and_warm(ctx, ell, s, warmers):
        interpolation._log_data.cache_clear()
        cold = series_coeffs(ctx, ell, s)
        interpolation._log_data.cache_clear()
        for other in warmers:
            series_coeffs(ctx, other, s)
        hits = interpolation._log_data.cache_info().hits
        warm = series_coeffs(ctx, ell, s)
        assert interpolation._log_data.cache_info().hits == hits + 1
        return cold, warm

    @pytest.mark.parametrize("s", [0, -1])
    @pytest.mark.parametrize("ell", [1, 21])
    def test_a_bad_multiplier_is_rejected_before_any_work(self, s, ell):
        # p = 5 does not divide T(1): the multiplier is still what is reported, and no entry is made
        interpolation._log_data.cache_clear()
        with pytest.raises(ValueError, match="multiplier") as info:
            series_coeffs(prime_context(5, 24), ell, s)
        assert not isinstance(info.value, ConditionNotMet)
        assert interpolation._log_data.cache_info().currsize == 0

    @pytest.mark.parametrize(
        "prec, s, ell, warmers",
        [(prec, 3, 7, [22, 35]) for prec in (3, 24, 96)]
        + [(prec, 9, ell, warmers) for prec in (24, 96) for ell, warmers in ((7, [0, 22]), (22, [7]))],
    )
    def test_p3_below_and_at_the_log_valuation(self, prec, s, ell, warmers):
        # p = 3, s = 3, l = 7 has e = 1 < E = 2, and s = 9, l = 7 has e = 1 < E = 3: their
        # rings sit below the entry's; l = 22 with s = 9 has e = E = 3 (E >= prec at precision 3)
        ctx = prime_context(3, prec)
        cold, warm = self.cold_and_warm(ctx, ell, s, warmers)
        assert cold == warm
        assert (cold.e, cold.log_val) == ((3, 3) if ell == 22 else (1, {3: 2, 9: 3}[s]))
        assert list(cold.coeffs) == built_oracle(cold)

    @pytest.mark.parametrize("prec", [3, 24, 96])
    @pytest.mark.parametrize("p", [5, 83, 269, 587])
    def test_every_class_cold_and_warm(self, p, prec):
        ctx = prime_context(p, prec)
        ells = [info.ell for info in _zero_table(p, ctx.n_period)][:6]
        for i, ell in enumerate(ells):
            cold, warm = self.cold_and_warm(ctx, ell, 1, ells[:i] + ells[i + 1:])
            assert cold == warm, (p, prec, ell)


class TestClassifyZero:
    """The target a located zero sits over, as its class's linear certificate reads it."""

    def test_p83_all_four_integer_classes(self, ctx83):
        got = {}
        for ell in range(ctx83.n_period):
            if trib_mod(ell, 83) != 0:
                continue
            series = class_series(ctx83, ell)
            assert len(hensel_zero(series).digits()) == 24
            cert = certify(series)
            assert type(cert.a) is int
            got[ell] = cert.a
        assert sorted(got.values()) == [-17, -4, -1, 0]

    def test_p269_six_classes(self, ctx269):
        values = set()
        for ell in range(ctx269.n_period):
            if trib_mod(ell, 269) != 0:
                continue
            series = class_series(ctx269, ell)
            assert len(hensel_zero(series).digits()) == 24
            values.add(certify(series).a)
        assert values == {0, -1, -4, -17, Fraction(1, 3), Fraction(-5, 3)}

    def test_p5_zero_is_one_third(self, ctx5):
        # u = 2 = 1/3 mod 5 and the zero sits over 1/3
        series = class_series(ctx5, 21)
        rec, cert = hensel_zero(series), certify(series)
        assert cert.a == Fraction(1, 3)
        # independent consequence: nu_5(T(n)) > 0 wherever n = 1/3 + 31 * 5^k-ish points land
        a = 21 + 31 * rec.b
        assert known_val(3 * a - 1, 5, ctx5.prec) >= ctx5.prec - 2


class TestCubeRootCertificate:
    """The cube-root identity of conftest.cube_root_certificate at the fully split primes."""

    def test_smallest_qualifying_prime_scan(self):
        found = []
        for p in primes_upto(400):
            if p in (2, 11) or p % 3 != 2:
                continue
            if prime_context(p).d == 1:
                found.append(p)
        assert found[:5] == [47, 53, 257, 269, 311]

    def test_certificate_for_first_prime(self):
        rep = cube_root_certificate(prime_context(47, 24), samples=40, max_extra_val=5)
        assert rep.ok
        assert rep.sum_one_third_vanishes and rep.sum_minus_five_thirds_vanishes
        assert rep.symmetric_identity_holds

    def test_rejects_wrong_splitting(self, ctx5):
        with pytest.raises(ValueError):
            cube_root_certificate(ctx5)  # d = 3 at p = 5

    @staticmethod
    def spy_cube_root(monkeypatch):
        # the certificate's first phi is phi(y), y the cube root of x it computed
        seen = []
        real = conftest._phi
        monkeypatch.setattr(conftest, "_phi", lambda g: seen.append(g) or real(g))
        return seen

    def test_cube_root_of_x_equals_hensel_lifting(self, monkeypatch):
        # the Newton oracle from x^(3^-1 mod N), which cubes to x mod p, at every p < 700 with
        # d = 1 and 3 prime to N
        family = [p for p in primes_upto(700) if p not in EXCLUDED_PRIMES and prime_context(p).d == 1
                  and prime_context(p).n_period % 3]
        seen = self.spy_cube_root(monkeypatch)
        for p in family:
            for prec in (3, 24, 96):
                ctx = prime_context(p, prec)
                seen.clear()
                cube_root_certificate(ctx, samples=0)
                ring = OracleRing(p, prec, _P)
                start = ring.elem(_xpow(pow(3, -1, ctx.n_period), ring.pk))
                assert seen[0] == hensel_cube_root(ring.gen, start), (p, prec)
        assert len(family) == 12

    def test_a_wrong_exponent_fails_the_cube_check(self, monkeypatch):
        # x^(e + 1) in place of x^e: the y^3 = x check must raise, not certify from a wrong root
        ctx = prime_context(47, 24)
        monkeypatch.setattr(conftest, "_xpow", lambda n, m: _xpow(n + 1, m))
        with pytest.raises(AssertionError, match="fails y\\^3 = x"):
            cube_root_certificate(ctx, samples=0)

    def test_cube_checks_survive_python_O(self):
        # the acceptance suite also runs under -O: the y^3 = x check must be a raise
        code = (
            "import conftest\n"
            "from tribadic import prime_context\n"
            "assert False, 'not running under -O'\n"
            "ctx = prime_context(47, 24)\n"
            "real = conftest._xpow\n"
            "conftest._xpow = lambda n, m: real(n + 1, m)\n"
            "try:\n"
            "    conftest.cube_root_certificate(ctx, samples=0)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        path = os.pathsep.join(str(d) for d in (Path(tribadic.__file__).parents[1], Path(__file__).parent))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, timeout=120,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["raised: the cube root of x fails y^3 = x mod 47^24"]

    @pytest.mark.parametrize("prec", [24, 96])
    def test_certificate_matches_the_sums_over_lifted_roots(self, prec):
        # oracle: the Binet sums over the Newton-lifted roots, with integer Hensel cube roots
        family = [p for p in primes_upto(600) if p not in EXCLUDED_PRIMES and prime_context(p).d == 1
                  and prime_context(p, prec).n_period % 3]
        assert len(family) == 10 and family[:5] == [47, 53, 257, 269, 311]
        for p in family:
            ctx = prime_context(p, prec)
            pk = p**prec
            _, roots, weights = lifted_roots(p, prec)
            lams = [lam.coords[0] for lam in roots]
            cs = [c.coords[0] for c in weights]
            cubes = []
            for lam in lams:
                y = pow(lam % p, pow(3, -1, ctx.n_period), p)
                for _ in range(prec.bit_length() + 1):
                    y = (y - (y**3 - lam) * pow(3 * y * y, -1, pk)) % pk
                assert (y**3 - lam) % pk == 0
                cubes.append(y)
            s13 = sum(c * y for c, y in zip(cs, cubes)) % pk
            s53 = sum(c * pow(y, -5, pk) for c, y in zip(cs, cubes)) % pk
            sym = (sum(c**3 * lam for c, lam in zip(cs, lams)) - 3 * cs[0] * cs[1] * cs[2]) % pk
            rep = cube_root_certificate(ctx, samples=4)
            assert (rep.sum_one_third_vanishes, rep.sum_minus_five_thirds_vanishes, rep.symmetric_identity_holds) == (
                s13 == 0, s53 == 0, sym == 0
            ), p
            assert rep.ok, p
