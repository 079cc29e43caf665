"""Analytic interpolation of the Tribonacci sequence along residue classes mod the period.

In R = Z_p[x]/(P), x acts as the companion matrix of the recurrence, and
T(n) = phi(x^n) for the linear form phi(a + bx + cx^2) = b + c; phi(g) is the
Binet sum of g over the roots of P.  For l with p | T(l), the function
f_l(z) = phi(x^l exp(z log x^(sN))) interpolates m -> T(l + m*sN).  This module
extracts the power-series coefficients beta_k of g = f_l / p^e in R with a
certified tail bound (every x^n read from tribonacci._xpow, so no power of x is
ever inverted), bounds their number on Z_p (Strassman's mu, SeriesTrunc.mu) and locates the
zero (Hensel iteration); classifier.class_series escalates the precision of one class's
series, and everything about the class is read off that one series.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul

from ._factor import crt_pair
from .galois import _P, PrimeContext
from .padic import (
    ExtElem,
    ExtRing,
    PrecisionError,
    _vp,
    unit_inverse,
    val_int,
    vp_factorial,
)
from .tribonacci import _xpow, trib_mod, trib_val

ZERO_TARGETS_RAT = (Fraction(1, 3), Fraction(-5, 3))


class ConditionNotMet(ValueError):
    """A vanishing-condition precondition failed; .condition names which one."""

    def __init__(self, condition: str, message: str):
        super().__init__(message)
        self.condition = condition


def _zp_powers(z: int, n: int, m: int) -> list[int]:
    """z^0..z^s mod m, s = isqrt(n) + 1: the baby steps _zp_eval needs for n coefficients."""
    z %= m
    powers = [1, z]
    for _ in range(math.isqrt(n)):
        powers.append(powers[-1] * z % m)
    return powers


def _zp_eval(coeffs: list[int], powers: list[int], m: int) -> int:
    """The polynomial with coefficients coeffs, lowest degree first, mod m at the z whose powers
    z^0..z^s (mod a multiple of m) are given: each block of s coefficients is summed against
    z^0..z^(s-1) without reduction, and one Horner step in z^s and one reduction join the blocks."""
    s = len(powers) - 1
    top = powers[s]
    acc = 0
    for i in range((len(coeffs) - 1) // s * s, -1, -s):
        acc = (acc * top + sum(map(mul, coeffs[i : i + s], powers))) % m
    return acc


class SeriesTrunc(namedtuple("SeriesTrunc", "ctx ell s e log_val coeffs")):
    """Truncated coefficients beta_0..beta_J (a tuple of residues mod p^prec) of g = f_l / p^e,
    built with period s*N.

    log_val is E = nu_p(log x^(sN)) in Z_p[x]/(P), the minimum over the roots; the tail obeys
    nu_p(beta_k) >= (k-1)*E - nu_p(k!), which is >= prec for every k > J by the
    choice of J, so the truncation is certified.  No __slots__: mu is cached in the instance dict.
    """

    @property
    def cut(self) -> int:
        return len(self.coeffs) - 1

    def tail_val_bound(self, k: int) -> int:
        return (k - 1) * self.log_val - vp_factorial(k, self.ctx.p)

    def _at(self, z: int, coeffs) -> int:
        m = self.ctx.p**self.ctx.prec
        return _zp_eval(coeffs, _zp_powers(z, len(coeffs), m), m)

    def eval(self, z: int) -> int:
        """g(z) mod p^prec by blocked Horner evaluation of the truncated series."""
        return self._at(z, self.coeffs)

    def eval_deriv(self, z: int) -> int:
        return self._at(z, [k * self.coeffs[k] for k in range(1, self.cut + 1)])

    @cached_property
    def mu(self) -> int:
        """Strassman's bound: the largest index attaining the maximal |beta_k|, computed once.

        mu = 1 also certifies a linear valuation formula: at any zero in Z_p, the
        recentred series has the same mu, so its linear coefficient dominates.
        The certified tail (nu >= prec for k > J) rules the tail out as long as
        some computed coefficient is nonzero mod p^prec; if all vanish, precision
        escalation is required and a PrecisionError is raised (and nothing is cached).
        The least valuation is read from g = gcd(p^prec, beta_0, ..., beta_J) = p^min,
        and mu is the last k with beta_k nonzero mod p*g.
        """
        pk = self.ctx.p ** self.ctx.prec
        g = math.gcd(pk, *self.coeffs)
        if g == pk:
            raise PrecisionError("all series coefficients vanish mod p^prec; double the precision")
        m = g * self.ctx.p
        return max(k for k, r in enumerate(self.coeffs) if r % m)


class ZeroRecord(namedtuple("ZeroRecord", "b residual_vals series")):
    """The zero b (a residue mod p^prec, at the series' precision) of g that hensel_zero
    certifies on series, the SeriesTrunc it was found on.

    residual_vals logs nu_p(g(b_i)) over the Newton iterates, which the test suite uses to
    observe quadratic convergence.  Whether b is g's only zero on Z_p is series.mu == 1,
    and which target a = l + sN*b is, if any, classifier.certify(series) says.
    """

    __slots__ = ()

    def digits(self) -> list[int]:
        """The base-p digits of b, least significant first: prec of them."""
        p, r, out = self.series.ctx.p, self.b, []
        for _ in range(self.series.ctx.prec):
            r, d = divmod(r, p)
            out.append(d)
        return out


def _default_cut(p: int, log_val: int, prec: int) -> int:
    # smallest J with (k-1)*E - nu_p(k!) >= prec for all k > J, via nu_p(k!) <= (k-1)/(p-1)
    num = prec * (p - 1)
    den = log_val * (p - 1) - 1
    return -(-num // den)


def _phi(g: ExtElem) -> int:
    # phi(a + bx + cx^2) = b + c: T(n) = phi(x^n), and phi(g) = sum c_lambda g(lambda)
    return (g.coords[1] + g.coords[2]) % g.ring.pk


def _char_poly(a: ExtElem) -> tuple[int, int, int]:
    """(t1, t2, t3): the trace, the sum of the principal 2x2 minors and the determinant of
    multiplication by a, read off its columns a, a*x and a*x^2.  By Cayley-Hamilton,
    a^3 = t1 a^2 - t2 a + t3."""
    x = a.ring.gen
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = a.coords, (a * x).coords, (a * x * x).coords
    minor0 = m11 * m22 - m12 * m21
    t1 = m00 + m11 + m22
    t2 = minor0 + m00 * m22 - m02 * m20 + m00 * m11 - m01 * m10
    t3 = m00 * minor0 - m01 * (m10 * m22 - m12 * m20) + m02 * (m10 * m21 - m11 * m20)
    pk = a.ring.pk
    return t1 % pk, t2 % pk, t3 % pk


@lru_cache(maxsize=1024)  # bounded; a scan to 780 builds 133 entries, a table after it none
def _log_data(p: int, prec: int, sn: int, J: int | None):
    """What series_coeffs shares across the classes of one (p, prec, sN, J):
    (E, J, top, shared) with E = nu_p(log x^(sN)), J the cut (the default where None) and
    top = prec + E + nu_p(J!), the exponent of the largest ring any class needs (e <= E).
    shared is (x^(sN), L, L^2, (t1, t2, t3)): the coordinates mod p^top of x^(sN), of
    L = log x^(sN) and of L^2, and L's characteristic polynomial, whose Cayley-Hamilton relation
    L^3 = t1 L^2 - t2 L + t3 is checked here, once; it is None where E >= prec, which
    series_coeffs rejects.  L is log(x^(sN*p)) / p, whose argument lies one digit deeper
    in 1 + pR, so its series is about half as long."""
    # nu_p(log y) = nu_p(y - 1) on 1 + pR for odd p: P is squarefree mod p, so R is a
    # product of unramified rings and its coordinate valuation is the minimum over the roots
    log_val = (ExtRing(p, prec, _P).elem(_xpow(sn, p**prec)) - 1).val()
    if J is None:
        J = _default_cut(p, log_val, prec)
    top = prec + log_val + vp_factorial(J, p)
    if log_val >= prec:
        return log_val, J, top, None
    ring = ExtRing(p, top, _P)
    deep = ring.lifted(1)
    log_x = deep.elem(_xpow(sn * p, deep.pk)).log().div_exact_p(1).lift_to(ring)
    log_x2 = log_x * log_x
    t1, t2, t3 = _char_poly(log_x)
    if log_x2 * log_x != t1 * log_x2 - t2 * log_x + t3:
        raise PrecisionError("log x^(sN) fails its Cayley-Hamilton relation in Z_p[x]/(P)")
    return log_val, J, top, (_xpow(sn, ring.pk), log_x.coords, log_x2.coords, (t1, t2, t3))


def series_coeffs(ctx: PrimeContext, ell: int, s: int = 1, J: int | None = None) -> SeriesTrunc:
    """Coefficients of g = f_l / p^e modulo p^prec.

    Requires condition (p | T(l)); the divisor exponent is
    e = min(nu_p(log x^(sN)), nu_p(T(l))), which gives e = 1 in the
    single-period case and reproduces the p = 3, s = 3 exponent e = 2.
    One powering of x^l, mod p^(prec + E + nu_p(J!)) with E = nu_p(log x^(sN)) >= e, gives
    the divisibility test, e, beta_0 and the first term of the series.
    Coefficient k is s_k / k! with s_k = phi(x^l L^k), L = log x^(sN), computed mod
    p^(prec + e + nu_p(J!)) and divided exactly by p^(e + nu_p(k!)); the unit part of J!
    is inverted once and each k!^(-1) read on the way back down.  s_0, s_1 and s_2 are
    read from ring products; after them the Cayley-Hamilton relation
    L^3 = t1 L^2 - t2 L + t3, checked in the ring once per (p, prec, s), gives the scalar
    recurrence s_(k+3) = t1 s_(k+2) - t2 s_(k+1) + t3 s_k.  L, its square and t1, t2, t3 come
    from _log_data, built once per (p, prec, sN, J) and reduced here to this class's ring.
    """
    if s < 1:
        raise ValueError("period multiplier s must be >= 1")
    p, prec = ctx.p, ctx.prec
    sn = s * ctx.n_period
    log_val, J, top, shared = _log_data(p, prec, sn, J)
    x_ell = _xpow(ell, p**top)
    t_ell = (x_ell[1] + x_ell[2]) % p**top
    if t_ell % p:
        raise ConditionNotMet("divisibility", f"p = {p} does not divide T({ell})")
    if log_val >= prec:
        raise PrecisionError(f"log(x^(sN)) vanishes mod {p}^{prec}")
    e = log_val if t_ell % p**log_val == 0 else _vp(t_ell, p)
    # the class's ring is p^(top - E + e): below top only where e < E
    ring = ExtRing(p, top - log_val + e, _P)
    pk = ring.pk
    x_sn, log_x, log_x2 = (ring.elem(v) for v in shared[:3])
    t1, t2, t3 = (t % pk for t in shared[3])
    term = ring.elem(x_ell)
    # ring._mul against _xpow's own product: phi(x^l * x^(sN)) = T(l + sN)
    if _phi(term * x_sn) != trib_mod(ell + sn, pk):
        raise PrecisionError("phi(x^l * x^(sN)) disagrees with T(l + sN) in Z_p[x]/(P)")
    phis = [t_ell % pk, _phi(term * log_x), _phi(term * log_x2)]
    while len(phis) <= J:
        phis.append((t1 * phis[-1] - t2 * phis[-2] + t3 * phis[-3]) % pk)
    pk_small = p**prec
    # units[k] is the unit part of k and divs[k] = p^(e + nu_p(k!)); inv_fact[k], the inverse of
    # the unit part of k!, is walked down from the one inverse of J!'s unit part
    units, divs, fact_unit = [1], [p**e], 1
    for k in range(1, J + 1):
        w = _vp(k, p)
        units.append(k // p**w if w else k)
        divs.append(divs[-1] * p**w)
        fact_unit = fact_unit * units[k] % pk_small
    inv_fact = [0] * (J + 1)
    acc = unit_inverse(fact_unit, p, prec)
    for k in range(J, 0, -1):
        inv_fact[k] = acc
        acc = acc * units[k] % pk_small
    coeffs = [t_ell // p**e % pk_small]
    for k in range(1, J + 1):
        s_k, div = phis[k], divs[k]
        if s_k % div:
            raise PrecisionError("series coefficient not divisible by p^(e + nu(k!))")
        coeffs.append(s_k // div * inv_fact[k] % pk_small)
    return SeriesTrunc(ctx, ell, s, e, log_val, tuple(coeffs))


def hensel_zero(series: SeriesTrunc) -> ZeroRecord:
    """The zero of g certified by Hensel's lemma, via Newton iteration.

    Requires beta_1 to be a unit (condition T(l+N) != T(l) mod p^2); the start
    b_0 = -beta_0 beta_1^(-1) then satisfies |g(b_0)| < 1, |g'(b_0)| = 1.  Each step is
    b - g(b) / g'(b) mod p^prec on plain residues, the coefficient lists of g and g' built
    once.  The powers of b mod p^prec that _zp_eval reads are computed once per step and serve g'
    too.  With g(b) = 0 (mod p^r) the quotient needs g'(b) only mod p^(prec - r), so g' is
    evaluated and inverted there, and a g'(b) divisible by p stops the iteration.  Every step
    runs at full precision: the residual valuations it reports are those of the exact iterates.
    """
    p, prec = series.ctx.p, series.ctx.prec
    pk = p**prec
    values = series.coeffs
    if values[1] % p == 0:
        raise ConditionNotMet(
            "derivative", f"g'(0) = 0 mod p at l = {series.ell}: T(l+N) = T(l) (mod p^2)"
        )
    slopes = [k * values[k] for k in range(1, len(values))]
    b = -values[0] * unit_inverse(values[1], p, prec) % pk
    residuals = []
    for _ in range(4 * prec.bit_length() + 8):
        powers = _zp_powers(b, len(values), pk)
        g = _zp_eval(values, powers, pk)
        r = _vp(g, p) if g else prec
        residuals.append(r)
        if r >= prec:
            break
        m = p ** (prec - r)
        slope = _zp_eval(slopes, powers, m)
        if slope % p == 0:
            raise PrecisionError(f"g'(b) = 0 mod {p}: Newton iteration cannot continue")
        b = (b - g // p**r * unit_inverse(slope, p, prec - r) * p**r) % pk
    else:
        raise PrecisionError("Newton iteration failed to reach a zero mod p^prec")
    return ZeroRecord(b, tuple(residuals), series)


# ---------------------------------------------------------------------------
# cube-root certificates (the nu_p(T(n)) >= nu_p(n - 1/3) family)


class CubeRootReport(namedtuple("CubeRootReport", "p n_period sum_one_third_vanishes sum_minus_five_thirds_vanishes "
                                 "symmetric_identity_holds samples inequality_failures")):
    """Verification report for the cube-root zero identities at a fully split prime; each
    inequality failure is (n, nu(T(n)), nu(n - r))."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.sum_one_third_vanishes
            and self.sum_minus_five_thirds_vanishes
            and self.symmetric_identity_holds
            and not self.inequality_failures
        )


def cube_root_certificate(
    ctx: PrimeContext, samples: int = 100, max_extra_val: int = 6, seed: int = 0
) -> CubeRootReport:
    """Certify sum c_lambda lambda^(1/3) = 0 and sum c_lambda lambda^(-5/3) = 0 (mod p^prec),
    then sample n = 1/3 (mod p-1) and check nu_p(T(n)) >= nu_p(n - 1/3), and likewise
    for -5/3.

    Requires all roots rational (d = 1) and 3 coprime to N; for p = 2 (mod 3)
    that is automatic and the canonical cube roots are used.  The cube root y of x in
    Z_p[x]/(P) comes from one powering of x, and y^3 = x is checked by a raise.  The samples
    come from random.Random(seed), imported here: no command calls this.
    """
    import random

    p, prec = ctx.p, ctx.prec
    n_period = ctx.n_period
    if ctx.d != 1:
        raise ValueError("cube-root certificate needs all roots in Q_p (d = 1)")
    if n_period % 3 == 0:
        raise ValueError("cube-root certificate needs 3 coprime to the period N")
    # In R = Z_p[x]/(P), phi(g) is the Binet sum of g over the roots.  x^N = 1 (mod p), so
    # x^(N p^(K-1)) = 1 (mod p^K) and, 3 being prime to that order, y = x^(3^-1 mod N p^(K-1))
    # cubes to x: the Hensel lift of x^(3^-1 mod N), which cubes to x mod p.  y^-5 = x^-2 * y
    ring = ExtRing(p, prec, _P)
    x = ring.gen
    y = ring.elem(_xpow(pow(3, -1, n_period * p ** (prec - 1)), ring.pk))
    if y * y * y != x:
        raise AssertionError(f"the cube root of x fails y^3 = x mod {p}^{prec}")
    s13_ok, s53_ok = _phi(y) == 0, _phi(ring.elem(_xpow(-2, ring.pk)) * y) == 0
    # Newton's-identity certificate sum c^3 lambda = 3 prod c, with c = w(lambda) for
    # w = x P'(x)^-1 and prod c = prod lambda / prod P'(lambda) = 1/44 (-disc P = 44)
    w = x * (3 * x * x - 2 * x - 1).inv()
    sym_ok = (44 * _phi(w * w * x) - 3) % ring.pk == 0

    rng = random.Random(seed)
    class_mod = p - 1 if p % 3 == 2 else n_period
    failures = []
    for i in range(samples):
        r = ZERO_TARGETS_RAT[i % 2]
        v = (i // 2) % (max_extra_val + 1)
        u = rng.randrange(1, p)
        pk1 = p ** (v + 1)
        res_p = (r.numerator + u * p**v) * unit_inverse(3, p, v + 1) % pk1
        res_m = r.numerator * pow(3, -1, class_mod) % class_mod
        n = crt_pair(res_p, pk1, res_m, class_mod)  # crt_pair inverts pk1 mod class_mod
        if n == 0:
            n = class_mod * pk1
        rhs = val_int(3 * n - r.numerator, p)
        if rhs != v:
            raise AssertionError(f"sample construction is off at n = {n}")
        lhs = trib_val(n, p)
        if not lhs >= rhs:
            failures.append((n, lhs, rhs))
    return CubeRootReport(p, n_period, s13_ok, s53_ok, sym_ok, samples, tuple(failures))
