"""Analytic interpolation of the Tribonacci sequence along residue classes mod the period.

In R = Z_p[x]/(P), x acts as the companion matrix of the recurrence, and
T(n) = phi(x^n) for the linear form phi(a + bx + cx^2) = b + c; phi(g) is the
Binet sum of g over the roots of P.  An element of R mod p^k is the triple of its
coordinates w.r.t. 1, x, x^2, multiplied by tribonacci._mul; log on 1 + pR is _log.
For l with p | T(l), the function f_l(z) = phi(x^l exp(z log x^(sN))) interpolates
m -> T(l + m*sN).  This module extracts the power-series coefficients beta_k of
g = f_l / p^e in R with a certified tail bound (every x^n read from tribonacci._xpow, so no
power of x is ever inverted), bounds their number on Z_p (Strassman's mu, SeriesTrunc.mu) and
locates the zero (Hensel iteration); classifier.class_series escalates the precision of one
class's series, and everything about the class is read off that one series.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache
from itertools import islice
from operator import mul

from .galois import PrimeContext
from .padic import PrecisionError, _vp, unit_inverse, vp_factorial
from .tribonacci import _chain, _char_poly, _mul, _phi, _xpow, trib_mod


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


class SeriesTrunc(namedtuple("SeriesTrunc", "ctx ell s e log_val coeffs start", defaults=(None,))):
    """The truncated series of g = f_l / p^e, built with period s*N: coeffs is a tuple of residues
    mod p^prec, and start is None or Newton's start b0.

    log_val is E = nu_p(log x^(sN)) in Z_p[x]/(P), the minimum over the roots; the tail obeys
    nu_p(beta_k) >= (k-1)*E - nu_p(k!) >= 1 for k >= 2.  Where beta_1 is not a unit, start is
    None and coeffs are beta_0..beta_J at 0, with J = _default_cut(p, E, prec): the tail bound
    is >= prec for every k > J, so the truncation is certified on all of Z_p.

    The disc lemma.  Where beta_1 is a unit, |g'| = 1 and mu = 1 on Z_p, so g has its one zero
    in d0 + pZ_p, d0 = b0 mod p for b0 = -beta_0/beta_1 mod p^prec.  There g(d0 + u) is the
    series of the class l' = l + d0*sN: the same L = log x^(sN), and T(l') = T(l) (mod p^E), so
    e' = e = E.  For p | u its terms gamma_k u^k past J' = _default_cut(p, E + 1, prec - 1) (at
    least 1) vanish mod p^prec, and so do those of g' since (k-1)(E+1) - nu_p((k-1)!) >= prec
    for k > J'.  coeffs are then gamma_0..gamma_J', about half of J + 1, start is b0, and mu and
    hensel_zero read g only on that disc.  gamma_0 = 0 (mod p) because p^(e+1) | T(l'), gamma_1
    is a unit and gamma_k = 0 (mod p) for k >= 2.  No __slots__: mu is kept in the instance dict.
    """

    @cached_property
    def mu(self) -> int:
        """Strassman's bound: the largest index attaining the maximal |coefficient|, computed once.

        mu = 1 also certifies a linear valuation formula: at any zero in Z_p, the
        recentred series has the same mu, so its linear coefficient dominates.
        The certified tail (nu >= prec past the cut) rules the tail out as long as
        some computed coefficient is nonzero mod p^prec; if all vanish, precision
        escalation is required and a PrecisionError is raised (and nothing is cached).
        The least valuation is read from g = gcd(p^prec, coeffs) = p^min, and mu is the last k
        with coefficient k nonzero mod p*g: 1 on every disc, by the disc lemma.
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
    observe quadratic convergence.  Whether b is g's only zero on Z_p is series.mu == 1, and
    classifier.certify(series) proves which target a = l + sN*b is, by the exactness lemma in
    classifier's module docstring, without reading b.
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


def _val(c, p: int, prec: int) -> int:
    """The valuation a coordinate triple certifies mod p^prec: the least over its coordinates
    (R is unramified), prec if all vanish."""
    v = prec
    for r in c:
        if r:
            v = min(v, _vp(r, p))
            if v == 0:
                return 0
    return v


def _log_cutoff(p: int, prec: int, v: int) -> tuple[int, int]:
    # for an argument 1 + w with nu_p(w) = v: the smallest M with v*n - log_p(n) >= prec
    # (nondecreasing in n, and >= v*n - nu_p(n), so every term w^n/n with n >= M
    # vanishes mod p^prec), and log_p(M), the largest nu_p(n) over n <= M
    n = -(-prec // v)
    while True:
        logp = 0
        q = p
        while q <= n:
            logp += 1
            q *= p
        if v * n - logp >= prec:
            return n, logp
        n += 1


def _log(y, p: int, prec: int) -> tuple[int, int, int]:
    """log y mod p^prec for a triple y = 1 (mod p) of R (p >= 3, R unramified): the series
    sum (-1)^(n-1) w^n / n at w = y - 1, cut where every later term vanishes mod p^prec.

    The terms are the integers (-1)^(n-1) lcm/n over lcm = lcm(1..cut), whose p-part is p^slack;
    they are summed slack digits deeper, then divided once, exactly, by lcm.  Blocked Horner: with s = isqrt(n) + 1
    for n coefficients and the powers w^0..w^s, each block of s coefficients is an unreduced
    integer combination of those powers' coordinates, and one product by w^s and one reduction
    per block join the blocks."""
    pk = p**prec
    w = ((y[0] - 1) % pk, y[1] % pk, y[2] % pk)
    v = _val(w, p, prec)
    if v < 1:
        raise ValueError("log needs an argument = 1 (mod p)")
    cut, slack = _log_cutoff(p, prec, v)
    lcm = math.lcm(*range(1, cut + 1))
    coeffs = [0] + [lcm // n if n % 2 else -(lcm // n) for n in range(1, cut + 1)]
    q = p**slack
    m = pk * q
    s = math.isqrt(len(coeffs)) + 1
    powers = [(1, 0, 0), w]
    for _ in range(s - 1):
        powers.append(_mul(powers[-1], w, m))
    top = powers.pop()
    columns = list(zip(*powers))  # columns[t]: coordinate t of w^0..w^(s-1)
    acc = (0, 0, 0)
    for i in range((len(coeffs) - 1) // s * s, -1, -s):
        block = coeffs[i : i + s]
        acc = tuple((a + sum(map(mul, block, column))) % m for a, column in zip(_mul(acc, top, m), columns))
    if any(c % q for c in acc):
        raise PrecisionError("exact division by p^w failed")
    inv = unit_inverse(lcm // q, p, prec)
    return tuple(c // q * inv % pk for c in acc)


@lru_cache(maxsize=1024)  # bounded; a scan to 780 builds 133 entries, a table after it none
def _log_data(p: int, prec: int, sn: int):
    """What series_coeffs shares across the classes of one (p, prec, sN):
    (E, J, top, shared) with E = nu_p(log x^(sN)), J the cut at 0 and
    top = prec + E + nu_p(J!), the exponent of the largest ring any class needs (e <= E).
    shared is (x^(sN), L, L^2, (t1, t2, t3)): the coordinates mod p^top of x^(sN), of
    L = log x^(sN) and of L^2, and L's characteristic polynomial, whose Cayley-Hamilton relation
    L^3 = t1 L^2 - t2 L + t3 is checked here, once; it is None where E >= prec, which
    series_coeffs rejects.  L is log(x^(sN*p)) / p, whose argument lies one digit deeper
    in 1 + pR, so its series is about half as long."""
    # nu_p(log y) = nu_p(y - 1) on 1 + pR for odd p: P is squarefree mod p, so R is a
    # product of unramified rings and its coordinate valuation is the minimum over the roots
    c0, c1, c2 = _xpow(sn, p**prec)
    log_val = _val((c0 - 1, c1, c2), p, prec)
    J = _default_cut(p, log_val, prec)
    top = prec + log_val + vp_factorial(J, p)
    if log_val >= prec:
        return log_val, J, top, None
    m = p**top
    deep = _log(_xpow(sn * p, m * p), p, top + 1)
    if any(c % p for c in deep):
        raise PrecisionError("exact division by p^w failed")
    log_x = tuple(c // p for c in deep)
    log_x2 = _mul(log_x, log_x, m)
    t1, t2, t3 = _char_poly(log_x, m)
    if _mul(log_x2, log_x, m) != tuple((t1 * u - t2 * v + t) % m for u, v, t in zip(log_x2, log_x, (t3, 0, 0))):
        raise PrecisionError("log x^(sN) fails its Cayley-Hamilton relation in Z_p[x]/(P)")
    return log_val, J, top, (_xpow(sn, m), log_x, log_x2, (t1, t2, t3))


def series_coeffs(ctx: PrimeContext, ell: int, s: int = 1) -> SeriesTrunc:
    """The SeriesTrunc of g = f_l / p^e modulo p^prec: on the disc of its zero where beta_1 is a
    unit, else beta_0..beta_J at 0 (see SeriesTrunc).

    Requires condition (p | T(l)); the divisor exponent is
    e = min(nu_p(log x^(sN)), nu_p(T(l))), which gives e = 1 in the
    single-period case and reproduces the p = 3, s = 3 exponent e = 2.
    One powering of x^l, mod p^(prec + E + nu_p(J!)) with E = nu_p(log x^(sN)) >= e, gives
    the divisibility test, e, beta_0 and the first term of the series.
    Coefficient k is s_k / k! with s_k = phi(x^n L^k), L = log x^(sN), computed mod
    p^(prec + e + nu_p(J!)) and divided exactly by p^(e + nu_p(k!)); the unit part of J!
    is inverted once and each k!^(-1) read on the way back down.  s_0, s_1 and s_2 are
    read from ring products; after them the Cayley-Hamilton relation
    L^3 = t1 L^2 - t2 L + t3, checked in the ring once per (p, prec, sN), gives the scalar
    recurrence s_(k+3) = t1 s_(k+2) - t2 s_(k+1) + t3 s_k.  L, its square and t1, t2, t3 come
    from _log_data, built once per (p, prec, sN), and _class_coeffs reads the coefficients off them.

    Where e = E, beta_1 comes from one ring product of x^l.  If it is a unit, b0 and d0 follow,
    and the J' + 1 coefficients of the class n = l' from one powering of x^(l'), checked against
    trib_mod as x^l's is on the expansion at 0; p^(e+1) | T(l'), which makes d0 the zero's
    first digit, is checked by a raise too.  Otherwise n = l and the J + 1 coefficients at 0
    come from the powering of x^l.
    """
    if s < 1:
        raise ValueError("period multiplier s must be >= 1")
    p, prec = ctx.p, ctx.prec
    sn = s * ctx.n_period
    log_val, J, top, shared = _log_data(p, prec, sn)
    x_ell = _xpow(ell, p**top)
    t_ell = _phi(x_ell, p**top)
    if t_ell % p:
        raise ConditionNotMet("divisibility", f"p = {p} does not divide T({ell})")
    if log_val >= prec:
        raise PrecisionError(f"log(x^(sN)) vanishes mod {p}^{prec}")
    e = log_val if t_ell % p**log_val == 0 else _vp(t_ell, p)
    if e == log_val:  # else beta_1 is a multiple of p^(E - e)
        pe, pk_small = p**e, p**prec
        cut = max(1, _default_cut(p, log_val + 1, prec - 1))
        m = p ** (prec + e + vp_factorial(cut, p))
        s_1 = _phi(_mul(x_ell, shared[1], m), m)
        if s_1 % pe:
            raise PrecisionError("phi(x^l L) is not divisible by p^e")
        beta_1 = s_1 // pe % pk_small
        if beta_1 % p:
            b0 = -(t_ell // pe) * unit_inverse(beta_1, p, prec) % pk_small
            d0 = b0 % p
            n = ell + d0 * sn
            x_n = _xpow(n, m)
            if _phi(x_n, m) % (pe * p):
                raise PrecisionError(f"p^(e+1) does not divide T(l + {d0}*sN): {d0} is not the zero's digit")
            return SeriesTrunc(ctx, ell, s, e, log_val, _class_coeffs(p, prec, m, shared, x_n, n, sn, e, cut), b0)
    m = p ** (top - log_val + e)  # below p^top only where e < E
    return SeriesTrunc(ctx, ell, s, e, log_val, _class_coeffs(p, prec, m, shared, x_ell, ell, sn, e, J))


def _class_coeffs(p: int, prec: int, m: int, shared, term, n: int, sn: int, e: int, J: int) -> tuple[int, ...]:
    """beta_0..beta_J mod p^prec of the class n, term = x^n, read in R mod m = p^(prec + e + nu_p(J!))
    off _log_data's shared = (x^(sN), L, L^2, (t1, t2, t3)): s_k = phi(x^n L^k), s_0..s_2 from ring
    products and the rest walked by tribonacci._chain on L's (t1, t2, t3), divided exactly by
    p^(e + nu_p(k!)) and multiplied by the inverse of k!'s unit part."""
    x_sn, log_x, log_x2, char = shared
    # _mul against _xpow's own product: phi(x^n * x^(sN)) = T(n + sN)
    if _phi(_mul(term, x_sn, m), m) != trib_mod(n + sn, m):
        raise PrecisionError("phi(x^l * x^(sN)) disagrees with T(l + sN) in Z_p[x]/(P)")
    seeds = (_phi(term, m), _phi(_mul(term, log_x, m), m), _phi(_mul(term, log_x2, m), m))
    phis = list(islice(_chain(*seeds, *(t % m for t in char), m), J + 1))
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
    coeffs = [phis[0] // divs[0] % pk_small]
    for k in range(1, J + 1):
        s_k, div = phis[k], divs[k]
        if s_k % div:
            raise PrecisionError("series coefficient not divisible by p^(e + nu(k!))")
        coeffs.append(s_k // div * inv_fact[k] % pk_small)
    return tuple(coeffs)


def hensel_zero(series: SeriesTrunc) -> ZeroRecord:
    """The zero of g certified by Hensel's lemma, via Newton iteration on the disc of the zero.

    Requires beta_1 to be a unit (condition T(l+N) != T(l) mod p^2), which is where
    series_coeffs builds the disc and its start b0: |g(b0)| < 1, |g'| = 1 (see SeriesTrunc).
    Each step is b - g(b) / g'(b) mod p^prec on plain residues, g and g' read at u = b - d0
    from the disc's coefficient lists, built once.  The powers that _zp_eval reads
    are computed once per step and serve g' too.  With g(b) = 0 (mod p^r) the quotient needs
    g'(b) only mod p^(prec - r), so g' is evaluated and inverted there, and a g'(b) divisible
    by p stops the iteration.  Every step runs at full precision: the residual valuations it
    reports are those of the exact iterates.
    """
    if series.start is None:
        raise ConditionNotMet(
            "derivative", f"g'(0) = 0 mod p at l = {series.ell}: T(l+N) = T(l) (mod p^2)"
        )
    p, prec = series.ctx.p, series.ctx.prec
    pk = p**prec
    b, values = series.start, series.coeffs
    centre = b % p
    slopes = [k * values[k] for k in range(1, len(values))]
    residuals = []
    for _ in range(4 * prec.bit_length() + 8):
        powers = _zp_powers(b - centre, len(values), pk)
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
