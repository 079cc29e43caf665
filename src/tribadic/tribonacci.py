"""Exact and modular Tribonacci evaluation on all of Z, and exact valuations nu_p(T(n)).

T(0) = 0, T(1) = T(2) = 1, T(n+3) = T(n+2) + T(n+1) + T(n), extended backwards;
T vanishes exactly on Z_T = {0, -1, -4, -17}.

In Z[x]/(P), P = x^3 - x^2 - x - 1, T(n) = phi(x^n) with phi(c0 + c1 x + c2 x^2) = c1 + c2
(Fiduccia's method), so one binary powering of x serves every n; x is a unit with
x^(-1) = x^2 - x - 1, which makes the backward direction exact modulo any modulus.
An element of R/m = (Z/m)[x]/(P) is the triple (c0, c1, c2) of its coordinates w.r.t. 1, x, x^2.
Only this module uses P's coefficients: _xpow and _mul reduce by x^3 = 1 + x + x^2, _phi reads
T off a triple and _triple (T(n), T(n+1), T(n+2)) off x^n, and _char_poly gives an element's
characteristic polynomial, whose three-term recurrence _chain walks.
"""

from __future__ import annotations

from ._factor import is_prime
from .padic import DEFAULT_PRECISION, VAL_INF, _vp

ZERO_SET = (0, -1, -4, -17)


def _xpow(n: int, m):
    """(c0, c1, c2) with x^n = c0 + c1 x + c2 x^2 in Z[x]/(P), reduced mod m (exact if m is None)."""
    c0, c1, c2 = 1, 0, 0
    back = n < 0
    for bit in bin(abs(n))[2:]:
        # square, with x^3 = 1 + x + x^2 and x^4 = 1 + 2x + 2x^2
        t, u = 2 * c1 * c2, c2 * c2
        c0, c1, c2 = c0 * c0 + t + u, 2 * c0 * c1 + t + 2 * u, c1 * c1 + 2 * c0 * c2 + t + 2 * u
        if m is not None:
            c0, c1, c2 = c0 % m, c1 % m, c2 % m
        if bit == "1":
            c0, c1, c2 = (c1 - c0, c2 - c0, c0) if back else (c2, c0 + c2, c1 + c2)
    if m is not None:
        return c0 % m, c1 % m, c2 % m
    return c0, c1, c2


def _mul(a, b, m: int) -> tuple[int, int, int]:
    """The product of two coordinate triples (ints of any sign) in (Z/m)[x]/(P), reduced into
    [0, m): the five convolution terms, then x^3 = 1 + x + x^2, the identity _xpow squares with."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    c4 = a2 * b2
    c3 = a1 * b2 + a2 * b1 + c4  # c4 x^4 = c4 (x + x^2 + x^3)
    return (
        (a0 * b0 + c3) % m,
        (a0 * b1 + a1 * b0 + c3 + c4) % m,
        (a0 * b2 + a1 * b1 + a2 * b0 + c3 + c4) % m,
    )


def _phi(c, m: int) -> int:
    # phi(c0 + c1 x + c2 x^2) = c1 + c2: T(n) = phi(x^n), and phi(g) = sum c_lambda g(lambda)
    return (c[1] + c[2]) % m


def _triple(n: int, m: int) -> tuple[int, int, int]:
    """(T(n), T(n+1), T(n+2)) mod m from one powering of x^n: phi of x^n, x^(n+1) and x^(n+2)."""
    c0, c1, c2 = _xpow(n, m)
    return (c1 + c2) % m, (c0 + c1 + 2 * c2) % m, (c0 + 2 * c1 + 4 * c2) % m


def _char_poly(a, m: int) -> tuple[int, int, int]:
    """(t1, t2, t3) mod m: the trace, the sum of the principal 2x2 minors and the determinant of
    multiplication by the triple a, read off its columns a, a*x and a*x^2.  By Cayley-Hamilton,
    a^3 = t1 a^2 - t2 a + t3."""
    (m00, m10, m20), (m01, m11, m21), (m02, m12, m22) = a, _mul(a, (0, 1, 0), m), _mul(a, (0, 0, 1), m)
    minor0 = m11 * m22 - m12 * m21
    t1 = m00 + m11 + m22
    t2 = minor0 + m00 * m22 - m02 * m20 + m00 * m11 - m01 * m10
    t3 = m00 * minor0 - m01 * (m10 * m22 - m12 * m20) + m02 * (m10 * m21 - m11 * m20)
    return t1 % m, t2 % m, t3 % m


def _chain(u0, u1, u2, t1, t2, t3, m):
    """u_0, u_1, u_2, ... mod m (the three given as they are) by u_(l+3) = t1 u_(l+2) - t2 u_(l+1)
    + t3 u_l: u_l = phi(b a^l) for any b, where (t1, t2, t3) = _char_poly(a, m)."""
    while True:
        yield u0
        u0, u1, u2 = u1, u2, (t1 * u2 - t2 * u1 + t3 * u0) % m


def trib(n: int) -> int:
    """Exact T(n) for any integer n, by binary powering of x in Z[x]/(P)."""
    _, c1, c2 = _xpow(n, None)
    return c1 + c2


def trib_mod(n: int, m: int) -> int:
    """T(n) mod m in O(log |n|) squarings in (Z/m)[x]/(P)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    return _phi(_xpow(n, m), m)


def trib_val(n: int, p: int):
    """nu_p(T(n)); VAL_INF exactly when n is in ZERO_SET.

    Works modulo p^K, from K = DEFAULT_PRECISION, and doubles K until the residue is
    nonzero, which certifies the valuation; the zero-set guard keeps that loop finite.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n in ZERO_SET:
        return VAL_INF
    k = DEFAULT_PRECISION
    while True:
        r = trib_mod(n, p**k)
        if r != 0:
            return _vp(r, p)
        k *= 2
