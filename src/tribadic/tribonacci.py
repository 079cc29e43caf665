"""Exact and modular Tribonacci evaluation on all of Z, and exact valuations nu_p(T(n)).

T(0) = 0, T(1) = T(2) = 1, T(n+3) = T(n+2) + T(n+1) + T(n), extended backwards;
T vanishes exactly on Z_T = {0, -1, -4, -17}.

In Z[x]/(P), P = x^3 - x^2 - x - 1, T(n) = phi(x^n) with phi(c0 + c1 x + c2 x^2) = c1 + c2
(Fiduccia's method), so one binary powering of x serves every n; x is a unit with
x^(-1) = x^2 - x - 1, which makes the backward direction exact modulo any modulus.
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


def trib(n: int) -> int:
    """Exact T(n) for any integer n, by binary powering of x in Z[x]/(P)."""
    _, c1, c2 = _xpow(n, None)
    return c1 + c2


def trib_mod(n: int, m: int) -> int:
    """T(n) mod m in O(log |n|) squarings in (Z/m)[x]/(P)."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    _, c1, c2 = _xpow(n, m)
    return (c1 + c2) % m


def trib_val(n: int, p: int, start_prec: int = DEFAULT_PRECISION):
    """nu_p(T(n)); VAL_INF exactly when n is in ZERO_SET.

    Works modulo p^K and doubles K until the residue is nonzero, which
    certifies the valuation; the zero-set guard keeps that loop finite.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n in ZERO_SET:
        return VAL_INF
    k = start_prec
    while True:
        r = trib_mod(n, p**k)
        if r != 0:
            return _vp(r, p)
        k *= 2
