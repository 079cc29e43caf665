"""Scalar p-adic helpers: valuations of integers, inverses of units mod p^k, nu_p(n!).

A p-adic value is a residue mod p^prec, a plain int; an element of R = Z_p[x]/(P) is the triple
of its coordinates w.r.t. 1, x, x^2, multiplied by tribonacci._mul, and log on 1 + pR is
interpolation._log.  Valuations are read from residues on demand, and residue 0 only certifies
"valuation >= prec".  Working precision is fixed per value (default 24 digits); callers that
need a quantity to be nonzero and find it vanishing mod p^prec are expected to recompute at
doubled precision (see e.g. tribonacci.trib_val).

All functions are pure, so they are safe to share across threads.
"""

from __future__ import annotations

from ._factor import is_prime

DEFAULT_PRECISION = 24

VAL_INF = float("inf")  # stands for nu_p(0)


class PrecisionError(ArithmeticError):
    """A quantity that had to be nonzero (or a unit) vanished mod p^prec."""


def _vp(x: int, p: int) -> int:
    # valuation of a nonzero integer, no primality check; nu_2 is the index of the lowest set bit
    if p == 2:
        return (x & -x).bit_length() - 1
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def val_int(x: int, p: int) -> int:
    """nu_p(x) for nonzero x: the largest e with p^e dividing x.

    x = 0 is rejected here; call sites that allow it represent nu_p(0) by the
    VAL_INF marker.
    """
    if x == 0:
        raise ValueError("val_int needs a nonzero integer (nu_p(0) is VAL_INF)")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _vp(x, p)


def unit_inverse(a: int, p: int, k: int) -> int:
    """a^(-1) mod p^k for a unit a: pow(a, -1, p) lifted by y <- y(2 - a*y), each step doubling
    the digits y is right to.  A multiple of p raises ValueError, as pow does."""
    y = pow(a, -1, p)
    j = 1
    while j < k:
        j = min(2 * j, k)
        m = p**j
        y = y * (2 - a * y) % m
    return y


def vp_factorial(n: int, p: int) -> int:
    """nu_p(n!) by Legendre's formula."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v
