"""Splitting data for P(X) = X^3 - X^2 - X - 1 over Q_p.

Once per prime: the splitting degree d and the period N, the order of x in
(Z/p)[x]/(P).  P is squarefree mod p, so that ring is a product of fields, one
per irreducible factor of P; both d and N are read from powers of x there, and
no root or factor of P is ever found.  Every p-adic computation runs in
R = Z_p[x]/(P), where T(n) = phi(x^n).

disc(P) = -44, so p = 2 and p = 11 are ramified and rejected everywhere here.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from ._factor import factorize, is_prime
from .tribonacci import _xpow

EXCLUDED_PRIMES = (2, 11)

# P as an integer polynomial, ascending coefficients
_P = (-1, -1, -1, 1)


def _check_admissible(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in EXCLUDED_PRIMES:
        raise ValueError(f"p = {p} is ramified for X^3 - X^2 - X - 1 (disc = -44)")


def _splitting_degree(p: int) -> int:
    """d, the degree of the splitting field of P over F_p: the least k in {1, 2} with
    x^(p^k) = x in (Z/p)[x]/(P), else 3.  Frobenius^k fixes x in every field factor
    exactly when k is a multiple of each factor's degree."""
    x = (0, 1, 0)
    if _xpow(p, p) == x:
        return 1
    if _xpow(p * p, p) == x:
        return 2
    return 3


@lru_cache(maxsize=10**4, typed=True)  # all 9592 primes up to 10^5; typed, so 5.0 never reads 5's entry
def _prime_data(p: int) -> tuple[int, int]:
    """(d, period N): what p alone fixes, for an admissible prime p.

    (Z/p)[x]/(P) is a product of fields of degree dividing d, so x^(p^d - 1) = 1 there and N
    divides p - 1 (d = 1) or p^2 - 1 (d = 2).  For d = 3 it is the field F_(p^3), where
    x^(1 + p + p^2) = x * x^p * x^(p^2) is the norm of x, the product of the roots of P, which
    is 1; so N divides p^2 + p + 1.  N is found by dividing that bound (factored by trial
    division + Pollard rho) down by each prime q while x^(N/q) = 1.  x^N = 1 itself is checked,
    which a wrong d would break.
    """
    _check_admissible(p)
    d = _splitting_degree(p)
    n = bound = p * p + p + 1 if d == 3 else p**d - 1
    for q in factorize(bound):
        while n % q == 0 and _xpow(n // q, p) == (1, 0, 0):
            n //= q
    if _xpow(n, p) != (1, 0, 0):
        raise AssertionError(f"x^N != 1 mod {p} for N = {n}: the splitting degree d = {d} is wrong")
    return d, n


class PrimeContext(namedtuple("PrimeContext", "p prec d n_period")):
    """Per-prime data (splitting degree d, period N) at precision p^prec."""

    __slots__ = ()


def prime_context(p: int, prec: int = 24) -> PrimeContext:
    """The PrimeContext of p at precision p^prec; the per-prime data is computed once."""
    return PrimeContext(p, prec, *_prime_data(p))
