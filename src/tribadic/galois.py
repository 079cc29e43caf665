"""Splitting data for P(X) = X^3 - X^2 - X - 1 over Q_p.

Once per prime: the splitting type d, p^d - 1 factored, and the period N, the
order of x in (Z/p)[x]/(P).  P is squarefree mod p, so that ring is a product
of fields and the order of x is the lcm of the orders of the roots of P.  Every
p-adic computation runs in R = Z_p[x]/(P), where T(n) = phi(x^n), so no root of
P is ever represented on its own.

disc(P) = -44, so p = 2 and p = 11 are ramified and rejected everywhere here.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def splitting_type(p: int):
    """(d, monic factors of P mod p, ascending coefficient tuples).

    d = 1: three linear factors; d = 2: linear times irreducible quadratic;
    d = 3: P irreducible.  Roots are found by exhaustive evaluation over [0, p);
    the factorization is squarefree automatically since p does not divide 44.
    """
    _check_admissible(p)
    roots = [r for r in range(p) if (r * r * r - r * r - r - 1) % p == 0]
    if len(roots) == 3:
        return 1, [(-r % p, 1) for r in roots]
    if len(roots) == 1:
        r = roots[0]
        quad = ((r * r - r - 1) % p, (r - 1) % p, 1)  # P / (X - r) mod p
        return 2, [(-r % p, 1), quad]
    if len(roots) == 0:
        return 3, [tuple(c % p for c in _P)]
    raise AssertionError(f"cubic with exactly two roots mod {p}: discriminant logic broken")


@lru_cache(maxsize=4096)  # holds every prime up to 10^4, the most scan_range accepts
def _prime_data(p: int) -> tuple[int, int, dict[int, int]]:
    """(d, period N, factorization of p^d - 1): what p alone fixes.

    x^(p^d - 1) = 1 in (Z/p)[x]/(P), a product of fields of degree dividing d, so
    N is found by dividing p^d - 1 (factored by trial division + Pollard rho) down
    by each prime while x^(N/q) = 1.  x^N = 1 itself is checked, which a wrong d would
    break, and for d = 3 the sharper divisibility N | p^2 + p + 1.
    """
    d = splitting_type(p)[0]
    group = p**d - 1
    fac = factorize(group)
    n = group
    for q in fac:
        while n % q == 0 and _xpow(n // q, p) == (1, 0, 0):
            n //= q
    if d == 3 and (p * p + p + 1) % n != 0:
        raise AssertionError(f"N = {n} does not divide p^2 + p + 1 for p = {p}")
    if _xpow(n, p) != (1, 0, 0):
        raise AssertionError(f"x^N != 1 mod {p} for N = {n}: the splitting type d = {d} is wrong")
    return d, n, fac


@dataclass(frozen=True)
class PrimeContext:
    """Per-prime data (splitting type, period, p^d - 1 factored) at precision p^prec."""

    p: int
    prec: int
    d: int
    n_period: int
    factorization: dict[int, int]

    def __hash__(self):
        return hash((self.p, self.prec))


def prime_context(p: int, prec: int = 24) -> PrimeContext:
    """The PrimeContext of p at precision p^prec; the per-prime data is computed once."""
    return PrimeContext(p, prec, *_prime_data(p))
