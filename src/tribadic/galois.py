"""Splitting data for P(X) = X^3 - X^2 - X - 1 over Q_p.

Once per prime: the splitting type d, the roots of P in the residue field
F_{p^d}, p^d - 1 factored, and the period N (the order of the group the roots
generate in the residue field).  Per precision: the unramified extension that
holds all three roots, the roots Hensel-lifted to p^prec, and the Binet
coefficients c_lambda = lambda * P'(lambda)^-1.

disc(P) = -44, so p = 2 and p = 11 are ramified and rejected everywhere here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ._factor import factorize, is_prime
from .padic import ExtElem, ExtRing, PrecisionError

EXCLUDED_PRIMES = (2, 11)

# P and P' as integer polynomials, ascending coefficients
_P = (-1, -1, -1, 1)
_DP = (-1, -2, 3)


def _check_admissible(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p in EXCLUDED_PRIMES:
        raise ValueError(f"p = {p} is ramified for X^3 - X^2 - X - 1 (disc = -44)")


def _peval(x: ExtElem, poly) -> ExtElem:
    # Horner evaluation of an integer polynomial (ascending coefficients)
    acc = x.ring.zero
    for c in reversed(poly):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# splitting type, period and lifted contexts


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


def _newton_root(ring: ExtRing, start: ExtElem) -> ExtElem:
    """The root of P in ring that lifts start, a root of P mod p, by Newton iteration."""
    t = start
    for _ in range(max(ring.prec.bit_length(), 1) + 2):
        f = _peval(t, _P)
        if f.is_zero():
            return t
        t = t - f * _peval(t, _DP).inv()
    raise PrecisionError("Newton root lifting failed")


@lru_cache(maxsize=4096)  # holds every prime up to 10^4, the most scan_range accepts
def _prime_data(p: int) -> tuple[int, tuple[ExtElem, ...], int, dict[int, int]]:
    """(d, roots of P in F_{p^d}, period N, factorization of p^d - 1): what p alone fixes.

    Each root's order divides p^d - 1 (factored by trial division + Pollard rho)
    and is found by dividing down exponents; N is their lcm.  For d = 3 the
    sharper divisibility N | p^2 + p + 1 is checked.
    """
    d, factors = splitting_type(p)
    if d == 1:
        res = ExtRing(p, 1, (0, 1))
        roots = tuple(res.embed(-f[0]) for f in factors)
    elif d == 2:
        res = ExtRing(p, 1, factors[1])
        x = res.gen
        roots = (res.embed(-factors[0][0]), x, -x - factors[1][1])
    else:
        res = ExtRing(p, 1, _P)
        conj1 = res.gen**p
        roots = (res.gen, conj1, conj1**p)
    group = p**d - 1
    fac = factorize(group)
    n = 1
    for lam in roots:
        order = group
        for q in fac:
            while order % q == 0 and lam ** (order // q) == res.one:
                order //= q
        n = n * order // math.gcd(n, order)
    if d == 3 and (p * p + p + 1) % n != 0:
        raise AssertionError(f"N = {n} does not divide p^2 + p + 1 for p = {p}")
    if group % n != 0:
        raise AssertionError(f"N = {n} does not divide p^d - 1 for p = {p}")
    return d, roots, n, fac


@dataclass(frozen=True)
class PrimeContext:
    """Per-prime data (splitting type, period, p^d - 1 factored) with the roots of P
    and the Binet coefficients lifted to p^prec."""

    p: int
    prec: int
    d: int
    ring: ExtRing
    roots: tuple[ExtElem, ExtElem, ExtElem]
    weights: tuple[ExtElem, ExtElem, ExtElem]  # the Binet coefficients lambda/P'(lambda)
    n_period: int
    factorization: dict[int, int]

    def __hash__(self):
        return hash((self.p, self.prec))


@lru_cache(maxsize=512)
def prime_context(p: int, prec: int = 24) -> PrimeContext:
    """The PrimeContext of p at precision p^prec; cached.

    All roots live in one common ring, the rational ones with vanishing top
    coordinates, and each is Newton-lifted from its residue.  For d = 2 the
    ring's modulus is P / (X - r) for the rational root r, lifted in Z/p^prec.
    """
    d, residue_roots, n, fac = _prime_data(p)
    if d == 2:
        line = ExtRing(p, prec, (0, 1))
        r = _newton_root(line, residue_roots[0].lift_to(line)).coords[0]
        ring = ExtRing(p, prec, (r * r - r - 1, r - 1, 1))
    else:
        ring = ExtRing(p, prec, (0, 1) if d == 1 else _P)
    roots = tuple(_newton_root(ring, lam.lift_to(ring)) for lam in residue_roots)
    if len({tuple(c % p for c in lam.coords) for lam in roots}) != 3:
        raise PrecisionError("roots are not pairwise distinct mod p")
    cs = tuple(lam * _peval(lam, _DP).inv() for lam in roots)
    # Binet sanity: e1 = e3 = 1 for P, and sum c*lambda^n = T(n) at n = 0, 1
    if (
        roots[0] + roots[1] + roots[2] != ring.one
        or roots[0] * roots[1] * roots[2] != ring.one
        or not (cs[0] + cs[1] + cs[2]).is_zero()
        or sum((ci * li for ci, li in zip(cs, roots)), ring.zero) != ring.one
    ):
        raise AssertionError(f"roots and Binet coefficients for p = {p} fail e1 = e3 = 1, T(0) = 0, T(1) = 1")
    return PrimeContext(p, prec, d, ring, roots, cs, n, fac)
