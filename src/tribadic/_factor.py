"""Primality, factorization and CRT helpers for inputs up to roughly p^3, p <= 10^6."""

from __future__ import annotations

import itertools
import math

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first 13 prime bases: deterministic below
    psi_13 = 3317044064679887385961981, a strong probable-prime test at and above it
    (psi_13 itself passes).  The first 12 bases alone would pass the composite
    psi_12 = 318665857834031151167461.  Only an int is prime: 5.0 and True are not, though 5.0 == 5."""
    if type(n) is not int or n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of an odd composite n, Brent's cycling variant on y -> y^2 + c from
    y = c, for c = 1, 2, ... until one cycle splits n.  A factorization is unique, so no choice
    of start and constant can change a result."""
    for c in itertools.count(1):
        y = c
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


_TRIAL_BOUND = 10_000


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {prime: exponent}: trial division, then Brent-Pollard rho."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}

    def record(q: int) -> None:
        out[q] = out.get(q, 0) + 1

    for q in (2, 3):
        while n % q == 0:
            record(q)
            n //= q
    d = 5
    while d <= _TRIAL_BOUND and d * d <= n:
        for q in (d, d + 2):
            while n % q == 0:
                record(q)
                n //= q
        d += 6
    if n == 1:
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            record(m)
            continue
        f = _brent_rho(m)
        stack.append(f)
        stack.append(m // f)
    return out


def primes_upto(n: int) -> list[int]:
    """All primes <= n (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = b"\x00" * len(range(q * q, n + 1, q))
    return [i for i in range(n + 1) if sieve[i]]


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> int:
    """The residue mod m1*m2 congruent to r1 mod m1 and r2 mod m2 (coprime moduli)."""
    if math.gcd(m1, m2) != 1:
        raise ValueError("crt_pair needs coprime moduli")
    t = (r2 - r1) * pow(m1, -1, m2) % m2
    return (r1 + m1 * t) % (m1 * m2)
