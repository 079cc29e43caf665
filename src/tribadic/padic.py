"""Fixed-precision arithmetic in R = Z_p[x]/(P), P = x^3 - x^2 - x - 1, and log on 1 + pR.

A value is a residue mod p^prec: a plain int where the decision needs one number, and an ExtElem
of the ring R/p^prec = Z[x]/(P, p^prec) otherwise, with + - * val and log.  Z_p sits in R as the
constants.  Valuations are read from residues on demand, and residue 0 only certifies
"valuation >= prec".  Working precision is fixed per value (default 24 digits); callers that
need a quantity to be nonzero and find it vanishing mod p^prec are expected to recompute at
doubled precision (see e.g. tribonacci.trib_val).

Values are immutable and all functions are pure, so they are safe to share
across threads.
"""

from __future__ import annotations

import math
from operator import mul

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


# ---------------------------------------------------------------------------
# the ring R = Z_p[x]/(P) mod p^prec


class ExtRing:
    """R/p^prec = Z[x]/(P, p^prec) for P = x^3 - x^2 - x - 1, the ring in which x acts as the
    companion matrix of the recurrence.  P is squarefree mod every odd p but 11 (its discriminant
    is -44), so R is a product of unramified extensions of Z_p, one per irreducible factor of P
    mod p, and val() is the minimum over them.  The product is straight-line: the five
    convolution terms, then x^3 = 1 + x + x^2, the identity tribonacci._xpow squares with.
    """

    __slots__ = ("p", "prec", "pk")

    def __init__(self, p: int, prec: int):
        if p < 3:
            raise ValueError("ExtRing needs an odd prime p >= 3")
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.prec = prec
        self.pk = p**prec

    def elem(self, coords) -> "ExtElem":
        coords = list(coords) + [0] * (3 - len(coords))
        return ExtElem(self, tuple(c % self.pk for c in coords[:3]))

    def embed(self, n: int) -> "ExtElem":
        return self.elem([n])

    @property
    def zero(self) -> "ExtElem":
        return self.elem([0])

    @property
    def one(self) -> "ExtElem":
        return self.elem([1])

    @property
    def gen(self) -> "ExtElem":
        return self.elem([0, 1])

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Product of two coordinate tuples, reduced mod (P, p^prec)."""
        pk = self.pk
        a0, a1, a2 = a
        b0, b1, b2 = b
        c4 = a2 * b2
        c3 = a1 * b2 + a2 * b1 + c4  # c4 x^4 = c4 (x + x^2 + x^3)
        return (
            (a0 * b0 + c3) % pk,
            (a0 * b1 + a1 * b0 + c3 + c4) % pk,
            (a0 * b2 + a1 * b1 + a2 * b0 + c3 + c4) % pk,
        )

    def lifted(self, extra: int) -> "ExtRing":
        # the same ring read at higher precision: results only ever get consumed modulo
        # p^prec, where the two rings agree
        return ExtRing(self.p, self.prec + extra)

    def __eq__(self, other):
        return isinstance(other, ExtRing) and (self.p, self.prec) == (other.p, other.prec)


class ExtElem:
    """An element of an ExtRing: 3 coordinates in [0, p^prec) w.r.t. 1, x, x^2."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring: ExtRing, coords: tuple[int, ...]):
        self.ring = ring
        self.coords = coords

    def _same(self, other: "ExtElem") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("elements from different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.embed(other)
        self._same(other)
        pk = self.ring.pk
        return ExtElem(self.ring, tuple((a + b) % pk for a, b in zip(self.coords, other.coords)))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        pk = self.ring.pk
        return ExtElem(self.ring, tuple(-a % pk for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            pk = self.ring.pk
            return ExtElem(self.ring, tuple(a * other % pk for a in self.coords))
        self._same(other)
        return ExtElem(self.ring, self.ring._mul(self.coords, other.coords))

    __rmul__ = __mul__

    def val(self) -> int:
        """Valuation: min over coordinates (the ring is unramified); prec if zero."""
        v = self.ring.prec
        for c in self.coords:
            if c:
                v = min(v, _vp(c, self.ring.p))
                if v == 0:
                    return 0
        return v

    def div_exact_p(self, w: int) -> "ExtElem":
        """Divide by p^w; every coordinate must be divisible (valuation >= w)."""
        if w == 0:
            return self
        q = self.ring.p**w
        if any(c % q for c in self.coords):
            raise PrecisionError("exact division by p^w failed")
        return ExtElem(self.ring, tuple(c // q for c in self.coords))

    def lift_to(self, ring: ExtRing) -> "ExtElem":
        """The element with the same coordinates in ring (read modulo its p^prec)."""
        return ring.elem(self.coords)

    def _series(self, coeffs: list[int], den: int, slack: int) -> "ExtElem":
        """sum_n coeffs[n] self^n / den, where the p-part of den is p^slack, in a ring slack digits
        deeper, then one exact division by den.  Blocked Horner: with s = isqrt(n) + 1 for n
        coefficients and the powers self^0..self^s, each block of s coefficients is an unreduced
        integer combination of those powers' coordinates, and one ring product by self^s and one
        reduction per block join the blocks."""
        ring = self.ring
        big = ring.lifted(slack)
        pk = big.pk
        s = math.isqrt(len(coeffs)) + 1
        powers = [big.one.coords, self.coords]
        for _ in range(s - 1):
            powers.append(big._mul(powers[-1], self.coords))
        top = powers.pop()
        columns = list(zip(*powers))  # columns[t]: coordinate t of self^0..self^(s-1)
        acc = big.zero.coords
        for i in range((len(coeffs) - 1) // s * s, -1, -s):
            block = coeffs[i : i + s]
            acc = tuple((a + sum(map(mul, block, column))) % pk
                        for a, column in zip(big._mul(acc, top), columns))
        out = big.elem(acc).div_exact_p(slack) * unit_inverse(den // ring.p**slack, ring.p, big.prec)
        return out.lift_to(ring)

    def log(self) -> "ExtElem":
        """log on 1 + pR (p >= 3, R unramified), truncated correctly mod p^prec: the series
        sum (-1)^(n-1) w^n / n at w = self - 1, cut where every later term vanishes mod p^prec."""
        w = self - self.ring.one
        v = w.val()
        if v < 1:
            raise ValueError("log needs an argument = 1 (mod p)")
        cut, slack = _log_cutoff(self.ring.p, self.ring.prec, v)
        lcm = math.lcm(*range(1, cut + 1))  # (-1)^(n-1) L/n over L = lcm(1..cut), whose p-part is p^slack
        return w._series([0] + [lcm // n if n % 2 else -(lcm // n) for n in range(1, cut + 1)], lcm, slack)

    def __eq__(self, other):
        return isinstance(other, ExtElem) and self.ring == other.ring and self.coords == other.coords


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
