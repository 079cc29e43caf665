"""Fixed-precision arithmetic in Z_p, its unramified extensions and their products Z_p[x]/(h),
and exp, log and cube roots.

A value is a residue mod p^prec: a plain int where the decision needs one number, and an ExtElem
of the ring Z[x]/(h, p^prec) otherwise.  Z_p itself is the d = 1 ring ExtRing(p, prec, (0, 1)),
with + - * ** inv val exp log.  Valuations are read from residues on demand, and residue 0 only
certifies "valuation >= prec".  Working precision is fixed per value (default 24 digits);
callers that need a quantity to be nonzero and find it vanishing mod p^prec are expected to
recompute at doubled precision (see e.g. tribonacci.trib_val).

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
# the ring Z_p[x]/(h, p^prec)


class ExtRing:
    """Z[x]/(h, p^prec) for a monic h of degree d squarefree mod p (d = 1: Z/p^prec): a product
    of unramified extensions, one per irreducible factor of h mod p, with val() the minimum over them.
    Inverses start from the exponent of the residue ring R/p, which needs h squarefree mod p.

    The modulus is stored as the symmetric residues of h's coefficients, in (-p^prec/2, p^prec/2],
    so P = x^3 - x^2 - x - 1 reads (-1, -1, -1, 1) and reduction by h multiplies by small integers.
    Degree 3 has a straight-line product: the five convolution terms, then x^3 = r_0 + r_1 x + r_2 x^2
    with r = -h.
    """

    __slots__ = ("p", "prec", "pk", "modulus", "d")

    def __init__(self, p: int, prec: int, modulus: tuple[int, ...]):
        if p < 3:
            raise ValueError("ExtRing needs an odd prime p >= 3")
        if prec < 1:
            raise ValueError("precision must be >= 1")
        self.p = p
        self.prec = prec
        self.pk = pk = p**prec
        half = pk // 2
        self.modulus = tuple(c - pk if c > half else c for c in (c % pk for c in modulus[:-1])) + (1,)
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.d = len(modulus) - 1

    def elem(self, coords) -> "ExtElem":
        coords = list(coords) + [0] * (self.d - len(coords))
        return ExtElem(self, tuple(c % self.pk for c in coords[: self.d]))

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
        return self.elem([0, 1] if self.d > 1 else [-self.modulus[0]])  # x = -h_0 mod (x + h_0)

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        """Product of two coordinate tuples, reduced mod (h, p^prec)."""
        d, pk, h = self.d, self.pk, self.modulus
        if d == 1:
            return (a[0] * b[0] % pk,)
        if d == 3:
            a0, a1, a2 = a
            b0, b1, b2 = b
            h0, h1, h2, _ = h
            c4 = a2 * b2
            c3 = a1 * b2 + a2 * b1 - c4 * h2  # c4 x^4 = c4 x (r_0 + r_1 x + r_2 x^2)
            return (
                (a0 * b0 - c3 * h0) % pk,
                (a0 * b1 + a1 * b0 - c4 * h0 - c3 * h1) % pk,
                (a0 * b2 + a1 * b1 + a2 * b0 - c4 * h1 - c3 * h2) % pk,
            )
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i] % pk
            if c:
                for j in range(d):
                    prod[i - d + j] -= c * h[j]
            prod[i] = 0
        return tuple(c % pk for c in prod[:d])

    def lifted(self, extra: int) -> "ExtRing":
        # same modulus coefficients read at higher precision: results only ever
        # get consumed modulo p^prec, where the two rings agree
        return ExtRing(self.p, self.prec + extra, self.modulus)

    def __eq__(self, other):
        return (
            isinstance(other, ExtRing)
            and (self.p, self.prec, self.modulus) == (other.p, other.prec, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.prec, self.modulus))

    def __repr__(self):
        return f"ExtRing(p={self.p}, prec={self.prec}, d={self.d})"


class ExtElem:
    """An element of an ExtRing: d coordinates in [0, p^prec) w.r.t. 1, x, ..., x^(d-1)."""

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

    def __rsub__(self, other):
        return (-self) + other

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

    def __pow__(self, e: int):
        if e < 0:
            return self.inv() ** (-e)
        if self.ring.d == 1:
            return ExtElem(self.ring, (pow(self.coords[0], e, self.ring.pk),))
        out = self.ring.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inv(self) -> "ExtElem":
        """Inverse of a unit: g^(E-1) mod p lifted by Newton iteration, E = lcm(p^k - 1 : k <= d);
        on the d = 1 ring, unit_inverse of the one coordinate.

        h is squarefree mod p, so R/p is a product of fields F_(p^k) with k <= d and E is a
        multiple of the exponent of (R/p)^x.  A non-unit (a multiple of p or a zero divisor)
        fails the final check y*g = 1.
        """
        ring = self.ring
        p = ring.p
        if ring.d == 1:
            (a,) = self.coords
            y = ExtElem(ring, (unit_inverse(a, p, ring.prec) if a % p else 0,))
        else:
            e = math.lcm(*(p**k - 1 for k in range(1, ring.d + 1)))
            y = (self.lift_to(ExtRing(p, 1, ring.modulus)) ** (e - 1)).lift_to(ring)
            for _ in range(max(ring.prec.bit_length(), 1)):
                y = y * (2 - self * y)
        if self * y != ring.one:
            raise PrecisionError("not a unit in the extension")
        return y

    def val(self) -> int:
        """Valuation: min over coordinates (the ring is unramified); prec if zero."""
        v = self.ring.prec
        for c in self.coords:
            if c:
                v = min(v, _vp(c, self.ring.p))
                if v == 0:
                    return 0
        return v

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

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

    def exp(self) -> "ExtElem":
        """exp on pO (p >= 3, unramified), truncated correctly mod p^prec: exp(z + w) = exp(z) exp(w),
        and nu_p(exp(z) - 1) = nu_p(z) below prec."""
        if self.val() < 1:
            raise ValueError("exp needs valuation >= 1")
        p, cut = self.ring.p, _exp_cutoff(self.ring.p, self.ring.prec)
        coeffs = [1] * (cut + 1)  # cut!/n!, over the common denominator cut!
        for n in range(cut, 0, -1):
            coeffs[n - 1] = coeffs[n] * n
        return self._series(coeffs, coeffs[0], vp_factorial(cut, p))

    def log(self) -> "ExtElem":
        """log on 1 + pO (p >= 3, unramified), truncated correctly mod p^prec; inverse to exp:
        log(exp(z)) = z on pO and exp(log(u)) = u on 1 + pO."""
        w = self - self.ring.one
        v = w.val()
        if v < 1:
            raise ValueError("log needs an argument = 1 (mod p)")
        cut, slack = _log_cutoff(self.ring.p, self.ring.prec, v)
        lcm = math.lcm(*range(1, cut + 1))  # (-1)^(n-1) L/n over L = lcm(1..cut), whose p-part is p^slack
        return w._series([0] + [lcm // n if n % 2 else -(lcm // n) for n in range(1, cut + 1)], lcm, slack)

    def __eq__(self, other):
        return isinstance(other, ExtElem) and self.ring == other.ring and self.coords == other.coords

    def __hash__(self):
        return hash((self.ring, self.coords))

    def __repr__(self):
        return f"ExtElem{self.coords} in {self.ring!r}"


def _exp_cutoff(p: int, prec: int) -> int:
    # smallest M with n - nu_p(n!) >= prec for every n >= M, via nu_p(n!) <= (n-1)/(p-1)
    return -((-(prec * (p - 1) - 1)) // (p - 2))


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


def cube_root(u: ExtElem) -> ExtElem:
    """The unique y in Z_p^x with y^3 = u (mod p^prec), for u in the d = 1 ring Z/p^prec and
    p = 2 (mod 3).

    One powering, y = u^(3^-1 mod (p-1) p^(prec-1)): (Z/p^prec)^x is cyclic of order
    (p-1) p^(prec-1), which 3 does not divide, so cubing is a bijection and this is its
    inverse.  y^3 = u is checked by a raise.
    """
    ring = u.ring
    p, prec = ring.p, ring.prec
    if ring.d != 1:
        raise ValueError("cube_root needs an element of the d = 1 ring Z/p^prec")
    if p % 3 != 2:
        raise ValueError("cube roots are unique only for p = 2 (mod 3)")
    (r,) = u.coords
    if r % p == 0:
        raise ValueError("cube_root needs a unit")
    y = ring.embed(pow(r, pow(3, -1, (p - 1) * p ** (prec - 1)), ring.pk))
    if y * y * y != u:
        raise AssertionError(f"the cube root of {r} mod {p}^{prec} fails y^3 = u")
    return y
