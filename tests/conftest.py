import math
from functools import lru_cache

import pytest

from tribadic import ExtRing, classifier, prime_context

# P and P' as integer polynomials, ascending coefficients
_P = (-1, -1, -1, 1)
_DP = (-1, -2, 3)

# 399165290221 * 798330580441: the least strong pseudoprime to all of the first 12 prime bases 2..37
PSI_12 = 318665857834031151167461


def _peval(x, poly):
    # Horner evaluation of an integer polynomial (ascending coefficients)
    acc = x.ring.zero
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _newton_root(ring, start):
    """The root of P in ring that lifts start, a root of P mod p, by Newton iteration."""
    t = start
    for _ in range(max(ring.prec.bit_length(), 1) + 2):
        f = _peval(t, _P)
        if f.is_zero():
            return t
        t = t - f * _peval(t, _DP).inv()
    raise AssertionError("Newton root lifting failed")


def roots_mod_p_oracle(p):
    """The roots of P in F_p, by exhaustive evaluation over [0, p)."""
    return [r for r in range(p) if (r**3 - r**2 - r - 1) % p == 0]


def oracle_degree(p):
    """The splitting degree d of P mod p, from the number of its roots in F_p."""
    return {3: 1, 1: 2, 0: 3}[len(roots_mod_p_oracle(p))]


def _residue_roots(p):
    """The three roots of P in F_{p^d}, in one ring: rational roots have vanishing top coordinates."""
    rational = roots_mod_p_oracle(p)
    if len(rational) == 3:
        res = ExtRing(p, 1, (0, 1))
        return tuple(res.embed(r) for r in rational)
    if len(rational) == 1:
        (r,) = rational
        res = ExtRing(p, 1, ((r * r - r - 1) % p, (r - 1) % p, 1))  # P / (X - r) mod p
        x = res.gen
        return (res.embed(r), x, -x - (r - 1))
    res = ExtRing(p, 1, _P)
    conj1 = res.gen**p
    return (res.gen, conj1, conj1**p)


@lru_cache(maxsize=None)
def lifted_roots(p, prec):
    """Test-only oracle: (ring, roots, weights) with the roots of P Newton-lifted to p^prec in
    the unramified ring that holds all three, and the Binet weights c = lambda / P'(lambda).

    For d = 2 the ring's modulus is P / (X - r) for the rational root r, lifted in Z/p^prec."""
    d = oracle_degree(p)
    residue_roots = _residue_roots(p)
    if d == 2:
        line = ExtRing(p, prec, (0, 1))
        r = _newton_root(line, residue_roots[0].lift_to(line)).coords[0]
        ring = ExtRing(p, prec, (r * r - r - 1, r - 1, 1))
    else:
        ring = ExtRing(p, prec, (0, 1) if d == 1 else _P)
    roots = tuple(_newton_root(ring, lam.lift_to(ring)) for lam in residue_roots)
    if len({tuple(c % p for c in lam.coords) for lam in roots}) != 3:
        raise AssertionError("roots are not pairwise distinct mod p")
    cs = tuple(lam * _peval(lam, _DP).inv() for lam in roots)
    # Binet sanity: e1 = e3 = 1 for P, and sum c*lambda^n = T(n) at n = 0, 1
    if (
        roots[0] + roots[1] + roots[2] != ring.one
        or roots[0] * roots[1] * roots[2] != ring.one
        or not (cs[0] + cs[1] + cs[2]).is_zero()
        or sum((ci * li for ci, li in zip(cs, roots)), ring.zero) != ring.one
    ):
        raise AssertionError(f"roots and Binet coefficients for p = {p} fail e1 = e3 = 1, T(0) = 0, T(1) = 1")
    return ring, roots, cs


def hensel_cube_root(u, y):
    """Test-only oracle: the cube root of the unit u that lifts y, a cube root of u mod p, by
    Newton iteration on X^3 - u; u and y are ExtElems of one ring."""
    for _ in range(max(u.ring.prec.bit_length(), 1) + 1):
        y = y - (y * y * y - u) * (3 * y * y).inv()
    if not (y * y * y - u).is_zero():
        raise AssertionError(f"Hensel lifting of a cube root of {u!r} failed")
    return y


def zp_residue(g):
    """The residue mod p^prec of a Galois-stable ExtElem g: its extension coordinates vanish."""
    if any(g.coords[1:]):
        raise AssertionError(f"{g!r} has nonvanishing extension coordinates")
    return g.coords[0]


def known_val(r, p, prec):
    """min(nu_p(r), prec): the valuation a residue mod p^prec certifies, read in the d = 1 ring."""
    return ExtRing(p, prec, (0, 1)).embed(r).val()


def trib_mod_oracle(n, m):
    """T(n) mod m for n >= 0 by powering the companion matrix of the recurrence, integers only."""

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(3)) % m for j in range(3)] for i in range(3)]

    out, mat = [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 1], [1, 0, 0], [0, 1, 0]]
    while n:
        if n & 1:
            out = mul(out, mat)
        mat = mul(mat, mat)
        n >>= 1
    return out[1][0] % m  # M^n = [[T(n+1), ...], [T(n), ...], ...]


def log_series_oracle(u):
    """log u for an ExtElem u = 1 (mod p), summed as far as nu_p(u - 1) >= 1 alone requires.

    The cutoff is the least M with n - log_p(n) >= prec for n >= M, whatever the actual
    valuation; the terms (-1)^(n-1) (L/n) w^n, L = lcm(1..M), are summed power by power at
    nu_p(L) extra digits and divided by L at the end."""
    ring = u.ring
    p, prec = ring.p, ring.prec
    cut = prec
    while cut - (len(_base_p_digits(cut, p)) - 1) < prec:
        cut += 1
    lcm = math.lcm(*range(1, cut + 1))
    slack = len(_base_p_digits(cut, p)) - 1
    big = ring.lifted(slack)
    w = (u - 1).lift_to(big)
    acc, power = big.zero, big.one
    for n in range(1, cut + 1):
        power = power * w
        acc = acc + power * ((-1) ** (n - 1) * (lcm // n))
    return (acc.div_exact_p(slack) * pow(lcm // p**slack, -1, big.pk)).lift_to(ring)


def _base_p_digits(n, p):
    out = []
    while n:
        n, r = divmod(n, p)
        out.append(r)
    return out


@pytest.fixture(scope="session")
def ctx5():
    return prime_context(5, 24)


@pytest.fixture(scope="session")
def ctx7():
    return prime_context(7, 24)


@pytest.fixture(scope="session")
def ctx83():
    return prime_context(83, 24)


@pytest.fixture(scope="session")
def ctx269():
    return prime_context(269, 24)


@pytest.fixture
def cold_records():
    """An empty classification memo for the test, and again after it: a test that counts the
    calls behind classify_prime sees them all, and no record it built under a monkeypatch
    reaches another test."""
    classifier._records.clear()
    yield
    classifier._records.clear()
