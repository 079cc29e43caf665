import math
import random
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

import pytest

from tribadic import classifier, prime_context, trib_val
from tribadic._factor import crt_pair
from tribadic.tribonacci import _xpow

# P and P' as integer polynomials, ascending coefficients
_P = (-1, -1, -1, 1)
_DP = (-1, -2, 3)

# 399165290221 * 798330580441: the least strong pseudoprime to all of the first 12 prime bases 2..37
PSI_12 = 318665857834031151167461


class OracleRing:
    """Test-only Z[x]/(h, p^prec) for any monic h (ascending coefficients; h = (0, 1) is Z_p):
    the schoolbook product with long division by h, inv by Newton, ** by squaring, exp as the
    direct series and log as log_series_oracle.  It shares no code with the library, so it
    checks tribonacci._mul, R's product, and interpolation._log.

    h is stored as the symmetric residues of its coefficients, in (-p^prec/2, p^prec/2], so rings
    are equal exactly when their moduli agree mod p^prec, and P reads (-1, -1, -1, 1) however it
    was given: reduction by h multiplies by small integers."""

    def __init__(self, p, prec, modulus):
        if p < 3 or prec < 1:  # exp's cutoff reads p - 2 > 0
            raise ValueError("the test ring needs an odd prime p >= 3 and a precision >= 1")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.p, self.prec, self.pk = p, prec, p**prec
        half = self.pk // 2
        self.modulus = tuple(c - self.pk if c > half else c for c in (c % self.pk for c in modulus[:-1])) + (1,)
        self.d = len(modulus) - 1

    def elem(self, coords):
        coords = list(coords) + [0] * (self.d - len(coords))
        return OracleElem(self, tuple(c % self.pk for c in coords[: self.d]))

    def embed(self, n):
        return self.elem([n])

    @property
    def zero(self):
        return self.embed(0)

    @property
    def one(self):
        return self.embed(1)

    @property
    def gen(self):
        return self.elem([0, 1] if self.d > 1 else [-self.modulus[0]])  # x = -h_0 mod (x + h_0)

    def mul(self, a, b):
        """a*b mod (h, p^prec): the full product, then long division by h from the top down."""
        d, h, pk = self.d, self.modulus, self.pk
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] += x * y
        for top in range(2 * d - 2, d - 1, -1):  # minus prod[top] x^(top-d) h clears x^top, h monic
            q = prod[top]
            for j in range(d):
                prod[top - d + j] -= q * h[j]
        return tuple([c % pk for c in prod[:d]])

    def lifted(self, extra):
        return OracleRing(self.p, self.prec + extra, self.modulus)

    def __eq__(self, other):
        return isinstance(other, OracleRing) and (self.p, self.prec, self.modulus) == (
            other.p, other.prec, other.modulus)

    def __repr__(self):
        return f"OracleRing(p={self.p}, prec={self.prec}, modulus={self.modulus})"


class OracleElem:
    """An element of an OracleRing: d coordinates in [0, p^prec) w.r.t. 1, x, ..., x^(d-1)."""

    __slots__ = ("ring", "coords")

    def __init__(self, ring, coords):
        self.ring, self.coords = ring, coords

    def _other(self, other):
        if isinstance(other, int):
            return self.ring.embed(other)
        if other.ring is not self.ring and other.ring != self.ring:
            raise ValueError("elements from different rings")
        return other

    def __add__(self, other):
        other = self._other(other)
        return self.ring.elem([a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return self.ring.elem([-a for a in self.coords])

    def __sub__(self, other):
        return self + -self._other(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._other(other)
        return OracleElem(self.ring, self.ring.mul(self.coords, other.coords))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            return self.inv() ** -e
        out, base = self.ring.one, self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def inv(self):
        """Newton's y <- y(2 - g y) from y = g^(E-1) mod p, E = lcm(p^k - 1 : k <= d) a multiple of
        the exponent of (R/p)^x for h squarefree mod p; a non-unit fails the check g y = 1."""
        ring = self.ring
        e = math.lcm(*(ring.p**k - 1 for k in range(1, ring.d + 1)))
        y = (self.lift_to(OracleRing(ring.p, 1, ring.modulus)) ** (e - 1)).lift_to(ring)
        for _ in range(ring.prec.bit_length()):
            y = y * (2 - self * y)
        if self * y != ring.one:
            raise ZeroDivisionError(f"{self!r} is not a unit")
        return y

    def exp(self):
        """sum z^n / n! over n <= M, the least M with (n(p - 2) + 1)/(p - 1) >= prec for n > M, a
        lower bound of nu_p(z^n / n!): the terms times M!, summed nu_p(M!) digits deeper, then
        divided by M!."""
        ring = self.ring
        p, prec = ring.p, ring.prec
        if self.val() < 1:
            raise ValueError("exp needs valuation >= 1")
        top = 0
        while (top + 1) * (p - 2) + 1 < prec * (p - 1):
            top += 1
        terms = [1] * (top + 1)  # M!/n!
        for n in range(top, 0, -1):
            terms[n - 1] = terms[n] * n
        slack = _val(terms[0], p)
        big = ring.lifted(slack)
        acc, power = [0] * ring.d, big.one.coords
        for t in terms:
            acc = [a + t * c for a, c in zip(acc, power)]
            power = big.mul(power, self.coords)
        return (big.elem(acc).div_exact_p(slack) * pow(terms[0] // p**slack, -1, big.pk)).lift_to(ring)

    def log(self):
        return log_series_oracle(self)

    def val(self):
        return min(known_val(c, self.ring.p, self.ring.prec) for c in self.coords)

    def is_zero(self):
        return not any(self.coords)

    def div_exact_p(self, w):
        q = self.ring.p**w
        if any(c % q for c in self.coords):
            raise ArithmeticError("exact division by p^w failed")
        return OracleElem(self.ring, tuple(c // q for c in self.coords))

    def lift_to(self, ring):
        return ring.elem(self.coords)

    def __eq__(self, other):
        return isinstance(other, OracleElem) and self.ring == other.ring and self.coords == other.coords

    def __repr__(self):
        return f"OracleElem{self.coords} in {self.ring!r}"


def _val(x, p):
    # nu_p of a nonzero integer, by trial division
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


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
        res = OracleRing(p, 1, (0, 1))
        return tuple(res.embed(r) for r in rational)
    if len(rational) == 1:
        (r,) = rational
        res = OracleRing(p, 1, ((r * r - r - 1) % p, (r - 1) % p, 1))  # P / (X - r) mod p
        x = res.gen
        return (res.embed(r), x, -x - (r - 1))
    res = OracleRing(p, 1, _P)
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
        line = OracleRing(p, prec, (0, 1))
        r = _newton_root(line, residue_roots[0].lift_to(line)).coords[0]
        ring = OracleRing(p, prec, (r * r - r - 1, r - 1, 1))
    else:
        ring = OracleRing(p, prec, (0, 1) if d == 1 else _P)
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
    Newton iteration on X^3 - u; u and y are OracleElems of one ring."""
    for _ in range(max(u.ring.prec.bit_length(), 1) + 1):
        y = y - (y * y * y - u) * (3 * y * y).inv()
    if not (y * y * y - u).is_zero():
        raise AssertionError(f"Hensel lifting of a cube root of {u!r} failed")
    return y


def zp_residue(g):
    """The residue mod p^prec of a Galois-stable OracleElem g: its extension coordinates vanish."""
    if any(g.coords[1:]):
        raise AssertionError(f"{g!r} has nonvanishing extension coordinates")
    return g.coords[0]


def rule_table(spec):
    """A FormulaSpec's normalized per-residue rules (kappa, a, mu), for comparing specs
    structurally: a is a Fraction, and None with mu on a constant class."""
    out = []
    for r in range(spec.q):
        case = next((c for c in spec.cases if r in c.residues), None)
        if case is None or case.a is None:
            out.append((case.kappa if case else spec.default_kappa, None, None))
        else:
            out.append((case.kappa, Fraction(case.a), case.mu))
    return tuple(out)


def known_val(r, p, prec):
    """min(nu_p(r), prec): the valuation a residue mod p^prec certifies, by trial division."""
    r %= p**prec
    return _val(r, p) if r else prec


def _plain_horner(coeffs, z, m):
    # oracle: one Horner step and one reduction per coefficient, lowest degree first
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * z + c) % m
    return acc


def slopes(coeffs):
    """k c_k for k >= 1: the coefficients of the derivative of sum c_k z^k."""
    return [k * coeffs[k] for k in range(1, len(coeffs))]


def series_eval(series, z):
    """Oracle: g(z) mod p^prec for an int z, by plain Horner over series.coeffs; on a disc series
    the terms are read at z - d0, and a z off the disc d0 + pZ_p, where they are not certified,
    is a misuse of the oracle."""
    p, m = series.ctx.p, series.ctx.p**series.ctx.prec
    if series.start is not None:
        d0 = series.start % p
        if (z - d0) % p:
            raise AssertionError(f"z = {z} is off the disc {d0} + {p}Z_p that the series was built on")
        z -= d0
    return _plain_horner(series.coeffs, z, m)


def certify_oracle(series):
    """Oracle: the linear certificate by evaluation, as classifier.certify once decided it: at
    mu = 1, the first t in Q_T with z = (t - l)/sN in Z_p whose first digit is the zero's and with
    g(z) = 0 (mod p^prec).  A K-digit match, not a proof: the lemma's certify must equal it."""
    if series.mu != 1:
        return None
    ctx, ell = series.ctx, series.ell
    p, q, pk = ctx.p, series.s * ctx.n_period, ctx.p**ctx.prec
    if series.start is not None:
        v1, digit = 0, series.start % p
    else:
        c0, c1 = series.coeffs[0], series.coeffs[1]
        v1 = known_val(c1, p, ctx.prec)
        digit = -(c0 // p**v1) * pow(c1 // p**v1, -1, p) % p
    vq = _val(q, p)
    for t in classifier.QT:
        num, den = t.as_integer_ratio()
        diff = num - ell * den
        if den % p == 0 or diff % p**vq:
            continue
        z = diff // p**vq * pow(q // p**vq * den, -1, pk) % pk
        if z % p == digit and series_eval(series, z) == 0:
            return classifier.LinearCertificate(q, ell % q, t, series.e + v1 - vq, 1, v1)
    return None


def zero_classes(p, s):
    """Every l in [0, sN) with p | T(l): the zero classes mod N, each lifted by jN for j < s."""
    n_period = prime_context(p).n_period
    return [info.ell + j * n_period for info in classifier._zero_table(p, n_period) for j in range(s)]


def certify_disagreements(cases):
    """certify against certify_oracle on each class (p, l, s, prec), its series escalated by
    class_series: (classes compared, certificates found, the classes where the two differ)."""
    compared, certified, differ = 0, 0, []
    for p, ell, s, prec in cases:
        series = classifier.class_series(prime_context(p, prec), ell, s)
        cert = classifier.certify(series)
        compared, certified = compared + 1, certified + (cert is not None)
        if cert != certify_oracle(series):
            differ.append((p, ell, s, prec))
    return compared, certified, differ


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
    """log u for an element u = 1 (mod p) of an OracleRing, summed as far as nu_p(u - 1) >= 1
    alone requires.

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


# ---------------------------------------------------------------------------
# the cube-root identity at a fully split prime (the nu_p(T(n)) >= nu_p(n - 1/3) family)


class CubeRootReport(namedtuple("CubeRootReport", "p n_period sum_one_third_vanishes sum_minus_five_thirds_vanishes "
                                 "symmetric_identity_holds samples inequality_failures")):
    """What cube_root_certificate checked; each inequality failure is (n, nu(T(n)), nu(n - r))."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (
            self.sum_one_third_vanishes
            and self.sum_minus_five_thirds_vanishes
            and self.symmetric_identity_holds
            and not self.inequality_failures
        )


def _phi(g):
    # phi(a + bx + cx^2) = b + c: T(n) = phi(x^n), and phi(g) is the Binet sum of g over the roots
    return (g.coords[1] + g.coords[2]) % g.ring.pk


def cube_root_certificate(ctx, samples=100, max_extra_val=6, seed=0):
    """Check sum c_lambda lambda^(1/3) = 0 and sum c_lambda lambda^(-5/3) = 0 (mod p^prec), then
    sample n = 1/3 (mod p-1) and check nu_p(T(n)) >= nu_p(n - 1/3), and likewise for -5/3.

    Requires all roots rational (d = 1) and 3 coprime to N; for p = 2 (mod 3) that is automatic.
    In R = Z_p[x]/(P), phi(g) is the Binet sum of g over the roots.  x^N = 1 (mod p), so
    x^(N p^(K-1)) = 1 (mod p^K) and, 3 being prime to that order, y = x^(3^-1 mod N p^(K-1))
    cubes to x: the Hensel lift of x^(3^-1 mod N), which cubes to x mod p.  y^-5 = x^-2 * y.
    y^3 = x is checked by a raise, which python -O keeps."""
    p, prec = ctx.p, ctx.prec
    n_period = ctx.n_period
    if ctx.d != 1:
        raise ValueError("cube-root certificate needs all roots in Q_p (d = 1)")
    if n_period % 3 == 0:
        raise ValueError("cube-root certificate needs 3 coprime to the period N")
    ring = OracleRing(p, prec, _P)
    x = ring.gen
    y = ring.elem(_xpow(pow(3, -1, n_period * p ** (prec - 1)), ring.pk))
    if y * y * y != x:
        raise AssertionError(f"the cube root of x fails y^3 = x mod {p}^{prec}")
    s13_ok, s53_ok = _phi(y) == 0, _phi(ring.elem(_xpow(-2, ring.pk)) * y) == 0
    # Newton's-identity certificate sum c^3 lambda = 3 prod c, with c = w(lambda) for
    # w = x P'(x)^-1 and prod c = prod lambda / prod P'(lambda) = 1/44 (-disc P = 44)
    w = x * (3 * x * x - 2 * x - 1).inv()
    sym_ok = (44 * _phi(w * w * x) - 3) % ring.pk == 0

    rng = random.Random(seed)
    class_mod = p - 1 if p % 3 == 2 else n_period
    failures = []
    for i in range(samples):
        r = classifier.ZERO_TARGETS_RAT[i % 2]
        v = (i // 2) % (max_extra_val + 1)
        u = rng.randrange(1, p)
        pk1 = p ** (v + 1)
        res_p = (r.numerator + u * p**v) * pow(3, -1, pk1) % pk1
        res_m = r.numerator * pow(3, -1, class_mod) % class_mod
        n = crt_pair(res_p, pk1, res_m, class_mod)
        if n == 0:
            n = class_mod * pk1
        rhs = _val(3 * n - r.numerator, p)
        if rhs != v:
            raise AssertionError(f"sample construction is off at n = {n}")
        lhs = trib_val(n, p)
        if not lhs >= rhs:
            failures.append((n, lhs, rhs))
    return CubeRootReport(p, n_period, s13_ok, s53_ok, sym_ok, samples, tuple(failures))


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
    """An empty range cache for the test, and again after it: a test that counts the calls
    behind scan_range or reproduce_table sees them all, and no record it built under a
    monkeypatch reaches another test."""
    classifier._classify_range.cache_clear()
    yield
    classifier._classify_range.cache_clear()
