"""How the Tribonacci recurrence looks p-adically.

X^3 - X^2 - X - 1 factors mod p in one of three ways (discriminant -44, so
p = 2, 11 are off limits).  Nothing needs its roots or factors on their own: in
R = Z_p[x]/(P), x acts as the companion matrix of the recurrence, so
T(n) = phi(x^n) with phi(a + bx + cx^2) = b + c.  The splitting degree d is the
least k with x^(p^k) = x in (Z/p)[x]/(P), and the period N of T mod p is the
order of x there.  tribonacci._xpow reads x^n, n of any sign, as the triple of its
coordinates w.r.t. 1, x, x^2 by one binary powering; x^-1 = x^2 - x - 1.
"""

from tribadic import prime_context, trib_mod
from tribadic._factor import factorize
from tribadic.tribonacci import _xpow


print("splitting degrees and periods, both read from powers of x mod p:")
for p in (47, 13, 5):
    ctx = prime_context(p)
    shape = {1: "three rational roots", 2: "linear x quadratic", 3: "irreducible"}[ctx.d]
    print(f"  p = {p}: d = {ctx.d} ({shape}), N = {ctx.n_period}")

print("\nT(n) = phi(x^n) in Z_13[x]/(P), whatever the splitting (p = 13 has d = 2):")
pk = 13**24
for n in (-17, -4, 0, 1, 10, 21):
    c0, c1, c2 = (ci if ci < pk // 2 else ci - pk for ci in _xpow(n, pk))  # small integers: print them signed
    phi = (c1 + c2) % pk
    print(f"  x^{n:<3} = {c0:>6} + {c1:>6} x + {c2:>6} x^2   phi(x^{n}) = {c1 + c2:>6} == T({n}) mod 13^24: "
          f"{phi == trib_mod(n, pk)}")

print("\nperiods (published N column), each the order of x mod p:")
for p, listed in ((5, 31), (7, 48), (13, 168), (83, 287), (397, 132), (599, 598)):
    ctx = prime_context(p, 8)
    n = ctx.n_period
    one = _xpow(n, p) == (1, 0, 0)
    minimal = all(_xpow(n // q, p) != (1, 0, 0) for q in factorize(n))
    mark = "ok" if n == listed else "MISMATCH"
    print(f"  N_{p} = {n:>6}  (published {listed:>6})  {mark};  x^N = 1: {one}, x^(N/q) != 1 for q | N: {minimal}")

print("\nand T(n + N) = T(n) (mod p) really holds, e.g. p = 83:")
ctx = prime_context(83, 8)
window = all(trib_mod(n + ctx.n_period, 83) == trib_mod(n, 83) for n in range(-20, 120))
print(f"  checked on a window of 140 values: {window}")
