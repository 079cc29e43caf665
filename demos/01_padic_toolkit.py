"""The ring every verdict is computed in.

R = Z_p[x]/(P), P = x^3 - x^2 - x - 1, held modulo p^K as ExtRing(p, K): an element is
three residues mod p^K, its coordinates w.r.t. 1, x, x^2, and x^3 = 1 + x + x^2.  x acts as
the companion matrix of the recurrence, so T(n) = phi(x^n) with phi(a + bx + cx^2) = b + c.
x^N = 1 (mod p) for the period N of T mod p, so log x^N is defined, and its valuation
E = nu_p(log x^N) is the exponent the interpolation divides by.  val() reads the valuation an
element certifies off its residues: the least over the coordinates, K if all vanish.
"""

from tribadic import ExtRing, prime_context, trib, val_int


def xpow(ring, n):
    """x^n in ring by square-and-multiply; x^-1 = x^2 - x - 1, since x(x^2 - x - 1) = 1 in R."""
    x = ring.gen
    base = x * x - x - 1 if n < 0 else x
    out = ring.one
    for bit in bin(abs(n))[2:]:
        out = out * out
        if bit == "1":
            out = out * base
    return out


p, K = 5, 12
R = ExtRing(p, K)
x = R.gen
print(f"R = Z_{p}[x]/(P) mod {p}^{K}:  x^3 == 1 + x + x^2: {x * x * x == 1 + x + x * x}")


def phi(g):
    return (g.coords[1] + g.coords[2]) % R.pk


print("\nT(n) = phi(x^n), and the valuation its residue certifies:")
for n in (-4, 0, 1, 2, 10, 21, 52):
    t = phi(xpow(R, n))
    v = R.embed(t).val()
    exact = val_int(trib(n), p) if trib(n) else "inf"
    print(f"  n = {n:>3}: T(n) = {trib(n):>10}  phi(x^n) == T(n) mod {p}^{K}: {t == trib(n) % R.pk}"
          f"  val = {v:>2}  (nu_{p}(T(n)) = {exact})")

N = prime_context(p).n_period
y = xpow(R, N)
E = (y - 1).val()
L = y.log()
print(f"\nthe period N = {N}: x^N = 1 (mod {p}), with nu_{p}(x^N - 1) = {E}")
print(f"  L = log x^N has val {L.val()}: on 1 + pR, nu(log u) = nu(u - 1) (R is unramified at {p})")
print(f"  log is additive: log(x^N * x^N) == 2 L: {(y * y).log() == 2 * L}")

print(f"\nalong the class n = 21 (mod {N}): T(21 + {N}m) = phi(x^21 * (x^N)^m)")
term = xpow(R, 21)
for m in range(6):
    t = phi(term)
    print(f"  m = {m}: T({21 + N * m}) = {t} (mod {p}^{K}), val {R.embed(t).val()}, "
          f"== phi(x^{21 + N * m}): {t == phi(xpow(R, 21 + N * m))}")
    term = term * y
