"""The ring every verdict is computed in.

R = Z_p[x]/(P), P = x^3 - x^2 - x - 1, held modulo p^K: an element is the triple of its
coordinates w.r.t. 1, x, x^2, three residues mod p^K, and tribonacci._mul multiplies two of
them with x^3 = 1 + x + x^2.  x acts as the companion matrix of the recurrence, so
T(n) = phi(x^n) with phi(a + bx + cx^2) = b + c, and tribonacci._xpow reads x^n by one binary
powering.  x^N = 1 (mod p) for the period N of T mod p, so log x^N (interpolation._log) is
defined, and its valuation E = nu_p(log x^N) is the exponent the interpolation divides by.
interpolation._val reads the valuation a triple certifies off its residues: the least over the
coordinates, K if all vanish.
"""

from tribadic import prime_context, trib, val_int
from tribadic.interpolation import _log, _val
from tribadic.tribonacci import _mul, _xpow

p, K = 5, 12
pk = p**K
x = (0, 1, 0)
print(f"R = Z_{p}[x]/(P) mod {p}^{K}:  x^3 == 1 + x + x^2: {_mul(_mul(x, x, pk), x, pk) == (1, 1, 1)}")


def phi(g):
    return (g[1] + g[2]) % pk


print("\nT(n) = phi(x^n), and the valuation its residue certifies:")
for n in (-4, 0, 1, 2, 10, 21, 52):
    t = phi(_xpow(n, pk))
    v = _val((t, 0, 0), p, K)
    exact = val_int(trib(n), p) if trib(n) else "inf"
    print(f"  n = {n:>3}: T(n) = {trib(n):>10}  phi(x^n) == T(n) mod {p}^{K}: {t == trib(n) % pk}"
          f"  val = {v:>2}  (nu_{p}(T(n)) = {exact})")

N = prime_context(p).n_period
y = _xpow(N, pk)
E = _val((y[0] - 1, y[1], y[2]), p, K)
L = _log(y, p, K)
print(f"\nthe period N = {N}: x^N = 1 (mod {p}), with nu_{p}(x^N - 1) = {E}")
print(f"  L = log x^N has val {_val(L, p, K)}: on 1 + pR, nu(log u) = nu(u - 1) (R is unramified at {p})")
print(f"  log is additive: log(x^N * x^N) == 2 L: {_log(_mul(y, y, pk), p, K) == tuple(2 * c % pk for c in L)}")

print(f"\nalong the class n = 21 (mod {N}): T(21 + {N}m) = phi(x^21 * (x^N)^m)")
term = _xpow(21, pk)
for m in range(6):
    t = phi(term)
    print(f"  m = {m}: T({21 + N * m}) = {t} (mod {p}^{K}), val {_val((t, 0, 0), p, K)}, "
          f"== phi(x^{21 + N * m}): {t == phi(_xpow(21 + N * m, pk))}")
    term = _mul(term, y, pk)
