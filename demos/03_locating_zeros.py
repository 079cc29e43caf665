"""Finding a p-adic zero of the Tribonacci interpolation: the p = 5 story.

T(21) = 121415 = 5 * 24283, so the class n = 21 (mod 31) is divisible by 5
somewhere p-adically deep.  The interpolant f(z), with f(m) = T(21 + 31m),
is divided by 5 and expanded as a power series g around the first digit of its
zero; Strassman's bound says one zero, Hensel's lemma finds it, and the zero
turns out to sit exactly over the rational point 1/3 -- one of the two twisted
rational zeros of the sequence.
"""

from tribadic import (
    certify,
    class_series,
    hensel_zero,
    prime_context,
    trib,
    val_int,
)

ctx = prime_context(5, 24)
print(f"p = 5, N = {ctx.n_period}, T(21) = {trib(21)} = 5 * {trib(21) // 5}")

series = class_series(ctx, 21)  # at 5^24, else at 5^48, else 5^96: here the first
d0 = series.start % 5  # beta_1 is a unit, so g has its one zero in d0 + 5Z_5
ell1 = 21 + 31 * d0
print(f"\ng = f/5 has its zero in {d0} + 5Z_5: it is expanded there, as the class l' = 21 + 31*{d0} = {ell1}")
print(f"f = 5g interpolates the subsequence there: f(m) = T(21 + 31m) for m = {d0} (mod 5)")
for m in (d0, d0 + 5, d0 - 5):  # g(m) = sum gamma_k (m - d0)^k, plain Horner on the disc's terms
    got = 0
    for c in reversed(series.coeffs):
        got = (got * (m - d0) + c) % 5**24
    got = 5 * got % 5**24
    print(f"  f({m}) mod 5^24 = {got}  == T({21 + 31 * m}) mod 5^24: {got == trib(21 + 31 * m) % 5**24}")

print(f"\ng(d0 + u) = sum gamma_k u^k, gamma_0 = T({ell1})/5 = {series.coeffs[0]}")
print(f"gamma valuations: {[val_int(c, 5) if c else 24 for c in series.coeffs]}")
print(f"Strassman bound on the number of zeros: mu = {series.mu}")  # computed once, in class_series

record = hensel_zero(series)
print(f"\nNewton residual valuations per step: {record.residual_vals}  (doubling: Hensel at work)")
print(f"zero b, first 10 digits base 5: {record.digits()[:10]}")

a = 21 + 31 * record.b  # b is a residue mod 5^24
print(f"\nl + N*b mod 5 = {a % 5}  (the published table lists u = 2 for p = 5)")
# read from the same series, no Newton step and no evaluation: 21 = 1/3 (mod 31) and 5 divides
# T(21) and T(19), so by the exactness lemma (tribadic.classifier) the zero is 1/3 exactly
cert = certify(series)
print(f"linear certificate of the class: a = {cert.a}, kappa = {cert.kappa}, Q = {cert.q}")
print(f"indeed 3*(l + N*b) - 1 vanishes mod 5^22: {(3 * a - 1) % 5**22 == 0}")
print("\nso the only 5-adic zero of this class is the twisted rational zero 1/3:")
print("nu_5(T(n)) = 1 + nu_5(n - 1/3) on the whole class n = 21 (mod 31).")
