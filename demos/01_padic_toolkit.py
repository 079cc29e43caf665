"""A tour of the fixed-precision p-adic toolkit.

Values live in Z_p modulo p^K (default K = 24), which is the d = 1 ring
ExtRing(p, K, (0, 1)): the same ring type that holds Z_p[x]/(P).  Each value
reads its certified valuation off its residue, and exp / log / cube roots
come with the ultrametric guarantees that the rest of the package leans on.
"""

from tribadic import ExtRing, cube_root, val_int

p, K = 7, 12
Zp = ExtRing(p, K, (0, 1))

print(f"Working in Z_{p} at precision {p}^{K}\n")

x = Zp.embed(3 * 7**2)
print(f"x = 3*7^2 as a residue: {x.coords[0]}, certified valuation nu_7(x) = {x.val()}")
print(f"val_int(24, 2) = {val_int(24, 2)}   (24 = 2^3 * 3)")

u = Zp.embed(5)
v = u.inv()
print(f"\n5^-1 mod 7^{K} = {v.coords[0]};  check 5 * inv = {(u * v).coords[0]}")

# exp and log are mutually inverse between pZ_p and 1 + pZ_p
z = Zp.embed(7 * 123456)
e = z.exp()
print(f"\nexp(z) for z = 7*123456: residue {e.coords[0]}")
print(f"  nu(exp(z) - 1) = {(e - 1).val()} = nu(z) = {z.val()}")
print(f"  log(exp(z)) == z: {e.log() == z}")

w = Zp.embed(7 * 999)
print(f"  exp(z + w) == exp(z)exp(w): {(z + w).exp() == z.exp() * w.exp()}")

# for p = 2 (mod 3), every unit has a single cube root in Z_p
two = ExtRing(5, 6, (0, 1)).embed(2)
r = cube_root(two)
(root,) = r.coords
print(f"\ncube root of 2 in Z_5 (mod 5^6): {root};  r^3 = {(r * r * r).coords[0]}")
brute = [y for y in range(5**3) if y**3 % 5**3 == 2 % 5**3]
print(f"exhaustive search mod 5^3 finds exactly {brute} -- matches r mod 125 = {root % 125}")
