"""Closed-form valuation tables, verified against the sequence itself.

Nine formulas ship with the package: the classical 2-adic table, the refined
3-adic table (modulus 39), the integer-form tables for 83 and 397, and the
rational-form tables for 269, 401, 419, 499, 587.  Each is checked pointwise
against exact valuations, including adversarial points pushed deep into the
p-adic neighborhood of each linear target by the Chinese remainder theorem.
A deliberately corrupted case shows the verifier has teeth.
"""

from fractions import Fraction

from tribadic import builtin_spec, crt_witness, trib_val, verify_formula
from tribadic.classifier import FormulaCase, FormulaSpec

spec3 = builtin_spec("p3")
print("the 3-adic table (modulus 39), one rule per class:")
for case in spec3.cases:
    rule = f"nu = {case.kappa}" if case.a is None else f"nu = {case.kappa} + nu_3(n - ({case.a}))"
    print(f"  n mod 39 in {list(case.residues)}: {rule}")

for name in ("p2", "p3", "p83", "p269"):
    spec = builtin_spec(name)
    mismatches = verify_formula(spec, 1, 10_000)
    print(f"\n{name}: {len(mismatches)} mismatches on n in [1, 10000]")

print("\nadversarial points via CRT, p = 269, target a = 1/3 on the class 179 mod 268:")
spec = builtin_spec("p269")
for k in (2, 5, 8):
    n = crt_witness(179, 268, Fraction(1, 3), 269, k)
    print(f"  k = {k}: n = {n}")
    print(f"    predicted {spec.predict(n)}, actual nu_269(T(n)) = {trib_val(n, 269)}")

print("\nnegative control: bump one kappa in the 3-adic table and re-verify:")
broken = FormulaSpec(
    spec3.p,
    spec3.q,
    (FormulaCase(spec3.cases[1].residues, spec3.cases[1].kappa + 1, spec3.cases[1].a),)
    + spec3.cases[:1]
    + spec3.cases[2:],
    spec3.default_kappa,
)
mismatches = verify_formula(broken, 1, 10_000)
print(f"  {len(mismatches)} mismatches; first: n = {mismatches[0].n}, "
      f"predicted {mismatches[0].predicted}, actual {mismatches[0].actual}")
