"""Per-prime verdicts on the two conjecture forms, with the interesting failures.

For each prime the classifier scans one period for the classes with p | T(l),
tests the derivative condition T(l+N) != T(l) (mod p^2), and computes the
residue u of l + N*b.  A u outside Z_T mod p kills the integer-coefficient
form; outside Z_T plus {1/3, -5/3} it kills the rational form too.  When all
zero classes sit over Z_T (or Q_T, with all roots rational and 3 coprime to N)
the conjecture holds and explicit linear formulas come out.  The forms are the
rows of FORMS, narrowest target set first, and a record's verdicts are keyed by them.
"""

from tribadic import FORMS, classify_prime, scan_range, trib

print("forms:", ", ".join(f"{f.label} over {f.set_name} (key {f.key!r})" for f in FORMS))
print()

print(f"{'p':>5} {'N':>7} {'ML':>10} {'witness':>12} {'rational':>10}  note")
for p in (5, 7, 47, 83, 103, 163, 269, 397, 419):
    rec = classify_prime(p)
    ml, rat = rec.verdicts["ml"], rec.verdicts["rational"]
    witness = f"({ml.ell},{ml.u})" if ml.status == "fails" else ""
    note = ""
    if ml.status == "holds":
        note = f"Q = {ml.q}"
    elif rat.status == "holds":
        note = f"rational Q = {rat.q}"
    elif rat.diagnostic:
        note = rat.diagnostic
    print(f"{p:>5} {rec.n_period or '-':>7} {ml.status:>10} {witness:>12} {rat.status:>10}  {note}")

print("\nwhy 47 resists the rational form: -17 and -5/3 collide mod N = 46,")
print("so the one zero of that class answers to two different targets and the")
print("derivative condition necessarily degenerates there.")

print(f"\nwhy 103 resists everything: T(17) = {trib(17)} = 103^2 exactly,")
print("so T(l+N) = T(l) (mod 103^2) at l in {0, 17, 34} and Hensel cannot start.")

rec = classify_prime(269)
print("\np = 269 is the poster child for the rational form: six zero classes,")
for info in rec.zero_table:
    print(f"  l = {info.ell:>3}  -> target {info.target}")
print("each with a certified linear formula nu_269(T(n)) = 1 + nu_269(n - a).")

print("\ncensus up to 600:")
s = scan_range(600)
ml, rat = s.verdicts["ml"], s.verdicts["rational"]
print(f"  ML:        holds {ml['holds']}, undecided {ml['undecided']}, excluded {ml['excluded']},")
print(f"             fails for the remaining {len(ml['fails'])} primes")
print(f"  rational:  holds {rat['holds']}, undecided {rat['undecided']}")
print(f"  fully split p = 2 (mod 3): {s.cube_root_family}")
print(f"  that family's density so far: {s.cube_root_family_fraction:.4f} vs 1/12 = {1/12:.4f}")
