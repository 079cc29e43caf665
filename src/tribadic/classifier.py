"""Per-prime decision procedure for both forms of the Marques-Lengyel conjecture.

For each admissible prime: scan the period [0, N) for the l with p | T(l), test
T(l+N) != T(l) (mod p^2), compute the mod-p residue u of l + N*b for the
predicted zero b, and class l by the element t of Q_T with t = l (mod N) and
(t - l)/N in Z_p, if any.  One rule then decides each form, the integer form over
Z_T = {0, -1, -4, -17} and the rational form over Q_T = Z_T + {1/3, -5/3}, both
listed in FORMS, narrowest first; the first of these that applies is the verdict:

1. fails, with the first derivative-ok l whose u avoids the targets mod p as witness: there
   e = 1 and beta_1 is a unit, so its zero b is m = (u - l)/N (mod p); one trib_mod per witness
   checks p^2 | T(l + N*m), true at this u and at no other residue, and raises if not;
2. undecided if two targets are congruent mod N (for p >= 5 only Q_T has such pairs);
3. undecided if the derivative condition fails at some l;
4. undecided if some l sits over no target mod N;
5. undecided if the form is out of scope: the rational form needs d = 1 and 3 coprime to N
   (when an earlier, narrower form holds, the detail says that it implies this one);
6. holds if every zero class has a linear certificate over its target, else undecided.

At p = 3, whose Z_T targets collide mod N = 13, the rule is replaced by its own: the integer
form holds and the rational form is undecided, since 1/3 and -5/3 are not 3-adic integers.
A record holds the decision, not its evidence: witness_zero computes a witness's zero digits
where they are printed.  Every record's formula and modulus Q come from one reading of its zero
classes, _class_rules, by Strassman degree: mu = 0 is a constant class, mu = 1 a certified
linear one, and mu >= 2 splits the class mod p*sN.  It reads every class of p = 3 (Q = 39) and,
at step 6, those of any other prime, which all meet the derivative condition, so mu = 1 and Q = N.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import os
from collections import OrderedDict, namedtuple
from fractions import Fraction
from itertools import islice

from ._factor import crt_pair, is_prime, primes_upto
from .galois import EXCLUDED_PRIMES, PrimeContext, prime_context
from .interpolation import (
    ZERO_TARGETS_RAT,
    SeriesTrunc,
    hensel_zero,
    series_coeffs,
)
from .padic import DEFAULT_PRECISION, VAL_INF, PrecisionError, _vp, unit_inverse, val_int
from .tribonacci import ZERO_SET, _xpow, trib_mod, trib_val

ZT = ZERO_SET
QT = ZT + ZERO_TARGETS_RAT


class Form(namedtuple("Form", "key label set_name targets needs_split")):
    """One form of the conjecture, as the verdict rule reads it: the JSON key of its verdict, its
    name in verdict details, the name of its target set, the targets, and whether holds also needs
    all roots rational (d = 1) and 3 coprime to N."""

    __slots__ = ()


# the forms the classifier decides, from the narrowest target set to the widest
FORMS = (Form("ml", "integer", "Z_T", ZT, False), Form("rational", "rational", "Q_T", QT, True))

P_MAX = 10**5  # the largest p_max reproduce_table and scan_range accept

STATUS_HOLDS = "holds"
STATUS_FAILS = "fails"
STATUS_UNDECIDED = "undecided"
STATUS_EXCLUDED = "excluded"

DIAG_DERIVATIVE = "derivative-condition-fails-at-some-ell"
DIAG_U_IN_TARGETS = "u-in-target-set-for-every-ell"
DIAG_QT_COLLISION = "qt-classes-collide-mod-N"
DIAG_OUT_OF_SCOPE = "holds-criteria-out-of-scope"


class Verdict(namedtuple("Verdict", "status q ell u diagnostic detail", defaults=(None,) * 4 + ("",))):
    __slots__ = ()


class ZeroClassInfo(namedtuple("ZeroClassInfo", "ell deriv_ok u target")):
    """One l in [0, N) with p | T(l): derivative condition, u mod p (None where it fails), and
    target, the Q_T element (int, Fraction or None) with l = target (mod N)."""

    __slots__ = ()


class FormulaCase(namedtuple("FormulaCase", "residues kappa a mu", defaults=(None, 1))):
    """Residues mod Q sharing one valuation rule; a (int or Fraction) is None for a constant class."""

    __slots__ = ()


def _is_linear(a: Fraction, i: int, q: int, p: int) -> bool:
    """nu_p(a - i) >= nu_p(q) for p-integral a: n = i (mod q) is a linear class, not a constant one."""
    diff = a.numerator - i * a.denominator
    return diff == 0 or val_int(diff, p) >= _vp(q, p)


class FormulaSpec(namedtuple("FormulaSpec", "p q cases default_kappa")):
    """A full closed-form prediction for nu_p(T(n)): cases mod q plus a constant default.

    Every construction is validated: _make and with it _replace go through the constructor, and
    so does unpickling."""

    def __new__(cls, p, q, cases, default_kappa=0):
        self = super().__new__(cls, p, q, cases, default_kappa)
        if any(type(x) is not int for x in (p, q, *(r for c in cases for r in c.residues))):
            raise ValueError("p, q and the case residues must be integers")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if q < 1:
            raise ValueError(f"q = {q} must be >= 1")
        rules = [default_kappa] + [x for case in cases for x in (case.kappa, case.mu)]
        if any(type(x) is not int for x in rules):
            raise ValueError("kappa, default_kappa and mu must be integers")
        by_residue = {}  # r -> (kappa, numerator of a, denominator of a, mu); a = None if constant
        for case in cases:
            for r in case.residues:
                if not 0 <= r < q or r in by_residue:
                    raise ValueError("case residues must be distinct and in [0, q)")
                by_residue[r] = (case.kappa, None, None, None)
            if case.a is not None:
                a = Fraction(case.a)
                if a.denominator % p == 0:
                    raise ValueError("linear target a must be p-integral")
                for r in case.residues:
                    if not _is_linear(a, r, q, p):
                        raise ValueError(
                            f"nu_p(a - i) >= nu_p(q) fails at i = {r} (a = {a}): "
                            "the class would be constant, not linear"
                        )
                    by_residue[r] = (case.kappa, a.numerator, a.denominator, case.mu)
        self._rules = by_residue  # predict's table, built once
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)  # the fields alone, at every protocol: _rules is rebuilt

    def predict(self, n: int):
        """Predicted nu_p(T(n)); VAL_INF when n equals an integer linear target."""
        rule = self._rules.get(n % self.q)
        if rule is None:
            return self.default_kappa
        kappa, num, den, mu = rule
        if num is None:
            return kappa
        diff = n * den - num
        if diff == 0:
            return VAL_INF
        return kappa + mu * _vp(diff, self.p)

    def rule_table(self):
        """Normalized per-residue rules (kappa, a, mu), for comparing specs structurally."""
        out = []
        for r in range(self.q):
            case = next((c for c in self.cases if r in c.residues), None)
            if case is None or case.a is None:
                out.append((case.kappa if case else self.default_kappa, None, None))
            else:
                out.append((case.kappa, Fraction(case.a), case.mu))
        return tuple(out)


class LinearCertificate(namedtuple("LinearCertificate", "q residue a kappa mu deriv_val")):
    """A certified linear case: nu_p(T(n)) = kappa + nu_p(n - a) for n = residue (mod q), a an int
    or a Fraction."""

    __slots__ = ()


class ClassificationRecord(namedtuple("ClassificationRecord", "p prec d n_period verdicts zero_table formula "
                                      "zero_table_complete", defaults=((), None, True))):
    """verdicts maps each form key to its Verdict, in the order of FORMS; d and n_period are None
    for an excluded prime, formula is None unless a form holds, and zero_table_complete is False
    when the scan stopped at the witnesses."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# scanning one period


def _zero_scan(p: int, n_period: int):
    """One pass of the recurrence mod p^2 over [0, N), lazily: (l, T(l), T(l+N)) mod p^2
    for each l with p | T(l), T(l+N) = r0 T(l) + r1 T(l+1) + r2 T(l+2) read from
    x^N = r0 + r1 x + r2 x^2 in (Z/p^2)[x]/(P)."""
    p2 = p * p
    r0, r1, r2 = _xpow(n_period, p2)
    a, b, c = 0, 1, 1  # T(0), T(1), T(2)
    for ell in range(n_period):
        if a % p == 0:
            yield ell, a, (r2 * c + r1 * b + r0 * a) % p2
        a, b, c = b, c, (a + b + c) % p2


def _u_residue(p: int, n_period: int, t_ell: int, t_ell_n: int, ell: int) -> int | None:
    """u = l - (T(l)/p) * ((T(l+N) - T(l))/p)^(-1) * N mod p, from mod-p^2 data with p | T(l);
    None where the derivative condition T(l+N) != T(l) (mod p^2) fails."""
    p2 = p * p
    t1 = (t_ell_n - t_ell) % p2 // p
    if t1 == 0:
        return None
    return (ell - (t_ell % p2) // p * pow(t1, -1, p) * n_period) % p


def _qt_residues_mod(m: int, targets):
    """Residues of the targets mod m, or None where a denominator is not invertible."""
    out = []
    for t in targets:
        num, den = t.as_integer_ratio()
        out.append(num * pow(den, -1, m) % m if math.gcd(den, m) == 1 else None)
    return out


def _zero_table(p: int, n_period: int):
    """One ZeroClassInfo per l in [0, N) with p | T(l), lazily, classed by the first element t
    of Q_T with t = l (mod N) and (t - l)/N in Z_p, if any: Q_T for p >= 5, Z_T for p = 3."""
    targets = [t for t in QT if t.as_integer_ratio()[1] % p]
    classes = {}
    for t, r in zip(targets, _qt_residues_mod(n_period, targets)):
        if r is not None:
            classes.setdefault(r, t)
    for ell, t_ell, t_ell_n in _zero_scan(p, n_period):
        u = _u_residue(p, n_period, t_ell, t_ell_n, ell)
        yield ZeroClassInfo(ell, u is not None, u, classes.get(ell))


# ---------------------------------------------------------------------------
# one series per zero class: precision escalation and linear certificates


def class_series(ctx: PrimeContext, ell: int, s: int = 1) -> SeriesTrunc:
    """The series g = f_l / p^e of the class n = l (mod sN) at ctx.prec, else at twice it, else
    at four times it: the first on which series_coeffs and then series.mu raise no PrecisionError.

    Strassman's mu (computed here, once, and kept on the series), the Hensel zero b and the
    linear certificate are all read off this one series.
    certify never raises PrecisionError, and neither does hensel_zero on a series whose beta_1 is
    a unit: for k >= 2, nu(beta_k) >= (k-1)E - nu_p(k!) >= 1, so g' = beta_1 (mod p) on all of
    Z_p and Newton converges within its iteration cap.  So escalation depends on the series
    alone, and reading the three off it outside this loop changes no result; should one of their
    defensive raises ever fire, it propagates."""
    for k in range(3):
        try:
            series = series_coeffs(prime_context(ctx.p, ctx.prec << k), ell, s)
            series.mu  # raises where every coefficient vanishes mod p^prec
            return series
        except PrecisionError as exc:
            last = exc
    raise last


def certify(series: SeriesTrunc):
    """The linear certificate of the class n = l (mod sN) that series was built on, or None.
    mu = 1 gives g one zero on Z_p and |g'| = |beta_1| on all of Z_p, so g(z) = 0 (mod p^prec)
    at z = (a - l)/sN for a the first t in Q_T with that z in Z_p, if any; z is only tried where
    its first digit is the zero's, -(beta_0/p^v)(beta_1/p^v)^(-1) mod p with v = nu(beta_1).
    sN/p^nu(sN) is inverted mod p^prec once; a target's z is formed at full precision only
    after its first digit matches."""
    if series.mu != 1:
        return None
    ctx, ell = series.ctx, series.ell
    p, q, prec = ctx.p, series.s * ctx.n_period, ctx.prec
    c0, c1 = series.coeffs[0], series.coeffs[1]
    v1 = _vp(c1, p)  # below prec: beta_1 attains the least valuation, which mu = 1 read off
    digit = -(c0 // p**v1) * pow(c1 // p**v1, -1, p) % p
    vq = _vp(q, p)
    pv = p**vq
    q_inv = unit_inverse(q // pv, p, prec)
    for t in QT:
        num, den = t.as_integer_ratio()
        diff = num - ell * den
        if den % p == 0 or diff % pv:  # t is not p-integral, or (t - l)/sN is not in Z_p
            continue
        w = diff // pv * q_inv  # z = w / den (mod p^prec)
        if w * pow(den, -1, p) % p == digit:
            z = w * unit_inverse(den, p, prec) % p**prec
            if series.eval(z) == 0:
                return LinearCertificate(q, ell % q, t, series.e + v1 - vq, 1, v1)
    return None


# ---------------------------------------------------------------------------
# classification


def _excluded_record(p: int, prec: int) -> ClassificationRecord:
    v = Verdict(STATUS_EXCLUDED, detail="ramified prime: the method excludes p in {2, 11}")
    return ClassificationRecord(p, prec, None, None, {form.key: v for form in FORMS})


def witness_zero(ctx: PrimeContext, ell: int, u: int) -> tuple[int, ...]:
    """The base-p digits of the Hensel zero b behind the failure witness (l, u), each tied to T.

    l + N*b = u (mod p) is enforced, and then one integer-only check, independent of the
    series: g(z) - g(b) = (z - b) * unit on Z_p, so at m = b mod p^prec, T(l + N*m) = 0
    (mod p^(e + prec)), read from one trib_mod; a b moved at any of its digits fails it."""
    p, n_period = ctx.p, ctx.n_period
    record = hensel_zero(class_series(ctx, ell))
    m, prec = record.b, record.series.ctx.prec
    if (ell + n_period * m) % p != u:
        raise PrecisionError(f"witness zero at l = {ell} does not reproduce u = {u}")
    if trib_mod(ell + n_period * m, p ** (record.series.e + prec)):
        raise AssertionError(f"T({ell} + N*{m}) != 0 (mod p^(e + {prec})): witness zero at l = {ell}")
    return tuple(record.digits())


def _form_verdict(ctx: PrimeContext, infos, form: Form, earlier: dict, rules):
    """The verdict of one form by the module's rule, with the _class_rules entries of its zero
    classes when it holds.  earlier maps the keys of the forms before it to their verdicts (a
    witness (l, u) one of them fails on is not checked again), and rules(l) gives the entries of
    the class n = l (mod N)."""
    p, n_period = ctx.p, ctx.n_period
    targets = form.targets
    targets_p = set(_qt_residues_mod(p, targets))
    w = next((i for i in infos if i.deriv_ok and i.u not in targets_p), None)
    if w is not None:  # e = 1 and beta_1 is a unit, so the zero b = m (mod p) gives p^2 | T(l + N*m)
        checked = any(v.status == STATUS_FAILS and (v.ell, v.u) == (w.ell, w.u) for v in earlier.values())
        m = (w.u - w.ell) * pow(n_period, -1, p) % p
        if not checked and trib_mod(w.ell + n_period * m, p * p):
            raise AssertionError(f"p^2 does not divide T({w.ell} + N*{m}): u = {w.u} is not the witness's")
        return Verdict(STATUS_FAILS, ell=w.ell, u=w.u), ()
    targets_n = _qt_residues_mod(n_period, targets)
    if None not in targets_n and len(set(targets_n)) < len(targets):
        detail = f"two {form.set_name} targets are congruent mod N; congruences mod p cannot separate them"
        return Verdict(STATUS_UNDECIDED, diagnostic=DIAG_QT_COLLISION, detail=detail), ()
    if not all(i.deriv_ok for i in infos):
        return Verdict(STATUS_UNDECIDED, diagnostic=DIAG_DERIVATIVE), ()
    if not all(i.target in targets for i in infos):
        return Verdict(STATUS_UNDECIDED, diagnostic=DIAG_U_IN_TARGETS), ()
    if form.needs_split and (ctx.d != 1 or n_period % 3 == 0):
        detail = "holds-criteria need all roots rational (d = 1) and 3 coprime to N"
        held = [f.label for f in FORMS if f.key in earlier and earlier[f.key].status == STATUS_HOLDS]
        if held:  # a narrower form that holds implies every wider one
            detail += f"; the {held[0]} form holds, which implies the {form.label} form"
        return Verdict(STATUS_UNDECIDED, diagnostic=DIAG_OUT_OF_SCOPE, detail=detail), ()
    # every class here meets the derivative condition, so beta_1 is a unit and mu = 1 (the bound
    # in class_series): its entries are one linear entry, or None
    parts = []
    for info in infos:
        part = rules(info.ell)
        if part is None or [a for _, _, a, _ in part] != [info.target]:
            detail = f"zero classes sit over {form.set_name} but a linear certificate failed"
            return Verdict(STATUS_UNDECIDED, diagnostic=DIAG_OUT_OF_SCOPE, detail=detail), ()
        parts.append(part)
    return Verdict(STATUS_HOLDS, q=n_period), tuple(parts)


# one record per (p, prec, full_table), least recently used first: scan, table and classify in
# one process classify each prime once
_RECORDS_MAX = 10**4  # holds all 9592 primes up to P_MAX, the most scan_range accepts
_records: OrderedDict = OrderedDict()


def _records_for(ps, prec: int, full_table: bool, jobs: int = 1) -> list[ClassificationRecord]:
    """The records of the primes ps at (prec, full_table), in order, each with its own verdicts.

    The memo's hits are taken out first; the misses are classified, on a pool of up to jobs
    processes when more than one is missing; then every record is stored back as the most
    recently used.  So each prime is classified at most once per call, whatever the memo holds
    and however long ps is.  Only an int p and an int prec reach the memo, so 5.0, True and
    24.0 fail cold and warm alike; failures are not memoized."""
    if type(prec) is not int:
        raise TypeError(f"precision must be an int, not {type(prec).__name__}")
    for p in ps:
        if type(p) is not int:
            raise ValueError(f"{p} is not prime")
    full_table = bool(full_table)
    found = {p: _records.pop((p, prec, full_table)) for p in ps if (p, prec, full_table) in _records}
    misses = [p for p in ps if p not in found]
    workers = min(jobs, os.cpu_count() or 1, len(misses))
    if workers > 1:  # only here is the process machinery imported
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            built = pool.map(_classify, misses, [prec] * len(misses), [full_table] * len(misses))
            found.update(zip(misses, built))
    else:
        found.update((p, _classify(p, prec, full_table)) for p in misses)
    for p in ps:
        _records[p, prec, full_table] = found[p]
    while len(_records) > _RECORDS_MAX:
        _records.popitem(last=False)
    return [found[p]._replace(verdicts=dict(found[p].verdicts)) for p in ps]  # the one mutable field


def classify_prime(p: int, prec: int = 24, full_table: bool = True) -> ClassificationRecord:
    """Decide both conjecture forms for one prime; deterministic, smallest witness first.

    With full_table False the period scan stops at the first rational-form witness, which
    is also an integer-form witness at or after the first one: the verdicts and witnesses
    are those of the full table, and zero_table is its prefix up to that witness.

    The record comes from _records_for, so it is memoized per process under
    (p, prec, bool(full_table)) with the records of scan_range and reproduce_table, and what a
    caller does to it never reaches a later call.  A p that is not an int raises the ValueError
    of a non-prime, and a prec that is not an int a TypeError."""
    return _records_for([p], prec, full_table)[0]


def _classify(p: int, prec: int, full_table: bool) -> ClassificationRecord:
    """classify_prime without the memo."""
    if p in EXCLUDED_PRIMES:
        return _excluded_record(p, prec)
    ctx = prime_context(p, prec)
    n_period = ctx.n_period
    widest_p = set(_qt_residues_mod(p, FORMS[-1].targets))  # its witness is every form's witness
    infos = []
    complete = True
    for info in _zero_table(p, n_period):
        infos.append(info)
        if not full_table and info.deriv_ok and info.u not in widest_p:
            complete = False
            break
    rules = functools.cache(lambda ell: _class_rules(ctx, ell))  # both forms may read one class
    if p == 3:  # no u avoids the targets mod 3, so the scan is complete
        parts = [rules(info.ell) for info in infos]
        if None in parts:
            raise PrecisionError("a mu = 1 piece of a p = 3 zero class has no linear certificate")
        formula = _assemble(p, parts)
        detail = (f"1/3 and -5/3 are not 3-adic integers; the integer form holds with Q = {formula.q}, "
                  "which implies the rational form")
        verdicts = {"ml": Verdict(STATUS_HOLDS, q=formula.q),
                    "rational": Verdict(STATUS_UNDECIDED, diagnostic=DIAG_OUT_OF_SCOPE, detail=detail)}
    else:
        verdicts, parts = {}, ()
        for form in FORMS:
            verdicts[form.key], form_parts = _form_verdict(ctx, infos, form, verdicts, rules)
            parts = parts or form_parts  # l = 0 is always a zero class, so a form holds iff it has parts
        formula = _assemble(p, parts) if parts else None
    return ClassificationRecord(p, prec, ctx.d, n_period, verdicts, tuple(infos), formula, complete)


def _class_rules(ctx: PrimeContext, ell: int, s: int = 1):
    """The assemble_spec entries (m, residues, a, kappa) of the zero class n = l (mod sN), by its
    Strassman degree mu: mu = 0 is the constant |g| = |beta_0| on Z_p, mu = 1 a certified linear
    formula, and mu >= 2 splits the class into its p classes mod p*sN.  None where a mu = 1 piece
    has no linear certificate (its zero sits over no target)."""
    series = class_series(ctx, ell, s)
    mu, q = series.mu, s * ctx.n_period
    if mu == 0:
        return [(q, (ell,), None, series.e + _vp(series.coeffs[0], ctx.p))]  # mu = 0: beta_0 != 0
    if mu == 1:
        cert = certify(series)
        return None if cert is None else [(q, (cert.residue,), cert.a, cert.kappa)]
    parts = [_class_rules(ctx, ell + j * q, s * ctx.p) for j in range(ctx.p)]
    return None if None in parts else [e for es in parts for e in es]


def _assemble(p: int, parts) -> FormulaSpec:
    """The FormulaSpec of a record from its _class_rules entries, sorted by (linear, modulus,
    residues), with Q the lcm of the moduli, which is N when every class is linear mod N."""
    entries = sorted((e for es in parts for e in es), key=lambda e: (e[2] is not None, e[0], e[1]))
    return assemble_spec(p, math.lcm(*(m for m, _, _, _ in entries)), entries)


# ---------------------------------------------------------------------------
# formula specs: assembly, built-ins, verification


def assemble_spec(p: int, q: int, entries, default_kappa: int = 0) -> FormulaSpec:
    """Build a FormulaSpec over modulus q from per-class entries (m, residues, a, kappa)
    with m | q.  Linear classes are split per residue: where nu_p(a - i) < nu_p(q)
    the rule is constant (value kappa + mu*nu_p(i - a)), which keeps the
    not-actually-linear residues honest."""
    cases = []
    for m, residues, a, kappa in entries:
        if q % m:
            raise ValueError("entry modulus must divide q")
        expanded = sorted(r % m + m * t for r in residues for t in range(q // m))
        if a is None:
            cases.append(FormulaCase(tuple(expanded), kappa))
            continue
        a = Fraction(a)
        linear, constant = [], {}
        for i in expanded:
            if _is_linear(a, i, q, p):
                linear.append(i)
            else:
                constant.setdefault(kappa + val_int(a.numerator - i * a.denominator, p), []).append(i)
        if linear:
            cases.append(FormulaCase(tuple(linear), kappa, int(a) if a.denominator == 1 else a))
        for kap, res in sorted(constant.items()):
            cases.append(FormulaCase(tuple(sorted(res)), kap))
    return FormulaSpec(p, q, tuple(cases), default_kappa)


# the closed-form specs shipped with the package: p -> (Q, assemble_spec entries) for p = 2 and 3,
# whose classes split, and p -> (Q, its targets, one linear class each) for the holds primes
_BUILTIN_REFINED = {
    2: (32, [
        (4, (1, 2), None, 0),
        (16, (3, 11), None, 1),
        (16, (4, 8), None, 2),
        (16, (7,), None, 3),
        (16, (0,), 0, -1),
        (16, (12,), -4, -1),
        (32, (15,), -17, 1),
        (32, (31,), -1, 1),
    ]),
    3: (39, [
        (13, (1, 2, 3, 4, 5, 6, 8, 10, 11), None, 0),
        (13, (7,), None, 1),
        (13, (0,), 0, 2),
        (13, (12,), -1, 2),
        (39, (9,), None, 4),
        (39, (22,), -17, 4),
        (39, (35,), -4, 4),
    ]),
}
_BUILTIN_HOLDS = {83: (287, ZT), 397: (132, ZT), 269: (268, QT), 401: (400, QT), 419: (418, QT),
                  499: (166, QT), 587: (293, QT)}

BUILTIN_SPEC_NAMES = tuple(f"p{p}" for p in (*_BUILTIN_REFINED, *_BUILTIN_HOLDS))


def builtin_spec(name: str) -> FormulaSpec:
    """The closed-form spec shipped with the package under name, one of BUILTIN_SPEC_NAMES."""
    if name not in BUILTIN_SPEC_NAMES:
        raise KeyError(f"no built-in spec named {name!r}")
    p = int(name[1:])
    if p in _BUILTIN_REFINED:
        return assemble_spec(p, *_BUILTIN_REFINED[p])
    q, targets = _BUILTIN_HOLDS[p]
    return assemble_spec(p, q, [(q, (r,), t, 1) for t, r in zip(targets, _qt_residues_mod(q, targets))])


class Mismatch(namedtuple("Mismatch", "n predicted actual")):
    __slots__ = ()


def _chain(u0, u1, u2, t1, t2, m):
    """u_l = T(n + l*q) mod m for l = 0, 1, ..., from u_0, u_1 and u_2, by the recurrence
    u_(l+3) = t1 u_(l+2) - t2 u_(l+1) + u_l of x^q: t1 = tr x^q, t2 = tr x^(-q), det x^q = 1."""
    while True:
        yield u0
        u0, u1, u2 = u1, u2, (t1 * u2 - t2 * u1 + u0) % m


def verify_formula(spec: FormulaSpec, lo: int, hi: int, extra=()):
    """Compare the predicted nu_p(T(n)) with the actual valuation on [lo, hi]
    plus any extra points; an empty report is a pass.

    Each class n = i (mod q) is read as a chain u_l = T(n + l*q), which obeys the recurrence
    of x^q (Cayley-Hamilton): u_(l+3) = t1 u_(l+2) - t2 u_(l+1) + u_l, with t1 = tr x^q =
    3 r0 + r1 + 3 r2 for x^q = r0 + r1 x + r2 x^2, t2 = tr x^(-q), and det x^q = 1.  A chain
    is seeded from (T(n), T(n+1), T(n+2)) and the coordinates of x^q and x^(2q).

    Range residues are taken mod m, the largest power p^K of p below 2^30 (p itself once
    p^2 >= 2^30); a nonzero residue gives nu_p(T(n)) exactly, a zero one defers to
    trib_val.  k0 is the least of K, nu_p(r1) and nu_p(r2), so T(n + q) = r0 T(n)
    (mod p^k0) with r0 a unit.  The first period [lo, lo + q - 1] is walked by the
    recurrence of T from one powering of x^lo.  A constant class whose point there shows
    nu_p = v < k0 is settled: it passes if v = kappa and is reported at each of its points
    otherwise.  Every other class is walked as a chain n, n + q, ... <= hi; a point passes
    where its residue shows its rule's valuation (a linear rule's read from d = n*den - num,
    carried along the chain), and goes to spec.predict otherwise.  Each step is a bijection
    on triples mod m (u_l's coefficient is 1), so the triple at the end of the first period
    and of each chain is checked against the one read from a powering of x^n, and any
    corruption raises AssertionError.  The range's mismatches are in order of n.

    An extra point (e.g. a CRT near-miss of a target) with a finite prediction e >= 0
    reads T(n) mod p^K, K = min(e + 1, 24).  Where x^q = 1 (mod p), D = x^q - 1 has
    p^j | D^j, so for n = i + z*q, i = n mod q, the binomial series of (1 + D)^z gives
    T(n) = sum_(j<K) C(z, j) Delta^j u_0 (mod p^K) for every integer z: u_0 .. u_(K-1) are
    built once per class, C(z, j) exactly (mod p^K it would need 1/(j + 1)), and each
    class's largest point is read again by trib_mod, a disagreement raising AssertionError.
    Elsewhere each point reads its own powering.  A zero residue, e = VAL_INF or e < 0
    defers to trib_val."""
    p, q = spec.p, spec.q
    out = []

    def compare(n, actual):
        predicted = spec.predict(n)
        if predicted != actual:
            out.append(Mismatch(n, predicted, actual))

    m, k_max = p, 1
    while m * p < 1 << 30:
        m, k_max = m * p, k_max + 1
    pows = [p**i for i in range(k_max + 1)]
    extra = [(n, spec.predict(n)) for n in extra]
    classes, residues = {}, {}  # i -> {n: K} over the extra points n = i (mod q); n -> T(n) mod p^K
    for n, e in extra:
        if 0 <= e < VAL_INF:
            classes.setdefault(n % q, {})[n] = min(e + 1, DEFAULT_PRECISION)
    top = p ** max([k_max] + [k for points in classes.values() for k in points.values()])
    (r0, r1, r2), s, w = (_xpow(k, top) for k in (q, 2 * q, -q))
    t1, t2 = 3 * r0 + r1 + 3 * r2, 3 * w[0] + w[1] + 3 * w[2]
    k0 = min([k_max] + [_vp(r, p) for r in (r1, r2) if r])

    def state(n, mod):  # (T(n), T(n+1), T(n+2)) mod `mod` from one powering of x^n
        c0, c1, c2 = _xpow(n, mod)
        return (c1 + c2) % mod, (c0 + c1 + 2 * c2) % mod, (c0 + 2 * c1 + 4 * c2) % mod

    def seed(a, b, c, mod):  # (T(n), T(n+q), T(n+2q)) mod `mod` from (T(n), T(n+1), T(n+2))
        return a, (r0 * a + r1 * b + r2 * c) % mod, (s[0] * a + s[1] * b + s[2] * c) % mod

    def check(n, walked, read):
        if walked != read:
            raise AssertionError(f"incremental walk out of sync at n = {n}")

    def walk_class(first, a, b, c, kappa, num, den, mu):
        e, d = kappa, None if num is None else first * den - num
        chain = _chain(*seed(a, b, c, m), t1, t2, m)
        for n, a in zip(range(first, hi + 1, q), chain):
            if d is not None:
                e = kappa if d % p else kappa + mu * _vp(d, p) if d else -1  # d = 0: VAL_INF, compare
                d += q * den
            if not (0 <= e < k_max and a % pows[e + 1] and not a % pows[e]):
                compare(n, _vp(a, p) if a else trib_val(n, p))  # trib_val is VAL_INF on Z_T
        if n != first:
            check(n, (a, next(chain), next(chain)), seed(*state(n, m), m))

    if lo <= hi:
        rules, default = spec._rules, (spec.default_kappa, None, None, None)
        a, b, c = state(lo, m)
        n, end = lo, min(hi, lo + q - 1)
        while True:
            kappa, num, den, mu = rules.get(n % q, default)
            if num is not None or not a % pows[k0]:
                walk_class(n, a, b, c, kappa, num, den, mu)
            elif (v := _vp(a, p) if a % p == 0 else 0) != kappa:  # nu_p = v < k0 in the class
                out.extend(Mismatch(j, kappa, v) for j in range(n, hi + 1, q))
            if n == end:
                break
            a, b, c = b, c, (a + b + c) % m
            n += 1
        check(end, (a, b, c), state(end, m))
        out.sort(key=lambda mismatch: mismatch.n)
    for i, points in classes.items():
        if k0 == 0 or r0 % p != 1:  # x^q != 1 (mod p): one powering per point
            residues.update((n, trib_mod(n, p**k)) for n, k in points.items())
            continue
        k = max(points.values())
        row, diffs = list(islice(_chain(*seed(*state(i, p**k), p**k), t1, t2, p**k), k)), []
        while row:  # Delta^j u_0 for j < k
            diffs.append(row[0])
            row = [y - x for x, y in zip(row, row[1:])]
        for n, k in points.items():
            z, binom, total = (n - i) // q, 1, 0
            for j, delta in zip(range(k), diffs):
                total += binom * delta
                binom = binom * (z - j) // (j + 1)
            residues[n] = total % p**k
        n = max(points)
        if residues[n] != trib_mod(n, p ** points[n]):
            raise AssertionError(f"forward differences disagree with trib_mod at n = {n}")
    for n, e in extra:
        residue = residues.get(n, 0)
        if (actual := _vp(residue, p) if residue else trib_val(n, p)) != e:
            out.append(Mismatch(n, e, actual))
    return out


def crt_witness(i: int, q: int, a, p: int, k: int) -> int:
    """A positive n with n = i (mod q) and n = a (mod p^k), following the
    Chinese-remainder construction; needs nu_p(a - i) >= nu_p(q) and a p-integral."""
    a = Fraction(a)
    if a.denominator % p == 0:
        raise ValueError("target a must be p-integral")
    if not _is_linear(a, i, q, p):
        raise ValueError(f"nu_p(a - i) >= nu_p(q) fails for i = {i}, a = {a}")
    nu = _vp(q, p)
    pk = p**k
    if k <= nu:
        n = i  # n = i already agrees with a modulo p^k
    else:
        diff = (a.numerator - i * a.denominator) * unit_inverse(a.denominator, p, k) % pk
        m = crt_pair((diff // p**nu) % p ** (k - nu), p ** (k - nu), 0, q // p**nu)
        n = i + m * p**nu
    modulus = (q // p**nu) * p ** max(nu, k)  # lcm(q, p^k)
    n %= modulus
    return n if n > 0 else n + modulus


# ---------------------------------------------------------------------------
# tables and scans


class TableRow(namedtuple("TableRow", "p n_period ell u status")):
    __slots__ = ()


def _classify_range(p_max: int, prec: int, jobs: int, p_min: int = 2) -> list[ClassificationRecord]:
    """classify_prime(p, prec, full_table=False) on every prime in [p_min, p_max], in order; each
    scan stops at the prime's witnesses, so the zero tables may be partial.

    One call of _records_for: on more than one worker process only the primes the memo lacks
    are classified, and a second range in one process classifies nothing again."""
    if p_max > P_MAX:
        raise ValueError(f"p_max = {p_max} is above the supported {P_MAX}")
    return _records_for([p for p in primes_upto(p_max) if p >= p_min], prec, False, jobs)


def reproduce_table(p_max: int, prec: int = 24, jobs: int = 1) -> list[TableRow]:
    """One row per prime in [5, p_max]: the period and, when the integer form
    fails, the smallest witness pair (l, u); holds/undecided/excluded otherwise."""
    records = _classify_range(p_max, prec, jobs, p_min=5)
    return [
        TableRow(r.p, r.n_period, r.verdicts["ml"].ell, r.verdicts["ml"].u, r.verdicts["ml"].status)
        for r in records
    ]


class PublishedRow(namedtuple("PublishedRow", "p n_period ell u starred")):
    __slots__ = ()


_TABLE_SHA256 = "7b98d58aba8ec0f1a7afed3361f7523f96395e0685d73639416ca88cc1a76ec0"


def published_table() -> tuple[PublishedRow, ...]:
    """The 102 published failure witnesses (p, N, l, u), checksummed at load.  The CSV is read
    through this module's own loader, from a directory or a zip alike, with no further import."""
    data = __spec__.loader.get_data(os.path.join(os.path.dirname(__file__), "data", "table1.csv"))
    digest = hashlib.sha256(data).hexdigest()
    if digest != _TABLE_SHA256:
        raise RuntimeError(f"embedded table corrupted: sha256 = {digest}")
    rows = []
    for rec in csv.DictReader(data.decode().splitlines()):
        rows.append(
            PublishedRow(int(rec["p"]), int(rec["N"]), int(rec["ell"]), int(rec["u"]), rec["starred"] == "1")
        )
    return tuple(rows)


class RowCheck(namedtuple("RowCheck", "p n_matches ell_is_zero deriv_holds u_matches listed_is_smallest")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return (self.n_matches and self.ell_is_zero and self.deriv_holds and self.u_matches
                and self.listed_is_smallest is not False)


def validate_published_rows(our_rows: list[TableRow] | None = None, p_max: int | None = None) -> list[RowCheck]:
    """Revalidate every published (p, N, l, u): N agrees, p | T(l), the mod-p^2 derivative
    condition holds, u recomputes exactly from l, and l is the witness of our row for p, if any."""
    ours = {r.p: r for r in our_rows} if our_rows else {}
    checks = []
    for row in published_table():
        if p_max is not None and row.p > p_max:
            continue
        n = prime_context(row.p).n_period
        p2 = row.p * row.p
        t_ell = trib_mod(row.ell, p2)
        t_ell_n = trib_mod(row.ell + n, p2)
        ell_is_zero = t_ell % row.p == 0
        u = _u_residue(row.p, n, t_ell, t_ell_n, row.ell) if ell_is_zero else None
        smallest = ours[row.p].ell == row.ell if row.p in ours else None
        checks.append(RowCheck(row.p, n == row.n_period, ell_is_zero, u is not None, u == row.u, smallest))
    return checks


class ScanSummary(namedtuple("ScanSummary", "p_max total_primes verdicts cube_root_family "
                             "cube_root_family_fraction", defaults=((), 0.0))):
    """verdicts maps each form key to each status to its primes."""

    __slots__ = ()


def scan_range(p_max: int, prec: int = 24, jobs: int = 1) -> ScanSummary:
    """Verdict sets for every prime <= p_max, plus the fully-split p = 2 (mod 3)
    family whose density the heuristics compare with 1/12."""
    records = _classify_range(p_max, prec, jobs)
    statuses = (STATUS_HOLDS, STATUS_FAILS, STATUS_UNDECIDED, STATUS_EXCLUDED)
    verdicts = {form.key: {s: [] for s in statuses} for form in FORMS}
    family = []
    for rec in records:
        for key, v in rec.verdicts.items():
            verdicts[key][v.status].append(rec.p)
        if rec.p % 3 == 2 and rec.d == 1:
            family.append(rec.p)
    return ScanSummary(
        p_max,
        len(records),
        {key: {s: tuple(ps) for s, ps in by_status.items()} for key, by_status in verdicts.items()},
        tuple(family),
        len(family) / len(records) if records else 0.0,
    )
