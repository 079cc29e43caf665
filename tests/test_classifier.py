import concurrent.futures
import functools
import json
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tribadic
import tribadic.cli

from tribadic import (
    FormulaCase,
    FormulaSpec,
    builtin_spec,
    certify,
    class_series,
    classify_prime,
    crt_witness,
    hensel_zero,
    published_table,
    prime_context,
    reproduce_table,
    scan_range,
    trib_mod,
    validate_published_rows,
    verify_formula,
    witness_zero,
)
from tribadic._factor import primes_upto
from tribadic.classifier import (
    DIAG_DERIVATIVE,
    DIAG_OUT_OF_SCOPE,
    DIAG_QT_COLLISION,
    DIAG_U_IN_TARGETS,
    STATUS_EXCLUDED,
    STATUS_FAILS,
    STATUS_HOLDS,
    STATUS_UNDECIDED,
    BUILTIN_SPEC_NAMES,
    FORMS,
    QT,
    ZT,
    Mismatch,
    TableRow,
    _class_rules,
    _classify_range,
    _zero_scan,
    _zero_table,
)
from tribadic.galois import EXCLUDED_PRIMES
from tribadic.interpolation import series_coeffs
from tribadic.padic import VAL_INF, PrecisionError, val_int
from tribadic.tribonacci import ZERO_SET, _chain, _char_poly, _xpow, trib, trib_val

from conftest import (
    _P, PSI_12, OracleRing, _plain_horner, certify_disagreements, known_val, rule_table, series_eval, slopes,
    trib_mod_oracle, zero_classes,
)


def revalidate_witness(p, n_period, ell, u, rational):
    """Independent re-check of a failure witness via direct modular arithmetic."""
    p2 = p * p
    t_ell = trib_mod(ell, p2)
    t_ell_n = trib_mod(ell + n_period, p2)
    if t_ell % p != 0:
        return False
    if (t_ell_n - t_ell) % p2 == 0:
        return False
    recomputed = (ell - (t_ell // p) * pow((t_ell_n - t_ell) % p2 // p % p, -1, p) * n_period) % p
    if recomputed != u:
        return False
    targets = {t % p for t in ZT}
    if rational:
        targets |= {pow(3, -1, p) % p, -5 * pow(3, -1, p) % p}
    return u not in targets


class TestClassifyPrime:
    def test_p5_fails_with_validated_witness(self):
        rec = classify_prime(5)
        v = rec.verdicts["ml"]
        assert v.status == STATUS_FAILS and (v.ell, v.u) == (21, 2)
        assert revalidate_witness(5, rec.n_period, v.ell, v.u, rational=False)

    def test_holds_primes(self):
        for p, q in ((83, 287), (397, 132)):
            rec = classify_prime(p)
            assert rec.verdicts["ml"].status == STATUS_HOLDS and rec.verdicts["ml"].q == q

    def test_rational_holds_primes(self):
        for p, q in ((269, 268), (401, 400), (419, 418), (499, 166), (587, 293)):
            rec = classify_prime(p)
            assert rec.verdicts["ml"].status == STATUS_FAILS
            assert rec.verdicts["rational"].status == STATUS_HOLDS and rec.verdicts["rational"].q == q

    def test_undecided_primes(self):
        rec103 = classify_prime(103)
        rec163 = classify_prime(163)
        assert rec103.verdicts["ml"].status == STATUS_UNDECIDED
        assert rec163.verdicts["ml"].status == STATUS_UNDECIDED
        # T(17) = 103^2 makes the derivative condition fail at some l for 103,
        # while 163 shows the pure "derivative holds, u always lands in Z_T" mode
        assert rec103.verdicts["ml"].diagnostic == DIAG_DERIVATIVE
        assert rec163.verdicts["ml"].diagnostic == DIAG_U_IN_TARGETS
        assert all(i.deriv_ok for i in rec163.zero_table)
        assert all(i.u in {t % 163 for t in ZT} for i in rec163.zero_table)

    def test_qt_collision_mode(self):
        for p in (47, 53):
            rec = classify_prime(p)
            assert rec.verdicts["ml"].status == STATUS_FAILS
            assert rec.verdicts["rational"].status == STATUS_UNDECIDED
            assert rec.verdicts["rational"].diagnostic == DIAG_QT_COLLISION
        # the collisions themselves: -17 = -5/3 mod 46 and -17 = 1/3 mod 52
        assert (-17 - Fraction(-5, 3)) % 46 == 0 or (3 * -17 + 5) % 46 == 0
        assert (3 * -17 - 1) % 52 == 0

    def test_excluded(self):
        for p in (2, 11):
            rec = classify_prime(p)
            assert rec.verdicts["ml"].status == STATUS_EXCLUDED
            assert rec.verdicts["rational"].status == STATUS_EXCLUDED

    def test_rational_witness_can_differ_from_ml_witness(self):
        # p = 5: u = 2 = 1/3 mod 5, so the ML witness cannot avoid the rational targets
        rec = classify_prime(5)
        assert rec.verdicts["rational"].status == STATUS_UNDECIDED
        one_third_mod_5 = pow(3, -1, 5)
        assert rec.verdicts["ml"].u == one_third_mod_5
        # ...and at p = 7 the same witness certifies both failures
        rec7 = classify_prime(7)
        assert rec7.verdicts["ml"].status == rec7.verdicts["rational"].status == STATUS_FAILS
        assert revalidate_witness(7, rec7.n_period, rec7.verdicts["rational"].ell, rec7.verdicts["rational"].u, True)

    @pytest.mark.usefixtures("cold_records")
    def test_deterministic(self):
        first = classify_prime(59)
        _classify_range.cache_clear()  # the second record is built again, not read back
        assert classify_prime(59) == first

    def test_precision_floor_keeps_rational_match_honest(self):
        # the verdict rule reads the mod-p^2 scan and the zero table, not the precision: at 2 the
        # verdicts, formula and table are those at 24
        low, ref = classify_prime(269, 2), classify_prime(269, 24)
        for v, w in ((low.verdicts["ml"], ref.verdicts["ml"]), (low.verdicts["rational"], ref.verdicts["rational"])):
            assert (v.status, v.q, v.ell, v.u, v.diagnostic) == (w.status, w.q, w.ell, w.u, w.diagnostic)
        assert ref.verdicts["rational"].status == STATUS_HOLDS
        assert (low.formula, low.zero_table) == (ref.formula, ref.zero_table)

    def test_fails_witness_is_smallest(self):
        rec = classify_prime(59)
        v = rec.verdicts["ml"]
        for ell in range(v.ell):
            if trib_mod(ell, 59) != 0:
                continue
            assert not revalidate_witness(59, rec.n_period, ell, None, False) or True
            # explicit: any earlier zero-l must fail one of the conditions
            p2 = 59 * 59
            t_ell = trib_mod(ell, p2)
            t_n = trib_mod(ell + rec.n_period, p2)
            if (t_n - t_ell) % p2 == 0:
                continue
            u = (ell - (t_ell // 59) * pow((t_n - t_ell) // 59 % 59, -1, 59) * rec.n_period) % 59
            assert u in {t % 59 for t in ZT}


@pytest.mark.usefixtures("cold_records")  # the tests count or refuse calls behind scan_range
class TestVerdictRule:
    """The branches of the one verdict rule that no census up to 10^4 reaches, and what it computes."""

    SCOPE = "holds-criteria need all roots rational (d = 1) and 3 coprime to N"
    IMPLIED = "; the integer form holds, which implies the rational form"

    @pytest.mark.parametrize("p", [83, 397])  # d = 2, and 3 | N = 132
    def test_out_of_scope_rational_form_is_implied(self, p):
        rec = classify_prime(p)
        assert rec.verdicts["ml"].status == STATUS_HOLDS
        v = rec.verdicts["rational"]
        assert (v.status, v.diagnostic, v.detail) == (STATUS_UNDECIDED, DIAG_OUT_OF_SCOPE, self.SCOPE + self.IMPLIED)

    def test_cube_root_test_failure_is_undecided(self, monkeypatch):
        # p = 269 without its class over -5/3: the class over 1/3 is a zero class alone, where the
        # cube-root lemma is silent, so the rational form is undecided, not an internal error
        real = tribadic.classifier._zero_table
        monkeypatch.setattr(tribadic.classifier, "_zero_table",
                            lambda p, n: (i for i in real(p, n) if i.target != Fraction(-5, 3)))
        rec = classify_prime(269)
        assert rec.verdicts["ml"].status == STATUS_FAILS
        assert (rec.verdicts["rational"].status, rec.verdicts["rational"].diagnostic) == (
            STATUS_UNDECIDED, DIAG_OUT_OF_SCOPE)
        assert rec.verdicts["rational"].detail == (
            "cube-root test fails: just one of the classes over 1/3 and -5/3 is a zero class")
        assert rec.formula is None

    @pytest.mark.parametrize("p, calls", [(7, 1), (67, 2)])  # one shared witness l; two distinct ones
    def test_one_witness_zero_per_witness(self, p, calls, monkeypatch, capsys):
        # the record carries no digits: the classify payload computes them, once per witness
        seen = []
        real = tribadic.cli.witness_zero

        def counted(ctx, ell, u):
            seen.append(ell)
            return real(ctx, ell, u)

        monkeypatch.setattr(tribadic.cli, "witness_zero", counted)
        assert tribadic.cli.main(["classify", "--prime", str(p), "--format", "json"]) == 0
        pay = json.loads(capsys.readouterr().out)["payload"]
        assert pay["ml"]["status"] == pay["rational"]["status"] == STATUS_FAILS
        assert seen == sorted({pay["ml"]["ell"], pay["rational"]["ell"]}) and len(seen) == calls
        assert len(pay["ml"]["zero_digits"]) == len(pay["rational"]["zero_digits"]) == 24

    @pytest.mark.parametrize("p, checks", [(7, 1), (67, 2)])  # one witness (l, u) for both forms; two
    def test_one_witness_check_per_witness(self, p, checks, monkeypatch):
        # the rational form does not repeat the p^2 | T(l + N*m) check the integer form made
        seen = []
        real = tribadic.classifier.trib_mod

        def counted(n, m):
            seen.append(m)
            return real(n, m)

        monkeypatch.setattr(tribadic.classifier, "trib_mod", counted)
        verdicts = classify_prime(p).verdicts.values()
        assert all(v.status == STATUS_FAILS for v in verdicts)
        assert len({(v.ell, v.u) for v in verdicts}) == checks
        assert seen == [p * p] * checks

    @pytest.mark.parametrize("call", ["scan_range(800)", "reproduce_table(800)", "classify_prime(7)"])
    def test_records_are_built_without_a_witness_zero(self, call, monkeypatch):
        # a fails verdict stands on its mod-p^2 check; p = 7 fails both forms, so its record
        # needs no series at all
        def refuse(*args):
            raise RuntimeError("called")

        monkeypatch.setattr(tribadic.classifier, "hensel_zero", refuse)
        if call == "classify_prime(7)":
            monkeypatch.setattr(tribadic.classifier, "class_series", refuse)
        eval(call)

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_a_wrong_u_raises(self, flags):
        # u shifted by one at every derivative-ok l: p^2 no longer divides T(l + N*m) at the
        # witness, so classify_prime raises and scan exits 70, with or without -O
        code = (
            "import sys\n"
            "import tribadic.classifier as c\n"
            "from tribadic.cli import main\n"
            "real = c._u_residue\n"
            "def shifted(p, *args):\n"
            "    u = real(p, *args)\n"
            "    return None if u is None else (u + 1) % p\n"
            "c._u_residue = shifted\n"
            "try:\n"
            "    c.classify_prime(7)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
            "sys.exit(main(['scan', '--max', '100', '--format', 'json']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 70, out.stderr
        assert out.stdout.startswith("raised: p^2 does not divide T(")
        assert "AssertionError: p^2 does not divide T(" in out.stderr

    def test_holds_builds_no_series(self, monkeypatch):
        # p = 397: the integer form holds and the rational form is out of scope; 773: the rational
        # form holds; 1021: both hold.  Each verdict reads its zero table alone, while p = 3 still
        # reads its seven series
        seen = []
        real = tribadic.classifier.series_coeffs

        def counted(ctx, ell, s=1):
            seen.append(ell)
            return real(ctx, ell, s)

        monkeypatch.setattr(tribadic.classifier, "series_coeffs", counted)
        for p in (397, 773, 1021):
            rec = classify_prime(p)
            assert STATUS_HOLDS in {v.status for v in rec.verdicts.values()}
            assert [r for c in rec.formula.cases for r in c.residues] == [i.ell for i in rec.zero_table]
        assert seen == []
        classify_prime(3)
        assert len(seen) == 7

    @pytest.mark.parametrize("p, moved", [(773, (Fraction(1, 3), Fraction(-5, 3))), (83, (-17, -4))])
    def test_a_moved_target_raises_under_O(self, p, moved):
        # one holds class's target moved to another target: p^3 no longer divides T(l + N*m), so
        # classify_prime raises and classify exits 70, also under -O
        code = (
            "import sys\n"
            "from fractions import Fraction\n"
            "import tribadic.classifier as c\n"
            "from tribadic.cli import main\n"
            "assert False, 'not running under -O'\n"
            f"old, new = {moved!r}\n"
            "real = c._zero_table\n"
            "c._zero_table = lambda p, n: (i._replace(target=new) if i.target == old else i for i in real(p, n))\n"
            f"sys.exit(main(['classify', '--prime', '{p}', '--format', 'json']))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 70, out.stderr
        assert "AssertionError: p^3 does not divide T(" in out.stderr

    @pytest.mark.parametrize("p", [269, 401])
    def test_holds_certificates_run_no_newton_step(self, p, monkeypatch):
        # the rational form holds, read off the zero table, and the integer form fails on its
        # mod-p^2 check: no Hensel zero is computed
        seen = []
        hensel_zero = tribadic.classifier.hensel_zero

        def counted(series):
            seen.append(series.ell)
            return hensel_zero(series)

        monkeypatch.setattr(tribadic.classifier, "hensel_zero", counted)
        rec = classify_prime(p)
        assert (rec.verdicts["ml"].status, rec.verdicts["rational"].status) == (STATUS_FAILS, STATUS_HOLDS)
        assert seen == []


def zmul(a, b):
    """a*b in Z[x]/(P) on coordinate triples, integers only: x^3 = 1 + x + x^2."""
    prod = [0] * 5
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    for top in (4, 3):
        c = prod.pop()
        for j in range(top - 3, top):
            prod[j] += c
    return tuple(prod)


class TestExactHolds:
    """Step 6 of the verdict rule against its oracles: the series path (_class_rules, certify),
    the cube-root test against c = (x^2 - x) y^-1 mod p in OracleRing, and the two identities
    of Z[x]/(P) the lemma rests on, in integer arithmetic."""

    ADMISSIBLE = [p for p in primes_upto(2999) if p >= 5 and p not in EXCLUDED_PRIMES]

    def test_ring_identities_over_z(self):
        x, x_inv = (0, 1, 0), (-1, -1, 1)  # x (x^2 - x - 1) = 1
        assert zmul(x, x_inv) == (1, 0, 0)
        x2_x = (0, -1, 1)
        assert zmul(zmul(x2_x, x2_x), x2_x) == (0, 2, 0)  # (x^2 - x)^3 = 2x
        t = {0: 0, 1: 1, 2: 1}
        for n in range(3, 51):
            t[n] = t[n - 1] + t[n - 2] + t[n - 3]
        for n in range(-1, -53, -1):
            t[n] = t[n + 3] - t[n + 2] - t[n + 1]
        assert [n for n in range(-52, 51) if t[n] == 0] == [-17, -4, -1, 0]  # Z_T, exactly
        for step in (x, x_inv):
            power, n = (1, 0, 0), 0
            while -50 <= n <= 50:
                assert power == (t[n - 2], t[n] - t[n - 1], t[n - 1]), n
                power, n = zmul(power, step), n + (1 if step is x else -1)

    def test_holds_entries_are_the_series_certificates(self):
        # each holds class's entry (N, (l,), t, 1) is what the series and certify read off it
        held = []
        for p in self.ADMISSIBLE:
            rec = classify_prime(p, 24, False)
            if rec.formula is None:
                continue
            held.append(p)
            ctx = prime_context(p, 24)
            assert rec.zero_table_complete and rec.formula.q == rec.n_period
            cases = {c.residues: c for c in rec.formula.cases}
            assert len(cases) == len(rec.zero_table)
            for info in rec.zero_table:
                c = cases[(info.ell,)]
                assert (c.a, c.kappa) == (info.target, 1)
                assert _class_rules(ctx, info.ell) == [(rec.n_period, (info.ell,), c.a, 1)], (p, info.ell)
        assert len(held) == 28  # the primes below 3000 where a form holds

    def test_cube_root_test_is_c_scalar_mod_p(self):
        # d = 1, 3 coprime to N: the classes over 1/3 and -5/3 are both zero classes iff
        # c = (x^2 - x) y^-1, y = x^(3^-1 mod N), is a scalar mod p; always so for p = 2 (mod 3)
        outcomes = set()
        for p in self.ADMISSIBLE:
            ctx = prime_context(p)
            n_period = ctx.n_period
            if ctx.d != 1 or n_period % 3 == 0:
                continue
            ell = pow(3, -1, n_period)
            ells = {i.ell for i in _zero_table(p, n_period)}
            rule = ell in ells and (ell - 2) % n_period in ells
            x = OracleRing(p, 1, _P).gen
            c = (x * x - x) * (x**ell).inv()
            assert (c * c * c).coords == (2, 0, 0)
            scalar = c.coords[1:] == (0, 0)
            assert rule == scalar, p
            assert scalar or p % 3 == 1, p
            outcomes.add(rule)
        assert outcomes == {True, False}


def oracle_zero_scan(p, n_period):
    """(l, T(l), T(l+N)) mod p^2 for the l in [0, N) with p | T(l), by walking [0, 2N)."""
    p2 = p * p
    first = {}
    out = []
    a, b, c = 0, 1, 1
    for n in range(2 * n_period):
        if n < n_period:
            if a % p == 0:
                first[n] = a
        elif n - n_period in first:
            out.append((n - n_period, first[n - n_period], a))
        a, b, c = b, c, (a + b + c) % p2
    return out


class TestZeroScan:
    def test_matches_two_period_walk(self):
        ps = [p for p in primes_upto(399) if p not in EXCLUDED_PRIMES] + [757, 1999]
        for p in ps:
            n_period = prime_context(p, 24).n_period
            assert list(_zero_scan(p, n_period)) == oracle_zero_scan(p, n_period), p


class TestEarlyExit:
    @pytest.mark.parametrize("p", [p for p in primes_upto(300) if p not in EXCLUDED_PRIMES])
    def test_same_verdicts_as_full_table(self, p):
        full, partial = classify_prime(p), classify_prime(p, 24, full_table=False)
        assert full.zero_table_complete
        for field in ("verdicts", "formula"):
            assert getattr(partial, field) == getattr(full, field), field
        assert partial.zero_table == full.zero_table[: len(partial.zero_table)]
        if partial.zero_table_complete:
            assert partial.zero_table == full.zero_table
        else:
            assert partial.verdicts["rational"].status == STATUS_FAILS

    def test_partial_table_ends_at_rational_witness(self):
        full, partial = classify_prime(179), classify_prime(179, full_table=False)
        assert partial.n_period == 32221
        assert partial.verdicts["ml"].ell == partial.verdicts["rational"].ell == 100
        assert partial.zero_table[-1].ell == 100
        assert len(partial.zero_table) < len(full.zero_table)
        assert not partial.zero_table_complete

    def test_excluded_and_p3_are_complete(self):
        for p in (2, 3, 11):
            assert classify_prime(p, full_table=False).zero_table_complete


def constant_class_values(p, q, r, digits):
    """Brute-force oracle: the values of T(n) mod p^digits over n = r (mod q), across one full
    period of T mod p^digits found by walking the recurrence until (0, 1, 1) recurs."""
    m = p**digits
    a, b, c = 1, 1, 2  # T(1), T(2), T(3)
    period = 1
    while (a, b, c) != (0, 1, 1):
        a, b, c = b, c, (a + b + c) % m
        period += 1
    values = set()
    a, b, c = 0, 1, 1
    for n in range(math.lcm(period, q)):
        if n % q == r:
            values.add(a)
        a, b, c = b, c, (a + b + c) % m
    return values


class TestP3Pipeline:
    """p = 3 through classify_prime's one record pipeline: every zero class read by _class_rules."""

    def test_zero_classes(self):
        rec = classify_prime(3, 24)
        assert [i.ell for i in rec.zero_table] == [0, 7, 9, 12]
        assert not any(i.deriv_ok for i in rec.zero_table)
        # 7 = -5/3 (mod 13), but -5/3 is not a 3-adic integer: l = 7 sits over no target
        assert [i.target for i in rec.zero_table] == [0, None, -4, -1]

    @pytest.mark.parametrize("prec", [3, 5, 24, 96])
    def test_formula_matches_builtin(self, prec):
        rec = classify_prime(3, prec)
        assert rec.verdicts["ml"].status == STATUS_HOLDS and rec.verdicts["ml"].q == 39
        assert rule_table(rec.formula) == rule_table(builtin_spec("p3"))

    def test_class_rules_by_strassman_degree(self):
        # mu = 0 on (7, 1) and (9, 3), mu = 1 on (0, 1) and (12, 1), mu = 2 on (9, 1): split mod 39
        ctx = prime_context(3, 24)
        assert _class_rules(ctx, 7) == [(13, (7,), None, 1)]
        assert _class_rules(ctx, 9) == [(39, (9,), None, 4), (39, (22,), -17, 4), (39, (35,), -4, 4)]
        assert _class_rules(ctx, 12) == [(13, (12,), -1, 2)]

    def test_constant_classes_against_period_walk(self):
        # each mu = 0 class takes one value of T mod p^(kappa + 1), of valuation kappa
        ctx = prime_context(3, 24)
        rec = classify_prime(3, 24)
        constants = [e for i in rec.zero_table for e in _class_rules(ctx, i.ell) if e[2] is None]
        assert [(m, r, kappa) for m, (r,), _, kappa in constants] == [(13, 7, 1), (39, 9, 4)]
        for m, (r,), _, kappa in constants:
            values = constant_class_values(3, m, r, kappa + 1)
            assert len(values) == 1 and val_int(values.pop(), 3) == kappa

    def test_certificate_valuations(self):
        # the formula's linear cases are the certificates', whose nu_3(beta_1) certify reads
        ctx = prime_context(3, 24)
        linear = {c.residues: (c.a, c.kappa) for c in classify_prime(3, 24).formula.cases if c.a is not None}
        assert linear == {(0,): (0, 2), (38,): (-1, 2), (22,): (-17, 4), (35,): (-4, 4)}
        assert class_certificate(ctx, 0).deriv_val == 1  # nu_3(beta_1) = 1
        assert class_certificate(ctx, 22, 3).deriv_val == 3  # nu_3(beta_1) = 3 at s = 3

    @pytest.mark.usefixtures("cold_records")
    def test_missing_certificate_raises(self, monkeypatch):
        # p >= 5 reads its holds classes off the zero table; p = 3 reads its series, and a
        # mu = 1 piece without a certificate is a precision fault
        monkeypatch.setattr(tribadic.classifier, "certify", lambda series: None)
        with pytest.raises(PrecisionError, match="no linear certificate"):
            classify_prime(3)
        ctx = prime_context(3, 24)
        assert _class_rules(ctx, 0) is None  # mu = 1
        assert _class_rules(ctx, 9) is None  # mu = 2: split mod 39, with mu = 1 pieces at 22 and 35


def class_certificate(ctx, ell, s=1):
    return certify(class_series(ctx, ell, s))


class TestDeriveLinearFormula:
    """Linear certificates, read by certify off the series class_series escalates."""

    def test_p83_class_zero(self, ctx83):
        cert = class_certificate(ctx83, 0, 1)
        assert (cert.a, cert.kappa, cert.mu) == (0, 1, 1)

    def test_p3_classes(self):
        ctx = prime_context(3, 24)
        assert class_certificate(ctx, 0, 1).kappa == 2
        cert = class_certificate(ctx, 35, 3)
        assert (cert.a, cert.kappa) == (-4, 4)
        cert = class_certificate(ctx, 22, 3)
        assert (cert.a, cert.kappa) == (-17, 4)

    def test_constant_class_yields_none(self):
        # l = 9 at s = 3 is the constant nu = 4 class: no linear formula
        ctx = prime_context(3, 24)
        assert class_certificate(ctx, 9, 3) is None

    @pytest.mark.parametrize("p, ell", [(5, 30), (3, 9)])
    def test_class_over_z_t_without_dominance_yields_none(self, p, ell):
        # l sits over -1 (p = 5) or -4 (p = 3) mod N, but mu = 2: no linear formula at s = 1
        assert class_certificate(prime_context(p, 24), ell, 1) is None

    def test_zero_over_no_target_has_no_certificate(self):
        # l = 64 is p = 59's rational-form witness: its zero sits over no element of Q_T, and g at
        # each (t - l)/N is a definite nonzero mod p^prec, not a precision fault
        assert classify_prime(59).verdicts["rational"].ell == 64
        for prec in (24, 48, 96):
            series = class_series(prime_context(59, prec), 64)
            assert series.ctx.prec == prec and certify(series) is None
            assert len(hensel_zero(series).digits()) == prec

    def test_only_the_target_the_zero_sits_over_vanishes(self, ctx269):
        # l = 179 sits over 1/3; g is a unit multiple of z - b on Z_p, so it is nonzero mod
        # p^prec at (t - l)/N for every other t in Q_T.  The series reads g on the disc of b only;
        # off it, g(z) = T(l + N*z)/p at the integer z < p^prec is a unit
        series = series_coeffs(ctx269, 179)
        assert certify(series).a == Fraction(1, 3)
        pk = 269**24
        on_disc = 0
        for t in map(Fraction, QT):
            z = (t.numerator - 179 * t.denominator) * pow(268 * t.denominator, -1, pk) % pk
            if (z - series.start) % 269 == 0:
                on_disc += 1
                assert (series_eval(series, z) == 0) == (t == Fraction(1, 3))
            else:
                assert trib_mod(179 + 268 * z, 269**2) != 0
        assert on_disc >= 1

    def test_low_precision_certificates_match_precision_24(self):
        # a target matched on too few digits is not a certificate: (a, kappa, Q) at precision 3 is
        # the one at 24 on every zero class with p < 99, derivative-failing ones included (mu = 0
        # and mu = 2 classes with two vanishing targets, such as 5/30, 7/15, 47/29 and 53/35), and
        # on p = 3's classes at s = 3 (p = 23, l = 454 once was -5/3)
        classes = [(p, info.ell, 1) for p in primes_upto(99) if p not in EXCLUDED_PRIMES
                   for info in _zero_table(p, prime_context(p, 3).n_period)]
        classes += [(3, ell, 3) for ell in (9, 22, 35)]
        certified = 0
        for p, ell, s in classes:
            certs = [class_certificate(prime_context(p, prec), ell, s) for prec in (3, 24)]
            rules = [c and (c.a, c.kappa, c.q) for c in certs]
            assert rules[0] == rules[1], f"p = {p}, l = {ell}, s = {s}"
            certified += rules[1] is not None
        assert len(classes) > 600 and certified > 140

    def test_rational_class(self, ctx269):
        ell = pow(3, -1, 268) % 268
        cert = class_certificate(ctx269, ell, 1)
        assert cert.a == Fraction(1, 3) and cert.kappa == 1

    def test_precision_escalation(self):
        # at 2 digits the slope (valuation 3) vanishes mod 3^2; the derivation
        # must double its way up rather than fail
        cert = class_certificate(prime_context(3, 2), 35, 3)
        assert cert is not None and (cert.a, cert.kappa) == (-4, 4)

class TestCertifyLemma:
    """certify reads the exactness lemma of classifier's module docstring and evaluates no series;
    conftest.certify_oracle is the evaluation g(z) = 0 (mod p^prec) it replaced.  The two agree on
    every zero class, whatever its mu and derivative condition; CI compares every admissible
    p < 1500 at precision 24."""

    ADMISSIBLE = [p for p in primes_upto(399) if p not in EXCLUDED_PRIMES]

    @pytest.mark.parametrize("prec, certified", [(3, 509), (24, 509)])
    def test_every_zero_class_below_400(self, prec, certified):
        cases = [(p, ell, 1, prec) for p in self.ADMISSIBLE for ell in zero_classes(p, 1)]
        assert certify_disagreements(cases) == (5820, certified, [])

    def test_period_multipliers_p_and_p_squared(self):
        # p < 60 at s = p, and p < 20 at s = p^2, p = 3 included
        cases = [(p, ell, s, 24) for p in self.ADMISSIBLE if p < 60
                 for s in ((p, p * p) if p < 20 else (p,)) for ell in zero_classes(p, s)]
        compared, certified, differ = certify_disagreements(cases)
        assert differ == [] and compared > 20000 and certified > 100

    def test_negative_ell(self):
        # zero --ell takes any integer, and l - kN is l's class mod N: _sits_over reduces mod N
        cases = [(p, ell - k * prime_context(p).n_period, 1, 24) for p in self.ADMISSIBLE if p < 60
                 for ell in zero_classes(p, 1) for k in (1, 7)]
        compared, certified, differ = certify_disagreements(cases)
        assert differ == [] and compared > 400 and certified > 30
        for p, ell, _, _ in cases:
            ctx = prime_context(p, 24)
            low, high = class_certificate(ctx, ell), class_certificate(ctx, ell % ctx.n_period)
            assert (low and low[:4]) == (high and high[:4]), (p, ell)

    def test_no_series_is_evaluated(self, monkeypatch):
        # each certificate of the CI's precision-96 step, with the evaluator and the inverse gone
        classes = [(269, 179, 1), (83, 270, 1), (3, 35, 3), (163, 54, 1), (5, 21, 1)]
        series = [class_series(prime_context(p, 96), ell, s) for p, ell, s in classes]

        def boom(*args):
            raise AssertionError("certify evaluated a series or inverted a scalar")

        monkeypatch.setattr(tribadic.interpolation, "_zp_eval", boom)
        monkeypatch.setattr(tribadic.interpolation, "_zp_powers", boom)
        monkeypatch.setattr(tribadic.classifier, "unit_inverse", boom)
        got = [(c.a, c.kappa) for c in map(certify, series)]
        assert got == [(Fraction(1, 3), 1), (-17, 1), (-4, 4), (0, 1), (Fraction(1, 3), 1)]


def taylor_shift(betas, b, pk):
    """Reference recentring by b: sum_j C(j, k) beta_j b^(j-k) mod pk, the O(J^2) Taylor shift."""
    pows = [1]
    for _ in range(len(betas) - 1):
        pows.append(pows[-1] * b % pk)
    return [sum(math.comb(j, k) * betas[j] * pows[j - k] for j in range(k, len(betas))) % pk
            for k in range(len(betas))]


def centred_series(ctx, ell, s):
    """(series, zero) pairs with a certified zero on the class n = l (mod sN): the located
    Hensel zero, and for a class over Z_T also the series at l with its integer zero
    (a - l)/sN and the series at a with its zero 0."""
    q = s * ctx.n_period
    out = []
    series = series_coeffs(ctx, ell, s)
    if series.start is not None:  # beta_1 is a unit: the Hensel zero exists
        out.append((series, hensel_zero(series).b))
    a = next((t for t in ZT if (ell - t) % q == 0), None)
    if a is not None:
        out.append((series_coeffs(ctx, ell, s), (a - ell) // q % ctx.p**ctx.prec))
        out.append((series_coeffs(ctx, a, s), 0))
    return out


class TestStrassmanDominance:
    """The linear certificate reads dominance of gamma_1 from series.mu on the series as it
    is centred (at 0, or at d0 on a disc); the Taylor shift to the zero is the oracle."""

    CLASSES = [(p, info.ell, 1) for p in (5, 83, 269, 397, 401)
               for info in _zero_table(p, prime_context(p, 3).n_period)] + [(3, 22, 3), (3, 35, 3)]

    @pytest.mark.parametrize("prec", [24, 48])
    def test_matches_taylor_shift(self, prec):
        dominated = {True: 0, False: 0}
        for p, ell, s in self.CLASSES:
            ctx = prime_context(p, prec)
            pairs = centred_series(ctx, ell, s)
            assert pairs, f"no certified zero at p = {p}, l = {ell}, s = {s}"
            for series, zero in pairs:
                centre = 0 if series.start is None else series.start % p
                gammas = taylor_shift(series.coeffs, zero - centre, p**prec)
                assert gammas[0] == 0 and series_eval(series, zero) == 0
                v1 = known_val(gammas[1], p, prec)
                assert gammas[1] == _plain_horner(slopes(series.coeffs), zero - centre, p**prec) and v1 < prec
                dom = all(known_val(g, p, prec) > v1 for g in gammas[2:])
                assert dom == (series.mu == 1), f"p = {p}, l = {ell}, s = {s}, zero = {zero}"
                dominated[dom] += 1
        # both outcomes occur: p = 5, l = 30 sits over -1 with mu = 2
        assert dominated[True] > 50 and dominated[False] >= 2


class TestLocatedZeroOracle:
    def test_hensel_zero_never_raises_on_a_unit_beta_1(self):
        # for k >= 2, nu(beta_k) >= (k-1)E - nu_p(k!) >= 1, so g' = beta_1 (mod p) on Z_p: Newton
        # converges wherever beta_1 is a unit, which is why class_series escalates on mu alone
        units = 0
        for p in primes_upto(199):
            if p in EXCLUDED_PRIMES:
                continue
            for prec in (3, 24):
                ctx = prime_context(p, prec)
                for info in _zero_table(p, ctx.n_period):
                    series = class_series(ctx, info.ell)
                    assert (series.coeffs[1] % p != 0) == info.deriv_ok, (p, prec, info.ell)
                    if info.deriv_ok:
                        units += 1
                        record = hensel_zero(series)
                        assert series_eval(series, record.b) == 0 and record.series is series
        assert units > 1000


    def test_valuations_along_the_zero(self):
        # nu_p(T(l + N*m)) = e + nu_p(m - b) for m = b mod p^j: integer-only check of b and unique
        checked = 0
        for row in published_table()[::4]:
            ctx = prime_context(row.p, 24)
            record = hensel_zero(class_series(ctx, row.ell))
            assert record.series.mu == 1, f"p = {row.p}, l = {row.ell}"
            for j in range(1, 7):
                m = record.b % row.p**j
                diff = m - record.b
                if diff == 0:
                    continue
                expected = record.series.e + known_val(diff, row.p, ctx.prec)
                assert trib_val(row.ell + ctx.n_period * m, row.p) == expected, (row.p, row.ell, j)
                checked += 1
        assert checked == 6 * 26


class TestWitnessZeroOracle:
    """witness_zero checks T(l + N*m) = 0 (mod p^(e + prec)) at m = b mod p^prec, from one
    trib_mod: the true zero passes, and a zero moved at any of its digits raises.  trib_val is
    the reference it must agree with."""

    WITNESSES = [(23, 29, 15), (5, 21, 2), (47, 31, 16)]  # (p, l, u) of failure witnesses

    @staticmethod
    def with_zero(monkeypatch, b):
        real = tribadic.classifier.hensel_zero
        monkeypatch.setattr(tribadic.classifier, "hensel_zero",
                            lambda series: real(series)._replace(b=b))

    @pytest.mark.parametrize("prec", [3, 24])
    @pytest.mark.parametrize("p, ell, u", WITNESSES)
    def test_agrees_with_trib_val(self, monkeypatch, p, ell, u, prec):
        ctx = prime_context(p, prec)
        true = hensel_zero(class_series(ctx, ell))
        bound = true.series.e + prec
        assert trib_val(ell + ctx.n_period * true.b, p) >= bound
        assert witness_zero(ctx, ell, u) == tuple(true.digits())
        for k in range(1, prec):  # each shift keeps u, and leaves nu_p(T(l + N*m)) = e + k
            b = (true.b + p**k) % p**prec
            assert trib_val(ell + ctx.n_period * b, p) == true.series.e + k < bound
            self.with_zero(monkeypatch, b)
            with pytest.raises(AssertionError, match=f"witness zero at l = {ell}"):
                witness_zero(ctx, ell, u)

    def test_p23_takes_the_at_least_branch_and_passes(self):
        # b = 9 + 20*23 + 0*23^2: at precision 3, b mod 23^2 is b itself, which only the
        # ">= e + prec" reading of the check lets pass
        ctx = prime_context(23, 3)
        assert hensel_zero(class_series(ctx, 29)).digits() == [9, 20, 0]
        assert witness_zero(ctx, 29, 15) == (9, 20, 0)

    def test_no_trib_val_and_no_primality_test(self, monkeypatch):
        ctx = prime_context(23, 24)

        def refuse(*args):
            raise RuntimeError("called")

        for module in (tribadic.classifier, tribadic.tribonacci, tribadic.galois, tribadic._factor):
            for name in ("trib_val", "is_prime"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert witness_zero(ctx, 29, 15)[:3] == (9, 20, 0)

    def test_shifted_zero_raises_under_python_O(self):
        # b's digit at p^2 is 0: a shift by p^2 as well as by p moves b off the zero
        code = (
            "import tribadic.classifier as c\n"
            "assert False, 'not running under -O'\n"
            "real = c.hensel_zero\n"
            "for shift in (23, 23**2):\n"
            "    c.hensel_zero = lambda series: (lambda r: r._replace(b=r.b + shift))(real(series))\n"
            "    try:\n"
            "        c.witness_zero(c.prime_context(23, 24), 29, 15)\n"
            "    except AssertionError as exc:\n"
            "        print('raised:', shift, exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert [line.split()[1] for line in out.stdout.splitlines()] == ["23", "529"]


class TestWitnessDigitsAtFullPrecision:
    """Every printed digit of a witness zero ties to the sequence: for the integer-form witness
    l of each published row with p <= 300, b read from witness_zero and e the exponent of its
    class's series, T(l + N*b) = 0 (mod p^(e + 24)) by the integer-only matrix oracle."""

    def test_every_published_witness_zero_vanishes_to_all_its_digits(self):
        rows = [row for row in published_table() if row.p <= 300]
        assert len(rows) == 56
        for row in rows:
            p, prec = row.p, 24
            ctx = prime_context(p, prec)
            v = classify_prime(p, prec).verdicts["ml"]
            assert (v.ell, v.u) == (row.ell, row.u)
            digits = witness_zero(ctx, v.ell, v.u)
            assert len(digits) == prec
            b = sum(d * p**i for i, d in enumerate(digits))
            pe = p ** (class_series(ctx, v.ell).e + prec)
            assert trib_mod_oracle(v.ell + row.n_period * b, pe) == 0, p
            # negative controls: b moved at its fourth or its eleventh digit
            for shift in (p**3, p**10):
                assert trib_mod_oracle(v.ell + row.n_period * (b + shift), pe) != 0, (p, shift)


class TestFormulaSpec:
    def test_builtin_specs_validate(self):
        for name in ("p2", "p3", "p83", "p397", "p269", "p401", "p419", "p499", "p587"):
            spec = builtin_spec(name)
            covered = {r for c in spec.cases for r in c.residues}
            assert len(covered) <= spec.q

    def test_p269_rational_residues(self):
        spec = builtin_spec("p269")
        residues = {Fraction(c.a): c.residues[0] for c in spec.cases if c.a is not None}
        assert residues[Fraction(1, 3)] == 179 and residues[Fraction(-5, 3)] == 177

    def test_enup_invariant_enforced(self):
        with pytest.raises(ValueError):
            # nu_3(0 - 13) = 0 < nu_3(39): residue 13 cannot be a linear class for a = 0
            FormulaSpec(3, 39, (FormulaCase((13,), 2, 0),))

    def test_composite_p_rejected(self):
        for p in (4, PSI_12):
            with pytest.raises(ValueError, match="not prime"):
                FormulaSpec(p, 5, ())

    def test_predict_on_target(self):
        spec = builtin_spec("p83")
        assert spec.predict(-17) == VAL_INF
        assert spec.predict(287 - 17) == val_int(287, 83) + 1 == 1

    def test_unknown_name(self):
        for name in ("p600", "p083"):  # names are looked up exactly
            with pytest.raises(KeyError):
                builtin_spec(name)

    @staticmethod
    def rule_oracle(spec, n):
        kappa, a, mu = rule_table(spec)[n % spec.q]
        if a is None:
            return kappa
        if n == a:
            return VAL_INF
        return kappa + mu * val_int((n - a).numerator, spec.p)

    @pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
    def test_predict_matches_rule_table(self, name):
        spec = builtin_spec(name)
        rng = random.Random(name)
        ns = [rng.randrange(-(10**30), 10**30) for _ in range(1000)]
        ns += [rng.randrange(-(10**4), 10**4) for _ in range(1000)]
        ns += [crt_witness(r, spec.q, c.a, spec.p, k)
               for c in spec.cases if c.a is not None for r in c.residues for k in (1, 5, 12)]
        ns += [c.a for c in spec.cases if isinstance(c.a, int)]
        for n in ns:
            assert spec.predict(n) == self.rule_oracle(spec, n), n

    def test_predict_default_kappa_and_mu(self):
        # 1/2 - 3 and 1/2 - 8 are -5/2 and -15/2, so 3 and 8 are linear classes mod 10 at p = 5
        spec = FormulaSpec(5, 10, (FormulaCase((3, 8), 1, Fraction(1, 2), 2), FormulaCase((0, 4), 2)), 3)
        rng = random.Random(5)
        for n in [rng.randrange(-(10**12), 10**12) for _ in range(2000)] + [3, 13, 63, 313, 5**9 * 2 + 3]:
            assert spec.predict(n) == self.rule_oracle(spec, n), n
        assert (spec.predict(1), spec.predict(10), spec.predict(3), spec.predict(63)) == (3, 2, 3, 7)

    def test_replace_and_make_validate(self):
        spec = builtin_spec("p83")
        for bad in ({"q": 0}, {"p": 4}, {"default_kappa": 1.0}, {"cases": spec.cases * 2}):
            with pytest.raises(ValueError):
                spec._replace(**bad)
        with pytest.raises(ValueError, match="must be >= 1"):
            FormulaSpec._make((83, 0, (), 0))

    @pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
    def test_replaced_and_unpickled_specs_predict_alike(self, name):
        spec = builtin_spec(name)
        rng = random.Random(name)
        ns = list(range(-50, 3 * spec.q)) + [rng.randrange(10**20) for _ in range(500)]
        for other in (spec._replace(), spec._replace(cases=spec.cases), pickle.loads(pickle.dumps(spec))):
            assert type(other) is FormulaSpec and other == spec
            assert [other.predict(n) for n in ns] == [spec.predict(n) for n in ns]

    @pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
    def test_pickles_its_fields_alone(self, name):
        # unpickling rebuilds the predict table through __new__, so a pickle carries no copy of it,
        # at any protocol
        spec = builtin_spec(name)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(spec, protocol)
            assert b"_rules" not in data
            assert pickle.loads(data)._rules == spec._rules


class TestRecords:
    """Every record type is a namedtuple: no field can be assigned or deleted, and only
    SeriesTrunc (which caches mu) and FormulaSpec (which keeps its predict table) have an
    instance dict."""

    @staticmethod
    def records():
        ctx = prime_context(23, 24)
        series = class_series(ctx, 29)
        rec = classify_prime(23)
        spec = builtin_spec("p83")
        return [
            ctx, series, hensel_zero(series),
            rec, rec.verdicts["ml"], rec.zero_table[0], spec, spec.cases[0],
            certify(class_series(prime_context(83, 24), 270)), Mismatch(1, 0, 1), reproduce_table(30)[0],
            published_table()[0], validate_published_rows(p_max=30)[0], scan_range(30), FORMS[0],
        ]

    def test_every_record_type_is_covered(self):
        kinds = {type(r) for r in self.records()}
        assert len(kinds) == 15 and all(issubclass(k, tuple) and k._fields for k in kinds)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for rec in self.records():
            for name in rec._fields:
                with pytest.raises(AttributeError):
                    setattr(rec, name, getattr(rec, name))
                with pytest.raises(AttributeError):
                    delattr(rec, name)

    def test_only_two_types_take_new_attributes(self):
        with_dict = {type(r).__name__ for r in self.records() if hasattr(r, "__dict__")}
        assert with_dict == {"SeriesTrunc", "FormulaSpec"}
        for rec in self.records():
            if type(rec).__name__ not in with_dict:
                with pytest.raises(AttributeError):
                    rec.extra = 1


class TestVerifyFormula:
    @pytest.mark.parametrize("name", ["p2", "p3", "p83", "p269"])
    def test_builtins_pass_on_subrange(self, name):
        assert verify_formula(builtin_spec(name), 1, 2500) == []

    def test_corrupted_case_detected(self):
        spec = builtin_spec("p3")
        broken = FormulaSpec(
            spec.p, spec.q,
            (FormulaCase(spec.cases[0].residues, spec.cases[0].kappa + 1, spec.cases[0].a,
                         spec.cases[0].mu),) + spec.cases[1:],
            spec.default_kappa,
        )
        assert verify_formula(broken, 1, 2500)

    def test_extra_points(self):
        spec = builtin_spec("p83")
        extras = [crt_witness(287 - 17, 287, -17, 83, k) for k in range(1, 7)]
        assert verify_formula(spec, 1, 10, extra=extras) == []

    @staticmethod
    @functools.cache
    def brute_force_val(n, p):
        """nu_p(T(n)) read from T(n) alone: exact for |n| <= 1000, else from T(n) mod p^160
        (which must not vanish)."""
        if n in ZERO_SET:
            return VAL_INF
        if abs(n) <= 1000:
            return val_int(trib(n), p)
        residue = trib_mod(n, p**160)
        assert residue != 0, n
        return val_int(residue, p)

    @classmethod
    def brute_force_report(cls, spec, lo, hi):
        out = []
        for n in range(lo, hi + 1):
            actual = cls.brute_force_val(n, spec.p)
            if spec.predict(n) != actual:
                out.append(Mismatch(n, spec.predict(n), actual))
        return out

    @staticmethod
    def wrong_variants(spec):
        """spec with one rule broken: each case's kappa and the default kappa moved by -1 and +1,
        and each case dropped (its residues fall to the default)."""
        for i, case in enumerate(spec.cases):
            others = spec.cases[:i] + spec.cases[i + 1:]
            for d in (-1, 1):
                cases = others[:i] + (case._replace(kappa=case.kappa + d),) + others[i:]
                yield FormulaSpec(spec.p, spec.q, cases, spec.default_kappa)
            yield FormulaSpec(spec.p, spec.q, others, spec.default_kappa)
        for d in (-1, 1):
            yield FormulaSpec(spec.p, spec.q, spec.cases, spec.default_kappa + d)

    @pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
    def test_wrong_specs_report_every_mismatch(self, name):
        # p2 and p3 have constant kappa = 1 classes: moved to 0, their residues have the rule 0
        # while p | T(n), so steps with the rule 0 must still compare whenever p divides the residue
        spec = builtin_spec(name)
        windows = [
            (1900, 2000 + spec.q),  # crosses the spot check at 2 * 997 and wraps q
            (997, 1040),  # starts on a spot check
            (1994, 1994), (5, 5),  # one term, on a spot check and off one
            (-20, 30), (0, 50), (10**7 + 3, 10**7 + 123),
        ]
        reports = 0
        for wrong in self.wrong_variants(spec):
            for lo, hi in windows:
                report = verify_formula(wrong, lo, hi)
                assert report == self.brute_force_report(wrong, lo, hi), (wrong, lo, hi)
                reports += bool(report)
        assert reports

    def test_huge_modulus_builds_no_table_of_its_size(self):
        spec = FormulaSpec(5, 10**30, (FormulaCase((1500,), 1),))
        tracemalloc.start()
        try:
            report = verify_formula(spec, 1, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == self.brute_force_report(spec, 1, 3000)
        assert any(m.n == 1500 for m in report) and peak < 500_000

    @pytest.mark.parametrize("p, lo, hi", [(65537, 92700, 93300), (2**31 - 1, -20, 1200)])
    def test_walk_modulo_p_itself(self, p, lo, hi):
        # p^2 >= 2^30, so the walk runs mod p and every residue p divides defers to trib_val:
        # T(93247) = 0 (mod 65537) lies under the default rule 0, and -17..0 holds Z_T
        spec = FormulaSpec(p, 10, (FormulaCase((3,), 1),))
        report = verify_formula(spec, lo, hi)
        assert report == self.brute_force_report(spec, lo, hi)
        assert any(m.actual != 0 for m in report)

    @pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
    def test_walk_start_anywhere(self, name):
        # the walk starts from one power x^lo: before the zero set, on it, and far out
        spec = builtin_spec(name)
        for lo in (-300, -17, -5, 0, 1, 10**7 + 3, 2**64):
            assert verify_formula(spec, lo, lo + 300) == self.brute_force_report(spec, lo, lo + 300), lo

    def test_empty_range(self):
        assert verify_formula(builtin_spec("p3"), 5, 4) == []

    def test_sync_check_survives_python_O(self):
        # the walk's check against its own powering must not be an assert that -O strips:
        # with the triples read at lo = 1 and at the first period's end 39 true and every other
        # triple read one step ahead, the first check made is the end of the first jump
        # chain, p3's kappa = 4 class n = 9 (mod 39), at 9 + 51 * 39 = 1998
        code = (
            "import sys\n"
            "import tribadic.classifier as c\n"
            "assert False, 'not running under -O'\n"
            "real = c._triple\n"
            "c._triple = lambda n, m: real(n if n in (1, 39) else n + 1, m)\n"
            "try:\n"
            "    c.verify_formula(c.builtin_spec('p3'), 1, 2000)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert "raised: incremental walk out of sync at n = 1998" in out.stdout

    @staticmethod
    def scalar_depth(p, q, k_max=8):
        """The largest k <= k_max with x^q a scalar mod p^k, read off the exact sequence:
        x^q = r0 + r1 x + r2 x^2 has r1 = r2 = 0 (mod p^k) iff T(q) = 0 and T(q+1) = T(q+2)."""
        t0, t1, t2 = trib(q), trib(q + 1), trib(q + 2)
        return max(k for k in range(k_max + 1) if t0 % p**k == 0 and (t1 - t2) % p**k == 0)

    @pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
    def test_jump_chains_over_several_periods(self, name):
        # windows of more than three periods, so every walked class is a chain of >= 3 jumps
        spec = builtin_spec(name)
        windows = [(1, 4 * spec.q), (10**6 + 11, 10**6 + 11 + 3 * spec.q + spec.q // 2)]
        for lo, hi in windows:
            assert verify_formula(spec, lo, hi) == [], (lo, hi)
        reports = 0
        for wrong in self.wrong_variants(spec):
            for lo, hi in windows:
                report = verify_formula(wrong, lo, hi)
                assert report == self.brute_force_report(wrong, lo, hi), (wrong, lo, hi)
                reports += bool(report)
        assert reports

    def test_period_with_scalar_other_than_one(self):
        # q = N/3 at p = 163: x^54 = 58 (mod 163), a scalar but not 1, so constant classes
        # still settle from one point; the zeros of T mod 163 and the wrong kappa = 1 on
        # n = 3 (mod 54) are walked and reported in full
        p, q = 163, 54
        assert prime_context(p).n_period == 3 * q
        assert self.scalar_depth(p, q) == 1 and trib(q + 1) % p not in (0, 1)
        spec = FormulaSpec(p, q, (FormulaCase((3,), 1), FormulaCase((10,), 0)))
        for lo, hi in [(1, 4 * q + 5), (10**6, 10**6 + 5 * q), (-60, 3 * q)]:
            report = verify_formula(spec, lo, hi)
            assert report == self.brute_force_report(spec, lo, hi), (lo, hi)
            assert [m.n for m in report if m.n % q == 3] == list(range(lo + (3 - lo) % q, hi + 1, q))
            assert any(m.n % q != 3 for m in report)

    @pytest.mark.parametrize("p, q", [(83, 286), (5, 1)])
    def test_period_that_is_no_scalar(self, p, q):
        # x^q is no scalar mod p (k0 = 0): no class settles and every class is one jump chain;
        # the first point of each default class shows its kappa = 0, the zeros of T mod p
        # come later.  At q = 1, x^q = x has r2 = 0 but r1 = 1
        assert self.scalar_depth(p, q) == 0
        spec = FormulaSpec(p, q, (FormulaCase((5,), 1),) if q > 5 else ())
        for lo, hi in [(1, 3 * q + 40), (10**7, 10**7 + 4 * q + 3)]:
            report = verify_formula(spec, lo, hi)
            assert report == self.brute_force_report(spec, lo, hi), (lo, hi)
            assert report

    def test_constant_class_at_k0_is_walked(self):
        # x^39 is a scalar mod 27 but not mod 81 (k0 = 3): p3's kappa = 2 classes settle from
        # one point and its kappa = 4 class n = 9 (mod 39) is walked.  A constant kappa = 3 on
        # n = 0 (mod 39), where nu_3(T(n)) = 2 + nu_3(n), matches at 39 and 78 but not at 117:
        # at kappa = k0 one matching point must not settle the class
        assert self.scalar_depth(3, 39) == 3
        p3 = builtin_spec("p3")
        assert {c.kappa for c in p3.cases if c.a is None} == {0, 1, 2, 4}
        (linear,) = [c for c in p3.cases if 0 in c.residues]
        assert (linear.residues, linear.kappa, linear.a) == ((0,), 2, 0)
        spec = FormulaSpec(3, 39, tuple(FormulaCase((0,), 3) if c is linear else c for c in p3.cases))
        report = verify_formula(spec, 1, 4 * 39 * 3)
        assert report == self.brute_force_report(spec, 1, 4 * 39 * 3)
        assert [m.n for m in report][:2] == [117, 234]
        for wrong in self.wrong_variants(p3):
            assert verify_formula(wrong, 2, 6 * 39) == self.brute_force_report(wrong, 2, 6 * 39), wrong

    @staticmethod
    def linear_variants(spec):
        """spec with each linear case's kappa moved to -3, -1 and 40 (at or above any K), and
        its mu doubled."""
        for i, case in enumerate(spec.cases):
            if case.a is None:
                continue
            for changed in (*(case._replace(kappa=k) for k in (-3, -1, 40)),
                            case._replace(mu=2 * case.mu)):
                yield FormulaSpec(spec.p, spec.q, spec.cases[:i] + (changed,) + spec.cases[i + 1:],
                                  spec.default_kappa)

    @pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
    def test_linear_rules_read_along_the_chain(self, name):
        # a linear class predicts kappa + mu * nu_p(n*den - num) from its own d, carried by q*den
        # a jump; negative kappa, kappa beyond K and d = 0 (n = a in Z_T, inside -20..30) go to
        # spec.predict
        spec = builtin_spec(name)
        variants = list(self.linear_variants(spec))
        assert variants or name == "p2"
        for wrong in variants:
            for lo, hi in [(-20, 30), (1, 3 * spec.q + 7), (10**6 + 5, 10**6 + 5 + 2 * spec.q)]:
                assert verify_formula(wrong, lo, hi) == self.brute_force_report(wrong, lo, hi), (wrong, lo, hi)

    @pytest.mark.parametrize("name", ["p2", "p3", "p83", "p269", "p587"])
    def test_passing_points_skip_predict(self, monkeypatch, name):
        # a point whose residue shows its rule's valuation passes without a spec.predict call,
        # linear classes included
        calls = []
        real = FormulaSpec.predict

        def spy(self, n):
            calls.append(n)
            return real(self, n)

        monkeypatch.setattr(FormulaSpec, "predict", spy)
        spec = builtin_spec(name)
        assert any(c.a is not None for c in spec.cases) or name == "p2"
        assert verify_formula(spec, 1, 6 * spec.q) == [] and calls == []

    def test_wrong_constant_class_reported_from_its_first_point(self, monkeypatch):
        # p83's classes with nu_83 = 0 < k0 under a wrong default kappa = 1: every point of such a
        # class has nu_83 = 0, so each is reported from the first period, with no jump chain and
        # so no chain-end powering beyond those of the right spec
        powerings = []
        for name in ("_xpow", "_triple"):
            def spy(n, m, real=getattr(tribadic.classifier, name)):
                powerings.append(n)
                return real(n, m)

            monkeypatch.setattr(tribadic.classifier, name, spy)
        spec = builtin_spec("p83")
        wrong = FormulaSpec(spec.p, spec.q, spec.cases, 1)
        lo, hi = 5, 5 + 4 * spec.q
        assert verify_formula(spec, lo, hi) == []
        right = len(powerings)
        powerings.clear()
        report = verify_formula(wrong, lo, hi)
        assert len(powerings) == right
        assert report == self.brute_force_report(wrong, lo, hi)
        assert len(report) > 3 * (spec.q - 8)

    def test_report_sorted_with_extras_in_given_order(self):
        # classes are walked one chain at a time, but the range's report is in order of n;
        # the extra points follow in the order given, even where they repeat the range
        spec = FormulaSpec(83, 287, (), default_kappa=1)
        extras = [2**70 + 1, 10**9 + 1, 7, 5]
        report = verify_formula(spec, 1, 2000, extra=extras)
        ranged = [m.n for m in report[:-len(extras)]]
        assert ranged == sorted(ranged) and len(set(ranged)) == len(ranged) and len(ranged) > 1900
        assert [m.n for m in report[-len(extras):]] == extras
        assert report == self.brute_force_report(spec, 1, 2000) + [
            Mismatch(n, 1, self.brute_force_val(n, 83)) for n in extras]

    def test_extra_points_read_one_powering(self, monkeypatch):
        # an extra point with a finite prediction e >= 0 reads T(n) mod p^(e+1): p83's CRT points
        # from their class's forward differences (x^287 = 1 mod 83), those of q = 10 from one
        # powering each (x^10 != 1 mod 83); only a zero residue (here n = 0 in Z_T under the
        # default rule 0) or an infinite or negative prediction goes to trib_val
        calls = []

        def spy(n, p, *args):
            calls.append(n)
            return trib_val(n, p, *args)

        monkeypatch.setattr(tribadic.classifier, "trib_val", spy)
        spec = builtin_spec("p83")
        extras = [crt_witness(287 - 17, 287, -17, 83, k) for k in range(1, 7)]
        assert verify_formula(spec, 1, 10, extra=extras) == [] and calls == []
        spec = FormulaSpec(83, 10, (FormulaCase((3,), -1),))
        assert verify_formula(spec, 1, 0, extra=[0, 13, 5]) == [Mismatch(0, 0, VAL_INF), Mismatch(13, -1, 0)]
        assert calls == [0, 13]

    @pytest.mark.parametrize("q", [1, 13, 32, 39, 54, 286, 287])
    def test_chain_recurrence_of_x_to_the_q(self, q):
        # u_l = T(n + l*q) obeys u_(l+3) = t1 u_(l+2) - t2 u_(l+1) + t3 u_l with _char_poly(x^q) =
        # (t1, t2, t3) = (tr x^q, tr x^(-q), det x^q) = (S(q), S(-q), 1), the power sums S(k) of P's
        # roots, whose product is 1: S(0), S(1), S(2) = 3, 1, 3 and S(k+3) = S(k+2) + S(k+1) + S(k)
        def power_sum(k):
            s = [3, 1, 3]
            if k < 0:
                for _ in range(-k):
                    s = [s[2] - s[1] - s[0], s[0], s[1]]
                return s[0]
            for _ in range(k):
                s = [s[1], s[2], sum(s)]
            return s[0]

        m = 2**4000  # above 2 |T(n + l*q)| for every point below, so a residue is the exact value
        t1, t2, t3 = _char_poly(_xpow(q, m), m)
        assert (t1, t2, t3) == (power_sum(q) % m, power_sum(-q) % m, 1)
        for n in (-30, 0, 7):
            chain = _chain(*(trib(n + l * q) % m for l in range(3)), t1, t2, t3, m)
            walked = [u if u < m // 2 else u - m for u in islice(chain, 8)]
            assert walked == [trib(n + l * q) for l in range(8)], n

    @staticmethod
    def extra_points(spec, depths=range(1, 21), seed=33):
        """CRT near-misses of every linear residue of spec at the given depths, 50 seeded random n
        in (-10^25, 10^30) and the points of Z_T."""
        points = [crt_witness(r, spec.q, case.a, spec.p, k)
                  for case in spec.cases if case.a is not None for r in case.residues for k in depths]
        rng = random.Random(seed)
        return points + [rng.randrange(-10**25 + 1, 10**30) for _ in range(50)] + list(ZERO_SET)

    @pytest.mark.parametrize("name", BUILTIN_SPEC_NAMES)
    def test_extra_points_match_trib_val(self, name):
        # every extra point of the right spec and of each wrong and linear variant is read as
        # trib_val reads it, through the forward differences of its class (x^q = 1 mod p for
        # every built-in spec)
        spec = builtin_spec(name)
        points = self.extra_points(spec)
        actual = {n: trib_val(n, spec.p) for n in points}
        reports = 0
        for variant in (spec, *self.wrong_variants(spec), *self.linear_variants(spec)):
            expected = [Mismatch(n, variant.predict(n), actual[n]) for n in points
                        if variant.predict(n) != actual[n]]
            assert verify_formula(variant, 1, 0, extra=points) == expected, variant
            reports += bool(expected)
        assert verify_formula(spec, 1, 0, extra=points) == [] and reports

    def test_extra_points_off_the_guard_read_one_powering_each(self, monkeypatch):
        # x^10 != 1 (mod 83), so the binomial series of (1 + D)^z need not truncate mod p^K:
        # every point with a finite prediction e >= 0 reads its own trib_mod, and the report
        # still matches trib_val
        assert _xpow(10, 83) != (1, 0, 0)
        spec = FormulaSpec(83, 10, (FormulaCase((0,), 1, 0), FormulaCase((3,), 2)))
        points = self.extra_points(spec, range(1, 8))
        calls = []

        def spy(n, m):
            calls.append(n)
            return trib_mod(n, m)

        monkeypatch.setattr(tribadic.classifier, "trib_mod", spy)
        expected = [Mismatch(n, spec.predict(n), trib_val(n, 83)) for n in points
                    if spec.predict(n) != trib_val(n, 83)]
        assert verify_formula(spec, 1, 0, extra=points) == expected and expected
        assert sorted(calls) == sorted(n for n in points if 0 <= spec.predict(n) < VAL_INF)

    def test_crt_points_read_one_powering_per_class(self, monkeypatch):
        # p587's 96 CRT points (6 linear residues mod 293, depths 1..16) come from forward
        # differences: x^q is powered once (x^(2q) is its square and its characteristic polynomial
        # gives the recurrence), each class's seed x^i once, and trib_mod reads only each class's
        # largest point, the cross-check
        spec = builtin_spec("p587")
        points = self.extra_points(spec, range(1, 17))[:96]
        classes = {n % spec.q for n in points}
        assert len(classes) == 6 and all(n > 0 for n in points)
        powerings, reads = [], []
        for name in ("_xpow", "_triple"):
            def spy(n, m, real=getattr(tribadic.classifier, name)):
                powerings.append(n)
                return real(n, m)

            monkeypatch.setattr(tribadic.classifier, name, spy)

        def trib_mod_spy(n, m):
            reads.append(n)
            return trib_mod(n, m)

        monkeypatch.setattr(tribadic.classifier, "trib_mod", trib_mod_spy)
        monkeypatch.setattr(tribadic.classifier, "trib_val", None)  # no point may defer to it
        assert verify_formula(spec, 1, 0, extra=points) == []
        assert sorted(powerings) == sorted([spec.q, *classes])
        assert sorted(reads) == sorted(max(n for n in points if n % spec.q == i) for i in classes)

    def test_difference_check_survives_python_O(self):
        # the cross-check of each class's forward differences against trib_mod must not be an
        # assert that -O strips: p83's class n = 270 (mod 287), seeded one step ahead from its
        # triple at the extras' modulus, reads T(n + 1) for every point, and the raise names
        # the class's largest point
        spec = builtin_spec("p83")
        points = [crt_witness(i, 287, a, 83, k) for i, a in ((270, -17), (0, 0)) for k in range(1, 9)]
        largest = max(n for n in points if n % 287 == 270)
        code = (
            "import tribadic.classifier as c\n"
            "assert False, 'not running under -O'\n"
            f"points = {points!r}\n"
            "spec = c.builtin_spec('p83')\n"
            "top = 83 ** max(min(spec.predict(n) + 1, 24) for n in points if n % 287 == 270)\n"
            "real = c._triple\n"
            "c._triple = lambda n, m: real(n + 1 if (n, m) == (270, top) else n, m)\n"
            "try:\n"
            "    c.verify_formula(spec, 1, 0, extra=points)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        assert verify_formula(spec, 1, 0, extra=points) == []
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert f"raised: forward differences disagree with trib_mod at n = {largest}" in out.stdout

    def test_determinant_check_survives_python_O(self):
        # det x^q = 1 makes each jump of q a bijection on triples, which the chain-end checks
        # rest on: a characteristic polynomial whose t3 is moved off 1 must raise, not an assert
        # that -O strips, before any chain is walked
        code = (
            "import tribadic.classifier as c\n"
            "assert False, 'not running under -O'\n"
            "real = c._char_poly\n"
            "c._char_poly = lambda a, m: (lambda t: (t[0], t[1], (t[2] + 1) % m))(real(a, m))\n"
            "try:\n"
            "    c.verify_formula(c.builtin_spec('p3'), 1, 2000)\n"
            "except AssertionError as exc:\n"
            "    print('raised:', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert "raised: det x^q = 2, not 1: a jump of q is not a bijection on triples" in out.stdout

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(BUILTIN_SPEC_NAMES), st.integers(0, 40), st.integers(-2000, 10**7),
           st.integers(0, 1500))
    def test_random_windows_match_brute_force(self, name, variant, lo, length):
        spec = builtin_spec(name)
        specs = [spec, *self.wrong_variants(spec)]
        spec = specs[variant % len(specs)]
        assert verify_formula(spec, lo, lo + length) == self.brute_force_report(spec, lo, lo + length)


class TestCrtWitness:
    def test_paper_style_example(self):
        n = crt_witness(12, 13, -1, 3, 4)
        assert n % 13 == 12 and n > 0
        assert val_int(n + 1, 3) >= 4

    def test_common_multiple_case(self):
        n = crt_witness(0, 13, 0, 3, 5)
        assert n > 0 and n % 13 == 0 and n % 3**5 == 0

    def test_rational_target(self):
        n = crt_witness(179, 268, Fraction(1, 3), 269, 5)
        assert n % 268 == 179
        assert val_int(3 * n - 1, 269) >= 5

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            crt_witness(1, 32, 0, 2, 6)  # nu_2(0 - 1) = 0 < nu_2(32)

    def test_shallow_prime_power_keeps_class(self):
        # k smaller than nu_p(q): the class congruence must survive normalization
        for k in (1, 2, 3, 4):
            n = crt_witness(28, 32, -4, 2, k)
            assert n > 0 and n % 32 == 28
            assert (n + 4) % 2**k == 0

    def test_deep_prime_power_keeps_class(self):
        for k in (6, 7, 8):
            n = crt_witness(28, 32, -4, 2, k)
            assert n % 32 == 28
            assert (n + 4) % 2**k == 0


def serial_pool(seen):
    """A stand-in for ProcessPoolExecutor that appends each max_workers to seen, starts no
    process and maps in this one, where monkeypatches and counters still apply."""

    class SerialPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return SerialPool


def count_scans(monkeypatch):
    """The list of the primes whose period _zero_table scans in this process from now on."""
    scanned = []
    zero_table = tribadic.classifier._zero_table
    monkeypatch.setattr(tribadic.classifier, "_zero_table", lambda p, n: scanned.append(p) or zero_table(p, n))
    return scanned


class TestTableAndScan:
    def test_reproduce_table_small(self):
        rows = reproduce_table(100)
        by_p = {r.p: r for r in rows}
        paper = {r.p: r for r in published_table() if r.p <= 100}
        for p, row in paper.items():
            assert by_p[p].status == STATUS_FAILS
            assert by_p[p].n_period == row.n_period
        assert by_p[83].status == STATUS_HOLDS
        assert by_p[11].status == STATUS_EXCLUDED

    def test_validate_published_rows_small(self):
        checks = validate_published_rows(p_max=100)
        assert checks and all(c.ok for c in checks)

    def test_listed_witness_must_be_smallest(self):
        rows = [TableRow(r.p, r.n_period, r.ell + (r.p == 47), r.u, STATUS_FAILS)
                for r in published_table() if r.p <= 100]
        checks = validate_published_rows(rows, p_max=100)
        assert [c.p for c in checks if not c.ok] == [47]
        assert [c.p for c in checks if not c.listed_is_smallest] == [47]

    def test_published_failure_without_our_witness_disagrees(self):
        rows = [TableRow(5, 31, None, None, STATUS_UNDECIDED) if r.p == 5 else
                TableRow(r.p, r.n_period, r.ell, r.u, STATUS_FAILS) for r in published_table() if r.p <= 100]
        checks = validate_published_rows(rows, p_max=100)
        assert [(c.p, c.listed_is_smallest) for c in checks if not c.ok] == [(5, False)]

    def test_published_table_integrity(self):
        rows = published_table()
        assert len(rows) == 102
        assert {r.p for r in rows if r.starred} == {47, 53, 269, 401, 419, 499, 587}
        spot = {r.p: (r.n_period, r.ell, r.u) for r in rows}
        assert spot[5] == (31, 21, 2)
        assert spot[179] == (32221, 100, 114)
        assert spot[593] == (3256, 849, 422)
        assert spot[599] == (598, 257, 485)

    def test_scan_small(self):
        s = scan_range(100)
        assert s.verdicts["ml"]["holds"] == (3, 83)
        assert s.verdicts["ml"]["excluded"] == (2, 11)
        assert set(s.cube_root_family) == {47, 53}

    @staticmethod
    def cold(fn, *args, **kwargs):
        """fn on an empty range cache: every record it reads is classified afresh, on the pool if
        it starts one, and none is read back from an earlier call."""
        _classify_range.cache_clear()
        return fn(*args, **kwargs)

    @pytest.mark.usefixtures("cold_records")
    def test_scan_parallel_matches_serial(self, monkeypatch):
        pools, pool = [], concurrent.futures.ProcessPoolExecutor

        def counted_pool(max_workers):
            pools.append(max_workers)
            return pool(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", counted_pool)
        monkeypatch.setattr(tribadic.classifier.os, "cpu_count", lambda: 2)
        cold = self.cold
        assert cold(scan_range, 60, jobs=2) == cold(scan_range, 60)
        assert cold(reproduce_table, 120, jobs=2) == cold(reproduce_table, 120, jobs=1)
        records = cold(_classify_range, 200, 24, jobs=2)
        assert records == cold(_classify_range, 200, 24, jobs=1)  # zero tables included: both stop early
        assert any(not r.zero_table_complete for r in records)
        assert pools == [2, 2, 2]  # each jobs=2 side ran on the pool

    @pytest.mark.usefixtures("cold_records")  # a warm cache leaves nothing for the pool
    def test_workers_bounded_by_cpus(self, monkeypatch):
        seen = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(seen))
        monkeypatch.setattr(tribadic.classifier.os, "cpu_count", lambda: 3)
        assert self.cold(scan_range, 60, jobs=10**6) == self.cold(scan_range, 60)
        assert seen == [3]

    def test_serial_paths_import_no_process_machinery(self):
        # a fresh interpreter run as the benchmark's worker is (python -S): only a pool imports
        # concurrent.futures, and with it multiprocessing; and no request imports dataclasses,
        # inspect, typing, importlib.resources, random or shutil, nor, short of an internal
        # error, traceback
        unused = ("dataclasses", "inspect", "typing", "importlib.resources", "random", "shutil", "traceback")
        code = (
            "import sys\n"
            "import tribadic\n"
            "from tribadic import cli\n"
            "tribadic.published_table()\n"
            "tribadic.classify_prime(7)\n"
            "tribadic.scan_range(100)\n"
            "code = cli.main(['scan', '--max', '100', '--jobs', '1'])\n"
            "zero = cli.main(['zero', '--prime', '7', '--ell', '0'])\n"
            "cli.build_parser()\n"
            "print(code, zero, [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules],\n"
            f"      [m for m in {unused!r} if m in sys.modules])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[-1] == "0 0 [] []"

    def test_scan_prefix_consistency(self):
        small, big = scan_range(60), scan_range(100)
        for key in ("holds", "fails", "undecided", "excluded"):
            assert set(small.verdicts["ml"][key]) <= set(big.verdicts["ml"][key])
            assert set(small.verdicts["rational"][key]) <= set(big.verdicts["rational"][key])


# classify_prime, prime_context, val_int and trib_val on a p that is not an admissible prime, or
# classify_prime and scan_range on a precision or a p_max that is not an int, for
# TestClassificationMemo: each call cold, then again after the range to 60 is cached; one line
# per call
_BAD_PRIMES_SCRIPT = """
from tribadic import classify_prime, prime_context, scan_range, trib_val, val_int
from tribadic.classifier import _classify_range
from tribadic.galois import _prime_data

CALLS = [f"classify_prime({p}, 24, False)" for p in ("4", "1", "5.0", "True", "2.0", "11.0")]
CALLS += ["prime_context(5.0)", "val_int(25, 5.0)", "trib_val(12, 5.0)", "classify_prime(5, 24.0, False)"]
CALLS += ["scan_range(60, 24.0)", "scan_range(60.0)"]

def attempt(call):
    try:
        eval(call)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "no exception"

for call in CALLS:
    _classify_range.cache_clear()
    _prime_data.cache_clear()
    cold = attempt(call)
    classify_prime(5)
    scan_range(60)  # 2, 5 and 11 at (24, False) are cached, and prime_context(5)
    print(call, cold, attempt(call), sep="\t")
"""


@pytest.mark.usefixtures("cold_records")
class TestClassificationMemo:
    """_classify_range caches the records of the last range, under a typed key (p_max, prec,
    jobs); classify_prime reads no cache.  A record read from the cache equals one built on a
    cold one, and no caller can alter a later result."""

    @pytest.mark.parametrize("prec, full_table", [(24, False), (24, True), (3, True)])
    def test_warm_equals_cold(self, monkeypatch, prec, full_table):
        # the pool fills the cache with the range to 800 at prec, and scan and table read it; a
        # record that the pool builds differently, or one read under another precision, differs
        # from a cold serial build and from classify_prime's own records
        monkeypatch.setattr(tribadic.classifier.os, "cpu_count", lambda: 2)
        ps = primes_upto(800)
        pooled = _classify_range(800, prec, 2)
        warm = (scan_range(800, prec, 2), reproduce_table(800, prec, 2))
        records = [classify_prime(p, prec, full_table) for p in ps]
        _classify_range.cache_clear()
        assert warm == (scan_range(800, prec, 1), reproduce_table(800, prec, 1))
        assert records == [classify_prime(p, prec, full_table) for p in ps]
        assert pooled == _classify_range(800, prec, 1) == tuple(classify_prime(p, prec, False) for p in ps)

    def test_records_built_by_the_pool_equal_serial_ones(self):
        pooled = _classify_range(300, 24, 2)
        _classify_range.cache_clear()
        assert pooled == _classify_range(300, 24, 1) == tuple(classify_prime(p, 24, False) for p in primes_upto(300))

    def test_second_range_classifies_nothing(self, monkeypatch):
        # the first range runs on two workers; the parent keeps their records and scans nothing,
        # and the same range again starts no pool and scans nothing either
        scanned = count_scans(monkeypatch)
        monkeypatch.setattr(tribadic.classifier.os, "cpu_count", lambda: 2)
        first = _classify_range(300, 24, 2)
        summary, rows = scan_range(300, 24, 2), reproduce_table(300, 24, 2)
        assert scanned == []

        def refuse(*args):
            raise RuntimeError("called")

        for name in ("_zero_table", "hensel_zero", "_class_rules", "classify_prime"):
            monkeypatch.setattr(tribadic.classifier, name, refuse)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert _classify_range(300, 24, 2) is first
        assert (scan_range(300, 24, 2), reproduce_table(300, 24, 2)) == (summary, rows)

    def test_scan_then_table_scans_each_prime_once(self, monkeypatch):
        # the census's pair: table reads the records of scan's range, and a cold table equals it
        scanned = count_scans(monkeypatch)
        scan_range(800)
        rows = reproduce_table(800)
        assert scanned == [p for p in primes_upto(800) if p not in EXCLUDED_PRIMES]
        _classify_range.cache_clear()
        assert reproduce_table(800) == rows

    @pytest.mark.parametrize("p_max, prec, jobs", [(200, 24, 1), (300, 96, 1), (300, 24, 2)])
    def test_another_range_classifies_again(self, monkeypatch, p_max, prec, jobs):
        # the cache holds the range to 300 at 24 on one process; a range that differs in p_max,
        # prec or jobs scans each of its primes again, on the pool where jobs asks for one, and
        # equals a fresh build.  The pool maps in this process, so its scans are counted here
        pools = []
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", serial_pool(pools))
        monkeypatch.setattr(tribadic.classifier.os, "cpu_count", lambda: 2)
        _classify_range(300, 24, 1)
        scanned = count_scans(monkeypatch)
        ps = primes_upto(p_max)
        again = _classify_range(p_max, prec, jobs)
        assert scanned == [p for p in ps if p not in EXCLUDED_PRIMES]
        assert pools == [2] * (jobs == 2)
        assert again == tuple(classify_prime(p, prec, False) for p in ps)

    def test_a_changed_record_changes_no_later_one(self):
        reference = classify_prime(7)
        for rec in (classify_prime(67), classify_prime(67)):
            rec.verdicts["ml"] = rec.verdicts["rational"]
            rec.verdicts.clear()
        assert classify_prime(7) == reference and reference.verdicts
        assert classify_prime(67).verdicts["ml"].status == STATUS_FAILS
        summary = scan_range(100)  # a summary read from the cache is the caller's own too
        summary.verdicts["ml"].clear()
        assert scan_range(100).verdicts["ml"]["holds"] == (3, 83)

    def test_keys_are_typed(self):
        # 60.0 == 60 and 24.0 == 24, but the cache's keys are typed: neither reads the records
        # of the int key, each raises as it does cold, and a failure caches nothing
        first = _classify_range(60, 24, 1)
        with pytest.raises(TypeError, match="can't multiply sequence by non-int"):
            _classify_range(60.0, 24, 1)
        with pytest.raises(TypeError, match="precision must be an int"):
            _classify_range(60, 24.0, 1)
        assert _classify_range.cache_info().currsize == 1 and _classify_range(60, 24, 1) is first
        for p in (5.0, True):
            with pytest.raises(ValueError, match=f"{p} is not prime"):
                classify_prime(p, 24, False)
        with pytest.raises(TypeError):
            classify_prime(5, 24.0, False)

    @pytest.mark.parametrize("flags", [[], ["-O"]])
    def test_bad_primes_raise_alike_cold_and_warm(self, flags):
        env = dict(os.environ, PYTHONPATH=str(Path(tribadic.__file__).parents[1]))
        out = subprocess.run([sys.executable, *flags, "-c", _BAD_PRIMES_SCRIPT], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        lines = [line.split("\t") for line in out.stdout.splitlines()]
        assert len(lines) == 12
        for call, cold, warm in lines:  # a bad prime fails as a non-prime, a float bound by type
            kind = "TypeError" if "24.0" in call or "60.0" in call else "ValueError"
            assert cold == warm and cold.startswith(f"{kind}: "), call
            if "5.0" in call:  # 5.0 == 5, but no check reads it as 5
                assert cold == "ValueError: 5.0 is not prime", call


class TestHoldsRecordFormulas:
    @pytest.mark.parametrize("p", [83, 397, 269, 419])
    def test_formula_matches_builtin_and_verifies(self, p):
        rec = classify_prime(p)
        spec = rec.formula
        assert spec is not None
        assert rule_table(spec) == rule_table(builtin_spec(f"p{p}"))
        assert verify_formula(spec, 1, 3000) == []

    def test_every_holds_class_has_certificate(self):
        # one linear case per zero class, over the class's own target
        rec = classify_prime(269)
        assert len(rec.formula.cases) == len(rec.zero_table) == 6
        for case, info in zip(rec.formula.cases, rec.zero_table):
            assert case.residues == (info.ell,) and Fraction(case.a) == Fraction(info.target)
            assert case.kappa == 1 and case.mu == 1


class TestUConsistency:
    @pytest.mark.parametrize("p", [7, 13, 29])
    def test_witness_matches_hensel_zero(self, p):
        # l + N*b = u (mod p) where b is the certified zero of g at the witness l
        rec = classify_prime(p)
        v = rec.verdicts["ml"]
        ctx = prime_context(p, 24)
        record = hensel_zero(class_series(ctx, v.ell))
        a = v.ell + rec.n_period * record.b
        assert a % p == v.u
        # and witness_zero prints the digits of the same zero
        assert witness_zero(ctx, v.ell, v.u) == tuple(record.digits())
