"""Acceptance suite: one test per criterion, each printing a PASS line with timing.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import random
import time
from fractions import Fraction

import pytest

from tribadic import (
    classify_prime,
    crt_witness,
    builtin_spec,
    hensel_zero,
    published_table,
    prime_context,
    reproduce_table,
    scan_range,
    series_coeffs,
    trib_mod,
    validate_published_rows,
    verify_formula,
)
from tribadic.classifier import (
    DIAG_QT_COLLISION,
    FormulaCase,
    FormulaSpec,
    STATUS_FAILS,
    STATUS_HOLDS,
    STATUS_UNDECIDED,
)
from tribadic._factor import primes_upto
from tribadic.interpolation import _log
from tribadic.padic import val_int

from conftest import OracleRing, cube_root_certificate, series_eval


@pytest.fixture(scope="module")
def table_run():
    t0 = time.time()
    rows = reproduce_table(599)
    return rows, time.time() - t0


def _ok(name, elapsed, extra=""):
    print(f"\nACCEPTANCE {name}: PASS ({elapsed:.1f}s){'  ' + extra if extra else ''}")


def test_criterion_1_table_reproduction(table_run):
    rows, elapsed = table_run
    t0 = time.time()
    by_p = {r.p: r for r in rows}
    expected_fails = set(p for p in primes_upto(599) if p >= 5) - {11, 83, 103, 163, 397}
    got_fails = {r.p for r in rows if r.status == STATUS_FAILS}
    assert got_fails == expected_fails, "ML-failure set disagrees with the published range"

    paper = published_table()
    assert len(paper) == 102
    checks = validate_published_rows(our_rows=rows)
    assert len(checks) == 102
    for c in checks:
        assert c.n_matches, f"period mismatch at p = {c.p}"
        assert c.ell_is_zero and c.deriv_holds and c.u_matches, f"row revalidation failed at p = {c.p}"
    total = elapsed + (time.time() - t0)
    assert total < 300, f"table reproduction took {total:.0f}s, budget is 5 minutes"
    _ok("CRITERION 1 (table reproduction, 102 rows exact)", total)


def test_criterion_2_holds_verdicts():
    t0 = time.time()
    for p, q in ((83, 287), (397, 132)):
        rec = classify_prime(p)
        assert rec.verdicts["ml"].status == STATUS_HOLDS and rec.verdicts["ml"].q == q, f"p = {p}"
    for p, q in ((269, 268), (401, 400), (419, 418), (499, 166), (587, 293)):
        rec = classify_prime(p)
        assert rec.verdicts["rational"].status == STATUS_HOLDS and rec.verdicts["rational"].q == q, f"p = {p}"
    _ok("CRITERION 2 (holds verdicts with exact Q)", time.time() - t0)


def test_criterion_3_undecided_sets():
    t0 = time.time()
    summary = scan_range(600)
    in_range = lambda ps: {p for p in ps if 5 <= p <= 599 and p != 11}
    assert in_range(summary.verdicts["ml"]["undecided"]) == {103, 163}, "ML undecided set must be exact"
    assert {47, 53, 103, 163} <= set(summary.verdicts["rational"]["undecided"])
    for p in (47, 53):
        assert classify_prime(p).verdicts["rational"].diagnostic == DIAG_QT_COLLISION
    _ok("CRITERION 3 (undecided sets; 47/53 collision diagnostic)", time.time() - t0)


def _adversarial_points(spec, max_val=8):
    points = []
    for case in spec.cases:
        if case.a is None:
            continue
        for r in case.residues:
            for k in range(1, max_val + 1):
                try:
                    n = crt_witness(r, spec.q, case.a, spec.p, k)
                except ValueError:
                    continue
                points.append(n)
    return points


def test_criterion_4_formula_verification():
    t0 = time.time()
    names = ("p2", "p3", "p83", "p397", "p269", "p401", "p419", "p499", "p587")
    deepest = 0
    for name in names:
        spec = builtin_spec(name)
        extras = _adversarial_points(spec)
        assert extras, f"no adversarial points generated for {name}"
        for n in extras:
            a_vals = [
                val_int(n * Fraction(c.a).denominator - Fraction(c.a).numerator, spec.p)
                for c in spec.cases
                if c.a is not None and n % spec.q in c.residues
            ]
            deepest = max(deepest, max(a_vals, default=0))
        mismatches = verify_formula(spec, 1, 10**4, extra=extras)
        assert mismatches == [], f"{name}: first mismatch {mismatches[:1]}"
    assert deepest >= 8, "adversarial points must reach valuation 8"
    elapsed = time.time() - t0
    assert elapsed < 60, f"formula verification took {elapsed:.0f}s, budget is 60s"
    _ok("CRITERION 4 (9 built-in specs, n in [1,10^4] + CRT points, zero mismatches)", elapsed)


def test_criterion_5_cube_root_certification():
    t0 = time.time()
    family = []
    for p in primes_upto(600):
        if p in (2, 11) or p % 3 != 2:
            continue
        if prime_context(p).d == 1:
            family.append(p)
        if len(family) == 5:
            break
    assert family == [47, 53, 257, 269, 311]
    for p in family:
        report = cube_root_certificate(prime_context(p, 24), samples=100, max_extra_val=6, seed=p)
        assert report.sum_one_third_vanishes, f"p = {p}: sum c lambda^(1/3) != 0 mod p^24"
        assert report.sum_minus_five_thirds_vanishes, f"p = {p}: sum c lambda^(-5/3) != 0 mod p^24"
        assert report.symmetric_identity_holds
        assert report.inequality_failures == (), f"p = {p}: valuation inequality failed"
        assert report.samples == 100
    _ok("CRITERION 5 (cube-root-family certificates for p in {47,53,257,269,311})", time.time() - t0)


def test_criterion_6_property_suites():
    t0 = time.time()
    # exp/log inverse identities on Z_p mod p^24, the constants of R: 10^3 random inputs per
    # prime, 10 primes, log in R (interpolation._log) and the test ring's exp
    rng = random.Random(2024)
    sample_primes = (3, 5, 7, 13, 17, 19, 23, 29, 31, 37)
    for p in sample_primes:
        zp = OracleRing(p, 24, (0, 1))
        pk = p**24
        for _ in range(1000):
            z = p * rng.randrange(pk // p)
            u = 1 + p * rng.randrange(pk // p)
            assert _log((zp.embed(z).exp().coords[0], 0, 0), p, 24) == (z, 0, 0)
            assert zp.embed(_log((u, 0, 0), p, 24)[0]).exp() == zp.embed(u)

    # Hensel quadratic convergence + Strassman mu = 1 under divisibility plus the
    # derivative condition, with the zero count never exceeding mu; Galois
    # stability is asserted inside series_coeffs for every series built here.
    series_built = 0
    for p in [q for q in primes_upto(60) if q >= 5 and q != 11] + [83, 397, 269]:
        ctx = prime_context(p, 24)
        for ell in range(ctx.n_period):
            if trib_mod(ell, p) != 0:
                continue
            series = series_coeffs(ctx, ell)
            series_built += 1
            deriv_ok = (
                trib_mod(ell + ctx.n_period, p * p) - trib_mod(ell, p * p)
            ) % (p * p) != 0
            if not deriv_ok:
                continue
            assert series.mu == 1, f"mu != 1 at p = {p}, l = {ell}"
            record = hensel_zero(series)  # one zero found, mu = 1: count <= mu
            assert record.series is series and series_eval(series, record.b) == 0
            vals = record.residual_vals
            for i in range(len(vals) - 1):
                assert vals[i + 1] >= min(2 * vals[i], 24), f"convergence stall at p = {p}, l = {ell}"
    assert series_built > 100
    _ok(
        "CRITERION 6 (exp/log identities, Hensel convergence, Strassman, Galois stability)",
        time.time() - t0,
        extra=f"{series_built} series built",
    )


def test_criterion_7_negative_controls():
    t0 = time.time()
    corruptions = 0
    for name in ("p2", "p3", "p83", "p397", "p269", "p401", "p419", "p499", "p587"):
        spec = builtin_spec(name)
        for idx, case in enumerate(spec.cases):
            broken_case = FormulaCase(case.residues, case.kappa + 1, case.a, case.mu)
            broken = FormulaSpec(
                spec.p,
                spec.q,
                spec.cases[:idx] + (broken_case,) + spec.cases[idx + 1 :],
                spec.default_kappa,
            )
            assert verify_formula(broken, 1, 10**4), (
                f"corrupting {name} case {idx} went undetected"
            )
            corruptions += 1
    assert corruptions == 57  # every case of every built-in spec
    _ok("CRITERION 7 (negative controls)", time.time() - t0, extra=f"{corruptions} corruptions all detected")
