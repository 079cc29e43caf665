"""Command-line front end: classify, table, verify, zero, scan.

Machine-readable output: every command can emit a JSON record with the fields
{command, params, status, payload, precision_used, elapsed_ms}, precision_used
being the precision that produced the payload (`zero` may double it twice).
With --format csv, `table` writes the columns p,N,ell,u, `verify` n,predicted,actual
and `classify` p,N,ml_status,ml_ell,ml_u,ml_Q,rat_status,rat_Q; `zero` and `scan`
print their payload as one JSON line.  Exit codes are a function of the status
alone: 0 pass/decided, 1 fail (a counterexample or table disagreement),
2 undecided, 3 excluded, 64 usage error (any bad input), 70 internal error.
An internal error keeps its traceback on stderr; with --format json it also
prints a record with status "error", the parsed options as params and the
exception as payload {error, message}.  A stdout closed by its reader (say,
`| head`) exits 70 with one line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from fractions import Fraction

from ._factor import is_prime
from .galois import EXCLUDED_PRIMES, prime_context
from .interpolation import ConditionNotMet, hensel_zero
from .padic import DEFAULT_PRECISION
from .tribonacci import trib_mod
from .classifier import (
    BUILTIN_SPEC_NAMES,
    FORMS,
    P_MAX,
    ClassificationRecord,
    FormulaCase,
    FormulaSpec,
    STATUS_EXCLUDED,
    STATUS_FAILS,
    STATUS_UNDECIDED,
    builtin_spec,
    certify,
    class_series,
    classify_prime,
    reproduce_table,
    scan_range,
    validate_published_rows,
    verify_formula,
    witness_zero,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNDECIDED = 2
EXIT_EXCLUDED = 3
EXIT_USAGE = 64
EXIT_INTERNAL = 70

# the floor of --precision K: a certificate's g(z) = 0 (mod p^K) checks at most K digits of its
# zero, the first of which the mod-p^2 period scan already fixes; K >= 3 checks two more
MIN_PRECISION = 3

_EXIT_BY_STATUS = {
    "pass": EXIT_PASS,
    "fail": EXIT_FAIL,
    "undecided": EXIT_UNDECIDED,
    "excluded": EXIT_EXCLUDED,
    "error": EXIT_INTERNAL,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors, which collides with "undecided"
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)

    # HelpFormatter imports shutil (and with it zlib, bz2 and lzma) for a width it is not given;
    # this is shutil.get_terminal_size's rule for that width, read with os alone
    def _get_formatter(self):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):
                columns = 0
        return self.formatter_class(prog=self.prog, width=(columns or 80) - 2)


def _int_arg(lo=None, hi=None):
    """An argparse type: an integer in [lo, hi]."""

    def integer(text):
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if lo is not None and value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"must be <= {hi}, got {value}")
        return value

    return integer


def _prime_arg(excluded=()):
    """An argparse type: a prime not in excluded."""

    def prime(text):
        value = int(text)
        if not is_prime(value):
            raise argparse.ArgumentTypeError(f"{value} is not prime")
        if value in excluded:
            ramified = ", ".join(map(str, excluded))
            raise argparse.ArgumentTypeError(f"{value} is excluded: {ramified} are ramified")
        return value

    return prime


def _range_arg(text):
    """An argparse type: 'a..b' with integers a <= b, as (a, b)."""
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b with integers a <= b, got {text!r}") from None
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _spec_arg(text):
    """An argparse type: a built-in spec name or a JSON spec file, as (text, FormulaSpec)."""
    if text in BUILTIN_SPEC_NAMES:
        return text, builtin_spec(text)
    try:
        with open(text) as fh:
            return text, spec_from_dict(json.load(fh))
    except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise argparse.ArgumentTypeError(f"cannot load spec {text!r}: {exc}") from None


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float) and x == float("inf"):  # the nu_p(0) marker
        return "inf"
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _verdict_dict(v, zero_digits):
    return _jsonable(
        {
            "status": v.status,
            "Q": v.q,
            "ell": v.ell,
            "u": v.u,
            "zero_digits": list(zero_digits) if zero_digits else None,
            "diagnostic": v.diagnostic,
            "detail": v.detail,
        }
    )


def spec_to_dict(spec: FormulaSpec) -> dict:
    return _jsonable(
        {
            "p": spec.p,
            "Q": spec.q,
            "default_kappa": spec.default_kappa,
            "cases": [
                {"residues": list(c.residues), "kappa": c.kappa, "a": c.a, "mu": c.mu}
                for c in spec.cases
            ],
        }
    )


def _parse_target(a):
    if a is None or type(a) is int:  # a JSON true or false is no target
        return a
    if isinstance(a, str):
        if "/" in a:
            num, den = a.split("/")
            return Fraction(int(num), int(den))
        return int(a)
    raise ValueError(f"bad linear target {a!r}")


def spec_from_dict(data: dict) -> FormulaSpec:
    cases = tuple(
        FormulaCase(tuple(c["residues"]), c["kappa"], _parse_target(c.get("a")), c.get("mu", 1))
        for c in data["cases"]
    )
    return FormulaSpec(data["p"], data["Q"], cases, data.get("default_kappa", 0))


def _record_dict(rec: ClassificationRecord) -> dict:
    """The classify payload; each fails verdict prints its witness's zero digits, computed once
    per distinct witness at the record's precision (the forms may share one)."""
    digits = functools.cache(lambda ell, u: witness_zero(prime_context(rec.p, rec.prec), ell, u))
    out = {
        "p": rec.p,
        "d": rec.d,
        "N": rec.n_period,
        **{key: _verdict_dict(v, digits(v.ell, v.u) if v.status == STATUS_FAILS else None)
           for key, v in rec.verdicts.items()},
        "zero_table": [
            _jsonable({"ell": i.ell, "deriv_ok": i.deriv_ok, "u": i.u, "class": i.target})
            for i in rec.zero_table
        ],
        "zero_table_complete": rec.zero_table_complete,
    }
    if rec.formula is not None:
        out["formula"] = spec_to_dict(rec.formula)
    return out


def _emit(args, command, params, status, payload, prec_used, t0) -> int:
    record = {
        "command": command,
        "params": _jsonable(params),
        "status": status,
        "payload": payload,
        "precision_used": prec_used,
        "elapsed_ms": int((time.perf_counter() - t0) * 1000),
    }
    if args.format == "json":
        print(json.dumps(record, indent=2))
    elif args.format == "csv":
        _print_csv(command, payload)
    else:
        _print_text(record)
    sys.stdout.flush()  # a closed stdout raises here, inside the command, not at interpreter exit
    return _EXIT_BY_STATUS[status]


def _print_csv(command, payload):
    w = csv.writer(sys.stdout)
    if command == "table":
        w.writerow(["p", "N", "ell", "u"])
        for row in payload["rows"]:
            w.writerow([row["p"], row["N"], row["ell"], row["u"]])
    elif command == "classify":
        w.writerow(["p", "N", "ml_status", "ml_ell", "ml_u", "ml_Q", "rat_status", "rat_Q"])  # a fixed format
        first, second = (payload[form.key] for form in FORMS[:2])
        w.writerow([payload["p"], payload["N"], *(first[k] for k in ("status", "ell", "u", "Q")),
                    second["status"], second["Q"]])
    elif command == "verify":
        w.writerow(["n", "predicted", "actual"])
        for m in payload["mismatches"]:
            w.writerow([m["n"], m["predicted"], m["actual"]])
    else:
        print(json.dumps(payload))


def _print_text(record):
    print(f"# {record['command']}  status={record['status']}  "
          f"precision={record['precision_used']}  elapsed={record['elapsed_ms']}ms")
    print(json.dumps(record["payload"], indent=2))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    t0 = time.perf_counter()
    rec = classify_prime(args.prime, args.precision)
    payload = _record_dict(rec)
    statuses = {v.status for v in rec.verdicts.values()}
    if STATUS_EXCLUDED in statuses:
        status = "excluded"
    elif statuses == {STATUS_UNDECIDED}:
        status = "undecided"
    else:
        status = "pass"  # at least one conjecture form was decided
    return _emit(args, "classify", {"prime": args.prime, "precision": args.precision},
                 status, payload, rec.prec, t0)


def _cmd_table(args) -> int:
    t0 = time.perf_counter()
    rows = reproduce_table(args.max, args.precision, jobs=args.jobs)
    payload = {
        "rows": [
            {"p": r.p, "N": r.n_period, "ell": r.ell, "u": r.u, "status": r.status} for r in rows
        ]
    }
    status = "pass"
    if args.validate_paper:
        checks = validate_published_rows(our_rows=rows, p_max=args.max)
        bad = [c for c in checks if not c.ok]
        payload["published_validation"] = {
            "rows_checked": len(checks),
            "disagreements": [
                {"p": c.p, "N": c.n_matches, "ell_is_zero": c.ell_is_zero,
                 "deriv_ok": c.deriv_holds, "u": c.u_matches, "listed_is_smallest": c.listed_is_smallest}
                for c in bad
            ],
        }
        if bad:
            status = "fail"
    return _emit(args, "table",
                 {"max": args.max, "precision": args.precision, "validate_paper": args.validate_paper},
                 status, payload, args.precision, t0)


def _cmd_verify(args) -> int:
    t0 = time.perf_counter()
    name, spec = args.spec
    lo, hi = args.range
    mismatches = verify_formula(spec, lo, hi)
    payload = {
        "spec": spec_to_dict(spec),
        "range": [lo, hi],
        "mismatches": [_jsonable({"n": m.n, "predicted": m.predicted, "actual": m.actual})
                       for m in mismatches],
    }
    status = "pass" if not mismatches else "fail"
    return _emit(args, "verify", {"spec": name, "range": f"{lo}..{hi}"}, status, payload,
                 DEFAULT_PRECISION, t0)


def _cmd_zero(args) -> int:
    t0 = time.perf_counter()
    p, ell, s = args.prime, args.ell, args.multiplier
    ctx = prime_context(p, args.precision)
    payload = {"p": p, "N": ctx.n_period, "ell": ell, "s": s, "divides": trib_mod(ell, p) == 0}
    status = "pass"
    if not payload["divides"]:
        payload["conclusion"] = "p does not divide T(ell): f_ell has no zero on Z_p"
    else:
        series = class_series(ctx, ell, s)
        ctx, mu, cert = series.ctx, series.mu, certify(series)
        try:
            record = hensel_zero(series)
        except ConditionNotMet:  # beta_1 is not a unit: no Hensel start
            record = None
        payload.update(e=series.e, mu=mu, deriv_ok=record is not None)
        if record is not None:  # mu = 1 here, so the certificate exists iff the zero sits over Q_T
            kind = "other" if cert is None else "rational" if isinstance(cert.a, Fraction) else "integer"
            payload["zero"] = {
                "digits": record.digits(),
                "residue": record.b,
                "unique": mu == 1,
                "newton_residual_valuations": list(record.residual_vals),
                "classification": _jsonable({"kind": kind, "value": None if cert is None else cert.a}),
            }
        if cert is not None:
            payload["linear_certificate"] = _jsonable(
                {"a": cert.a, "kappa": cert.kappa, "mu": cert.mu, "Q": cert.q, "residue": cert.residue}
            )
        elif record is None:
            payload["conclusion"] = "derivative condition fails and no linear certificate was found"
            status = "undecided"
    params = {"prime": p, "ell": ell, "multiplier": s, "precision": ctx.prec}
    return _emit(args, "zero", params, status, payload, ctx.prec, t0)


def _cmd_scan(args) -> int:
    t0 = time.perf_counter()
    summary = scan_range(args.max, args.precision, jobs=args.jobs)
    payload = _jsonable(
        {
            "p_max": summary.p_max,
            "total_primes": summary.total_primes,
            **summary.verdicts,
            "cube_root_family": summary.cube_root_family,
            "cube_root_family_fraction": summary.cube_root_family_fraction,
            "cube_root_family_expected_density": 1 / 12,
        }
    )
    return _emit(args, "scan", {"max": args.max, "precision": args.precision},
                 "pass", payload, args.precision, t0)


@functools.cache  # one parser per process: in-process callers pay for it once
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tribadic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--precision", type=_int_arg(lo=MIN_PRECISION), default=DEFAULT_PRECISION,
                        help=f"working p-adic precision K >= {MIN_PRECISION} (default 24)")
        sp.add_argument("--format", choices=("json", "csv", "text"), default="text")

    sp = sub.add_parser("classify", help="decide both conjecture forms for one prime")
    sp.add_argument("--prime", type=_prime_arg(), required=True)
    common(sp)
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("table", help="reproduce the failure-witness table up to --max")
    sp.add_argument("--max", type=_int_arg(lo=2, hi=P_MAX), default=600)
    sp.add_argument("--validate-paper", action="store_true",
                    help="cross-check against the embedded published table")
    sp.add_argument("--jobs", type=_int_arg(lo=1), default=1)
    common(sp)
    sp.set_defaults(fn=_cmd_table)

    sp = sub.add_parser("verify", help="check a closed-form valuation spec against the sequence")
    sp.add_argument("--spec", type=_spec_arg, required=True,
                    help=f"one of {', '.join(BUILTIN_SPEC_NAMES)} or a JSON file")
    sp.add_argument("--range", type=_range_arg, default="1..10000",
                    help="inclusive range a..b; a negative start needs the = form, --range=-20..20")
    common(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("zero", help="locate and classify the zero of one interpolant f_ell")
    sp.add_argument("--prime", type=_prime_arg(EXCLUDED_PRIMES), required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--multiplier", type=_int_arg(lo=1), default=1,
                    help="period multiplier s >= 1 (default 1)")
    common(sp)
    sp.set_defaults(fn=_cmd_zero)

    sp = sub.add_parser("scan", help="verdict counts and density summary up to --max")
    sp.add_argument("--max", type=_int_arg(lo=2, hi=P_MAX), default=600)
    sp.add_argument("--jobs", type=_int_arg(lo=1), default=1)
    common(sp)
    sp.set_defaults(fn=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _run(args)
    except BrokenPipeError:  # the reader closed stdout: nothing more can be printed there
        print(f"tribadic {args.command}: stdout was closed; the output is incomplete", file=sys.stderr)
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):  # no descriptor, e.g. a StringIO: nothing to redirect
            return EXIT_INTERNAL
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)  # the interpreter's final flush of stdout must not fail again
        os.close(devnull)
        return EXIT_INTERNAL


def _run(args) -> int:
    """args.fn(args), with any exception but a closed stdout reported as an internal error."""
    t0 = time.perf_counter()
    try:
        return args.fn(args)
    except BrokenPipeError:
        raise
    except Exception as exc:  # exit 1 would read as "counterexample found"
        import traceback  # only here: with it come linecache and tokenize, which no request needs

        traceback.print_exc()
        print(f"tribadic {args.command}: internal error", file=sys.stderr)
        if args.format == "json":
            params = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "format")}
            if "spec" in params:
                params.update(spec=args.spec[0], range="{}..{}".format(*args.range))
            payload = {"error": type(exc).__name__, "message": str(exc)}
            _emit(args, args.command, params, "error", payload, args.precision, t0)
        return EXIT_INTERNAL


def entrypoint() -> None:  # console-script shim
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
