"""The three workloads: inputs made from the seed, the requests they send, and
the oracles that check every answer.

Inputs are plain JSON made in the parent process before any timing starts
(`make_inputs`).  The worker turns them into program objects before its timed
region (`prepare`) and then sends the requests one at a time (`run`).  The
oracles use integer arithmetic written here, the published table copied into
this directory, and constants from the paper; they never call the program's
own checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("census", "certify", "verify")

PUBLISHED_CSV = Path(__file__).with_name("published_table1.csv")
PUBLISHED_SHA256 = "7b98d58aba8ec0f1a7afed3361f7523f96395e0685d73639416ca88cc1a76ec0"
PUBLISHED_MAX = 599

ZT = (0, -1, -4, -17)
QT = ZT + (Fraction(1, 3), Fraction(-5, 3))

# verdict sets the paper states for the primes in [5, 599]
ML_HOLDS = {83, 397}
ML_UNDECIDED = {103, 163}
RAT_HOLDS = {269, 401, 419, 499, 587}

# (p, N, l, a): zero classes of the holds primes and the Z_T / Q_T element over each
HOLDS_CLASSES = (
    (83, 287, 270, -17),
    (397, 132, 128, -4),
    (269, 268, 177, Fraction(-5, 3)),
    (269, 268, 179, Fraction(1, 3)),
    (401, 400, 265, Fraction(-5, 3)),
    (419, 418, 279, Fraction(1, 3)),
    (499, 166, 109, Fraction(-5, 3)),
    (587, 293, 98, Fraction(1, 3)),
)
# (l, a) of the two tripled-period classes of p = 3 (s = 3, Q = 39)
P3_CLASSES = ((22, -17), (35, -4))
PRECISIONS = (24, 48, 96)

SPEC_NAMES = ("p2", "p3", "p83", "p397", "p269", "p401", "p419", "p499", "p587")
VERIFY_CHUNK = 10**4


# ---------------------------------------------------------------------------
# integer-only oracles


def _mat_mul(a, b, m):
    return [[sum(a[i][k] * b[k][j] for k in range(3)) % m for j in range(3)] for i in range(3)]


def trib_mod(n: int, m: int) -> int:
    """T(n) mod m for n >= 0, from the companion matrix; independent of the program."""
    out = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    mat = [[1, 1, 1], [1, 0, 0], [0, 1, 0]]
    while n:
        if n & 1:
            out = _mat_mul(out, mat, m)
        mat = _mat_mul(mat, mat, m)
        n >>= 1
    return out[1][0] % m  # M^n = [[T(n+1), ...], [T(n), ...], ...]


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[: min(n + 1, 2)] = b"\x00" * min(n + 1, 2)
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def witness_problem(p: int, n_period: int, ell: int, u: int):
    """Why (p, N, l, u) is not a failure witness of the integer form, or None.

    Checks that N is a period of T mod p, p | T(l), T(l+N) != T(l) (mod p^2),
    that u = l - N * (T(l)/p) / ((T(l+N) - T(l))/p) (mod p), and u not in Z_T mod p.
    """
    if (trib_mod(n_period, p), trib_mod(n_period + 1, p), trib_mod(n_period + 2, p)) != (0, 1, 1):
        return f"N = {n_period} is not a period of T mod {p}"
    p2 = p * p
    t_ell, t_ell_n = trib_mod(ell, p2), trib_mod(ell + n_period, p2)
    if t_ell % p:
        return f"{p} does not divide T({ell})"
    delta = (t_ell_n - t_ell) % p2
    if delta == 0:
        return f"T({ell} + N) = T({ell}) mod {p}^2"
    expected = (ell - (t_ell // p) * pow(delta // p, -1, p) * n_period) % p
    if u != expected:
        return f"u = {u} but l = {ell} gives u = {expected}"
    if u in {z % p for z in ZT}:
        return f"u = {u} lies in Z_T mod {p}"
    return None


def published_rows(corrupt: bool = False) -> list[tuple[int, int, int, int]]:
    """The paper's (p, N, l, u) rows; corrupt=True moves the first u off by one."""
    data = PUBLISHED_CSV.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != PUBLISHED_SHA256:
        raise RuntimeError(f"{PUBLISHED_CSV.name} changed: sha256 = {digest}")
    lines = data.decode().splitlines()[1:]
    rows = [tuple(int(x) for x in line.split(",")[:4]) for line in lines]
    if corrupt:
        p, n, ell, u = rows[0]
        rows[0] = (p, n, ell, (u + 1) % p)
    return rows


def _fraction(a) -> Fraction:
    return Fraction(a) if not isinstance(a, str) else Fraction(*map(int, a.split("/")))


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    """JSON-able inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    tiny = size == "tiny"
    if workload == "census":
        # 773 (rational form holds) is in range from 773 on.  Below 770 the
        # band would drop 761 and 769, whose period scans cost about 10% of
        # the workload, so 757 (integer form undecided) is always in range.
        p_max = rng.randrange(90, 110) if tiny else rng.randrange(770, 787)
        return {"p_max": p_max}
    if workload == "certify":
        rows = published_rows()[::4]  # 26 rows spread over the whole table
        tasks = [{"kind": "witness", "p": p, "ell": ell, "s": 1, "N": n, "u": u}
                 for p, n, ell, u in rows]
        tasks += [{"kind": "holds", "p": p, "ell": ell, "s": 1, "N": n, "a": str(a)}
                  for p, n, ell, a in HOLDS_CLASSES]
        tasks += [{"kind": "holds", "p": 3, "ell": ell, "s": 3, "N": 13, "a": str(a)}
                  for ell, a in P3_CLASSES]
        precisions = PRECISIONS
        if tiny:
            tasks, precisions = tasks[::9], PRECISIONS[:2]
        # one round per precision, each in its own seeded order: a request's
        # latency then depends on the contexts earlier rounds left in the cache,
        # which no seed changes, and not on where the shuffle put it
        requests = []
        for prec in precisions:
            order = list(range(len(tasks)))
            rng.shuffle(order)
            requests += [(i, prec) for i in order]
        return {"tasks": tasks, "requests": requests}
    if workload == "verify":
        terms = 2000 if tiny else 2 * 10**5
        return {"terms": terms, "depth": 4 if tiny else 16,
                "starts": {name: rng.randrange(1, 10**7) for name in SPEC_NAMES}}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# running one iteration inside the worker


def tracer_counters() -> dict:
    """Counts the tracer takes from arguments and results at each boundary."""
    contexts = set()

    def context_count(args, kwargs, result):
        key = (result.p, result.prec)
        new = key not in contexts
        contexts.add(key)
        return {"galois.contexts": int(new)}

    return {
        "galois.prime_context": context_count,
        "interpolation.series_coeffs": lambda a, k, r: {"interpolation.series_terms": len(r.coeffs)},
        "interpolation.hensel_zero": lambda a, k, r: {"interpolation.newton_steps": len(r.residual_vals)},
        "classifier.reproduce_table": lambda a, k, r: {"classifier.rows": len(r)},
    }


def prepare(workload: str, inputs: dict, corrupt: bool) -> dict:
    """Program objects the requests need, built before the timed region."""
    if workload != "verify":
        return dict(inputs, corrupt=corrupt)
    from tribadic.classifier import FormulaCase, FormulaSpec, builtin_spec, crt_witness

    requests = []
    for name in SPEC_NAMES:
        spec = builtin_spec(name)
        if corrupt and name == SPEC_NAMES[0]:
            c = spec.cases[0]
            spec = FormulaSpec(spec.p, spec.q,
                               (FormulaCase(c.residues, c.kappa + 1, c.a, c.mu),) + spec.cases[1:],
                               spec.default_kappa)
        points = []
        for case in spec.cases:
            if case.a is None:
                continue
            for r in case.residues:
                for k in range(1, inputs["depth"] + 1):
                    try:
                        points.append(crt_witness(r, spec.q, case.a, spec.p, k))
                    except ValueError:
                        continue
        lo = inputs["starts"][name]
        for start in range(lo, lo + inputs["terms"], VERIFY_CHUNK):
            hi = min(start + VERIFY_CHUNK, lo + inputs["terms"]) - 1
            requests.append((name, spec, start, hi, ()))
        requests.append((name, spec, 1, 0, tuple(points)))  # the CRT points alone
    return {"requests": requests}


class Iteration:
    """Request times and failures of one iteration of a workload."""

    def __init__(self):
        self.requests = []  # (start, duration) in perf_counter seconds
        self.named = {}  # name -> index into requests
        self.attempted = 0
        self.errors = []

    def timed(self, start: float, name=None) -> None:
        if name:
            self.named[name] = len(self.requests)
        self.requests.append((start, time.perf_counter() - start))

    def fail(self, what: str) -> None:
        self.errors.append(what)

    def as_dict(self, start: float) -> dict:
        return {"start": start, "wall_s": time.perf_counter() - start,
                "requests": self.requests, "named": self.named,
                "attempted": self.attempted, "failed": len(self.errors),
                "errors": self.errors[:5]}


def _cli(main, argv, it: Iteration, name=None):
    """One CLI request; returns (exit code, parsed JSON record) or None on an exception."""
    buf = io.StringIO()
    it.attempted += 1
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = main([str(a) for a in argv])
    except Exception as exc:  # a crash is a failed request, not a crashed benchmark
        it.timed(t0)
        it.fail(f"{' '.join(map(str, argv))}: {type(exc).__name__}: {exc}")
        return None
    it.timed(t0, name)
    try:
        return code, json.loads(buf.getvalue())
    except ValueError:
        it.fail(f"{' '.join(map(str, argv))}: output is not JSON")
        return None


def run(workload: str, prepared: dict, tracer=None) -> dict:
    """Send every request of one iteration, check every answer, time first request
    to last verified result."""
    import tribadic.cli
    import tribadic.classifier

    wrap = tracer.wrap if tracer is not None else (lambda fn, name: fn)
    it = Iteration()
    t0 = time.perf_counter()
    if workload == "census":
        _census(wrap(tribadic.cli.main, "cli.main"), prepared, it, tracer)
    elif workload == "certify":
        _certify(wrap(tribadic.cli.main, "cli.main"), prepared, it, tracer)
    else:
        _verify(wrap(tribadic.classifier.verify_formula, "classifier.verify_formula"),
                prepared, it, tracer)
    return it.as_dict(t0)


def _checked(it: Iteration, label: str, problems, *args) -> None:
    """Record the problems an oracle finds; output it cannot read is one more."""
    try:
        found = problems(*args)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        found = [f"malformed output ({type(exc).__name__}: {exc})"]
    if found:
        it.fail(f"{label}: " + "; ".join(found))


def _census(main, prepared, it: Iteration, tracer) -> None:
    p_max = prepared["p_max"]
    if tracer is not None:
        tracer.request = 0
    scan = _cli(main, ["scan", "--max", p_max, "--jobs", 1, "--format", "json"], it, "scan_s")
    if tracer is not None:
        tracer.request = 1
    table = _cli(main, ["table", "--max", p_max, "--validate-paper", "--jobs", 1,
                        "--format", "json"], it, "table_s")
    if scan is not None:
        _checked(it, "scan", _scan_problems, scan, p_max)
    if table is not None:
        published = [r for r in published_rows(prepared["corrupt"]) if r[0] <= p_max]
        _checked(it, "table", _table_problems, table, p_max, published, scan)


def _scan_problems(out, p_max: int) -> list[str]:
    code, rec = out
    pay = rec["payload"]
    errs = []
    if code != 0 or rec["status"] != "pass":
        errs.append(f"exit {code}, status {rec['status']}")
    if pay["p_max"] != p_max or pay["total_primes"] != len(primes_upto(p_max)):
        errs.append("p_max or total_primes wrong")
    top = min(p_max, PUBLISHED_MAX)
    in_range = lambda ps: {p for p in ps if 5 <= p <= top}
    for label, got, want in (
        ("integer holds", pay["ml"]["holds"], ML_HOLDS),
        ("integer undecided", pay["ml"]["undecided"], ML_UNDECIDED),
        ("rational holds", pay["rational"]["holds"], RAT_HOLDS),
    ):
        if in_range(got) != in_range(want):
            errs.append(f"{label} set is {sorted(in_range(got))}")
    return errs


def _table_problems(out, p_max: int, published, scan) -> list[str]:
    code, rec = out
    pay = rec["payload"]
    errs = []
    if code != 0 or rec["status"] != "pass":
        errs.append(f"exit {code}, status {rec['status']}")
    val = pay.get("published_validation") or {}
    if val.get("rows_checked") != len(published) or val.get("disagreements"):
        errs.append(f"published_validation: {val.get('rows_checked')} rows, "
                    f"{len(val.get('disagreements') or ())} disagreements")
    rows = pay["rows"]
    if [r["p"] for r in rows] != [p for p in primes_upto(p_max) if p >= 5]:
        errs.append("rows do not cover the primes in [5, max]")
    fails = [r for r in rows if r["status"] == "fails"]
    low = [(r["p"], r["N"], r["ell"], r["u"]) for r in fails if r["p"] <= PUBLISHED_MAX]
    if low != published:
        bad = sorted(set(low) ^ set(published))[:3]
        errs.append(f"rows p <= {PUBLISHED_MAX} differ from the published table: {bad}")
    for r in fails:
        if r["p"] > PUBLISHED_MAX:
            why = witness_problem(r["p"], r["N"], r["ell"], r["u"])
            if why:
                errs.append(f"p = {r['p']}: {why}")
    if scan is not None and set(scan[1]["payload"]["ml"]["fails"]) != {r["p"] for r in fails}:
        errs.append("scan and table disagree on the failing primes")
    return errs


def _certify(main, prepared, it: Iteration, tracer) -> None:
    tasks = prepared["tasks"]
    corrupt = prepared["corrupt"]
    residues = {}  # task index -> {precision: residue of the zero}
    failed = set()
    for n, (i, prec) in enumerate(prepared["requests"]):
        task = tasks[i]
        if tracer is not None:
            tracer.request = n
        argv = ["zero", "--prime", task["p"], "--ell", task["ell"], "--multiplier", task["s"],
                "--precision", prec, "--format", "json"]
        before = len(it.errors)
        out = _cli(main, argv, it)
        if out is not None:
            label = f"zero p = {task['p']} l = {task['ell']} prec {prec}"
            _checked(it, label, _zero_problems, task, out, corrupt and i == 0)
        if len(it.errors) > before:
            failed.add(i)
        else:
            zero = out[1]["payload"].get("zero")
            if zero is not None:
                residues.setdefault(i, {})[prec] = zero["residue"]
    # the zero at precision 24 must agree with the most precise one, taken mod p^24
    for i, by_prec in residues.items():
        if i in failed or len(by_prec) < 2:
            continue
        pk = tasks[i]["p"] ** min(by_prec)
        top = by_prec[max(by_prec)]
        if any((r - top) % pk for r in by_prec.values()):
            it.fail(f"zero p = {tasks[i]['p']} l = {tasks[i]['ell']}: residues disagree across precisions")


def _zero_problems(task, out, corrupt: bool) -> list[str]:
    code, rec = out
    pay = rec["payload"]
    if code != 0 or rec["status"] != "pass":
        return [f"exit {code}, status {rec['status']}"]
    if pay["N"] != task["N"] or not pay.get("divides"):
        return [f"N = {pay['N']}, divides = {pay.get('divides')}"]
    if task["kind"] == "witness":
        zero = pay.get("zero")
        if not pay.get("deriv_ok") or zero is None:
            return ["no Hensel zero for a published witness"]
        u = (task["u"] + 1) % task["p"] if corrupt else task["u"]
        got = (task["ell"] + task["N"] * zero["residue"]) % task["p"]
        return [f"l + N*b = {got} mod p, published u = {u}"] if got != u else []
    cert = pay.get("linear_certificate")
    if cert is None:
        return ["no linear certificate"]
    a = _fraction(task["a"])
    q = task["s"] * task["N"]
    over = [t for t in map(Fraction, QT) if math.gcd(t.denominator, q) == 1
            and (t.numerator * pow(t.denominator, -1, q) - task["ell"]) % q == 0]
    if _fraction(cert["a"]) != a or over != [a] or cert["Q"] != q:
        return [f"certificate a = {cert['a']}, Q = {cert['Q']}; expected a = {a}, Q = {q}"]
    return []


def _verify(verify_formula, prepared, it: Iteration, tracer) -> None:
    for n, (name, spec, lo, hi, extra) in enumerate(prepared["requests"]):
        if tracer is not None:
            tracer.request = n
        it.attempted += 1
        t0 = time.perf_counter()
        try:
            mismatches = verify_formula(spec, lo, hi, extra=extra)
        except Exception as exc:  # a crash is a failed request
            it.timed(t0)
            it.fail(f"verify {name} [{lo}, {hi}]: {type(exc).__name__}: {exc}")
            continue
        it.timed(t0)
        if mismatches:
            it.fail(f"verify {name} [{lo}, {hi}] + {len(extra)} points: "
                    f"{len(mismatches)} mismatches, first n = {mismatches[0].n}")
