"""Self-test of the benchmark at tiny size; exits 1 if any check fails.

    python3 perfbench/selftest.py

- Smoke: each workload, untraced and traced, answers correctly and reports
  every metric named in BENCHMARK.json (plus scan_s/table_s on census and
  zero_ms_p50/zero_ms_p90 on certify), and the traced counts repeat exactly.
- Layer split: verify never reaches galois or interpolation; certify never
  calls scan_range or reproduce_table; census calls both.  (That classifier
  has the largest self time on census holds at full size, not at tiny size,
  where series and Hensel work for the witness zeros outweighs the short scans.)
- Negative control: with one expected value corrupted (a published u off by
  one, a spec's kappa off by one) every workload reports error_rate > 0, so
  the oracles are not vacuous.
"""

from __future__ import annotations

import sys

import run
import workloads

FAILURES = []


def check(ok: bool, what: str) -> None:
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def main() -> int:
    end_to_end, per_layer = run.declared_metrics()
    extra = {"census": ("scan_s", "table_s"), "certify": ("zero_ms_p50", "zero_ms_p90"),
             "verify": ()}
    for workload in workloads.WORKLOADS:
        res = run.run(workload, seed=1, seconds=0, trace=False, size="tiny")
        check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
              f"{workload}: tiny run is correct ({res['attempted']} requests, {res['errors'][:1]})")
        line = run.result_line(res, end_to_end, trace=False)["metrics"]
        check(set(line) == set(end_to_end) and all(v["value"] > 0 for v in line.values())
              and all(n in res["metrics"] for n in ("error_rate", *extra[workload])),
              f"{workload}: every end-to-end metric is measured and nonzero")

        traced = run.run(workload, seed=1, seconds=0, trace=True, size="tiny")
        m = traced["metrics"]
        check(traced["correct"], f"{workload}: traced run is correct and its counts repeat exactly")
        line = run.result_line(traced, per_layer, trace=True)["metrics"]
        check(set(line) == set(per_layer) and "trace.overhead_frac" in m
              and "trace.untraced_frac" in m,
              f"{workload}: traced run reports every per-layer metric")
        calls = lambda name: m.get(f"{name}.calls", 0)
        if workload == "verify":
            check(calls("galois.prime_context") == 0 and calls("interpolation.series_coeffs") == 0
                  and calls("classifier.verify_formula") > 0,
                  "verify: reaches neither galois nor interpolation")
        elif workload == "certify":
            check(calls("classifier.scan_range") == 0 and calls("classifier.reproduce_table") == 0
                  and calls("interpolation.series_coeffs") > 0,
                  "certify: no period scan, series built")
        else:
            check(calls("classifier.scan_range") == 1 and calls("classifier.reproduce_table") == 1
                  and m.get("classifier.rows", 0) > 0,
                  "census: one scan and one table")

        bad = run.run(workload, seed=1, seconds=0, trace=False, size="tiny", corrupt=True)
        check(bad["metrics"]["error_rate"] > 0 and not bad["correct"],
              f"{workload}: corrupted expectation gives error_rate = {bad['metrics']['error_rate']:.3g}")
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
