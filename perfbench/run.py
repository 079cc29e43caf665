"""tribadic benchmark: census, certify and verify workloads.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0

Run from the root of a source tree.  Every iteration of a workload runs in a
fresh interpreter (worker.py, with PYTHONPATH=src), so per-prime caches start
empty as they do for every `tribadic` command.  With --trace 0 the run repeats
iterations for --seconds and reports the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it runs one untraced and two traced
iterations and reports the per-layer metrics.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  See
perfbench/README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

SETUP_PROBES = 9  # set-up-only interpreters per run, on top of one per iteration
HARD_LIMIT_S = 170.0  # a run must end well inside 180 s
EXTRA_UNITS = {"scan_s": "s", "table_s": "s", "zero_ms_p50": "ms", "zero_ms_p90": "ms",
               "error_rate": "fraction", "host_speed": "nominal", "raw.setup_s": "s",
               "raw.wall_s": "s", "raw.req_ms_p50": "ms", "raw.req_ms_p90": "ms"}
EXACT_COUNTS = ("galois.contexts", "interpolation.series_terms",
                "interpolation.newton_steps", "classifier.rows")


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def declared_metrics() -> tuple[dict, dict]:
    """(end_to_end, per_layer) units by metric name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment() -> dict:
    """Python version, cores, CPU model, git SHA and load average at start."""
    cpu = load = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
        load = os.getloadavg()
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "git_sha": _git_sha(), "loadavg": load}


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values, q: float) -> float:
    """Linear interpolation between the closest ranks (q in [0, 1])."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def spawn(job: dict, deadline: float) -> dict:
    """Run worker.py on one job and return its JSON result, with setup_s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    job = dict(job, t_spawn=time.monotonic())
    proc = subprocess.Popen([sys.executable, "-S", str(WORKER)], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{job['workload']}: iteration did not finish in time") from None
    lines = out.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except ValueError:
        pass
    raise BenchError(f"{job['workload']}: worker exited {proc.returncode} without a result")


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", corrupt: bool = False) -> dict:
    """All iterations of one run, aggregated into metrics; see the module docstring."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    inputs = workloads.make_inputs(workload, seed, size)
    job = {"workload": workload, "inputs": inputs, "corrupt": corrupt, "trace": False,
           "setup_only": False, "spans_path": None}
    setups = [spawn(dict(job, setup_only=True), deadline) for _ in range(SETUP_PROBES)]
    iters, traced = [], []
    if trace:
        iters.append(spawn(job, deadline))
        OUT_DIR.mkdir(exist_ok=True)
        spans = str(OUT_DIR / f"spans-{workload}-{seed}.jsonl")
        for i in range(2):
            traced.append(spawn(dict(job, trace=True, spans_path=spans if i == 0 else None),
                                deadline))
    else:
        while True:
            t0 = time.monotonic()
            iters.append(spawn(job, deadline))
            last = time.monotonic() - t0
            if time.monotonic() - start + last > seconds:
                break
    everything = iters + traced
    setups += everything
    attempted = sum(it["attempted"] for it in everything)
    failed = sum(it["failed"] for it in everything)
    errors = [e for it in everything for e in it["errors"]]

    med = lambda key: statistics.median(it[key] for it in iters)
    req_ms = lambda key, q: statistics.median(1000 * percentile(it[key], q) for it in iters)
    metrics = {
        "setup_s": statistics.median(it["setup_s"] for it in setups),
        "wall_s": med("wall_s"),
        "req_ms_p50": req_ms("req_s", 0.5),
        "req_ms_p90": req_ms("req_s", 0.9),
        "peak_rss_mb": med("peak_rss_mb"),
        "error_rate": failed / attempted,
        "host_speed": med("host_speed"),
        "raw.setup_s": statistics.median(it["setup_raw_s"] for it in setups),
        "raw.wall_s": med("raw_wall_s"),
        "raw.req_ms_p50": req_ms("raw_req_s", 0.5),
        "raw.req_ms_p90": req_ms("raw_req_s", 0.9),
    }
    for name in {name for it in iters for name in it["named"]}:
        metrics[name] = statistics.median(it["named"][name] for it in iters if name in it["named"])
    if workload == "certify":
        metrics["zero_ms_p50"] = metrics["req_ms_p50"]
        metrics["zero_ms_p90"] = metrics["req_ms_p90"]

    deterministic = True
    if traced:
        keys = set().union(*(t["layers"] for t in traced))
        for key in keys:
            metrics[key] = statistics.median(t["layers"].get(key, 0.0) for t in traced)
        metrics["trace.overhead_frac"] = (
            statistics.median(t["wall_s"] for t in traced) / metrics["wall_s"] - 1.0)
        exact = [{k: v for k, v in t["layers"].items() if k.endswith(".calls") or k in EXACT_COUNTS}
                 | {"failed": t["failed"]} for t in traced]
        if exact[0] != exact[1]:
            deterministic = False
            diff = sorted(k for k in exact[0].keys() | exact[1].keys()
                          if exact[0].get(k) != exact[1].get(k))
            errors.append(f"counts differ between two traced runs of seed {seed}: {diff}")
    return {"correct": failed == 0 and deterministic, "attempted": attempted,
            "failed": failed, "metrics": metrics, "errors": errors,
            "iterations": len(iters), "traced_iterations": len(traced)}


def result_line(res: dict, declared: dict, trace: bool) -> dict:
    """The final JSON object: exactly the declared metrics, with their units."""
    # a layer the workload never reaches reads 0; an end-to-end metric is always measured
    missing = [name for name in declared if name not in res["metrics"] and not trace]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    metrics = {name: {"value": res["metrics"].get(name, 0.0), "unit": unit}
               for name, unit in declared.items()}
    return {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tribadic" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'tribadic'}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end
    print(f"env {json.dumps(environment())}")
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
        line = result_line(res, declared, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = dict(EXTRA_UNITS, **end_to_end, **per_layer)
    print(f"workload {args.workload} seed {args.seed}: {res['iterations']} untraced and "
          f"{res['traced_iterations']} traced iterations, {res['attempted']} requests, "
          f"{res['failed']} failed")
    for name, value in sorted(res["metrics"].items()):
        unit = units.get(name) or ("count" if name.endswith(".calls") else "s")
        print(f"metric {name} = {value:.6g} {unit}")
    for err in res["errors"]:
        print(f"error {err}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
