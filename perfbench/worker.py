"""One iteration of a workload in a fresh interpreter.

Reads a job (JSON) from stdin, imports the package and loads the published
table, which ends set-up, then runs the workload and prints one JSON line with
its timings, failures and peak memory.  run.py starts it with PYTHONPATH
pointing at the sources.  Set-up is timed from the parent's clock reading just
before it started this interpreter; time.monotonic is one system-wide clock on
Linux, so the two readings compare.

Times are reported twice: raw, and scaled to nominal host speed by the
reference loop of hostclock.py.
"""

import json
import sys
import time


def main() -> None:
    job = json.loads(sys.stdin.read())

    import tribadic

    tribadic.published_table()
    setup_raw = time.monotonic() - job["t_spawn"]

    import hostclock

    ref = hostclock.reference_time()
    out = {"setup_raw_s": setup_raw, "setup_s": setup_raw * hostclock.NOMINAL_S / ref}
    if job["setup_only"]:
        print(json.dumps(out))
        return

    import resource

    import tracer as tracing
    import workloads

    prepared = workloads.prepare(job["workload"], job["inputs"], job["corrupt"])
    tracer = tracing.Tracer(workloads.tracer_counters()).install() if job["trace"] else None
    with hostclock.HostClock() as clock:
        it = workloads.run(job["workload"], prepared, tracer)
    mean = clock.mean(ref)
    out.update(it)
    out.update(
        raw_wall_s=it["wall_s"],
        wall_s=clock.scaled(it["start"], it["wall_s"], mean),
        raw_req_s=[dt for _, dt in it["requests"]],
        req_s=[clock.scaled(t0, dt, mean) for t0, dt in it["requests"]],
        host_speed=hostclock.NOMINAL_S / mean,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    out["named"] = {name: out["req_s"][i] for name, i in it["named"].items()}
    del out["requests"]
    if tracer is not None:
        out["layers"] = tracer.summary(it["wall_s"])
        if job["spans_path"]:
            tracer.write_spans(job["spans_path"])
    print(json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
