"""Child process of the benchmark: one set-up sample, or one measured run of a workload.

    python3 worker.py setup   WORKLOAD SEED WORKDIR
    python3 worker.py measure WORKLOAD SEED WORKDIR --seconds S --trace 0|1

Prints one JSON object on its last stdout line.  ``run.py`` starts it with
BLAS pinned to one thread and ``src`` on the path.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time


def setup_sample(workload: str, seed: int, workdir: str) -> dict:
    """Time the twistlab import plus generating the workload's inputs, in a fresh process."""
    start = time.perf_counter()
    from workloads import WORKLOADS   # imports twistlab, which set-up includes

    WORKLOADS[workload](seed, workdir)
    return {"setup_s": time.perf_counter() - start}


def run_job(wl, i: int, tracer=None) -> tuple[float, list[str], str]:
    """Run job i and check its output: (job seconds, problems, output digest).

    A job that raises counts as failed; the verification is not timed and,
    under a tracer, not traced.
    """
    start = time.perf_counter()
    try:
        out = wl.job(i)
    except Exception as exc:   # a failed job is recorded, the loop goes on
        return time.perf_counter() - start, [f"job raised {type(exc).__name__}: {exc}"], ""
    elapsed = time.perf_counter() - start
    with tracer.paused() if tracer is not None else contextlib.nullcontext():
        try:
            return elapsed, wl.verify(out), wl.digest(out)
        except Exception as exc:   # malformed output fails verification
            return elapsed, [f"verification raised {type(exc).__name__}: {exc}"], ""


def measure(workload: str, seed: int, workdir: str, seconds: float, trace: bool) -> dict:
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    wl.self_check()
    warm = run_job(wl, 0)   # first calls and file caches settle before timing
    failures = [f"warm-up job: {p}" for p in warm[1][:1]]
    times: list[float] = []
    digests: list[str] = []
    loop_start = time.perf_counter()
    while not times or time.perf_counter() - loop_start < seconds:
        elapsed, probs, digest = run_job(wl, len(times))
        failures += [f"job {len(times)}: {p}" for p in probs[:1]]
        times.append(elapsed)
        digests.append(digest)
    jobs = len(times)
    result = {"jobs": jobs, "attempted": 1 + jobs, "failures": failures}
    if not trace:
        result["metrics"] = {
            "jobs_per_s": (jobs / sum(times), "1/s"),
            "job_p50_ms": (1e3 * statistics.median(times), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        return result

    from layertrace import Tracer

    traced_times = []
    with Tracer() as tracer:
        for i in range(jobs):
            elapsed, probs, digest = run_job(wl, i, tracer)
            if not probs and digest != digests[i]:
                probs = ["traced output differs from the untraced output"]
            failures += [f"traced job {i}: {p}" for p in probs[:1]]
            traced_times.append(elapsed)
    result["attempted"] += jobs
    metrics = tracer.layer_metrics(jobs)
    metrics["trace.overhead_frac"] = (sum(traced_times) / sum(times) - 1.0, "fraction")
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=["setup", "measure"])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.mode == "setup":
        doc = setup_sample(args.workload, args.seed, args.workdir)
    else:
        doc = measure(args.workload, args.seed, args.workdir, args.seconds, bool(args.trace))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
