"""twistlab benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload mn_check --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  Set-up is sampled in SETUP_SAMPLES
fresh processes and the median reported; the workload then runs in one more
fresh process with BLAS pinned to one thread.  Human-readable lines go first;
the last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``, per-layer
metrics with ``--trace 1``).  Exits 1 without a result if a child fails, and 2
if the checkout holds no twistlab sources.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mn_check", "mn_fluctuate", "u1u2_cli")   # named here so the parent never imports twistlab
SETUP_SAMPLES = 5
DEADLINE_S = 170.0   # a run must end within 180 s


class ChildFailed(RuntimeError):
    pass


def child_env(workdir: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["TMPDIR"] = workdir   # keep every file the run writes inside the checkout
    env["PYTHONDONTWRITEBYTECODE"] = "1"   # every run imports twistlab from source alike
    return env


def run_child(args: list[str], workdir: str, deadline: float) -> dict:
    """Run worker.py to completion and return the JSON object on its last stdout line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(workdir), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:   # subprocess.run has killed and reaped the child
        raise ChildFailed(f"{' '.join(args[:2])} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args[:2])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):   # an exported checkout; git would look upwards
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(workdir: str) -> dict:
    """Machine and toolchain record; numpy is queried in a child with the benchmark's environment."""
    probe = ("import json, os, numpy as np;"
             "blas = np.show_config(mode='dicts')['Build Dependencies']['blas'];"
             "print(json.dumps({'numpy': np.__version__, 'blas': blas.get('name'),"
             " 'blas_version': blas.get('version'),"
             " 'blas_threads': os.environ.get('OPENBLAS_NUM_THREADS')}))")
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=child_env(workdir),
                          capture_output=True, text=True, timeout=60)
    env = json.loads(proc.stdout) if proc.returncode == 0 else {}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    env.update(python=platform.python_version(), nproc=os.cpu_count(), cpu=cpu, git_commit=git_commit())
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: report per-layer metrics from a traced run instead")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "twistlab", "__init__.py")):
        print(f"error: no twistlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=scratch)
    try:
        env = environment(workdir)
        setup = []
        for k in range(SETUP_SAMPLES):
            sample_dir = os.path.join(workdir, f"setup{k}")
            os.mkdir(sample_dir)
            setup.append(run_child(["setup", args.workload, str(args.seed), sample_dir], workdir,
                                   deadline)["setup_s"])
        run_dir = os.path.join(workdir, "run")
        os.mkdir(run_dir)
        res = run_child(["measure", args.workload, str(args.seed), run_dir, "--seconds", str(args.seconds),
                         "--trace", str(args.trace)], workdir, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):   # left in place while another run uses it
            os.rmdir(scratch)

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = (statistics.median(setup), "s")
    failed = len(res["failures"])
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload: {args.workload} seed: {args.seed} seconds: {args.seconds} trace: {args.trace}"
          f" timed jobs: {res['jobs']} set-up samples: {SETUP_SAMPLES}")
    for failure in res["failures"][:5]:
        print(f"failure: {failure}")
    print(f"failed_frac: {failed / res['attempted']:.6g} ({failed} of {res['attempted']} jobs)")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
