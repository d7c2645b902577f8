"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload certify|calculus|extend \
        --seed N --seconds T --trace 0|1

Run from the repository root.  A fresh worker process (``worker.py``) sets
up and runs jobs one at a time for ``--seconds``; this process then checks
every job's outputs and prints the metrics.  With ``--trace 0`` the last
line carries the end-to-end metrics (set-up time is the median over the
worker and four more fresh set-up-only processes); with ``--trace 1`` the
worker wraps the library's public functions and the last line carries the
per-layer metrics, each the median over the run's jobs.  The line before
the last one is the provenance of the result.  The result with every job's
record, and in a traced run the spans, are also written to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4  # fresh set-up-only processes besides the worker
WORKER_GRACE_S = 120  # on top of --seconds: set-up plus the last job


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["certify", "calculus", "extend"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def worker(args, *extra, timeout: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cocycle").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def provenance(args, n_jobs: int, n_setup: int) -> dict:
    import numpy as np

    from inputs import SIZES

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    env_keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "COCYCLE_THREADS")
    return {
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in env_keys},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_median": n_jobs,
        "setup_samples": n_setup,
        "input_sizes": SIZES[args.workload],
    }


def run(args, work: Path) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from checks import CheckFailed, Checker

    worker(args, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(work),
           timeout=args.seconds + WORKER_GRACE_S)
    result = json.loads((work / "worker.json").read_text())
    jobs = result["jobs"]
    if not jobs:
        raise RuntimeError("the worker ran no job")

    checker = Checker(ROOT)
    for job in jobs:
        if job["error"] is None:
            try:
                checker.check(args.workload, Path(job["dir"]), job["files"])
            except CheckFailed as exc:
                job["error"] = f"check failed: {exc}"
            except Exception:
                job["error"] = "check raised: " + traceback.format_exc()
    failed = sum(job["error"] is not None for job in jobs)
    walls = [job["wall_s"] for job in jobs]
    jobs_per_s = (len(jobs) - failed) / sum(walls)

    setup = [result["setup_s"]]
    metrics = {}
    if args.trace:
        per_job = [job["layers"] for job in jobs if "layers" in job]
        for name in per_job[0]:
            metrics[name] = statistics.median(layers[name] for layers in per_job)
        metrics["trees.table_build_s"] += result["setup_layers"]["trees.table_build_s"]
        metrics["trace.jobs_per_s"] = jobs_per_s
    else:
        for _ in range(SETUP_SAMPLES):
            setup.append(float(worker(args, "--setup-only", timeout=60).strip()))
        metrics = {
            "jobs_per_s": jobs_per_s,
            "job_p50_s": statistics.median(walls),
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
    result.update(
        provenance=provenance(args, len(jobs), len(setup)),
        setup_samples_s=setup,
        fail_frac=failed / len(jobs),
        metrics=metrics,
    )
    return result


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "cocycle" / "__init__.py").is_file() or not (ROOT / "schemas").is_dir():
        print(f"no cocycle source tree (src/cocycle, schemas/) under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True)
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        result = run(args, work)
        if (work / "spans.npz").exists():
            shutil.move(work / "spans.npz", out_dir / f"{args.workload}.spans.npz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if sorted(metrics) != sorted(want):
        print(f"metrics {sorted(set(metrics) ^ set(want))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1))
    failed = sum(job["error"] is not None for job in result["jobs"])
    for job in result["jobs"]:
        if job["error"] is not None:
            print(f"job {job['dir']} failed: {job['error']}", file=sys.stderr)
    print(json.dumps({"provenance": result["provenance"], "fail_frac": result["fail_frac"],
                      "setup_samples_s": result["setup_samples_s"],
                      "job_walls_s": [job["wall_s"] for job in result["jobs"]],
                      "job_cpu_s": [job["cpu_s"] for job in result["jobs"]]}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["jobs"]),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in want},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
