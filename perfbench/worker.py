"""One fresh benchmark process: set-up, then jobs one at a time for a while.

    python3 perfbench/worker.py --workload W --seed S --seconds T --trace 0|1 --workdir DIR
    python3 perfbench/worker.py --workload W --setup-only

Set-up (``import cocycle`` plus the workload's coefficient systems) is timed
from before the import, so it is what a fresh CLI process pays.  The job loop
starts a new job while the median job so far still fits in ``--seconds``;
only the program calls of a job are timed.  Results go to ``DIR/worker.json``; the job outputs
stay in ``DIR/jobNNN/`` for the output checks.  ``ru_maxrss`` is read after
the last job, so the peak is this process's own high-water mark.
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--workdir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import cocycle
    import cocycle.cli  # noqa: F401  (loaded by every CLI invocation)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    import jobs

    if tracer is None:
        jobs.build_tables(args.workload)
    else:
        tracer.call("setup", jobs.build_tables, args.workload)
    setup_s = time.perf_counter() - t0
    if not Path(cocycle.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"cocycle imported from {cocycle.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup_s)
        return 0
    return run_jobs(args, jobs, tracer, setup_s)


def run_jobs(args, jobs, tracer, setup_s) -> int:
    import json
    import resource
    import statistics
    import traceback

    import inputs

    result = {"setup_s": setup_s, "jobs": []}
    if tracer is not None:
        result["setup_layers"] = tracer.metrics()
        tracer.reset()
    job_fn = jobs.JOBS[args.workload]
    walls = []
    start = time.perf_counter()
    j = 0
    # start a job only while it is expected to end within --seconds
    while not walls or time.perf_counter() - start + statistics.median(walls) <= args.seconds:
        work = args.workdir / f"job{j:03d}"
        files = inputs.make(args.workload, args.seed, j, work)
        record = {"dir": str(work), "files": files, "error": None}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                out = job_fn(files, work)
            else:
                out = tracer.call("job", job_fn, files, work)
        except Exception:
            out = None
            record["error"] = traceback.format_exc()
        record["wall_s"] = time.perf_counter() - t0
        walls.append(record["wall_s"])
        record["cpu_s"] = time.process_time() - c0
        if out is not None:
            jobs.save(out, work)
        if tracer is not None:
            record["layers"] = tracer.metrics()
            tracer.keep()
        result["jobs"].append(record)
        j += 1
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.write(args.workdir / "spans.npz")
    (args.workdir / "worker.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
