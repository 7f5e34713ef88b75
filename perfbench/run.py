"""Benchmark of trajdistill: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run builds its inputs from the seed,
sets them up several times (the median is ``setup_s``), then repeats whole
rounds of the workload for about ``--seconds`` seconds, checks the program's
outputs, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with no
tracing. With ``--trace 1`` the run wraps the program's public functions in
spans (see ``tracer.py``) and reports the per-layer metrics instead. Each run
also writes a result file, and a traced run its spans, to ``perfbench/out/``.

The exit code is 0 when every check passed, 1 when one failed, and 2 when
the program cannot be loaded.
"""

import os
import sys

# One BLAS thread, set before numpy loads: the program's matrices are small,
# and more threads only add timing jitter.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

SETUP_REPS = 7
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "teacher_ms": "ms",
    "student_ms": "ms",
    "min_ade_m.teacher": "m",
    "min_ade_m.student": "m",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["train", "eval", "busy_scene"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def measure(workload, seconds: float, tracer) -> list[dict]:
    """Whole rounds until another would run past ``seconds``."""
    rounds = []
    t_start = time.perf_counter()
    while True:
        span = tracer.begin("bench.round") if tracer else None
        rounds.append(workload.round())
        if tracer:
            tracer.end(span)
        elapsed = time.perf_counter() - t_start
        if len(rounds) >= workload.min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def run(args) -> dict:
    import numpy as np

    import layers
    import workloads
    from tracer import SpanIndex, Tracer

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work_root = tempfile.mkdtemp(prefix=tag + "-", dir=OUT)
    tracer = Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        setups = []
        for i in range(SETUP_REPS):
            workdir = os.path.join(work_root, str(i))
            os.mkdir(workdir)
            workload = workloads.WORKLOADS[args.workload]()
            t0 = time.perf_counter()
            workload.setup(args.seed, workdir)
            setups.append(time.perf_counter() - t0)
        rounds = measure(workload, args.seconds, tracer)
        span = tracer.begin("bench.finish") if tracer else None
        workload.finish(rounds)
        if tracer:
            tracer.end(span)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
        failures = workload.check(rounds)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)

    e2e = workload.e2e(rounds)
    detail = e2e.pop("detail")
    e2e.update(setup_s=statistics.median(setups), peak_rss_mb=peak_rss_mb)
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit(), "numpy": np.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "rounds": len(rounds), "setup_s_all": setups,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "end_to_end": e2e, "detail": detail,
    }
    if tracer:
        per_layer, coverage = layers.compute(SpanIndex(tracer))
        low = [c for c in coverage if c < layers.COVERAGE_FLOOR_PCT]
        if low:
            failures.append(f"trace: spans cover only {min(low):.1f}% of {len(low)} of "
                            f"{len(coverage)} units of work")
        result["per_layer"] = per_layer
        tracer.dump(os.path.join(OUT, tag + ".trace.json"))
    result["failures"] = failures
    result["correct"] = not failures
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "trajdistill", "__init__.py")):
        print(f"error: no trajdistill sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [HERE, SRC]
    import layers

    result = run(args)
    for msg in result["failures"]:
        print(f"check failed: {msg}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in result["per_layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["end_to_end"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
