"""Run-to-run spread of the benchmark, and the cost of tracing.

    python3 perfbench/stability.py --workload train --runs 10 --seconds 20
    python3 perfbench/stability.py --workload eval --runs 5 --seconds 20 --overhead

The first form runs ``run.py`` once per seed (``--first-seed`` onwards), one
run at a time, and prints for every metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json``. It also prints the share of failed
operations of each run.

With ``--overhead`` each seed runs untraced and traced (alternating which
goes first) and the tool prints, for every end-to-end time, how much slower
the traced run measured it: the tracing overhead.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMES = ("teacher_ms", "student_ms")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    line = json.loads(lines[-1])
    with open(os.path.join(HERE, "out", f"{workload}-s{seed}-t{trace}.json")) as fh:
        line["result"] = json.load(fh)
    return line


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def bounds() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def spread_report(runs: list[dict]) -> None:
    bound = bounds()
    names = list(runs[0]["metrics"])
    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        b = bound[name]
        flag = "ok" if spread < b / 3 else "WIDE" if spread > b else ">b/3"
        print(f"{name:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {b:>6}  {flag}")
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"failed share per run: {shares}; attempted {[r['attempted'] for r in runs]}")


def overhead_report(pairs: list[tuple[dict, dict]]) -> None:
    for name in TIMES:
        ratios = [t1["result"]["end_to_end"][name] / t0["result"]["end_to_end"][name] for t0, t1 in pairs]
        q1, med, q3 = quartiles(ratios) if len(ratios) > 1 else (ratios[0],) * 3
        print(f"tracing overhead on {name}: median {100 * (med - 1):+.1f}% "
              f"(quartiles {100 * (q1 - 1):+.1f}% .. {100 * (q3 - 1):+.1f}%) over {len(ratios)} seeds")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["train", "eval", "busy_scene"])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--overhead", action="store_true")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2")
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    if args.overhead:
        pairs = []
        for i, seed in enumerate(seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            got = {t: run_once(args.workload, seed, args.seconds, t) for t in order}
            pairs.append((got[0], got[1]))
        overhead_report(pairs)
        return 0
    runs = []
    for seed in seeds:
        runs.append(run_once(args.workload, seed, args.seconds, 0))
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
              flush=True)
    spread_report(runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
