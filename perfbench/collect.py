"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/collect.py --workload point --seeds 1-10 [--trace 1] [--out FILE]
                                 [--against EARLIER.json]

For each metric it prints the median, the quartiles (statistics.quantiles,
n=4) and their distance as a share of the median, the spread that the
benchmark's bounds in BENCHMARK.json are checked against.  With --out it
writes the summary, every run's result and wall time, and the machine
facts as JSON.
With --against, an earlier --out file of the same workload, it also prints
how much worse each end-to-end median is than the earlier one, as a share
of it, next to the metric's bound, and exits 1 if any exceeds its bound.
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

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "AL_IST_THREADS": os.environ.get("AL_IST_THREADS", "unset"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=False)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        run = json.loads(lines[-1])
        run["seed"], run["notes"], run["wall_s"] = seed, lines[:-1], wall
        runs.append(run)
        print(f"seed {seed} ({wall:.1f} s): correct={run['correct']} attempted={run['attempted']} "
              f"failed={run['failed']}; " + "; ".join(lines[:-1]), flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[name] = {
            "unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
        }
        print(f"{name:34s} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {summary[name]['spread']:.4f}")
    if args.out:
        doc = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               "machine": machine(), "summary": summary, "runs": runs}
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return compare(summary, args.against) if args.against else 0


def compare(summary: dict, earlier_path: str) -> int:
    """Print each end-to-end median's worsening against an earlier summary;
    1 if any exceeds its bound."""
    earlier = json.loads(Path(earlier_path).read_text())["summary"]
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]
    status = 0
    for metric in declared:
        name, before = metric["name"], earlier[metric["name"]]["median"]
        change = (summary[name]["median"] - before) / before
        worse = change if metric["better"] == "lower" else -change
        ok = worse <= metric["bound"]
        status |= not ok
        print(f"{name:34s} {before:<12.6g} -> {summary[name]['median']:<12.6g} "
              f"worse by {worse:+.4f} (bound {metric['bound']}) {'ok' if ok else 'EXCEEDED'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
