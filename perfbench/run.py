"""al-ist benchmark: one workload per invocation, run from the repo root.

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a separate traced run.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_RUNS = 3
TAIL_BEYOND = 10  # jobs that must lie beyond the tail percentile
TIME_LIMIT_S = 160.0  # for set-up and the worker; the checks need the rest of 180 s
# The worker runs a fixed amount of work; --seconds only caps it.  A worker
# still running after CEILING x --seconds is stopped and the run fails, as a
# shorter run would have another job mix.
CEILING = 6
FAILED_LATENCY = 1e300  # a failed job's latency is +inf; JSON has no infinity


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("AL_IST_THREADS", None)
    return env


def _run(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """subprocess.run that always leaves the child ended (run kills it on timeout)."""
    return subprocess.run(cmd, env=_env(), cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout, check=False)


def measure_setup(importtime: bool) -> dict:
    """Wall time for a fresh interpreter to import al_ist.cli, median of
    SETUP_RUNS after one warm-up import; with importtime, also the median
    self time of numpy, scipy and al_ist modules from -X importtime."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", "import al_ist.cli"]
    _run(cmd, 60)
    walls, parts = [], {"numpy": [], "scipy": [], "al_ist": []}
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = _run(cmd, 60)
        walls.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"importing al_ist.cli failed:\n{proc.stderr}")
        if importtime:
            totals = dict.fromkeys(parts, 0)
            for line in proc.stderr.splitlines():
                m = re.match(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s+(\S+)", line)
                if m and m.group(2).split(".")[0] in totals:
                    totals[m.group(2).split(".")[0]] += int(m.group(1))
            for key, micros in totals.items():
                parts[key].append(micros / 1e6)
    out = {"setup_s": statistics.median(walls)}
    if importtime:
        out.update({f"setup.import.{k}_s": statistics.median(v) for k, v in parts.items()})
    return out


def tail(latencies: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND jobs
    beyond it.  The job count is fixed per workload, so is the rank."""
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND  # 1-based rank of the tail value
    if index < 1:
        raise RuntimeError(f"{len(ordered)} jobs are too few for a tail")
    return index / len(ordered), ordered[index - 1]


def per_job_median(records: list, costs: list[float], ok: list[bool]) -> list[float]:
    """Each record's latency as the median over every repeat of its job in
    the run, +inf for a failed job.  Every job repeats once per round, so
    percentiles of this list are percentiles over the round's jobs; the
    median of the repeats keeps a burst of host noise in one repeat out."""
    repeats: dict[int, list[float]] = {}
    for r, c in zip(records, costs):
        repeats.setdefault(r[0], []).append(c)
    median = {job: statistics.median(v) for job, v in repeats.items()}
    return [median[r[0]] if good else math.inf for r, good in zip(records, ok)]


def _finite(x: float) -> float:
    return x if math.isfinite(x) else FAILED_LATENCY


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind: subprocess.run then kills the worker and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "al_ist" / "__init__.py").is_file():
        print(f"no al_ist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    import checks
    import jobs
    import spans

    if args.workload not in jobs.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {jobs.WORKLOADS}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    setup = measure_setup(importtime=bool(args.trace))
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"perfbench-{args.workload}-", dir=build))
    try:
        limit = min(CEILING * args.seconds, TIME_LIMIT_S - (time.perf_counter() - began))
        try:
            proc = _run(
                [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--trace", str(args.trace), "--dir", str(workdir)],
                limit,
            )
        except subprocess.TimeoutExpired:
            print(f"the worker did not finish within {limit:.0f} s", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        with open(workdir / "results.json", encoding="utf-8") as fh:
            res = json.load(fh)
        data, round_ = jobs.build(args.workload, args.seed)
        outcomes = {int(k): v for k, v in res["outcomes"].items()}
        verdicts = checks.CHECKS[args.workload](data, round_, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = [f"job {i}: {note}" for i, (_, wrong, note) in sorted(verdicts.items()) if wrong]
    problems += [f"job {i}: output differs in round(s) {', '.join(o['mismatch'])}"
                 for i, o in sorted(outcomes.items()) if "mismatch" in o]
    refusals = sorted({note for ok, wrong, note in verdicts.values() if not ok and not wrong})
    records = res["records"]  # per job: [id, round tag, latency s, ok, host-clock sample s]
    failed = sum(1 for job_id, *_ in records if not verdicts[job_id][0])
    by_id = {j["id"]: j for j in round_}

    if args.trace:
        traced = res["traced"]
        counts = [{k: t["counts"].get(k, 0) for k in spans.WORK_COUNTS} for t in traced]
        if counts[0] != counts[1]:
            problems.append(f"work counts differ between traced rounds: {counts}")
        metrics = {k: statistics.fmean(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
        metrics.update({k: v for k, v in setup.items() if k != "setup_s"})

        def total(kind):  # job time of every traced or every untraced run
            return sum(r[2] for r in records if r[1].startswith(kind))

        metrics["trace_overhead_frac"] = total("traced") / total("untraced") - 1.0
        print(f"{args.workload}: work counts per round {json.dumps(counts[0])}")
    else:
        ok = [verdicts[r[0]][0] for r in records]
        sites = sum(jobs.sites(data[by_id[r[0]]["datum"]]) for r, good in zip(records, ok) if good)
        cal = statistics.median(r[4] for r in records)  # seconds per host-clock unit
        costs = [r[2] / cal for r in records]
        latencies = per_job_median(records, costs, ok)
        pct, tail_value = tail(latencies)
        metrics = {
            "latency_p50_cal": _finite(statistics.median(latencies)),
            "latency_tail_cal": _finite(tail_value),
            "ok_frac": (len(records) - failed) / len(records),
            "peak_rss_mb": res["peak_rss_mb"],
            "sites_per_cal": sites / sum(costs),
            "setup_s": setup["setup_s"],
        }
        seconds = per_job_median(records, [r[2] for r in records], ok)
        print(f"{args.workload}: {len(records)} jobs in {res['rounds']} rounds of "
              f"{res['round_size']} over {res['measured_s']:.1f} s; the tail is "
              f"p{100 * pct:.1f} ({TAIL_BEYOND} jobs beyond it)")
        print(f"{args.workload}: 1 cal = {1e3 * cal:.3f} ms; in seconds: latency p50 "
              f"{_finite(statistics.median(seconds)):.6g}, "
              f"tail {_finite(tail(seconds)[1]):.6g}; sites/s {sites / sum(r[2] for r in records):.6g}")
    for note in refusals:
        print(f"{args.workload}: refused: {note}")
    for note in problems:
        print(f"{args.workload}: WRONG: {note}")
    # BENCHMARK.json names every metric and its unit.
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in declared} != set(metrics):
        raise RuntimeError("metrics differ from those BENCHMARK.json declares")
    out = {
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
