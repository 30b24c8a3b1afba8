"""The workload process: runs one workload's rounds and records every job.

Started by run.py with `src` on PYTHONPATH; it runs nothing but the one
workload, so its peak resident memory is the workload's.  Results (latency,
host-clock sample, outcome and output digest per job, plus the traced
passes' per-layer metrics) go to a JSON file; run.py checks the outputs
after this process has ended.

Untraced: a fixed number of rounds per workload (ROUNDS), run back to
back, so that every run has the same jobs whatever the speed of the
program or the host.  Traced: two passes over the round; each job runs
once untraced and once traced, untraced first in the first pass and traced
first in the second, so that both halves see the same host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import time
from pathlib import Path

import numpy as np

import jobs
import spans

import al_ist.cli as cli
import al_ist.solver as solver
from al_ist.seqio import write_sequence

# Rounds of an untraced run.  Fixed, so that the job count, and with it the
# tail's rank, is the same on every commit and every host.  Three or more
# rounds, so that each job's latency is a median of at least three repeats
# and the tail lies above the median job; one run measures 20 to 45 s on the
# host of the first baseline.
ROUNDS = {"point": 3, "compare": 3, "nlft": 4}


class Runner:
    """Runs one job of a workload; only the library or CLI call is timed."""

    def __init__(self, workload: str, data, workdir: Path):
        self.workload = workload
        self.data = data
        self.workdir = workdir
        self.inputs = []
        if workload in ("compare", "nlft"):
            for i, datum in enumerate(data):
                path = workdir / f"datum{i}.json"
                write_sequence(datum, str(path))
                self.inputs.append(str(path))

    def output_path(self, job: dict) -> Path:
        suffix = "csv" if self.workload == "compare" else "json"
        return self.workdir / f"out{job['id']}.{suffix}"

    def run(self, job: dict) -> tuple[float, dict]:
        """(latency_s, outcome); outcome has ok, digest and the output."""
        if self.workload == "point":
            return self._point(job)
        return self._cli(job)

    def _point(self, job):
        q0 = self.data[job["datum"]]
        start = time.perf_counter()
        try:
            value, budget = solver.solve_point(q0, job["t"], job["n0"], job["eps"])
        except Exception as exc:  # a refused or crashed job is a failed job
            latency = time.perf_counter() - start
            return latency, _failure(f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        value = complex(value)
        output = {
            "re": value.real, "im": value.imag,
            "localization": budget.localization, "truncation": budget.truncation,
        }
        digest = " ".join(float(x).hex() for x in output.values())
        return latency, {"ok": True, "digest": digest, "output": output}

    def _cli(self, job):
        out = self.output_path(job)
        out.unlink(missing_ok=True)
        argv = ["--cmd", self.workload, "--in", self.inputs[job["datum"]], "--out", str(out)]
        if self.workload == "compare":
            argv += ["--t", repr(job["t"]), "--eps", repr(job["eps"]), "--n0", str(job["n0"]),
                     "--h", repr(jobs.COMPARE_STEP)]
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except Exception as exc:  # a crash is a failed job, not a dead benchmark
            latency = time.perf_counter() - start
            return latency, _failure(f"{type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        body = out.read_bytes() if out.exists() else b""
        digest = hashlib.sha256(f"{code}\n{err.getvalue()}\n".encode() + body).hexdigest()
        return latency, {
            "ok": code == 0, "digest": digest,
            "output": {"code": code, "stderr": err.getvalue(), "path": str(out)},
        }


class HostClock:
    """Times a fixed piece of work that does not touch al_ist.

    On a shared host the CPU speed can shift by tens of percent for minutes
    at a time, longer than one run.  The work mixes what al_ist spends its
    time on: numpy steps on a 1000-entry array (the Schur recursion), FFTs
    of 8192 points (the NLFT product tree) and plain Python arithmetic.
    Timed before every job, it lets run.py express job times in units of
    its median over the run, which cancels the host's speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal(1000) + 1j * rng.standard_normal(1000)
        self.wide = rng.standard_normal(8192) + 1j * rng.standard_normal(8192)

    def __call__(self) -> float:
        start = time.perf_counter()
        x = self.small
        for _ in range(150):
            g = x[0] / (x[-1] + 2.0)
            x = (x - g * self.small) / (1.0 + abs(g))
        for _ in range(10):
            np.fft.ifft(np.fft.fft(self.wide))
        total = 0
        for i in range(20000):
            total += i * i
        return time.perf_counter() - start


def _failure(message: str) -> dict:
    return {"ok": False, "digest": message, "output": {"error": message}}


def run_job(runner: Runner, clock: HostClock, job: dict, records: list,
            outcomes: dict, tag: str):
    """Run one job after one HostClock sample; record (id, tag, latency, ok,
    clock) and keep the job's first outcome, flagging any later output that
    differs from it."""
    tick = clock()
    latency, outcome = runner.run(job)
    records.append([job["id"], tag, latency, outcome["ok"], tick])
    first = outcomes.setdefault(job["id"], outcome)
    if outcome["digest"] != first["digest"]:
        first.setdefault("mismatch", []).append(tag)


def run_traced(runner: Runner, clock: HostClock, job: dict, records: list,
               outcomes: dict, tracer: spans.Tracer, tag: str):
    tracer.install()
    try:
        run_job(runner, clock, job, records, outcomes, tag)
    finally:
        tracer.uninstall()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()

    workdir = Path(args.dir)
    data, round_ = jobs.build(args.workload, args.seed)
    runner = Runner(args.workload, data, workdir)
    clock = HostClock()
    # Warm-up: one untimed run of the round's cheapest job fills lazy state.
    runner.run(min(round_, key=lambda j: (-j.get("eta", 0.0), j.get("t", 0.0), j.get("sites", 0))))

    records: list = []
    outcomes: dict = {}
    result = {"round_size": len(round_)}
    if not args.trace:
        start = time.perf_counter()
        for k in range(ROUNDS[args.workload]):
            for job in round_:
                run_job(runner, clock, job, records, outcomes, f"r{k}")
        result["measured_s"] = time.perf_counter() - start
        result["rounds"] = ROUNDS[args.workload]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = spans.Tracer()
        traced = []
        for k in range(2):
            tracer.reset()
            for job in round_:
                if k == 0:
                    run_job(runner, clock, job, records, outcomes, f"untraced{k}")
                run_traced(runner, clock, job, records, outcomes, tracer, f"traced{k}")
                if k == 1:
                    run_job(runner, clock, job, records, outcomes, f"untraced{k}")
            traced.append({
                "layers": spans.layer_metrics(tracer.spans, tracer.counts, len(round_)),
                "counts": dict(tracer.counts),
            })
        result["traced"] = traced

    result["records"] = records
    result["outcomes"] = {str(k): v for k, v in outcomes.items()}
    with open(workdir / "results.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
