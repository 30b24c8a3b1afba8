"""Workload inputs, generated from the benchmark seed with al_ist's PCG32.

A workload is one fixed list of jobs (a "round") that the worker repeats
in a closed loop: one caller, next job only after the previous one ends.
The round's composition (eta, t, eps and size classes) is fixed; the seed
chooses the datum shapes and the job order.  Every datum is scaled so that
its Szego product equals the class value, so the solver's window size N,
which `select_params` derives from eta alone, is the same on every seed.
"""

from __future__ import annotations

import numpy as np

from al_ist.datagen import PCG32, dense_random_sequence, random_sequence
from al_ist.sequence import Sequence

WORKLOADS = ("point", "compare", "nlft")

POINT_ETAS = (0.6, 0.22, 0.11, 0.05)
COMPARE_ETAS = (0.6, 0.22, 0.11)
TIMES = (0.5, 2.0, 6.0)
# Point jobs per eta class: two cheap classes of two jobs, two dear ones of
# three, plus the t = 8 job.  Jobs below the 0.11 class then match jobs
# above it, so the median falls mid-class on every run, not at a class edge.
POINT_TIMES = {0.6: (0.5, 6.0), 0.22: (2.0, 6.0), 0.11: TIMES, 0.05: TIMES}
# t >= 8 trips the Bessel-series defect (ROADMAP item 4): the multiplier
# peak lands above 1 and the job is refused.  One job per round keeps it a
# minority that the metrics still show.
LATE_TIME = 8.0
EPSILONS = (1e-6, 1e-10)
# RK4 step for compare jobs (its pair is h and h/2).  Twice the CLI default,
# which halves the reference's share so that three rounds fit the run budget;
# the fourth-order error stays near 1e-11, below every eps used here.
COMPARE_STEP = 2e-3
# (sites, min |q|) of the dense nlft data; max |q| is 0.04.  The CLI refuses
# a datum whose transfer product fails Transfer2x2.validate(), an absolute
# 1e-9 unitarity test on 1024 nodes that roundoff of |a|^2 exceeds once
# max |a|^2 nears 2^23 (ROADMAP item 4).  At 8192 sites with min |q| = 0.01
# that happened on 13 of 15 seeds, so that datum draws from [0.02, 0.04],
# where it was refused on all 15; the smaller ones stayed 17x below the
# tolerance.  Either way the defect shows, and now the same on every seed.
NLFT_DATA = ((1024, 0.01), (1024, 0.01), (2048, 0.01), (2048, 0.01), (2048, 0.01),
             (4096, 0.01), (8192, 0.02))
NLFT_MAX_MODULUS = 0.04

# Datum support for point and compare jobs, ends included; n0 "outside"
# sits past it.
SUPPORT = (-6, 6)
SUPPORT_SITES = 7
OUTSIDE_GAP = 6

_STREAMS = {name: i + 1 for i, name in enumerate(WORKLOADS)}


def scaled_to_eta(seq: Sequence, eta: float) -> Sequence:
    """seq times the factor s > 0 with prod(1 - |s q(n)|^2) == eta."""
    mod2 = np.abs(seq.values) ** 2
    lo, hi = 0.0, 1.0 / float(np.sqrt(np.max(mod2)))
    if np.prod(1.0 - (0.999 * hi) ** 2 * mod2) > eta:
        raise ValueError(f"datum cannot reach eta={eta}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.prod(1.0 - mid**2 * mod2) > eta:
            lo = mid
        else:
            hi = mid
    return Sequence(seq.offset, seq.values * lo)


def _shuffled(rng: PCG32, items: list) -> list:
    items = list(items)
    for i in range(len(items) - 1, 0, -1):
        j = rng.integer(0, i)
        items[i], items[j] = items[j], items[i]
    return items


def _small_data(rng: PCG32, etas) -> list[Sequence]:
    """One datum shape scaled to each eta.  Shapes are drawn until one
    spans all of SUPPORT: the widened window, and with it the cost of the
    RK4 reference and of the Schur passes in compare, follows the support,
    so a fixed support keeps the cost of each job class the same on every
    seed."""
    while True:
        base = random_sequence(rng.next_u32(), SUPPORT_SITES, *SUPPORT, 0.6, 0.3)
        if base.support() == SUPPORT:
            return [scaled_to_eta(base, eta) for eta in etas]


def _n0(datum: Sequence, inside: bool) -> int:
    lo, hi = datum.support()
    return lo + (hi - lo) // 2 if inside else hi + OUTSIDE_GAP


def build(workload: str, seed: int) -> tuple[list[Sequence], list[dict]]:
    """(data, round) for one workload; each job names its datum by index."""
    rng = PCG32(seed, _STREAMS[workload])
    jobs = []
    if workload == "point":
        data = _small_data(rng, POINT_ETAS)
        k = 0
        for d, eta in enumerate(POINT_ETAS):
            for t in POINT_TIMES[eta]:
                jobs.append(
                    {"datum": d, "eta": eta, "t": t, "eps": EPSILONS[k % 2],
                     "n0": _n0(data[d], (k // 2) % 2 == 0)}
                )
                k += 1
        jobs.append({"datum": 0, "eta": POINT_ETAS[0], "t": LATE_TIME,
                     "eps": EPSILONS[0], "n0": _n0(data[0], True)})
    elif workload == "compare":
        data = _small_data(rng, COMPARE_ETAS)
        k = 0
        for d, eta in enumerate(COMPARE_ETAS):
            for t in TIMES:
                jobs.append({"datum": d, "eta": eta, "t": t, "eps": EPSILONS[k % 2],
                             "n0": _n0(data[d], True)})
                k += 1
        # A second cheap job (eta 0.6, t 0.5, the other eps) makes the round
        # 11 jobs, an odd count, so that over three rounds the median and the
        # tail (ten job runs beyond it) each fall on the middle repeat of one
        # job, not between two jobs.
        jobs.append({"datum": 0, "eta": COMPARE_ETAS[0], "t": TIMES[0],
                     "eps": EPSILONS[1], "n0": _n0(data[0], True)})
        jobs.append({"datum": 0, "eta": COMPARE_ETAS[0], "t": LATE_TIME,
                     "eps": EPSILONS[0], "n0": _n0(data[0], True)})
    elif workload == "nlft":
        data = [
            dense_random_sequence(rng.next_u32(), 0, sites, NLFT_MAX_MODULUS, min_modulus)
            for sites, min_modulus in NLFT_DATA
        ]
        jobs = [{"datum": d, "sites": sites} for d, (sites, _) in enumerate(NLFT_DATA)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(jobs):
        job["id"] = i
    return data, _shuffled(rng, jobs)


def sites(datum: Sequence) -> int:
    """Nonzero datum sites: the input size a job was given."""
    return int(np.count_nonzero(datum.values))
