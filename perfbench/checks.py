"""Output checks, run by run.py after the workload process has ended.

Each check returns (ok, wrong, note) per distinct job: `ok` is whether the
job succeeded and its output passed; `wrong` marks an output that was
produced but is incorrect (as opposed to a refused job); `note` says why.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

import jobs

RK4_STEP = 1e-3  # the compare command's default step; its Richardson pair is h, h/2
COMPARE_HEADER = ["n", "re", "im", "ref_re", "ref_im", "deviation", "allowance", "verdict"]
UNITARITY_RTOL = 1e-9  # al_ist.nlft.UNITARITY_TOL, relative to max |a|^2 on the grid
IDENTITY_RTOL = 1e-9  # -2 log a(0) == sum log(1 - |q|^2): exact up to roundoff
# The written lhs of the Szego identity is a grid mean of log(1 - |b/a|^2),
# a quadrature of a non-polynomial integrand: measured 1e-7 to 1e-4 of |rhs|.
SZEGO_QUADRATURE_RTOL = 1e-3


def _rhs(y: np.ndarray) -> np.ndarray:
    left = np.zeros_like(y)
    left[:, 1:] = y[:, :-1]
    right = np.zeros_like(y)
    right[:, :-1] = y[:, 1:]
    return 1j * (1.0 - np.abs(y) ** 2) * (left + right)


def rk4_snapshots(data, times, h: float, radius: int) -> dict[float, np.ndarray]:
    """Classical RK4 for all data at once on sites [-radius, radius] with a
    zero boundary; returns the lattice at each requested time."""
    y = np.zeros((len(data), 2 * radius + 1), dtype=np.complex128)
    for row, datum in zip(y, data):
        row[datum.offset + radius : datum.offset + radius + len(datum.values)] = datum.values
    out, done = {}, 0
    for t in sorted(times):
        steps = round(t / h)
        if abs(steps * h - t) > 1e-12:
            raise ValueError(f"t={t} is not a multiple of the step {h}")
        for _ in range(steps - done):
            k1 = _rhs(y)
            k2 = _rhs(y + 0.5 * h * k1)
            k3 = _rhs(y + 0.5 * h * k2)
            k4 = _rhs(y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        done = steps
        out[t] = y.copy()
    return out


def check_point(data, round_, outcomes) -> dict[int, tuple[bool, bool, str]]:
    """Each value against RK4 (steps h and h/2): deviation <= eps plus the
    Richardson estimate plus 1e-12, the rule the compare command uses."""
    solved = [j for j in round_ if outcomes[j["id"]]["ok"]]
    times = {j["t"] for j in solved}
    radius = max(max(abs(d.offset), abs(d.offset + len(d.values))) for d in data)
    radius += jobs.OUTSIDE_GAP + math.ceil(10.0 * (1.0 + max(times, default=0.0)))
    coarse = rk4_snapshots(data, times, RK4_STEP, radius)
    fine = rk4_snapshots(data, times, RK4_STEP / 2.0, radius)
    result = {}
    for job in round_:
        outcome = outcomes[job["id"]]
        if not outcome["ok"]:
            result[job["id"]] = (False, False, outcome["output"]["error"])
            continue
        out = outcome["output"]
        value = complex(out["re"], out["im"])
        site = job["n0"] + radius
        ref = fine[job["t"]][job["datum"], site]
        allowance = job["eps"] + abs(coarse[job["t"]][job["datum"], site] - ref) / 15.0 + 1e-12
        deviation = abs(value - ref)
        budget = out["localization"] + out["truncation"]
        if deviation > allowance:
            result[job["id"]] = (False, True, f"deviation {deviation:.3e} > allowance {allowance:.3e}")
        elif not budget <= job["eps"]:
            result[job["id"]] = (False, True, f"budget {budget:.3e} exceeds eps {job['eps']:.0e}")
        else:
            result[job["id"]] = (True, False, "")
    return result


def check_compare(data, round_, outcomes) -> dict[int, tuple[bool, bool, str]]:
    """Exit code, stderr and every row's verdict (which must agree with its
    deviation and allowance columns)."""
    result = {}
    for job in round_:
        out = outcomes[job["id"]]["output"]
        if "error" in out:
            result[job["id"]] = (False, False, out["error"])
            continue
        code, stderr = out["code"], out["stderr"].strip()
        if code in (2, 3):
            result[job["id"]] = (False, False, f"exit {code}: {stderr}")
            continue
        with open(out["path"], encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        try:
            bad = [r for r in rows[1:] if r[7] != "pass"]
            consistent = all((float(r[5]) <= float(r[6])) == (r[7] == "pass") for r in rows[1:])
        except (IndexError, ValueError):
            consistent = False
        if not consistent or len(rows) < 2 or rows[0] != COMPARE_HEADER:
            result[job["id"]] = (False, True, "malformed or inconsistent table")
        elif code != 0 or bad:
            result[job["id"]] = (False, True, f"exit {code}, {len(bad)} failing rows: {stderr}")
        else:
            result[job["id"]] = (True, False, "")
    return result


def _grid_values(doc: dict, size: int) -> np.ndarray:
    """Values of a written Laurent polynomial at the size-th roots of unity."""
    coeffs = np.array([complex(re, im) for re, im in doc["coeffs"]])
    folded = np.zeros(size, dtype=np.complex128)
    np.add.at(folded, (doc["min_deg"] + np.arange(len(coeffs))) % size, coeffs)
    return np.fft.ifft(folded) * size


def check_nlft(data, round_, outcomes) -> dict[int, tuple[bool, bool, str]]:
    """Parse the written (a, b), recompute |a|^2 - |b|^2 - 1 on the written
    grid (which must be at least each polynomial's span, so not aliased),
    and check the Szego identity fields against the datum."""
    result = {}
    for job in round_:
        out = outcomes[job["id"]]["output"]
        if "error" in out or out["code"] != 0:
            result[job["id"]] = (False, False, out.get("error") or f"exit {out['code']}: {out['stderr']}")
            continue
        with open(out["path"], encoding="utf-8") as fh:
            doc = json.load(fh)
        size = doc["grid"]
        szego = doc["szego_identity"]
        rhs = float(np.sum(np.log1p(-np.abs(data[job["datum"]].values) ** 2)))
        scale = max(1.0, abs(rhs))
        problems = []
        if size < max(len(doc["a"]["coeffs"]), len(doc["b"]["coeffs"])):
            problems.append(f"grid {size} is smaller than the polynomial span")
        else:
            a2 = np.abs(_grid_values(doc["a"], size)) ** 2
            b2 = np.abs(_grid_values(doc["b"], size)) ** 2
            residual = float(np.max(np.abs(a2 - b2 - 1.0)))
            if residual > UNITARITY_RTOL * max(1.0, float(np.max(a2))):
                problems.append(f"unitarity residual {residual:.3e}")
        if abs(szego["rhs"] - rhs) > IDENTITY_RTOL * scale:
            problems.append("szego rhs differs from the datum's log product")
        if abs(-2.0 * math.log(doc["a_at_zero"]) - rhs) > IDENTITY_RTOL * scale:
            problems.append("-2 log a(0) differs from the datum's log product")
        if szego["residual"] != abs(szego["lhs"] - szego["rhs"]):
            problems.append("szego residual is not |lhs - rhs|")
        if szego["residual"] > SZEGO_QUADRATURE_RTOL * scale:
            problems.append(f"szego residual {szego['residual']:.3e}")
        result[job["id"]] = (not problems, bool(problems), "; ".join(problems))
    return result


CHECKS = {"point": check_point, "compare": check_compare, "nlft": check_nlft}
