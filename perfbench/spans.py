"""Spans and counters around al_ist's layer boundaries, for the traced run.

Tracing wraps public functions at the module attribute each caller looks
them up through (for example `al_ist.solver.schur_coeffs`, which the
solver calls, and `al_ist.cli.rk4_integrate`, which `compare` calls), so
no program file changes.  Each span records its name (the layer), start,
end, parent and the CPU time of its thread.  The span stack is per thread;
work submitted to a thread pool inherits the submitting span as parent,
because `compare` and the window solver run their passes on pool threads.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

LAYERS = (
    "sequence", "nlft", "multiplier", "laurent", "schur.validate",
    "schur.recursion", "solver", "reference", "seqio", "cli",
)

# Work counts that must repeat exactly between two traced rounds.
WORK_COUNTS = (
    "solver.N_sum", "solver.W_sum", "schur.recursion.steps",
    "schur.recursion.coeff_updates", "nlft.leaf_factors",
    "reference.site_steps", "seqio.bytes_out",
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple] = []

    def reset(self):
        with self._lock:
            self.spans = []
            self.counts = Counter()

    def add(self, key: str, amount):
        with self._lock:
            self.counts[key] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def adopt(self, parent, fn, *args, **kwargs):
        """Run fn on this thread with `parent` as the root of its spans."""
        old = getattr(self._local, "base", None)
        self._local.base = parent
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.base = old

    def traced(self, fn, name: str, after=None):
        """fn wrapped in a span named `name`; after(args, result) counts work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current()
            sid = next(tracer._ids)
            stack = tracer._stack()
            stack.append(sid)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(
                        (sid, name, parent, t0, t1, c1 - c0, threading.get_ident())
                    )
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, fn, before):
        """fn with before(args) called first; no span (for per-step calls)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before(args)
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, replacement):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every layer boundary; uninstall() restores the originals."""
        import al_ist.cli as cli
        import al_ist.nlft as nlft
        import al_ist.schur as schur
        import al_ist.solver as solver
        from al_ist.sequence import Sequence

        add = self.add
        tracer = self

        def span(owner, attr, layer, after=None):
            self.patch(owner, attr, self.traced(owner.__dict__[attr], layer, after))

        for method in ("windowed", "shifted", "reflected", "conjugated", "trimmed", "szego_product"):
            span(Sequence, method, "sequence")

        def leaves(args, _):
            add("nlft.leaf_factors", int((args[0].values != 0).sum()))

        def pass_window(args, result):
            leaves(args, result)
            add("solver.W_sum", (len(args[0].values) - 1) // 2)

        span(nlft, "nlft_forward", "nlft", leaves)
        span(cli, "nlft_forward", "nlft", leaves)
        span(solver, "nlft_forward", "nlft", pass_window)

        def order(args, _):
            add("multiplier.order_sum", int(args[0]))

        span(solver, "g_bundle", "multiplier", order)
        span(cli, "g_bundle", "multiplier", order)

        span(solver, "lp_mul", "laurent",
             lambda args, r: add("laurent.product_len_sum", len(r.coeffs)))
        span(solver, "lp_conj_flip", "laurent")

        span(schur.RationalSchur, "validate", "schur.validate")
        self.patch(schur, "lp_eval_grid", self.counted(
            schur.lp_eval_grid, lambda args: add("schur.validate.grid_nodes", args[1].size)))

        span(solver, "schur_coeffs", "schur.recursion",
             lambda args, r: add("schur.recursion.computed", len(r.gammas)))

        def step(args):
            f = args[0]
            add("schur.recursion.steps", 1)
            add("schur.recursion.coeff_updates", max(f.num.max_deg, f.den.max_deg) + 1)

        self.patch(schur, "schur_step", self.counted(schur.schur_step, step))

        span(solver, "select_params", "solver", lambda args, p: add("solver.N_sum", p.N))
        for bound in ("localization_bound", "t3_bound", "window_entry_budget"):
            span(solver, bound, "solver")
        span(solver, "solve_point", "solver", lambda args, r: add("solver.emitted", 1))
        span(cli, "solve_window_detailed", "solver",
             lambda args, r: add("solver.emitted", len(r[0].values)))

        def site_steps(args, state):
            t, h = abs(args[1]), args[2]
            steps, remaining = 0, t
            while remaining > 0.0:  # the step loop of rk4_integrate
                remaining -= min(h, remaining)
                steps += 1
            add("reference.site_steps", steps * len(state.q.values))

        span(cli, "rk4_integrate", "reference", site_steps)

        def bytes_out(args, text):
            add("seqio.bytes_out", len(text.encode("utf-8")))

        span(cli, "read_sequence", "seqio")
        span(cli, "csv_table", "seqio", bytes_out)
        span(cli, "json_text", "seqio", bytes_out)
        span(cli, "laurent_to_doc", "seqio")
        span(cli, "main", "cli")

        class TracingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn, *args, **kwargs)

        for module in (solver, cli):
            self.patch(module, "ThreadPoolExecutor", TracingExecutor)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def layer_metrics(spans: list[tuple], counts: Counter, jobs: int) -> dict[str, float]:
    """Per-layer busy time and work counts of one traced round.

    A span's self time is its thread CPU time minus that of its child spans
    on the same thread; a layer's busy_s is the sum of its spans' self
    times.  CPU rather than wall time, because compare's pool threads take
    turns under the interpreter lock and a wall-clock span would also count
    the time its thread waits for the lock.
    """
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[2]].append(s)
    busy = Counter()
    calls = Counter()
    self_cpu = {}
    for sid, name, parent, t0, t1, cpu, thread in spans:
        self_cpu[sid] = cpu - sum(k[5] for k in children.get(sid, []) if k[6] == thread)
        busy[name] += self_cpu[sid]
        calls[name] += 1
    out = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}

    # cli.overlap: CPU time of the solve and reference subtrees per job wall time.
    cli_wall = sum(s[4] - s[3] for s in spans if s[1] == "cli")
    solve_ref_cpu = 0.0
    for s in spans:
        top = s
        while top[2] in by_id and by_id[top[2]][1] != "cli":
            top = by_id[top[2]]
        if top[2] in by_id and top[1] in ("solver", "reference"):
            solve_ref_cpu += self_cpu[s[0]]
    computed = counts["schur.recursion.computed"]
    out.update({
        "sequence.calls": calls["sequence"],
        "nlft.calls": calls["nlft"],
        "nlft.calls_per_job": calls["nlft"] / jobs,
        "nlft.leaf_factors": counts["nlft.leaf_factors"],
        "multiplier.calls_per_job": calls["multiplier"] / jobs,
        "multiplier.order_sum": counts["multiplier.order_sum"],
        "laurent.product_len_sum": counts["laurent.product_len_sum"],
        "schur.validate.grid_nodes": counts["schur.validate.grid_nodes"],
        "schur.recursion.steps": counts["schur.recursion.steps"],
        "schur.recursion.coeff_updates": counts["schur.recursion.coeff_updates"],
        "schur.recursion.useful_frac": counts["solver.emitted"] / computed if computed else 0.0,
        "solver.N_sum": counts["solver.N_sum"],
        "solver.W_sum": counts["solver.W_sum"],
        "reference.site_steps": counts["reference.site_steps"],
        "seqio.bytes_out": counts["seqio.bytes_out"],
        "cli.overlap": solve_ref_cpu / cli_wall if cli_wall else 0.0,
    })
    return out

