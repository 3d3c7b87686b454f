"""Outside-in tracing of qwake's layers.

The tracer replaces module attributes with timing wrappers for the length of
a ``with`` block and puts the originals back on exit. Nothing inside
``src/`` changes: every wrapped name is one that its caller looks up at call
time (``harness`` calls its own imported globals, ``scheduler`` calls
``qsearch.search_invocation``, the benchmark calls ``network``, ``advice``
and ``scheduler`` through their modules). Wrappers only read arguments and
results, so they never touch the random stream a run consumes.

A span is ``(name, start, end, parent, run)``: ``parent`` is the index of
the enclosing span or -1, ``run`` the id of the benchmark run it belongs to.
Spans stay in memory until the benchmark writes them out.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import ExitStack, contextmanager
from time import perf_counter


def targets(qw):
    """(module, attribute, span name) for every wrapped call site.

    ``harness`` imported its collaborators by name, so its own bindings are
    wrapped; the benchmark's random-graph workload calls the defining
    modules, so those bindings are wrapped as well. No wrapped function calls
    another wrapped binding of the same function, so nothing is counted
    twice.
    """
    h, net, adv, sch = qw.harness, qw.network, qw.advice, qw.scheduler
    return [
        (h, "clique_graph", "network.build"),
        (h, "random_connected_graph", "network.build"),
        (h, "build_hidden_matching_graph", "network.build"),
        (net, "random_connected_graph", "network.build"),
        (h, "compute_epoch_plan", "advice.plan"),
        (adv, "compute_epoch_plan", "advice.plan"),
        (h, "assign_advice", "advice.assign"),
        (adv, "assign_advice", "advice.assign"),
        (h, "run_wakeup", "scheduler.run"),
        (sch, "run_wakeup", "scheduler.run"),
        (sch, "verify_phase_lemma", "scheduler.verify"),
        (h, "run_cell_row", "harness.sweep"),
        (h, "awake_distance", "harness.awake_dist"),
        (h, "fit_exponent", "harness.fit"),
    ]


@contextmanager
def patched(module, attr, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` inside the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_id = -1
        self._stack: list[int] = []

    def new_run(self):
        self.run_id += 1

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx, parent, name, t0, t1):
        self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.run_id)

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx, parent, name, t0, perf_counter())

        return wrapper

    def _run_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            idx, parent = self._open()
            t0 = perf_counter()
            try:
                t = fn(*args, **kwargs)
            finally:
                self._close(idx, parent, "scheduler.run", t0, perf_counter())
            self.counts["actor_phases"] += len(t.actor_logs)
            self.counts["tau_overflows"] += len(t.tau_overflows)
            self.counts["anomalies"] += sum(len(log.anomalies) for log in t.actor_logs)
            return t

        return wrapper

    def _search_wrapper(self, fn):
        def wrapper(n_range, n_marked, budget, reps, gen):
            idx, parent = self._open()
            t0 = perf_counter()
            try:
                idx_found, calls = fn(n_range, n_marked, budget, reps, gen)
            finally:
                name = "qsearch.hit" if n_marked else "qsearch.null"
                self._close(idx, parent, name, t0, perf_counter())
            self.counts["oracle_calls"] += calls
            self.counts["found"] += idx_found >= 0
            return idx_found, calls

        return wrapper

    @contextmanager
    def installed(self, qw):
        """Wrap every target for the duration of the block."""
        patches = [(qw.qsearch, "search_invocation", self._search_wrapper)]
        for module, attr, name in targets(qw):
            if name == "scheduler.run":
                patches.append((module, attr, self._run_wrapper))
            else:
                patches.append((module, attr, lambda fn, name=name: self._span_wrapper(name, fn)))
        with ExitStack() as stack:
            for module, attr, make in patches:
                stack.enter_context(patched(module, attr, make))
            yield self

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children;
        calls are single-threaded, so children never overlap."""
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return [(t1 - t0) - c for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def layer_times(self) -> tuple[dict, dict, Counter]:
        """Per span name: total seconds, self seconds, span count."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: Counter = Counter()
        for (name, t0, t1, _, _), s in zip(self.spans, self.self_times()):
            total[name] += t1 - t0
            own[name] += s
            calls[name] += 1
        return total, own, calls

    def self_time_problems(self, wall_s: float) -> list[str]:
        """Self times are non-negative and sum to at most the traced wall."""
        problems = []
        negative = sum(1 for s in self.self_times() if s < 0)
        if negative:
            problems.append(f"{negative} spans with negative self time")
        _, own, _ = self.layer_times()
        if sum(own.values()) > wall_s:
            problems.append(f"layer self times {sum(own.values()):.6f}s exceed traced wall {wall_s:.6f}s")
        return problems

    def write_spans(self, path: str):
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for name, t0, t1, parent, run in self.spans:
                f.write(json.dumps({"name": name, "start": t0 - base, "end": t1 - base,
                                    "parent": parent, "run": run}) + "\n")


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    total, own, calls = tracer.layer_times()
    c = tracer.counts
    kernel_s = total["qsearch.null"] + total["qsearch.hit"]
    invocations = calls["qsearch.null"] + calls["qsearch.hit"]
    return {
        "network.build_s": (total["network.build"], "s"),
        "network.build_calls": (calls["network.build"], "count"),
        "advice.plan_s": (total["advice.plan"], "s"),
        "advice.plan_calls": (calls["advice.plan"], "count"),
        "advice.assign_s": (total["advice.assign"], "s"),
        "advice.assign_calls": (calls["advice.assign"], "count"),
        "qsearch.null_s": (total["qsearch.null"], "s"),
        "qsearch.null_calls": (calls["qsearch.null"], "count"),
        "qsearch.hit_s": (total["qsearch.hit"], "s"),
        "qsearch.hit_calls": (calls["qsearch.hit"], "count"),
        "qsearch.oracle_calls": (c["oracle_calls"], "count"),
        "qsearch.ns_per_oracle_call": (kernel_s * 1e9 / c["oracle_calls"] if c["oracle_calls"] else 0.0, "ns"),
        "qsearch.found_frac": (c["found"] / invocations if invocations else 0.0, "ratio"),
        "scheduler.run_s": (total["scheduler.run"], "s"),
        "scheduler.self_s": (own["scheduler.run"], "s"),
        "scheduler.actor_phases": (c["actor_phases"], "count"),
        "scheduler.tau_overflows": (c["tau_overflows"], "count"),
        "scheduler.anomalies": (c["anomalies"], "count"),
        "scheduler.verify_s": (total["scheduler.verify"], "s"),
        "harness.sweep_self_s": (own["harness.sweep"], "s"),
        "harness.awake_dist_s": (total["harness.awake_dist"], "s"),
        "harness.fit_s": (total["harness.fit"], "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.unattributed_s": (wall_s - sum(own.values()), "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
