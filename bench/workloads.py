"""The benchmark's workloads: inputs made from the seed, the timed passes,
and the output checks.

A workload runs in passes of equal size. Pass ``r`` has its own inputs,
made from the workload seed and ``r`` alone. The first passes are the fixed
part of every run, and their inputs are made at set-up: the output digest
and ``msgs_p50`` come from them alone, so both repeat exactly for a seed
however many further passes the time limit allows.

Around every run, a pass also times a fixed piece of Python work, the
*reference loop*. The machine's speed drifts; a run's time divided by the
reference loop's time next to it is the run's cost in reference loops,
which drifts far less.
"""
from __future__ import annotations

import hashlib
import io
import math
import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from tracing import patched

#: Acceptance 4a's band for the normalized clique scaling exponent.
SLOPE_BAND = (1.35, 1.65)


def derive(*parts) -> int:
    """63-bit seed from the workload seed and the coordinates of one input."""
    digest = hashlib.sha256("|".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


#: Iterations of the reference loop, about 2 ms.
REFERENCE_ITERS = 1000
_REFERENCE_GEN = np.random.default_rng(0)


def reference_loop() -> float:
    """Seconds taken by a fixed piece of Python work: the machine's speed now.

    It mixes what the simulator spends its time on: float math around calls
    into a numpy ``Generator`` (the search kernel), integer arithmetic, and
    dict and set churn (graphs, plans, the scheduler's bookkeeping). On
    repeated identical passes, run costs against this loop spread far less
    than against an integer-only loop (3% against 11-14% of the median, over
    passes whose wall time spread 12-16%).
    """
    rand = _REFERENCE_GEN.random
    t0 = perf_counter()
    m, acc, table = 1.0, 0, {}
    for i in range(REFERENCE_ITERS):
        k = int(rand() * m)
        s = math.sin((2 * k + 1) * 0.1)
        m = m * 1.2 if m < 32.0 else 1.0
        acc += i * i % 7
        table[i * 7 % 1013] = table.get(i % 1013, 0) + (s * s > 0.5)
    sorted(x for x in set(table) if x % 3)
    return perf_counter() - t0


class Clock:
    """Times one pass: each run call, the reference loop before the first
    run and after every run, and the pass's wall time without those loops."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.latencies: list[float] = []
        self.refs: list[float] = []
        self._t0 = perf_counter()

    def new_run(self):
        """Start a new run id for the tracer's spans, if there is a tracer."""
        if self.tracer is not None:
            self.tracer.new_run()

    def run(self, fn, *args, **kwargs):
        if not self.refs:
            self.refs.append(reference_loop())
        self.new_run()
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.latencies.append(perf_counter() - t0)
            self.refs.append(reference_loop())

    def elapsed(self) -> float:
        return perf_counter() - self._t0 - sum(self.refs)


@dataclass
class Checked:
    """A pass's outcome as the output checks see it."""

    runs: int
    failed: int
    msgs: list[int]
    lines: list[str]  # digest lines, one per run plus any fit line


class Passes:
    """Inputs per pass; those of the first ``fixed`` passes made at set-up."""

    def __init__(self, seed, fixed):
        self.seed = seed
        self.prefix = [self.make_inputs(r) for r in range(fixed)]

    def inputs(self, r):
        return self.prefix[r] if r < len(self.prefix) else self.make_inputs(r)


class Sweep(Passes):
    """A clique sweep through ``harness.run_sweep`` (with its CSV output),
    optionally followed by ``fit_exponent``. One run is one
    ``harness.run_cell_row`` call."""

    def __init__(self, qw, seed, fixed, out_path, n_values, alpha, seeds_per_cell, fit):
        self.qw = qw
        self.out_path = out_path
        self.n_values = n_values
        self.alpha = alpha
        self.seeds_per_cell = seeds_per_cell
        self.fit = fit
        super().__init__(seed, fixed)

    def make_inputs(self, r):
        return self.qw.harness.ExperimentConfig(
            family="clique",
            n_values=self.n_values,
            alpha_values=(self.alpha,),
            seeds_per_cell=self.seeds_per_cell,
            seed=derive(self.seed, "sweep", r),
            output_csv=self.out_path,
        )

    def execute(self, r, clock: Clock):
        h = self.qw.harness

        def timer(fn):
            return lambda *args, **kwargs: clock.run(fn, *args, **kwargs)

        with patched(h, "run_cell_row", timer):
            rows = h.run_sweep(self.inputs(r), resume=False)
        if not self.fit:
            return rows, None
        clock.new_run()
        return rows, h.fit_exponent(rows, family="clique", alpha=self.alpha)[0]

    def check(self, output) -> Checked:
        rows, fit = output
        failed = sum(1 for row in rows if not row.success)
        buf = io.StringIO()
        self.qw.harness.write_csv(rows, buf)
        lines = buf.getvalue().splitlines()[1:]
        if fit is not None:
            lines.append(fit.to_text())
            if not SLOPE_BAND[0] <= fit.slope <= SLOPE_BAND[1]:
                lines.append(f"check slope {fit.slope:.4f} outside {SLOPE_BAND}")
                failed = len(rows)  # the fit judges the whole pass
        return Checked(len(rows), failed, [row.total for row in rows], lines)


def alphas_for(n: int) -> list[int]:
    """Acceptance 1's advice levels for size n."""
    return list(dict.fromkeys([0, 1, 3, 5, int(math.log2(n))]))


class RandomVerify(Passes):
    """The acceptance-1 shape: seeded random connected graphs, every advice
    level, sleeper-set recording and the phase-lemma check after each run.
    One run is plan + advice + ``run_wakeup`` + ``verify_phase_lemma``; the
    graph is built once per 20-25 runs, inside the pass but outside any
    run's timer."""

    sizes = (32, 128)
    probs = (0.1, 0.2, 0.3, 0.5)
    seeds_per_alpha = 5

    def __init__(self, qw, seed, fixed):
        self.qw = qw
        self.params = qw.scheduler.RunParams(record_actor_sets=True)
        super().__init__(seed, fixed)

    def make_inputs(self, r):
        """[(n, p, graph seed, [(alpha, run seed, wake node), ...]), ...]"""
        graphs = []
        for n in self.sizes:
            for g, p in enumerate(self.probs):
                runs = []
                for alpha in alphas_for(n):
                    for s in range(self.seeds_per_alpha):
                        run_seed = derive(self.seed, "run", r, n, g, alpha, s)
                        wake = int(np.random.default_rng(run_seed).integers(1, n + 1))
                        runs.append((alpha, run_seed, wake))
                graphs.append((n, p, derive(self.seed, "graph", r, n, g), runs))
        return graphs

    def execute(self, r, clock: Clock):
        results = []
        for n, p, gseed, runs in self.inputs(r):
            clock.new_run()
            net = self.qw.network.random_connected_graph(n, p, gseed)
            for alpha, seed, wake_node in runs:
                results.append(clock.run(self._run, net, n, alpha, seed, wake_node))
        return results

    def _run(self, net, n, alpha, seed, wake_node):
        qw = self.qw
        try:
            wake = qw.network.WakeConfig.single(wake_node)
            plan = qw.advice.compute_epoch_plan(net, wake)
            asg = qw.advice.assign_advice(net, plan, alpha)
            t = qw.scheduler.run_wakeup(net, wake, asg, self.params, np.random.default_rng(seed), seed)
            report = qw.scheduler.verify_phase_lemma(t, plan)
            return n, alpha, seed, t, report, None
        except Exception as exc:  # a run error is a failed run, reported with its cause
            return n, alpha, seed, None, None, exc

    def check(self, results) -> Checked:
        failed = 0
        msgs, lines = [], []
        for n, alpha, seed, t, report, exc in results:
            if exc is not None:
                failed += 1
                lines.append(f"error n={n} alpha={alpha} seed={seed} {type(exc).__name__}: {exc}")
                continue
            lines.append(t.summary_line())
            msgs.append(t.ledger.total())
            problems = [] if t.all_awake else ["not all awake"]
            if t.all_awake and not report.ok:
                problems += list(report.violations)
            problems += ledger_problems(self.qw.qsearch, t, self.params.search_c)
            if problems:
                failed += 1
                lines.append(f"check n={n} alpha={alpha} seed={seed}: " + "; ".join(problems))
        return Checked(len(results), failed, msgs, lines)


def ledger_problems(qsearch, t, search_c) -> list[str]:
    """Transcript invariants: per-phase sums equal the ledger totals, and no
    invocation spent more oracle calls than its budget."""
    problems = []
    ledger = t.ledger
    classical = sum(rec.classical for rec in ledger.per_phase)
    quantum = sum(rec.quantum for rec in ledger.per_phase)
    if classical != ledger.classical_total:
        problems.append(f"per-phase classical {classical} != ledger {ledger.classical_total}")
    if quantum != ledger.quantum_total:
        problems.append(f"per-phase quantum {quantum} != ledger {ledger.quantum_total}")
    for log in t.actor_logs:
        for inv in log.invocations:
            budget = qsearch.invocation_budget(inv.size, inv.marked, t.n, search_c)
            if inv.calls > budget:
                problems.append(f"actor {log.node}: {inv.calls} calls over budget {budget}")
    return problems


WORKLOADS = ("clique-scaling", "clique-advised", "random-verify")


def make(name, qw, seed, fixed, out_dir):
    """Build one workload: its set-up makes the inputs of the ``fixed`` first passes."""
    csv_path = os.path.join(out_dir, f"{name}-seed{seed}.csv")
    if name == "clique-scaling":
        return Sweep(qw, seed, fixed, csv_path, n_values=(32, 64, 128, 256), alpha=0,
                     seeds_per_cell=10, fit=True)
    if name == "clique-advised":
        return Sweep(qw, seed, fixed, csv_path, n_values=(256,), alpha=5,
                     seeds_per_cell=25, fit=False)
    if name == "random-verify":
        return RandomVerify(qw, seed, fixed)
    raise ValueError(f"unknown workload {name!r}")


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()

