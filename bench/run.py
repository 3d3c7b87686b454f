"""qwake benchmark: one workload, closed loop, one process, one thread.

    python3 bench/run.py --workload clique-scaling --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each run call starts when the previous one has returned. The
workload runs in passes, each with its own inputs (see ``workloads.py``):
the ``FIXED_PASSES`` first passes always, then more until ``--seconds`` of
timed work have passed. The timed figures are costs in reference loops (see
``workloads.Clock``): a run's time over the time of a fixed pure-Python loop
run beside it, so that the drifting speed of a shared machine cancels out.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs the first
pass untraced and then traced, and prints the per-layer metrics; it also
self-tests the tracer (same output digest with and without it, every
wrapped attribute restored, self times >= 0 and summing to at most the
traced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
the run environment, the sample count and the output digest; the same record
is written to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy
import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
#: Fewest child processes timed for ``setup_s``, one after each pass and
#: the rest after the last, so that they meet the machine at different
#: speeds; the median is reported.
SETUP_REPEATS = 9
#: Passes that every run makes; the digest and ``msgs_p50`` come from them.
FIXED_PASSES = 3


def import_qwake():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "qwake", "__init__.py")):
        sys.exit(f"bench: no qwake sources under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, SRC)
    import qwake
    from qwake import advice, harness, network, qsearch, scheduler

    if os.path.dirname(os.path.abspath(qwake.__file__)) != os.path.join(SRC, "qwake"):
        sys.exit(f"bench: imported qwake from {qwake.__file__}, not from {SRC}")
    return SimpleNamespace(
        advice=advice, harness=harness, network=network, qsearch=qsearch, scheduler=scheduler
    )


def pin_cpu() -> int | None:
    """Run on one fixed CPU, the last this process may use.

    On a 2-vCPU machine the two CPUs ran the same code at speeds up to 1.5x
    apart, steadily within a process; left unpinned, each process lands on
    either and the timings of a workload split into two clusters.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the workload, then exit (timed for setup_s)")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def prepare(args):
    """Everything before the first timed run: imports and the inputs."""
    qw = import_qwake()
    os.makedirs(OUT, exist_ok=True)
    return qw, workloads.make(args.workload, qw, args.seed, FIXED_PASSES, OUT)


@dataclass
class Pass:
    """One pass over the workload's inputs."""

    latencies: list  # seconds per run, in input order
    refs: list  # seconds of the reference loop before the first run and after each
    elapsed: float  # wall of the pass without the reference loops: runs plus CSV, fit or graph builds
    checked: workloads.Checked

    def costs(self) -> list[float]:
        """Each run's time over the mean of the reference loops beside it."""
        return [t * 2 / (a + b) for t, a, b in zip(self.latencies, self.refs, self.refs[1:])]

    def cost(self) -> float:
        """The pass's time in reference loops: its runs' costs plus the time
        spent between run calls (CSV writing, the fit, graph builds)."""
        between_s = self.elapsed - sum(self.latencies)
        return sum(self.costs()) + between_s / statistics.median(self.refs)


def run_pass(workload, r, tracer=None) -> Pass:
    """Run pass ``r``, then check its outputs outside the timed region."""
    clock = workloads.Clock(tracer)
    output = workload.execute(r, clock)
    elapsed = clock.elapsed()
    return Pass(clock.latencies, clock.refs, elapsed, workload.check(output))


def measure(workload, seconds, after_pass) -> list[Pass]:
    """Closed loop over passes: the fixed ones, then more until ``seconds``
    of timed work have passed. ``after_pass()`` runs after each, untimed."""
    passes = []
    while len(passes) < FIXED_PASSES or sum(p.elapsed for p in passes) < seconds:
        passes.append(run_pass(workload, len(passes)))
        after_pass()
    return passes


def setup_once(args) -> float:
    """Wall time of a fresh process that only sets up this workload."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def git_rev() -> str | None:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over the package sources, naming the code when there is no git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "qwake")
    for name in sorted(os.listdir(pkg)):
        path = os.path.join(pkg, name)
        if os.path.isfile(path):
            h.update(name.encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment(qw, args, passes, cpu) -> dict:
    return {
        "backend": qw.qsearch.BACKEND,
        "qwake_pure_python_set": bool(os.environ.get("QWAKE_PURE_PYTHON")),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "pinned_cpu": cpu,
        "git_rev": git_rev(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "runs": sum(len(p.latencies) for p in passes),
        "passes": len(passes),
        "timed_s": sum(p.elapsed for p in passes),
    }


def p90(xs) -> float:
    return statistics.quantiles(xs, n=10)[8]


def end_to_end(passes, setup_s: float) -> dict:
    costs = [c for p in passes for c in p.costs()]
    fixed = passes[:FIXED_PASSES]
    return {
        "setup_s": (setup_s, "s"),
        "runs_per_kref": (len(costs) * 1e3 / sum(p.cost() for p in passes), "1/kref"),
        "run_ref_p90": (p90(costs), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "msgs_p50": (statistics.median(m for p in fixed for m in p.checked.msgs), "msgs"),
    }


def traced_passes(qw, workload, args):
    """Per-layer metrics and the tracer self-test.

    The first pass runs untraced and then traced, on the same inputs and in
    nearly the same machine state, so the tracing overhead compares like
    with like.
    """
    watched = [(m, a) for m, a, _ in tracing.targets(qw)] + [(qw.qsearch, "search_invocation")]
    before = [(m, a, getattr(m, a)) for m, a in watched]
    tracer = tracing.Tracer()
    untraced = run_pass(workload, 0)
    with tracer.installed(qw):
        traced = run_pass(workload, 0, tracer)
    problems = [f"{m.__name__}.{a} not restored after tracing"
                for m, a, fn in before if getattr(m, a) is not fn]
    if traced.checked.lines != untraced.checked.lines:
        problems.append("traced and untraced outputs differ")
    problems += tracer.self_time_problems(traced.elapsed)
    metrics = tracing.layer_metrics(tracer, traced.elapsed)
    metrics["trace.overhead_frac"] = (1 - untraced.cost() / traced.cost(), "ratio")
    tracer.write_spans(os.path.join(OUT, f"{args.workload}-seed{args.seed}.spans.jsonl"))
    return [untraced, traced], metrics, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    cpu = pin_cpu()
    qw, workload = prepare(args)
    if args.setup_only:
        return 0
    if args.trace:
        passes, metrics, problems = traced_passes(qw, workload, args)
    else:
        setup = []
        passes = measure(workload, args.seconds, lambda: setup.append(setup_once(args)))
        setup += [setup_once(args) for _ in range(SETUP_REPEATS - len(setup))]
        metrics = end_to_end(passes, statistics.median(setup))
        problems = []
    fixed = passes[:1] if args.trace else passes[:FIXED_PASSES]
    lines = [line for p in fixed for line in p.checked.lines]

    attempted = sum(p.checked.runs for p in passes)
    failed = sum(p.checked.failed for p in passes)
    record = {
        "env": environment(qw, args, passes, cpu),
        "fail_rate": failed / attempted,
        "digest": workloads.digest(lines),
        "digest_lines": len(lines),
        "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}.digest.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")
    print("env " + json.dumps(record["env"]))
    timed = passes[:1] if args.trace else passes
    ms = [t * 1e3 for p in timed for t in p.latencies]
    costs = [c for p in timed for c in p.costs()]
    refs = [r for p in timed for r in p.refs]
    print(f"samples {len(ms)} runs in {len(timed)} passes "
          f"over {sum(p.elapsed for p in timed):.3f}s; run cost p50 {statistics.median(costs):.3f} "
          f"p90 {p90(costs):.3f} ref; wall {len(ms) / sum(p.elapsed for p in timed):.3f} runs/s, "
          f"run ms p50 {statistics.median(ms):.3f} p90 {p90(ms):.3f}, "
          f"reference loop ms p50 {statistics.median(refs) * 1e3:.4f}")
    print(f"digest sha256={record['digest']} lines={record['digest_lines']} (fixed passes)")
    print(f"checks attempted={attempted} failed={failed} fail_rate={record['fail_rate']:.4f}")
    for problem in problems:
        print(f"self-test: {problem}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
