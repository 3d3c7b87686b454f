"""Command-line entry points.

Subcommands:
  run           one wake-up instance, prints the summary record
  sweep         config file -> CSV of per-run rows
  fit           CSV -> scaling-exponent report
  reduce        end-to-end matching/descriptor reduction check
  routing-demo  two-branch register-routing walkthrough

The default seed comes from QWAKE_SEED when set.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .advice import assign_advice, compute_epoch_plan
from .harness import ExperimentConfig, compare_advice_levels, fit_exponent, read_csv, run_sweep
from .lowerbound import (
    PermutationOracle,
    direct_route_round,
    end_to_end_reduction_check,
    prepare_round_state,
    simulate_routing_round,
    states_equal,
)
from .network import (
    WakeConfig,
    build_hidden_matching_graph,
    clique_graph,
    path_graph,
    random_connected_graph,
    random_perfect_matching,
)
from .scheduler import RunParams, run_wakeup


def _default_seed() -> int:
    return int(os.environ.get("QWAKE_SEED", "0"))


def _add_common(p):
    p.add_argument("--seed", type=int, default=_default_seed())
    p.add_argument(
        "--msg-convention",
        choices=["roundtrip2", "single1"],
        default="roundtrip2",
        help="messages charged per oracle call: query+response, or query only",
    )


def cmd_run(args) -> int:
    if args.family == "clique":
        net = clique_graph(args.n)
    elif args.family == "path":
        net = path_graph(args.n)
    elif args.family == "random":
        net = random_connected_graph(args.n, args.p, args.seed)
    else:
        matching = random_perfect_matching(args.n, args.seed)
        net = build_hidden_matching_graph(args.n, matching).network
    rng = np.random.default_rng(args.seed)
    if args.wake_node is not None:
        wake = WakeConfig.single(args.wake_node)
    else:
        wake = WakeConfig.single(int(rng.integers(1, args.n + 1)))
    plan = compute_epoch_plan(net, wake)
    assignment = assign_advice(net, plan, args.alpha)
    params = RunParams(msg_convention=args.msg_convention, record_events=bool(args.log))
    t = run_wakeup(net, wake, assignment, params, np.random.default_rng(args.seed), args.seed)
    print(t.summary_line())
    if args.log:
        with open(args.log, "w") as f:
            f.write(t.to_text())
        print(f"transcript written to {args.log}")
    return 0 if t.all_awake else 1


def cmd_sweep(args) -> int:
    with open(args.config) as f:
        config = ExperimentConfig.from_text(f.read())
    csv_path = args.out or config.output_csv
    rows = run_sweep(config, csv_path, resume=not args.fresh)
    ok = sum(r.success for r in rows)
    print(f"{len(rows)} rows -> {csv_path} ({ok} successful)")
    return 0


def cmd_fit(args) -> int:
    rows = read_csv(args.csv)
    for fit in fit_exponent(rows):
        print(fit.to_text())
    if args.ratios_n is not None:
        fam = rows[0].family if rows else "clique"
        for ratio in compare_advice_levels(rows, fam, args.ratios_n):
            print(ratio.to_text())
    return 0


def cmd_reduce(args) -> int:
    if args.n % 2:
        print("n must be even", file=sys.stderr)
        return 2
    sigma = random_perfect_matching(args.n, args.seed)
    report = end_to_end_reduction_check(args.n, sigma, args.seed, alpha=args.alpha)
    sys.stdout.write(report.to_text())
    return 0 if report.descriptor_correct else 1


def cmd_routing_demo(args) -> int:
    n = 6
    matching = random_perfect_matching(n, args.seed)
    inst = build_hidden_matching_graph(n, matching)
    oracle = PermutationOracle(matching)
    center = 1
    amp = 1 / math.sqrt(2)
    branches = [
        (amp, [(center, 1, "m1"), (center, 2, "m2")]),
        (amp, [(center, 3, "m3"), (center, 4, "m4")]),
    ]
    sleeping = frozenset(range(n + 1, 2 * n + 1))
    state = prepare_round_state(branches, mu_r=2)
    routed, queries = simulate_routing_round(state, oracle, inst.clique_ports, sleeping)
    expect = direct_route_round(branches, matching, inst.clique_ports, sleeping, mu_r=2)
    print(f"center node {center} sends two messages in each of two branches")
    print(f"hidden matching: {matching}")
    for cfg, a in routed.branches():
        recv = sorted(cfg[2])
        dests = ", ".join(f"{m}->{v}" for (v, _u), m in recv)
        print(f"  branch amplitude {a.real:+.6f}: {dests}")
    print(f"oracle queries used: {queries} (2 per outbox slot)")
    print(f"matches the open-matching reference router: {states_equal(routed, expect)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qwake", description=__doc__)
    sub = ap.add_subparsers(dest="command")

    p = sub.add_parser("run", help="run one wake-up instance")
    p.add_argument("--family", choices=["clique", "random", "path", "hidden-matching"], default="clique")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--p", type=float, default=0.3, help="edge probability for the random family")
    p.add_argument("--alpha", type=int, default=0)
    p.add_argument("--wake-node", type=int, default=None)
    p.add_argument("--log", default=None, help="write the full transcript here")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("sweep", help="run a config file's sweep to CSV")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.add_argument("--fresh", action="store_true", help="ignore existing rows instead of resuming")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("fit", help="fit scaling exponents from a sweep CSV")
    p.add_argument("csv")
    p.add_argument("--ratios-n", type=int, default=None, help="also print advice-level ratios at this n")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("reduce", help="end-to-end reduction check on a hidden-matching instance")
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--alpha", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("routing-demo", help="two-branch register-routing walkthrough")
    _add_common(p)
    p.set_defaults(fn=cmd_routing_demo)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if not getattr(args, "command", None):
        ap.print_help()
        return 2
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
