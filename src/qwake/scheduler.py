"""Synchronous round engine for the advised wake-up run.

Execution is divided into epochs of n phases; only the node whose ID equals
the phase number may act, and only once ever. A node woken during an epoch
waits and acts in its ID's phase of the next epoch. Each phase is budgeted
tau = ceil(C_tau * n * log2 n) rounds; the engine advances phases on a
global barrier but still charges the full tau rounds of simulated time.

Actor rules:
  * g = 1, or no advice at all: search the entire port range, waking every
    sleeper found.
  * g = 0 with empty range bits: skip the phase.
  * g = 0 with range bits: search the advised range, wake each found
    sleeper with one classical message (carrying the local clock); a woken
    node holding proxy bits replies with them in one classical message, and
    the reply names the next disjoint range to search. Stops when a batch
    yields no new proxy advice.

Sleeping nodes are never woken by quantum traffic; the amplitude-level
search accounts those messages without delivering content. Every wake is
exactly one classical message and takes effect one round after it is sent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import qsearch
from .advice import AdviceAssignment, EpochPlan, port_range, tree_depth
from .network import PortNetwork, WakeConfig, awake_distance


class SchedulerError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunParams:
    search_c: float = qsearch.DEFAULT_SEARCH_C
    iter_c: float = qsearch.DEFAULT_ITER_C
    c_tau: float = 8.0
    repetition_factor: int | None = None  # default: ceil(3 * log2 n)
    max_epochs: int | None = None  # default: n + 2
    msg_convention: str = "roundtrip2"  # or "single1"
    strict_tau: bool = False
    record_events: bool = False
    record_actor_sets: bool = True
    # Test hook: (node, invocation ordinal within its phase) pairs whose
    # search result is discarded, forcing a NULL return.
    force_null: frozenset = frozenset()

    @property
    def quantum_per_call(self) -> int:
        if self.msg_convention == "roundtrip2":
            return 2
        if self.msg_convention == "single1":
            return 1
        raise ValueError(f"unknown message convention {self.msg_convention!r}")


@dataclass(frozen=True)
class PhaseRecord:
    epoch: int
    phase: int
    actor: int
    classical: int
    quantum: int
    rounds_used: int


@dataclass
class MessageLedger:
    classical_total: int = 0
    quantum_total: int = 0
    wake_messages: int = 0
    proxy_replies: int = 0
    flood_messages: int = 0
    per_phase: list[PhaseRecord] = field(default_factory=list)

    def total(self) -> int:
        return self.classical_total + self.quantum_total


@dataclass(frozen=True)
class InvocationLog:
    size: int  # ports in the searched set
    marked: int  # sleepers among them at invocation start
    calls: int
    found_port: int | None


@dataclass(frozen=True)
class ActorLog:
    node: int
    epoch: int
    phase: int
    g: int | None
    ranges: tuple[tuple[int, int], ...]
    invocations: tuple[InvocationLog, ...]
    chain_len: int
    woken: tuple[int, ...]
    sleep_before: tuple[int, ...] | None
    sleep_after: tuple[int, ...] | None
    anomalies: tuple[str, ...] = ()

    @property
    def oracle_calls(self) -> int:
        return sum(i.calls for i in self.invocations)


@dataclass(frozen=True)
class RunTranscript:
    kind: str  # "wakeup" or "flood"
    n: int
    alpha: int
    beta: int
    seed: int | None
    tau: int
    ledger: MessageLedger
    wake_round: dict[int, int]  # 0 for initially awake nodes
    actor_logs: tuple[ActorLog, ...]
    all_awake: bool
    epochs_executed: int
    rounds_total: int
    tau_overflows: tuple[int, ...] = ()
    events: tuple[tuple[int, str, str], ...] = ()

    def summary(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "alpha": self.alpha,
            "beta": self.beta,
            "seed": self.seed,
            "classical": self.ledger.classical_total,
            "quantum": self.ledger.quantum_total,
            "total": self.ledger.total(),
            "rounds": self.rounds_total,
            "epochs": self.epochs_executed,
            "all_awake": self.all_awake,
        }

    def summary_line(self) -> str:
        s = self.summary()
        return (
            f"kind={s['kind']} n={s['n']} alpha={s['alpha']} beta={s['beta']} "
            f"seed={s['seed']} classical={s['classical']} quantum={s['quantum']} "
            f"total={s['total']} rounds={s['rounds']} epochs={s['epochs']} "
            f"all_awake={int(s['all_awake'])}"
        )

    def to_text(self) -> str:
        """Deterministic full serialization (used by determinism checks)."""
        lines = [self.summary_line()]
        lines.append(
            f"wakes={self.ledger.wake_messages} replies={self.ledger.proxy_replies} "
            f"flood={self.ledger.flood_messages} tau={self.tau}"
        )
        for v in sorted(self.wake_round):
            lines.append(f"wake {v} {self.wake_round[v]}")
        for log in self.actor_logs:
            rng_txt = ",".join(f"{a}-{b}" for a, b in log.ranges) or "-"
            inv_txt = (
                ";".join(
                    f"{i.size}/{i.marked}/{i.calls}/{i.found_port if i.found_port is not None else '-'}"
                    for i in log.invocations
                )
                or "-"
            )
            lines.append(
                f"actor {log.node} e={log.epoch} p={log.phase} g={log.g} chain={log.chain_len} "
                f"ranges={rng_txt} inv={inv_txt} woken={','.join(map(str, log.woken)) or '-'}"
            )
        for rec in self.ledger.per_phase:
            lines.append(
                f"phase e={rec.epoch} p={rec.phase} a={rec.actor} c={rec.classical} "
                f"q={rec.quantum} r={rec.rounds_used}"
            )
        for round_no, kind, payload in self.events:
            lines.append(f"event {round_no} {kind} {payload}")
        return "\n".join(lines) + "\n"

    def quantum_sent_by(self, node_pred) -> int:
        return sum(rec.quantum for rec in self.ledger.per_phase if node_pred(rec.actor))


def phase_length(n: int, c_tau: float) -> int:
    return math.ceil(c_tau * n * math.log2(max(n, 2)))


class _Run:
    """Mutable state for one wake-up execution."""

    def __init__(self, network, wake, assignment, params, rng, seed):
        self.net = network
        self.params = params
        self.rng = rng
        self.assignment = assignment
        self.n = network.n
        self.tau = phase_length(self.n, params.c_tau)
        self.reps = (
            params.repetition_factor
            if params.repetition_factor is not None
            else qsearch.default_repetitions(self.n)
        )
        self.qmult = params.quantum_per_call
        self.awake: set[int] = set(wake.awake_set)
        self.acted: set[int] = set()
        self.wake_round: dict[int, int] = {v: 0 for v in wake.awake_set}
        self.ledger = MessageLedger()
        self.actor_logs: list[ActorLog] = []
        self.tau_overflows: list[int] = []
        self.events: list[tuple[int, str, str]] = []
        self.seed = seed

    def event(self, round_no: int, kind: str, payload: str):
        if self.params.record_events:
            self.events.append((round_no, kind, payload))

    def actor_phase(self, v: int, epoch: int, phase: int):
        p = self.params
        net = self.net
        adv = self.assignment.of(v)
        r0 = ((epoch - 1) * self.n + (phase - 1)) * self.tau + 1
        self.event(r0, "actor-begin", f"node={v} g={adv.g}")
        offset = 0
        classical0 = self.ledger.classical_total
        quantum0 = self.ledger.quantum_total
        invocations: list[InvocationLog] = []
        ranges: list[tuple[int, int]] = []
        woken: list[int] = []
        anomalies: list[str] = []
        chain_len = 0
        nbrs = net.neighbors(v)
        sleep_before = (
            tuple(sorted(u for u in nbrs if u not in self.awake))
            if p.record_actor_sets
            else None
        )

        def search_ports(ports: list[int]) -> list[str]:
            """Iterated search over a port list; wakes found sleepers and
            returns the nonempty proxy strings received in this batch."""
            nonlocal offset
            replies: list[str] = []
            remaining = list(ports)
            # Within one batch the only node woken is the one at the found
            # port, so dropping that port keeps the list exact.
            marked = [j for j in remaining if nbrs[j - 1] not in self.awake]
            while remaining:
                budget = qsearch.invocation_budget(len(remaining), len(marked), self.n, p.search_c)
                idx, calls = qsearch.search_invocation(
                    len(remaining), len(marked), budget, self.reps, self.rng
                )
                if (v, len(invocations)) in p.force_null:
                    idx = -1
                self.ledger.quantum_total += self.qmult * calls
                found = marked[idx] if idx >= 0 else None
                invocations.append(InvocationLog(len(remaining), len(marked), calls, found))
                self.event(r0 + offset, "quantum-search", f"node={v} size={len(remaining)} marked={len(marked)} calls={calls}")
                offset += calls
                if found is None:
                    break
                remaining.remove(found)
                del marked[idx]
                u = nbrs[found - 1]
                r_send = r0 + offset
                offset += 1
                self.ledger.classical_total += 1
                self.ledger.wake_messages += 1
                self.awake.add(u)
                self.wake_round[u] = r_send + 1
                woken.append(u)
                self.event(r_send, "classical-send", f"wake {v}->{u} port={found}")
                self.event(r_send + 1, "wake", f"node={u}")
                u_adv = self.assignment.of(u)
                if u_adv.proxy_bits:
                    r_reply = r0 + offset
                    offset += 1
                    self.ledger.classical_total += 1
                    self.ledger.proxy_replies += 1
                    replies.append(u_adv.proxy_bits)
                    self.event(r_reply, "classical-send", f"proxy {u}->{v}")
            return replies

        if adv.g == 1 or adv.g is None:
            full = list(range(1, net.degree(v) + 1))
            ranges.append((1, net.degree(v)))
            search_ports(full)
        elif adv.range_bits == "":
            pass  # g = 0 with no range bits: nothing to find, skip the turn
        else:
            depth = tree_depth(net.degree(v))
            seen_bits: set[str] = set()
            bits = adv.range_bits[:depth]
            while True:
                chain_len += 1
                if bits in seen_bits:
                    anomalies.append(f"repeated range path {bits!r}")
                    break
                seen_bits.add(bits)
                rng_ = port_range(net.degree(v), bits)
                ranges.append((rng_.lo, rng_.hi))
                replies = search_ports(list(rng_.ports()))
                if not replies:
                    break
                if len(replies) > 1:
                    anomalies.append(f"{len(replies)} proxy replies in one batch")
                bits = replies[0][:depth]
                if chain_len > net.degree(v):
                    anomalies.append("chain longer than the degree")
                    break

        if offset > self.tau:
            self.tau_overflows.append(v)
            if p.strict_tau:
                raise SchedulerError(
                    f"actor {v} used {offset} rounds in a {self.tau}-round phase"
                )
        sleep_after = (
            tuple(sorted(u for u in nbrs if u not in self.awake))
            if p.record_actor_sets
            else None
        )
        self.actor_logs.append(
            ActorLog(
                v,
                epoch,
                phase,
                adv.g,
                tuple(ranges),
                tuple(invocations),
                chain_len,
                tuple(woken),
                sleep_before,
                sleep_after,
                tuple(anomalies),
            )
        )
        self.ledger.per_phase.append(
            PhaseRecord(
                epoch,
                phase,
                v,
                self.ledger.classical_total - classical0,
                self.ledger.quantum_total - quantum0,
                offset,
            )
        )
        self.event(r0 + max(offset - 1, 0), "actor-end", f"node={v}")


def run_wakeup(
    network: PortNetwork,
    wake: WakeConfig,
    assignment: AdviceAssignment,
    params: RunParams = RunParams(),
    rng=None,
    seed: int | None = None,
) -> RunTranscript:
    """Execute the advised wake-up algorithm; deterministic given the rng."""
    if rng is None:
        import numpy as np

        rng = np.random.default_rng(seed)
    run = _Run(network, wake, assignment, params, rng, seed)
    n = network.n
    max_epochs = params.max_epochs if params.max_epochs is not None else n + 2
    epochs_executed = 0
    epoch = 0
    while True:
        epoch += 1
        eligible = {v for v in run.awake if v not in run.acted}
        if not eligible:
            break
        if epoch > max_epochs:
            break
        epochs_executed += 1
        run.event((epoch - 1) * n * run.tau + 1, "epoch-start", f"epoch={epoch}")
        for phase in range(1, n + 1):
            if phase in eligible:
                run.actor_phase(phase, epoch, phase)
                run.acted.add(phase)
    all_awake = len(run.awake) == n
    return RunTranscript(
        "wakeup",
        n,
        run.assignment.alpha,
        run.assignment.beta,
        seed,
        run.tau,
        run.ledger,
        run.wake_round,
        tuple(run.actor_logs),
        all_awake,
        epochs_executed,
        epochs_executed * n * run.tau,
        tuple(run.tau_overflows),
        tuple(run.events),
    )


@dataclass(frozen=True)
class PhaseLemmaReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_phase_lemma(transcript: RunTranscript, plan: EpochPlan) -> PhaseLemmaReport:
    """Check, actor by actor, that the planned sleeper sets were exactly the
    sleeping neighbors at phase start and that none remained at phase end."""
    violations: list[str] = []
    logs = {log.node: log for log in transcript.actor_logs}
    for epoch in plan.epochs:
        for v in epoch.actors:
            planned = tuple(sorted(epoch.assigned[v]))
            log = logs.get(v)
            if log is None:
                violations.append(f"actor {v}: no phase executed (planned epoch {epoch.index})")
                continue
            if log.epoch != epoch.index:
                violations.append(
                    f"actor {v}: acted in epoch {log.epoch}, planned epoch {epoch.index}"
                )
            if log.sleep_before is None:
                violations.append(f"actor {v}: run did not record sleeper sets")
                continue
            if log.sleep_before != planned:
                violations.append(
                    f"actor {v}: sleeping neighbors at phase start {log.sleep_before} "
                    f"!= planned {planned}"
                )
            if log.sleep_after:
                violations.append(
                    f"actor {v}: sleepers remained at phase end: {log.sleep_after}"
                )
    planned_nodes = {v for e in plan.epochs for v in e.actors}
    for v, log in logs.items():
        if v not in planned_nodes:
            violations.append(f"actor {v}: acted but is in no planned epoch")
    return PhaseLemmaReport(tuple(violations))


def baseline_flood(network: PortNetwork, wake: WakeConfig) -> RunTranscript:
    """Classical flooding: every node sends once on every port after waking.

    Total messages are exactly 2|E| and the wave completes in awake-distance
    rounds.
    """
    ledger = MessageLedger()
    wake_round: dict[int, int] = {v: 0 for v in wake.awake_set}
    frontier = sorted(wake.awake_set)
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for v in frontier:
            ledger.classical_total += network.degree(v)
            ledger.flood_messages += network.degree(v)
            for u, _ in network.adj[v - 1]:
                if u not in wake_round:
                    wake_round[u] = dist
                    ledger.wake_messages += 1
                    nxt.append(u)
        frontier = sorted(nxt)
    arad = awake_distance(network, wake)
    return RunTranscript(
        "flood",
        network.n,
        0,
        0,
        None,
        0,
        ledger,
        wake_round,
        (),
        len(wake_round) == network.n,
        0,
        arad,
    )
