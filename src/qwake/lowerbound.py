"""Query-model toolkit: oracles, the involution lift, and register routing.

The routing simulator moves superposed per-port messages of the clique
centers into edge-level receive registers while charging exactly two oracle
queries per outbox slot: each slot is processed by a load/query/dispatch/
query/load sandwich whose second query uncomputes the answer qubit. Message
payloads are opaque tokens; the simulation tracks register movement, query
counts, and the -1 phase a sleeping recipient's quantum interface reflects.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .advice import assign_advice, compute_epoch_plan
from .network import WakeConfig, build_hidden_matching_graph
from .scheduler import RunParams, run_wakeup

AMP_TOL = 1e-12


class RoutingError(RuntimeError):
    pass


class PermutationOracle:
    """Query access to the matrix of a permutation: P[i, j] = 1 iff s(i) = j.

    ``query`` is the classical bit-flip interface and counts one query per
    read. ``charge`` books the cost of one unitary application batched over
    a superposition (used by the routing simulator, which reads entries per
    branch but pays once per application).
    """

    def __init__(self, sigma):
        self.sigma = tuple(int(x) for x in sigma)
        n = len(self.sigma)
        if sorted(self.sigma) != list(range(1, n + 1)):
            raise ValueError("sigma must be a permutation of 1..n")
        self.n = n
        self.query_count = 0

    def _bit(self, i: int, j: int) -> int:
        self._check(i, j)
        return 1 if self.sigma[i - 1] == j else 0

    def _check(self, i: int, j: int):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"index ({i},{j}) outside [1,{self.n}]^2")

    def query(self, i: int, j: int, b: int = 0) -> int:
        self.query_count += 1
        return b ^ self._bit(i, j)

    def charge(self, k: int = 1):
        self.query_count += k


class InvolutionOracle:
    """Lift of a permutation oracle on [n] to a fixed-point-free involution
    on [2n]: s'(i) = n + s(i) and s'(n+i) = s^{-1}(i).

    Same-side queries (both indices <= n, or both > n) are answered 0 with no
    base query; cross-side queries use exactly one base query.
    """

    def __init__(self, base: PermutationOracle):
        self.base = base
        self.n = 2 * base.n
        self.query_count = 0

    def _bit(self, i: int, j: int) -> int:
        n = self.base.n
        if (i <= n) == (j <= n):
            return 0
        if i > n:
            return self.base._bit(j, i - n)
        return self.base._bit(i, j - n)

    def query(self, i: int, j: int, b: int = 0) -> int:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"index ({i},{j}) outside [1,{self.n}]^2")
        self.query_count += 1
        n = self.base.n
        if (i <= n) == (j <= n):
            return b  # zero block, no base query
        if i > n:
            return self.base.query(j, i - n, b)
        return self.base.query(i, j - n, b)

    def charge(self, k: int = 1):
        self.query_count += k
        self.base.charge(k)

    def sigma_prime(self, i: int) -> int:
        n = self.base.n
        if i <= n:
            return n + self.base.sigma[i - 1]
        return self.base.sigma.index(i - n) + 1


def descriptor_from_lifted(z_prime, n: int) -> tuple[int, ...]:
    """Fold the 2n-bit parity string of the lifted involution back to the
    n-bit parity string of the base permutation: z_i = z'_i xor (n mod 2)."""
    z_prime = tuple(int(b) for b in z_prime)
    if len(z_prime) != 2 * n:
        raise ValueError(f"lifted descriptor must have length {2 * n}")
    return tuple(z_prime[i] ^ (n % 2) for i in range(n))


def single_bit_descriptor(sigma) -> tuple[int, ...]:
    return tuple(x % 2 for x in sigma)


def tgt(i: int, j: int, b: int, clique_ports) -> int:
    """Destination of a message from center i on port j given the answer bit:
    the pendant n+i when b = 1, else the clique partner at that port."""
    n = len(clique_ports)
    row = clique_ports[i - 1]
    if not (1 <= j <= len(row)):
        raise ValueError(f"port {j} invalid for center {i}")
    if b:
        return n + i
    return row[j - 1]


# ---------------------------------------------------------------------------
# Sparse amplitude state over the routing registers
# ---------------------------------------------------------------------------
#
# A basis configuration is a tuple (outbox, sends, receives, ws):
#   outbox   tuple of mu_r entries, each None or (i, j, message)
#   sends    frozenset of ((u, v), message) edge-level send registers
#   receives frozenset of ((v, u), message) edge-level receive registers
#   ws       workspace registers (I, J, B); vacuum is (None, None, 0)
# Messages are opaque hashable tokens.

VACUUM_WS = (None, None, 0)


@dataclass
class SparseQuantumState:
    mu_r: int
    amplitudes: dict[tuple, complex]

    def norm(self) -> float:
        return math.fsum(abs(a) ** 2 for a in self.amplitudes.values())

    def check_norm(self, expected: float = 1.0):
        if abs(self.norm() - expected) > AMP_TOL:
            raise RoutingError(f"normalization drift: {self.norm()} != {expected}")

    def branches(self):
        return sorted(self.amplitudes.items(), key=lambda kv: repr(kv[0]))

    def map_branches(self, fn) -> "SparseQuantumState":
        """Apply a signed basis-permutation fn: config -> (config, phase)."""
        out: dict[tuple, complex] = {}
        for cfg, amp in self.amplitudes.items():
            new_cfg, phase = fn(cfg)
            if new_cfg in out:
                raise RoutingError("basis permutation collided; operation not unitary")
            out[new_cfg] = amp * phase
        return SparseQuantumState(self.mu_r, out)


def prepare_round_state(branches, mu_r: int) -> SparseQuantumState:
    """Compact each branch's port sends into outbox slots (stable order by
    (node, port)) and initialize all other registers to vacuum.

    ``branches`` is a list of (amplitude, sends) where sends is a list of
    (center_id, port, message).
    """
    amplitudes: dict[tuple, complex] = {}
    for amp, sends in branches:
        if len(sends) > mu_r:
            raise RoutingError(f"outbox overflow: {len(sends)} sends > mu_r={mu_r}")
        keys = [(int(i), int(j)) for i, j, _ in sends]
        if len(set(keys)) != len(keys):
            raise RoutingError("two messages on the same (node, port)")
        ordered = tuple(sorted(((int(i), int(j), m) for i, j, m in sends), key=lambda e: (e[0], e[1])))
        outbox = ordered + (None,) * (mu_r - len(ordered))
        cfg = (outbox, frozenset(), frozenset(), VACUUM_WS)
        if cfg in amplitudes:
            raise RoutingError("duplicate branch configuration")
        amplitudes[cfg] = complex(amp)
    state = SparseQuantumState(mu_r, amplitudes)
    state.check_norm()
    return state


def _route_entry(state: SparseQuantumState, t: int, oracle, clique_ports) -> SparseQuantumState:
    """Apply the load/query/dispatch/query/load sandwich for outbox slot t.

    The two oracle applications are charged to the oracle (and to the round's
    query counter by the caller) regardless of how many branches hold a
    vacuum entry in slot t.
    """

    def load(cfg):
        outbox, sends, receives, ws = cfg
        entry = outbox[t]
        if entry is None:
            return cfg, 1.0
        i, j, m = entry
        if ws[:2] != (None, None):
            raise RoutingError("workspace not vacuum before load")
        return (outbox, sends, receives, (i, j, ws[2])), 1.0

    def query(cfg):
        outbox, sends, receives, ws = cfg
        i, j, b = ws
        if i is None:
            return cfg, 1.0
        bit = oracle._bit(i, clique_ports[i - 1][j - 1])
        return (outbox, sends, receives, (i, j, b ^ bit)), 1.0

    def dispatch(cfg):
        outbox, sends, receives, ws = cfg
        i, j, b = ws
        entry = outbox[t]
        if i is None or entry is None:
            return cfg, 1.0
        ei, ej, m = entry
        if m is None:
            return cfg, 1.0
        dest = tgt(i, j, b, clique_ports)
        key = (i, dest)
        if any(k == key for k, _ in sends):
            raise RoutingError(f"send register {key} already occupied")
        new_outbox = outbox[:t] + ((ei, ej, None),) + outbox[t + 1 :]
        return (new_outbox, sends | {(key, m)}, receives, ws), 1.0

    def unload(cfg):
        outbox, sends, receives, ws = cfg
        i, j, b = ws
        if i is None:
            return cfg, 1.0
        if b != 0:
            raise RoutingError("answer qubit not uncomputed")
        return (outbox, sends, receives, (None, None, b)), 1.0

    state = state.map_branches(load)
    oracle.charge(1)
    state = state.map_branches(query)
    state = state.map_branches(dispatch)
    oracle.charge(1)
    state = state.map_branches(query)
    return state.map_branches(unload)


def deliver(state: SparseQuantumState, sleeping, classical_tokens=frozenset()) -> SparseQuantumState:
    """Swap every send register into the matching receive register. Quantum
    messages arriving at a sleeping node flip the branch amplitude's sign."""
    sleeping = frozenset(sleeping)
    classical_tokens = frozenset(classical_tokens)

    def fn(cfg):
        outbox, sends, receives, ws = cfg
        phase = 1.0
        new_receives = set(receives)
        for (u, v), m in sends:
            key = ((v, u), m)
            if any(k == (v, u) for k, _ in new_receives):
                raise RoutingError(f"receive register ({v},{u}) already occupied")
            new_receives.add(key)
            if v in sleeping and m not in classical_tokens:
                phase = -phase
        return (outbox, frozenset(), frozenset(new_receives), ws), phase

    return state.map_branches(fn)


def simulate_routing_round(
    state: SparseQuantumState,
    oracle,
    clique_ports,
    sleeping=frozenset(),
    classical_tokens=frozenset(),
) -> tuple[SparseQuantumState, int]:
    """Route one round: per outbox slot the five-step sandwich, then edge
    delivery. Returns the post-round state and the exact query count 2*mu_r.
    """
    norm0 = state.norm()
    if abs(norm0 - 1.0) > AMP_TOL:
        raise RoutingError(f"input state not normalized: {norm0}")
    queries = 0
    for t in range(state.mu_r):
        state = _route_entry(state, t, oracle, clique_ports)
        queries += 2
    state = deliver(state, sleeping, classical_tokens)
    state.check_norm(norm0)
    for outbox, _sends, _receives, ws in state.amplitudes:
        if ws != VACUUM_WS:
            raise RoutingError("workspace registers not restored to vacuum")
        for entry in outbox:
            if entry is not None and entry[2] is not None:
                raise RoutingError("outbox message slot not emptied")
    return state, queries


def direct_route_round(
    branches, matching, clique_ports, sleeping=frozenset(), classical_tokens=frozenset(), mu_r=None
) -> SparseQuantumState:
    """Reference router that reads the matching openly (no oracle): each
    (i, port, message) goes straight to the true neighbor's receive register.
    """
    n = len(clique_ports)
    if mu_r is None:
        mu_r = max((len(s) for _, s in branches), default=0)
    sleeping = frozenset(sleeping)
    classical_tokens = frozenset(classical_tokens)
    amplitudes: dict[tuple, complex] = {}
    for amp, sends in branches:
        ordered = tuple(sorted(((int(i), int(j), m) for i, j, m in sends), key=lambda e: (e[0], e[1])))
        outbox = tuple((i, j, None) for i, j, _ in ordered) + (None,) * (mu_r - len(ordered))
        phase = 1.0
        receives = set()
        for i, j, m in ordered:
            partner = clique_ports[i - 1][j - 1]
            dest = n + i if matching[i - 1] == partner else partner
            receives.add(((dest, i), m))
            if dest in sleeping and m not in classical_tokens:
                phase = -phase
        cfg = (outbox, frozenset(), frozenset(receives), VACUUM_WS)
        amplitudes[cfg] = complex(amp) * phase
    return SparseQuantumState(mu_r, amplitudes)


def states_equal(a: SparseQuantumState, b: SparseQuantumState, tol: float = AMP_TOL) -> bool:
    keys = set(a.amplitudes) | set(b.amplitudes)
    return all(abs(a.amplitudes.get(k, 0) - b.amplitudes.get(k, 0)) <= tol for k in keys)


# ---------------------------------------------------------------------------
# Matching outputs -> descriptor
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DescriptorResult:
    success: bool
    z: tuple[int, ...] | None
    errors: tuple[str, ...] = ()
    uncovered: tuple = ()


def matching_to_descriptor(matching_outputs: dict, n: int, true_matching=None) -> DescriptorResult:
    """Symmetrize per-center partner claims into a full involution and emit
    the parity descriptor. Succeeds iff the claims are consistent and every
    matched edge is reported by at least one endpoint."""
    errors: list[str] = []
    claims = {int(i): int(x) for i, x in matching_outputs.items() if x is not None}
    full: dict[int, int] = {}
    for i, x in sorted(claims.items()):
        if not (1 <= x <= n) or x == i:
            errors.append(f"center {i} claims invalid partner {x}")
            continue
        if x in claims and claims[x] != i:
            errors.append(f"center {i} claims {x} but {x} claims {claims[x]}")
            continue
        if true_matching is not None and true_matching[i - 1] != x:
            errors.append(f"center {i} claims {x}, true partner is {true_matching[i - 1]}")
            continue
        for a, b in ((i, x), (x, i)):
            if a in full and full[a] != b:
                errors.append(f"conflicting claims give {a} two partners")
            full[a] = b
    if errors:
        return DescriptorResult(False, None, tuple(errors))
    if true_matching is not None:
        uncovered = tuple(
            (i, true_matching[i - 1])
            for i in range(1, n + 1)
            if i < true_matching[i - 1] and i not in full and true_matching[i - 1] not in full
        )
    else:
        uncovered = tuple(i for i in range(1, n + 1) if i not in full)
    if uncovered:
        return DescriptorResult(False, None, (), uncovered)
    z = tuple(full[i] % 2 for i in range(1, n + 1))
    return DescriptorResult(True, z)


# ---------------------------------------------------------------------------
# End-to-end reduction check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReductionReport:
    n: int
    matching: tuple[int, ...]
    run_success: bool
    descriptor_success: bool
    descriptor_correct: bool
    z: tuple[int, ...] | None
    classical_messages: int
    quantum_messages: int
    extraction_messages: int
    v_oracle_calls: int
    quantum_from_v: int
    charged_queries: int

    def to_text(self) -> str:
        lines = [
            f"n={self.n}",
            "matching=" + ",".join(map(str, self.matching)),
            f"success={int(self.run_success and self.descriptor_success)}",
            f"classical={self.classical_messages} quantum={self.quantum_messages} "
            f"extraction={self.extraction_messages}",
            f"charged_queries={self.charged_queries} quantum_from_v={self.quantum_from_v}",
            "descriptor=" + ("".join(map(str, self.z)) if self.z else "-"),
            f"descriptor_correct={int(self.descriptor_correct)}",
        ]
        return "\n".join(lines) + "\n"


def end_to_end_reduction_check(
    n: int,
    sigma,
    seed: int,
    alpha: int = 0,
    params: RunParams = RunParams(),
) -> ReductionReport:
    """Build the rerouted-clique instance for the involution, run wake-up
    with all centers awake, extract partner claims from the pendants' single
    post-run messages, and fold them into the parity descriptor.

    Queries are charged as the routing simulation would: two per outbox
    entry of a center sender (one entry per oracle call), zero for traffic
    originating at the pendant side.
    """
    inst = build_hidden_matching_graph(n, sigma)
    wake = WakeConfig(frozenset(inst.centers()))
    plan = compute_epoch_plan(inst.network, wake)
    assignment = assign_advice(inst.network, plan, alpha)
    rng = np.random.default_rng(seed)
    transcript = run_wakeup(inst.network, wake, assignment, params, rng, seed)

    is_center = lambda v: v <= n
    v_calls = sum(
        log.oracle_calls for log in transcript.actor_logs if is_center(log.node)
    )
    quantum_from_v = transcript.quantum_sent_by(is_center)
    charged = 2 * v_calls

    if not transcript.all_awake:
        return ReductionReport(
            n, tuple(sigma), False, False, False, None,
            transcript.ledger.classical_total, transcript.ledger.quantum_total,
            0, v_calls, quantum_from_v, charged,
        )

    # Once awake, each pendant sends one message; its center reads the
    # arrival port and names the clique partner that port pointed to.
    outputs = {i: inst.pi_c(i, inst.pendant_port[i - 1]) for i in inst.centers()}
    extraction = n
    result = matching_to_descriptor(outputs, n, true_matching=inst.matching)
    correct = bool(result.success and result.z == single_bit_descriptor(sigma))
    return ReductionReport(
        n, tuple(sigma), True, result.success, correct, result.z,
        transcript.ledger.classical_total, transcript.ledger.quantum_total,
        extraction, v_calls, quantum_from_v, charged,
    )
