"""Offline oracle: epoch planning and per-node advice assignment.

The oracle sees the whole network and the initially awake set. It partitions
the nodes into waves (epoch 1 = initially awake; wave i+1 = nodes adjacent to
wave i that are still asleep), assigns each wave-i actor its private set of
sleepers, and encodes search hints as paths in a per-node binary tree over
the node's ports. Each node receives at most ``alpha`` bits total:

  g          one bit; 1 means "many sleepers, search everything"
  range_bits path selecting the port range holding the first sleeper
  proxy_bits deposited at a sleeper, pointing its waker at the next range

For alpha <= 2 no advice is assigned at all. That is this package's choice;
the paper's abstract does not settle it. beta, and so the message bound, is
the same (beta = 0) for alpha in {0, 1, 2}.
"""
from __future__ import annotations

from dataclasses import dataclass

from .network import PortNetwork, WakeConfig


class AdviceError(ValueError):
    pass


def beta(alpha: int) -> int:
    """Half-budget sizing each of the two bit strings: max(floor((alpha-1)/2), 0)."""
    if alpha < 0:
        raise AdviceError("alpha must be >= 0")
    return max((alpha - 1) // 2, 0)


@dataclass(frozen=True)
class PortRange:
    lo: int
    hi: int

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi):
            raise AdviceError(f"invalid port range [{self.lo}, {self.hi}]")

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def ports(self) -> range:
        return range(self.lo, self.hi + 1)

    def overlaps(self, other: "PortRange") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def tree_depth(degree: int) -> int:
    """Depth of the port tree: log2 of the smallest power of two >= degree."""
    if degree < 1:
        raise AdviceError("degree must be >= 1")
    return (degree - 1).bit_length()


def port_range(degree: int, bits: str) -> PortRange:
    """Range of port labels reachable from the tree path ``bits``.

    The tree has n' = 2^depth leaves labeled 1..degree in increasing order,
    with the rightmost n' - degree leaves all labeled ``degree``. An empty
    path selects the whole range [1, degree].
    """
    depth = tree_depth(degree)
    if len(bits) > depth:
        raise AdviceError(f"path of {len(bits)} bits exceeds tree depth {depth}")
    if any(b not in "01" for b in bits):
        raise AdviceError(f"bits must be over {{0,1}}: {bits!r}")
    prefix = int(bits, 2) if bits else 0
    span = 1 << (depth - len(bits))
    raw_lo = prefix * span + 1
    raw_hi = raw_lo + span - 1
    return PortRange(min(raw_lo, degree), min(raw_hi, degree))


def level_range_bits(degree: int, port: int, level: int) -> str:
    """Path of length min(level, depth) whose range contains ``port``.

    When port == degree and the padding duplicates the label across several
    leaves, the path through the leftmost such leaf is returned; its range is
    the largest among the candidates (ties included), which resolves the
    ambiguity deterministically.
    """
    if not (1 <= port <= degree):
        raise AdviceError(f"port {port} outside [1, {degree}]")
    depth = tree_depth(degree)
    length = min(level, depth)
    if length == 0:
        return ""
    return format(port - 1, f"0{depth}b")[:length]


def level_beta_range(network: PortNetwork, v: int, w: int, beta_bits: int) -> tuple[str, PortRange]:
    """Bits and range of the level-beta tree path covering v's port to w."""
    port = network.port_to(v, w)
    bits = level_range_bits(network.degree(v), port, beta_bits)
    return bits, port_range(network.degree(v), bits)


# ---------------------------------------------------------------------------
# Epoch plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EpochRecord:
    index: int
    actors: tuple[int, ...]  # wave members, increasing ID
    frontier: frozenset[int]  # sleepers adjacent to this wave
    assigned: dict[int, frozenset[int]]  # actor -> its private sleeper set


@dataclass(frozen=True)
class EpochPlan:
    epochs: tuple[EpochRecord, ...]

    @property
    def awake_dist(self) -> int:
        """Number of waves that still had sleepers to claim."""
        return sum(1 for e in self.epochs if e.frontier)

    def epoch_of(self, v: int) -> int:
        for e in self.epochs:
            if v in e.assigned:
                return e.index
        raise AdviceError(f"node {v} is not an actor of any epoch")

    def assigned_set(self, v: int) -> frozenset[int]:
        return self.epochs[self.epoch_of(v) - 1].assigned[v]


def compute_epoch_plan(network: PortNetwork, wake: WakeConfig) -> EpochPlan:
    """Inductive wave computation.

    Wave 1 is the awake set; the frontier of wave i is every sleeping node
    adjacent to wave i; wave i+1 is that frontier. Within a wave, actors
    claim their sleeping neighbors greedily in increasing ID order, so the
    claimed sets are disjoint.
    """
    for v in wake.awake_set:
        if not (1 <= v <= network.n):
            raise AdviceError(f"awake node {v} not in the network")
    woken: set[int] = set()
    current = sorted(wake.awake_set)
    epochs: list[EpochRecord] = []
    index = 0
    while current:
        index += 1
        woken.update(current)
        frontier: set[int] = set()
        for v in current:
            frontier.update(network.neighbors(v))
        # woken holds this wave and every earlier one.
        frontier -= woken
        remaining = set(frontier)
        assigned: dict[int, frozenset[int]] = {}
        for v in current:
            mine = frozenset(remaining.intersection(network.neighbors(v)))
            remaining -= mine
            assigned[v] = mine
        epochs.append(EpochRecord(index, tuple(current), frozenset(frontier), assigned))
        current = sorted(frontier)
    if len(woken) != network.n:
        raise AdviceError("wake set does not reach every node")
    return EpochPlan(tuple(epochs))


# ---------------------------------------------------------------------------
# Advice assignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Advice:
    """Per-node advice triple. ``g is None`` encodes "no advice at all"."""

    g: int | None = None
    range_bits: str = ""
    proxy_bits: str = ""

    @property
    def bit_length(self) -> int:
        if self.g is None:
            return 0
        return 1 + len(self.range_bits) + len(self.proxy_bits)

    @property
    def is_empty(self) -> bool:
        return self.g is None and not self.range_bits and not self.proxy_bits


@dataclass(frozen=True)
class ChainStep:
    target: int  # the sleeper whose port range this step covers
    bits: str  # level-beta path in the actor's tree (unpadded)
    rng: PortRange


@dataclass(frozen=True)
class AdviceAssignment:
    alpha: int
    beta: int
    advice: dict[int, Advice]
    # Per-actor range chain used by the oracle; empty for g=1 / no-sleeper
    # actors. chains[v][0] corresponds to range_bits of v, later steps to the
    # proxy bits deposited along the chain.
    chains: dict[int, tuple[ChainStep, ...]]

    def of(self, v: int) -> Advice:
        return self.advice[v]

    @staticmethod
    def empty(network: PortNetwork, alpha: int = 0) -> "AdviceAssignment":
        return AdviceAssignment(alpha, beta(alpha), {v: Advice() for v in network.nodes}, {})


def _pad(bits: str, b: int) -> str:
    """Stored strings carry exactly b bits; paths shorter than b (shallow
    trees) are padded with zeros that readers ignore past the tree depth."""
    return bits + "0" * (b - len(bits))


def assign_advice(network: PortNetwork, plan: EpochPlan, alpha: int) -> AdviceAssignment:
    """Compute every node's advice triple for a given bit budget."""
    b = beta(alpha)
    if alpha <= 2:
        return AdviceAssignment.empty(network, alpha)

    advice: dict[int, Advice] = {v: Advice(g=0) for v in network.nodes}
    proxy: dict[int, str] = {}
    chains: dict[int, tuple[ChainStep, ...]] = {}

    for epoch in plan.epochs:
        for v in epoch.actors:
            sleepers = epoch.assigned[v]
            if len(sleepers) >= (1 << b):
                advice[v] = Advice(g=1)
                continue
            if not sleepers:
                continue  # g=0 with empty range bits: the actor will skip
            chain: list[ChainStep] = []
            remaining = set(sleepers)
            while remaining:
                target = min(remaining)
                bits, rng = level_beta_range(network, v, target, b)
                chain.append(ChainStep(target, bits, rng))
                remaining = {
                    u for u in remaining if not (rng.lo <= network.port_to(v, u) <= rng.hi)
                }
            chains[v] = tuple(chain)
            advice[v] = Advice(g=0, range_bits=_pad(chain[0].bits, b))
            for prev, nxt in zip(chain, chain[1:]):
                if prev.target in proxy:
                    raise AdviceError(
                        f"node {prev.target} would carry proxy advice from two actors"
                    )
                proxy[prev.target] = _pad(nxt.bits, b)

    for u, bits in proxy.items():
        a = advice[u]
        advice[u] = Advice(g=a.g, range_bits=a.range_bits, proxy_bits=bits)

    out = AdviceAssignment(alpha, b, advice, chains)
    for v, a in out.advice.items():
        if a.bit_length > alpha:
            raise AdviceError(f"advice for node {v} exceeds the {alpha}-bit budget")
    return out


# ---------------------------------------------------------------------------
# Dump format: one line per node, `id g range_bits proxy_bits`, `-` for empty
# ---------------------------------------------------------------------------


def dump_advice(assignment: AdviceAssignment) -> str:
    lines = [f"alpha={assignment.alpha}"]
    for v in sorted(assignment.advice):
        a = assignment.advice[v]
        g = "-" if a.g is None else str(a.g)
        lam = a.range_bits or "-"
        pi = a.proxy_bits or "-"
        lines.append(f"{v} {g} {lam} {pi}")
    return "\n".join(lines) + "\n"


def load_advice(text: str) -> AdviceAssignment:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("alpha="):
        raise AdviceError("advice dump must start with an alpha= header")
    alpha = int(lines[0].split("=", 1)[1])
    advice: dict[int, Advice] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise AdviceError(f"bad advice line: {ln!r}")
        v, g, lam, pi = parts
        advice[int(v)] = Advice(
            g=None if g == "-" else int(g),
            range_bits="" if lam == "-" else lam,
            proxy_bits="" if pi == "-" else pi,
        )
    return AdviceAssignment(alpha, beta(alpha), advice, {})
