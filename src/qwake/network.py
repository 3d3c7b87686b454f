"""Port-numbered network representation and graph generators.

Nodes are identified by integer IDs 1..n. Each node of degree d owns ports
1..d, and the port map pairs (node, port) with (neighbor, neighbor's port);
the pairing is an involution. Includes seeded random connected graphs, the
multi-source awake-distance computation, and the hidden-matching family used
by the reduction experiments (a clique whose matched edges are rerouted to
pendant sleeper nodes).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class PortNetwork:
    """Undirected simple graph with a bijective per-node port numbering.

    adj[v - 1][j - 1] == (u, j2) means port j of node v leads to node u and
    arrives on u's port j2. The network is immutable, so each node's
    neighbour tuple is built once, on first use, and shared by every later
    ``neighbors`` call.
    """

    n: int
    adj: tuple[tuple[tuple[int, int], ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adj[v - 1])

    def neighbor_at(self, v: int, port: int) -> tuple[int, int]:
        """Return (neighbor, neighbor's port) across (v, port)."""
        return self.adj[v - 1][port - 1]

    def port_map(self, v: int, port: int) -> tuple[int, int]:
        return self.neighbor_at(v, port)

    @cached_property
    def _neighbor_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(u for u, _ in row) for row in self.adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Neighbours of v in port order."""
        return self._neighbor_rows[v - 1]

    def port_to(self, v: int, u: int) -> int:
        """Port of v that leads to u. Raises GraphError if not adjacent."""
        for j, (w, _) in enumerate(self.adj[v - 1], start=1):
            if w == u:
                return j
        raise GraphError(f"node {u} is not a neighbor of node {v}")

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    def edges(self) -> list[tuple[int, int, int, int]]:
        """Canonical edge list: (u, v, pu, pv) with u < v, sorted."""
        out = []
        for v in self.nodes:
            for j, (u, j2) in enumerate(self.adj[v - 1], start=1):
                if v < u:
                    out.append((v, u, j, j2))
        out.sort()
        return out

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in self.nodes) // 2

    def to_text(self) -> str:
        lines = [f"{self.n} {self.edge_count()}"]
        lines.extend(f"{u} {v} {pu} {pv}" for u, v, pu, pv in self.edges())
        return "\n".join(lines) + "\n"

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        seen = {1}
        queue = deque([1])
        while queue:
            v = queue.popleft()
            for u, _ in self.adj[v - 1]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        return len(seen) == self.n


@dataclass(frozen=True)
class WakeConfig:
    """The adversary's choice of initially awake nodes."""

    awake_set: frozenset[int]

    def __post_init__(self):
        if not self.awake_set:
            raise GraphError("awake set must be nonempty")

    @staticmethod
    def single(v: int) -> "WakeConfig":
        return WakeConfig(frozenset([v]))


def _validate(adj: list[list[tuple[int, int]]], require_connected: bool = True) -> PortNetwork:
    n = len(adj)
    net = PortNetwork(n, tuple(tuple(row) for row in adj))
    for v in net.nodes:
        seen_neighbors = set()
        for j, (u, j2) in enumerate(net.adj[v - 1], start=1):
            if not (1 <= u <= n):
                raise GraphError(f"port ({v},{j}) points at unknown node {u}")
            if u == v:
                raise GraphError(f"self-loop at node {v}")
            if u in seen_neighbors:
                raise GraphError(f"parallel edge {v}-{u}")
            seen_neighbors.add(u)
            if not (1 <= j2 <= net.degree(u)):
                raise GraphError(f"port ({v},{j}) maps to invalid port ({u},{j2})")
            back = net.adj[u - 1][j2 - 1]
            if back != (v, j):
                raise GraphError(
                    f"port map is not an involution at ({v},{j}) -> ({u},{j2}) -> {back}"
                )
    if require_connected and not net.is_connected():
        raise GraphError("graph is not connected")
    return net


def build_network(
    edge_list,
    port_assignment_or_seed=0,
    require_connected: bool = True,
) -> PortNetwork:
    """Build a PortNetwork from an edge list over node IDs 1..n.

    ``port_assignment_or_seed`` is either an integer seed (ports are then
    assigned deterministically by a seeded shuffle of each node's incident
    edges) or an explicit mapping {(v, port): (u, port)} covering both
    directions of every edge.
    """
    edges = [tuple(sorted(e)) for e in edge_list]
    if len(set(edges)) != len(edges):
        raise GraphError("duplicate edge in edge list")
    nodes = sorted({v for e in edges for v in e})
    if not nodes:
        raise GraphError("empty edge list")
    n = max(nodes)
    if nodes[0] < 1:
        raise GraphError("node IDs must be >= 1")
    incident: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        incident[u - 1].append(v)
        incident[v - 1].append(u)

    if isinstance(port_assignment_or_seed, dict):
        assignment = port_assignment_or_seed
        adj: list[list[tuple[int, int]]] = [[(0, 0)] * len(incident[v]) for v in range(n)]
        seen = set()
        for (v, j), (u, j2) in assignment.items():
            if not (1 <= v <= n and 1 <= j <= len(incident[v - 1])):
                raise GraphError(f"assignment references invalid port ({v},{j})")
            if (v, j) in seen:
                raise GraphError(f"duplicate assignment for port ({v},{j})")
            seen.add((v, j))
            adj[v - 1][j - 1] = (u, j2)
        for v in range(1, n + 1):
            for j in range(1, len(incident[v - 1]) + 1):
                if (v, j) not in assignment:
                    raise GraphError(f"port ({v},{j}) missing from assignment")
        covered = {tuple(sorted((v, adj[v - 1][j][0]))) for v in range(1, n + 1) for j in range(len(adj[v - 1]))}
        if covered != set(edges):
            raise GraphError("assignment edges do not match the edge list")
    else:
        rng = np.random.default_rng(int(port_assignment_or_seed))
        order: list[list[int]] = []
        for v in range(1, n + 1):
            nbrs = sorted(incident[v - 1])
            perm = rng.permutation(len(nbrs))
            order.append([nbrs[i] for i in perm])
        port_of = [{u: j + 1 for j, u in enumerate(order[v])} for v in range(n)]
        adj = [[(u, port_of[u - 1][v]) for u in order[v - 1]] for v in range(1, n + 1)]
    return _validate(adj, require_connected=require_connected)


def load_network(text: str) -> PortNetwork:
    """Parse the text graph format: header ``n m`` then ``u v pu pv`` lines."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty graph file")
    try:
        n, m = map(int, lines[0].split())
    except ValueError as exc:
        raise GraphError(f"bad header line: {lines[0]!r}") from exc
    if len(lines) - 1 != m:
        raise GraphError(f"expected {m} edge lines, got {len(lines) - 1}")
    assignment: dict[tuple[int, int], tuple[int, int]] = {}
    edges = []
    for ln in lines[1:]:
        try:
            u, v, pu, pv = map(int, ln.split())
        except ValueError as exc:
            raise GraphError(f"bad edge line: {ln!r}") from exc
        edges.append((u, v))
        assignment[(u, pu)] = (v, pv)
        assignment[(v, pv)] = (u, pu)
    net = build_network(edges, assignment)
    if net.n != n:
        raise GraphError(f"header says n={n} but edges reference {net.n} nodes")
    return net


def random_connected_graph(n: int, edge_probability: float, seed: int) -> PortNetwork:
    """Seeded connected graph: a uniform random spanning tree plus each
    remaining edge independently with the given probability."""
    if n < 2:
        raise GraphError("need n >= 2")
    if not (0.0 <= edge_probability <= 1.0):
        raise GraphError("edge probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = set()
    if n == 2:
        edges.add((1, 2))
    else:
        # Uniform labeled tree from a random Pruefer sequence.
        seq = [int(x) for x in rng.integers(1, n + 1, size=n - 2)]
        degree = [1] * (n + 1)
        for x in seq:
            degree[x] += 1
        import heapq

        leaves = [v for v in range(1, n + 1) if degree[v] == 1]
        heapq.heapify(leaves)
        for x in seq:
            leaf = heapq.heappop(leaves)
            edges.add(tuple(sorted((leaf, x))))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(leaves, x)
        u, v = heapq.heappop(leaves), heapq.heappop(leaves)
        edges.add(tuple(sorted((u, v))))
    if edge_probability > 0:
        for u in range(1, n + 1):
            for v in range(u + 1, n + 1):
                if (u, v) in edges:
                    continue
                if rng.random() < edge_probability:
                    edges.add((u, v))
    port_seed = int(rng.integers(0, 2**63 - 1))
    return build_network(sorted(edges), port_seed)


def path_graph(n: int) -> PortNetwork:
    """Path 1-2-...-n with canonical ports (port 1 back, port 2 forward)."""
    if n < 2:
        raise GraphError("need n >= 2")
    assignment = {}
    for v in range(1, n):
        pu = 1 if v == 1 else 2
        assignment[(v, pu)] = (v + 1, 1)
        assignment[(v + 1, 1)] = (v, pu)
    return build_network([(v, v + 1) for v in range(1, n)], assignment)


@lru_cache(maxsize=1)
def clique_graph(n: int) -> PortNetwork:
    """Complete graph with canonical ports: port j of v leads to the j-th
    smallest other node u, and v sits at port v of u if v < u, else v - 1.

    A clique depends on n alone, so the last one built is kept and returned
    again: one shared immutable instance per n. ``run_sweep`` loops over n
    outermost, so one slot serves every cell at that n; more slots would
    keep every clique of a sweep alive.
    """
    adj = [
        [(u, v - 1) for u in range(1, v)] + [(u, v) for u in range(v + 1, n + 1)]
        for v in range(1, n + 1)
    ]
    return _validate(adj)


def awake_distance(network: PortNetwork, wake: WakeConfig) -> int:
    """Maximum over sleeping nodes of the BFS distance to the nearest
    initially awake node; 0 when everyone is awake."""
    dist = {v: 0 for v in wake.awake_set}
    queue = deque(wake.awake_set)
    while queue:
        v = queue.popleft()
        for u, _ in network.adj[v - 1]:
            if u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    if len(dist) != network.n:
        raise GraphError("some node is unreachable from the awake set")
    return max(dist.values())


# ---------------------------------------------------------------------------
# Hidden-matching family
# ---------------------------------------------------------------------------


def canonical_clique_ports(n: int) -> tuple[tuple[int, ...], ...]:
    """Clique port assignment: ports_of[i-1][j-1] is the node at port j of
    center i, i.e. the j-th smallest element of [n] minus i."""
    return tuple(tuple(k for k in range(1, n + 1) if k != i) for i in range(1, n + 1))


def random_clique_ports(n: int, seed: int) -> tuple[tuple[int, ...], ...]:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(1, n + 1):
        others = [k for k in range(1, n + 1) if k != i]
        perm = rng.permutation(len(others))
        out.append(tuple(others[p] for p in perm))
    return tuple(out)


def _validate_clique_ports(n: int, ports) -> tuple[tuple[int, ...], ...]:
    ports = tuple(tuple(row) for row in ports)
    if len(ports) != n:
        raise GraphError("clique port table must have one row per center")
    for i, row in enumerate(ports, start=1):
        if sorted(row) != [k for k in range(1, n + 1) if k != i]:
            raise GraphError(f"row {i} of the clique port table is not a bijection")
    return ports


@dataclass(frozen=True)
class HiddenMatchingInstance:
    """Clique on centers 1..n with the matched edges replaced by pendants.

    For each matched pair {i, k}: the clique edge {v_i, v_k} is absent, the
    port of v_i that used to lead to v_k instead leads to w_i (= node n+i,
    degree 1, its single port is 1), and symmetrically for v_k. Every center
    keeps degree n-1 and the same local port view as the intact clique.
    """

    n: int
    matching: tuple[int, ...]  # matching[i-1] = partner of center i
    clique_ports: tuple[tuple[int, ...], ...]
    network: PortNetwork
    pendant_port: tuple[int, ...]  # pendant_port[i-1] = v_i's port to w_i

    def partner(self, i: int) -> int:
        return self.matching[i - 1]

    def w_node(self, i: int) -> int:
        return self.n + i

    def centers(self) -> range:
        return range(1, self.n + 1)

    def pi_c(self, i: int, j: int) -> int:
        """Clique partner of center i via port j under the fixed assignment."""
        return self.clique_ports[i - 1][j - 1]


def _check_involution(n: int, matching) -> tuple[int, ...]:
    m = tuple(int(x) for x in matching)
    if len(m) != n:
        raise GraphError("matching must assign a partner to every center")
    for i in range(1, n + 1):
        k = m[i - 1]
        if not (1 <= k <= n):
            raise GraphError(f"matching maps {i} outside [1, {n}]")
        if k == i:
            raise GraphError(f"matching has a fixed point at {i}")
        if m[k - 1] != i:
            raise GraphError(f"matching is not an involution at {i}")
    return m


def build_hidden_matching_graph(n: int, matching, clique_ports=None) -> HiddenMatchingInstance:
    """Build the rerouted-clique instance for a fixed-point-free involution.

    Accepts any even n >= 2; n == 2 degenerates to two disjoint pendant
    edges (the clique minus its only edge), which is the one disconnected
    member of the family and is kept for exhaustive tiny tests.
    """
    if n % 2 != 0 or n < 2:
        raise GraphError("n must be even and >= 2")
    m = _check_involution(n, matching)
    ports = canonical_clique_ports(n) if clique_ports is None else _validate_clique_ports(n, clique_ports)

    port_of = [{u: j + 1 for j, u in enumerate(ports[i])} for i in range(n)]
    adj: list[list[tuple[int, int]]] = []
    for i in range(1, n + 1):
        row = []
        for j, u in enumerate(ports[i - 1], start=1):
            if u == m[i - 1]:
                row.append((n + i, 1))  # rerouted to the pendant sleeper
            else:
                row.append((u, port_of[u - 1][i]))
        adj.append(row)
    pendant_port = tuple(port_of[i - 1][m[i - 1]] for i in range(1, n + 1))
    for i in range(1, n + 1):
        adj.append([(i, pendant_port[i - 1])])  # w_i, single port 1
    net = _validate(adj, require_connected=(n > 2))
    return HiddenMatchingInstance(n, m, ports, net, pendant_port)


def random_perfect_matching(n: int, seed: int) -> tuple[int, ...]:
    """Uniform fixed-point-free involution on [n] by sequential pairing."""
    if n % 2 != 0 or n < 2:
        raise GraphError("n must be even and >= 2")
    rng = np.random.default_rng(seed)
    pool = list(range(1, n + 1))
    out = [0] * n
    while pool:
        a = pool.pop(0)
        b = pool.pop(int(rng.integers(0, len(pool))))
        out[a - 1] = b
        out[b - 1] = a
    return tuple(out)
