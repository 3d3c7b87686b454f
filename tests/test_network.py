import collections
import itertools

import numpy as np
import pytest

from qwake.harness import ExperimentConfig, run_sweep
from qwake.network import (
    GraphError,
    WakeConfig,
    awake_distance,
    build_hidden_matching_graph,
    build_network,
    canonical_clique_ports,
    clique_graph,
    load_network,
    path_graph,
    random_connected_graph,
    random_perfect_matching,
)


def bfs_dist(net, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for u in net.neighbors(v):
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


def check_involution(net):
    for v in net.nodes:
        for j in range(1, net.degree(v) + 1):
            u, j2 = net.port_map(v, j)
            assert net.port_map(u, j2) == (v, j)


def test_two_node_path_has_the_only_assignment():
    net = build_network([(1, 2)])
    assert net.port_map(1, 1) == (2, 1)
    assert net.port_map(2, 1) == (1, 1)


def test_seeded_build_is_deterministic():
    a = build_network([(1, 2), (2, 3), (1, 3)], 0)
    b = build_network([(1, 2), (2, 3), (1, 3)], 0)
    assert a.to_text() == b.to_text()
    check_involution(a)


def test_explicit_assignment_must_be_involution():
    # port (1,2) -> (3,1) but (3,1) -> (2,2)
    assignment = {
        (1, 1): (2, 1), (2, 1): (1, 1),
        (1, 2): (3, 1), (3, 1): (2, 2),
        (2, 2): (3, 2), (3, 2): (2, 2),
    }
    with pytest.raises(GraphError):
        build_network([(1, 2), (1, 3), (2, 3)], assignment)


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        build_network([(1, 2), (2, 1)])


def test_disconnected_rejected():
    with pytest.raises(GraphError):
        build_network([(1, 2), (3, 4)])


def test_random_graph_p0_is_the_tree_backbone():
    net = random_connected_graph(2, 0.0, 7)
    assert net.edge_count() == 1


def test_random_graph_p1_is_complete():
    net = random_connected_graph(64, 1.0, 1)
    assert all(net.degree(v) == 63 for v in net.nodes)


def test_random_graph_deterministic_per_seed():
    a = random_connected_graph(32, 0.2, 5)
    b = random_connected_graph(32, 0.2, 5)
    assert a.to_text() == b.to_text()


@pytest.mark.parametrize("seed", range(8))
def test_random_graph_invariants(seed):
    n = int(np.random.default_rng(seed).integers(2, 40))
    net = random_connected_graph(n, 0.25, seed)
    check_involution(net)
    assert net.is_connected()
    for v in net.nodes:
        assert sorted(set(net.neighbors(v))) == sorted(net.neighbors(v))


def test_awake_distance_trivial_cases():
    net = path_graph(3)
    assert awake_distance(net, WakeConfig(frozenset({1, 2, 3}))) == 0
    assert awake_distance(net, WakeConfig.single(1)) == 2
    k5 = clique_graph(5)
    assert awake_distance(k5, WakeConfig.single(3)) == 1


@pytest.mark.parametrize("seed", range(6))
def test_awake_distance_matches_all_pairs_bfs(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(4, 33))
    net = random_connected_graph(n, 0.15, seed)
    awake = {int(v) for v in rng.choice(range(1, n + 1), size=int(rng.integers(1, n)), replace=False)}
    per_source = [bfs_dist(net, a) for a in awake]
    expected = max(min(d[v] for d in per_source) for v in net.nodes)
    assert awake_distance(net, WakeConfig(frozenset(awake))) == expected


def test_graph_file_round_trip():
    net = random_connected_graph(12, 0.3, 3)
    again = load_network(net.to_text())
    assert again.to_text() == net.to_text()


def test_loader_rejects_bad_counts():
    with pytest.raises(GraphError):
        load_network("2 2\n1 2 1 1\n")


# ---------------------------------------------------------------------------
# hidden-matching family
# ---------------------------------------------------------------------------


def test_hidden_matching_structure_n4():
    inst = build_hidden_matching_graph(4, (2, 1, 4, 3))
    net = inst.network
    # v_1's former port to v_2 now leads to w_1 = node 5
    p = canonical_clique_ports(4)[0].index(2) + 1
    assert net.neighbor_at(1, p)[0] == 5
    assert net.degree(5) == 1
    assert all(net.degree(i) == 3 for i in range(1, 5))
    assert all(net.degree(inst.w_node(i)) == 1 for i in inst.centers())


def test_hidden_matching_rejects_fixed_points_and_odd_n():
    with pytest.raises(GraphError):
        build_hidden_matching_graph(4, (1, 2, 4, 3))
    with pytest.raises(GraphError):
        build_hidden_matching_graph(5, (2, 1, 5, 3, 4))
    with pytest.raises(GraphError):
        build_hidden_matching_graph(4, (2, 1, 4, 2))


def test_hidden_matching_exhaustive_port_scan_n6():
    matching = random_perfect_matching(6, 11)
    inst = build_hidden_matching_graph(6, matching)
    net = inst.network
    # brute-force over every port of every center: exactly one W neighbor each
    pairs = []
    for i in inst.centers():
        w_neighbors = [
            net.neighbor_at(i, j)[0]
            for j in range(1, net.degree(i) + 1)
            if net.neighbor_at(i, j)[0] > 6
        ]
        assert len(w_neighbors) == 1
        pairs.append((i, w_neighbors[0]))
    assert pairs == [(i, 6 + i) for i in range(1, 7)]


@pytest.mark.parametrize("n,seed", [(4, 0), (6, 1), (8, 2)])
def test_hidden_matching_invariants(n, seed):
    matching = random_perfect_matching(n, seed)
    inst = build_hidden_matching_graph(n, matching)
    net = inst.network
    check_involution(net)
    clique_edges = {
        tuple(sorted((i, inst.pi_c(i, j))))
        for i in inst.centers()
        for j in range(1, n)
        if net.neighbor_at(i, j)[0] <= n
    }
    removed = n * (n - 1) // 2 - len(clique_edges)
    assert removed == n // 2
    # identical local views: every center has ports 1..n-1
    assert all(net.degree(i) == n - 1 for i in inst.centers())


def test_hidden_matching_ports_agree_with_clique_assignment():
    # surviving clique edges keep their original port labels on both sides
    matching = random_perfect_matching(8, 5)
    inst = build_hidden_matching_graph(8, matching)
    net = inst.network
    for i in inst.centers():
        for j in range(1, net.degree(i) + 1):
            u = net.neighbor_at(i, j)[0]
            if u <= 8:
                assert inst.pi_c(i, j) == u


def test_random_matching_unique_for_n2():
    assert random_perfect_matching(2, 123) == (2, 1)


def test_random_matching_is_involution():
    for seed in range(20):
        m = random_perfect_matching(10, seed)
        assert all(m[m[i - 1] - 1] == i and m[i - 1] != i for i in range(1, 11))


def test_random_matching_uniform_over_n4():
    counts = collections.Counter(random_perfect_matching(4, s) for s in range(10_000))
    assert len(counts) == 3  # (n-1)!! = 3 matchings
    for c in counts.values():
        assert abs(c / 10_000 - 1 / 3) <= 0.02


def clique_through_build_network(n):
    """The canonical clique built the general way, from its port table."""
    ports = canonical_clique_ports(n)
    assignment = {
        (v, j): (u, ports[u - 1].index(v) + 1)
        for v in range(1, n + 1)
        for j, u in enumerate(ports[v - 1], start=1)
    }
    edges = [(v, u) for v in range(1, n + 1) for u in range(v + 1, n + 1)]
    return build_network(edges, assignment)


def test_closed_form_clique_matches_the_port_table():
    assert clique_graph(1).adj == ((),)
    for n in range(2, 41):
        assert clique_graph(n).adj == clique_through_build_network(n).adj


def test_clique_is_built_once_per_n():
    assert clique_graph(12) is clique_graph(12)


def test_clique_memo_keeps_one_slot(tmp_path):
    cfg = ExperimentConfig(family="clique", n_values=(8, 12, 16), seeds_per_cell=2)
    run_sweep(cfg, csv_path=str(tmp_path / "out.csv"))
    assert clique_graph.cache_info().currsize <= 1


def test_empty_clique_rejected():
    with pytest.raises(GraphError):
        clique_graph(0)


@pytest.mark.parametrize(
    "net",
    [
        clique_graph(9),
        path_graph(7),
        random_connected_graph(30, 0.2, 4),
        build_hidden_matching_graph(10, random_perfect_matching(10, 3)).network,
        load_network(path_graph(5).to_text()),
    ],
    ids=["clique", "path", "random", "hidden-matching", "loaded"],
)
def test_neighbors_follow_port_order(net):
    for v in net.nodes:
        assert net.neighbors(v) == tuple(u for u, _ in net.adj[v - 1])
