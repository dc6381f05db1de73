"""Flip-graph searches: enumeration, distances, witnesses, diameter.

Counting oracles used here:
- path on n vertices has Catalan(n) elimination trees (binary tree bijection)
- star with k leaves: c(k) = 1 + k * c(k-1), c(0) = 1
- complete graph: n! chains, distance = inversion count
"""

import random
from itertools import permutations

import pytest

from gassoc.elimtree import ElimTree, SwapMove
from gassoc.errors import InvalidArgument, ResourceLimit
from gassoc.graph import Graph
from gassoc.flipgraph import (
    ReconfigSequence,
    _eccentricities,
    bfs_distances,
    diameter,
    distance,
    enumerate_all,
    explicit_flip_graph,
    flip_graph_dot,
    shortest_path,
    validate_sequence,
    weighted_distance,
    weighted_length,
    weighted_shortest_path,
)
from gassoc.smallgraphs import (
    complete_graph,
    connected_graphs_up_to_iso,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def catalan(n):
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def star_count(leaves):
    c = 1
    for k in range(1, leaves + 1):
        c = 1 + k * c
    return c


def inversions(sigma, tau):
    pos = {lab: i for i, lab in enumerate(tau)}
    order = [pos[lab] for lab in sigma]
    return sum(
        1
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if order[i] > order[j]
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_enumerate_path_catalan(n):
    assert len(enumerate_all(path_graph(n))) == catalan(n)


@pytest.mark.parametrize("leaves", [1, 2, 3, 4])
def test_enumerate_star(leaves):
    assert len(enumerate_all(star_graph(leaves + 1))) == star_count(leaves)


def test_enumerate_complete_factorial():
    assert len(enumerate_all(complete_graph(4))) == 24


def test_enumerate_cap():
    with pytest.raises(ResourceLimit):
        enumerate_all(complete_graph(5), cap=10)


def test_distance_zero_and_one():
    g = path_graph(4)
    t = ElimTree.from_ordering(g, g.labels)
    assert distance(g, t, t) == 0
    nb = t.apply_swap(t.enumerate_swaps()[0])
    assert distance(g, t, nb) == 1


def test_distance_matches_explicit_bfs():
    from collections import deque

    g = cycle_graph(5)
    trees, adj = explicit_flip_graph(g)
    dist = [-1] * len(trees)
    dist[0] = 0
    queue = deque([0])
    while queue:
        v = queue.popleft()
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    for i in range(0, len(trees), 7):
        assert distance(g, trees[0], trees[i]) == dist[i]


def test_complete_graph_distance_is_inversions():
    g = complete_graph(4)
    base = ("1", "2", "3", "4")
    t_base = ElimTree.from_ordering(g, base)
    for sigma in permutations(base):
        t = ElimTree.from_ordering(g, sigma)
        assert distance(g, t_base, t) == inversions(base, sigma)


def test_shortest_path_witness_replays():
    g = cycle_graph(5)
    t1 = ElimTree.from_ordering(g, ["1", "2", "3", "4", "5"])
    t2 = ElimTree.from_ordering(g, ["5", "4", "3", "2", "1"])
    seq = shortest_path(g, t1, t2)
    ok, final = validate_sequence(g, seq)
    assert ok
    assert final.canonical_key() == t2.canonical_key()
    assert len(seq.moves) == distance(g, t1, t2)


def reference_shortest_path(t1, t2):
    """Unidirectional BFS from t1 expanding each level in key order; every
    tree's predecessor is the first tree that reaches it."""
    target = t2.canonical_key()
    start_key = t1.canonical_key()
    pred = {}
    seen = {start_key}
    frontier = [(start_key, t1)]
    while target not in seen:
        nxt = []
        for key, tree in frontier:
            for move in tree.enumerate_swaps():
                nb = tree.apply_swap(move)
                nk = nb.canonical_key()
                if nk not in seen:
                    seen.add(nk)
                    pred[nk] = (key, move)
                    nxt.append((nk, nb))
        nxt.sort(key=lambda item: item[0])
        frontier = nxt
    moves = []
    key = target
    while key != start_key:
        key, move = pred[key]
        moves.append(move)
    return tuple(reversed(moves))


def assert_matches_reference(g, t1, t2):
    seq = shortest_path(g, t1, t2)
    assert seq.moves == reference_shortest_path(t1, t2)
    assert len(seq) == distance(g, t1, t2)


def test_shortest_path_matches_reference_exhaustive():
    for n in range(1, 5):
        for g in connected_graphs_up_to_iso(n):
            trees = enumerate_all(g)
            for a in trees:
                for b in trees:
                    assert_matches_reference(g, a, b)


def test_shortest_path_matches_reference_sampled():
    for g in connected_graphs_up_to_iso(5):
        trees = enumerate_all(g)
        pairs = [(a, b) for a in trees for b in trees]
        for a, b in pairs[::211]:
            assert_matches_reference(g, a, b)
    for seed in range(4):
        g = random_connected_graph(7, 0.35, seed)
        trees = enumerate_all(g)
        rng = random.Random(seed)
        for _ in range(6):
            assert_matches_reference(g, rng.choice(trees), rng.choice(trees))


def test_shortest_path_deterministic():
    g = cycle_graph(5)
    t1 = ElimTree.from_ordering(g, ["1", "2", "3", "4", "5"])
    t2 = ElimTree.from_ordering(g, ["3", "5", "1", "2", "4"])
    a = shortest_path(g, t1, t2)
    b = shortest_path(g, t1, t2)
    assert a.moves == b.moves


def test_weighted_distance_unit_weights():
    g = path_graph(4)
    w = {lab: 1 for lab in g.labels}
    t1 = ElimTree.from_ordering(g, g.labels)
    t2 = ElimTree.from_ordering(g, tuple(reversed(g.labels)))
    assert weighted_distance(g, w, t1, t2) == distance(g, t1, t2)


def test_weighted_distance_prefers_light_moves():
    # triangle with one heavy vertex: the optimum avoids heavy swaps
    g = complete_graph(3)
    w = {"1": 1, "2": 1, "3": 100}
    t1 = ElimTree.from_ordering(g, ["1", "2", "3"])
    t2 = ElimTree.from_ordering(g, ["2", "1", "3"])
    assert weighted_distance(g, w, t1, t2) == 1
    t3 = ElimTree.from_ordering(g, ["3", "2", "1"])
    # any route to t3 must move vertex 3 past the others
    d = weighted_distance(g, w, t1, t3)
    seq = weighted_shortest_path(g, w, t1, t3)
    assert weighted_length(seq, w) == d
    ok, final = validate_sequence(g, seq)
    assert ok and final.canonical_key() == t3.canonical_key()


def test_weighted_distance_big_integers():
    g = path_graph(3)
    w = {"1": 10**20, "2": 1, "3": 10**20}
    t1 = ElimTree.from_ordering(g, ["1", "2", "3"])
    t2 = ElimTree.from_ordering(g, ["3", "2", "1"])
    d = weighted_distance(g, w, t1, t2)
    assert d > 10**19  # exceeds 64-bit range without overflow
    assert d == 2 * 10**20  # swap 2 past each endpoint


def test_weighted_rejects_nonpositive():
    g = path_graph(3)
    t = ElimTree.from_ordering(g, g.labels)
    with pytest.raises(InvalidArgument):
        weighted_distance(g, {"1": 0, "2": 1, "3": 1}, t, t)


def test_weighted_rejects_missing_weight():
    g = path_graph(3)
    t = ElimTree.from_ordering(g, g.labels)
    with pytest.raises(InvalidArgument):
        weighted_distance(g, {"1": 1, "2": 1}, t, t)


def test_validate_sequence_flags_illegal():
    g = path_graph(3)
    t = ElimTree.from_ordering(g, g.labels)
    seq = ReconfigSequence(t, (SwapMove("2", "1"),))
    ok, final = validate_sequence(g, seq)
    assert not ok
    assert final.canonical_key() == t.canonical_key()


@pytest.mark.parametrize(
    "builder,expected",
    [
        (lambda: complete_graph(3), 3),
        (lambda: path_graph(3), 2),
        (lambda: star_graph(4), 4),
        (lambda: complete_graph(4), 6),
    ],
)
def test_small_diameters(builder, expected):
    assert diameter(builder()) == expected


def _reference_eccentricities(adj, sources):
    return [max(bfs_distances(adj, s)) for s in sources]


def test_diameter_pruned_equals_allpairs():
    # exact_allpairs no longer selects a second mode; both calls must equal
    # the largest eccentricity found by plain BFS from every vertex
    graphs = [cycle_graph(5), path_graph(6), star_graph(5),
              random_connected_graph(6, 0.4, 3)]
    graphs += [g for n in range(1, 6) for g in connected_graphs_up_to_iso(n)]
    for g in graphs:
        adj = explicit_flip_graph(g)[1]
        expected = max(_reference_eccentricities(adj, range(len(adj))))
        assert diameter(g) == diameter(g, exact_allpairs=True) == expected


def test_flip_graph_is_regular():
    # every tree has exactly n - 1 swaps, to n - 1 distinct trees, so the
    # kernel's dense neighbour matrix needs no padding on a flip graph
    graphs = [path_graph(8), cycle_graph(7), star_graph(6), complete_graph(6)]
    graphs += [g for n in range(1, 6) for g in connected_graphs_up_to_iso(n)]
    for g in graphs:
        for i, row in enumerate(explicit_flip_graph(g)[1]):
            assert len(set(row)) == len(row) == g.n - 1
            assert i not in row


def test_eccentricity_kernel_exhaustive():
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            adj = explicit_flip_graph(g)[1]
            assert _eccentricities(adj, range(len(adj))) == _reference_eccentricities(
                adj, range(len(adj))
            )


@pytest.mark.parametrize(
    "builder",
    [
        lambda: path_graph(8),
        lambda: cycle_graph(7),
        lambda: star_graph(6),
        lambda: complete_graph(6),
        lambda: random_connected_graph(7, 0.4, 1),
    ],
)
def test_eccentricity_kernel_families(builder):
    adj = explicit_flip_graph(builder())[1]
    eccs = _eccentricities(adj, range(len(adj)))
    assert eccs == _reference_eccentricities(adj, range(len(adj)))
    assert all(type(e) is int for e in eccs)


@pytest.mark.parametrize("k", [1, 63, 64, 65, 512, 513])
def test_eccentricity_kernel_word_and_batch_edges(k):
    # P8 has 1,430 trees; sources in shuffled order, with a repeat at k = 513
    adj = explicit_flip_graph(path_graph(8))[1]
    sources = random.Random(k).sample(range(len(adj)), min(k, 512))
    sources += sources[: k - len(sources)]
    assert _eccentricities(adj, sources) == _reference_eccentricities(adj, sources)


def test_eccentricity_kernel_reports_per_component():
    # vertex 0 is isolated; 1-2 and 3-4-5 are two components; 5 comes twice
    adj = [[], [2], [1], [4], [3, 5], [4]]
    assert _eccentricities(adj, [5, 4, 0, 1, 5]) == [2, 1, 0, 1, 2]


@pytest.mark.parametrize(
    "builder, expected",
    [
        (lambda: cycle_graph(8), 14),
        (lambda: star_graph(7), 12),
        (lambda: complete_graph(6), 15),
    ],
)
@pytest.mark.parametrize("seed", [1, 2])
def test_diameter_pruned_equals_allpairs_shuffled_labels(builder, expected, seed):
    g = builder()
    labels = list(g.labels)
    random.Random(seed).shuffle(labels)
    rename = dict(zip(g.labels, labels))
    h = Graph(sorted(labels), [(rename[a], rename[b]) for a, b in g.edges])
    assert diameter(h) == diameter(h, exact_allpairs=True) == expected


def test_dot_export_shape():
    g = path_graph(3)
    dot = flip_graph_dot(g)
    assert dot.startswith("graph flipgraph {")
    assert dot.count("--") == 5  # the pentagon
    assert dot.count("label=") == 5


def test_disconnected_host_graph_is_rejected():
    g = Graph(["1", "2"], [])
    with pytest.raises(InvalidArgument, match="connected"):
        explicit_flip_graph(g)
    with pytest.raises(InvalidArgument, match="connected"):
        diameter(g)
