"""Flip-graph searches: enumeration, distances, witnesses, diameter.

Counting oracles used here:
- path on n vertices has Catalan(n) elimination trees (binary tree bijection)
- star with k leaves: c(k) = 1 + k * c(k-1), c(0) = 1
- complete graph: n! chains, distance = inversion count
"""

import hashlib
import heapq
import random
import re
import tracemalloc
from itertools import combinations, permutations

import pytest

from gassoc import flipgraph
from gassoc.elimtree import ElimTree, SwapMove, swap_neighbors
from gassoc.errors import InvalidArgument, ResourceLimit
from gassoc.graph import Graph, check_weights
from gassoc.flipgraph import (
    ReconfigSequence,
    _diameter,
    _eccentricities,
    _uniform_cost,
    bfs_distances,
    diameter,
    distance,
    enumerate_all,
    explicit_flip_graph,
    flip_graph_dot,
    moves_weight,
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


def inversions(sigma, tau, w=None):
    """The pairs that sigma and tau order differently, each counted
    w(a) * w(b) times (once without weights)."""
    pos = {lab: i for i, lab in enumerate(tau)}
    return sum(
        1 if w is None else w[a] * w[b]
        for a, b in combinations(sigma, 2)
        if pos[a] > pos[b]
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
    # Every tree of K_n is a chain and a swap exchanges two neighbours in
    # it, so the cheapest walk swaps each inverted pair {a, b} once, at
    # w(a) * w(b): a swap-free oracle for the weighted search.
    rng = random.Random(5)
    for n in range(4, 8):
        g = complete_graph(n)
        for _ in range(10):
            w = {v: rng.randint(1, 5) for v in g.labels}
            sigma, tau = rng.sample(g.labels, n), rng.sample(g.labels, n)
            t1, t2 = ElimTree.from_ordering(g, sigma), ElimTree.from_ordering(g, tau)
            assert weighted_distance(g, w, t1, t2) == inversions(sigma, tau, w)


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


def _reference_weighted_distances(trees, adj, w, source):
    """Dijkstra over an explicit flip graph; a swap's weight is w(a) * w(b)
    for the one pair with a the parent of b before and b the parent of a
    after."""

    def weight(i, j):
        p, q = trees[i].parent, trees[j].parent
        labs = trees[i].graph.labels
        (a, b), = [(a, b) for b, a in enumerate(p) if a >= 0 and q[a] == b]
        return w[labs[a]] * w[labs[b]]

    dist, heap = {source: 0}, [(0, source)]
    while heap:
        d, i = heapq.heappop(heap)
        if d > dist[i]:
            continue
        for j in adj[i]:
            nd = d + weight(i, j)
            if j not in dist or nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, j))
    return [dist[j] for j in range(len(trees))]


def reference_weighted_path(g, w, t1, t2):
    """Uniform-cost search from t1 that records each reached tree's
    predecessor (key, u, v), replaced only by a strictly shorter route, and
    follows them back from t2 once t2 is popped."""
    start, target = t1.canonical_key(), t2.canonical_key()
    best, pred, heap = {start: 0}, {}, [(0, start)]
    while (top := heapq.heappop(heap))[1] != target:
        d, key = top
        if d > best[key]:
            continue
        for u, v, nk in swap_neighbors(g.adj, key):
            nd = d + w[g.labels[u]] * w[g.labels[v]]
            if nk not in best or nd < best[nk]:
                best[nk] = nd
                pred[nk] = (key, u, v)
                heapq.heappush(heap, (nd, nk))
    moves, key = [], target
    while key != start:
        key, u, v = pred[key]
        moves.append(SwapMove(g.labels[u], g.labels[v]))
    return tuple(reversed(moves))


def _r8_pair(seed):
    """random_connected_graph(8, 0.3, seed), weights 1 + i % 3 in label order,
    and the trees of a shuffled order and of its reverse."""
    g = random_connected_graph(8, 0.3, seed)
    w = {lab: 1 + i % 3 for i, lab in enumerate(g.labels)}
    order = list(g.labels)
    random.Random(0).shuffle(order)
    return g, w, ElimTree.from_ordering(g, order), ElimTree.from_ordering(g, order[::-1])


@pytest.mark.parametrize("seed", [1, 3])
def test_weighted_path_matches_the_predecessor_walk(seed):
    g, w, t1, t2 = _r8_pair(seed)
    seq = weighted_shortest_path(g, w, t1, t2)
    assert seq.moves == reference_weighted_path(g, w, t1, t2)
    assert moves_weight(seq.moves, w) == weighted_distance(g, w, t1, t2)


def _traced_peak(query):
    """A weighted query on the R8 pair of seed 1: its result and traced peak."""
    g, w, t1, t2 = _r8_pair(1)
    query(g, w, t1, t1)  # warm up outside the trace
    tracemalloc.start()
    try:
        return query(g, w, t1, t2), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weighted_path_keeps_no_predecessors():
    # one distance map per search and no predecessors: the walk rebuilds the path from it
    seq, peak = _traced_peak(weighted_shortest_path)
    assert len(seq) == 10 and peak < 0.8 * 2**20


def test_weighted_distance_keeps_one_map():
    d, peak = _traced_peak(weighted_distance)
    assert d == 31 and peak < 0.8 * 2**20


def _least_budget(search, hi):
    """The least node budget under which ``search(budget)`` succeeds, given
    that it succeeds at ``hi``: success is monotone in the budget."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            search(mid)
            hi = mid
        except ResourceLimit:
            lo = mid + 1
    return lo


def _needs_exactly(search, budget):
    with pytest.raises(ResourceLimit, match=f"node budget {budget - 1} exceeded"):
        search(budget - 1)
    search(budget)


def test_path_queries_cost_what_their_distance_costs():
    # path rebuilds re-expand outside the budget, so each path query
    # succeeds under exactly the budgets its distance query does
    readme = random_connected_graph(8, 0.3, 1)
    pairs = [(readme, ElimTree.from_ordering(readme, readme.labels),
              ElimTree.from_ordering(readme, readme.labels[::-1]))]
    pairs += [(g, t1, t2) for g, _, t1, t2 in map(_r8_pair, range(1, 7))]
    least = []
    for g, t1, t2 in pairs:
        b = _least_budget(lambda nb: distance(g, t1, t2, node_budget=nb), 10_000)
        _needs_exactly(lambda nb: shortest_path(g, t1, t2, node_budget=nb), b)
        least.append(b)
    assert least[0] == 1675  # the README pair
    g, w, t1, t2 = _r8_pair(1)
    for query in (weighted_distance, weighted_shortest_path):
        _needs_exactly(lambda nb: query(g, w, t1, t2, node_budget=nb), 4691)


def test_weighted_distance_matches_its_core_and_a_reference():
    # Every connected graph with n <= 4, two seeded weight vectors each,
    # every ordered pair of trees: the per-pair coverage that the
    # blowup-equiv suite, which runs one search per source tree, leaves out.
    rng = random.Random(22)
    pairs, paths = 0, hashlib.sha256()
    for n in range(1, 5):
        for g in connected_graphs_up_to_iso(n):
            trees, adj = explicit_flip_graph(g)
            for _ in range(2):
                w = {lab: rng.randint(1, 5) for lab in g.labels}
                for i, ti in enumerate(trees):
                    ref = _reference_weighted_distances(trees, adj, w, i)
                    core = _uniform_cost(g, [w[lab] for lab in g.labels], ti)
                    assert len(core) == len(trees)
                    for j, tj in enumerate(trees):
                        d = weighted_distance(g, w, ti, tj)
                        seq = weighted_shortest_path(g, w, ti, tj)
                        assert d == core[tj.canonical_key()] == ref[j]
                        assert moves_weight(seq.moves, w) == d
                        assert seq.moves == reference_weighted_path(g, w, ti, tj)
                        ok, final = validate_sequence(g, seq)
                        assert ok and final.canonical_key() == tj.canonical_key()
                        paths.update(" ".join(f"{m.u}{m.v}" for m in seq.moves).encode() + b";")
                        pairs += 1
    assert pairs == 2 * sum(
        len(enumerate_all(g)) ** 2 for n in range(1, 5) for g in connected_graphs_up_to_iso(n))
    # The paths themselves, ties broken by the heap order, are pinned.
    assert paths.hexdigest()[:16] == "ab3ad04c2cf4fde9"


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


def test_weighted_queries_check_the_weights_once(monkeypatch):
    # the search and the walk share one pass over the weights, made after
    # both trees are checked
    calls = []

    def counting(g, w):
        calls.append(w)
        return check_weights(g, w)

    monkeypatch.setattr(flipgraph, "check_weights", counting)
    g, w, t1, t2 = _r8_pair(1)
    other = ElimTree.from_ordering(path_graph(8), path_graph(8).labels)
    for query in (weighted_distance, weighted_shortest_path):
        calls.clear()
        query(g, w, t1, t2)
        assert calls == [w]
        for pair in ((t1, other), (other, t2)):
            with pytest.raises(InvalidArgument, match="not an elimination tree"):
                query(g, {}, *pair)
        assert calls == [w]


def test_validate_sequence_flags_illegal():
    g = path_graph(3)
    t = ElimTree.from_ordering(g, g.labels)
    seq = ReconfigSequence(t, (SwapMove("2", "1"),))
    ok, final = validate_sequence(g, seq)
    assert not ok
    assert final.canonical_key() == t.canonical_key()


def test_searches_reject_a_tree_that_is_not_an_elimination_tree():
    # A tree of the star on P3's labels: 1 and 2 are both children of the
    # root 3, but 1-3 is no edge of P3.
    g = path_graph(3)
    star = Graph(["1", "2", "3"], [("1", "3"), ("2", "3")])
    bad = ElimTree.from_ordering(star, ["3", "1", "2"])
    good = ElimTree.from_ordering(g, "123")
    unit = {lab: 1 for lab in g.labels}
    searches = [
        lambda a, b: distance(g, a, b),
        lambda a, b: shortest_path(g, a, b),
        lambda a, b: weighted_distance(g, unit, a, b),
        lambda a, b: weighted_shortest_path(g, unit, a, b),
    ]
    for search in searches:
        for pair in ((bad, good), (good, bad), (bad, bad)):
            with pytest.raises(InvalidArgument, match="not an elimination tree"):
                search(*pair)


def test_validate_sequence_rejects_a_start_tree_of_another_graph():
    other = path_graph(8)
    t = ElimTree.from_ordering(other, other.labels)
    with pytest.raises(InvalidArgument, match="not an elimination tree"):
        validate_sequence(path_graph(3), ReconfigSequence(t, ()))
    # weighted_length replays on the start tree's own graph, and a start tree
    # that is no elimination tree of it cannot be built
    with pytest.raises(InvalidArgument, match="not an elimination tree of the graph"):
        weighted_length(ReconfigSequence(ElimTree(path_graph(3), (1, -1, 0)), ()), {})


def test_weighted_length_checks_its_weights():
    g = path_graph(3)
    t = ElimTree.from_ordering(g, g.labels)
    seq = ReconfigSequence(t, (t.enumerate_swaps()[0],))
    for w in ({}, {"1": 1, "2": 0, "3": 1}, {"1": 1, "2": -2, "3": 1}):
        with pytest.raises(InvalidArgument, match="weight"):
            weighted_length(seq, w)
    stuck = ReconfigSequence(t, (SwapMove("1", "3"),))  # 3 is not a child of 1
    with pytest.raises(InvalidArgument, match="^sequence does not replay to a valid tree$"):
        weighted_length(stuck, {"1": 1, "2": 1, "3": 1})


def test_searches_stop_at_the_node_budget():
    g = complete_graph(3)
    t1 = ElimTree.from_ordering(g, "123")
    t2 = ElimTree.from_ordering(g, "321")
    unit = {lab: 1 for lab in g.labels}
    searches = [
        lambda: distance(g, t1, t2, node_budget=1),
        lambda: shortest_path(g, t1, t2, node_budget=1),
        lambda: weighted_distance(g, unit, t1, t2, node_budget=1),
        lambda: weighted_shortest_path(g, unit, t1, t2, node_budget=1),
    ]
    for search in searches:
        with pytest.raises(ResourceLimit, match="node budget 1 exceeded"):
            search()


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


def test_bfs_distances_with_targets_keeps_every_target_exact():
    # the search stops after the level of its last target, from any source;
    # each vertex it settles has its full-search distance
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            adj = explicit_flip_graph(g)[1]
            rng = random.Random(len(adj))
            for s in range(len(adj)):
                full = bfs_distances(adj, s)
                for targets in ([], [s], list(range(s + 1, len(adj))),
                                rng.sample(range(len(adj)), min(3, len(adj)))):
                    dist = bfs_distances(adj, s, targets)
                    assert [dist[t] for t in targets] == [full[t] for t in targets]
                    assert all(d in (-1, f) for d, f in zip(dist, full))
                    assert max(dist) == max((full[t] for t in targets), default=0)


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


def test_diameters_against_the_literature():
    # Manneville & Pilaud (2015), for connected G: max(m, 2n - 18) <= diam
    # <= n(n - 1)/2, and adding an edge never lowers the diameter
    additions = 0
    for n in range(2, 7):
        for g in connected_graphs_up_to_iso(n):
            d = diameter(g)
            assert max(g.m, 2 * n - 18) <= d <= n * (n - 1) // 2
            for a, b in combinations(g.labels, 2):
                if not g.has_edge(a, b):
                    assert diameter(Graph(g.labels, g.edges + ((a, b),))) >= d
                    additions += 1
    assert additions == 821
    # stellohedra: 2(n - 1) holds only from n = 6 on
    assert [diameter(star_graph(n)) for n in range(3, 9)] == [2, 4, 7, 10, 12, 14]
    # the largest symmetric flip graphs pinned here, with their tree counts:
    # S9 is 2(n - 1) and the permutahedron K8 is n(n - 1)/2
    assert _diameter(star_graph(9), 10**6) == (16, 109_601)
    assert _diameter(complete_graph(8), 10**6) == (28, 40_320)


def test_searches_keep_each_state_once():
    # a search holds each state as its key alone, not also as a parent tuple
    g = random_connected_graph(10, 0.3, 1)
    order = list(g.labels)
    random.Random(0).shuffle(order)
    t1, t2 = ElimTree.from_ordering(g, order), ElimTree.from_ordering(g, order[::-1])
    tracemalloc.start()
    try:
        assert distance(g, t1, t2) == 18
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    moves = [(m.u, m.v) for m in shortest_path(g, t1, t2).moves]
    assert moves == [
        ("4", "5"), ("5", "1"), ("6", "1"), ("2", "1"), ("9", "1"), ("10", "7"),
        ("6", "7"), ("2", "7"), ("9", "7"), ("1", "7"), ("8", "7"), ("8", "1"),
        ("6", "5"), ("8", "5"), ("5", "3"), ("8", "4"), ("8", "6"), ("8", "9"),
    ]


def test_diameter_builds_no_trees():
    # the diameter reads bare neighbour indices: no ElimTree per flip-graph vertex
    diameter(path_graph(3))  # numpy is imported outside the trace
    tracemalloc.start()
    try:
        assert diameter(path_graph(9)) == 12
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_dot_export_shape():
    g = path_graph(3)
    dot = flip_graph_dot(g)
    assert dot.startswith("graph flipgraph {")
    assert dot.count("--") == 5  # the pentagon
    assert dot.count("label=") == 5


def test_dot_escapes_quotes_and_backslashes_in_labels():
    g = Graph(['a"b', "c\\"], [('a"b', "c\\")])
    nodes = [line.strip() for line in flip_graph_dot(g).splitlines() if "label=" in line]
    assert len(nodes) == 2
    for line in nodes:
        assert re.fullmatch(r'n\d+ \[label="(?:[^"\\]|\\.)*"\];', line), line
    assert 'n0 [label="c\\\\ a\\"b"];' in nodes


def test_disconnected_host_graph_is_rejected():
    g = Graph(["1", "2"], [])
    with pytest.raises(InvalidArgument, match="connected"):
        explicit_flip_graph(g)
    with pytest.raises(InvalidArgument, match="connected"):
        diameter(g)
