"""The paper's averaging bound on clique blow-ups (``flipgraph._TwinBound``)
and the A* route it gives ``distance`` and ``shortest_path``.

References: explicit ``bfs_distances`` over ``explicit_flip_graph``, the
bidirectional BFS route (the bound switched off), ``weighted_distance``
on the source graph (the paper's weighted = blow-up lemma), and, for the
one best-first search ``_uniform_cost``, copies of the separate A* and
uniform-cost loops that it replaced.
"""

import heapq
import random
import time
import pytest

from gassoc import flipgraph
from gassoc.cli import main
from gassoc.elimtree import ElimTree, format_tree, swap_neighbors
from gassoc.errors import ResourceLimit
from gassoc.flipgraph import (
    _TwinBound,
    _twin_classes,
    _uniform_cost,
    bfs_distances,
    distance,
    enumerate_all,
    explicit_flip_graph,
    shortest_path,
    weighted_distance,
)
from gassoc.graph import Graph, format_graph
from gassoc.reductions import blowup_tree, build_unweighted_instance, build_weighted_instance
from gassoc.smallgraphs import (
    complete_graph, connected_graphs_up_to_iso, cycle_graph, path_graph, random_connected_graph,
    star_graph,
)
from gassoc.verify import _blowup_weight_sets

P4 = [(0, 1), (1, 2), (2, 3)]
C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
# the blown-up `dist` pairs of the benchmark's reduce workload: source edges,
# weights, the two source trees (parent indices) and their distance
REDUCE_PAIRS = [
    (P4, (2, 3, 2, 2), (1, 2, 3, -1), (-1, 2, 0, 2), 14),
    (C4, (2, 2, 2, 2), (1, 2, 3, -1), (1, -1, 0, 2), 16),
    (P4, (2, 2, 2, 2), (1, 2, -1, 2), (-1, 3, 1, 0), 16),
    (C4, (2, 2, 2, 2), (1, 2, 3, -1), (-1, 0, 1, 2), 20),
]


def _reduce_pair(j):
    edges, ws, q1, q2, d = REDUCE_PAIRS[j]
    labels = ["a", "b", "c", "d"]
    src = Graph(labels, [(labels[x], labels[y]) for x, y in edges])
    w = dict(zip(labels, ws))
    inst = build_unweighted_instance(src, w, ElimTree(src, q1), ElimTree(src, q2))
    return inst.graph, inst.t_ini, inst.t_tar, d


def _relabelled(g, rng):
    """The same graph with its vertices in a shuffled index order."""
    labels = list(g.labels)
    rng.shuffle(labels)
    return Graph(labels, g.edges)


def _moved(h, t):
    """Tree t of another graph on the same labels, as a tree of h."""
    return ElimTree.from_ordering(h, t.to_ordering())


def _bfs_route(monkeypatch):
    """Switch the bound off: every query takes the bidirectional BFS."""
    monkeypatch.setattr(flipgraph, "_unit_bound", lambda *args: None)


def _blowup_range():
    """Every instance of ``verify blowup-equiv`` at seed 0 whose weights
    are not all 1: (source graph, weights, blow-up instance)."""
    for n in range(2, 5):
        for gi, g in enumerate(connected_graphs_up_to_iso(n)):
            for ws in _blowup_weight_sets(n, 7, 2, gi)[1:]:
                base = ElimTree.from_ordering(g, g.labels)
                yield g, ws, build_unweighted_instance(g, dict(zip(g.labels, ws)), base, base)


def _check_bound(host, trees, adj, target):
    """The bound towards trees[target] on ``host``: zero at the target,
    at most S times the distance (explicit BFS) everywhere, moved by at
    most S, and exactly by its incremental change, on every swap. Returns
    H of every tree and S."""
    bound = _TwinBound(host, _twin_classes(host.adj), trees[target])
    s = bound.size
    dist = bfs_distances(adj, target)
    ids = {t.canonical_key(): i for i, t in enumerate(trees)}
    hs = [bound.h(t.canonical_key()) for t in trees]
    assert hs[target] == 0
    assert all(h <= s * d for h, d in zip(hs, dist))
    for i, t in enumerate(trees):
        key = t.canonical_key()
        delta = bound.expand(key)
        for u, v, nk in swap_neighbors(host.adj, key):
            change = hs[ids[nk]] - hs[i]
            assert abs(change) <= s
            assert delta(u, v) == change
    return hs, s, sum(h == s * d for h, d in zip(hs, dist))


def test_bound_is_consistent_and_exact_on_images_over_the_blowup_range():
    rng = random.Random(0)
    pairs = tight = 0
    for src, ws, inst in _blowup_range():
        host = inst.graph
        trees, adj = explicit_flip_graph(host)
        ids = {t.canonical_key(): i for i, t in enumerate(trees)}
        src_trees = enumerate_all(src)
        t2 = rng.choice(src_trees)
        hs, s, n_tight = _check_bound(host, trees, adj, ids[blowup_tree(inst, t2).canonical_key()])
        if len(_twin_classes(src.adj)) == src.n:  # the twin classes are the copy sets
            d_w = _uniform_cost(src, ws, t2)  # settles every source tree
            for t1 in src_trees:  # exact on blow-up images: H(T1) = S d_w(t1, t2)
                image = ids[blowup_tree(inst, t1).canonical_key()]
                assert hs[image] == s * d_w[t1.canonical_key()]
        _, _, n_random = _check_bound(host, trees, adj, rng.randrange(len(trees)))
        pairs, tight = pairs + 2 * len(trees), tight + n_tight + n_random
        if len(trees) <= 600:  # twins no longer consecutive in index order
            moved = _relabelled(host, rng)
            trees_m, adj_m = explicit_flip_graph(moved)
            _, _, n_moved = _check_bound(moved, trees_m, adj_m, rng.randrange(len(trees_m)))
            pairs, tight = pairs + len(trees_m), tight + n_moved
    assert (pairs, tight) == (82_152, 57_055)


def _check_routes(monkeypatch, g, pairs):
    """A* answers equal the BFS route's, byte for byte."""
    got = [(distance(g, t1, t2), shortest_path(g, t1, t2).moves) for t1, t2 in pairs]
    with monkeypatch.context() as m:
        _bfs_route(m)
        assert got == [(distance(g, t1, t2), shortest_path(g, t1, t2).moves) for t1, t2 in pairs]


def test_bound_route_gives_the_bfs_answers(monkeypatch):
    k4 = complete_graph(4)
    trees = enumerate_all(k4)
    _check_routes(monkeypatch, k4, [(a, b) for a in trees for b in trees])
    k5 = complete_graph(5)
    trees = enumerate_all(k5)
    _check_routes(monkeypatch, k5, [(a, b) for a in trees[::40] for b in trees])
    rng = random.Random(3)
    for src, ws, inst in _blowup_range():
        host = inst.graph
        if flipgraph._unit_bound(host, inst.t_ini, inst.t_tar, 10**6) is None:
            continue
        trees = enumerate_all(host)
        moved = _relabelled(host, rng)
        pairs = [(rng.choice(trees), rng.choice(trees)) for _ in range(3)]
        _check_routes(monkeypatch, host, pairs)
        _check_routes(monkeypatch, moved, [(_moved(moved, a), _moved(moved, b)) for a, b in pairs])


def _expansions(monkeypatch, g):
    """A counter of the swap-kernel calls on ``g`` made by flipgraph."""
    count = [0]

    def counted(adj, key):
        if adj is g.adj:
            count[0] += 1
        return swap_neighbors(adj, key)

    monkeypatch.setattr(flipgraph, "swap_neighbors", counted)
    return count


def test_reduce_workload_pairs_expand_at_most_d_plus_2(monkeypatch):
    # deeper-first ties: the bound is exact on blow-up images, so A* walks
    # straight down a geodesic, with at most two detours
    counts = []
    for j in range(len(REDUCE_PAIRS)):
        g, t1, t2, d = _reduce_pair(j)
        with monkeypatch.context() as m:
            count = _expansions(m, g)
            assert distance(g, t1, t2) == d
        assert count[0] <= d + 2
        counts.append(count[0])
    assert counts == [14, 16, 18, 20]


def _least_budget(query, g, t1, t2):
    """The least node budget under which the query succeeds, and the
    message it fails with one below."""
    lo, hi = 1, 10**6
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            query(g, t1, t2, node_budget=mid)
            hi = mid
        except ResourceLimit:
            lo = mid + 1
    with pytest.raises(ResourceLimit, match=f"^node budget {lo - 1} exceeded$"):
        query(g, t1, t2, node_budget=lo - 1)
    return lo


def test_bound_budgets_the_tables_the_search_and_the_closing():
    # the path needs more than its distance, for the closing, but far less
    # than the BFS route, which needs 5,050 for both
    g, t1, t2, d = _reduce_pair(2)
    bound = flipgraph._unit_bound(g, t1, t2, 10**6)
    assert bound.spent == 14  # the one table: every tree of the quotient P4
    assert _least_budget(distance, g, t1, t2) == 14 + 18
    assert _least_budget(shortest_path, g, t1, t2) == 306
    assert len(shortest_path(g, t1, t2, node_budget=306)) == d


def test_closing_stops_at_the_budget():
    # On K9 against its reverse every one of the 9! trees lies on a geodesic
    # and the bound is exact, so the closing would settle the whole flip
    # graph; the budget stops it.
    k9 = complete_graph(9)
    t1 = ElimTree.from_ordering(k9, k9.labels)
    t2 = ElimTree.from_ordering(k9, k9.labels[::-1])
    assert distance(k9, t1, t2, node_budget=100) == 36
    start = time.monotonic()
    with pytest.raises(ResourceLimit, match="node budget 100 exceeded"):
        shortest_path(k9, t1, t2, node_budget=100)
    assert time.monotonic() - start < 1.0


def _never_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("bound built")

    monkeypatch.setattr(flipgraph, "_TwinBound", refuse)
    monkeypatch.setattr(flipgraph, "product", refuse)


def test_few_twins_keep_the_bfs(monkeypatch):
    _never_built(monkeypatch)
    one_pair = Graph("abcde", [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d"), ("d", "e")])
    for g, saving in ((one_pair, 1), (complete_graph(3), 2)):
        assert g.n - len(_twin_classes(g.adj)) == saving
        trees = enumerate_all(g)
        assert distance(g, trees[0], trees[-1]) == len(shortest_path(g, trees[0], trees[-1])) > 0


def test_many_selections_fall_back_at_once(monkeypatch, tmp_path):
    # the N = 3 `reduce cut` graph of P4: two twin classes of 27, S = 729
    inst = build_weighted_instance(path_graph(4), "1", "4", 3)
    g = inst.graph
    assert sorted(map(len, _twin_classes(g.adj)))[-2:] == [27, 27]
    _never_built(monkeypatch)
    with pytest.raises(ResourceLimit, match="node budget 10 exceeded"):
        distance(g, inst.t_ini, inst.t_tar, node_budget=10)
    files = []
    for name, text in (("g", format_graph(g)), ("a", format_tree(inst.t_ini)),
                       ("b", format_tree(inst.t_tar))):
        (tmp_path / name).write_text(text)
        files.append(str(tmp_path / name))
    start = time.monotonic()
    assert main(["--node-budget", "10", "dist", *files]) == 4
    assert time.monotonic() - start < 2.0


def _lemma_pairs(src, ws):
    """Source orders shuffled by random.Random(1), each against its reverse,
    as blow-up images."""
    w = dict(zip(src.labels, ws))
    order = list(src.labels)
    random.Random(1).shuffle(order)
    t1, t2 = ElimTree.from_ordering(src, order), ElimTree.from_ordering(src, order[::-1])
    inst = build_unweighted_instance(src, w, t1, t2)
    return inst, weighted_distance(src, w, t1, t2)


LEMMA_CASES = [
    (cycle_graph(5), (2, 3, 2, 2, 2), 32),  # n = 11; 34 s by bidirectional BFS
    (path_graph(5), (2, 2, 2, 2, 2), 16),  # n = 10
    (star_graph(5), (1, 3, 2, 2, 2), 9),  # n = 10
    (random_connected_graph(6, 0.5, 2), (2,) * 6, 32),  # n = 12, S = 64; 138 s, 1.39 GB by BFS
]


@pytest.mark.parametrize("src,ws,d", LEMMA_CASES)
def test_blowup_distance_equals_the_weighted_distance_past_explicit_builds(src, ws, d):
    inst, d_w = _lemma_pairs(src, ws)
    assert distance(inst.graph, inst.t_ini, inst.t_tar) == d_w == d
    assert len(shortest_path(inst.graph, inst.t_ini, inst.t_tar)) == d


# -- the one best-first search against the two loops it replaced ---------


def _oracle_astar(g, t1, t2, bound, node_budget, close=False):
    """A* as its own loop: heap entries (f, -d, key), f = S d + H."""
    goal, start_key = t2.canonical_key(), t1.canonical_key()
    heap = [(bound.h(start_key), 0, start_key)]
    best = {start_key: 0}
    expanded, limit, size = bound.spent, None, bound.size
    while heap:
        f, neg_d, key = heapq.heappop(heap)
        d = best[key]
        if -neg_d > d:
            continue
        if limit is None:
            if key == goal:
                if not close:
                    return best
                limit = f
                continue
        elif f > limit:
            return best
        expanded += 1
        if expanded > node_budget:
            raise ResourceLimit(f"node budget {node_budget} exceeded")
        nd, nf, delta = d + 1, f + size, bound.expand(key)
        for u, v, nk in swap_neighbors(g.adj, key):
            if nk not in best or nd < best[nk]:
                f_nk = nf + delta(u, v)
                if limit is None or f_nk <= limit:
                    best[nk] = nd
                    heapq.heappush(heap, (f_nk, -nd, nk))
    if limit is None:
        raise AssertionError("flip graph is connected; target must be reached")
    return best


def _oracle_uniform_cost(g, wi, t1, target=None, node_budget=10**7, spent=0):
    """Uniform-cost search as its own loop: heap entries (d, key)."""
    goal = None if target is None else target.canonical_key()
    start_key = t1.canonical_key()
    heap = [(0, start_key)]
    best = {start_key: 0}
    expanded = spent
    while heap:
        d, key = heapq.heappop(heap)
        if d > best[key]:
            continue
        if key == goal:
            return best
        expanded += 1
        if expanded > node_budget:
            raise ResourceLimit(f"node budget {node_budget} exceeded")
        for u, v, nk in swap_neighbors(g.adj, key):
            nd = d + wi[u] * wi[v]
            if nk not in best or nd < best[nk]:
                best[nk] = nd
                heapq.heappush(heap, (nd, nk))
    if goal is not None:
        raise AssertionError("flip graph is connected; target must be reached")
    return best


def _astar_pairs():
    """Every A* pair built above: the reduce workload's and the lemma's."""
    for j in range(len(REDUCE_PAIRS)):
        yield _reduce_pair(j)[:3]
    for src, ws, _ in LEMMA_CASES:
        inst = _lemma_pairs(src, ws)[0]
        yield inst.graph, inst.t_ini, inst.t_tar


@pytest.mark.parametrize("close", [False, True])
def test_search_with_the_bound_equals_the_astar_loop(close):
    for g, t1, t2 in _astar_pairs():
        bound = flipgraph._unit_bound(g, t1, t2, 10**7)
        got = _uniform_cost(g, [1] * g.n, t1, t2, 10**7, bound.spent, bound, close=close)
        assert got == _oracle_astar(g, t1, t2, bound, 10**7, close=close)


def test_search_without_a_bound_equals_the_uniform_cost_loop():
    rng = random.Random(31)
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            trees = enumerate_all(g)
            wi = [rng.randint(1, 5) for _ in range(n)]
            for _ in range(3):
                t1, t2 = rng.choice(trees), rng.choice(trees)
                assert _uniform_cost(g, wi, t1, t2) == _oracle_uniform_cost(g, wi, t1, t2)
            assert _uniform_cost(g, wi, t1) == _oracle_uniform_cost(g, wi, t1)
