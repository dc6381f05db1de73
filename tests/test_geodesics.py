"""Geodesic facts that rule out splitting a search along shared tubes.

A tube of an elimination tree is the vertex set of one of its subtrees;
the trees that share a tube form a face of the G-associahedron. Each test
pins one counterexample to a face or happy-tube property for general G,
against ``distance``/``weighted_distance`` and a search confined to the
face. So no search may skip swaps that break a tube both endpoints share.
"""

import heapq

from gassoc.elimtree import ElimTree, _shape, _unpack, swap_neighbors
from gassoc.flipgraph import distance, weighted_distance
from gassoc.reductions import build_unweighted_instance
from gassoc.smallgraphs import star_graph


def confined_distance(g, t1, t2, tube, w=None):
    """The least total swap weight from t1 to t2 over trees that all keep
    the tube ``tube`` (labels); unit weights when ``w`` is None."""
    mask = g.mask(tube)
    wi = [1 if w is None else w[lab] for lab in g.labels]
    start, target = t1.canonical_key(), t2.canonical_key()
    best, heap = {start: 0}, [(0, start)]
    while heap:
        d, key = heapq.heappop(heap)
        if key == target:
            return d
        if d > best[key]:
            continue
        for u, v, nk in swap_neighbors(g.adj, key):
            nd = d + wi[u] * wi[v]
            if (nk not in best or nd < best[nk]) and mask in _shape(_unpack(nk, g.n))[2]:
                best[nk] = nd
                heapq.heappush(heap, (nd, nk))
    raise AssertionError("t2 leaves the face")


def tree(g, order):
    return ElimTree.from_ordering(g, order.split())


def is_leaf(t, label):
    return t.children_of(label) == ()


def test_strong_form_fails_on_the_star_s6():
    # both ends keep the centre 1 a leaf, yet a geodesic passes through a
    # tree in which 1 has children
    g = star_graph(6)
    t1, t2, mid = tree(g, "6 5 4 3 2 1"), tree(g, "2 3 4 5 6 1"), tree(g, "2 1 3 4 5 6")
    assert is_leaf(t1, "1") and is_leaf(t2, "1") and not is_leaf(mid, "1")
    assert distance(g, t1, t2) == confined_distance(g, t1, t2, ["1"]) == 10
    assert (distance(g, t1, mid), distance(g, mid, t2)) == (6, 4)


def test_weak_form_fails_on_a_blowup_of_s4():
    # the blow-up of S4 with w = (1, 1, 3, 3): a centre joined to K1, K3, K3
    s4 = star_graph(4)
    base = ElimTree.from_ordering(s4, s4.labels)
    g = build_unweighted_instance(s4, dict(zip(s4.labels, (1, 1, 3, 3))), base, base).graph
    assert (g.n, g.m) == (8, 13)
    t1 = tree(g, "b:4:3 b:4:2 b:4:1 b:3:3 b:3:2 b:3:1 b:2:1 b:1:1")
    t2 = tree(g, "b:2:1 b:3:1 b:3:2 b:3:3 b:4:3 b:4:2 b:4:1 b:1:1")
    assert is_leaf(t1, "b:1:1") and is_leaf(t2, "b:1:1")
    assert distance(g, t1, t2) == 17
    assert confined_distance(g, t1, t2, ["b:1:1"]) == 18


def test_weighted_weak_form_fails_on_s4():
    # the light centre climbs to the root and back down
    g = star_graph(4)
    w = {"1": 1, "2": 4, "3": 4, "4": 2}
    t1, t2 = tree(g, "4 3 2 1"), tree(g, "2 4 3 1")
    assert is_leaf(t1, "1") and is_leaf(t2, "1")
    assert weighted_distance(g, w, t1, t2) == 20
    assert confined_distance(g, t1, t2, ["1"], w) == 24


def test_happy_tube_rule_fails_on_s6():
    # the swap from a to b creates the target's tube {1}, but does not start
    # a geodesic: b is no closer to the target than a
    g = star_graph(6)
    a, b, target = tree(g, "5 4 3 2 1 6"), tree(g, "5 4 3 2 6 1"), tree(g, "6 2 3 5 4 1")
    assert b.canonical_key() in {nk for _, _, nk in swap_neighbors(g.adj, a.canonical_key())}
    assert is_leaf(b, "1") and is_leaf(target, "1") and not is_leaf(a, "1")
    assert distance(g, a, target) == distance(g, b, target) == 9
