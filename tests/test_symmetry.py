"""Automorphisms of the host graph and the diameter's one source per orbit.

An automorphism sigma of G maps the elimination tree with parent array p
to the one with p'[sigma(i)] = sigma(p[i]) and swaps to swaps, so it keeps
every eccentricity of the flip graph. The search under test lives in
``graph.automorphism_generators``; the orbits of trees in
``flipgraph._tree_orbits``. Each is checked here against a brute force over
all vertex permutations, a count by Burnside's lemma or a count derived by
hand, and the orbit diameter against every eccentricity.
"""

import random
import time
from itertools import permutations

import pytest

from gassoc.elimtree import ElimTree, _unpack
from gassoc.flipgraph import _eccentricities, _flip_graph, _tree_orbits, diameter
from gassoc.graph import Graph, automorphism_generators
from gassoc.smallgraphs import (
    complete_graph,
    connected_graphs_up_to_iso,
    cycle_graph,
    path_graph,
    star_graph,
)

# the 142 connected classes with 2 <= n <= 6, and the one-vertex graph
SMALL = [g for n in range(1, 7) for g in connected_graphs_up_to_iso(n)]


def _brute_automorphisms(g):
    """Every vertex permutation that maps the edge set onto itself."""
    edges = {frozenset((g.index(a), g.index(b))) for a, b in g.edges}
    return [
        p for p in permutations(range(g.n))
        if all(frozenset((p[a], p[b])) in edges for a, b in map(tuple, edges))
    ]


def _is_automorphism(g, sigma):
    return sorted(sigma) == list(range(g.n)) and all(
        g.adj[sigma[v]] == sum(1 << sigma[u] for u in range(g.n) if g.adj[v] >> u & 1)
        for v in range(g.n)
    )


def _group_order(n, gens):
    """The order of the permutation group the generators generate, by closure."""
    identity = tuple(range(n))
    seen, todo = {identity}, [identity]
    for x in todo:
        for p in gens:
            y = tuple(p[i] for i in x)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return len(seen)


def _graph(n, pairs):
    labs = [str(i) for i in range(n)]
    return Graph(labs, [(labs[a], labs[b]) for a, b in pairs])


def test_generators_generate_the_whole_group_on_small_graphs():
    for g in SMALL:
        gens = automorphism_generators(g)
        assert all(_is_automorphism(g, sigma) for sigma in gens)
        assert _group_order(g.n, gens) == len(_brute_automorphisms(g)), g.edges


PETERSEN = _graph(10, [(i, (i + 1) % 5) for i in range(5)]
                  + [(i, i + 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
CUBE = _graph(8, [(a, a ^ 1 << k) for a in range(8) for k in range(3) if a < a ^ 1 << k])
K33 = _graph(6, [(a, b) for a in range(3) for b in range(3, 6)])
# cubic and rigid: refinement alone splits nothing, so every image is searched
FRUCHT = _graph(12, [(i, (i + 1) % 12) for i in range(12)] + [
    (i, (i + d) % 12) for i, d in enumerate([-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2])
    if i < (i + d) % 12])

# 4-regular with order 2: refinement splits nothing, and one branch reaches a
# leaf whose vertex map is no automorphism, which the leaf check rejects
REG4 = _graph(10, [(0, 2), (0, 5), (0, 7), (0, 9), (1, 3), (1, 5), (1, 7), (1, 8), (2, 5),
                   (2, 6), (2, 7), (3, 4), (3, 5), (3, 8), (4, 6), (4, 8), (4, 9), (6, 8),
                   (6, 9), (7, 9)])


@pytest.mark.parametrize(
    "g, order",
    [(PETERSEN, 120), (CUBE, 48), (K33, 72), (cycle_graph(12), 24),
     (path_graph(20), 2), (complete_graph(8), 40320), (star_graph(9), 40320), (FRUCHT, 1),
     (REG4, 2)],
    ids=["petersen", "cube", "k33", "c12", "p20", "k8", "s9", "frucht", "reg4"],
)
def test_named_group_orders(g, order):
    start = time.perf_counter()
    gens = automorphism_generators(g)
    assert time.perf_counter() - start < 0.5
    assert all(_is_automorphism(g, sigma) for sigma in gens)
    assert _group_order(g.n, gens) == order


def test_a_rigid_graph_has_no_generators():
    # the smallest asymmetric trees have 7 vertices: a spider with legs 1, 2, 3
    g = _graph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])
    assert automorphism_generators(g) == []
    keys, _ = _flip_graph(g)
    assert _tree_orbits(g, keys).tolist() == list(range(len(keys)))


def _orbit_partition(labels):
    groups = {}
    for i, lab in enumerate(labels):
        groups.setdefault(lab, []).append(i)
    return sorted(groups.values())


def _parent(g, key):
    return tuple(_unpack(key, g.n))


def _mirror_key(g, key):
    """The key of a path's tree reflected end to end: p'[last - i] = last - p[i]."""
    last = g.n - 1
    parent = _parent(g, key)
    return ElimTree(g, [-1 if p < 0 else last - p for p in reversed(parent)]).canonical_key()


def test_path_orbits_by_burnside():
    # the reflection fixes exactly the mirror-symmetric trees, so there are
    # (4,862 + fixed) / 2 orbits; the fixed trees are rooted at the middle
    # vertex with mirrored subtrees on 1..4 and 6..9: Catalan(4) = 14 of them
    g = path_graph(9)
    keys, _ = _flip_graph(g)
    fixed = sum(_mirror_key(g, k) == k for k in keys)
    assert (len(keys), fixed) == (4862, 14)
    labels = _tree_orbits(g, keys)
    assert len(set(labels.tolist())) == (4862 + 14) // 2 == 2438


def test_star_orbits_are_the_centre_depths():
    # a tree of S7 is a chain of k leaves above the centre, the other leaves
    # below it; any permutation of the leaves keeps k, and k = 0..6 is all
    g = star_graph(7)
    keys, _ = _flip_graph(g)
    depth = []
    for k in keys:
        parent, v, d = _parent(g, k), 0, 0
        while parent[v] >= 0:
            v, d = parent[v], d + 1
        depth.append(d)
    labels = _tree_orbits(g, keys)
    assert len(set(labels.tolist())) == 7
    assert _orbit_partition(labels.tolist()) == _orbit_partition(depth)


def test_complete_graph_is_one_orbit():
    keys, _ = _flip_graph(complete_graph(6))
    assert set(_tree_orbits(complete_graph(6), keys).tolist()) == {0}


def test_cycle_orbits_against_brute_force():
    # every automorphism of C8 from all 8! permutations, applied to every
    # tree through the ElimTree constructor; orbits by union of keys
    g = cycle_graph(8)
    auts = _brute_automorphisms(g)
    assert len(auts) == 16
    keys, _ = _flip_graph(g)
    index = {k: i for i, k in enumerate(keys)}
    root = list(range(len(keys)))

    def find(i):
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for i, k in enumerate(keys):
        parent = _parent(g, k)
        for sigma in auts:
            image = [0] * g.n
            for v, p in enumerate(parent):
                image[sigma[v]] = -1 if p < 0 else sigma[p]
            a, b = find(i), find(index[ElimTree(g, image).canonical_key()])
            root[max(a, b)] = min(a, b)
    brute = [find(i) for i in range(len(keys))]
    labels = _tree_orbits(g, keys).tolist()
    assert labels == brute
    assert len(set(labels)) == 217


@pytest.mark.parametrize(
    "builder", [lambda: path_graph(9), lambda: cycle_graph(8), lambda: star_graph(7),
                lambda: complete_graph(6)],
    ids=["P9", "C8", "S7", "K6"],
)
def test_eccentricity_is_constant_on_every_orbit(builder):
    g = builder()
    keys, rows = _flip_graph(g)
    eccs = _eccentricities(rows, range(len(keys)))
    labels = _tree_orbits(g, keys).tolist()
    assert all(eccs[i] == eccs[lab] for i, lab in enumerate(labels))


def test_rows_match_exactly_at_twenty_vertices():
    # P20 trees and their mirror images form a set closed under Aut(P20),
    # and no tree of P20 is its own mirror (the root would be a fixed
    # vertex), so each pair is one orbit; a row code that overflowed 64 bits
    # would merge or split these orbits
    g = path_graph(20)
    rng = random.Random(20)
    pairs = set()
    for _ in range(12):
        order = list(g.labels)
        rng.shuffle(order)
        key = ElimTree.from_ordering(g, order).canonical_key()
        pairs.add(frozenset((key, _mirror_key(g, key))))
    assert all(len(pair) == 2 for pair in pairs)
    keys = sorted(k for pair in pairs for k in pair)
    labels = _tree_orbits(g, keys).tolist()
    for i, k in enumerate(keys):
        assert labels[i] == min(i, keys.index(_mirror_key(g, k)))
    assert len(set(labels)) == len(pairs)


def _renamed(g, seed):
    labels = list(g.labels)
    random.Random(seed).shuffle(labels)
    rename = dict(zip(g.labels, labels))
    return Graph(sorted(labels), [(rename[a], rename[b]) for a, b in g.edges])


def _all_source_diameter(g):
    rows = _flip_graph(g)[1]
    return max(_eccentricities(rows, range(len(rows))))


def test_orbit_diameter_equals_every_eccentricity_on_small_graphs():
    for g in SMALL:
        assert diameter(g) == _all_source_diameter(g), g.edges


@pytest.mark.parametrize(
    "builder, expected",
    [(lambda: path_graph(9), 12), (lambda: cycle_graph(8), 14),
     (lambda: star_graph(7), 12), (lambda: complete_graph(6), 15)],
    ids=["P9", "C8", "S7", "K6"],
)
@pytest.mark.parametrize("seed", [3, 4])
def test_orbit_diameter_on_shuffled_labels(builder, expected, seed):
    g = _renamed(builder(), seed)
    assert diameter(g) == _all_source_diameter(g) == expected


def test_named_graphs_have_their_orbit_counts_after_renaming():
    # the orbit count is a property of the graph, not of its labels
    for g, orbits in [(path_graph(9), 2438), (cycle_graph(8), 217), (star_graph(7), 7),
                      (complete_graph(6), 1)]:
        h = _renamed(g, 5)
        keys, _ = _flip_graph(h)
        assert len(set(_tree_orbits(h, keys).tolist())) == orbits
