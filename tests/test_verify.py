"""Verification suites and the hardness-instance property helpers."""

import random
import re
from itertools import combinations, permutations

from gassoc import verify
from gassoc.elimtree import ElimTree, _Projector, swap_neighbors
from gassoc.flipgraph import ReconfigSequence, shortest_path
from gassoc.graph import Graph
from gassoc.reductions import (
    blowup_tree,
    build_unweighted_instance,
    build_weighted_instance,
    lift_sequence,
    sufficiency_sequence,
)
from gassoc.smallgraphs import connected_graphs_up_to_iso
from gassoc.verify import (
    averaging_inequality_holds,
    reversal_violations,
    verify_axioms_suite,
    verify_blowup_suite,
    verify_projection_suite,
    verify_realization_suite,
)


def test_iso_class_counts():
    # connected graphs up to isomorphism: 1, 1, 2, 6, 21, 112 for n = 1..6
    for n, expected in [(1, 1), (2, 1), (3, 2), (4, 6), (5, 21), (6, 112)]:
        assert sum(1 for _ in connected_graphs_up_to_iso(n)) == expected


def _oracle_connected_graphs_up_to_iso(n):
    """The former enumeration: canonical form by minimizing the sorted edge
    list over all vertex permutations, first graph of each form kept."""
    labs = [str(i) for i in range(1, n + 1)]
    pairs = list(combinations(range(n), 2))
    seen = set()
    for bits in range(1 << len(pairs)):
        if bits.bit_count() < n - 1:
            continue
        edges = frozenset(p for k, p in enumerate(pairs) if bits >> k & 1)
        g = Graph(labs, [(labs[a], labs[b]) for a, b in sorted(edges)])
        if not g.is_connected():
            continue
        canon = min(
            tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
            for perm in permutations(range(n))
        )
        if canon not in seen:
            seen.add(canon)
            yield g


def test_iso_classes_match_oracle():
    # same representatives, same edge lists, same order
    for n in range(1, 6):
        assert [(g.labels, g.edges) for g in connected_graphs_up_to_iso(n)] == [
            (g.labels, g.edges) for g in _oracle_connected_graphs_up_to_iso(n)
        ]


def test_axioms_suite_small():
    report = verify_axioms_suite(max_n=4, random_n=6, random_count=10)
    assert report.ok
    assert report.checked == 1 + 2 + 6 + 10


def test_realization_suite_small():
    report = verify_realization_suite(max_n=4)
    assert report.ok
    assert report.checked == 9


def test_projection_suite_small():
    report = verify_projection_suite(max_n=4)
    assert report.ok
    assert report.checked > 1000


FAILURE = re.compile(
    r"n=\d+ edges=\(.*\) U=\[('[^']+', )*'[^']+'\] "
    r"move=SwapMove\(u='[^']+', v='[^']+'\)"
)


def assert_reports_failures(report):
    assert not report.ok
    assert report.checked == 4530  # every (tree, swap, U) with n <= 4
    assert all(FAILURE.fullmatch(f) for f in report.failures), report.failures[:3]


def test_projection_suite_catches_a_wrong_projection(monkeypatch):
    # T|_U from a leaf-first order turns the ancestry inside U upside down
    class Upside(_Projector):
        def __call__(self, order):
            return super().__call__(list(order)[::-1])

    monkeypatch.setattr(verify, "_Projector", Upside)
    assert_reports_failures(verify_projection_suite(max_n=4))


def test_projection_suite_catches_a_wrong_swap_rule(monkeypatch):
    # on G[U] only, swap(u, v) leaves every child subtree of v below v
    class OnSubgraph(list):
        pass

    class Marking(_Projector):
        def __init__(self, adj, mask):
            super().__init__(adj, mask)
            self.adj = OnSubgraph(self.adj)

    def careless(adj, parent):
        for u, v, nb, key in swap_neighbors(adj, parent):
            if isinstance(adj, OnSubgraph):
                nb = list(parent)
                nb[u], nb[v] = v, parent[u]
                nb = tuple(nb)
            yield u, v, nb, key

    monkeypatch.setattr(verify, "_Projector", Marking)
    monkeypatch.setattr(verify, "swap_neighbors", careless)
    assert_reports_failures(verify_projection_suite(max_n=4))


def test_blowup_suite_small():
    report = verify_blowup_suite(max_total=5)
    assert report.ok
    assert report.checked > 50


def test_reversal_property_on_sufficiency_sequence():
    g = Graph(["s", "v1", "v2", "t"],
              [("s", "v1"), ("v1", "v2"), ("v2", "t")])
    inst = build_weighted_instance(g, "s", "t", N=2)
    seq = sufficiency_sequence(inst, ["s", "v1"])
    assert reversal_violations(seq) == []


def test_reversal_property_on_reversed_sequence():
    g = Graph(["s", "v1", "t", "v2"],
              [("s", "v1"), ("v1", "t"), ("t", "v2"), ("v2", "s")])
    inst = build_weighted_instance(g, "s", "t", N=2)
    seq = sufficiency_sequence(inst, ["s", "v1"])
    back = ReconfigSequence(
        inst.t_tar, tuple(m.reversed() for m in reversed(seq.moves))
    )
    assert reversal_violations(back) == []


def test_reversal_checker_detects_free_reversals():
    # the property is not a universal invariant of arbitrary walks: a
    # detour through a side branch can invert two subdivision vertices
    # without ever swapping two of them, and the checker must report it
    g = Graph(["s", "v1", "v2", "t"],
              [("s", "v1"), ("v1", "v2"), ("v2", "t")])
    inst = build_weighted_instance(g, "s", "t", N=2)
    found = False
    for seed in range(10):
        rng = random.Random(seed)
        tree, moves = inst.t_ini, []
        for _ in range(30):
            mv = rng.choice(tree.enumerate_swaps())
            moves.append(mv)
            tree = tree.apply_swap(mv)
        if reversal_violations(ReconfigSequence(inst.t_ini, tuple(moves))):
            found = True
            break
    assert found


def blowup_of(labels, edges, weights):
    g = Graph(labels, edges)
    w = dict(zip(labels, weights))
    base = ElimTree.from_ordering(g, labels)
    return g, w, build_unweighted_instance(g, w, base, base)


def test_averaging_on_lifted_sequences():
    g, w, inst = blowup_of(["1", "2", "3"], [("1", "2"), ("2", "3")], (2, 1, 3))
    t1 = ElimTree.from_ordering(g, ["1", "2", "3"])
    t2 = ElimTree.from_ordering(g, ["3", "2", "1"])
    seq = shortest_path(g, t1, t2)
    assert averaging_inequality_holds(inst, lift_sequence(inst, seq))


def test_averaging_on_random_walks():
    g, w, inst = blowup_of(["1", "2", "3"], [("1", "2"), ("2", "3"), ("1", "3")],
                           (2, 2, 2))
    base = blowup_tree(inst, ElimTree.from_ordering(g, g.labels))
    for seed in range(8):
        rng = random.Random(seed)
        tree, moves = base, []
        for _ in range(12):
            mv = rng.choice(tree.enumerate_swaps())
            moves.append(mv)
            tree = tree.apply_swap(mv)
        walk = ReconfigSequence(base, tuple(moves))
        assert averaging_inequality_holds(inst, walk)
