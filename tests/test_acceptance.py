"""Acceptance suite: one test per acceptance criterion.

Each test is self-contained and asserts the exact advertised value;
runtime budgets are asserted where the criterion states one.
"""

import random
import time
from collections import Counter
from itertools import permutations, product

import pytest

from gassoc.elimtree import ElimTree
from gassoc.flipgraph import (
    ReconfigSequence,
    diameter,
    distance,
    enumerate_all,
    shortest_path,
    validate_sequence,
    weighted_length,
)
from gassoc.graph import Graph
from gassoc.reductions import (
    blowup_tree,
    build_unweighted_instance,
    build_weighted_instance,
    lift_sequence,
    sufficiency_sequence,
    threshold,
)
from gassoc.smallgraphs import (
    complete_graph,
    connected_graphs_up_to_iso,
    path_graph,
    star_graph,
)
from gassoc.verify import (
    averaging_inequality_holds,
    reversal_violations,
    verify_axioms_suite,
    verify_blowup_suite,
    verify_projection_suite,
    verify_realization_suite,
)


def inversions(a, b):
    pos = {lab: i for i, lab in enumerate(b)}
    order = [pos[lab] for lab in a]
    return sum(
        1
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if order[i] > order[j]
    )


def test_criterion_1_permutahedron_distances_are_inversions():
    g = complete_graph(4)
    start = time.monotonic()
    orderings = list(permutations(g.labels))
    trees = {s: ElimTree.from_ordering(g, s) for s in orderings}
    pairs = 0
    for i, a in enumerate(orderings):
        for b in orderings[i + 1 :]:
            pairs += 1
            assert distance(g, trees[a], trees[b]) == inversions(a, b)
    assert pairs == 276
    assert time.monotonic() - start < 1.0


def test_criterion_2_stellohedron_diameter():
    g = star_graph(6)
    start = time.monotonic()
    trees = enumerate_all(g)

    # independent oracle: c(k) = 1 + k * c(k-1) trees for a star with k leaves
    c = 1
    for k in range(1, 6):
        c = 1 + k * c
    assert len(trees) == c == 326

    assert diameter(g) == 10  # 2n - 2 with n = 6
    assert time.monotonic() - start < 1.0


@pytest.mark.slow  # about 30 s; `pytest -m "not slow"` skips it locally
def test_criterion_3_associahedron_diameter():
    # Catalan oracle for the vertex count of the path-11 associahedron
    cat = 1
    for i in range(11):
        cat = cat * 2 * (2 * i + 1) // (i + 2)
    assert cat == 58786

    start = time.monotonic()
    g = path_graph(11)
    assert len(enumerate_all(g)) == 58786
    assert diameter(g) == 16  # 2n - 6 at n = 11
    assert time.monotonic() - start < 1800.0

    # the exact_allpairs flag is still accepted and changes nothing at n = 8
    g8 = path_graph(8)
    assert diameter(g8) == diameter(g8, exact_allpairs=True)


def test_criterion_4_polymatroid_axioms():
    start = time.monotonic()
    report = verify_axioms_suite(max_n=5, random_n=8, random_count=100, seed=0)
    assert report.ok, report.failures[:5]
    # 1 + 2 + 6 + 21 graph classes for n = 2..5, plus 100 random graphs
    assert report.checked == 30 + 100
    assert time.monotonic() - start < 60.0


def test_criterion_5_realization_equivalence():
    start = time.monotonic()
    report = verify_realization_suite(max_n=5)
    assert report.ok, report.failures[:5]
    assert report.checked == 30
    assert time.monotonic() - start < 60.0


def test_criterion_6_projection_lemma_exhaustive():
    start = time.monotonic()
    report = verify_projection_suite(max_n=5)
    assert report.ok, report.failures[:5]
    assert report.checked > 100_000
    assert time.monotonic() - start < 300.0


def test_criterion_7_blowup_equivalence():
    start = time.monotonic()
    report = verify_blowup_suite(max_total=7, seed=0)
    assert report.ok, report.failures[:5]
    assert report.checked > 1000
    assert time.monotonic() - start < 600.0


_VERTEX_CLASS = {"s": "clique", "t": "clique", "u": "sub", "v": "orig", "v'": "copy"}


def _swap_class(mv):
    return tuple(sorted(_VERTEX_CLASS[lab.split(":", 1)[0]] for lab in (mv.u, mv.v)))


def _sufficiency_case(source, s, t, x, N, c):
    """c is the number of unit swaps between subdivision vertices in one
    phase (lift or push-down): the unlifted subdivision vertices that sit
    above a lifted one when it is lifted, derived by hand per instance."""
    inst = build_weighted_instance(source, s, t, N=N)
    lam, n, m = inst.cut_value, inst.n, inst.m
    assert N * N > 4 * lam * n * N + 2 * lam * m, "N too small for the bound"
    assert c <= lam * (m - 1)
    seq = sufficiency_sequence(inst, x)
    ok, final = validate_sequence(inst.graph, seq)
    assert ok
    assert final.canonical_key() == inst.t_tar.canonical_key()
    # Each lift and its mirrored push-down pass all 2N^3 clique vertices
    # and all 2n original copies; the reversal swaps originals pairwise;
    # no copy v':* ever moves.
    counts = Counter(_swap_class(mv) for mv in seq.moves)
    assert counts == Counter({
        ("clique", "sub"): 4 * lam * N**3,
        ("orig", "sub"): 4 * lam * n,
        ("orig", "orig"): n * (n - 1),
        ("sub", "sub"): 2 * c,
    })
    weight = weighted_length(seq, inst.weights)
    assert weight == 4 * lam * N**7 + n * (n - 1) * N**2 + 4 * lam * n * N + 2 * c
    # The displayed sum budgets m unit swaps per lifted vertex and phase;
    # a subdivision vertex has at most m - 1 others above it, so the sum
    # is an upper bound that an unpadded sequence stays below.
    formula = 4 * lam * N**7 + n * (n - 1) * N**2 + 4 * lam * n * N + 2 * lam * m
    assert weight <= formula
    assert weight < threshold(inst)


def test_criterion_8_sufficiency_sequence_accounting():
    start = time.monotonic()
    path = Graph(["s", "v1", "v2", "t"],
                 [("s", "v1"), ("v1", "v2"), ("v2", "t")])
    # smallest N with N^2 > 4*lambda*n*N + 2*lambda*m: 4N + 6 < N^2 at N = 6
    # c = 1: the cut edge's vertex u:2 has only u:1 above it
    _sufficiency_case(path, "s", "t", ["s", "v1"], N=6, c=1)
    cyc = Graph(["s", "v1", "t", "v2"],
                [("s", "v1"), ("v1", "t"), ("t", "v2"), ("v2", "s")])
    # lambda = 2, m = 4: 8N + 16 < N^2 first holds at N = 10
    # c = 3: the subdivision part is the chain u:1 -> u:2 -> u:3 -> u:4;
    # u:2 passes u:1, then u:4 passes u:1 and u:3 (u:2 is already lifted)
    _sufficiency_case(cyc, "s", "t", ["s", "v1"], N=10, c=3)
    assert time.monotonic() - start < 600.0


def test_criterion_9_necessity_substitutes():
    # (a) reversal property: flipping the ancestor order of two
    # subdivision vertices requires a swap of two subdivision vertices
    path = Graph(["s", "v1", "v2", "t"],
                 [("s", "v1"), ("v1", "v2"), ("v2", "t")])
    cyc = Graph(["s", "v1", "t", "v2"],
                [("s", "v1"), ("v1", "t"), ("t", "v2"), ("v2", "s")])
    for source, x in [(path, ["s", "v1"]), (cyc, ["s", "v1"])]:
        for N in (2, 3):
            inst = build_weighted_instance(source, "s", "t", N=N)
            seq = sufficiency_sequence(inst, x)
            assert reversal_violations(seq) == []
            back = ReconfigSequence(
                inst.t_tar, tuple(m.reversed() for m in reversed(seq.moves))
            )
            assert reversal_violations(back) == []

    # (b) averaging inequality, exhaustive over the projection family for
    # every small connected graph and seeded weights with total <= 7
    rng = random.Random(0)
    for n in (2, 3):
        for g in connected_graphs_up_to_iso(n):
            for _ in range(2):
                ws = None
                while ws is None or sum(ws) > 7:
                    ws = tuple(rng.randint(1, 3) for _ in range(n))
                w = dict(zip(g.labels, ws))
                base = ElimTree.from_ordering(g, g.labels)
                inst = build_unweighted_instance(g, w, base, base)
                for sigma in (g.labels, tuple(reversed(g.labels))):
                    t2 = ElimTree.from_ordering(g, sigma)
                    seq = shortest_path(g, base, t2)
                    assert averaging_inequality_holds(inst, lift_sequence(inst, seq))
                start_p = blowup_tree(inst, base)
                tree, moves = start_p, []
                for _ in range(10):
                    mv = rng.choice(tree.enumerate_swaps())
                    moves.append(mv)
                    tree = tree.apply_swap(mv)
                assert averaging_inequality_holds(
                    inst, ReconfigSequence(start_p, tuple(moves))
                )
