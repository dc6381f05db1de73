"""Argument guards and small branches, in one table.

Each case is a call and what it gives: an exception of exactly that type
and message, or a return value. The first rows give every public entry
point that takes a graph and a tree a tree of another graph.
"""

import pytest

from gassoc.elimtree import ElimTree, SwapMove, project
from gassoc.errors import IllegalMove, InvalidArgument, ResourceLimit
from gassoc.flipgraph import (
    ReconfigSequence,
    distance,
    shortest_path,
    validate_sequence,
    weighted_distance,
    weighted_length,
    weighted_shortest_path,
)
from gassoc.graph import Graph, balanced_min_cut_exists, min_st_cut_value
from gassoc.polymatroid import (
    GraphAssocRank,
    TableRank,
    devadoss_coordinates,
    greedy_extreme_point,
    membership,
    verify_realization,
)
from gassoc.reductions import (
    blowup_tree,
    build_unweighted_instance,
    build_weighted_instance,
    canonicalize_sequence,
    lift_sequence,
    paper_n,
    project_sequence,
    sufficiency_sequence,
)
from gassoc.smallgraphs import (
    connected_graphs_up_to_iso,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def _one_vertex_coordinates():
    g = Graph(["x"], [])
    return devadoss_coordinates(g, ElimTree.from_ordering(g, ["x"]))


def _twin_swap_of_a_non_child():
    # blow-up of P2 with w = (2, 1): b:1:1 is the parent of b:1:2, not its child
    g = path_graph(2)
    t = ElimTree.from_ordering(g, g.labels)
    inst = build_unweighted_instance(g, {"1": 2, "2": 1}, t, t)
    walk = ReconfigSequence(inst.t_ini, (SwapMove("b:1:2", "b:1:1"),))
    return canonicalize_sequence(inst, walk)


# P3, one of its trees, and a tree of the star on P3's labels (1-3 is no
# edge of P3, so it is no elimination tree of P3).
P3 = path_graph(3)
P3_TREE = ElimTree.from_ordering(P3, P3.labels)
STAR_TREE = ElimTree.from_ordering(star_graph(3), P3.labels)
UNIT = {lab: 1 for lab in P3.labels}
# The tree of P3 rooted at its middle vertex, one swap from P3_TREE.
STAR_P3_TREE = ElimTree.from_ordering(P3, ["2", "1", "3"])


def _blowup_of_p3():
    """The blow-up of P3 with weights (2, 1, 1), and a tree of the path on
    its labels (b:1:1 - b:2:1 is an edge of the blow-up, not of the path)."""
    inst = build_unweighted_instance(P3, {"1": 2, "2": 1, "3": 1}, P3_TREE, P3_TREE)
    labels = inst.graph.labels
    other = Graph(labels, list(zip(labels, labels[1:])))
    return inst, ReconfigSequence(ElimTree.from_ordering(other, labels))


GIVEN = InvalidArgument("not an elimination tree of the given graph")
SOURCE = InvalidArgument("not an elimination tree of the source graph")
BLOWUP = InvalidArgument("not an elimination tree of the blow-up graph")

CASES = {
    # Every public entry point that takes a graph (or an instance) and a
    # tree rejects a tree of another graph on the same labels.
    "distance_other_graph": (lambda: distance(P3, STAR_TREE, P3_TREE), GIVEN),
    "shortest_path_other_graph": (lambda: shortest_path(P3, P3_TREE, STAR_TREE), GIVEN),
    "weighted_distance_other_graph": (
        lambda: weighted_distance(P3, UNIT, STAR_TREE, P3_TREE), GIVEN),
    "weighted_shortest_path_other_graph": (
        lambda: weighted_shortest_path(P3, UNIT, P3_TREE, STAR_TREE), GIVEN),
    "validate_sequence_other_graph": (
        lambda: validate_sequence(P3, ReconfigSequence(STAR_TREE)), GIVEN),
    "blowup_tree_other_graph": (lambda: blowup_tree(_blowup_of_p3()[0], STAR_TREE), SOURCE),
    "lift_sequence_other_graph": (
        lambda: lift_sequence(_blowup_of_p3()[0], ReconfigSequence(STAR_TREE)), SOURCE),
    "project_other_graph": (lambda: project(P3, STAR_TREE, ["1", "2"]), GIVEN),
    "coordinates_other_graph": (lambda: devadoss_coordinates(P3, STAR_TREE), GIVEN),
    "coordinates_smaller_graph": (lambda: devadoss_coordinates(path_graph(4), P3_TREE), GIVEN),
    "project_sequence_other_graph": (
        lambda: project_sequence(*_blowup_of_p3(), {"1": 1, "2": 1, "3": 1}), BLOWUP),
    "canonicalize_sequence_other_graph": (
        lambda: canonicalize_sequence(*_blowup_of_p3()), BLOWUP),
    # The constructor admits integer parent indices only, and stores ints.
    "tree_float_parent": (
        lambda: ElimTree(P3, [1.0, -1, 1]), InvalidArgument("parent index is not an integer")),
    "tree_str_parent": (
        lambda: ElimTree(P3, [1, -1, "1"]), InvalidArgument("parent index is not an integer")),
    "tree_bool_parent": (
        lambda: [(type(p), p) for p in ElimTree(P3, [True, -1, 1]).parent],
        [(int, 1), (int, -1), (int, 1)],
    ),
    # Weights are integers: each is normalized with operator.index, as
    # parent indices are, and a tree is checked before the weights.
    "weighted_distance_float_weight": (
        lambda: weighted_distance(P3, {"1": 1.5, "2": 1, "3": True}, P3_TREE, STAR_P3_TREE),
        InvalidArgument("weights must be integers, w('1') = 1.5")),
    "weighted_distance_str_weight": (
        lambda: weighted_distance(P3, {"1": 1, "2": "2", "3": 1}, P3_TREE, P3_TREE),
        InvalidArgument("weights must be integers, w('2') = '2'")),
    "weighted_distance_tree_before_weights": (
        lambda: weighted_distance(P3, {"1": 1.5, "2": 1, "3": 1}, STAR_TREE, P3_TREE), GIVEN),
    "weighted_length_float_weight": (
        lambda: weighted_length(ReconfigSequence(P3_TREE), {"1": 1, "2": 1, "3": 0.5}),
        InvalidArgument("weights must be integers, w('3') = 0.5")),
    "blowup_float_weight": (
        lambda: build_unweighted_instance(P3, {"1": 2.0, "2": 1, "3": 1}, P3_TREE, P3_TREE),
        InvalidArgument("weights must be integers, w('1') = 2.0")),
    "blowup_bool_weight": (
        lambda: [(type(x), x) for x in build_unweighted_instance(
            P3, {"1": 2, "2": True, "3": 1}, P3_TREE, P3_TREE).weights.values()],
        [(int, 2), (int, 1), (int, 1)],
    ),
    "min_cut_s_equals_t": (
        lambda: min_st_cut_value(path_graph(3), "1", "1"),
        InvalidArgument("s and t must differ"),
    ),
    "min_cut_disconnected": (
        lambda: min_st_cut_value(Graph(["a", "b"], []), "a", "b"),
        InvalidArgument("graph must be connected"),
    ),
    "balanced_cut_odd": (
        lambda: balanced_min_cut_exists(path_graph(3), "1", "3"),
        InvalidArgument("|V| must be even"),
    ),
    "balanced_cut_too_big": (
        lambda: balanced_min_cut_exists(path_graph(22), "1", "22"),
        InvalidArgument("brute-force cap exceeded: 22 > 20"),
    ),
    "greedy_not_normalized": (
        lambda: greedy_extreme_point(
            TableRank(["a"], {frozenset(): 1, frozenset("a"): 1}), ["a"]),
        InvalidArgument("oracle is not normalized: rank(empty) != 0"),
    ),
    "coordinates_one_vertex": (
        _one_vertex_coordinates,
        InvalidArgument("coordinates require at least two vertices"),
    ),
    # A negative node budget fails on every route of a flip-distance query,
    # even on identical trees; budget 0 still answers them.
    "distance_negative_budget": (
        lambda: distance(P3, P3_TREE, P3_TREE, node_budget=-1),
        ResourceLimit("node budget -1 exceeded")),
    "shortest_path_negative_budget": (
        lambda: shortest_path(P3, P3_TREE, P3_TREE, node_budget=-1),
        ResourceLimit("node budget -1 exceeded")),
    "weighted_distance_negative_budget": (
        lambda: weighted_distance(P3, UNIT, P3_TREE, P3_TREE, node_budget=-1),
        ResourceLimit("node budget -1 exceeded")),
    "distance_zero_budget": (lambda: distance(P3, P3_TREE, P3_TREE, node_budget=0), 0),
    # A point is given by one integer coordinate per ground label.
    "membership_missing_coordinate": (
        lambda: membership(GraphAssocRank(P3), {"1": 1, "2": 2}),
        InvalidArgument("missing coordinate for '3'")),
    "membership_float_coordinate": (
        lambda: membership(GraphAssocRank(P3), {"1": 1, "2": 1.0, "3": 1}),
        InvalidArgument("coordinates must be integers, x('2') = 1.0")),
    "membership_too_big": (
        lambda: membership(TableRank([str(i) for i in range(21)], {}), {}),
        ResourceLimit("ground set too large: 21 > 20"),
    ),
    "realization_too_big": (
        lambda: verify_realization(path_graph(9)),
        ResourceLimit("too many orderings: 9! with n > 8"),
    ),
    "paper_n_odd": (
        lambda: paper_n(path_graph(3)),
        InvalidArgument("source graph must have an even number >= 2 of vertices"),
    ),
    "sufficiency_duplicate_label": (
        lambda: sufficiency_sequence(
            build_weighted_instance(path_graph(4), "1", "4", N=2), ["1", "2", "2"]),
        InvalidArgument("duplicate label in X: '2'"),
    ),
    # A vertex set given as labels names each vertex once.
    "mask_duplicate_label": (
        lambda: P3.mask(["1", "2", "1"]), InvalidArgument("duplicate vertex label: '1'")),
    "rank_duplicate_label": (
        lambda: GraphAssocRank(P3).rank(["1", "1"]),
        InvalidArgument("duplicate vertex label: '1'")),
    "project_duplicate_label": (
        lambda: project(P3, P3_TREE, ["1", "2", "2"]),
        InvalidArgument("duplicate vertex label: '2'")),
    "canonicalize_twin_swap": (
        _twin_swap_of_a_non_child,
        IllegalMove("'b:1:1' is not a child of 'b:1:2'"),
    ),
    "cycle_of_two": (
        lambda: cycle_graph(2),
        InvalidArgument("a cycle needs at least three vertices"),
    ),
    "random_graph_empty": (
        lambda: random_connected_graph(0, 0.5, 1),
        InvalidArgument("n must be positive"),
    ),
    "iso_classes_too_big": (
        lambda: next(connected_graphs_up_to_iso(7)),
        InvalidArgument("isomorphism enumeration capped at n = 6"),
    ),
    "empty_graph_connected": (lambda: Graph([], []).is_connected(), True),
    "graph_repr": (lambda: repr(path_graph(3)), "Graph(n=3, m=2)"),
    "tree_repr": (
        lambda: repr(ElimTree.from_ordering(path_graph(3), ["2", "1", "3"])),
        "ElimTree(root='2', n=3)",
    ),
}


@pytest.mark.parametrize("call, expected", CASES.values(), ids=CASES.keys())
def test_guard(call, expected):
    if not isinstance(expected, Exception):
        assert call() == expected
        return
    with pytest.raises(Exception) as info:
        call()
    assert type(info.value) is type(expected)
    assert str(info.value) == str(expected)
