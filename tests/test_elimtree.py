"""Elimination tree construction, swaps, projection, and text formats."""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassoc.elimtree import (
    ElimTree,
    SwapMove,
    format_tree,
    is_valid,
    parse_tree,
    project,
)
from gassoc.errors import IllegalMove, InvalidArgument, ParseError
from gassoc.graph import Graph
from gassoc.smallgraphs import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def chain(g, order):
    return ElimTree.from_ordering(g, order)


def test_from_ordering_path():
    g = path_graph(3)
    t = chain(g, ["2", "1", "3"])
    assert t.root_label() == "2"
    assert set(t.children_of("2")) == {"1", "3"}
    assert t.parent_of("2") is None


def test_from_ordering_respects_components():
    # removing the star center splits into leaves: all leaves are children
    g = star_graph(5)
    t = chain(g, ["1", "2", "3", "4", "5"])
    assert t.children_of("1") == ("2", "3", "4", "5")
    # a leaf first: the rest stays connected through the center
    t2 = chain(g, ["2", "1", "3", "4", "5"])
    assert t2.root_label() == "2"
    assert t2.children_of("2") == ("1",)


def test_from_ordering_is_compatible():
    # every ancestor precedes its descendants in the generating order
    g = cycle_graph(5)
    for sigma in permutations(g.labels):
        t = ElimTree.from_ordering(g, sigma)
        pos = {lab: i for i, lab in enumerate(sigma)}
        for lab in g.labels:
            for anc in t.ancestors(lab):
                assert pos[anc] < pos[lab]


def test_validity_checker():
    g = path_graph(3)
    t = chain(g, ["1", "2", "3"])
    assert is_valid(g, t)
    # chain 2 -> 1 -> 3 is not an elimination tree: removing 2 splits
    # the path into {1} and {3}, so both must be children of 2
    bad = ElimTree(g, [g.index("2"), -1, g.index("1")])
    assert not is_valid(g, bad)


def test_constructor_rejects_malformed_parent_arrays():
    g = path_graph(3)
    with pytest.raises(InvalidArgument):
        ElimTree(g, [-1, -1, 0])  # two roots
    with pytest.raises(InvalidArgument):
        ElimTree(g, [1, 0, -1])  # cycle off the root
    with pytest.raises(InvalidArgument):
        ElimTree(g, [-1, 0])  # wrong length


def test_swap_path_middle():
    g = path_graph(3)
    t = chain(g, ["1", "2", "3"])
    t2 = t.apply_swap(SwapMove("1", "2"))
    assert t2.root_label() == "2"
    assert t2.parent_of("1") == "2"
    assert t2.parent_of("3") == "2"  # 3 is adjacent to 2, moves up


def test_swap_subtree_redistribution():
    # K4 chain 1-2-3-4: swapping (2,3) hands 4 to 2 via adjacency
    g = complete_graph(4)
    t = chain(g, ["1", "2", "3", "4"])
    t2 = t.apply_swap(SwapMove("2", "3"))
    assert t2.parent_of("2") == "3"
    assert t2.parent_of("4") == "2"


def test_swap_illegal_pairs():
    g = path_graph(3)
    t = chain(g, ["1", "2", "3"])
    with pytest.raises(IllegalMove):
        t.apply_swap(SwapMove("2", "1"))  # wrong direction
    with pytest.raises(IllegalMove):
        t.apply_swap(SwapMove("1", "3"))  # not parent-child


def test_swap_involution():
    g = cycle_graph(5)
    t = chain(g, g.labels)
    for move in t.enumerate_swaps():
        back = t.apply_swap(move).apply_swap(move.reversed())
        assert back.canonical_key() == t.canonical_key()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(3, 8))
def test_swap_properties_random(seed, n):
    g = random_connected_graph(n, 0.45, seed)
    t = ElimTree.from_ordering(g, g.labels)
    moves = t.enumerate_swaps()
    assert len(moves) == n - 1
    keys = set()
    for move in moves:
        nb = t.apply_swap(move)
        assert is_valid(g, nb)
        keys.add(nb.canonical_key())
        assert nb.apply_swap(move.reversed()).canonical_key() == t.canonical_key()
    # distinct swaps give distinct neighbors
    assert len(keys) == len(moves)


def test_to_ordering_round_trip():
    g = cycle_graph(6)
    for sigma in [g.labels, tuple(reversed(g.labels))]:
        t = ElimTree.from_ordering(g, sigma)
        again = ElimTree.from_ordering(g, t.to_ordering())
        assert again.canonical_key() == t.canonical_key()


def test_projection_chain_onto_subpath():
    g = path_graph(4)
    t = chain(g, ["1", "2", "3", "4"])
    p = project(g, t, ["2", "3"])
    assert p.root_label() == "2"
    assert p.parent_of("3") == "2"


def test_projection_drops_blocked_ancestry():
    # tree rooted at 2 in path 1-2-3: 1 and 3 are incomparable, and
    # {1,3} is disconnected, so projecting there must fail
    g = path_graph(3)
    t = chain(g, ["2", "1", "3"])
    with pytest.raises(InvalidArgument):
        project(g, t, ["1", "3"])


def test_projection_rejects_empty_target():
    g = path_graph(3)
    t = chain(g, ["2", "1", "3"])
    with pytest.raises(InvalidArgument, match="must induce a connected subgraph"):
        project(g, t, [])


def test_projection_identity():
    g = cycle_graph(5)
    t = chain(g, ["3", "1", "5", "2", "4"])
    p = project(g, t, g.labels)
    assert p.canonical_key() == t.canonical_key()


def test_projection_is_valid_tree():
    g = cycle_graph(5)
    for sigma in [("1", "2", "3", "4", "5"), ("4", "2", "5", "1", "3")]:
        t = ElimTree.from_ordering(g, sigma)
        for u in (["1", "2", "3"], ["2", "3", "4", "5"], ["5", "1"]):
            p = project(g, t, u)
            from gassoc.graph import induced_subgraph

            assert is_valid(induced_subgraph(g, u), p)


def test_projection_preserves_ancestor_order():
    g = cycle_graph(5)
    t = chain(g, ["2", "5", "3", "1", "4"])
    p = project(g, t, ["1", "2", "3"])
    for b in p.graph.labels:
        for a in p.ancestors(b):
            assert a in t.ancestors(b)


def test_tree_text_round_trip():
    g = path_graph(3)
    t = chain(g, ["2", "1", "3"])
    text = format_tree(t)
    assert parse_tree(g, text).canonical_key() == t.canonical_key()
    with pytest.raises(ParseError):
        parse_tree(g, "1 -\n2 1\n")  # missing vertex
    with pytest.raises(ParseError):
        parse_tree(g, "1 -\n2 -\n3 2\n")  # two roots
    with pytest.raises(ParseError):
        parse_tree(g, "1 - extra\n2 1\n3 2\n")


def test_parse_tree_rejects_non_elimination_trees():
    g = path_graph(3)
    with pytest.raises(ParseError):
        parse_tree(g, "2 -\n1 2\n3 1\n")  # 1-3 is no edge of the path
    with pytest.raises(ParseError):
        parse_tree(g, "1 -\n2 1\n3 1\n")  # {2} and {3} are joined by an edge


def test_parse_tree_rejects_duplicate_lines():
    g = path_graph(3)
    with pytest.raises(ParseError, match="duplicate"):
        parse_tree(g, "1 -\n2 1\n3 2\n3 1\n")
    with pytest.raises(ParseError, match="duplicate"):
        parse_tree(g, "1 -\n2 1\n3 2\n3 2\n")


def test_from_ordering_rejects_disconnected_graph():
    g = Graph(["1", "2", "3"], [("1", "2")])
    with pytest.raises(InvalidArgument, match="connected"):
        ElimTree.from_ordering(g, ["1", "2", "3"])


def test_constructor_rejects_parent_index_out_of_range():
    g = path_graph(3)
    with pytest.raises(InvalidArgument):
        ElimTree(g, [-1, 0, 3])
    with pytest.raises(InvalidArgument):
        ElimTree(g, [-2, 0, 1])
