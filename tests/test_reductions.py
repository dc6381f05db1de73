"""Reduction instance builders, sufficiency sequence, blow-up machinery."""

import random
from itertools import combinations, product

import pytest

from gassoc.elimtree import ElimTree, SwapMove, project
from gassoc.errors import InvalidArgument, ParseError, ResourceLimit
from gassoc.flipgraph import (
    ReconfigSequence,
    distance,
    shortest_path,
    validate_sequence,
    weighted_distance,
    weighted_length,
)
from gassoc.graph import Graph
from gassoc.reductions import (
    blowup_tree,
    build_unweighted_instance,
    build_weighted_instance,
    canonicalize_sequence,
    instance_meta,
    lift_sequence,
    paper_n,
    project_sequence,
    read_bundle,
    sufficiency_sequence,
    threshold,
    write_bundle,
)


def path_source():
    return Graph(["s", "v1", "v2", "t"],
                 [("s", "v1"), ("v1", "v2"), ("v2", "t")])


def cycle_source():
    return Graph(["s", "v1", "t", "v2"],
                 [("s", "v1"), ("v1", "t"), ("t", "v2"), ("v2", "s")])


def test_paper_n():
    assert paper_n(path_source()) == 10 * 1 * 3  # n=1, m=3
    assert paper_n(cycle_source()) == 10 * 1 * 4


def test_weighted_instance_sizes_and_weights():
    inst = build_weighted_instance(path_source(), "s", "t", N=2)
    # 2n originals + m subdivisions + 2N^3 clique + 2n+2 copies
    assert inst.graph.n == 2 + 3 + 16 + 4
    assert inst.cut_value == 1
    w = inst.weights
    assert w["v:v1"] == 2
    assert w["v':v1"] == 2**8
    assert w["v':s"] == 2**8
    assert w["u:1"] == 1
    assert w["s:1"] == w["t:8"] == 2**4
    assert len([lab for lab in inst.graph.labels if lab.startswith("s:")]) == 8


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize(
    "source",
    [path_source, cycle_source, lambda: Graph(list("sabt"), list(combinations("sabt", 2)))],
)
def test_weighted_instance_size_guard_is_exact(source, N):
    inst = build_weighted_instance(source(), "s", "t", N=N)
    size = inst.graph.n + inst.graph.m
    build_weighted_instance(source(), "s", "t", N=N, node_budget=size)
    with pytest.raises(ResourceLimit, match="node budget"):
        build_weighted_instance(source(), "s", "t", N=N, node_budget=size - 1)


def test_weighted_instance_orderings():
    inst = build_weighted_instance(path_source(), "s", "t", N=2)
    ini = inst.t_ini.to_ordering()
    # originals first, then interleaved cliques starting with s_1
    assert ini[:4] == ("v:v1", "v:v2", "s:1", "t:1")
    # target reverses the originals and swaps each s_i/t_i pair
    tar = inst.t_tar.to_ordering()
    assert tar[:4] == ("v:v2", "v:v1", "t:1", "s:1")


def test_weighted_instance_validations():
    g = path_source()
    with pytest.raises(InvalidArgument):
        build_weighted_instance(g, "s", "s", N=2)
    with pytest.raises(InvalidArgument):
        build_weighted_instance(g, "s", "t", N=1)
    odd = Graph(["s", "a", "t"], [("s", "a"), ("a", "t")])
    with pytest.raises(InvalidArgument):
        build_weighted_instance(odd, "s", "t", N=2)
    disc = Graph(["s", "t", "a", "b"], [("s", "t"), ("a", "b")])
    with pytest.raises(InvalidArgument):
        build_weighted_instance(disc, "s", "t", N=2)


def test_threshold_formula():
    inst = build_weighted_instance(path_source(), "s", "t", N=2)
    assert threshold(inst) == 4 * 1 * 2**7 + (1 - 1 + 1) * 4  # 516
    inst6 = build_weighted_instance(cycle_source(), "s", "t", N=6)
    assert threshold(inst6) == 8 * 6**7 + 36
    # monotone in N
    prev = 0
    for N in (2, 3, 4, 5):
        cur = threshold(build_weighted_instance(path_source(), "s", "t", N=N))
        assert cur > prev
        prev = cur


def test_sufficiency_sequence_path():
    inst = build_weighted_instance(path_source(), "s", "t", N=2)
    seq = sufficiency_sequence(inst, ["s", "v1"])
    ok, final = validate_sequence(inst.graph, seq)
    assert ok
    assert final.canonical_key() == inst.t_tar.canonical_key()


def test_sufficiency_sequence_below_threshold_when_n_large_enough():
    # N^2 > 4*lambda*n*N + 2*lambda*m needs N >= 6 for the path source
    inst = build_weighted_instance(path_source(), "s", "t", N=6)
    seq = sufficiency_sequence(inst, ["s", "v1"])
    assert weighted_length(seq, inst.weights) < threshold(inst)


def test_sufficiency_rejects_bad_cuts():
    inst = build_weighted_instance(cycle_source(), "s", "t", N=2)
    with pytest.raises(InvalidArgument):
        sufficiency_sequence(inst, ["v1", "v2"])  # s missing
    with pytest.raises(InvalidArgument):
        sufficiency_sequence(inst, ["s"])  # not balanced
    with pytest.raises(InvalidArgument):
        sufficiency_sequence(inst, ["s", "v1", "v2"])  # t side too small


def test_blowup_unit_weights_identity_shape():
    g = Graph(["1", "2"], [("1", "2")])
    t = ElimTree.from_ordering(g, g.labels)
    inst = build_unweighted_instance(g, {"1": 1, "2": 1}, t, t)
    assert inst.graph.n == 2 and inst.graph.m == 1
    assert inst.t_ini.to_ordering() == ("b:1:1", "b:2:1")


def test_blowup_k2_to_k5():
    g = Graph(["1", "2"], [("1", "2")])
    t = ElimTree.from_ordering(g, g.labels)
    inst = build_unweighted_instance(g, {"1": 2, "2": 3}, t, t)
    assert inst.graph.n == 5
    assert inst.graph.m == 10  # complete on 5 vertices


@pytest.mark.parametrize("weights", [(1, 1, 1, 1), (2, 1, 3, 2), (4, 3, 1, 5)])
def test_blowup_size_guard_is_exact(weights):
    g = cycle_source()
    w = dict(zip(g.labels, weights))
    t = ElimTree.from_ordering(g, g.labels)
    inst = build_unweighted_instance(g, w, t, t)
    size = inst.graph.n + inst.graph.m
    build_unweighted_instance(g, w, t, t, node_budget=size)
    with pytest.raises(ResourceLimit, match="node budget"):
        build_unweighted_instance(g, w, t, t, node_budget=size - 1)


def test_blowup_tree_path_rule():
    g = Graph(["1", "2"], [("1", "2")])
    chain = ElimTree.from_ordering(g, ["1", "2"])
    inst = build_unweighted_instance(g, {"1": 2, "2": 2}, chain, chain)
    assert inst.t_ini.to_ordering() == ("b:1:1", "b:1:2", "b:2:1", "b:2:2")
    assert inst.t_ini.parent_of("b:2:1") == "b:1:2"


def test_blowup_rejects_nonpositive_weights():
    g = Graph(["1", "2"], [("1", "2")])
    t = ElimTree.from_ordering(g, g.labels)
    with pytest.raises(InvalidArgument):
        build_unweighted_instance(g, {"1": 0, "2": 1}, t, t)


def small_blowup(weights=None):
    g = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    w = weights or {"1": 2, "2": 1, "3": 3}
    base = ElimTree.from_ordering(g, g.labels)
    return g, w, build_unweighted_instance(g, w, base, base)


def test_lift_sequence_lengths():
    g, w, inst = small_blowup()
    t1 = ElimTree.from_ordering(g, ["1", "2", "3"])
    t2 = ElimTree.from_ordering(g, ["3", "2", "1"])
    seq = shortest_path(g, t1, t2)
    lifted = lift_sequence(inst, seq)
    assert len(lifted.moves) == weighted_length(seq, w)
    ok, final = validate_sequence(inst.graph, lifted)
    assert ok
    assert final.canonical_key() == blowup_tree(inst, t2).canonical_key()


def test_lift_empty_and_single_swap():
    g, w, inst = small_blowup({"1": 2, "2": 3, "3": 1})
    t = ElimTree.from_ordering(g, g.labels)
    assert lift_sequence(inst, ReconfigSequence(t, ())).moves == ()
    one = ReconfigSequence(t, (SwapMove("1", "2"),))
    assert len(lift_sequence(inst, one).moves) == 6


def test_lift_rejects_invalid_source_sequence():
    g, w, inst = small_blowup()
    t = ElimTree.from_ordering(g, g.labels)
    bad = ReconfigSequence(t, (SwapMove("2", "1"),))
    with pytest.raises(InvalidArgument):
        lift_sequence(inst, bad)


def test_project_of_lift_recovers_short_sequence():
    g, w, inst = small_blowup()
    t1 = ElimTree.from_ordering(g, ["1", "2", "3"])
    t2 = ElimTree.from_ordering(g, ["2", "3", "1"])
    seq = shortest_path(g, t1, t2)
    lifted = lift_sequence(inst, seq)
    for combo in product(*(range(1, w[v] + 1) for v in g.labels)):
        phi = dict(zip(g.labels, combo))
        proj = project_sequence(inst, lifted, phi)
        assert weighted_length(proj, w) <= weighted_length(seq, w)
        ok, final = validate_sequence(g, proj)
        assert ok
        assert final.canonical_key() == t2.canonical_key()


def test_project_unit_weights_is_identity():
    g, w, inst = small_blowup({"1": 1, "2": 1, "3": 1})
    t1 = ElimTree.from_ordering(g, ["1", "2", "3"])
    t2 = ElimTree.from_ordering(g, ["3", "1", "2"])
    seq = shortest_path(g, t1, t2)
    lifted = lift_sequence(inst, seq)
    proj = project_sequence(inst, lifted, {"1": 1, "2": 1, "3": 1})
    assert [(m.u, m.v) for m in proj.moves] == [(m.u, m.v) for m in seq.moves]


def test_project_rejects_intra_clique_swaps():
    g, w, inst = small_blowup()
    start = blowup_tree(inst, ElimTree.from_ordering(g, g.labels))
    mv = SwapMove("b:3:1", "b:3:2")
    assert start.parent_of("b:3:2") == "b:3:1"
    dirty = ReconfigSequence(start, (mv,))
    with pytest.raises(InvalidArgument):
        project_sequence(inst, dirty, {"1": 1, "2": 1, "3": 1})


def test_project_rejects_incomplete_copy_selection():
    g, w, inst = small_blowup()
    empty = ReconfigSequence(inst.t_ini, ())
    with pytest.raises(InvalidArgument, match="'2'"):
        project_sequence(inst, empty, {"1": 1, "3": 2})
    with pytest.raises(InvalidArgument, match="'3'"):
        project_sequence(inst, empty, {"1": 1, "2": 1, "3": 4})


def test_canonicalize_removes_intra_clique_swaps():
    g, w, inst = small_blowup()
    rng = random.Random(11)
    tree = blowup_tree(inst, ElimTree.from_ordering(g, g.labels))
    start = tree
    moves = []
    for _ in range(30):
        mv = rng.choice(tree.enumerate_swaps())
        moves.append(mv)
        tree = tree.apply_swap(mv)
    walk = ReconfigSequence(start, tuple(moves))
    clean = canonicalize_sequence(inst, walk)
    src = lambda lab: lab.split(":")[1]
    assert all(src(m.u) != src(m.v) for m in clean.moves)
    ok, _ = validate_sequence(inst.graph, clean)
    assert ok
    assert len(clean.moves) <= len(walk.moves)


def test_bundle_round_trip(tmp_path):
    inst = build_weighted_instance(path_source(), "s", "t", N=2)
    write_bundle(tmp_path / "b", inst.graph, inst.t_ini, inst.t_tar,
                 weights=inst.weights, meta=instance_meta(inst))
    back = read_bundle(tmp_path / "b")
    assert back["graph"].labels == inst.graph.labels
    assert back["graph"].edges == inst.graph.edges
    assert back["t_ini"].canonical_key() == inst.t_ini.canonical_key()
    assert back["t_tar"].canonical_key() == inst.t_tar.canonical_key()
    assert back["weights"] == inst.weights
    assert back["meta"]["threshold"] == str(threshold(inst))
    assert back["meta"]["N"] == "2"


def test_read_bundle_rejects_bad_weight_value(tmp_path):
    inst = build_weighted_instance(path_source(), "s", "t", N=2)
    write_bundle(tmp_path / "b", inst.graph, inst.t_ini, inst.t_tar,
                 weights=inst.weights)
    wfile = tmp_path / "b" / "weights.txt"
    wfile.write_text(wfile.read_text().replace(" 2\n", " two\n", 1))
    with pytest.raises(ParseError):
        read_bundle(tmp_path / "b")


def test_blowup_distance_equivalence_spot():
    g, w, inst = small_blowup({"1": 2, "2": 2, "3": 1})
    t1 = ElimTree.from_ordering(g, ["1", "2", "3"])
    t2 = ElimTree.from_ordering(g, ["3", "2", "1"])
    dw = weighted_distance(g, w, t1, t2)
    dp = distance(inst.graph, blowup_tree(inst, t1), blowup_tree(inst, t2))
    assert dw == dp
