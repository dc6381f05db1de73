"""Reduction instance builders, sufficiency sequence, blow-up machinery."""

import hashlib
import os
import random
import tracemalloc
from itertools import combinations, product

import pytest

from gassoc import cli
from gassoc.elimtree import ElimTree, SwapMove, project
from gassoc.errors import InvalidArgument, ParseError, ResourceLimit
from gassoc.flipgraph import (
    ReconfigSequence,
    distance,
    enumerate_all,
    shortest_path,
    validate_sequence,
    weighted_distance,
    weighted_length,
)
from gassoc.graph import Graph, format_graph
from gassoc.smallgraphs import connected_graphs_up_to_iso
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


# sha256 of the sufficiency.moves text ("u v" per line) at N = 6, X = {s, v1}.
SUFFICIENCY_MOVES_SHA256 = {
    "path": (870, "66f35d620a3b20a3098563ca617d587fdb4615c69d1f3443b45a2b855a65fba9"),
    "cycle": (1742, "a914eff5ec9a3aafeaf5fc00e52164bc8ccf6fb86dfbdae662ba89c804ea3583"),
}


@pytest.mark.parametrize("name", sorted(SUFFICIENCY_MOVES_SHA256))
def test_sufficiency_moves_are_pinned(name):
    source = {"path": path_source, "cycle": cycle_source}[name]()
    seq = sufficiency_sequence(build_weighted_instance(source, "s", "t", N=6), ["s", "v1"])
    text = "".join(f"{m.u} {m.v}\n" for m in seq.moves)
    assert (len(seq.moves), hashlib.sha256(text.encode()).hexdigest()) == (
        SUFFICIENCY_MOVES_SHA256[name])


def test_sufficiency_rejects_bad_cuts():
    inst = build_weighted_instance(cycle_source(), "s", "t", N=2)
    with pytest.raises(InvalidArgument):
        sufficiency_sequence(inst, ["v1", "v2"])  # s missing
    with pytest.raises(InvalidArgument):
        sufficiency_sequence(inst, ["s"])  # not balanced
    with pytest.raises(InvalidArgument):
        sufficiency_sequence(inst, ["s", "v1", "v2"])  # t side too small
    with pytest.raises(InvalidArgument, match="unknown vertex label: 'zz'"):
        sufficiency_sequence(inst, ["zz", "t"])  # reported before the t check


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


def _hand_blowup_parent(inst, t):
    """The earlier hand-built blow-up image: the copies of v form a chain,
    and the first copy of v hangs below the last copy of v's parent."""
    gp = inst.graph
    parent = [-1] * gp.n
    for v in inst.source.labels:
        copies = inst.copy_map[v]
        for i in range(1, len(copies)):
            parent[gp.index(copies[i])] = gp.index(copies[i - 1])
        p = t.parent_of(v)
        if p is not None:
            parent[gp.index(copies[0])] = gp.index(inst.copy_map[p][-1])
    return tuple(parent)


def test_blowup_tree_matches_the_hand_rule():
    rng = random.Random(1)
    cases = 0
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            trees = enumerate_all(g)
            for _ in range(3):
                w = {v: rng.randint(1, 3) for v in g.labels}
                inst = build_unweighted_instance(g, w, trees[0], trees[-1])
                for t in trees:
                    assert blowup_tree(inst, t).parent == _hand_blowup_parent(inst, t)
                    cases += 1
    assert cases == 5508


def test_blowup_tree_rejects_a_tree_that_is_not_the_sources():
    g, w, inst = small_blowup()  # the path 1 - 2 - 3
    others = (Graph(["1", "2", "x"], [("1", "2"), ("2", "x")]),
              Graph(["1", "2"], [("1", "2")]),
              Graph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")]))
    trees = [ElimTree.from_ordering(h, h.labels) for h in others]
    # the source's labels, but 1 and 2 are both children of the root 3
    star = Graph(["1", "2", "3"], [("1", "3"), ("2", "3")])
    trees.append(ElimTree.from_ordering(star, ["3", "1", "2"]))
    for t in trees:
        with pytest.raises(InvalidArgument, match="not an elimination tree of the source"):
            blowup_tree(inst, t)


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


def test_project_drops_intra_clique_swaps():
    # Swapping two copies of a vertex only exchanges twins, so under every
    # copy selection the projection stays at the projected start.
    g, w, inst = small_blowup()
    start = blowup_tree(inst, ElimTree.from_ordering(g, g.labels))
    assert start.parent_of("b:3:2") == "b:3:1"
    walk = ReconfigSequence(start, (SwapMove("b:3:1", "b:3:2"),))
    for copy in (1, 2, 3):
        proj = project_sequence(inst, walk, {"1": 1, "2": 1, "3": copy})
        assert proj.start.parent == ElimTree.from_ordering(g, g.labels).parent
        assert proj.moves == ()


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


def test_intra_clique_swap_parent_has_one_child():
    # Copies of a vertex are twins, so at every legal swap of two copies the
    # child copy is the parent copy's only child: the reason
    # canonicalize_sequence can drop every such swap.
    rng = random.Random(5)
    swaps = 0
    for n in range(1, 5):
        for g in connected_graphs_up_to_iso(n):
            for _ in range(3):
                w = {lab: rng.randint(1, 3) for lab in g.labels}
                if sum(w.values()) == 1:
                    continue  # one vertex, no swap
                base = ElimTree.from_ordering(g, g.labels)
                inst = build_unweighted_instance(g, w, base, base)
                tree = inst.t_ini
                for _ in range(100):
                    mv = rng.choice(tree.enumerate_swaps())
                    if inst.source_of(mv.u) == inst.source_of(mv.v):
                        swaps += 1
                        assert tree.children_of(mv.u) == (mv.v,)
                    tree = tree.apply_swap(mv)
    assert swaps >= 500


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


def test_rewritten_bundle_gets_new_files(tmp_path):
    # A rewrite creates each file anew instead of truncating the old one in
    # place, so a hard link to the old file keeps the old contents.
    small = build_weighted_instance(path_source(), "s", "t", N=2)
    big = build_weighted_instance(path_source(), "s", "t", N=3)
    write_bundle(tmp_path / "b", small.graph, small.t_ini, small.t_tar,
                 weights=small.weights)
    old = (tmp_path / "b" / "graph.txt").read_text()
    os.link(tmp_path / "b" / "graph.txt", tmp_path / "old.txt")
    write_bundle(tmp_path / "b", big.graph, big.t_ini, big.t_tar, weights=big.weights)
    assert (tmp_path / "old.txt").read_text() == old
    back = read_bundle(tmp_path / "b")
    assert back["graph"].labels == big.graph.labels
    assert back["t_tar"].canonical_key() == big.t_tar.canonical_key()
    assert back["weights"] == big.weights


def test_read_bundle_rejects_bad_weight_value(tmp_path):
    inst = build_weighted_instance(path_source(), "s", "t", N=2)
    write_bundle(tmp_path / "b", inst.graph, inst.t_ini, inst.t_tar,
                 weights=inst.weights)
    wfile = tmp_path / "b" / "weights.txt"
    wfile.write_text(wfile.read_text().replace(" 2\n", " two\n", 1))
    with pytest.raises(ParseError):
        read_bundle(tmp_path / "b")


def _written_bundle(path):
    inst = build_weighted_instance(path_source(), "s", "t", N=2)
    write_bundle(path, inst.graph, inst.t_ini, inst.t_tar,
                 weights=inst.weights, meta=instance_meta(inst))
    return path


def test_read_bundle_rejects_file_that_is_not_utf8(tmp_path):
    wfile = _written_bundle(tmp_path / "b") / "weights.txt"
    wfile.write_bytes(b"\xff\xfe" + wfile.read_bytes())
    with pytest.raises(ParseError, match="cannot read"):
        read_bundle(tmp_path / "b")


def test_read_bundle_rejects_meta_that_is_not_json(tmp_path):
    (_written_bundle(tmp_path / "b") / "meta.json").write_text('{"n": 1,\n')
    with pytest.raises(ParseError, match="meta.json"):
        read_bundle(tmp_path / "b")


def test_read_bundle_rejects_missing_graph(tmp_path):
    (_written_bundle(tmp_path / "b") / "graph.txt").unlink()
    with pytest.raises(ParseError, match="cannot read"):
        read_bundle(tmp_path / "b")


# sha256 of format_graph(inst.graph): the vertex and edge order of a bundle.
WEIGHTED_GRAPH_SHA256 = {
    ("path", 2): "1fc9263f0346f400516f25e47aa601faf0809a20a71ba7734fb20af2da579053",
    ("path", 3): "dd58e1b34fb78d59486af5195ec04040d909e52b628ab0a9ffcbbb590a271f6e",
    ("path", 4): "5d7bd5277b2b935cc2dde1e862f8a6979469eca679c368d6b94aefe38d070d9d",
    ("cycle", 2): "ecd1e9bc16b4e9865f2a392d5991e01f93bd833f93914922bb25ef4e91c35fa8",
    ("cycle", 3): "2703c63e8b0477eda10ab09442dc1de49fc1f3c5045fb5e28d5e574def0554a0",
    ("cycle", 4): "c0bd867b67febf09c4727fe552d8f135e82c4de3746749b2cdde49b373b157fa",
    ("cycle", 6): "a59bc63cc14159668e4ff6d2e825b467585d113760dfe2e59768270435816e9e",
    ("cycle", 7): "4656f9e91103ff8605504400432fb2c3eb7bf3a11f65f36f2459504131c45b44",
    ("path", 6): "9ac1db3ee1edbff9702c63553adfd9c8b1c5690b6f9b8b2cf0ccf5fae730d856",
    ("path", 7): "18b29d4c0dfdc08ad79db5cc2f1e60bd43d213e293a373cd4d78b97669cd1828",
    ("path", 8): "055b4133b457682ec18b5db595a3a1cdc734b85f8d5e45fb7dd5653a95216b01",
}


def _graph_sha256(g):
    return hashlib.sha256(format_graph(g).encode()).hexdigest()


@pytest.mark.parametrize("name, N", sorted(WEIGHTED_GRAPH_SHA256))
def test_weighted_instance_bytes_are_pinned(name, N):
    source = {"path": path_source, "cycle": cycle_source}[name]()
    inst = build_weighted_instance(source, "s", "t", N=N)
    assert _graph_sha256(inst.graph) == WEIGHTED_GRAPH_SHA256[name, N]


@pytest.mark.parametrize(
    "name, N", [(name, N) for name in ("path", "cycle") for N in (2, 3, 4)] + [("cycle", 6)]
)
def test_clique_adjacency_matches_the_checking_constructor(name, N):
    source = {"path": path_source, "cycle": cycle_source}[name]()
    h = build_weighted_instance(source, "s", "t", N=N).graph
    assert h.adj == Graph(h.labels, h.edges).adj


def test_clique_construction_keeps_the_edge_checks():
    g = Graph._with_cliques("abcd", [("c", "d")], ["abc"])
    assert g.edges == (("c", "d"), ("a", "b"), ("a", "c"), ("b", "c"))
    assert g.adj == Graph(g.labels, g.edges).adj
    with pytest.raises(InvalidArgument, match="parallel edge"):
        Graph._with_cliques("abcd", [("c", "a")], ["abc"])
    with pytest.raises(InvalidArgument, match="self-loop"):
        Graph._with_cliques("abcd", [], ["abca"])
    with pytest.raises(InvalidArgument, match="unknown vertex"):
        Graph._with_cliques("abcd", [], ["abe"])


def _eager_format(g):
    # a writer that lists every edge, then formats each one
    return "\n".join([f"{g.n} {len(g.edges)}", *g.labels, *map(" ".join, g.edges)]) + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_kept_cliques_write_and_list_as_their_edges(seed):
    rng = random.Random(seed)
    labels = [f"x{i}" for i in range(rng.randint(0, 14))]
    rng.shuffle(labels)
    free, cliques = list(labels), []
    while free and rng.random() < 0.7:
        size = rng.choice([0, 1, 2, rng.randint(0, len(free))])
        cliques.append([free.pop() for _ in range(min(size, len(free)))])
    covered = {frozenset(e) for c in cliques for e in combinations(c, 2)}
    pairs = [e for e in combinations(labels, 2) if frozenset(e) not in covered]
    base = [e[::-1] if rng.random() < 0.5 else e
            for e in rng.sample(pairs, rng.randint(0, len(pairs)))]
    g = Graph._with_cliques(labels, base, cliques)
    before = format_graph(g)
    assert g.m == len(g.edges)
    assert before == format_graph(g) == _eager_format(g)
    assert g.edges == (*base, *(e for c in cliques for e in combinations(c, 2)))
    assert g.adj == Graph(g.labels, g.edges).adj


def test_reduce_cut_lists_no_clique_edges(tmp_path):
    p4 = tmp_path / "p4.txt"
    p4.write_text("4 3\ns\nv1\nv2\nt\ns v1\nv1 v2\nv2 t\n")
    argv = ["reduce", "cut", str(p4), "s", "t", str(tmp_path / "out"),
            "--N", "8", "--sufficiency", "s,v1"]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20  # 37 MB with the 261,632 clique edges listed


def test_bundle_steps_keep_the_cliques_declared(tmp_path):
    inst = build_weighted_instance(path_source(), "s", "t", N=8)
    sufficiency_sequence(inst, ["s", "v1"])
    write_bundle(tmp_path / "b", inst.graph, inst.t_ini, inst.t_tar,
                 weights=inst.weights, meta=instance_meta(inst))
    assert len(inst.graph._cliques) == 2


def test_blowup_instance_bytes_are_pinned():
    g = Graph(["1", "2", "3"], [("1", "2"), ("2", "3")])
    inst = build_unweighted_instance(
        g, {"1": 2, "2": 3, "3": 1},
        ElimTree.from_ordering(g, ["1", "2", "3"]),
        ElimTree.from_ordering(g, ["3", "2", "1"]),
    )
    assert _graph_sha256(inst.graph) == (
        "f79543418e6e8b92de9bfc28e5b5d839e89d357b4d3d8d9ce8cccb8bc15bb3bb"
    )
    g = cycle_source()
    inst = build_unweighted_instance(
        g, {"s": 3, "v1": 1, "t": 2, "v2": 4},
        ElimTree.from_ordering(g, ["s", "v1", "t", "v2"]),
        ElimTree.from_ordering(g, ["v2", "t", "v1", "s"]),
    )
    assert _graph_sha256(inst.graph) == (
        "d11488a53f124a7a68d7eb4f8b096cb1c8b10f6f0c6894b59e68ce70e290f4af"
    )


def test_blowup_distance_equivalence_spot():
    g, w, inst = small_blowup({"1": 2, "2": 2, "3": 1})
    t1 = ElimTree.from_ordering(g, ["1", "2", "3"])
    t2 = ElimTree.from_ordering(g, ["3", "2", "1"])
    dw = weighted_distance(g, w, t1, t2)
    dp = distance(inst.graph, blowup_tree(inst, t1), blowup_tree(inst, t2))
    assert dw == dp
