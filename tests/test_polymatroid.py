"""Rank oracle, axiom checking, greedy points, coordinates, membership."""

import random
from itertools import combinations, permutations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassoc import polymatroid
from gassoc.elimtree import ElimTree
from gassoc.errors import InvalidArgument, ResourceLimit
from gassoc.flipgraph import bfs_distances, enumerate_all, explicit_flip_graph
from gassoc.graph import Graph
from gassoc.polymatroid import (
    GraphAssocRank,
    RankOracle,
    TableRank,
    _greedy_skeleton,
    check_axioms,
    devadoss_coordinates,
    greedy_extreme_point,
    membership,
    power_sum_inequality,
    verify_realization,
)
from gassoc.smallgraphs import (
    complete_graph,
    connected_graphs_up_to_iso,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)


def test_rank_path3_examples():
    o = GraphAssocRank(path_graph(3))
    assert o.rank([]) == 0
    assert o.rank(["1"]) == 2  # 3 - 3^0 for the surviving component {2,3}
    assert o.rank(["2"]) == 3  # removal splits into singletons
    assert o.rank(["1", "2", "3"]) == 3


def test_rank_full_set_and_requirements():
    for g in [path_graph(5), cycle_graph(4), complete_graph(4)]:
        o = GraphAssocRank(g)
        assert o.rank(g.labels) == 3 ** (g.n - 2)
    with pytest.raises(InvalidArgument):
        GraphAssocRank(Graph(["a"], []))
    with pytest.raises(InvalidArgument):
        GraphAssocRank(Graph(["a", "b"], []))


def test_check_axioms_pass_small():
    for g in [path_graph(4), star_graph(5), cycle_graph(5), complete_graph(4)]:
        report = check_axioms(GraphAssocRank(g))
        assert report.ok
        assert report.checked > 0


def test_check_axioms_flags_violations():
    # P1 violation: nonzero at the empty set
    ground = ("a", "b")
    bad_p1 = TableRank(ground, {
        frozenset(): 1, frozenset("a"): 1, frozenset("b"): 1,
        frozenset(("a", "b")): 2,
    })
    rep = check_axioms(bad_p1)
    assert any(v.startswith("P1") for v in rep.violations)

    # P2 violation: rank drops when extending
    bad_p2 = TableRank(ground, {
        frozenset(): 0, frozenset("a"): 2, frozenset("b"): 1,
        frozenset(("a", "b")): 1,
    })
    rep = check_axioms(bad_p2)
    assert any(v.startswith("P2") for v in rep.violations)

    # P3 violation: supermodular toy
    bad_p3 = TableRank(ground, {
        frozenset(): 0, frozenset("a"): 1, frozenset("b"): 1,
        frozenset(("a", "b")): 3,
    })
    rep = check_axioms(bad_p3)
    assert any(v.startswith("P3") for v in rep.violations)


def _check_axioms_reference(oracle):
    """check_axioms as one Python iteration per check: the reference for
    the report of the C-level passes, violations in the same order."""
    ground = list(oracle.ground)
    n = len(ground)
    report = polymatroid.AxiomReport()
    ranks = {}
    for mask in range(1 << n):
        ranks[mask] = oracle.rank(ground[i] for i in range(n) if mask >> i & 1)
    if ranks[0] != 0:
        report.violations.append(f"P1: rank(empty) = {ranks[0]} != 0")
    report.checked += 1
    for mask in range(1 << n):
        for i in range(n):
            if mask >> i & 1:
                continue
            report.checked += 1
            if ranks[mask | 1 << i] < ranks[mask]:
                report.violations.append(
                    f"P2: rank decreases when adding {ground[i]!r} to mask {mask:b}"
                )
            for j in range(i + 1, n):
                if mask >> j & 1:
                    continue
                report.checked += 1
                lhs = ranks[mask | 1 << i] + ranks[mask | 1 << j]
                rhs = ranks[mask | 1 << i | 1 << j] + ranks[mask]
                if lhs < rhs:
                    report.violations.append(
                        f"P3: exchange fails at mask {mask:b} with "
                        f"{ground[i]!r}, {ground[j]!r}"
                    )
    return report


def test_check_axioms_matches_the_reference_loop():
    # Coverage functions (polymatroids) with 0 to 3 entries moved, and every
    # fifth table random, so P1, P2 and P3 faults mix, several to a mask.
    rng = random.Random(2023)
    kinds = set()
    for n in range(7):
        ground = tuple("abcdef"[:n])
        subsets = [frozenset(s) for r in range(n + 1) for s in combinations(ground, r)]
        for trial in range(20):
            cover = {lab: set(rng.sample(range(6), rng.randint(0, 3))) for lab in ground}
            table = {s: len(set().union(*(cover[lab] for lab in s))) for s in subsets}
            for s in rng.sample(subsets, min(len(subsets), trial % 4)):
                table[s] += rng.choice((-2, -1, 1, 2))
            if trial % 5 == 4:
                table = {s: rng.randint(0, 4) for s in subsets}
            oracle = TableRank(ground, table)
            want = _check_axioms_reference(oracle)
            got = check_axioms(oracle)
            assert (got.checked, got.violations) == (want.checked, want.violations)
            kinds.update(v[:2] for v in want.violations)
    assert kinds == {"P1", "P2", "P3"}


class CountingRank(GraphAssocRank):
    """GraphAssocRank that counts the rank queries made of it."""

    def __init__(self, g):
        super().__init__(g)
        self.calls = 0

    def rank(self, subset):
        self.calls += 1
        return super().rank(subset)


def _assert_skeleton_points_are_greedy(oracle):
    points, _ = _greedy_skeleton(oracle)
    ground = oracle.ground
    assert len(points) == factorial(len(ground))
    for sigma, point in points.items():
        labels = [ground[i] for i in sigma]
        assert dict(zip(ground, point)) == greedy_extreme_point(oracle, labels)


def test_axioms_and_skeleton_ask_each_rank_once():
    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            oracle = CountingRank(g)
            assert check_axioms(oracle).ok and oracle.calls == 2 ** n
            oracle = CountingRank(g)
            _greedy_skeleton(oracle)
            assert oracle.calls == 2 ** n
            _assert_skeleton_points_are_greedy(oracle)


def test_check_axioms_cap():
    g = random_connected_graph(13, 0.3, 1)
    with pytest.raises(ResourceLimit):
        check_axioms(GraphAssocRank(g))


def test_power_sum_inequality_basics():
    assert power_sum_inequality([1])
    assert power_sum_inequality([1, 1])  # 9 >= 6
    with pytest.raises(InvalidArgument):
        power_sum_inequality([0, 1])
    with pytest.raises(InvalidArgument):
        power_sum_inequality([])


def compositions(total):
    if total == 0:
        yield ()
        return
    for head in range(1, total + 1):
        for rest in compositions(total - head):
            yield (head,) + rest


def test_power_sum_inequality_exhaustive():
    for total in range(1, 13):
        for comp in compositions(total):
            assert power_sum_inequality(comp)
            if len(comp) >= 2:
                # gap of at least 3 for two or more parts
                assert 3 ** sum(comp) - sum(3**x for x in comp) >= 3


def test_greedy_point_path3():
    o = GraphAssocRank(path_graph(3))
    assert greedy_extreme_point(o, ["1", "2", "3"]) == {"1": 2, "2": 1, "3": 0}
    assert greedy_extreme_point(o, ["2", "1", "3"]) == {"1": 0, "2": 3, "3": 0}
    with pytest.raises(InvalidArgument):
        greedy_extreme_point(o, ["1", "2"])


def test_greedy_point_sums_to_full_rank():
    g = cycle_graph(5)
    o = GraphAssocRank(g)
    for sigma in [g.labels, tuple(reversed(g.labels))]:
        point = greedy_extreme_point(o, sigma)
        assert sum(point.values()) == 3 ** (g.n - 2)


def test_devadoss_coordinates_path3():
    g = path_graph(3)
    balanced = ElimTree.from_ordering(g, ["2", "1", "3"])
    assert devadoss_coordinates(g, balanced) == {"1": 0, "2": 3, "3": 0}
    chain = ElimTree.from_ordering(g, ["1", "2", "3"])
    assert devadoss_coordinates(g, chain) == {"1": 2, "2": 1, "3": 0}


def test_devadoss_coordinates_claw():
    g = star_graph(4)  # center 1, leaves 2..4
    t = ElimTree.from_ordering(g, g.labels)
    coords = devadoss_coordinates(g, t)
    assert coords == {"1": 9, "2": 0, "3": 0, "4": 0}


def test_devadoss_nonnegative_and_total():
    g = cycle_graph(5)
    for t in enumerate_all(g):
        coords = devadoss_coordinates(g, t)
        assert all(v >= 0 for v in coords.values())
        assert sum(coords.values()) == 3 ** (g.n - 2)


def test_membership_reads_the_ranks_until_the_first_violation():
    # tree points of C5 and the same points with one unit moved from 2 to 1;
    # a member asks each of the 2^n ranks once, a non-member stops at the
    # first violated subset in bitmask order
    g = cycle_graph(5)
    answers = []
    for t in list(enumerate_all(g))[::7]:
        x = devadoss_coordinates(g, t)
        for point in (x, dict(x, **{"1": x["1"] + 1, "2": x["2"] - 1})):
            o = CountingRank(g)
            subsets = [[lab for i, lab in enumerate(g.labels) if mask >> i & 1]
                       for mask in range(1 << g.n)]
            bad = [m for m, s in enumerate(subsets)
                   if sum(point[lab] for lab in s) > o.rank(s)]
            want = not bad and sum(point.values()) == o.rank(g.labels)
            o.calls = 0
            assert membership(o, point) == want
            assert o.calls == (bad[0] + 1 if bad else 2 ** g.n)
            answers.append((want, o.calls < 2 ** g.n))
    assert set(answers[1::2]) >= {(False, True), (True, False)}
    assert set(answers[::2]) == {(True, False)}
    big = CountingRank(path_graph(21))  # refused before any rank query
    with pytest.raises(ResourceLimit, match="21 > 20"):
        membership(big, {})
    assert big.calls == 0


def test_membership_examples():
    g = path_graph(3)
    o = GraphAssocRank(g)
    t = ElimTree.from_ordering(g, ["2", "1", "3"])
    assert membership(o, devadoss_coordinates(g, t))
    assert not membership(o, {"1": 3, "2": 0, "3": 0})  # x({1}) > 2
    assert not membership(o, {"1": 0, "2": 0, "3": 0})  # misses x(V) = 3


def test_lemma_5_5_greedy_equals_tree_coordinates():
    for g in [path_graph(4), cycle_graph(4), star_graph(4)]:
        o = GraphAssocRank(g)
        for sigma in permutations(g.labels):
            t = ElimTree.from_ordering(g, sigma)
            assert greedy_extreme_point(o, sigma) == devadoss_coordinates(g, t)


def test_verify_realization_p3_points():
    rep = verify_realization(path_graph(3))
    assert rep.ok
    assert rep.trees == 5 and rep.points == 5


def test_verify_realization_k3():
    rep = verify_realization(complete_graph(3))
    assert rep.ok
    assert rep.points == 6  # permutahedron vertices


def test_verify_realization_n7(monkeypatch):
    # every check, the skeleton included, on 429 to 5,040 trees, from
    # one rank query per subset
    oracles = []

    def counting(g):
        oracles.append(CountingRank(g))
        return oracles[-1]

    monkeypatch.setattr(polymatroid, "GraphAssocRank", counting)
    for g, trees in ((path_graph(7), 429), (cycle_graph(7), 924),
                     (complete_graph(7), 5040), (random_connected_graph(7, 0.4, 3), None)):
        rep = verify_realization(g)
        assert rep.ok, rep.checks
        assert list(rep.checks) == ["compat", "cover", "injective", "skeleton"]
        assert trees is None or rep.trees == rep.points == trees
        assert oracles[-1].calls == 2 ** 7


def test_verify_realization_catches_a_missing_flip(monkeypatch):
    def one_edge_short(g):
        trees, adj = explicit_flip_graph(g)
        j = adj[0].pop()
        adj[j].remove(0)
        return trees, adj

    monkeypatch.setattr(polymatroid, "explicit_flip_graph", one_edge_short)
    for g in (path_graph(4), cycle_graph(5), complete_graph(4)):
        rep = verify_realization(g)
        assert list(rep.checks) == ["compat", "cover", "injective", "skeleton"]
        assert [k for k, ok in rep.checks.items() if not ok] == ["skeleton"]


class GraphicRank(RankOracle):
    """The graphic matroid of g: r(F) = n - (components of (V, F))."""

    def __init__(self, g):
        self.graph = g
        self.ground = tuple(f"{a}-{b}" for a, b in g.edges)
        self._edges = dict(zip(self.ground, g.edges))
        self._memo = {}

    def rank(self, subset):
        key = frozenset(subset)
        if key not in self._memo:
            h = Graph(self.graph.labels, [self._edges[e] for e in key])
            self._memo[key] = h.n - len(h.component_masks(h.full_mask))
        return self._memo[key]


def _skeleton_excess(oracle):
    """Bases or vertices of the base polytope of ``oracle``, its number of
    skeleton edges, and over all pairs the least and the most that the
    skeleton's BFS distance exceeds the matroid distance |B1 - B2|, the
    number of coordinates with x_i > y_i."""
    points, skeleton = _greedy_skeleton(oracle)
    bases = sorted(set(points.values()))
    ids = {b: i for i, b in enumerate(bases)}
    adj = [[] for _ in bases]
    for pair in skeleton:
        a, b = (ids[p] for p in pair)
        adj[a].append(b)
        adj[b].append(a)
    excess = [
        dist[j] - sum(x > y for x, y in zip(b1, b2))
        for i, b1 in enumerate(bases)
        for dist in [bfs_distances(adj, i)]
        for j, b2 in enumerate(bases)
    ]
    return bases, len(skeleton), (min(excess), max(excess))


def test_greedy_skeleton_of_a_graphic_matroid_is_the_base_exchange_graph():
    # The matroid side of the contrast: on the base polytope of a matroid,
    # the flip distance of two bases is |B1 - B2| (Maurer 1973). The rank
    # table goes through TableRank and check_axioms, so the skeleton is
    # built from a checked oracle alone.
    sizes = {}
    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            if g.m > 6:
                continue
            graphic = GraphicRank(g)
            table = TableRank(graphic.ground, {
                frozenset(f): graphic.rank(f)
                for r in range(g.m + 1) for f in combinations(graphic.ground, r)
            })
            assert check_axioms(table).ok
            _assert_skeleton_points_are_greedy(table)
            bases, edges, excess = _skeleton_excess(table)
            forests = (Graph(g.labels, f) for f in combinations(g.edges, n - 1))
            assert len(bases) == sum(h.is_connected() for h in forests)
            assert all(set(b) <= {0, 1} and sum(b) == n - 1 for b in bases)
            assert excess == (0, 0)  # dist[j] == |B1 - B2| on every pair
            sizes.setdefault((n, g.m), []).append((len(bases), edges))
    assert sum(map(len, sizes.values())) == 22
    assert sizes[4, 6] == [(16, 54)]  # K4
    assert sorted(sizes[5, 5]) == [(3, 3), (3, 3), (3, 3), (4, 6), (5, 10)]  # C5 last
    # (8, 18) twice: K4 minus an edge, plus a pendant edge at either kind of vertex
    assert sorted(sizes[5, 6]) == [(8, 18), (8, 18), (9, 18), (11, 31), (12, 36)]


def test_the_matroid_distance_fails_on_graph_associahedra():
    # The polymatroid side: on the G-associahedron the skeleton distance
    # exceeds the number of coordinates with x_i > y_i.
    graphs = {"P5": path_graph(5), "S5": star_graph(5), "C5": cycle_graph(5)}
    excess = {name: _skeleton_excess(GraphAssocRank(g))[2] for name, g in graphs.items()}
    assert excess == {"P5": (0, 4), "S5": (0, 5), "C5": (0, 5)}


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 5000))
def test_coordinates_in_base_polytope_random(seed):
    g = random_connected_graph(5, 0.5, seed)
    o = GraphAssocRank(g)
    t = ElimTree.from_ordering(g, g.labels)
    assert membership(o, devadoss_coordinates(g, t))
