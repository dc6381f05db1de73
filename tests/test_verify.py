"""Verification suites and the hardness-instance property helpers."""

import json
import os
import random
import re
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

from gassoc import polymatroid, verify
from gassoc.cli import main
from gassoc.elimtree import ElimTree, _Projector, _pack, _shape, _unpack, swap_neighbors
from gassoc.flipgraph import ReconfigSequence, bfs_distances, enumerate_all, shortest_path
from gassoc.graph import Graph
from gassoc.polymatroid import GraphAssocRank
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


def test_projection_suite_projects_each_restricted_order_once(monkeypatch):
    # T|_U depends only on T's root-first order restricted to U: one
    # projection per distinct restricted order of each (G, U), plus the one
    # each projector's connectivity check makes: 427 calls for n <= 4
    calls = []

    class Counting(_Projector):
        def __call__(self, order):
            calls.append(1)
            return super().__call__(order)

    monkeypatch.setattr(verify, "_Projector", Counting)
    report = verify_projection_suite(max_n=4)
    assert report.ok and report.checked == 4530
    restricted = projectors = 0
    for n in range(2, 5):
        for g in connected_graphs_up_to_iso(n):
            orders = [_shape(t.parent)[1] for t in enumerate_all(g)]
            for mask in range(1, g.full_mask + 1):
                if g.component_of((mask & -mask).bit_length() - 1, mask) == mask:
                    restricted += len({tuple(v for v in o if mask >> v & 1) for o in orders})
                    projectors += 1
    assert len(calls) == restricted + projectors == 427


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

    def careless(adj, key):
        parent = _unpack(key, len(adj))
        for u, v, nk in swap_neighbors(adj, key):
            if isinstance(adj, OnSubgraph):
                nb = list(parent)
                nb[u], nb[v] = v, parent[u]
                nk = _pack(nb)
            yield u, v, nk

    monkeypatch.setattr(verify, "_Projector", Marking)
    monkeypatch.setattr(verify, "swap_neighbors", careless)
    assert_reports_failures(verify_projection_suite(max_n=4))


def test_blowup_suite_small():
    # three weight vectors per graph, each checking every ordered tree pair:
    # the count follows the trees of each graph, not the weights' bound,
    # which only caps n (n < max_total, and n <= 4)
    for max_total, checked in [(5, 6903), (4, 195)]:
        report = verify_blowup_suite(max_total=max_total)
        assert report.ok
        assert report.checked == checked


def test_blowup_suite_runs_one_bfs_per_unordered_pair(monkeypatch):
    # one BFS from each lifted tree but the last of its instance, towards the
    # later ones only, stopped after the level of its last target
    runs = []

    def checked_bfs(adj, source, targets):
        dist = bfs_distances(adj, source, targets)
        full = bfs_distances(adj, source)
        assert [dist[t] for t in targets] == [full[t] for t in targets]
        runs.append((sum(d >= 0 for d in dist), sum(d >= 0 for d in full)))
        return dist

    monkeypatch.setattr(verify, "bfs_distances", checked_bfs)
    assert verify_blowup_suite().ok
    assert len(runs) == 354  # 381 lifted trees in 27 instances
    assert sum(settled for settled, _ in runs) == 452014
    assert sum(full for _, full in runs) == 616380


@pytest.mark.parametrize("seed", [0, 1])
def test_blowup_suite_checks_every_pair(seed):
    report = verify_blowup_suite(seed=seed)
    assert report.ok and report.checked == 6903


def _shifted_coordinates(monkeypatch):
    coordinates = polymatroid.devadoss_coordinates
    monkeypatch.setattr(
        polymatroid, "devadoss_coordinates",
        lambda g, t: {v: x + 1 for v, x in coordinates(g, t).items()},
    )


def test_axioms_suite_reports_a_failure(monkeypatch):
    rank = GraphAssocRank.rank

    def one_on_empty(self, subset):
        subset = list(subset)
        return rank(self, subset) if subset else 1

    monkeypatch.setattr(GraphAssocRank, "rank", one_on_empty)
    report = verify_axioms_suite(max_n=3, random_n=5, random_count=2)
    assert not report.ok and report.checked == 1 + 2 + 2
    assert report.failures[0].startswith("n=2 edges=(('1', '2'),): ['P1: rank(empty) = 1 != 0'")
    assert report.failures[-1].startswith("random seed=1: ['P1: rank(empty) = 1 != 0'")


def test_realization_suite_reports_a_failure(monkeypatch):
    _shifted_coordinates(monkeypatch)
    report = verify_realization_suite(max_n=3)
    assert not report.ok and report.checked == 3
    # the greedy points and their skeleton no longer match the shifted coordinates
    assert report.failures[0] == "n=2 edges=(('1', '2'),): failed ['compat', 'cover', 'skeleton']"


def test_blowup_suite_reports_a_failure(monkeypatch):
    uniform_cost = verify._uniform_cost
    monkeypatch.setattr(
        verify, "_uniform_cost",
        lambda *args: {key: d + 1 for key, d in uniform_cost(*args).items()},
    )
    report = verify_blowup_suite(max_total=4)
    assert not report.ok and len(report.failures) == report.checked
    assert report.failures[0] == "n=2 edges=(('1', '2'),) w=(1, 1) pair=(0,0): 1 != 0"


def test_verify_command_prints_the_failures(monkeypatch, capsys):
    _shifted_coordinates(monkeypatch)
    assert main(["verify", "realization"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["suite realization", "checked 30", "ok False"]
    assert len(lines) == 3 + 20  # the first 20 of the 30 failures
    assert lines[3] == "n=2 edges=(('1', '2'),): failed ['compat', 'cover', 'skeleton']"


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


REVERSAL_WALKS = """
import json, random
from gassoc.flipgraph import ReconfigSequence
from gassoc.graph import Graph
from gassoc.reductions import build_weighted_instance
from gassoc.verify import reversal_violations
g = Graph(["s", "v1", "t", "v2"], [("s", "v1"), ("v1", "t"), ("t", "v2"), ("v2", "s")])
inst = build_weighted_instance(g, "s", "t", N=2)
out = []
for seed in range(40):
    rng = random.Random(seed)
    tree, moves = inst.t_ini, []
    for _ in range(60):
        mv = rng.choice(tree.enumerate_swaps())
        moves.append(mv)
        tree = tree.apply_swap(mv)
    out.append(reversal_violations(ReconfigSequence(inst.t_ini, tuple(moves))))
print(json.dumps(out))
"""


def test_reversal_violations_do_not_follow_the_hash_seed():
    # the same seeded walks, in two processes whose set iteration orders differ
    src = str(Path(__file__).parent.parent / "src")
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed,
                   PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "-c", REVERSAL_WALKS],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert sum(map(len, json.loads(outs[0]))) == 2111


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
