"""Verification suites shared by the CLI and the acceptance tests.

Each suite exhaustively checks a lemma-level property at desk scale and
returns a report of what was checked and every failure found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .elimtree import ElimTree, SwapMove, _Projector, _Replay, _pack, _shape, swap_neighbors
from .flipgraph import (
    ReconfigSequence,
    _flip_graph,
    _uniform_cost,
    bfs_distances,
    enumerate_all,
    moves_weight,
)
from .polymatroid import GraphAssocRank, check_axioms, verify_realization
from .reductions import (
    BlowupInstance, blowup_tree, build_unweighted_instance, project_sequence
)
from .smallgraphs import connected_graphs_up_to_iso, random_connected_graph

__all__ = [
    "SuiteReport",
    "verify_axioms_suite",
    "verify_realization_suite",
    "verify_projection_suite",
    "verify_blowup_suite",
    "SUITES",
    "reversal_violations",
    "averaging_inequality_holds",
]


@dataclass
class SuiteReport:
    suite: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_axioms_suite(
    max_n: int = 5, random_n: int = 8, random_count: int = 100, seed: int = 0
) -> SuiteReport:
    """Rank axioms on every small connected graph plus seeded larger ones."""
    report = SuiteReport("axioms")
    cases = [(f"n={n} edges={g.edges}", g)
             for n in range(2, max_n + 1) for g in connected_graphs_up_to_iso(n)]
    cases += [(f"random seed={s}", random_connected_graph(random_n, 0.4, s))
              for s in range(seed * 1000, seed * 1000 + random_count)]
    for name, g in cases:
        rep = check_axioms(GraphAssocRank(g))
        report.checked += 1
        if not rep.ok:
            report.failures.append(f"{name}: {rep.violations[:3]}")
    return report


def verify_realization_suite(max_n: int = 5) -> SuiteReport:
    """Both vertex descriptions agree on every small connected graph."""
    report = SuiteReport("realization")
    for n in range(2, max_n + 1):
        for g in connected_graphs_up_to_iso(n):
            rep = verify_realization(g)
            report.checked += 1
            if not rep.ok:
                bad = [k for k, v in rep.checks.items() if not v]
                report.failures.append(f"n={n} edges={g.edges}: failed {bad}")
    return report


def verify_projection_suite(max_n: int = 5) -> SuiteReport:
    """For every tree, swap, and connected vertex subset, the projection
    either stays fixed or changes by exactly the projected swap."""
    report = SuiteReport("projection")
    for n in range(2, max_n + 1):
        for g in connected_graphs_up_to_iso(n):
            projs = [
                _Projector(g.adj, mask)
                for mask in range(1, g.full_mask + 1)
                if g.component_of((mask & -mask).bit_length() - 1, mask) == mask
            ]
            # Every tree's images, by key, so that a swap looks up its neighbour's.
            # T|_U depends only on T's root-first order restricted to U, so
            # each projector runs once per distinct restricted order.
            memos = [{} for _ in projs]
            images = {}
            for t in enumerate_all(g):
                order = _shape(t.parent)[1]
                images[t.canonical_key()] = row = []
                for p, memo in zip(projs, memos):
                    sub = tuple(filter(p.index.__contains__, order))
                    image = memo.get(sub)
                    if image is None:
                        image = memo[sub] = _pack(p(sub))
                    row.append(image)
            # The swap kernel on G[U], not the projection, says what
            # swap(u, v) does to T|_U (for u, v both in U): each tree of
            # G[U] is expanded once, not once per tree of G.
            swaps = [{p1: set(swap_neighbors(p.adj, p1)) for p1 in set(column)}
                     for p, column in zip(projs, zip(*images.values()))]
            for key, before in images.items():
                for u, v, nk in swap_neighbors(g.adj, key):
                    for p, p1, p2, p_swaps in zip(projs, before, images[nk], swaps):
                        report.checked += 1
                        if p2 == p1 or (p.index.get(u), p.index.get(v), p2) in p_swaps[p1]:
                            continue
                        report.failures.append(
                            f"n={n} edges={g.edges} U={[g.labels[i] for i in p.index]} "
                            f"move={SwapMove(g.labels[u], g.labels[v])}"
                        )
    return report


def _blowup_weight_sets(n: int, total: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """Seeded weight vectors (entries >= 1, sum <= total, not all ones)."""
    rng = random.Random(seed)
    pool = [
        ws
        for ws in product(range(1, total), repeat=n)
        if sum(ws) <= total and max(ws) > 1
    ]
    rng.shuffle(pool)
    return [(1,) * n] + pool[:count]


def verify_blowup_suite(max_total: int = 7, seed: int = 0) -> SuiteReport:
    """Weighted flip distance equals unweighted distance in the blow-up,
    for every tree pair of every sampled instance."""
    report = SuiteReport("blowup-equiv")
    for n in range(2, min(5, max_total)):
        for gi, g in enumerate(connected_graphs_up_to_iso(n)):
            trees = enumerate_all(g)
            base = ElimTree.from_ordering(g, g.labels)
            for ws in _blowup_weight_sets(n, max_total, 2, seed * 97 + gi):
                w = dict(zip(g.labels, ws))
                inst = build_unweighted_instance(g, w, base, base)
                keys_p, adj_p = _flip_graph(inst.graph)
                ids_p = {key: i for i, key in enumerate(keys_p)}
                lifted = [ids_p[blowup_tree(inst, t).canonical_key()] for t in trees]
                # Hop distances are symmetric: one BFS per lifted tree, stopped
                # at the last of the later ones, fills both entries of a pair.
                dist_p = [[0] * len(trees) for _ in trees]
                for i in range(len(trees) - 1):
                    hops = bfs_distances(adj_p, lifted[i], lifted[i + 1:])
                    for j in range(i + 1, len(trees)):
                        dist_p[i][j] = dist_p[j][i] = hops[lifted[j]]
                for i, ti in enumerate(trees):
                    settled = _uniform_cost(g.adj, ws, ti.canonical_key())  # settles every tree
                    for j, tj in enumerate(trees):
                        report.checked += 1
                        dist_w = settled[tj.canonical_key()]
                        if dist_w != dist_p[i][j]:
                            report.failures.append(
                                f"n={n} edges={g.edges} w={ws} pair=({i},{j}): "
                                f"{dist_w} != {dist_p[i][j]}"
                            )
    return report


SUITES = {
    "axioms": verify_axioms_suite,
    "realization": verify_realization_suite,
    "projection": verify_projection_suite,
    "blowup-equiv": verify_blowup_suite,
}


# -- helpers for the hardness-instance properties ------------------------


def reversal_violations(seq: ReconfigSequence) -> list[tuple[int, int, str, str]]:
    """Ancestor-order reversals of subdivision-vertex pairs (labels
    ``u:<edge>``) that happen without any swap of two subdivision vertices
    in between.

    Returns (i, j, a, b) tuples, sorted: a is an ancestor of b after step
    i, the order is reversed after step j, and no two-subdivision swap
    occurs in moves i..j.
    """
    tree = _Replay(seq.start)
    us = [(lab, i) for i, lab in enumerate(tree.graph.labels) if lab.startswith("u:")]

    def ancestor_pairs():
        sub = tree.masks  # a is a strict ancestor of b iff b is in a's subtree
        return {(a, b) for a, i in us for b, j in us if i != j and sub[i] >> j & 1}

    anc = [ancestor_pairs()]
    for mv in seq.moves:
        tree.swap(mv.u, mv.v)
        anc.append(ancestor_pairs())
    uu_step = [mv.u.startswith("u:") and mv.v.startswith("u:") for mv in seq.moves]
    out = []
    for i in range(len(anc)):
        pairs = sorted(anc[i])
        for j in range(i + 1, len(anc)):
            if uu_step[j - 1]:  # every later j spans this swap too
                break
            out.extend((i, j, a, b) for a, b in pairs if (b, a) in anc[j])
    return out


def averaging_inequality_holds(
    inst: BlowupInstance, seq_prime: ReconfigSequence
) -> bool:
    """Some copy selection projects the blow-up walk, raw or canonical (see
    ``project_sequence``), to a weighted sequence no longer than the walk's
    unweighted length."""
    labels = inst.source.labels
    selections = product(*(range(1, inst.weights[v] + 1) for v in labels))
    return min(
        moves_weight(project_sequence(inst, seq_prime, dict(zip(labels, phi))).moves, inst.weights)
        for phi in selections
    ) <= len(seq_prime.moves)
