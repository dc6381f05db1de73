"""Verification suites shared by the CLI and the acceptance tests.

Each suite exhaustively checks a lemma-level property at desk scale and
returns a report of what was checked and every failure found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .elimtree import (
    ElimTree, SwapMove, _children, _Projector, _root_first, swap_neighbors
)
from .flipgraph import (
    ReconfigSequence,
    bfs_distances,
    enumerate_all,
    explicit_flip_graph,
    weighted_distance,
)
from .polymatroid import GraphAssocRank, check_axioms, verify_realization
from .reductions import BlowupInstance, blowup_tree, build_unweighted_instance
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
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_axioms_suite(
    max_n: int = 5, random_n: int = 8, random_count: int = 100, seed: int = 0
) -> SuiteReport:
    """Rank axioms on every small connected graph plus seeded larger ones."""
    report = SuiteReport("axioms")
    for n in range(2, max_n + 1):
        for g in connected_graphs_up_to_iso(n):
            rep = check_axioms(GraphAssocRank(g))
            report.checked += 1
            if not rep.ok:
                report.failures.append(f"n={n} edges={g.edges}: {rep.violations[:3]}")
    for k in range(random_count):
        g = random_connected_graph(random_n, 0.4, seed * 1000 + k)
        rep = check_axioms(GraphAssocRank(g))
        report.checked += 1
        if not rep.ok:
            report.failures.append(f"random seed={seed * 1000 + k}: {rep.violations[:3]}")
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
            for t in enumerate_all(g):
                before = [p(_root_first(t.parent, t.children)) for p in projs]
                # The swap kernel on G[U], not the projection, says what
                # swap(u, v) does to T|_U (for u, v both in U).
                swaps = [
                    {q[:3] for q in swap_neighbors(p.adj, p1)}
                    for p, p1 in zip(projs, before)
                ]
                for u, v, nb, _ in swap_neighbors(g.adj, t.parent):
                    order = _root_first(nb, _children(nb))
                    for p, p1, p_swaps in zip(projs, before, swaps):
                        report.checked += 1
                        p2 = p(order)
                        if p2 == p1 or (p.index.get(u), p.index.get(v), p2) in p_swaps:
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
                trees_p, adj_p = explicit_flip_graph(inst.graph)
                ids_p = {t.canonical_key(): i for i, t in enumerate(trees_p)}
                lifted = [ids_p[blowup_tree(inst, t).canonical_key()] for t in trees]
                for i, ti in enumerate(trees):
                    dist_p = bfs_distances(adj_p, lifted[i])
                    for j, tj in enumerate(trees):
                        report.checked += 1
                        dist_w = weighted_distance(g, w, ti, tj)
                        if dist_w != dist_p[lifted[j]]:
                            report.failures.append(
                                f"n={n} edges={g.edges} w={ws} pair=({i},{j}): "
                                f"{dist_w} != {dist_p[lifted[j]]}"
                            )
    return report


SUITES = {
    "axioms": verify_axioms_suite,
    "realization": verify_realization_suite,
    "projection": verify_projection_suite,
    "blowup-equiv": verify_blowup_suite,
}


# -- helpers for the hardness-instance properties ------------------------


def reversal_violations(
    seq: ReconfigSequence, prefix: str = "u:"
) -> list[tuple[int, int, str, str]]:
    """Ancestor-order reversals of subdivision-vertex pairs that happen
    without any swap of two subdivision vertices in between.

    Returns (i, j, a, b) tuples: a is an ancestor of b after step i, the
    order is reversed after step j, and no two-subdivision swap occurs in
    moves i..j.
    """
    trees = [seq.start]
    for mv in seq.moves:
        trees.append(trees[-1].apply_swap(mv))
    g = trees[0].graph
    us = [lab for lab in g.labels if lab.startswith(prefix)]
    anc = [
        {(a, b) for a in us for b in us if a != b and a in t.ancestors(b)}
        for t in trees
    ]
    uu_step = [
        mv.u.startswith(prefix) and mv.v.startswith(prefix) for mv in seq.moves
    ]
    out = []
    for i in range(len(trees)):
        for j in range(i + 1, len(trees)):
            if any(uu_step[i:j]):
                continue
            for a, b in anc[i]:
                if (b, a) in anc[j]:
                    out.append((i, j, a, b))
    return out


def averaging_inequality_holds(
    inst: BlowupInstance, seq_prime: ReconfigSequence
) -> bool:
    """Some copy selection projects the blow-up sequence to a weighted
    sequence no longer than the blow-up sequence's unweighted length.

    Works directly on the raw sequence: swaps between two copies of the
    same vertex never change a projection, so no canonicalization is
    required here.
    """
    gp = inst.graph
    trees = [seq_prime.start]
    for mv in seq_prime.moves:
        trees.append(trees[-1].apply_swap(mv))
    orders = [_root_first(t.parent, t.children) for t in trees]
    w, src = inst.weights, inst.source_of
    costs = [w[src(mv.u)] * w[src(mv.v)] for mv in seq_prime.moves]

    def length(copies: tuple[str, ...]) -> int:
        proj = _Projector(gp.adj, gp.mask(copies))
        path = [proj(order) for order in orders]
        return sum(c for c, a, b in zip(costs, path, path[1:]) if a != b)

    selections = product(*(inst.copy_map[v] for v in inst.source.labels))
    return min(map(length, selections)) <= len(seq_prime.moves)
