"""The 1-skeleton of the G-associahedron as an implicit search graph.

Vertices are elimination trees, edges are swaps. Searches deduplicate
by canonical key and break ties by key, so witnesses and counts are
reproducible. All weighted totals are Python integers
(the reduction weights exceed 64 bits by design).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import count
from typing import Iterable, Mapping, Sequence

from .elimtree import ElimTree, SwapMove, swap_neighbors
from .errors import InvalidArgument, ResourceLimit
from .graph import Graph, check_weights

__all__ = [
    "ReconfigSequence",
    "weighted_length",
    "validate_sequence",
    "enumerate_all",
    "distance",
    "shortest_path",
    "weighted_distance",
    "weighted_shortest_path",
    "diameter",
    "explicit_flip_graph",
    "flip_graph_dot",
]

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class ReconfigSequence:
    """A walk in the flip graph: a start tree plus an ordered list of moves."""

    start: ElimTree
    moves: tuple[SwapMove, ...] = field(default_factory=tuple)

    def __len__(self) -> int:
        return len(self.moves)


def validate_sequence(g: Graph, seq: ReconfigSequence) -> tuple[bool, ElimTree]:
    """Replay the moves; returns (all moves legal, final tree reached).

    On an illegal move the tree last reached is returned with ``False``.
    """
    tree = seq.start
    for move in seq.moves:
        try:
            tree = tree.apply_swap(move)
        except InvalidArgument:
            return False, tree
    return True, tree


def moves_weight(moves: Iterable[SwapMove], w: Mapping[str, int]) -> int:
    """Sum of w(u) * w(v) over the moves, without replaying them."""
    return sum(w[m.u] * w[m.v] for m in moves)


def weighted_length(seq: ReconfigSequence, w: Mapping[str, int]) -> int:
    """Total weight sum of w(u) * w(v) over the moves of a valid sequence."""
    ok, _ = validate_sequence(seq.start.graph, seq)
    if not ok:
        raise InvalidArgument("sequence does not replay to a valid tree")
    return moves_weight(seq.moves, w)


def enumerate_all(g: Graph, cap: int = DEFAULT_NODE_BUDGET) -> list[ElimTree]:
    """All elimination trees of ``g`` by BFS over swaps, sorted by key."""
    return explicit_flip_graph(g, cap)[0]


def _check_pair(g: Graph, t1: ElimTree, t2: ElimTree) -> None:
    if t1.graph.labels != g.labels or t2.graph.labels != g.labels:
        raise InvalidArgument("trees do not belong to the given graph")


def _budgeted_expand(g: Graph, node_budget: int):
    """The swap kernel on ``g``, counting the states it expands against the
    node budget."""
    adj = g.adj
    expanded = count(1)

    def expand(parent: tuple[int, ...]):
        if next(expanded) > node_budget:
            raise ResourceLimit(f"node budget {node_budget} exceeded")
        return swap_neighbors(adj, parent)

    return expand


def _bidirectional_bfs(g: Graph, t1: ElimTree, t2: ElimTree, expand):
    """Bidirectional BFS between two trees of ``g``, expanding the smaller
    frontier one whole level at a time. Returns the distance d, the maps
    from key to distance of the searches from t1 and from t2, and the
    parent tuples, by key, of the trees where the two met."""
    _check_pair(g, t1, t2)
    k1, k2 = t1.canonical_key(), t2.canonical_key()
    dist = ({k1: 0}, {k2: 0})
    if k1 == k2:
        return 0, dist, {k2: t2.parent}
    frontier = [[t1.parent], [t2.parent]]
    depth = [0, 0]
    while True:
        if not frontier[0] or not frontier[1]:
            raise AssertionError("flip graph is connected; search must meet")
        side = 1 if len(frontier[0]) > len(frontier[1]) else 0
        mine, other = dist[side], dist[1 - side]
        level = depth[side] + 1
        nxt = []
        meets: dict[bytes, tuple[int, ...]] = {}
        for parent in frontier[side]:
            for _, _, nb, key in expand(parent):
                if key in other:
                    meets[key] = nb
                if key not in mine:
                    mine[key] = level
                    nxt.append(nb)
        depth[side] = level
        if meets:
            # Each map held a whole ball and the balls were disjoint, so the
            # distance exceeds the sum of the old depths; every meeting tree
            # lies on the other side's last level and on a geodesic.
            return level + depth[1 - side], dist, meets
        frontier[side] = nxt


def distance(
    g: Graph, t1: ElimTree, t2: ElimTree, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Flip distance by bidirectional BFS over the implicit graph."""
    return _bidirectional_bfs(g, t1, t2, _budgeted_expand(g, node_budget))[0]


def shortest_path(
    g: Graph, t1: ElimTree, t2: ElimTree, node_budget: int = DEFAULT_NODE_BUDGET
) -> ReconfigSequence:
    """A shortest reconfiguration sequence; ties broken by canonical key.

    Each tree's predecessor is its smallest-key neighbour one step closer
    to t1, as in a BFS from t1 that expands each level in key order.
    """
    expand = _budgeted_expand(g, node_budget)
    d, (dist1, dist2), meets = _bidirectional_bfs(g, t1, t2, expand)
    k1, k2 = t1.canonical_key(), t2.canonical_key()
    # dist1 is exact up to the radius of the search from t1. The walk from
    # t2 back to t1 only meets trees on t1-t2 geodesics; beyond that radius,
    # find them by descending from the meeting trees (one level of the search
    # from t2) through t2's map: a geodesic tree j steps from t2 is d - j from t1.
    dist1[k2] = d
    layer = list(meets.values())
    level = dist2[next(iter(meets))]
    while level > 1:
        level -= 1
        nxt = []
        for parent in layer:
            for _, _, nb, key in expand(parent):
                if dist2.get(key) == level and key not in dist1:
                    dist1[key] = d - level
                    nxt.append(nb)
        layer = nxt
    labs = g.labels
    moves = []
    key, parent = k2, t2.parent
    while key != k1:
        want = dist1[key] - 1
        key, u, v, parent = min(
            (nk, u, v, nb) for u, v, nb, nk in expand(parent) if dist1.get(nk) == want
        )
        moves.append(SwapMove(labs[v], labs[u]))
    return ReconfigSequence(t1, tuple(reversed(moves)))


def weighted_distance(
    g: Graph,
    w: Mapping[str, int],
    t1: ElimTree,
    t2: ElimTree,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Minimum total swap weight, by uniform-cost search with exact integers."""
    return moves_weight(weighted_shortest_path(g, w, t1, t2, node_budget).moves, w)


def weighted_shortest_path(
    g: Graph,
    w: Mapping[str, int],
    t1: ElimTree,
    t2: ElimTree,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ReconfigSequence:
    """A minimum-weight reconfiguration sequence (uniform-cost search with
    predecessors; ties broken by canonical key through the heap order)."""
    _check_pair(g, t1, t2)
    check_weights(g, w)
    expand = _budgeted_expand(g, node_budget)
    labs = g.labels
    wi = [w[lab] for lab in labs]
    target = t2.canonical_key()
    start_key = t1.canonical_key()
    heap: list[tuple[int, bytes, tuple[int, ...]]] = [(0, start_key, t1.parent)]
    best: dict[bytes, int] = {start_key: 0}
    pred: dict[bytes, tuple[bytes, int, int]] = {}
    while heap:
        d, key, parent = heapq.heappop(heap)
        if d > best[key]:
            continue  # a stale entry of a tree already expanded
        if key == target:
            moves = []
            while key != start_key:
                key, u, v = pred[key]
                moves.append(SwapMove(labs[u], labs[v]))
            return ReconfigSequence(t1, tuple(reversed(moves)))
        for u, v, nb, nk in expand(parent):
            nd = d + wi[u] * wi[v]
            if nk not in best or nd < best[nk]:
                best[nk] = nd
                pred[nk] = (key, u, v)
                heapq.heappush(heap, (nd, nk, nb))
    raise AssertionError("flip graph is connected; target must be reached")


# -- explicit materialization and diameter ------------------------------


def explicit_flip_graph(
    g: Graph, cap: int = DEFAULT_NODE_BUDGET
) -> tuple[list[ElimTree], list[list[int]]]:
    """Materialize the flip graph: trees sorted by key plus adjacency lists.

    One BFS over swaps records every tree's neighbours as it goes; the
    flip graph is connected, so any start tree reaches everything.
    """
    start = ElimTree.from_ordering(g, g.labels)
    ids = {start.canonical_key(): 0}
    states = [start.parent]
    rows = []
    for parent in states:  # FIFO: the list grows while it is scanned
        row = []
        for _, _, nb, key in swap_neighbors(g.adj, parent):
            j = ids.get(key)
            if j is None:
                if len(states) >= cap:
                    raise ResourceLimit(f"enumeration cap {cap} exceeded")
                j = ids[key] = len(states)
                states.append(nb)
            row.append(j)
        rows.append(row)
    keys = list(ids)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    trees = [ElimTree._trusted(g, states[i], key=keys[i]) for i in order]
    return trees, [sorted(rank[j] for j in rows[i]) for i in order]


def bfs_distances(adj: list[list[int]], source: int) -> list[int]:
    """Hop distances from ``source`` in an explicit graph (-1 if unreached)."""
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        dv = dist[v] + 1
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = dv
                queue.append(u)
    return dist


def _eccentricities(adj: list[list[int]], sources: Sequence[int]) -> list[int]:
    """Eccentricities of ``sources`` (within their components) by bit-parallel
    BFS (Then et al., VLDB 2014): 512 sources at a time, one bit each in a
    vertex's uint64 words. The adjacency becomes a dense (N, D) index matrix,
    D the largest degree, a shorter row padded with the vertex itself; each
    level ORs in one gathered column at a time."""
    import numpy as np

    width = max(1, max(map(len, adj), default=0))
    nbrs = np.array(
        [row + [v] * (width - len(row)) for v, row in enumerate(adj)], dtype=np.intp
    )
    cols = list(nbrs.T.copy())
    eccs: list[int] = []
    for lo in range(0, len(sources), 512):
        batch = np.asarray(sources[lo : lo + 512], dtype=np.intp)
        word, shift = np.divmod(np.arange(len(batch), dtype=np.uint64), np.uint64(64))
        front = np.zeros((len(adj), (len(batch) + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(front, (batch, word), np.uint64(1) << shift)
        unseen, ecc, level = ~front, np.zeros(len(batch), dtype=np.int64), 0
        while (alive := np.bitwise_or.reduce(front, axis=0)).any():
            ecc[(alive[word] >> shift & 1).astype(bool)] = level
            level += 1
            nxt = front.take(cols[0], 0)
            for col in cols[1:]:
                nxt |= front.take(col, 0)
            nxt &= unseen
            unseen ^= nxt
            front = nxt
        eccs.extend(ecc.tolist())
    return eccs


def diameter(
    g: Graph,
    exact_allpairs: bool = False,
    cap: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Exact flip-graph diameter: the largest eccentricity, every one computed
    by the bit-parallel BFS kernel. ``exact_allpairs`` is accepted for
    compatibility and changes nothing; there is only this one mode.
    """
    return adjacency_diameter(explicit_flip_graph(g, cap)[1])


def adjacency_diameter(adj: list[list[int]]) -> int:
    """Diameter of a connected explicit graph: its largest eccentricity."""
    return max(_eccentricities(adj, range(len(adj))))


def flip_graph_dot(g: Graph, cap: int = DEFAULT_NODE_BUDGET) -> str:
    """DOT export of the full flip graph with ordering labels on nodes."""
    trees, adj = explicit_flip_graph(g, cap)
    lines = ["graph flipgraph {"]
    for i, tree in enumerate(trees):
        label = " ".join(tree.to_ordering())
        lines.append(f'  n{i} [label="{label}"];')
    for i, nbrs in enumerate(adj):
        for j in nbrs:
            if i < j:
                lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
