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
from typing import Iterable, Mapping, Sequence

from .elimtree import (
    ElimTree, SwapMove, _Replay, _down_swaps, _unpack, is_valid, swap_neighbors
)
from .errors import InvalidArgument, ResourceLimit
from .graph import Graph, automorphism_generators, check_weights

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

    On an illegal move the tree last reached is returned with ``False``;
    a start tree that is not an elimination tree of ``g`` raises.
    """
    if not is_valid(g, seq.start):
        raise InvalidArgument("not an elimination tree of the given graph")
    replay = _Replay(seq.start)
    for move in seq.moves:
        try:
            replay.swap(move.u, move.v)
        except InvalidArgument:
            return False, replay.tree()
    return True, replay.tree()


def moves_weight(moves: Iterable[SwapMove], w: Mapping[str, int]) -> int:
    """Sum of w(u) * w(v) over the moves, without replaying them."""
    return sum(w[m.u] * w[m.v] for m in moves)


def weighted_length(seq: ReconfigSequence, w: Mapping[str, int]) -> int:
    """Total weight sum of w(u) * w(v) over the moves of a valid sequence."""
    ok, _ = validate_sequence(seq.start.graph, seq)
    if not ok:
        raise InvalidArgument("sequence does not replay to a valid tree")
    check_weights(seq.start.graph, w)
    return moves_weight(seq.moves, w)


def enumerate_all(g: Graph, cap: int = DEFAULT_NODE_BUDGET) -> list[ElimTree]:
    """All elimination trees of ``g`` from the flip-graph build, sorted by key."""
    return _trees(g, sorted(_flip_graph(g, cap)[0]))


def _bidirectional_bfs(g: Graph, t1: ElimTree, t2: ElimTree, node_budget: int):
    """Bidirectional BFS between two trees of ``g``, expanding the smaller
    frontier one whole level at a time, at most ``node_budget`` states in
    all. Returns the distance d, the maps from key to distance of the
    searches from t1 and from t2, and the keys of the trees where the two met."""
    if not (is_valid(g, t1) and is_valid(g, t2)):
        raise InvalidArgument("not an elimination tree of the given graph")
    k1, k2 = t1.canonical_key(), t2.canonical_key()
    dist = ({k1: 0}, {k2: 0})
    if k1 == k2:
        return 0, dist, [k2]
    frontier = [[k1], [k2]]
    depth = [0, 0]
    expanded = 0
    while True:
        if not frontier[0] or not frontier[1]:
            raise AssertionError("flip graph is connected; search must meet")
        side = 1 if len(frontier[0]) > len(frontier[1]) else 0
        expanded += len(frontier[side])
        if expanded > node_budget:
            raise ResourceLimit(f"node budget {node_budget} exceeded")
        mine, other = dist[side], dist[1 - side]
        level = depth[side] + 1
        nxt, meets = [], []
        for key in frontier[side]:
            for _, _, nk in swap_neighbors(g.adj, key):
                if nk not in mine:
                    mine[nk] = level
                    nxt.append(nk)
                    if nk in other:
                        meets.append(nk)
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
    return _bidirectional_bfs(g, t1, t2, node_budget)[0]


def shortest_path(
    g: Graph, t1: ElimTree, t2: ElimTree, node_budget: int = DEFAULT_NODE_BUDGET
) -> ReconfigSequence:
    """A shortest reconfiguration sequence; ties broken by canonical key.

    Each tree's predecessor is its smallest-key neighbour one step closer
    to t1, as in a BFS from t1 that expands each level in key order.
    """
    d, (dist1, dist2), layer = _bidirectional_bfs(g, t1, t2, node_budget)
    # dist1 is exact up to the radius of the search from t1. The walk from
    # t2 back to t1 only meets trees on t1-t2 geodesics; beyond that radius,
    # find them by descending from the meeting trees (one level of the search
    # from t2) through t2's map: a geodesic tree j steps from t2 is d - j from t1.
    dist1[t2.canonical_key()] = d
    level = dist2[layer[0]]
    while level > 1:
        level -= 1
        nxt = []
        for key in layer:
            for _, _, nk in swap_neighbors(g.adj, key):
                if dist2.get(nk) == level and nk not in dist1:
                    dist1[nk] = d - level
                    nxt.append(nk)
        layer = nxt
    return _walk_back(g, dist1, t1, t2, lambda u, v: 1)


def _walk_back(g: Graph, dist, t1: ElimTree, t2: ElimTree, cost) -> ReconfigSequence:
    """The path that steps back from each tree x, t2 first, to its neighbour
    nk of least (dist[nk], nk) with dist[nk] + cost(u, v) == dist[x], until
    t1. ``dist`` holds upper bounds on the distance from t1, exact on every
    tree of a shortest path. It re-expands only the path's trees, unbudgeted."""
    moves = []
    key, start_key = t2.canonical_key(), t1.canonical_key()
    while key != start_key:
        d = dist[key]
        _, key, u, v = min((dist[nk], nk, u, v) for u, v, nk in swap_neighbors(g.adj, key)
                           if nk in dist and dist[nk] + cost(u, v) == d)
        moves.append(SwapMove(g.labels[v], g.labels[u]))
    return ReconfigSequence(t1, tuple(reversed(moves)))


def _checked_weights(g: Graph, w: Mapping[str, int], t1: ElimTree, t2: ElimTree) -> list[int]:
    """The weights of a query on trees t1, t2 of ``g`` as ints in label
    order, once t2, then t1, then the weights are checked."""
    if not (is_valid(g, t2) and is_valid(g, t1)):
        raise InvalidArgument("not an elimination tree of the given graph")
    return check_weights(g, w)


def _uniform_cost(g: Graph, wi: Sequence[int], t1: ElimTree, target: ElimTree | None = None,
                  node_budget: int = DEFAULT_NODE_BUDGET) -> dict[bytes, int]:
    """Uniform-cost search from t1, a tree of ``g``, under the checked
    positive integer weights ``wi`` in label order, in (d, key) heap order,
    expanding at most ``node_budget`` states: its map from key to best
    distance, returned when ``target`` is popped or, without one, once every
    tree is settled. With positive weights every tree closer than the target
    was settled first, so the map is exact there and an upper bound on the
    distance elsewhere."""
    goal = None if target is None else target.canonical_key()
    start_key = t1.canonical_key()
    heap: list[tuple[int, bytes]] = [(0, start_key)]
    best: dict[bytes, int] = {start_key: 0}
    expanded = 0
    while heap:
        d, key = heapq.heappop(heap)
        if d > best[key]:
            continue  # a stale entry of a tree already expanded
        if key == goal:
            return best
        expanded += 1
        if expanded > node_budget:
            raise ResourceLimit(f"node budget {node_budget} exceeded")
        for u, v, nk in swap_neighbors(g.adj, key):
            nd = d + wi[u] * wi[v]
            if nk not in best or nd < best[nk]:
                best[nk] = nd
                heapq.heappush(heap, (nd, nk))
    if goal is not None:
        raise AssertionError("flip graph is connected; target must be reached")
    return best


def weighted_distance(
    g: Graph,
    w: Mapping[str, int],
    t1: ElimTree,
    t2: ElimTree,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Minimum total swap weight, by uniform-cost search with exact integers."""
    wi = _checked_weights(g, w, t1, t2)
    return _uniform_cost(g, wi, t1, t2, node_budget)[t2.canonical_key()]


def weighted_shortest_path(
    g: Graph,
    w: Mapping[str, int],
    t1: ElimTree,
    t2: ElimTree,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> ReconfigSequence:
    """A minimum-weight reconfiguration sequence; each tree's predecessor is
    its optimal neighbour of least (distance, key), the first one settled."""
    wi = _checked_weights(g, w, t1, t2)
    dist = _uniform_cost(g, wi, t1, t2, node_budget)
    return _walk_back(g, dist, t1, t2, lambda u, v: wi[u] * wi[v])


# -- explicit materialization and diameter ------------------------------


def _flip_graph(g: Graph, cap: int = DEFAULT_NODE_BUDGET) -> tuple[list[bytes], list[list[int]]]:
    """Every tree's key in discovery order, and rows[i] the indices of the
    n - 1 neighbours of keys[i]. ``cap`` bounds the keys stored, the first
    one included.

    One search from the start tree S = ``from_ordering(g, g.labels)`` that
    expands only down-swaps: swap(u, v) with parent index u < child index v.
    Each key found goes into both rows, so every edge is built exactly
    once, from its upper end. Every tree is reached:

    - A tree with no child of smaller index than its parent has index
      order as a linear extension, so it is S.
    - Let phi(T) = sum over i of (n - i) * x_i(T), x the Devadoss
      coordinates. A swap(u, v) moves x along e_u - e_v and x_u strictly
      drops, so phi strictly drops along every down-swap.
    - Taking up-swaps from any tree therefore ends at S; reversed, that
      walk is a chain of down-swaps from S.

    This is the orientation of the polymatroid base polytope's edges by a
    generic linear functional, with S its one source.
    """
    start = ElimTree.from_ordering(g, g.labels).canonical_key()
    if cap < 1:
        raise ResourceLimit(f"enumeration cap {cap} exceeded")
    keys, ids, rows = [start], {start: 0}, [[]]
    for key in keys:  # FIFO: the list grows while it is scanned
        i = ids[key]  # the int object the other rows hold; enumerate would add one per tree
        row = rows[i]
        for _, _, nk in _down_swaps(g.adj, key):
            j = ids.get(nk)
            if j is None:
                if len(keys) >= cap:
                    raise ResourceLimit(f"enumeration cap {cap} exceeded")
                j = ids[nk] = len(keys)
                keys.append(nk)
                rows.append([])
            rows[j].append(i)
            row.append(j)
    return keys, rows


def _trees(g: Graph, keys: Iterable[bytes]) -> list[ElimTree]:
    """The trees of trusted keys, in the keys' order."""
    return [ElimTree._trusted(g, tuple(_unpack(key, g.n)), key=key) for key in keys]


def explicit_flip_graph(
    g: Graph, cap: int = DEFAULT_NODE_BUDGET
) -> tuple[list[ElimTree], list[list[int]]]:
    """Materialize the flip graph: trees sorted by key plus adjacency lists
    in that numbering."""
    keys, rows = _flip_graph(g, cap)
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = {i: r for r, i in enumerate(order)}
    trees = _trees(g, (keys[i] for i in order))
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
    """Exact flip-graph diameter: the largest eccentricity, one computed per
    Aut(g)-orbit of trees by the bit-parallel BFS kernel. ``exact_allpairs``
    is accepted for compatibility and changes nothing; there is only this
    one mode.
    """
    return _diameter(g, cap)[0]


def _diameter(g: Graph, cap: int) -> tuple[int, int]:
    """The flip graph's diameter and its number of trees. An automorphism of
    ``g`` maps swaps to swaps, so it is one of the flip graph and keeps
    eccentricities: one source per orbit of trees suffices. Eccentricities
    do not depend on the numbering, so no tree is built and nothing sorted."""
    import numpy as np

    keys, rows = _flip_graph(g, cap)
    label = _tree_orbits(g, keys)
    sources = np.flatnonzero(label == np.arange(len(keys)))
    return max(_eccentricities(rows, sources)), len(keys)


def _tree_orbits(g: Graph, keys: Sequence[bytes]):
    """For trees of ``g`` given by their keys, a set closed under Aut(g), the
    smallest index in each one's orbit as a numpy array. An automorphism
    sigma maps the tree with parent array p to the one with parent
    p'[sigma(i)] = sigma(p[i]); each mapped row is matched back to its index
    by sorting both row sets, so the match is exact at any n."""
    import numpy as np

    label = np.arange(len(keys))
    gens = automorphism_generators(g)
    trees = np.asarray(_unpack(b"".join(keys), g.n)).reshape(len(keys), g.n)
    order = np.lexsort(trees.T)
    perms = []
    for sigma in gens:
        image = np.empty_like(trees)
        image[:, sigma] = np.array([*sigma, -1])[trees]  # the root's -1 stays
        image_order = np.lexsort(image.T)
        if not np.array_equal(trees[order], image[image_order]):
            raise AssertionError("the trees are not closed under Aut(G)")
        perm = np.empty_like(label)
        perm[image_order] = order  # tree image_order[r] maps to tree order[r]
        perms.append(perm)
    while True:  # min over each orbit: pull labels along every generator, then jump
        new = label
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def flip_graph_dot(g: Graph, cap: int = DEFAULT_NODE_BUDGET) -> str:
    """DOT export of the full flip graph with ordering labels on nodes
    (``\\`` and ``"`` escaped, as DOT quoted strings need)."""
    trees, adj = explicit_flip_graph(g, cap)
    lines = ["graph flipgraph {"]
    for i, tree in enumerate(trees):
        label = " ".join(tree.to_ordering()).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  n{i} [label="{label}"];')
    for i, nbrs in enumerate(adj):
        for j in nbrs:
            if i < j:
                lines.append(f"  n{i} -- n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
