"""The 1-skeleton of the G-associahedron as an implicit search graph.

Vertices are elimination trees, edges are swaps. Searches deduplicate
by canonical key and break ties by key, so witnesses and counts are
reproducible. All weighted totals are Python integers
(the reduction weights exceed 64 bits by design).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import product
from typing import Iterable, Mapping, Sequence

from .elimtree import (
    ElimTree, SwapMove, _Replay, _ordering_parent, _pack, _shape, _unpack,
    is_valid, swap_neighbors
)
from .errors import InvalidArgument, ResourceLimit
from .graph import Graph, automorphism_generators, check_weights, iter_bits

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
    """Bidirectional BFS between two checked trees of ``g``, expanding the
    smaller frontier one whole level at a time, at most ``node_budget``
    states in all. Returns the distance d, the maps from key to distance of
    the searches from t1 and from t2, and the keys of the trees where the
    two met."""
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


def _twin_classes(adj: Sequence[int]) -> list[list[int]]:
    """The true-twin classes of a graph given by its adjacency masks: the
    vertices grouped by closed neighbourhood, each class in index order,
    the classes in the order of their first vertices."""
    classes: dict[int, list[int]] = {}
    for v, nbrs in enumerate(adj):
        classes.setdefault(nbrs | 1 << v, []).append(v)
    return list(classes.values())


def _unit_bound(g: Graph, t1: ElimTree, t2: ElimTree, node_budget: int) -> _TwinBound | None:
    """Check that t1 and t2 are trees of ``g`` and that ``node_budget`` is
    not negative; then the averaging bound towards t2 when ``g`` is a clique
    blow-up that A* pays off on, else None. That needs at least 3 fewer twin
    classes than vertices, and at most 64 copy selections: below the first,
    the tables cost more than the search saves; above the second, the
    projections per expanded tree do. The count is multiplied up class by
    class and given up once above 64, so no selection is listed for a graph
    over the cap."""
    if not (is_valid(g, t1) and is_valid(g, t2)):
        raise InvalidArgument("not an elimination tree of the given graph")
    if node_budget < 0:
        raise ResourceLimit(f"node budget {node_budget} exceeded")
    classes = _twin_classes(g.adj)
    if g.n - len(classes) < 3:
        return None
    selections = 1
    for members in classes:
        selections *= len(members)
        if selections > 64:
            return None
    return _TwinBound(g, classes, t2, node_budget)


class _TwinBound:
    """The paper's averaging bound on a clique blow-up, times S, towards t2.

    A graph whose true-twin classes C_1, ..., C_k are not all single
    vertices is the blow-up of its quotient Q: one vertex per class,
    weighted by the class size. A copy selection phi takes one vertex of
    each class and induces a copy of Q, so T|phi, the projection of a tree T
    onto it, is a tree of Q. With S = prod |C_i| selections,

        H(T) = sum over phi of d_w(T|phi, T2|phi) + S * twin(T),

    twin(T) the number of same-class pairs ordered unlike in T2 (twins are
    adjacent, so one is always the other's ancestor).

    - A swap(u, v) across classes a, b moves T|phi only in the S / (|C_a|
      |C_b|) selections holding both u and v, and there by the swap (a, b)
      of Q, of weight |C_a| |C_b|; it reorders no twin pair.
    - A swap of twins moves no projection (the child twin is the parent's
      only child, so the swap just exchanges their names) and one pair.

    So |H(T) - H(T')| <= S on every swap and H(T2) = 0: H / S is a
    consistent lower bound on d(T, T2), the averaging step of the paper's
    weighted-to-unweighted proof. On blow-up images every T|phi is the
    source tree, and H(T1) = S * d(T1, T2) exactly.

    The tables d_w(., T2|phi) come from one settle-all ``_uniform_cost`` on
    Q per distinct T2|phi (one on blow-up images); ``spent`` is the number
    of states they expanded, charged to ``node_budget``.
    """

    __slots__ = ("cls", "qadj", "masks", "holding", "pos2", "size", "tables", "spent", "_qtrees",
                 "_qswaps")

    def __init__(self, g: Graph, classes: Sequence[Sequence[int]], t2: ElimTree,
                 node_budget: int = DEFAULT_NODE_BUDGET):
        self.cls = [0] * g.n
        for c, members in enumerate(classes):
            for v in members:
                self.cls[v] = c
        reps = [members[0] for members in classes]
        q = Graph(map(str, range(len(reps))), [
            (str(a), str(b)) for a, r in enumerate(reps) for b in range(a + 1, len(reps))
            if g.adj[r] >> reps[b] & 1
        ])
        self.qadj = q.adj
        self.masks = [sum(1 << v for v in phi) for phi in product(*classes)]
        self.size = len(self.masks)
        self.holding = [0] * g.n  # bit i of holding[v]: selection i holds v
        for i, mask in enumerate(self.masks):
            for v in iter_bits(mask):
                self.holding[v] |= 1 << i
        order2 = _shape(t2.parent)[1]
        self.pos2 = [0] * g.n
        for i, v in enumerate(order2):
            self.pos2[v] = i
        sizes = [len(members) for members in classes]
        self._qtrees: dict[tuple[int, ...], bytes] = {}
        self._qswaps: dict[bytes, dict[tuple[int, int], bytes]] = {}
        targets = self._project(order2)
        tables: dict[bytes, dict[bytes, int]] = {}
        self.spent = 0
        for qk in targets:
            if qk not in tables:
                start = ElimTree._trusted(q, tuple(_unpack(qk, q.n)), key=qk)
                tables[qk] = _uniform_cost(q, sizes, start, node_budget=node_budget,
                                           spent=self.spent)
                self.spent += len(tables[qk])  # a settle-all search expands each tree once
        self.tables = [tables[qk] for qk in targets]

    def _project(self, order: Sequence[int]) -> list[bytes]:
        """The key of T|phi for every selection phi, from a root-first order
        of T: the tree of Q whose vertex order is the classes of phi's
        vertices in that order. Selections often share that order, so each
        order's tree is built once."""
        cls, memo, out = self.cls, self._qtrees, []
        for mask in self.masks:
            seq = tuple([cls[v] for v in order if mask >> v & 1])
            qk = memo.get(seq)
            if qk is None:
                qk = memo[seq] = _pack(_ordering_parent(self.qadj, seq))
            out.append(qk)
        return out

    def h(self, key: bytes) -> int:
        """H of the tree with this key, from scratch."""
        order = _shape(_unpack(key, len(self.cls)))[1]
        seen: list[list[int]] = [[] for _ in self.qadj]  # T2 positions of each class so far
        twin = 0
        for v in order:
            pos = self.pos2[v]
            twin += sum(p > pos for p in seen[self.cls[v]])
            seen[self.cls[v]].append(pos)
        return self.size * twin + sum(t[qk] for t, qk in zip(self.tables, self._project(order)))

    def expand(self, key: bytes):
        """For the tree with this key, the function that gives the change of
        H by its swap(u, v): T|phi is projected once here for every phi, and
        the swap (a, b) moves it iff a is b's parent there."""
        qkeys = self._project(_shape(_unpack(key, len(self.cls)))[1])
        cls, pos2, holding, tables = self.cls, self.pos2, self.holding, self.tables
        size = self.size

        def delta(u: int, v: int) -> int:
            a, b = cls[u], cls[v]
            if a == b:
                return size if pos2[u] < pos2[v] else -size
            change = 0
            for i in iter_bits(holding[u] & holding[v]):
                qk = qkeys[i]
                nq = self._swaps(qk).get((a, b))
                if nq is not None:
                    change += tables[i][nq] - tables[i][qk]
            return change

        return delta

    def _swaps(self, qk: bytes) -> dict[tuple[int, int], bytes]:
        """The swaps of the tree of Q with this key, (a, b) to the key after it."""
        out = self._qswaps.get(qk)
        if out is None:
            out = self._qswaps[qk] = {(a, b): nq for a, b, nq in swap_neighbors(self.qadj, qk)}
        return out


def distance(
    g: Graph, t1: ElimTree, t2: ElimTree, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """Flip distance over the implicit graph: by A* under the averaging
    bound when ``g`` is a clique blow-up that ``_unit_bound`` accepts, else
    by bidirectional BFS."""
    bound = _unit_bound(g, t1, t2, node_budget)
    if bound is None:
        return _bidirectional_bfs(g, t1, t2, node_budget)[0]
    return _uniform_cost(g, [1] * g.n, t1, t2, node_budget, bound.spent,
                         bound)[t2.canonical_key()]


def shortest_path(
    g: Graph, t1: ElimTree, t2: ElimTree, node_budget: int = DEFAULT_NODE_BUDGET
) -> ReconfigSequence:
    """A shortest reconfiguration sequence; ties broken by canonical key.

    Each tree's predecessor is its smallest-key neighbour one step closer
    to t1, as in a BFS from t1 that expands each level in key order.
    """
    bound, unit = _unit_bound(g, t1, t2, node_budget), [1] * g.n
    if bound is not None:
        return _walk_back(g, _uniform_cost(g, unit, t1, t2, node_budget, bound.spent, bound,
                                           close=True), t1, t2, unit)
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
    return _walk_back(g, dist1, t1, t2, unit)


def _walk_back(g: Graph, dist, t1: ElimTree, t2: ElimTree, wi: Sequence[int]) -> ReconfigSequence:
    """The path that steps back from each tree x, t2 first, to its neighbour
    nk of least (dist[nk], nk) with dist[nk] + wi[u] wi[v] == dist[x], until
    t1. ``dist`` holds upper bounds on the distance from t1 under the
    weights ``wi``, exact on every tree of a shortest path. It re-expands
    only the path's trees, unbudgeted."""
    moves = []
    key, start_key = t2.canonical_key(), t1.canonical_key()
    while key != start_key:
        d = dist[key]
        _, key, u, v = min((dist[nk], nk, u, v) for u, v, nk in swap_neighbors(g.adj, key)
                           if nk in dist and dist[nk] + wi[u] * wi[v] == d)
        moves.append(SwapMove(g.labels[v], g.labels[u]))
    return ReconfigSequence(t1, tuple(reversed(moves)))


def _checked_weights(g: Graph, w: Mapping[str, int], t1: ElimTree, t2: ElimTree,
                     node_budget: int) -> list[int]:
    """The weights of a query on trees t1, t2 of ``g`` as ints in label
    order, once t2, then t1, then the weights, then the budget are checked."""
    if not (is_valid(g, t2) and is_valid(g, t1)):
        raise InvalidArgument("not an elimination tree of the given graph")
    wi = check_weights(g, w)
    if node_budget < 0:
        raise ResourceLimit(f"node budget {node_budget} exceeded")
    return wi


def _uniform_cost(g: Graph, wi: Sequence[int], t1: ElimTree, target: ElimTree | None = None,
                  node_budget: int = DEFAULT_NODE_BUDGET, spent: int = 0,
                  bound: _TwinBound | None = None, close: bool = False) -> dict[bytes, int]:
    """Best-first search from t1, a tree of ``g``, under the checked positive
    integer weights ``wi`` in label order, expanding at most ``node_budget``
    states, ``spent`` of them already charged: its map from key to best
    distance, returned when ``target`` is popped or, without one, once every
    tree is settled. Heap entries are (f, -d, key): f = d, so (d, key) order,
    or with ``bound`` towards ``target`` (unit weights) A*'s f = S d + H, ties
    to the deeper tree. Either way each tree popped is settled: the map is
    exact there and an upper bound on the distance elsewhere.

    With ``close`` the search goes on past the target through every tree of f
    at most the target's, budgeted, and pushes no tree above that: every tree
    of a shortest path has such an f, so the map is then exact on all of them."""
    goal = None if target is None else target.canonical_key()
    start_key = t1.canonical_key()
    heap = [(0 if bound is None else bound.h(start_key), 0, start_key)]
    best: dict[bytes, int] = {start_key: 0}
    expanded, limit = spent, None
    while heap:
        f, neg_d, key = heapq.heappop(heap)
        d = best[key]
        if -neg_d > d:
            continue  # a stale entry of a tree already expanded
        if limit is None:
            if key == goal:
                if not close:
                    return best
                limit = f
                continue
        elif f > limit:
            return best
        expanded += 1
        if expanded > node_budget:
            raise ResourceLimit(f"node budget {node_budget} exceeded")
        delta = None if bound is None else bound.expand(key)
        for u, v, nk in swap_neighbors(g.adj, key):
            nd = d + wi[u] * wi[v]
            if nk not in best or nd < best[nk]:
                f_nk = nd if delta is None else f + bound.size * (nd - d) + delta(u, v)
                if limit is None or f_nk <= limit:
                    best[nk] = nd
                    heapq.heappush(heap, (f_nk, -nd, nk))
    if goal is not None and limit is None:
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
    wi = _checked_weights(g, w, t1, t2, node_budget)
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
    wi = _checked_weights(g, w, t1, t2, node_budget)
    return _walk_back(g, _uniform_cost(g, wi, t1, t2, node_budget), t1, t2, wi)


# -- explicit materialization and diameter ------------------------------


def _flip_graph(g: Graph, cap: int = DEFAULT_NODE_BUDGET) -> tuple[list[bytes], list[list[int]]]:
    """Every tree's key in discovery order, and rows[i] the indices of the
    n - 1 neighbours of keys[i]. ``cap`` bounds the keys stored, the first
    one included.

    One depth-first search from the start tree S = ``from_ordering(g,
    g.labels)`` that expands only down-swaps: swap(u, v) with parent index
    u < child index v. Each key found goes into both rows, so every edge is
    built exactly once, from its upper end. Every tree is reached:

    - A tree with no child of smaller index than its parent has index
      order as a linear extension, so it is S.
    - Let phi(T) = sum over i of (n - i) * x_i(T), x the Devadoss
      coordinates. A swap(u, v) moves x along e_u - e_v and x_u strictly
      drops, so phi strictly drops along every down-swap.
    - Taking up-swaps from any tree therefore ends at S; reversed, that
      walk is a chain of down-swaps from S.

    This is the orientation of the polymatroid base polytope's edges by a
    generic linear functional, with S its one source. A pending tree
    carries its parent array, children lists and subtree masks, derived
    from its discoverer's by the swap rule: only u, v and u's old parent
    change, and no list is edited in place, so the rest are shared. The
    stack holds at most (n - 1) trees per level of depth.
    """
    start = ElimTree.from_ordering(g, g.labels)
    if cap < 1:
        raise ResourceLimit(f"enumeration cap {cap} exceeded")
    adj, key = g.adj, start.canonical_key()
    keys, ids, rows = [key], {key: 0}, [[]]
    stack = [(0, _unpack(key, g.n), list(start.children), start._masks)]
    while stack:
        i, parent, children, sub = stack.pop()
        row = rows[i]
        for u, kids in enumerate(children):
            for v in kids:
                if v < u:
                    continue
                top = parent[u]
                nb = parent[:]
                nb[v] = top
                nb[u] = v
                adj_u = adj[u]
                for c in children[v]:
                    if sub[c] & adj_u:
                        nb[c] = u
                nk = nb.tobytes()
                j = ids.get(nk)
                if j is None:
                    if len(keys) >= cap:
                        raise ResourceLimit(f"enumeration cap {cap} exceeded")
                    j = ids[nk] = len(keys)
                    keys.append(nk)
                    rows.append([])
                    # v takes u's subtree; u keeps it minus v's, plus the moved subtrees.
                    moved = [c for c in children[v] if nb[c] == u]
                    mask_u = sub[u] ^ sub[v]
                    for c in moved:
                        mask_u |= sub[c]
                    nsub = sub[:]
                    nsub[v], nsub[u] = sub[u], mask_u
                    nkids = children[:]
                    nkids[v] = [c for c in children[v] if nb[c] == v] + [u]
                    nkids[u] = [c for c in kids if c != v] + moved
                    if top >= 0:
                        nkids[top] = [v if c == u else c for c in children[top]]
                    stack.append((j, nb, nkids, nsub))
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


def bfs_distances(
    adj: list[list[int]], source: int, targets: Sequence[int] | None = None
) -> list[int]:
    """Hop distances from ``source`` in an explicit graph (-1 if unreached),
    one level at a time. Given ``targets``, the search stops after the level
    that reaches the last of them; farther vertices stay at -1."""
    dist = [-1] * len(adj)
    dist[source] = 0
    level, d = [source], 0
    while level and (targets is None or any(dist[t] < 0 for t in targets)):
        d += 1
        nxt = []
        for v in level:
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = d
                    nxt.append(u)
        level = nxt
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
    p'[sigma(i)] = sigma(p[i]), built in the keys' width, which holds every
    index; each mapped row is matched back to its index by sorting both row
    sets, so the match is exact at any n."""
    import numpy as np

    label = np.arange(len(keys))
    gens = automorphism_generators(g)
    trees = np.asarray(_unpack(b"".join(keys), g.n)).reshape(len(keys), g.n)
    order = np.lexsort(trees.T)
    perms = []
    for sigma in gens:
        image = np.empty_like(trees)
        image[:, sigma] = np.array([*sigma, -1], dtype=trees.dtype)[trees]  # the root's -1 stays
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
