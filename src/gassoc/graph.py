"""Undirected-graph substrate: components, induced subgraphs, cuts, and I/O.

Vertices are opaque string labels mapped to dense indices in insertion
order; vertex sets are manipulated internally as integer bitmasks over
that order, which keeps component computations fast even on the large
clique-heavy graphs produced by the reduction builders.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from .errors import InvalidArgument, ParseError

__all__ = [
    "Graph",
    "connected_components",
    "nontrivial_components",
    "induced_subgraph",
    "cut_edges",
    "min_st_cut_value",
    "balanced_min_cut_exists",
    "parse_graph",
    "format_graph",
]


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable undirected graph with labeled vertices in fixed order.

    No self-loops, no parallel edges; every edge endpoint must be a
    declared vertex. The edge list keeps its construction order so that
    serialization round-trips bit-exactly.
    """

    __slots__ = ("labels", "edges", "_index", "adj", "full_mask")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.labels: tuple[str, ...] = tuple(vertices)
        self._index: dict[str, int] = {}
        for i, lab in enumerate(self.labels):
            if not lab or any(c.isspace() for c in lab) or lab.startswith("#"):
                raise InvalidArgument(f"bad vertex label: {lab!r}")
            if lab in self._index:
                raise InvalidArgument(f"duplicate vertex label: {lab!r}")
            self._index[lab] = i
        n = len(self.labels)
        self.adj: list[int] = [0] * n
        edge_list: list[tuple[str, str]] = []
        for a, b in edges:
            ia, ib = self.index(a), self.index(b)
            if ia == ib:
                raise InvalidArgument(f"self-loop at {a!r}")
            if self.adj[ia] >> ib & 1:
                raise InvalidArgument(f"parallel edge {{{a!r}, {b!r}}}")
            self.adj[ia] |= 1 << ib
            self.adj[ib] |= 1 << ia
            edge_list.append((a, b))
        self.edges: tuple[tuple[str, str], ...] = tuple(edge_list)
        self.full_mask = (1 << n) - 1

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidArgument(f"unknown vertex label: {label!r}") from None

    def mask(self, labels: Iterable[str]) -> int:
        m = 0
        for lab in labels:
            m |= 1 << self.index(lab)
        return m

    def labels_from_mask(self, mask: int) -> frozenset[str]:
        return frozenset(self.labels[i] for i in iter_bits(mask))

    def has_edge(self, a: str, b: str) -> bool:
        return bool(self.adj[self.index(a)] >> self.index(b) & 1)

    def component_of(self, start: int, allowed: int) -> int:
        """Bitmask of the connected component of vertex ``start`` within
        the ``allowed`` bitmask (which must contain ``start``)."""
        comp = 1 << start
        frontier = comp
        adj = self.adj
        while frontier:
            nxt = 0
            for i in iter_bits(frontier):
                nxt |= adj[i]
            frontier = nxt & allowed & ~comp
            comp |= frontier
        return comp

    def component_masks(self, allowed: int) -> list[int]:
        """Connected components within ``allowed``, ordered by smallest index."""
        comps = []
        rest = allowed
        while rest:
            start = (rest & -rest).bit_length() - 1
            comp = self.component_of(start, rest)
            comps.append(comp)
            rest &= ~comp
        return comps

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        return self.component_of(0, self.full_mask) == self.full_mask

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def connected_components(g: Graph, removed: Iterable[str] = ()) -> list[frozenset[str]]:
    """Components of ``g`` after deleting ``removed``, ordered by smallest
    remaining vertex in insertion order."""
    allowed = g.full_mask & ~g.mask(removed)
    return [g.labels_from_mask(c) for c in g.component_masks(allowed)]


def nontrivial_components(g: Graph, removed: Iterable[str] = ()) -> list[frozenset[str]]:
    """Components of size at least 2 after deleting ``removed``."""
    allowed = g.full_mask & ~g.mask(removed)
    return [
        g.labels_from_mask(c)
        for c in g.component_masks(allowed)
        if c.bit_count() >= 2
    ]


def induced_subgraph(g: Graph, u: Iterable[str]) -> Graph:
    """The subgraph induced on ``u``; relative vertex and edge order preserved."""
    keep_mask = g.mask(u)
    vertices = [lab for i, lab in enumerate(g.labels) if keep_mask >> i & 1]
    keep = set(vertices)
    edges = [(a, b) for a, b in g.edges if a in keep and b in keep]
    return Graph(vertices, edges)


def cut_edges(g: Graph, x: Iterable[str]) -> list[tuple[str, str]]:
    """Edges with exactly one endpoint in ``x``, in the graph's edge order."""
    xmask = g.mask(x)
    out = []
    for a, b in g.edges:
        if (xmask >> g._index[a] & 1) != (xmask >> g._index[b] & 1):
            out.append((a, b))
    return out


def min_st_cut_value(g: Graph, s: str, t: str) -> int:
    """Minimum number of edges in an s-t cut, by unit-capacity augmenting paths."""
    si, ti = g.index(s), g.index(t)
    if si == ti:
        raise InvalidArgument("s and t must differ")
    if not g.is_connected():
        raise InvalidArgument("graph must be connected")
    # Residual capacities of the bidirected unit-capacity network.
    cap: dict[tuple[int, int], int] = {}
    neigh: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        ia, ib = g._index[a], g._index[b]
        cap[ia, ib] = 1
        cap[ib, ia] = 1
        neigh[ia].append(ib)
        neigh[ib].append(ia)
    flow = 0
    while True:
        prev = {si: -1}
        queue = deque([si])
        while queue and ti not in prev:
            v = queue.popleft()
            for w in neigh[v]:
                if w not in prev and cap[v, w] > 0:
                    prev[w] = v
                    queue.append(w)
        if ti not in prev:
            return flow
        v = ti
        while v != si:
            p = prev[v]
            cap[p, v] -= 1
            cap[v, p] += 1
            v = p
        flow += 1


def balanced_min_cut_exists(
    g: Graph, s: str, t: str, max_vertices: int = 20
) -> tuple[bool, frozenset[str] | None]:
    """Brute-force search for a minimum s-t cut X with |X| = |V|/2.

    Exponential oracle, guarded by ``max_vertices``. Returns a witness in
    deterministic (index) order if one exists.
    """
    if g.n % 2 != 0:
        raise InvalidArgument("|V| must be even")
    if g.n > max_vertices:
        raise InvalidArgument(f"brute-force cap exceeded: {g.n} > {max_vertices}")
    lam = min_st_cut_value(g, s, t)
    si, ti = g.index(s), g.index(t)
    others = [i for i in range(g.n) if i not in (si, ti)]
    half = g.n // 2
    for chosen in combinations(others, half - 1):
        xmask = (1 << si) | sum(1 << i for i in chosen)
        size = 0
        for a, b in g.edges:
            if (xmask >> g._index[a] & 1) != (xmask >> g._index[b] & 1):
                size += 1
                if size > lam:
                    break
        if size == lam:
            return True, g.labels_from_mask(xmask)
    return False, None


def parse_graph(text: str) -> Graph:
    """Parse the graph text format: ``n m``, then n labels, then m edges.

    Anything after a ``#`` is a comment; blank lines are skipped.
    """
    lines = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append(line)
    if not lines:
        raise ParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}") from None
    if len(lines) != 1 + n + m:
        raise ParseError(f"expected {1 + n + m} lines, got {len(lines)}")
    vertices = lines[1 : 1 + n]
    edges = []
    for line in lines[1 + n :]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad edge line {line!r}")
        edges.append((parts[0], parts[1]))
    try:
        return Graph(vertices, edges)
    except InvalidArgument as exc:
        raise ParseError(str(exc)) from None


def parse_weights(g: Graph, text: str) -> dict[str, int]:
    """Parse a weights file: one ``label weight`` line for every vertex of
    ``g`` (labels not in ``g`` are ignored). Anything after a ``#`` is a
    comment."""
    weights = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad weight line {line!r}")
        try:
            weights[parts[0]] = int(parts[1])
        except ValueError:
            raise ParseError(f"bad weight value {parts[1]!r}") from None
    for lab in g.labels:
        if lab not in weights:
            raise ParseError(f"missing weight for {lab!r}")
    return weights


def check_weights(g: Graph, w: Mapping[str, int]) -> None:
    """Require a positive weight for every vertex of ``g``."""
    for lab in g.labels:
        if lab not in w:
            raise InvalidArgument(f"missing weight for {lab!r}")
        if w[lab] <= 0:
            raise InvalidArgument(f"weights must be positive, w({lab!r}) = {w[lab]}")


def format_graph(g: Graph) -> str:
    out = [f"{g.n} {g.m}"]
    out.extend(g.labels)
    out.extend(f"{a} {b}" for a, b in g.edges)
    return "\n".join(out) + "\n"
