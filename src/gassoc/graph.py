"""Undirected-graph substrate: components, induced subgraphs, cuts, and I/O.

Vertices are opaque string labels mapped to dense indices in insertion
order; vertex sets are manipulated internally as integer bitmasks over
that order, which keeps component computations fast even on the large
clique-heavy graphs produced by the reduction builders.
"""

from __future__ import annotations

import operator
import re
from collections import deque
from itertools import chain, combinations
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InvalidArgument, ParseError

__all__ = [
    "Graph",
    "connected_components",
    "nontrivial_components",
    "induced_subgraph",
    "cut_edges",
    "min_st_cut_value",
    "balanced_min_cut_exists",
    "automorphism_generators",
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
    serialization round-trips bit-exactly. A graph built with cliques
    keeps them as vertex tuples: their edges are listed only when
    ``edges`` is first read, after the other edges.
    """

    __slots__ = ("labels", "_edges", "_cliques", "m", "_index", "adj", "full_mask")

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        self.labels: tuple[str, ...] = tuple(vertices)
        self._index: dict[str, int] = {}
        for i, lab in enumerate(self.labels):
            if not lab or any(c.isspace() for c in lab) or "#" in lab or lab == "-":
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
        self._edges: tuple[tuple[str, str], ...] = tuple(edge_list)
        self._cliques: tuple[tuple[str, ...], ...] = ()
        self.m = len(edge_list)
        self.full_mask = (1 << n) - 1

    @classmethod
    def _with_cliques(cls, vertices, edges, cliques: Iterable[Sequence[str]]) -> "Graph":
        """``Graph(vertices, edges)`` followed by the edges ``combinations(clique,
        2)`` of each clique. Each clique vertex gets the clique's mask in one
        step, after a check that none of those edges would be a self-loop or
        a parallel edge; the clique itself is kept, not its edges."""
        g = cls(vertices, edges)
        for clique in cliques:
            if len(set(clique)) != len(clique):
                raise InvalidArgument("self-loop: a clique lists a vertex twice")
            cmask = g.mask(clique)
            for i in iter_bits(cmask):
                if g.adj[i] & cmask:
                    raise InvalidArgument(f"parallel edge at {g.labels[i]!r} inside a clique")
                g.adj[i] |= cmask ^ 1 << i
            g._cliques += (tuple(clique),)
            g.m += len(clique) * (len(clique) - 1) // 2
        return g

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        if self._cliques:
            self._edges += tuple(chain.from_iterable(combinations(c, 2) for c in self._cliques))
            self._cliques = ()
        return self._edges

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise InvalidArgument(f"unknown vertex label: {label!r}") from None

    def mask(self, labels: Iterable[str]) -> int:
        """The bitmask of a set of labels; a label given twice raises."""
        m = 0
        for lab in labels:
            bit = 1 << self.index(lab)
            if m & bit:
                raise InvalidArgument(f"duplicate vertex label: {lab!r}")
            m |= bit
        return m

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
    comps = g.component_masks(g.full_mask & ~g.mask(removed))
    return [frozenset(g.labels[i] for i in iter_bits(c)) for c in comps]


def nontrivial_components(g: Graph, removed: Iterable[str] = ()) -> list[frozenset[str]]:
    """Components of size at least 2 after deleting ``removed``."""
    return [c for c in connected_components(g, removed) if len(c) >= 2]


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


def balanced_min_cut_exists(g: Graph, s: str, t: str) -> tuple[bool, frozenset[str] | None]:
    """Brute-force search for a minimum s-t cut X with |X| = |V|/2.

    Exponential oracle, refused above 20 vertices. Returns a witness in
    deterministic (index) order if one exists.
    """
    if g.n % 2 != 0:
        raise InvalidArgument("|V| must be even")
    if g.n > 20:
        raise InvalidArgument(f"brute-force cap exceeded: {g.n} > 20")
    lam = min_st_cut_value(g, s, t)
    others = [lab for lab in g.labels if lab not in (s, t)]
    for chosen in combinations(others, g.n // 2 - 1):
        if len(cut_edges(g, (s, *chosen))) == lam:
            return True, frozenset((s, *chosen))
    return False, None


def _refine(adj: Sequence[int], cells: list[list[int]]) -> tuple[list[list[int]], list]:
    """Colour refinement: split every cell by each vertex's number of
    neighbours in every cell, in signature order, until no cell splits.
    Returns the stable cells and the trace of signatures and part sizes,
    which the images of one partition under an automorphism share."""
    trace: list = []
    while True:
        masks = [sum(1 << v for v in cell) for cell in cells]
        out = []
        for cell in cells:
            if len(cell) == 1:
                out.append(cell)
                continue
            sig = {v: tuple((adj[v] & m).bit_count() for m in masks) for v in cell}
            for s in sorted(set(sig.values())):
                part = [v for v in cell if sig[v] == s]
                out.append(part)
                trace.append((s, len(part)))
        if len(out) == len(cells):
            return out, trace
        cells = out


def _individualize(cells: list[list[int]], k: int, v: int) -> list[list[int]]:
    """The cells with vertex v, of cell k, split off into a cell before it."""
    return [*cells[:k], [v], [x for x in cells[k] if x != v], *cells[k + 1 :]]


def automorphism_generators(g: Graph) -> list[tuple[int, ...]]:
    """Generators of the automorphism group of ``g``, each a tuple sigma of
    vertex indices (i is mapped to sigma[i]); none for a rigid graph.

    Backtracking with colour refinement along a base b_1, b_2, ... (the
    first vertex of the first non-singleton cell, individualized and
    refined in turn). From the deepest level up, each image of b_j in its
    cell that the generators found so far do not reach is tried once: an
    automorphism fixing b_1..b_{j-1} and mapping b_j there is added if one
    exists. So the generators reach the whole orbit of b_j under the
    stabilizer of b_1..b_{j-1} at every level, and generate the group."""
    adj, n = g.adj, g.n
    path = [_refine(adj, [list(range(n))] if n else [])]
    base = []  # (cell index, base point) per level
    while (k := next((i for i, c in enumerate(path[-1][0]) if len(c) > 1), None)) is not None:
        v = path[-1][0][k][0]
        base.append((k, v))
        path.append(_refine(adj, _individualize(path[-1][0], k, v)))
    leaf = [cell[0] for cell in path[-1][0]]

    def extend(level: int, cells: list[list[int]], images=None) -> tuple[int, ...] | None:
        """An automorphism that maps the base path's leaf to a leaf below
        ``cells``, a partition matched to the path at ``level``, trying
        ``images`` (default: its whole cell) for this level's base point."""
        if level == len(base):
            sigma = [0] * n
            for a, cell in zip(leaf, cells):
                sigma[a] = cell[0]
            if all(adj[sigma[v]] == sum(1 << sigma[u] for u in iter_bits(adj[v]))
                   for v in range(n)):
                return tuple(sigma)
            return None
        k = base[level][0]
        for x in cells[k] if images is None else images:
            nxt, trace = _refine(adj, _individualize(cells, k, x))
            if trace == path[level + 1][1] and (found := extend(level + 1, nxt)):
                return found
        return None

    gens: list[tuple[int, ...]] = []
    for level in reversed(range(len(base))):
        k, b = base[level]
        cells = path[level][0]
        for c in cells[k]:
            if c not in _orbit(b, gens):
                found = extend(level, cells, (c,))
                if found:
                    gens.append(found)
    return gens


def _orbit(v: int, perms: Sequence[Sequence[int]]) -> set[int]:
    """The orbit of v under the group the permutations generate."""
    orbit, todo = {v}, [v]
    for x in todo:  # the list grows while it is scanned
        for p in perms:
            if p[x] not in orbit:
                orbit.add(p[x])
                todo.append(p[x])
    return orbit


def _read_text(path: str | Path) -> str:
    """The text of a file; an unreadable or non-UTF-8 file raises ParseError."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _content_lines(text: str) -> Iterator[str]:
    """The non-blank lines of a text input, stripped, with anything after
    a ``#`` cut off as a comment."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line


def _decimal(field: str) -> int:
    """An ASCII decimal integer field; ValueError for anything else, such
    as ``+1``, ``1_0`` or digits of another script."""
    if not re.fullmatch(r"-?[0-9]+", field):
        raise ValueError(field)
    return int(field)


def _two_fields(line: str, kind: str) -> tuple[str, str]:
    """The two whitespace-separated fields of a ``kind`` line."""
    parts = line.split()
    if len(parts) != 2:
        raise ParseError(f"bad {kind} line {line!r}")
    return parts[0], parts[1]


def parse_graph(text: str) -> Graph:
    """Parse the graph text format: ``n m``, then n labels, then m edges.

    Anything after a ``#`` is a comment; blank lines are skipped.
    """
    lines = list(_content_lines(text))
    if not lines:
        raise ParseError("empty graph file")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"expected 'n m' header, got {lines[0]!r}")
    try:
        n, m = _decimal(head[0]), _decimal(head[1])
    except ValueError:
        raise ParseError(f"bad header {lines[0]!r}") from None
    if n < 0 or m < 0:
        raise ParseError(f"negative count in header {lines[0]!r}")
    if len(lines) != 1 + n + m:
        raise ParseError(f"expected {1 + n + m} lines, got {len(lines)}")
    vertices = lines[1 : 1 + n]
    edges = [_two_fields(line, "edge") for line in lines[1 + n :]]
    try:
        return Graph(vertices, edges)
    except InvalidArgument as exc:
        raise ParseError(str(exc)) from None


def parse_weights(g: Graph, text: str) -> dict[str, int]:
    """Parse a weights file: one ``label weight`` line for every vertex of
    ``g`` (labels not in ``g`` are ignored, a second line for a label is
    rejected). Anything after a ``#`` is a comment."""
    weights = {}
    for line in _content_lines(text):
        lab, val = _two_fields(line, "weight")
        if lab in weights:
            raise ParseError(f"duplicate weight line for {lab!r}")
        try:
            weights[lab] = _decimal(val)
        except ValueError:
            raise ParseError(f"bad weight value {val!r}") from None
    for lab in g.labels:
        if lab not in weights:
            raise ParseError(f"missing weight for {lab!r}")
    return weights


def check_weights(g: Graph, w: Mapping[str, int]) -> list[int]:
    """Require a positive integer weight for every vertex of ``g``; the
    weights as ints, in label order."""
    out = []
    for lab in g.labels:
        if lab not in w:
            raise InvalidArgument(f"missing weight for {lab!r}")
        try:
            out.append(operator.index(w[lab]))
        except TypeError:
            raise InvalidArgument(f"weights must be integers, w({lab!r}) = {w[lab]!r}") from None
        if out[-1] <= 0:
            raise InvalidArgument(f"weights must be positive, w({lab!r}) = {w[lab]}")
    return out


def format_graph(g: Graph) -> str:
    """The graph text format; a pending clique is written as one row per
    vertex, the same text as its listed edges, without listing them."""
    lines = [f"{g.n} {g.m}", *g.labels, *map(" ".join, g._edges)]
    for c in g._cliques:
        lines.extend(c[i] + " " + ("\n" + c[i] + " ").join(c[i + 1 :])
                     for i in range(len(c) - 1))
    return "\n".join(lines) + "\n"
