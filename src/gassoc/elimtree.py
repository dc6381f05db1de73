"""Elimination trees: construction, validation, swaps, projection, encoding.

An elimination tree of a connected graph G has a root v whose children
subtrees are elimination trees of the connected components of G - v.
Swapping a vertex with its parent is the edge relation of the
G-associahedron.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import IllegalMove, InvalidArgument, ParseError
from .graph import Graph, induced_subgraph, iter_bits

__all__ = [
    "SwapMove",
    "ElimTree",
    "is_valid",
    "swap_neighbors",
    "project",
    "parse_tree",
    "format_tree",
    "parse_ordering",
    "format_ordering",
]


@dataclass(frozen=True)
class SwapMove:
    """The move swap(u, v): u is the parent and v the child before the move."""

    u: str
    v: str

    def reversed(self) -> "SwapMove":
        return SwapMove(self.v, self.u)


class ElimTree:
    """Immutable rooted tree on the vertices of a host graph.

    Stored as a parent array over the host's dense indices (-1 at the
    root); children lists are derived once and kept sorted by index so
    all traversals are deterministic.
    """

    __slots__ = ("graph", "parent", "root", "children", "_key")

    def __init__(self, graph: Graph, parent: Sequence[int]):
        parent = tuple(parent)
        n = graph.n
        if len(parent) != n:
            raise InvalidArgument("parent array does not span the vertex set")
        if not all(-1 <= p < n for p in parent):
            raise InvalidArgument("parent index out of range")
        roots = [i for i, p in enumerate(parent) if p < 0]
        if len(roots) != 1:
            raise InvalidArgument(f"expected exactly one root, found {len(roots)}")
        self.graph, self.parent, self.root = graph, parent, roots[0]
        self.children: tuple[tuple[int, ...], ...] = _children(parent)
        self._key: bytes | None = None
        # Reject parent maps with cycles (they never reach the root).
        if len(_root_first(parent, self.children)) != n:
            raise InvalidArgument("parent pointers do not form a spanning tree")

    @classmethod
    def _trusted(
        cls, graph: Graph, parent: tuple[int, ...], children=None, key: bytes | None = None
    ) -> "ElimTree":
        """A tree from the swap kernel, valid by construction: no checks."""
        tree = object.__new__(cls)
        tree.graph, tree.parent, tree.root = graph, parent, parent.index(-1)
        tree.children = _children(parent) if children is None else children
        tree._key = key
        return tree

    # -- construction -------------------------------------------------

    @classmethod
    def from_ordering(cls, g: Graph, sigma: Sequence[str]) -> "ElimTree":
        """The unique elimination tree in which every ancestor precedes its
        descendants in ``sigma``."""
        if len(sigma) != g.n:
            raise InvalidArgument("ordering must be a permutation of V")
        order = []
        seen = 0
        for lab in sigma:
            i = g.index(lab)
            if seen >> i & 1:
                raise InvalidArgument(f"duplicate label in ordering: {lab!r}")
            seen |= 1 << i
            order.append(i)
        if g.n == 0:
            raise InvalidArgument("empty graph has no elimination tree")
        if not g.is_connected():
            raise InvalidArgument("host graph must be connected")
        return cls(g, _ordering_parent(g.adj, order))

    # -- queries ------------------------------------------------------

    def parent_of(self, label: str) -> str | None:
        p = self.parent[self.graph.index(label)]
        return None if p < 0 else self.graph.labels[p]

    def children_of(self, label: str) -> tuple[str, ...]:
        labs = self.graph.labels
        return tuple(labs[c] for c in self.children[self.graph.index(label)])

    def root_label(self) -> str:
        return self.graph.labels[self.root]

    def subtree_mask(self, i: int) -> int:
        mask = 1 << i
        stack = [i]
        while stack:
            v = stack.pop()
            for c in self.children[v]:
                mask |= 1 << c
                stack.append(c)
        return mask

    def ancestors(self, label: str) -> frozenset[str]:
        """Strict ancestors of ``label`` (the vertex itself excluded)."""
        i = self.graph.index(label)
        out = []
        while self.parent[i] >= 0:
            i = self.parent[i]
            out.append(self.graph.labels[i])
        return frozenset(out)

    def descendants(self, label: str) -> frozenset[str]:
        """Strict descendants of ``label``."""
        i = self.graph.index(label)
        return self.graph.labels_from_mask(self.subtree_mask(i) & ~(1 << i))

    def comparable(self, a: str, b: str) -> bool:
        ia, ib = self.graph.index(a), self.graph.index(b)
        if ia == ib:
            raise InvalidArgument("comparability is defined for distinct vertices")
        return bool(
            self.subtree_mask(ia) >> ib & 1 or self.subtree_mask(ib) >> ia & 1
        )

    # -- moves ----------------------------------------------------------

    def enumerate_swaps(self) -> list[SwapMove]:
        """The n-1 applicable moves (parent(v), v), one per non-root vertex."""
        labs = self.graph.labels
        return [
            SwapMove(labs[p], labs[i])
            for i, p in enumerate(self.parent)
            if p >= 0
        ]

    def apply_swap(self, move: SwapMove) -> "ElimTree":
        """Apply swap(u, v), exchanging child v with its parent u."""
        g = self.graph
        iu, iv = g.index(move.u), g.index(move.v)
        if self.parent[iv] != iu:
            raise IllegalMove(f"{move.v!r} is not a child of {move.u!r}")
        kids = self.children
        sub = {c: self.subtree_mask(c) for c in kids[iv]}
        parent = _swapped(g.adj, self.parent, kids, sub, iu, iv)
        # Only u, v and the old parent of u get new children.
        near = kids[iu] + kids[iv] + (iu, iv)
        new = list(kids)
        for x in {iu, iv, self.parent[iu]} - {-1}:
            new[x] = tuple(sorted({c for c in near + kids[x] if parent[c] == x}))
        return ElimTree._trusted(g, parent, tuple(new))

    # -- encodings ------------------------------------------------------

    def canonical_key(self) -> bytes:
        """Injective byte encoding: the parent array in fixed vertex order."""
        if self._key is None:
            self._key = array("l", self.parent).tobytes()
        return self._key

    def to_ordering(self) -> tuple[str, ...]:
        """A deterministic linear extension (smallest available index first)."""
        import heapq

        out = []
        ready = [self.root]
        heapq.heapify(ready)
        remaining_children = {i: list(self.children[i]) for i in range(self.graph.n)}
        while ready:
            v = heapq.heappop(ready)
            out.append(self.graph.labels[v])
            for c in remaining_children[v]:
                heapq.heappush(ready, c)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElimTree)
            and self.graph is other.graph
            and self.parent == other.parent
        )

    def __hash__(self) -> int:
        return hash((id(self.graph), self.parent))

    def __repr__(self) -> str:
        return f"ElimTree(root={self.root_label()!r}, n={self.graph.n})"


# -- the swap kernel ----------------------------------------------------
#
# A state is a parent tuple over the host's dense indices (-1 at the root).
# In an elimination tree every edge of G joins an ancestor and a descendant,
# so a child subtree of v can reach the rest of u's subtree minus v only
# through u: after swap(u, v) it moves below u iff it touches u.


def _children(parent: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    kids: list[list[int]] = [[] for _ in parent]
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    return tuple(map(tuple, kids))


def _root_first(parent: Sequence[int], children: Sequence[Sequence[int]]) -> list[int]:
    """The vertices reachable from the root, each after its parent."""
    order = [parent.index(-1)]
    for v in order:  # the list grows while it is scanned
        order.extend(children[v])
    return order


def _swapped(adj, parent, children, sub, u: int, v: int) -> tuple[int, ...]:
    """The parent tuple after swap(u, v); ``sub[c]`` is the subtree mask of
    each child c of v."""
    nb = list(parent)
    nb[v] = parent[u]
    nb[u] = v
    adj_u = adj[u]
    for c in children[v]:
        if sub[c] & adj_u:
            nb[c] = u
    return tuple(nb)


def swap_neighbors(
    adj: Sequence[int], parent: tuple[int, ...]
) -> Iterator[tuple[int, int, tuple[int, ...], bytes]]:
    """Each swap(u, v) of the elimination tree with this parent tuple as
    (u, v, the parent tuple after it, that tuple's canonical key), in
    ``enumerate_swaps`` order. Per state, one pass lists the children and
    one bottom-up pass finds every subtree mask; nothing is re-validated,
    since a swap of an elimination tree is one by construction."""
    children = _children(parent)
    sub = [1 << i for i in range(len(parent))]
    for v in reversed(_root_first(parent, children)):
        p = parent[v]
        if p >= 0:
            sub[p] |= sub[v]
    for v, u in enumerate(parent):
        if u >= 0:
            nb = _swapped(adj, parent, children, sub, u, v)
            yield u, v, nb, array("l", nb).tobytes()


def _ordering_parent(adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """The parent tuple of the elimination tree of vertex order ``order``
    on the graph with adjacency masks ``adj``: adding the vertices in
    reverse, each one becomes the parent of the roots of the trees it
    touches. A disconnected graph gets one root per component."""
    parent = [-1] * len(adj)
    top = list(range(len(adj)))  # union-find towards the root of each tree so far
    done = 0
    for v in reversed(order):
        for x in iter_bits(adj[v] & done):
            while top[x] != x:
                top[x] = x = top[top[x]]
            if x != v:
                parent[x] = top[x] = v
        done |= 1 << v
    return tuple(parent)


def is_valid(g: Graph, t: ElimTree) -> bool:
    """Check that ``t`` is an elimination tree of ``g``: the one built from
    a linear extension of ``t`` (each vertex after its parent)."""
    if t.graph.labels != g.labels or not g.is_connected():
        return False
    return _ordering_parent(g.adj, _root_first(t.parent, t.children)) == t.parent


class _Projector:
    """T -> T|_U on packed states, for one vertex set U of G: ``index`` maps
    the host indices in U, in host order, to U's own indices, and ``adj``
    holds G[U]'s adjacency masks over those. A linear extension of T,
    restricted to U, gives T|_U: the subtree of a in either is the
    component of a in G[U & subtree_T(a)]."""

    __slots__ = ("index", "adj")

    def __init__(self, adj: Sequence[int], mask: int):
        self.index = index = {v: k for k, v in enumerate(iter_bits(mask))}
        self.adj = [sum(1 << index[x] for x in iter_bits(adj[v] & mask)) for v in index]
        if self(index).count(-1) != 1:  # one root per component of G[U]
            raise InvalidArgument("projection target must induce a connected subgraph")

    def __call__(self, order: Iterable[int]) -> tuple[int, ...]:
        """The parent tuple of T|_U, from a root-first order of T."""
        index = self.index
        return _ordering_parent(self.adj, [index[v] for v in order if v in index])


def project(g: Graph, t: ElimTree, u: Iterable[str]) -> ElimTree:
    """The projection T|_U: the elimination tree of G[U] in which a is an
    ancestor of b iff a is an ancestor of b in T and a, b are connected in
    G[U] minus the T-ancestors of a."""
    proj = _Projector(g.adj, g.mask(u))
    subg = induced_subgraph(g, (g.labels[i] for i in proj.index))
    return ElimTree(subg, proj(_root_first(t.parent, t.children)))


# -- text formats -----------------------------------------------------


def parse_tree(g: Graph, text: str) -> ElimTree:
    """Parse the tree format: one ``label parent-label`` line per vertex,
    with ``-`` marking the root."""
    parent = [None] * g.n
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"bad tree line {line!r}")
        child, par = parts
        try:
            ci = g.index(child)
            if parent[ci] is not None:
                raise ParseError(f"duplicate tree line for {child!r}")
            parent[ci] = -1 if par == "-" else g.index(par)
        except InvalidArgument as exc:
            raise ParseError(str(exc)) from None
    if any(p is None for p in parent):
        missing = [g.labels[i] for i, p in enumerate(parent) if p is None]
        raise ParseError(f"missing tree lines for: {missing}")
    try:
        t = ElimTree(g, parent)  # type: ignore[arg-type]
    except InvalidArgument as exc:
        raise ParseError(str(exc)) from None
    if not is_valid(g, t):
        raise ParseError("not an elimination tree of the graph")
    return t


def format_tree(t: ElimTree) -> str:
    g = t.graph
    lines = []
    for i, lab in enumerate(g.labels):
        p = t.parent[i]
        lines.append(f"{lab} {'-' if p < 0 else g.labels[p]}")
    return "\n".join(lines) + "\n"


def parse_ordering(g: Graph, text: str) -> tuple[str, ...]:
    labels = text.split()
    for lab in labels:
        g.index(lab)
    return tuple(labels)


def format_ordering(sigma: Sequence[str]) -> str:
    return " ".join(sigma) + "\n"
