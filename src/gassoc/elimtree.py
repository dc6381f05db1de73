"""Elimination trees: construction, validation, swaps, projection, encoding.

An elimination tree of a connected graph G has a root v whose children
subtrees are elimination trees of the connected components of G - v.
Swapping a vertex with its parent is the edge relation of the
G-associahedron.
"""

from __future__ import annotations

import heapq
import operator
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import IllegalMove, InvalidArgument, ParseError
from .graph import Graph, _content_lines, _two_fields, induced_subgraph, iter_bits

__all__ = [
    "SwapMove",
    "ElimTree",
    "is_valid",
    "swap_neighbors",
    "project",
    "parse_tree",
    "format_tree",
]


@dataclass(frozen=True)
class SwapMove:
    """The move swap(u, v): u is the parent and v the child before the move."""

    u: str
    v: str

    def reversed(self) -> "SwapMove":
        return SwapMove(self.v, self.u)


class ElimTree:
    """Immutable elimination tree of a host graph; the constructor admits
    no other parent array. Stored as a parent array over the host's dense
    indices (-1 at the root); children lists are derived once and kept
    sorted by index so all traversals are deterministic. Children and
    subtree masks come from one ``_shape`` pass over the parent array.
    """

    __slots__ = ("graph", "parent", "root", "children", "_key", "_masks")

    def __init__(self, graph: Graph, parent: Sequence[int]):
        try:
            parent = tuple(map(operator.index, parent))
        except TypeError:
            raise InvalidArgument("parent index is not an integer") from None
        n = graph.n
        if len(parent) != n:
            raise InvalidArgument("parent array does not span the vertex set")
        if not all(-1 <= p < n for p in parent):
            raise InvalidArgument("parent index out of range")
        roots = parent.count(-1)
        if roots != 1:
            raise InvalidArgument(f"expected exactly one root, found {roots}")
        order = self._fill(graph, parent)
        # Reject parent maps with cycles (they never reach the root).
        if len(order) != n:
            raise InvalidArgument("parent pointers do not form a spanning tree")
        if _ordering_parent(graph.adj, order) != parent:  # rebuilt from its root-first order
            raise InvalidArgument("not an elimination tree of the graph")

    @classmethod
    def _trusted(cls, graph: Graph, parent: tuple[int, ...], key: bytes | None = None) -> "ElimTree":
        """A tree built by rule (a swap, a vertex order on a connected graph,
        a projection onto a connected set), valid by construction: no checks."""
        tree = object.__new__(cls)
        tree._fill(graph, parent, key)
        return tree

    def _fill(self, graph: Graph, parent: tuple[int, ...], key: bytes | None = None) -> list[int]:
        """Set every field from the parent tuple by one ``_shape`` pass;
        returns the root-first order."""
        children, order, self._masks = _shape(parent)
        self.graph, self.parent, self.root, self._key = graph, parent, order[0], key
        self.children: tuple[tuple[int, ...], ...] = tuple(map(tuple, children))
        return order

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
        return cls._trusted(g, _ordering_parent(g.adj, order))

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
        return self._masks[i]

    def ancestors(self, label: str) -> frozenset[str]:
        """Strict ancestors of ``label`` (the vertex itself excluded)."""
        i = self.graph.index(label)
        out = []
        while self.parent[i] >= 0:
            i = self.parent[i]
            out.append(self.graph.labels[i])
        return frozenset(out)

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
        replay = _Replay(self)
        replay.swap(move.u, move.v)
        return replay.tree()

    # -- encodings ------------------------------------------------------

    def canonical_key(self) -> bytes:
        """Injective byte encoding: the parent array in fixed vertex order,
        each entry in the narrowest signed width that holds n - 1."""
        if self._key is None:
            self._key = _pack(self.parent)
        return self._key

    def to_ordering(self) -> tuple[str, ...]:
        """A deterministic linear extension (smallest available index first)."""
        out = []
        ready = [self.root]
        while ready:
            v = heapq.heappop(ready)
            out.append(self.graph.labels[v])
            for c in self.children[v]:
                heapq.heappush(ready, c)
        return tuple(out)

    def __repr__(self) -> str:
        return f"ElimTree(root={self.root_label()!r}, n={self.graph.n})"


# -- the swap kernel ----------------------------------------------------
#
# A state is its canonical key: ``_pack`` of the parent array over the host's
# dense indices (-1 at the root), which ``_unpack`` gives back. In an
# elimination tree every edge of G joins an ancestor and a descendant, so a
# child subtree of v can reach the rest of u's subtree minus v only through
# u: after swap(u, v) it moves below u iff it touches u.


def _typecode(n: int) -> str:
    """The narrowest signed ``array`` typecode that holds n - 1. The root's
    -1 is all-ones bytes in each, so keys of one n compare byte for byte
    as their ``"l"`` encodings do."""
    return "b" if n <= 128 else "h" if n <= 32768 else "l"


def _pack(parent: Sequence[int]) -> bytes:
    """The canonical key of a parent array."""
    return array(_typecode(len(parent)), parent).tobytes()


def _unpack(key: bytes, n: int) -> array:
    """The parent array of a canonical key of a tree on n vertices (or of
    several such keys joined). Its ``tobytes()``, and that of a copy with
    entries changed, is the key of the parent array it then holds."""
    return array(_typecode(n), key)


_BITS = [1 << i for i in range(64)]  # sliced per state, not rebuilt


def _shape(parent: Sequence[int]) -> tuple[list[list[int]], list[int], list[int]]:
    """The children lists (sorted by index), the vertices reachable from
    the root, each after its parent, and the subtree mask of every vertex.
    The root's -1 files it under an extra last list, which becomes the
    start of the order."""
    n = len(parent)
    children: list[list[int]] = [[] for _ in range(n + 1)]
    for i, p in enumerate(parent):
        children[p].append(i)
    order = children.pop()
    for v in order:  # the list grows while it is scanned
        order += children[v]
    sub = _BITS[:n] if n <= len(_BITS) else [1 << i for i in range(n)]
    for v in order[:0:-1]:  # bottom-up, the root skipped
        sub[parent[v]] |= sub[v]
    return children, order, sub


def swap_neighbors(adj: Sequence[int], key: bytes) -> Iterator[tuple[int, int, bytes]]:
    """Each swap(u, v) of the elimination tree with this canonical key as
    (u, v, the key after it), in ``enumerate_swaps`` order. Per state, one
    ``_shape`` pass; nothing is re-validated, since a swap of an
    elimination tree is one by construction."""
    parent = _unpack(key, len(adj))
    children, _, sub = _shape(parent)
    for v, u in enumerate(parent):
        if u >= 0:
            nb = parent[:]
            nb[v] = parent[u]
            nb[u] = v
            adj_u = adj[u]
            for c in children[v]:
                if sub[c] & adj_u:
                    nb[c] = u
            yield u, v, nb.tobytes()


def _ordering_parent(adj: Sequence[int], order: Sequence[int]) -> tuple[int, ...]:
    """The parent tuple of the elimination tree of vertex order ``order``
    on the graph with adjacency masks ``adj``: adding the vertices in
    reverse, each one becomes the parent of the roots of the trees it
    touches. A disconnected graph gets one root per component. Each tree
    keeps its vertex mask at its root, so v clears a whole tree from its
    remaining neighbours once it links that tree: one find per child tree,
    not one per edge."""
    parent = [-1] * len(adj)
    top = list(range(len(adj)))  # union-find towards the root of each tree so far
    tree = [1 << i for i in range(len(adj))]  # the vertex mask of each tree, at its root
    done = 0
    for v in reversed(order):
        rest = adj[v] & done
        while rest:
            x = (rest & -rest).bit_length() - 1
            while top[x] != x:
                top[x] = x = top[top[x]]
            rest ^= rest & tree[x]
            tree[v] |= tree[x]
            parent[x] = top[x] = v
        done |= 1 << v
    return tuple(parent)


class _Replay:
    """A mutable elimination tree for replaying swaps one by one: a parent
    list, child sets and subtree masks. A swap updates only u, v, u's old
    parent and the children of v that move, so a sequence costs the tree
    degrees it passes, not n per move."""

    __slots__ = ("graph", "parent", "children", "masks")

    def __init__(self, tree: ElimTree):
        self.graph = tree.graph
        self.parent = list(tree.parent)
        self.children = [set(c) for c in tree.children]
        self.masks = list(tree._masks)

    def swap(self, u: str, v: str) -> None:
        """Swap child v with its parent u, by the kernel's rule: a child
        subtree of v moves below u iff it touches u."""
        g, parent, kids, sub = self.graph, self.parent, self.children, self.masks
        iu, iv = g.index(u), g.index(v)
        if parent[iv] != iu:
            raise IllegalMove(f"{v!r} is not a child of {u!r}")
        moved = [c for c in kids[iv] if sub[c] & g.adj[iu]]
        top = parent[iu]
        if top >= 0:
            kids[top].remove(iu)
            kids[top].add(iv)
        parent[iv], parent[iu] = top, iv
        kids[iu].remove(iv)
        kids[iv].add(iu)
        # v takes u's subtree; u keeps it minus v's, plus the moved subtrees.
        mask_u = sub[iu] & ~sub[iv]
        for c in moved:
            parent[c] = iu
            kids[iv].remove(c)
            kids[iu].add(c)
            mask_u |= sub[c]
        sub[iv], sub[iu] = sub[iu], mask_u

    def tree(self) -> ElimTree:
        """The tree reached."""
        return ElimTree._trusted(self.graph, tuple(self.parent))


def is_valid(g: Graph, t: ElimTree) -> bool:
    """Whether ``t``, an elimination tree of its own graph, is one of ``g``."""
    return t.graph.labels == g.labels and t.graph.adj == g.adj


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
    if not is_valid(g, t):
        raise InvalidArgument("not an elimination tree of the given graph")
    proj = _Projector(g.adj, g.mask(u))
    subg = induced_subgraph(g, (g.labels[i] for i in proj.index))
    return ElimTree._trusted(subg, proj(_shape(t.parent)[1]))


# -- text formats -----------------------------------------------------


def parse_tree(g: Graph, text: str) -> ElimTree:
    """Parse the tree format: one ``label parent-label`` line per vertex,
    with ``-`` marking the root."""
    parent = [None] * g.n
    for line in _content_lines(text):
        child, par = _two_fields(line, "tree")
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
        return ElimTree(g, parent)  # type: ignore[arg-type]
    except InvalidArgument as exc:
        raise ParseError(str(exc)) from None


def format_tree(t: ElimTree) -> str:
    g = t.graph
    lines = []
    for i, lab in enumerate(g.labels):
        p = t.parent[i]
        lines.append(f"{lab} {'-' if p < 0 else g.labels[p]}")
    return "\n".join(lines) + "\n"

