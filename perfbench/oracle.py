"""Answer checks that import nothing from gassoc.

The benchmark judges the program's printed answers with this code only:
its own graph and tree readers, its own swap replay (subtree masks kept
incrementally instead of recomputed), the definition of an elimination
tree, the projection lower bound and a brute-force minimum cut.
"""

from __future__ import annotations

from itertools import combinations


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Host:
    """A graph as label order plus adjacency bitmasks."""

    def __init__(self, labels, edges):
        self.labels = list(labels)
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.edges = [(self.index[a], self.index[b]) for a, b in edges]
        self.adj = [0] * len(self.labels)
        for a, b in self.edges:
            self.adj[a] |= 1 << b
            self.adj[b] |= 1 << a

    @classmethod
    def parse(cls, text: str) -> "Host":
        lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        n, m = map(int, lines[0].split())
        if len(lines) != 1 + n + m:
            raise ValueError(f"graph file has {len(lines)} lines, header says {1 + n + m}")
        return cls(lines[1 : 1 + n], [tuple(ln.split()) for ln in lines[1 + n :]])

    def component(self, start: int, allowed: int) -> int:
        comp = frontier = 1 << start
        adj = self.adj
        while frontier:
            reach = 0
            for i in bits(frontier):
                reach |= adj[i]
            frontier = reach & allowed & ~comp
            comp |= frontier
        return comp

    def components(self, allowed: int) -> list[int]:
        out = []
        while allowed:
            comp = self.component((allowed & -allowed).bit_length() - 1, allowed)
            out.append(comp)
            allowed &= ~comp
        return out

    def parse_tree(self, text: str) -> list[int]:
        """Parent indices (-1 at the root) from ``label parent`` lines."""
        parent = [None] * len(self.labels)
        for ln in text.splitlines():
            ln = ln.split("#", 1)[0].strip()
            if ln:
                child, par = ln.split()
                parent[self.index[child]] = -1 if par == "-" else self.index[par]
        if None in parent:
            raise ValueError("tree file misses a vertex")
        return parent

    def format_tree(self, parent: list[int]) -> str:
        labs = self.labels
        return "".join(
            f"{labs[i]} {'-' if p < 0 else labs[p]}\n" for i, p in enumerate(parent)
        )


def subtree_masks(parent: list[int]) -> list[int]:
    n = len(parent)
    depth = [0] * n
    for i in range(n):
        j, d = i, 0
        while parent[j] >= 0:
            j, d = parent[j], d + 1
            if d > n:
                raise ValueError("parent pointers contain a cycle")
        depth[i] = d
    sub = [1 << i for i in range(n)]
    for i in sorted(range(n), key=depth.__getitem__, reverse=True):
        if parent[i] >= 0:
            sub[parent[i]] |= sub[i]
    return sub


def is_elimination_tree(host: Host, parent: list[int]) -> bool:
    """Definition check: below every vertex x, the child subtrees are
    exactly the components of the host restricted to subtree(x) - x."""
    if sum(p < 0 for p in parent) != 1:
        return False
    try:
        sub = subtree_masks(parent)
    except ValueError:
        return False
    for x in range(len(parent)):
        kids = sorted(sub[c] for c, p in enumerate(parent) if p == x)
        if kids != sorted(host.components(sub[x] & ~(1 << x))):
            return False
    return True


def replay(host: Host, parent: list[int], moves, check_each: bool = False):
    """Apply swap(u, v) moves given as label pairs.

    Returns (final parent list, None) or (None, reason). With
    ``check_each`` every intermediate tree is checked against the
    definition, which is affordable on small hosts only.
    """
    parent = list(parent)
    sub = subtree_masks(parent)
    children = [set() for _ in parent]
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].add(i)
    for step, (lu, lv) in enumerate(moves, 1):
        u, v = host.index.get(lu), host.index.get(lv)
        if u is None or v is None or parent[v] != u:
            return None, f"move {step} swap {lu} {lv}: {lv} is not a child of {lu}"
        comp = host.component(u, sub[u] & ~(1 << v))
        top = parent[u]
        if top >= 0:
            children[top].discard(u)
            children[top].add(v)
        children[u].discard(v)
        moved = {c for c in children[v] if comp >> c & 1}
        children[v] -= moved
        children[v].add(u)
        children[u] |= moved
        for c in moved:
            parent[c] = u
        parent[v], parent[u] = top, v
        sub[v], sub[u] = sub[u], comp
        if check_each and not is_elimination_tree(host, parent):
            return None, f"move {step} swap {lu} {lv} leaves an invalid tree"
    return parent, None


def neighbours(host: Host, parent: tuple[int, ...]):
    """Every tree one swap away, as parent tuples."""
    sub = subtree_masks(list(parent))
    for v, u in enumerate(parent):
        if u < 0:
            continue
        comp = host.component(u, sub[u] & ~(1 << v))
        new = list(parent)
        new[v], new[u] = parent[u], v
        for c, p in enumerate(parent):
            if p == v and comp >> c & 1:
                new[c] = u
        yield tuple(new)


def flip_distance(host: Host, p1: list[int], p2: list[int]) -> int:
    """Plain breadth-first search from tree 1 until tree 2 is reached."""
    start, goal = tuple(p1), tuple(p2)
    seen, frontier, d = {start}, [start], 0
    while goal not in seen:
        nxt = []
        for tree in frontier:
            for nb in neighbours(host, tree):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier, d = nxt, d + 1
    return d


def order_lower_bound(host: Host, p1: list[int], p2: list[int]) -> int:
    """Host edges whose endpoints are in opposite ancestor order in the
    two trees; one swap reverses the order of one pair only."""
    s1, s2 = subtree_masks(p1), subtree_masks(p2)
    return sum((s1[a] >> b & 1) != (s2[a] >> b & 1) for a, b in host.edges)


def brute_min_cut(host: Host, s: str, t: str) -> int:
    si, ti = host.index[s], host.index[t]
    rest = [i for i in range(len(host.labels)) if i not in (si, ti)]
    best = None
    for k in range(len(rest) + 1):
        for side in combinations(rest, k):
            x = (1 << si) | sum(1 << i for i in side)
            size = sum((x >> a & 1) != (x >> b & 1) for a, b in host.edges)
            best = size if best is None else min(best, size)
    return best


def read_swaps(lines) -> list[tuple[str, str]]:
    """``swap u v`` lines (CLI path output) or ``u v`` lines (moves file)."""
    out = []
    for ln in lines:
        parts = ln.split()
        if parts and parts[0] == "swap":
            parts = parts[1:]
        if len(parts) != 2:
            raise ValueError(f"bad move line {ln!r}")
        out.append((parts[0], parts[1]))
    return out
