"""Instance generators for the two hardness reductions.

The first construction turns a balanced-minimum-cut source graph into a
vertex-weighted flip-distance instance (subdivide every edge, duplicate
every vertex, blow the terminals up into large cliques); the second
removes the weights by replacing every vertex with a clique of its
weight. Both come with the constructive machinery around them: the
explicit low-weight sequence for a balanced cut, lifting of weighted
sequences to the blow-up, and projection of blow-up sequences back down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .elimtree import (
    ElimTree, SwapMove, _Projector, _root_first, format_tree, parse_tree
)
from .errors import IllegalMove, InvalidArgument, ResourceLimit
from .flipgraph import DEFAULT_NODE_BUDGET, ReconfigSequence
from .graph import (
    Graph,
    check_weights,
    format_graph,
    min_st_cut_value,
    parse_graph,
    parse_weights,
)

__all__ = [
    "WeightedInstance",
    "BlowupInstance",
    "paper_n",
    "build_weighted_instance",
    "threshold",
    "sufficiency_sequence",
    "build_unweighted_instance",
    "blowup_tree",
    "lift_sequence",
    "canonicalize_sequence",
    "project_sequence",
    "write_bundle",
    "read_bundle",
]


@dataclass
class WeightedInstance:
    """Weighted flip-distance instance built from a cut instance (G, s, t)."""

    graph: Graph
    weights: dict[str, int]
    t_ini: ElimTree
    t_tar: ElimTree
    source: Graph
    s: str
    t: str
    n: int  # |V(source)| = 2n + 2
    m: int  # |E(source)|
    N: int
    cut_value: int


@dataclass
class BlowupInstance:
    """Unweighted instance obtained by replacing vertices with cliques."""

    graph: Graph
    t_ini: ElimTree
    t_tar: ElimTree
    source: Graph
    weights: dict[str, int]
    copy_map: dict[str, tuple[str, ...]]

    @staticmethod
    def source_of(label: str) -> str:
        """The source vertex of the copy label ``b:<vertex>:<i>``."""
        return label[2:].rpartition(":")[0]


def paper_n(g: Graph) -> int:
    """The construction's canonical magnification 10 n^3 m for a source
    graph on 2n + 2 vertices with m edges."""
    if g.n < 2 or g.n % 2 != 0:
        raise InvalidArgument("source graph must have an even number >= 2 of vertices")
    n = (g.n - 2) // 2
    return 10 * n**3 * g.m


def _check_size(vertices: int, edges: int, node_budget: int) -> None:
    """Refuse an instance, from its closed-form size, before building it."""
    if vertices + edges > node_budget:
        raise ResourceLimit(
            f"instance would have {vertices} vertices and {edges} edges, "
            f"more than the node budget {node_budget} in total"
        )


def _check_source(g: Graph, s: str, t: str) -> None:
    if s == t:
        raise InvalidArgument("s and t must differ")
    g.index(s), g.index(t)
    if g.n % 2 != 0:
        raise InvalidArgument("source graph must have an even vertex count")
    if not g.is_connected():
        raise InvalidArgument("source graph must be connected")


def build_weighted_instance(
    g: Graph,
    s: str,
    t: str,
    N: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> WeightedInstance:
    """Subdivide edges, duplicate vertices, and expand s and t into
    cliques of size N^3; weights N / N^8 / 1 / N^4 per vertex class.

    Raises ResourceLimit, before building anything, when the instance's
    vertices plus edges would exceed ``node_budget``."""
    _check_source(g, s, t)
    if N is None:
        N = paper_n(g)
    if N < 2:
        raise InvalidArgument("N must be at least 2")
    n = (g.n - 2) // 2
    m = g.m
    k = N**3
    # 2n + 2 originals and copies, m subdivisions, two k-cliques; each edge
    # reaches its subdivision vertex from both copies and from each end (the
    # k clique vertices for s or t).
    st_ends = sum(end in (s, t) for e in g.edges for end in e)
    edges = 4 * m + (k - 1) * st_ends + k * (k - 1)
    _check_size(4 * n + 2 + m + 2 * k, edges, node_budget)

    inner = [v for v in g.labels if v not in (s, t)]  # v_1 ... v_2n
    v_orig = [f"v:{v}" for v in inner]
    s_cl = [f"s:{i}" for i in range(1, k + 1)]
    t_cl = [f"t:{i}" for i in range(1, k + 1)]
    u_sub = [f"u:{i}" for i in range(1, m + 1)]
    v_copy = [f"v':{v}" for v in inner] + [f"v':{s}", f"v':{t}"]
    vertices = v_orig + s_cl + t_cl + u_sub + v_copy

    def expand(v: str) -> list[str]:
        if v == s:
            return s_cl
        if v == t:
            return t_cl
        return [f"v:{v}"]

    edges: list[tuple[str, str]] = []
    for i, (a, b) in enumerate(g.edges, start=1):
        ue = f"u:{i}"
        for end in (a, b):
            if end not in (s, t):
                edges.append((f"v:{end}", ue))
        edges.append((f"v':{a}", ue))
        edges.append((f"v':{b}", ue))
        for end in (a, b):
            if end == s:
                edges.extend((si, ue) for si in s_cl)
            elif end == t:
                edges.extend((ti, ue) for ti in t_cl)
    for clique in (s_cl, t_cl):
        for i in range(k):
            for j in range(i + 1, k):
                edges.append((clique[i], clique[j]))

    h = Graph(vertices, edges)
    weights = {lab: N for lab in v_orig}
    weights.update({lab: N**8 for lab in v_copy})
    weights.update({lab: 1 for lab in u_sub})
    weights.update({lab: N**4 for lab in s_cl + t_cl})

    interleaved_ini = [x for pair in zip(s_cl, t_cl) for x in pair]
    interleaved_tar = [x for pair in zip(t_cl, s_cl) for x in pair]
    suffix = u_sub + v_copy
    t_ini = ElimTree.from_ordering(h, v_orig + interleaved_ini + suffix)
    t_tar = ElimTree.from_ordering(h, v_orig[::-1] + interleaved_tar + suffix)

    lam = min_st_cut_value(g, s, t)
    return WeightedInstance(
        graph=h,
        weights=weights,
        t_ini=t_ini,
        t_tar=t_tar,
        source=g,
        s=s,
        t=t,
        n=n,
        m=m,
        N=N,
        cut_value=lam,
    )


def threshold(inst: WeightedInstance) -> int:
    """The decision threshold 4*lambda*N^7 + (n^2 - n + 1)*N^2."""
    N, n, lam = inst.N, inst.n, inst.cut_value
    return 4 * lam * N**7 + (n * n - n + 1) * N * N


def _lift_subdivision(
    tree: ElimTree, lifted_order: Sequence[str]
) -> tuple[list[SwapMove], ElimTree]:
    """Bubble each listed vertex upward until every vertex above it has
    already been lifted; returns the swaps and the resulting tree."""
    moves: list[SwapMove] = []
    lifted: set[str] = set()
    for u in lifted_order:
        while True:
            p = tree.parent_of(u)
            if p is None or p in lifted:
                break
            mv = SwapMove(p, u)
            moves.append(mv)
            tree = tree.apply_swap(mv)
        lifted.add(u)
    return moves, tree


def sufficiency_sequence(
    inst: WeightedInstance, x: Iterable[str]
) -> ReconfigSequence:
    """The constructive sequence for a balanced minimum s-t cut X:
    lift the cut's subdivision vertices above everything, reverse the
    original vertices inside each of the two remaining components, then
    push the lifted vertices back down into the target tree.

    Its weighted length is 4*lambda*N^7 + n(n-1)*N^2 + 4*lambda*n*N + 2c,
    where c <= lambda*(m-1) counts the unit swaps between subdivision
    vertices in one phase (each lifted vertex passes only the unlifted
    subdivision vertices above it). It is therefore at most the displayed
    sum 4*lambda*N^7 + n(n-1)*N^2 + 4*lambda*n*N + 2*lambda*m, which is
    below ``threshold`` when N^2 > 4*lambda*n*N + 2*lambda*m."""
    g = inst.source
    xset = frozenset(x)
    xmask = g.mask(xset)
    if inst.s not in xset or inst.t in xset:
        raise InvalidArgument("X must contain s and avoid t")
    if 2 * len(xset) != g.n:
        raise InvalidArgument("X must be a bisection of the source vertex set")
    crossing = [
        i
        for i, (a, b) in enumerate(g.edges, start=1)
        if (xmask >> g.index(a) & 1) != (xmask >> g.index(b) & 1)
    ]
    if len(crossing) != inst.cut_value:
        raise InvalidArgument(
            f"X is not a minimum cut: |cut| = {len(crossing)} != {inst.cut_value}"
        )
    lift_order = [f"u:{i}" for i in crossing]

    moves, tree = _lift_subdivision(inst.t_ini, lift_order)

    inner = [v for v in g.labels if v not in (inst.s, inst.t)]
    for side in (xset, frozenset(g.labels) - xset):
        vs = [f"v:{v}" for v in inner if v in side]
        for j in range(1, len(vs)):
            above = set(vs[:j])
            u = vs[j]
            while tree.parent_of(u) in above:
                mv = SwapMove(tree.parent_of(u), u)
                moves.append(mv)
                tree = tree.apply_swap(mv)

    back_moves, tree_from_tar = _lift_subdivision(inst.t_tar, lift_order)
    if tree.canonical_key() != tree_from_tar.canonical_key():
        raise AssertionError("lifted trees from both ends disagree")
    moves.extend(mv.reversed() for mv in reversed(back_moves))
    return ReconfigSequence(inst.t_ini, tuple(moves))


# -- clique blow-up -----------------------------------------------------


def build_unweighted_instance(
    g: Graph,
    w: Mapping[str, int],
    t_ini: ElimTree,
    t_tar: ElimTree,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> BlowupInstance:
    """Replace every vertex v by a clique of w(v) copies; trees replace v
    by the path v_1 -> ... -> v_{w(v)}, with arcs entering at v_1 and
    leaving from v_{w(v)}.

    Raises ResourceLimit, before building anything, when the instance's
    vertices plus edges would exceed ``node_budget``."""
    check_weights(g, w)
    clique_edges = sum(w[v] * (w[v] - 1) // 2 for v in g.labels)
    _check_size(
        sum(w[v] for v in g.labels),
        clique_edges + sum(w[a] * w[b] for a, b in g.edges),
        node_budget,
    )
    copy_map = {
        v: tuple(f"b:{v}:{i}" for i in range(1, w[v] + 1)) for v in g.labels
    }
    vertices = [c for v in g.labels for c in copy_map[v]]
    edges: list[tuple[str, str]] = []
    for v in g.labels:
        copies = copy_map[v]
        for i in range(len(copies)):
            for j in range(i + 1, len(copies)):
                edges.append((copies[i], copies[j]))
    for a, b in g.edges:
        for ca in copy_map[a]:
            for cb in copy_map[b]:
                edges.append((ca, cb))
    inst = BlowupInstance(
        graph=Graph(vertices, edges),
        t_ini=t_ini,
        t_tar=t_tar,
        source=g,
        weights=dict(w),
        copy_map=copy_map,
    )
    # Until here the trees are the source trees; replace them by their images.
    inst.t_ini, inst.t_tar = blowup_tree(inst, t_ini), blowup_tree(inst, t_tar)
    return inst


def blowup_tree(inst: BlowupInstance, t: ElimTree) -> ElimTree:
    """The blow-up image of a source elimination tree."""
    gp = inst.graph
    parent = [-1] * gp.n
    for v in inst.source.labels:
        copies = inst.copy_map[v]
        for i in range(1, len(copies)):
            parent[gp.index(copies[i])] = gp.index(copies[i - 1])
        p = t.parent_of(v)
        if p is not None:
            parent[gp.index(copies[0])] = gp.index(inst.copy_map[p][-1])
    return ElimTree(gp, parent)


def lift_sequence(inst: BlowupInstance, seq: ReconfigSequence) -> ReconfigSequence:
    """Replace each swap(u, v) by the w(u) * w(v) swaps that carry the
    v-copies block past the u-copies block, copy by copy."""
    w = inst.weights
    tree = seq.start
    start_prime = blowup_tree(inst, tree)
    moves: list[SwapMove] = []
    for mv in seq.moves:
        tree = tree.apply_swap(mv)  # raises IllegalMove on an invalid source move
        ucopies = inst.copy_map[mv.u]
        vcopies = inst.copy_map[mv.v]
        for vc in vcopies:
            for uc in reversed(ucopies):
                moves.append(SwapMove(uc, vc))
    lifted = ReconfigSequence(start_prime, tuple(moves))
    # The lifted walk must land exactly on the blow-up of the final tree.
    cur = start_prime
    for mv in lifted.moves:
        cur = cur.apply_swap(mv)
    if cur.canonical_key() != blowup_tree(inst, tree).canonical_key():
        raise AssertionError("lifted sequence does not reach the blown-up target")
    return lifted


def canonicalize_sequence(
    inst: BlowupInstance, seq_prime: ReconfigSequence
) -> ReconfigSequence:
    """Remove swaps between two copies of the same source vertex.

    Copies of a vertex are pairwise adjacent, hence comparable in every
    elimination tree, and swapping two of them amounts to exchanging
    their names when the parent copy has no other subtree at that
    moment. In that case the swap is dropped and the rest of the
    sequence is relabeled by the transposition; the result replays to
    the original final tree up to renaming copies, with all projections
    onto copy selections preserved modulo the same renaming. A swap that
    would reshuffle subtrees between the two copies is not removable and
    raises InvalidArgument.
    """
    relabel = {lab: lab for lab in inst.graph.labels}
    tree = seq_prime.start
    moves: list[SwapMove] = []
    for mv in seq_prime.moves:
        a, b = relabel[mv.u], relabel[mv.v]
        if inst.source_of(mv.u) == inst.source_of(mv.v):
            if tree.parent_of(b) != a:
                raise IllegalMove(f"{mv.v!r} is not a child of {mv.u!r}")
            if tree.children_of(a) != (b,):
                raise InvalidArgument(
                    f"intra-clique swap {mv} reshuffles subtrees; not removable"
                )
            relabel[mv.u], relabel[mv.v] = relabel[mv.v], relabel[mv.u]
            continue
        mvc = SwapMove(a, b)
        tree = tree.apply_swap(mvc)
        moves.append(mvc)
    return ReconfigSequence(seq_prime.start, tuple(moves))


def project_sequence(
    inst: BlowupInstance, seq_prime: ReconfigSequence, phi: Mapping[str, int]
) -> ReconfigSequence:
    """Project a blow-up sequence to the copy selection phi, dropping
    steps whose projection does not move. The input must not swap two
    copies of the same source vertex (canonicalize first)."""
    g = inst.source
    for v in g.labels:
        if not 1 <= phi.get(v, 0) <= inst.weights[v]:
            raise InvalidArgument(f"phi({v!r}) is missing or out of range")
    for mv in seq_prime.moves:
        if inst.source_of(mv.u) == inst.source_of(mv.v):
            raise InvalidArgument("intra-clique swap present; canonicalize first")
    # The blow-up lists the copies in source vertex order, so U's own
    # indices are the source indices and T'|_U is a parent tuple over G.
    gp = inst.graph
    proj = _Projector(gp.adj, gp.mask(inst.copy_map[v][phi[v] - 1] for v in g.labels))
    tree_prime = seq_prime.start
    tree = ElimTree(g, proj(_root_first(tree_prime.parent, tree_prime.children)))
    start = tree
    moves: list[SwapMove] = []
    for mv in seq_prime.moves:
        tree_prime = tree_prime.apply_swap(mv)
        nxt = proj(_root_first(tree_prime.parent, tree_prime.children))
        if nxt != tree.parent:
            smv = SwapMove(inst.source_of(mv.u), inst.source_of(mv.v))
            tree = tree.apply_swap(smv)
            if tree.parent != nxt:
                raise AssertionError("projection changed by a non-swap step")
            moves.append(smv)
    return ReconfigSequence(start, tuple(moves))


# -- instance bundles ---------------------------------------------------


def write_bundle(
    path: str | Path,
    graph: Graph,
    t_ini: ElimTree,
    t_tar: ElimTree,
    weights: Mapping[str, int] | None = None,
    meta: Mapping[str, object] | None = None,
) -> None:
    """Write the on-disk instance bundle (graph, trees, weights, meta)."""
    d = Path(path)
    d.mkdir(parents=True, exist_ok=True)
    (d / "graph.txt").write_text(format_graph(graph))
    (d / "t_ini.tree").write_text(format_tree(t_ini))
    (d / "t_tar.tree").write_text(format_tree(t_tar))
    if weights is not None:
        lines = [f"{lab} {weights[lab]}" for lab in graph.labels]
        (d / "weights.txt").write_text("\n".join(lines) + "\n")
    if meta is not None:
        (d / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def read_bundle(path: str | Path) -> dict:
    d = Path(path)
    graph = parse_graph((d / "graph.txt").read_text())
    out: dict = {
        "graph": graph,
        "t_ini": parse_tree(graph, (d / "t_ini.tree").read_text()),
        "t_tar": parse_tree(graph, (d / "t_tar.tree").read_text()),
        "weights": None,
        "meta": None,
    }
    wfile = d / "weights.txt"
    if wfile.exists():
        out["weights"] = parse_weights(graph, wfile.read_text())
    mfile = d / "meta.json"
    if mfile.exists():
        out["meta"] = json.loads(mfile.read_text())
    return out


def instance_meta(inst: WeightedInstance) -> dict:
    """JSON-safe metadata for a weighted instance bundle (big integers as
    decimal strings)."""
    return {
        "n": inst.n,
        "m": inst.m,
        "N": str(inst.N),
        "lambda": inst.cut_value,
        "threshold": str(threshold(inst)),
        "source_s": inst.s,
        "source_t": inst.t,
    }
