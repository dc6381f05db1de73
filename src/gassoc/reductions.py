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
from itertools import combinations, product
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .elimtree import (
    ElimTree, SwapMove, _Projector, _Replay, _shape, format_tree, is_valid, parse_tree
)
from .errors import IllegalMove, InvalidArgument, ParseError, ResourceLimit
from .flipgraph import DEFAULT_NODE_BUDGET, ReconfigSequence, validate_sequence
from .graph import (
    Graph,
    _read_text,
    check_weights,
    cut_edges,
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
    h = Graph._with_cliques(vertices, edges, (s_cl, t_cl))
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


def _bubble_up(
    replay: _Replay, order: Sequence[str], climb, moves: list[SwapMove]
) -> None:
    """Swap each vertex of ``order`` in turn with its parent p while
    ``climb(p, the vertices before it in order)`` holds, in place; appends
    the swaps to ``moves``."""
    labels, parent = replay.graph.labels, replay.parent
    before: set[str] = set()
    for u in order:
        i = replay.graph.index(u)
        while (p := parent[i]) >= 0 and climb(labels[p], before):
            moves.append(SwapMove(labels[p], u))
            replay.swap(labels[p], u)
        before.add(u)


def _not_lifted(p: str, lifted: set[str]) -> bool:
    return p not in lifted


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
    xset: set[str] = set()
    for v in x:
        if v in xset:
            raise InvalidArgument(f"duplicate label in X: {v!r}")
        xset.add(v)
    cut = set(cut_edges(g, xset))
    if inst.s not in xset or inst.t in xset:
        raise InvalidArgument("X must contain s and avoid t")
    if 2 * len(xset) != g.n:
        raise InvalidArgument("X must be a bisection of the source vertex set")
    if len(cut) != inst.cut_value:
        raise InvalidArgument(
            f"X is not a minimum cut: |cut| = {len(cut)} != {inst.cut_value}"
        )
    lift_order = [f"u:{i}" for i, e in enumerate(g.edges, start=1) if e in cut]

    # A lifted vertex climbs past every vertex not lifted before it; then
    # each original climbs past the originals before it on its side.
    moves: list[SwapMove] = []
    tree = _Replay(inst.t_ini)
    _bubble_up(tree, lift_order, _not_lifted, moves)
    inner = [v for v in g.labels if v not in (inst.s, inst.t)]
    for side in (xset, set(g.labels) - xset):
        vs = [f"v:{v}" for v in inner if v in side]
        _bubble_up(tree, vs, lambda p, before: p in before, moves)

    back_moves: list[SwapMove] = []
    tree_from_tar = _Replay(inst.t_tar)
    _bubble_up(tree_from_tar, lift_order, _not_lifted, back_moves)
    if tree.parent != tree_from_tar.parent:
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
    w = dict(zip(g.labels, check_weights(g, w)))
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
        edges.extend(combinations(copy_map[v], 2))
    for a, b in g.edges:
        edges.extend(product(copy_map[a], copy_map[b]))
    inst = BlowupInstance(
        graph=Graph(vertices, edges),
        t_ini=t_ini,
        t_tar=t_tar,
        source=g,
        weights=w,
        copy_map=copy_map,
    )
    # Until here the trees are the source trees; replace them by their images.
    inst.t_ini, inst.t_tar = blowup_tree(inst, t_ini), blowup_tree(inst, t_tar)
    return inst


def blowup_tree(inst: BlowupInstance, t: ElimTree) -> ElimTree:
    """The blow-up image of a source elimination tree: the tree of any of
    its linear extensions with each vertex replaced by its copies."""
    if not is_valid(inst.source, t):
        raise InvalidArgument("not an elimination tree of the source graph")
    order = [c for v in t.to_ordering() for c in inst.copy_map[v]]
    return ElimTree.from_ordering(inst.graph, order)


def lift_sequence(inst: BlowupInstance, seq: ReconfigSequence) -> ReconfigSequence:
    """Replace each swap(u, v) by the w(u) * w(v) swaps that carry the
    v-copies block past the u-copies block, copy by copy."""
    start_prime = blowup_tree(inst, seq.start)
    tree = _Replay(seq.start)
    moves: list[SwapMove] = []
    for mv in seq.moves:
        tree.swap(mv.u, mv.v)  # raises IllegalMove on an invalid source move
        ucopies = inst.copy_map[mv.u]
        vcopies = inst.copy_map[mv.v]
        for vc in vcopies:
            for uc in reversed(ucopies):
                moves.append(SwapMove(uc, vc))
    lifted = ReconfigSequence(start_prime, tuple(moves))
    # The lifted walk must be legal and land on the blow-up of the final tree.
    ok, end = validate_sequence(inst.graph, lifted)
    if not ok or end.canonical_key() != blowup_tree(inst, tree.tree()).canonical_key():
        raise AssertionError("lifted sequence does not reach the blown-up target")
    return lifted


def canonicalize_sequence(
    inst: BlowupInstance, seq_prime: ReconfigSequence
) -> ReconfigSequence:
    """Remove swaps between two copies of the same source vertex.

    Copies of a vertex are twins: pairwise adjacent, with the same other
    neighbours. Each child subtree of a parent copy a touches a, hence
    also a's twin b, so it is b's own subtree: b is a's only child, and
    swapping the two only exchanges their names. The swap is dropped and
    the rest of the sequence is relabeled by the transposition; the
    result replays to the original final tree up to renaming copies, with
    all projections onto copy selections preserved modulo the same
    renaming.
    """
    if not is_valid(inst.graph, seq_prime.start):
        raise InvalidArgument("not an elimination tree of the blow-up graph")
    index = inst.graph.index
    relabel = {lab: lab for lab in inst.graph.labels}
    tree = _Replay(seq_prime.start)
    moves: list[SwapMove] = []
    for mv in seq_prime.moves:
        a, b = relabel[mv.u], relabel[mv.v]
        if inst.source_of(mv.u) == inst.source_of(mv.v):
            if tree.parent[index(b)] != index(a):
                raise IllegalMove(f"{mv.v!r} is not a child of {mv.u!r}")
            relabel[mv.u], relabel[mv.v] = relabel[mv.v], relabel[mv.u]
            continue
        tree.swap(a, b)
        moves.append(SwapMove(a, b))
    return ReconfigSequence(seq_prime.start, tuple(moves))


def project_sequence(
    inst: BlowupInstance, seq_prime: ReconfigSequence, phi: Mapping[str, int]
) -> ReconfigSequence:
    """Project a blow-up walk to the copy selection phi, dropping steps
    whose projection does not move. Raw walks are accepted: a swap of two
    copies of one vertex only exchanges twins (the child copy is the parent
    copy's only child), so it never moves a projection and is dropped."""
    if not is_valid(inst.graph, seq_prime.start):
        raise InvalidArgument("not an elimination tree of the blow-up graph")
    g = inst.source
    for v in g.labels:
        if not 1 <= phi.get(v, 0) <= inst.weights[v]:
            raise InvalidArgument(f"phi({v!r}) is missing or out of range")
    # The blow-up lists the copies in source vertex order, so U's own
    # indices are the source indices and T'|_U is a parent tuple over G.
    gp = inst.graph
    proj = _Projector(gp.adj, gp.mask(inst.copy_map[v][phi[v] - 1] for v in g.labels))
    tree_prime = _Replay(seq_prime.start)
    start = ElimTree._trusted(g, proj(_shape(tree_prime.parent)[1]))
    tree = _Replay(start)
    moves: list[SwapMove] = []
    for mv in seq_prime.moves:
        tree_prime.swap(mv.u, mv.v)
        nxt = list(proj(_shape(tree_prime.parent)[1]))
        if nxt != tree.parent:
            smv = SwapMove(inst.source_of(mv.u), inst.source_of(mv.v))
            tree.swap(smv.u, smv.v)
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
    moves: Iterable[SwapMove] | None = None,
) -> None:
    """Write the on-disk instance bundle: the graph, the two trees and, if
    given, the weights, the meta data and a move list. A file that is not
    given is removed, so a rewrite keeps nothing of an earlier bundle."""
    d = Path(path)
    files = {
        "graph.txt": format_graph(graph),
        "t_ini.tree": format_tree(t_ini),
        "t_tar.tree": format_tree(t_tar),
        "weights.txt": None if weights is None else "".join(
            f"{lab} {weights[lab]}\n" for lab in graph.labels),
        "meta.json": None if meta is None else json.dumps(meta, indent=2) + "\n",
        "sufficiency.moves": None if moves is None else "".join(
            f"{m.u} {m.v}\n" for m in moves),
    }
    for name, text in files.items():
        _write_fresh(d / name, text)


def _write_fresh(path: Path, text: str | None) -> None:
    """Write ``text`` to ``path`` as a new file, making its directory if
    need be, or only remove the file if ``text`` is None; an unwritable
    path raises InvalidArgument. Truncating the old file, or renaming over
    it, makes ext4 wait until its old contents are on disk."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.unlink(missing_ok=True)
        if text is not None:
            path.write_text(text)
    except OSError as exc:
        raise InvalidArgument(f"cannot write {path}: {exc}") from None


def read_bundle(path: str | Path) -> dict:
    """Read an instance bundle; a bad or unreadable file raises ParseError."""
    d = Path(path)
    graph = parse_graph(_read_text(d / "graph.txt"))
    out: dict = {
        "graph": graph,
        "t_ini": parse_tree(graph, _read_text(d / "t_ini.tree")),
        "t_tar": parse_tree(graph, _read_text(d / "t_tar.tree")),
        "weights": None,
        "meta": None,
    }
    wfile = d / "weights.txt"
    if wfile.exists():
        out["weights"] = parse_weights(graph, _read_text(wfile))
    mfile = d / "meta.json"
    if mfile.exists():
        try:
            out["meta"] = json.loads(_read_text(mfile))
        except ValueError as exc:
            raise ParseError(f"bad {mfile}: {exc}") from None
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
