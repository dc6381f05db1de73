"""The packed-state swap kernel against the tree-object code it replaced.

The oracle below is a copy of the earlier ``ElimTree`` constructor checks,
``ElimTree.apply_swap`` (component search inside the parent's subtree,
then a fully re-validated tree), the component-by-component ``is_valid``,
the vertex-removal ``from_ordering`` and the pairwise ``project``. It
works on parent tuples and never calls the kernel. The blow-up helpers
``project_sequence`` and ``averaging_inequality_holds`` are checked
against copies of their earlier tree-by-tree code, on ``oracle_project``.
"""

import random
from array import array
from itertools import permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from gassoc.elimtree import ElimTree, SwapMove, is_valid, project, swap_neighbors
from gassoc.flipgraph import ReconfigSequence, enumerate_all, explicit_flip_graph
from gassoc.graph import induced_subgraph, iter_bits
from gassoc.reductions import build_unweighted_instance, lift_sequence, project_sequence
from gassoc.smallgraphs import (
    complete_graph,
    connected_graphs_up_to_iso,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)
from gassoc.verify import averaging_inequality_holds


def oracle_children(g, parent):
    """The old constructor: one root, children lists, spanning check."""
    if len(parent) != g.n:
        raise ValueError("parent array does not span the vertex set")
    roots = [i for i, p in enumerate(parent) if p < 0]
    if len(roots) != 1:
        raise ValueError("expected exactly one root")
    kids = [[] for _ in range(g.n)]
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    seen = 1 << roots[0]
    stack = [roots[0]]
    while stack:
        v = stack.pop()
        for c in kids[v]:
            seen |= 1 << c
            stack.append(c)
    if seen != g.full_mask:
        raise ValueError("parent pointers do not form a spanning tree")
    return kids


def oracle_subtree(kids, i):
    mask = 1 << i
    stack = [i]
    while stack:
        v = stack.pop()
        for c in kids[v]:
            mask |= 1 << c
            stack.append(c)
    return mask


def oracle_swap(g, parent, u, v):
    kids = oracle_children(g, parent)
    assert parent[v] == u
    comp_u = g.component_of(u, oracle_subtree(kids, u) & ~(1 << v))
    nb = list(parent)
    nb[v] = parent[u]
    nb[u] = v
    for c in kids[v]:
        if comp_u >> c & 1:
            nb[c] = u
    oracle_children(g, nb)  # the old code re-validated every neighbour
    return tuple(nb)


def oracle_neighbors(g, parent):
    out = []
    for v, u in enumerate(parent):
        if u >= 0:
            nb = oracle_swap(g, parent, u, v)
            out.append((u, v, nb, array("l", nb).tobytes()))
    return out


def oracle_is_valid(g, parent):
    kids = oracle_children(g, parent)
    for v in range(g.n):
        comps = g.component_masks(oracle_subtree(kids, v) & ~(1 << v))
        if sorted(comps) != sorted(oracle_subtree(kids, c) for c in kids[v]):
            return False
    return True


def oracle_from_ordering(g, sigma):
    rank = {g.index(lab): pos for pos, lab in enumerate(sigma)}
    parent = [-1] * g.n
    stack = [(g.full_mask, -1)]
    while stack:
        mask, par = stack.pop()
        r = min(iter_bits(mask), key=rank.__getitem__)
        parent[r] = par
        for comp in g.component_masks(mask & ~(1 << r)):
            stack.append((comp, r))
    return tuple(parent)


def oracle_project(g, t, labels):
    """Parent tuple of T|_U over G[U]: a is an ancestor of b iff it is one
    in T and a, b are connected in G[U] minus the T-ancestors of a."""
    kids = oracle_children(g, t.parent)
    u_mask = g.mask(labels)
    members = [i for i in range(g.n) if u_mask >> i & 1]

    def ancestors(i):
        out = []
        while t.parent[i] >= 0:
            i = t.parent[i]
            out.append(i)
        return out

    parent = []
    for b in members:
        anc = [
            a
            for a in ancestors(b)
            if u_mask >> a & 1
            and g.component_of(a, u_mask & ~sum(1 << x for x in ancestors(a))) >> b & 1
            and oracle_subtree(kids, a) >> b & 1
        ]
        # ancestors() runs upwards, so the deepest qualifying one comes first
        parent.append(members.index(anc[0]) if anc else -1)
    return tuple(parent)


def oracle_flip_graph(g):
    """Every tree's parent tuple, mapped to its neighbours, by one BFS."""
    start = ElimTree.from_ordering(g, g.labels).parent
    adj = {}
    queue, seen = [start], {start}
    for parent in queue:
        adj[parent] = [nb for _, _, nb, _ in oracle_neighbors(g, parent)]
        for nb in adj[parent]:
            if nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return adj


def assert_kernel_matches(g, parent):
    want = oracle_neighbors(g, parent)
    assert list(swap_neighbors(g.adj, parent)) == want
    tree = ElimTree(g, parent)
    moves = tree.enumerate_swaps()
    assert [(g.index(m.u), g.index(m.v)) for m in moves] == [w[:2] for w in want]
    for move, (_, _, nb, key) in zip(moves, want):
        out = tree.apply_swap(move)
        assert out.parent == nb and out.canonical_key() == key
        assert out.children == tuple(tuple(k) for k in oracle_children(g, nb))


def test_kernel_matches_oracle_exhaustive():
    checked = 0
    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            for parent in oracle_flip_graph(g):
                assert_kernel_matches(g, parent)
                checked += 1
    assert checked > 1000


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 8),
    p=st.floats(0.0, 1.0),
    seed=st.integers(0, 10**6),
    order=st.randoms(use_true_random=False),
    walk=st.lists(st.integers(0, 7), max_size=12),
)
def test_kernel_matches_oracle_random(n, p, seed, order, walk):
    g = random_connected_graph(n, p, seed)
    labels = list(g.labels)
    order.shuffle(labels)
    parent = ElimTree.from_ordering(g, labels).parent
    for step in walk:
        assert_kernel_matches(g, parent)
        parent = oracle_neighbors(g, parent)[step % (n - 1)][2]
    assert_kernel_matches(g, parent)


def test_explicit_flip_graph_matches_oracle():
    for g in (path_graph(8), cycle_graph(7), star_graph(6), complete_graph(6)):
        found = oracle_flip_graph(g)
        order = sorted(found, key=lambda t: array("l", t).tobytes())
        ids = {t: i for i, t in enumerate(order)}
        trees, adj = explicit_flip_graph(g)
        assert [t.parent for t in trees] == order
        assert adj == [sorted(ids[nb] for nb in found[t]) for t in order]


def test_is_valid_matches_oracle_on_every_spanning_tree():
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            valid = 0
            for parent in product(range(-1, n), repeat=n):
                try:
                    oracle_children(g, parent)
                except ValueError:
                    continue
                want = oracle_is_valid(g, parent)
                assert is_valid(g, ElimTree(g, parent)) == want
                valid += want
            assert valid == len(explicit_flip_graph(g)[0])



def test_from_ordering_matches_oracle():
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            for sigma in permutations(g.labels):
                assert ElimTree.from_ordering(g, sigma).parent == oracle_from_ordering(g, sigma)
    for seed in range(20):
        g = random_connected_graph(30, 0.15, seed)
        sigma = list(g.labels)
        random.Random(seed).shuffle(sigma)
        assert ElimTree.from_ordering(g, sigma).parent == oracle_from_ordering(g, sigma)


def test_project_matches_oracle():
    checked = 0
    for n in range(2, 6):
        for g in connected_graphs_up_to_iso(n):
            subsets = [
                [g.labels[i] for i in iter_bits(mask)]
                for mask in range(1, g.full_mask + 1)
                if induced_subgraph(g, [g.labels[i] for i in iter_bits(mask)]).is_connected()
            ]
            for t in enumerate_all(g):
                for labels in subsets:
                    assert project(g, t, labels).parent == oracle_project(g, t, labels)
                    checked += 1
    assert checked > 10000


def oracle_down(inst, tree_prime, phi):
    """The source tree that a blow-up tree projects to under phi, relabelled
    from the projected copies to their source vertices."""
    g, gp = inst.source, inst.graph
    u_phi = [inst.copy_map[v][phi[v] - 1] for v in g.labels]
    members = [lab for lab in gp.labels if lab in u_phi]
    proj = oracle_project(gp, tree_prime, u_phi)
    parent = [-1] * g.n
    for lab, p in zip(members, proj):
        if p >= 0:
            parent[g.index(inst.source_of(lab))] = g.index(inst.source_of(members[p]))
    return ElimTree(g, parent)


def oracle_project_sequence(inst, seq_prime, phi):
    tree_prime = seq_prime.start
    cur = start = oracle_down(inst, tree_prime, phi)
    moves = []
    for mv in seq_prime.moves:
        tree_prime = tree_prime.apply_swap(mv)
        nxt = oracle_down(inst, tree_prime, phi)
        if nxt.canonical_key() != cur.canonical_key():
            smv = SwapMove(inst.source_of(mv.u), inst.source_of(mv.v))
            assert cur.apply_swap(smv).canonical_key() == nxt.canonical_key()
            moves.append(smv)
            cur = nxt
    return ReconfigSequence(start, tuple(moves))


def oracle_averaging(inst, seq_prime):
    g, w, src = inst.source, inst.weights, inst.source_of
    trees = [seq_prime.start]
    for mv in seq_prime.moves:
        trees.append(trees[-1].apply_swap(mv))
    best = None
    for combo in product(*(range(1, w[v] + 1) for v in g.labels)):
        phi = dict(zip(g.labels, combo))
        length = 0
        prev = oracle_down(inst, trees[0], phi).parent
        for mv, tree in zip(seq_prime.moves, trees[1:]):
            cur = oracle_down(inst, tree, phi).parent
            if cur != prev:
                length += w[src(mv.u)] * w[src(mv.v)]
                prev = cur
        if best is None or length < best:
            best = length
    return best <= len(seq_prime.moves)


def random_walk(start, steps, rng):
    tree, moves = start, []
    for _ in range(steps):
        moves.append(rng.choice(tree.enumerate_swaps()))
        tree = tree.apply_swap(moves[-1])
    return ReconfigSequence(start, tuple(moves))


def test_blowup_projections_match_oracle():
    rng = random.Random(0)
    checked = 0
    for n in range(2, 5):
        for g in connected_graphs_up_to_iso(n):
            w = {v: rng.randint(1, 3) for v in g.labels}
            base = ElimTree.from_ordering(g, g.labels)
            inst = build_unweighted_instance(g, w, base, base)
            lifted = lift_sequence(inst, random_walk(base, 4, rng))
            for combo in product(*(range(1, w[v] + 1) for v in g.labels)):
                phi = dict(zip(g.labels, combo))
                got = project_sequence(inst, lifted, phi)
                want = oracle_project_sequence(inst, lifted, phi)
                assert (got.start.parent, got.moves) == (want.start.parent, want.moves)
                checked += 1
            # a raw walk may also swap two copies of one vertex
            for seq in (lifted, random_walk(inst.t_ini, 8, rng)):
                want = oracle_averaging(inst, seq)
                assert averaging_inequality_holds(inst, seq) == want
    assert checked > 50
