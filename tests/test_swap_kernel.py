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
import tracemalloc
from array import array
from functools import cache
from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gassoc.elimtree import (
    ElimTree,
    SwapMove,
    _Replay,
    _ordering_parent,
    _pack,
    _shape,
    _unpack,
    is_valid,
    project,
    swap_neighbors,
)
from gassoc.errors import InvalidArgument
from gassoc.flipgraph import (
    ReconfigSequence, _flip_graph, enumerate_all, explicit_flip_graph, validate_sequence
)
from gassoc.graph import Graph, induced_subgraph, iter_bits
from gassoc.polymatroid import devadoss_coordinates
from gassoc.reductions import (
    build_unweighted_instance,
    build_weighted_instance,
    lift_sequence,
    project_sequence,
    sufficiency_sequence,
)
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
            out.append((u, v, nb, _pack(nb)))
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
    key = _pack(parent)
    assert list(swap_neighbors(g.adj, key)) == [(u, v, nk) for u, v, _, nk in want]
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
    tree = ElimTree.from_ordering(g, labels)
    replay = _Replay(tree)  # one replay along the whole walk
    parent = tree.parent
    for step in walk:
        assert_kernel_matches(g, parent)
        assert_masks_match(g, tree)
        move = tree.enumerate_swaps()[step % (n - 1)]
        parent = oracle_neighbors(g, parent)[step % (n - 1)][2]
        tree = tree.apply_swap(move)
        replay.swap(move.u, move.v)
        assert tree.parent == parent
        assert_replay_matches(g, replay, parent)
    assert_kernel_matches(g, parent)
    assert_masks_match(g, tree)


def test_kernel_and_masks_match_oracle_around_64_vertices():
    # _shape copies the masks of the first 64 vertices from a table and
    # builds any further ones, and keys widen from one byte per vertex to
    # two above 128 vertices: graphs on both sides of each limit, along
    # short seeded walks.
    for n in (63, 64, 65, 70, 128, 129):
        for g in (path_graph(n), random_connected_graph(n, 0.05, n)):
            rng = random.Random(n)
            labels = list(g.labels)
            rng.shuffle(labels)
            tree = ElimTree.from_ordering(g, labels)
            replay, parent = _Replay(tree), tree.parent
            for _ in range(4):
                assert_kernel_matches(g, parent)
                kids = oracle_children(g, parent)
                children, order, masks = _shape(parent)
                assert children == kids
                assert masks == [oracle_subtree(kids, i) for i in range(n)]
                assert sorted(order) == list(range(n))
                assert all(order.index(parent[v]) < order.index(v) for v in order[1:])
                u, v, parent, _ = rng.choice(oracle_neighbors(g, parent))
                replay.swap(g.labels[u], g.labels[v])
                assert_replay_matches(g, replay, parent)


def test_keys_round_trip_and_sort_as_long_keys():
    # A key takes one byte per vertex up to 128 vertices, two up to 32,768
    # and a C long beyond; at each width it decodes to its parent array and
    # sorts as the array's "l" encoding does. Each variant differs from a
    # shared base in one entry, so comparisons are decided late as well as
    # early, at the values around each width's limits.
    rng = random.Random(12)
    for n, width in ((1, 1), (2, 1), (7, 1), (128, 1), (129, 2), (32768, 2),
                     (32769, array("l").itemsize)):
        values = [v for v in (-1, 0, 1, 126, 127, 128, 254, 255, 256, 32767, 32768) if v < n]
        base = rng.choices(range(-1, n), k=n)
        parents = [base]
        for _ in range(100):
            p = list(base)
            p[rng.randrange(n)] = rng.choice(values + [rng.randrange(-1, n)])
            parents.append(p)
        parents += [rng.choices(range(-1, n), k=n) for _ in range(10)]
        for p in parents:
            key = _pack(p)
            assert len(key) == n * width
            assert tuple(_unpack(key, n)) == tuple(p)
        assert sorted(parents, key=_pack) == sorted(
            parents, key=lambda p: array("l", p).tobytes()
        )


def assert_replay_matches(g, replay, parent):
    """A replay's parent list, child sets and masks against the oracle."""
    kids = oracle_children(g, parent)
    assert tuple(replay.parent) == parent
    assert [sorted(c) for c in replay.children] == kids
    assert replay.masks == [oracle_subtree(kids, i) for i in range(g.n)]


def assert_masks_match(g, tree):
    """The masks a tree carries from ``apply_swap`` against the DFS oracle."""
    kids = oracle_children(g, tree.parent)
    assert [tree.subtree_mask(i) for i in range(g.n)] == [
        oracle_subtree(kids, i) for i in range(g.n)
    ]


def test_masks_carried_along_a_sufficiency_sequence():
    source = Graph(["s", "v1", "v2", "t"], [("s", "v1"), ("v1", "v2"), ("v2", "t")])
    inst = build_weighted_instance(source, "s", "t", N=3)
    seq = sufficiency_sequence(inst, ["s", "v1"])
    assert len(seq.moves) == 114
    g, parent = inst.graph, inst.t_ini.parent
    replay = _Replay(inst.t_ini)
    for mv in seq.moves:  # every step against the oracle, not only the end
        parent = oracle_swap(g, parent, g.index(mv.u), g.index(mv.v))
        replay.swap(mv.u, mv.v)
        assert_replay_matches(g, replay, parent)
    ok, final = validate_sequence(g, seq)
    assert ok and final.parent == parent == inst.t_tar.parent
    kids = oracle_children(g, final.parent)
    assert [final.subtree_mask(i) for i in range(g.n)] == [
        oracle_subtree(kids, i) for i in range(g.n)
    ]


def test_explicit_flip_graph_matches_oracle():
    for g in (path_graph(8), cycle_graph(7), star_graph(6), complete_graph(6)):
        found = oracle_flip_graph(g)
        order = sorted(found, key=lambda t: array("l", t).tobytes())
        ids = {t: i for i, t in enumerate(order)}
        trees, adj = explicit_flip_graph(g)
        assert [t.parent for t in trees] == order
        assert [t.canonical_key() for t in enumerate_all(g)] == [
            t.canonical_key() for t in trees
        ]
        assert adj == [sorted(ids[nb] for nb in found[t]) for t in order]


def relabelled(g, seed):
    """``g`` with its labels shuffled and its vertices reindexed in sorted
    label order: the same graph class in another index order."""
    labels = list(g.labels)
    random.Random(seed).shuffle(labels)
    rename = dict(zip(g.labels, labels))
    return Graph(sorted(labels), [(rename[a], rename[b]) for a, b in g.edges])


def test_flip_graph_core_matches_oracle():
    # the unsorted core: keys in discovery order, rows of indices into them;
    # the build orients edges by index order, so relabelled copies too. Every
    # key past the first comes from a carried shape, so a wrong mask, child
    # list or parent update in the swap rule shows up as a wrong key or row.
    graphs = [g for n in range(1, 6) for g in connected_graphs_up_to_iso(n)]
    graphs += [path_graph(8), cycle_graph(7), star_graph(6), complete_graph(6),
               random_connected_graph(7, 0.4, 1)]
    graphs += [relabelled(g, seed) for seed, g in enumerate(graphs)]
    for g in graphs:
        found = {
            _pack(t): sorted(_pack(nb) for nb in nbs)
            for t, nbs in oracle_flip_graph(g).items()
        }
        keys, rows = _flip_graph(g, cap=len(found))  # a runaway build raises
        assert len(keys) == len(set(keys)) and set(keys) == set(found)
        assert len(rows) == len(keys)
        for key, row in zip(keys, rows):
            assert sorted(keys[j] for j in row) == found[key]


def test_down_swaps_orient_the_flip_graph_from_the_start_tree():
    # The lemma behind _flip_graph, on every connected class with n <= 6,
    # and the build against a BFS over all swaps of the stateless kernel:
    # the start tree is the only tree with no child of smaller index than
    # its parent, and along a down-swap(u, v), parent index u below child
    # index v, the Devadoss coordinates move along e_u - e_v with x_u
    # dropping, so phi = sum (n - i) * x_i strictly drops.
    swaps = 0
    for n in range(2, 7):
        for g in connected_graphs_up_to_iso(n):
            start = ElimTree.from_ordering(g, g.labels).canonical_key()
            points = {}

            def point(key):
                """The tree's Devadoss coordinates in index order, and phi."""
                if key not in points:
                    x = devadoss_coordinates(g, ElimTree._trusted(g, tuple(_unpack(key, n))))
                    x = [x[lab] for lab in g.labels]
                    points[key] = x, sum((n - i) * xi for i, xi in enumerate(x))
                return points[key]

            seen, queue, found = {start}, [start], {}
            for key in queue:  # a BFS over all swaps, not the build under test
                up = 0
                nbs = list(swap_neighbors(g.adj, key))
                found[key] = sorted(nk for _, _, nk in nbs)
                for u, v, nk in nbs:
                    if nk not in seen:
                        seen.add(nk)
                        queue.append(nk)
                    if u > v:
                        up += 1
                    else:
                        (x, phi), (nx, nphi) = point(key), point(nk)
                        diff = [b - a for a, b in zip(x, nx)]
                        assert diff[u] < 0 and diff[v] == -diff[u]
                        assert diff.count(0) == n - 2
                        assert nphi < phi
                    swaps += 1
                assert (up == 0) == (key == start)
            # the build, from carried shapes, finds the same trees and rows
            keys, rows = _flip_graph(g, cap=len(found))
            assert len(keys) == len(found) and set(keys) == seen
            for key, row in zip(keys, rows):
                assert sorted(keys[j] for j in row) == found[key]
    assert swaps == 242_308


@pytest.mark.parametrize(
    "builder, edges",
    [(lambda: path_graph(9), 19_448), (lambda: cycle_graph(8), 12_012),
     (lambda: star_graph(7), 5_871), (lambda: complete_graph(6), 1_800)],
    ids=["P9", "C8", "S7", "K6"],
)
def test_flip_graph_builds_each_edge_once(builder, edges):
    # N trees of degree n - 1 have N(n - 1)/2 edges; each is built once,
    # from its upper end, into both rows: no row holds an index twice, and
    # j is in row i exactly when i is in row j
    g = builder()
    keys, rows = _flip_graph(g, cap=2 * edges // (g.n - 1))
    assert len(keys) * (g.n - 1) // 2 == edges
    assert sum(map(len, rows)) == 2 * edges
    assert all(len(row) == len(set(row)) == g.n - 1 for row in rows)
    pairs = {(i, j) for i, row in enumerate(rows) for j in row}
    assert all((j, i) in pairs for i, j in pairs)


def test_flip_graph_peak_memory_stays_near_its_result():
    # The depth-first build holds at most n - 1 carried shapes per level of
    # depth besides its result and its key index; a store that kept shapes
    # for a whole level of pending trees would pass 1.2 times the result.
    g = path_graph(10)
    tracemalloc.start()
    try:
        result = _flip_graph(g)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(result[0]) == 16_796
    assert peak <= 1.2 * size


def tree_count(g):
    """The number of elimination trees of ``g``, with no swaps: a tree of
    G[S] is a root v in S over one tree of each component of G[S - v]."""
    @cache
    def count(s):
        total = 0
        for v in iter_bits(s):
            rest, ways = s & ~(1 << v), 1
            while rest:
                comp = g.component_of((rest & -rest).bit_length() - 1, rest)
                ways *= count(comp)
                rest &= ~comp
            total += ways
        return total

    return count(g.full_mask)


def test_flip_graph_reaches_every_tree():
    graphs = [g for n in range(1, 7) for g in connected_graphs_up_to_iso(n)]
    graphs += [relabelled(g, seed) for seed, g in enumerate(
        [path_graph(9), cycle_graph(8), star_graph(7), complete_graph(6)])]
    for g in graphs:
        count = tree_count(g)
        assert len(_flip_graph(g, cap=count)[0]) == count, g.edges
    assert [tree_count(g) for g in graphs[-4:]] == [4862, 3432, 1957, 720]


def test_is_valid_matches_oracle_on_every_spanning_tree():
    # The constructor admits a spanning tree exactly when it is an
    # elimination tree, so every ElimTree is valid for its own graph.
    for n in range(1, 6):
        for g in connected_graphs_up_to_iso(n):
            valid = 0
            for parent in product(range(-1, n), repeat=n):
                try:
                    oracle_children(g, parent)
                except ValueError:
                    continue
                want = oracle_is_valid(g, parent)
                try:
                    admitted = is_valid(g, ElimTree(g, parent))
                except InvalidArgument as exc:
                    assert str(exc) == "not an elimination tree of the graph"
                    admitted = False
                assert admitted == want
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


def oracle_ordering_parent(adj, order):
    """The earlier ``_ordering_parent``: one union-find step per edge."""
    parent = [-1] * len(adj)
    top = list(range(len(adj)))
    done = 0
    for v in reversed(order):
        for x in iter_bits(adj[v] & done):
            while top[x] != x:
                top[x] = x = top[top[x]]
            if x != v:
                parent[x] = top[x] = v
        done |= 1 << v
    return tuple(parent)


def test_ordering_parent_matches_per_edge_union_find_at_scale():
    path = Graph(["s", "v1", "v2", "t"], [("s", "v1"), ("v1", "v2"), ("v2", "t")])
    cycle = Graph(["s", "v1", "t", "v2"], [("s", "v1"), ("v1", "t"), ("t", "v2"), ("v2", "s")])
    for source in (path, cycle):
        for N in range(2, 7):  # cliques of up to 216 vertices
            inst = build_weighted_instance(source, "s", "t", N=N)
            for tree in (inst.t_ini, inst.t_tar):
                order = _shape(tree.parent)[1]
                want = oracle_ordering_parent(inst.graph.adj, order)
                assert _ordering_parent(inst.graph.adj, order) == want == tree.parent
    n = 10_001
    star = [(1 << n) - 2] + [1] * (n - 1)  # centre 0
    for order in ([*range(1, n), 0], list(range(n))):  # leaves first, centre first
        assert _ordering_parent(star, order) == oracle_ordering_parent(star, order)
    assert _ordering_parent(star, range(n)) == (-1,) + (0,) * (n - 1)
    # Three components: a random graph, a 5-cycle and an isolated vertex.
    adj = list(random_connected_graph(7, 0.3, 1).adj)
    adj += [mask << 7 for mask in cycle_graph(5).adj] + [0]
    for seed in range(20):
        order = list(range(len(adj)))
        random.Random(seed).shuffle(order)
        parent = _ordering_parent(adj, order)
        assert parent == oracle_ordering_parent(adj, order)
        assert parent.count(-1) == 3


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
            # a raw walk may also swap two copies of one vertex
            raw = random_walk(inst.t_ini, 8, rng)
            for seq in (lifted, raw):
                for combo in product(*(range(1, w[v] + 1) for v in g.labels)):
                    phi = dict(zip(g.labels, combo))
                    got = project_sequence(inst, seq, phi)
                    want = oracle_project_sequence(inst, seq, phi)
                    assert (got.start.parent, got.moves) == (want.start.parent, want.moves)
                    checked += 1
                assert averaging_inequality_holds(inst, seq) == oracle_averaging(inst, seq)
    assert checked > 100
