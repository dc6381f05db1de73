"""The four workloads: seeded input files, the CLI op lists, and checks.

``BUILDERS[name](seed, workdir)`` writes the inputs and returns the
warm-up argv and the list of CLI calls. Each call's ``check(out, outs)``
receives its stdout and the stdouts of the whole pass (indexed like the
call list) and returns None or the reason the answer is wrong. Checks
use ``oracle`` only.

Why the inputs look the way they do:

- dist: every pair lives on its own random graph (7 vertices, spanning
  tree plus 3 edges), so that a pass averages over many graphs, not over
  the handful a shared-graph design would give. The pairs come from
  dist_pool.jsonl, 1,200 uniformly random (graph, pair) draws with their
  flip distances. A seed takes a fifth of each distance stratum and
  renumbers the vertices. An op's time follows its distance (about 60 ms
  at distance 7, 90 ms at 8), so 240 unstratified draws moved op_p50_ms
  by 20% from seed to seed; the stratified draw keeps the histogram.
- diameter, reduce: the seed renames the vertices, shuffles the edge
  lines and flips their endpoints, and picks which side of a tie the cut
  takes, but keeps the vertex lines in structural order. The pruned
  diameter's work depends on the vertex order (S7 took 0.35 to 1.64 s
  over five random orders on a 2-vCPU host) and random blow-up pairs
  range from 5 ms to 1.4 s, so a freer seed would drown wall_s in input
  variance. Sizes and answers are therefore pinned.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

Check = Callable[[str, list], "str | None"]


@dataclass
class Op:
    """One CLI call. Calls with ``joins`` set belong to the op of the call
    before them: they are timed, scheduled and counted together."""

    argv: list[str]
    check: Check
    same_as: int | None = None  # index of an earlier call that must print the same
    joins: bool = False


def _lines(out: str) -> list[str]:
    return [ln.strip() for ln in out.splitlines() if ln.strip()]


def _fields(out: str) -> dict[str, str]:
    """``key value`` lines as a dict (the CLI's text output)."""
    return dict(ln.split(None, 1) for ln in _lines(out) if " " in ln)


def _graph_text(host: oracle.Host, edge_lines) -> str:
    return "".join(
        [f"{len(host.labels)} {len(edge_lines)}\n"]
        + [f"{lab}\n" for lab in host.labels]
        + [f"{a} {b}\n" for a, b in edge_lines]
    )


def _write(path: Path, text: str) -> str:
    path.write_text(text)
    return str(path)


def _shuffled_edges(rng: random.Random, labels, edges):
    """Edge lines in random order, each with its endpoints in random order."""
    lines = [(labels[a], labels[b]) if rng.random() < 0.5 else (labels[b], labels[a])
             for a, b in edges]
    rng.shuffle(lines)
    return lines


def _write_graph(path: Path, rng: random.Random, names, edges) -> tuple[str, oracle.Host]:
    lines = _shuffled_edges(rng, names, edges)
    host = oracle.Host(names, lines)
    return _write(path, _graph_text(host, lines)), host


# -- dist -------------------------------------------------------------------

DIST_N, DIST_EXTRA = 7, 3  # vertices; edges beyond a spanning tree
DIST_PAIRS = 240
DIST_REPEATS = 8
POOL = Path(__file__).with_name("dist_pool.jsonl")  # written by make_pool.py
# The README's P3 example. Its printed path there, swap 1 2 / swap 1 3, is
# not legal (after swap 1 2, vertex 3 hangs below 2, not below 1); the
# program prints the legal swap 1 2 / swap 2 3, which is pinned here.
README_P3 = ("3 2\n1\n2\n3\n1 2\n2 3\n", "1 -\n2 1\n3 2\n", "3 -\n2 3\n1 2\n")
README_P3_OUT = "distance 2\nswap 1 2\nswap 2 3"


def _random_graph(rng: random.Random, n: int, extra: int) -> list[tuple[int, int]]:
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        a, b = order[k], order[rng.randrange(k)]
        edges.add((min(a, b), max(a, b)))
    free = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    edges.update(rng.sample(free, extra))
    return sorted(edges)


def _uniform_tree(host: oracle.Host, rng: random.Random) -> list[int]:
    """A uniformly random elimination tree: count the trees of every
    connected vertex set, then pick each root with probability
    proportional to the number of trees it heads."""
    memo: dict[int, int] = {}

    def split(mask: int):
        for v in oracle.bits(mask):
            comps = host.components(mask & ~(1 << v))
            ways = 1
            for c in comps:
                ways *= count(c)
            yield v, comps, ways

    def count(mask: int) -> int:
        if mask not in memo:
            memo[mask] = sum(ways for _, _, ways in split(mask))
        return memo[mask]

    parent = [-1] * len(host.labels)
    todo = [((1 << len(host.labels)) - 1, -1)]
    while todo:
        mask, par = todo.pop()
        r = rng.randrange(count(mask))
        for v, comps, ways in split(mask):
            if r < ways:
                break
            r -= ways
        parent[v] = par
        todo.extend((c, v) for c in comps)
    return parent


def _check_path(host, p1, p2, weights=None, expect=None) -> Check:
    """Replay the printed path; it must reach tree 2 in exactly the printed
    distance (unit or weighted), which may not beat the order lower bound
    and must equal ``expect`` when that is known."""

    def check(out, outs):
        lines = _lines(out)
        head = lines[0].split()
        if head[0] != "distance":
            return f"expected a distance line, got {lines[0]!r}"
        d = int(head[1])
        if expect is not None and d != expect:
            return f"distance {d}, the oracle's search found {expect}"
        moves = oracle.read_swaps(lines[1:])
        final, why = oracle.replay(host, p1, moves, check_each=len(p1) <= 16)
        if why:
            return why
        if final != p2:
            return "path does not end at tree 2"
        if weights is None:
            cost = len(moves)
            if d < oracle.order_lower_bound(host, p1, p2):
                return f"distance {d} is below the order lower bound"
        else:
            cost = sum(weights[u] * weights[v] for u, v in moves)
        if cost != d:
            return f"path costs {cost}, distance says {d}"
        return None

    return check


def _pool_sample(rng: random.Random):
    """DIST_PAIRS pool entries, the same share of each distance stratum.

    The pool is a uniform sample of (graph, pair) draws, so the strata
    keep the distance histogram of uniformly random pairs; fixing each
    stratum's size stops a seed from shifting the histogram, which moves
    the per-op times far more than anything else about a pair."""
    pool = [json.loads(ln) for ln in POOL.read_text().splitlines()]
    strata: dict[int, list] = {}
    for entry in pool:
        strata.setdefault(entry[0], []).append(entry)
    picked = []
    for d in sorted(strata):
        picked += rng.sample(strata[d], round(len(strata[d]) * DIST_PAIRS / len(pool)))
    rng.shuffle(picked)
    return picked


def _relabel(rng: random.Random, edges, p1, p2):
    """The same pair with its vertices in a random order."""
    sigma = rng.sample(range(DIST_N), DIST_N)

    def tree(parent):
        out = [-1] * DIST_N
        for i, p in enumerate(parent):
            out[sigma[i]] = -1 if p < 0 else sigma[p]
        return out

    return [(sigma[a], sigma[b]) for a, b in edges], tree(p1), tree(p2)


def build_dist(seed: int, work: Path):
    rng = random.Random(seed)
    g, a, b = (_write(work / f"p3.{x}", t) for x, t in zip(("txt", "a", "b"), README_P3))
    readme = [g, a, b, "--path"]
    host = oracle.Host.parse(README_P3[0])
    replayed = _check_path(host, host.parse_tree(README_P3[1]), host.parse_tree(README_P3[2]),
                           expect=2)
    ops = [Op(["dist"] + readme, lambda out, outs: replayed(out, outs) or (
        None if out.strip() == README_P3_OUT else "README P3 path changed"))]
    names = [str(i) for i in range(1, DIST_N + 1)]
    for k, (d, *pair) in enumerate(_pool_sample(rng)):
        edges, p1, p2 = _relabel(rng, *pair)
        gfile, host = _write_graph(work / f"g{k}.txt", rng, names, edges)
        t1 = _write(work / f"g{k}.a", host.format_tree(p1))
        t2 = _write(work / f"g{k}.b", host.format_tree(p2))
        ops.append(Op(["dist", gfile, t1, t2, "--path"], _check_path(host, p1, p2, expect=d)))
    for k in range(1, 1 + DIST_REPEATS):
        ops.append(Op(ops[k].argv, ops[k].check, same_as=k))
    return ["dist"] + readme, ops


# -- diameter ---------------------------------------------------------------

DIAMETER_FAMILIES = [  # name, n, edges, trees, diameter
    ("P9", 9, [(i, i + 1) for i in range(8)], 4862, 12),
    ("C8", 8, [(i, (i + 1) % 8) for i in range(8)], 3432, 14),
    ("S7", 7, [(0, i) for i in range(1, 7)], 1957, 12),
    ("K6", 6, [(i, j) for i in range(6) for j in range(i + 1, 6)], 720, 15),
]


def _check_diameter(trees: int, diam: int) -> Check:
    def check(out, outs):
        f = _fields(out)
        got = (int(f["vertices"]), int(f["diameter"]))
        return None if got == (trees, diam) else f"got {got}, expected {(trees, diam)}"

    return check


def build_diameter(seed: int, work: Path):
    rng = random.Random(seed)
    warm, _ = _write_graph(work / "warm.txt", rng, ["1", "2", "3", "4"], [(0, 1), (1, 2), (2, 3)])
    ops = []
    for name, n, edges, trees, diam in DIAMETER_FAMILIES:
        names = [str(i) for i in range(1, n + 1)]
        rng.shuffle(names)
        gfile, _ = _write_graph(work / f"{name}.txt", rng, names, edges)
        ops.append(Op(["diameter", gfile], _check_diameter(trees, diam)))
    # --exact-allpairs on 14 trees pays the numpy/scipy import in set-up.
    return ["diameter", warm, "--exact-allpairs"], ops


# -- reduce -----------------------------------------------------------------

P4 = [(0, 1), (1, 2), (2, 3)]
C4 = [(0, 1), (1, 2), (2, 3), (3, 0)]
# source edges, s, t, cut sides X to choose from, N, lambda
CUTS = [
    (P4, 0, 3, [(0, 1)], 6, 1),
    (C4, 0, 2, [(0, 1), (0, 3)], 6, 2),
    (C4, 0, 2, [(0, 1), (0, 3)], 7, 2),
    (P4, 0, 3, [(0, 1)], 8, 1),
]
# blow-up source edges, weights, tree 1, tree 2 (parent indices), distance
BLOWUPS = [
    (P4, (2, 3, 2, 2), (1, 2, 3, -1), (-1, 2, 0, 2), 14),
    (C4, (2, 2, 2, 2), (1, 2, 3, -1), (1, -1, 0, 2), 16),
    (P4, (2, 2, 2, 2), (1, 2, -1, 2), (-1, 3, 1, 0), 16),
    (C4, (2, 2, 2, 2), (1, 2, 3, -1), (-1, 0, 1, 2), 20),
]


def _names(rng: random.Random, n: int) -> list[str]:
    return [str(x) for x in rng.sample(range(10, 100), n)]


def _cut_sizes(src: oracle.Host, s: int, t: int, N: int) -> tuple[int, int]:
    """Vertex and edge counts of the weighted instance built from src."""
    n, k = (len(src.labels) - 2) // 2, N**3
    edges = k * (k - 1)
    for a, b in src.edges:
        edges += 2 + sum(k if e in (s, t) else 1 for e in (a, b))
    return 2 * n + 2 * k + len(src.edges) + len(src.labels), edges


def _check_cut(src, s, t, N, lam, outdir: Path) -> Check:
    n, m = (len(src.labels) - 2) // 2, len(src.edges)

    def check(out, outs):
        f = _fields(out)
        got_lam, thr = int(f["lambda"]), int(f["threshold"])
        weight, below = int(f["sequence_weight"]), f["below_threshold"]
        if got_lam != lam or got_lam != oracle.brute_min_cut(src, src.labels[s], src.labels[t]):
            return f"lambda {got_lam}, expected {lam}"
        if thr != 4 * lam * N**7 + (n * n - n + 1) * N * N:
            return f"threshold {thr} does not match the formula"
        if below != str(weight < thr):
            return f"below_threshold {below} but weight {weight}, threshold {thr}"
        if N * N > 4 * lam * n * N + 2 * lam * m and below != "True":
            return "below_threshold must be True when N^2 > 4*lambda*n*N + 2*lambda*m"
        host = oracle.Host.parse((outdir / "graph.txt").read_text())
        if (len(host.labels), len(host.edges)) != _cut_sizes(src, s, t, N):
            return f"bundle graph has {len(host.labels)} vertices, {len(host.edges)} edges"
        w = {lab: int(x) for lab, x in
             (ln.split() for ln in _lines((outdir / "weights.txt").read_text()))}
        t_ini = host.parse_tree((outdir / "t_ini.tree").read_text())
        t_tar = host.parse_tree((outdir / "t_tar.tree").read_text())
        moves = oracle.read_swaps(_lines((outdir / "sufficiency.moves").read_text()))
        final, why = oracle.replay(host, t_ini, moves)
        if why:
            return why
        if final != t_tar:
            return "sufficiency.moves does not end at t_tar"
        if sum(w[u] * w[v] for u, v in moves) != weight:
            return "sufficiency.moves weight differs from sequence_weight"
        return None

    return check


def build_reduce(seed: int, work: Path):
    rng = random.Random(seed)
    ops: list[Op] = []
    for j, ((cut_edges, s, t, sides, N, lam), (b_edges, ws, q1, q2, dist)) in enumerate(
            zip(CUTS, BLOWUPS)):
        names = _names(rng, 4)
        gfile, src = _write_graph(work / f"cut{j}.txt", rng, names, cut_edges)
        x = ",".join(names[i] for i in rng.choice(sides))
        out = work / f"cut{j}"
        ops.append(Op(["reduce", "cut", gfile, names[s], names[t], str(out), "--N", str(N),
                       "--sufficiency", x], _check_cut(src, s, t, N, lam, out)))

        names = _names(rng, 4)
        bfile, host = _write_graph(work / f"b{j}.txt", rng, names, b_edges)
        w = dict(zip(names, ws))
        wfile = _write(work / f"b{j}.w", "".join(f"{v} {w[v]}\n" for v in rng.sample(names, 4)))
        t1 = _write(work / f"b{j}.a", host.format_tree(list(q1)))
        t2 = _write(work / f"b{j}.b", host.format_tree(list(q2)))
        bout = work / f"blowup{j}"
        size = (sum(ws), sum(k * (k - 1) // 2 for k in ws)
                + sum(ws[a] * ws[b] for a, b in b_edges))
        ops.append(Op(["reduce", "blowup", bfile, wfile, t1, t2, str(bout)],
                      lambda o, outs, size=size: None if (
                          int(_fields(o)["vertices"]), int(_fields(o)["edges"])) == size
                      else f"blow-up size differs from {size}", joins=True))
        weighted = len(ops)
        ops.append(Op(["dist", bfile, t1, t2, "--weights", wfile, "--path"],
                      _check_path(host, list(q1), list(q2), w, expect=dist), joins=True))
        ops.append(Op(["dist", str(bout / "graph.txt"), str(bout / "t_ini.tree"),
                       str(bout / "t_tar.tree")], _check_blown(dist, weighted), joins=True))
    names = _names(rng, 4)
    warm, _ = _write_graph(work / "warm.txt", rng, names, P4)
    warm_argv = ["reduce", "cut", warm, names[0], names[3], str(work / "warm"), "--N", "2",
                 "--sufficiency", f"{names[0]},{names[1]}"]
    return warm_argv, ops


def _check_blown(dist: int, weighted: int) -> Check:
    """The blown-up unit distance equals the source's weighted distance."""

    def check(out, outs):
        got = int(_fields(out)["distance"])
        src = int(_fields(outs[weighted])["distance"])
        if got != dist or got != src:
            return f"blown-up distance {got}, weighted {src}, expected {dist}"
        return None

    return check


# -- verify -----------------------------------------------------------------

VERIFY_CHECKED = {"axioms": 130, "realization": 30, "projection": 171710, "blowup-equiv": 6903}
# blowup-equiv's seed picks the weight vectors it checks, and with them its
# work: 4.4 to 9.0 s over seeds 0-7 on one host. It keeps the CLI default
# seed so that wall_s follows the code, not the draw; axioms (random
# graphs, 0.5 to 0.8 s) gets the workload seed.
VERIFY_FIXED_SEED = {"blowup-equiv": 0}


def build_verify(seed: int, work: Path):
    warm, _ = _write_graph(work / "warm.txt", random.Random(seed), ["1", "2", "3", "4"], P4)
    ops = []
    for suite, checked in VERIFY_CHECKED.items():
        def check(out, outs, suite=suite, checked=checked):
            f = _fields(out)
            got = (f.get("suite"), int(f["checked"]), f.get("ok"))
            return None if got == (suite, checked, "True") else f"got {got}"

        suite_seed = VERIFY_FIXED_SEED.get(suite, seed)
        ops.append(Op(["--seed", str(suite_seed), "verify", suite], check))
    return ["rank", warm, "1", "2"], ops


BUILDERS = {
    "dist": build_dist,
    "diameter": build_diameter,
    "reduce": build_reduce,
    "verify": build_verify,
}
