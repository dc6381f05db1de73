"""Command-line front end.

Exit codes: 0 success, 1 verification suite failure, 2 parse error,
3 semantic error (invalid argument or illegal move), 4 resource limit.
Big integers appear in JSON output as decimal strings.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

from .elimtree import format_tree, parse_tree, project
from .errors import InvalidArgument, ParseError, ResourceLimit
from .flipgraph import (
    DEFAULT_NODE_BUDGET,
    adjacency_diameter,
    distance,
    enumerate_all,
    explicit_flip_graph,
    flip_graph_dot,
    moves_weight,
    shortest_path,
    weighted_distance,
    weighted_shortest_path,
)
from .graph import parse_graph, parse_weights
from .polymatroid import GraphAssocRank
from .reductions import (
    build_unweighted_instance,
    build_weighted_instance,
    instance_meta,
    sufficiency_sequence,
    threshold,
    write_bundle,
)
from .verify import SUITES

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def cmd_dist(args) -> int:
    g = parse_graph(_read(args.graph))
    t1 = parse_tree(g, _read(args.tree1))
    t2 = parse_tree(g, _read(args.tree2))
    w = parse_weights(g, _read(args.weights)) if args.weights else None
    if args.path and w is None:
        seq = shortest_path(g, t1, t2, node_budget=args.node_budget)
        d = len(seq)
    elif args.path:
        seq = weighted_shortest_path(g, w, t1, t2, node_budget=args.node_budget)
        d = moves_weight(seq.moves, w)
    elif w is None:
        d = distance(g, t1, t2, node_budget=args.node_budget)
    else:
        d = weighted_distance(g, w, t1, t2, node_budget=args.node_budget)
    payload: dict = {"distance": str(d)}
    lines = [f"distance {d}"]
    if args.path:
        payload["path"] = [[m.u, m.v] for m in seq.moves]
        lines.extend(f"swap {m.u} {m.v}" for m in seq.moves)
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_diameter(args) -> int:
    g = parse_graph(_read(args.graph))
    start = time.monotonic()
    _, adj = explicit_flip_graph(g, cap=args.node_budget)
    d = adjacency_diameter(adj)
    elapsed = time.monotonic() - start
    payload = {"diameter": d, "vertices": len(adj), "seconds": round(elapsed, 3)}
    _emit(args, payload, f"diameter {d}\nvertices {len(adj)}\nseconds {elapsed:.3f}")
    return 0


def cmd_enumerate(args) -> int:
    g = parse_graph(_read(args.graph))
    if args.dot:
        print(flip_graph_dot(g, cap=args.node_budget), end="")
        return 0
    trees = enumerate_all(g, cap=args.node_budget)
    _emit(args, {"count": len(trees)}, f"count {len(trees)}")
    return 0


def cmd_rank(args) -> int:
    g = parse_graph(_read(args.graph))
    oracle = GraphAssocRank(g)
    val = oracle.rank(args.labels)
    _emit(args, {"rank": str(val)}, str(val))
    return 0


def cmd_reduce_cut(args) -> int:
    g = parse_graph(_read(args.graph))
    inst = build_weighted_instance(
        g, args.s, args.t, N=args.N, node_budget=args.node_budget
    )
    write_bundle(
        args.outdir,
        inst.graph,
        inst.t_ini,
        inst.t_tar,
        weights=inst.weights,
        meta=instance_meta(inst),
    )
    lines = [f"lambda {inst.cut_value}", f"threshold {threshold(inst)}"]
    payload = {"lambda": inst.cut_value, "threshold": str(threshold(inst))}
    if args.sufficiency:
        x = args.sufficiency.split(",")
        seq = sufficiency_sequence(inst, x)
        # Built move by move through apply_swap, which rejects an illegal
        # move, so the sequence needs no second replay.
        weight = moves_weight(seq.moves, inst.weights)
        out = Path(args.outdir) / "sufficiency.moves"
        out.write_text("".join(f"{m.u} {m.v}\n" for m in seq.moves))
        lines.append(f"sequence_weight {weight}")
        lines.append(f"below_threshold {weight < threshold(inst)}")
        payload["sequence_weight"] = str(weight)
        payload["below_threshold"] = weight < threshold(inst)
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_reduce_blowup(args) -> int:
    g = parse_graph(_read(args.graph))
    w = parse_weights(g, _read(args.weights_file))
    t1 = parse_tree(g, _read(args.tree1))
    t2 = parse_tree(g, _read(args.tree2))
    inst = build_unweighted_instance(g, w, t1, t2, node_budget=args.node_budget)
    write_bundle(args.outdir, inst.graph, inst.t_ini, inst.t_tar)
    payload = {"vertices": inst.graph.n, "edges": inst.graph.m}
    _emit(args, payload, f"vertices {inst.graph.n}\nedges {inst.graph.m}")
    return 0


def cmd_verify(args) -> int:
    suite = SUITES[args.suite]
    seeded = args.suite in ("axioms", "blowup-equiv")
    report = suite(seed=args.seed) if seeded else suite()
    payload = {
        "suite": report.suite,
        "checked": report.checked,
        "ok": report.ok,
        "failures": report.failures[:20],
    }
    text = f"suite {report.suite}\nchecked {report.checked}\nok {report.ok}"
    if report.failures:
        text += "\n" + "\n".join(report.failures[:20])
    _emit(args, payload, text)
    return 0 if report.ok else 1


def cmd_project(args) -> int:
    g = parse_graph(_read(args.graph))
    t = parse_tree(g, _read(args.tree))
    print(format_tree(project(g, t, args.labels)), end="")
    return 0


@functools.cache  # built once per process; parse_args returns a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="gassoc")
    p.add_argument("--threads", type=int, default=1, help="accepted for "
                   "compatibility; execution is single-threaded and deterministic")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("dist", help="flip distance between two trees")
    d.add_argument("graph")
    d.add_argument("tree1")
    d.add_argument("tree2")
    d.add_argument("--weights")
    d.add_argument("--path", action="store_true")
    d.add_argument("--json", action="store_true")
    d.set_defaults(func=cmd_dist)

    dm = sub.add_parser("diameter", help="exact flip-graph diameter")
    dm.add_argument("graph")
    dm.add_argument("--exact-allpairs", action="store_true")
    dm.add_argument("--json", action="store_true")
    dm.set_defaults(func=cmd_diameter)

    en = sub.add_parser("enumerate", help="enumerate all elimination trees")
    en.add_argument("graph")
    en.add_argument("--dot", action="store_true")
    en.add_argument("--json", action="store_true")
    en.set_defaults(func=cmd_enumerate)

    rk = sub.add_parser("rank", help="rank of a vertex subset")
    rk.add_argument("graph")
    rk.add_argument("labels", nargs="*")
    rk.add_argument("--json", action="store_true")
    rk.set_defaults(func=cmd_rank)

    rd = sub.add_parser("reduce", help="build reduction instances")
    rds = rd.add_subparsers(dest="kind", required=True)
    rc = rds.add_parser("cut", help="balanced min-cut to weighted instance")
    rc.add_argument("graph")
    rc.add_argument("s")
    rc.add_argument("t")
    rc.add_argument("outdir")
    rc.add_argument("--N", type=int, default=None)
    rc.add_argument("--sufficiency", help="comma-separated cut side X")
    rc.add_argument("--json", action="store_true")
    rc.set_defaults(func=cmd_reduce_cut)
    rb = rds.add_parser("blowup", help="weighted to unweighted clique blow-up")
    rb.add_argument("graph")
    rb.add_argument("weights_file")
    rb.add_argument("tree1")
    rb.add_argument("tree2")
    rb.add_argument("outdir")
    rb.add_argument("--json", action="store_true")
    rb.set_defaults(func=cmd_reduce_blowup)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("suite", choices=sorted(SUITES))
    vf.add_argument("--json", action="store_true")
    vf.set_defaults(func=cmd_verify)

    pj = sub.add_parser("project", help="project a tree onto a vertex subset")
    pj.add_argument("graph")
    pj.add_argument("tree")
    pj.add_argument("labels", nargs="+")
    pj.set_defaults(func=cmd_project)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InvalidArgument as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ResourceLimit as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
