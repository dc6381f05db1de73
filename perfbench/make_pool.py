"""Write dist_pool.jsonl, the tree pairs the ``dist`` workload samples from.

    python3 perfbench/make_pool.py

Each line is ``[distance, edges, tree 1, tree 2]``: a random connected
graph on 7 vertices (a spanning tree plus 3 edges), two uniformly random
elimination trees on it as parent lists (-1 at the root), and their flip
distance found by the oracle's own breadth-first search. The generator
seed is fixed, so the file is reproducible byte for byte. Takes about
half a minute on the reference host.
"""

from __future__ import annotations

import json
import random

import oracle
import workloads

POOL_SIZE = 1200
POOL_SEED = 0


def main() -> None:
    rng = random.Random(POOL_SEED)
    names = [str(i) for i in range(workloads.DIST_N)]
    lines = []
    for _ in range(POOL_SIZE):
        edges = workloads._random_graph(rng, workloads.DIST_N, workloads.DIST_EXTRA)
        host = oracle.Host(names, [(names[a], names[b]) for a, b in edges])
        p1, p2 = workloads._uniform_tree(host, rng), workloads._uniform_tree(host, rng)
        d = oracle.flip_distance(host, p1, p2)
        lines.append(json.dumps([d, edges, p1, p2], separators=(",", ":")) + "\n")
    workloads.POOL.write_text("".join(lines))


if __name__ == "__main__":
    main()
