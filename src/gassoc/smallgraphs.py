"""Small graph families and generators used by tests and the verifier."""

from __future__ import annotations

import random
from itertools import combinations, islice, permutations
from typing import Iterator

from .errors import InvalidArgument
from .graph import Graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "star_graph",
    "complete_graph",
    "random_connected_graph",
    "connected_graphs_up_to_iso",
]


def _labels(n: int) -> list[str]:
    return [str(i) for i in range(1, n + 1)]


def path_graph(n: int) -> Graph:
    labs = _labels(n)
    return Graph(labs, [(labs[i], labs[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidArgument("a cycle needs at least three vertices")
    labs = _labels(n)
    edges = [(labs[i], labs[i + 1]) for i in range(n - 1)] + [(labs[-1], labs[0])]
    return Graph(labs, edges)


def star_graph(n: int) -> Graph:
    """Star with one center and n - 1 leaves."""
    labs = _labels(n)
    return Graph(labs, [(labs[0], labs[i]) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    labs = _labels(n)
    return Graph(labs, list(combinations(labs, 2)))


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi edges plus a random spanning tree to force connectivity."""
    if n < 1:
        raise InvalidArgument("n must be positive")
    rng = random.Random(seed)
    labs = _labels(n)
    edge_set: set[tuple[int, int]] = set()
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        a = order[k]
        b = order[rng.randrange(k)]
        edge_set.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edge_set.add((i, j))
    edges = [(labs[i], labs[j]) for i, j in sorted(edge_set)]
    return Graph(labs, edges)


def connected_graphs_up_to_iso(n: int) -> Iterator[Graph]:
    """All connected graphs on n <= 6 vertices, one per isomorphism class.

    Edge sets are bitmasks over the vertex pairs; a class is represented by
    its smallest mask, the one no vertex permutation maps lower. Classes
    come in increasing mask order.
    """
    if n > 6:
        raise InvalidArgument("isomorphism enumeration capped at n = 6")
    labs = _labels(n)
    pairs = list(combinations(range(n), 2))
    bit = {p: 1 << k for k, p in enumerate(pairs)}
    # images[i][k]: the bit of pair k's image under the i-th non-identity
    # vertex permutation
    images = [
        [bit[min(p[a], p[b]), max(p[a], p[b])] for a, b in pairs]
        for p in islice(permutations(range(n)), 1, None)
    ]
    for mask in range(1 << len(pairs)):
        if mask.bit_count() < n - 1:
            continue
        ks = [k for k in range(len(pairs)) if mask >> k & 1]
        if any(sum(map(img.__getitem__, ks)) < mask for img in images):
            continue
        g = Graph(labs, [(labs[pairs[k][0]], labs[pairs[k][1]]) for k in ks])
        if g.is_connected():
            yield g
