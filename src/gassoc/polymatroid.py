"""Polymatroid realization of the G-associahedron.

The rank function of a connected graph G on n >= 2 vertices is

    f(X) = 3^(n-2) - sum over nontrivial components C of G - X of 3^(|C|-2)

whose base polytope has the elimination trees of G as extreme points,
with integer coordinates (leaves at 0, subtree sums 3^(|T(v)|-2)).
Everything here is exact integer arithmetic; no floating point.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import permutations
from typing import Iterable, Mapping, Sequence

from .elimtree import ElimTree, _root_first, swap_neighbors
from .errors import InvalidArgument, ResourceLimit
from .flipgraph import enumerate_all
from .graph import Graph, iter_bits

__all__ = [
    "RankOracle",
    "GraphAssocRank",
    "TableRank",
    "AxiomReport",
    "check_axioms",
    "power_sum_inequality",
    "greedy_extreme_point",
    "devadoss_coordinates",
    "membership",
    "RealizationReport",
    "verify_realization",
]


class RankOracle(ABC):
    """Set function on a fixed ground set, queried by subset."""

    ground: tuple[str, ...]

    @abstractmethod
    def rank(self, subset: Iterable[str]) -> int:
        raise NotImplementedError


class GraphAssocRank(RankOracle):
    """The graph-associahedron rank function of a connected graph, n >= 2."""

    def __init__(self, g: Graph):
        if g.n < 2:
            raise InvalidArgument("rank function requires at least two vertices")
        if not g.is_connected():
            raise InvalidArgument("rank function requires a connected graph")
        self.graph = g
        self.ground = g.labels
        self._total = 3 ** (g.n - 2)
        self._memo: dict[int, int] = {}

    def rank_mask(self, xmask: int) -> int:
        val = self._memo.get(xmask)
        if val is None:
            g = self.graph
            val = self._total
            for comp in g.component_masks(g.full_mask & ~xmask):
                size = comp.bit_count()
                if size >= 2:
                    val -= 3 ** (size - 2)
            self._memo[xmask] = val
        return val

    def rank(self, subset: Iterable[str]) -> int:
        return self.rank_mask(self.graph.mask(subset))


class TableRank(RankOracle):
    """Explicit-table oracle, handy for counterexamples in axiom tests."""

    def __init__(self, ground: Sequence[str], table: Mapping[frozenset[str], int]):
        self.ground = tuple(ground)
        self._table = dict(table)

    def rank(self, subset: Iterable[str]) -> int:
        return self._table[frozenset(subset)]


def power_sum_inequality(a: Sequence[int]) -> bool:
    """Truth of 3^(a_1 + ... + a_k) >= 3^a_1 + ... + 3^a_k for positive a_i."""
    if not a or any(x < 1 for x in a):
        raise InvalidArgument("entries must be positive integers")
    return 3 ** sum(a) >= sum(3**x for x in a)


@dataclass
class AxiomReport:
    ground_size: int
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_axioms(oracle: RankOracle, cap: int = 12) -> AxiomReport:
    """Exhaustively test normalization, monotonicity, and submodularity.

    Monotonicity is checked through single-element extensions and
    submodularity through the local exchange
    f(X+u) + f(X+v) >= f(X+u+v) + f(X), which are equivalent to the
    global forms for set functions.
    """
    ground = list(oracle.ground)
    n = len(ground)
    if n > cap:
        raise ResourceLimit(f"ground set too large: {n} > {cap}")
    report = AxiomReport(ground_size=n)
    ranks: dict[int, int] = {}
    for mask in range(1 << n):
        ranks[mask] = oracle.rank(ground[i] for i in iter_bits(mask))
    if ranks[0] != 0:
        report.violations.append(f"P1: rank(empty) = {ranks[0]} != 0")
    report.checked += 1
    for mask in range(1 << n):
        for i in range(n):
            if mask >> i & 1:
                continue
            report.checked += 1
            if ranks[mask | 1 << i] < ranks[mask]:
                report.violations.append(
                    f"P2: rank decreases when adding {ground[i]!r} to mask {mask:b}"
                )
            for j in range(i + 1, n):
                if mask >> j & 1:
                    continue
                report.checked += 1
                lhs = ranks[mask | 1 << i] + ranks[mask | 1 << j]
                rhs = ranks[mask | 1 << i | 1 << j] + ranks[mask]
                if lhs < rhs:
                    report.violations.append(
                        f"P3: exchange fails at mask {mask:b} with "
                        f"{ground[i]!r}, {ground[j]!r}"
                    )
    return report


def greedy_extreme_point(oracle: RankOracle, sigma: Sequence[str]) -> dict[str, int]:
    """The base-polytope vertex of prefix rank differences along ``sigma``."""
    if sorted(sigma) != sorted(oracle.ground):
        raise InvalidArgument("ordering must permute the ground set")
    point = {}
    prefix: list[str] = []
    prev = oracle.rank(prefix)
    if prev != 0:
        raise InvalidArgument("oracle is not normalized: rank(empty) != 0")
    for lab in sigma:
        prefix.append(lab)
        cur = oracle.rank(prefix)
        point[lab] = cur - prev
        prev = cur
    return point


def devadoss_coordinates(g: Graph, t: ElimTree) -> dict[str, int]:
    """Integer vertex coordinates of an elimination tree: leaves get 0 and
    every subtree sums to 3^(size - 2)."""
    if g.n < 2:
        raise InvalidArgument("coordinates require at least two vertices")
    coords = [0] * g.n
    size = [1] * g.n
    subtree_sum = [0] * g.n
    # Process vertices bottom-up (children before parents).
    for v in reversed(_root_first(t.parent, t.children)):
        size[v] += sum(size[c] for c in t.children[v])
        if size[v] > 1:
            subtree_sum[v] = 3 ** (size[v] - 2)
            coords[v] = subtree_sum[v] - sum(subtree_sum[c] for c in t.children[v])
    return {g.labels[i]: coords[i] for i in range(g.n)}


def membership(oracle: RankOracle, x: Mapping[str, int], cap: int = 20) -> bool:
    """Exhaustive test of x in B(rank): x(X) <= rank(X) for all X, with
    equality on the full ground set."""
    ground = list(oracle.ground)
    n = len(ground)
    if n > cap:
        raise ResourceLimit(f"ground set too large: {n} > {cap}")
    vals = [x[lab] for lab in ground]
    for mask in range(1 << n):
        total = sum(vals[i] for i in iter_bits(mask))
        r = oracle.rank(ground[i] for i in iter_bits(mask))
        if total > r:
            return False
        if mask == (1 << n) - 1 and total != r:
            return False
    return True


@dataclass
class RealizationReport:
    trees: int
    points: int
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def verify_realization(g: Graph, ordering_cap: int = 8) -> RealizationReport:
    """Cross-check the two vertex descriptions of the G-associahedron:

    (a) greedy points over all orderings coincide with the tree coordinates,
    (b) each ordering's greedy point equals the coordinates of its tree,
    (c) distinct trees have distinct coordinates,
    (d) swap-adjacent coordinate differences live on the swapped pair
        and sum to zero.
    """
    if g.n > ordering_cap:
        raise ResourceLimit(f"too many orderings: {g.n}! with n > {ordering_cap}")
    oracle = GraphAssocRank(g)
    trees = enumerate_all(g)
    tree_points = {t.canonical_key(): devadoss_coordinates(g, t) for t in trees}
    point_set = {tuple(p[lab] for lab in g.labels) for p in tree_points.values()}

    compat = True
    greedy_set = set()
    for sigma in permutations(g.labels):
        point = greedy_extreme_point(oracle, sigma)
        greedy_set.add(tuple(point[lab] for lab in g.labels))
        t = ElimTree.from_ordering(g, sigma)
        if point != tree_points[t.canonical_key()]:
            compat = False

    swap_support = True
    for t in trees:
        pt = tree_points[t.canonical_key()]
        for u, v, _, key in swap_neighbors(g.adj, t.parent):
            pn = tree_points[key]
            diff = {lab: pn[lab] - pt[lab] for lab in g.labels}
            if sum(diff.values()) != 0:
                swap_support = False
            swapped = (g.labels[u], g.labels[v])
            if any(d != 0 for lab, d in diff.items() if lab not in swapped):
                swap_support = False

    checks = {
        "compat": compat,
        "cover": greedy_set == point_set,
        "injective": len(point_set) == len(trees),
        "swap_support": swap_support,
    }
    return RealizationReport(trees=len(trees), points=len(point_set), checks=checks)
