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
from array import array
from functools import lru_cache
from itertools import compress, count, permutations
from operator import add, index, lt
from typing import Iterable, Iterator, Mapping, Sequence

from .elimtree import ElimTree, _ordering_parent, _pack, is_valid
from .errors import InvalidArgument, ResourceLimit
from .flipgraph import explicit_flip_graph
from .graph import Graph

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

    def rank(self, subset: Iterable[str]) -> int:
        g = self.graph
        val = self._total
        for comp in g.component_masks(g.full_mask & ~g.mask(subset)):
            size = comp.bit_count()
            if size >= 2:
                val -= 3 ** (size - 2)
        return val


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
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _subset_sums(items: Sequence, zero) -> Iterator:
    """``zero`` plus each subset of ``items``, yielded by bitmask (bit i for
    ``items[i]``). The sums of each half of ``items`` are built by doubling,
    so about 2^(n/2 + 1) are held, not 2^n."""
    h = len(items) // 2
    low, high = [zero], [zero]
    for half, part in ((low, items[:h]), (high, items[h:])):
        for v in part:
            half += [s + v for s in half]
    return (lo + hi for hi in high for lo in low)


def _ranks(oracle: RankOracle) -> Iterator[int]:
    """``oracle.rank`` of each subset of the ground set, asked once each, as
    they are read, by bitmask (bit i for ``ground[i]``)."""
    return map(oracle.rank, _subset_sums([(lab,) for lab in oracle.ground], ()))


@lru_cache(maxsize=4)
def _exchange_columns(n: int) -> tuple[list[array], list[array]]:
    """The masks of the local checks on n elements, as columns in (X, i, j)
    order over i < j outside X: (X, X+i) for monotonicity and
    (X, X+i, X+j, X+i+j) for the exchange."""
    pairs = [(m, i) for m in range(1 << n) for i in range(n) if not m >> i & 1]
    quads = [(m, m | 1 << i, m | 1 << j, m | 1 << i | 1 << j)
             for m, i in pairs for j in range(i + 1, n) if not m >> j & 1]
    return ([array("H", [m for m, _ in pairs]), array("H", [m | 1 << i for m, i in pairs])],
            [array("H", [q[k] for q in quads]) for k in range(4)])


def check_axioms(oracle: RankOracle) -> AxiomReport:
    """Exhaustively test normalization, monotonicity, and submodularity.

    Monotonicity is checked through single-element extensions and
    submodularity through the local exchange
    f(X+u) + f(X+v) >= f(X+u+v) + f(X), which are equivalent to the
    global forms for set functions. The rank of each subset is asked once.
    """
    ground = oracle.ground
    n = len(ground)
    if n > 12:
        raise ResourceLimit(f"ground set too large: {n} > 12")
    ranks = list(_ranks(oracle))
    get = ranks.__getitem__
    (x, xi), (y, yi, yj, yij) = _exchange_columns(n)
    report = AxiomReport(checked=1 + len(x) + len(y))
    if ranks[0] != 0:
        report.violations.append(f"P1: rank(empty) = {ranks[0]} != 0")
    p2 = compress(count(), map(lt, map(get, xi), map(get, x)))
    p3 = compress(count(), map(lt, map(add, map(get, yi), map(get, yj)),
                               map(add, map(get, yij), map(get, y))))
    bad = [(x[k], (xi[k] ^ x[k]).bit_length() - 1, -1) for k in p2]
    bad += [(y[k], (yi[k] ^ y[k]).bit_length() - 1, (yj[k] ^ y[k]).bit_length() - 1)
            for k in p3]
    for mask, i, j in sorted(bad):  # P2 at (X, i) before the exchanges at (X, i, j)
        report.violations.append(
            f"P2: rank decreases when adding {ground[i]!r} to mask {mask:b}" if j < 0 else
            f"P3: exchange fails at mask {mask:b} with {ground[i]!r}, {ground[j]!r}"
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
    if not is_valid(g, t):
        raise InvalidArgument("not an elimination tree of the given graph")
    sizes = (t.subtree_mask(v).bit_count() for v in range(g.n))
    subtree_sum = [3 ** (size - 2) if size > 1 else 0 for size in sizes]
    return {
        lab: subtree_sum[v] - sum(subtree_sum[c] for c in t.children[v])
        for v, lab in enumerate(g.labels)
    }


def membership(oracle: RankOracle, x: Mapping[str, int]) -> bool:
    """Exhaustive test of x in B(rank): x(X) <= rank(X) for all X, with
    equality on the full ground set. Each coordinate must be an integer."""
    ground = list(oracle.ground)
    n = len(ground)
    if n > 20:
        raise ResourceLimit(f"ground set too large: {n} > 20")
    xs = []
    for lab in ground:
        try:
            xs.append(index(x[lab]))
        except KeyError:
            raise InvalidArgument(f"missing coordinate for {lab!r}") from None
        except TypeError:
            raise InvalidArgument(f"coordinates must be integers, x({lab!r}) = {x[lab]!r}") from None
    for total, r in zip(_subset_sums(xs, 0), _ranks(oracle)):
        if total > r:
            return False
    return total == r  # the last subset is the full ground set


@dataclass
class RealizationReport:
    trees: int
    points: int
    checks: dict[str, bool]

    @property
    def ok(self) -> bool:
        return all(self.checks.values())


def _greedy_skeleton(oracle: RankOracle) -> tuple[dict, set]:
    """The greedy point of every ordering of the ground set, keyed by the
    ordering's tuple of ground indices (coordinates in ground order), read
    off one rank list, and the pairs of distinct greedy points of two orderings
    one adjacent transposition apart. For a polymatroid these pairs are the
    edges of the base polytope (Topkis, "Paths on polymatroids", 1992)."""
    ranks = list(_ranks(oracle))
    if ranks[0] != 0:
        raise InvalidArgument("oracle is not normalized: rank(empty) != 0")
    points = {}
    for sigma in permutations(range(len(oracle.ground))):
        point, prefix = [0] * len(sigma), 0
        for i in sigma:
            point[i] = ranks[prefix | 1 << i] - ranks[prefix]
            prefix |= 1 << i
        points[sigma] = tuple(point)
    pairs = (
        frozenset((point, points[s[:i] + (s[i + 1], s[i]) + s[i + 2:]]))
        for s, point in points.items() for i in range(len(s) - 1)
    )
    return points, {pair for pair in pairs if len(pair) == 2}


def verify_realization(g: Graph) -> RealizationReport:
    """Cross-check the two descriptions of the G-associahedron:

    (a) greedy points over all orderings coincide with the tree coordinates,
    (b) each ordering's greedy point equals the coordinates of its tree,
    (c) distinct trees have distinct coordinates,
    (d) the swaps, mapped through the tree coordinates, are exactly the
        edges of the greedy skeleton (built from the rank oracle alone), so
        the flip graph is the 1-skeleton of the base polytope.
    """
    if g.n > 8:
        raise ResourceLimit(f"too many orderings: {g.n}! with n > 8")
    trees, adj = explicit_flip_graph(g)
    ids = {t.canonical_key(): i for i, t in enumerate(trees)}
    coords = [tuple(devadoss_coordinates(g, t).values()) for t in trees]  # label order
    greedy, skeleton = _greedy_skeleton(GraphAssocRank(g))
    compat = all(
        point == coords[ids[_pack(_ordering_parent(g.adj, sigma))]]
        for sigma, point in greedy.items()
    )
    point_set = set(coords)
    flips = {frozenset((coords[i], coords[j])) for i, row in enumerate(adj) for j in row}
    checks = {
        "compat": compat,
        "cover": set(greedy.values()) == point_set,
        "injective": len(point_set) == len(trees),
        "skeleton": flips == skeleton,
    }
    return RealizationReport(trees=len(trees), points=len(point_set), checks=checks)
