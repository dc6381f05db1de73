"""Verified combinatorics of graph associahedra: elimination trees, swap
moves, flip distances and diameters, hardness-reduction instance builders,
and the integral polymatroid realization."""

from .errors import IllegalMove, InvalidArgument, ParseError, ResourceLimit
from .graph import (
    Graph,
    balanced_min_cut_exists,
    connected_components,
    cut_edges,
    format_graph,
    induced_subgraph,
    min_st_cut_value,
    nontrivial_components,
    parse_graph,
)
from .elimtree import (
    ElimTree,
    SwapMove,
    format_tree,
    is_valid,
    parse_tree,
    project,
)
from .flipgraph import (
    ReconfigSequence,
    diameter,
    distance,
    enumerate_all,
    explicit_flip_graph,
    flip_graph_dot,
    shortest_path,
    validate_sequence,
    weighted_distance,
    weighted_length,
    weighted_shortest_path,
)
from .polymatroid import (
    AxiomReport,
    GraphAssocRank,
    RankOracle,
    TableRank,
    check_axioms,
    devadoss_coordinates,
    greedy_extreme_point,
    membership,
    power_sum_inequality,
    verify_realization,
)
from .reductions import (
    BlowupInstance,
    WeightedInstance,
    blowup_tree,
    build_unweighted_instance,
    build_weighted_instance,
    canonicalize_sequence,
    lift_sequence,
    paper_n,
    project_sequence,
    read_bundle,
    sufficiency_sequence,
    threshold,
    write_bundle,
)

__version__ = "0.1.0"
