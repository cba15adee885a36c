"""blocklex: exact edge-isoperimetric machinery on Cartesian products.

Compute exact isoperimetric profiles and delta-sequences, construct and
validate monotonic/isoperimetric partitions and domination collections,
build block-lexicographic orders, run the sectional compression calculus,
and mechanically certify d-dimensional order optimality from two-factor
optimality, cross-checked against independent brute-force and downset
oracles.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    VertexSet,
    boundary_edges,
    cartesian_product,
    clique,
    complete_bipartite,
    cycle,
    disjoint_union,
    graph_power,
    induced_edges,
    induced_subgraph,
    parse_graph_spec,
    path,
    permute_factors,
    petersen,
    subproduct,
)
from .budget import (
    BlocklexError,
    Budget,
    BudgetExceeded,
    HypothesisFailed,
    Inconclusive,
    SizeCapExceeded,
    UsageError,
)
from .orders import (
    TotalOrder,
    colex_perm,
    domination_order,
    identity_perm,
    is_consistent,
    lex_order,
    restrict_perm,
    reverse_order,
)
from .solver import (
    FULL_ENUM_CAP,
    ChainSearchInconclusive,
    ChainSearchResult,
    DeltaSequence,
    NoNestedSolutions,
    Profile,
    delta_sequence,
    exact_profile,
    factor_profile_and_order,
    find_nested_chain,
    prefix_edge_counts,
    theta_profile,
    verify_order_optimal,
)
from .partitions import (
    Partition,
    atomic_partition,
    is_non_decreasing,
    is_regular_partition,
    segment_delta,
    segment_delta_shift,
    segment_subgraph,
    standard_monotonic_partition,
    validate_isoperimetric_partition,
)
from .blockgeom import (
    DominationCollection,
    block_lex_order,
    block_of,
    bone,
    skeleton,
    slice_vertices,
    stack,
    standard_block_domination,
    standard_block_lex_order,
    standard_collection,
    start_of,
    uniform_collection,
    validate_regular_domination_collection,
)
from .compression import (
    OrderFamily,
    compress_once,
    compress_to_fixpoint,
    is_block_compressed,
    is_compressed,
    is_slice_compressed,
    is_strongly_compressed,
    strongly_compress,
    weight,
)
from .staircase import count_downsets, downset_profile, enumerate_compressed
from .certify import (
    Certificate,
    ExplorationReport,
    certify,
    certify_domination,
    crosscheck,
    explore_conjecture,
    verify_refutation,
)
