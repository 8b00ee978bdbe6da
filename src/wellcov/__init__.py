"""Deciders and exhaustive verification suites for well-covered graph
structure: W_p membership, criticality, the W-index, and the clique-side
mirror of all three on the complement."""

from .graphs import (
    Blowup,
    EmptySubgraphError,
    Graph,
    Subgraph,
    complement,
    delete_edge,
    edge_localization,
    induced_subgraph,
    lexicographic_product,
)
from .graph6 import Graph6Error, decode, encode, iter_stream
from .families import FamilyGraph, FamilySpec, FAMILY_NAMES, generate
from .independence import (
    IndependenceProfile,
    fiber,
    independence_number,
    is_well_covered,
    profile,
)
from .wp import (
    EdgeLocalizationEntry,
    GorensteinReport,
    OracleSizeError,
    TheoremReport,
    edge_localization_scan,
    gorenstein_combinatorial_check,
    is_alpha_critical_direct,
    is_alpha_critical_fibers,
    is_in_wp_localization,
    is_in_wp_oracle,
    is_in_wp_ridge,
    main_theorem_report,
    non_critical_edge,
    theorem_reports,
    w_index,
    wp_oracle_counterexample,
)
from .saturation import (
    HOLDS,
    HYPOTHESIS_UNMET,
    VIOLATION,
    BoundReport,
    alpha2_check,
    alpha3_check,
    bound_report,
    clique_codegree,
    clique_union_shape,
    is_kt_free,
    is_kt_saturated,
    maximal_clique_sizes_uniform,
    min_clique_codegree,
)
from .verify import (
    SUITE_NAMES,
    CatalogSweep,
    SuiteLine,
    SuiteResult,
    catalog_suite,
    check_graph,
    codec_suite,
    corollary_discrepancies,
    equivalence_discrepancies,
    examples_suite,
    run_suite,
    sweep_catalog,
)

__version__ = "0.1.0"
