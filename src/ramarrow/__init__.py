"""Ramsey arrowing search and deletion-critical Ramsey numbers on small graphs."""

from .graphs import (
    Graph,
    GraphStats,
    SpecError,
    Graph6Error,
    Complete,
    Path,
    Star,
    Book,
    Fan,
    Matching,
    Empty,
    Join,
    Union,
    Copies,
    Minus,
    parse_spec,
    spec_to_text,
    spec_order,
    realize,
    graph6_encode,
    graph6_decode,
    stats,
    longest_path_order,
)
from .coloring import RED, BLUE, Coloring, monochromatic_subgraph, colored_degree
from .containment import (
    CopyCapError,
    Generic,
    TargetKind,
    target_from_spec,
    target_to_spec,
    contains_target,
    copy_through,
    enumerate_copies,
    max_matching_size,
    max_clique_size,
)
from .arrowing import (
    ArrowingResult,
    SearchStats,
    DeletionFamily,
    IndeterminateError,
    NotFoundWithinBoundError,
    arrows,
    all_free_colorings,
    ramsey_number,
    critical_number,
    export_dimacs,
    result_to_json,
)
from .formulas import (
    ChromaticData,
    KnownValue,
    HypothesisError,
    chromatic_number,
    chromatic_surplus,
    chromatic_data,
    burr_bound,
    is_ramsey_good,
    path_critical_upper_bound,
    known_ramsey,
    closed_form_path_critical,
    compare_with_catalog,
)
from .constructions import (
    WitnessReport,
    block_coloring_witness,
    odd_clique_pair,
    enumerate_free_colorings,
    canonical_coloring_key,
    witness_payload,
)

__version__ = "0.1.0"
