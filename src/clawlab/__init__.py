"""Exact structure, colouring and perfection checks for claw-free graph classes.

The public surface re-exports the main types and operations; see the
individual modules for the algorithms and their determinism guarantees.
"""

from clawlab.canon import canonical_form, canonical_label, is_isomorphic
from clawlab.graphs import Graph, GraphError, parse_graph6, to_graph6
from clawlab.invariants import (
    InvariantReport,
    PerfectionVerdict,
    chromatic_number,
    clique_number,
    find_odd_antihole,
    find_odd_hole,
    independence_number,
    invariant_report,
    is_complete_multipartite,
    is_omega_colourable,
    is_perfect,
)
from clawlab.families import (
    FamilySpec,
    InflationSpec,
    build_family,
    build_inflation,
    verify_family_claims,
)
from clawlab.patterns import (
    NeighborhoodShape,
    classify_cycle_neighborhood,
    find_induced,
    is_free,
    pattern_graph,
)
from clawlab.structure import (
    InflationPartition,
    StructureVerdict,
    classify_claw_bull_free,
    olariu_classify,
    recognize_inflation,
)
from clawlab.enumeration import EnumerationConfig, enumerate_graphs, oracle_enumerate
from clawlab.verify import VerificationReport, report_emit

__version__ = "0.1.0"
