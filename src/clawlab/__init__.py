"""Exact structure, colouring and perfection checks for claw-free graph classes.

The public surface re-exports the main types and operations; see the
individual modules for the algorithms and their determinism guarantees.

``import clawlab`` loads only the graph core: ``graphs``, ``kernels``
(with the compiled ``_augment`` when it is built), ``canon`` and
``patterns``.  The names re-exported from ``invariants``, ``families``,
``structure``, ``enumeration`` and ``verify`` are looked up in ``_LAZY``
by the module ``__getattr__`` (PEP 562), which imports their module on
first access and keeps the value in the package namespace.  Importing a
submodule directly (``import clawlab.cli`` loads every module) works as
for any package.
"""

import importlib

from clawlab.canon import canonical_form, canonical_label, is_isomorphic
from clawlab.graphs import Graph, GraphError, parse_graph6, to_graph6
from clawlab.patterns import (
    NeighborhoodShape,
    classify_cycle_neighborhood,
    find_induced,
    is_free,
    pattern_graph,
)

__version__ = "0.1.0"

# each re-exported name the package loads on first use -> its home module
_LAZY = {
    **dict.fromkeys(
        (
            "InvariantReport",
            "PerfectionVerdict",
            "chromatic_number",
            "clique_number",
            "find_odd_antihole",
            "find_odd_hole",
            "independence_number",
            "invariant_report",
            "is_complete_multipartite",
            "is_omega_colourable",
            "is_perfect",
        ),
        "invariants",
    ),
    **dict.fromkeys(
        ("FamilySpec", "InflationSpec", "build_family", "build_inflation", "verify_family_claims"), "families"
    ),
    **dict.fromkeys(
        ("InflationPartition", "StructureVerdict", "classify_claw_bull_free", "olariu_classify", "recognize_inflation"),
        "structure",
    ),
    **dict.fromkeys(("EnumerationConfig", "enumerate_graphs", "oracle_enumerate"), "enumeration"),
    **dict.fromkeys(("VerificationReport", "report_emit"), "verify"),
}

__all__ = [
    "canonical_form",
    "canonical_label",
    "is_isomorphic",
    "Graph",
    "GraphError",
    "parse_graph6",
    "to_graph6",
    "NeighborhoodShape",
    "classify_cycle_neighborhood",
    "find_induced",
    "is_free",
    "pattern_graph",
    *_LAZY,
]


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
