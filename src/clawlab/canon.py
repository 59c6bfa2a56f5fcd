"""Canonical labelling and isomorphism testing.

The label of a graph is the graph6 string of its canonical copy, so two
graphs are isomorphic exactly when their labels are equal strings.
"""

from __future__ import annotations

from clawlab import kernels
from clawlab.graphs import Graph, to_graph6


def canonical_form(g: Graph) -> Graph:
    """The canonical relabelling of ``g`` (equal for isomorphic inputs)."""
    rows, _ = kernels.canon_form(g.n, g.adj)
    return Graph.trusted(g.n, rows)


def canonical_label(g: Graph) -> str:
    """graph6 string of the canonical copy."""
    return to_graph6(canonical_form(g))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.n_edges() != h.n_edges():
        return False
    return kernels.canon_form(g.n, g.adj)[0] == kernels.canon_form(h.n, h.adj)[0]
