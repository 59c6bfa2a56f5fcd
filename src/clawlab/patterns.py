"""Catalog of named small graphs and induced-subgraph testing.

Patterns are addressed by token: the fixed names ``K1_3`` (claw), ``B``
(bull), ``H`` (hourglass), ``D`` (diamond), ``Z1`` (paw), ``Z2`` (hammer),
``THETA`` (5-cap), ``K2_3``, the parametric families ``K<k>``, ``P<k>``,
``C<k>``, ``AH<k>`` (antihole = complement of ``C<k>``), a multiplier for
disjoint copies (``3K1``, ``2K2``), and ``+`` for disjoint unions
(``K1+K3``, ``2K1+K2``).  Pattern graphs are capped at 10 vertices.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache

from clawlab import kernels
from clawlab.graphs import Graph, bitset_of, check_vertex_count

MAX_PATTERN_VERTICES = 10
KERNEL_MAX_PATTERN_VERTICES = 16  # pattern bound of the kernel contract (a C kernel may keep fixed rows)

_FIXED = {
    "K1_3": (4, ((0, 1), (0, 2), (0, 3))),
    "B": (5, ((0, 1), (0, 2), (1, 2), (0, 3), (1, 4))),
    "H": (5, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
    "D": (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
    "Z1": (4, ((0, 1), (0, 2), (1, 2), (0, 3))),
    "Z2": (5, ((0, 1), (0, 2), (1, 2), (0, 3), (3, 4))),
    "THETA": (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 2))),
    "K2_3": (5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
}

_TERM_RE = re.compile(r"^(\d+)?(K1_3|K2_3|AH(\d+)|([KPC])(\d+)|B|H|D|Z1|Z2|THETA)$")


class PatternError(ValueError):
    """Unknown pattern token or parameter out of range."""


def _term_graph(m: re.Match) -> Graph:
    """The graph of one term, multiplier aside, from its ``_TERM_RE`` match."""
    body, antihole, kind, k = m.group(2, 3, 4, 5)
    if body in _FIXED:
        n, edges = _FIXED[body]
        return Graph.from_edges(n, edges)
    k = int(antihole or k)
    if antihole is not None:
        if k < 4:
            raise PatternError(f"antihole needs k >= 4, got {k}")
        kind = "C"
    least = 3 if kind == "C" else 1
    if k < least:
        raise PatternError(f"{kind}{k} needs k >= {least}")
    check_vertex_count(k)  # before an edge list of k vertices is built
    if kind == "K":
        return Graph.from_edges(k, [(u, v) for u in range(k) for v in range(u + 1, k)])
    if kind == "P":
        return Graph.from_edges(k, [(i, i + 1) for i in range(k - 1)])
    cycle = Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])
    return cycle if antihole is None else cycle.complement()


@lru_cache(maxsize=None)
def pattern_graph(token: str) -> Graph:
    """Resolve a pattern token to its graph."""
    token = token.strip().upper()
    if not token:
        raise PatternError("empty pattern token")
    terms = []  # (graph, multiplier); copies are made only under the cap
    for term in token.split("+"):
        term = term.strip()
        m = _TERM_RE.match(term)
        if not m:
            raise PatternError(f"cannot parse pattern term {term!r}")
        mult = int(m.group(1)) if m.group(1) else 1
        if mult < 1:
            raise PatternError(f"multiplier must be positive in {term!r}")
        terms.append((_term_graph(m), mult))
    total = sum(g.n * mult for g, mult in terms)
    if total > MAX_PATTERN_VERTICES:
        raise PatternError(f"pattern {token!r} has {total} vertices (max {MAX_PATTERN_VERTICES})")
    edges = []
    off = 0
    for g, mult in terms:
        for _ in range(mult):
            edges.extend((u + off, v + off) for u, v in g.edge_list())
            off += g.n
    return Graph.from_edges(total, edges)


def _as_graph(pattern) -> Graph:
    p = pattern if isinstance(pattern, Graph) else pattern_graph(pattern)
    if p.n > KERNEL_MAX_PATTERN_VERTICES:
        raise ValueError(f"pattern has {p.n} vertices (max {KERNEL_MAX_PATTERN_VERTICES})")
    return p


def find_induced(g: Graph, pattern) -> tuple[int, ...] | None:
    """Lexicographically least induced embedding of ``pattern`` in ``g``.

    The result maps pattern vertex ``i`` to host vertex ``result[i]``;
    ``None`` when the pattern does not occur.  ``pattern`` may be a token
    or any small Graph.
    """
    p = _as_graph(pattern)
    return kernels.find_induced_embedding(g.n, g.adj, p.n, p.adj)


def has_induced(g: Graph, pattern) -> bool:
    """Existence-only containment test (faster search order than find_induced)."""
    p = _as_graph(pattern)
    return kernels.has_induced(g.n, g.adj, p.n, p.adj)


def is_free(g: Graph, patterns) -> bool:
    """True iff none of the patterns occurs in ``g`` as an induced subgraph."""
    return all(not has_induced(g, p) for p in patterns)


class NeighborhoodShape(Enum):
    """Isomorphism type of the subgraph a cycle cuts out of a neighbourhood."""

    K2 = "K2"
    P3 = "P3"
    P4 = "P4"
    C5 = "C5"
    TWO_K2 = "2K2"
    NONE = "NONE"
    OTHER = "OTHER"


def classify_cycle_neighborhood(g: Graph, cycle, x: int) -> NeighborhoodShape:
    """Isomorphism type of the subgraph induced by ``N(x)`` on a cycle.

    ``cycle`` must induce a cycle of length at least 5 and ``x`` must be a
    vertex of ``g`` outside it (ValueError otherwise).  Returns NONE when
    ``x`` has no neighbour on the cycle and OTHER for shapes outside the
    claw-free repertoire, so the classifier doubles as a falsifier on hosts
    that do contain a claw.  The order of ``cycle`` does not matter.

    The rule (``kernels.neighborhood_shape``), on N = N(x) on the cycle:
    all of the cycle is C5 on five vertices and OTHER on more; |N| > 4, or
    a vertex of N with no neighbour in N, is OTHER; otherwise the ends
    (vertices of N with one neighbour in N) decide: two ends give K2, P3 or
    P4 by |N|, four give 2K2.
    """
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} outside 0..{g.n - 1}")
    cset = set(cycle)
    if x in cset:
        raise ValueError(f"vertex {x} lies on the cycle")
    if len(cset) < 5 or not g.induced(cset).is_cycle():
        raise ValueError("vertex set does not induce a cycle of length >= 5")
    cmask = bitset_of(cset)
    return NeighborhoodShape(kernels.neighborhood_shape(g.adj, cmask, len(cset), g.adj[x] & cmask))
