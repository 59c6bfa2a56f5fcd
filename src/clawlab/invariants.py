"""Exact invariants with witnesses, and perfection with certificates.

Clique number is exact branch-and-bound, chromatic number is iterative
deepening on exact k-colourability seeded by the clique lower bound, and
all witnesses are deterministic (see the kernels for the search orders).
Perfection is decided two ways: via the odd-hole/odd-antihole criterion
("spgt") and by checking chi = omega on every induced subgraph ("direct");
both return re-checkable certificates when the graph is imperfect.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from clawlab import kernels
from clawlab.graphs import Graph, bitset_of, row_classes, spans, vertices_of

DIRECT_MAX_VERTICES = 14


@dataclass(frozen=True)
class InvariantReport:
    omega: int
    alpha: int
    chi: int
    max_degree: int
    clique: tuple[int, ...]
    independent: tuple[int, ...]
    coloring: tuple[int, ...]


@dataclass(frozen=True)
class Certificate:
    """Evidence of imperfection; ``kind`` is odd_hole, odd_antihole or chi_gt_omega."""

    kind: str
    vertices: tuple[int, ...]


@dataclass(frozen=True)
class PerfectionVerdict:
    perfect: bool
    method: str  # "spgt" or "direct"
    certificate: Certificate | None


def clique_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with a maximum-clique witness."""
    mask = kernels.max_clique(g.n, g.adj)
    return mask.bit_count(), vertices_of(mask)


def independence_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number: clique number of the complement, whose
    rows the kernel builds, with no complement ``Graph``."""
    mask = kernels.max_clique(g.n, g.adj, True)
    return mask.bit_count(), vertices_of(mask)


def chromatic_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a proper colouring witness."""
    return _chromatic_from(g, kernels.max_clique(g.n, g.adj).bit_count())


def _chromatic_from(g: Graph, lb: int) -> tuple[int, tuple[int, ...]]:
    """``chromatic_number`` given a lower bound ``lb`` on chi, such as the
    clique number a caller already has: the first k >= lb that colours."""
    for k in range(lb, g.n + 1):
        col = kernels.color_with(g.n, g.adj, k)
        if col is not None:
            return k, col
    raise AssertionError("unreachable: n colours always suffice")


def is_omega_colourable(g: Graph) -> bool:
    """chi(g) == omega(g) for the graph itself (not hereditary)."""
    omega = kernels.max_clique(g.n, g.adj).bit_count()
    return kernels.color_with(g.n, g.adj, omega) is not None


def invariant_report(g: Graph) -> InvariantReport:
    omega, clique = clique_number(g)
    alpha, independent = independence_number(g)
    chi, coloring = _chromatic_from(g, omega)
    return InvariantReport(
        omega=omega,
        alpha=alpha,
        chi=chi,
        max_degree=g.max_degree(),
        clique=clique,
        independent=independent,
        coloring=coloring,
    )


def find_odd_hole(g: Graph) -> tuple[int, ...] | None:
    """Shortest odd chordless cycle of length >= 5, lexicographically least:
    one pass of the cycle grower (``kernels.odd_hole``, which proves it)."""
    return kernels.odd_hole(g.n, g.adj, False)


def find_odd_antihole(g: Graph) -> tuple[int, ...] | None:
    """Odd hole of the complement, as a vertex sequence of g.

    The returned vertices induce a chordless odd cycle of length >= 5 in the
    complement; a C5 reports itself (it is its own antihole).  The kernel
    builds the complement's rows, with no complement ``Graph``.
    """
    return kernels.odd_hole(g.n, g.adj, True)


# the verdict of every perfect graph under "spgt"; frozen, so one is shared
_SPGT_PERFECT = PerfectionVerdict(True, "spgt", None)


def is_perfect(g: Graph, method: str = "spgt") -> PerfectionVerdict:
    """Perfection verdict with a certificate when imperfect.

    ``spgt`` searches for an odd hole, then an odd antihole (through
    ``find_odd_hole`` and ``find_odd_antihole``, one pass of the cycle
    grower each), and gives every perfect graph one shared verdict.
    ``direct`` (only for n <= 14) scans connected induced subgraphs on >= 5
    vertices for chi > omega; smaller or disconnected subgraphs can never
    be the smallest violators.  Each vertex subset is tested for
    connectivity on its bitmask, and a connected one is tested on the rows
    of ``g`` masked to it: the other vertices stay, isolated, which changes
    neither omega nor omega-colourability.
    """
    method = method.lower()
    if method == "spgt":
        hole = find_odd_hole(g)
        if hole is not None:
            return PerfectionVerdict(False, "spgt", Certificate("odd_hole", hole))
        anti = find_odd_antihole(g)
        if anti is not None:
            return PerfectionVerdict(False, "spgt", Certificate("odd_antihole", anti))
        return _SPGT_PERFECT
    if method == "direct":
        if g.n > DIRECT_MAX_VERTICES:
            raise ValueError(f"direct perfection test limited to n <= {DIRECT_MAX_VERTICES}")
        for size in range(5, g.n + 1):
            for sub in itertools.combinations(range(g.n), size):
                keep = bitset_of(sub)
                if not spans(g.adj, keep):
                    continue
                rows = [row & keep if keep >> v & 1 else 0 for v, row in enumerate(g.adj)]
                omega = kernels.max_clique(g.n, rows).bit_count()
                if kernels.color_with(g.n, rows, omega) is None:
                    return PerfectionVerdict(False, "direct", Certificate("chi_gt_omega", sub))
        return PerfectionVerdict(True, "direct", None)
    raise ValueError(f"unknown perfection method {method!r}")


def is_complete_multipartite(g: Graph) -> tuple[tuple[int, ...], ...] | None:
    """Partition into independent parts with all cross edges, ordered by
    least vertex, or None.

    A graph is complete multipartite exactly when every u in M(v) = V - N(v)
    has the row of v, and then the parts are the distinct M(v).  A vertex
    with the row of v is never joined to v, so it lies in M(v): the rule
    says that M(v) is exactly the group of vertices sharing the row of v,
    and that is checked one group at a time.
    """
    full = (1 << g.n) - 1
    groups = row_classes(g.adj)
    if any(members != full & ~row for row, members in groups.items()):
        return None
    return tuple(vertices_of(members) for members in groups.values())
