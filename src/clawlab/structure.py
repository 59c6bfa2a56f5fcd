"""Inflation-of-cycle recognition and the structural classifiers.

An inflation of C_k (k >= 4) is read off its true-twin classes (vertices
with equal closed neighbourhoods): those classes are its parts, and a
graph whose classes lie around a cycle is that cycle's inflation, so
recognition is one walk over the classes with no cycle search
(``recognize_inflation`` gives the argument).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from clawlab.graphs import Graph, row_classes, vertices_of
from clawlab.invariants import PerfectionVerdict, independence_number, is_complete_multipartite, is_perfect
from clawlab.patterns import find_induced, has_induced


class TheoremViolation(AssertionError):
    """A machine-checked theorem failed on a concrete graph."""


@dataclass(frozen=True)
class InflationPartition:
    k: int
    parts: tuple[tuple[int, ...], ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)


class VerdictKind(Enum):
    PERFECT = "PERFECT"
    ODD_CYCLE_INFLATION = "ODD_CYCLE_INFLATION"
    OUT_OF_CLASS = "OUT_OF_CLASS"


@dataclass(frozen=True)
class StructureVerdict:
    kind: VerdictKind
    perfection: PerfectionVerdict | None = None
    partition: InflationPartition | None = None
    violation: str | None = None
    witness: tuple[int, ...] | None = None


def _normalise(parts) -> InflationPartition:
    """Rotate/reflect so the part containing vertex 0 comes first, then pick
    the lexicographically smaller direction."""
    k = len(parts)
    start = next(i for i, p in enumerate(parts) if 0 in p)
    forward = tuple(parts[(start + t) % k] for t in range(k))
    backward = tuple(parts[(start - t) % k] for t in range(k))
    return InflationPartition(k, min(forward, backward))


def recognize_inflation(g: Graph) -> InflationPartition | None:
    """Recover the cycle-inflation structure of ``g``, or None.

    The parts of an inflation of C_k (k >= 4) are its true-twin classes: a
    vertex of part i has closed neighbourhood P(i-1) | P(i) | P(i+1), and
    for k >= 4 these unions differ for different i.  Conversely two
    true-twin classes are cliques joined completely or not at all, so if
    the classes lie around a cycle, each meeting exactly two others, the
    graph is that cycle's inflation.  The cycle has length at least 4: on
    three classes pairwise joined every vertex would have the same closed
    neighbourhood.  So the classes are walked from the class of vertex 0,
    and the answer is None unless each class met has exactly two
    neighbouring classes and the walk closes over all the vertices.
    """
    if g.n == 0:
        return None
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    members = row_classes(closed)

    def part_of(mask):
        return members[closed[(mask & -mask).bit_length() - 1]]

    parts, prev = [part_of(1)], 0
    while True:
        cur = parts[-1]
        around = closed[(cur & -cur).bit_length() - 1] & ~cur
        one = part_of(around) if around else 0
        other = around & ~one
        if not other or other != part_of(other):
            return None
        nxt = other if one == prev else one
        if nxt == parts[0]:
            break
        prev = cur
        parts.append(nxt)
    if sum(p.bit_count() for p in parts) != g.n:
        return None
    return _normalise(tuple(vertices_of(p) for p in parts))


def classify_claw_bull_free(g: Graph) -> StructureVerdict:
    """Dichotomy for connected claw- and bull-free graphs with independence
    number at least 3: perfect, or an inflation of an odd cycle of length
    at least 7.  Inputs outside the class come back OUT_OF_CLASS with a
    witness; an in-class graph fitting neither branch raises."""
    if not g.is_connected():
        raise ValueError("classifier requires a connected graph")
    emb = find_induced(g, "K1_3")
    if emb is not None:
        return StructureVerdict(VerdictKind.OUT_OF_CLASS, violation="claw", witness=emb)
    emb = find_induced(g, "B")
    if emb is not None:
        return StructureVerdict(VerdictKind.OUT_OF_CLASS, violation="bull", witness=emb)
    alpha, witness = independence_number(g)
    if alpha <= 2:
        return StructureVerdict(VerdictKind.OUT_OF_CLASS, violation="independence", witness=witness)
    verdict = is_perfect(g, "spgt")
    if verdict.perfect:
        return StructureVerdict(VerdictKind.PERFECT, perfection=verdict)
    partition = recognize_inflation(g)
    if partition is not None and partition.k >= 7 and partition.k % 2 == 1:
        return StructureVerdict(VerdictKind.ODD_CYCLE_INFLATION, partition=partition)
    raise TheoremViolation(
        f"imperfect claw/bull-free graph with alpha>=3 is not an odd-cycle inflation: {g!r}"
    )


class OlariuKind(Enum):
    HAS_PAW = "HAS_PAW"
    TRIANGLE_FREE = "TRIANGLE_FREE"
    COMPLETE_MULTIPARTITE = "COMPLETE_MULTIPARTITE"


@dataclass(frozen=True)
class OlariuVerdict:
    kind: OlariuKind
    embedding: tuple[int, ...] | None = None
    parts: tuple[tuple[int, ...], ...] | None = None


def olariu_classify(g: Graph) -> OlariuVerdict:
    """Connected paw-free graphs are triangle-free or complete multipartite."""
    if not g.is_connected():
        raise ValueError("classifier requires a connected graph")
    emb = find_induced(g, "Z1")
    if emb is not None:
        return OlariuVerdict(OlariuKind.HAS_PAW, embedding=emb)
    parts = is_complete_multipartite(g)
    if parts is not None:
        return OlariuVerdict(OlariuKind.COMPLETE_MULTIPARTITE, parts=parts)
    if not has_induced(g, "K3"):
        return OlariuVerdict(OlariuKind.TRIANGLE_FREE)
    raise TheoremViolation(f"paw-free graph neither triangle-free nor complete multipartite: {g!r}")
