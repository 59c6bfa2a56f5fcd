"""Inflation-of-cycle recognition and the structural classifiers.

Recognition follows the characterisation proof: fix an induced cycle, sort
every outside vertex into a part by the three consecutive cycle vertices it
must see, then re-validate the two inflation adjacency rules from scratch.
In a genuine inflation every induced cycle of length >= 4 has the base
length and any one of them works as the spine, so the first one the cycle
grower meets is enough.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

from clawlab import kernels
from clawlab.graphs import Graph, bitset_of, vertices_of
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


def find_long_induced_cycle(g: Graph, min_len: int) -> tuple[int, ...] | None:
    """Longest induced cycle of length >= min_len, the lexicographically
    least of its length (one grower pass keeps the first cycle of each new
    maximum length), or None."""
    if min_len < 4:
        raise ValueError("min_len must be at least 4")
    longest = None

    def visit(cycle):
        nonlocal longest
        if longest is None or len(cycle) > len(longest):
            longest = cycle

    kernels.induced_cycles(g.n, g.adj, min_len, g.n, visit)
    return longest


def validate_inflation(g: Graph, parts) -> bool:
    """Re-check the two inflation adjacency rules verbatim."""
    k = len(parts)
    if k < 4:
        return False
    if sorted(v for p in parts for v in p) != list(range(g.n)):
        return False
    masks = [bitset_of(p) for p in parts]
    for i in range(k):
        for j in range(i + 1, k):
            both = list(parts[i]) + list(parts[j])
            complete = all(g.has_edge(u, v) for u, v in itertools.combinations(both, 2))
            if j - i == 1 or j - i == k - 1:
                if not complete:
                    return False
            else:
                # two cliques, no cross edges
                if any((g.adj[u] & masks[j]) for u in parts[i]):
                    return False
                for pp in (parts[i], parts[j]):
                    if not all(g.has_edge(u, v) for u, v in itertools.combinations(pp, 2)):
                        return False
    return True


def _parts_from_spine(g: Graph, cycle) -> tuple[tuple[int, ...], ...] | None:
    """Assign every vertex off the spine to the part of the middle cycle
    vertex among the three consecutive ones it neighbours; None if some
    vertex does not fit that shape."""
    k = len(cycle)
    pos = {v: i for i, v in enumerate(cycle)}
    cmask = bitset_of(cycle)
    parts = [[v] for v in cycle]
    for w in range(g.n):
        if w in pos:
            continue
        nb = [pos[v] for v in vertices_of(g.adj[w] & cmask)]
        if len(nb) != 3:
            return None
        # positions must be i, i+1, i+2 cyclically; the middle one owns w
        mid = None
        for i in nb:
            if (i - 1) % k in nb and (i + 1) % k in nb:
                mid = i
                break
        if mid is None:
            return None
        parts[mid].append(w)
    return tuple(tuple(sorted(p)) for p in parts)


def _normalise(g: Graph, parts) -> InflationPartition:
    """Rotate/reflect so the part containing vertex 0 comes first, then pick
    the lexicographically smaller direction."""
    k = len(parts)
    start = next(i for i, p in enumerate(parts) if 0 in p)
    forward = tuple(parts[(start + t) % k] for t in range(k))
    backward = tuple(parts[(start - t) % k] for t in range(k))
    return InflationPartition(k, min(forward, backward))


def recognize_inflation(g: Graph) -> InflationPartition | None:
    """Recover the cycle-inflation structure of ``g``, or None.

    In an inflation of C_k (k >= 4) the parts are cliques of adjacent twins,
    so an induced cycle of length >= 4 meets each part at most once and,
    the parts lying around C_k, meets every part: each such cycle has length
    k and serves as a spine, and the first one the cycle grower meets is
    taken.  A graph that is no inflation fails the re-validation whatever
    spine it gets.
    """
    spine = []
    kernels.induced_cycles(g.n, g.adj, 4, g.n, lambda cycle: spine.append(cycle) or True)
    if not spine:
        return None
    parts = _parts_from_spine(g, spine[0])
    if parts is None or not validate_inflation(g, parts):
        return None
    return _normalise(g, parts)


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
