"""Constructors for the five counterexample families and cycle inflations.

Each family F0..F4 is built literally from its edge description and returns
a label map from textual vertex names (u1, x2, x1^3, z, ...) to indices, so
tests can point at the exact vertices the construction talks about.  The
claim verifier re-derives every structural claim made about a family member
(connectivity, freeness lists, omega/chi values, independence witnesses)
with the exact solvers and raises on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from clawlab.graphs import Graph, MAX_VERTICES
from clawlab.invariants import _chromatic_from, clique_number
from clawlab.patterns import has_induced, is_free

CLAIM_MAX_VERTICES = 40

FAMILY_MIN_S = {"F0": 1, "F1": 3, "F2": 2, "F3": 1, "F4": 3}

# each member's vertex count is k * s + c, as (k, c)
FAMILY_ORDER = {"F0": (1, 5), "F1": (3, 1), "F2": (2, 5), "F3": (9, 1), "F4": (3, 3)}

# freeness lists asserted for each family (F4 additionally needs s odd)
FAMILY_FREE_OF = {
    "F0": ("3K1", "2K2", "K1+K3"),
    "F1": ("K1_3", "B", "K4", "C4", "C5", "C6"),
    "F2": ("K1_3", "H"),
    "F3": ("K1_3", "D"),
    "F4": ("K1_3", "4K1", "2K1+K2", "K2+K3"),
}


class FamilyError(ValueError):
    """Family parameter out of range."""


class ClaimError(AssertionError):
    """A verified structural claim about a family member failed."""


@dataclass(frozen=True)
class FamilySpec:
    family: str
    s: int

    def __post_init__(self):
        if self.family not in FAMILY_MIN_S:
            raise FamilyError(f"unknown family {self.family!r}")
        if self.s < FAMILY_MIN_S[self.family]:
            raise FamilyError(f"{self.family} needs s >= {FAMILY_MIN_S[self.family]}")
        if self.family == "F4" and self.s % 2 == 0:
            raise FamilyError("F4 needs odd s")
        if self.n > MAX_VERTICES:
            raise FamilyError(f"{self.family} with s = {self.s} has {self.n} vertices, beyond capacity {MAX_VERTICES}")

    @property
    def n(self) -> int:
        """The member's vertex count."""
        k, c = FAMILY_ORDER[self.family]
        return k * self.s + c


@dataclass(frozen=True)
class InflationSpec:
    sizes: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(self.sizes))
        if len(self.sizes) < 4:
            raise FamilyError("inflation needs cycle length k >= 4")
        if any(s < 1 for s in self.sizes):
            raise FamilyError("all inflation part sizes must be >= 1")
        if sum(self.sizes) > MAX_VERTICES:
            raise FamilyError(f"inflation on {sum(self.sizes)} vertices exceeds capacity")

    @property
    def k(self) -> int:
        return len(self.sizes)


def _cycle_edges(names):
    return [(names[i], names[(i + 1) % len(names)]) for i in range(len(names))]


def build_family(spec: FamilySpec) -> tuple[Graph, dict[str, int]]:
    """Construct the family member and its vertex label map."""
    s = spec.s
    if spec.family == "F0":
        # C5 fully joined to a K_s; equivalently the complement of sK1 + C5
        labels = {f"u{i}": i - 1 for i in range(1, 6)}
        labels.update({f"x{i}": 4 + i for i in range(1, s + 1)})
        edges = _cycle_edges([labels[f"u{i}"] for i in range(1, 6)])
        xs = [labels[f"x{i}"] for i in range(1, s + 1)]
        edges += [(a, b) for i, a in enumerate(xs) for b in xs[i + 1 :]]
        edges += [(labels[f"u{i}"], x) for i in range(1, 6) for x in xs]
        return Graph.from_edges(spec.n, edges), labels

    if spec.family == "F1":
        # odd cycle C_{2s+1} plus s vertices, x_i adjacent to u_{2i-1}, u_{2i}, u_{2i+1}
        m = 2 * s + 1
        labels = {f"u{i}": i - 1 for i in range(1, m + 1)}
        labels.update({f"x{i}": m + i - 1 for i in range(1, s + 1)})
        edges = _cycle_edges([labels[f"u{i}"] for i in range(1, m + 1)])
        for i in range(1, s + 1):
            x = labels[f"x{i}"]
            edges += [(x, labels[f"u{2 * i - 1}"]), (x, labels[f"u{2 * i}"]), (x, labels[f"u{2 * i + 1}"])]
        return Graph.from_edges(spec.n, edges), labels

    if spec.family == "F2":
        # C_{2s+1} and C5 glued at u2=x2, u3=x3, plus a hub z over the C5 and
        # the two bridging edges x1u1, x4u4
        m = 2 * s + 1
        labels = {f"u{i}": i - 1 for i in range(1, m + 1)}
        labels["x1"] = m
        labels["x2"] = labels["u2"]
        labels["x3"] = labels["u3"]
        labels["x4"] = m + 1
        labels["x5"] = m + 2
        labels["z"] = m + 3
        edges = _cycle_edges([labels[f"u{i}"] for i in range(1, m + 1)])
        edges += _cycle_edges([labels[f"x{i}"] for i in range(1, 6)])
        edges += [(labels["z"], labels[f"x{i}"]) for i in range(1, 6)]
        edges += [(labels["x1"], labels["u1"]), (labels["x4"], labels["u4"])]
        return Graph.from_edges(spec.n, edges), labels

    if spec.family == "F3":
        # C_{6s+1} plus triples x1^i, x2^i, x3^i, each adjacent to four cycle
        # vertices in the window around u_{6i-3}
        m = 6 * s + 1
        labels = {f"u{i}": i - 1 for i in range(1, m + 1)}
        for i in range(1, s + 1):
            for j in range(1, 4):
                labels[f"x{j}^{i}"] = m + 3 * (i - 1) + j - 1
        edges = _cycle_edges([labels[f"u{i}"] for i in range(1, m + 1)])
        for i in range(1, s + 1):
            b = 6 * i
            attach = {1: (b - 5, b - 4, b - 2, b - 1), 2: (b - 4, b - 3, b - 1, b), 3: (b - 3, b - 2, b, b + 1)}
            for j in range(1, 4):
                x = labels[f"x{j}^{i}"]
                edges += [(x, labels[f"u{t}"]) for t in attach[j]]
        return Graph.from_edges(spec.n, edges), labels

    # F4: defined through its complement, an odd C_{3s} plus a triangle
    # x1x2x3 with x_j matched to every third cycle vertex
    m = 3 * s
    labels = {f"u{i}": i - 1 for i in range(1, m + 1)}
    labels.update({f"x{j}": m + j - 1 for j in range(1, 4)})
    edges = _cycle_edges([labels[f"u{i}"] for i in range(1, m + 1)])
    edges += _cycle_edges([labels[f"x{j}"] for j in range(1, 4)])
    for i in range(1, s + 1):
        edges += [
            (labels["x1"], labels[f"u{3 * i - 2}"]),
            (labels["x2"], labels[f"u{3 * i - 1}"]),
            (labels["x3"], labels[f"u{3 * i}"]),
        ]
    return Graph.from_edges(spec.n, edges).complement(), labels


def build_inflation(spec: InflationSpec) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Inflate a cycle: part i is a clique, consecutive parts fully joined.

    Parts occupy consecutive vertex ranges in order; returns the graph and
    the parts as vertex tuples.
    """
    k = spec.k
    starts = [0]
    for size in spec.sizes:
        starts.append(starts[-1] + size)
    parts = tuple(tuple(range(starts[i], starts[i + 1])) for i in range(k))
    edges = []
    for i in range(k):
        pi = parts[i]
        edges += [(a, b) for ai, a in enumerate(pi) for b in pi[ai + 1 :]]
        pj = parts[(i + 1) % k]
        edges += [(a, b) for a in pi for b in pj]
    return Graph.from_edges(starts[-1], edges), parts


@dataclass
class ClaimReport:
    spec: FamilySpec
    n: int
    omega: int
    chi: int
    checks: list[tuple[str, bool]] = field(default_factory=list)

    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


def _expected_values(spec: FamilySpec, omega: int, chi: int) -> list[tuple[str, bool]]:
    s = spec.s
    if spec.family == "F0":
        return [(f"omega == s+2 == {s + 2}", omega == s + 2), (f"chi == s+3 == {s + 3}", chi == s + 3)]
    if spec.family in ("F1", "F2", "F3"):
        return [("omega == 3", omega == 3), ("chi > 3", chi > 3)]
    lo = (3 * s - 1) // 2
    hi = (3 * s + 3) // 2
    return [(f"omega == (3s-1)/2 == {lo}", omega == lo), (f"chi >= (3s+3)/2 == {hi}", chi >= hi)]


def _named_independent_set(spec: FamilySpec, labels) -> tuple[int, ...] | None:
    if spec.family in ("F1", "F3"):
        return tuple(labels[v] for v in ("u1", "u3", "u5"))
    if spec.family == "F2":
        return tuple(labels[v] for v in ("u1", "u3", "x5"))
    if spec.family == "F4":
        return tuple(labels[v] for v in ("x1", "x2", "x3"))
    return None


def verify_family_claims(spec: FamilySpec) -> ClaimReport:
    """Check every structural claim for one family member; raise on failure."""
    if spec.n > CLAIM_MAX_VERTICES:
        raise FamilyError(f"claim verification capped at {CLAIM_MAX_VERTICES} vertices, got {spec.n}")
    g, labels = build_family(spec)
    omega, _ = clique_number(g)
    chi, _ = _chromatic_from(g, omega)
    report = ClaimReport(spec=spec, n=g.n, omega=omega, chi=chi)
    checks = report.checks

    checks.append(("connected", g.is_connected()))
    checks.append(("not an odd cycle", not (g.n % 2 == 1 and g.is_cycle())))
    checks.append((f"chi > omega ({chi} > {omega})", chi > omega))
    free = FAMILY_FREE_OF[spec.family]
    checks.append((f"({', '.join(free)})-free", is_free(g, free)))
    witness = _named_independent_set(spec, labels)
    if witness is not None:
        independent = all(not g.has_edge(u, v) for i, u in enumerate(witness) for v in witness[i + 1 :])
        checks.append((f"independent witness {witness}", independent))
    checks.extend(_expected_values(spec, omega, chi))
    if spec.family == "F2":
        f10, _ = build_family(FamilySpec("F0", 1))
        checks.append(("contains F0(s=1) induced", has_induced(g, f10)))

    if not report.ok():
        failed = [name for name, passed in report.checks if not passed]
        raise ClaimError(f"{spec.family} s={spec.s}: failed claims: {failed}")
    return report
