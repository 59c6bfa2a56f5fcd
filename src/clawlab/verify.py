"""Theorem-level verification campaigns over enumerated graph classes.

Each theorem id binds a graph class (enumeration config plus emission
filters) and a per-graph predicate; a run reports the class size and every
counterexample as (graph6, reason).  In-theorem configurations must come
back empty -- the statements are proved -- while deliberately broken
hypotheses (e.g. forbidding C4 instead of a P5/Z2 subgraph) are expected
to surface the counterexample families.

Two checks have a per-level screen (``_SCREENS``): the perfect-class
check of statements (1) and (2) and the check of Observation 2.  For
them ``verify`` walks ``enumeration.enumerate_levels`` and makes one
``kernels.flag_level`` call per level, which returns the indices of the
classes the check would report; only those get the per-graph check, in
level order.  Almost every class passes, so almost no class becomes a
``Graph``.  The class size, the counterexamples, their order and their
reasons are those of the per-graph check on every class, which every
other campaign runs through ``enumerate_graphs``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

from clawlab import kernels
from clawlab.enumeration import EnumerationConfig, enumerate_graphs, enumerate_levels
from clawlab.graphs import Graph, bitset_of, to_graph6
from clawlab.invariants import _chromatic_from, find_odd_antihole, is_perfect
from clawlab.structure import TheoremViolation, VerdictKind, classify_claw_bull_free, olariu_classify


@dataclass
class VerificationReport:
    theorem: str
    max_n: int
    y: str | None
    class_size: int
    counterexamples: list[tuple[str, str]]
    elapsed: float

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def induced_cycles(g: Graph, min_len: int):
    """All induced cycles of length >= min_len, one orientation each.

    Cycles come out as vertex tuples starting at their least vertex with
    the smaller neighbour second, in the grower's order: the list of
    ``kernels.induced_cycles``, yielded one by one.
    """
    yield from kernels.induced_cycles(g.n, g.adj, min_len, g.n)


def _check_perfect_class(g: Graph):
    reasons = []
    omega = kernels.max_clique(g.n, g.adj).bit_count()
    chi, _ = _chromatic_from(g, omega)
    if chi > omega:
        reasons.append(f"not omega-colourable: chi={chi} > omega={omega}")
    verdict = is_perfect(g, "spgt")
    if not verdict.perfect:
        cert = verdict.certificate
        reasons.append(f"imperfect: {cert.kind} {list(cert.vertices)}")
    return reasons


def _check_spgt(g: Graph):
    spgt = is_perfect(g, "spgt")
    direct = is_perfect(g, "direct")
    if spgt.perfect != direct.perfect:
        return [f"spgt says perfect={spgt.perfect}, direct says perfect={direct.perfect}"]
    return []


def _check_olariu(g: Graph):
    try:
        olariu_classify(g)
    except TheoremViolation as exc:
        return [str(exc)]
    return []


def _check_bull_dichotomy(g: Graph):
    try:
        verdict = classify_claw_bull_free(g)
    except TheoremViolation as exc:
        return [str(exc)]
    if verdict.kind == VerdictKind.OUT_OF_CLASS:
        return [f"unexpected OUT_OF_CLASS ({verdict.violation})"]
    return []


def _check_ben_rebea(g: Graph):
    anti = find_odd_antihole(g)
    if anti is None:
        return []
    if kernels.find_induced_cycle(g.n, g.adj, 5) is None:
        return [f"odd antihole {list(anti)} but no hole of order 5"]
    return []


def _check_c5_free(g: Graph):
    cyc = kernels.find_induced_cycle(g.n, g.adj, 5)
    if cyc is not None:
        return [f"induced C5 {list(cyc)}"]
    return []


def _check_obs2(g: Graph):
    # the kernel lists exactly the pairs of shape OTHER
    pairs = kernels.bad_cycle_neighborhoods(g.n, g.adj)
    return [f"cycle {list(cycle)}, vertex {x}: shape OTHER" for cycle, x in pairs]


def _check_l7_rules(g: Graph):
    reasons = []
    for cycle in induced_cycles(g, 6):
        cmask = bitset_of(cycle)
        outside = [w for w in range(g.n) if not ((cmask >> w) & 1)]
        for i, w in enumerate(outside):
            for w2 in outside[i + 1 :]:
                c = (g.adj[w] & g.adj[w2] & cmask).bit_count()
                adjacent = g.has_edge(w, w2)
                if adjacent != (c >= 2):
                    reasons.append(
                        f"cycle {list(cycle)}: vertices {w},{w2} share {c} cycle"
                        f" neighbours but adjacent={adjacent}"
                    )
    return reasons


# Each theorem's class and per-graph check: (forbidden patterns, None
# standing for the campaign's y; connected only; minimum alpha; odd cycles
# excluded; check).  T1_BRAUSE is T5_ALPHA3 at y = 2K2, a subgraph of P5:
# no connected (claw, 2K2)-free graph with alpha >= 3 is an odd cycle (C7
# and longer hold a 2K2), so the two have the same class and check.
_THEOREMS = {
    "T1_BRAUSE": (("K1_3", "2K2"), True, 3, False, _check_perfect_class),
    "T3_OLARIU": (("Z1",), True, 0, False, _check_olariu),
    "T4_NOALPHA": (("K1_3", None), True, 0, True, _check_perfect_class),
    "T5_ALPHA3": (("K1_3", None), True, 3, True, _check_perfect_class),
    "T6_BULL": (("K1_3", "B"), True, 3, False, _check_bull_dichotomy),
    "L5_BENREBEA": (("K1_3",), True, 3, False, _check_ben_rebea),
    "L6_C5FREE": (("K1_3", "THETA"), True, 3, False, _check_c5_free),
    "OBS2_NEIGHBORHOOD": (("K1_3",), True, 0, False, _check_obs2),
    "SPGT_CROSSCHECK": ((), False, 0, False, _check_spgt),
    "L7_RULES": (("K1_3", "B"), True, 0, False, _check_l7_rules),
}

THEOREM_IDS = tuple(_THEOREMS)

# The checks with a per-level screen: the ``test`` of ``kernels.flag_level``
# that flags exactly the graphs the check reports.
_SCREENS = {_check_perfect_class: 0, _check_obs2: 1}

_NEEDS_Y = frozenset(theorem for theorem, (free, *_) in _THEOREMS.items() if None in free)


def verify(theorem: str, max_n: int, y: str | None = None) -> VerificationReport:
    """Run one verification campaign: the class and check of ``_THEOREMS[theorem]``."""
    theorem = theorem.strip().upper()
    if y is not None:
        y = y.strip().upper()
    if theorem not in THEOREM_IDS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    if theorem in _NEEDS_Y and not y:
        raise ValueError(f"{theorem} requires a forbidden pattern y")
    if theorem not in _NEEDS_Y and y:
        raise ValueError(f"{theorem} takes no forbidden pattern y")
    free, connected, min_alpha, exclude_odd, check = _THEOREMS[theorem]
    config = EnumerationConfig(
        max_n=max_n,
        connected_only=connected,
        free_of=tuple(y if p is None else p for p in free),
        min_alpha=min_alpha,
        exclude_odd_cycles=exclude_odd,
    )
    t0 = time.perf_counter()
    counterexamples: list[tuple[str, str]] = []

    def visitor(g: Graph):
        for reason in check(g):
            counterexamples.append((to_graph6(g), reason))

    test = _SCREENS.get(check)
    if test is None:
        examined = enumerate_graphs(config, visitor)
    else:
        # one kernel call per level; only the flagged classes, in level
        # order, get the per-graph check and its reasons
        examined = 0
        for n, level in enumerate_levels(config):
            examined += len(level)
            for i in kernels.flag_level(n, level, test):
                visitor(Graph.trusted(n, level[i]))
    return VerificationReport(
        theorem=theorem,
        max_n=max_n,
        y=y,
        class_size=examined,
        counterexamples=counterexamples,
        elapsed=time.perf_counter() - t0,
    )


_COLUMNS = ("theorem", "y", "max_n", "class_size", "elapsed", "graph6", "reason")


def _scalars(report: VerificationReport) -> dict:
    """The run's scalars, which every row of its table repeats."""
    return {
        "theorem": report.theorem,
        "y": report.y or "",
        "max_n": report.max_n,
        "class_size": report.class_size,
        "elapsed": round(report.elapsed, 6),
    }


def _sorted_rows(report: VerificationReport):
    # campaigns record canonical copies, so each graph6 string is its own
    # canonical label, and its first byte encodes n
    scalars = _scalars(report)
    return [{**scalars, "graph6": g6, "reason": reason} for g6, reason in sorted(report.counterexamples)]


def _json_rows(report: VerificationReport) -> str:
    """``json.dumps(_sorted_rows(report), indent=2)``, byte for byte, from
    the C string encoder: with an indent, ``json.dumps`` takes json's
    pure-Python encoder, as the C one has none.  The scalars every row
    shares are encoded once; each row adds its graph6 string and reason."""
    if not report.counterexamples:
        return "[]"
    head = "".join(f'    "{key}": {json.dumps(value)},\n' for key, value in _scalars(report).items())
    encode = encode_basestring_ascii
    rows = [
        f'  {{\n{head}    "graph6": {encode(g6)},\n    "reason": {encode(reason)}\n  }}'
        for g6, reason in sorted(report.counterexamples)
    ]
    return "[\n" + ",\n".join(rows) + "\n]"


def report_emit(report: VerificationReport, format: str = "json") -> str:
    """Counterexample table with the run's scalars on every row.

    Empty reports emit "[]" (json) or a header-only table (csv); rows are
    sorted by (n, canonical label).
    """
    if format == "json":
        return _json_rows(report)
    if format == "csv":
        # loaded here: no other path reads them, and importers of this
        # module (the CLI's JSON reports among them) need not load csv
        import csv
        import io

        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(_sorted_rows(report))
        return buf.getvalue()
    raise ValueError(f"unknown report format {format!r}")
