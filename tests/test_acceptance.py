"""Acceptance suite: one test per criterion, exact values, pinned budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines.  The runtime budgets are generous ceilings for the
pure-Python kernels, not targets.
"""

import random
import time

from clawlab.canon import is_isomorphic
from clawlab.enumeration import EnumerationConfig, enumerate_graphs
from clawlab.families import (
    FamilySpec,
    InflationSpec,
    build_family,
    build_inflation,
    verify_family_claims,
)
from clawlab.graphs import parse_graph6, to_graph6
from clawlab.invariants import chromatic_number, clique_number, is_perfect
from clawlab.patterns import is_free
from clawlab.structure import recognize_inflation
from clawlab.verify import verify
from conftest import catalog_labels

FAMILY_RANGES = [("F0", (1, 2, 3, 4)), ("F1", (3, 4, 5)), ("F2", (2, 3)), ("F3", (1, 2, 3)), ("F4", (3, 5))]


def _ok(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def test_criterion_1_family_values():
    """Exact omega/chi for every family member in the tested ranges."""
    t0 = time.perf_counter()
    for s in (1, 2, 3, 4):
        g, _ = build_family(FamilySpec("F0", s))
        assert clique_number(g)[0] == s + 2
        assert chromatic_number(g)[0] == s + 3
    for s in (3, 4, 5):
        g, _ = build_family(FamilySpec("F1", s))
        assert clique_number(g)[0] == 3
        assert chromatic_number(g)[0] == 4
    for s in (2, 3):
        g, _ = build_family(FamilySpec("F2", s))
        assert clique_number(g)[0] == 3
        assert chromatic_number(g)[0] >= 4
    for s in (1, 2, 3):
        g, _ = build_family(FamilySpec("F3", s))
        assert clique_number(g)[0] == 3
        assert chromatic_number(g)[0] > 3
    for s in (3, 5):
        g, _ = build_family(FamilySpec("F4", s))
        assert clique_number(g)[0] == (3 * s - 1) // 2
        assert chromatic_number(g)[0] >= (3 * s + 3) // 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(1, f"family omega/chi values exact in {elapsed:.2f}s (< 60s)")


def test_criterion_2_family_claims():
    """All structural claims, including the named independence witnesses."""
    t0 = time.perf_counter()
    for family, srange in FAMILY_RANGES:
        for s in srange:
            report = verify_family_claims(FamilySpec(family, s))
            assert report.ok()
    # the named Lemma 3 witnesses are part of the claim checks; spot-check
    # the three quoted sets explicitly
    g, lab = build_family(FamilySpec("F1", 3))
    for a in ("u1", "u3", "u5"):
        for b in ("u1", "u3", "u5"):
            assert a == b or not g.has_edge(lab[a], lab[b])
    g, lab = build_family(FamilySpec("F2", 2))
    for a, b in (("u1", "u3"), ("u1", "x5"), ("u3", "x5")):
        assert not g.has_edge(lab[a], lab[b])
    g, lab = build_family(FamilySpec("F4", 3))
    for a, b in (("x1", "x2"), ("x1", "x3"), ("x2", "x3")):
        assert not g.has_edge(lab[a], lab[b])
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(2, f"freeness/witness claims for all 14 family members in {elapsed:.2f}s (< 60s)")


def test_criterion_3_spgt_crosscheck(oracle7):
    """SPGT verdict == definitional verdict on every class with <= 7 vertices."""
    t0 = time.perf_counter()
    counts = {n: len(gs) for n, gs in oracle7.items()}
    assert counts == {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    checked = 0
    for n in range(1, 8):
        for g in oracle7[n]:
            assert is_perfect(g, "spgt").perfect == is_perfect(g, "direct").perfect
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _ok(3, f"SPGT == DIRECT on all {checked} classes (1044 at n=7) in {elapsed:.1f}s (< 10min)")


def test_criterion_4_theorem5_desk_scale():
    """Zero imperfect and zero non-omega-colourable graphs in each class."""
    t0 = time.perf_counter()
    sizes = {}
    for y in ("P5", "Z2", "P4", "Z1", "2K2"):
        report = verify("T5_ALPHA3", 9, y)
        assert report.ok, (y, report.counterexamples[:3])
        sizes[y] = report.class_size
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _ok(4, f"T5 clean for Y in P5/Z2/P4/Z1/2K2 at n<=9, class sizes {sizes}, {elapsed:.1f}s (< 30min)")


def test_criterion_5_theorem4_counterexample_hunt():
    t0 = time.perf_counter()
    report = verify("T4_NOALPHA", 6, "C4")
    assert len(report.counterexamples) >= 1
    f10, _ = build_family(FamilySpec("F0", 1))
    assert any(is_isomorphic(parse_graph6(g6), f10) for g6, _ in report.counterexamples)
    for y in ("P4", "Z1"):
        assert verify("T4_NOALPHA", 8, y).ok
    elapsed = time.perf_counter() - t0
    _ok(5, f"T4: C4 hunt finds F0(s=1) at n<=6; P4/Z1 clean at n<=8 ({elapsed:.1f}s)")


def test_criterion_6_theorem6_dichotomy():
    t0 = time.perf_counter()
    report = verify("T6_BULL", 9)
    assert report.ok, report.counterexamples[:3]
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800.0
    _ok(6, f"T6 dichotomy on {report.class_size} in-class graphs at n<=9 in {elapsed:.1f}s (< 30min)")


def test_criterion_7_lemma_suites():
    t0 = time.perf_counter()
    sizes = {}
    for theorem, max_n in (
        ("L6_C5FREE", 9),
        ("L5_BENREBEA", 9),
        ("OBS2_NEIGHBORHOOD", 9),
        ("T3_OLARIU", 8),
    ):
        report = verify(theorem, max_n)
        assert report.ok, (theorem, report.counterexamples[:3])
        sizes[theorem] = report.class_size
    elapsed = time.perf_counter() - t0
    _ok(7, f"L6/L5/Obs2 at n<=9 and T3 at n<=8 all clean, class sizes {sizes}, {elapsed:.1f}s")


def test_criterion_8_inflation_roundtrip():
    t0 = time.perf_counter()
    rng = random.Random(20260810)
    passed = 0
    for _ in range(500):
        k = rng.randrange(4, 12)
        total = rng.randrange(k, 25)
        sizes = [1] * k
        for _ in range(total - k):
            sizes[rng.randrange(k)] += 1
        g, _ = build_inflation(InflationSpec(tuple(sizes)))
        part = recognize_inflation(g)
        assert part is not None and part.k == k
        rots = [tuple(sizes[(i + t) % k] for i in range(k)) for t in range(k)]
        assert part.sizes in set(rots) | {tuple(r[::-1]) for r in rots}
        passed += 1
    elapsed = time.perf_counter() - t0
    assert passed == 500
    _ok(8, f"500/500 inflation round-trips (4<=k<=11, sum<=24) in {elapsed:.1f}s")


def test_criterion_9_enumeration_vs_oracle(oracle7):
    t0 = time.perf_counter()
    labels = catalog_labels(oracle7)

    def run(config, keep):
        per_n = {n: set() for n in range(1, 8)}
        enumerate_graphs(config, lambda g: per_n[g.n].add(to_graph6(g)))
        want = {n: {to_graph6(g) for g in oracle7[n] if keep(g)} for n in range(1, 8)}
        assert per_n == want
        return sum(len(s) for s in per_n.values())

    totals = {
        "unrestricted": run(EnumerationConfig(max_n=7), lambda g: True),
        "connected": run(
            EnumerationConfig(max_n=7, connected_only=True), lambda g: g.is_connected()
        ),
        "triangle-free": run(
            EnumerationConfig(max_n=7, free_of=("C3",)), lambda g: is_free(g, ["C3"])
        ),
        "claw-free": run(
            EnumerationConfig(max_n=7, free_of=("K1_3",)), lambda g: is_free(g, ["K1_3"])
        ),
    }
    assert totals["unrestricted"] == 1 + 2 + 4 + 11 + 34 + 156 + 1044
    assert totals["connected"] == 1 + 1 + 2 + 6 + 21 + 112 + 853
    elapsed = time.perf_counter() - t0
    _ok(9, f"enumeration == oracle label sets for 4 configs at n<=7, totals {totals}, {elapsed:.1f}s")
