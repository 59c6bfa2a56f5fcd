import hashlib
import json
from dataclasses import replace

import pytest

import clawlab.verify as campaigns
from clawlab import kernels
from clawlab.canon import is_isomorphic
from clawlab.families import FamilySpec, build_family
from clawlab.graphs import Graph, bitset_of, parse_graph6
from clawlab.invariants import (
    chromatic_number,
    clique_number,
    is_perfect,
)
from clawlab.patterns import NeighborhoodShape, classify_cycle_neighborhood, has_induced
from clawlab.verify import (
    _SCREENS,
    _THEOREMS,
    VerificationReport,
    _check_obs2,
    _check_perfect_class,
    _sorted_rows,
    induced_cycles,
    report_emit,
    verify,
)
from conftest import brute_oriented_cycles, permuted, perturbed_inflations, random_graph, sparse_connected_graph
from test_enumeration import _claw_free_extensions


def test_submodule_import_binds_module():
    import clawlab.verify as m

    assert m.THEOREM_IDS


class TestInducedCycles:
    def test_matches_brute_force(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randrange(3, 9), 0.45)
            for min_len in (3, 4, 5, 6):
                # every induced cycle of length >= min_len, oriented as
                # find_induced_cycle does, each length in lexicographic order
                got = list(induced_cycles(g, min_len))
                assert all(len(c) >= min_len for c in got)
                for L in range(min_len, g.n + 1):
                    assert [c for c in got if len(c) == L] == brute_oriented_cycles(g, L)

    def test_each_cycle_once(self, rng):
        g = random_graph(rng, 9, 0.5)
        cycles = list(induced_cycles(g, 3))
        assert len(cycles) == len({frozenset(c) for c in cycles})


class TestTheoremRuns:
    def test_t5_p5_clean(self):
        report = verify("T5_ALPHA3", 7, "P5")
        assert report.ok and report.class_size > 0

    def test_t4_c4_finds_f10(self):
        report = verify("T4_NOALPHA", 6, "C4")
        assert not report.ok
        f10, _ = build_family(FamilySpec("F0", 1))
        assert any(is_isomorphic(parse_graph6(g6), f10) for g6, _ in report.counterexamples)

    def test_t4_clean_for_p4_z1(self):
        assert verify("T4_NOALPHA", 7, "P4").ok
        assert verify("T4_NOALPHA", 7, "Z1").ok

    def test_t3_clean(self):
        assert verify("T3_OLARIU", 7).ok

    def test_t1_clean(self):
        assert verify("T1_BRAUSE", 8).ok

    def test_t1_is_t5_at_2k2(self):
        # T5's class is T1's less the odd cycles, and none is (claw, 2K2)-free
        # with alpha >= 3 (C7 and longer hold a 2K2), so equal sizes mean
        # equal classes; the check is the same
        for max_n in range(1, 10):
            t1, t5 = verify("T1_BRAUSE", max_n), verify("T5_ALPHA3", max_n, "2K2")
            assert (t1.class_size, t1.counterexamples) == (t5.class_size, t5.counterexamples)
        assert t1.class_size == 46

    def test_t6_clean(self):
        assert verify("T6_BULL", 8).ok

    def test_spgt_crosscheck(self):
        report = verify("SPGT_CROSSCHECK", 6)
        assert report.ok
        assert report.class_size == 1 + 2 + 4 + 11 + 34 + 156

    def test_lemma_suites_small(self):
        assert verify("L5_BENREBEA", 8).ok
        assert verify("L6_C5FREE", 8).ok
        assert verify("OBS2_NEIGHBORHOOD", 8).ok
        assert verify("L7_RULES", 8).ok

    def test_unknown_theorem(self):
        with pytest.raises(ValueError):
            verify("T9_NOPE", 5)

    def test_missing_y(self):
        with pytest.raises(ValueError):
            verify("T5_ALPHA3", 5)
        with pytest.raises(ValueError):
            verify("T4_NOALPHA", 5)

    def test_counterexamples_revalidate(self):
        report = verify("T4_NOALPHA", 6, "C4")
        for g6, reason in report.counterexamples:
            g = parse_graph6(g6)
            if reason.startswith("not omega-colourable"):
                chi, _ = chromatic_number(g)
                omega, _ = clique_number(g)
                assert chi > omega
            else:
                assert not is_perfect(g, "spgt").perfect
                assert not is_perfect(g, "direct").perfect


def _obs2_by_classifier(g):
    """OBS2's reasons from one validated classifier call per cycle and
    outside neighbour, in the order of cycles and then of x."""
    good = {NeighborhoodShape.K2, NeighborhoodShape.P3, NeighborhoodShape.P4, NeighborhoodShape.C5,
            NeighborhoodShape.TWO_K2}
    reasons = []
    for cycle in induced_cycles(g, 5):
        cmask = bitset_of(cycle)
        for x in range(g.n):
            if x in cycle or not (g.adj[x] & cmask):
                continue
            shape = classify_cycle_neighborhood(g, cycle, x)
            if shape not in good:
                reasons.append(f"cycle {list(cycle)}, vertex {x}: shape {shape.value}")
    return reasons


def test_obs2_check_matches_classifier_loop(oracle7):
    # the campaign's trusted rule gives the classifier's reasons, in order,
    # on every class up to 7 vertices (claws included, so OTHER shapes occur)
    failing = 0
    for graphs in oracle7.values():
        for g in graphs:
            want = _obs2_by_classifier(g)
            assert _check_obs2(g) == want, g
            failing += bool(want)
    assert failing == 99


def _obs2_inputs(oracle7, rng):
    """Every class on at most 7 vertices, every claw-free class on at most
    8 (the completeness test's closure, disconnected ones included) and
    seeded relabelled graphs on 9-64 vertices that hold claws: random
    graphs on 9-16 vertices, toggled cycle inflations on 9-24 and trees
    with up to five chords on 17-64."""
    closure = _claw_free_extensions()
    certs = sorted({(n, cert) for n, level in closure.items() for kids in level.values() for _, cert in kids})
    claw_free = [Graph.trusted(n, cert) for n, cert in certs]
    seeded = [random_graph(rng, rng.randrange(9, 17), rng.choice([0.2, 0.35, 0.5])) for _ in range(80)]
    seeded += [g for g in perturbed_inflations(rng, 80, 6, 24) if g.n >= 9]
    seeded += [sparse_connected_graph(rng, rng.randrange(17, 65), rng.randrange(0, 6)) for _ in range(40)]
    clawed = [h for h in (permuted(rng, g)[0] for g in seeded) if has_induced(h, "K1_3")]
    return [g for reps in oracle7.values() for g in reps], claw_free, clawed


def test_bad_cycle_neighborhoods_match_pure_and_classifier(oracle7, rng):
    # the listed pairs are the classifier loop's, in order, each of shape
    # OTHER: 99 classes on at most 7 vertices have one, no claw-free class
    # on at most 8 has one, and most of the seeded graphs with claws have
    # one.  On the same graphs, taken as levels of one n each, flag_level
    # flags exactly the graphs whose per-graph check gives reasons,
    # compiled as pure: OBS2's (test 1) and the perfect-class check's
    # (test 0), which flags some graphs of each group
    small, claw_free, clawed = _obs2_inputs(oracle7, rng)
    assert len(claw_free) > 1500 and len(clawed) >= 120, (len(claw_free), len(clawed))
    flagged = []
    imperfect = []
    for graphs in (small, claw_free, clawed):
        flagged.append(0)
        for g in graphs:
            pairs = kernels.bad_cycle_neighborhoods(g.n, g.adj)
            want = _obs2_by_classifier(g)
            assert [f"cycle {list(cycle)}, vertex {x}: shape OTHER" for cycle, x in pairs] == want, g
            flagged[-1] += bool(pairs)
        levels = {}
        for g in graphs:
            levels.setdefault(g.n, []).append(g)
        imperfect.append(0)
        for n, level in levels.items():
            rows = [g.adj for g in level]
            for test, check in ((0, _check_perfect_class), (1, _check_obs2)):
                want = [i for i, g in enumerate(level) if check(g)]
                assert kernels.flag_level(n, rows, test) == kernels.pure_flag_level(n, rows, test) == want, (n, test)
                if test == 0:
                    imperfect[-1] += len(want)
    assert flagged[:2] == [99, 0] and flagged[2] > len(clawed) // 2, flagged
    assert all(imperfect), imperfect


# (theorem, y, max_n) -> (class_size, counterexample rows), as first measured
CAMPAIGNS = {
    ("T5_ALPHA3", "P5", 8): (55, 0),
    ("T5_ALPHA3", "Z2", 8): (45, 0),
    ("T5_ALPHA3", "C4", 8): (350, 79),
    ("T5_ALPHA3", "B", 8): (62, 1),
    ("T4_NOALPHA", "P4", 8): (84, 0),
    ("T4_NOALPHA", "Z1", 8): (29, 0),
    ("T4_NOALPHA", "C4", 7): (149, 22),
    ("T4_NOALPHA", "B", 8): (626, 157),
    ("OBS2_NEIGHBORHOOD", None, 8): (1145, 0),
    ("L7_RULES", None, 7): (181, 0),
    ("T6_BULL", None, 8): (63, 0),
    ("L5_BENREBEA", None, 8): (579, 0),
    ("L6_C5FREE", None, 8): (438, 0),
    ("T1_BRAUSE", None, 8): (25, 0),
    ("T3_OLARIU", None, 7): (115, 0),
}

# sha256 of the sorted counterexample graph6 list, one line each
COUNTEREXAMPLE_DIGESTS = {
    ("T5_ALPHA3", "C4", 8): "4f571cbba34111f2961db207bfdd7365e4f050b34164be47d856df45943459ef",
    ("T5_ALPHA3", "B", 8): "5f67c52d34f3c6ffda28e6854262d117a082984d3442934b15a106923f93462e",
}

# sha256 of the sorted "graph6<TAB>reason" lines, one per counterexample:
# the certificates (odd hole and odd antihole vertex lists) as well
REASON_DIGESTS = {
    ("T5_ALPHA3", "C4", 8): "650a2a7a4083ef716ac1d5fad926e4469417554d8ecc0514a0bd01e5f58d9a4d",
    ("T5_ALPHA3", "B", 8): "816db4430b263e051ee859eeb565c62993d931f163679e457768878c99302bed",
    ("T4_NOALPHA", "C4", 7): "6bddb50f59a6c3a5038a2f97fdd31ccf1ad4eec21063591f686a2bd1cc5d1327",
    # 126 odd-hole, 27 not-omega-colourable and 4 odd-antihole rows
    ("T4_NOALPHA", "B", 8): "32fa8034e90ae34819e13e91303b468435ec6bf8e9c6c930d887732b2fbe67b2",
}


@pytest.mark.parametrize("key", CAMPAIGNS, ids=lambda k: "-".join(str(x) for x in k if x))
def test_campaign_pinned(key):
    theorem, y, max_n = key
    report = verify(theorem, max_n, y)
    assert (report.class_size, len(report.counterexamples)) == CAMPAIGNS[key]
    assert report_emit(report, "json") == json.dumps(_sorted_rows(report), indent=2)
    if key in COUNTEREXAMPLE_DIGESTS:
        lines = "\n".join(sorted(g6 for g6, _ in report.counterexamples))
        assert hashlib.sha256(lines.encode()).hexdigest() == COUNTEREXAMPLE_DIGESTS[key]
    if key in REASON_DIGESTS:
        lines = "\n".join(sorted(f"{g6}\t{reason}" for g6, reason in report.counterexamples))
        assert hashlib.sha256(lines.encode()).hexdigest() == REASON_DIGESTS[key]


SCREENED = [key for key in CAMPAIGNS if _THEOREMS[key[0]][-1] in _SCREENS]


@pytest.mark.parametrize("key", SCREENED, ids=lambda k: "-".join(str(x) for x in k if x))
def test_screened_campaign_matches_the_per_graph_path(key, monkeypatch):
    # the per-level screen, compiled and pure, gives the report of the
    # per-graph check on every class: the class size and the
    # counterexamples, their reasons and their order
    theorem, y, max_n = key

    def run():
        report = verify(theorem, max_n, y)
        return replace(report, elapsed=0.0)

    screened = run()
    monkeypatch.setattr(kernels, "flag_level", kernels.pure_flag_level)
    pure = run()
    monkeypatch.setattr(campaigns, "_SCREENS", {})
    assert screened == pure == run()
    assert screened.class_size == CAMPAIGNS[key][0]


class TestReportEmit:
    def test_empty_json(self):
        report = VerificationReport("T5_ALPHA3", 6, "P5", 10, [], 0.1)
        assert report_emit(report, "json") == "[]"

    def test_json_is_the_indented_dumps(self):
        """The JSON table is ``json.dumps(rows, indent=2)`` byte for byte:
        on the smallest campaign with counterexamples (the pinned ones are
        checked in ``test_campaign_pinned``), on rows whose strings hold
        backslashes, quotes, control and non-ASCII characters, with no y and
        an elapsed time json writes in exponent form, and on no rows."""
        odd = [("A\\_\"é", 'q"\\☃\n\t x'), ("?", ""), ("~?@c", "\x00\u2028\U0001F600")]
        reports = [
            verify("T4_NOALPHA", 6, "C4"),
            VerificationReport("T5_ALPHA3", 6, None, 10, odd, 2.5e16),
            VerificationReport("T5_ALPHA3", 6, "P5", 10, [], 0.1),
        ]
        for report in reports:
            assert report_emit(report, "json") == json.dumps(_sorted_rows(report), indent=2), report
        assert report_emit(reports[-1], "json") == "[]"

    def test_empty_csv_header_only(self):
        report = VerificationReport("T5_ALPHA3", 6, "P5", 10, [], 0.1)
        assert report_emit(report, "csv").strip() == "theorem,y,max_n,class_size,elapsed,graph6,reason"

    def test_one_row(self):
        report = verify("T4_NOALPHA", 6, "C4")
        rows = json.loads(report_emit(report, "json"))
        assert rows and all(set(r) == {"theorem", "y", "max_n", "class_size", "elapsed", "graph6", "reason"} for r in rows)
        csv_text = report_emit(report, "csv")
        assert len(csv_text.strip().splitlines()) == len(rows) + 1

    def test_rows_sorted_by_size_then_label(self):
        from clawlab.canon import canonical_label

        report = verify("T4_NOALPHA", 6, "C4")
        rows = json.loads(report_emit(report, "json"))
        keys = [(parse_graph6(r["graph6"]).n, canonical_label(parse_graph6(r["graph6"])), r["reason"]) for r in rows]
        assert keys == sorted(keys)

    def test_json_csv_json_scalar_roundtrip(self):
        import csv as csvmod
        import io

        report = verify("T4_NOALPHA", 6, "C4")
        rows = json.loads(report_emit(report, "json"))
        parsed = list(csvmod.DictReader(io.StringIO(report_emit(report, "csv"))))
        for a, b in zip(rows, parsed):
            assert str(a["theorem"]) == b["theorem"]
            assert str(a["max_n"]) == b["max_n"]
            assert str(a["class_size"]) == b["class_size"]
            assert float(a["elapsed"]) == float(b["elapsed"])
            assert a["graph6"] == b["graph6"]
            assert a["reason"] == b["reason"]

    def test_unknown_format(self):
        report = VerificationReport("T5_ALPHA3", 6, "P5", 10, [], 0.1)
        with pytest.raises(ValueError):
            report_emit(report, "xml")
