import pytest

from clawlab.canon import is_isomorphic
from clawlab.families import (
    ClaimError,
    FamilyError,
    FamilySpec,
    InflationSpec,
    build_family,
    build_inflation,
    verify_family_claims,
)
from clawlab.graphs import vertices_of
from clawlab.invariants import clique_number
from clawlab.patterns import find_induced, pattern_graph
from conftest import degrees, validate_inflation


class TestSpecs:
    @pytest.mark.parametrize(
        "family,bad_s", [("F0", 0), ("F1", 2), ("F2", 1), ("F3", 0), ("F4", 1), ("F4", 4)]
    )
    def test_parameter_validation(self, family, bad_s):
        with pytest.raises(FamilyError):
            FamilySpec(family, bad_s)

    def test_unknown_family(self):
        with pytest.raises(FamilyError):
            FamilySpec("F9", 1)

    @pytest.mark.parametrize(
        "family,s,step", [("F0", 59, 1), ("F1", 21, 1), ("F2", 29, 1), ("F3", 7, 1), ("F4", 19, 2)]
    )
    def test_largest_member_that_fits(self, family, s, step):
        # the largest s whose member has at most 64 vertices builds, and the
        # next one (F4 needs odd s) is rejected before anything is built
        g, _ = build_family(FamilySpec(family, s))
        assert g.n <= 64
        with pytest.raises(FamilyError, match="beyond capacity 64"):
            FamilySpec(family, s + step)

    def test_huge_member_rejected_at_once(self):
        with pytest.raises(FamilyError, match="F1 with s = 1000000000000 has 3000000000001 vertices"):
            FamilySpec("F1", 10**12)

    def test_inflation_validation(self):
        with pytest.raises(FamilyError):
            InflationSpec((1, 1, 1))
        with pytest.raises(FamilyError):
            InflationSpec((1, 0, 1, 1))
        with pytest.raises(FamilyError):
            InflationSpec((20,) * 4)


class TestVertexCounts:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    def test_f0(self, s):
        assert build_family(FamilySpec("F0", s))[0].n == s + 5

    @pytest.mark.parametrize("s", [3, 4, 5])
    def test_f1(self, s):
        assert build_family(FamilySpec("F1", s))[0].n == 3 * s + 1

    @pytest.mark.parametrize("s", [2, 3])
    def test_f2(self, s):
        assert build_family(FamilySpec("F2", s))[0].n == 2 * s + 5

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_f3(self, s):
        assert build_family(FamilySpec("F3", s))[0].n == 9 * s + 1

    @pytest.mark.parametrize("s", [3, 5])
    def test_f4(self, s):
        assert build_family(FamilySpec("F4", s))[0].n == 3 * s + 3


class TestStructure:
    def test_f0_complement(self):
        g, _ = build_family(FamilySpec("F0", 2))
        assert is_isomorphic(g.complement(), pattern_graph("2K1+C5"))

    def test_f1_x_degrees(self):
        g, lab = build_family(FamilySpec("F1", 3))
        for i in (1, 2, 3):
            x = lab[f"x{i}"]
            assert g.degree(x) == 3
            assert set(vertices_of(g.adj[x])) == {lab[f"u{2 * i - 1}"], lab[f"u{2 * i}"], lab[f"u{2 * i + 1}"]}

    def test_f2_identified_vertices(self):
        g, lab = build_family(FamilySpec("F2", 2))
        assert lab["x2"] == lab["u2"] and lab["x3"] == lab["u3"]
        assert set(vertices_of(g.adj[lab["z"]])) == {lab[f"x{i}"] for i in range(1, 6)}
        assert g.has_edge(lab["x1"], lab["u1"]) and g.has_edge(lab["x4"], lab["u4"])

    def test_f3_attachment_windows(self):
        g, lab = build_family(FamilySpec("F3", 1))
        assert set(vertices_of(g.adj[lab["x1^1"]])) == {lab["u1"], lab["u2"], lab["u4"], lab["u5"]}
        assert set(vertices_of(g.adj[lab["x2^1"]])) == {lab["u2"], lab["u3"], lab["u5"], lab["u6"]}
        assert set(vertices_of(g.adj[lab["x3^1"]])) == {lab["u3"], lab["u4"], lab["u6"], lab["u7"]}

    def test_f4_complement_has_c9_and_triangle(self):
        g, lab = build_family(FamilySpec("F4", 3))
        comp = g.complement()
        us = [lab[f"u{i}"] for i in range(1, 10)]
        ring = comp.induced(us)
        assert all(d == 2 for d in degrees(ring)) and ring.is_connected()
        xs = [lab["x1"], lab["x2"], lab["x3"]]
        assert all(comp.has_edge(a, b) for i, a in enumerate(xs) for b in xs[i + 1 :])

    def test_f2_contains_f10(self):
        for s in (2, 3):
            g, _ = build_family(FamilySpec("F2", s))
            f10, _ = build_family(FamilySpec("F0", 1))
            assert find_induced(g, f10) is not None


class TestInflation:
    def test_all_singletons_is_cycle(self):
        g, parts = build_inflation(InflationSpec((1,) * 7))
        assert is_isomorphic(g, pattern_graph("C7"))
        assert parts == tuple((i,) for i in range(7))

    def test_eight_vertex_example(self):
        g, _ = build_inflation(InflationSpec((2, 1, 1, 1, 1, 1, 1)))
        assert g.n == 8 and clique_number(g)[0] == 3

    def test_c4(self):
        g, _ = build_inflation(InflationSpec((1, 1, 1, 1)))
        assert is_isomorphic(g, pattern_graph("C4"))

    def test_adjacency_rules(self):
        g, parts = build_inflation(InflationSpec((2, 3, 1, 2, 1)))
        assert validate_inflation(g, parts)


class TestClaims:
    @pytest.mark.parametrize(
        "family,s",
        [("F0", 1), ("F0", 4), ("F1", 3), ("F1", 5), ("F2", 2), ("F2", 3), ("F3", 1), ("F3", 3), ("F4", 3), ("F4", 5)],
    )
    def test_claims_pass(self, family, s):
        report = verify_family_claims(FamilySpec(family, s))
        assert report.ok()
        assert report.chi > report.omega

    def test_f0_values(self):
        rep = verify_family_claims(FamilySpec("F0", 2))
        assert rep.omega == 4 and rep.chi == 5

    def test_f4_values(self):
        rep = verify_family_claims(FamilySpec("F4", 3))
        assert rep.omega == 4 and rep.chi >= 6

    def test_f3_values(self):
        rep = verify_family_claims(FamilySpec("F3", 1))
        assert rep.omega == 3 and rep.chi == 4

    def test_size_cap(self):
        with pytest.raises(FamilyError):
            verify_family_claims(FamilySpec("F3", 5))  # 46 vertices

    def test_claim_error_reports_failure(self):
        # verify_family_claims on a tampered graph is not reachable through
        # the public API, so check the guard by monkeypatching the builder
        import clawlab.families as fam

        original = fam.build_family
        try:
            def broken(spec):
                g, labels = original(spec)
                return pattern_graph("P6"), labels

            fam.build_family = broken
            with pytest.raises(ClaimError):
                verify_family_claims(FamilySpec("F0", 1))
        finally:
            fam.build_family = original
