import itertools

import pytest

from clawlab import kernels
from clawlab.families import FamilySpec, InflationSpec, build_family, build_inflation
from clawlab.graphs import Graph
from clawlab.invariants import (
    InvariantReport,
    chromatic_number,
    clique_number,
    find_odd_antihole,
    find_odd_hole,
    independence_number,
    invariant_report,
    is_complete_multipartite,
    is_omega_colourable,
    is_perfect,
)
from clawlab.patterns import pattern_graph
from clawlab.verify import induced_cycles
from conftest import (
    brute_chromatic_number,
    brute_clique_number,
    components,
    cycle_search_graphs,
    permuted,
    random_graph,
    toggled,
)


def reference_odd_hole(g):
    """One search per odd length, shortest first."""
    for length in range(5, g.n + 1, 2):
        cyc = kernels.find_induced_cycle(g.n, g.adj, length)
        if cyc is not None:
            return cyc
    return None


class TestCliqueIndependence:
    def test_c5(self):
        assert clique_number(pattern_graph("C5"))[0] == 2

    def test_f10_omega_3(self):
        g, _ = build_family(FamilySpec("F0", 1))
        assert clique_number(g)[0] == 3

    def test_f34_omega_4(self):
        g, _ = build_family(FamilySpec("F4", 3))
        assert clique_number(g)[0] == 4

    def test_f10_alpha_2(self):
        g, _ = build_family(FamilySpec("F0", 1))
        assert independence_number(g)[0] == 2

    def test_f31_alpha_witness(self):
        g, lab = build_family(FamilySpec("F1", 3))
        alpha, witness = independence_number(g)
        assert alpha >= 3
        named = {lab["u1"], lab["u3"], lab["u5"]}
        assert all(not g.has_edge(u, v) for u, v in itertools.combinations(named, 2))

    def test_f34_unique_max_independent_set(self):
        g, lab = build_family(FamilySpec("F4", 3))
        alpha, witness = independence_number(g)
        assert alpha == 3
        assert set(witness) == {lab["x1"], lab["x2"], lab["x3"]}

    def test_witness_validity_random(self, rng):
        for _ in range(60):
            g = random_graph(rng, rng.randrange(0, 10), 0.5)
            omega, clique = clique_number(g)
            assert len(clique) == omega
            assert all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))
            alpha, ind = independence_number(g)
            assert len(ind) == alpha
            assert all(not g.has_edge(u, v) for u, v in itertools.combinations(ind, 2))
            # the kernel's complement rows give the complement Graph's witness
            assert (alpha, ind) == clique_number(g.complement())


class TestChromatic:
    def test_f10_chi_4(self):
        g, _ = build_family(FamilySpec("F0", 1))
        assert chromatic_number(g)[0] == 4

    def test_c7_chi_3(self):
        assert chromatic_number(pattern_graph("C7"))[0] == 3

    def test_f31_chi_4_vs_brute_force(self):
        g, _ = build_family(FamilySpec("F1", 3))
        chi, col = chromatic_number(g)
        assert chi == 4
        # independent oracle: no proper 3-colouring among all 3^10 assignments
        edges = g.edge_list()
        assert not any(
            all(a[u] != a[v] for u, v in edges)
            for a in itertools.product(range(3), repeat=g.n)
        )

    def test_coloring_proper_and_tight(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randrange(0, 9), 0.5)
            chi, col = chromatic_number(g)
            assert all(col[u] != col[v] for u, v in g.edge_list())
            assert len(set(col)) == chi
            assert chi == brute_chromatic_number(g)

    def test_omega_colourable(self):
        assert is_omega_colourable(pattern_graph("P4"))
        assert is_omega_colourable(pattern_graph("K5"))
        g, _ = build_family(FamilySpec("F2", 2))
        assert not is_omega_colourable(g)


def test_sandwich_bounds_exhaustive(oracle7):
    """omega <= chi <= max_degree + 1 and alpha(g) = omega(complement),
    witness included, on every isomorphism class with up to 7 vertices."""
    for n, reps in oracle7.items():
        for g in reps:
            omega, _ = clique_number(g)
            chi, _ = chromatic_number(g)
            assert omega <= chi <= g.max_degree() + 1 or g.n == 0
            alpha, independent = independence_number(g)
            assert alpha == brute_clique_number(g.complement()) if n <= 5 else True
            assert (alpha, independent) == clique_number(g.complement())


class TestOddHoles:
    def test_c5_whole_cycle(self):
        assert find_odd_hole(pattern_graph("C5")) == (0, 1, 2, 3, 4)

    def test_inflation_7_hole(self):
        g, parts = build_inflation(InflationSpec((2, 1, 1, 1, 1, 1, 1)))
        hole = find_odd_hole(g)
        assert hole is not None and len(hole) == 7
        assert len([p for p in parts if set(p) & set(hole)]) == 7

    def test_bipartite_no_odd_hole(self, rng):
        for _ in range(20):
            left = rng.randrange(1, 5)
            right = rng.randrange(1, 5)
            edges = [
                (u, left + v)
                for u in range(left)
                for v in range(right)
                if rng.random() < 0.6
            ]
            g = Graph.from_edges(left + right, edges)
            assert find_odd_hole(g) is None

    def test_antihole_of_c7_complement(self):
        g = pattern_graph("C7").complement()
        wit = find_odd_antihole(g)
        assert wit is not None and len(wit) == 7

    def test_c5_is_its_own_antihole(self):
        wit = find_odd_antihole(pattern_graph("C5"))
        assert wit is not None and len(wit) == 5

    def test_p6_no_antihole(self):
        assert find_odd_antihole(pattern_graph("P6")) is None

    def test_one_pass_matches_per_length_search(self, oracle7, rng):
        for g in cycle_search_graphs(oracle7, rng):
            hole = find_odd_hole(g)
            assert hole == reference_odd_hole(g)
            assert find_odd_antihole(g) == reference_odd_hole(g.complement())
            odd = [c for c in induced_cycles(g, 5) if len(c) % 2]
            assert hole == min(odd, key=lambda c: (len(c), c), default=None)

    def test_hole_witness_revalidates(self, rng):
        found = 0
        while found < 25:
            g = random_graph(rng, rng.randrange(5, 10), 0.4)
            hole = find_odd_hole(g)
            if hole is None:
                continue
            found += 1
            L = len(hole)
            assert L % 2 == 1 and L >= 5
            for i in range(L):
                for j in range(i + 1, L):
                    expect = j - i == 1 or (i == 0 and j == L - 1)
                    assert g.has_edge(hole[i], hole[j]) == expect


def reference_direct_certificate(g):
    """The first connected vertex subset, in ``itertools.combinations``
    order by size from one vertex up, whose induced subgraph has chi > omega
    by brute force, or None."""
    for size in range(1, g.n + 1):
        for sub in itertools.combinations(range(g.n), size):
            h = g.induced(sub)
            if h.is_connected() and brute_chromatic_number(h) > brute_clique_number(h):
                return sub
    return None


class TestPerfection:
    def test_p4_perfect(self):
        v = is_perfect(pattern_graph("P4"), "spgt")
        assert v.perfect and v.certificate is None

    def test_c7_imperfect_with_hole(self):
        v = is_perfect(pattern_graph("C7"), "spgt")
        assert not v.perfect and v.certificate.kind == "odd_hole"

    def test_f10_imperfect(self):
        g, _ = build_family(FamilySpec("F0", 1))
        v = is_perfect(g, "spgt")
        assert not v.perfect
        assert v.certificate.kind == "odd_hole" and len(v.certificate.vertices) == 5

    def test_direct_certificate(self):
        v = is_perfect(pattern_graph("C5"), "direct")
        assert not v.perfect and v.certificate.kind == "chi_gt_omega"
        assert set(v.certificate.vertices) == {0, 1, 2, 3, 4}

    def test_direct_size_cap(self):
        with pytest.raises(ValueError):
            is_perfect(Graph(15), "direct")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            is_perfect(Graph(1), "magic")

    def test_spgt_direct_agreement_exhaustive_n6(self, oracle6):
        for reps in oracle6.values():
            for g in reps:
                assert is_perfect(g, "spgt").perfect == is_perfect(g, "direct").perfect

    def test_direct_certificate_is_first_violator(self, oracle7, rng):
        # the "direct" certificate is the first connected subset with
        # chi > omega, on every imperfect class on at most 7 vertices and on
        # seeded imperfect graphs on 8-10 vertices
        graphs = [g for reps in oracle7.values() for g in reps]
        graphs += [random_graph(rng, rng.randrange(8, 11), rng.choice([0.3, 0.5, 0.7])) for _ in range(150)]
        checked = 0
        for g in graphs:
            if is_perfect(g, "spgt").perfect:
                continue
            v = is_perfect(g, "direct")
            assert not v.perfect and v.certificate.kind == "chi_gt_omega"
            assert v.certificate.vertices == reference_direct_certificate(g), g
            checked += 1
        assert checked >= 180

    def test_spgt_direct_agreement_sampled_n8(self, rng):
        for _ in range(300):
            g = random_graph(rng, 8, rng.choice([0.3, 0.5, 0.7]))
            assert is_perfect(g, "spgt").perfect == is_perfect(g, "direct").perfect


def reference_complete_multipartite(g):
    """The complement's components as the parts, kept when each of them is
    independent in ``g``."""
    parts = components(g.complement())
    for part in parts:
        if any(g.has_edge(u, v) for u, v in itertools.combinations(part, 2)):
            return None
    return tuple(parts)


def complete_multipartite_graphs(rng, count, max_n):
    """``count`` seeded complete multipartite graphs on at most ``max_n``
    vertices with 1-8 parts, relabelled, every other one with one vertex
    pair toggled."""
    graphs = []
    for i in range(count):
        k = 1 + i % 8
        sizes = [1] * k
        for _ in range(rng.randrange(0, max_n + 1 - k)):
            sizes[rng.randrange(k)] += 1
        owner = [j for j, size in enumerate(sizes) for _ in range(size)]
        n = len(owner)
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if owner[u] != owner[v]])
        g, _ = permuted(rng, g)
        if i % 2 and n > 1:
            g = toggled(rng, g)
        graphs.append(g)
    return graphs


class TestCompleteMultipartite:
    def test_matches_complement_components(self, oracle7, rng):
        graphs = [g for reps in oracle7.values() for g in reps] + complete_multipartite_graphs(rng, 200, 28)
        recognised = 0
        for g in graphs:
            parts = is_complete_multipartite(g)
            assert parts == reference_complete_multipartite(g), g
            recognised += parts is not None
        assert recognised >= 140

    def test_k23(self):
        parts = is_complete_multipartite(pattern_graph("K2_3"))
        assert parts is not None and sorted(len(p) for p in parts) == [2, 3]

    def test_c4(self):
        parts = is_complete_multipartite(pattern_graph("C4"))
        assert parts is not None and sorted(len(p) for p in parts) == [2, 2]

    def test_paw_is_not(self):
        assert is_complete_multipartite(pattern_graph("Z1")) is None

    def test_complement_of_clique_union(self, rng):
        # complement of each recognised graph is a disjoint union of cliques
        for _ in range(40):
            g = random_graph(rng, rng.randrange(1, 9), 0.6)
            parts = is_complete_multipartite(g)
            if parts is None:
                continue
            comp = g.complement()
            for part in components(comp):
                assert all(comp.has_edge(u, v) for u, v in itertools.combinations(part, 2))

    def test_brute_force_agreement(self, rng):
        def brute(g):
            n = g.n
            if n == 0:
                return True
            verts = list(range(n))

            def go(remaining, parts):
                if not remaining:
                    for pa, pb in itertools.combinations(parts, 2):
                        if not all(g.has_edge(u, v) for u in pa for v in pb):
                            return False
                    return True
                v = remaining[0]
                rest = remaining[1:]
                for p in parts:
                    if all(not g.has_edge(v, u) for u in p):
                        p.append(v)
                        if go(rest, parts):
                            return True
                        p.pop()
                return go(rest, parts + [[v]])

            return go(verts, [])

        for _ in range(60):
            g = random_graph(rng, rng.randrange(0, 8), 0.5)
            assert (is_complete_multipartite(g) is not None) == brute(g)


@pytest.mark.parametrize("pure", [False, True], ids=["selected", "pure"])
def test_empty_graph_invariants(pure, monkeypatch):
    # K0 through the general paths, on the selected kernels and on the pure
    # ones: chi = 0 with the empty colouring, and perfect both ways
    if pure:
        for name in ("max_clique", "color_with", "odd_hole"):
            monkeypatch.setattr(kernels, name, getattr(kernels, f"pure_{name}"))
    k0 = Graph(0)
    assert chromatic_number(k0) == (0, ())
    assert invariant_report(k0) == InvariantReport(0, 0, 0, 0, (), (), ())
    assert is_omega_colourable(k0)
    assert is_perfect(k0).perfect and is_perfect(k0, "direct").perfect


def test_invariant_report_consistency(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9), 0.5)
        rep = invariant_report(g)
        assert rep.omega <= rep.chi <= rep.max_degree + 1
        assert len(rep.coloring) == g.n and len(set(rep.coloring)) == rep.chi
