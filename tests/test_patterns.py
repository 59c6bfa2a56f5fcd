import tracemalloc

import pytest

from clawlab import kernels
from clawlab.canon import is_isomorphic
from clawlab.families import FamilySpec, build_family
from clawlab.graphs import Graph, GraphError
from clawlab.patterns import (
    NeighborhoodShape,
    PatternError,
    classify_cycle_neighborhood,
    find_induced,
    has_induced,
    is_free,
    pattern_graph,
)
from clawlab.verify import induced_cycles
from conftest import brute_has_induced, brute_is_isomorphic, degrees, random_graph


class TestCatalog:
    def test_claw(self):
        g = pattern_graph("K1_3")
        assert g.n == 4 and sorted(degrees(g), reverse=True) == [3, 1, 1, 1]

    def test_hammer_is_triangle_with_pendant_path(self):
        g = pattern_graph("Z2")
        assert g.n == 5 and g.n_edges() == 5
        assert sorted(degrees(g)) == [1, 2, 2, 2, 3]
        # contains a triangle, unlike the bull which has the same degrees
        assert has_induced(g, "K3")
        assert not is_isomorphic(g, pattern_graph("B"))

    def test_bull(self):
        g = pattern_graph("B")
        assert g.n == 5 and g.n_edges() == 5 and sorted(degrees(g)) == [1, 1, 2, 3, 3]

    def test_diamond(self):
        g = pattern_graph("D")
        assert g.n == 4 and g.n_edges() == 5

    def test_hourglass(self):
        g = pattern_graph("H")
        assert g.n == 5 and g.n_edges() == 6 and sorted(degrees(g)) == [2, 2, 2, 2, 4]

    def test_theta_is_c6_plus_distance2_chord(self):
        g = pattern_graph("THETA")
        assert g.n == 6 and g.n_edges() == 7
        # removing the chord endpoints' common edge leaves a spanning C6
        assert sorted(degrees(g)) == [2, 2, 2, 2, 3, 3]
        u, v = [x for x in range(6) if g.degree(x) == 3]
        assert not g.has_edge(u, v) or g.has_edge(u, v)  # chord endpoints are adjacent
        assert g.has_edge(u, v)
        # common neighbour at distance 2 on the C6
        assert (g.adj[u] & g.adj[v]).bit_count() >= 1

    def test_antihole5_is_c5(self):
        assert is_isomorphic(pattern_graph("AH5"), pattern_graph("C5"))

    def test_antihole4_is_2k2(self):
        assert is_isomorphic(pattern_graph("AH4"), pattern_graph("2K2"))

    def test_parametric_and_unions(self):
        assert pattern_graph("3K1").n == 3 and pattern_graph("3K1").n_edges() == 0
        assert pattern_graph("2K2").n_edges() == 2
        g = pattern_graph("K1+K3")
        assert g.n == 4 and g.n_edges() == 3 and not g.is_connected()
        g = pattern_graph("2K1+K2")
        assert g.n == 4 and g.n_edges() == 1
        g = pattern_graph("K2+K3")
        assert g.n == 5 and g.n_edges() == 4
        assert pattern_graph("K2_3").n_edges() == 6
        assert pattern_graph("P1").n == 1

    def test_case_insensitive_tokens(self):
        assert pattern_graph("k1_3") == pattern_graph("K1_3")

    @pytest.mark.parametrize("bad", ["C2", "P0", "AH3", "K0", "", "Q5", "K1_4", "0K2"])
    def test_invalid_tokens(self, bad):
        with pytest.raises(PatternError):
            pattern_graph(bad)

    def test_pattern_size_cap(self):
        with pytest.raises(PatternError):
            pattern_graph("C11")
        assert pattern_graph("C10").n == 10

    @pytest.mark.parametrize("token", ["K65", "P65", "C65", "AH65"])
    def test_term_size_checked_before_building(self, token, monkeypatch):
        # the vertex-count GraphError comes before any edge list is built
        def no_build(*args):
            raise AssertionError("a graph was built")

        monkeypatch.setattr(Graph, "from_edges", no_build)
        with pytest.raises(GraphError, match=r"vertex count \d+ outside 0\.\.64"):
            pattern_graph(token)

    def test_multiplier_checked_before_copying(self):
        # a huge multiplier is refused without a list of its copies
        tracemalloc.start()
        try:
            with pytest.raises(PatternError, match="has 3000000 vertices"):
                pattern_graph("3000000K1")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak


class TestContainment:
    def test_2k2_in_p5(self):
        assert find_induced(pattern_graph("P5"), "2K2") == (0, 1, 3, 4)

    def test_f1_is_claw_free(self):
        g, _ = build_family(FamilySpec("F1", 3))
        assert find_induced(g, "K1_3") is None

    def test_k4_not_in_k3(self):
        assert find_induced(pattern_graph("K3"), "K4") is None

    def test_pattern_larger_than_host(self, oracle6):
        # every class on fewer vertices than the pattern, K0 included: the
        # embedding search finds nothing and the answers keep their types
        for token in ("K1", "2K1", "K1_3", "P4", "C4", "B", "Z2", "P5", "THETA", "C7", "AH7"):
            p = pattern_graph(token)
            for n in range(min(p.n, 7)):
                for g in oracle6[n]:
                    assert has_induced(g, p) is False and find_induced(g, p) is None, (token, g)

    def test_f10_freeness_list(self):
        g, _ = build_family(FamilySpec("F0", 1))
        assert is_free(g, ["3K1", "2K2", "K1+K3"])

    def test_c7_claw_free(self):
        assert is_free(pattern_graph("C7"), ["K1_3"])

    def test_f13_claw_and_diamond_free(self):
        g, _ = build_family(FamilySpec("F3", 1))
        assert is_free(g, ["K1_3", "D"])

    def test_brute_force_agreement(self, rng):
        tokens = ["K1_3", "P4", "C4", "C5", "2K2", "K3", "Z1", "B", "D"]
        pats = [(t, pattern_graph(t)) for t in tokens]
        for _ in range(60):
            g = random_graph(rng, rng.randrange(1, 8), 0.5)
            for t, p in pats:
                assert has_induced(g, t) == brute_has_induced(g, p), (t, g)

    def test_pattern_over_16_vertices_rejected(self):
        big = Graph.from_edges(17, [(i, i + 1) for i in range(16)])
        host = pattern_graph("C10")
        with pytest.raises(ValueError):
            has_induced(host, big)
        with pytest.raises(ValueError):
            find_induced(host, big)

    def test_freeness_hereditary(self, rng):
        tokens = ["K1_3", "C4"]
        count = 0
        while count < 20:
            g = random_graph(rng, rng.randrange(2, 9), 0.4)
            if not is_free(g, tokens):
                continue
            count += 1
            for _ in range(10):
                keep = [v for v in range(g.n) if rng.random() < 0.6]
                assert is_free(g.induced(keep), tokens)


# runs of consecutive cycle neighbours (None: the whole cycle) and the
# shape they make, on every cycle length from 5 to 8 that fits them with a
# gap after each run
_RUN_CASES = [
    ((1,), NeighborhoodShape.OTHER),
    ((2,), NeighborhoodShape.K2),
    ((3,), NeighborhoodShape.P3),
    ((4,), NeighborhoodShape.P4),
    ((5,), NeighborhoodShape.OTHER),
    ((1, 1), NeighborhoodShape.OTHER),
    ((1, 3), NeighborhoodShape.OTHER),
    ((2, 2), NeighborhoodShape.TWO_K2),
    (None, None),
]


def _run_case_params():
    for length in range(5, 9):
        for runs, want in _RUN_CASES:
            if runs is None:
                want = NeighborhoodShape.C5 if length == 5 else NeighborhoodShape.OTHER
            elif sum(runs) + len(runs) > length:
                continue
            yield pytest.param(length, runs, want, id=f"C{length}-{runs or 'all'}")


class TestCycleNeighborhoodRule:
    @pytest.mark.parametrize("length,runs,want", list(_run_case_params()))
    def test_runs_on_cycle(self, length, runs, want, rng):
        # C_length on relabelled vertices plus x = length; run i starts after
        # the previous run and one gap
        label = list(range(length))
        rng.shuffle(label)
        on = list(range(length))
        if runs is not None:
            on, at = [], 0
            for run in runs:
                on += range(at, at + run)
                at += run + 1
        x = length
        edges = [(label[i], label[(i + 1) % length]) for i in range(length)] + [(label[i], x) for i in on]
        g = Graph.from_edges(length + 1, edges)
        cmask = (1 << length) - 1
        assert NeighborhoodShape(kernels.neighborhood_shape(g.adj, cmask, length, g.adj[x] & cmask)) is want
        shuffled = list(range(length))
        rng.shuffle(shuffled)
        assert classify_cycle_neighborhood(g, shuffled, x) is want


class TestCycleNeighborhood:
    def test_f1_vertex_sees_p3(self):
        g, lab = build_family(FamilySpec("F1", 3))
        cycle = [lab[f"u{i}"] for i in range(1, 8)]
        assert classify_cycle_neighborhood(g, cycle, lab["x1"]) is NeighborhoodShape.P3

    def test_f3_vertex_sees_2k2(self):
        g, lab = build_family(FamilySpec("F3", 1))
        cycle = [lab[f"u{i}"] for i in range(1, 8)]
        assert classify_cycle_neighborhood(g, cycle, lab["x1^1"]) is NeighborhoodShape.TWO_K2

    def test_f0_hub_sees_c5(self):
        g, lab = build_family(FamilySpec("F0", 1))
        cycle = [lab[f"u{i}"] for i in range(1, 6)]
        assert classify_cycle_neighborhood(g, cycle, lab["x1"]) is NeighborhoodShape.C5

    def test_no_neighbor_is_none(self):
        # C5 plus a far vertex linked through a path of length 2
        g = Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (5, 6), (6, 7)])
        assert classify_cycle_neighborhood(g, [0, 1, 2, 3, 4], 7) is NeighborhoodShape.NONE

    def test_single_neighbor_is_other(self):
        # pendant on a C5 creates a claw, and the K1 shape reports OTHER
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
        assert classify_cycle_neighborhood(g, [0, 1, 2, 3, 4], 5) is NeighborhoodShape.OTHER
        assert has_induced(g, "K1_3")

    def test_k2_shape(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 0), (5, 1)])
        assert classify_cycle_neighborhood(g, [0, 1, 2, 3, 4], 5) is NeighborhoodShape.K2

    def test_errors(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
        with pytest.raises(ValueError):
            classify_cycle_neighborhood(g, [0, 1, 2, 3, 4], 2)  # x on cycle
        with pytest.raises(ValueError):
            classify_cycle_neighborhood(g, [0, 1, 2, 5], 4)  # not a cycle
        with pytest.raises(ValueError):
            classify_cycle_neighborhood(g, [0, 1, 2], 5)  # too short

    def test_cycle_checked_on_the_induced_subgraph(self):
        # P5 plus a vertex: five vertices in a path are no cycle
        p5x = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 0)])
        with pytest.raises(ValueError, match="does not induce a cycle of length >= 5"):
            classify_cycle_neighborhood(p5x, range(5), 5)
        # C5 with a pendant vertex: the cycle holds, a vertex past n - 1 does not
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
        assert classify_cycle_neighborhood(g, range(5), 5) is NeighborhoodShape.OTHER
        with pytest.raises(GraphError, match=r"vertex set not within 0\.\.5"):
            classify_cycle_neighborhood(g, [0, 1, 2, 3, 6], 5)
        with pytest.raises(GraphError, match=r"vertex set not within 0\.\.5"):
            classify_cycle_neighborhood(g, [-1, 1, 2, 3, 4], 5)

    # C5 plus vertex 6 joined to 0 and 1: x = -1 must not be read as vertex
    # 6 (the answer there is K2), and x = 7 must not reach past the rows
    _C5_AND_K2 = Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (6, 0), (6, 1)])

    def test_negative_vertex_rejected(self):
        assert classify_cycle_neighborhood(self._C5_AND_K2, [0, 1, 2, 3, 4], 6) is NeighborhoodShape.K2
        with pytest.raises(ValueError):
            classify_cycle_neighborhood(self._C5_AND_K2, [0, 1, 2, 3, 4], -1)

    def test_vertex_past_the_graph_rejected(self):
        with pytest.raises(ValueError):
            classify_cycle_neighborhood(self._C5_AND_K2, [0, 1, 2, 3, 4], 7)

    def test_matches_brute_force_isomorphism_type(self, oracle7, rng):
        shapes = [(shape, pattern_graph(shape.value)) for shape in NeighborhoodShape
                  if shape not in (NeighborhoodShape.NONE, NeighborhoodShape.OTHER)]

        def brute_shape(g, cycle, x):
            nb = [v for v in cycle if g.has_edge(x, v)]
            if not nb:
                return NeighborhoodShape.NONE
            sub = g.induced(nb)
            for shape, p in shapes:
                if brute_is_isomorphic(sub, p):
                    return shape
            return NeighborhoodShape.OTHER

        checked = 0
        for graphs in oracle7.values():
            for g in graphs:
                for cycle in induced_cycles(g, 5):
                    shuffled = list(cycle)
                    rng.shuffle(shuffled)
                    for x in range(g.n):
                        if x in cycle:
                            continue
                        want = brute_shape(g, cycle, x)
                        assert classify_cycle_neighborhood(g, cycle, x) is want, (g, cycle, x)
                        assert classify_cycle_neighborhood(g, shuffled, x) is want, (g, shuffled, x)
                        checked += 1
        assert checked > 0
