import pytest

from clawlab.graphs import Graph, GraphError, parse_graph6, to_graph6
from conftest import random_graph

import networkx as nx


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestConstruction:
    def test_empty(self):
        g = Graph.from_edges(0, [])
        assert g.n == 0 and g.edge_list() == []

    def test_c5(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert g.degrees() == (2, 2, 2, 2, 2)
        assert g.n_edges() == 5

    def test_claw_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert sorted(g.degrees(), reverse=True) == [3, 1, 1, 1]

    def test_duplicate_edges_collapse(self):
        g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.n_edges() == 1

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 3)])

    def test_capacity(self):
        with pytest.raises(GraphError):
            Graph.from_edges(65, [])
        assert Graph.from_edges(64, [(0, 63)]).has_edge(63, 0)

    def test_asymmetric_rows_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, (0b10, 0b00))

    def test_trusted_rows_are_valid(self, rng):
        # complement, induced and canonical_form skip validation; their rows
        # must pass it
        from clawlab.canon import canonical_form

        for _ in range(50):
            g = random_graph(rng, rng.randrange(0, 12), rng.random())
            keep = [v for v in range(g.n) if rng.random() < 0.6]
            for h in (g.complement(), g.induced(keep), canonical_form(g)):
                assert type(h.adj) is tuple
                assert Graph(h.n, h.adj) == h
            assert Graph.trusted(g.n, g.adj) == g

    def test_vertex_queries_reject_out_of_range(self):
        # no negative index may answer for vertex n - 1, and no vertex at n
        # may raise IndexError
        g = Graph.from_edges(3, [(1, 2)])
        for v in (-1, 3, 64):
            with pytest.raises(GraphError):
                g.degree(v)
            with pytest.raises(GraphError):
                g.neighbors(v)
            with pytest.raises(GraphError):
                g.has_edge(v, 1)
            with pytest.raises(GraphError):
                g.has_edge(1, v)
        with pytest.raises(GraphError):
            Graph(0).degree(0)

    def test_immutable(self):
        g = cycle(5)
        with pytest.raises(AttributeError):
            g.n = 3


class TestGraph6:
    def test_empty_graph_is_question_mark(self):
        assert to_graph6(Graph(0)) == "?"
        assert parse_graph6("?").n == 0

    def test_k2(self):
        g = Graph.from_edges(2, [(0, 1)])
        assert parse_graph6(to_graph6(g)) == g

    def test_c5_roundtrip_labeled(self):
        g = cycle(5)
        assert parse_graph6(to_graph6(g)) == g

    def test_seven_vertex_length(self):
        # 1 header byte + ceil(21/6) = 5 characters total
        g = random_graph(__import__("random").Random(3), 7, 0.5)
        assert len(to_graph6(g)) == 5

    def test_known_string_parses(self):
        g = parse_graph6("D?{")
        assert g.n == 5

    def test_roundtrip_random(self, rng):
        for _ in range(300):
            g = random_graph(rng, rng.randrange(0, 20), rng.random())
            assert parse_graph6(to_graph6(g)) == g

    def test_matches_networkx_codec(self, rng):
        for _ in range(100):
            g = random_graph(rng, rng.randrange(1, 16), 0.4)
            mine = to_graph6(g)
            gnx = nx.Graph()
            gnx.add_nodes_from(range(g.n))
            gnx.add_edges_from(g.edge_list())
            assert nx.to_graph6_bytes(gnx, header=False).strip().decode() == mine
            back = nx.from_graph6_bytes(mine.encode())
            assert {frozenset(e) for e in back.edges()} == {frozenset(e) for e in g.edge_list()}

    def test_large_n_header(self):
        g = Graph(64, tuple(0 for _ in range(64)))
        s = to_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g

    def test_bad_character(self):
        with pytest.raises(GraphError):
            parse_graph6("D?\x1f")

    def test_truncated_body(self):
        with pytest.raises(GraphError):
            parse_graph6("D?")

    def test_trailing_bits_nonzero(self):
        # n=2 needs 1 bit; set a padding bit
        with pytest.raises(GraphError):
            parse_graph6("A" + chr(63 + 1))

    def test_empty_string(self):
        with pytest.raises(GraphError):
            parse_graph6("")


class TestAlgebra:
    def test_complement_c5_self(self):
        from clawlab.canon import is_isomorphic

        assert is_isomorphic(cycle(5).complement(), cycle(5))

    def test_complement_involution(self, rng):
        for _ in range(50):
            g = random_graph(rng, rng.randrange(0, 12), 0.5)
            assert g.complement().complement() == g

    def test_induced_c5_minus_vertex_is_p4(self):
        from clawlab.canon import is_isomorphic

        sub = cycle(5).induced([0, 1, 2, 3])
        assert is_isomorphic(sub, path(4))

    def test_induced_p5_subset_is_2k2(self):
        sub = path(5).induced([0, 1, 3, 4])
        assert sub.edge_list() == [(0, 1), (2, 3)]

    def test_induced_full_identity(self, rng):
        g = random_graph(rng, 8, 0.5)
        assert g.induced(range(8)) == g

    def test_induced_out_of_range(self):
        with pytest.raises(GraphError):
            cycle(4).induced([0, 7])

    def test_connectivity(self):
        assert cycle(7).is_connected()
        assert not Graph.from_edges(4, [(0, 1), (2, 3)]).is_connected()
        assert Graph.from_edges(1, []).is_connected()
        assert Graph.from_edges(0, []).is_connected()

    def test_is_cycle(self):
        assert cycle(3).is_cycle() and cycle(8).is_cycle()
        assert not path(5).is_cycle()
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        assert not two_triangles.is_cycle()
        assert not Graph.from_edges(2, [(0, 1)]).is_cycle()

    def test_components(self):
        g = Graph.from_edges(5, [(0, 3), (1, 2)])
        assert g.components() == [(0, 3), (1, 2), (4,)]
