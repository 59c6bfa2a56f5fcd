import math

import pytest

from clawlab.graphs import Graph, GraphError, complement_rows, parse_graph6, rows_connected, spans, to_graph6
from conftest import components, degrees, plain_complement_rows, plain_spans, random_graph

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
        assert degrees(g) == (2, 2, 2, 2, 2)
        assert g.n_edges() == 5

    def test_claw_degrees(self):
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        assert sorted(degrees(g), reverse=True) == [3, 1, 1, 1]

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
                g.has_edge(v, 1)
            with pytest.raises(GraphError):
                g.has_edge(1, v)
        with pytest.raises(GraphError):
            Graph(0).degree(0)

    def test_immutable(self):
        """Graphs from every constructor refuse to set or delete a slot, or
        to gain an attribute, and keep their rows."""
        rows = cycle(5).adj
        graphs = [Graph(5, rows), Graph.trusted(5, rows), Graph.from_edges(5, cycle(5).edge_list()), parse_graph6("Dhc")]
        for g in graphs:
            for name in ("n", "adj", "other"):
                with pytest.raises(AttributeError):
                    setattr(g, name, 3)
                with pytest.raises(AttributeError):
                    delattr(g, name)
            assert (g.n, g.adj) == (5, rows)


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
        # every size the codec takes, from "?" through the "~" header with a
        # body (n = 63, 64), each edgeless, half dense and complete, both
        # ways; networkx's default output opens with ">>graph6<<"
        for n in range(65):
            for p in (0, 0.5, 1):
                g = random_graph(rng, n, p)
                mine = to_graph6(g)
                gnx = nx.Graph()
                gnx.add_nodes_from(range(n))
                gnx.add_edges_from(g.edge_list())
                theirs = nx.to_graph6_bytes(gnx).decode()
                assert theirs == ">>graph6<<" + mine + "\n"
                assert parse_graph6(theirs) == g
                back = nx.from_graph6_bytes(mine.encode())
                assert sorted(back.nodes()) == list(range(n))
                assert {frozenset(e) for e in back.edges()} == {frozenset(e) for e in g.edge_list()}

    def test_large_n_header(self):
        g = Graph(64, tuple(0 for _ in range(64)))
        s = to_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g

    # every way parse_graph6 refuses a string, with the exact text the CLI
    # prints before it exits 2; a string with several faults gets the first
    # message in this order
    ERRORS = [
        ("empty", "", "empty graph6 string"),
        ("blank", " \n", "empty graph6 string"),
        ("header_only", ">>graph6<<", "empty graph6 string"),
        ("bad_character", "D\x7f?\x01", "character '\\x7f' outside graph6 range 63..126"),
        ("bad_character_first", "~?\x01", "character '\\x01' outside graph6 range 63..126"),
        ("truncated_prefix", "~??", "truncated graph6 size prefix"),
        ("too_many_vertices", "~?@@", "graph6 vertex count 65 exceeds capacity 64"),
        ("short_body", "D?", "graph6 body length 1 wrong for n=5"),
        ("long_body", "D?{{", "graph6 body length 3 wrong for n=5"),
        ("last_padding_bit", "A" + chr(63 + 1), "nonzero trailing bits in graph6 body"),
        ("first_padding_bit", "A" + chr(63 + 16), "nonzero trailing bits in graph6 body"),
    ]

    @pytest.mark.parametrize("text, message", [row[1:] for row in ERRORS], ids=[row[0] for row in ERRORS])
    def test_error_messages(self, text, message):
        with pytest.raises(GraphError) as err:
            parse_graph6(text)
        assert str(err.value) == message


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
        assert components(g) == [(0, 3), (1, 2), (4,)]


class TestRowRules:
    """``spans`` and ``complement_rows``, the one connectivity test and the
    one complement, against plain references."""

    def test_spans_matches_a_plain_search(self, oracle6, rng):
        # every class on at most 6 vertices with every vertex subset, then
        # seeded graphs on up to 64 vertices near the connectivity threshold
        # with seeded subsets; rows_connected and Graph.is_connected are
        # spans on every vertex
        graphs = [g for n in sorted(oracle6) for g in oracle6[n]]
        cases = [(g, keep) for g in graphs for keep in range(1 << g.n)]
        for _ in range(60):
            n = rng.randrange(1, 65)
            g = random_graph(rng, n, min(1.0, rng.uniform(0.5, 2.5) * math.log(n + 1) / n))
            graphs.append(g)
            full = (1 << n) - 1
            cases += [(g, full), *((g, full & ~(1 << rng.randrange(n))) for _ in range(3))]
            cases += [(g, rng.getrandbits(n) | rng.getrandbits(n)) for _ in range(6)]
        answers = [spans(g.adj, keep) for g, keep in cases]
        assert answers == [plain_spans(g.adj, keep) for g, keep in cases]
        # the 600 seeded cases hold both answers
        assert answers[-600:].count(True) > 50 and answers[-600:].count(False) > 50
        for g in graphs:
            assert rows_connected(g.adj) == g.is_connected() == spans(g.adj, (1 << g.n) - 1)

    def test_complement_rows_match_a_plain_complement(self, oracle6, rng):
        graphs = [g for n in sorted(oracle6) for g in oracle6[n]]
        graphs += [random_graph(rng, rng.randrange(0, 65), rng.random()) for _ in range(40)]
        for g in graphs:
            rows = complement_rows(g.n, g.adj)
            assert rows == plain_complement_rows(g.n, g.adj)
            assert g.complement() == Graph(g.n, rows)
