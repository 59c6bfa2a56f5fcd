import itertools

import pytest

from clawlab import kernels
from clawlab.enumeration import EnumerationConfig, enumerate_graphs
from clawlab.families import InflationSpec, build_inflation
from clawlab.graphs import Graph, bitset_of, vertices_of
from clawlab.patterns import pattern_graph
from clawlab.structure import (
    OlariuKind,
    VerdictKind,
    classify_claw_bull_free,
    olariu_classify,
    recognize_inflation,
    _normalise,
)
from conftest import cycle_search_graphs, perturbed_inflations, toggled, validate_inflation


def reference_long_cycle(g, min_len):
    """One search per length, longest first."""
    for length in range(g.n, min_len - 1, -1):
        cyc = kernels.find_induced_cycle(g.n, g.adj, length)
        if cyc is not None:
            return cyc
    return None


def reference_validation(g, parts):
    """The two inflation adjacency rules checked pair of parts by pair of
    parts: consecutive parts (and so each part) form one clique, other
    pairs are two cliques with no edge between them."""
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
                if any((g.adj[u] & masks[j]) for u in parts[i]):
                    return False
                for pp in (parts[i], parts[j]):
                    if not all(g.has_edge(u, v) for u, v in itertools.combinations(pp, 2)):
                        return False
    return True


def spine_parts(g, cycle):
    """Every vertex off the spine goes to the part of the middle cycle
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
        mid = None
        for i in nb:
            if (i - 1) % k in nb and (i + 1) % k in nb:
                mid = i
                break
        if mid is None:
            return None
        parts[mid].append(w)
    return tuple(tuple(sorted(p)) for p in parts)


def reference_inflation(g):
    """Recognition on the longest induced cycle as the spine: every other
    vertex sorted onto it, then every pair of parts re-checked.  It shares
    nothing with the twin-class walk of ``recognize_inflation`` but the
    final rotation."""
    spine = reference_long_cycle(g, 4) if g.n >= 4 else None
    if spine is None:
        return None
    parts = spine_parts(g, spine)
    if parts is None or not reference_validation(g, parts):
        return None
    return _normalise(parts)


def validation_cases(rng, count):
    """Seeded (graph, parts) pairs around inflations C[n1..nk] with k = 4..9
    on at most 16 vertices: the parts as built, or moved a vertex, cut
    short, reordered, with a vertex repeated or with an empty part added,
    the graph as built or with one vertex pair toggled."""
    cases = []
    for i in range(count):
        k = 4 + i % 6
        sizes = [1] * k
        for _ in range(rng.randrange(0, 17 - k)):
            sizes[rng.randrange(k)] += 1
        g, built = build_inflation(InflationSpec(tuple(sizes)))
        parts = [list(p) for p in built]
        kind = rng.randrange(6)
        if kind == 1:
            src = rng.choice([p for p in parts if p])
            rng.choice(parts).append(src.pop(rng.randrange(len(src))))
        elif kind == 2:
            parts = parts[: rng.randrange(len(parts) + 1)]
        elif kind == 3:
            i, j = rng.sample(range(k), 2)
            parts[i], parts[j] = parts[j], parts[i]
        elif kind == 4:
            rng.choice(parts).append(rng.randrange(g.n))
        elif kind == 5:
            parts.insert(rng.randrange(k + 1), [])
        if rng.random() < 0.3:
            g = toggled(rng, g)
        cases.append((g, [tuple(p) for p in parts]))
    return cases


def dihedral_orbit(sizes):
    k = len(sizes)
    rots = [tuple(sizes[(i + t) % k] for i in range(k)) for t in range(k)]
    return set(rots) | {tuple(r[::-1]) for r in rots}


class TestRecognizeInflation:
    def test_c7_all_singletons(self):
        part = recognize_inflation(pattern_graph("C7"))
        assert part is not None and part.k == 7 and part.sizes == (1,) * 7

    def test_fig2_example(self):
        g, _ = build_inflation(InflationSpec((2, 2, 1, 1, 1, 1, 1)))
        part = recognize_inflation(g)
        assert part.k == 7 and sorted(part.sizes) == [1, 1, 1, 1, 1, 2, 2]

    def test_k4_is_not_an_inflation(self):
        assert recognize_inflation(pattern_graph("K4")) is None

    def test_small_and_acyclic(self):
        assert recognize_inflation(pattern_graph("P7")) is None
        assert recognize_inflation(pattern_graph("K1_3")) is None
        assert recognize_inflation(Graph(3)) is None

    def test_partition_revalidates(self, rng):
        for _ in range(120):
            k = rng.randrange(4, 12)
            sizes = [1] * k
            for _ in range(rng.randrange(0, 25 - k)):
                sizes[rng.randrange(k)] += 1
            g, _ = build_inflation(InflationSpec(tuple(sizes)))
            part = recognize_inflation(g)
            assert part is not None
            assert validate_inflation(g, part.parts)
            assert part.k == k
            assert part.sizes in dihedral_orbit(tuple(sizes))

    def test_part_order_is_deterministic(self):
        g, _ = build_inflation(InflationSpec((2, 1, 3, 1, 1)))
        first = recognize_inflation(g)
        assert first.parts[0][0] == 0 or 0 in first.parts[0]
        for _ in range(3):
            assert recognize_inflation(g) == first

    def test_first_spine_matches_longest_spine(self, oracle7, rng):
        recognised = 0
        for g in cycle_search_graphs(oracle7, rng) + perturbed_inflations(rng, 120, 12, 28):
            part = recognize_inflation(g)
            assert part == reference_inflation(g)
            recognised += part is not None
        assert recognised >= 60

    def test_validation_matches_pairwise_rules(self, oracle7, rng):
        cases = validation_cases(rng, 3000)
        for g in (g for reps in oracle7.values() for g in reps if g.n >= 4):
            spine = reference_long_cycle(g, 4)
            parts = spine and spine_parts(g, spine)
            if parts:
                cases.append((g, parts))
        verdicts = [0, 0]
        for g, parts in cases:
            ok = validate_inflation(g, parts)
            assert ok == reference_validation(g, parts), (g, parts)
            verdicts[ok] += 1
        assert min(verdicts) >= 300

    def test_near_miss_rejected(self):
        # inflation of C6 with one cross edge added between opposite parts
        g, parts = build_inflation(InflationSpec((2, 1, 1, 2, 1, 1)))
        edges = g.edge_list() + [(parts[0][0], parts[3][0])]
        assert recognize_inflation(Graph.from_edges(g.n, edges)) is None


class TestClassifier:
    def test_p6_perfect(self):
        v = classify_claw_bull_free(pattern_graph("P6"))
        assert v.kind is VerdictKind.PERFECT and v.perfection.perfect

    def test_inflation_classified(self):
        g, _ = build_inflation(InflationSpec((2, 1, 1, 1, 1, 1, 1)))
        v = classify_claw_bull_free(g)
        assert v.kind is VerdictKind.ODD_CYCLE_INFLATION
        assert v.partition.k == 7

    def test_bull_out_of_class(self):
        v = classify_claw_bull_free(pattern_graph("B"))
        assert v.kind is VerdictKind.OUT_OF_CLASS and v.violation == "bull"
        assert len(v.witness) == 5

    def test_claw_out_of_class(self):
        g = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        v = classify_claw_bull_free(g)
        assert v.kind is VerdictKind.OUT_OF_CLASS and v.violation == "claw"

    def test_low_independence_out_of_class(self):
        v = classify_claw_bull_free(pattern_graph("K4"))
        assert v.kind is VerdictKind.OUT_OF_CLASS and v.violation == "independence"
        assert len(v.witness) <= 2

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            classify_claw_bull_free(pattern_graph("2K2"))

    def test_dichotomy_on_enumerated_class(self):
        config = EnumerationConfig(max_n=8, connected_only=True, free_of=("K1_3", "B"), min_alpha=3)

        def check(g):
            v = classify_claw_bull_free(g)
            assert v.kind in (VerdictKind.PERFECT, VerdictKind.ODD_CYCLE_INFLATION)
            if v.kind is VerdictKind.ODD_CYCLE_INFLATION:
                assert v.partition.k >= 7 and v.partition.k % 2 == 1

        assert enumerate_graphs(config, check) > 0


class TestOlariu:
    def test_c5_triangle_free(self):
        assert olariu_classify(pattern_graph("C5")).kind is OlariuKind.TRIANGLE_FREE

    def test_k23_complete_multipartite(self):
        v = olariu_classify(pattern_graph("K2_3"))
        assert v.kind is OlariuKind.COMPLETE_MULTIPARTITE
        assert sorted(len(p) for p in v.parts) == [2, 3]

    def test_hammer_has_paw(self):
        v = olariu_classify(pattern_graph("Z2"))
        assert v.kind is OlariuKind.HAS_PAW and len(v.embedding) == 4

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            olariu_classify(pattern_graph("2K2"))

    def test_theorem_on_enumerated_class(self):
        config = EnumerationConfig(max_n=7, connected_only=True, free_of=("Z1",))

        def check(g):
            v = olariu_classify(g)
            assert v.kind in (OlariuKind.TRIANGLE_FREE, OlariuKind.COMPLETE_MULTIPARTITE)

        assert enumerate_graphs(config, check) > 0


def test_lemma7_part1_c5_freeness():
    """Connected claw- and bull-free graphs with independence number >= 3
    contain no induced C5 (checked exhaustively at small size)."""
    from clawlab import kernels

    config = EnumerationConfig(max_n=8, connected_only=True, free_of=("K1_3", "B"), min_alpha=3)

    def check(g):
        assert kernels.find_induced_cycle(g.n, g.adj, 5) is None

    enumerate_graphs(config, check)
