import itertools

from clawlab import kernels
from clawlab.canon import canonical_form, canonical_label, is_isomorphic
from clawlab.graphs import Graph
from clawlab.patterns import pattern_graph
from conftest import brute_is_isomorphic, degrees, permuted, random_graph


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph.from_edges(n, [e for i, e in enumerate(pairs) if (bits >> i) & 1])


def test_relabeling_invariance(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 11), rng.random())
        label = canonical_label(g)
        for _ in range(100):
            h, _ = permuted(rng, g)
            assert canonical_label(h) == label


def test_c5_vs_p5_distinct():
    assert canonical_label(pattern_graph("C5")) != canonical_label(pattern_graph("P5"))


def test_canonical_form_is_relabeling(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randrange(0, 10), 0.5)
        cf = canonical_form(g)
        perm = kernels.canon_form(g.n, g.adj)[1]  # vertex -> canonical position
        assert sorted(perm) == list(range(g.n))
        for u in range(g.n):
            for v in range(g.n):
                assert g.has_edge(u, v) == cf.has_edge(perm[u], perm[v])
        assert canonical_form(cf) == cf  # idempotent


def test_exhaustive_classification_small():
    """Labels are constant on each isomorphism class and distinct across
    classes, for every labeled graph on up to 5 vertices; class counts are
    the known 1, 1, 2, 4, 11, 34."""
    expected = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34}
    for n in range(6):
        by_class = {}
        for g in all_labeled_graphs(n):
            orbit_key = min(
                tuple(sorted((min(p[u], p[v]), max(p[u], p[v])) for u, v in g.edge_list()))
                for p in itertools.permutations(range(n))
            ) if n else ()
            by_class.setdefault(orbit_key, set()).add(canonical_label(g))
        assert len(by_class) == expected[n]
        assert all(len(labels) == 1 for labels in by_class.values())
        distinct = {next(iter(labels)) for labels in by_class.values()}
        assert len(distinct) == expected[n]


def test_all_4_vertex_graphs_distinct_labels(oracle6):
    labels = {canonical_label(g) for g in oracle6[4]}
    assert len(labels) == 11


def test_isomorphic_agrees_with_permutation_search(oracle6):
    """For class representatives with up to 6 vertices, is_isomorphic matches
    exhaustive permutation testing (degree sequences prefilter the pairs the
    expensive oracle needs to decide)."""
    for n in range(1, 7):
        reps = oracle6[n]
        for i, g in enumerate(reps):
            assert is_isomorphic(g, g)
            for h in reps[i + 1 :]:
                if sorted(degrees(g)) != sorted(degrees(h)):
                    assert not is_isomorphic(g, h)
                else:
                    assert is_isomorphic(g, h) == brute_is_isomorphic(g, h)
                    assert not is_isomorphic(g, h)  # distinct classes


def test_isomorphic_positive_cases(rng):
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 9), 0.5)
        h, _ = permuted(rng, g)
        assert is_isomorphic(g, h)
        assert brute_is_isomorphic(g, h) or g.n > 7


def test_f10_complement_is_k1_plus_c5():
    from clawlab.families import FamilySpec, build_family

    f10, _ = build_family(FamilySpec("F0", 1))
    assert is_isomorphic(f10, pattern_graph("K1+C5").complement())
    assert is_isomorphic(f10.complement(), pattern_graph("K1+C5"))
