import itertools
import random

import pytest

from clawlab.enumeration import oracle_enumerate
from clawlab.families import InflationSpec, build_inflation
from clawlab.graphs import Graph


@pytest.fixture(scope="session")
def oracle6():
    return oracle_enumerate(6)


@pytest.fixture(scope="session")
def oracle7():
    return oracle_enumerate(7)


@pytest.fixture()
def rng():
    return random.Random(0xC1A3)


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_regular_graph(rng, n, jumps):
    """The circulant on n vertices with the given jumps, scrambled by random
    double-edge swaps: regular, so colour refinement alone cannot split it,
    and rarely symmetric."""
    edges = sorted({tuple(sorted((v, (v + d) % n))) for v in range(n) for d in jumps})
    for _ in range(4 * n):
        i, j = rng.sample(range(len(edges)), 2)
        (a, b), (c, d) = edges[i], edges[j]
        ac, bd = tuple(sorted((a, c))), tuple(sorted((b, d)))
        if len({a, b, c, d}) == 4 and ac not in edges and bd not in edges:
            edges[i], edges[j] = ac, bd
    return Graph.from_edges(n, edges)


def permuted(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edge_list()]), perm


def cycle_search_graphs(oracle7, rng):
    """Inputs on which the one-pass cycle searches are compared with their
    per-length references: every class on at most 7 vertices, seeded random
    graphs on 8-16 vertices, and seeded inflations C[n1..nk] with k = 4..9
    on at most 18 vertices, relabelled, every other one with one vertex pair
    toggled."""
    graphs = [g for reps in oracle7.values() for g in reps]
    for _ in range(150):
        graphs.append(random_graph(rng, rng.randrange(8, 17), rng.choice([0.2, 0.35, 0.5, 0.7])))
    for i in range(120):
        k = 4 + i % 6
        sizes = [1] * k
        for _ in range(rng.randrange(0, 19 - k)):
            sizes[rng.randrange(k)] += 1
        g, _ = permuted(rng, build_inflation(InflationSpec(tuple(sizes)))[0])
        if i % 2:
            u, v = rng.sample(range(g.n), 2)
            g = Graph.from_edges(g.n, sorted(set(g.edge_list()) ^ {(min(u, v), max(u, v))}))
        graphs.append(g)
    return graphs


# -- brute-force oracles (independent of the kernels under test) -----------


def brute_clique_number(g):
    for r in range(g.n, 0, -1):
        for sub in itertools.combinations(range(g.n), r):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return r
    return 0


def brute_chromatic_number(g):
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for assign in itertools.product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in g.edge_list()):
                return k
    raise AssertionError


def brute_is_isomorphic(g, h):
    if g.n != h.n:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
               for u in range(g.n) for v in range(u + 1, g.n)):
            return True
    return False


def brute_automorphisms(g):
    """Every automorphism of g as a vertex tuple (v -> perm[v])."""
    return [
        perm
        for perm in itertools.permutations(range(g.n))
        if all(g.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
               for u in range(g.n) for v in range(u + 1, g.n))
    ]


def brute_embeddings(g, p):
    """Every induced embedding of p in g as a host-vertex tuple, in
    lexicographic order."""
    for perm in itertools.permutations(range(g.n), p.n):
        if all(((p.adj[i] >> j) & 1) == g.has_edge(perm[i], perm[j])
               for i in range(p.n) for j in range(i + 1, p.n)):
            yield perm


def brute_has_induced(g, p):
    return next(brute_embeddings(g, p), None) is not None


def brute_induced_cycle_sets(g, exact_len):
    found = []
    for sub in itertools.combinations(range(g.n), exact_len):
        h = g.induced(sub)
        if all(d == 2 for d in h.degrees()) and h.is_connected():
            found.append(frozenset(sub))
    return found


def brute_oriented_cycles(g, length):
    """Induced cycles of ``length`` as vertex tuples that start at their least
    vertex with the smaller neighbour second, sorted."""
    out = []
    for cyc in brute_induced_cycle_sets(g, length):
        seq = [min(cyc)]
        seq.append(min(v for v in cyc if g.has_edge(seq[0], v)))
        while len(seq) < length:
            seq.append(next(v for v in cyc if g.has_edge(seq[-1], v) and v != seq[-2]))
        out.append(tuple(seq))
    return sorted(out)
