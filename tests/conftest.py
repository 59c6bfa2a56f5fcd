import itertools
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _build_compiled_backend():
    """Build ``clawlab._augment`` from the current source, as
    ``perfbench/run.py`` does, before anything imports clawlab, so the tests
    run the backend the bench times and never an extension left from an
    older source.  The old in-place module goes first: without gcc, or if
    the build fails, clawlab imports its pure backend.  Returns the build's
    ``CompletedProcess`` (text output), or None without gcc."""
    for old in (ROOT / "src" / "clawlab").glob("_augment.*.so"):
        old.unlink()
    if shutil.which("gcc") is None:
        return None
    return subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )


BUILD = _build_compiled_backend()

from clawlab import kernels  # noqa: E402
from clawlab.enumeration import oracle_enumerate  # noqa: E402
from clawlab.families import InflationSpec, build_inflation  # noqa: E402
from clawlab.graphs import Graph, bitset_of, to_graph6  # noqa: E402


def pytest_report_header(config):
    return f"clawlab backend: {kernels.BACKEND}"


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
    return graphs + perturbed_inflations(rng, 120, 6, 18)


def sparse_connected_graph(rng, n, chords):
    """A random tree on n vertices plus ``chords`` random edges: few
    induced cycles and an exact colouring search that stays small, so the
    pure entries answer every query on it up to the 64-vertex capacity."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph.from_edges(n, sorted(edges))


def perturbed_inflations(rng, count, spread, max_n):
    """``count`` seeded inflations C[n1..nk] with k = 4..3+spread (cycling)
    on at most ``max_n`` vertices, relabelled, every other one with one
    vertex pair toggled."""
    graphs = []
    for i in range(count):
        k = 4 + i % spread
        sizes = [1] * k
        for _ in range(rng.randrange(0, max_n + 1 - k)):
            sizes[rng.randrange(k)] += 1
        g, _ = permuted(rng, build_inflation(InflationSpec(tuple(sizes)))[0])
        if i % 2:
            g = toggled(rng, g)
        graphs.append(g)
    return graphs


def validate_inflation(g, parts):
    """Whether ``parts`` (k >= 4 of them, partitioning the vertices) are the
    parts of an inflation of C_k in this order: every u in part i is joined
    to exactly the other vertices of parts i - 1, i and i + 1 (mod k)."""
    k = len(parts)
    if k < 4 or sorted(v for p in parts for v in p) != list(range(g.n)):
        return False
    masks = [bitset_of(p) for p in parts]
    return all(
        g.adj[u] == (masks[i - 1] | masks[i] | masks[(i + 1) % k]) & ~(1 << u) for i in range(k) for u in parts[i]
    )


def catalog_labels(catalog):
    """graph6 label sets per size, for comparing enumerations."""
    return {n: {to_graph6(g) for g in gs} for n, gs in catalog.items()}


def toggled(rng, g):
    """``g`` with one random vertex pair toggled (edge added or removed)."""
    u, v = rng.sample(range(g.n), 2)
    return Graph.from_edges(g.n, sorted(set(g.edge_list()) ^ {(min(u, v), max(u, v))}))


def full_signature_canon_form(n, adj):
    """``kernels.canon_form`` as it was before split-only refinement: each
    round ranks every vertex by its colour and its neighbour counts against
    every cell.  The reference that the split-only refinement must match
    bit for bit."""
    if n == 0:
        return (), ()
    best = [None, None]

    def refine(colours):
        ncls = max(colours) + 1
        while True:
            masks = [0] * ncls
            for v, c in enumerate(colours):
                masks[c] |= 1 << v
            sigs = [
                (c, *[(row & m).bit_count() for m in masks]) if masks[c] & (masks[c] - 1) else (c,)
                for c, row in zip(colours, adj)
            ]
            ranked = {s: i for i, s in enumerate(sorted(set(sigs)))}
            if len(ranked) == ncls:
                return colours
            colours = [ranked[s] for s in sigs]
            ncls = len(ranked)

    def emit(colours):
        rows = [0] * n
        for v in range(n):
            for u in range(n):
                if (adj[v] >> u) & 1:
                    rows[colours[v]] |= 1 << colours[u]
        cert = tuple(rows)
        if best[0] is None or cert < best[0]:
            best[0] = cert
            best[1] = tuple(colours)

    def search(colours):
        ncls = max(colours) + 1
        if ncls == n:
            emit(colours)
            return
        target = min(c for c in range(ncls) if colours.count(c) > 1)
        cell = [v for v, c in enumerate(colours) if c == target]
        reps = []
        for v in cell:
            if any((adj[r] & ~(1 << v)) == (adj[v] & ~(1 << r)) for r in reps):
                continue
            reps.append(v)
            child = [c if c <= target else c + 1 for c in colours]
            for u in cell:
                if u != v:
                    child[u] = target + 1
            search(refine(child))

    search(refine([0] * n))
    return best[0], best[1]


def named_graphs():
    """C5-C12, the Petersen graph, the cube Q3, K3,3 and the Paley graph on
    13 vertices: vertex-transitive, so refinement alone splits nothing."""
    graphs = [Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)]) for k in range(5, 13)]
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    graphs.append(Graph.from_edges(10, outer + inner + [(i, i + 5) for i in range(5)]))
    graphs.append(Graph.from_edges(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b]))
    graphs.append(Graph.from_edges(6, [(u, v) for u in range(3) for v in range(3, 6)]))
    squares = {i * i % 13 for i in range(1, 13)}
    paley = [(u, v) for u in range(13) for v in range(u + 1, 13) if (v - u) % 13 in squares]
    graphs.append(Graph.from_edges(13, paley))
    return graphs


# -- brute-force oracles (independent of the kernels under test) -----------


def degrees(g):
    """The degree of each vertex of g, by index."""
    return tuple(row.bit_count() for row in g.adj)


def plain_component(adj, start, keep):
    """The set of vertices of bitmask ``keep`` that paths inside ``keep``
    reach from ``start``, by a plain depth-first search over vertex
    indices."""
    seen, stack = {start}, [start]
    while stack:
        v = stack.pop()
        for u in range(len(adj)):
            if keep >> u & 1 and adj[v] >> u & 1 and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen


def plain_spans(adj, keep):
    """Whether the vertices of bitmask ``keep`` induce a connected graph
    (none or one vertex counts as connected)."""
    inside = [v for v in range(len(adj)) if keep >> v & 1]
    return not inside or len(plain_component(adj, inside[0], keep)) == len(inside)


def components(g):
    """The connected components of g as sorted vertex tuples, ordered by
    least vertex."""
    out, left = [], (1 << g.n) - 1
    for v in range(g.n):
        if left >> v & 1:
            comp = plain_component(g.adj, v, left)
            out.append(tuple(sorted(comp)))
            left &= ~bitset_of(comp)
    return out


def plain_complement_rows(n, adj):
    """The rows of the complement, one vertex pair at a time."""
    return tuple(sum(1 << u for u in range(n) if u != v and not adj[v] >> u & 1) for v in range(n))


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


def plain_embeddings(n, adj, pn, padj, order=None, first=None):
    """Every induced embedding of the pattern in the host as a tuple of host
    images by pattern vertex, by plain backtracking: pattern vertices
    assigned in ``order`` (index order by default), unused host vertices
    tried in ascending order, each checked against every earlier image.
    With the index order they come in lexicographic order.  ``first`` (a
    bitmask) limits the images of the first vertex in ``order``."""
    order = tuple(range(pn)) if order is None else order
    img = [0] * pn

    def go(t, used):
        if t == len(order):
            yield tuple(img)
            return
        p = order[t]
        cand = ((1 << n) - 1) & ~used
        if t == 0 and first is not None:
            cand &= first
        for q in order[:t]:
            cand &= adj[img[q]] if (padj[p] >> q) & 1 else ~adj[img[q]]
        while cand:
            low = cand & -cand
            cand ^= low
            img[p] = low.bit_length() - 1
            yield from go(t + 1, used | low)

    yield from go(0, 0)


def pinned_has_induced(n, adj, pn, padj, required):
    """Whether some induced copy of the pattern in the host uses host vertex
    ``required``: one plain search per pattern vertex, that vertex first
    and pinned to ``required``.  The reference for the per-parent
    obstruction listing that hereditary pruning uses instead."""
    if pn > n:
        return False
    for p in range(pn):
        order = (p, *[q for q in range(pn) if q != p])
        if next(plain_embeddings(n, adj, pn, padj, order, 1 << required), None) is not None:
            return True
    return False


def brute_induced_cycle_sets(g, exact_len):
    found = []
    for sub in itertools.combinations(range(g.n), exact_len):
        h = g.induced(sub)
        if all(d == 2 for d in degrees(h)) and h.is_connected():
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
