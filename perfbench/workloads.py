"""Workload definitions and seeded input generation.

Standard library only: the worker (which imports clawlab) and the checker
(which imports networkx) both rebuild the same inputs from the same seed,
and neither side's imports leak into the other.
"""

from __future__ import annotations

import random

WORKLOADS = ("theorem-sweep", "lemma-sweep", "catalog", "graph-queries")

# (theorem, Y, max_n).  Clean side: the paper's statement, no counterexample.
# Converse side: hypotheses the paper shows broken, each must report one.
THEOREM_CLEAN = (
    ("T5_ALPHA3", "P5", 7),
    ("T5_ALPHA3", "Z2", 7),
    ("T4_NOALPHA", "P4", 7),
    ("T4_NOALPHA", "Z1", 7),
)
# The bull hunt needs n = 8: its smallest counterexample has 8 vertices.
THEOREM_BROKEN = (
    ("T5_ALPHA3", "C4", 8),
    ("T5_ALPHA3", "B", 8),
    ("T4_NOALPHA", "C4", 7),
)
LEMMA_CAMPAIGNS = (
    ("OBS2_NEIGHBORHOOD", None, 8),
    ("L7_RULES", None, 7),
)
# (max_n, connected_only)
CATALOG_RUNS = ((7, False), (7, True))

# Family members across their parameter ranges (fixed, not seeded).
FAMILY_MEMBERS = (
    ("F0", 1), ("F0", 3), ("F0", 6),
    ("F1", 3), ("F1", 5), ("F1", 7), ("F1", 9),
    ("F2", 2), ("F2", 4), ("F2", 7),
    ("F3", 1), ("F3", 2), ("F3", 3),
    ("F4", 3), ("F4", 5), ("F4", 7),
)
# Cycle inflations C[n1..nk]: (k, total vertices); part sizes are seeded.
# Four of each shape and 24 line graphs of each kind, so that the slowest
# tenth of the queries, which query_ms_p90 reports, is not one seeded graph.
INFLATION_SHAPES = ((5, 10), (6, 12), (7, 14), (8, 16), (9, 18), (11, 22))
INFLATIONS_PER_SHAPE = 4
INFLATION_MAX_PART = 3
# Line graphs: roots with a fixed vertex and edge count, edges seeded.
BIPARTITE_ROOTS = 24  # 7 + 7 vertices, 24 edges: L(G) perfect, 24 vertices
BIPARTITE_SIDES = (7, 7)
BIPARTITE_EDGES = 24
C5_ROOTS = 24  # 12 vertices, 24 edges, a planted 5-cycle: L(G) imperfect
C5_ROOT_VERTICES = 12
C5_ROOT_EDGES = 24


def to_graph6(n: int, edges) -> str:
    """graph6 string of a graph on 0..n-1 (n <= 62)."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    bits = [1 if row in adj[col] else 0 for col in range(1, n) for row in range(col)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(chr(63 + int("".join(map(str, bits[i : i + 6])), 2)) for i in range(0, len(bits), 6))
    return chr(63 + n) + body


def line_graph_edges(root_edges):
    """Edges of L(G): root edges become vertices, adjacent when they meet."""
    out = []
    for i, (a, b) in enumerate(root_edges):
        for j in range(i + 1, len(root_edges)):
            c, d = root_edges[j]
            if a in (c, d) or b in (c, d):
                out.append((i, j))
    return out


def _bipartite_root(rng):
    left, right = BIPARTITE_SIDES
    lv = list(range(left))
    rv = list(range(left, left + right))
    edges = {(lv[0], rv[0])}
    placed = [lv[0], rv[0]]
    rest = lv[1:] + rv[1:]
    rng.shuffle(rest)
    for v in rest:  # random spanning tree that respects the sides
        other = [u for u in placed if (u < left) != (v < left)]
        u = rng.choice(other)
        edges.add((min(u, v), max(u, v)))
        placed.append(v)
    while len(edges) < BIPARTITE_EDGES:
        edges.add((rng.choice(lv), rng.choice(rv)))
    return left + right, edges


def _max_degree_core_is_forest(n, edges):
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    top = max(deg)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if deg[u] == top and deg[v] == top:
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
    return True


def _c5_root(rng):
    """Connected root with a planted 5-cycle whose maximum-degree vertices
    induce a forest, so chi'(G) = Delta(G) (Fournier) and L(G) has an odd
    hole (the planted cycle's five edges)."""
    n = C5_ROOT_VERTICES
    while True:
        order = list(range(n))
        rng.shuffle(order)
        edges = set()
        for i in range(5):
            a, b = order[i], order[(i + 1) % 5]
            edges.add((min(a, b), max(a, b)))
        for i in range(5, n):
            u = rng.choice(order[:i])
            edges.add((min(u, order[i]), max(u, order[i])))
        while len(edges) < C5_ROOT_EDGES:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        if _max_degree_core_is_forest(n, edges):
            return n, edges


def _line_item(rng, root, make):
    n, edge_set = make(rng)
    edges = sorted(edge_set)
    rng.shuffle(edges)  # vertex order of L(G)
    lg = line_graph_edges(edges)
    return {
        "kind": "line",
        "root": root,
        "root_n": n,
        "root_edges": [list(e) for e in edges],
        "graph6": to_graph6(len(edges), lg),
    }


def _inflation_sizes(rng, k, total):
    sizes = [1] * k
    for _ in range(total - k):
        open_parts = [i for i in range(k) if sizes[i] < INFLATION_MAX_PART]
        sizes[rng.choice(open_parts)] += 1
    return sizes


def query_inputs(seed: int):
    """The graph-queries input set for one seed, in query order."""
    rng = random.Random(seed)
    items = [{"kind": "family", "family": f, "s": s} for f, s in FAMILY_MEMBERS]
    for k, total in INFLATION_SHAPES * INFLATIONS_PER_SHAPE:
        items.append({"kind": "inflation", "sizes": _inflation_sizes(rng, k, total)})
    for _ in range(BIPARTITE_ROOTS):
        items.append(_line_item(rng, "bipartite", _bipartite_root))
    for _ in range(C5_ROOTS):
        items.append(_line_item(rng, "c5", _c5_root))
    rng.shuffle(items)
    return items


def workload_inputs(name: str, seed: int):
    """The operations of one pass, in order; the seed fixes inputs and order."""
    if name == "graph-queries":
        return query_inputs(seed)
    rng = random.Random(seed)
    if name == "theorem-sweep":
        ops = [{"theorem": t, "y": y, "max_n": n} for t, y, n in THEOREM_CLEAN + THEOREM_BROKEN]
    elif name == "lemma-sweep":
        ops = [{"theorem": t, "y": y, "max_n": n} for t, y, n in LEMMA_CAMPAIGNS]
    elif name == "catalog":
        ops = [{"max_n": n, "connected": c} for n, c in CATALOG_RUNS]
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops
