"""Independent checkers for the benchmark's outputs.

Nothing here imports clawlab.  Expected values come from networkx (the
graph atlas, isomorphism, induced-subgraph matching, matchings), from the
small exact searches below, from OEIS, or from what a construction
guarantees (a line graph of a bipartite graph is perfect, an inflation of
C_k has independence number floor(k/2), ...).  Each check raises
``CheckFailure``; ``check_workload`` collects the failures of one run.
"""

from __future__ import annotations

import functools
import re
from collections import Counter, defaultdict

import warnings

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

from workloads import THEOREM_BROKEN

# iso_key only buckets candidates; the hash change across networkx versions is harmless
warnings.filterwarnings("ignore", message="The hashes produced for graphs", category=UserWarning)

# OEIS A000088 (graphs) and A001349 (connected graphs) on n = 1..8 vertices.
OEIS_GRAPHS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
OEIS_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# Classes on exactly 8 vertices, past the networkx atlas (n <= 7).  Recompute
# with `python3 perfbench/reference.py`, which does not use clawlab.
LEVEL8_CLASS_SIZES = {
    ("T5_ALPHA3", "C4"): 273,
    ("T5_ALPHA3", "B"): 42,
    ("OBS2_NEIGHBORHOOD", None): 881,
}


class CheckFailure(Exception):
    """An output of the program failed an independent check."""


def require(cond, msg):
    if not cond:
        raise CheckFailure(msg)


# -- patterns and classes, restated from the paper ------------------------

PATTERNS = {
    "K1_3": nx.star_graph(3),
    "P4": nx.path_graph(4),
    "P5": nx.path_graph(5),
    "C4": nx.cycle_graph(4),
    "Z1": nx.Graph([(0, 1), (1, 2), (0, 2), (0, 3)]),  # paw
    "Z2": nx.Graph([(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)]),  # hammer
    "B": nx.bull_graph(),
}


def class_spec(theorem, y):
    """(forbidden patterns, min alpha, exclude odd cycles); all connected."""
    if theorem == "T5_ALPHA3":
        return ("K1_3", y), 3, True
    if theorem == "T4_NOALPHA":
        return ("K1_3", y), 0, True
    if theorem == "OBS2_NEIGHBORHOOD":
        return ("K1_3",), 0, False
    if theorem == "L7_RULES":
        return ("K1_3", "B"), 0, False
    raise CheckFailure(f"no class definition for {theorem}")


def has_claw(G) -> bool:
    """Some vertex has three pairwise non-adjacent neighbours."""
    adj = bitsets(G)
    for row in adj:
        nb = [u for u in range(len(adj)) if (row >> u) & 1]
        for i, a in enumerate(nb):
            for j in range(i + 1, len(nb)):
                b = nb[j]
                if not (adj[a] >> b) & 1 and any(not (adj[c] >> a) & 1 and not (adj[c] >> b) & 1 for c in nb[j + 1 :]):
                    return True
    return False


def contains_induced(G, P) -> bool:
    if P is PATTERNS["K1_3"]:
        return has_claw(G)
    return GraphMatcher(G, P).subgraph_is_isomorphic()


def is_odd_cycle(G) -> bool:
    n = G.number_of_nodes()
    return n >= 3 and n % 2 == 1 and nx.is_connected(G) and all(d == 2 for _, d in G.degree())


def in_class(G, theorem, y) -> bool:
    free, min_alpha, exclude_odd = class_spec(theorem, y)
    if G.number_of_nodes() == 0 or not nx.is_connected(G):
        return False
    if exclude_odd and is_odd_cycle(G):
        return False
    if any(contains_induced(G, PATTERNS[p]) for p in free):
        return False
    return independence_number(G) >= min_alpha


# -- exact small searches on bitsets ---------------------------------------


def bitsets(G):
    n = G.number_of_nodes()
    require(set(G.nodes) == set(range(n)), "vertices are not 0..n-1")
    return [sum(1 << u for u in G[v]) for v in range(n)]


def _max_independent(adj) -> int:
    best = 0

    def go(mask, size):
        nonlocal best
        if size + mask.bit_count() <= best:
            return
        if mask == 0:
            best = size
            return
        low = hi = -1
        low_d, hi_d = 1 << 30, -1
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (adj[v] & mask).bit_count()
            if d < low_d:
                low, low_d = v, d
            if d > hi_d:
                hi, hi_d = v, d
        if low_d <= 1:  # some maximum independent set contains this vertex
            go(mask & ~(adj[low] | (1 << low)), size + 1)
            return
        go(mask & ~(adj[hi] | (1 << hi)), size + 1)
        go(mask & ~(1 << hi), size)

    go((1 << len(adj)) - 1, 0)
    return best


def independence_number(G) -> int:
    return _max_independent(bitsets(G))


def clique_number(G) -> int:
    adj = bitsets(G)
    full = (1 << len(adj)) - 1
    return _max_independent([full & ~row & ~(1 << v) for v, row in enumerate(adj)])


def k_colourable(G, k) -> bool:
    """Exact k-colourability by DSATUR backtracking."""
    adj = bitsets(G)
    n = len(adj)
    colour = [-1] * n

    def go(done, used):
        if done == n:
            return True
        best, best_key, best_seen = -1, None, 0
        for v in range(n):
            if colour[v] >= 0:
                continue
            seen = 0
            m = adj[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if colour[u] >= 0:
                    seen |= 1 << colour[u]
            key = (seen.bit_count(), adj[v].bit_count())
            if best_key is None or key > best_key:
                best, best_key, best_seen = v, key, seen
        for c in range(min(k, used + 1)):
            if not (best_seen >> c) & 1:
                colour[best] = c
                if go(done + 1, max(used, c + 1)):
                    return True
        colour[best] = -1
        return False

    return go(0, 0)


# -- witnesses --------------------------------------------------------------


def check_clique(G, vertices, size):
    require(len(vertices) == size == len(set(vertices)), f"clique witness {vertices} does not have size {size}")
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            require(G.has_edge(u, v), f"clique witness {vertices}: {u},{v} not adjacent")


def check_independent(G, vertices, size):
    require(len(vertices) == size == len(set(vertices)), f"independent witness {vertices} does not have size {size}")
    for i, u in enumerate(vertices):
        for v in vertices[i + 1 :]:
            require(not G.has_edge(u, v), f"independent witness {vertices}: {u},{v} adjacent")


def check_colouring(G, colouring, k):
    n = G.number_of_nodes()
    require(len(colouring) == n, f"colouring has {len(colouring)} entries for {n} vertices")
    require(all(0 <= c < k for c in colouring), f"colouring uses colours outside 0..{k - 1}")
    for u, v in G.edges:
        require(colouring[u] != colouring[v], f"colouring not proper on edge {u},{v}")


def check_induced_cycle(G, seq, what):
    k = len(seq)
    require(k >= 5 and k % 2 == 1, f"{what} {seq} is not an odd cycle of length >= 5")
    require(len(set(seq)) == k and all(v in G for v in seq), f"{what} {seq} repeats or leaves the graph")
    for i in range(k):
        for j in range(i + 1, k):
            consecutive = j == i + 1 or (i == 0 and j == k - 1)
            require(G.has_edge(seq[i], seq[j]) == consecutive, f"{what} {seq}: pair {seq[i]},{seq[j]} breaks the cycle")


def check_hole_certificate(G, kind, seq):
    if kind == "odd_hole":
        check_induced_cycle(G, list(seq), "odd hole")
    elif kind == "odd_antihole":
        check_induced_cycle(nx.complement(G), list(seq), "odd antihole")
    else:
        raise CheckFailure(f"unknown imperfection certificate {kind!r}")


def chromatic_lower_bound(G, omega, alpha) -> int:
    """Best of the clique bound, n/alpha and, for alpha <= 3, the bound
    from colour classes of size at most alpha (exact for alpha <= 2)."""
    n = G.number_of_nodes()
    bounds = [omega, -(-n // alpha) if alpha else n]
    if alpha <= 2:
        # colour classes are the edges of a matching of the complement
        bounds.append(n - len(nx.max_weight_matching(nx.complement(G), maxcardinality=True)))
    elif alpha == 3:
        triples = sum(nx.triangles(nx.complement(G)).values()) // 3
        bounds.append(-(-(n - triples) // 2))
    return max(bounds)


def check_chromatic(G, chi, omega, alpha):
    """chi is exact: a bound reaches it, or chi - 1 colours are refuted."""
    lb = chromatic_lower_bound(G, omega, alpha)
    require(chi >= lb, f"chi={chi} below the lower bound {lb}")
    if chi > lb:
        require(chi <= 4, f"chi={chi} above every lower bound ({lb}); not certified")
        require(not k_colourable(G, chi - 1), f"graph is {chi - 1}-colourable but chi={chi} reported")


def check_counts(counts, expected, what):
    for n, want in expected.items():
        require(counts.get(n, 0) == want, f"{what}: {counts.get(n, 0)} classes on {n} vertices, OEIS says {want}")


def check_inflation_parts(G, parts):
    k = len(parts)
    require(k >= 4, f"inflation with {k} parts")
    flat = [v for p in parts for v in p]
    require(sorted(flat) == list(range(G.number_of_nodes())), "inflation parts do not partition the vertices")
    for i in range(k):
        for j in range(i, k):
            near = j == i or j == i + 1 or (i == 0 and j == k - 1)
            for u in parts[i]:
                for v in parts[j]:
                    if u != v:
                        require(G.has_edge(u, v) == near, f"inflation parts {i},{j}: pair {u},{v} breaks the rules")


def same_cycle_sequence(a, b) -> bool:
    """Equal up to rotation and reflection."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    for seq in (b, b[::-1]):
        for r in range(len(seq)):
            if seq[r:] + seq[:r] == a:
                return True
    return False


# -- the networkx atlas (all graphs on at most 7 vertices) -----------------


@functools.lru_cache(maxsize=None)
def atlas_by_n():
    groups = defaultdict(list)
    for G in nx.graph_atlas_g():
        groups[G.number_of_nodes()].append(G)
    return groups


def iso_key(G):
    return (G.number_of_edges(), tuple(sorted(d for _, d in G.degree())), nx.weisfeiler_lehman_graph_hash(G))


@functools.lru_cache(maxsize=None)
def _atlas_connected_claw_free():
    return tuple(
        G for n in range(1, 8) for G in atlas_by_n()[n] if nx.is_connected(G) and not has_claw(G)
    )


@functools.lru_cache(maxsize=None)
def atlas_class(theorem, y, max_n):
    """Atlas graphs on 1..min(max_n, 7) vertices in the campaign's class
    (every campaign forbids the claw and asks for connectivity)."""
    require(class_spec(theorem, y)[0][0] == "K1_3", f"{theorem} does not forbid the claw")
    return tuple(
        G for G in _atlas_connected_claw_free() if G.number_of_nodes() <= max_n and in_class(G, theorem, y)
    )


def expected_class_size(theorem, y, max_n):
    size = len(atlas_class(theorem, y, max_n))
    if max_n >= 8:
        require(max_n == 8 and (theorem, y) in LEVEL8_CLASS_SIZES, f"no independent class size for {theorem} {y} n<={max_n}")
        size += LEVEL8_CLASS_SIZES[(theorem, y)]
    return size


def is_counterexample_small(G) -> bool:
    """Imperfect or not omega-colourable, for graphs on at most 7 vertices."""
    holes = (nx.cycle_graph(5), nx.cycle_graph(7), nx.complement(nx.cycle_graph(7)))
    if any(contains_induced(G, H) for H in holes if H.number_of_nodes() <= G.number_of_nodes()):
        return True
    return not k_colourable(G, clique_number(G))


def g6(text):
    return nx.from_graph6_bytes(text.encode())


# -- per-workload checks ----------------------------------------------------

_REASON_HOLE = re.compile(r"^imperfect: (odd_hole|odd_antihole) \[([0-9, ]*)\]$")
_REASON_LONG_HOLE = re.compile(r"^odd hole of length (\d+): \[([0-9, ]*)\]$")
_REASON_CHI = re.compile(r"^not omega-colourable: chi=(\d+) > omega=(\d+)$")


def _ints(text):
    return [int(t) for t in text.split(",") if t.strip()]


def check_reason(G, reason):
    m = _REASON_HOLE.match(reason)
    if m:
        check_hole_certificate(G, m.group(1), _ints(m.group(2)))
        return
    m = _REASON_LONG_HOLE.match(reason)
    if m:
        seq = _ints(m.group(2))
        require(len(seq) == int(m.group(1)), f"reason {reason!r}: length disagrees")
        check_induced_cycle(G, seq, "odd hole")
        return
    m = _REASON_CHI.match(reason)
    if m:
        chi, omega = int(m.group(1)), int(m.group(2))
        require(clique_number(G) == omega, f"reason {reason!r}: omega is {clique_number(G)}")
        require(chi > omega and k_colourable(G, chi) and not k_colourable(G, chi - 1), f"reason {reason!r}: chi wrong")
        return
    raise CheckFailure(f"unrecognised reason {reason!r}")


def check_counterexample_rows(op, rows, class_size):
    theorem, y, max_n = op["theorem"], op["y"], op["max_n"]
    for row in rows:
        require(
            (row["theorem"], row["y"] or None, row["max_n"], row["class_size"]) == (theorem, y, max_n, class_size),
            f"{theorem} {y}: row scalars {row} disagree with the campaign",
        )
        G = g6(row["graph6"])
        require(G.number_of_nodes() <= max_n, f"{theorem} {y}: row graph on {G.number_of_nodes()} vertices")
        require(in_class(G, theorem, y), f"{theorem} {y}: row graph {row['graph6']} is outside the class")
        check_reason(G, row["reason"])
    if max_n <= 7:
        want = sum(1 for G in atlas_class(theorem, y, max_n) if is_counterexample_small(G))
        got = len({row["graph6"] for row in rows})
        require(got == want, f"{theorem} {y} n<={max_n}: {got} counterexample graphs, atlas has {want}")


def check_theorem_op(op, out):
    theorem, y, max_n = op["theorem"], op["y"], op["max_n"]
    broken = (theorem, y, max_n) in THEOREM_BROKEN
    want = expected_class_size(theorem, y, max_n)
    require(out["class_size"] == want, f"{theorem} {y} n<={max_n}: class size {out['class_size']}, expected {want}")
    rows = out["rows"]
    if broken:
        require(out["rc"] == 1 and rows, f"{theorem} {y}: broken hypothesis reported no counterexample (exit {out['rc']})")
    else:
        require(out["rc"] == 0 and rows == [], f"{theorem} {y}: proved statement reported {len(rows)} rows (exit {out['rc']})")
    check_counterexample_rows(op, rows, out["class_size"])
    if (theorem, y) == ("T4_NOALPHA", "C4"):
        f0 = nx.wheel_graph(6)  # F0(s=1): C5 joined to one vertex
        require(any(nx.is_isomorphic(g6(r["graph6"]), f0) for r in rows), "T4_NOALPHA C4 hunt misses F0(s=1)")


def check_lemma_op(op, out):
    theorem, max_n = op["theorem"], op["max_n"]
    require(out["ok"] and out["counterexamples"] == [], f"{theorem}: {len(out['counterexamples'])} counterexamples")
    want = expected_class_size(theorem, None, max_n)
    require(out["class_size"] == want, f"{theorem} n<={max_n}: class size {out['class_size']}, expected {want}")


def check_catalog(ops, outputs):
    runs = {op["connected"]: (op, out) for op, out in zip(ops, outputs) if "error" not in out}
    if False in runs:
        op, out = runs[False]
        graphs = [g6(s) for s in out["graph6"]]
        require(out["count"] == len(graphs), "enumerate_graphs count disagrees with visits")
        counts = Counter(G.number_of_nodes() for G in graphs)
        check_counts(counts, {n: OEIS_GRAPHS[n] for n in range(1, op["max_n"] + 1)}, "all graphs")
        for n in range(1, min(op["max_n"], 7) + 1):
            match_atlas([G for G in graphs if G.number_of_nodes() == n], n)
    if True in runs:
        op, out = runs[True]
        graphs = [g6(s) for s in out["graph6"]]
        require(out["count"] == len(graphs), "enumerate_graphs count disagrees with visits (connected)")
        require(all(nx.is_connected(G) for G in graphs), "connected enumeration emitted a disconnected graph")
        counts = Counter(G.number_of_nodes() for G in graphs)
        check_counts(counts, {n: OEIS_CONNECTED[n] for n in range(1, op["max_n"] + 1)}, "connected graphs")
        if False in runs and runs[False][0]["max_n"] == op["max_n"]:
            every = [s for s in runs[False][1]["graph6"] if nx.is_connected(g6(s))]
            require(every == out["graph6"], "connected enumeration is not the connected part of the full one")


def match_atlas(graphs, n):
    """The graphs are exactly the atlas graphs on n vertices, up to isomorphism."""
    atlas = atlas_by_n()[n]
    require(len(graphs) == len(atlas), f"{len(graphs)} classes on {n} vertices, atlas has {len(atlas)}")
    buckets = defaultdict(list)
    for i, A in enumerate(atlas):
        buckets[iso_key(A)].append(i)
    used = set()
    for G in graphs:
        hit = next((i for i in buckets.get(iso_key(G), ()) if i not in used and nx.is_isomorphic(G, atlas[i])), None)
        require(hit is not None, f"class {nx.to_graph6_bytes(G, header=False).decode().strip()} has no unused atlas match")
        used.add(hit)


def family_order(family, s):
    return {"F0": s + 5, "F1": 3 * s + 1, "F2": 2 * s + 5, "F3": 9 * s + 1, "F4": 3 * s + 3}[family]


def check_family_values(family, s, omega, chi):
    if family == "F0":
        require(omega == s + 2 and chi == s + 3, f"F0 s={s}: omega={omega} chi={chi}, paper: s+2, s+3")
    elif family in ("F1", "F2", "F3"):
        require(omega == 3 and chi > 3, f"{family} s={s}: omega={omega} chi={chi}, paper: 3, > 3")
    else:
        require(omega == (3 * s - 1) // 2 and chi >= (3 * s + 3) // 2, f"F4 s={s}: omega={omega} chi={chi}")


def inflation_graph(sizes):
    starts = [0]
    for size in sizes:
        starts.append(starts[-1] + size)
    parts = [list(range(starts[i], starts[i + 1])) for i in range(len(sizes))]
    G = nx.Graph()
    G.add_nodes_from(range(starts[-1]))
    for i, p in enumerate(parts):
        q = parts[(i + 1) % len(parts)]
        G.add_edges_from((a, b) for a in p for b in p if a < b)
        G.add_edges_from((a, b) for a in p for b in q)
    return G


def check_query(op, out):
    G = g6(out["graph6"])
    n = G.number_of_nodes()
    kind = op["kind"]
    if kind == "line":
        require(out["graph6"] == op["graph6"], "graph6 round trip changed the line graph")
        expect_perfect = op["root"] == "bipartite"  # Koenig; the c5 roots hold an odd hole
    elif kind == "inflation":
        require(nx.utils.edges_equal(G.edges, inflation_graph(op["sizes"]).edges), f"C{op['sizes']} built wrongly")
        expect_perfect = len(op["sizes"]) % 2 == 0
    else:
        require(n == family_order(op["family"], op["s"]), f"{op['family']} s={op['s']} has {n} vertices")
        expect_perfect = False

    omega, alpha, chi = out["omega"], out["alpha"], out["chi"]
    check_clique(G, out["clique"], omega)
    check_independent(G, out["independent"], alpha)
    require(omega == clique_number(G), f"omega={omega}, independent search says {clique_number(G)}")
    require(alpha == independence_number(G), f"alpha={alpha}, independent search says {independence_number(G)}")
    check_colouring(G, out["coloring"], chi)
    check_chromatic(G, chi, omega, alpha)

    require(out["perfect"] == expect_perfect, f"perfect={out['perfect']}, construction says {expect_perfect}")
    if out["perfect"]:
        require(chi == omega and out["certificate"] is None, f"perfect graph with chi={chi}, omega={omega}")
    else:
        cert = out["certificate"]
        require(cert is not None, "imperfect verdict without a certificate")
        check_hole_certificate(G, cert["kind"], cert["vertices"])

    if nx.is_connected(G):
        check_structure_verdict(G, out["classify"], alpha, expect_perfect)
    if kind == "inflation":
        rec = out["inflation"]
        require(rec is not None, f"C{op['sizes']} not recognised as an inflation")
        check_inflation_parts(G, rec["parts"])
        require(rec["k"] == len(op["sizes"]), f"recognised k={rec['k']}, built with {len(op['sizes'])}")
        require(same_cycle_sequence([len(p) for p in rec["parts"]], op["sizes"]), "recognised part sizes differ")
    if kind == "family":
        claims = out["claims"]
        require(all(ok for _, ok in claims["checks"]), f"failed family claims {claims['checks']}")
        require((claims["n"], claims["omega"], claims["chi"]) == (n, omega, chi), "family claims disagree with the query")
        check_family_values(op["family"], op["s"], omega, chi)


def check_structure_verdict(G, verdict, alpha, expect_perfect):
    kind = verdict["kind"]
    if kind == "OUT_OF_CLASS":
        violation, witness = verdict["violation"], verdict["witness"]
        if violation in ("claw", "bull"):
            P = PATTERNS["K1_3" if violation == "claw" else "B"]
            require(len(set(witness)) == P.number_of_nodes(), f"{violation} witness {witness} has the wrong size")
            require(nx.is_isomorphic(G.subgraph(witness), P), f"{violation} witness {witness} does not induce one")
        else:
            require(violation == "independence" and alpha <= 2, f"OUT_OF_CLASS ({violation}) with alpha={alpha}")
            check_independent(G, witness, alpha)
        return
    require(not contains_induced(G, PATTERNS["K1_3"]) and not contains_induced(G, PATTERNS["B"]) and alpha >= 3,
            f"{kind} verdict on a graph outside the claw/bull-free alpha>=3 class")
    if kind == "PERFECT":
        require(expect_perfect, "PERFECT verdict on an imperfect graph")
    else:
        require(kind == "ODD_CYCLE_INFLATION", f"unknown verdict {kind}")
        require(not expect_perfect and verdict["k"] >= 7 and verdict["k"] % 2 == 1, f"inflation verdict k={verdict['k']}")
        check_inflation_parts(G, verdict["parts"])


def check_workload(name, ops, outputs):
    """All failures of one run's outputs (empty when every check passes)."""
    failures = []

    def guard(fn, *args):
        try:
            fn(*args)
        except CheckFailure as exc:
            failures.append(str(exc))

    done = [(op, out) for op, out in zip(ops, outputs) if "error" not in out]
    if name == "catalog":
        guard(check_catalog, ops, outputs)
    for op, out in done:
        if name == "theorem-sweep":
            guard(check_theorem_op, op, out)
        elif name == "lemma-sweep":
            guard(check_lemma_op, op, out)
        elif name == "graph-queries":
            guard(check_query, op, out)
    return failures
