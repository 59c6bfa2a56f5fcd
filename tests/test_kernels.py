"""Brute-force validation of the kernels.

Brute-force oracles pin the semantics, witnesses included; a digest pins
the canonical forms that graph6 output and reports are made of.
"""

import hashlib
import importlib
import itertools
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

from clawlab import kernels
from clawlab.families import FamilySpec, InflationSpec, build_family, build_inflation
from clawlab.graphs import Graph
from clawlab.patterns import _FIXED, pattern_graph
from conftest import (
    BUILD,
    brute_automorphisms,
    brute_chromatic_number,
    brute_clique_number,
    brute_embeddings,
    brute_oriented_cycles,
    cycle_search_graphs,
    degrees,
    full_signature_canon_form,
    named_graphs,
    permuted,
    pinned_has_induced,
    plain_embeddings,
    random_graph,
    random_regular_graph,
    sparse_connected_graph,
    toggled,
)

ROOT = Path(__file__).resolve().parent.parent

PATTERNS = ["K1_3", "P4", "P5", "2K2", "C4", "C5", "B", "K3", "Z1", "Z2", "THETA"]
# patterns with twins (equal rows apart from each other), whose images the
# embedding search takes in ascending order
TWIN_PATTERNS = ["K1_3", "3K1", "4K1", "2K2", "C4", "D", "H", "K2+K3", "2K1+K2"]
OBSTRUCTION_PATTERNS = ["K1", "2K1", "3K1", "K1_3", "P4", "P5", "C4", "C5", "Z1", "Z2", "B", "2K2", "THETA", "AH6"]

# canon_digest as first measured: graph6 output and reports are made of
# these exact rows
CANON_DIGEST = "d5eece1f02be52ea184a695bbe29d49d66f8b0c8ac0c003ecad9bb9dbf463796"

# each pure entry, then the compiled one when it is built
CANON_FORMS = tuple(dict.fromkeys((kernels.pure_canon_form, kernels.canon_form)))
MAX_CLIQUES = tuple(dict.fromkeys((kernels.pure_max_clique, kernels.max_clique)))
COLOR_WITHS = tuple(dict.fromkeys((kernels.pure_color_with, kernels.color_with)))
CYCLE_GROWERS = tuple(dict.fromkeys((kernels.pure_induced_cycles, kernels.induced_cycles)))
ODD_HOLES = tuple(dict.fromkeys((kernels.pure_odd_hole, kernels.odd_hole)))

compiled_only = pytest.mark.skipif(kernels.BACKEND != "c", reason="clawlab._augment did not build")


def _compiled_imports():
    try:
        importlib.import_module("clawlab._augment")
    except ImportError:
        return False
    return True


def test_backend_reports():
    # the backend is the one the import selected: the compiled one exactly
    # when clawlab._augment imports
    compiled = _compiled_imports()
    assert kernels.BACKEND == ("c" if compiled else "pure")
    assert (kernels.canon_form is kernels.pure_canon_form) == (not compiled)


def test_compiled_backend_builds_where_gcc_is_found():
    # setup.py marks the extension optional, so a C source that does not
    # compile still builds with exit status 0 and the session would fall
    # back to pure with the compiled tests skipped.  Where gcc is on PATH
    # the extension must import.  A CC in the environment names the
    # compiler instead (CC=false builds nothing, which is how the pure
    # backend is tested on a host with gcc), so then nothing is asked.
    if BUILD is None:
        pytest.skip("gcc is not on PATH")
    if "CC" in os.environ:
        pytest.skip(f"CC={os.environ['CC']} names the compiler")
    assert _compiled_imports(), f"setup.py build_ext did not build clawlab._augment:\n{BUILD.stderr}"


def compiled_entry_names():
    """The entry names of ``_augment.c``'s ``methods[]`` table, in order."""
    source = (ROOT / "src" / "clawlab" / "_augment.c").read_text()
    table = source[source.index("static PyMethodDef methods[] = {") : source.index("{NULL, NULL, 0, NULL}")]
    return re.findall(r'^\s*\{"(\w+)",', table, re.MULTILINE)


def test_predicates_follow_the_backend():
    # each entry of the compiled table has a pure_ twin in kernels, and the
    # compiled entries are bound exactly when the extension is
    compiled = kernels.BACKEND == "c"
    names = compiled_entry_names()
    assert {"canon_form", "augment", "flag_level"} <= set(names), names
    for name in names:
        assert (getattr(kernels, name) is getattr(kernels, f"pure_{name}")) == (not compiled), name


def test_bad_cycle_neighborhoods_has_only_the_python_entry():
    # flag_level screens each Observation 2 level in C, so the list of bad
    # pairs, which only flagged graphs need, is the Python function on both
    # backends and the extension does not export it
    assert "bad_cycle_neighborhoods" not in compiled_entry_names()
    assert isinstance(kernels.bad_cycle_neighborhoods, types.FunctionType)
    assert kernels.bad_cycle_neighborhoods.__module__ == "clawlab.kernels"
    if kernels.BACKEND == "c":
        assert not hasattr(importlib.import_module("clawlab._augment"), "bad_cycle_neighborhoods")


def test_bench_entry_points():
    # perfbench/run.py builds the checkout with setup.py and times
    # perfbench/probe.py, which calls every kernel entry once and reports
    # the backend this session imported
    def run(*argv):
        return subprocess.run([sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120)

    probe = run("perfbench/probe.py")
    assert probe.returncode == 0 and probe.stdout == f"ready {kernels.BACKEND}\n", probe.stderr
    build = run("setup.py", "build_ext", "--inplace")
    assert build.returncode == 0, build.stderr


def test_capacity_edge():
    full = tuple(((1 << 64) - 1) & ~(1 << v) for v in range(64))
    assert kernels.max_clique(64, full) == (1 << 64) - 1
    for canon_form in CANON_FORMS:
        assert canon_form(64, (0,) * 64) == ((0,) * 64, tuple(range(64)))
        assert canon_form(64, full) == (full, tuple(range(64)))
    assert kernels.color_with(64, full, 63) is None


def test_max_clique_brute_force(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randrange(0, 9), rng.random())
        for max_clique in MAX_CLIQUES:
            mask = max_clique(g.n, g.adj)
            vs = [v for v in range(g.n) if (mask >> v) & 1]
            assert all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))
            assert len(vs) == brute_clique_number(g)


def test_color_with_brute_force(rng):
    for _ in range(80):
        g = random_graph(rng, rng.randrange(0, 7), rng.random())
        chi = brute_chromatic_number(g)
        for color_with in COLOR_WITHS:
            col = color_with(g.n, g.adj, chi)
            assert col is not None
            assert all(col[u] != col[v] for u, v in g.edge_list())
            if chi > 1:
                assert color_with(g.n, g.adj, chi - 1) is None


def test_color_determinism(rng):
    g = random_graph(rng, 10, 0.4)
    first = kernels.color_with(g.n, g.adj, 5)
    for _ in range(5):
        assert kernels.color_with(g.n, g.adj, 5) == first


def test_find_induced_cycle_brute_force(rng, monkeypatch):
    # the witness is the lex-least induced cycle of its length, least vertex
    # first and smaller neighbour second, with either grower
    for _ in range(120):
        g = random_graph(rng, rng.randrange(3, 9), 0.45)
        for grower in CYCLE_GROWERS:
            monkeypatch.setattr(kernels, "induced_cycles", grower)
            for length in range(3, g.n + 1):
                got = kernels.find_induced_cycle(g.n, g.adj, length)
                want = brute_oriented_cycles(g, length)
                assert got == (want[0] if want else None)


def sparse_graphs(oracle7, rng):
    """The cycle-search inputs (every class on at most 7 vertices among
    them) and 40 sparse connected graphs on 17-64 vertices."""
    graphs = cycle_search_graphs(oracle7, rng)
    return graphs + [sparse_connected_graph(rng, rng.randrange(17, 65), rng.randrange(0, 6)) for _ in range(40)]


def dense_graphs(rng):
    """Seeded graphs on 40-64 vertices, dense ones and complements of
    sparse ones, and the empty and complete graphs on 64."""
    graphs = [random_graph(rng, rng.randrange(40, 65), rng.choice([0.5, 0.7, 0.9])) for _ in range(6)]
    graphs += [sparse_connected_graph(rng, rng.randrange(40, 65), rng.randrange(0, 6)).complement() for _ in range(6)]
    return graphs + [Graph(64, (0,) * 64), Graph(64, (0,) * 64).complement()]


@compiled_only
def test_compiled_predicates_match_pure(oracle7, rng):
    # every class on at most 7 vertices, the cycle-search inputs and sparse
    # connected graphs up to 64 vertices: the same first maximum clique, the
    # same colouring or None for every k, and the same cycles in the same
    # order for min_len 3..6
    for g in sparse_graphs(oracle7, rng):
        assert kernels.max_clique(g.n, g.adj) == kernels.pure_max_clique(g.n, g.adj), g
        for k in (*range(-1, g.n + 2), 2**70):
            assert kernels.color_with(g.n, g.adj, k) == kernels.pure_color_with(g.n, g.adj, k), (g, k)
        for min_len in range(3, 7):
            got = kernels.induced_cycles(g.n, g.adj, min_len, g.n)
            assert got == kernels.pure_induced_cycles(g.n, g.adj, min_len, g.n), (g, min_len)


@compiled_only
def test_compiled_predicates_match_pure_on_dense_graphs(rng):
    # seeded graphs on 40-64 vertices, dense ones and complements of sparse
    # ones, and the empty and complete graphs on 64: the same maximum
    # clique, the same answers where the colouring search is short, and the
    # same cycles of one length, which only the length bound keeps short
    for g in dense_graphs(rng):
        assert kernels.max_clique(g.n, g.adj) == kernels.pure_max_clique(g.n, g.adj), g
        for k in (-(2**70), -1, 0, g.n, g.n + 1, 2**70):
            assert kernels.color_with(g.n, g.adj, k) == kernels.pure_color_with(g.n, g.adj, k), (g, k)
        for length in range(3, 7):
            got = kernels.induced_cycles(g.n, g.adj, length, length)
            assert got == kernels.pure_induced_cycles(g.n, g.adj, length, length), (g, length)


def test_odd_hole_backends_agree_and_search_the_complement(oracle7, rng):
    # the graphs of the two tests above: the compiled odd_hole gives the
    # pure answer in both modes, complement=True is the search on the
    # complement's rows on either backend, and fewer than 5 vertices hold
    # no odd hole
    for g in sparse_graphs(oracle7, rng) + dense_graphs(rng):
        rows = g.complement().adj
        hole = kernels.pure_odd_hole(g.n, g.adj, False)
        anti = kernels.pure_odd_hole(g.n, g.adj, True)
        assert anti == kernels.pure_odd_hole(g.n, rows, False), g
        for odd_hole in ODD_HOLES[1:]:
            assert odd_hole(g.n, g.adj, False) == hole, g
            assert odd_hole(g.n, g.adj, True) == anti == odd_hole(g.n, rows, False), g
        if g.n < 5:
            assert hole is None and anti is None, g


def test_max_clique_backends_agree_and_search_the_complement(oracle7, rng):
    # the cycle-search inputs, sparse connected graphs on 17-40 vertices
    # (a maximum independent set of a sparse graph on more is a long pure
    # search) and the dense graphs: complement=True is the search on the
    # complement's rows on either backend, the compiled entry gives the
    # pure answer in both modes, and any truth value selects the mode
    graphs = cycle_search_graphs(oracle7, rng) + dense_graphs(rng)
    graphs += [sparse_connected_graph(rng, rng.randrange(17, 41), rng.randrange(0, 6)) for _ in range(10)]
    for g in graphs:
        rows = g.complement().adj
        alpha = kernels.pure_max_clique(g.n, g.adj, True)
        assert alpha == kernels.pure_max_clique(g.n, rows), g
        for max_clique in MAX_CLIQUES:
            assert max_clique(g.n, g.adj, True) == alpha, (max_clique, g)
            assert max_clique(g.n, g.adj, False) == max_clique(g.n, g.adj) == max_clique(g.n, rows, True), g
    c5 = pattern_graph("C5")
    edge, gap = kernels.pure_max_clique(c5.n, c5.adj), kernels.pure_max_clique(c5.n, c5.complement().adj)
    for max_clique in MAX_CLIQUES:
        for falsy, truthy in ((0, 1), ((), "x"), (None, [0])):
            assert max_clique(c5.n, c5.adj, falsy) == edge
            assert max_clique(c5.n, c5.adj, truthy) == gap


@compiled_only
def test_compiled_graph6_matches_pure(oracle7, rng):
    # every class on at most 7 vertices, the graphs of the tests above and
    # seeded graphs on 63 and 64 vertices (the "~" header): the same string;
    # rows with loops or one-sided edges too, since both read only the low
    # c bits of row c
    graphs = sparse_graphs(oracle7, rng) + dense_graphs(rng)
    graphs += [random_graph(rng, n, p) for n in (63, 64) for p in (0, 0.1, 0.5, 0.9, 1)]
    for g in graphs:
        assert kernels.graph6(g.n, g.adj) == kernels.pure_graph6(g.n, g.adj), g
        odd = tuple(row | rng.getrandbits(g.n) & rng.getrandbits(g.n) for row in g.adj)
        assert kernels.graph6(g.n, odd) == kernels.pure_graph6(g.n, odd), (g, odd)
    assert {len(kernels.graph6(g.n, g.adj)) for g in graphs if g.n == 64} == {4 + 336}


def test_has_induced_brute_force(rng):
    # find_induced_embedding returns the lex-least embedding; the pinned
    # reference search holds exactly when some embedding uses that vertex
    pats = [pattern_graph(t) for t in PATTERNS]
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 8), 0.5)
        for p in pats:
            embs = list(brute_embeddings(g, p))
            assert kernels.has_induced(g.n, g.adj, p.n, p.adj) == bool(embs)
            emb = kernels.find_induced_embedding(g.n, g.adj, p.n, p.adj)
            assert emb == (embs[0] if embs else None)
            touched = {v for e in embs for v in e}
            for v in range(g.n):
                assert pinned_has_induced(g.n, g.adj, p.n, p.adj, v) == (v in touched)


def _twin_hosts(rng):
    """Hosts on 8-28 vertices: seeded random graphs of every density,
    family members and relabelled cycle inflations."""
    hosts = [random_graph(rng, rng.randrange(8, 29), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])) for _ in range(24)]
    members = {"F0": (3, 6), "F1": (3, 9), "F2": (2, 7), "F3": (1, 3), "F4": (3, 5)}
    hosts += [build_family(FamilySpec(family, s))[0] for family, sizes in members.items() for s in sizes]
    for k in (5, 6, 7, 9):
        sizes = [1] * k
        for _ in range(rng.randrange(3, 29 - k)):
            sizes[rng.randrange(k)] += 1
        hosts.append(permuted(rng, build_inflation(InflationSpec(tuple(sizes)))[0])[0])
    return hosts


def test_twin_ordered_search_finds_the_least_embedding(rng):
    # the search takes twin images in ascending order, which keeps the
    # lex-least embedding and every answer of has_induced; the reference is
    # a plain search in index order
    hosts = _twin_hosts(rng)
    found = dict.fromkeys(TWIN_PATTERNS, 0)
    for g in hosts:
        for token in TWIN_PATTERNS:
            p = pattern_graph(token)
            want = next(plain_embeddings(g.n, g.adj, p.n, p.adj), None)
            assert kernels.find_induced_embedding(g.n, g.adj, p.n, p.adj) == want, (g, token)
            assert kernels.has_induced(g.n, g.adj, p.n, p.adj) == (want is not None), (g, token)
            found[token] += want is not None
    # each pattern occurs in some hosts and not in others
    assert all(0 < count < len(hosts) for count in found.values()), found


def test_embedding_walk_is_exactly_the_twin_ordered_embeddings(rng):
    # on the plan of the whole pattern and on the plan of the pattern less
    # each orbit's representative, the walk meets once each embedding whose
    # images ascend on every pair of twins (in the whole pattern), and no
    # other embedding
    graphs = [random_graph(rng, rng.randrange(5, 11), rng.choice([0.2, 0.5, 0.8])) for _ in range(60)]
    for token in TWIN_PATTERNS:
        p = pattern_graph(token)
        pairs = itertools.combinations(range(p.n), 2)
        twins = [(a, b) for a, b in pairs if p.adj[a] & ~(1 << b) == p.adj[b] & ~(1 << a)]
        assert twins, token
        free, orbits = kernels._search_plans(p.n, p.adj)
        plans = (free, *kernels._obstruction_plans(p.n, p.adj))
        for omit, plan in zip((None, *[orbit[0] for orbit in orbits]), plans, strict=True):
            rest = [q for q in range(p.n) if q != omit]
            sub = p.induced(rest)
            order = tuple(sorted(rest, key=lambda q: (-sub.degree(rest.index(q)), q)))
            assert plan == kernels._plan(p.adj, order)
            ordered = [(rest.index(a), rest.index(b)) for a, b in twins if omit not in (a, b)]
            for g in graphs:
                walked = []

                def keep(img, used, reach):
                    walked.append(tuple(img[order.index(q)] for q in rest))

                kernels._embed(g.adj, kernels._degree_masks(g.n, g.adj, p.n), plan, keep)
                want = [e for e in plain_embeddings(g.n, g.adj, sub.n, sub.adj) if all(e[a] < e[b] for a, b in ordered)]
                assert sorted(walked) == want, (g, token, omit)


# every pattern token of at most 7 vertices that the embedding tests read,
# with each parametric family up to 7 vertices
SMALL_TOKENS = [
    *dict.fromkeys([*_FIXED, *PATTERNS, *TWIN_PATTERNS, *OBSTRUCTION_PATTERNS]),
    *(f"K{k}" for k in (2, 4, 5, 6, 7)),
    *(f"P{k}" for k in (1, 2, 3, 6, 7)),
    *(f"C{k}" for k in (6, 7)),
    *(f"AH{k}" for k in (4, 5, 7)),
    "2P3",
    "K1+C5",
]


def first_embedding_cases(rng):
    """(host, pattern) pairs: every token of ``SMALL_TOKENS`` on seeded
    hosts of 0-64 vertices and five densities, random patterns of 8-16
    vertices on hosts of at most 16 vertices (seldom found), relabelled
    induced subgraphs of 8-13 vertex hosts (always found) and relabelled
    16-vertex hosts in themselves and with one pair toggled."""
    hosts = [random_graph(rng, n, p) for n in (0, 1, 3, 5, 8, 12, 16, 24, 40, 64) for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    cases = [(g, pattern_graph(t)) for g in hosts for t in SMALL_TOKENS]
    for _ in range(60):
        cases.append((random_graph(rng, rng.randrange(0, 17), rng.random()), random_graph(rng, rng.randrange(8, 17), rng.random())))
    for _ in range(60):
        g = random_graph(rng, rng.randrange(8, 14), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        cases.append((g, permuted(rng, g.induced(rng.sample(range(g.n), rng.randrange(8, g.n + 1))))[0]))
    for _ in range(6):
        g = random_graph(rng, 16, rng.choice([0.3, 0.5, 0.7]))
        p = permuted(rng, g)[0]
        cases += [(g, p), (g, toggled(rng, p))]
    return cases


def test_first_embedding_matches_pure(rng):
    # the compiled entry gives the pure walker's images on the degree plan
    # has_induced walks and on the index plan of find_induced_embedding,
    # and has_induced answers whether the pure walker finds one
    cases = first_embedding_cases(rng)
    found = 0
    for g, p in cases:
        answers = []
        for plan in (kernels._search_plans(p.n, p.adj)[0], kernels._plan(p.adj, tuple(range(p.n)))):
            want = kernels.pure_first_embedding(g.n, g.adj, plan)
            assert kernels.first_embedding(g.n, g.adj, plan) == want, (g, p, plan)
            answers.append(want is not None)
        assert kernels.has_induced(g.n, g.adj, p.n, p.adj) == answers[0] == answers[1], (g, p)
        found += answers[0]
    # both answers are common
    assert 0.2 < found / len(cases) < 0.8, (found, len(cases))


@compiled_only
def test_first_embedding_rejects_malformed_input():
    # a plan of 16 positions, a whole pattern's at the kernel bound, is
    # taken; n outside 0..64, a row bit at n or above, a plan of 17
    # positions, a degree above 16, an up, down or after position not
    # earlier than its own and a plan that is not a tuple raise ValueError
    def path(n):
        return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)]).adj

    p16 = path(16)
    plan = kernels._plan(p16, tuple(range(16)))
    assert kernels.first_embedding(16, p16, plan) == tuple(range(16))
    assert kernels.first_embedding(15, path(15), plan) is None

    def with_field(f, t, value):
        fields = list(plan)
        fields[f] = (*plan[f][:t], value, *plan[f][t + 1 :])
        return tuple(fields)

    bad = [
        ((65, (0,) * 65, plan), "n must"),
        ((16, p16[:-1] + (1 << 16,), plan), "adj row"),
        ((17, path(17), kernels._plan(path(17), tuple(range(17)))), "plan positions must be at most 16"),
        ((16, p16, with_field(0, 3, 17)), "plan degree"),
        ((16, p16, with_field(1, 3, (3,))), "plan up position"),
        ((16, p16, with_field(2, 3, (1, 4))), "plan down position"),
        ((16, p16, with_field(3, 3, 3)), "plan after position"),
        ((16, p16, list(plan)), "plan must"),
        ((16, p16, plan[:4]), "plan must"),
    ]
    for args, message in bad:
        with pytest.raises(ValueError, match=message):
            kernels.first_embedding(*args)
    with pytest.raises(TypeError, match="3 arguments"):
        kernels.first_embedding(16, p16)


def test_has_induced_takes_no_required_vertex():
    p5 = pattern_graph("P5")
    assert kernels.has_induced(p5.n, p5.adj, 2, (2, 1), -1)
    with pytest.raises(ValueError):
        kernels.has_induced(p5.n, p5.adj, 2, (2, 1), 0)


@pytest.mark.parametrize("token", [*_FIXED, "P4", "P5", "C4", "C5", "2K2", "3K1", "AH6"])
def test_search_plan_orbits_brute_force(token):
    # extension_obstructions lists once per cached orbit
    p = pattern_graph(token)
    autos = brute_automorphisms(p)
    want = {frozenset(a[v] for a in autos) for v in range(p.n)}
    _, orbits = kernels._search_plans(p.n, p.adj)
    assert {frozenset(o) for o in orbits} == want
    assert sorted(v for o in orbits for v in o) == list(range(p.n))


def test_extension_obstructions_match_pinned_search(oracle6, rng):
    # the parent plus a new vertex joined to mask holds a pattern through
    # the new vertex iff mask & S == T for a listed pair; a group of patterns
    # lists the union of its members' pairs
    pats = [pattern_graph(t) for t in OBSTRUCTION_PATTERNS]
    parents = [g for n, reps in oracle6.items() if n for g in reps]
    parents += [random_graph(rng, rng.randrange(7, 11), rng.choice([0.3, 0.5, 0.7])) for _ in range(8)]
    for g in parents:
        m = g.n
        children = [
            (*(row | 1 << m if mask >> v & 1 else row for v, row in enumerate(g.adj)), mask)
            for mask in range(1 << m)
        ]
        single = []
        for p in pats:
            pairs = kernels.extension_obstructions(m, g.adj, kernels.obstruction_plans([(p.n, p.adj)]))
            assert len(set(pairs)) == len(pairs)
            assert all(t & ~s == 0 for s, t in pairs)
            for mask, child in enumerate(children):
                want = pinned_has_induced(m + 1, child, p.n, p.adj, m)
                assert any(mask & s == t for s, t in pairs) == want, (g, p, mask)
            single.append(set(pairs))
        for i, p in enumerate(pats):
            j = (i + 1) % len(pats)
            plans = kernels.obstruction_plans([(p.n, p.adj), (pats[j].n, pats[j].adj)])
            assert set(kernels.extension_obstructions(m, g.adj, plans)) == single[i] | single[j]


def test_canon_form_matches_full_signature_refinement(oracle7, rng):
    # split-only refinement orders every cell as the full signature did, so
    # the search meets the same leaves in the same order
    graphs = [permuted(rng, g)[0] for reps in oracle7.values() for g in reps]
    for g in named_graphs():
        graphs += [g, g.complement()]
    for n in range(13):
        empty = Graph(n, (0,) * n)
        graphs += [empty, empty.complement()]
    graphs += [random_graph(rng, rng.randrange(1, 21), rng.random()) for _ in range(300)]
    for g in graphs:
        want = full_signature_canon_form(g.n, g.adj)
        for canon_form in CANON_FORMS:
            assert canon_form(g.n, g.adj) == want, (canon_form, g)


def test_canon_form_keys_past_eight_fragments(rng):
    # graphs with at least 10 distinct degrees, relabelled, on 24-64
    # vertices: the first refinement round splits the unit cell into one
    # fragment per degree, so the second keys each vertex by its counts in
    # at least 9 split fragments (every fragment but the last), more than
    # the 8 a packed key holds.  The compiled labelling gives the pure rows
    # and perm there, and every relabelling the same rows
    graphs = [random_graph(rng, rng.randrange(24, 65), rng.choice([0.3, 0.5, 0.7])) for _ in range(40)]
    graphs = [g for g in graphs if len(set(degrees(g))) >= 10]
    assert len(graphs) >= 30
    for g in graphs:
        copies = [g] + [permuted(rng, g)[0] for _ in range(2)]
        rows = kernels.pure_canon_form(g.n, g.adj)[0]
        for h in copies:
            want = kernels.pure_canon_form(h.n, h.adj)
            assert want[0] == rows, h
            for canon_form in CANON_FORMS[1:]:
                assert canon_form(h.n, h.adj) == want, h


def canon_digest(rng, canon_forms):
    """sha256 of each canon_form's (rows, perm) on seeded graphs on 8-14
    vertices; the regular ones make the search compare several leaves."""
    graphs = [
        random_graph(rng, rng.randrange(8, 15), rng.choice([0.1, 0.2, 0.35, 0.5, 0.65, 0.8, 0.9]))
        for _ in range(1000)
    ]
    graphs += [
        random_regular_graph(rng, rng.randrange(8, 15), rng.choice([(1,), (1, 2), (1, 3), (1, 2, 3)]))
        for _ in range(100)
    ]
    return [
        hashlib.sha256("\n".join(repr(canon_form(g.n, g.adj)) for g in graphs).encode()).hexdigest()
        for canon_form in canon_forms
    ]


def test_canon_form_pinned(rng):
    # both labellings give the pinned rows
    assert canon_digest(rng, CANON_FORMS) == [CANON_DIGEST] * len(CANON_FORMS)


def test_empty_graph_takes_the_general_path():
    # K0 on both backends: no clique vertex in it or in its complement, no
    # odd hole or antihole, and no class of the level [K0] flagged
    for max_clique in dict.fromkeys((kernels.pure_max_clique, kernels.max_clique)):
        assert max_clique(0, ()) == max_clique(0, (), False) == max_clique(0, (), True) == 0
    for odd_hole in dict.fromkeys((kernels.pure_odd_hole, kernels.odd_hole)):
        assert odd_hole(0, (), False) is None and odd_hole(0, (), True) is None
    for flag_level in dict.fromkeys((kernels.pure_flag_level, kernels.flag_level)):
        assert flag_level(0, [()], 0) == flag_level(0, [()], 1) == []


@compiled_only
def test_compiled_predicates_keep_pure_edges(rng):
    # colour counts of at most 0 colour nothing but the empty graph and any
    # count from n on acts as n; lengths below 3 count as 3, a maximum
    # below the minimum lists nothing, and lengths beyond a C long list
    # every cycle (a maximum) or nothing (a minimum)
    huge = 2**70
    for color_with in COLOR_WITHS:
        for k in (-huge, -1, 0, 1, huge):
            assert color_with(0, (), k) == ()
    for _ in range(40):
        g = random_graph(rng, rng.randrange(1, 11), rng.random())
        for k in (-huge, -1, 0):
            assert kernels.color_with(g.n, g.adj, k) is None
        for k in (g.n + 1, g.n + 7, huge):
            assert kernels.color_with(g.n, g.adj, k) == kernels.color_with(g.n, g.adj, g.n)
            assert kernels.color_with(g.n, g.adj, k) == kernels.pure_color_with(g.n, g.adj, k)
        for induced_cycles in CYCLE_GROWERS:
            three = induced_cycles(g.n, g.adj, 3, g.n)
            for min_len in (-huge, -1, 0, 2):
                assert induced_cycles(g.n, g.adj, min_len, g.n) == three
            assert induced_cycles(g.n, g.adj, 3, huge) == three
            for min_len, max_len in ((3, 2), (0, 2), (5, 4), (huge, g.n), (3, -huge)):
                assert induced_cycles(g.n, g.adj, min_len, max_len) == []
    # odd_hole takes what its siblings take: n = 65, a wrong row count, a
    # negative or non-int row and a bit at n or above raise ValueError; any
    # truth value selects the mode
    c5 = pattern_graph("C5")
    for complement in (False, True):
        with pytest.raises(ValueError, match="n must"):
            kernels.odd_hole(65, (0,) * 65, complement)
        for adj in (c5.adj[:-1], c5.adj + (0,)):
            with pytest.raises(ValueError, match="adj must hold"):
                kernels.odd_hole(c5.n, adj, complement)
        for row in (-1, "1", 1.0, None, 1 << c5.n, 1 << 64):
            with pytest.raises(ValueError, match="adj row"):
                kernels.odd_hole(c5.n, c5.adj[:-1] + (row,), complement)
    assert kernels.odd_hole(c5.n, c5.adj, False) == (0, 1, 2, 3, 4)
    assert kernels.odd_hole(c5.n, c5.adj, True) == (0, 2, 4, 1, 3)
    for falsy, truthy in ((0, 1), ((), "x"), (None, [0])):
        assert kernels.odd_hole(c5.n, c5.adj, falsy) == (0, 1, 2, 3, 4)
        assert kernels.odd_hole(c5.n, c5.adj, truthy) == (0, 2, 4, 1, 3)
    # max_clique takes two arguments or three, the third a truth value that
    # is asked for after the rows are checked
    class Unsure:
        def __bool__(self):
            raise RuntimeError("no truth value")

    for args in ((c5.n,), (c5.n, c5.adj, True, True)):
        with pytest.raises(TypeError, match="2 or 3 arguments"):
            kernels.max_clique(*args)
    with pytest.raises(ValueError, match="adj row"):
        kernels.max_clique(c5.n, c5.adj[:-1] + (1 << c5.n,), Unsure())
    with pytest.raises(RuntimeError, match="no truth value"):
        kernels.max_clique(c5.n, c5.adj, Unsure())
