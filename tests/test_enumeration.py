import functools
import hashlib
import itertools

import pytest

from clawlab import kernels
from clawlab.canon import canonical_label
from clawlab.enumeration import EnumerationConfig, enumerate_graphs, enumerate_levels, oracle_enumerate
from clawlab.graphs import Graph, rows_connected, to_graph6, vertices_of
from clawlab.invariants import independence_number
from clawlab.patterns import is_free, pattern_graph
from conftest import brute_automorphisms, catalog_labels, degrees, permuted, pinned_has_induced, random_graph


def collect(config):
    per_n = {}
    count = enumerate_graphs(config, lambda g: per_n.setdefault(g.n, set()).add(to_graph6(g)))
    return count, per_n


@functools.lru_cache(maxsize=None)
def _connected_levels():
    """The connected classes on 1..8 vertices, level by level, as canonical
    rows in visit order (counts pinned to OEIS A001349)."""
    levels = {n: [] for n in range(1, 9)}
    enumerate_graphs(EnumerationConfig(max_n=8, connected_only=True), lambda g: levels[g.n].append(g.adj))
    return levels


def oracle_filtered(oracle, n_range, keep):
    return {n: {to_graph6(g) for g in oracle[n] if keep(g)} for n in n_range}


def emitted(g, config):
    """Whether a pattern-free class is one the config emits: alpha at least
    ``min_alpha`` (which the generation tree guarantees), connected if the
    config asks it, and no odd cycle if the config excludes them, read off
    the ``Graph`` methods, not off ``enumerate_levels``'s row tests."""
    if independence_number(g)[0] < config.min_alpha or (config.connected_only and not g.is_connected()):
        return False
    return not (config.exclude_odd_cycles and g.n % 2 == 1 and g.is_cycle())


PRUNE_SETS = [(), ("K1_3",), ("K1_3", "P5"), ("K1_3", "Z2"), ("C4",)]

# the pure per-parent step, then the compiled one when it is built
AUGMENTS = tuple(dict.fromkeys((kernels.pure_augment, kernels.augment)))

compiled_only = pytest.mark.skipif(kernels.BACKEND != "c", reason="clawlab._augment did not build")


class TestConfig:
    def test_max_n_bounds(self):
        with pytest.raises(ValueError):
            EnumerationConfig(max_n=0)
        with pytest.raises(ValueError):
            EnumerationConfig(max_n=12)

    def test_prune_pattern_size_cap(self):
        with pytest.raises(ValueError):
            EnumerationConfig(max_n=5, free_of=("AH8",))
        EnumerationConfig(max_n=5, free_of=("AH7",))

    def test_string_free_of_rejected(self):
        # a bare string would be read as one token per character
        for token in ("P5", "B"):
            with pytest.raises(ValueError, match="free_of"):
                EnumerationConfig(max_n=6, free_of=token)
        assert EnumerationConfig(max_n=6, free_of=["P5"]).free_of == ("P5",)


class TestAgainstOracle:
    def test_unrestricted_counts(self, oracle6):
        count, per_n = collect(EnumerationConfig(max_n=6))
        assert count == 1 + 2 + 4 + 11 + 34 + 156
        labels = catalog_labels(oracle6)
        for n in range(1, 7):
            assert per_n[n] == labels[n]

    def test_connected_counts(self, oracle6):
        count, per_n = collect(EnumerationConfig(max_n=6, connected_only=True))
        assert {n: len(s) for n, s in per_n.items()} == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
        want = oracle_filtered(oracle6, range(1, 7), lambda g: g.is_connected())
        assert per_n == want

    def test_connected_count_example(self):
        # connected classes on 1..4 vertices: 1, 1, 2, 6
        count, per_n = collect(EnumerationConfig(max_n=4, connected_only=True))
        assert count == 10
        assert {n: len(s) for n, s in per_n.items()} == {1: 1, 2: 1, 3: 2, 4: 6}

    def test_triangle_free(self, oracle6):
        count, per_n = collect(EnumerationConfig(max_n=5, free_of=("C3",)))
        want = oracle_filtered(oracle6, range(1, 6), lambda g: is_free(g, ["C3"]))
        assert per_n == want

    def test_claw_free_connected(self, oracle6):
        count, per_n = collect(
            EnumerationConfig(max_n=6, connected_only=True, free_of=("K1_3",))
        )
        want = oracle_filtered(
            oracle6, range(1, 7), lambda g: g.is_connected() and is_free(g, ["K1_3"])
        )
        assert per_n == want
        assert {n: len(s) for n, s in per_n.items()} == {1: 1, 2: 1, 3: 2, 4: 5, 5: 14, 6: 50}

    def test_min_alpha_filter(self, oracle6):
        count, per_n = collect(EnumerationConfig(max_n=6, connected_only=True, min_alpha=3))
        want = oracle_filtered(
            oracle6,
            range(1, 7),
            lambda g: g.is_connected() and independence_number(g)[0] >= 3,
        )
        assert {n: per_n.get(n, set()) for n in range(1, 7)} == want

    def test_exclude_odd_cycles(self, oracle6):
        count, per_n = collect(
            EnumerationConfig(max_n=6, connected_only=True, exclude_odd_cycles=True)
        )

        def is_odd_cycle(g):
            return g.n % 2 == 1 and g.n >= 3 and g.is_connected() and all(d == 2 for d in degrees(g))

        want = oracle_filtered(
            oracle6, range(1, 7), lambda g: g.is_connected() and not is_odd_cycle(g)
        )
        assert per_n == want

    def test_oeis_counts_n8(self):
        # OEIS A000088 (all graphs) and A001349 (connected graphs), n = 1..8
        per_n, connected = {}, {}

        def visit(g):
            per_n[g.n] = per_n.get(g.n, 0) + 1
            if g.is_connected():
                connected[g.n] = connected.get(g.n, 0) + 1

        count = enumerate_graphs(EnumerationConfig(max_n=8), visit)
        assert [per_n[n] for n in range(1, 9)] == [1, 2, 4, 11, 34, 156, 1044, 12346]
        assert [connected[n] for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11117]
        assert count == sum(per_n.values())

    def test_oeis_connected_counts_n8(self):
        # OEIS A001349, grown on the connected tree
        levels = _connected_levels()
        assert [len(levels[n]) for n in range(1, 9)] == [1, 1, 2, 6, 21, 112, 853, 11117]

    @pytest.mark.parametrize("tokens", PRUNE_SETS, ids=lambda t: ",".join(t) or "none")
    def test_last_level_matches_oracle(self, tokens, oracle7):
        """The classes emitted at ``max_n`` are the oracle's classes that are
        free of the patterns and ``emitted``: from the alpha tree, and from
        the connected tree for every connected config, those whose class
        holds claws (no pattern, or C4) included."""
        for max_n in range(1, 8):
            free = [g for g in oracle7[max_n] if is_free(g, list(tokens))]
            for connected, min_alpha, odd in itertools.product((False, True), range(5), (False, True)):
                config = EnumerationConfig(
                    max_n=max_n,
                    connected_only=connected,
                    free_of=tokens,
                    min_alpha=min_alpha,
                    exclude_odd_cycles=odd,
                )
                _, per_n = collect(config)
                want = {to_graph6(g) for g in free if emitted(g, config)}
                assert per_n.get(max_n, set()) == want, config

    @pytest.mark.parametrize("tokens", PRUNE_SETS, ids=lambda t: ",".join(t) or "none")
    def test_every_level_matches_oracle(self, tokens, oracle7):
        """Each level of the alpha >= a tree holds exactly the oracle's
        pattern-free classes with alpha >= a."""
        for min_alpha in range(1, 5):
            _, per_n = collect(EnumerationConfig(max_n=7, free_of=tokens, min_alpha=min_alpha))
            want = oracle_filtered(
                oracle7,
                range(1, 8),
                lambda g: is_free(g, list(tokens)) and independence_number(g)[0] >= min_alpha,
            )
            assert {n: per_n.get(n, set()) for n in range(1, 8)} == want, min_alpha

    def test_root_holds_a_pattern(self):
        # 3K1 is the root of the alpha >= 3 tree, so the tree is empty
        assert enumerate_graphs(EnumerationConfig(max_n=7, free_of=("3K1",), min_alpha=3)) == 0

    @compiled_only
    def test_oeis_counts_n9(self):
        # OEIS A000088 and A001349 at n = 9 on the compiled path, counted by
        # a visit that keeps nothing
        per_n, connected = [0] * 10, [0] * 10

        def visit(g):
            per_n[g.n] += 1

        def visit_connected(g):
            connected[g.n] += 1

        assert enumerate_graphs(EnumerationConfig(max_n=9), visit) == sum(per_n)
        enumerate_graphs(EnumerationConfig(max_n=9, connected_only=True), visit_connected)
        assert per_n[1:] == [1, 2, 4, 11, 34, 156, 1044, 12346, 274668]
        assert connected[1:] == [1, 1, 2, 6, 21, 112, 853, 11117, 261080]

    def test_min_alpha_above_max_n_builds_nothing(self, monkeypatch):
        def unused(*args):
            raise AssertionError("no graph should be built")

        monkeypatch.setattr(kernels, "has_induced", unused)
        monkeypatch.setattr(kernels, "canon_form", unused)
        config = EnumerationConfig(max_n=11, free_of=("K1_3",), min_alpha=10**6)
        assert enumerate_graphs(config, unused) == 0


def _profile(g, v, upto=None):
    """Neighbour counts of v in each degree class, classes by ascending
    degree, up to degree ``upto`` when given."""
    degs = degrees(g)
    return tuple(
        sum(1 for u in vertices_of(g.adj[v]) if degs[u] == d)
        for d in sorted(set(degs))
        if upto is None or d <= upto
    )


def test_canonically_last_vertex_passes_filter(oracle7, rng):
    """The invariant enumeration's vertex-invariant filter relies on.

    The vertex ``canon_form`` puts last has maximum degree and, among the
    maximum-degree vertices, a lexicographically maximal profile.  If it
    did not, the filter in ``kernels.augment`` would silently drop classes.
    """
    graphs = [permuted(rng, g)[0] for n in range(1, 8) for g in oracle7[n]]
    for _ in range(200):
        graphs.append(random_graph(rng, rng.randrange(8, 15), rng.choice([0.2, 0.4, 0.6, 0.8])))
    for g in graphs:
        _, perm = kernels.canon_form(g.n, g.adj)
        last = perm.index(g.n - 1)
        degs = degrees(g)
        top = max(degs)
        assert degs[last] == top, g.adj
        mine = _profile(g, last)
        assert all(_profile(g, v) <= mine for v in range(g.n) if degs[v] == top), g.adj


def _child_rows(rep, mask):
    """Rows of ``rep`` plus a last vertex joined to the vertices in ``mask``."""
    m = rep.n
    return tuple(row | ((mask >> v) & 1) << m for v, row in enumerate(rep.adj)) + (mask,)


def _alpha_without(g, v):
    return independence_number(g.induced(u for u in range(g.n) if u != v))[0]


@functools.lru_cache(maxsize=64)
def _free_children(rep, pattern_adjs):
    """One ``(rows, perm, child)`` per class of the parent plus one vertex
    free of the patterns: every mask, pinned pattern pruning, dedup by
    canonical form."""
    m, n = rep.n, rep.n + 1
    seen, out = set(), []
    for mask in range(1 << m):
        adj = _child_rows(rep, mask)
        if any(pinned_has_induced(n, adj, pn, padj, m) for pn, padj in pattern_adjs):
            continue
        cert, perm = kernels.canon_form(n, adj)
        if cert not in seen:
            seen.add(cert)
            out.append((cert, perm, Graph.trusted(n, adj)))
    return out


def _without(g, v):
    return g.induced(u for u in range(g.n) if u != v)


def _reference_children(rep, pattern_adjs, min_alpha=0, connected=False):
    """Canonical augmentation with no vertex-invariant filter and no twin
    reduction (``_free_children``), acceptance when deleting w gives the
    parent.  w is the canonically last vertex of D(child) = {v : alpha(child
    - v) >= min_alpha}, each alpha computed on the child itself; with
    ``min_alpha <= 1`` it is the canonically last vertex.  With
    ``connected`` (the connected tree, for a connected parent) only the
    connected children count, and w is the canonically last vertex of
    D_c(child), the vertices of D(child) whose deletion leaves the child
    connected."""
    out = []
    for cert, perm, child in _free_children(rep, tuple(pattern_adjs)):
        if connected and not child.is_connected():
            continue
        from_last = sorted(range(child.n), key=perm.__getitem__, reverse=True)
        w = next(
            v
            for v in from_last
            if (min_alpha <= 1 or _alpha_without(child, v) >= min_alpha)
            and (not connected or _without(child, v).is_connected())
        )
        rest = _without(child, w)
        if kernels.canon_form(rep.n, rest.adj)[0] == rep.adj:
            out.append(cert)
    return sorted(out)


def _swaps_to_automorphism(adj, u, w):
    """Whether swapping vertices ``u`` and ``w`` maps the graph with rows
    ``adj`` onto itself."""
    perm = list(range(len(adj)))
    perm[u], perm[w] = w, u
    return all(adj[perm[a]] >> perm[b] & 1 == adj[a] >> b & 1 for a in range(len(adj)) for b in range(len(adj)))


def _twin_classes(adj):
    """The classes of two or more twins, as ascending vertex lists: u and w
    are twins iff swapping them is an automorphism."""
    classes, placed = [], set()
    for v in range(len(adj)):
        if v in placed:
            continue
        members = [v] + [u for u in range(v + 1, len(adj)) if _swaps_to_automorphism(adj, v, u)]
        placed.update(members)
        if len(members) > 1:
            classes.append(members)
    return classes


def _planted_twins_parent(rng, n):
    """A random canonical graph on ``n`` vertices with a false-twin class and
    a true-twin class of 3 or 4 vertices each.

    Each vertex is a copy of a vertex of a random base graph; copies are
    adjacent when their originals are, and copies of the true-twin original
    also to each other.
    """
    a, b = rng.choice((3, 4)), rng.choice((3, 4))
    base = random_graph(rng, n - a - b + 2, 0.5)
    origin = [0] * a + [1] * b + list(range(2, base.n))
    rng.shuffle(origin)
    edges = [
        (u, w)
        for u in range(n)
        for w in range(u + 1, n)
        if base.has_edge(origin[u], origin[w]) or origin[u] == origin[w] == 1
    ]
    g = Graph.from_edges(n, edges)
    return Graph.trusted(n, kernels.canon_form(n, g.adj)[0])


def _holds_lowest(mask, members):
    """Whether the mask's vertices among ``members`` (ascending) come first."""
    inside = [v for v in members if (mask >> v) & 1]
    return inside == members[: len(inside)]


def _reference_masks(rep, min_alpha=0, connected=False):
    """The masks stages 0-2 of ``kernels.augment`` must pass, read off each child's
    own rows: the mask meets each twin class in its lowest vertices, and
    against the rivals R = {v : alpha(P - v) >= min_alpha} the new vertex
    has maximum degree and, among the rivals of its degree, a maximal
    profile over the degree classes up to its degree.  With ``connected``
    the mask is not empty, and the rivals are the vertices of R that are no
    cut vertex of P, less the mask's own vertex when it has one."""
    m = rep.n
    twins = _twin_classes(rep.adj)
    rivals = [v for v in range(m) if _alpha_without(rep, v) >= min_alpha]
    if connected:
        rivals = [v for v in rivals if _without(rep, v).is_connected()]
    for mask in range(connected, 1 << m):
        if not all(_holds_lowest(mask, members) for members in twins):
            continue
        child = Graph.trusted(m + 1, _child_rows(rep, mask))
        if connected and mask.bit_count() == 1:
            rivals_here = [v for v in rivals if mask != 1 << v]
        else:
            rivals_here = rivals
        degs = degrees(child)
        k = degs[m]
        if any(degs[v] > k for v in rivals_here):
            continue
        mine = _profile(child, m, k)
        if any(_profile(child, v, k) > mine for v in rivals_here if degs[v] == k):
            continue
        yield mask


def _parents(oracle6, rng):
    """Every class on 1-6 vertices, then four random parents on 8-9 vertices
    with planted twin classes."""
    parents = [g for k in range(1, 7) for g in oracle6[k]]
    for n in (8, 8, 9, 9):
        parents.append(_planted_twins_parent(rng, n))
        assert max(map(len, _twin_classes(parents[-1].adj))) >= 3
    return parents


class TestChildren:
    @pytest.mark.parametrize("tokens", PRUNE_SETS, ids=lambda t: ",".join(t) or "none")
    def test_matches_reference(self, tokens, oracle6, rng):
        """For each bound a = 0..4 with alpha(P) >= a (the parents of the
        alpha >= a tree), stages 0-2 of each ``augment`` entry drop only
        masks whose class the reference for a also drops or produces from
        another mask, on the alpha tree and, for a connected parent, on the
        connected tree (D_c acceptance)."""
        pats = [(p.n, p.adj) for p in map(pattern_graph, tokens)]
        plans = kernels.obstruction_plans(pats)
        for rep in _parents(oracle6, rng):
            bounds = [0, 1, *range(2, min(independence_number(rep)[0], 4) + 1)]
            trees = (False, True) if rep.is_connected() else (False,)
            want = {(a, c): _reference_children(rep, pats, a, c) for a in bounds for c in trees}
            for augment in AUGMENTS:
                for (a, connected), ref in want.items():
                    got = sorted(augment(rep.n, [rep.adj], plans, a, connected))
                    assert got == ref, (augment, rep.adj, a, connected)

    def test_connected_tree_skips_disconnected_parents(self, oracle6):
        """On the connected tree a disconnected parent has no children, on
        each ``augment`` entry; its connected siblings on the same call keep
        theirs."""
        plans = kernels.obstruction_plans([(p.n, p.adj) for p in map(pattern_graph, ("K1_3",))])
        for augment in AUGMENTS:
            for m in range(2, 7):
                for rep in oracle6[m]:
                    if rep.is_connected():
                        continue
                    for a in range(4):
                        assert augment(m, [rep.adj], plans, a, True) == [], (augment, rep.adj, a)
                connected = [rep.adj for rep in oracle6[m] if rep.is_connected()]
                every = [rep.adj for rep in oracle6[m]]
                assert augment(m, every, plans, 0, True) == augment(m, connected, plans, 0, True), (augment, m)

    @compiled_only
    @pytest.mark.parametrize("tokens", PRUNE_SETS, ids=lambda t: ",".join(t) or "none")
    def test_augment_matches_pure(self, tokens, oracle6, rng):
        """On every parent of ``test_matches_reference``, for a = 0..4 and
        with the connectivity filter off and on, the compiled ``augment``
        gives the list of ``pure_augment``, both sorted."""
        plans = kernels.obstruction_plans([(p.n, p.adj) for p in map(pattern_graph, tokens)])
        for rep in _parents(oracle6, rng):
            for a in range(5):
                for connected in (False, True):
                    got = kernels.augment(rep.n, [rep.adj], plans, a, connected)
                    want = kernels.pure_augment(rep.n, [rep.adj], plans, a, connected)
                    assert got == want == sorted(want), (rep.adj, a, connected)

    def test_level_call_concatenates_parent_calls(self, oracle6):
        """One call on many parents, in any order, gives the next level
        sorted: the per-parent calls' children, concatenated and sorted, on
        each ``augment`` entry."""
        plans = kernels.obstruction_plans([(p.n, p.adj) for p in map(pattern_graph, ("K1_3", "C4"))])
        for augment in AUGMENTS:
            assert augment(3, [], plans, 0, False) == []
            for m in range(1, 7):
                parents = [rep.adj for rep in reversed(oracle6[m])]
                for a in (0, 2):
                    for connected in (False, True):
                        want = sorted(rows for p in parents for rows in augment(m, [p], plans, a, connected))
                        assert augment(m, parents, plans, a, connected) == want, (augment, m, a, connected)

    def test_pure_augment_calls_no_compiled_entry(self, oracle6, rng, monkeypatch):
        """``pure_augment`` gives the same rows with every kernel binding
        and every entry of ``clawlab._augment`` (when it imports) replaced
        by one that raises: it runs pure code alone on either backend."""
        plans = kernels.obstruction_plans([(p.n, p.adj) for p in map(pattern_graph, ("K1_3", "P5"))])
        calls = [
            (rep.n, [rep.adj], plans, a, connected)
            for rep in _parents(oracle6, rng)
            for a in range(4)
            for connected in (False, True)
        ]
        want = [kernels.pure_augment(*call) for call in calls]

        def compiled(*args):
            raise AssertionError("a compiled entry was called")

        entries = ("canon_form", "augment", "max_clique", "color_with", "induced_cycles")
        for name in entries:
            monkeypatch.setattr(kernels, name, compiled)
        if kernels.BACKEND == "c":
            for name in entries:
                monkeypatch.setattr(kernels._augment, name, compiled)
        assert [kernels.pure_augment(*call) for call in calls] == want

    def test_stages_pass_exactly_the_documented_masks(self, oracle6, rng, monkeypatch):
        """With no pattern, every mask that passes stages 0-2 is labelled
        once, so the labelled masks show what the stages let through, for
        the whole tree and for the alpha >= 2 and alpha >= 3 trees, and for
        the connected tree from each connected parent (in ``pure_augment``,
        whose labelling calls can be watched)."""
        parents = _parents(oracle6, rng)
        labelled = []
        canon_form = kernels.pure_canon_form

        def spy(n, adj):
            labelled.append(adj)
            return canon_form(n, adj)

        monkeypatch.setattr(kernels, "pure_canon_form", spy)
        for rep in parents:
            alpha = independence_number(rep)[0]
            for a in (0, 2, 3):
                if a > alpha:
                    continue
                for connected in (False, True) if rep.is_connected() else (False,):
                    labelled.clear()
                    kernels.pure_augment(rep.n, [rep.adj], (), a, connected)
                    got = [adj[-1] for adj in labelled if len(adj) == rep.n + 1]
                    assert sorted(got) == list(_reference_masks(rep, a, connected)), (rep.adj, a, connected)

    @pytest.mark.parametrize("tokens", [*PRUNE_SETS, ("K1",)], ids=lambda t: ",".join(t) or "none")
    def test_walk_reaches_exactly_the_filtered_masks(self, tokens, oracle6, rng):
        """The leaves of the mask walk (``kernels._walk``), once each, are
        the masks a filter over all 2^m masks keeps: popcount at least
        ``lo`` or, on the connected tree, 1; each twin class met in its
        lowest vertices; and no obstruction pair with ``mask & S == T``.
        For every ``lo`` on the alpha tree and every ``lo >= 2`` on the
        connected tree; the one-vertex pattern K1 gives the pair (0, 0),
        which every mask meets."""
        pats = [(p.n, p.adj) for p in map(pattern_graph, tokens)]
        for rep in _parents(oracle6, rng):
            m = rep.n
            pairs = kernels.extension_obstructions(m, rep.adj, kernels.obstruction_plans(pats))
            twins = _twin_classes(rep.adj)
            kept = [
                mask
                for mask in range(1 << m)
                if all(_holds_lowest(mask, members) for members in twins) and not any(mask & s == t for s, t in pairs)
            ]
            for connected in (False, True):
                for lo in range(2 if connected else 0, m + 2):
                    want = [mask for mask in kept if mask.bit_count() >= lo or connected and mask.bit_count() == 1]
                    got = kernels._walk(rep.adj, pairs, lo, connected)
                    assert sorted(got) == want, (rep.adj, tokens, lo, connected)
            if tokens == ("K1",):
                assert not kept

    def test_twin_classes_are_transposition_orbits(self, oracle6):
        """A transposition is an automorphism exactly when its two vertices
        are twins (``kernels._twins``, from which the mask walk builds each
        vertex's higher twins), and being twins is transitive, so the twin
        classes are disjoint."""
        for k in range(1, 7):
            for g in oracle6[k]:
                autos = set(brute_automorphisms(g))
                for u, w in itertools.combinations(range(g.n), 2):
                    swap = list(range(g.n))
                    swap[u], swap[w] = w, u
                    assert (tuple(swap) in autos) == kernels._twins(g.adj, u, w), (g.adj, u, w)
                for u, v, w in itertools.permutations(range(g.n), 3):
                    if kernels._twins(g.adj, u, v) and kernels._twins(g.adj, v, w):
                        assert kernels._twins(g.adj, u, w), (g.adj, u, v, w)


class TestProperties:
    def test_no_two_isomorphic(self):
        labels = []
        enumerate_graphs(
            EnumerationConfig(max_n=7, connected_only=True, free_of=("K1_3",)),
            lambda g: labels.append(canonical_label(g)),
        )
        assert len(labels) == len(set(labels))

    def test_deterministic_visit_order(self):
        def run():
            seq = []
            enumerate_graphs(EnumerationConfig(max_n=5, free_of=("C4",)), lambda g: seq.append(to_graph6(g)))
            return seq

        assert run() == run()

    def test_one_augment_call_per_level(self, monkeypatch):
        """``enumerate_graphs`` extends each level above the root aK1 by one
        ``kernels.augment`` call, empty levels included."""
        calls = []
        augment = kernels.augment

        def counted(m, parents, plans, min_alpha, connected):
            calls.append(m)
            return augment(m, parents, plans, min_alpha, connected)

        monkeypatch.setattr(kernels, "augment", counted)
        configs = [
            EnumerationConfig(max_n=6),
            EnumerationConfig(max_n=8, connected_only=True, free_of=("K1_3", "P5"), min_alpha=3),
            EnumerationConfig(max_n=4, free_of=("K1",)),
            EnumerationConfig(max_n=2, min_alpha=3),
        ]
        for config in configs:
            calls.clear()
            enumerate_graphs(config)
            assert calls == list(range(max(config.min_alpha, 1), config.max_n)), config

    def test_count_equals_visits(self):
        seen = []
        count = enumerate_graphs(EnumerationConfig(max_n=5), lambda g: seen.append(g))
        assert count == len(seen)

    def test_graph6_stream_n7_pinned(self):
        # the exact canonical rows of every class up to 7 vertices, in visit
        # order, as first measured
        lines = []
        enumerate_graphs(EnumerationConfig(max_n=7), lambda g: lines.append(to_graph6(g)))
        assert len(lines) == 1252
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "7e3303a5177cb704948d948520e2bc77be71da2ef8ed1cd9e8c0691ce7175f29"

    @pytest.mark.parametrize(
        "config, count, digest",
        [
            (
                EnumerationConfig(
                    max_n=9, connected_only=True, free_of=("K1_3", "P5"), min_alpha=3, exclude_odd_cycles=True
                ),
                133,
                "0dcc8f3989813c8db3c31b3d3e13261ca861fedf0ede1e6cf079cf75e1ae6c04",
            ),
            (
                EnumerationConfig(max_n=8, connected_only=True, free_of=("K1_3",), min_alpha=3),
                579,
                "4d0f9bc39cfd4a8c1ed3e6f045de3b12893041ea5f7ada79eae6825ff6c22e11",
            ),
            (
                EnumerationConfig(max_n=7, min_alpha=2),
                1245,
                "2930d4f058a77f94cd8cffe1f861cff60da84d13508f396ee1cc51dd4e4362f0",
            ),
        ],
        ids=["T5-P5-9", "claw-alpha3-8", "alpha2-7"],
    )
    def test_alpha_streams_pinned(self, config, count, digest):
        # graph6 streams with a min_alpha bound, as measured when every level
        # still held the whole hereditary class
        lines = []
        assert enumerate_graphs(config, lambda g: lines.append(to_graph6(g))) == count
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest

    def test_representatives_are_canonical(self):
        def check(g):
            from clawlab.canon import canonical_form

            assert canonical_form(g) == g

        enumerate_graphs(EnumerationConfig(max_n=5), check)


@functools.lru_cache(maxsize=None)
def _certified_levels():
    """The levels the stream certificates read, as ``(n, rows list)``
    pairs: the unrestricted stream up to 7 vertices, the connected one up
    to 8 (``_connected_levels``) and the T5 stream for P5 up to 9."""
    t5 = EnumerationConfig(max_n=9, connected_only=True, free_of=("K1_3", "P5"), min_alpha=3, exclude_odd_cycles=True)
    levels = [*enumerate_levels(EnumerationConfig(max_n=7)), *_connected_levels().items(), *enumerate_levels(t5)]
    return tuple((n, level) for n, level in levels if level)


def _relabelled(adj, perm):
    """The rows of the graph with each vertex v renamed ``perm[v]``."""
    out = [0] * len(adj)
    for v, row in enumerate(adj):
        out[perm[v]] = sum(1 << perm[u] for u in vertices_of(row))
    return tuple(out)


def _shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _refined_colours(n, level):
    """Plain colour refinement (1-WL) of each graph of one level, with one
    colour table for the whole level so that colours compare across its
    graphs: from the degrees, each round recolours every vertex by its
    colour and the sorted colours of its neighbours, until a round adds no
    colour.  Isomorphic graphs go through the same rounds, so they get
    equal sorted colourings, and an isomorphism keeps each vertex's
    colour."""
    table = {}
    out = []
    for adj in level:
        nbrs = [vertices_of(row) for row in adj]
        colours = [-len(nb) - 1 for nb in nbrs]  # below every table colour
        count = len(set(colours))
        while True:
            colours = [table.setdefault((colours[v], tuple(sorted([colours[u] for u in nb]))), len(table)) for v, nb in enumerate(nbrs)]
            if len(set(colours)) == count:
                break
            count = len(set(colours))
        out.append(colours)
    return out


def _plain_isomorphic(n, a, colours_a, b, colours_b):
    """Whether some map of a's vertices onto b's that keeps the refined
    colours is an isomorphism: plain backtracking in vertex order."""
    image = [0] * n
    used = [False] * n

    def extend(v):
        if v == n:
            return True
        for w in range(n):
            if used[w] or colours_b[w] != colours_a[v]:
                continue
            if all((a[v] >> u & 1) == (b[w] >> image[u] & 1) for u in range(v)):
                image[v], used[w] = w, True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


class TestCertificates:
    """The streams checked without trusting ``canon_form``'s dedup, on
    levels Tier-1 builds anyway (``_certified_levels``)."""

    def test_labelling_perm_gives_the_rows(self, rng):
        # each class, as emitted and relabelled at random: the labeller's
        # perm, applied to its input, gives the rows it returns
        for n, level in _certified_levels():
            for rows in level:
                for adj in (rows, _relabelled(rows, _shuffled(rng, n))):
                    cert, perm = kernels.canon_form(n, adj)
                    assert _relabelled(adj, perm) == cert, (n, adj)

    def test_no_two_classes_of_a_level_are_isomorphic(self, rng):
        # classes that colour refinement does not separate are told apart
        # by the backtracking test, which does find the isomorphism to a
        # random relabelling of each of them
        unseparated = 0
        for n, level in _certified_levels():
            relabels = [_relabelled(rows, _shuffled(rng, n)) for rows in level]
            colourings = _refined_colours(n, [*level, *relabels])
            groups = {}
            for i, colours in enumerate(colourings[: len(level)]):
                groups.setdefault(tuple(sorted(colours)), []).append(i)
            for members in groups.values():
                for j, i in enumerate(members):
                    assert _plain_isomorphic(n, level[i], colourings[i], relabels[i], colourings[len(level) + i])
                    for k in members[:j]:
                        unseparated += 1
                        assert not _plain_isomorphic(n, level[i], colourings[i], level[k], colourings[k]), (n, i, k)
        # regular classes of one degree, among others, reach the backtracking
        assert unseparated > 100, unseparated

    def test_classes_label_back_to_their_rows(self, rng):
        # as a cheap extra that does read canon_form: each class, relabelled
        # at random, labels back to its own rows
        for n, level in _certified_levels():
            for rows in level:
                assert kernels.canon_form(n, _relabelled(rows, _shuffled(rng, n)))[0] == rows, (n, rows)


CLOSURE_MAX_N = 8


@functools.lru_cache(maxsize=None)
def _claw_free_extensions():
    """Per n in 2..``CLOSURE_MAX_N``, each claw-free class on n - 1 vertices
    (canonical rows) with its one-vertex extensions, over every mask, that
    have no claw through the new vertex (``pinned_has_induced``), as
    ``(rows, canonical rows)`` pairs.  The classes on n - 1 vertices are the
    canonical forms of the extensions one level down, deduplicated."""
    claw = pattern_graph("K1_3")
    out = {}
    level = {(0,)}
    for n in range(2, CLOSURE_MAX_N + 1):
        out[n] = {}
        for rows in sorted(level):
            kids = out[n][rows] = []
            for mask in range(1 << (n - 1)):
                adj = tuple(row | ((mask >> v) & 1) << (n - 1) for v, row in enumerate(rows)) + (mask,)
                if not pinned_has_induced(n, adj, claw.n, claw.adj, n - 1):
                    kids.append((adj, kernels.canon_form(n, adj)[0]))
        level = {cert for kids in out[n].values() for _, cert in kids}
    return out


@functools.lru_cache(maxsize=None)
def _hereditary_closure(y):
    """The (K1_3, ``y``)-free classes on 1..``CLOSURE_MAX_N`` vertices, level
    by level, as sets of canonical rows, with no acceptance rule, mask stage,
    alpha tree or connected tree: level n holds the canonical form of every
    one-vertex extension, over every mask, of every member on n - 1
    vertices that has no claw and no ``y`` through the new vertex.  The
    claw test is shared through ``_claw_free_extensions``.  Complete because
    the class is hereditary: a member on n vertices less its last vertex is
    a member on n - 1, and the member is that graph plus one vertex joined by
    some mask."""
    p = pattern_graph(y)
    extensions = _claw_free_extensions()
    levels = {1: {(0,)}}
    for n in range(2, CLOSURE_MAX_N + 1):
        levels[n] = {
            cert
            for rows in levels[n - 1]
            for adj, cert in extensions[n][rows]
            if not pinned_has_induced(n, adj, p.n, p.adj, n - 1)
        }
    return levels


@functools.lru_cache(maxsize=None)
def _alpha(n, rows):
    return independence_number(Graph.trusted(n, rows))[0]


class TestCompleteness:
    @pytest.mark.parametrize("y", ("P5", "Z2", "B", "2K2"))
    def test_matches_hereditary_closure(self, y, monkeypatch):
        """Up to 8 vertices, each level of ``enumerate_graphs`` for K1_3 and
        ``y`` holds exactly the hereditary closure's classes with alpha >= a,
        connected or not, for a = 0 and 3, with each ``augment`` entry: the
        alpha tree and the connected tree against a reference with no tree."""
        levels = _hereditary_closure(y)
        for augment in AUGMENTS:
            monkeypatch.setattr(kernels, "augment", augment)
            for a, connected in itertools.product((0, 3), (False, True)):
                config = EnumerationConfig(max_n=CLOSURE_MAX_N, connected_only=connected, free_of=("K1_3", y), min_alpha=a)
                got = {n: set() for n in levels}
                enumerate_graphs(config, lambda g: got[g.n].add(g.adj))
                want = {
                    n: {
                        rows
                        for rows in members
                        if _alpha(n, rows) >= a and (not connected or Graph.trusted(n, rows).is_connected())
                    }
                    for n, members in levels.items()
                }
                assert got == want, (augment, config)

    @pytest.mark.parametrize("tokens, a", [((), 3), (("C4",), 3), (("P5",), 2), (("K4",), 4)], ids=str)
    def test_classes_with_claws_match_connected_stream(self, tokens, a, monkeypatch):
        """Connected configs whose class holds claws grow on the connected
        tree like the claw-free ones: up to 8 vertices, with each ``augment``
        entry, each level is the OEIS-pinned connected stream's classes with
        alpha >= a and no pattern, in the same order."""
        want = {
            n: [rows for rows in level if _alpha(n, rows) >= a and is_free(Graph.trusted(n, rows), list(tokens))]
            for n, level in _connected_levels().items()
        }
        for augment in AUGMENTS:
            monkeypatch.setattr(kernels, "augment", augment)
            got = {n: [] for n in want}
            config = EnumerationConfig(max_n=8, connected_only=True, free_of=tokens, min_alpha=a)
            enumerate_graphs(config, lambda g: got[g.n].append(g.adj))
            assert got == want, (augment, config)

    def test_connected_tree_has_a_deletable_vertex(self):
        """The connected tree's lemma, proved in the ``enumeration`` module
        docstring for every graph, claws included, and corroborated here:
        every connected graph G on 2..8 vertices with n >= 2 alpha(G) has a
        vertex v with G - v connected and alpha(G - v) = alpha(G), so D_c(G)
        is not empty for any a <= alpha(G) with n >= 2a (for a < alpha(G)
        every non-cut vertex is in it)."""
        checked = 0
        graphs = (Graph.trusted(n, rows) for n, level in _connected_levels().items() for rows in level)
        for g in graphs:
            alpha = independence_number(g)[0]
            if g.n < 2 or g.n < 2 * alpha:
                continue
            checked += 1
            rests = (_without(g, v) for v in range(g.n))
            assert any(h.is_connected() and independence_number(h)[0] == alpha for h in rests), g.adj
        assert checked > 10_000

    @pytest.mark.parametrize("y, sizes", [("P5", [78, 155]), ("Z2", [29, 40])])
    def test_connected_closure_past_eight_vertices(self, y, sizes, monkeypatch):
        """Levels 9 and 10 of the connected alpha >= 3 config for K1_3 and
        ``y``, with each ``augment`` entry, are its connected closure: from
        the hereditary closure's connected members with alpha >= 3 on 8
        vertices, level n holds the canonical form of every extension, over
        every non-empty mask, of every member on n - 1 vertices that has no
        claw and no ``y`` through the new vertex.  Such an extension is
        connected and keeps alpha >= 3, and the closure holds every member:
        by the connected tree's lemma (``enumeration``), as n >= 6 = 2a, a
        member on n vertices less some vertex is a member on n - 1."""
        pats = [pattern_graph(token) for token in ("K1_3", y)]
        level = {rows for rows in _hereditary_closure(y)[8] if _alpha(8, rows) >= 3 and rows_connected(rows)}
        want = {}
        for n in (9, 10):
            level = {
                kernels.canon_form(n, adj)[0]
                for rows in level
                for adj in (_child_rows(Graph.trusted(n - 1, rows), mask) for mask in range(1, 1 << (n - 1)))
                if not any(pinned_has_induced(n, adj, p.n, p.adj, n - 1) for p in pats)
            }
            want[n] = sorted(level)
        assert [len(want[n]) for n in (9, 10)] == sizes
        for augment in AUGMENTS:
            monkeypatch.setattr(kernels, "augment", augment)
            got = {n: [] for n in range(1, 11)}
            config = EnumerationConfig(max_n=10, connected_only=True, free_of=("K1_3", y), min_alpha=3)
            enumerate_graphs(config, lambda g: got[g.n].append(g.adj))
            assert {n: got[n] for n in (9, 10)} == want, (augment, y)


class TestOracle:
    def test_counts(self, oracle7):
        assert {n: len(g) for n, g in oracle7.items()} == {
            0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044,
        }

    def test_bound(self):
        with pytest.raises(ValueError):
            oracle_enumerate(8)

    def test_hand_counts_tiny(self):
        cat = oracle_enumerate(3)
        assert [len(cat[n]) for n in range(4)] == [1, 1, 2, 4]
