import hashlib

import pytest

from clawlab.canon import canonical_label
from clawlab.enumeration import (
    EnumerationConfig,
    catalog_labels,
    enumerate_graphs,
    oracle_enumerate,
)
from clawlab.graphs import to_graph6
from clawlab.invariants import independence_number
from clawlab.patterns import is_free
from conftest import BACKENDS, permuted, random_graph


def collect(config):
    per_n = {}
    count = enumerate_graphs(config, lambda g: per_n.setdefault(g.n, set()).add(to_graph6(g)))
    return count, per_n


def oracle_filtered(oracle, n_range, keep):
    return {n: {to_graph6(g) for g in oracle[n] if keep(g)} for n in n_range}


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
            return g.n % 2 == 1 and g.n >= 3 and g.is_connected() and all(d == 2 for d in g.degrees())

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


def _profile(g, v):
    """Neighbour counts of v in each degree class, classes by ascending degree."""
    degs = g.degrees()
    return tuple(
        sum(1 for u in g.neighbors(v) if degs[u] == d) for d in sorted(set(degs))
    )


@pytest.mark.parametrize("backend", BACKENDS)
def test_canonically_last_vertex_passes_filter(backend, oracle7, rng):
    """The invariant enumeration's vertex-invariant filter relies on.

    The vertex ``canon_form`` puts last has maximum degree and, among the
    maximum-degree vertices, a lexicographically maximal profile.  If it
    did not, the filter in ``_children`` would silently drop classes.
    """
    graphs = [permuted(rng, g)[0] for n in range(1, 8) for g in oracle7[n]]
    for _ in range(200):
        graphs.append(random_graph(rng, rng.randrange(8, 15), rng.choice([0.2, 0.4, 0.6, 0.8])))
    for g in graphs:
        _, perm = backend.canon_form(g.n, g.adj)
        last = perm.index(g.n - 1)
        degs = g.degrees()
        top = max(degs)
        assert degs[last] == top, g.adj
        mine = _profile(g, last)
        assert all(_profile(g, v) <= mine for v in range(g.n) if degs[v] == top), g.adj


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

    def test_representatives_are_canonical(self):
        def check(g):
            from clawlab.canon import canonical_form

            assert canonical_form(g) == g

        enumerate_graphs(EnumerationConfig(max_n=5), check)


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
