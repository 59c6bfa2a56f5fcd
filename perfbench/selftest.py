#!/usr/bin/env python3
"""Self-tests for the benchmark's independent checkers.

Usage:
    python3 perfbench/selftest.py

Each test hands a checker one deliberately wrong input and expects it to be
rejected, next to the matching correct input, which must pass.
"""

from __future__ import annotations

import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import networkx as nx  # noqa: E402

import checks  # noqa: E402
from checks import CheckFailure  # noqa: E402


class CheckerRejectsWrongInput(unittest.TestCase):
    def test_class_count_off_by_one_from_oeis(self):
        counts = Counter({n: c for n, c in checks.OEIS_GRAPHS.items() if n <= 7})
        checks.check_counts(counts, {n: checks.OEIS_GRAPHS[n] for n in range(1, 8)}, "all graphs")
        counts[7] += 1
        with self.assertRaises(CheckFailure):
            checks.check_counts(counts, {n: checks.OEIS_GRAPHS[n] for n in range(1, 8)}, "all graphs")

    def test_enumeration_with_a_duplicate_class(self):
        graphs = list(checks.atlas_by_n()[4])
        checks.match_atlas(graphs, 4)
        with self.assertRaises(CheckFailure):
            checks.match_atlas(graphs[:-1] + [graphs[0]], 4)

    def test_odd_hole_with_a_chord(self):
        G = nx.cycle_graph(7)
        checks.check_hole_certificate(G, "odd_hole", list(range(7)))
        G.add_edge(0, 3)
        with self.assertRaises(CheckFailure):
            checks.check_hole_certificate(G, "odd_hole", list(range(7)))

    def test_odd_antihole_that_is_not_one(self):
        G = nx.complement(nx.cycle_graph(7))
        checks.check_hole_certificate(G, "odd_antihole", list(range(7)))
        with self.assertRaises(CheckFailure):
            checks.check_hole_certificate(G, "odd_antihole", [0, 2, 4, 6, 1, 3, 5])

    def test_improper_colouring(self):
        G = nx.cycle_graph(5)
        checks.check_colouring(G, [0, 1, 0, 1, 2], 3)
        with self.assertRaises(CheckFailure):
            checks.check_colouring(G, [0, 1, 0, 1, 0], 3)

    def test_colouring_with_too_few_colours_claimed(self):
        G = nx.cycle_graph(5)
        with self.assertRaises(CheckFailure):
            checks.check_chromatic(G, 2, 2, 2)  # C5 is not 2-colourable

    def test_clique_witness_that_is_not_a_clique(self):
        G = nx.wheel_graph(6)
        checks.check_clique(G, [0, 1, 2], 3)
        with self.assertRaises(CheckFailure):
            checks.check_clique(G, [0, 1, 3], 3)

    def test_independent_witness_with_an_edge(self):
        G = nx.cycle_graph(6)
        checks.check_independent(G, [0, 2, 4], 3)
        with self.assertRaises(CheckFailure):
            checks.check_independent(G, [0, 1, 3], 3)

    def test_broken_inflation_partition(self):
        G = checks.inflation_graph([2, 1, 1, 1, 1, 1, 1])
        parts = [[0, 1], [2], [3], [4], [5], [6], [7]]
        checks.check_inflation_parts(G, parts)
        with self.assertRaises(CheckFailure):
            checks.check_inflation_parts(G, [[0], [1, 2]] + parts[2:])

    def test_row_outside_the_class(self):
        claw = nx.star_graph(3)
        self.assertFalse(checks.in_class(claw, "T4_NOALPHA", "C4"))
        self.assertTrue(checks.in_class(nx.wheel_graph(6), "T4_NOALPHA", "C4"))


if __name__ == "__main__":
    unittest.main()
