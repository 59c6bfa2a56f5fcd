#!/usr/bin/env python3
"""Recompute the stored values that checks.py compares against, without clawlab.

Usage:
    python3 perfbench/reference.py

* OEIS A000088 / A001349 on n <= 7: counted from the networkx graph atlas.
* Class sizes on exactly 8 vertices (past the atlas): every 8-vertex graph
  of a class closed under induced subgraphs minus the non-hereditary
  conditions arises from a 7-vertex atlas graph in the hereditary part by
  adding one vertex, so all 128 extensions of each such parent are
  filtered with networkx and deduplicated up to isomorphism.

Prints each value next to the stored one and exits 1 on any mismatch.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import networkx as nx  # noqa: E402

import checks  # noqa: E402


def atlas_counts():
    every, connected = Counter(), Counter()
    for G in nx.graph_atlas_g():
        n = G.number_of_nodes()
        if n:
            every[n] += 1
            connected[n] += nx.is_connected(G)
    return every, connected


def level8_class_size(theorem, y):
    free, _, _ = checks.class_spec(theorem, y)
    patterns = [checks.PATTERNS[p] for p in free]
    parents = [G for G in checks.atlas_by_n()[7] if not any(checks.contains_induced(G, P) for P in patterns)]
    buckets = defaultdict(list)
    for G in parents:
        for mask in range(1 << 7):
            H = G.copy()
            H.add_node(7)
            H.add_edges_from((7, v) for v in range(7) if (mask >> v) & 1)
            if not checks.in_class(H, theorem, y):
                continue
            key = checks.iso_key(H)
            if not any(nx.is_isomorphic(H, K) for K in buckets[key]):
                buckets[key].append(H)
    return sum(len(b) for b in buckets.values())


def main() -> int:
    ok = True

    def report(label, got, stored):
        nonlocal ok
        ok &= got == stored
        print(f"{label:40s} computed {got:>6}  stored {stored:>6}  {'ok' if got == stored else 'MISMATCH'}")

    every, connected = atlas_counts()
    for n in range(1, 8):
        report(f"A000088 n={n}", every[n], checks.OEIS_GRAPHS[n])
        report(f"A001349 n={n}", connected[n], checks.OEIS_CONNECTED[n])
    for (theorem, y), stored in checks.LEVEL8_CLASS_SIZES.items():
        report(f"{theorem} {y or ''} n=8", level8_class_size(theorem, y), stored)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
