#!/usr/bin/env python3
"""Benchmark the compiled kernels against the pure-Python fallback.

Usage:
    python benchmarks/bench_kernels.py [--repeats N]

Each kernel runs on a fixed input set (seeded random graphs, an odd cycle,
a counterexample family member); both backends are timed on identical
inputs and the outputs are cross-checked while we are at it.
"""

import argparse
import random
import time

from clawlab.families import FamilySpec, build_family
from clawlab.graphs import Graph
from clawlab.kernels import pure
from clawlab.patterns import pattern_graph

try:
    from clawlab.kernels import _ckern as compiled
except ImportError:
    compiled = None


def random_adj(rng, n, p):
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return tuple(rows)


def claw_free_adj(rng, n, p):
    """First claw-free graph drawn by ``random_adj``."""
    claw = pattern_graph("K1_3")
    while True:
        adj = random_adj(rng, n, p)
        if not pure.has_induced(n, adj, claw.n, claw.adj):
            return adj


def build_inputs():
    rng = random.Random(13)
    c11 = tuple((1 << ((i + 1) % 11)) | (1 << ((i - 1) % 11)) for i in range(11))
    f13, _ = build_family(FamilySpec("F3", 1))
    f43, _ = build_family(FamilySpec("F4", 3))
    claw = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    p5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    dense9 = random_adj(rng, 9, 0.7)
    mid12 = random_adj(rng, 12, 0.5)
    # the hereditary-pruning call shape: a claw-free parent plus a new last vertex
    cf8 = claw_free_adj(random.Random(8), 8, 0.5)
    z2 = pattern_graph("Z2")
    return [
        ("max_clique", "random n=12 p=.5", "max_clique", (12, mid12)),
        ("max_clique", "F4 s=3 (n=12, dense)", "max_clique", (f43.n, f43.adj)),
        ("color k=3 unsat", "F3 s=1 (n=10)", "color_with", (f13.n, f13.adj, 3)),
        ("color k=4 sat", "F3 s=1 (n=10)", "color_with", (f13.n, f13.adj, 4)),
        ("has_induced claw", "random n=12", "has_induced", (12, mid12, claw.n, claw.adj)),
        ("has_induced P5 @11", "random n=12, required=11", "has_induced", (12, mid12, p5.n, p5.adj, 11)),
        ("has_induced claw @7", "claw-free n=8, required=7", "has_induced", (8, cf8, claw.n, claw.adj, 7)),
        ("has_induced P5 @7", "claw-free n=8, required=7", "has_induced", (8, cf8, p5.n, p5.adj, 7)),
        ("has_induced Z2 @7", "claw-free n=8, required=7", "has_induced", (8, cf8, z2.n, z2.adj, 7)),
        ("find_induced P5", "random n=12", "find_induced_embedding", (12, mid12, p5.n, p5.adj)),
        ("induced C7 search", "random n=12", "find_induced_cycle", (12, mid12, 7)),
        ("canon", "claw-free n=8", "canon_form", (8, cf8)),
        ("canon", "random n=9 p=.7", "canon_form", (9, dense9)),
        ("canon", "random n=12 p=.5", "canon_form", (12, mid12)),
        ("canon", "C11 (vertex-transitive)", "canon_form", (11, c11)),
    ]


def time_call(fn, args, repeats):
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn(*args)
        best = min(best, (time.perf_counter() - t0) / repeats)
    return best * 1e6


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=200)
    args = parser.parse_args()

    if compiled is None:
        print("compiled kernels not built; timing the pure backend only")
    header = f"{'kernel':<20} {'input':<26} {'pure (us)':>12} {'compiled (us)':>14} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for label, desc, fname, fargs in build_inputs():
        pure_fn = getattr(pure, fname)
        pure_us = time_call(pure_fn, fargs, max(1, args.repeats // 10))
        if compiled is None:
            print(f"{label:<20} {desc:<26} {pure_us:>12.1f} {'-':>14} {'-':>8}")
            continue
        comp_fn = getattr(compiled, fname)
        assert pure_fn(*fargs) == comp_fn(*fargs), f"backend mismatch on {label}"
        comp_us = time_call(comp_fn, fargs, args.repeats)
        print(f"{label:<20} {desc:<26} {pure_us:>12.1f} {comp_us:>14.2f} {pure_us / comp_us:>7.0f}x")


if __name__ == "__main__":
    main()
