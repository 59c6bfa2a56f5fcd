"""Calibration unit: a fixed piece of pure-Python work that tracks host speed.

The machines this benchmark runs on are shared: one thread of Python can run
up to twice as slow from one minute to the next, with no change in the work.
Timing a fixed unit of work next to the workload and scaling by it takes most
of that drift out of the reported times.

The unit is colour refinement, the core of canonical labelling, run from
every individualised vertex of twelve fixed random graphs on 14 vertices
(standard library only; it never imports clawlab, so no change to the
program can speed it up or slow it down).  A time ``t`` measured while the
unit took ``u`` seconds is reported as ``t * REF_UNIT_S / u``: the time the
same work would take on a host where the unit takes ``REF_UNIT_S``.
"""

from __future__ import annotations

import random
import time

REF_UNIT_S = 0.020  # the reference speed; any fixed value serves, as runs are compared by ratio
GRAPH_SEEDS = tuple(range(100, 112))
GRAPH_N = 14
GRAPH_P = 0.5

perf = time.perf_counter


def _random_graph(seed):
    rng = random.Random(seed)
    adj = [0] * GRAPH_N
    for i in range(GRAPH_N):
        for j in range(i + 1, GRAPH_N):
            if rng.random() < GRAPH_P:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


GRAPHS = tuple(_random_graph(s) for s in GRAPH_SEEDS)


def _refine(adj, colours):
    """Equitable refinement of a colouring (classes 0..k-1), canonically ranked."""
    n = len(adj)
    while True:
        ncls = max(colours) + 1
        masks = [0] * ncls
        for v, c in enumerate(colours):
            masks[c] |= 1 << v
        sigs = [(colours[v], tuple((adj[v] & masks[c]).bit_count() for c in range(ncls))) for v in range(n)]
        ranked = {s: i for i, s in enumerate(sorted(set(sigs)))}
        refined = [ranked[s] for s in sigs]
        if max(refined) + 1 == ncls:
            return tuple(refined)
        colours = refined


def _work():
    out = []
    for adj in GRAPHS:
        for v in range(GRAPH_N):
            start = [1] * GRAPH_N
            start[v] = 0
            out.append(_refine(adj, start))
    return hash(tuple(out))


EXPECTED = _work()


def unit() -> float:
    """Run the calibration unit once; return its wall time in seconds."""
    t0 = perf()
    found = _work()
    elapsed = perf() - t0
    if found != EXPECTED:
        raise RuntimeError("calibration unit gave a different result")
    return elapsed


def scale(unit_s: float) -> float:
    """Factor that brings a time measured next to a unit of ``unit_s`` to the reference speed."""
    return REF_UNIT_S / unit_s
