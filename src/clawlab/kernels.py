"""The hot kernels: max clique, exact k-colouring, induced-subgraph search,
induced-cycle search and canonical labelling, in pure Python.

Both embedding entries run one backtracker (``_embed``) with bitset
candidates, and ``find_induced_cycle`` runs the cycle grower
``induced_cycles`` that also serves ``verify.induced_cycles`` and, one
pass each, the odd-hole and odd-antihole searches of ``invariants`` and the
long-cycle and inflation-spine searches of ``structure``.
``has_induced`` with a required host vertex runs one pinned search per
automorphism orbit of the pattern, not one per pattern vertex; the orbits
and search plans are computed once per pattern and cached
(``_search_plans``).  Every search order is fixed, so results, witnesses
included, are reproducible bit for bit.  Graphs enter as ``(n, adj)`` with
``adj`` a sequence of per-vertex neighbour bitmasks; vertex sets leave as
bitmasks or index tuples.
"""

from __future__ import annotations

import functools

BACKEND = "pure"  # reported by perfbench/probe.py and perfbench/worker.py


def max_clique(n, adj):
    """Bitmask of a maximum clique.

    Branch and bound with a greedy-colouring bound (Tomita-style): the
    candidate set is greedily coloured in ascending vertex order, candidates
    are expanded from the highest colour class down, and a branch is cut when
    the clique so far plus the candidate's colour cannot beat the incumbent.
    The incumbent is only replaced by a strictly larger clique, so the result
    is the first maximum clique in this fixed order.
    """
    if n == 0:
        return 0
    best = [0, 0]  # size, mask

    def expand(rmask, rsize, pmask):
        if pmask == 0:
            if rsize > best[0]:
                best[0] = rsize
                best[1] = rmask
            return
        # greedy colouring of the candidates, ascending vertex order
        colours = []
        order = []
        m = pmask
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            for ci in range(len(colours)):
                if adj[v] & colours[ci] == 0:
                    colours[ci] |= 1 << v
                    order.append((ci + 1, v))
                    break
            else:
                colours.append(1 << v)
                order.append((len(colours), v))
        order.sort()
        prefix = [0] * (len(order) + 1)
        for i, (_, v) in enumerate(order):
            prefix[i + 1] = prefix[i] | (1 << v)
        for i in range(len(order) - 1, -1, -1):
            c, v = order[i]
            if rsize + c <= best[0]:
                return
            expand(rmask | (1 << v), rsize + 1, prefix[i] & adj[v])

    expand(0, 0, (1 << n) - 1)
    return best[1]


def color_with(n, adj, k):
    """Proper colouring with at most ``k`` colours as a tuple, or None.

    Backtracking with DSATUR selection: always colour an uncoloured vertex of
    maximum saturation, ties broken by lowest index; colours are tried in
    ascending index and a fresh colour may only be the next unused one.
    """
    if n == 0:
        return ()
    if k <= 0:
        return None
    colours = [-1] * n
    neigh = [0] * n  # bitmask of colours on coloured neighbours

    def go(done, max_used):
        if done == n:
            return True
        best_v = -1
        best_sat = -1
        for v in range(n):
            if colours[v] < 0:
                s = neigh[v].bit_count()
                if s > best_sat:
                    best_sat = s
                    best_v = v
        v = best_v
        limit = max_used + 2 if max_used + 2 < k else k
        m = ~neigh[v] & ((1 << limit) - 1)
        while m:
            c = (m & -m).bit_length() - 1
            m &= m - 1
            colours[v] = c
            touched = 0
            nb = adj[v]
            while nb:
                u = (nb & -nb).bit_length() - 1
                nb &= nb - 1
                if colours[u] < 0 and not (neigh[u] >> c) & 1:
                    neigh[u] |= 1 << c
                    touched |= 1 << u
            nxt = c if c > max_used else max_used
            if go(done + 1, nxt):
                return True
            while touched:
                u = (touched & -touched).bit_length() - 1
                touched &= touched - 1
                neigh[u] &= ~(1 << c)
            colours[v] = -1
        return False

    if go(0, -1):
        return tuple(colours)
    return None


def _degree_masks(n, adj, top):
    """``atleast[d]``: bitmask of the host vertices of degree at least ``d``,
    for ``d`` in ``0..top``."""
    atleast = [0] * (top + 1)
    for v in range(n):
        d = adj[v].bit_count()
        atleast[d if d < top else top] |= 1 << v
    for d in range(top - 1, -1, -1):
        atleast[d] |= atleast[d + 1]
    return atleast


@functools.lru_cache(maxsize=256)
def _plan(padj, order):
    """Search plan for assigning pattern vertices in ``order`` (both tuples):
    per position, its pattern degree, the earlier positions adjacent to it
    and the earlier positions not adjacent to it.  Cached, as it depends on
    the pattern alone."""
    degs = []
    ups = []
    downs = []
    for t, p in enumerate(order):
        row = padj[p]
        degs.append(row.bit_count())
        links = [(row >> order[s]) & 1 for s in range(t)]
        ups.append(tuple([s for s in range(t) if links[s]]))
        downs.append(tuple([s for s in range(t) if not links[s]]))
    return tuple(degs), tuple(ups), tuple(downs)


def _embed(adj, atleast, plan, pin=-1):
    """Host images of the plan's positions in the first induced embedding
    found, or None.  Position 0 is pinned to host ``pin`` when ``pin >= 0``.

    The candidates for the next position are a bitset: unused host vertices
    of at least its degree (``atleast``, from ``_degree_masks``), adjacent to
    the images of its earlier neighbours and to no other earlier image.  They
    are tried in ascending order, so with the identity order the first
    embedding found is the lexicographically least.
    """
    degs, ups, downs = plan
    pn = len(degs)
    roots = [atleast[d] for d in degs]
    if pin >= 0:
        roots[0] &= 1 << pin
    img = [0] * pn
    nb = [0] * pn  # host neighbourhoods of the images

    def bt(t, used):
        cand = roots[t] & ~used
        for s in ups[t]:
            cand &= nb[s]
        for s in downs[t]:
            cand &= ~nb[s]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            img[t] = v
            if t + 1 == pn:
                return True
            nb[t] = adj[v]
            if bt(t + 1, used | low):
                return True
        return False

    return img if bt(0, 0) else None


@functools.lru_cache(maxsize=256)
def _search_plans(pn, padj):
    """Everything ``has_induced`` derives from a pattern alone, computed once
    per pattern: ``(top, free, orbits, pinned)``.

    ``top`` is the maximum pattern degree and ``free`` the plan of the
    unpinned search, in descending-degree order.  ``orbits`` is the partition
    of the pattern vertices into automorphism orbits, each a sorted tuple
    whose first vertex is its representative; ``pinned`` holds one plan per
    orbit, the representative first and the rest in descending degree.  ``q``
    joins ``p``'s orbit when the pattern embeds into itself with ``p`` pinned
    to ``q``: an induced self-embedding is an automorphism.
    """
    base = sorted(range(pn), key=lambda i: (-padj[i].bit_count(), i))
    top = padj[base[0]].bit_count()
    self_atleast = _degree_masks(pn, padj, top)
    orbits = []
    pinned = []
    left = (1 << pn) - 1
    for p in base:
        if not (left >> p) & 1:
            continue
        plan = _plan(padj, (p, *[q for q in base if q != p]))
        orbit = tuple(
            q
            for q in range(pn)
            if (left >> q) & 1
            and padj[q].bit_count() == padj[p].bit_count()
            and _embed(padj, self_atleast, plan, q) is not None
        )
        for q in orbit:
            left &= ~(1 << q)
        orbits.append(orbit)
        pinned.append(plan)
    return top, _plan(padj, tuple(base)), tuple(orbits), tuple(pinned)


def find_induced_embedding(n, adj, pn, padj):
    """Lexicographically least induced embedding of the pattern, or None.

    Pattern vertices are assigned in index order, so the first complete
    assignment is the lex-least tuple.
    """
    if pn > n:
        return None
    if pn == 0:
        return ()
    plan = _plan(tuple(padj), tuple(range(pn)))
    img = _embed(adj, _degree_masks(n, adj, max(plan[0])), plan)
    return None if img is None else tuple(img)


def has_induced(n, adj, pn, padj, required=-1):
    """True iff the pattern embeds as an induced subgraph.

    Existence only; pattern vertices are matched in descending-degree order
    for speed.  If ``required`` is a host vertex, only embeddings using it
    count (the hereditary-pruning case: new copies must touch the new
    vertex).  They are found by one search per automorphism orbit of the
    pattern, its representative pinned to ``required``: a copy that maps
    some vertex of the orbit there, composed with an automorphism, maps the
    representative there.  The orbits and search plans are cached per
    pattern (``_search_plans``); the host's degree masks are built once per
    call.
    """
    if pn > n:
        return False
    if pn == 0:
        return required < 0
    top, free, _, pinned = _search_plans(pn, tuple(padj))
    atleast = _degree_masks(n, adj, top)
    if required < 0:
        return _embed(adj, atleast, free) is not None
    for plan in pinned:
        if (atleast[plan[0][0]] >> required) & 1 and _embed(adj, atleast, plan, required) is not None:
            return True
    return False


def induced_cycles(n, adj, min_len, max_len, visit):
    """Call ``visit(cycle)`` on each induced cycle of ``min_len..max_len``
    vertices; return whether ``visit`` stopped the search.

    ``visit`` returns the length bound: a falsy return goes on, any other is
    the largest length still wanted (the bound never rises), and the search
    stops once that is below ``min_len``, so ``True`` (= 1) stops it.  Only
    longer cycles are skipped: the rest come in the unbounded order.

    A cycle is a vertex tuple that starts at its least vertex with the
    smaller of its two neighbours second.  Paths grow from each start
    through ascending candidates.  A candidate adjacent to the start can only
    close the cycle (inside the path it would be a chord), so each path
    offers its closing vertices first, ascending, and then its extensions:
    the cycles of each length come in lexicographic order.
    """
    min_len = max(min_len, 3)
    if max_len < min_len:
        return False
    path = [0] * n
    bound = max_len

    def grow(depth, used, inner_forbid, v0adj):
        nonlocal bound
        last = path[depth - 1]
        base = adj[last] & ~used & ~inner_forbid
        if depth + 1 >= min_len:
            # orientation: the closing vertex must exceed path[1]
            m = base & v0adj & ~((2 << path[1]) - 1)
            while m and depth < bound:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                bound = min(bound, visit(tuple(path[:depth]) + (v,)) or bound)
                if bound < min_len:
                    return True
        m = base & ~v0adj
        nf = inner_forbid | adj[last]
        while m and depth + 1 < bound:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            path[depth] = v
            if grow(depth + 1, used | (1 << v), nf, v0adj):
                return True
        return False

    for v0 in range(n - min_len + 1):
        path[0] = v0
        below = (1 << (v0 + 1)) - 1
        m = adj[v0] & ~below
        while m:
            v1 = (m & -m).bit_length() - 1
            m &= m - 1
            path[1] = v1
            if grow(2, below | (1 << v1), 0, adj[v0]):
                return True
    return False


def find_induced_cycle(n, adj, length):
    """Lexicographically least induced cycle of exactly ``length``, or None,
    oriented as in ``induced_cycles``."""
    if length < 3 or length > n:
        return None
    found = []

    def first(cycle):
        found.append(cycle)
        return True

    induced_cycles(n, adj, length, length, first)
    return found[0] if found else None


def canon_form(n, adj):
    """Canonical relabelling: ``(rows, perm)``.

    ``rows`` is the adjacency of the canonical copy (minimum certificate over
    the individualisation-refinement tree) and ``perm[v]`` is the canonical
    position of original vertex ``v``.  Isomorphic graphs get equal ``rows``.

    Refinement is colour refinement with signatures sorted canonically; the
    search individualises every vertex of the first non-singleton cell,
    skipping vertices whose swap with an earlier sibling is an automorphism.
    """
    if n == 0:
        return (), ()
    best = [None, None]  # cert rows, perm

    def refine(colours):
        ncls = max(colours) + 1
        while True:
            masks = [0] * ncls
            for v, c in enumerate(colours):
                masks[c] |= 1 << v
            # (colour, neighbours in each cell), sorted: only vertices of one
            # cell are ever compared past the colour, so a singleton's counts
            # cannot change any rank and are left out
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
            row = 0
            m = adj[v]
            while m:
                low = m & -m
                row |= 1 << colours[low.bit_length() - 1]
                m ^= low
            rows[colours[v]] = row
        cert = tuple(rows)
        if best[0] is None or cert < best[0]:
            best[0] = cert
            best[1] = tuple(colours)

    def search(colours):
        ncls = max(colours) + 1
        if ncls == n:
            emit(colours)
            return
        counts = [0] * ncls
        for c in colours:
            counts[c] += 1
        target = 0
        while counts[target] < 2:
            target += 1
        cell = [v for v, c in enumerate(colours) if c == target]
        reps = []
        for v in cell:
            skip = False
            for r in reps:
                if (adj[r] & ~(1 << v)) == (adj[v] & ~(1 << r)):
                    skip = True
                    break
            if skip:
                continue
            reps.append(v)
            child = [c if c <= target else c + 1 for c in colours]
            for u in cell:
                if u != v:
                    child[u] = target + 1
            search(refine(child))

    search(refine([0] * n))
    return best[0], best[1]
