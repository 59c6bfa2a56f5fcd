"""Pure-Python reference kernels.

Every kernel entry here has a compiled twin in ``_ckern.pyx`` that returns
identical results, witnesses included, but not by the identical search
order: here both embedding entries run one backtracker (``_embed``) with
bitset candidates, and ``find_induced_cycle`` runs the cycle grower
``induced_cycles`` that also serves ``verify.induced_cycles``.  Graphs
enter as ``(n, adj)`` with ``adj`` a sequence of per-vertex neighbour
bitmasks; vertex sets leave as bitmasks or index tuples.
"""

from __future__ import annotations


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


def _embed(n, adj, pn, padj, order, pin=-1):
    """Host images of ``order[0], order[1], ...`` in the first induced
    embedding found, or None.  ``order[0]`` is pinned to host ``pin`` when
    ``pin >= 0``.

    Pattern vertices are assigned in ``order``.  The candidates for the next
    one are a bitset: unused host vertices of at least its degree, adjacent
    to the images of its earlier neighbours and to no other earlier image.
    They are tried in ascending order, so with the identity order the first
    embedding found is the lexicographically least.
    """
    top = max(padj[p].bit_count() for p in order)
    atleast = [0] * (top + 1)  # atleast[d]: hosts of degree >= d
    for v in range(n):
        atleast[min(adj[v].bit_count(), top)] |= 1 << v
    for d in range(top - 1, -1, -1):
        atleast[d] |= atleast[d + 1]
    roots = []  # per position: hosts of large enough degree
    links = []  # per position: (earlier position, adjacent?) pairs
    for t, p in enumerate(order):
        roots.append(atleast[padj[p].bit_count()])
        links.append([(s, (padj[p] >> order[s]) & 1) for s in range(t)])
    if pin >= 0:
        roots[0] &= 1 << pin
    img = [0] * pn

    def bt(t, used):
        cand = roots[t] & ~used
        for s, linked in links[t]:
            cand &= adj[img[s]] if linked else ~adj[img[s]]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            img[t] = v
            if t + 1 == pn or bt(t + 1, used | (1 << v)):
                return True
        return False

    return img if bt(0, 0) else None


def find_induced_embedding(n, adj, pn, padj):
    """Lexicographically least induced embedding of the pattern, or None.

    Pattern vertices are assigned in index order, so the first complete
    assignment is the lex-least tuple.
    """
    if pn > n:
        return None
    if pn == 0:
        return ()
    img = _embed(n, adj, pn, padj, range(pn))
    return None if img is None else tuple(img)


def has_induced(n, adj, pn, padj, required=-1):
    """True iff the pattern embeds as an induced subgraph.

    Existence only; pattern vertices are matched in descending-degree order
    for speed.  If ``required`` is a host vertex, only embeddings using it
    count (the hereditary-pruning case: new copies must touch the new
    vertex), found by one search per pattern vertex pinned to it.
    """
    if pn > n:
        return False
    if pn == 0:
        return required < 0
    base = sorted(range(pn), key=lambda i: (-padj[i].bit_count(), i))
    if required < 0:
        return _embed(n, adj, pn, padj, base) is not None
    for p in range(pn):
        order = [p] + [q for q in base if q != p]
        if _embed(n, adj, pn, padj, order, required) is not None:
            return True
    return False


def induced_cycles(n, adj, min_len, max_len, visit):
    """Call ``visit(cycle)`` on each induced cycle of ``min_len..max_len``
    vertices until it returns true; return whether it did.

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

    def grow(depth, used, inner_forbid, v0adj):
        last = path[depth - 1]
        base = adj[last] & ~used & ~inner_forbid
        if depth + 1 >= min_len:
            # orientation: the closing vertex must exceed path[1]
            m = base & v0adj & ~((2 << path[1]) - 1)
            while m:
                v = (m & -m).bit_length() - 1
                m &= m - 1
                if visit(tuple(path[:depth]) + (v,)):
                    return True
        if depth + 1 < max_len:
            m = base & ~v0adj
            nf = inner_forbid | adj[last]
            while m:
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
            for v in range(n):
                masks[colours[v]] |= 1 << v
            sigs = []
            for v in range(n):
                row = adj[v]
                sigs.append((colours[v], tuple((row & masks[c]).bit_count() for c in range(ncls))))
            ranked = {s: i for i, s in enumerate(sorted(set(sigs)))}
            if len(ranked) == ncls:
                return colours
            colours = [ranked[sigs[v]] for v in range(n)]
            ncls = len(ranked)

    def emit(colours):
        inv = [0] * n
        for v in range(n):
            inv[colours[v]] = v
        rows = []
        for i in range(n):
            row = 0
            src = adj[inv[i]]
            for j in range(n):
                if (src >> inv[j]) & 1:
                    row |= 1 << j
            rows.append(row)
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
        for v in range(n):
            counts[colours[v]] += 1
        target = 0
        while counts[target] < 2:
            target += 1
        cell = [v for v in range(n) if colours[v] == target]
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
