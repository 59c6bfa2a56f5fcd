"""The hot kernels: max clique, exact k-colouring, induced-subgraph search,
induced-cycle search, canonical labelling, one level of canonical
augmentation and the per-level screens of the campaigns' checks, in pure
Python, and their compiled counterparts, with the compiled graph6 encoder,
when they are built.

One backtracker (``_embed``) walks induced embeddings with bitset
candidates and calls a leaf action on each: it serves ``first_embedding``
(stopped at its first leaf, for ``has_induced`` and
``find_induced_embedding``), the automorphism orbits of a pattern and
``extension_obstructions``.  It takes the images of a pattern's twins in
ascending order, which changes no answer.  One cycle grower
(``_grow_cycles``) has two leaves: ``induced_cycles`` lists every cycle
it closes, for ``find_induced_cycle``, ``verify.induced_cycles`` and
``bad_cycle_neighborhoods``, and ``odd_hole`` keeps each odd cycle, which
lowers the length bound, and answers with the last, for the odd-hole
search of ``invariants`` and, on the complement's rows it builds itself,
its odd-antihole search, one pass each.  ``bad_cycle_neighborhoods``, the
check of Observation 2, puts each cycle of length >= 5 and each vertex
next to it through ``neighborhood_shape``, the one Python rule that
``patterns.classify_cycle_neighborhood`` also applies.  ``flag_level``
screens one enumeration level for a campaign's check: the indices of the
graphs that ``verify._check_perfect_class`` (test 0: chi > omega, an odd
hole or an odd antihole) or ``verify._check_obs2`` (test 1) would report,
so that only those get the per-graph check.  A pattern's
search plans and orbits are computed once and cached (``_plan``,
``_search_plans``).  Hereditary pruning does not
search each extension: ``extension_obstructions`` lists, once per parent,
the pattern copies a new vertex could complete as bitmask pairs tested
against its neighbourhood, one listing per orbit of the pattern, by
walking the patterns' ``obstruction_plans``.  Those plans are the only
pattern analysis ``augment`` needs, and both backends take them from
here.  ``augment`` makes each parent's masks by one mask walk (``_walk``)
that decides the parent's vertices in index order and, as it goes, tests
each pair once its S is decided, keeps each twin class met in its lowest
vertices and cuts branches whose popcount cannot reach the degree floor.
``canon_form`` refines by counting neighbours only in the cells split in
the previous round (McKay and Piperno 2014), which orders the cells as
counting in every cell would.  Every search order is fixed, so results,
witnesses included, are reproducible bit for bit.  Graphs enter as ``(n,
adj)`` with ``adj`` a sequence of per-vertex neighbour bitmasks; vertex
sets leave as bitmasks or index tuples.

Two backends.  Everything above runs in pure Python, and so does
``pure_augment``, one level of ``enumeration.enumerate_graphs`` per call:
the per-parent step on each parent of the level, which gives the accepted
canonical rows of its one-vertex extensions, labelled by
``pure_canon_form``, and the next level, those rows sorted.  ``max_clique``
and ``odd_hole`` build the complement's rows themselves when asked, so no
caller makes a complement ``Graph`` for them.  ``canon_form``,
``max_clique``, ``color_with``, ``induced_cycles``, ``odd_hole``,
``graph6``, ``augment``, ``first_embedding`` and ``flag_level`` are bound
to the pure entries, and when the optional C extension ``clawlab._augment``
imports (``setup.py build_ext --inplace`` builds it from ``_augment.c``
where a C compiler is found) to its nine entries instead, and ``BACKEND``
is ``"c"``; otherwise it is ``"pure"``.  Then ``find_induced_cycle`` and
``verify.induced_cycles`` run the compiled grower, which makes no Python
call and has three leaves: the list, the odd hole, and, for
``flag_level``, the bad neighbourhood, which applies the rule of
``neighborhood_shape`` in C to each cycle it closes and stops at the
first bad pair; ``has_induced`` runs the compiled embedding search of
the obstruction listing, stopped at its first leaf, so ``is_free``, the
families' freeness claims and the enumeration roots search in C; and
``graphs.to_graph6``, one call of ``graph6``, runs the compiled encoder.
``find_induced_embedding`` (the claw and bull searches of ``structure``)
stays on the pure walker on both backends for now: bound to the compiled
entry it made the benchmark's graph-queries pass 4.6 times as fast, and
the bench worker, which keeps about 18 KB per pass, then peaked 65 %
higher, past that metric's 10 % bound; it waits for a bench whose memory
stays flat.  ``bad_cycle_neighborhoods`` has one entry, the pure one, on
both backends: only the graphs ``flag_level`` flags reach it.
Nothing else selects a backend: no option, no environment variable.  Both
give the same results bit for bit, and both run one algorithm step for
step; ``pure_canon_form``, ``pure_max_clique``, ``pure_color_with``,
``pure_induced_cycles``, ``pure_odd_hole``, ``pure_graph6`` (the pure encoder
``graphs.encode_graph6``), ``pure_augment``, ``pure_first_embedding`` and
``pure_flag_level`` keep the pure entries as the references the compiled
ones are tested against.  The compiled entries take only ``n`` in 0..64,
ints and rows with no bit at ``n`` or above, ``flag_level`` only ``test``
0 or 1, and ``augment`` only plans of at most 15 positions and
``first_embedding`` one of at most 16, with degrees up to 16 and up, down
and ``after`` positions earlier than their own; they raise ValueError
otherwise and keep no state between calls.
"""

from __future__ import annotations

import functools

from clawlab.graphs import complement_rows, encode_graph6, spans, vertices_of

BACKEND = "pure"  # "c" once clawlab._augment is bound (end of module)


def max_clique(n, adj, complement=False):
    """Bitmask of a maximum clique of the graph or, with ``complement``, of
    its complement (a maximum independent set), whose rows are built first.

    Branch and bound with a greedy-colouring bound (Tomita-style): the
    candidate set is greedily coloured in ascending vertex order, candidates
    are expanded from the highest colour class down, and a branch is cut when
    the clique so far plus the candidate's colour cannot beat the incumbent.
    The incumbent is only replaced by a strictly larger clique, so the result
    is the first maximum clique in this fixed order.
    """
    if complement:
        adj = complement_rows(n, adj)
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


def _twins(padj, a, b):
    """Whether vertices ``a`` and ``b`` (of a pattern, or of a parent in
    ``_walk``) have equal rows apart from each other, so that swapping them
    is an automorphism: false twins (equal rows) or true twins (equal
    closed rows).  This is an equivalence relation, whose classes of two or
    more vertices are the twin classes: equal rows and equal closed rows are
    each one, and no vertex v has both a false twin u and a true twin w (w,
    a neighbour of v, would be one of u, so u would be one of v)."""
    return padj[a] & ~(1 << b) == padj[b] & ~(1 << a)


@functools.lru_cache(maxsize=256)
def _plan(padj, order):
    """Search plan for assigning the pattern vertices in ``order`` (both
    tuples; ``order`` may leave vertices out): ``(degs, ups, downs, after,
    near)``, one entry per position.  ``degs[t]`` is the degree of position
    ``t`` among the ordered vertices, ``ups[t]`` and ``downs[t]`` the
    earlier positions adjacent and not adjacent to it, ``after[t]`` the
    latest earlier position holding a twin of it in the whole pattern, or
    -1, and ``near[t]`` whether it is adjacent to a vertex left out of
    ``order``.  Cached, as it depends on the pattern alone."""
    keep = 0
    for p in order:
        keep |= 1 << p
    degs, ups, downs, after, near = [], [], [], [], []
    for t, p in enumerate(order):
        row = padj[p]
        degs.append((row & keep).bit_count())
        ups.append(tuple([s for s in range(t) if (row >> order[s]) & 1]))
        downs.append(tuple([s for s in range(t) if not (row >> order[s]) & 1]))
        after.append(max([s for s in range(t) if _twins(padj, p, order[s])], default=-1))
        near.append(bool(row & ~keep))
    return tuple(degs), tuple(ups), tuple(downs), tuple(after), tuple(near)


def _by_degree(padj, keep):
    """The vertices of bitmask ``keep`` by descending degree among them,
    then ascending index."""
    return tuple(sorted(vertices_of(keep), key=lambda q: (-(padj[q] & keep).bit_count(), q)))


def _embed(adj, atleast, plan, leaf):
    """Walk the twin-ordered induced embeddings of the plan's positions into
    the host and call ``leaf(img, used, reach)`` on each: ``img`` the host
    images by position, ``used`` their bitmask and ``reach`` the bitmask of
    the images of ``near`` positions.  Return ``img`` when ``leaf`` returns
    true, which stops the walk, else None.

    The candidates for the next position are a bitset: unused host vertices
    of at least its degree (``atleast``, from ``_degree_masks``), adjacent to
    the images of its earlier neighbours, to no other earlier image, and
    above the image of its ``after`` twin.  They are tried in ascending
    order, so the embeddings come in lexicographic order of ``img``.  Only
    twin-ordered ones are walked: swapping the images of two twins gives
    another embedding of the same vertex set, so every embedding is one of
    these with the images of some twin classes permuted.  The least
    embedding is always walked, since swapping two twins whose images
    descend gives a smaller one.
    """
    degs, ups, downs, after, near = plan
    k = len(degs)
    roots = [atleast[d] for d in degs]
    img = [0] * k
    nb = [0] * k  # host neighbourhoods of the images

    def bt(t, used, touch):
        cand = roots[t] & ~used
        for s in ups[t]:
            cand &= nb[s]
        for s in downs[t]:
            cand &= ~nb[s]
        if after[t] >= 0:
            cand &= ~((2 << img[after[t]]) - 1)
        while cand:
            low = cand & -cand
            cand ^= low
            reach = touch | low if near[t] else touch
            v = low.bit_length() - 1
            img[t] = v
            if t + 1 == k:
                if leaf(img, used | low, reach):
                    return True
                continue
            nb[t] = adj[v]
            if bt(t + 1, used | low, reach):
                return True
        return False

    return img if (bt(0, 0, 0) if k else leaf(img, 0, 0)) else None


def _stop(img, used, reach):
    return True


def first_embedding(n, adj, plan):
    """The host images by position of the first twin-ordered induced
    embedding of the plan's positions (``_embed``), as a tuple, or None.
    This is the pure entry, on the pure walker; the compiled one runs the
    same walk as its obstruction listing and takes plans of at most 16
    positions."""
    img = _embed(adj, _degree_masks(n, adj, max(plan[0], default=0)), plan, _stop)
    return None if img is None else tuple(img)


@functools.lru_cache(maxsize=256)
def _search_plans(pn, padj):
    """Everything ``has_induced`` and ``extension_obstructions`` derive from
    a pattern alone, computed once per pattern: ``(free, orbits)``.

    ``free`` is the plan of the whole pattern, in descending-degree order.
    ``orbits`` is the partition of the pattern vertices into automorphism
    orbits, each a sorted tuple whose first vertex is its representative,
    in the order of their first vertices in ``free``.  An induced
    self-embedding is an automorphism, and every automorphism is a
    twin-ordered one (``_embed``) after a permutation of vertices within
    twin classes, so ``p``'s orbit holds the images of ``p``'s twins under
    the twin-ordered self-embeddings.
    """
    base = _by_degree(padj, (1 << pn) - 1)
    free = _plan(padj, base)
    images = [0] * pn  # images[p]: p's images under the walked automorphisms

    def mark(img, used, reach):
        for p, v in zip(base, img):
            images[p] |= 1 << v

    _embed(padj, _degree_masks(pn, padj, pn), free, mark)
    orbits = []
    left = (1 << pn) - 1
    for p in base:
        if (left >> p) & 1:
            orbit = 0
            for q in range(pn):
                if _twins(padj, p, q):
                    orbit |= images[q]
            orbits.append(vertices_of(orbit))
            left &= ~orbit
    return free, tuple(orbits)


def find_induced_embedding(n, adj, pn, padj):
    """Lexicographically least induced embedding of the pattern, or None.

    Pattern vertices are assigned in index order, so the first complete
    assignment is the lex-least tuple.  It runs the pure walker
    (``pure_first_embedding``) on both backends.
    """
    return pure_first_embedding(n, adj, _plan(tuple(padj), tuple(range(pn))))


def has_induced(n, adj, pn, padj, required=-1):
    """True iff the pattern embeds as an induced subgraph.

    Existence only: one ``first_embedding`` call, compiled when the
    extension is built, on the whole pattern's plan in descending-degree
    order, cached per pattern (``_search_plans``).  Copies through one
    host vertex are not searched here: ``extension_obstructions`` answers
    that for every neighbourhood of a new vertex at once.  ``required``
    must be -1; it stays in the signature because ``perfbench/tracer.py``
    passes it.
    """
    if required != -1:
        raise ValueError("has_induced takes no required vertex; see extension_obstructions")
    return first_embedding(n, adj, _search_plans(pn, tuple(padj))[0]) is not None


@functools.lru_cache(maxsize=256)
def _obstruction_plans(pn, padj):
    """The plan of H - p, in descending degree in H - p, for each orbit
    representative ``p`` of the pattern H."""
    full = (1 << pn) - 1
    orbits = _search_plans(pn, padj)[1]
    return tuple(_plan(padj, _by_degree(padj, full & ~(1 << orbit[0]))) for orbit in orbits)


def obstruction_plans(patterns):
    """The plans ``extension_obstructions`` walks for the patterns (``(pn,
    padj)`` pairs), as one tuple: each pattern's ``_obstruction_plans`` in
    turn.  This is the ``plans`` argument of ``augment``."""
    return tuple(plan for pn, padj in patterns if pn for plan in _obstruction_plans(pn, tuple(padj)))


def extension_obstructions(n, adj, plans):
    """The ``(S, T)`` bitmask pairs that forbid a one-vertex extension: the
    graph plus a new vertex joined to ``mask`` holds an induced copy of one
    of the patterns whose ``obstruction_plans`` are ``plans`` through the
    new vertex iff ``mask & S == T`` for some pair.

    For each pattern H, each orbit representative ``p`` (``_search_plans``)
    and each induced embedding of H - p into the graph, S is the image and
    T the image of p's neighbours.  A copy through the new vertex maps some
    vertex there, so, composed with an automorphism, it maps ``p`` there;
    the rest of the copy lies in the graph, which the extension leaves
    induced, and the new vertex is joined to exactly T within S.  Only the
    twin-ordered embeddings are listed (``_embed``; twins in H, ``p``
    included), since swapping two twins fixes S and T.  Each pair is listed
    once, in the order first found; a plan of more than ``n`` positions has
    no embedding and is skipped.
    """
    found = {}

    def add(img, used, reach):
        found[used, reach] = None

    atleast = _degree_masks(n, adj, n)
    for plan in plans:
        if len(plan[0]) <= n:
            _embed(adj, atleast, plan, add)
    return list(found)


def induced_cycles(n, adj, min_len, max_len):
    """Every induced cycle of ``min_len..max_len`` vertices, as a list.

    A cycle is a vertex tuple that starts at its least vertex with the
    smaller of its two neighbours second.  Paths grow from each start
    through ascending candidates.  A candidate adjacent to the start can only
    close the cycle (inside the path it would be a chord), so each path
    offers its closing vertices first, ascending, and then its extensions:
    the cycles of each length come in lexicographic order.
    """
    return _grow_cycles(n, adj, min_len, max_len, False)


def _grow_cycles(n, adj, min_len, max_len, odd):
    """The cycle grower of ``induced_cycles`` and ``odd_hole``: the cycles
    of ``min_len..max_len`` vertices in the order of ``induced_cycles`` or,
    with ``odd``, only the odd ones met, each of which lowers the length
    bound to two less than its own length."""
    min_len = max(min_len, 3)
    path = [0] * n
    bound = max_len
    found = []

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
                if odd and depth % 2:
                    continue
                found.append((*path[:depth], v))
                if odd:
                    bound = depth - 1  # the length less two
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
                return found
    return found


# On an induced cycle C each vertex has two neighbours on C, so N = N(x) on
# C, short of all of C, induces disjoint paths (runs), and each v in N has
# 0, 1 or 2 neighbours in N.  With no v isolated in N and |N| <= 4, the runs
# have 2 to 4 vertices: two ends (a v with one neighbour in N) make one run
# of |N| vertices, four ends make two runs of 2.  No vertex order is needed.
_ONE_RUN = ("K2", "P3", "P4")


def neighborhood_shape(adj, cmask, length, nb):
    """The shape that ``nb``, the neighbours of a vertex x on the induced
    cycle ``cmask`` of ``length`` vertices (host rows ``adj``), induces, as
    a ``patterns.NeighborhoodShape`` value:

    - ``"NONE"`` when ``nb`` is empty;
    - all of the cycle: ``"C5"`` on five vertices, ``"OTHER"`` on more;
    - ``"OTHER"`` for more than four vertices, or for a vertex of ``nb``
      with no neighbour in ``nb``;
    - otherwise two ends (vertices with one neighbour in ``nb``) give
      ``"K2"``, ``"P3"`` or ``"P4"`` by ``|nb|``, and four give ``"2K2"``.

    Trusted: nothing is checked, so the cycle must be induced and x off it.
    This is the one Python rule of Observation 2: ``patterns`` names its
    answers and the pure ``bad_cycle_neighborhoods`` lists the ``"OTHER"``
    ones."""
    if not nb:
        return "NONE"
    if nb == cmask:
        return "C5" if length == 5 else "OTHER"
    size = nb.bit_count()
    if size > 4:
        return "OTHER"
    ends = 0
    rest = nb
    while rest:
        low = rest & -rest
        rest ^= low
        inside = (adj[low.bit_length() - 1] & nb).bit_count()
        if not inside:
            return "OTHER"
        ends += inside == 1
    return _ONE_RUN[size - 2] if ends == 2 else "2K2"


def bad_cycle_neighborhoods(n, adj):
    """The ``(cycle, x)`` pairs that break Observation 2: for each induced
    cycle of length >= 5, in the order of ``induced_cycles``, each vertex
    ``x`` off it, ascending, with a neighbour on it and a shape there other
    than K2, P3, P4, C5 or 2K2 (``neighborhood_shape`` gives ``"OTHER"``).
    A claw-free graph has none.  The pure grower's cycles put through the
    rule, on both backends; the compiled ``flag_level`` applies the rule
    as a leaf of its grower."""
    out = []
    for cycle in _grow_cycles(n, adj, 5, n, False):
        cmask = around = 0
        for v in cycle:
            cmask |= 1 << v
            around |= adj[v]
        for x in vertices_of(around & ~cmask):
            if neighborhood_shape(adj, cmask, len(cycle), adj[x] & cmask) == "OTHER":
                out.append((cycle, x))
    return out


def pure_flag_level(n, level, test):
    """The indices, ascending, of the graphs of one level (row sequences,
    each on ``n`` vertices) that a campaign's check reports: with ``test``
    0, chi > omega (no colouring with omega colours), an odd hole or an odd
    antihole (``verify._check_perfect_class``); with ``test`` 1, a bad cycle
    neighbourhood (``verify._check_obs2``).  This is the pure entry, a loop
    over the pure entries; the compiled one reads each graph's rows once
    and stops the bad-neighbourhood search at its first pair."""
    if test == 1:
        return [i for i, adj in enumerate(level) if bad_cycle_neighborhoods(n, adj)]
    if test != 0:
        raise ValueError(f"test must be 0 or 1, not {test!r}")
    flagged = []
    for i, adj in enumerate(level):
        omega = pure_max_clique(n, adj).bit_count()
        if (
            pure_color_with(n, adj, omega) is None
            or pure_odd_hole(n, adj, False) is not None
            or pure_odd_hole(n, adj, True) is not None
        ):
            flagged.append(i)
    return flagged


def find_induced_cycle(n, adj, length):
    """Lexicographically least induced cycle of exactly ``length``, or None,
    oriented as in ``induced_cycles``."""
    cycles = induced_cycles(n, adj, length, length)
    return cycles[0] if cycles else None


def odd_hole(n, adj, complement):
    """Shortest odd induced cycle of length >= 5, lexicographically least,
    oriented as in ``induced_cycles``, or None; of the graph or, with
    ``complement``, of its complement, whose rows are built first.

    One pass of the cycle grower: each odd cycle met is kept and lowers the
    length bound to two less than its own length, so every later cycle is
    shorter and the last one kept is the shortest odd hole.  Cycles of each
    length arrive in lexicographic order and none of the shortest length is
    skipped before the first one, so that first one, the lex-least, is the
    answer.  This is the pure entry, on the pure grower.
    """
    if complement:
        adj = complement_rows(n, adj)
    holes = _grow_cycles(n, adj, 5, n, True)
    return holes[-1] if holes else None


def canon_form(n, adj):
    """Canonical relabelling: ``(rows, perm)``.

    ``rows`` is the adjacency of the canonical copy (minimum certificate over
    the individualisation-refinement tree) and ``perm[v]`` is the canonical
    position of original vertex ``v``.  Isomorphic graphs get equal ``rows``.

    The partition is an ordered list of cell masks.  Each refinement round
    keys every vertex of a non-singleton cell by its neighbour counts in the
    fragments made in the previous round, every fragment of a split cell
    but its last, and splits the cell in place, fragments in ascending key
    order; it stops when no cell splits.  The first round counts in the
    whole vertex set (the degrees); after individualising ``v`` it counts
    in ``{v}``.  This orders the fragments as keying by the counts in every
    cell would.  Two vertices of one cell have equal counts in each cell
    that did not split, because the partition was equitable against the
    previous one, and equal sums over the fragments of each split cell.  So
    their counts first differ in a fragment that is not the last of its
    cell, with the same values in the short key.

    The search individualises every vertex of the first non-singleton cell,
    skipping vertices whose swap with an earlier sibling is an automorphism,
    and keeps the first leaf of least certificate.
    """
    if n == 0:
        return (), ()
    best = [None, None]  # cert rows, perm

    def refine(cells, split):
        while True:
            # a lone split cell keys by its count alone: it sorts the same
            single = split[0] if len(split) == 1 else 0
            out = []
            nxt = []
            for cell in cells:
                if not cell & (cell - 1):
                    out.append(cell)
                    continue
                parts = {}
                m = cell
                while m:
                    low = m & -m
                    m ^= low
                    row = adj[low.bit_length() - 1]
                    if single:
                        key = (row & single).bit_count()
                    else:
                        key = tuple([(row & s).bit_count() for s in split])
                    parts[key] = parts.get(key, 0) | low
                if len(parts) == 1:
                    out.append(cell)
                    continue
                frags = [parts[key] for key in sorted(parts)]
                out += frags
                nxt += frags[:-1]
            if not nxt:
                return out
            cells = out
            split = nxt

    def emit(cells):
        colours = [0] * n
        for i, cell in enumerate(cells):
            colours[cell.bit_length() - 1] = i
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

    def search(cells):
        if len(cells) == n:
            emit(cells)
            return
        target = 0
        while not cells[target] & (cells[target] - 1):
            target += 1
        cell = cells[target]
        reps = []
        m = cell
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            if any((adj[r] & ~low) == (adj[v] & ~(1 << r)) for r in reps):
                continue
            reps.append(v)
            search(refine([*cells[:target], low, cell ^ low, *cells[target + 1 :]], [low]))

    everyone = (1 << n) - 1
    search(refine([everyone], [everyone]))
    return best[0], best[1]


def _delete_vertex(adj, x):
    """The rows of the graph less vertex ``x``, later vertices moved down."""
    low = (1 << x) - 1
    return tuple(row & low | row >> 1 & ~low for v, row in enumerate(adj) if v != x)


def _walk(parent, pairs, lo, connected):
    """The masks the mask walk of ``pure_augment`` reaches, as a list: the
    masks over the parent's vertices (rows ``parent``) whose popcount is at
    least ``lo`` (at least 2 on the connected tree) or, on the connected
    tree, 1, that meet each twin class (``_twins``) in its lowest
    vertices and that give ``mask & S != T`` for each ``(S, T)`` of
    ``pairs``.

    The walk decides the vertices in index order, taking each vertex before
    leaving it out.  At vertex ``v`` every vertex of an S of bit length
    ``v`` is decided, so those pairs are tested there (S = 0, from a
    one-vertex pattern, at the root), and a pair met ends the branch.
    Leaving ``v`` out bans its higher twins, so each class is met in a
    prefix.  A branch ends when its popcount plus the undecided vertices
    falls below ``lo``, or below 1 while its popcount is under 2 on the
    connected tree."""
    m = len(parent)
    blocks = [[] for _ in range(m + 1)]
    for s, t in pairs:
        blocks[s.bit_length()].append((s, t))
    higher = [sum(1 << u for u in range(v + 1, m) if _twins(parent, v, u)) for v in range(m)]
    leaves = []

    def node(v, mask, banned, count):
        if count + m - v < (1 if connected and count < 2 else lo):
            return
        for s, t in blocks[v]:
            if mask & s == t:
                return
        if v == m:
            leaves.append(mask)
            return
        if not banned >> v & 1:
            node(v + 1, mask | 1 << v, banned, count + 1)
        node(v + 1, mask, banned | higher[v], count)

    node(0, 0, 0, 0)
    return leaves


def _independent(adj, avail, size):
    """An independent set of ``size`` vertices inside bitmask ``avail``, as
    a bitmask, or None: the first one found, lowest vertices first."""
    if size <= 0:
        return 0
    while avail.bit_count() >= size:
        low = avail & -avail
        avail ^= low
        found = _independent(adj, avail & ~adj[low.bit_length() - 1], size - 1)
        if found is not None:
            return found | low
    return None


def _outranked(parent, by_deg, below, mask, k, rivals):
    """Whether an old vertex in ``rivals`` (child degree ``k``) has a higher
    profile than the new vertex joined to ``mask``.

    ``by_deg[d]`` holds the parent's vertices of degree ``d`` and
    ``below[d] == by_deg[d - 1]``; the child's class of degree ``d`` keeps the
    first outside the mask and gains the second inside it.
    """
    new = 1 << len(parent)
    classes = [(by_deg[d] & ~mask) | (below[d] & mask) for d in range(k + 1)]
    classes[k] |= new
    mine = [(mask & c).bit_count() for c in classes]
    while rivals:
        v = (rivals & -rivals).bit_length() - 1
        rivals &= rivals - 1
        row = parent[v] | new if mask >> v & 1 else parent[v]
        if [(row & c).bit_count() for c in classes] > mine:
            return True
    return False


def pure_augment(m, parents, plans, min_alpha, connected):
    """The canonically accepted one-vertex extensions of the canonical
    parents (row sequences, each on ``m`` vertices), as canonical row
    tuples, sorted: one level of ``enumeration.enumerate_graphs``, free of
    the patterns whose ``obstruction_plans`` are ``plans``, on the alpha
    tree or, with ``connected``, on the connected tree.  The loop body is
    the per-parent step described below; no class comes from two parents.

    The new vertex is joined to the parent's vertices in ``mask``.  With a
    = ``min_alpha`` the parent must have alpha >= a, and so has every
    child.  A child is accepted when deleting w, the canonically last vertex
    of D(child), gives the parent.  On the alpha tree D(child) = {v :
    alpha(child - v) >= a}; on the connected tree it is D_c(child) = {v :
    child - v connected, alpha(child - v) >= a}, the parent must be
    connected (a disconnected one has no children) and only non-empty masks
    are visited, so every child is connected.  The new vertex is in D(child)
    on either tree, as child - new is the parent.  So walking canonical
    positions down from the last, reaching the new vertex first accepts it,
    and otherwise the first vertex in D(child) is w.  For an old vertex v,
    alpha(child - v) = max(alpha(P - v), 1 + alpha(P - v - mask)), since an
    independent set holding the new vertex holds none of its neighbours.  So
    alpha(child - v) >= a when v is in R = {v : alpha(P - v) >= a}, found
    once per parent by one search per vertex not yet in R (an independent
    a-set that avoids v puts every vertex outside it in R); and for a v
    outside R iff the parent has an independent (a - 1)-set that misses
    ``mask`` and v.  With a <= 1, R is every vertex.  On the connected tree
    each step down also tests that child - v is connected.

    The parent is analysed once and its pairs (below) are listed once.
    Its masks then come from one walk (``_walk``), and masks are dropped
    before labelling in three stages: stage 0 and the popcount bound of
    stage 1 inside the walk, the rest at its leaves.  Stages 1 and 2
    compare the new vertex with rivals that are surely in D(child): on the
    alpha tree R; on the connected tree R less the parent's cut vertices,
    and less the mask's own vertex when the mask has one vertex (deleting
    that vertex cuts the new one off).  A
    vertex v of R that is no cut vertex of P is in D_c(child) whenever the
    mask holds a vertex other than v, since child - v is P - v plus a vertex
    joined to it.

    0. twins: within each class of the parent's false or true twins
       (``_twins``), the mask must hold the class's lowest vertices;
       this is the walk's twin rule: leaving a vertex out bans its higher
       twins;
    1. degree: the new vertex (degree ``k = popcount(mask)``) must have
       maximum degree in the child among itself and its rivals, so the walk
       reaches only masks with ``k >= top``, the maximum degree of the
       rivals in the parent (on the connected tree ``k >= max(top, 2)``,
       and the masks of one vertex, as their rivals lack that vertex), and
       each leaf is tested;
    2. profile: among the rivals of degree ``k`` in the child it must have
       a lexicographically maximal profile, its tuple of neighbour counts in
       each degree class, classes in ascending degree order; tested at each
       leaf.

    Stage 0 drops only duplicates.  A permutation inside each twin class
    takes any mask to the one holding each class's lowest vertices.  It is a
    parent automorphism, so it extends to an isomorphism of the two children
    that fixes the new vertex.  That isomorphism preserves the degree, the
    profile, D(child), the pattern copies through the new vertex and the
    acceptance test, and both children get the same canonical form.

    Stages 1 and 2 are sound because ``canon_form`` refines from the unit
    partition and keeps cell order through refinement and
    individualisation: the first round orders cells by degree and the second
    by profile within a degree class, so a vertex of higher degree, or of
    equal degree and higher profile, gets a later canonical position.  Each
    rival is in D(child), so a rival that outranks the new vertex shows
    that the new vertex is not w.  (The profile is taken over the degree
    classes up to ``k`` only: a rival that ties there is kept, which only
    keeps more masks.)  Acceptance depends only on the child's class
    (deleting w must give the parent), and an accepted class is still
    produced from this parent by a mask in which the new vertex plays w.
    That mask passes stages 1 and 2, and so does the mask stage 0 keeps in
    its place.

    Stage 2 reads the child's degree classes off the parent's (see
    ``_outranked``).  Rows are built only for masks that pass every stage.
    Children are canonical copies and each level is sorted, so the output
    does not depend on the order in which the walk reaches the masks.

    A mask is pruned when the child holds a forbidden pattern.  The parent
    holds none, so any copy in the child uses the new vertex, and it does
    so iff ``mask & S == T`` for one of the parent's
    ``extension_obstructions`` pairs (S a copy of the pattern less one
    vertex in the parent, T the neighbours the new vertex needs in S),
    listed from ``plans`` before the walk.  The walk tests each pair where
    every vertex of its S is decided, so a pruned mask ends its branch
    there.

    Labelling is ``pure_canon_form``: this is the pure step on either
    backend, and the reference the compiled ``augment`` is tested against.
    """
    n = m + 1
    everyone = (1 << m) - 1
    out = []
    for parent_rows in parents:
        parent = tuple(parent_rows)
        if connected and not spans(parent, everyone):
            continue
        by_deg = [0] * (m + 1)
        for v, row in enumerate(parent):
            by_deg[row.bit_count()] |= 1 << v
        below = [0] + by_deg
        atleast = _degree_masks(m, parent, m + 1)
        # R as a mask (the vertices whose deletion keeps alpha >= min_alpha)
        deletable = everyone
        if min_alpha > 1:
            deletable = 0
            for v in range(m):
                if not deletable >> v & 1:
                    found = _independent(parent, everyone & ~(1 << v), min_alpha)
                    if found is not None:
                        deletable |= everyone & ~found
        rival = deletable
        if connected:
            for v in range(m):
                if not spans(parent, everyone & ~(1 << v)):
                    rival &= ~(1 << v)
        top = max((d for d in range(m) if by_deg[d] & rival), default=0)
        seen = set()
        pairs = extension_obstructions(m, parent, plans)
        for mask in _walk(parent, pairs, max(top, 2) if connected else top, connected):
            k = mask.bit_count()
            ranked = rival & ~mask if connected and k == 1 else rival
            # stage 1: a rival of degree above k in the child
            if ranked & (atleast[k + 1] & ~mask | atleast[k] & mask):
                continue
            # stage 2: the rivals of degree k in the child
            rivals = ranked & (by_deg[k] & ~mask | below[k] & mask)
            if rivals and _outranked(parent, by_deg, below, mask, k, rivals):
                continue
            adj = tuple(row | 1 << m if mask >> v & 1 else row for v, row in enumerate(parent))
            adj += (mask,)
            cert, perm = pure_canon_form(n, adj)
            if cert in seen:
                continue
            seen.add(cert)
            # walk down to w, the canonically last vertex of D(child)
            pos = m
            w = perm.index(pos)
            while w != m:
                if not connected or spans(adj, (everyone | 1 << m) & ~(1 << w)):
                    if deletable >> w & 1:
                        break
                    if _independent(parent, everyone & ~(mask | 1 << w), min_alpha - 1) is not None:
                        break
                pos -= 1
                w = perm.index(pos)
            # deleting the new vertex gives the parent, whose rows are already
            # canonical; deleting w must match them
            if w != m and pure_canon_form(m, _delete_vertex(adj, w))[0] != parent:
                continue
            out.append(cert)
    return sorted(out)


pure_canon_form = canon_form
pure_max_clique = max_clique
pure_color_with = color_with
pure_induced_cycles = induced_cycles
pure_odd_hole = odd_hole
pure_graph6 = graph6 = encode_graph6
pure_first_embedding = first_embedding
augment = pure_augment
flag_level = pure_flag_level
try:
    from clawlab import _augment
except ImportError:
    pass
else:
    BACKEND = "c"
    canon_form = _augment.canon_form
    max_clique = _augment.max_clique
    color_with = _augment.color_with
    induced_cycles = _augment.induced_cycles
    odd_hole = _augment.odd_hole
    graph6 = _augment.graph6
    augment = _augment.augment
    first_embedding = _augment.first_embedding
    flag_level = _augment.flag_level
