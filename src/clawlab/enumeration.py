"""Isomorph-free exhaustive generation of small graphs.

Generation is canonical augmentation (McKay 1998, "Isomorph-free exhaustive
generation", J. Algorithms 26:306-324): each representative on n-1 vertices
is extended by one new vertex over all neighbourhood bitmasks, and an
extension survives only when deleting the new vertex reaches the same
graph (up to isomorphism) as deleting the canonical parent's vertex w --
i.e. the child was built along its canonical construction path.  Children
of one parent are deduplicated by canonical form; distinct parents cannot
produce the same class, so no global table is needed.

McKay's construction lets w be any isomorphism-invariant choice, and it is
the canonically last vertex of D(G) = {v : alpha(G - v) >= a}, with a the
config's ``min_alpha``.  When alpha(G) >= a and G has more than a vertices,
D(G) holds every vertex outside a fixed independent a-set, so the graphs
with alpha >= a form their own generation tree, rooted at aK1: every level
holds only them.  With ``min_alpha <= 1`` D(G) is every vertex, w is the
canonically last vertex and the tree is rooted at K1, the whole class.

Each parent is analysed once (its degree classes, its classes of false and
true twins, and the set R of vertices whose deletion keeps alpha >= a),
and before any kernel call each extension is dropped when it duplicates
another through a permutation of twins, or when its new vertex cannot be w:
w has maximum degree among the vertices of R and, among those of that
degree, a maximal neighbour profile over the degree classes, read off the
parent's classes and the mask (see ``_pure_children``).  Only whole extensions
the acceptance test would have rejected anyway, or duplicates of accepted
ones, are dropped, so the classes produced are unchanged.

Induced-hereditary constraints (pattern-freeness) prune whole subtrees.
The parent is free of the patterns already, so a child fails only
through a copy that uses the new vertex; those copies are read off the
parent once, as ``kernels.extension_obstructions`` pairs, not searched
per extension.  Connectivity and odd-cycle filters are not hereditary and
apply only at emission.  At the last level, whose classes are never
extended, connectivity is also read off the parent and the mask, so an
extension whose child is disconnected is dropped before any kernel call:
the child is connected iff the mask meets every component of the parent.
That is a property of the child's class, so the classes emitted are
unchanged.

All of this per-parent work is one step, ``_children``.  When the compiled
backend is built it is one ``kernels.augment`` call, which does in C what
``_pure_children`` does in Python and returns the same rows in the same
order; ``_pure_children`` is the fallback and the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

from clawlab import kernels
from clawlab.graphs import Graph, bitset_of, to_graph6
from clawlab.patterns import pattern_graph

MAX_ENUM_VERTICES = 11  # documented runtime wall
MAX_PRUNE_PATTERN_VERTICES = 7
ORACLE_MAX_VERTICES = 7


@dataclass(frozen=True)
class EnumerationConfig:
    max_n: int
    connected_only: bool = False
    free_of: tuple[str, ...] = ()
    min_alpha: int = 0
    exclude_odd_cycles: bool = False

    def __post_init__(self):
        object.__setattr__(self, "free_of", tuple(self.free_of))
        if not 1 <= self.max_n <= MAX_ENUM_VERTICES:
            raise ValueError(f"max_n must be in 1..{MAX_ENUM_VERTICES}")
        if self.min_alpha < 0:
            raise ValueError("min_alpha must be non-negative")
        for token in self.free_of:
            p = pattern_graph(token)
            if p.n > MAX_PRUNE_PATTERN_VERTICES:
                raise ValueError(
                    f"prune pattern {token} has {p.n} vertices (max {MAX_PRUNE_PATTERN_VERTICES})"
                )


def _delete_vertex(n, adj, x):
    rows = []
    for v in range(n):
        if v == x:
            continue
        row = adj[v]
        low = row & ((1 << x) - 1)
        high = row >> (x + 1)
        rows.append(low | (high << x))
    return tuple(rows)


def _twin_classes(n, adj):
    """The vertex classes of two or more false twins (equal rows) or true
    twins (equal closed rows), as bitmasks.

    Every permutation inside one class is an automorphism.  No vertex has
    both a false and a true twin, and no row equals a closed row (that row
    would contain its own vertex), so the classes are disjoint.
    """
    groups = {}
    for v, row in enumerate(adj):
        for key in (row, row | 1 << v):
            groups[key] = groups.get(key, 0) | 1 << v
    return [c for c in groups.values() if c & (c - 1)]


def _masks_from(m, lo):
    """Every ``m``-bit mask with at least ``lo`` bits set, by popcount, each
    popcount in ascending order (Gosper's hack)."""
    if lo == 0:
        yield 0
        lo = 1
    for k in range(lo, m + 1):
        mask = (1 << k) - 1
        while not mask >> m:
            yield mask
            low = mask & -mask
            ripple = mask + low
            mask = ripple | (((ripple ^ mask) >> 2) // low)


def _keeps_lowest_twins(mask, twins):
    """Whether ``mask`` meets each twin class in a prefix (its lowest bits)."""
    for c in twins:
        part = mask & c
        if (c ^ part) & ((1 << part.bit_length()) - 1):
            return False
    return True


def _independent_sets(adj, size):
    """Every independent set of ``size`` vertices, as bitmasks."""
    out = []

    def grow(chosen, cand, left):
        if not left:
            out.append(chosen)
            return
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            grow(chosen | 1 << v, cand & ~adj[v], left - 1)

    grow(0, (1 << len(adj)) - 1, size)
    return out


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


def _children(rep: Graph, pattern_adjs, min_alpha=0, connected=False):
    """Canonically accepted one-vertex extensions of a representative: one
    ``kernels.augment`` call when the compiled backend is built, else
    ``_pure_children``, which it reproduces bit for bit."""
    if kernels.augment is None:
        return _pure_children(rep, pattern_adjs, min_alpha, connected)
    n = rep.n + 1
    return [Graph.trusted(n, rows) for rows in kernels.augment(rep.n, rep.adj, pattern_adjs, min_alpha, connected)]


def _pure_children(rep: Graph, pattern_adjs, min_alpha=0, connected=False):
    """Canonically accepted one-vertex extensions of a representative, in
    pure Python: the reference for ``kernels.augment``.

    The new vertex is joined to the parent's vertices in ``mask``.  With a
    = ``min_alpha`` the parent must have alpha >= a, and so has every
    child.  A child is accepted when deleting w, the canonically last vertex
    of D(child) = {v : alpha(child - v) >= a}, gives the parent: walking
    canonical positions down from the last, reaching the new vertex first
    accepts it (alpha(child - new) = alpha(P) >= a), and otherwise the
    first vertex in D(child) is w.  For an old vertex v, alpha(child - v) =
    max(alpha(P - v), 1 + alpha(P - v - mask)), since an independent set
    holding the new vertex holds none of its neighbours.  So v is in
    D(child) when it is in R = {v : alpha(P - v) >= a}, the complement of
    the intersection of the parent's independent a-sets, found once per
    parent; and a v outside R is in D(child) iff some independent (a -
    1)-set of the parent misses ``mask`` and v, listed on first need.  With
    a <= 1, R is every vertex and the walk stops at the first position.

    The parent is analysed once; masks are then dropped before pruning or
    labelling, in three stages, plus a fourth at the last level:

    0. twins: within each class of the parent's false or true twins
       (``_twin_classes``), the mask must hold the class's lowest vertices;
    1. degree: the new vertex (degree ``k = popcount(mask)``) must have
       maximum degree in the child among itself and R, so only masks with
       ``k >= top``, the maximum degree of R in the parent, are visited;
    2. profile: among the vertices of R of degree ``k`` in the child it
       must have a lexicographically maximal profile, its tuple of
       neighbour counts in each degree class, classes in ascending degree
       order;
    3. connectivity (only when ``connected``): the child must be connected,
       that is, the mask must meet every component of the parent.

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
    equal degree and higher profile, gets a later canonical position.  R is
    part of D(child), as alpha(child - v) >= alpha(P - v), so a rival in R
    that outranks the new vertex shows that the new vertex is not w.  (The
    profile is taken over the degree classes up to ``k`` only: a rival that
    ties there is kept, which only keeps more masks.)  Acceptance depends
    only on the child's class (deleting w must give the parent), and an
    accepted class is still produced from this parent by a mask in which the
    new vertex plays w.  That mask passes stages 1 and 2, and so does the
    mask stage 0 keeps in its place.

    Stage 2 reads the child's degree classes off the parent's (see
    ``_outranked``).  Vertices of R reach degree ``k`` only when ``k`` is
    ``top`` or ``top + 1``, so no other mask needs the profile test.  Rows
    are built only for masks that pass every stage.  Children are canonical
    copies and each level is sorted, so the output is unchanged.

    Stage 3 drops whole classes: whether a child passes it depends only on
    the child's class, so the masks that give one class are kept or dropped
    together, and the classes kept are produced as before.
    ``enumerate_graphs`` asks for it only at ``max_n``, whose classes are
    never extended, and still runs ``_emit_ok`` on each child, which alone
    applies the odd-cycle filter.

    A mask that passes every stage is then pruned when the child holds a
    forbidden pattern.  The parent holds none, so any copy in the child
    uses the new vertex, and it does so iff ``mask & S == T`` for one of
    the parent's ``kernels.extension_obstructions`` pairs (S a copy of the
    pattern less one vertex in the parent, T the neighbours the new vertex
    needs in S).  The pairs are listed when the first mask gets this far,
    so a parent all of whose masks fail earlier lists none.
    """
    m = rep.n
    n = m + 1
    parent = rep.adj
    by_deg = [0] * (m + 1)
    for v, row in enumerate(parent):
        by_deg[row.bit_count()] |= 1 << v
    below = [0] + by_deg
    # R as a mask (the vertices whose deletion keeps alpha >= min_alpha) and
    # its degree classes
    deletable = (1 << m) - 1
    rival_deg, rival_below = by_deg, below
    if min_alpha > 1:
        core = deletable
        for s in _independent_sets(parent, min_alpha):
            core &= s
        deletable ^= core
        rival_deg = [c & deletable for c in by_deg]
        rival_below = [0] + rival_deg
    top = max((d for d in range(m) if rival_deg[d]), default=0)
    tops = rival_deg[top]
    twins = _twin_classes(m, parent)
    meet = [bitset_of(c) for c in rep.components()] if connected else ()
    short_sets = None  # the parent's independent (min_alpha - 1)-sets
    blocks = None
    out = []
    seen = set()
    for mask in _masks_from(m, top):
        k = mask.bit_count()
        # stage 1: when k == top, a raised degree-top vertex would exceed k
        if k == top and mask & tops:
            continue
        # stage 3: the child is disconnected
        if meet and not all(mask & c for c in meet):
            continue
        if not _keeps_lowest_twins(mask, twins):
            continue
        # stage 2: vertices of R reach degree k only when k is top or top + 1
        if k - top < 2:
            rivals = (rival_deg[k] & ~mask) | (rival_below[k] & mask)
            if rivals and _outranked(parent, by_deg, below, mask, k, rivals):
                continue
        if blocks is None:
            blocks = kernels.extension_obstructions(m, parent, pattern_adjs)
        if any(mask & s == t for s, t in blocks):
            continue
        adj = tuple(row | 1 << m if mask >> v & 1 else row for v, row in enumerate(parent))
        adj += (mask,)
        cert, perm = kernels.canon_form(n, adj)
        if cert in seen:
            continue
        seen.add(cert)
        if perm[m] != m:
            # walk down to w, the canonically last vertex of D(child)
            pos = m
            w = perm.index(pos)
            while w != m and not deletable >> w & 1:
                if short_sets is None:
                    short_sets = _independent_sets(parent, min_alpha - 1)
                cut = mask | 1 << w
                if any(not cut & s for s in short_sets):
                    break
                pos -= 1
                w = perm.index(pos)
            # deleting the new vertex gives the parent, whose rows are already
            # canonical; deleting w must match them
            if w != m and kernels.canon_form(m, _delete_vertex(n, adj, w))[0] != parent:
                continue
        out.append(Graph.trusted(n, cert))
    return out


def _emit_ok(g: Graph, config: EnumerationConfig) -> bool:
    """The emission filters that are not hereditary: connectivity and odd
    cycles.  There is no alpha filter: every class the tree grows has alpha
    >= ``min_alpha`` already."""
    if config.connected_only and not g.is_connected():
        return False
    return not (config.exclude_odd_cycles and g.n % 2 == 1 and g.is_cycle())


def enumerate_graphs(config: EnumerationConfig, visit=None) -> int:
    """Visit one canonical representative per isomorphism class; return count.

    Classes run over 1..max_n vertices and satisfy all config constraints;
    visit order is (n ascending, canonical adjacency ascending) and the
    representatives passed to ``visit`` are canonical copies.  Each level
    holds the pattern-free classes with alpha >= ``min_alpha``, grown from
    aK1 (a = ``min_alpha``, at least 1) as the module docstring describes,
    so levels below a are empty.  The last level is generated only for
    classes ``_emit_ok`` can accept (stage 3 of ``_children``).
    """
    a = max(config.min_alpha, 1)  # the root aK1 has a vertices
    if a > config.max_n:
        return 0
    pattern_adjs = []
    for token in config.free_of:
        p = pattern_graph(token)
        pattern_adjs.append((p.n, p.adj))

    count = 0
    root = Graph(a, (0,) * a)
    level = []
    if all(not kernels.has_induced(a, root.adj, pn, padj) for pn, padj in pattern_adjs):
        level = [root]
    for n in range(a, config.max_n + 1):
        if n > a:
            nxt = []
            connected = config.connected_only and n == config.max_n
            for rep in level:
                nxt.extend(_children(rep, pattern_adjs, config.min_alpha, connected))
            nxt.sort(key=lambda g: g.adj)
            level = nxt
        for g in level:
            if _emit_ok(g, config):
                count += 1
                if visit is not None:
                    visit(g)
    return count


def oracle_enumerate(max_n: int) -> dict[int, list[Graph]]:
    """All isomorphism classes on 0..max_n vertices, level by level.

    Every class on n-1 vertices is extended by one new vertex over every
    neighbourhood mask, and the children are deduplicated by canonical form.
    This is complete: deleting any vertex of a graph on n vertices leaves a
    member of some (n-1)-vertex class, and the graph is that member plus one
    vertex joined by some mask.  No acceptance rule, vertex-invariant filter
    or pruning is involved.  Test oracle only; max_n <= 7.
    """
    if max_n > ORACLE_MAX_VERTICES:
        raise ValueError(f"oracle enumeration capped at {ORACLE_MAX_VERTICES} vertices")
    catalog: dict[int, list[Graph]] = {0: [Graph(0, ())]}
    for n in range(1, max_n + 1):
        seen = set()
        for rep in catalog[n - 1]:
            for mask in range(1 << (n - 1)):
                rows = [rep.adj[v] | (((mask >> v) & 1) << (n - 1)) for v in range(n - 1)]
                rows.append(mask)
                seen.add(kernels.canon_form(n, tuple(rows))[0])
        catalog[n] = [Graph.trusted(n, cert) for cert in sorted(seen)]
    return catalog


def catalog_labels(catalog: dict[int, list[Graph]]) -> dict[int, set[str]]:
    """graph6 label sets per size, for comparing enumerations."""
    return {n: {to_graph6(g) for g in gs} for n, gs in catalog.items()}
