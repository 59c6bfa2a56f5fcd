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
and its extensions' masks come from one walk over its vertices in index
order (see ``kernels.pure_augment``).  Before labelling, an extension is
dropped when it duplicates another through a permutation of twins, which
the walk never reaches, or when its new vertex cannot be w: w has maximum
degree among the vertices of R (on the connected tree below, those that
are no cut vertex of the parent), which bounds the walk's popcount, and,
among those of that degree, a maximal neighbour profile over the degree
classes, read off the parent's classes and the mask.  Only whole
extensions the acceptance test would have rejected anyway, or duplicates
of accepted ones, are dropped, so the classes produced are unchanged.

Induced-hereditary constraints (pattern-freeness) prune whole subtrees.
The parent is free of the patterns already, so a child fails only
through a copy that uses the new vertex; those copies are read off the
parent once, as ``kernels.extension_obstructions`` pairs, not searched
per extension, and the walk tests each pair as soon as the vertices it
reads are decided, so it ends a branch of masks at once.  The odd-cycle filter is not hereditary and applies only
at emission.

Connectivity is not hereditary either, but the connected members of a
class still form their own tree, the connected tree: the canonical parent
of a connected G is G - w, with w the canonically last vertex of D_c(G) =
{v : G - v connected, alpha(G - v) >= a}.  Its parent is again a
connected member, one vertex smaller, so by induction on n this tree
holds every connected member on more vertices than its roots whenever
D_c(G) is not empty for each of them.  It is rooted at the connected
members on 2a - 1 vertices, taken from the alpha tree (K1 when a <= 1),
by this lemma:

    A connected G with alpha(G) >= a and at least 2a vertices has D_c(G)
    non-empty.

Call a connected G *tight* when every non-cut vertex lies in every
maximum independent set.  If D_c(G) is empty, every non-cut v has
alpha(G - v) < a <= alpha(G), so alpha(G) = a and every maximum
independent set holds v: G is tight.  So it suffices that a tight
connected G has n <= 2 alpha(G) - 1, by induction on n.  K1 is tight and
K2 is not.  Let G be tight with n >= 3.  Its non-cut vertices are
pairwise non-adjacent, as they share a maximum independent set.  So G
has a cut vertex (else its n >= 3 vertices would have no edge between
them), and a leaf block B, with cut vertex c, has B - c made of non-cut
vertices.  B - c would be connected with no edge if B were 2-connected,
so B - c is one vertex x and B is the pendant edge cx.  The leaf x is a
non-cut vertex, so it is in every maximum independent set, and c, its
neighbour, is in none.

Let C1..Cr (r >= 1, as c is a cut vertex) be the components of
G - {c, x}; c has a neighbour in each, as G is connected.  A maximum
independent set of G is x and an independent set of each Ci, and x has
no neighbour in any Ci, so alpha(G) = 1 + sum alpha(Ci) and every maximum
independent set of a Ci extends, by x and maximum independent sets of
the others, to one of G.  Each Ci is one of two kinds.

(A) Some maximum independent set J of Ci misses N(c).  Then H = Ci + c
is connected, J + c is independent, and alpha(H) = alpha(Ci) + 1.  H is
tight: a maximum independent set of H without c would be one of Ci with
alpha(Ci) + 1 vertices, so c is in all of them; and a non-cut v of H
other than c is a non-cut vertex of G (H - v holds c, which joins x and
the other Cj), and a maximum independent set of H that misses v would be
c and a maximum independent set of Ci that misses v, which extends to
one of G that misses v, though G is tight.  By induction |Ci| + 1 <= 2
alpha(Ci) + 1.

(B) Every maximum independent set of Ci meets N(c).  Then Ci is tight.
Let v be a non-cut vertex of Ci and J a maximum independent set of Ci.
If c has a neighbour in Ci other than v, then G - v is connected, v is a
non-cut vertex of G, and J extends to a maximum independent set of G,
so J holds v.  If N(c) meets Ci in v alone, J meets N(c), so it holds v.
By induction |Ci| <= 2 alpha(Ci) - 1.

Not every Ci is of kind (A): otherwise c and a maximum independent set
of each Ci that misses N(c) would be a maximum independent set of G
without x.  So n = 2 + sum |Ci| <= 2 + 2 sum alpha(Ci) - 1 = 2 alpha(G) - 1.

``enumerate_graphs`` grows every ``connected_only`` config on the
connected tree.  The levels below the roots come from the alpha tree and
are tested for connectivity at emission; the root level is cut to its
connected members, and every level above holds only connected classes.
A level is the sorted canonical rows of its classes, so every emitted
stream is the one the alpha tree, cut to its connected classes, gives.

All of this work for one level is one ``kernels.augment`` call over the
level's parents, which returns the next level: the accepted children's
canonical rows, sorted.  ``enumerate_levels`` yields each level's rows
after the emission filters, which read the rows, as the root level's
connectivity cut does, and ``enumerate_graphs`` makes a ``Graph`` of each
class only to visit it.  A caller that screens a whole level in one
kernel call, as ``verify`` does with ``kernels.flag_level``, takes the
levels and makes no ``Graph`` for a class that passes.  The patterns are
analysed once per config, into the ``kernels.obstruction_plans`` every
call takes.  ``augment`` is bound like every other kernel:
``kernels.pure_augment``, or the compiled entry that returns the same list
when ``clawlab._augment`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from clawlab import kernels
from clawlab.graphs import Graph, rows_connected, rows_cycle
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
        if isinstance(self.free_of, str):
            raise ValueError(f"free_of must be a sequence of pattern tokens, not the string {self.free_of!r}")
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


def enumerate_levels(config: EnumerationConfig):
    """Yield ``(n, rows)`` for each level, n ascending up to max_n: the
    canonical rows of the level's classes that pass the emission filters,
    sorted.  Those filters are not hereditary: connectivity, tested only on
    the alpha-tree levels below the connected tree's roots, and odd cycles,
    tested only on odd levels.  There is no alpha filter: every class the
    tree grows has alpha >= ``min_alpha`` already.

    Each level holds the pattern-free classes with alpha >= ``min_alpha``,
    grown from aK1 (a = ``min_alpha``, at least 1) as the module docstring
    describes, so the first level yielded is on a vertices.  With
    ``connected_only`` the levels past 2a - 1 hold only the connected ones,
    grown on the connected tree from the connected classes on 2a - 1
    vertices.  Each level above the root is one ``kernels.augment`` call on
    the whole previous level, before its emission filters.
    """
    a = max(config.min_alpha, 1)  # the root aK1 has a vertices
    if a > config.max_n:
        return
    pattern_adjs = [(p.n, p.adj) for p in map(pattern_graph, config.free_of)]
    plans = kernels.obstruction_plans(pattern_adjs)
    # the connected tree's roots are on 2a - 1 vertices; past max_n, never
    roots = 2 * a - 1 if config.connected_only else config.max_n + 1

    root = (0,) * a
    level = []
    if all(not kernels.has_induced(a, root, pn, padj) for pn, padj in pattern_adjs):
        level = [root]
    for n in range(a, config.max_n + 1):
        if n > a:
            level = kernels.augment(n - 1, level, plans, config.min_alpha, n > roots)
        if n == roots:
            level = [rows for rows in level if rows_connected(rows)]
        emitted = level
        if config.connected_only and n < roots:  # alpha-tree levels below the roots
            emitted = [rows for rows in emitted if rows_connected(rows)]
        if config.exclude_odd_cycles and n % 2 == 1:
            emitted = [rows for rows in emitted if not rows_cycle(rows)]
        yield n, emitted


def enumerate_graphs(config: EnumerationConfig, visit=None) -> int:
    """Visit one canonical representative per isomorphism class; return count.

    Classes run over 1..max_n vertices and satisfy all config constraints;
    visit order is (n ascending, canonical adjacency ascending) and the
    representatives passed to ``visit`` are canonical copies: the classes
    of ``enumerate_levels``, one by one.
    """
    count = 0
    for n, level in enumerate_levels(config):
        count += len(level)
        if visit is not None:
            for rows in level:
                visit(Graph.trusted(n, rows))
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
