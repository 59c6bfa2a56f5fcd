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
w has maximum degree among the vertices of R (on the connected tree below,
those that are no cut vertex of the parent) and, among those of that
degree, a maximal neighbour profile over the degree classes, read off the
parent's classes and the mask (see ``kernels.pure_augment``).  Only
whole extensions the acceptance test would have rejected anyway, or
duplicates of accepted ones, are dropped, so the classes produced are
unchanged.

Induced-hereditary constraints (pattern-freeness) prune whole subtrees.
The parent is free of the patterns already, so a child fails only
through a copy that uses the new vertex; those copies are read off the
parent once, as ``kernels.extension_obstructions`` pairs, not searched
per extension.  The odd-cycle filter is not hereditary and applies only
at emission.

Connectivity is not hereditary either, but the connected members of a
class still form their own tree, the connected tree: the canonical parent
of a connected G is G - w, with w the canonically last vertex of D_c(G) =
{v : G - v connected, alpha(G - v) >= a}.  Its parent is again a
connected member, one vertex smaller, so by induction on n this tree
holds every connected member on more vertices than its roots whenever
D_c(G) is not empty for each of them.  With a <= 1 any non-cut vertex is in D_c(G), and every
connected graph on two or more vertices has one, so the tree is rooted at
K1.  For a claw-free class with a >= 2 it is rooted at the connected
members on 2a - 1 vertices, taken from the alpha tree, by this lemma:

    A connected claw-free G with alpha(G) >= a and at least 2a vertices
    has D_c(G) non-empty.

Call a connected G *tight* when every non-cut vertex lies in every
maximum independent set.  If D_c(G) is empty, every non-cut v has
alpha(G - v) < a <= alpha(G), so alpha(G) = a and every maximum
independent set holds v: G is tight.  So it suffices that a tight
connected claw-free G has n <= 2 alpha(G) - 1, by induction on n.  K1 is
tight and K2 is not.  Let G be tight with n >= 3.  Its non-cut vertices
are pairwise non-adjacent, as they share a maximum independent set.  So
G has a cut vertex (else its n >= 3 vertices would have no edge between
them), and a leaf block B, with cut vertex c, has B - c made of non-cut
vertices.  B - c would be connected with no edge if B were 2-connected,
so B - c is one vertex x and B is the pendant edge cx.
N(c) - x is a clique, or c, x and two non-adjacent vertices of N(c) - x
would be a claw.  It is not empty, as c is a cut vertex, and every
component of G - c but {x} meets it, so G' = G - {c, x} is connected.  It
is claw-free, and alpha(G') = alpha(G) - 1: an independent set of G' plus
x is independent in G, and a maximum independent set of G holds at most
one of c and x.  G' is tight.  Otherwise some non-cut v of G' is missed
by a maximum independent set J of G'.  If c has a neighbour in G' other
than v, then G - v is connected, so v is a non-cut vertex of G, and J + x
is a maximum independent set of G that misses it.  If N(c) = {x, v},
then J + c is a maximum independent set of G that misses the non-cut
vertex x.  Either way G is not tight.  So by induction n - 2 <= 2
alpha(G') - 1, and n <= 2 alpha(G) - 1.

``enumerate_graphs`` grows a ``connected_only`` config on the connected
tree when the config is claw-free (one of its patterns is an induced
subgraph of K1_3) or its ``min_alpha`` is at most 1.  That holds for every
campaign of ``verify`` that wants connected graphs.  The levels below the
roots come from the alpha tree and are tested for connectivity at
emission; the root level is cut to its connected members, and every level
above holds only connected classes.  The other ``connected_only`` configs
(``min_alpha`` >= 2 with no pattern under K1_3, reachable only from
``clawlab enumerate``) keep the alpha tree to ``max_n`` and test
connectivity at emission.  The tests find D_c(G) non-empty on every
connected graph with n >= 2 alpha(G) on up to 8 vertices, claws included,
but the lemma is proved only for claw-free graphs, so those configs keep
that fallback.  Either way a level is the sorted canonical rows of the same
classes, so every emitted stream is the same.

All of this work for one level is one ``kernels.augment`` call over the
level's parents, which returns the accepted children's canonical rows
parent by parent; sorted, they are the next level.  Levels hold row
tuples, and a ``Graph`` is made only to emit a class.  The patterns are
analysed once per config, into the ``kernels.obstruction_plans`` every
call takes.  ``augment`` is bound like every other kernel:
``kernels.pure_augment``, or the compiled entry that returns the same rows
in the same order when ``clawlab._augment`` is built.
"""

from __future__ import annotations

from dataclasses import dataclass

from clawlab import kernels
from clawlab.graphs import Graph, to_graph6
from clawlab.patterns import pattern_graph

MAX_ENUM_VERTICES = 11  # documented runtime wall
MAX_PRUNE_PATTERN_VERTICES = 7
ORACLE_MAX_VERTICES = 7
_CLAW = pattern_graph("K1_3")


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


def _emit_ok(g: Graph, config: EnumerationConfig, connected: bool = False) -> bool:
    """The emission filters that are not hereditary: connectivity and odd
    cycles.  There is no alpha filter: every class the tree grows has alpha
    >= ``min_alpha`` already.  ``connected`` says the level holds connected
    classes only (the connected tree and its roots), so connectivity is not
    tested again.  It is tested on the alpha-tree levels below the roots,
    and on every level of the configs that keep the alpha tree: connected,
    ``min_alpha`` >= 2 and no pattern under K1_3."""
    if config.connected_only and not connected and not g.is_connected():
        return False
    return not (config.exclude_odd_cycles and g.n % 2 == 1 and g.is_cycle())


def _grows_connected(config: EnumerationConfig, pattern_adjs) -> bool:
    """Whether the config's classes grow on the connected tree: it wants
    connected graphs, and its class is claw-free or has ``min_alpha`` <= 1
    (the cases the module docstring's lemma covers)."""
    if not config.connected_only:
        return False
    return config.min_alpha <= 1 or any(kernels.has_induced(4, _CLAW.adj, pn, padj) for pn, padj in pattern_adjs)


def enumerate_graphs(config: EnumerationConfig, visit=None) -> int:
    """Visit one canonical representative per isomorphism class; return count.

    Classes run over 1..max_n vertices and satisfy all config constraints;
    visit order is (n ascending, canonical adjacency ascending) and the
    representatives passed to ``visit`` are canonical copies.  Each level
    holds the pattern-free classes with alpha >= ``min_alpha``, grown from
    aK1 (a = ``min_alpha``, at least 1) as the module docstring describes,
    so levels below a are empty.  When ``_grows_connected``, the levels past
    2a - 1 hold only the connected ones, grown on the connected tree from
    the connected classes on 2a - 1 vertices.  Each level above the root is
    one ``kernels.augment`` call.
    """
    a = max(config.min_alpha, 1)  # the root aK1 has a vertices
    if a > config.max_n:
        return 0
    pattern_adjs = []
    for token in config.free_of:
        p = pattern_graph(token)
        pattern_adjs.append((p.n, p.adj))
    plans = kernels.obstruction_plans(pattern_adjs)
    # the connected tree's roots are on 2a - 1 vertices; past max_n, never
    roots = 2 * a - 1 if _grows_connected(config, pattern_adjs) else config.max_n + 1

    count = 0
    root = (0,) * a
    level = []
    if all(not kernels.has_induced(a, root, pn, padj) for pn, padj in pattern_adjs):
        level = [root]
    for n in range(a, config.max_n + 1):
        if n > a:
            level = sorted(kernels.augment(n - 1, level, plans, config.min_alpha, n > roots))
        if n == roots:
            level = [rows for rows in level if Graph.trusted(n, rows).is_connected()]
        for rows in level:
            g = Graph.trusted(n, rows)
            if _emit_ok(g, config, n >= roots):
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
