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
parent's classes and the mask (see ``kernels.pure_augment``).  Only
whole extensions the acceptance test would have rejected anyway, or
duplicates of accepted ones, are dropped, so the classes produced are
unchanged.

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
unchanged, and emission does not test their connectivity again.

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
    >= ``min_alpha`` already.  ``connected`` says the level came from an
    ``augment`` call that kept connected children only, so connectivity is
    not tested again."""
    if config.connected_only and not connected and not g.is_connected():
        return False
    return not (config.exclude_odd_cycles and g.n % 2 == 1 and g.is_cycle())


def enumerate_graphs(config: EnumerationConfig, visit=None) -> int:
    """Visit one canonical representative per isomorphism class; return count.

    Classes run over 1..max_n vertices and satisfy all config constraints;
    visit order is (n ascending, canonical adjacency ascending) and the
    representatives passed to ``visit`` are canonical copies.  Each level
    holds the pattern-free classes with alpha >= ``min_alpha``, grown from
    aK1 (a = ``min_alpha``, at least 1) as the module docstring describes,
    so levels below a are empty.  Each level above the root is one
    ``kernels.augment`` call, and the last is generated only for classes
    ``_emit_ok`` can accept (stage 3 of ``kernels.augment``).
    """
    a = max(config.min_alpha, 1)  # the root aK1 has a vertices
    if a > config.max_n:
        return 0
    pattern_adjs = []
    for token in config.free_of:
        p = pattern_graph(token)
        pattern_adjs.append((p.n, p.adj))
    plans = kernels.obstruction_plans(pattern_adjs)

    count = 0
    root = (0,) * a
    level = []
    if all(not kernels.has_induced(a, root, pn, padj) for pn, padj in pattern_adjs):
        level = [root]
    for n in range(a, config.max_n + 1):
        connected = n > a and config.connected_only and n == config.max_n
        if n > a:
            level = sorted(kernels.augment(n - 1, level, plans, config.min_alpha, connected))
        for rows in level:
            g = Graph.trusted(n, rows)
            if _emit_ok(g, config, connected):
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
