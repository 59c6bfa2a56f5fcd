"""Immutable bitset-backed simple graphs with graph6 serialisation.

Vertices are 0..n-1 and adjacency is one int bitmask per vertex, so the
set algebra used everywhere else (complements, induced subgraphs, common
neighbourhoods) stays branch-free.  Capacity is capped at 64 vertices:
one machine word per row, and everything built here is far smaller.
"""

from __future__ import annotations

from typing import Iterable, Sequence

MAX_VERTICES = 64


class GraphError(ValueError):
    """Invalid graph construction or serialisation input."""


def check_vertex_count(n: int) -> None:
    """Raise GraphError unless a graph may have ``n`` vertices."""
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")


def bitset_of(vertices: Iterable[int]) -> int:
    """Pack an iterable of vertex indices into a bitmask."""
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def vertices_of(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into a sorted tuple of vertex indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def spans(adj: Sequence[int], keep: int) -> bool:
    """Whether the vertices of bitmask ``keep`` induce a connected graph in
    the graph with neighbour bitmasks ``adj`` (none or one vertex counts as
    connected): a breadth-first search from the least of them, one layer at
    a time, along paths inside ``keep``."""
    seen = frontier = keep & -keep
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            nxt |= adj[low.bit_length() - 1]
        frontier = nxt & keep & ~seen
        seen |= frontier
    return seen == keep


def complement_rows(n: int, adj: Sequence[int]) -> tuple[int, ...]:
    """The rows of the complement of the graph on ``n`` vertices with rows
    ``adj``."""
    full = (1 << n) - 1
    return tuple([full & ~row & ~(1 << v) for v, row in enumerate(adj)])


def row_classes(rows: Iterable[int]) -> dict[int, int]:
    """Map each distinct row to the bitmask of the vertices that have it, in
    order of first appearance."""
    classes: dict[int, int] = {}
    for v, row in enumerate(rows):
        classes[row] = classes.get(row, 0) | 1 << v
    return classes


def rows_connected(adj: Sequence[int]) -> bool:
    """Whether the graph with neighbour bitmasks ``adj`` has one component
    (no vertex or one counts as connected)."""
    return spans(adj, (1 << len(adj)) - 1)


def rows_cycle(adj: Sequence[int]) -> bool:
    """Whether the graph with neighbour bitmasks ``adj`` is a chordless
    cycle: at least 3 vertices, 2-regular, connected."""
    return len(adj) >= 3 and all(row.bit_count() == 2 for row in adj) and rows_connected(adj)


class Graph:
    """Simple undirected graph; immutable after construction.

    ``adj[v]`` is the neighbour bitmask of vertex ``v``.  Construction
    asserts symmetry, irreflexivity and that all set bits are below ``n``.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int] = ()):
        check_vertex_count(n)
        adj = tuple(adj) if adj else (0,) * n
        if len(adj) != n:
            raise GraphError(f"expected {n} adjacency rows, got {len(adj)}")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise GraphError(f"row {v} has bits outside 0..{n - 1}")
            if (row >> v) & 1:
                raise GraphError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            m = row
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if not (adj[u] >> v) & 1:
                    raise GraphError(f"asymmetric edge {v}-{u}")
        _set_n(self, n)
        _set_adj(self, adj)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Graph is immutable")

    @classmethod
    def trusted(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        """Wrap rows already known to form a valid graph, without the checks
        of ``__init__``.

        ``adj`` must be a tuple of ``n`` symmetric, loop-free rows within
        ``0..n-1``: rows derived from a valid graph, a kernel's canonical
        relabelling of one, or rows ``from_edges`` and ``parse_graph6`` set
        both ways from checked edges.  Other input from outside goes
        through ``Graph(...)``.
        """
        g = _new(cls)
        _set_n(g, n)
        _set_adj(g, adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from an edge list; duplicate edges collapse."""
        check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop edge ({u},{v})")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls.trusted(n, tuple(rows))

    # -- basic queries -------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise GraphError(f"vertex pair ({u},{v}) out of range for n={self.n}")
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range for n={self.n}")
        return self.adj[v].bit_count()

    def max_degree(self) -> int:
        return max((row.bit_count() for row in self.adj), default=0)

    def edge_list(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            m = self.adj[v] >> (v + 1)
            while m:
                low = m & -m
                out.append((v, v + low.bit_length()))
                m ^= low
        return out

    def n_edges(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    # -- algebra -------------------------------------------------------

    def complement(self) -> "Graph":
        return Graph.trusted(self.n, complement_rows(self.n, self.adj))

    def induced(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph; vertex order is ascending original index."""
        keep = sorted(set(vertices))
        if keep and not (0 <= keep[0] and keep[-1] < self.n):
            raise GraphError(f"vertex set not within 0..{self.n - 1}")
        pos = {v: i for i, v in enumerate(keep)}
        rows = []
        for v in keep:
            row = 0
            m = self.adj[v]
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                if u in pos:
                    row |= 1 << pos[u]
            rows.append(row)
        return Graph.trusted(len(keep), tuple(rows))

    def is_connected(self) -> bool:
        """True iff the graph has one component (n=0, n=1 count as connected)."""
        return rows_connected(self.adj)

    def is_cycle(self) -> bool:
        """True iff the graph is a chordless cycle: n >= 3, 2-regular, connected."""
        return rows_cycle(self.adj)

    # -- dunder --------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_list()!r})"


# The two slots are written through their member descriptors, which the
# class's __setattr__ does not intercept: one call each, bound once.
_new = object.__new__
_set_n = Graph.n.__set__
_set_adj = Graph.adj.__set__


# -- graph6 ------------------------------------------------------------
#
# Format (nauty's; one graph per line): for n <= 62 the first byte is n+63;
# for 63 <= n <= 258047 the first byte is '~' (126) followed by n in three
# 6-bit groups.  The upper triangle of the adjacency matrix is read column
# by column -- x(0,1), x(0,2), x(1,2), x(0,3), ... -- packed big-endian
# into 6-bit groups, zero-padded, each group offset by 63.  A line may open
# with the optional header ">>graph6<<" (networkx writes it by default);
# the parser drops it and the encoder never writes it.
#
# Column c of the triangle is the low c bits of adj[c], so the codec moves
# whole columns: the pure encoder (encode_graph6) packs column c at offset
# c(c-1)/2 of one LSB-first integer and maps each 6-bit slice through
# _G6_CHAR (the slice bit-reversed, plus 63); the decoder maps characters
# back through _G6_SLICE and cuts the integer into columns again.
# to_graph6 is one call of kernels.graph6, on the backend kernels selects:
# encode_graph6 itself on pure, and the compiled twin, which packs the same
# bits into a fixed buffer, on c.  The tests compare both directions with
# networkx for every n in 0..64, and the two encoders with each other.

_G6_CHAR = [chr(63 + int(f"{k:06b}"[::-1], 2)) for k in range(64)]
_G6_SLICE = {ch: k for k, ch in enumerate(_G6_CHAR)}


def encode_graph6(n: int, adj: tuple[int, ...]) -> str:
    """The graph6 string of the graph on ``n`` vertices with rows ``adj``
    (no ``>>graph6<<`` header); only the low c bits of ``adj[c]`` are read.
    The pure twin of the compiled ``graph6`` entry: call ``to_graph6``."""
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr(63 + ((n >> 12) & 63)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    acc = off = 0
    for c in range(1, n):
        acc |= (adj[c] & ((1 << c) - 1)) << off
        off += c
    return head + "".join([_G6_CHAR[(acc >> i) & 63] for i in range(0, off, 6)])


def to_graph6(g: Graph) -> str:
    return kernels.graph6(g.n, g.adj)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise GraphError("empty graph6 string")
    for ch in s:
        if ch not in _G6_SLICE:
            raise GraphError(f"character {ch!r} outside graph6 range 63..126")
    if s[0] == "~":
        if len(s) < 4:
            raise GraphError("truncated graph6 size prefix")
        n = ((ord(s[1]) - 63) << 12) | ((ord(s[2]) - 63) << 6) | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    if n > MAX_VERTICES:
        raise GraphError(f"graph6 vertex count {n} exceeds capacity {MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise GraphError(f"graph6 body length {len(body)} wrong for n={n}")
    acc = 0
    for ch in reversed(body):
        acc = (acc << 6) | _G6_SLICE[ch]
    if acc >> nbits:
        raise GraphError("nonzero trailing bits in graph6 body")
    rows = [0] * n
    for c in range(1, n):
        rows[c] = col = acc & ((1 << c) - 1)
        acc >>= c
        while col:
            low = col & -col
            rows[low.bit_length() - 1] |= 1 << c
            col ^= low
    return Graph.trusted(n, tuple(rows))


# kernels takes complement_rows, encode_graph6, spans and vertices_of from
# this module, all defined above, so it is imported last
from clawlab import kernels  # noqa: E402
