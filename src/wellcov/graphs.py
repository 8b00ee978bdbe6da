"""Immutable finite simple graphs with bitmask adjacency rows.

Vertices are 0..n-1 and row v is an int whose set bits are the
neighbours of v.  Construction validates symmetry and irreflexivity, so
every Graph in circulation is a simple undirected graph.  Zero-vertex
graphs are not representable: where one would be left,
edge_localization returns the empty mask, and induced_subgraph rejects
an empty keep set outright.  Vertex sets, as arguments and in results,
are int masks: bit v is vertex v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .bitset import MAX_UNIVERSE

MAX_VERTICES = MAX_UNIVERSE


class EmptySubgraphError(ValueError):
    """An induced subgraph was asked to keep no vertices."""


@dataclass(frozen=True, slots=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count {self.n} out of range 1..{MAX_VERTICES}")
        if not isinstance(self.adj, tuple):
            object.__setattr__(self, "adj", tuple(self.adj))
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << self.n) - 1
        # symmetric exactly when every bit below the diagonal has its
        # mirror above it and the two triangles hold as many bits, so
        # each unordered pair is looked at once
        adj = self.adj
        symmetric = True
        below = above = 0
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{self.n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"vertex {v} is adjacent to itself")
            bits = row & (1 << v) - 1
            below += bits.bit_count()
            above += (row >> v).bit_count()
            while bits:
                low = bits & -bits
                bits ^= low
                if not adj[low.bit_length() - 1] >> v & 1:
                    symmetric = False
        if symmetric and below == above:
            return
        # name the same pair as a scan of every row in order
        for v, row in enumerate(adj):
            bits = row
            while bits:
                low = bits & -bits
                u = low.bit_length() - 1
                bits ^= low
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"adjacency is not symmetric at ({v}, {u})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        # checked before the rows exist, so an oversize n fails at once
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} out of range 1..{MAX_VERTICES}")
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as pairs (u, v), u < v, ordered colexicographically by (v, u)."""
        for v in range(self.n):
            bits = self.adj[v] & (1 << v) - 1
            while bits:
                low = bits & -bits
                yield (low.bit_length() - 1, v)
                bits ^= low

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) outside range 0..{self.n - 1}")
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()


@lru_cache(maxsize=1)
def complement(g: Graph) -> Graph:
    """The complement graph, built through the checking constructor.

    Cached for the last graph asked: the facet and ridge tables, the
    clique-side conditions and the catalog checks all read one graph's
    complement back to back."""
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(row ^ full ^ 1 << v for v, row in enumerate(g.adj)))


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    rows = list(g.adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph(g.n, tuple(rows))


def induced_rows(rows: Sequence[int], keep: int) -> tuple[int, ...]:
    """Rows of the subgraph induced on the vertex mask keep, with the
    kept vertices relabeled 0, 1, ... in ascending order.

    keep is split once into maximal runs of consecutive vertices.  The
    relabel keeps the order, so a run starting at old vertex `start`
    lands as one block at the count of kept vertices below it, and each
    kept row is the OR over the runs of its shifted, masked slice.  That
    costs one step per run instead of one per neighbour.  A blow-up
    G[K_q] numbers each class as a block, so its localizations keep few
    runs; each vertex and edge localization of C7[K_4] keeps 12 or 16
    of its 28 vertices in at most two runs.  Scattered masks, as on
    small random graphs, cost about what a per-neighbour relabel does.
    """
    runs = []
    width = 0
    bits = keep
    while bits:
        start = (bits & -bits).bit_length() - 1
        x = bits >> start
        # x ^ x + 1 sets the bits up to x's lowest zero, one past the run
        mask = (1 << (x ^ x + 1).bit_length() - 1) - 1
        runs.append((start, mask, width))
        width += mask.bit_length()
        bits ^= mask << start
    out = []
    for start, mask, _ in runs:
        for v in range(start, start + mask.bit_length()):
            row = rows[v]
            new = 0
            for s, m, w in runs:
                new |= (row >> s & m) << w
            out.append(new)
    return tuple(out)


def induced_subgraph(g: Graph, keep: int) -> Graph:
    """The subgraph induced on the vertex mask keep, relabeled: new
    vertex i is members(keep)[i]."""
    if not 0 <= keep < 1 << g.n:
        raise ValueError(f"vertex mask has bits outside 0..{g.n - 1}")
    if not keep:
        raise EmptySubgraphError("induced subgraph on an empty vertex set")
    return Graph(keep.bit_count(), induced_rows(g.adj, keep))


def edge_localization(g: Graph, e: tuple[int, int]) -> int:
    """The vertex mask left once N(u) | N(v) is deleted for an edge uv;
    0 when nothing remains.

    The endpoints are adjacent, so both fall inside the deleted set and
    this agrees with localizing at the vertex pair.
    """
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    return ((1 << g.n) - 1) & ~(g.adj[u] | g.adj[v])


@dataclass(frozen=True, slots=True)
class Blowup:
    """A graph whose vertex i*q + k sits in class i of the substitution;
    classes[i] is the mask of class i."""

    graph: Graph
    classes: tuple[int, ...]


def lexicographic_product(g: Graph, q: int) -> Blowup:
    """Substitute a q-clique for every vertex of g.

    Vertex (v, k) becomes v*q + k; copies of adjacent vertices are fully
    joined and each class is itself a clique.
    """
    if q < 1:
        raise ValueError("clique size must be at least 1")
    n = g.n * q
    if n > MAX_VERTICES:
        raise ValueError(f"product on {n} vertices exceeds the cap {MAX_VERTICES}")
    class_mask = (1 << q) - 1
    rows = []
    for v in range(g.n):
        spread = 0
        bits = g.adj[v]
        while bits:
            low = bits & -bits
            spread |= class_mask << (low.bit_length() - 1) * q
            bits ^= low
        block = class_mask << v * q
        for k in range(q):
            rows.append(spread | block & ~(1 << v * q + k))
    return Blowup(Graph(n, tuple(rows)), tuple(class_mask << v * q for v in range(g.n)))


def component_masks(rows: Sequence[int], flip: int = 0) -> tuple[int, ...]:
    """The vertex masks of the components of the graph given by bitmask
    rows, ordered by smallest member.

    With flip the full vertex mask, each row is read complemented, so the
    masks are the co-components: the graph is the join of the subgraphs
    they induce.  A vertex's own bit is already seen when its row is
    read, so the loop needs no other change."""
    rest = (1 << len(rows)) - 1
    out = []
    while rest:
        unseen = rest
        frontier = rest & -rest
        rest ^= frontier
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach = rest & (rows[low.bit_length() - 1] ^ flip)
            rest ^= reach
            frontier |= reach
        out.append(unseen ^ rest)
    return tuple(out)

