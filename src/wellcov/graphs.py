"""Immutable finite simple graphs with bitmask adjacency rows.

Vertices are 0..n-1 and row v is an int whose set bits are the
neighbours of v.  Construction validates symmetry and irreflexivity, so
every Graph in circulation is a simple undirected graph.  Zero-vertex
graphs are not representable: operations that would produce one (the
localizations) return None instead, and induced_subgraph rejects an
empty keep set outright so the two cases stay distinguishable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .bitset import MAX_UNIVERSE, VertexSet

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
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{self.n - 1}")
            if (row >> v) & 1:
                raise ValueError(f"vertex {v} is adjacent to itself")
        for v, row in enumerate(self.adj):
            bits = row
            while bits:
                low = bits & -bits
                u = low.bit_length() - 1
                bits ^= low
                if not (self.adj[u] >> v) & 1:
                    raise ValueError(f"adjacency is not symmetric at ({v}, {u})")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
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

    def neighborhood(self, v: int) -> VertexSet:
        return VertexSet(self.n, self.adj[v])

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(row == full ^ 1 << v for v, row in enumerate(self.adj))

    def is_edgeless(self) -> bool:
        return all(row == 0 for row in self.adj)


@dataclass(frozen=True, slots=True)
class Subgraph:
    """An induced subgraph together with its vertex relabeling.

    kept[i] is the parent label of the new vertex i; relabeling preserves
    the parent order.
    """

    graph: Graph
    kept: tuple[int, ...]


def complement(g: Graph) -> Graph:
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


def closed_neighborhood(g: Graph, s: VertexSet) -> VertexSet:
    if s.universe != g.n:
        raise ValueError("vertex set universe does not match the graph")
    bits = s.bits
    for v in s:
        bits |= g.adj[v]
    return VertexSet(g.n, bits)


def induced_subgraph(g: Graph, keep: VertexSet) -> Subgraph:
    if keep.universe != g.n:
        raise ValueError("vertex set universe does not match the graph")
    if not keep:
        raise EmptySubgraphError("induced subgraph on an empty vertex set")
    kept = keep.to_tuple()
    position = {old: new for new, old in enumerate(kept)}
    rows = []
    for old in kept:
        bits = g.adj[old] & keep.bits
        row = 0
        while bits:
            low = bits & -bits
            row |= 1 << position[low.bit_length() - 1]
            bits ^= low
        rows.append(row)
    return Subgraph(Graph(len(kept), tuple(rows)), kept)


def localization(g: Graph, s: VertexSet) -> Subgraph | None:
    """Delete the closed neighborhood of s; None when nothing remains."""
    keep = closed_neighborhood(g, s).complement()
    if not keep:
        return None
    return induced_subgraph(g, keep)


def edge_localization(g: Graph, e: tuple[int, int]) -> Subgraph | None:
    """Delete N(u) | N(v) for an edge uv; None when nothing remains.

    The endpoints are adjacent, so both fall inside the deleted set and
    this agrees with localizing at the vertex pair.
    """
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"({u}, {v}) is not an edge")
    keep = ((1 << g.n) - 1) & ~(g.adj[u] | g.adj[v])
    if keep == 0:
        return None
    return induced_subgraph(g, VertexSet(g.n, keep))


@dataclass(frozen=True, slots=True)
class Blowup:
    """A graph whose vertex i*q + k sits in class i of the substitution."""

    graph: Graph
    classes: tuple[VertexSet, ...]


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
    classes = tuple(VertexSet(n, class_mask << v * q) for v in range(g.n))
    return Blowup(Graph(n, tuple(rows)), classes)


@dataclass(frozen=True, slots=True)
class UnionGraph:
    """A disjoint union with the block of each summand exposed."""

    graph: Graph
    blocks: tuple[VertexSet, ...]


def disjoint_union(parts: Sequence[Graph]) -> UnionGraph:
    if not parts:
        raise ValueError("disjoint union of no graphs")
    n = sum(p.n for p in parts)
    if n > MAX_VERTICES:
        raise ValueError(f"union on {n} vertices exceeds the cap {MAX_VERTICES}")
    rows: list[int] = []
    blocks = []
    offset = 0
    for p in parts:
        rows.extend(row << offset for row in p.adj)
        blocks.append(VertexSet(n, ((1 << p.n) - 1) << offset))
        offset += p.n
    return UnionGraph(Graph(n, tuple(rows)), tuple(blocks))


def connected_components(g: Graph) -> tuple[VertexSet, ...]:
    """Components as vertex sets, ordered by smallest member."""
    seen = 0
    full = (1 << g.n) - 1
    out = []
    while seen != full:
        start = (~seen & full) & -(~seen & full)
        comp = start
        frontier = start
        while frontier:
            reach = 0
            bits = frontier
            while bits:
                low = bits & -bits
                reach |= g.adj[low.bit_length() - 1]
                bits ^= low
            frontier = reach & ~comp
            comp |= frontier
        out.append(VertexSet(g.n, comp))
        seen |= comp
    return tuple(out)
