"""Immutable finite simple graphs with bitmask adjacency rows.

Vertices are 0..n-1 and row v is an int whose set bits are the
neighbours of v.  Construction validates symmetry and irreflexivity, so
every Graph in circulation is a simple undirected graph.  Zero-vertex
graphs are not representable: an operation that would produce one
(edge_localization) returns None instead, and induced_subgraph rejects an
empty keep set outright so the two cases stay distinguishable.  Vertex
sets, as arguments and in results, are int masks: bit v is vertex v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .bitset import MAX_UNIVERSE, members

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


@dataclass(frozen=True, slots=True)
class Subgraph:
    """An induced subgraph together with its vertex relabeling.

    kept[i] is the parent label of the new vertex i; relabeling preserves
    the parent order.
    """

    graph: Graph
    kept: tuple[int, ...]


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
    """
    kept = [v for v in range(len(rows)) if keep >> v & 1]
    position = {old: new for new, old in enumerate(kept)}
    out = []
    for old in kept:
        bits = rows[old] & keep
        row = 0
        while bits:
            low = bits & -bits
            row |= 1 << position[low.bit_length() - 1]
            bits ^= low
        out.append(row)
    return tuple(out)


def induced_subgraph(g: Graph, keep: int) -> Subgraph:
    """The subgraph induced on the vertex mask keep, relabeled."""
    if not 0 <= keep < 1 << g.n:
        raise ValueError(f"vertex mask has bits outside 0..{g.n - 1}")
    if not keep:
        raise EmptySubgraphError("induced subgraph on an empty vertex set")
    kept = members(keep)
    return Subgraph(Graph(len(kept), induced_rows(g.adj, keep)), kept)


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
    return induced_subgraph(g, keep)


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

