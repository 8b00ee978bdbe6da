"""Independence structure of a graph.

The facets of the independence complex are the maximal independent
sets; the complex is pure when they all have the maximum size.  A ridge
is an independent set one vertex short of that maximum, and its fiber
is the set of vertices completing it to a maximum independent set.
Ridges exist (and may have empty fibers) whether or not the complex is
pure, since any maximum independent set contains one.

One enumeration engine serves both sides of complementation: maximal
independent sets are the maximal cliques of the complement, found by
pivoting branch-and-bound on bitmask rows, and independent sets of a
fixed size are the cliques of that size in the complement.
`clique_masks_of_size` takes bitmask rows, so the clique side of
`saturation` calls it directly on a graph's own rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .bitset import VertexSet
from .graphs import Graph


def _maximal_cliques(rows: Sequence[int], n: int) -> list[int]:
    """All maximal cliques of the graph given by bitmask rows, as masks."""
    out: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if p == 0 and x == 0:
            out.append(r)
            return
        # Pivot on the vertex of p|x with the most candidates, shrinking
        # the branching set to the pivot's non-neighbours.
        bits = p | x
        best = -1
        pivot_row = 0
        while bits:
            low = bits & -bits
            u = low.bit_length() - 1
            bits ^= low
            c = (p & rows[u]).bit_count()
            if c > best:
                best = c
                pivot_row = rows[u]
        cand = p & ~pivot_row
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            row = rows[v]
            expand(r | low, p & row, x & row)
            p ^= low
            x |= low
    expand(0, (1 << n) - 1, 0)
    return out


def clique_masks_of_size(rows: Sequence[int], n: int, k: int) -> tuple[int, ...]:
    """All cliques of size exactly k of the graph given by bitmask rows,
    as masks, ascending."""
    if k == 0:
        return (0,)
    out: list[int] = []

    def grow(mask: int, cand: int, need: int) -> None:
        bits = cand
        while bits.bit_count() >= need:
            low = bits & -bits
            bits ^= low
            extended = mask | low
            if need == 1:
                out.append(extended)
            else:
                # bits keeps only higher vertices, so no set is built twice
                grow(extended, bits & rows[low.bit_length() - 1], need - 1)
    grow(0, (1 << n) - 1, k)
    out.sort()
    return tuple(out)


def maximal_independent_set_masks(g: Graph) -> tuple[int, ...]:
    """Maximal independent sets as bitmasks, ascending (colex order)."""
    full = (1 << g.n) - 1
    comp_rows = [row ^ full ^ (1 << v) for v, row in enumerate(g.adj)]
    return tuple(sorted(_maximal_cliques(comp_rows, g.n)))


def maximal_independent_sets(g: Graph) -> tuple[VertexSet, ...]:
    return tuple(VertexSet(g.n, m) for m in maximal_independent_set_masks(g))


def independent_set_masks(g: Graph) -> tuple[int, ...]:
    """Every independent set as a bitmask, ascending, starting at 0."""
    rows = g.adj
    out = [0]

    def grow(mask: int, cand: int) -> None:
        bits = cand
        while bits:
            low = bits & -bits
            bits ^= low
            extended = mask | low
            out.append(extended)
            # bits keeps only higher vertices, so no set is built twice
            grow(extended, bits & ~rows[low.bit_length() - 1])
    grow(0, (1 << g.n) - 1)
    out.sort()
    return tuple(out)


def independent_masks_of_size(g: Graph, k: int) -> tuple[int, ...]:
    """Independent sets of size exactly k as bitmasks, ascending."""
    full = (1 << g.n) - 1
    comp_rows = [row ^ full ^ (1 << v) for v, row in enumerate(g.adj)]
    return clique_masks_of_size(comp_rows, g.n, k)


def independence_number(g: Graph) -> int:
    """Size of a maximum independent set, by branch and bound."""
    rows = g.adj
    best = 0

    def grow(allowed: int, size: int) -> None:
        nonlocal best
        if size + allowed.bit_count() <= best:
            return
        if allowed == 0:
            best = size
            return
        low = allowed & -allowed
        grow(allowed & ~rows[low.bit_length() - 1] & ~low, size + 1)
        grow(allowed ^ low, size)
    grow((1 << g.n) - 1, 0)
    return best


def is_well_covered(g: Graph) -> bool:
    """True when every maximal independent set has the maximum size."""
    sizes = {m.bit_count() for m in maximal_independent_set_masks(g)}
    return len(sizes) == 1


@dataclass(frozen=True, slots=True)
class Ridge:
    vertices: VertexSet
    fiber: VertexSet


@dataclass(frozen=True, slots=True)
class IndependenceProfile:
    alpha: int
    facets: tuple[VertexSet, ...]
    is_pure: bool
    ridges: tuple[Ridge, ...]

    @property
    def min_fiber_size(self) -> int:
        return min(len(r.fiber) for r in self.ridges)


def profile(g: Graph) -> IndependenceProfile:
    """Facets, purity, and every ridge with its fiber, in colex order."""
    facet_masks = maximal_independent_set_masks(g)
    alpha = max(m.bit_count() for m in facet_masks)
    pure = all(m.bit_count() == alpha for m in facet_masks)
    full = (1 << g.n) - 1
    rows = g.adj
    ridges = []
    for s in independent_masks_of_size(g, alpha - 1):
        closed = s
        bits = s
        while bits:
            low = bits & -bits
            bits ^= low
            closed |= rows[low.bit_length() - 1]
        ridges.append(Ridge(VertexSet(g.n, s), VertexSet(g.n, full & ~closed)))
    return IndependenceProfile(
        alpha=alpha,
        facets=tuple(VertexSet(g.n, m) for m in facet_masks),
        is_pure=pure,
        ridges=tuple(ridges),
    )


def fiber(g: Graph, s: VertexSet) -> VertexSet:
    """Vertices completing the independent set s to maximum size.

    Requires s independent with exactly alpha(g) - 1 vertices; any
    one-vertex extension of such a set is automatically maximum, so the
    fiber is the whole complement of the closed neighborhood.
    """
    if s.universe != g.n:
        raise ValueError("vertex set universe does not match the graph")
    closed = s.bits
    for v in s:
        if g.adj[v] & s.bits:
            raise ValueError("set is not independent")
        closed |= g.adj[v]
    if len(s) != independence_number(g) - 1:
        raise ValueError("set size is not alpha - 1")
    return VertexSet(g.n, (1 << g.n) - 1 & ~closed)
