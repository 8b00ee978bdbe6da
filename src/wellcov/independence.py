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
`maximal_clique_masks` and `clique_masks_of_size` take bitmask rows, so
the clique side of `saturation` calls them directly on a graph's own
rows.  `maximal_clique_masks` is the one cached facet producer: the
facets of g and the maximal cliques of complement(g) are one table,
read by `maximal_independent_set_masks(g)` and by
`saturation.maximal_clique_sizes_uniform(complement(g))` alike.

`alpha_within` is the alpha kernel.  It works on bitmask rows and a
mask of allowed vertices, so the criticality and recursion routes ask
it about an edge deletion or a localization without building a graph,
and with a target it stops at the first independent set that large.
`independence_number(g)` is the kernel on all of g.  It does not
enumerate.  It branches on the closed neighbourhood N[v] of a
least-degree vertex v (Tarjan and Trojanowski, 1977), which every
maximal independent set meets, and takes v outright when its
neighbourhood is a clique, since a maximum set then swaps its one
vertex of N[v] for v.  Unions of cliques and their blow-ups, the sharp
families of the theorem, then resolve with little or no branching.

The builders in `TABLE_BUILDERS` cache one entry each, the table of the
last graph asked.  Tables are immutable and depend only on `(n, adj)`
or on `(rows, n)`, plus the size for `clique_masks_of_size`.  A graph
job asks the two row builders about its complement's rows only: for
the maximal cliques, and for the cliques of size alpha - 1.  The
routes checking one graph ask back to back and the next graph evicts
the entry, so one entry per builder covers a graph's job.  Two shared
values carry the same one-entry cache without being tables:
`graphs.complement`, whose rows those builders read, and
`independence_number`, which several routes ask of the same graph.
`independent_set_masks` is not cached: the oracle reads it once per
graph, into a superset table that it keeps across p itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .bitset import VertexSet
from .graphs import Graph, complement


@lru_cache(maxsize=1)
def maximal_clique_masks(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """All maximal cliques of the graph given by bitmask rows, as masks,
    ascending.

    Cached on its arguments, so the rows must be a tuple: the facets of
    g's independence complex are the maximal cliques of its complement,
    which the clique side asks for again."""
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
    out.sort()
    return tuple(out)


@lru_cache(maxsize=1)
def clique_masks_of_size(rows: tuple[int, ...], n: int, k: int) -> tuple[int, ...]:
    """All cliques of size exactly k of the graph given by bitmask rows,
    as masks, ascending.

    Cached on its arguments, so the rows must be a tuple: `profile`
    asks for g's independent sets of size alpha - 1, and the codegree
    condition for the same (alpha - 1)-cliques of g's complement."""
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
    return maximal_clique_masks(complement(g).adj, g.n)


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
    return clique_masks_of_size(complement(g).adj, g.n, k)


def alpha_within(rows: Sequence[int], allowed: int, target: int | None = None) -> int:
    """Size of a largest independent set inside the vertex mask allowed
    of the graph given by bitmask rows, by branch and bound.

    With a target, the search stops at the first independent set of at
    least target vertices and returns its size; the result is then alpha
    when alpha is below the target, and otherwise at least the target.

    Each step looks at a vertex v of least degree among the allowed
    vertices.  When v's allowed neighbourhood is a clique, v is taken
    without branching: a maximum set meets N[v] in exactly one vertex u,
    and swapping u for v keeps it independent and maximum.  Otherwise
    the search branches on taking each u in N[v], since every maximal
    independent set meets N[v]; a later branch drops the earlier picks,
    so no set is searched twice.  Depth is at most alpha + 1.
    """
    best = 0
    # a set filling allowed ends the search whether or not a target is given
    goal = allowed.bit_count() if target is None else target

    def grow(allowed: int, size: int) -> bool:
        """Search below one node; True once best reaches goal."""
        nonlocal best
        while True:
            count = allowed.bit_count()
            if size + count <= best:
                return False
            if count == 0:
                best = size
                return best >= goal
            # v: a least-degree vertex within allowed; degree <= 1 is least
            v_degree = count
            bits = allowed
            while bits:
                low = bits & -bits
                bits ^= low
                u = low.bit_length() - 1
                d = (rows[u] & allowed).bit_count()
                if d < v_degree:
                    v_degree, v = d, u
                    if d <= 1:
                        break
            nbrs = rows[v] & allowed
            bits = nbrs
            while bits:
                low = bits & -bits
                bits ^= low
                if nbrs & ~rows[low.bit_length() - 1] & ~low:
                    break
            else:
                # simplicial: take v outright
                allowed &= ~nbrs & ~(1 << v)
                size += 1
                continue
            branch = nbrs | 1 << v
            while branch:
                low = branch & -branch
                branch ^= low
                if grow(allowed & ~rows[low.bit_length() - 1] & ~low, size + 1):
                    return True
                allowed ^= low
            return False
    grow(allowed, 0)
    return best


@lru_cache(maxsize=1)
def independence_number(g: Graph) -> int:
    """Size of a maximum independent set (`alpha_within` on every vertex)."""
    return alpha_within(g.adj, (1 << g.n) - 1)


def is_well_covered(g: Graph) -> bool:
    """True when every maximal independent set has the maximum size."""
    sizes = {m.bit_count() for m in maximal_independent_set_masks(g)}
    return len(sizes) == 1


@dataclass(frozen=True, slots=True)
class IndependenceProfile:
    """The ridge table of a graph, held as bitmasks.

    facets are the maximal independent sets and ridges the independent
    sets of size alpha - 1, each ascending; fibers[i] is the fiber of
    ridges[i].
    """

    alpha: int
    facets: tuple[int, ...]
    is_pure: bool
    ridges: tuple[int, ...]
    fibers: tuple[int, ...]

    @property
    def min_fiber_size(self) -> int:
        return min(f.bit_count() for f in self.fibers)


@lru_cache(maxsize=1)
def profile(g: Graph) -> IndependenceProfile:
    """Facets, purity, and every ridge with its fiber, in colex order."""
    facets = maximal_independent_set_masks(g)
    alpha = max(m.bit_count() for m in facets)
    full = (1 << g.n) - 1
    rows = g.adj
    ridges = independent_masks_of_size(g, alpha - 1)
    fibers = []
    for s in ridges:
        closed = s
        bits = s
        while bits:
            low = bits & -bits
            bits ^= low
            closed |= rows[low.bit_length() - 1]
        fibers.append(full & ~closed)
    return IndependenceProfile(
        alpha=alpha,
        facets=facets,
        is_pure=all(m.bit_count() == alpha for m in facets),
        ridges=ridges,
        fibers=tuple(fibers),
    )


TABLE_BUILDERS = (maximal_clique_masks, clique_masks_of_size, profile)


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
