"""Independence structure of a graph.

The facets of the independence complex are the maximal independent
sets; the complex is pure when they all have the maximum size.  A ridge
is an independent set one vertex short of that maximum, and its fiber
is the set of vertices completing it to a maximum independent set.
Ridges exist (and may have empty fibers) whether or not the complex is
pure, since any maximum independent set contains one.

One enumeration engine serves both sides of complementation: maximal
independent sets are the maximal cliques of the complement, found by
pivoting branch-and-bound on bitmask rows.
`maximal_clique_masks` takes bitmask rows, so the clique side of
`saturation` calls it directly on a graph's own rows.  It is the one
facet producer: the facets of g and the maximal cliques of
complement(g) are one table, read by `maximal_independent_set_masks(g)`
and by `saturation.maximal_clique_sizes_uniform(complement(g))` alike.

`profile` grows the ridges on g's own rows and carries the vertices
outside each set's closed neighbourhood down the recursion, so each
leaf is a ridge with its fiber.  It keeps a summary, not the per-ridge
table: the distinct fibers, the least fiber size and the first ridge
in colex order with a fiber that small.  A subtree's summary depends
only on the masks its node carries, so one memo keyed on them, made
for each call and dropped with it, grows each distinct subtree once.
The minimum clique codegree and condition (c) of the theorem report
run enumerations of their own, so the W-index and its dual share none.

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
or on `(rows, n)`.  A graph job asks `maximal_clique_masks` about its
complement's rows only, and `profile` about g itself.  The routes checking
one graph ask back to back and the next graph evicts the entry, so one
entry per builder covers a graph's job.  Three shared values carry the
same one-entry cache without being tables: `graphs.complement`, whose
rows the facet table reads, `independence_number`, which several
routes ask of the same graph, and `saturation.min_clique_codegree`,
which three routes ask of the same complement.
`independent_set_masks` is not cached: the oracle reads it once per
graph, into a superset table that it keeps across p itself.
`independent_masks_of_size` is only a size filter over that table, kept
because the benchmark tracer lists it; no route calls it.
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
    return tuple(m for m in independent_set_masks(g) if m.bit_count() == k)


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
    """The facets of a graph and a summary of its ridges, as bitmasks.

    facets are the maximal independent sets, ascending.  fibers is the
    set of distinct ridge fibers, min_fiber_size the least fiber size,
    and thin_ridge the first ridge in colex order whose fiber has that
    size.  The per-ridge table is not kept: the routes read only these.
    """

    alpha: int
    facets: tuple[int, ...]
    is_pure: bool
    fibers: frozenset[int]
    min_fiber_size: int
    thin_ridge: int


def _grow_ridges(
    rows: tuple[int, ...], free: int, below: int, need: int,
    fibers: set[int], memo: dict[tuple[int, int, int], tuple[int, int]],
) -> tuple[int, int]:
    """(least fiber size, suffix of the first ridge with that fiber) over
    the independent sets that add need vertices of below to a set,
    highest vertex first; (len(rows) + 1, 0) when there are none.  free:
    the vertices outside that set's closed neighbourhood; below: those
    of free under its lowest vertex.  Each leaf's fiber goes into fibers.

    The subtree depends only on (free, below, need): which vertices can
    still be picked, and each leaf's fiber, free less the closed
    neighbourhoods of the picks.  So memo, keyed on those masks, holds
    each state's answer for the rest of one `profile` call, and a state
    met again adds no fiber that is not in fibers already.  The last
    level, one pass over below, is not stored: on small graphs, where
    states rarely repeat, the lookups would cost more than they save.
    The suffix is the picked vertices; the set above it is the caller's.
    Children go in colex order and a later one wins only with a strictly
    smaller fiber, so the suffix is that of the first thin ridge in
    colex order.

    A module-level function, not a closure: a closure that calls itself
    is a reference cycle, which would keep the set and the memo alive
    until the cyclic collector runs."""
    least, thin = len(rows) + 1, 0
    if need == 1:
        while below:
            low = below & -below
            below ^= low
            f = free & ~rows[low.bit_length() - 1] & ~low
            fibers.add(f)
            size = f.bit_count()
            if size < least:
                least, thin = size, low
        return least, thin
    key = (free, below, need)
    found = memo.get(key)
    if found is not None:
        return found
    # the need - 1 lowest of below can only be picked further down
    for _ in range(need - 1):
        below &= below - 1
    while below:
        low = below & -below
        below ^= low
        rest = free & ~rows[low.bit_length() - 1] & ~low
        size, suffix = _grow_ridges(rows, rest, rest & (low - 1), need - 1, fibers, memo)
        if size < least:
            least, thin = size, suffix | low
    memo[key] = found = (least, thin)
    return found


@lru_cache(maxsize=1)
def profile(g: Graph) -> IndependenceProfile:
    """Facets, purity, and the fibers, least fiber size and first thin
    ridge of the ridges in colex order.

    The ridges are grown on g's own rows, highest vertex first and each
    level ascending, which is colex order with no sort.  Each node
    carries the vertices outside its set's closed neighbourhood: that
    mask is both the candidates left below the last vertex and, at a
    leaf, the ridge's fiber.  One memo, on the masks each node carries,
    lives for this call, so a subtree reached again along another
    prefix is read back instead of grown; the Moon-Moser graphs rK3
    have r * 3^(r-1) ridges but few distinct states.
    """
    facets = maximal_independent_set_masks(g)
    alpha = max(m.bit_count() for m in facets)
    full = (1 << g.n) - 1
    fibers: set[int] = set()
    if alpha == 1:
        # the one empty ridge; every vertex completes it
        fibers.add(full)
        least, thin = g.n, 0
    else:
        least, thin = _grow_ridges(g.adj, full, full, alpha - 1, fibers, {})
    return IndependenceProfile(
        alpha=alpha,
        facets=facets,
        is_pure=all(m.bit_count() == alpha for m in facets),
        fibers=frozenset(fibers),
        min_fiber_size=least,
        thin_ridge=thin,
    )


TABLE_BUILDERS = (maximal_clique_masks, profile)


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
