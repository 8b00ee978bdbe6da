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
facet table: the facets of g and the maximal cliques of complement(g)
are one table, read whole by `maximal_independent_set_masks(g)`, that
is by the oracle, condition (c) and the impure witness of condition
(b).  Sizes are read by `maximal_clique_size_range`: the least and
largest maximal clique size, in one pass over that table, or per part
when the rows' graph is a large join.  `is_well_covered`, `profile` and
`saturation.maximal_clique_sizes_uniform` read only those two sizes.

`profile` grows the ridges on g's own rows and carries the vertices
outside each set's closed neighbourhood down the recursion, so each
leaf is a ridge with its fiber.  It keeps a summary, not the per-ridge
table: the distinct fibers, the least fiber size and the first ridge
in colex order with a fiber that small.  A subtree's summary depends
only on the masks its node carries, so one memo keyed on them, made
for each call and dropped with it, grows each distinct subtree once.
The minimum clique codegree and condition (c) of the theorem report
run enumerations of their own, so the W-index and its dual share none.

The paper's invariants split over components.  The independence
complex of G + H is the join of the parts' complexes: alpha and the
facet sizes add, so purity holds part by part, and the ridges and
fibers come from one part at a time.  `graphs.component_masks` is the
one split.  The localization recursion of `wp` indexes each component
on its own.  Above `ORACLE_VERTEX_LIMIT` vertices,
`maximal_clique_size_range` also splits the complement's rows into
co-components, which are g's components, `profile` grows each
component's ridges on its own and `saturation.min_clique_codegree`
searches each co-component.  Each states its lemma.  The Moon-Moser
graphs rK3 have 3^r facets and r * 3^(r-1) ridges, but r triangles as
parts.

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

The builders in `TABLE_BUILDERS` cache one entry each, the value of
the last graph asked.  Their values are immutable and depend only on
`(n, adj)` or on the rows.  The checks of one graph ask
`maximal_clique_masks` and `maximal_clique_size_range` about its
complement's rows only, and `profile` about g itself.  The routes
checking one graph ask back to back and the next graph evicts the
entry, so one entry per builder covers a graph's checks.  Three shared
values carry the same one-entry cache without being tables:
`graphs.complement`, whose rows the facet table reads,
`independence_number`, which several routes ask of the same graph, and
`saturation.min_clique_codegree`, which three routes ask of the same
complement.
`independent_set_masks` is not cached: the oracle reads it once per
graph, into a superset table that it keeps across p itself.
`independent_masks_of_size` is only a size filter over that table, kept
because the benchmark tracer lists it; no route calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .bitset import members
from .graphs import Graph, complement, component_masks

# The oracle's tuple enumeration is exponential, so `wp` refuses graphs
# above this many vertices without an explicit opt-in.  Up to it, the
# oracle reads the whole facet table of every graph it checks, and each
# whole-graph enumeration is cheap next to its own, so the facet sizes,
# `profile`'s ridges and `saturation.min_clique_codegree` split a
# disconnected graph only above it.  Below it the splits cost more than
# they saved: on the disconnected labeled graphs with n <= 6, `profile`
# took 47 us instead of 15 and `min_clique_codegree` 15 us instead of 6,
# and on the sparse disconnected graphs of the n = 8 benchmark stream
# the facet-size split alone added 13 us to a 34 us `profile`.
ORACLE_VERTEX_LIMIT = 10


def split_parts(rows: Sequence[int], flip: int = 0) -> tuple[int, ...]:
    """`graphs.component_masks(rows, flip)` above `ORACLE_VERTEX_LIMIT`
    vertices, else the one mask of every vertex: the parts a route
    enumerates apart."""
    if len(rows) > ORACLE_VERTEX_LIMIT:
        return component_masks(rows, flip)
    return ((1 << len(rows)) - 1,)


def _maximal_cliques(rows: Sequence[int], within: int) -> list[int]:
    """The maximal cliques of the graph the bitmask rows induce on the
    vertex mask within, as masks, in the order the search finds them."""
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
    expand(0, within, 0)
    return out


@lru_cache(maxsize=1)
def maximal_clique_masks(rows: tuple[int, ...]) -> tuple[int, ...]:
    """All maximal cliques of the graph given by bitmask rows, as masks,
    ascending.

    Cached on the rows, so they must be a tuple: the facets of
    g's independence complex are the maximal cliques of its complement,
    which the oracle and condition (c) both read."""
    return tuple(sorted(_maximal_cliques(rows, (1 << len(rows)) - 1)))


@lru_cache(maxsize=1)
def maximal_clique_size_range(rows: tuple[int, ...]) -> tuple[int, int]:
    """(least, largest) size of a maximal clique of the graph given by
    bitmask rows.

    Above `ORACLE_VERTEX_LIMIT` vertices a join is read part by part
    (`_clique_size_range` gives the lemma), so the product table is
    never built.  Otherwise both sizes come in one pass off the cached
    `maximal_clique_masks` table, which the oracle and condition (c)
    read too.  Cached on the rows, one entry: `is_well_covered`,
    `profile` and `saturation.maximal_clique_sizes_uniform` ask it of
    one graph's complement back to back."""
    return _clique_size_range(rows, split_parts(rows, (1 << len(rows)) - 1))


def _clique_size_range(rows: tuple[int, ...], parts: tuple[int, ...]) -> tuple[int, int]:
    """(least, largest) maximal clique size of the graph given by rows.
    parts is either the one mask of every vertex, read off the cached
    table, or the masks of the graph's co-components.

    The graph is then the join of the parts, and its maximal cliques are
    the unions of one maximal clique per part: a clique meets each part
    in a clique, and it is maximal exactly when each of those is maximal
    in its part, since every vertex of one part sees all of the others.
    So both sizes add over the parts, and each part's cliques are
    enumerated on their own."""
    if len(parts) == 1:
        sizes = set(map(int.bit_count, maximal_clique_masks(rows)))
        return min(sizes), max(sizes)
    least = largest = 0
    for part in parts:
        sizes = set(map(int.bit_count, _maximal_cliques(rows, part)))
        least += min(sizes)
        largest += max(sizes)
    return least, largest


def maximal_independent_set_masks(g: Graph) -> tuple[int, ...]:
    """Maximal independent sets as bitmasks, ascending (colex order)."""
    return maximal_clique_masks(complement(g).adj)


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
    least, largest = maximal_clique_size_range(complement(g).adj)
    return least == largest


@dataclass(frozen=True, slots=True)
class IndependenceProfile:
    """The facet sizes of a graph and a summary of its ridges, as
    bitmasks.

    alpha is the largest facet size and is_pure says every facet has
    it.  fibers is the set of distinct ridge fibers, min_fiber_size the
    least fiber size, and thin_ridge the first ridge in colex order
    whose fiber has that size.  Neither the facet table nor the
    per-ridge table is kept: the routes read only these.
    """

    alpha: int
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


def _ridges_within(
    rows: tuple[int, ...], part: int, alpha: int, fibers: set[int],
    memo: dict[tuple[int, int, int], tuple[int, int]],
) -> tuple[int, int]:
    """(least fiber size, first ridge with that fiber) over the ridges of
    the graph the rows induce on the vertex mask part, whose
    independence number is alpha.  Each fiber goes into fibers.  With
    alpha 1 the one ridge is empty and every vertex of part completes
    it."""
    if alpha == 1:
        fibers.add(part)
        return part.bit_count(), 0
    return _grow_ridges(rows, part, part, alpha - 1, fibers, memo)


def _first_maximum_set(rows: tuple[int, ...], part: int, alpha: int) -> int:
    """The first independent set of alpha vertices inside the vertex mask
    part in colex order, where alpha is the independence number there.

    Colex order is numeric mask order, so the highest vertex goes
    whenever a set of the size still needed fits without it; the kernel
    answers that with alpha as its target."""
    chosen = 0
    while alpha:
        v = part.bit_length() - 1
        part ^= 1 << v
        if alpha_within(rows, part, alpha) < alpha:
            chosen |= 1 << v
            part &= ~rows[v]
            alpha -= 1
    return chosen


def _ridge_summary(
    rows: tuple[int, ...], parts: tuple[int, ...], alpha: int, fibers: set[int],
) -> tuple[int, int]:
    """(least fiber size, first ridge in colex order with that fiber) over
    the ridges of the graph given by rows, whose independence number is
    alpha.  parts is either the one mask of every vertex, grown whole, or
    the masks of the graph's components.  Each fiber goes into fibers.

    An independent set of G + H is one of G plus one of H and alpha
    adds, so a ridge of G + H is a ridge of one part plus a maximum set
    of the other.  That maximum set is maximal, so no vertex of its part
    is outside its closed neighbourhood, and the ridge's fiber is its
    own part's ridge's fiber.  So the fibers are the union of the parts'
    fibers and the least fiber size is the least over the parts.  Colex
    order is numeric mask order, and on disjoint vertex masks the least
    union is the union of the least members, so the first thin ridge is
    the least of one thinnest part's first thin ridge plus the first
    maximum set of every other part."""
    memo: dict[tuple[int, int, int], tuple[int, int]] = {}
    if len(parts) == 1:
        return _ridges_within(rows, parts[0], alpha, fibers, memo)
    alphas = [alpha_within(rows, part) for part in parts]
    summaries = [_ridges_within(rows, part, a, fibers, memo) for part, a in zip(parts, alphas)]
    least = min(size for size, _ in summaries)
    firsts = [_first_maximum_set(rows, part, a) for part, a in zip(parts, alphas)]
    every_first = sum(firsts)
    thin = min(ridge | every_first ^ first
               for (size, ridge), first in zip(summaries, firsts) if size == least)
    return least, thin


@lru_cache(maxsize=1)
def profile(g: Graph) -> IndependenceProfile:
    """Facet sizes, purity, and the fibers, least fiber size and first
    thin ridge of the ridges in colex order.

    The facet sizes come from `maximal_clique_size_range` on the
    complement's rows.  The ridges are grown on g's own rows, highest
    vertex first and each level ascending, which is colex order with no
    sort.  Each node carries the vertices outside its set's closed
    neighbourhood: that mask is both the candidates left below the last
    vertex and, at a leaf, the ridge's fiber.  One memo, on the masks
    each node carries, lives for the call, so a subtree reached again
    along another prefix is read back instead of grown.

    Above `ORACLE_VERTEX_LIMIT` vertices a disconnected graph has its
    ridges grown per component (`_ridge_summary` gives the lemma): the
    Moon-Moser graphs rK3, with r * 3^(r-1) ridges, split into r
    triangles of one empty ridge each.
    """
    rows = g.adj
    least_facet, alpha = maximal_clique_size_range(complement(g).adj)
    fibers: set[int] = set()
    least, thin = _ridge_summary(rows, split_parts(rows), alpha, fibers)
    return IndependenceProfile(
        alpha=alpha,
        is_pure=least_facet == alpha,
        fibers=frozenset(fibers),
        min_fiber_size=least,
        thin_ridge=thin,
    )


TABLE_BUILDERS = (maximal_clique_masks, maximal_clique_size_range, profile)


def fiber(g: Graph, s: int) -> int:
    """Vertices completing the independent set s to maximum size, as a
    mask; s is a vertex mask too.

    Requires s independent with exactly alpha(g) - 1 vertices; any
    one-vertex extension of such a set is automatically maximum, so the
    fiber is the whole complement of the closed neighborhood.
    """
    if not 0 <= s < 1 << g.n:
        raise ValueError(f"vertex mask has bits outside 0..{g.n - 1}")
    closed = s
    for v in members(s):
        if g.adj[v] & s:
            raise ValueError("set is not independent")
        closed |= g.adj[v]
    if s.bit_count() != independence_number(g) - 1:
        raise ValueError("set size is not alpha - 1")
    return (1 << g.n) - 1 & ~closed
