"""Clique-side structure of the complement graph.

Saturation, uniform maximal clique sizes, and clique codegrees are the
complement-side mirror of independence structure: independent sets of a
graph are cliques of its complement, so one enumeration engine serves
both sides.  The alpha2 and alpha3 checks return a per-graph level
that p is compared against.  The bound report collects the exact edge,
degree, order, and dense rigidity consequences for complements of the
graphs the deciders accept, all in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .bitset import members
from .graphs import Graph, component_masks
from .independence import alpha_within, maximal_clique_size_range, split_parts

HYPOTHESIS_UNMET = "hypothesis_unmet"
HOLDS = "holds"
VIOLATION = "violation"


def _contains_clique(
    rows: Sequence[int], within: int, t: int, memo: dict[tuple[int, int], bool]
) -> bool:
    """Does the vertex mask `within` contain a clique of size t?

    The answer depends only on (within, t), so memo, keyed on both,
    holds it for the rest of the caller's call: the searches of one
    graph at several sizes, or inside several common neighbourhoods,
    meet the same subproblems.  Sizes 0 and 1 are read off the mask."""
    if t <= 1:
        return t == 0 or within != 0
    key = (within, t)
    found = memo.get(key)
    if found is not None:
        return found
    found = False
    bits = within
    while bits.bit_count() >= t:
        low = bits & -bits
        bits ^= low
        # bits now holds only later vertices, so each clique is tried
        # once, from its smallest vertex up
        if _contains_clique(rows, bits & rows[low.bit_length() - 1], t - 1, memo):
            found = True
            break
    memo[key] = found
    return found


def is_kt_free(h: Graph, t: int) -> bool:
    if t < 1:
        raise ValueError("clique size must be at least 1")
    return not _contains_clique(h.adj, (1 << h.n) - 1, t, {})


def is_kt_saturated(h: Graph, t: int) -> bool:
    """K_t-free, and adding any missing edge creates a K_t.

    The K_t search and every missing edge's K_(t-2) search share one
    memo for this call, keyed on (within, t), so a common neighbourhood
    met again, or a vertex set the K_t search already settled, costs one
    lookup."""
    if t < 2:
        raise ValueError("saturation needs a clique size of at least 2")
    rows = h.adj
    full = (1 << h.n) - 1
    memo: dict[tuple[int, int], bool] = {}
    if _contains_clique(rows, full, t, memo):
        return False
    for u in range(h.n):
        # missing partners above u, so each non-edge is tried once
        missing = full & ~rows[u] & ~((1 << u + 1) - 1)
        while missing:
            low = missing & -missing
            missing ^= low
            v = low.bit_length() - 1
            # u,v plus a (t-2)-clique in their common neighborhood is a K_t
            if not _contains_clique(rows, rows[u] & rows[v], t - 2, memo):
                return False
    return True


def maximal_clique_sizes_uniform(h: Graph) -> tuple[bool, int]:
    """(all maximal cliques share one size, largest maximal clique size)."""
    least, largest = maximal_clique_size_range(h.adj)
    return (least == largest, largest)


def clique_codegree(h: Graph, q: int) -> int:
    """Number of vertices extending the clique q, a vertex mask, by one
    vertex.

    The empty clique is allowed and has codegree n: every vertex is a
    1-clique.
    """
    if not 0 <= q < 1 << h.n:
        raise ValueError(f"vertex mask has bits outside 0..{h.n - 1}")
    common = (1 << h.n) - 1
    for v in members(q):
        if q & ~h.adj[v] & ~(1 << v):
            raise ValueError("the given set is not a clique")
        common &= h.adj[v]
    return (common & ~q).bit_count()


@lru_cache(maxsize=1)
def min_clique_codegree(h: Graph, r: int) -> int:
    """Minimum codegree over all (r-1)-cliques; n when r = 1.

    The cliques are grown on h's rows, lowest vertex first, and each
    node carries its clique's common neighbourhood, so a clique's
    codegree costs one step at its leaf.  One memo on the masks each
    node carries lives for the call, so a subtree reached again along
    another clique is read back instead of grown.  Cached on (h, r),
    one entry: condition (d), the W-index duality and the Gorenstein
    complement route ask it of the same complement.

    Above `ORACLE_VERTEX_LIMIT` vertices a join has its cliques grown
    per part (`_least_codegree` gives the lemma): the complements of the
    Moon-Moser graphs rK3 split into r parts of clique number 1, where
    the search grows nothing."""
    if r < 1:
        raise ValueError("r must be at least 1")
    best = _least_codegree(h.adj, split_parts(h.adj, (1 << h.n) - 1), r)
    if best > h.n:
        raise ValueError(f"no cliques of size {r - 1}")
    return best


def _least_codegree(rows: tuple[int, ...], parts: tuple[int, ...], r: int) -> int:
    """The least codegree of the (r-1)-cliques of the graph given by
    rows; len(rows) + 1 when there are none.  parts is either the one
    mask of every vertex, searched whole, or the masks of the graph's
    co-components.

    Parts whose clique numbers add up to r are searched one by one.  The
    graph is the join of its parts, so an (r-1)-clique is a maximum
    clique in every part but one and one vertex short in that one.  A
    vertex of a part whose clique is maximum extends nothing there, and
    it sees every other part, so the common neighbours all lie in the
    short part: the codegree is that part's own.  So the minimum is the
    least over the parts of each part's minimum at its own clique
    number.  At any other r the search runs whole."""
    full = (1 << len(rows)) - 1
    if len(parts) > 1:
        # the parts' clique numbers, as alpha on the complement's rows
        flipped = [row ^ full ^ 1 << v for v, row in enumerate(rows)]
        omegas = [alpha_within(flipped, part) for part in parts]
        if sum(omegas) == r:
            memo: dict[tuple[int, int, int], int] = {}
            return min(_part_min_codegree(rows, part, omega, memo)
                       for part, omega in zip(parts, omegas))
    return _part_min_codegree(rows, full, r, {})


def _part_min_codegree(
    rows: tuple[int, ...], part: int, r: int, memo: dict[tuple[int, int, int], int],
) -> int:
    """The least codegree, within the vertex mask part, of the
    (r-1)-cliques inside part; len(rows) + 1 when there are none.  The
    empty clique, for r = 1, has every vertex of part as a neighbour."""
    if r == 1:
        return part.bit_count()
    return _min_codegree(rows, part, part, r - 1, memo)


def _min_codegree(
    rows: tuple[int, ...], common: int, above: int, need: int,
    memo: dict[tuple[int, int, int], int],
) -> int:
    """The least codegree of the cliques that add need vertices of above
    to a clique with common neighbourhood common; above holds the common
    neighbours over that clique's highest vertex.  len(rows) + 1, which
    is above any codegree, when there is no such clique.  The rows have
    no loops, so no member is in its own row and the common
    neighbourhood of a clique already excludes the clique.

    The subtree depends only on (common, above, need): which vertices
    can still be picked, and each leaf's codegree, the common
    neighbourhood less the picks' non-neighbours.  So memo, keyed on
    those masks, holds each state's least codegree for the rest of one
    `min_clique_codegree` call.  The last level, one pass over above, is
    not stored: on small graphs, where states rarely repeat, the lookups
    would cost more than they save."""
    best = len(rows) + 1
    if need == 1:
        while above:
            low = above & -above
            above ^= low
            codegree = (common & rows[low.bit_length() - 1]).bit_count()
            if codegree < best:
                best = codegree
        return best
    key = (common, above, need)
    found = memo.get(key)
    if found is not None:
        return found
    while above.bit_count() >= need:
        low = above & -above
        above ^= low
        row = rows[low.bit_length() - 1]
        codegree = _min_codegree(rows, common & row, above & row, need - 1, memo)
        if codegree < best:
            best = codegree
    memo[key] = best
    return best


def alpha2_check(h: Graph) -> int:
    """Complement-side level for independence number 2: the minimum
    degree when h is maximal triangle-free, else 0."""
    if not is_kt_saturated(h, 3):
        return 0
    return min(h.degree(v) for v in range(h.n))


def alpha3_check(h: Graph) -> int:
    """Complement-side level for independence number 3: the fewest
    triangles on an edge when h is K_4-saturated and its maximal
    cliques are triangles, else 0."""
    if not is_kt_saturated(h, 4):
        return 0
    uniform, size = maximal_clique_sizes_uniform(h)
    if not (uniform and size == 3):
        return 0
    # every maximal clique is a triangle, so h has edges
    return min((h.adj[u] & h.adj[v]).bit_count() for u, v in h.edges())


def clique_union_shape(g: Graph) -> tuple[int, ...] | None:
    """Component sizes when every component is complete, else None."""
    comps = component_masks(g.adj)
    for comp in comps:
        bits = comp
        while bits:
            low = bits & -bits
            bits ^= low
            if comp & ~g.adj[low.bit_length() - 1] & ~low:
                return None
    return tuple(comp.bit_count() for comp in comps)


@dataclass(frozen=True, slots=True)
class BoundReport:
    """Exact bound data for a complement graph h at parameters (r, p).

    Flags are computed from the stored fields on access, so a report
    can never carry inconsistent conclusions.
    """

    n: int
    r: int
    p: int
    edge_count: int
    saturation_edge_bound: int
    codegree_edge_bound: int
    min_degree: int
    min_degree_bound: int
    universal_vertex: int | None
    complement_clique_sizes: tuple[int, ...] | None

    @property
    def edge_bounds_ok(self) -> bool:
        return self.edge_count >= max(self.saturation_edge_bound, self.codegree_edge_bound)

    @property
    def codegree_edge_bound_tight(self) -> bool:
        return self.edge_count == self.codegree_edge_bound

    @property
    def min_degree_ok(self) -> bool:
        return self.min_degree >= self.min_degree_bound

    @property
    def universal_vertex_ok(self) -> bool:
        return self.p < 2 or self.universal_vertex is None

    @property
    def rigidity_verdict(self) -> str:
        """Above the density threshold delta(h) > (3r-4)/(3r-1) * n,
        compared in exact integers, the complement must split into r
        cliques of size at least p.  Verdicts: hypothesis_unmet when the
        density is too low, holds when the complement has the forced
        shape, violation otherwise (which refutes the caller's
        hypotheses, not this check)."""
        r = self.r
        if self.min_degree * (3 * r - 1) <= (3 * r - 4) * self.n:
            return HYPOTHESIS_UNMET
        shape = self.complement_clique_sizes
        if shape is not None and len(shape) == r and all(s >= self.p for s in shape):
            return HOLDS
        return VIOLATION

    @property
    def n_equals_rp(self) -> bool:
        return self.n == self.r * self.p

    @property
    def complement_is_p_clique_union(self) -> bool:
        shape = self.complement_clique_sizes
        return shape is not None and len(shape) == self.r and all(s == self.p for s in shape)


def bound_report(
    h: Graph, r: int, p: int, complement_clique_sizes: tuple[int, ...] | None
) -> BoundReport:
    """The bound data of the complement h at (r, p).  The caller passes
    `clique_union_shape` of g, the graph h is the complement of, which
    depends on neither r nor p."""
    if r < 1 or p < 1:
        raise ValueError("r and p must be at least 1")
    universal = None
    full = (1 << h.n) - 1
    for v in range(h.n):
        if h.adj[v] == full ^ 1 << v:
            universal = v
            break
    return BoundReport(
        n=h.n,
        r=r,
        p=p,
        edge_count=h.edge_count,
        saturation_edge_bound=(r - 1) * h.n - r * (r - 1) // 2,
        codegree_edge_bound=(h.n * p * (r - 1) + 1) // 2,
        min_degree=min(h.degree(v) for v in range(h.n)),
        min_degree_bound=p * (r - 1),
        universal_vertex=universal,
        complement_clique_sizes=complement_clique_sizes,
    )
