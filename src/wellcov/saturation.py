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
from typing import Sequence

from .bitset import VertexSet
from .graphs import Graph, complement, connected_components
from .independence import clique_masks_of_size, maximal_clique_masks

HYPOTHESIS_UNMET = "hypothesis_unmet"
HOLDS = "holds"
VIOLATION = "violation"


def _contains_clique(rows: Sequence[int], within: int, t: int) -> bool:
    """Does the vertex mask `within` contain a clique of size t?"""
    if t == 0:
        return True
    bits = within
    while bits.bit_count() >= t:
        low = bits & -bits
        bits ^= low
        # bits now holds only later vertices, so each clique is tried
        # once, from its smallest vertex up
        if _contains_clique(rows, bits & rows[low.bit_length() - 1], t - 1):
            return True
    return False


def is_kt_free(h: Graph, t: int) -> bool:
    if t < 1:
        raise ValueError("clique size must be at least 1")
    return not _contains_clique(h.adj, (1 << h.n) - 1, t)


def is_kt_saturated(h: Graph, t: int) -> bool:
    """K_t-free, and adding any missing edge creates a K_t."""
    if t < 2:
        raise ValueError("saturation needs a clique size of at least 2")
    if not is_kt_free(h, t):
        return False
    rows = h.adj
    for u in range(h.n):
        # missing partners above u, so each non-edge is tried once
        missing = ((1 << h.n) - 1) & ~rows[u] & ~((1 << u + 1) - 1)
        while missing:
            low = missing & -missing
            missing ^= low
            v = low.bit_length() - 1
            # u,v plus a (t-2)-clique in their common neighborhood is a K_t
            if not _contains_clique(rows, rows[u] & rows[v], t - 2):
                return False
    return True


def maximal_clique_sizes_uniform(h: Graph) -> tuple[bool, int]:
    """(all maximal cliques share one size, largest maximal clique size)."""
    sizes = {m.bit_count() for m in maximal_clique_masks(h.adj, h.n)}
    return (len(sizes) == 1, max(sizes))


def clique_codegree(h: Graph, q: VertexSet) -> int:
    """Number of vertices extending the clique q by one vertex.

    The empty clique is allowed and has codegree n: every vertex is a
    1-clique.
    """
    if q.universe != h.n:
        raise ValueError("vertex set universe does not match the graph")
    common = (1 << h.n) - 1
    for v in q:
        if q.bits & ~h.adj[v] & ~(1 << v):
            raise ValueError("the given set is not a clique")
        common &= h.adj[v]
    return (common & ~q.bits).bit_count()


def min_clique_codegree(h: Graph, r: int) -> int:
    """Minimum codegree over all (r-1)-cliques; n when r = 1."""
    if r < 1:
        raise ValueError("r must be at least 1")
    rows = h.adj
    full = (1 << h.n) - 1
    cliques = clique_masks_of_size(rows, h.n, r - 1)
    if not cliques:
        raise ValueError(f"no cliques of size {r - 1}")
    best = h.n
    for m in cliques:
        common = full
        bits = m
        while bits:
            low = bits & -bits
            bits ^= low
            common &= rows[low.bit_length() - 1]
        # h has no loops, so no member is in its own row and the common
        # neighbourhood of a clique already excludes the clique
        codegree = common.bit_count()
        if codegree < best:
            best = codegree
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
    comps = connected_components(g)
    for c in comps:
        for v in c:
            if c.bits & ~g.adj[v] & ~(1 << v):
                return None
    return tuple(len(c) for c in comps)


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
    def saturation_edge_bound_tight(self) -> bool:
        return self.edge_count == self.saturation_edge_bound

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


def bound_report(h: Graph, r: int, p: int) -> BoundReport:
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
        complement_clique_sizes=clique_union_shape(complement(h)),
    )
