"""Deciders for the extendable-family classes W_p and criticality.

A graph with at least p vertices lies in W_p when every p pairwise
disjoint independent sets extend to p pairwise disjoint maximum
independent sets.  Three deciders with unrelated mechanisms are kept
side by side on purpose:

  * the oracle enumerates every unordered family of p disjoint
    independent sets literally and tries to extend each one
    (exponential; guarded behind a vertex cap),
  * the ridge decider checks purity plus a fiber size floor,
  * the localization decider recurses on vertex localizations until the
    complete base case.

Cross-validating them over exhaustive catalogs is the point of the
package, so none of them may consult another's logic.  The same holds
for the two criticality tests (edge deletion versus fiber cover) and
for the four conditions of the theorem report.

The sharing rule, precisely:

  * Enumeration primitives may be shared across routes.  These are the
    functions of `independence` and `saturation` that the tests
    cross-check against naive subset enumeration (`tests/_naive.py`).
    The edge-deletion and localization routes call the row kernel
    `alpha_within` on adjacency rows and vertex masks, so nothing they
    do per edge or per vertex builds a `Graph`; each keeps its own
    decision logic around the kernel.
  * A route's own result may be reused by that same route.  Condition
    (a) of the theorem report starts with the oracle, so the report
    keeps that verdict as `TheoremReport.oracle`, and the catalog
    checks read the oracle decider from it instead of running the
    oracle a second time.  The criticality half of condition (a) does
    not depend on p, so the report runs it once per graph and every p
    reads that one edge.
  * Every route but the literal oracle computes its largest p once per
    graph, and its answer at each p is a threshold on that number: the
    ridge decider's `w_index`, the localization recursion's smallest
    complete base, and the levels of conditions (b)-(d).  The catalog
    checks read the ridge decider the same way, as a threshold on one
    `w_index` per graph, instead of calling `is_in_wp_ridge` at each p.
    The complement-side specializations `alpha2_check` and
    `alpha3_check` are levels too, so only the oracle runs per p.
  * The oracle's own superset table does not depend on p either: one
    oracle front, `oracle_families`, builds it once per graph for all
    the p values asked and runs only the family search at each p.  The
    theorem report and `wellcov analyze` ask it once for all their p
    values.
  * Decision logic is never shared: no route reads another route's
    verdict or calls into its deciding code.
  * Caches sit only on shared primitives, one entry each: the table
    builders of `independence` (the facet table, its size range and
    `profile`), `graphs.complement`, `independence_number` and
    `saturation.min_clique_codegree`.  No verdict is cached, and the
    oracle's superset table lives only for one call of its front.  The
    memos of the ridge, codegree and clique recursions live for one
    call of `profile`, `min_clique_codegree`, `is_kt_free` or
    `is_kt_saturated`, keyed on the masks each recursion carries; they
    hold subproblem answers of one primitive, never a verdict.
  * The two sides of the W-index duality enumerate apart: `profile`
    grows ridges on g's rows, `min_clique_codegree` grows cliques on
    the complement's rows, and condition (c) reads its fibers off the
    facet table.
  * A disconnected graph is split by one primitive,
    `graphs.component_masks`.  The localization decider splits the
    graph asked at every size; above `ORACLE_VERTEX_LIMIT` vertices the
    facet sizes, `profile`'s ridges and `min_clique_codegree` split
    too.  The oracle, its superset table, condition (c), the impure
    witness of condition (b) and the edge-deletion criticality route
    stay whole.  So on every disconnected graph the catalog checks
    compare the localization decider's split with the oracle and the
    ridge decider, and the tests compare each other split with its
    whole-graph path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .bitset import members
from .graphs import Graph, complement, component_masks, edge_localization, induced_rows
from .independence import (
    ORACLE_VERTEX_LIMIT,
    IndependenceProfile,
    alpha_within,
    independence_number,
    independent_set_masks,
    maximal_independent_set_masks,
    profile,
)
from .saturation import is_kt_saturated, maximal_clique_sizes_uniform, min_clique_codegree


class OracleSizeError(ValueError):
    """The exhaustive oracle was asked for a graph above its cap."""


def _superset_table(g: Graph) -> tuple[tuple[int, ...], dict[int, tuple[int, ...]], int | None]:
    """The oracle's p-independent half: every independent set as `ind`,
    the table `sup` of the maximum sets containing each, and the first
    set in `ind` order that no maximum set contains, or None.

    `sup` is filled in `ind` order and stops at that set, which alone is
    unextendable at every p, so no family search runs when it exists.
    """
    ind = independent_set_masks(g)
    mis = maximal_independent_set_masks(g)
    alpha = max(m.bit_count() for m in mis)
    omega = tuple(m for m in mis if m.bit_count() == alpha)
    sup = {}
    for a in ind:
        sup[a] = tuple(m for m in omega if m & a == a)
        if not sup[a]:
            return ind, sup, a
    return ind, sup, None


def _family_search(
    ind: tuple[int, ...], sup: dict[int, tuple[int, ...]], p: int
) -> tuple[int, ...] | None:
    """First pairwise disjoint p-tuple of independent sets (as masks)
    with no disjoint extension to maximum independent sets, else None.
    `ind` and `sup` come from `_superset_table`, with every set in `sup`.

    The definition does not depend on the order of the p sets: permuting
    a family permutes its extensions.  So every unordered family is
    enumerated once, as the tuple whose sets have non-decreasing
    positions in `ind`, empty sets included.  Each slot starts at the
    previous slot's index rather than the one after it, so the empty
    set (index 0) can fill several slots; a nonempty set cannot repeat,
    since it meets `used`.

    Found extensions are cached by family prefix: `lives[k]` holds the
    found extensions that dominate `family[:k]` slot by slot.  Filling
    slot k with a set a keeps those of the parent's list whose slot k
    contains a, so a leaf whose list is nonempty is dominated and
    extends without a fresh search.  A fresh extension dominates every
    prefix of the family it was found for, so it joins the list of every
    depth of the current path.
    """
    lives: list[list[tuple[int, ...]]] = [[] for _ in range(p + 1)]
    family = [0] * p

    def extend_family() -> tuple[int, ...] | None:
        order = sorted(range(p), key=lambda i: len(sup[family[i]]))
        chosen = [0] * p

        def place(k: int, used: int) -> bool:
            if k == p:
                return True
            slot = order[k]
            for m in sup[family[slot]]:
                if m & used == 0:
                    chosen[slot] = m
                    if place(k + 1, used | m):
                        return True
            return False
        return tuple(chosen) if place(0, 0) else None

    def search(slot: int, start: int, used: int) -> tuple[int, ...] | None:
        if slot == p:
            if lives[p]:
                return None
            found = extend_family()
            if found is None:
                return tuple(family)
            for live in lives:
                live.append(found)
            return None
        live = lives[slot]
        for i in range(start, len(ind)):
            a = ind[i]
            if a & used == 0:
                family[slot] = a
                lives[slot + 1] = [w for w in live if w[slot] & a == a]
                bad = search(slot + 1, i, used | a)
                if bad is not None:
                    return bad
        return None

    return search(0, 0, 0)


def oracle_families(
    g: Graph, p_values: Iterable[int], allow_large: bool
) -> dict[int, tuple[int, ...] | None]:
    """The oracle's one front for the public entry points, the theorem
    report and `wellcov analyze`: argument checks and the size guard,
    then for each p the unextendable family as masks, or None when g is
    in W_p.  The superset table is built once for all the p values, and
    every p runs its own family search on it.

    With fewer than p vertices the all-empty family already fails, since
    p pairwise disjoint nonempty maximum sets cannot fit.
    """
    p_values = tuple(p_values)
    if any(p < 1 for p in p_values):
        raise ValueError("p must be at least 1")
    if p_values and g.n > ORACLE_VERTEX_LIMIT and not allow_large:
        raise OracleSizeError(
            f"oracle capped at {ORACLE_VERTEX_LIMIT} vertices; got {g.n} "
            "(pass allow_large=True, --allow-large on the command line, to override)"
        )
    out: dict[int, tuple[int, ...] | None] = {}
    table = None
    for p in p_values:
        if g.n < p:
            out[p] = (0,) * p
            continue
        if table is None:
            table = _superset_table(g)
        ind, sup, lone = table
        # a set in no maximum set fails alone, so pad with empty slots
        out[p] = (lone,) + (0,) * (p - 1) if lone is not None else _family_search(ind, sup, p)
    return out


def is_in_wp_oracle(g: Graph, p: int, *, allow_large: bool = False) -> bool:
    """Definition-level membership test by exhaustive tuple extension."""
    return oracle_families(g, (p,), allow_large)[p] is None


def wp_oracle_counterexample(
    g: Graph, p: int, *, allow_large: bool = False
) -> tuple[int, ...] | None:
    """An unextendable disjoint family witnessing non-membership, as
    vertex masks."""
    return oracle_families(g, (p,), allow_large)[p]


def is_in_wp_ridge(g: Graph, p: int) -> bool:
    """Membership via purity plus the fiber size floor."""
    if p < 1:
        raise ValueError("p must be at least 1")
    return (w := w_index(g)) is not None and w >= p


def is_in_wp_localization(g: Graph, p: int, memo: dict | None = None) -> bool:
    """Membership via recursion over vertex localizations.

    Every vertex localization must drop the independence number by
    exactly one and stay in the class; the base case is a complete
    graph on at least p vertices.  A shared memo dict, keyed by
    adjacency rows, lets catalog sweeps reuse work across graphs and
    levels.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    memo = {} if memo is None else memo
    index = memo.get(g.adj)
    if index is None:
        index = _split_index(g.adj, independence_number(g), memo)
    return index >= p


def _split_index(rows: tuple[int, ...], alpha: int, memo: dict) -> int:
    """`_local_index` of a graph that may be disconnected: rows, not yet
    in memo, with independence number alpha.

    The index of a disconnected graph G + H is the least of its parts'
    indices, by induction on the recursion.  alpha adds over the parts.
    Localizing at v in G leaves (G - N[v]) + H, whose alpha drops by
    exactly one when G's does; by induction its index is the least of
    G - N[v]'s and H's, or H's alone when G is complete and nothing of
    it is left, and a part's failed drop gives 0 on both sides.  Over
    the vertices of G that is the least of G's index and H's, and
    likewise over H.  So each component is relabeled into rows of its
    own and its index looked up, or computed, under those rows; rK3
    splits into r triangles, each the complete base case.

    Only the graph asked is split, not its localizations: on the n = 8
    benchmark stream a component search at every node of the recursion
    cost more than the memo hits it added."""
    parts = component_masks(rows)
    if len(parts) == 1:
        return _local_index(rows, alpha, memo)
    result = len(rows)
    for part in parts:
        sub = induced_rows(rows, part)
        index = memo.get(sub)
        if index is None:
            index = _local_index(sub, alpha_within(rows, part), memo)
        result = min(result, index)
        if result == 0:
            break
    memo[rows] = result
    return result


def _local_index(rows: tuple[int, ...], alpha: int, memo: dict) -> int:
    """The order of the smallest complete base the recursion reaches, or
    0 once a vertex localization fails to drop alpha by exactly one.

    rows are a graph's adjacency rows, not yet in memo, and alpha is its
    independence number.  A localization g - N[v] never keeps alpha,
    since v extends any of its independent sets, so it drops by exactly
    one when it holds an independent set of alpha - 1 vertices; the
    drop test asks the kernel that on g's own rows, and only a
    localization that passes is relabeled into rows of its own.
    """
    n = len(rows)
    # alpha 1 means every pair is adjacent: the complete base case
    result = n
    if alpha > 1:
        full = (1 << n) - 1
        for v in range(n):
            keep = full & ~(rows[v] | 1 << v)
            if alpha_within(rows, keep, alpha - 1) != alpha - 1:
                result = 0
                break
            sub = induced_rows(rows, keep)
            index = memo.get(sub)
            if index is None:
                index = _local_index(sub, alpha - 1, memo)
            result = min(result, index)
            if result == 0:
                break
    memo[rows] = result
    return result


def w_index(g: Graph) -> int | None:
    """Largest p for which g is in W_p; None when not well-covered.

    For well-covered graphs this is the minimum fiber size over all
    ridges (n itself for complete graphs, whose one ridge is empty).
    """
    prof = profile(g)
    if not prof.is_pure:
        return None
    return prof.min_fiber_size


def is_alpha_critical_direct(g: Graph) -> bool:
    """Every edge deletion raises the independence number.

    Edgeless graphs are vacuously critical; reports carry a separate
    vacuous flag for them.  Deleting an edge never lowers the
    independence number, so this is the absence of a non-critical edge.
    """
    return non_critical_edge(g) is None


def non_critical_edge(g: Graph) -> tuple[int, int] | None:
    """First edge whose deletion keeps the independence number.

    Each deletion toggles the edge's two bits in one list of rows and
    asks the kernel for an independent set of alpha + 1 vertices, which
    it stops at; the rows are restored before the next edge.
    """
    alpha = independence_number(g)
    rows = list(g.adj)
    full = (1 << g.n) - 1
    for u, v in g.edges():
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        raised = alpha_within(rows, full, alpha + 1) > alpha
        rows[u] ^= 1 << v
        rows[v] ^= 1 << u
        if not raised:
            return (u, v)
    return None


def is_alpha_critical_fibers(g: Graph) -> tuple[bool, tuple[int, int] | None]:
    """Criticality via the fiber cover: every edge must lie inside some
    ridge's fiber.  Returns the first uncovered edge as witness."""
    # many ridges share a fiber: 17,496 ridges of 8K3 have 8 fibers
    fibers = profile(g).fibers
    for u, v in g.edges():
        pair = 1 << u | 1 << v
        if not any(pair & f == pair for f in fibers):
            return (False, (u, v))
    return (True, None)


@dataclass(frozen=True)
class TheoremReport:
    """The four equivalent conditions, each computed by its own route.

    oracle: the exhaustive oracle's membership verdict, the first step
            of cond_a, kept so the oracle runs once per (g, p).
    cond_a: criticality by edge deletion plus the exhaustive oracle.
    cond_b: purity, ridge degrees, and missing-edge coverage on the
            independence complex, all from adjacency arithmetic.
    cond_c: well-coveredness, fiber sizes, and the fiber edge cover,
            with fibers read off membership in the maximum-set table.
    cond_d: saturation, clique uniformity, and clique codegree on the
            complement.

    Each of (b)-(d) holds when its per-graph level is at least p: 0 if
    the structural part fails, else the minimum ridge degree, fiber
    size, or clique codegree.  witnesses holds one failure exhibit per
    failing condition; a thin_* exhibit names the thinnest one.
    """

    p: int
    r: int
    oracle: bool
    cond_a: bool
    cond_b: bool
    cond_c: bool
    cond_d: bool
    witnesses: Mapping[str, dict]

    @property
    def all_equal(self) -> bool:
        return self.cond_a == self.cond_b == self.cond_c == self.cond_d

    @property
    def all_true(self) -> bool:
        return self.cond_a and self.cond_b and self.cond_c and self.cond_d


def _cond_a(
    bad: tuple[int, ...] | None, loose: tuple[int, int] | None
) -> tuple[bool, dict | None]:
    if bad is not None:
        return False, {
            "kind": "unextendable_family",
            "sets": [members(m) for m in bad],
        }
    if loose is not None:
        return False, {"kind": "non_critical_edge", "edge": loose}
    return True, None


def _cond_b(g: Graph, prof: IndependenceProfile) -> tuple[int, dict]:
    if not prof.is_pure:
        small = min(maximal_independent_set_masks(g), key=int.bit_count)
        return 0, {"kind": "impure_complex", "facet": members(small)}
    # many ridges share a fiber: 17,496 ridges of 8K3 have 8 fibers
    for u, v in g.edges():
        pair = 1 << u | 1 << v
        if not any(pair & f == pair for f in prof.fibers):
            return 0, {"kind": "missing_edge_outside_links", "edge": (u, v)}
    # the ridge's link has exactly the fiber as vertex set
    degree = prof.min_fiber_size
    return degree, {"kind": "thin_ridge", "ridge": members(prof.thin_ridge), "degree": degree}


def _cond_c(g: Graph) -> tuple[int, dict]:
    mis = maximal_independent_set_masks(g)
    alpha = max(m.bit_count() for m in mis)
    for m in mis:
        if m.bit_count() != alpha:
            return 0, {
                "kind": "not_well_covered",
                "maximal_set": members(m),
            }
    # the complex is pure, so every ridge is a maximum set less one
    # vertex x, and x is in its fiber: each membership in the
    # maximum-set table puts one vertex into one fiber
    fibers: dict[int, int] = {}
    for m in mis:
        bits = m
        while bits:
            low = bits & -bits
            bits ^= low
            s = m ^ low
            fibers[s] = fibers.get(s, 0) | low
    # covered[x]: the vertices sharing some fiber with x
    covered = [0] * g.n
    for f in fibers.values():
        bits = f
        while bits:
            low = bits & -bits
            bits ^= low
            covered[low.bit_length() - 1] |= f
    for u, v in g.edges():
        if not covered[u] >> v & 1:
            return 0, {"kind": "uncovered_edge", "edge": (u, v)}
    thin = min(fibers, key=lambda s: (fibers[s].bit_count(), s))
    fiber = members(fibers[thin])
    return len(fiber), {
        "kind": "thin_fiber",
        "ridge": members(thin),
        "fiber": list(fiber),
    }


def _cond_d(g: Graph, r: int) -> tuple[int, dict]:
    h = complement(g)
    uniform, size = maximal_clique_sizes_uniform(h)
    if not uniform or size != r:
        return 0, {
            "kind": "clique_sizes_not_uniform_r",
            "uniform": uniform,
            "size": size,
        }
    if not is_kt_saturated(h, r + 1):
        return 0, {"kind": "not_saturated", "t": r + 1}
    codeg = min_clique_codegree(h, r)
    return codeg, {"kind": "thin_clique_codegree", "min_codegree": codeg}


def theorem_reports(
    g: Graph, p_values: Iterable[int], *, allow_large: bool = False
) -> dict[int, TheoremReport]:
    """The theorem report at each p: the levels of conditions (b)-(d)
    are computed once, the oracle's superset table once and its family
    search once per p, and the criticality half of condition (a) once,
    when some p passes the oracle."""
    # the oracle runs first, so its argument and size checks fail fast
    bad = oracle_families(g, p_values, allow_large)
    loose = non_critical_edge(g) if None in bad.values() else None
    r = independence_number(g)
    levels = {"cond_b": _cond_b(g, profile(g)), "cond_c": _cond_c(g), "cond_d": _cond_d(g, r)}
    reports = {}
    for p, family in bad.items():
        a, wa = _cond_a(family, loose)
        witnesses = {} if wa is None else {"cond_a": wa}
        witnesses.update((name, w) for name, (level, w) in levels.items() if level < p)
        flags = {name: level >= p for name, (level, _) in levels.items()}
        reports[p] = TheoremReport(p=p, r=r, oracle=family is None, cond_a=a,
                                   witnesses=witnesses, **flags)
    return reports


def main_theorem_report(g: Graph, p: int, *, allow_large: bool = False) -> TheoremReport:
    return theorem_reports(g, (p,), allow_large=allow_large)[p]


@dataclass(frozen=True, slots=True)
class EdgeLocalizationEntry:
    """Verdict for one edge: the localization's size and class, or the
    explicit empty-localization signal."""

    edge: tuple[int, int]
    empty: bool
    vertex_count: int
    in_lower_class: bool | None


def edge_localization_scan(g: Graph, p: int) -> tuple[EdgeLocalizationEntry, ...]:
    """For each edge, is the edge localization in W_{p-1}?

    Empty localizations get a distinct verdict instead of a class flag.
    """
    if p < 2:
        raise ValueError("the scan needs p >= 2 so the lower class exists")
    entries = []
    for e in g.edges():
        sub = edge_localization(g, e)
        if sub is None:
            entries.append(EdgeLocalizationEntry(e, True, 0, None))
        else:
            entries.append(
                EdgeLocalizationEntry(e, False, sub.graph.n, is_in_wp_ridge(sub.graph, p - 1))
            )
    return tuple(entries)


@dataclass(frozen=True, slots=True)
class GorensteinReport:
    """Flags of the three combinatorial conditions; all None when the
    graph has an isolated vertex and the equivalence does not apply."""

    applicable: bool
    triangle_free_w2: bool | None
    fiber_route: bool | None
    complement_route: bool | None

    @property
    def all_equal(self) -> bool:
        return self.triangle_free_w2 == self.fiber_route == self.complement_route


def gorenstein_combinatorial_check(g: Graph, memo: dict | None = None) -> GorensteinReport:
    """Three equivalent combinatorial conditions, each by its own route:
    triangle-free plus W_2 (localization decider), triangle-free plus
    the fiber floor (ridge decider), and the complement-side clique
    conditions.  Applies only to graphs without isolated vertices."""
    if any(row == 0 for row in g.adj):
        return GorensteinReport(False, None, None, None)
    triangle_free = all(g.adj[u] & g.adj[v] == 0 for u, v in g.edges())
    b = triangle_free and is_in_wp_localization(g, 2, memo)
    c = triangle_free and is_in_wp_ridge(g, 2)
    h = complement(g)
    r = independence_number(g)
    uniform, size = maximal_clique_sizes_uniform(h)
    d = (
        uniform
        and size == r
        and independence_number(h) == 2
        and min_clique_codegree(h, r) >= 2
    )
    return GorensteinReport(True, b, c, d)
