"""The component split against the whole-graph paths and the naive
definitions.

`maximal_clique_size_range`, `profile`, `min_clique_codegree` and the
localization index split a disconnected graph by its components (or a
join by its co-components); all but the localization split run only
above `ORACLE_VERTEX_LIMIT` vertices, so the tests drive them directly
on smaller graphs.  Each split value is checked against the same value
computed on the whole graph, with no split, and against
`tests/_naive.py`, on every disconnected labeled graph with n <= 6.
Disjoint unions of two structured family graphs, at most 20 vertices in
all, check the union lemmas themselves: alpha adds, the W-index is the
least of the parts', and the union is well-covered, or alpha-critical,
exactly when both parts are.  Blow-ups of the labeled graphs with
n <= 4, where every vertex has a twin, check the recursion's twin skip
against the definition.  The edge-deletion criticality route, which
searches each deletion inside its component and deletes one edge per
pair of closed neighbourhoods, must return the same edge as deleting
every edge from a built graph: on those unions and blow-ups, and on
every labeled graph with n <= 5 joined with the Petersen complement,
which puts it past the cap so that the split runs.  Above the cap the
facet sizes are read on one vertex per class of equal rows; they must
equal the sizes over every maximal clique on those joins, on the
blow-ups G[K_3] of the labeled graphs with n <= 5 and on C7[K_q].  The
other routes that read twin-class representatives above the cap are
checked against their definitions on the same inputs, on the blow-ups
G[K_4] and on seeded graphs with planted twins.
"""

import random
from itertools import combinations, combinations_with_replacement

import pytest

from wellcov import (
    Graph,
    IndependenceProfile,
    complement,
    generate,
    independence_number,
    is_alpha_critical_direct,
    is_alpha_critical_fibers,
    is_in_wp_localization,
    is_kt_saturated,
    is_well_covered,
    min_clique_codegree,
    non_critical_edge,
    profile,
    w_index,
)
from wellcov import independence, saturation
from wellcov.catalog import labeled_graphs
from wellcov.graphs import component_masks
from wellcov.independence import maximal_clique_masks, maximal_clique_size_range
from tests import _naive
from tests._specs import STRUCTURED_SPECS
from tests.test_independence import assert_profile_matches_naive, small_catalog
from tests.test_saturation import naive_min_codegree
from tests.test_wp import local_index_by_subgraphs, non_critical_by_deletion


def disconnected_catalog(max_n: int):
    for n in range(2, max_n + 1):
        for g in labeled_graphs(n):
            if len(component_masks(g.adj)) > 1:
                yield g


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """g on vertices 0..g.n-1 and h after them, with no edge between."""
    return Graph(g.n + h.n, g.adj + tuple(row << g.n for row in h.adj))


def whole_size_range(g: Graph) -> tuple[int, int]:
    """Least and largest facet size, read off the uncached whole facet
    table."""
    sizes = {m.bit_count() for m in maximal_clique_masks.__wrapped__(complement(g).adj)}
    return min(sizes), max(sizes)


def split_size_range(g: Graph) -> tuple[int, int]:
    """Least and largest facet size, per part of the complement's join,
    as `maximal_clique_size_range` reads them above
    `ORACLE_VERTEX_LIMIT` vertices."""
    rows = complement(g).adj
    return independence._clique_size_range(rows, component_masks(rows, (1 << g.n) - 1))


def whole_profile(g: Graph) -> IndependenceProfile:
    """The profile with its ridges grown on the whole vertex set."""
    least_facet, alpha = whole_size_range(g)
    fibers: set[int] = set()
    least, thin = independence._ridge_summary(g.adj, ((1 << g.n) - 1,), alpha, fibers)
    return IndependenceProfile(alpha, least_facet == alpha, frozenset(fibers), least, thin)


def split_profile(g: Graph) -> IndependenceProfile:
    """The profile with its ridges grown per component, as `profile`
    grows them above `ORACLE_VERTEX_LIMIT` vertices."""
    least_facet, alpha = split_size_range(g)
    fibers: set[int] = set()
    least, thin = independence._ridge_summary(g.adj, component_masks(g.adj), alpha, fibers)
    return IndependenceProfile(alpha, least_facet == alpha, frozenset(fibers), least, thin)


def whole_min_codegree(h: Graph, r: int) -> int:
    """The codegree recursion on every vertex of h at once."""
    return saturation._least_codegree(h.adj, ((1 << h.n) - 1,), r)


def split_min_codegree(h: Graph, r: int) -> int:
    """The codegree recursion per co-component, as `min_clique_codegree`
    runs it above `ORACLE_VERTEX_LIMIT` vertices."""
    return saturation._least_codegree(h.adj, component_masks(h.adj, (1 << h.n) - 1), r)


def naive_local_index(g: Graph) -> int:
    """The localization index by its definition: the order of a complete
    graph, else the least index over the vertex localizations, 0 once
    one of them fails to drop alpha by exactly one."""
    alpha = _naive.alpha(g)
    if alpha == 1:
        return g.n
    result = g.n
    for v in range(g.n):
        sub = _naive.localization(g, (v,))
        if sub is None or _naive.alpha(sub) != alpha - 1:
            return 0
        result = min(result, naive_local_index(sub))
    return result


def split_local_index(g: Graph) -> int:
    """The localization index read through the public decider."""
    memo: dict = {}
    return sum(is_in_wp_localization(g, p, memo) for p in range(1, g.n + 2))


class TestCatalog:
    """Every disconnected labeled graph with n <= 6: 6,391 of 33,867."""

    def test_count(self):
        assert sum(1 for _ in disconnected_catalog(6)) == 6391

    def test_facet_sizes(self):
        for g in disconnected_catalog(6):
            sizes = [len(s) for s in _naive.maximal_independent_sets(g)]
            want = (min(sizes), max(sizes))
            assert split_size_range(g) == whole_size_range(g) == want
            assert maximal_clique_size_range(complement(g).adj) == want

    def test_profile(self):
        for g in disconnected_catalog(6):
            assert split_profile(g) == whole_profile(g) == profile(g)
            assert_profile_matches_naive(g)

    def test_min_codegree(self):
        for g in disconnected_catalog(6):
            h, r = complement(g), independence_number(g)
            got = split_min_codegree(h, r)
            assert got == whole_min_codegree(h, r) == naive_min_codegree(h, r)
            assert min_clique_codegree(h, r) == got
            # below the clique number the parts are not searched apart,
            # and above it there is no clique to search
            for k in range(1, r + 2):
                assert split_min_codegree(h, k) == whole_min_codegree(h, k)

    def test_localization_index(self):
        ref: dict = {}
        for g in disconnected_catalog(6):
            got = split_local_index(g)
            assert got == local_index_by_subgraphs(g, ref) == naive_local_index(g)


class TestJoinedWithPetersenComplement:
    """Every labeled graph with n <= 5 beside the Petersen complement, in
    both orders: 11 to 15 vertices, past the cap, so the deletion route
    searches each component apart."""

    def test_deletion_route(self):
        pc = generate("petersen_complement").graph
        for g in small_catalog(5):
            for u in (disjoint_union(g, pc), disjoint_union(pc, g)):
                assert len(independence.split_parts(u.adj)) > 1
                assert non_critical_edge(u) == non_critical_by_deletion(u)


def every_clique_size_range(rows: tuple[int, ...]) -> tuple[int, int]:
    """Least and largest maximal clique size over every maximal clique of
    the rows' graph, found on all of its vertices at once."""
    sizes = {m.bit_count() for m in independence._maximal_cliques(rows, (1 << len(rows)) - 1)}
    return min(sizes), max(sizes)


class TestSizeRangeOnRepresentatives:
    """Above the cap, `maximal_clique_size_range` enumerates each
    co-component on one vertex per class of equal rows.  Its sizes must
    equal those over every maximal clique on the blow-up G[K_3] of every
    labeled graph with n <= 5, where every class holds at least three
    vertices, on the joins with the Petersen complement, whose classes
    are mostly single vertices, and on C7[K_q], whose 7q^3 facets the
    representatives read as C7's 7."""

    def test_blowups_n5(self):
        for g in small_catalog(5):
            rows = complement(_naive.blowup(g, 3)[0]).adj
            assert maximal_clique_size_range(rows) == every_clique_size_range(rows)

    def test_joined_with_petersen_complement(self):
        pc = generate("petersen_complement").graph
        for g in small_catalog(5):
            for u in (disjoint_union(g, pc), disjoint_union(pc, g)):
                rows = complement(u).adj
                assert maximal_clique_size_range(rows) == every_clique_size_range(rows)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_c7_blowups(self, q):
        rows = complement(generate(f"c7_blowup:q={q}").graph).adj
        assert maximal_clique_size_range(rows) == every_clique_size_range(rows) == (3, 3)


class TestTwins:
    """Blow-ups G[K_q], where every vertex has q - 1 closed twins, so the
    recursion looks at one vertex per twin class at every node, and the
    deletion route deletes one edge per pair of twin classes: the
    decider against the definition, which localizes at every vertex, and
    the deletion route against deleting every edge, on the blow-up of
    every labeled graph with n <= 4 at q = 2 and with n <= 3 at q = 3."""

    @pytest.mark.parametrize("q,max_n", [(2, 4), (3, 3)])
    def test_blowups_match_the_definition(self, q, max_n):
        for n in range(1, max_n + 1):
            for g in labeled_graphs(n):
                h, _ = _naive.blowup(g, q)
                assert split_local_index(h) == naive_local_index(h)
                assert non_critical_edge(h) == non_critical_by_deletion(h)


UNION_PAIRS = [
    (a, b) for a, b in combinations_with_replacement(STRUCTURED_SPECS, 2)
    if generate(a).graph.n + generate(b).graph.n <= 20]


class TestUnions:
    """Disjoint unions of two structured family graphs.  The Petersen
    graph is the one part that is neither well-covered nor critical."""

    @pytest.mark.parametrize("a,b", UNION_PAIRS)
    def test_union(self, a, b):
        g, h = generate(a).graph, generate(b).graph
        parts = []
        for part in (g, h):
            parts.append((independence_number(part), is_well_covered(part), w_index(part),
                          is_alpha_critical_direct(part), split_local_index(part)))
        u = disjoint_union(g, h)
        (alpha_g, wc_g, w_g, crit_g, li_g), (alpha_h, wc_h, w_h, crit_h, li_h) = parts

        assert independence_number(u) == alpha_g + alpha_h
        assert is_well_covered(u) == (wc_g and wc_h)
        assert w_index(u) == (min(w_g, w_h) if wc_g and wc_h else None)
        assert is_alpha_critical_direct(u) == (crit_g and crit_h)
        assert non_critical_edge(u) == non_critical_by_deletion(u)
        assert is_alpha_critical_fibers(u)[0] == (crit_g and crit_h)
        assert split_local_index(u) == min(li_g, li_h)

        # and each split route agrees with its whole-graph path
        r = independence_number(u)
        assert maximal_clique_size_range(complement(u).adj) == split_size_range(u) == (
            whole_size_range(u))
        assert profile(u) == split_profile(u) == whole_profile(u)
        co = complement(u)
        assert min_clique_codegree(co, r) == split_min_codegree(co, r) == whole_min_codegree(co, r)
        assert split_local_index(u) == local_index_by_subgraphs(u, {})


def planted_twins(seed: int) -> Graph:
    """A seeded graph of 11 to 30 vertices with planted twins and
    shuffled labels: each vertex of a random base graph becomes a class
    of 1 to 4 vertices, joined as a clique (twins of g) or left
    independent (twins of the complement)."""
    rng = random.Random(seed)
    while True:
        m = rng.randint(4, 10)
        sizes = [rng.randint(1, 4) for _ in range(m)]
        if 11 <= sum(sizes) <= 30:
            break
    closed = [rng.random() < 0.6 for _ in range(m)]
    base = {(i, j) for i, j in combinations(range(m), 2) if rng.random() < 0.5}
    home = [i for i in range(m) for _ in range(sizes[i])]
    labels = list(range(len(home)))
    rng.shuffle(labels)
    return Graph.from_edges(len(home), [
        (labels[a], labels[b]) for a, b in combinations(range(len(home)), 2)
        if (closed[home[a]] if home[a] == home[b] else (home[a], home[b]) in base)])


def assert_representatives_match(g: Graph) -> None:
    """Every route that reads twin-class representatives above the cap
    against its definition on g and its complement h: alpha, the first
    edge whose deletion keeps it, the ridges and fibers, the localization
    index, K_t-saturation of h at t = r, r + 1 and r + 2, and the least
    codegree of h at r and r - 1, where r is alpha.  The cliques of h
    are the independent sets of g."""
    levels = _naive.independent_sets_by_size(g)
    r = len(levels) - 1
    assert independence_number(g) == r
    assert non_critical_edge(g) == non_critical_by_deletion(g)
    assert_profile_matches_naive(g)
    assert split_local_index(g) == local_index_by_subgraphs(g, {})
    h = complement(g)
    for t in range(max(2, r), r + 3):
        assert is_kt_saturated(h, t) == _naive.is_kt_saturated_by_growth(h, t, levels)
    for k in range(max(1, r - 1), r + 1):
        assert min_clique_codegree(h, k) == _naive.min_codegree_by_growth(h, k, levels)


class TestRepresentativesAgainstNaive:
    """Above the cap, alpha, the deletion route, the localization drop
    test, `profile`'s ridges, K_t-saturation and the least codegree
    read the representatives of g's twin classes, the k lowest vertices
    of each (`independence.representatives`).  Each must give what its
    definition gives on the whole graph: on the blow-ups G[K_3] and
    G[K_4] of every labeled graph with 3 <= n <= 5, where every class
    holds at least three vertices; on the joins with the Petersen
    complement, whose classes are mostly single vertices; on seeded
    graphs with planted twins of both kinds and shuffled labels, so
    that a class is not a run of consecutive vertices; and on C7[K_q]."""

    @pytest.mark.parametrize("q", (3, 4))
    def test_blowups_n5(self, q):
        for n in range(3, 6):
            for g in labeled_graphs(n):
                assert_representatives_match(_naive.blowup(g, q)[0])

    def test_joined_with_petersen_complement(self):
        pc = generate("petersen_complement").graph
        for g in small_catalog(5):
            for u in (disjoint_union(g, pc), disjoint_union(pc, g)):
                assert_representatives_match(u)

    def test_planted_twins(self):
        for seed in range(200):
            g = planted_twins(seed)
            assert_representatives_match(g)
            # the independent classes are twins of h planted in g, so
            # the saturation search reads them on g's own rows
            cliques = _naive.cliques_by_size(g)
            for t in range(2, len(cliques) + 2):
                assert is_kt_saturated(g, t) == _naive.is_kt_saturated_by_growth(g, t, cliques)

    @pytest.mark.parametrize("q", range(2, 9))
    def test_c7_blowups(self, q):
        assert_representatives_match(generate(f"c7_blowup:q={q}").graph)
