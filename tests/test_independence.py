"""Independence primitives against the naive subset-enumeration oracle.

The catalog cross-checks run the full labeled catalog at n <= 5; the
deeper n = 6 sweep lives in the acceptance suite.  The alpha kernel is
checked against naive alpha on every allowed mask of the n <= 5
catalog, with and without a target, and against the maximal-set engine
on the n <= 6 catalog, the named families with their edge deletions and
localizations, and seeded random graphs; its search is held to a call
budget, and so are the memoized ridge, codegree and clique recursions
on disjoint triangles, whole and split into components, and the
criticality route's deletions on the blow-ups C7[K_q] and on 20K3.
"""

import os
import random
import sys

import pytest

from wellcov import (
    Graph,
    complement,
    delete_edge,
    fiber,
    generate,
    independence_number,
    is_in_wp_localization,
    is_kt_saturated,
    is_well_covered,
    maximal_clique_sizes_uniform,
    min_clique_codegree,
    non_critical_edge,
    profile,
)
from wellcov import independence, saturation, wp
from wellcov.bitset import members
from wellcov.catalog import labeled_graphs
from wellcov.independence import (
    alpha_within,
    independent_masks_of_size,
    independent_set_masks,
    maximal_clique_masks,
    maximal_independent_set_masks,
)
from tests import _naive
from tests._specs import ANALYZE_SPECS, STRUCTURED_SPECS


def small_catalog(max_n: int):
    for n in range(1, max_n + 1):
        yield from labeled_graphs(n)


class TestAgainstNaive:
    def test_maximal_sets_match(self):
        for g in small_catalog(5):
            got = [members(m) for m in maximal_independent_set_masks(g)]
            assert sorted(got) == _naive.maximal_independent_sets(g)

    def test_maximal_cliques_are_the_complements_facets(self):
        for g in small_catalog(5):
            want = sorted(sum(1 << v for v in vs)
                          for vs in _naive.maximal_independent_sets(complement(g)))
            assert maximal_clique_masks(g.adj) == tuple(want)

    def test_alpha_matches(self):
        for g in small_catalog(5):
            assert independence_number(g) == _naive.alpha(g)

    def test_well_covered_matches(self):
        for g in small_catalog(5):
            assert is_well_covered(g) == _naive.is_well_covered(g)

    def test_all_independent_sets_match(self):
        for g in small_catalog(4):
            got = independent_set_masks(g)
            want = sorted(
                sum(1 << v for v in vs) for vs in _naive.independent_sets(g))
            assert list(got) == want

    def test_profile_matches_naive(self):
        for g in small_catalog(6):
            assert_profile_matches_naive(g)

    @pytest.mark.parametrize("spec", ANALYZE_SPECS)
    def test_profile_matches_naive_on_families(self, spec):
        assert_profile_matches_naive(generate(spec).graph)

    def test_sets_of_fixed_size_match(self):
        for g in small_catalog(4):
            for k in range(g.n + 2):
                got = independent_masks_of_size(g, k)
                want = sorted(
                    sum(1 << v for v in vs)
                    for vs in _naive.independent_sets(g) if len(vs) == k)
                assert list(got) == want


def assert_profile_matches_naive(g: Graph) -> None:
    """The ridge recursion's summary against the table of independent
    sets of alpha - 1 vertices and the closed neighbourhood of each: the
    distinct fibers, the least fiber size, and the first ridge in mask
    order with a fiber that small."""
    prof = profile(g)
    well_covered, table = _naive.ridge_table(g)
    assert prof.alpha == len(table[0][0]) + 1
    assert prof.is_pure == well_covered
    rows = [(sum(1 << v for v in vs), sum(1 << x for x in fiber)) for vs, fiber in table]
    assert prof.fibers == {f for _, f in rows}
    least = min(f.bit_count() for _, f in rows)
    assert prof.min_fiber_size == least
    assert prof.thin_ridge == min(s for s, f in rows if f.bit_count() == least)


def alpha_by_facets(g: Graph) -> int:
    """Alpha read off the uncached maximal-clique engine on the
    complement, a separate route."""
    rows = complement(g).adj
    return max(m.bit_count() for m in maximal_clique_masks.__wrapped__(rows))


def with_neighbours(g: Graph):
    """g, every single-edge deletion and every vertex localization."""
    yield g
    for e in g.edges():
        yield delete_edge(g, e)
    for v in range(g.n):
        sub = _naive.localization(g, (v,))
        if sub is not None:
            yield sub


def random_graph(rng: random.Random, n: int) -> Graph:
    density = rng.random()
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < density])


class TestAlphaKernel:
    def test_every_mask_matches_naive(self):
        # alpha inside each allowed mask, and with each target the size
        # of an independent set in it: alpha itself below the target,
        # else between the target and alpha
        for g in small_catalog(5):
            sets = [sum(1 << v for v in vs) for vs in _naive.independent_sets(g)]
            for allowed in range(1 << g.n):
                alpha = max(s.bit_count() for s in sets if s & ~allowed == 0)
                assert alpha_within(g.adj, allowed) == alpha
                for target in range(allowed.bit_count() + 2):
                    got = alpha_within(g.adj, allowed, target)
                    if alpha < target:
                        assert got == alpha
                    else:
                        assert target <= got <= alpha

    def test_catalog_matches_facets(self):
        for g in small_catalog(6):
            assert independence_number(g) == alpha_by_facets(g)

    @pytest.mark.parametrize("spec", STRUCTURED_SPECS)
    def test_families_match_facets(self, spec):
        for h in with_neighbours(generate(spec).graph):
            assert independence_number(h) == alpha_by_facets(h)

    def test_random_graphs_match_facets(self):
        rng = random.Random(20260518)
        for _ in range(500):
            g = random_graph(rng, rng.randint(1, 16))
            assert independence_number(g) == alpha_by_facets(g)


def frames_entered(module, name: str, call) -> int:
    """Frames of the function called name in module entered by call()."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if (event == "call" and frame.f_code.co_name == name
                and frame.f_code.co_filename == module.__file__):
            calls += 1
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def package_frames(call) -> int:
    """Frames of any function of the package entered by call()."""
    package = os.path.dirname(independence.__file__)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == package:
            calls += 1
    sys.setprofile(count)
    try:
        call()
    finally:
        sys.setprofile(None)
    return calls


def grow_calls(route, g: Graph) -> int:
    """Frames of the kernel's inner search entered by one call route(g)."""
    return frames_entered(independence, "grow", lambda: route(g))


def deletion_searches(g: Graph, monkeypatch) -> int:
    """Calls of the alpha kernel made by `non_critical_edge(g)` itself,
    not by the `independence_number` it reads."""
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return alpha_within(*args)
    monkeypatch.setattr(wp, "alpha_within", counted)
    non_critical_edge(g)
    return calls


class TestAlphaWork:
    """Call budgets for the closed-neighbourhood search on the paper's
    sharp families, where a bound by size + remaining vertices alone
    explores tens of thousands of branches."""

    def test_disjoint_cliques_take_one_call(self):
        g = generate("disjoint_cliques:r=8,p=3").graph
        for h in [g] + [delete_edge(g, e) for e in g.edges()]:
            assert grow_calls(independence_number, h) <= h.n

    def test_c7_blowup(self):
        g = generate("c7_blowup:q=4").graph
        for h in [g] + [delete_edge(g, e) for e in g.edges()]:
            assert grow_calls(independence_number, h) <= 64

    def test_c7_blowup_complement(self):
        # later branches must drop the earlier picks: keeping them is
        # still exact but searches about three times as far
        g = complement(generate("c7_blowup:q=8").graph)
        assert grow_calls(independence_number, g) <= 200

    def test_c7_blowup_deletions_stop_at_alpha_plus_one(self):
        # deleting all 154 edges, and counting alpha's own search, a full
        # alpha search per deletion opened 1,861 frames, stopping at
        # alpha + 1 1,005 when N[v] is branched on in vertex order, and
        # 321 when v itself comes first (308 without alpha's 13), so
        # that each deletion finds its alpha + 1 set on about its first
        # descent.  Deleting one edge per pair of closed neighbourhoods
        # leaves 14 deletions and 28 frames.  The route reads alpha from
        # the cache, so alpha is computed before counting.
        g = generate("c7_blowup:q=4").graph
        independence_number(g)
        assert grow_calls(non_critical_edge, g) <= 40

    @pytest.mark.parametrize("q", range(2, 9))
    def test_c7_blowup_one_deletion_per_twin_class_pair(self, q, monkeypatch):
        # C7[K_q] has 7 twin classes, so its edges fall into 7 pairs
        # inside a class and 7 between neighbouring classes
        assert deletion_searches(generate(f"c7_blowup:q={q}").graph, monkeypatch) == 14

    def test_disjoint_triangles_search_their_own_component(self, monkeypatch):
        # one alpha per triangle, and one deletion per triangle, each
        # searching 3 vertices: the three edges of a triangle are twins
        r = 20
        g = generate(f"disjoint_cliques:r={r},p=3").graph
        assert deletion_searches(g, monkeypatch) <= 2 * r


class TestMemoWork:
    """Frame budgets for the three memoized recursions on rK3, the
    Moon-Moser graphs: r * 3^(r-1) ridges, and as many (r-1)-cliques of
    the complement, grow from a few hundred distinct states.  Without
    their memos the recursions opened 27,064 ridge, 27,064 codegree and
    23,279 clique frames at r = 8, and 451,613, 451,613 and 289,464 at
    r = 10.  rK3 is disconnected, so `profile` and `min_clique_codegree`
    split it into triangles, and `is_kt_saturated` reads one vertex per
    triangle; the ridge, codegree and clique recursions are driven on
    its whole rows directly.  Each test starts with empty caches."""

    BUDGETS = {8: (450, 450, 220), 10: (1450, 1450, 380)}

    @pytest.mark.parametrize("r", sorted(BUDGETS))
    def test_ridges(self, r):
        g = generate(f"disjoint_cliques:r={r},p=3").graph
        full = (1 << g.n) - 1
        fibers: set[int] = set()
        frames = frames_entered(independence, "_grow_ridges", lambda: independence._grow_ridges(
            g.adj, full, full, r - 1, fibers, {}))
        assert frames <= self.BUDGETS[r][0]
        assert len(fibers) == r

    @pytest.mark.parametrize("r", sorted(BUDGETS))
    def test_codegree(self, r):
        h = complement(generate(f"disjoint_cliques:r={r},p=3").graph)
        full = (1 << h.n) - 1
        frames = frames_entered(saturation, "_min_codegree", lambda: saturation._min_codegree(
            h.adj, full, full, r - 1, {}))
        assert frames <= self.BUDGETS[r][1]
        assert saturation._min_codegree(h.adj, full, full, r - 1, {}) == 3

    @pytest.mark.parametrize("r", sorted(BUDGETS))
    def test_saturation(self, r):
        h = complement(generate(f"disjoint_cliques:r={r},p=3").graph)
        rows, full = h.adj, (1 << h.n) - 1
        memo: dict[tuple[int, int], bool] = {}

        def whole_search() -> list[bool]:
            # the K_(r+1) search, then each missing pair's K_(r-1)
            # search in its common neighbourhood, on every vertex
            return [saturation._contains_clique(rows, full, r + 1, memo)] + [
                saturation._contains_clique(rows, rows[u] & rows[v], r - 1, memo)
                for u, v in complement(h).edges()]

        frames = frames_entered(saturation, "_contains_clique", whole_search)
        assert frames <= self.BUDGETS[r][2]
        assert whole_search() == [False] + [True] * (3 * r)
        assert is_kt_saturated(h, r + 1)


class TestSplitWork:
    """Frame budgets for the component split at r = 20, where the whole
    graph has 20 * 3^19 ridges and 3^20 facets: every frame the package
    opens for one route from cold caches, which grows linearly in r
    (412, 85 and 69 frames here)."""

    R = 20

    def graph(self) -> Graph:
        return generate(f"disjoint_cliques:r={self.R},p=3").graph

    def test_profile(self):
        # without the split, 20K3 would build its 3^20 facets; 6K3 shows
        # that first, at 3^6
        assert profile(generate("disjoint_cliques:r=6,p=3").graph).is_pure
        assert maximal_clique_masks.cache_info().misses == 0
        g = self.graph()
        assert package_frames(lambda: profile(g)) <= 500
        prof = profile(g)
        assert (prof.alpha, prof.is_pure, prof.min_fiber_size) == (self.R, True, 3)
        assert maximal_clique_masks.cache_info().misses == 0

    def test_codegree(self):
        h = complement(self.graph())
        assert package_frames(lambda: min_clique_codegree(h, self.R)) <= 100
        assert min_clique_codegree(h, self.R) == 3

    def test_localization(self):
        g = self.graph()
        memo: dict = {}
        assert package_frames(lambda: is_in_wp_localization(g, 3, memo)) <= 80
        assert not is_in_wp_localization(g, 4, memo)


class TestLocalizationWork:
    """Frame budgets for the localization recursion on C7[K_q], whose 7q
    vertices have 7 distinct closed neighbourhoods: every frame the
    package opens for one decision from cold caches.  Each twin class
    shares one localization, drop test and sub-index; relabeling one
    localization per vertex opened 485 frames at q = 4 and 957 at
    q = 8, skipping twins 140 and 152."""

    @pytest.mark.parametrize("q,budget", [(4, 160), (8, 240)])
    def test_c7_blowup(self, q, budget):
        g = generate(f"c7_blowup:q={q}").graph
        memo: dict = {}
        assert package_frames(lambda: is_in_wp_localization(g, q, memo)) <= budget
        # C7[K_q] is in W_q and not in W_(q+1)
        assert is_in_wp_localization(g, q, memo)
        assert not is_in_wp_localization(g, q + 1, memo)


class TestRepresentativeWork:
    """Frame budgets for the routes that read twin-class representatives
    on C7[K_q], whose 7q vertices fall into 7 classes, from cold caches:
    the alpha kernel's branches for `independence_number`, the ridges of
    `profile`, the codegree cliques of `min_clique_codegree` and the
    clique searches of `is_kt_saturated` on the complement.  On every
    vertex they opened 13, 28, 28 and 264 frames at q = 4, and 25, 56,
    56 and 866 at q = 8; on the representatives 4, 7, 7 and 62 at
    both."""

    @pytest.mark.parametrize("q", (4, 8))
    def test_c7_blowup(self, q):
        g = generate(f"c7_blowup:q={q}").graph
        h = complement(g)
        assert grow_calls(independence_number, g) <= 6
        assert frames_entered(independence, "_grow_ridges", lambda: profile(g)) <= 10
        assert frames_entered(saturation, "_min_codegree", lambda: min_clique_codegree(h, 3)) <= 10
        assert frames_entered(saturation, "_contains_clique", lambda: is_kt_saturated(h, 4)) <= 80
        assert (independence_number(g), profile(g).min_fiber_size) == (3, q)
        assert min_clique_codegree(h, 3) == q and is_kt_saturated(h, 4)


class TestOrdering:
    def test_masks_ascend(self, petersen):
        masks = maximal_independent_set_masks(petersen)
        assert list(masks) == sorted(masks)


class TestFacetTable:
    def test_complement_cliques_share_the_facet_table(self):
        # the facets of g and the maximal cliques of its complement are
        # one table, built once; at or below the oracle's cap the size
        # readers read it
        for spec in ("c7_blowup:q=1", "petersen_complement"):
            g = generate(spec).graph
            assert g.n <= independence.ORACLE_VERTEX_LIMIT
            maximal_independent_set_masks(g)
            before = maximal_clique_masks.cache_info()
            maximal_clique_sizes_uniform(complement(g))
            after = maximal_clique_masks.cache_info()
            assert after.hits - before.hits == 1
            assert after.misses == before.misses
        # above it no size reader builds the table, not even on a
        # connected graph: C7[K_q] reads C7's 7 class representatives,
        # not its 7q^3 facets
        for q in (2, 4):
            g = generate(f"c7_blowup:q={q}").graph
            assert g.n > independence.ORACLE_VERTEX_LIMIT
            before = maximal_clique_masks.cache_info()
            assert is_well_covered(g)
            assert profile(g).alpha == 3 and profile(g).is_pure
            assert maximal_clique_sizes_uniform(complement(g)) == (True, 3)
            after = maximal_clique_masks.cache_info()
            assert after.misses == before.misses
            assert after.hits == before.hits

    def test_disjoint_union_builds_no_facet_table(self):
        # the complement of 6K3 is a join, so the three size readers
        # enumerate each triangle's cliques and never the 3^6 table
        g = generate("disjoint_cliques:r=6,p=3").graph
        before = maximal_clique_masks.cache_info()
        assert is_well_covered(g)
        assert profile(g).alpha == 6 and profile(g).is_pure
        assert maximal_clique_sizes_uniform(complement(g)) == (True, 6)
        after = maximal_clique_masks.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits


class TestProfile:
    def test_c5(self, c5):
        prof = profile(c5)
        assert prof.alpha == 2
        assert prof.is_pure
        assert len(maximal_independent_set_masks(c5)) == 5
        # ridges of C_5 are its five vertices; each fiber is the
        # nonneighbor pair, and the first ridge, (0,), has fiber (2, 3)
        assert sorted(members(f) for f in prof.fibers) == [
            (0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        assert members(prof.thin_ridge) == (0,)
        assert prof.min_fiber_size == 2
        assert_profile_matches_naive(c5)

    def test_star_impure(self, star):
        prof = profile(star)
        assert prof.alpha == 3
        assert not prof.is_pure
        # ridges exist regardless of purity: (1, 2), (1, 3) and (2, 3),
        # each completed by the third leaf alone
        assert sorted(members(f) for f in prof.fibers) == [(1,), (2,), (3,)]
        assert prof.min_fiber_size == 1
        assert members(prof.thin_ridge) == (1, 2)
        assert_profile_matches_naive(star)

    def test_complete_graph_single_empty_ridge(self):
        k4 = Graph.from_edges(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        prof = profile(k4)
        assert prof.alpha == 1
        assert members(prof.thin_ridge) == ()
        assert [members(f) for f in prof.fibers] == [(0, 1, 2, 3)]
        assert prof.min_fiber_size == 4
        assert_profile_matches_naive(k4)

    def test_fiber_is_unconditional_complement_of_neighborhood(self):
        for g in small_catalog(5):
            prof = profile(g)
            outside = {
                vs: sum(1 << x for x in _naive.outside_closed_neighbourhood(g, vs))
                for vs in _naive.independent_sets(g) if len(vs) == prof.alpha - 1}
            assert prof.fibers == set(outside.values())
            thin = members(prof.thin_ridge)
            assert outside[thin].bit_count() == prof.min_fiber_size

    def test_fibers_induce_cliques(self):
        for g in small_catalog(5):
            for f in profile(g).fibers:
                vs = members(f)
                assert all(
                    g.has_edge(u, v)
                    for i, u in enumerate(vs) for v in vs[i + 1:])


class TestFiberValidation:
    def test_fiber_of_ridge(self, c7):
        assert fiber(c7, 1 << 1 | 1 << 4) == 1 << 6

    def test_rejects_wrong_size(self, c7):
        with pytest.raises(ValueError, match="alpha - 1"):
            fiber(c7, 1 << 1)

    def test_rejects_dependent_set(self, c7):
        with pytest.raises(ValueError, match="not independent"):
            fiber(c7, 0b11)

    @pytest.mark.parametrize("mask", [1 << 7 | 1 << 1, -1])
    def test_rejects_mask_outside_the_graph(self, c7, mask):
        with pytest.raises(ValueError, match="outside 0..6"):
            fiber(c7, mask)
