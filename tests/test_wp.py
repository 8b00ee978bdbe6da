"""Membership deciders, criticality, theorem reports, localization scans.

The three deciders are cross-checked on the full n <= 5 catalog here at
every level up to n + 1, and the oracle against a naive ordered-tuple
reference at p <= 3; a naive first-family reference pins the exact
family the oracle returns at every level up to n + 1, and the oracle's
earlier extension search pins it on the n <= 6 catalog at p <= 4 and
on graphs past the vertex cap; the oracle's superset table is checked
against its definition on the same graphs; the complete n = 6 run of the deciders belongs to the acceptance suite.  The
row-level deletion and localization routes are checked against their
versions on built graphs (`delete_edge`, `induced_subgraph`) on the
n <= 6 catalog, and held to building no graph at all.
"""

import random
import sys

import pytest

from wellcov import (
    Graph,
    OracleSizeError,
    complement,
    delete_edge,
    induced_subgraph,
    edge_localization_scan,
    examples_suite,
    generate,
    gorenstein_combinatorial_check,
    independence_number,
    is_alpha_critical_direct,
    is_alpha_critical_fibers,
    is_in_wp_localization,
    is_in_wp_oracle,
    is_in_wp_ridge,
    is_kt_free,
    main_theorem_report,
    non_critical_edge,
    profile,
    theorem_reports,
    w_index,
    wp_oracle_counterexample,
)
from wellcov import cli, independence, verify, wp
from wellcov.bitset import members
from wellcov.catalog import labeled_graphs
from wellcov.graphs import induced_rows

from tests import _naive
from tests._specs import ANALYZE_SPECS, STRUCTURED_SPECS


def small_catalog(max_n: int):
    for n in range(1, max_n + 1):
        yield from labeled_graphs(n)


class TestDeciders:
    def test_three_routes_agree_n5(self):
        # up to n + 1, so complete graphs (W-index n) meet the top level
        memo: dict = {}
        for g in small_catalog(5):
            for p in range(1, g.n + 2):
                o = is_in_wp_oracle(g, p)
                assert o == is_in_wp_ridge(g, p)
                assert o == is_in_wp_localization(g, p, memo)

    def test_oracle_matches_naive_n5(self):
        # the reference walks ordered tuples, the oracle unordered families
        for g in small_catalog(5):
            for p in (1, 2, 3):
                assert is_in_wp_oracle(g, p) == _naive.is_in_wp(g, p)

    def test_oracle_returns_the_first_unextendable_family_n5(self):
        # the same family, not only some unextendable one, at every
        # level: from the single-level entry, from the front that builds
        # one superset table for all levels, and as condition (a)'s
        # witness in the theorem report
        for g in small_catalog(5):
            levels = range(1, g.n + 2)
            fronts = wp.oracle_families(g, levels, False)
            reports = theorem_reports(g, levels)
            assert list(fronts) == list(reports) == list(levels)
            for p in levels:
                expected = _naive.first_unextendable(g, p)
                witness = wp_oracle_counterexample(g, p)
                family = None if witness is None else tuple(map(members, witness))
                assert family == expected
                assert fronts[p] == witness
                named = reports[p].witnesses.get("cond_a", {})
                if expected is None:
                    assert named.get("kind") != "unextendable_family"
                else:
                    assert named == {"kind": "unextendable_family", "sets": list(expected)}

    def test_oracle_front_checks_before_any_table(self, monkeypatch):
        def no_table(g):
            raise AssertionError("table built before the argument checks")
        monkeypatch.setattr(wp, "_superset_table", no_table)
        with pytest.raises(ValueError, match="at least 1"):
            wp.oracle_families(generate("cycle:n=11").graph, (1, 0), False)
        with pytest.raises(OracleSizeError):
            wp.oracle_families(generate("cycle:n=11").graph, (1, 2), False)
        # below p vertices the all-empty family needs no table either
        assert wp.oracle_families(generate("complete:n=2").graph, (3, 4), False) == {
            3: (0, 0, 0), 4: (0, 0, 0, 0)}

    def test_membership_is_downward_monotone(self):
        for g in small_catalog(5):
            for p in (1, 2, 3):
                if is_in_wp_ridge(g, p + 1):
                    assert is_in_wp_ridge(g, p)

    def test_order_below_p_excludes(self):
        k2 = generate("complete:n=2").graph
        assert not is_in_wp_oracle(k2, 3)
        assert not is_in_wp_ridge(k2, 3)
        assert not is_in_wp_localization(k2, 3)
        # the witness is the all-empty family
        assert wp_oracle_counterexample(k2, 3) == (0, 0, 0)

    def test_known_values(self, c5, c7, c4, star):
        assert is_in_wp_oracle(c5, 2) and not is_in_wp_oracle(c5, 3)
        assert is_in_wp_oracle(c7, 1) and not is_in_wp_oracle(c7, 2)
        assert is_in_wp_oracle(c4, 1) and not is_in_wp_oracle(c4, 2)
        assert not is_in_wp_oracle(star, 1)

    def test_complete_graphs_reach_their_order(self):
        k4 = generate("complete:n=4").graph
        for p in (1, 2, 3, 4):
            assert is_in_wp_oracle(k4, p)
        assert not is_in_wp_oracle(k4, 5)

    def test_oracle_guard(self):
        g = generate("cycle:n=11").graph
        with pytest.raises(OracleSizeError):
            is_in_wp_oracle(g, 1)
        assert is_in_wp_oracle(g, 1, allow_large=True) == is_in_wp_ridge(g, 1)

    def test_counterexample_is_unextendable(self):
        checked = 0
        for g in small_catalog(5):
            maximum = _naive.maximum_independent_sets(g)
            for p in (1, 2, 3):
                witness = wp_oracle_counterexample(g, p)
                if witness is None:
                    continue
                family = [members(part) for part in witness]
                assert len(family) == p
                assert all(_naive.is_independent(g, part) for part in family)
                assert _naive.pairwise_disjoint(family)
                assert not _naive.extends(family, maximum)
                checked += 1
        # every non-member of the n <= 5 catalog at p <= 3
        assert checked == 2878


def oracle_frames(g: Graph, p: int) -> int:
    """Python frames opened in the oracle's module by one family search,
    on a superset table built beforehand."""
    ind, S, D, lone = wp._superset_table(g)
    assert lone is None
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == wp.__file__:
            calls += 1
    sys.setprofile(count)
    try:
        wp._family_search(ind, S, D, p)
    finally:
        sys.setprofile(None)
    return calls


class TestOracleWork:
    """Work budgets for the oracle's family search on members, where
    every family is visited; scanning every found extension at each
    leaf opens 560,708 frames on 2K4 and 257,355 on the Petersen
    complement.  Building a filtered list at each last-slot leaf and
    recursing into it opened 8,493 and 4,977; testing the leaf with a
    loop that stops at the first dominating extension opened 4,615 and
    2,175.  Carrying the reachable maximum-set masks down the
    enumeration, so that a leaf is one AND and no extension is searched,
    opens 1,149 and 294, one frame per node above the leaves."""

    def test_two_disjoint_k4(self):
        assert oracle_frames(generate("disjoint_cliques:r=2,p=4").graph, 4) <= 1_500

    def test_petersen_complement(self, petersen_complement):
        assert oracle_frames(petersen_complement, 3) <= 400

    def test_matches_the_extension_search_n6(self):
        # the reference searches each leaf's extension by backtracking;
        # the same family at every level, on every labeled graph
        for n in range(1, 7):
            for g in labeled_graphs(n):
                families = wp.oracle_families(g, range(1, 5), False)
                assert families == {
                    p: _naive.first_unextendable_by_extension(g, p) for p in range(1, 5)}

    def test_disjoint_cliques_match_the_extension_search(self):
        # members at their index p, where every family is visited, and
        # non-members one level up
        for r in range(1, 11):
            for p in range(1, 10 // r + 1):
                g = generate(f"disjoint_cliques:r={r},p={p}").graph
                assert wp.oracle_families(g, (p, p + 1), False) == {
                    q: _naive.first_unextendable_by_extension(g, q) for q in (p, p + 1)}

    def test_petersen_complement_witness_at_4(self, petersen_complement):
        # _naive.first_unextendable takes seconds on this graph at p = 4,
        # so the family it gives is pinned
        witness = wp_oracle_counterexample(petersen_complement, 4)
        assert tuple(map(members, witness)) == ((), (0, 1), (3, 8), (7, 9))

    @pytest.mark.parametrize("spec", ["petersen_complement", "disjoint_cliques:r=2,p=4"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_members_match_the_naive_first_family(self, spec, p):
        # on members every family is visited, so the leaf test is
        # checked against the brute-force family search at every leaf
        g = generate(spec).graph
        witness = wp_oracle_counterexample(g, p)
        family = None if witness is None else tuple(map(members, witness))
        assert family == _naive.first_unextendable(g, p)

    def test_disjoint_cliques_reach_their_index(self):
        for r in range(1, 11):
            for p in range(1, 10 // r + 1):
                g = generate(f"disjoint_cliques:r={r},p={p}").graph
                w = w_index(g)
                assert w == p
                assert is_in_wp_oracle(g, w)
                assert not is_in_wp_oracle(g, w + 1)


def paley_17() -> Graph:
    """The Paley graph P17 = C_17(1, 2, 4, 8): 17 vertices, 154
    independent sets, alpha 3 and W-index 3."""
    return Graph.from_edges(17, [(i, (i + d) % 17) for i in range(17) for d in (1, 2, 4, 8)])


def assert_table_matches_definition(g: Graph) -> None:
    """`wp._superset_table(g)` against the definitions, on the sets
    `_naive.independent_sets_by_size` grows, whose last level is the
    maximum sets, indexed in mask order as the table indexes them."""
    ind, S, D, lone = wp._superset_table(g)
    levels = _naive.independent_sets_by_size(g)
    want_ind = sorted(sum(1 << v for v in vs) for level in levels for vs in level)
    assert list(ind) == want_ind
    omega = sorted(sum(1 << v for v in vs) for vs in levels[-1])
    # the sets a maximum set contains are its submasks
    containing: dict[int, int] = {}
    for j, m in enumerate(omega):
        s = m
        while True:
            containing[s] = containing.get(s, 0) | 1 << j
            if not s:
                break
            s = s - 1 & m
    want_lone = next((a for a in want_ind if a not in containing), None)
    assert lone == want_lone
    assert (lone is None) == _naive.is_well_covered_by_growth(levels)
    # the pass stops at lone, so S holds the sets up to it
    filled = want_ind if lone is None else want_ind[:want_ind.index(lone) + 1]
    assert list(S) == filled
    assert all(S[a] == containing.get(a, 0) for a in filled)
    if lone is None:
        assert len(D) == len(omega)
        # every maximum set of the small graphs, an even spread of 8K3's 6,561
        for j in range(0, len(omega), 1 + len(omega) // 256):
            assert D[j] == sum(1 << k for k, m in enumerate(omega) if not m & omega[j])


def independence_frames(g: Graph) -> int:
    """Python frames opened in `independence`'s module by one
    `independent_set_masks(g)`."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == independence.__file__:
            calls += 1
    sys.setprofile(count)
    try:
        independence.independent_set_masks(g)
    finally:
        sys.setprofile(None)
    return calls


class TestSupersetTable:
    """The oracle's table, `S`, `D` and `lone`, against its definition,
    and the work of its build past the oracle cap."""

    def test_catalog_n6(self):
        for g in small_catalog(6):
            assert_table_matches_definition(g)

    def test_seeded_n7_to_10(self):
        rng = random.Random(31)
        for _ in range(200):
            n = rng.randint(7, 10)
            density = rng.random()
            g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                     if rng.random() < density])
            assert_table_matches_definition(g)

    def test_past_the_cap(self):
        assert_table_matches_definition(paley_17())
        for spec in ("c7_blowup:q=2", "c7_blowup:q=3", "disjoint_cliques:r=8,p=3"):
            assert_table_matches_definition(generate(spec).graph)

    def test_independent_sets_open_one_frame_per_vertex(self):
        # one comprehension per vertex (none from Python 3.12 on, which
        # inlines them) and the call itself; a recursive search opens a
        # frame per set, 65,536 on 8K3
        g = generate("disjoint_cliques:r=8,p=3").graph
        assert independence_frames(g) <= g.n + 1


class TestOraclePastTheCap:
    """The oracle with allow_large against the extension search it ran
    before it tracked reachable maximum-set masks."""

    def test_paley_17(self):
        g = paley_17()
        for p in range(1, 5):
            assert wp.oracle_families(g, (p,), True) == {
                p: _naive.first_unextendable_by_extension(g, p)}

    def test_c7_blowup_q2(self):
        g = generate("c7_blowup:q=2").graph
        assert wp.oracle_families(g, (1, 2, 3), True) == {
            p: _naive.first_unextendable_by_extension(g, p) for p in (1, 2, 3)}

    def test_blowups_n4(self):
        # every labeled graph on up to 4 vertices with each vertex a
        # triangle: up to 12 vertices
        for g in small_catalog(4):
            b, _ = _naive.blowup(g, 3)
            assert wp.oracle_families(b, (1, 2), True) == {
                p: _naive.first_unextendable_by_extension(b, p) for p in (1, 2)}


class TestWIndex:
    def test_values(self, c4, c5, c7, petersen_complement, star):
        assert w_index(c4) == 1
        assert w_index(c5) == 2
        assert w_index(c7) == 1
        assert w_index(petersen_complement) == 3
        assert w_index(star) is None

    def test_complete_graph_index_is_order(self):
        assert w_index(generate("complete:n=6").graph) == 6

    def test_index_is_the_last_member_level(self):
        for g in small_catalog(5):
            w = w_index(g)
            if w is None:
                assert not is_in_wp_ridge(g, 1)
            else:
                assert is_in_wp_ridge(g, w)
                assert not is_in_wp_ridge(g, w + 1)

    @pytest.mark.parametrize("q", [1, 2, 3])
    def test_blowup_family(self, q):
        assert w_index(generate(f"c7_blowup:q={q}").graph) == q


class TestCriticality:
    def test_edgeless_vacuous(self):
        g = Graph.from_edges(3, [])
        assert is_alpha_critical_direct(g)
        assert is_alpha_critical_fibers(g) == (True, None)

    def test_cycles_critical(self, c5, c7):
        for g in (c5, c7):
            assert is_alpha_critical_direct(g)
            ok, uncovered = is_alpha_critical_fibers(g)
            assert ok and uncovered is None

    def test_path_not_critical(self, p4):
        assert not is_alpha_critical_direct(p4)
        assert non_critical_edge(p4) == (1, 2)
        ok, uncovered = is_alpha_critical_fibers(p4)
        assert not ok and uncovered == (1, 2)

    def test_single_edge_predicate(self, p4):
        # (0, 1) precedes (1, 2) in edge order, so deleting it must raise alpha
        assert non_critical_edge(p4) == (1, 2)
        alpha = independence_number(p4)
        assert independence_number(delete_edge(p4, (0, 1))) == alpha + 1
        assert independence_number(delete_edge(p4, (1, 2))) == alpha

    def test_routes_agree_n5(self):
        for g in small_catalog(5):
            assert is_alpha_critical_direct(g) == is_alpha_critical_fibers(g)[0]


def uncovered_by_naive_fibers(g: Graph) -> tuple[int, int] | None:
    """The first edge, in edge order, inside no fiber of the naive ridge
    table."""
    fibers = [set(f) for _, f in _naive.ridge_table(g)[1]]
    return next((e for e in g.edges() if not any(set(e) <= f for f in fibers)), None)


class TestFiberCoverAgainstNaive:
    """The fiber-cover route tests each edge against the distinct
    fibers only; its verdict and first uncovered edge must match a scan
    of every ridge's fiber found by definition."""

    def test_catalog_n6(self):
        for g in small_catalog(6):
            edge = uncovered_by_naive_fibers(g)
            assert is_alpha_critical_fibers(g) == (edge is None, edge)

    @pytest.mark.parametrize("spec", ANALYZE_SPECS)
    def test_families(self, spec):
        g = generate(spec).graph
        edge = uncovered_by_naive_fibers(g)
        assert is_alpha_critical_fibers(g) == (edge is None, edge)


def non_critical_by_deletion(g: Graph) -> tuple[int, int] | None:
    """The deletion route through built graphs: `delete_edge`, then
    `independence_number` of the result, edge by edge."""
    alpha = independence_number(g)
    return next(
        (e for e in g.edges() if independence_number(delete_edge(g, e)) == alpha), None)


class TestDeletionRouteOnRows:
    """The row-level deletion route against deleting each edge from a
    built graph."""

    def test_catalog_n6(self):
        for g in small_catalog(6):
            assert non_critical_edge(g) == non_critical_by_deletion(g)

    @pytest.mark.parametrize("spec", STRUCTURED_SPECS)
    def test_families(self, spec):
        g = generate(spec).graph
        assert non_critical_edge(g) == non_critical_by_deletion(g)


def local_index_by_subgraphs(g: Graph, memo: dict) -> int:
    """The localization recursion through built graphs: each vertex
    localization is an `induced_subgraph`, and its drop test a fresh
    `independence_number`."""
    hit = memo.get(g.adj)
    if hit is not None:
        return hit
    alpha = independence_number(g)
    if alpha == 1:
        result = g.n if _naive.is_complete(g) else 0
    else:
        result = g.n
        full = (1 << g.n) - 1
        for v in range(g.n):
            keep = full & ~(g.adj[v] | 1 << v)
            sub = induced_subgraph(g, keep) if keep else None
            if sub is None or independence_number(sub) != alpha - 1:
                result = 0
                break
            result = min(result, local_index_by_subgraphs(sub, memo))
            if result == 0:
                break
    memo[g.adj] = result
    return result


def local_index(g: Graph, memo: dict) -> int:
    """The localization index read through the public decider."""
    return sum(is_in_wp_localization(g, p, memo) for p in range(1, g.n + 2))


class TestLocalizationOnRows:
    """The row-level recursion against the recursion on induced
    subgraphs, on the n <= 6 catalog.  The row-level memo also holds the
    rows of the components it splits a graph into, so each of its
    entries must equal the reference index of its own rows."""

    @staticmethod
    def assert_entries_match(memo: dict, ref: dict) -> None:
        for rows, index in memo.items():
            assert index == local_index_by_subgraphs(Graph(len(rows), rows), ref), rows

    def test_fresh_memo_n6(self):
        ref: dict = {}
        for g in small_catalog(6):
            memo: dict = {}
            assert local_index(g, memo) == local_index_by_subgraphs(g, ref)
            assert g.adj in memo
            self.assert_entries_match(memo, ref)

    def test_shared_memo_n6(self):
        memo, ref = {}, {}
        for g in small_catalog(6):
            assert local_index(g, memo) == local_index_by_subgraphs(g, ref)
        self.assert_entries_match(memo, ref)


class TestNoGraphBuilds:
    """The deletion and localization routes ask the kernel about rows
    and masks; building and validating a graph per edge or per vertex
    cost 154 and 92 builds on c7_blowup:q=4."""

    @pytest.mark.parametrize("spec", ANALYZE_SPECS)
    @pytest.mark.parametrize("route", [
        non_critical_edge, lambda g: is_in_wp_localization(g, 1)],
        ids=["deletion", "localization"])
    def test_routes_build_no_graph(self, spec, route, monkeypatch):
        g = generate(spec).graph
        builds = 0
        validate = Graph.__post_init__

        def counted(self):
            nonlocal builds
            builds += 1
            validate(self)
        monkeypatch.setattr(Graph, "__post_init__", counted)
        route(g)
        assert builds == 0


class TestLocalization:
    def test_alpha_never_survives(self):
        # any independent set of the localization extends by the vertex
        for g in small_catalog(5):
            alpha = independence_number(g)
            for v in range(g.n):
                sub = _naive.localization(g, (v,))
                if sub is not None:
                    assert independence_number(sub) <= alpha - 1

    def test_members_drop_alpha_exactly_one(self):
        for g in small_catalog(5):
            if not is_in_wp_ridge(g, 1):
                continue
            alpha = independence_number(g)
            for v in range(g.n):
                sub = _naive.localization(g, (v,))
                if alpha == 1:
                    assert sub is None
                else:
                    assert sub is not None
                    assert independence_number(sub) == alpha - 1


class TestEdgeScan:
    def test_doubled_c7(self):
        fam = generate("c7_blowup:q=2")
        entries = edge_localization_scan(fam.graph)
        assert len(entries) == 35
        by_edge = {e: w for e, _, w in entries}
        # in W_1, the level p = 2 asks for: the seven within-class edges
        # pass, the 28 cross edges fail
        passing = [e for e, _, w in entries if w is not None and w >= 1]
        assert len(passing) == 7
        for cls in fam.classes:
            assert by_edge[members(cls)] is not None
        assert all(keep for _, keep, _ in entries)

    def test_petersen_complement(self, petersen_complement):
        entries = edge_localization_scan(petersen_complement)
        assert len(entries) == 30
        # each localization is one vertex, K1, whose W-index is 1: in
        # W_1 and not in W_2
        assert all(keep.bit_count() == 1 and w == 1 for _, keep, w in entries)

    def test_empty_localization_reported(self, c4):
        entries = edge_localization_scan(c4)
        assert [e for e, _, _ in entries] == list(c4.edges())
        assert all(keep == 0 and w is None for _, keep, w in entries)

    def test_one_build_per_edge(self, monkeypatch, capsys, petersen_complement):
        # one scan answers every level, so each edge's localization is
        # built once per request, not once per level
        built = []
        original = induced_subgraph

        def counting(g, keep):
            built.append(g.adj)
            return original(g, keep)
        for mod in (wp, verify):
            monkeypatch.setattr(mod, "induced_subgraph", counting)
        assert cli.main(["analyze", "c7_blowup:q=2", "--p", "1,2,3", "--edge-scan"]) == 0
        capsys.readouterr()
        assert len(built) == 35
        built.clear()
        assert examples_suite().passed
        assert built.count(petersen_complement.adj) == petersen_complement.edge_count == 30

    def test_paley_17(self):
        # this repo's reading of the HLM local condition asks every edge
        # localization to lie in W_(p-1).  The Paley graph P17 =
        # C_17(1, 2, 4, 8) is K4-free, alpha-critical and in W_3, yet
        # every one of its 68 edges localizes to 4 vertices of W-index 1
        g = Graph.from_edges(17, [(i, (i + d) % 17) for i in range(17) for d in (1, 2, 4, 8)])
        assert g.edge_count == 68
        assert independence_number(g) == 3
        assert w_index(g) == 3
        assert is_kt_free(g, 4)
        assert is_alpha_critical_direct(g)
        assert is_alpha_critical_fibers(g) == (True, None)
        entries = edge_localization_scan(g)
        assert [e for e, _, _ in entries] == list(g.edges())
        assert all(keep.bit_count() == 4 and w == 1 for _, keep, w in entries)
        # the kept vertices are scattered, so the relabel runs are short
        for _, keep, _ in entries:
            assert induced_rows(g.adj, keep) == _naive.relabeled_rows(g, keep)

    def test_matches_naive_localizations_n5(self):
        # the keep mask against the naive kept vertices, and the W-index
        # as a threshold against the definition-level W_q test
        for g in small_catalog(5):
            entries = edge_localization_scan(g)
            assert [e for e, _, _ in entries] == list(g.edges())
            for (u, v), keep, w in entries:
                sub = _naive.localization(g, (u, v))
                kept = _naive.outside_closed_neighbourhood(g, (u, v))
                assert keep == sum(1 << x for x in kept)
                if sub is None:
                    assert keep == 0 and w is None
                    continue
                for q in (1, 2, 3):
                    assert (w is not None and w >= q) == _naive.is_in_wp(sub, q), (g.adj, u, v, q)


def naive_fiber_level(g: Graph) -> tuple[int, dict | None]:
    """Condition (c) from the naive ridge table: 0 unless g is
    well-covered and every edge lies in some fiber, else the thinnest
    fiber with the smallest ridge among the thinnest.  The witness is
    given only where the level is positive, or for the uncovered edge."""
    well_covered, table = _naive.ridge_table(g)
    if not well_covered:
        return 0, None
    for u, v in g.edges():
        if not any(u in fiber and v in fiber for _, fiber in table):
            return 0, {"kind": "uncovered_edge", "edge": (u, v)}
    ridge, fiber = min(table, key=lambda row: len(row[1]))
    return len(fiber), {"kind": "thin_fiber", "ridge": ridge, "fiber": list(fiber)}


def naive_ridge_level(g: Graph) -> tuple[int, dict]:
    """Condition (b) from the naive ridge table: 0 with the smallest
    maximal independent set (least mask among the smallest) unless g is
    well-covered, 0 with the first edge in no ridge's fiber, else the
    thinnest fiber's size with the first ridge in mask order that has
    it."""
    well_covered, table = _naive.ridge_table(g)
    if not well_covered:
        for level in _naive.independent_sets_by_size(g):
            maximal = [vs for vs in level if not _naive.outside_closed_neighbourhood(g, vs)]
            if maximal:
                facet = min(maximal, key=lambda vs: sum(1 << v for v in vs))
                return 0, {"kind": "impure_complex", "facet": facet}
    for u, v in g.edges():
        if not any(u in fiber and v in fiber for _, fiber in table):
            return 0, {"kind": "missing_edge_outside_links", "edge": (u, v)}
    ridge, fiber = min(table, key=lambda row: len(row[1]))
    return len(fiber), {"kind": "thin_ridge", "ridge": ridge, "degree": len(fiber)}


class TestRidgeConditionAgainstNaive:
    """Condition (b) tests each edge against the distinct fibers of the
    ridge table; its level and witness must match the ridges and fibers
    found by definition."""

    @staticmethod
    def check(g: Graph) -> None:
        assert wp._cond_b(g, profile(g)) == naive_ridge_level(g)

    def test_catalog_n6(self):
        for g in small_catalog(6):
            self.check(g)

    @pytest.mark.parametrize("spec", ANALYZE_SPECS)
    def test_families(self, spec):
        self.check(generate(spec).graph)


class TestFiberConditionAgainstNaive:
    """Condition (c) reads its ridges and fibers off the maximum-set
    table; its level and witness must match fibers found by definition."""

    @staticmethod
    def check(g: Graph) -> None:
        level, witness = wp._cond_c(g)
        want_level, want_witness = naive_fiber_level(g)
        assert level == want_level
        if want_witness is None:
            assert witness["kind"] == "not_well_covered"
        else:
            assert witness == want_witness

    def test_catalog_n6(self):
        for g in small_catalog(6):
            self.check(g)

    @pytest.mark.parametrize("spec", ANALYZE_SPECS)
    def test_families(self, spec):
        self.check(generate(spec).graph)


class TestTheoremReport:
    def test_all_true_instance(self, petersen_complement):
        rep = main_theorem_report(petersen_complement, 3)
        assert rep.all_equal and rep.all_true
        assert rep.r == 2
        assert rep.witnesses == {}

    def test_all_false_with_witnesses(self, petersen_complement):
        rep = main_theorem_report(petersen_complement, 4)
        assert rep.all_equal and not rep.all_true
        assert set(rep.witnesses) == {"cond_a", "cond_b", "cond_c", "cond_d"}

    def test_path_fails_every_condition(self, p4):
        rep = main_theorem_report(p4, 1)
        assert rep.all_equal and not rep.all_true

    def test_catalog_equivalence_n4(self):
        for g in small_catalog(4):
            for p in (1, 2):
                assert main_theorem_report(g, p).all_equal

    def test_witness_sets_are_vertex_set_tuples(self):
        # the witnesses read their vertices off members
        for n in range(11):
            for mask in range(1 << n):
                assert members(mask) == tuple(v for v in range(n) if mask >> v & 1)

    def test_witness_exactly_when_failing_n5(self):
        thinness = {
            "thin_ridge": lambda w: w["degree"],
            "thin_fiber": lambda w: len(w["fiber"]),
            "thin_clique_codegree": lambda w: w["min_codegree"],
        }
        for g in small_catalog(5):
            reports = theorem_reports(g, (1, 2, 3))
            for p, rep in reports.items():
                assert rep.p == p
                assert rep == main_theorem_report(g, p)
                for name in ("cond_a", "cond_b", "cond_c", "cond_d"):
                    assert (name in rep.witnesses) == (not getattr(rep, name))
                for w in rep.witnesses.values():
                    if w["kind"] in thinness:
                        assert thinness[w["kind"]](w) < p

    def test_blowup_instances(self):
        # n = 14 at q = 2 is past the oracle guard but its independent
        # set space is tiny, so the literal route stays cheap
        for q in (1, 2):
            g = generate(f"c7_blowup:q={q}").graph
            rep = main_theorem_report(g, q, allow_large=True)
            assert rep.all_true
            assert not main_theorem_report(g, q + 1, allow_large=True).all_true


class TestGorenstein:
    def test_c5_positive(self, c5):
        rep = gorenstein_combinatorial_check(c5)
        assert rep.applicable and rep.all_equal
        assert rep.triangle_free_w2 is True

    def test_c7_negative(self, c7):
        rep = gorenstein_combinatorial_check(c7)
        assert rep.applicable and rep.all_equal
        assert rep.triangle_free_w2 is False

    def test_c4_negative(self, c4):
        rep = gorenstein_combinatorial_check(c4)
        assert rep.applicable and rep.all_equal
        assert rep.triangle_free_w2 is False

    def test_isolated_vertex_inapplicable(self):
        g = Graph.from_edges(3, [(0, 1)])
        rep = gorenstein_combinatorial_check(g)
        assert not rep.applicable

    def test_catalog_routes_agree(self):
        for g in small_catalog(5):
            rep = gorenstein_combinatorial_check(g)
            if rep.applicable:
                assert rep.all_equal
