"""Verification suite plumbing on small catalogs.

The full n = 6 sweep is exercised by the acceptance suite; here the
machinery itself is checked at n <= 4 where a run takes milliseconds.
"""

import json
import multiprocessing
import os
import shlex
import sys
import time

import pytest

from wellcov import (
    Graph,
    OracleSizeError,
    TheoremReport,
    check_graph,
    codec_suite,
    complement,
    corollary_discrepancies,
    encode,
    equivalence_discrepancies,
    examples_suite,
    generate,
    independence_number,
    is_in_wp_localization,
    run_suite,
    sweep_catalog,
    theorem_reports,
    w_index,
)
from wellcov import cli, independence, saturation, verify
from wellcov.bitset import VertexSet
from wellcov.catalog import graph_from_pair_mask, labeled_graphs
from wellcov.verify import catalog_suite
from tests._specs import ANALYZE_SPECS, STRUCTURED_SPECS


def flip_localization(monkeypatch):
    """Make the catalog checks' localization decider disagree everywhere."""
    monkeypatch.setattr(
        "wellcov.verify.is_in_wp_localization",
        lambda g, p, memo=None: not is_in_wp_localization(g, p, memo))


def zero_alpha2(monkeypatch):
    """Make the complement-side alpha = 2 level reject every p, so each
    alpha = 2 member yields an alpha2 record."""
    monkeypatch.setattr("wellcov.verify.alpha2_check", lambda h: 0)


def break_codec(monkeypatch):
    """Make every graph6 round trip of more than one vertex come back
    as another graph."""
    monkeypatch.setattr("wellcov.verify.decode", lambda g6: Graph(1, (0,)))


def count_theorem_reports(monkeypatch) -> list:
    """The p values of each `theorem_reports` call the checks make."""
    calls = []
    original = verify.theorem_reports

    def counting(g, p_values, **kwargs):
        calls.append(tuple(p_values))
        return original(g, p_values, **kwargs)
    monkeypatch.setattr(verify, "theorem_reports", counting)
    return calls


class TestPerGraphChecks:
    def test_clean_graph_yields_nothing(self, c5):
        assert equivalence_discrepancies(c5, (1, 2, 3)) == []
        assert corollary_discrepancies(c5, (1, 2, 3)) == []

    def test_records_carry_location(self, c5, monkeypatch):
        flip_localization(monkeypatch)
        recs = equivalence_discrepancies(c5, (1,))
        assert recs == [{
            "check": "deciders", "graph6": encode(c5), "n": 5, "p": 1,
            "detail": "oracle=True ridge=True localization=False",
            "repro": f"wellcov analyze '{encode(c5)}' --p 1",
        }]

    def test_conditions_records_carry_witnesses_and_repro(self, c5, monkeypatch, capsys):
        monkeypatch.setattr("wellcov.wp._cond_d", lambda g, r: (0, {"kind": "forced"}))
        [rec] = equivalence_discrepancies(c5, (1,))
        assert list(rec) == ["check", "graph6", "n", "p", "detail", "repro", "witnesses"]
        assert rec["check"] == "conditions"
        assert rec["witnesses"] == dict(theorem_reports(c5, (1,))[1].witnesses)
        assert rec["witnesses"] == {"cond_d": {"kind": "forced"}}
        # the repro is one shell line that the console script runs as is
        words = shlex.split(rec["repro"])
        assert words[:2] == ["wellcov", "analyze"]
        assert cli.main(words[1:]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["graph6"] == rec["graph6"]
        assert [row["p"] for row in report["membership"]] == [1]

    def test_records_without_p_carry_no_repro(self, c5, monkeypatch):
        monkeypatch.setattr("wellcov.verify.is_alpha_critical_direct", lambda g: False)
        [rec] = corollary_discrepancies(c5, (1,))
        assert list(rec) == ["check", "graph6", "n", "detail"]

    def test_one_shot_p_values_reach_every_decider_check(self, c5, monkeypatch):
        flip_localization(monkeypatch)
        recs = equivalence_discrepancies(c5, (1, 2, 3))
        assert len(recs) == 3
        assert equivalence_discrepancies(c5, (p for p in (1, 2, 3))) == recs

    def test_one_shot_p_values_reach_every_corollary_check(self, c5, monkeypatch):
        # c5 is in W_1 and W_2 with alpha 2, so each p yields an alpha2 record
        monkeypatch.setattr("wellcov.verify.alpha2_check", lambda h: 0)
        recs = corollary_discrepancies(c5, (1, 2))
        assert [rec["check"] for rec in recs] == ["alpha2", "alpha2"]
        assert corollary_discrepancies(c5, iter((1, 2))) == recs

    def test_benchmark_call_forms_share_one_set_of_reports(self, c5, monkeypatch):
        # the stream benchmark passes memo positionally to the first
        # check and by keyword to the second, and reads the reports
        # that the first fills in place
        calls = count_theorem_reports(monkeypatch)
        memo: dict = {}
        reports: dict = {}
        assert equivalence_discrepancies(c5, (1, 2, 3), memo, reports=reports) == []
        assert calls == [(1, 2, 3)]
        assert list(reports) == [1, 2, 3]
        assert all(isinstance(rep, TheoremReport) and rep.p == p
                   for p, rep in reports.items())
        filled = dict(reports)
        assert corollary_discrepancies(c5, (1, 2, 3), memo=memo, reports=reports) == []
        assert calls == [(1, 2, 3)]
        assert reports == filled

    def test_check_graph_orders_codec_equivalence_corollaries(self, c5, monkeypatch):
        zero_alpha2(monkeypatch)
        break_codec(monkeypatch)
        flip_localization(monkeypatch)
        calls = count_theorem_reports(monkeypatch)
        records, reports = check_graph(c5, iter((1, 2)), {})
        # c5 is in W_1 and W_2 with alpha 2
        assert [(rec["check"], rec.get("p")) for rec in records] == [
            ("codec", None), ("deciders", 1), ("deciders", 2), ("alpha2", 1), ("alpha2", 2)]
        assert calls == [(1, 2)]
        assert reports == theorem_reports(c5, (1, 2))

    def test_check_graph_past_the_oracle_guard(self):
        # C_11 is not well-covered, so every route rejects it at p = 1
        g = generate("cycle:n=11").graph
        with pytest.raises(OracleSizeError):
            check_graph(g, (1,), {})
        records, reports = check_graph(g, (1,), {}, allow_large=True)
        assert records == [] and not reports[1].oracle

    def test_profiles_do_not_grow_with_p(self, c5, monkeypatch):
        # the p-independent ridge table is read once per graph, however
        # many levels are checked
        built = []
        original = independence.profile

        def counting(g):
            built.append(g)
            return original(g)
        callers = [mod for name, mod in sys.modules.items()
                   if name.startswith("wellcov.") and getattr(mod, "profile", None) is original]
        assert callers
        for mod in callers:
            monkeypatch.setattr(mod, "profile", counting)
        equivalence_discrepancies(c5, (1,))
        once = len(built)
        assert once > 0
        built.clear()
        equivalence_discrepancies(c5, (1, 2, 3, 4, 5))
        assert len(built) == once

    def test_saturation_checks_do_not_grow_with_p(self, c5, monkeypatch):
        # the complement-side specializations are per-graph levels, so
        # saturation is tested the same number of times at any count of p
        calls = []
        original = saturation.is_kt_saturated

        def counting(h, t):
            calls.append(t)
            return original(h, t)
        holders = [mod for name, mod in sys.modules.items()
                   if name.startswith("wellcov.")
                   and getattr(mod, "is_kt_saturated", None) is original]
        assert saturation in holders
        for mod in holders:
            monkeypatch.setattr(mod, "is_kt_saturated", counting)
        corollary_discrepancies(c5, (1,))
        once = len(calls)
        assert once > 0
        calls.clear()
        corollary_discrepancies(c5, (1, 2, 3, 4, 5))
        assert len(calls) == once


class TestSweep:
    def test_small_sweep_clean(self):
        sweep = sweep_catalog(4)
        assert sweep.ok
        assert sweep.graphs_checked == 2 + 8 + 64 + 1
        assert sweep.discrepancies() == []

    def test_records_filed_by_check(self, monkeypatch):
        flip_localization(monkeypatch)
        sweep = sweep_catalog(3)
        assert not sweep.ok
        records = sweep.discrepancies()
        # one record per graph and p: 1 + 2 + 8 graphs at p in (1, 2, 3)
        assert len(records) == 11 * 3
        assert sweep.discrepancies("deciders") == records
        assert sweep.discrepancies("conditions", "codec") == []
        assert all(list(rec) == ["check", "graph6", "n", "p", "detail", "repro", "where"]
                   for rec in records)
        # a one-shot p_values reaches every graph, not only the first
        assert sweep_catalog(3, iter((1, 2, 3))).discrepancies() == records

        result, _ = catalog_suite(3, (1,))
        assert [line.key for line in result.lines if not line.passed] == [
            "deciders-agree"]

    def test_find_hits_at_n4(self):
        sweep = sweep_catalog(4)
        assert sorted(sweep.find_hits[(4, 2, 2)]) == ["CK", "CQ", "C`"]
        # the edgeless graph lands in the trivial p = 1 cell
        assert sweep.find_hits[(4, 4, 1)] == ["C?"]
        assert (4, 1, 4) not in sweep.find_hits


class TestScanRunsTheSweepJob:
    """`wellcov scan --exhaustive n` and the sweep both run the same
    jobs, so a scan reports the sweep's records of order n, in the same
    order, each with the same `where`."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("patch", [flip_localization, zero_alpha2, break_codec],
                             ids=["deciders", "alpha2", "codec"])
    def test_scan_records_equal_the_sweep_records(self, n, patch, monkeypatch, capsys):
        patch(monkeypatch)
        assert cli.main(["scan", "--exhaustive", str(n), "--json"]) == cli.EXIT_VIOLATIONS
        body = json.loads(capsys.readouterr().out)
        swept = [rec for rec in sweep_catalog(n).records if rec["n"] == n]
        assert swept
        assert body["discrepancies"] == swept

    def test_one_scan_runs_both_check_groups(self, monkeypatch, capsys):
        flip_localization(monkeypatch)
        zero_alpha2(monkeypatch)
        assert cli.main(["scan", "--exhaustive", "4", "--json"]) == cli.EXIT_VIOLATIONS
        body = json.loads(capsys.readouterr().out)
        assert body["mode"] == "check"
        assert {rec["check"] for rec in body["discrepancies"]} == {"deciders", "alpha2"}


def traced_sweep(max_n):
    """sweep_catalog(max_n), its progress calls, and the number of live
    child processes at each call."""
    calls, children = [], []

    def progress(*args):
        calls.append(args)
        children.append(len(multiprocessing.active_children()))
    return sweep_catalog(max_n, progress=progress), calls, children


def small_jobs(monkeypatch):
    """Jobs of 48 pair masks and a progress call every 64 graphs, so
    that n = 4 (2 jobs) and n = 5 (22 jobs) go to the pool, and the
    progress indices fall inside jobs; and more CPUs than the cap."""
    monkeypatch.setattr(verify, "_CHUNK", 48)
    monkeypatch.setattr(verify, "_PROGRESS_EVERY", 64)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 8)
    pools = []
    original = verify._fork_pool

    def spy():
        pools.append(original())
        return pools[-1]
    monkeypatch.setattr(verify, "_fork_pool", spy)
    return pools


class PlantedError(RuntimeError):
    pass


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
class TestPooledSweep:
    """The pooled sweep against the in-process one: the same records
    and find hits in the same order, the same progress calls, at most
    two workers, and none left when the call returns or raises."""

    @pytest.mark.parametrize("flip", [False, True], ids=["clean", "records"])
    def test_pool_matches_in_process_sweep(self, monkeypatch, flip):
        if flip:
            flip_localization(monkeypatch)
        monkeypatch.setattr(verify, "_PROGRESS_EVERY", 64)
        serial, serial_calls, serial_children = traced_sweep(5)
        pools = small_jobs(monkeypatch)
        pooled, pooled_calls, pooled_children = traced_sweep(5)

        assert len(pools) == 1 and pools[0] is not None
        assert serial_children == [0] * len(serial_calls)
        # the pool starts at n = 4 and serves n = 5 too
        assert pooled_children == [0, 0, 0] + [2] * (len(pooled_calls) - 3)
        assert pooled.graphs_checked == serial.graphs_checked == 1099
        assert pooled.records == serial.records
        assert bool(pooled.records) == flip
        # key order, and each hit list in mask order
        assert list(pooled.find_hits.items()) == list(serial.find_hits.items())
        assert pooled_calls == serial_calls
        assert len(serial_calls) == 3 + 1 + 1024 // 64
        assert multiprocessing.active_children() == []

    def test_one_cpu_sweeps_in_process(self, monkeypatch):
        pools = small_jobs(monkeypatch)
        monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
        sweep, calls, children = traced_sweep(5)
        # asked at n = 4 and again at n = 5
        assert pools == [None, None]
        assert children == [0] * len(calls)
        assert sweep.ok and sweep.graphs_checked == 1099

    def test_default_jobs_keep_n5_in_process(self, monkeypatch):
        pools = small_jobs(monkeypatch)
        monkeypatch.setattr(verify, "_CHUNK", 1024)
        sweep, calls, children = traced_sweep(5)
        assert pools == []
        assert sweep.ok and children == [0] * len(calls)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # a later job stalls, so a pool that is closed and joined
        # instead of terminated first waits 20 s for it
        pools = small_jobs(monkeypatch)
        planted = encode(graph_from_pair_mask(5, 700))
        stalled = encode(graph_from_pair_mask(5, 1000))
        original = verify.is_alpha_critical_fibers

        def failing(g):
            if encode(g) == planted:
                raise PlantedError(planted)
            if encode(g) == stalled:
                time.sleep(20)
            return original(g)
        monkeypatch.setattr(verify, "is_alpha_critical_fibers", failing)
        started = time.perf_counter()
        with pytest.raises(PlantedError) as raised:
            sweep_catalog(5)
        assert time.perf_counter() - started < 10
        assert raised.value.args == (planted,)
        assert len(pools) == 1 and pools[0] is not None
        assert multiprocessing.active_children() == []

    def test_order_above_the_cap_raises_after_the_pool_is_gone(self, monkeypatch):
        small_jobs(monkeypatch)
        monkeypatch.setattr("wellcov.catalog.DEFAULT_MAX_N", 5)
        with pytest.raises(ValueError, match="capped at 5"):
            sweep_catalog(6)
        assert multiprocessing.active_children() == []


FIND_2K2 = ("--mode", "find", "--p", "2", "--r", "2")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pool forks its workers")
class TestPooledScan:
    """`wellcov scan --exhaustive` runs its order through the sweep's
    driver, so with jobs of 48 pair masks n = 5 (22 jobs) goes to the
    pool, and stdout, stderr and the exit code are the one-job run's
    byte for byte."""

    @pytest.mark.parametrize("argv, flip", [
        ((), False), (("--json",), False), ((), True), (("--json",), True),
        (FIND_2K2, False), ((*FIND_2K2, "--json"), False),
    ], ids=["check", "check-json", "records", "records-json", "find", "find-json"])
    def test_pool_matches_one_job(self, argv, flip, monkeypatch, capsys):
        if flip:
            flip_localization(monkeypatch)

        def scan():
            code = cli.main(["scan", "--exhaustive", "5", *argv])
            captured = capsys.readouterr()
            return code, captured.out, captured.err
        one_job = scan()
        pools = small_jobs(monkeypatch)
        pooled = scan()

        assert len(pools) == 1 and pools[0] is not None
        assert multiprocessing.active_children() == []
        assert pooled == one_job
        assert pooled[0] == (cli.EXIT_VIOLATIONS if flip else cli.EXIT_OK)
        if "--json" in argv and "--mode" not in argv:
            body = json.loads(pooled[1])
            assert body["graphs_checked"] == 1024
            # the workers' cache counts are summed: one build per graph
            for counts in body["table_cache"].values():
                assert counts["misses"] == body["graphs_checked"]


# shared values that carry a one-entry cache without being tables
SHARED_CACHES = (complement, independence_number, saturation.min_clique_codegree)


class TestTableCache:
    def test_uncached_builders_give_the_same_sweep(self, monkeypatch):
        p_values = (1, 2, 3)
        graphs = [g for n in range(1, 6) for g in labeled_graphs(n)]
        cached = sweep_catalog(5, p_values)
        cached_reports = [theorem_reports(g, p_values) for g in graphs]

        caches = (*independence.TABLE_BUILDERS, *SHARED_CACHES)
        for builder in caches:
            name = builder.__name__
            holders = [mod for modname, mod in sys.modules.items()
                       if modname.startswith("wellcov.")
                       and getattr(mod, name, None) is builder]
            assert holders
            for mod in holders:
                monkeypatch.setattr(mod, name, builder.__wrapped__)
        before = [b.cache_info() for b in caches]
        plain = sweep_catalog(5, p_values)
        plain_reports = [theorem_reports(g, p_values) for g in graphs]
        # the second run never went through a cache
        assert [b.cache_info() for b in caches] == before

        assert plain.graphs_checked == cached.graphs_checked == len(graphs)
        assert plain.records == cached.records
        assert plain.find_hits == cached.find_hits
        assert plain_reports == cached_reports

    def test_each_graph_builds_its_tables_once(self):
        # a cache that stops working, or one widened to trade memory for
        # time, fails here
        before = [b.cache_info() for b in independence.TABLE_BUILDERS]
        sweep = sweep_catalog(5)
        assert sweep.graphs_checked == 1099
        for builder, start in zip(independence.TABLE_BUILDERS, before):
            info = builder.cache_info()
            assert info.misses - start.misses == sweep.graphs_checked, builder.__name__
            assert info.maxsize == 1
            assert info.currsize <= 1

    def test_oracle_enumerates_independent_sets_once_per_graph(self, monkeypatch):
        # the oracle's superset table serves every p of a graph, so the
        # uncached enumeration runs once per graph
        calls = []
        original = independence.independent_set_masks

        def counting(g):
            calls.append(g)
            return original(g)
        holders = [mod for name, mod in sys.modules.items()
                   if name.startswith("wellcov.")
                   and getattr(mod, "independent_set_masks", None) is original]
        assert holders
        for mod in holders:
            monkeypatch.setattr(mod, "independent_set_masks", counting)
        sweep = sweep_catalog(5)
        assert len(calls) == sweep.graphs_checked == 1099

    def test_no_route_reads_the_fixed_size_clique_table(self, monkeypatch, capsys):
        # profile, condition (c) and the minimum codegree each run their
        # own enumeration, so the W-index duality compares two that
        # share nothing
        calls = []
        original = independence.independent_masks_of_size

        def counting(*args):
            calls.append(args)
            return original(*args)
        holders = [mod for name, mod in sys.modules.items()
                   if name.startswith("wellcov.")
                   and getattr(mod, "independent_masks_of_size", None) is original]
        for mod in holders:
            monkeypatch.setattr(mod, "independent_masks_of_size", counting)
        assert sweep_catalog(5).ok
        for spec in ANALYZE_SPECS:
            assert cli.main(["analyze", spec]) == 0
        assert calls == []

    def test_no_product_path_builds_a_vertex_set(self, monkeypatch, capsys):
        # vertex sets are int masks at every API edge, so VertexSet,
        # kept for the benchmark tracer, is never constructed
        builds = []
        original = VertexSet.__post_init__

        def counting(self):
            builds.append(self)
            original(self)
        monkeypatch.setattr(VertexSet, "__post_init__", counting)
        assert sweep_catalog(5).ok
        for spec in ANALYZE_SPECS:
            assert cli.main(["analyze", spec]) == 0
            assert cli.main(["analyze", spec, "--edge-scan"]) == 0
        assert examples_suite().passed and codec_suite().passed
        for spec in STRUCTURED_SPECS:
            assert cli.main(["family", spec]) == 0
        capsys.readouterr()
        assert builds == []
        # the count is live
        VertexSet(1, 1)
        assert len(builds) == 1

    def test_shared_values_miss_once_per_graph_and_side(self):
        # a graph's complement, alpha and minimum codegree are computed
        # once per graph.  The complement h then asks for its own alpha
        # in the Gorenstein complement route, when the graph has no
        # isolated vertex and h's maximal cliques all have alpha(g)
        # vertices.  The codegree is asked at (h, alpha(g)) by the W-index
        # duality on each well-covered graph, and by condition (d) and
        # the Gorenstein route only on well-covered graphs.  Replaying
        # those keys through a one-entry cache gives the exact misses: a
        # key equal to the one before hits
        before = [c.cache_info() for c in SHARED_CACHES]
        sweep = sweep_catalog(5)
        after = [c.cache_info() for c in SHARED_CACHES]
        complement_keys, alpha_keys, codegree_keys = [], [], []
        for g in (g for n in range(1, 6) for g in labeled_graphs(n)):
            h = complement(g)
            complement_keys.append(g)
            alpha_keys.append(g)
            if all(g.adj) and saturation.maximal_clique_sizes_uniform(h) == (
                    True, independence_number(g)):
                alpha_keys.append(h)
            if w_index(g) is not None:
                codegree_keys.append((h, independence_number(g)))

        def one_entry_misses(keys):
            return sum(1 for i, key in enumerate(keys) if i == 0 or key != keys[i - 1])
        misses = [a.misses - b.misses for a, b in zip(after, before)]
        assert misses == [one_entry_misses(keys)
                          for keys in (complement_keys, alpha_keys, codegree_keys)]
        # 1,099 graphs, 254 asking alpha(h), 387 well-covered
        assert misses == [1099, 1099 + 254, 387]
        assert all(info.maxsize == 1 for info in after)


class TestSuites:
    def test_catalog_suite_lines(self):
        result, sweep = catalog_suite(4, (1, 2))
        assert result.passed
        assert sweep.ok
        keys = [line.key for line in result.lines]
        assert "deciders-agree" in keys
        assert "rigidity-find" in keys
        assert "sweep-runtime" in keys

    def test_examples_suite_passes(self):
        result = examples_suite()
        assert result.passed
        assert [line.key for line in result.lines] == [
            "petersen-complement", "c7-blowup"]

    def test_codec_suite_passes(self):
        assert codec_suite().passed

    def test_run_suite_dispatch(self):
        assert [r.name for r in run_suite("examples")] == ["examples"]
        with pytest.raises(ValueError):
            run_suite("nosuch")
