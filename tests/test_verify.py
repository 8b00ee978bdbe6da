"""Verification suite plumbing on small catalogs.

The full n = 6 sweep is exercised by the acceptance suite; here the
machinery itself is checked at n <= 4 where a run takes milliseconds.
"""

import sys

import pytest

from wellcov import (
    codec_suite,
    corollary_discrepancies,
    encode,
    equivalence_discrepancies,
    examples_suite,
    generate,
    is_in_wp_localization,
    run_suite,
    sweep_catalog,
    theorem_reports,
)
from wellcov import independence, saturation
from wellcov.catalog import labeled_graphs
from wellcov.verify import catalog_suite


def flip_localization(monkeypatch):
    """Make the catalog checks' localization decider disagree everywhere."""
    monkeypatch.setattr(
        "wellcov.verify.is_in_wp_localization",
        lambda g, p, memo=None: not is_in_wp_localization(g, p, memo))


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
        }]

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
        assert all(list(rec) == ["check", "graph6", "n", "p", "detail"]
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


class TestTableCache:
    def test_uncached_builders_give_the_same_sweep(self, monkeypatch):
        p_values = (1, 2, 3)
        graphs = [g for n in range(1, 6) for g in labeled_graphs(n)]
        cached = sweep_catalog(5, p_values)
        cached_reports = [theorem_reports(g, p_values) for g in graphs]

        for builder in independence.TABLE_BUILDERS:
            name = builder.__name__
            holders = [mod for modname, mod in sys.modules.items()
                       if modname.startswith("wellcov.")
                       and getattr(mod, name, None) is builder]
            assert holders
            for mod in holders:
                monkeypatch.setattr(mod, name, builder.__wrapped__)
        before = [b.cache_info() for b in independence.TABLE_BUILDERS]
        plain = sweep_catalog(5, p_values)
        plain_reports = [theorem_reports(g, p_values) for g in graphs]
        # the second run never went through a cache
        assert [b.cache_info() for b in independence.TABLE_BUILDERS] == before

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
