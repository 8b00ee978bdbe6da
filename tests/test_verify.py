"""Verification suite plumbing on small catalogs.

The full n = 6 sweep is exercised by the acceptance suite; here the
machinery itself is checked at n <= 4 where a run takes milliseconds.
"""

import pytest

from wellcov import (
    codec_suite,
    corollary_discrepancies,
    encode,
    equivalence_discrepancies,
    examples_suite,
    generate,
    is_in_wp_ridge,
    run_suite,
    sweep_catalog,
)
from wellcov.verify import catalog_suite


def flip_ridge(monkeypatch):
    """Make the catalog checks' ridge decider disagree everywhere."""
    monkeypatch.setattr(
        "wellcov.verify.is_in_wp_ridge", lambda g, p: not is_in_wp_ridge(g, p))


class TestPerGraphChecks:
    def test_clean_graph_yields_nothing(self, c5):
        assert equivalence_discrepancies(c5, (1, 2, 3)) == []
        assert corollary_discrepancies(c5, (1, 2, 3)) == []

    def test_records_carry_location(self, c5, monkeypatch):
        flip_ridge(monkeypatch)
        recs = equivalence_discrepancies(c5, (1,))
        assert recs == [{
            "check": "deciders", "graph6": encode(c5), "n": 5, "p": 1,
            "detail": "oracle=True ridge=False localization=True",
        }]


class TestSweep:
    def test_small_sweep_clean(self):
        sweep = sweep_catalog(4)
        assert sweep.ok
        assert sweep.graphs_checked == 2 + 8 + 64 + 1
        assert sweep.discrepancies() == []

    def test_records_filed_by_check(self, monkeypatch):
        flip_ridge(monkeypatch)
        sweep = sweep_catalog(3)
        assert not sweep.ok
        records = sweep.discrepancies()
        # one record per graph and p: 1 + 2 + 8 graphs at p in (1, 2, 3)
        assert len(records) == 11 * 3
        assert sweep.discrepancies("deciders") == records
        assert sweep.discrepancies("conditions", "codec") == []
        assert all(list(rec) == ["check", "graph6", "n", "p", "detail"]
                   for rec in records)

        result, _ = catalog_suite(3, (1,))
        assert [line.key for line in result.lines if not line.passed] == [
            "deciders-agree"]

    def test_find_hits_at_n4(self):
        sweep = sweep_catalog(4)
        assert sorted(sweep.find_hits[(4, 2, 2)]) == ["CK", "CQ", "C`"]
        # the edgeless graph lands in the trivial p = 1 cell
        assert sweep.find_hits[(4, 4, 1)] == ["C?"]
        assert (4, 1, 4) not in sweep.find_hits


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
