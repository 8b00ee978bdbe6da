"""Acceptance criteria.

Each test covers one numbered criterion and prints a single PASS/FAIL
line through the capture manager so the verdicts land on the real
terminal in any pytest run.  The heavy piece, the exhaustive n <= 6
catalog sweep at p in {1, 2, 3}, runs once per session and feeds the
catalog-wide criteria; it must finish inside the five-minute budget
single-threaded.
"""

import pytest

from wellcov import (
    bound_report,
    clique_union_shape,
    codec_suite,
    decode,
    examples_suite,
    generate,
    sweep_catalog,
)
from wellcov.cli import main

MAX_N = 6
P_VALUES = (1, 2, 3)
SWEEP_BUDGET_SECONDS = 300.0


@pytest.fixture(scope="session")
def announce(pytestconfig):
    capman = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _announce(number: int, ok: bool, detail: str) -> None:
        line = f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)

    return _announce


@pytest.fixture(scope="session")
def sweep():
    return sweep_catalog(MAX_N, P_VALUES)


@pytest.fixture(scope="session")
def examples():
    return examples_suite()


def example_line(examples, key):
    return next(line for line in examples.lines if line.key == key)


def test_criterion_01_decider_equivalence(sweep, announce):
    found = sweep.discrepancies("deciders")
    ok = not found and sweep.elapsed_seconds < SWEEP_BUDGET_SECONDS
    announce(1, ok,
             f"oracle/ridge/localization agree on {sweep.graphs_checked} graphs "
             f"(n<={MAX_N}, p in {list(P_VALUES)}), "
             f"{len(found)} disagreements, "
             f"sweep {sweep.elapsed_seconds:.1f}s of {SWEEP_BUDGET_SECONDS:.0f}s budget")
    assert found == []
    assert sweep.elapsed_seconds < SWEEP_BUDGET_SECONDS


def test_criterion_02_four_way_equivalence(sweep, announce):
    found = sweep.discrepancies("conditions")
    ok = not found
    announce(2, ok,
             f"four conditions equal on every graph and p, "
             f"{len(found)} mismatches")
    assert found == []


def test_criterion_03_petersen_complement(examples, announce):
    line = example_line(examples, "petersen-complement")
    announce(3, line.passed, line.detail)
    assert line.passed


def test_criterion_04_blowup_family(examples, announce):
    line = example_line(examples, "c7-blowup")
    announce(4, line.passed, line.detail)
    assert line.passed


def test_criterion_05_alpha2_specialization(sweep, announce):
    found = sweep.discrepancies("alpha2")
    ok = not found
    announce(5, ok,
             f"maximal triangle-free + degree floor matches the theorem "
             f"side everywhere, {len(found)} mismatches")
    assert found == []


def test_criterion_06_w_index_duality(sweep, announce):
    found = sweep.discrepancies("w_index_duality")
    ok = not found
    announce(6, ok,
             f"w-index equals complement clique codegree on every "
             f"well-covered graph, {len(found)} mismatches")
    assert found == []


def test_criterion_07_bounds(sweep, announce):
    found = sweep.discrepancies("bounds", "rigidity")
    petersen = generate("petersen").graph
    br = bound_report(petersen, 2, 3)
    tight = (br.edge_count == 15 and br.codegree_edge_bound == 15
             and br.codegree_edge_bound_tight)
    ok = not found and tight
    announce(7, ok,
             f"edge/degree/universal-vertex bounds hold on all qualifying "
             f"graphs ({len(found)} violations); tight "
             f"instance at n=10, r=2, p=3 with 15 edges: {tight}")
    assert found == []
    assert tight


def test_criterion_08_rigidity_find_scans(sweep, announce, capsys):
    expected_counts = {(2, 2): 3, (3, 2): 15, (2, 3): 10}
    results = []
    ok = True
    for (r, p), expected in expected_counts.items():
        n = r * p
        code = main(["scan", "--exhaustive", str(n), "--mode", "find",
                     "--p", str(p), "--r", str(r)])
        hits = capsys.readouterr().out.split()
        recognized = all(
            clique_union_shape(decode(h)) == (p,) * r for h in hits)
        cell_ok = (code == 0 and len(hits) == expected and recognized
                   and sorted(hits) == sorted(sweep.find_hits[(n, r, p)]))
        ok = ok and cell_ok
        results.append(f"(r={r},p={p}): {len(hits)}/{expected} hits, "
                       f"recognized={recognized}")
    announce(8, ok, "; ".join(results))
    assert ok


def test_criterion_09_criticality_agreement(sweep, announce):
    found = sweep.discrepancies("criticality")
    ok = not found
    announce(9, ok,
             f"edge-deletion and fiber-cover criticality agree on "
             f"{sweep.graphs_checked} graphs, "
             f"{len(found)} disagreements")
    assert found == []


def test_criterion_10_codec(sweep, announce):
    found = sweep.discrepancies("codec")
    codec = codec_suite()
    ok = not found and codec.passed
    announce(10, ok,
             f"round trip on {sweep.graphs_checked} catalog graphs "
             f"({len(found)} failures) and family graphs "
             f"to n=28; hand-derived vectors: {codec.passed}")
    assert found == []
    assert codec.passed
