"""Named verification suites.

The catalog suite sweeps every labeled graph on up to six vertices and
cross-validates all deciders, the four-way condition report, the
specializations, the W-index duality, the bound report, and the codec,
recording a discrepancy record for anything that disagrees.  The
examples suite drives the two witness families through every claimed
value, and the codec suite covers hand-derived encodings plus family
round-trips.  Everything here is exact; an empty discrepancy list is
the only passing outcome.

A sweep keeps one ledger: every record, in discovery order, names its
check (`deciders`, `conditions`, `criticality`, `w_index_duality`,
`gorenstein`, `alpha2`, `alpha3`, `bounds`, `rigidity`, `codec`), and
that name alone decides which suite line a record fails.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from .bitset import VertexSet
from .catalog import catalog_size, labeled_graphs
from .families import generate
from .graph6 import decode, encode
from .graphs import Graph, complement, edge_localization
from .independence import fiber, independence_number, is_well_covered
from .saturation import (
    VIOLATION,
    alpha2_check,
    alpha3_check,
    bound_report,
    clique_union_shape,
    is_kt_saturated,
    min_clique_codegree,
)
from .wp import (
    edge_localization_scan,
    gorenstein_combinatorial_check,
    is_alpha_critical_direct,
    is_alpha_critical_fibers,
    is_in_wp_localization,
    is_in_wp_oracle,
    is_in_wp_ridge,
    theorem_reports,
    w_index,
)

Progress = Callable[[int, int, int], None]


def _record(g: Graph, check: str, detail: str, p: int | None = None) -> dict:
    rec = {"check": check, "graph6": encode(g), "n": g.n}
    if p is not None:
        rec["p"] = p
    rec["detail"] = detail
    return rec


def _theorem_reports(
    g: Graph,
    p_values: Iterable[int],
    reports: dict | None,
    allow_large: bool,
) -> dict:
    if reports is None:
        reports = {}
    missing = [p for p in p_values if p not in reports]
    if missing:
        reports.update(theorem_reports(g, missing, allow_large=allow_large))
    return reports


def equivalence_discrepancies(
    g: Graph,
    p_values: Iterable[int],
    memo: dict | None = None,
    *,
    allow_large: bool = False,
    reports: dict | None = None,
) -> list[dict]:
    """Decider agreement and four-way condition agreement for one graph."""
    p_values = tuple(p_values)
    out = []
    reports = _theorem_reports(g, p_values, reports, allow_large)
    # the ridge decider is a threshold on the W-index, read once per graph
    w = w_index(g)
    for p in p_values:
        rep = reports[p]
        # the oracle decider's verdict is the first step of condition (a)
        o = rep.oracle
        ri = w is not None and w >= p
        lo = is_in_wp_localization(g, p, memo)
        if not o == ri == lo:
            out.append(_record(
                g, "deciders", f"oracle={o} ridge={ri} localization={lo}", p))
        if not rep.all_equal:
            out.append(_record(
                g, "conditions",
                f"a={rep.cond_a} b={rep.cond_b} c={rep.cond_c} d={rep.cond_d}", p))
    return out


def corollary_discrepancies(
    g: Graph,
    p_values: Iterable[int],
    *,
    allow_large: bool = False,
    memo: dict | None = None,
    reports: dict | None = None,
) -> list[dict]:
    """Specializations, duality, criticality, bounds, and the
    three-condition check for one graph."""
    p_values = tuple(p_values)
    out = []
    reports = _theorem_reports(g, p_values, reports, allow_large)
    r = independence_number(g)
    h = complement(g)

    direct = is_alpha_critical_direct(g)
    by_fibers, uncovered = is_alpha_critical_fibers(g)
    if direct != by_fibers:
        out.append(_record(
            g, "criticality",
            f"edge_deletion={direct} fiber_cover={by_fibers} uncovered={uncovered}"))

    w = w_index(g)
    if w is not None:
        dual = min_clique_codegree(h, r)
        if w != dual:
            out.append(_record(g, "w_index_duality", f"w={w} codegree={dual}"))

    gor = gorenstein_combinatorial_check(g, memo)
    if gor.applicable and not gor.all_equal:
        out.append(_record(
            g, "gorenstein",
            f"w2={gor.triangle_free_w2} fibers={gor.fiber_route} "
            f"complement={gor.complement_route}"))

    # the specializations are levels, read once per graph
    level2 = alpha2_check(h)
    level3 = alpha3_check(h)
    for p in p_values:
        rep = reports[p]
        lhs2 = level2 >= p
        rhs2 = rep.all_true and r == 2
        if lhs2 != rhs2:
            out.append(_record(
                g, "alpha2", f"complement_side={lhs2} theorem_side={rhs2}", p))
        lhs3 = level3 >= p
        rhs3 = rep.all_true and r == 3
        if lhs3 != rhs3:
            out.append(_record(
                g, "alpha3", f"complement_side={lhs3} theorem_side={rhs3}", p))
        if rep.cond_a:
            br = bound_report(h, r, p)
            if not (br.edge_bounds_ok and br.min_degree_ok and br.universal_vertex_ok):
                out.append(_record(
                    g, "bounds",
                    f"e={br.edge_count} needs>={max(br.saturation_edge_bound, br.codegree_edge_bound)} "
                    f"delta={br.min_degree} needs>={br.min_degree_bound} "
                    f"universal={br.universal_vertex}", p))
            if br.rigidity_verdict == VIOLATION:
                out.append(_record(g, "rigidity", "dense rigidity violated", p))
            if br.n_equals_rp and not br.complement_is_p_clique_union:
                out.append(_record(
                    g, "rigidity",
                    f"n=rp but complement components are {br.complement_clique_sizes}", p))
    return out


@dataclass
class CatalogSweep:
    max_n: int
    p_values: tuple[int, ...]
    graphs_checked: int = 0
    elapsed_seconds: float = 0.0
    # every discrepancy record, in discovery order
    records: list[dict] = field(default_factory=list)
    # (n, r, p) -> graph6 of graphs with an all-true report at p
    find_hits: dict[tuple[int, int, int], list[str]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.records

    def discrepancies(self, *checks: str) -> list[dict]:
        """Every record, or only those whose check is one of `checks`."""
        if not checks:
            return list(self.records)
        return [rec for rec in self.records if rec["check"] in checks]


def sweep_catalog(
    max_n: int = 6,
    p_values: tuple[int, ...] = (1, 2, 3),
    *,
    progress: Progress | None = None,
) -> CatalogSweep:
    """Cross-validate everything over all labeled graphs on 1..max_n
    vertices.  One localization memo is shared across the whole sweep."""
    sweep = CatalogSweep(max_n=max_n, p_values=tuple(p_values))
    memo: dict = {}
    started = time.perf_counter()
    for n in range(1, max_n + 1):
        total = catalog_size(n)
        for index, g in enumerate(labeled_graphs(n)):
            if progress is not None and index % 4096 == 0:
                progress(n, index, total)
            sweep.graphs_checked += 1
            g6 = encode(g)
            if decode(g6).adj != g.adj:
                sweep.records.append(_record(g, "codec", "round trip changed the graph"))
            reports: dict = {}
            sweep.records += equivalence_discrepancies(g, sweep.p_values, memo, reports=reports)
            sweep.records += corollary_discrepancies(g, sweep.p_values, memo=memo, reports=reports)
            for p in sweep.p_values:
                rep = reports[p]
                if n == rep.r * p and rep.all_true:
                    sweep.find_hits.setdefault((n, rep.r, p), []).append(g6)
    sweep.elapsed_seconds = time.perf_counter() - started
    return sweep


@dataclass(frozen=True)
class SuiteLine:
    key: str
    passed: bool
    detail: str


@dataclass
class SuiteResult:
    name: str
    lines: list[SuiteLine]

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)


def _labelings_of_clique_union(r: int, p: int) -> int:
    """Labeled copies of r disjoint p-cliques: (rp)! / ((p!)^r r!)."""
    return math.factorial(r * p) // (math.factorial(p) ** r * math.factorial(r))


# suite line key, the record checks it covers, what those checks compare
_CATALOG_LINES = (
    ("deciders-agree", ("deciders",), "oracle, ridge, and localization deciders"),
    ("theorem-conditions-agree", ("conditions",), "four-way condition reports"),
    ("alpha2-specialization", ("alpha2",), "independence number 2 specialization"),
    ("alpha3-specialization", ("alpha3",), "independence number 3 specialization"),
    ("w-index-duality", ("w_index_duality",), "w-index versus complement clique codegree"),
    ("bounds-hold", ("bounds", "rigidity"),
     "edge, degree, universal-vertex, and rigidity consequences"),
    ("criticality-agree", ("criticality",), "edge-deletion versus fiber-cover criticality"),
    ("gorenstein-agree", ("gorenstein",), "three-route combinatorial flags"),
    ("codec-roundtrip-catalog", ("codec",), "graph6 round trips"),
)


def catalog_suite(
    max_n: int = 6,
    p_values: tuple[int, ...] = (1, 2, 3),
    *,
    progress: Progress | None = None,
) -> tuple[SuiteResult, CatalogSweep]:
    sweep = sweep_catalog(max_n, p_values, progress=progress)
    scope = f"{sweep.graphs_checked} graphs, n<={max_n}, p in {list(p_values)}"
    lines = []
    for key, checks, what in _CATALOG_LINES:
        found = len(sweep.discrepancies(*checks))
        lines.append(SuiteLine(
            key, found == 0, f"{what} over {scope}: {found} discrepancies"))

    find_checks = []
    for r, p in ((2, 2), (3, 2), (2, 3)):
        n = r * p
        if n > max_n or p not in p_values:
            continue
        hits = sweep.find_hits.get((n, r, p), [])
        expected = _labelings_of_clique_union(r, p)
        shapes_ok = all(
            clique_union_shape(decode(g6)) == (p,) * r for g6 in hits
        )
        find_checks.append((r, p, len(hits), expected, shapes_ok))
    find_ok = all(found == exp and shapes for (_, _, found, exp, shapes) in find_checks)
    detail = "; ".join(
        f"(r={r},p={p}): {found} hits, expected {exp}, all recognized={shapes}"
        for (r, p, found, exp, shapes) in find_checks
    )
    lines.append(SuiteLine("rigidity-find", find_ok, detail or "no applicable (r, p) pairs"))

    lines.append(SuiteLine(
        "sweep-runtime", sweep.elapsed_seconds < 300.0,
        f"full sweep took {sweep.elapsed_seconds:.1f}s (budget 300s)"))
    return SuiteResult("catalog", lines), sweep


def _check_group(key: str, checks: list[tuple[str, bool]]) -> SuiteLine:
    failed = [name for name, ok in checks if not ok]
    if failed:
        return SuiteLine(key, False, f"failed: {', '.join(failed)}")
    return SuiteLine(key, True, f"{len(checks)} checks passed")


def _petersen_complement_checks() -> list[tuple[str, bool]]:
    g = generate("petersen_complement").graph
    petersen = generate("petersen").graph
    checks = [
        ("order", g.n == 10),
        ("size", g.edge_count == 30),
        ("alpha", independence_number(g) == 2),
        ("well_covered", is_well_covered(g)),
        ("w_index", w_index(g) == 3),
        ("critical_by_deletion", is_alpha_critical_direct(g)),
        ("critical_by_fibers", is_alpha_critical_fibers(g)[0]),
        ("complement_saturated", is_kt_saturated(petersen, 3)),
        ("complement_min_degree", min(petersen.degree(v) for v in range(10)) == 3),
    ]
    memo: dict = {}
    for p in (1, 2, 3):
        checks.append((f"oracle_p{p}", is_in_wp_oracle(g, p)))
        checks.append((f"ridge_p{p}", is_in_wp_ridge(g, p)))
        checks.append((f"localization_p{p}", is_in_wp_localization(g, p, memo)))
    checks.append(("oracle_p4_out", not is_in_wp_oracle(g, 4)))
    checks.append(("ridge_p4_out", not is_in_wp_ridge(g, 4)))
    checks.append(("localization_p4_out", not is_in_wp_localization(g, 4, memo)))

    scan3 = edge_localization_scan(g, 3)
    scan2 = edge_localization_scan(g, 2)
    checks.append(("scan_covers_all_edges", len(scan3) == 30))
    checks.append(("localizations_single_vertex", all(
        not e.empty and e.vertex_count == 1 for e in scan3)))
    checks.append(("localizations_not_in_w2", all(e.in_lower_class is False for e in scan3)))
    checks.append(("localizations_in_w1", all(e.in_lower_class is True for e in scan2)))

    br = bound_report(petersen, 2, 3)
    checks.append(("bound_saturation", br.saturation_edge_bound == 9))
    checks.append(("bound_codegree", br.codegree_edge_bound == 15))
    checks.append(("bound_edges", br.edge_count == 15))
    checks.append(("bound_tight", br.codegree_edge_bound_tight))
    checks.append(("bound_all_ok", br.edge_bounds_ok and br.min_degree_ok and br.universal_vertex_ok))
    return checks


def _c7_blowup_checks() -> list[tuple[str, bool]]:
    checks: list[tuple[str, bool]] = []
    for q in range(1, 9):
        fam = generate(f"c7_blowup:q={q}")
        g = fam.graph
        tag = f"q{q}"
        checks.append((f"{tag}_alpha", independence_number(g) == 3))
        checks.append((f"{tag}_well_covered", is_well_covered(g)))
        checks.append((f"{tag}_w_index", w_index(g) == q))
        checks.append((f"{tag}_membership", is_in_wp_ridge(g, q)))
        checks.append((f"{tag}_membership_sharp", not is_in_wp_ridge(g, q + 1)))
        checks.append((f"{tag}_critical_by_fibers", is_alpha_critical_fibers(g)[0]))
        checks.append((f"{tag}_critical_by_deletion", is_alpha_critical_direct(g)))

        classes = fam.classes
        ridge = VertexSet.of(g.n, [next(iter(classes[1])), next(iter(classes[4]))])
        fib = fiber(g, ridge)
        checks.append((f"{tag}_ridge_fiber_is_class6", fib.bits == classes[6].bits))
        checks.append((f"{tag}_ridge_fiber_size", len(fib) == q))

        a = next(iter(classes[1]))
        b = next(iter(classes[2]))
        sub = edge_localization(g, (a, b))
        expected = classes[4].bits | classes[5].bits | classes[6].bits
        checks.append((f"{tag}_localization_classes_456",
                       sub is not None and VertexSet.of(g.n, sub.kept).bits == expected))
        if q >= 2:
            checks.append((f"{tag}_localization_not_well_covered",
                           sub is not None and not is_well_covered(sub.graph)))
    return checks


def examples_suite() -> SuiteResult:
    lines = [
        _check_group("petersen-complement", _petersen_complement_checks()),
        _check_group("c7-blowup", _c7_blowup_checks()),
    ]
    return SuiteResult("examples", lines)


def codec_suite() -> SuiteResult:
    checks: list[tuple[str, bool]] = []
    k1 = generate("complete:n=1").graph
    k5 = generate("complete:n=5").graph
    checks.append(("k1_hand_encoding", encode(k1) == "@"))
    checks.append(("k5_hand_encoding", encode(k5) == "D~{"))
    checks.append(("k5_hand_decoding", decode("D~{").adj == k5.adj))
    checks.append(("header_tolerated", decode(">>graph6<<D~{").adj == k5.adj))
    specs = [
        "petersen", "petersen_complement", "cycle:n=7", "path:n=1",
        "complete:n=28", "complete_multipartite:parts=3,3",
        "disjoint_cliques:r=3,p=2",
        *(f"c7_blowup:q={q}" for q in range(1, 9)),
    ]
    for spec in specs:
        g = generate(spec).graph
        checks.append((f"roundtrip_{spec}", decode(encode(g)).adj == g.adj))
    return SuiteResult("codec", [_check_group("codec-vectors", checks)])


SUITE_NAMES = ("examples", "codec", "catalog", "all")


def run_suite(name: str, *, progress: Progress | None = None) -> list[SuiteResult]:
    if name == "examples":
        return [examples_suite()]
    if name == "codec":
        return [codec_suite()]
    if name == "catalog":
        return [catalog_suite(progress=progress)[0]]
    if name == "all":
        return [examples_suite(), codec_suite(), catalog_suite(progress=progress)[0]]
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
