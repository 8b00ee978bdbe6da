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

Every check on one graph is `check_graph`: the codec round trip, one
set of theorem reports, then the equivalence and corollary checks on
those reports.  No other code strings these checks together.

A `Job` names its graphs, the labeled graphs of one order over a range
of pair masks or graph6 stream lines, and says what to do with each:
`check_graph`, or under find mode only the theorem reports.
`run_job` runs one and returns a `JobResult`: the graphs checked, the
records, find hits, skipped graphs and parse errors, each keyed by its
graph's `where`, and the table builders' cache counts.  `job_runner`
is the one driver.  A job of at most `_CHUNK` pair masks runs in this
process; a larger one (at the default cap only n = 6, in 32 pieces)
runs on a pool of at most two forked workers that lives for one call.
Results come back in job order, so what a caller folds them into is
the same as a one-process run's.  The catalog sweep and `wellcov scan`
are the two folds.  Each worker keeps its own localization memo; a
memo changes only speed.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Iterable, Iterator, Mapping

from .bitset import members
from .catalog import catalog_size, check_order, graph_from_pair_mask
from .families import generate
from .graph6 import Graph6Error, decode, encode, iter_stream
from .graphs import Graph, complement, edge_localization, induced_subgraph
from .independence import TABLE_BUILDERS, fiber, independence_number, is_well_covered
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
    OracleSizeError,
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


def _record(
    g: Graph, check: str, detail: str, p: int | None = None,
    witnesses: Mapping[str, dict] | None = None,
) -> dict:
    """One discrepancy record.  A record at a level p carries the
    one-line command that reports on the graph at that p; graph6 uses
    no quote character, so single quotes keep it literal."""
    g6 = encode(g)
    rec = {"check": check, "graph6": g6, "n": g.n}
    if p is not None:
        rec["p"] = p
    rec["detail"] = detail
    if p is not None:
        rec["repro"] = f"wellcov analyze '{g6}' --p {p}"
    if witnesses is not None:
        rec["witnesses"] = dict(witnesses)
    return rec


def _theorem_reports(g: Graph, p_values: Iterable[int], reports: dict | None) -> dict:
    """reports, or a new dict, filled in place with the report at each p
    it lacks."""
    if reports is None:
        reports = {}
    missing = [p for p in p_values if p not in reports]
    if missing:
        reports.update(theorem_reports(g, missing))
    return reports


def equivalence_discrepancies(
    g: Graph,
    p_values: Iterable[int],
    memo: dict | None = None,
    *,
    reports: dict | None = None,
) -> list[dict]:
    """Decider agreement and four-way condition agreement for one graph."""
    p_values = tuple(p_values)
    out = []
    reports = _theorem_reports(g, p_values, reports)
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
                f"a={rep.cond_a} b={rep.cond_b} c={rep.cond_c} d={rep.cond_d}", p,
                rep.witnesses))
    return out


def corollary_discrepancies(
    g: Graph,
    p_values: Iterable[int],
    *,
    memo: dict | None = None,
    reports: dict | None = None,
) -> list[dict]:
    """Specializations, duality, criticality, bounds, and the
    three-condition check for one graph.

    The theorem report runs the edge-deletion criticality route once
    per graph when some p passes the oracle, and a report at such a p
    names the route's non-critical edge as its condition (a) witness,
    or has none.  A route's own result may be reused by that route, so
    the criticality check reads the route's verdict there and runs the
    route itself only when no p passed."""
    p_values = tuple(p_values)
    out = []
    reports = _theorem_reports(g, p_values, reports)
    r = independence_number(g)
    h = complement(g)

    passed = [rep for rep in reports.values() if rep.oracle]
    if passed:
        direct = passed[0].witnesses.get("cond_a", {}).get("kind") != "non_critical_edge"
    else:
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

    # the specializations are levels, read once per graph, and so is
    # the shape the bound report reads off g
    level2 = alpha2_check(h)
    level3 = alpha3_check(h)
    shape = clique_union_shape(g) if any(rep.cond_a for rep in reports.values()) else None
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
        # p disjoint maximum independent sets need r * p vertices
        if rep.oracle and g.n < r * p:
            out.append(_record(g, "bounds", f"n={g.n} below r*p={r * p}", p))
        if rep.cond_a:
            br = bound_report(h, r, p, shape)
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


def check_graph(
    g: Graph, p_values: Iterable[int], memo: dict, *, allow_large: bool = False
) -> tuple[list[dict], dict]:
    """Every check on one graph, which `run_job` runs for the catalog
    sweep and for `wellcov scan`: the records, codec first, then
    equivalence, then corollaries, and the theorem report at each p.
    Both check groups read the one set of reports, which raise
    `OracleSizeError` past the oracle guard unless allow_large is set."""
    p_values = tuple(p_values)
    records = []
    if decode(encode(g)).adj != g.adj:
        records.append(_record(g, "codec", "round trip changed the graph"))
    reports = theorem_reports(g, p_values, allow_large=allow_large)
    records += equivalence_discrepancies(g, p_values, memo, reports=reports)
    records += corollary_discrepancies(g, p_values, memo=memo, reports=reports)
    return records, reports


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


# pair masks per piece of a job.  A job of more than one piece goes to
# the pool; at the default cap that is only n = 6, in 32 pieces
_CHUNK = 1024
_MAX_WORKERS = 2
# graphs between progress calls
_PROGRESS_EVERY = 4096

# a pool worker's localization memo, which it fills over the call it
# serves; the calling process never writes it, so each worker forks
# with it empty
_worker_memo: dict = {}


@dataclass(frozen=True)
class Job:
    """One run of graphs and what to do with each.

    The graphs are the labeled graphs of order n whose pair masks lie in
    `masks`, then those on the graph6 stream `lines`, the first numbered
    `lineno` (a blank line has none).  Check mode runs `check_graph` and
    hits a graph at each p where its report is all-true and n = r*p, the
    sweep's rigidity find.  Find mode reads only the theorem reports of
    the graphs whose independence number is r (any, when r is None) and
    hits each at its first all-true p.  allow_large lifts the oracle's
    guard."""

    p_values: tuple[int, ...]
    n: int = 0
    masks: range = range(0)
    lines: tuple[str, ...] = ()
    lineno: int = 1
    find: bool = False
    r: int | None = None
    allow_large: bool = False


@dataclass
class JobResult:
    """What jobs found, each list in graph order and each entry keyed by
    its graph's `where`."""

    checked: int = 0
    records: list[dict] = field(default_factory=list)
    hits: list[dict] = field(default_factory=list)
    # graphs past the oracle guard, and stream lines that did not parse
    skipped: list[dict] = field(default_factory=list)
    parse_errors: list[dict] = field(default_factory=list)
    # (`TABLE_BUILDERS` name, "hits" or "misses") -> count over the jobs
    table_cache: Counter[tuple[str, str]] = field(default_factory=Counter)

    def add(self, other: JobResult) -> None:
        """Add a later job's findings to these: each field is a count, a
        list or a Counter, and adds in place."""
        for name, value in vars(other).items():
            mine = getattr(self, name)
            mine += value
            setattr(self, name, mine)


def run_job(job: Job, memo: dict) -> JobResult:
    """The job's graphs, each checked or searched as `Job` says.  A graph
    past the oracle guard is skipped, and counted as checked; a line
    that does not parse is not."""
    out = JobResult()
    cache_start = [f.cache_info() for f in TABLE_BUILDERS]
    total = catalog_size(job.n)
    graphs = chain(
        ((f"graph {mask + 1}/{total}", graph_from_pair_mask(job.n, mask)) for mask in job.masks),
        ((f"line {k}", item) for k, item in iter_stream(job.lines, job.lineno)))
    for where, g in graphs:
        if isinstance(g, Graph6Error):
            out.parse_errors.append({"where": where, "code": g.code, "message": str(g)})
            continue
        out.checked += 1
        records, levels = [], []
        try:
            if not job.find:
                records, reports = check_graph(g, job.p_values, memo, allow_large=job.allow_large)
                levels = [p for p in job.p_values
                          if g.n == reports[p].r * p and reports[p].all_true]
            elif job.r in (None, independence_number(g)):
                reports = theorem_reports(g, job.p_values, allow_large=job.allow_large)
                levels = [p for p in job.p_values if reports[p].all_true][:1]
        except OracleSizeError as exc:
            out.skipped.append({"where": where, "n": g.n, "reason": str(exc)})
            continue
        out.records += [{**rec, "where": where} for rec in records]
        out.hits += [{"where": where, "graph6": encode(g), "n": g.n, "r": reports[p].r, "p": p}
                     for p in levels]
    for f, start in zip(TABLE_BUILDERS, cache_start):
        out.table_cache[f.__name__, "hits"] = f.cache_info().hits - start.hits
        out.table_cache[f.__name__, "misses"] = f.cache_info().misses - start.misses
    return out


def _run_job_in_worker(job: Job) -> JobResult:
    return run_job(job, _worker_memo)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _fork_pool():
    """A pool of min(2, usable CPUs) forked workers; None with fewer
    than two CPUs or without fork.  Forked workers inherit the loaded,
    possibly patched, modules, and no resource tracker starts."""
    workers = min(_MAX_WORKERS, _usable_cpus())
    if workers < 2:
        return None
    import multiprocessing
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    ctx = multiprocessing.get_context("fork")
    return ctx.Pool(workers)


@contextmanager
def job_runner(progress: Progress | None = None) -> Iterator[Callable[[Job], Iterator[JobResult]]]:
    """The one driver of `run_job`: a function that takes a job and
    yields its results in mask order, one per piece of at most `_CHUNK`
    pair masks.

    A job of one piece, such as a stream line or an order up to n = 5,
    runs in this process, and every such job of the call shares one
    localization memo.  The pieces of a larger job run on a pool of
    min(2, usable CPUs) forked workers, each with its own memo, started
    at the first such job and kept for the rest of the call; without a
    pool they too run in this process.  A memo changes only speed,
    never a verdict.  Before the result of a piece of order n is read,
    progress(n, index, total) is called at each multiple of
    `_PROGRESS_EVERY` among its pair masks: the graphs before index are
    done.  The pool is terminated when the body raises, and always
    closed and joined when the call ends.  The workers are forked, so
    call this from a process that runs no other thread.
    """
    memo: dict = {}
    pool = None

    def run(job: Job) -> Iterator[JobResult]:
        nonlocal pool
        pieces = [replace(job, masks=job.masks[lo:lo + _CHUNK])
                  for lo in range(0, len(job.masks), _CHUNK)] or [job]
        if len(pieces) > 1 and pool is None:
            pool = _fork_pool()
        if len(pieces) > 1 and pool is not None:
            results = pool.imap(_run_job_in_worker, pieces)
        else:
            results = (run_job(piece, memo) for piece in pieces)
        for piece in pieces:
            if progress is not None:
                first = -(-piece.masks.start // _PROGRESS_EVERY) * _PROGRESS_EVERY
                for index in range(first, piece.masks.stop, _PROGRESS_EVERY):
                    progress(piece.n, index, catalog_size(piece.n))
            yield next(results)
    try:
        yield run
    except BaseException:
        if pool is not None:
            pool.terminate()
        raise
    finally:
        if pool is not None:
            pool.close()
            pool.join()


def sweep_catalog(
    max_n: int = 6,
    p_values: tuple[int, ...] = (1, 2, 3),
    *,
    progress: Progress | None = None,
) -> CatalogSweep:
    """Cross-validate everything over all labeled graphs on 1..max_n
    vertices: one check-mode job per order through `job_runner`, so
    n <= 5 runs in this process and n = 6 on the pool.  Every record
    carries its graph's `where`, as in `wellcov scan --exhaustive`.  No
    catalog order reaches the oracle's guard, so no graph is skipped.
    """
    sweep = CatalogSweep(max_n=max_n, p_values=tuple(p_values))
    started = time.perf_counter()
    with job_runner(progress) as run:
        for n in range(1, max_n + 1):
            check_order(n)
            for result in run(Job(sweep.p_values, n, range(catalog_size(n)))):
                sweep.graphs_checked += result.checked
                sweep.records += result.records
                for hit in result.hits:
                    sweep.find_hits.setdefault((n, hit["r"], hit["p"]), []).append(hit["graph6"])
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

    # one scan for both levels: W_2 and W_1 are thresholds on each W-index
    scan = edge_localization_scan(g)
    checks.append(("scan_covers_all_edges", len(scan) == 30))
    checks.append(("localizations_single_vertex", all(
        keep.bit_count() == 1 for _, keep, _ in scan)))
    checks.append(("localizations_not_in_w2", all(
        keep and (w is None or w < 2) for _, keep, w in scan)))
    checks.append(("localizations_in_w1", all(
        keep and w is not None and w >= 1 for _, keep, w in scan)))

    br = bound_report(petersen, 2, 3, clique_union_shape(g))
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
        # one vertex of class 1 and one of class 4
        fib = fiber(g, classes[1] & -classes[1] | classes[4] & -classes[4])
        checks.append((f"{tag}_ridge_fiber_is_class6", fib == classes[6]))
        checks.append((f"{tag}_ridge_fiber_size", fib.bit_count() == q))

        keep = edge_localization(g, (members(classes[1])[0], members(classes[2])[0]))
        checks.append((f"{tag}_localization_classes_456",
                       keep == classes[4] | classes[5] | classes[6]))
        if q >= 2:
            checks.append((f"{tag}_localization_not_well_covered",
                           keep != 0 and not is_well_covered(induced_subgraph(g, keep))))
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
