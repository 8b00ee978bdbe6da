"""Command-line front end.

Four subcommands: analyze prints a JSON report for one graph, scan
runs the catalog sweep's jobs (`verify.Job`, through the sweep's
driver `verify.job_runner`) over a graph6 stream, one line per job, or
over one order of the built-in labeled catalog, which goes to the
sweep's worker pool at n = 6 (under `--mode find` it emits the graphs
with an all-true report), family emits generator output as graph6, and
verify runs a named suite and prints a per-check table.  Graphs travel
on stdin/stdout as graph6; diagnostics go to stderr.  Exit codes: 0
clean, 1 verification failures or counterexamples, 2 usage or input
errors, 141 (128 + SIGPIPE, what a shell reports for a writer the
signal ends) when stdout's reader goes away, as under `| head`; that
ends the run quietly, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from typing import Callable, Iterable

from .catalog import DEFAULT_MAX_N, HARD_MAX_N, catalog_size, check_order
from .families import FAMILY_NAMES, generate
from .graph6 import Graph6Error, decode, encode
from .graphs import Graph, complement
from .independence import TABLE_BUILDERS, independence_number, is_well_covered
from .saturation import (
    bound_report,
    clique_union_shape,
    is_kt_saturated,
    maximal_clique_sizes_uniform,
    min_clique_codegree,
)
from .verify import SUITE_NAMES, Job, JobResult, Progress, job_runner, run_suite
from .wp import (
    OracleSizeError,
    edge_localization_scan,
    is_alpha_critical_direct,
    is_alpha_critical_fibers,
    is_in_wp_localization,
    oracle_families,
    w_index,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _parse_p_values(text: str) -> tuple[int, ...]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            p = int(part)
        except ValueError:
            raise ValueError(f"bad membership level {part!r}") from None
        if p < 1:
            raise ValueError(f"membership level must be positive, got {p}")
        if p not in values:
            values.append(p)
    if not values:
        raise ValueError("empty membership level list")
    return tuple(values)


def _resolve_input(text: str) -> tuple[Graph, str]:
    """Family spec or graph6 line; returns the graph and a source tag."""
    name = text.split(":", 1)[0].strip().replace("-", "_").lower()
    if name in FAMILY_NAMES:
        fam = generate(text)
        return fam.graph, f"family:{fam.spec.name}"
    try:
        return decode(text), "graph6"
    except Graph6Error as exc:
        raise ValueError(
            f"input is neither a known family spec nor graph6: {exc}") from None


def _analysis_report(
    g: Graph,
    source: str,
    p_values: tuple[int, ...],
    *,
    allow_large: bool,
    edge_scan: bool,
) -> dict:
    """Assemble the analyze JSON body.  Key order is fixed by
    construction order and must stay byte-stable."""
    alpha = independence_number(g)
    wc = is_well_covered(g)
    direct = is_alpha_critical_direct(g)
    by_fibers, uncovered = is_alpha_critical_fibers(g)
    h = complement(g)

    w = w_index(g)
    try:
        # one oracle front for every p, so the superset table is built once
        oracle = {p: bad is None for p, bad in oracle_families(g, p_values, allow_large).items()}
    except OracleSizeError:
        oracle = dict.fromkeys(p_values)
    memo: dict = {}
    membership = []
    for p in p_values:
        # the ridge decider at p is this threshold on its own index
        ridge = w is not None and w >= p
        local = is_in_wp_localization(g, p, memo)
        membership.append({
            "p": p,
            "in_class": ridge,
            "oracle": oracle[p],
            "ridge": ridge,
            "localization": local,
            "agree": (oracle[p] is None or oracle[p] == ridge) and ridge == local,
        })

    uniform, clique_size = maximal_clique_sizes_uniform(h)
    complement_summary = {
        "clique_number": alpha,
        "saturation_target": alpha + 1,
        "kt_saturated": is_kt_saturated(h, alpha + 1),
        "max_cliques_uniform": uniform,
        "max_clique_size": clique_size,
        "min_clique_codegree": min_clique_codegree(h, alpha),
    }

    bounds = []
    shape = clique_union_shape(g)
    for p in p_values:
        br = bound_report(h, alpha, p, shape)
        bounds.append({
            "p": p,
            "r": br.r,
            "edge_count": br.edge_count,
            "saturation_edge_bound": br.saturation_edge_bound,
            "codegree_edge_bound": br.codegree_edge_bound,
            "edge_bounds_ok": br.edge_bounds_ok,
            "min_degree": br.min_degree,
            "min_degree_bound": br.min_degree_bound,
            "min_degree_ok": br.min_degree_ok,
            "universal_vertex": br.universal_vertex,
            "universal_vertex_ok": br.universal_vertex_ok,
            "rigidity": br.rigidity_verdict,
            "complement_clique_sizes": (
                None if br.complement_clique_sizes is None
                else list(br.complement_clique_sizes)),
            "n_equals_rp": br.n_equals_rp,
            "complement_is_p_clique_union": br.complement_is_p_clique_union,
        })

    report = {
        "input": {
            "graph6": encode(g),
            "n": g.n,
            "edges": g.edge_count,
            "source": source,
        },
        "alpha": alpha,
        "well_covered": wc,
        "w_index": w,
        "alpha_critical": {
            "by_edge_deletion": direct,
            "by_fiber_cover": by_fibers,
            "agree": direct == by_fibers,
            "uncovered_edge": None if uncovered is None else list(uncovered),
        },
        "membership": membership,
        "complement": complement_summary,
        "bounds": bounds,
    }

    if edge_scan:
        scans = []
        for p in p_values:
            if p < 2:
                continue
            entries = edge_localization_scan(g, p)
            failing = [e for e in entries if e.in_lower_class is False]
            empty = [e for e in entries if e.empty]
            scans.append({
                "p": p,
                "edges_scanned": len(entries),
                "empty_localizations": [list(e.edge) for e in empty],
                "not_in_lower_class": [list(e.edge) for e in failing],
                "all_pass": not failing and not empty,
            })
        report["edge_localization"] = scans
    return report


def cmd_analyze(args: argparse.Namespace) -> int:
    text = args.input
    if text is None:
        text = sys.stdin.readline().strip()
        if not text:
            return _fail("no input given and stdin is empty")
    try:
        p_values = _parse_p_values(args.p)
        g, source = _resolve_input(text)
    except ValueError as exc:
        return _fail(str(exc))
    report = _analysis_report(
        g, source, p_values,
        allow_large=args.allow_large, edge_scan=args.edge_scan)
    json.dump(report, sys.stdout, indent=2)
    print()
    return EXIT_OK


def cmd_scan(args: argparse.Namespace) -> int:
    # the source errors come before the first graph, so that an error
    # raised while a graph is checked is never taken for a usage error
    stream = nullcontext(sys.stdin)
    try:
        p_values = _parse_p_values(args.p)
        if args.r is not None and args.mode != "find":
            raise ValueError("--r applies only to --mode find")
        if args.r is not None and args.r < 1:
            raise ValueError("--r must be positive")
        if args.exhaustive is not None:
            check_order(args.exhaustive, allow_large=args.allow_large)
        elif args.input not in (None, "-"):
            stream = open(args.input, encoding="latin-1")
    except (ValueError, OSError) as exc:
        return _fail(str(exc))

    options = {"find": args.mode == "find", "r": args.r, "allow_large": args.allow_large}
    found = JobResult()
    with stream as lines, job_runner() as run:
        if args.exhaustive is not None:
            jobs: Iterable[Job] = [
                Job(p_values, args.exhaustive, range(catalog_size(args.exhaustive)), **options)]
        else:
            # one line per job, so each line's output goes out before
            # the next line is read
            jobs = (Job(p_values, lines=(line,), lineno=lineno, **options)
                    for lineno, line in enumerate(lines, start=1))
        for job in jobs:
            for result in run(job):
                for err in result.parse_errors:
                    print(f"{err['where']}: parse error ({err['code']}): {err['message']}",
                          file=sys.stderr)
                for skip in result.skipped:
                    print(f"{skip['where']}: skipped: {skip['reason']}", file=sys.stderr)
                if not args.json:
                    for rec in result.records:
                        p_part = f" p={rec['p']}" if "p" in rec else ""
                        print(f"{rec['where']} {rec['graph6']}{p_part} {rec['check']}: "
                              f"{rec['detail']}")
                    # check mode's hits are the sweep's, which scan does not report
                    for hit in result.hits if args.mode == "find" else ():
                        print(hit["graph6"])
                found.add(result)

    # find mode reports its hits, check mode its discrepancy records
    key, found_list = ("hits", found.hits) if args.mode == "find" else (
        "discrepancies", found.records)
    summary = {
        "command": "scan",
        "mode": args.mode,
        "p": list(p_values),
        "graphs_checked": found.checked,
        "parse_errors": found.parse_errors,
        "skipped": found.skipped,
        "table_cache": {f.__name__: {kind: found.table_cache[f.__name__, kind]
                                     for kind in ("hits", "misses")} for f in TABLE_BUILDERS},
    }
    if args.mode == "find":
        summary["r"] = args.r
    summary[key] = found_list

    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        print(f"checked {found.checked} graphs, {len(found.parse_errors)} parse errors, "
              f"{len(found.skipped)} skipped, {len(found_list)} {key}", file=sys.stderr)

    violations = bool(found.records) or (args.strict and found.parse_errors)
    return EXIT_VIOLATIONS if violations else EXIT_OK


def cmd_family(args: argparse.Namespace) -> int:
    entries = []
    for text in args.spec:
        try:
            fam = generate(text)
        except ValueError as exc:
            return _fail(str(exc))
        entries.append(fam)
    if args.json:
        body = [{
            "name": fam.spec.name,
            "params": dict(fam.spec.params),
            "n": fam.graph.n,
            "edges": fam.graph.edge_count,
            "graph6": encode(fam.graph),
        } for fam in entries]
        json.dump(body, sys.stdout, indent=2)
        print()
    else:
        for fam in entries:
            print(encode(fam.graph))
    return EXIT_OK


def _progress(clock: Callable[[], float] = time.perf_counter) -> Progress:
    """A progress printer for catalog sweeps.  Rate and ETA for each
    order n are measured from the first line printed for that order."""
    first: dict[int, tuple[int, float]] = {}

    def report(n: int, done: int, total: int) -> None:
        now = clock()
        done0, t0 = first.setdefault(n, (done, now))
        line = f"catalog n={n}: {done}/{total}"
        if done > done0 and now > t0:
            rate = (done - done0) / (now - t0)
            line += f", {rate:.0f} graphs/s, ETA {(total - done) / rate:.0f} s"
        print(line, file=sys.stderr)
    return report


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        results = run_suite(args.suite, progress=_progress() if args.progress else None)
    except ValueError as exc:
        return _fail(str(exc))
    if args.json:
        body = [{
            "suite": res.name,
            "passed": res.passed,
            "lines": [{"key": ln.key, "passed": ln.passed, "detail": ln.detail}
                      for ln in res.lines],
        } for res in results]
        json.dump(body, sys.stdout, indent=2)
        print()
    else:
        for res in results:
            for ln in res.lines:
                flag = "PASS" if ln.passed else "FAIL"
                print(f"[{flag}] {res.name}/{ln.key}: {ln.detail}")
    ok = all(res.passed for res in results)
    return EXIT_OK if ok else EXIT_VIOLATIONS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wellcov",
        description="Decide well-coveredness, W_p membership, criticality, "
                    "and W-index; cross-validate the characterizations.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="report on one graph (graph6 or family spec)")
    analyze.add_argument("input", nargs="?", default=None,
                         help="graph6 line or family spec; stdin when omitted")
    analyze.add_argument("--p", default="1,2,3", help="comma list of membership levels")
    analyze.add_argument("--allow-large", action="store_true",
                         help="run the literal oracle past its vertex guard")
    analyze.add_argument("--edge-scan", action="store_true",
                         help="include the edge localization scan for each p >= 2")
    analyze.set_defaults(func=cmd_analyze)

    scan = sub.add_parser("scan", help="cross-validate a graph6 stream or the catalog")
    source = scan.add_mutually_exclusive_group()
    source.add_argument("--input", default=None, help="graph6 file; stdin when omitted")
    source.add_argument("--exhaustive", type=int, default=None, metavar="N",
                        help=f"scan all labeled graphs on N vertices "
                             f"(N <= {DEFAULT_MAX_N}, or {HARD_MAX_N} with --allow-large)")
    scan.add_argument("--mode", choices=("check", "find"), default="check",
                      help="check: every cross-check of the catalog sweep; "
                           "find: print graphs whose report is all-true at some p")
    scan.add_argument("--p", default="1,2,3", help="comma list of membership levels")
    scan.add_argument("--r", type=int, default=None,
                      help="find mode: restrict to graphs with this independence number")
    scan.add_argument("--allow-large", action="store_true",
                      help="lift the catalog and oracle size guards")
    scan.add_argument("--strict", action="store_true",
                      help="treat parse errors as failures in the exit code")
    scan.add_argument("--json", action="store_true", help="JSON summary on stdout")
    scan.set_defaults(func=cmd_scan)

    family = sub.add_parser("family", help="emit family graphs as graph6")
    family.add_argument("spec", nargs="+", help='family spec, e.g. "c7_blowup:q=3"')
    family.add_argument("--json", action="store_true", help="JSON records instead of graph6")
    family.set_defaults(func=cmd_family)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite", choices=SUITE_NAMES)
    verify.add_argument("--json", action="store_true", help="JSON table on stdout")
    verify.add_argument("--progress", action="store_true",
                        help="progress lines on stderr during catalog sweeps")
    verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # a buffered stdout meets a gone reader here, not at exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; aim it at
        # devnull so that flush has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
