"""Command-line front end.

Four subcommands: analyze prints a JSON report for one graph, scan
cross-validates a graph6 stream or the built-in labeled catalog, family
emits generator output as graph6, and verify runs a named suite and
prints a per-check table.  Graphs travel on stdin/stdout as graph6;
diagnostics go to stderr.  Exit codes: 0 clean, 1 verification
failures or counterexamples, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, TextIO

from .catalog import DEFAULT_MAX_N, HARD_MAX_N, catalog_size, labeled_graphs
from .families import FAMILY_NAMES, generate
from .graph6 import Graph6Error, decode, encode, iter_stream
from .graphs import Graph, complement
from .independence import TABLE_BUILDERS, independence_number, is_well_covered
from .saturation import (
    bound_report,
    is_kt_saturated,
    maximal_clique_sizes_uniform,
    min_clique_codegree,
)
from .verify import (
    SUITE_NAMES,
    Progress,
    corollary_discrepancies,
    equivalence_discrepancies,
    run_suite,
)
from .wp import (
    OracleSizeError,
    edge_localization_scan,
    is_alpha_critical_direct,
    is_alpha_critical_fibers,
    is_in_wp_localization,
    is_in_wp_oracle,
    theorem_reports,
    w_index,
)

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


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
    memo: dict = {}
    membership = []
    for p in p_values:
        try:
            oracle = is_in_wp_oracle(g, p, allow_large=allow_large)
        except OracleSizeError:
            oracle = None
        # the ridge decider at p is this threshold on its own index
        ridge = w is not None and w >= p
        local = is_in_wp_localization(g, p, memo)
        membership.append({
            "p": p,
            "in_class": ridge,
            "oracle": oracle,
            "ridge": ridge,
            "localization": local,
            "agree": (oracle is None or oracle == ridge) and ridge == local,
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
    for p in p_values:
        br = bound_report(h, alpha, p)
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


def _stream_graphs(args: argparse.Namespace):
    """Yield (label, graph-or-error) pairs from the selected source."""
    if args.exhaustive is not None:
        n = args.exhaustive
        for index, g in enumerate(labeled_graphs(n, allow_large=args.allow_large)):
            yield f"graph {index + 1}/{catalog_size(n)}", g
        return
    stream: TextIO
    if args.input is None or args.input == "-":
        stream = sys.stdin
    else:
        stream = open(args.input, encoding="latin-1")
    try:
        for lineno, item in iter_stream(stream):
            yield f"line {lineno}", item
    finally:
        if stream is not sys.stdin:
            stream.close()


def cmd_scan(args: argparse.Namespace) -> int:
    try:
        p_values = _parse_p_values(args.p)
    except ValueError as exc:
        return _fail(str(exc))
    if args.mode == "find" and args.r is not None and args.r < 1:
        return _fail("--r must be positive")

    memo: dict = {}
    graphs_checked = 0
    parse_errors: list[dict] = []
    skipped: list[dict] = []
    discrepancies: list[dict] = []
    hits: list[dict] = []
    cache_start = [f.cache_info() for f in TABLE_BUILDERS]

    try:
        source = _stream_graphs(args)
        for label, item in source:
            if isinstance(item, Graph6Error):
                parse_errors.append({"where": label, "code": item.code, "message": str(item)})
                print(f"{label}: parse error ({item.code}): {item}", file=sys.stderr)
                continue
            g = item
            graphs_checked += 1
            try:
                if args.mode == "equivalence":
                    found = equivalence_discrepancies(
                        g, p_values, memo, allow_large=args.allow_large)
                elif args.mode == "corollaries":
                    found = corollary_discrepancies(
                        g, p_values, allow_large=args.allow_large, memo=memo)
                else:
                    found = []
                    alpha = independence_number(g)
                    if args.r is None or alpha == args.r:
                        reports = theorem_reports(g, p_values, allow_large=args.allow_large)
                        for p in p_values:
                            if reports[p].all_true:
                                hits.append({"where": label, "graph6": encode(g),
                                             "n": g.n, "r": alpha, "p": p})
                                if not args.json:
                                    print(encode(g))
                                break
            except OracleSizeError as exc:
                skipped.append({"where": label, "n": g.n, "reason": str(exc)})
                print(f"{label}: skipped: {exc}", file=sys.stderr)
                continue
            for rec in found:
                rec["where"] = label
                discrepancies.append(rec)
                if not args.json:
                    where = rec["where"]
                    p_part = f" p={rec['p']}" if "p" in rec else ""
                    print(f"{where} {rec['graph6']}{p_part} {rec['check']}: {rec['detail']}")
    except (ValueError, OSError) as exc:
        return _fail(str(exc))

    summary = {
        "command": "scan",
        "mode": args.mode,
        "p": list(p_values),
        "graphs_checked": graphs_checked,
        "parse_errors": parse_errors,
        "skipped": skipped,
        "table_cache": {
            f.__name__: {"hits": f.cache_info().hits - start.hits,
                         "misses": f.cache_info().misses - start.misses}
            for f, start in zip(TABLE_BUILDERS, cache_start)},
    }
    if args.mode == "find":
        summary["r"] = args.r
        summary["hits"] = hits
    else:
        summary["discrepancies"] = discrepancies

    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        print()
    else:
        tail = (f"checked {graphs_checked} graphs, "
                f"{len(parse_errors)} parse errors, {len(skipped)} skipped")
        if args.mode == "find":
            tail += f", {len(hits)} hits"
        else:
            tail += f", {len(discrepancies)} discrepancies"
        print(tail, file=sys.stderr)

    violations = bool(discrepancies) or (args.strict and parse_errors)
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
    scan.add_argument("--input", default=None, help="graph6 file; stdin when omitted")
    scan.add_argument("--exhaustive", type=int, default=None, metavar="N",
                      help=f"scan all labeled graphs on N vertices "
                           f"(N <= {DEFAULT_MAX_N}, or {HARD_MAX_N} with --allow-large)")
    scan.add_argument("--mode", choices=("equivalence", "corollaries", "find"),
                      default="equivalence")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
