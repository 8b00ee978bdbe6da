"""The three workloads: inputs, one unit of timed work, and output checks.

Each workload is a closed loop from one thread: the next graph or
request starts when the previous one returns.  A unit is the smallest
piece of work that is repeated whole: one catalog sweep, one pass over
the stream, or one round of the three analyze requests.  A job is what
one latency sample times: a sweep, a graph, or a round of requests.

Every unit returns a verdict digest.  Units of one run must agree on
it, and the catalog and analyze digests must also match the values
recorded below, which were taken at the commit that defined this
benchmark: the checks are exact, so any change of verdict fails.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from time import perf_counter

import streamgen

P_VALUES = (1, 2, 3)
CATALOG_MAX_N = 6
CATALOG_GRAPHS = 33_867
# (n, r, p) -> labeled copies of r disjoint p-cliques, (rp)! / ((p!)^r r!)
CATALOG_FIND_HITS = {(4, 2, 2): 3, (6, 3, 2): 15, (6, 2, 3): 10}
CATALOG_DIGEST = "d50b322cda9bad0eded3a0900536cae0ba5c84a4690f135eeb6492c5b2e1768d"
STREAM_GRAPHS = 4000
SPECS = ("petersen_complement", "c7_blowup:q=4", "disjoint_cliques:r=8,p=3")
# spec -> (sha256 of the analyze output, expected W-index)
ANALYZE_EXPECTED = {
    "petersen_complement": (
        "f9c7bd3ba0856e3ae8a19398cb092105e553e29e84693215eb57f9b7e4db0a61", 3),
    "c7_blowup:q=4": (
        "9047efedfee5634fd6899d76932b9fceb8e89ac3b9643d8f12d6a6b35557990b", 4),
    "disjoint_cliques:r=8,p=3": (
        "1a462bb273ffad97ff525a88cc8bb8061453d8706f9dfcc513e7a01a12a2cd6a", 3),
}


def metric_label(spec: str) -> str:
    """Metric-safe spec name: c7_blowup:q=4 -> c7_blowup_q4."""
    return spec.replace(":", "_").replace(",", "_").replace("=", "")


def sha256(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


@dataclass
class Tally:
    """What the timed units did, accumulated over a run."""

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    by_spec: dict[str, list[float]] = field(default_factory=dict)
    digests: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)


class CatalogN6:
    """sweep_catalog(6, (1, 2, 3)): exactly what `wellcov verify catalog`
    and the acceptance tests run.  Exhaustive, so the seed is unused."""

    name = "catalog-n6"
    job = "sweep"
    item = "graph"

    def __init__(self, seed: int, max_n: int = CATALOG_MAX_N) -> None:
        self.seed = seed
        self.max_n = max_n
        import wellcov.verify
        self.verify = wellcov.verify

    def params(self) -> dict:
        return {"max_n": self.max_n, "p_values": list(P_VALUES), "seed_used": False}

    def top_jobs(self) -> dict:
        return {"sweep": self.sweep}

    def sweep(self):
        return self.verify.sweep_catalog(self.max_n, P_VALUES)

    def unit(self, tally: Tally, jobs: dict) -> None:
        start = perf_counter()
        try:
            sweep = jobs["sweep"]()
        except Exception as exc:  # a raising program is a measured failure
            sweep = None
            tally.problem(f"sweep raised {exc!r}")
        elapsed = perf_counter() - start
        tally.wall_s += elapsed
        tally.latencies.append(elapsed)
        if sweep is None:
            tally.attempted += CATALOG_GRAPHS
            tally.failed += CATALOG_GRAPHS
            return
        tally.attempted += sweep.graphs_checked
        records = sweep.discrepancies()
        tally.failed += len({(rec["n"], rec["graph6"]) for rec in records})
        if not sweep.ok or records:
            tally.problem(f"{len(records)} discrepancy records")
        if self.max_n == CATALOG_MAX_N and sweep.graphs_checked != CATALOG_GRAPHS:
            tally.problem(f"{sweep.graphs_checked} graphs checked, expected {CATALOG_GRAPHS}")
        for key, want in CATALOG_FIND_HITS.items():
            if key[0] <= self.max_n and len(sweep.find_hits.get(key, ())) != want:
                tally.problem(f"find hits {key}: {len(sweep.find_hits.get(key, ()))}, expected {want}")
        hits = sorted([list(key), sorted(g6s)] for key, g6s in sweep.find_hits.items())
        digest = sha256(json.dumps({"discrepancies": records, "find_hits": hits}, sort_keys=True))
        tally.digests.append(digest)
        if self.max_n == CATALOG_MAX_N and digest != CATALOG_DIGEST:
            tally.problem(f"catalog digest {digest} differs from the recorded {CATALOG_DIGEST}")


class StreamN8:
    """A seeded stream of 8-vertex graph6 lines, checked as `wellcov scan`
    checks them, with one localization memo per pass as one scan keeps."""

    name = "stream-n8"
    job = "graph"
    item = "graph"

    def __init__(self, seed: int, graphs: int = STREAM_GRAPHS) -> None:
        self.seed = seed
        self.items = streamgen.stream(seed, graphs)
        import wellcov.graph6
        import wellcov.verify
        self.graph6 = wellcov.graph6
        self.verify = wellcov.verify

    def params(self) -> dict:
        return {"graphs": len(self.items), "n": streamgen.N, "base_seed": streamgen.BASE_SEED,
                "kinds": list(streamgen.KINDS),
                "shares": [1 / len(streamgen.KINDS)] * len(streamgen.KINDS),
                "p_values": list(P_VALUES)}

    def top_jobs(self) -> dict:
        return {"graph": self.check_line}

    def check_line(self, line: str, memo: dict):
        g = self.graph6.decode(line)
        reports: dict = {}
        records = self.verify.equivalence_discrepancies(g, P_VALUES, memo, reports=reports)
        records += self.verify.corollary_discrepancies(g, P_VALUES, memo=memo, reports=reports)
        return records, reports

    def unit(self, tally: Tally, jobs: dict) -> None:
        check_line = jobs["graph"]
        memo: dict = {}
        digest = hashlib.sha256()
        unit_start = perf_counter()
        for kind, line in self.items:
            start = perf_counter()
            try:
                records, reports = check_line(line, memo)
            except Exception as exc:  # a raising program is a measured failure
                records, reports = [{"raised": repr(exc)}], {}
            tally.latencies.append(perf_counter() - start)
            flags = [[p, rep.r, rep.cond_a, rep.cond_b, rep.cond_c, rep.cond_d]
                     for p, rep in sorted(reports.items())]
            # by construction a corona on 2k vertices has independence number k
            if kind == "corona" and any(f[1] != streamgen.N // 2 for f in flags):
                records = records + [{"corona": "independence number is not n/2"}]
            if records:
                tally.failed += 1
                tally.problem(f"{line}: {records[0]}")
            digest.update(json.dumps([line, flags, records]).encode())
        tally.wall_s += perf_counter() - unit_start
        tally.attempted += len(self.items)
        tally.digests.append(digest.hexdigest())


class AnalyzeFamilies:
    """`wellcov analyze <spec>` in-process with default --p 1,2,3, round
    robin over three family graphs; every request builds a fresh memo."""

    name = "analyze-families"
    job = "round"
    item = "request"

    def __init__(self, seed: int, specs: tuple[str, ...] = SPECS) -> None:
        self.seed = seed
        self.specs = specs
        import wellcov.cli
        import wellcov.families
        self.cli = wellcov.cli
        self.sizes = {spec: wellcov.families.generate(spec).graph.n for spec in specs}

    def params(self) -> dict:
        return {"specs": list(self.specs), "vertices": self.sizes, "p_values": list(P_VALUES)}

    def top_jobs(self) -> dict:
        return {"request": self.analyze}

    def analyze(self, spec: str) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(["analyze", spec])
        return code, out.getvalue()

    def unit(self, tally: Tally, jobs: dict) -> None:
        analyze = jobs["request"]
        outputs = {}
        round_s = 0.0
        for spec in self.specs:
            start = perf_counter()
            try:
                code, text = analyze(spec)
            except Exception as exc:  # a raising program is a measured failure
                code, text = None, repr(exc)
            elapsed = perf_counter() - start
            round_s += elapsed
            tally.by_spec.setdefault(spec, []).append(elapsed)
            tally.attempted += 1
            outputs[spec] = sha256(text)
            if not self._correct(spec, code, text, outputs[spec], tally):
                tally.failed += 1
        tally.wall_s += round_s
        tally.latencies.append(round_s)
        tally.digests.append(sha256(json.dumps(outputs, sort_keys=True)))

    def _correct(self, spec: str, code, text: str, digest: str, tally: Tally) -> bool:
        if code != 0:
            tally.problem(f"{spec}: exit {code} {text[:200]}")
            return False
        report = json.loads(text)
        if not all(row["agree"] for row in report["membership"]) \
                or not report["alpha_critical"]["agree"]:
            tally.problem(f"{spec}: routes disagree")
            return False
        expected = ANALYZE_EXPECTED.get(spec)
        if expected is not None:
            want_digest, want_index = expected
            if report["w_index"] != want_index:
                tally.problem(f"{spec}: W-index {report['w_index']}, expected {want_index}")
                return False
            if digest != want_digest:
                tally.problem(f"{spec}: output digest {digest} differs from the recorded {want_digest}")
                return False
        return True


WORKLOADS = {w.name: w for w in (CatalogN6, StreamN8, AnalyzeFamilies)}
