"""Self-tests of the benchmark's own parts.

    python3 perfbench/selftest.py

Run from the root of a source checkout (it needs `src/` and
`tests/_naive.py`).  Checks the stream generator, the tracer on a short
run of each workload, and that BENCHMARK.json lists exactly the metrics
run.py reports.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run
import streamgen
from workloads import AnalyzeFamilies, CatalogN6, StreamN8, Tally

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tests import _naive  # noqa: E402  (needs the paths above)
from wellcov.graph6 import decode  # noqa: E402


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        sys.exit(1)


def test_stream() -> None:
    first = streamgen.stream(7, 400)
    check(first == streamgen.stream(7, 400), "same seed gives byte-identical lines")
    check(first != streamgen.stream(8, 400), "different seeds give different lines")
    kinds = [kind for kind, _ in first]
    check(all(kinds.count(k) == 100 for k in streamgen.KINDS), "equal shares of each kind")
    graphs = [(kind, decode(line)) for kind, line in first]
    check(all(g.n == streamgen.N for _, g in graphs), "every line decodes to 8 vertices")
    coronas = [g for kind, g in graphs if kind == "corona"]
    check(all(_naive.is_well_covered(g) for g in coronas),
          f"all {len(coronas)} coronas are well-covered by the naive reference")
    two_k4 = [0b1110, 0b1101, 0b1011, 0b0111]
    two_k4 += [row << 4 for row in two_k4]
    check(streamgen.high_w_index(two_k4), "2K4 (W-index 4) is filtered out")
    k8 = [0xFF & ~(1 << v) for v in range(8)]
    check(not streamgen.high_w_index(k8), "K8 is kept")


def test_tracer() -> None:
    short = (
        CatalogN6(0, max_n=5),
        StreamN8(3, graphs=200),
        AnalyzeFamilies(0, specs=("petersen", "c7_blowup:q=2", "disjoint_cliques:r=3,p=2")),
    )
    for work in short:
        tally, rows, tracer = run.traced(work)
        values = {name: value for name, value, *_ in rows}
        check(not tally.problems and tally.failed == 0, f"{work.name}: short run is correct")
        check(all(getattr(owner, name) is original for owner, name, original in tracer.rebound),
              f"{work.name}: all {len(tracer.rebound)} rebound names are the originals again")
        check(values["trace.coverage"] >= 0.9,
              f"{work.name}: trace.coverage {values['trace.coverage']:.4f} >= 0.9")
        again = {name: value for name, value, *_ in run.traced(work)[1]}
        repeat = [name for name in values
                  if name.endswith((".calls", "calls_per_graph", "runs_per_graph_p", "distinct_frac"))]
        check(all(values[name] == again[name] for name in repeat),
              f"{work.name}: {len(repeat)} counts and ratios repeat exactly")
        plain = Tally()
        work.unit(plain, work.top_jobs())
        check(plain.digests == tally.digests, f"{work.name}: traced digest matches untraced")


def test_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(layer == run.per_layer_units(), "BENCHMARK.json per_layer matches run.py")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.py")


if __name__ == "__main__":
    test_stream()
    test_benchmark_json()
    test_tracer()
    print("all self-tests passed")
