"""wellcov benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload catalog-n6 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  Human-readable lines (run record, every metric with its unit
and sample count, the verdict digest) come first, and the last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, measured untraced; with --trace 1
they are the per-layer ones from a separate traced unit of the same
inputs.  A failed output check prints the result with correct=false
and exits 1.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import DISTINCT, LAYERS, Tracer, boundary_names
from workloads import P_VALUES, WORKLOADS, Tally, metric_label

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 11
MAX_PROBLEMS_SHOWN = 20

# name -> unit; the order is the print order
END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "peak_rss_mb": "MB",
}
CALLS_PER_GRAPH = (
    "independence.profile", "independence.maximal_independent_set_masks",
    "independence.independence_number", "graphs.Graph", "bitset.VertexSet",
)


def per_layer_units() -> dict[str, str]:
    """name -> unit of every per-layer metric, in print order."""
    units = {}
    for key in boundary_names():
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for key in CALLS_PER_GRAPH:
        units[f"{key}.calls_per_graph"] = "calls/graph"
    units["wp.oracle.runs_per_graph_p"] = "runs/graph_p"
    for key in DISTINCT:
        units[f"{key}.distinct_frac"] = "ratio"
    units["trace.coverage"] = "ratio"
    units["trace.overhead_frac"] = "ratio"
    return units


def git_sha() -> str | None:
    """HEAD read from .git without leaving the checkout; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters from launch to "ready": imports,
    the package import and input generation, as the run itself does.
    One untimed probe goes first; the first launches after a pause were
    up to twice as slow as the rest."""
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    for _ in range(SETUP_PROBES + 1):
        start = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit {code}")
        times.append(elapsed)
    return times[1:]


def emit(line: str) -> None:
    print(line, flush=True)


def measure(work, seconds: float) -> tuple[Tally, list[tuple]]:
    """Timed, untraced units: at least one, and more while the next one,
    at the mean unit time so far, still ends within `seconds`.  Returns
    rows (name, value, unit, samples, note); those past the END_TO_END
    ones are printed but not in the result."""
    tally = Tally()
    setups = setup_probe_seconds(work.name, work.seed)
    jobs = work.top_jobs()
    start = perf_counter()
    units = 0
    while True:
        work.unit(tally, jobs)
        units += 1
        elapsed = perf_counter() - start
        if elapsed * (units + 1) / units > seconds:
            break
    lat = tally.latencies
    p99, beyond = percentile(lat, 99)
    rows = [
        ("setup_s", statistics.median(setups), "s", len(setups), "set-up probes"),
        ("graphs_per_s", tally.attempted / tally.wall_s, "graphs/s", tally.attempted,
         f"over {tally.wall_s:.3f} s"),
        ("latency_ms_p50", statistics.median(lat) * 1e3, "ms", len(lat), f"per {work.job}"),
        ("latency_ms_p99", p99 * 1e3, "ms", len(lat), f"per {work.job}, {beyond} beyond"),
        ("peak_rss_mb", peak_rss_mb(), "MB", 1, ""),
    ]
    for spec, spec_lat in tally.by_spec.items():
        rows.append((f"latency_ms_p50.{metric_label(spec)}",
                     statistics.median(spec_lat) * 1e3, "ms", len(spec_lat), ""))
    rows.append(("failed_frac", tally.failed / max(tally.attempted, 1), "ratio",
                 tally.attempted, ""))
    return tally, rows


def traced(work) -> tuple[Tally, list[tuple], Tracer]:
    """One untraced unit, then the same unit traced."""
    plain = Tally()
    start = perf_counter()
    work.unit(plain, work.top_jobs())
    plain_wall = perf_counter() - start

    tracer = Tracer()
    tally = Tally()
    with tracer.installed():
        jobs = {name: tracer.top_level(name, fn) for name, fn in work.top_jobs().items()}
        start = perf_counter()
        work.unit(tally, jobs)
        traced_wall = perf_counter() - start
    if tally.digests != plain.digests:
        tally.problem("traced and untraced units gave different verdict digests")
    tally.failed = max(tally.failed, plain.failed)
    tally.problems += [p for p in plain.problems if p not in tally.problems]

    totals = tracer.totals()
    graphs = tally.attempted
    values: dict[str, float] = {}
    for key in boundary_names():
        calls, _, self_s = totals.get(key, (0, 0.0, 0.0))
        values[f"{key}.calls"] = calls
        values[f"{key}.self_s"] = self_s
    for layer, names in LAYERS.items():
        values[f"{layer}.self_s"] = sum(values[f"{layer}.{n}.self_s"] for n in names)
    for key in CALLS_PER_GRAPH:
        values[f"{key}.calls_per_graph"] = values[f"{key}.calls"] / graphs
    oracle = values["wp.is_in_wp_oracle.calls"] + values["wp.wp_oracle_counterexample.calls"]
    values["wp.oracle.runs_per_graph_p"] = oracle / (graphs * len(P_VALUES))
    for key in DISTINCT:
        calls = values[f"{key}.calls"]
        values[f"{key}.distinct_frac"] = tracer.distinct_total[key] / calls if calls else 0.0
    values["trace.coverage"] = tracer.program_self_time() / traced_wall
    values["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall

    out = HERE / "out" / f"trace-{work.name}-seed{work.seed}.json"
    tracer.write(out, {"workload": work.name, "seed": work.seed, "graphs": graphs,
                       "traced_wall_s": traced_wall, "untraced_wall_s": plain_wall})
    emit(f"info traced {graphs} {work.item}s in {traced_wall:.3f} s, untraced "
         f"{plain_wall:.3f} s; spans in {out.relative_to(ROOT)}")
    rows = [(name, values[name], unit, graphs, "") for name, unit in per_layer_units().items()]
    return tally, rows, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wellcov" / "__init__.py").is_file():
        print(f"error: no wellcov sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    work = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    record = {
        "workload": work.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": platform.python_version(), "cpu_count": os.cpu_count(),
        "loadavg_start": os.getloadavg(), "params": work.params(),
    }
    if args.trace:
        tally, rows, _ = traced(work)
        reported = per_layer_units()
    else:
        tally, rows = measure(work, args.seconds)
        reported = END_TO_END
    for name, value, unit, samples, note in rows:
        kind = "metric" if name in reported else "info"
        emit(f"{kind} {name} {value:.6g} {unit} samples={samples} {note}".rstrip())
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _, _ in rows if name in reported}
    record["loadavg_end"] = os.getloadavg()
    emit("record " + json.dumps(record))

    digests = set(tally.digests)
    if len(digests) > 1:
        tally.problem(f"units of one run gave {len(digests)} different verdict digests")
    emit(f"digest {tally.digests[0] if tally.digests else None} units={len(tally.digests)}")
    for problem in tally.problems[:MAX_PROBLEMS_SHOWN]:
        emit(f"check FAIL {problem}")
    if len(tally.problems) > MAX_PROBLEMS_SHOWN:
        emit(f"check FAIL ... and {len(tally.problems) - MAX_PROBLEMS_SHOWN} more")
    correct = not tally.problems and tally.failed == 0
    emit(f"check {'ok' if correct else 'FAILED'}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
