"""Per-layer tracing from outside the program.

Every public boundary listed in LAYERS is wrapped for the duration of
a traced run by rebinding the name in each `wellcov` module that holds
it (the defining module and every module that imported it), and put
back afterwards.  `Graph` and `VertexSet` are counted at their
validating `__post_init__`, which is rebound on the class.

Each wrapped call records its duration and self time (duration minus
the time of wrapped calls made inside it) under the pair (name,
parent name).  Route-level calls (layers in SPAN_LAYERS) and the
benchmark's top-level jobs also keep a span (name, start, end, parent
name, top-level id) in memory; spans are written out after the run.
The constructor boundaries fire millions of times in the catalog
sweep, so they keep only the aggregates.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

LAYERS = {
    "graph6": ("decode", "encode"),
    "catalog": ("graph_from_pair_mask",),
    "graphs": ("Graph", "complement", "delete_edge", "induced_subgraph"),
    "bitset": ("VertexSet",),
    "independence": (
        "maximal_independent_set_masks", "independent_set_masks",
        "independent_masks_of_size", "independence_number", "profile",
        "is_well_covered",
    ),
    "wp": (
        "is_in_wp_oracle", "is_in_wp_ridge", "is_in_wp_localization",
        "wp_oracle_counterexample", "w_index", "is_alpha_critical_direct",
        "non_critical_edge", "is_alpha_critical_fibers", "main_theorem_report",
        "gorenstein_combinatorial_check",
    ),
    "saturation": (
        "is_kt_saturated", "maximal_clique_sizes_uniform", "min_clique_codegree",
        "clique_codegree", "alpha2_check", "alpha3_check", "bound_report",
    ),
    "verify": ("equivalence_discrepancies", "corollary_discrepancies", "sweep_catalog"),
    "families": ("generate",),
    "cli": ("main",),
}
CLASSES = {"Graph", "VertexSet"}
SPAN_LAYERS = {"wp", "verify", "cli"}
# Distinct (n, adj) inputs are counted for these, per top-level job.
DISTINCT = ("independence.profile", "independence.maximal_independent_set_masks")
# Catalog graphs are not visible from outside the sweep; each call of
# this boundary starts the next one.
GRAPH_MARKER = "catalog.graph_from_pair_mask"
MAX_SPANS = 200_000
TOP = "bench"


def boundary_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []
        # (name, parent name) -> [calls, duration, self time]
        self.agg: dict[tuple[str, str | None], list] = {}
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.top_id = 0
        self.distinct_seen = {key: set() for key in DISTINCT}
        self.distinct_total = dict.fromkeys(DISTINCT, 0)
        self.rebound: list[tuple[object, str, object]] = []

    def _wrap(self, key: str, fn, *, span: bool, distinct: bool, marker: bool):
        stack, agg, spans, clock = self.stack, self.agg, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if marker:
                self.new_top()
            if distinct:
                g = args[0]
                self.distinct_seen[key].add((g.n, g.adj))
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += duration
                rec = agg.get((key, parent))
                if rec is None:
                    rec = agg[(key, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += duration
                rec[2] += duration - frame[1]
                if span:
                    if len(spans) < MAX_SPANS:
                        spans.append((key, start, end, parent, self.top_id))
                    else:
                        self.spans_dropped += 1
        return traced

    def new_top(self) -> None:
        """Close the current top-level job's distinct-input counts."""
        for key, seen in self.distinct_seen.items():
            self.distinct_total[key] += len(seen)
            seen.clear()
        self.top_id += 1

    def top_level(self, name: str, fn):
        """Wrap one of the benchmark's own jobs as a top-level span."""
        return self._wrap(f"{TOP}.{name}", fn, span=True, distinct=False, marker=True)

    @contextmanager
    def installed(self):
        """Rebind every boundary for the duration of the block."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "wellcov" or name.startswith("wellcov.")]
        try:
            for layer, names in LAYERS.items():
                home = importlib.import_module(f"wellcov.{layer}")
                for name in names:
                    key = f"{layer}.{name}"
                    opts = dict(span=layer in SPAN_LAYERS, distinct=key in DISTINCT,
                                marker=key == GRAPH_MARKER)
                    if name in CLASSES:
                        cls = getattr(home, name)
                        original = cls.__dict__["__post_init__"]
                        self.rebound.append((cls, "__post_init__", original))
                        setattr(cls, "__post_init__", self._wrap(key, original, **opts))
                        continue
                    original = getattr(home, name)
                    wrapper = self._wrap(key, original, **opts)
                    for module in modules:
                        if vars(module).get(name) is original:
                            self.rebound.append((module, name, original))
                            setattr(module, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(self.rebound):
                setattr(owner, name, original)
            self.new_top()

    def totals(self) -> dict[str, list]:
        """name -> [calls, duration, self time], summed over parents."""
        out: dict[str, list] = {}
        for (name, _), (calls, duration, self_time) in self.agg.items():
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += duration
            rec[2] += self_time
        return out

    def program_self_time(self) -> float:
        return sum(rec[2] for name, rec in self.totals().items()
                   if not name.startswith(TOP + "."))

    def write(self, path: Path, header: dict) -> None:
        """Spans and per-(name, parent) aggregates as one JSON file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        body = {
            **header,
            "spans_kept": len(self.spans),
            "spans_dropped": self.spans_dropped,
            "span_fields": ["name", "start", "end", "parent", "top"],
            "aggregates": [
                {"name": name, "parent": parent, "calls": rec[0],
                 "duration_s": rec[1], "self_s": rec[2]}
                for (name, parent), rec in sorted(
                    self.agg.items(), key=lambda item: (item[0][0], item[0][1] or ""))
            ],
            "spans": self.spans,
        }
        path.write_text(json.dumps(body, separators=(",", ":")) + "\n")
