"""Spans around the benchmark's calls into matchseq, and the per-layer metrics.

A :class:`Tracer` wraps every call a workload makes into the package.  While
``on`` is false it calls straight through; while true it records a span
(name, start, end, parent op span, op id, probe label, a work count and a
status) and keeps it in memory until the run writes the trace file.

:func:`layer_metrics` turns the spans of one traced pass into the per-layer
metrics listed in ``PER_LAYER``, with times in the reference seconds each
span's ``scale`` gives.  A layer that the workload never calls reports 0
for each of its metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

import pkgpath  # noqa: F401  (must precede the matchseq imports)
from matchseq import EdgeOrdering, Graph, MatchingNumberReport, SolveResult
from matchseq.solver import BUDGET_EXCEEDED

GRAPH_FACTORIES = frozenset({
    "graphs.Graph", "graphs.complete", "graphs.complete_bipartite",
    "graphs.cycle", "graphs.path", "graphs.circulant3", "graphs.multiply"})
SOLVER_CALLS = frozenset({
    "solver.ms_exact", "solver.cms_exact", "solver.exists_ordering"})

# solve_panel ops whose node counts are reported one by one
PANEL_OPS = (
    "ms.K8", "ms.K5_5", "ms.circulant3_6", "ms.C14",
    "cms.K8", "cms.K7", "cms.K5_5", "cms.2K7", "exists.K9_cyclic_d3",
    "ms.random0", "cms.random0", "ms.random1", "cms.random1")

# (name, unit, better); counts must repeat exactly between traced passes
PER_LAYER = (
    ("graphs.build_s", "s", "lower"),
    ("graphs.edges_built", "count", "higher"),
    ("graphs.lookup_s", "s", "lower"),
    ("graphs.edgelist_io_s", "s", "lower"),
    ("graphs.matching_s", "s", "lower"),
    ("graphs.matching_calls", "count", "higher"),
    ("constructions.build_s", "s", "lower"),
    ("constructions.edges", "count", "higher"),
    ("constructions.edges_per_s", "1/s", "higher"),
    ("orderings.check_s", "s", "lower"),
    ("orderings.checked_edges", "count", "higher"),
    ("orderings.check_edges_per_s", "1/s", "higher"),
    ("orderings.io_s", "s", "lower"),
    ("orderings.render_s", "s", "lower"),
    ("solver.search_s", "s", "lower"),
    ("solver.setup_s", "s", "lower"),
    ("solver.nodes", "count", "lower"),
    ("solver.nodes_per_s", "1/s", "higher"),
    ("solver.nodes_find", "count", "lower"),
    ("solver.nodes_refute", "count", "lower"),
    ("solver.nodes_budget", "count", "lower"),
    ("solver.decided_ratio", "ratio", "higher"),
    *((f"solver.nodes.{op}", "count", "lower") for op in PANEL_OPS),
    ("catalog.verify_s", "s", "lower"),
    ("catalog.rows", "count", "higher"),
    ("catalog.exact_rows", "count", "higher"),
    ("catalog.exact_row_s", "s", "lower"),
    ("catalog.nodes", "count", "lower"),
    ("cli.main_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing op span in the run's span list
    op: int              # position of the op in the pass
    probe: str | None    # "setup", "find", "refute" or "verify" for probe calls
    count: int           # edges built, edges checked, or nodes searched
    status: str
    scale: float = 1.0   # reference seconds per raw second, set after the pass

    @property
    def seconds(self) -> float:
        return (self.end - self.start) * self.scale


def _count(result, args) -> int:
    if isinstance(result, Graph):
        return result.num_edges
    if isinstance(result, EdgeOrdering):
        return result.length
    if isinstance(result, SolveResult):
        return result.nodes_explored
    if isinstance(result, MatchingNumberReport):
        return args[0].length
    if isinstance(result, list):
        return len(result)
    return 0


class Tracer:
    def __init__(self):
        self.on = False
        self.spans: list[Span] = []
        self._op = -1
        self._parent: int | None = None
        self._probe: str | None = None

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)``, recording a span named after the package
        function when tracing is on."""
        if not self.on:
            return fn(*args)
        result = None
        status = "ok"
        start = time.perf_counter()
        try:
            result = fn(*args)
            if isinstance(result, SolveResult):
                status = result.status
            return result
        except Exception as exc:
            status = type(exc).__name__
            raise
        finally:
            self.spans.append(Span(name, start, time.perf_counter(), self._parent,
                                   self._op, self._probe, _count(result, args),
                                   status))

    @contextmanager
    def op(self, index: int, name: str):
        """Enclose the calls of one op in an op span (tracing on only)."""
        if not self.on:
            yield
            return
        self._op = index
        self._parent = len(self.spans)
        span = Span(f"op:{name}", time.perf_counter(), 0.0, None, index, None, 0, "ok")
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._parent = None

    @contextmanager
    def probing(self, label: str):
        self._probe = label
        try:
            yield
        finally:
            self._probe = None


def layer_metrics(spans: list[Span], op_names: list[str], decided: list[bool],
                  verify_rows: list[dict] | None) -> dict[str, float]:
    """Per-layer metrics of one traced pass (without the trace.* entries).

    ``op_names`` and ``decided`` are indexed by op position; ``verify_rows``
    are the JSON rows written by ``matchseq verify`` when the pass ran it.
    """
    def total(names, probe=None, attr="seconds"):
        return sum(getattr(s, attr) for s in spans
                   if s.name in names and s.probe == probe)

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    solver_spans = [s for s in spans if s.name in SOLVER_CALLS and s.probe is None]
    solver_ops = sorted({s.op for s in solver_spans})
    made = {s.name for s in spans if s.name.startswith("constructions.")}
    build_s, built = total(made), total(made, attr="count")
    check_s = total({"orderings.matching_number"})
    checked = total({"orderings.matching_number"}, attr="count")
    search_s = sum(s.seconds for s in solver_spans)
    nodes = sum(s.count for s in solver_spans)
    verify_s = total({"catalog.verify_families"}, probe="verify")
    rows = verify_rows or []
    row_scale = next((s.scale for s in spans if s.name == "cli.main"), 1.0)
    out = {
        "graphs.build_s": total(GRAPH_FACTORIES),
        "graphs.edges_built": total(GRAPH_FACTORIES, attr="count"),
        "graphs.lookup_s": total({"graphs.edge_ids_between"}),
        "graphs.edgelist_io_s": total({"graphs.write_edge_list", "graphs.read_edge_list"}),
        "graphs.matching_s": total({"graphs.max_matching_size"}),
        "graphs.matching_calls": sum(1 for s in spans if s.name == "graphs.max_matching_size"
                                     and s.probe is None),
        "constructions.build_s": build_s,
        "constructions.edges": built,
        "constructions.edges_per_s": rate(built, build_s),
        "orderings.check_s": check_s,
        "orderings.checked_edges": checked,
        "orderings.check_edges_per_s": rate(checked, check_s),
        "orderings.io_s": total({"orderings.write_ordering", "orderings.read_ordering"}),
        "orderings.render_s": total({"orderings.render_biadjacency"}),
        "solver.search_s": search_s,
        "solver.setup_s": total(SOLVER_CALLS, probe="setup"),
        "solver.nodes": nodes,
        "solver.nodes_per_s": rate(nodes, search_s),
        "solver.nodes_find": total(SOLVER_CALLS, probe="find", attr="count"),
        "solver.nodes_refute": total(SOLVER_CALLS, probe="refute", attr="count"),
        "solver.nodes_budget": sum(s.count for s in solver_spans
                                   if s.status == BUDGET_EXCEEDED),
        "solver.decided_ratio": (sum(decided[i] for i in solver_ops) / len(solver_ops)
                                 if solver_ops else 0.0),
        "catalog.verify_s": verify_s,
        "catalog.rows": len(rows),
        "catalog.exact_rows": sum(1 for r in rows if r["exact"] is not None),
        "catalog.exact_row_s": sum(r["runtime_ms"] for r in rows
                                   if r["exact"] is not None) / 1000.0 * row_scale,
        "catalog.nodes": sum(r["nodes"] for r in rows),
        "cli.main_s": (total({"cli.main"}) - verify_s) if verify_rows is not None else 0.0,
    }
    per_op = {op_names[s.op]: s.count for s in solver_spans}
    for name in PANEL_OPS:
        out[f"solver.nodes.{name}"] = per_op.get(name, 0)
    return out
