"""Exact decision and optimization of ms/cms by pruned backtracking.

``exists_ordering`` places edges into positions 1..m depth-first, in one
loop over an explicit stack that holds the untried candidates of each
open position, so the depth of the search is not bounded by Python's
recursion limit.  A candidate for position p must be non-adjacent to the
edges at positions p-d+1 .. p-1; in cyclic mode the last d-1 positions
are additionally checked against the opening ones.  Adjacency is tested
through per-edge compatibility bitmasks, built once from per-vertex
incidence masks, so each node is a handful of integer ANDs.

Symmetry breaking, cyclic mode only, and rotation only: position 1 is
pinned to edge id 0.  Candidates are always tried in ascending edge id, so
completed searches are deterministic.

Nonexistence is reported only when the pruned tree has been exhausted;
running out of budget is a distinct status, never conflated with a
certificate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import InvalidTarget
from .graphs import Graph, max_matching_size
from .orderings import CYCLIC, LINEAR, EdgeOrdering, Mode, matching_number

VALUE_FOUND = "value_found"
NONEXISTENCE_CERTIFIED = "nonexistence_certified"
BUDGET_EXCEEDED = "budget_exceeded"

_BUDGET_CHECK_STRIDE = 4096


@dataclass(frozen=True)
class SolveBudget:
    max_nodes: int = 50_000_000
    max_seconds: float = 300.0

    def __post_init__(self):
        if self.max_nodes <= 0 or self.max_seconds <= 0:
            raise ValueError("budget limits must be positive")


@dataclass(frozen=True)
class SolveResult:
    status: str
    value: int | None
    witness: EdgeOrdering | None
    nodes_explored: int
    depth_histogram: tuple[int, ...] = ()
    elapsed_seconds: float = 0.0
    # smallest d certified nonexistent before the budget ran out, if any
    certified_upper: int | None = None

    def summary_dict(self) -> dict:
        return {
            "status": self.status,
            "value": self.value,
            "nodes": self.nodes_explored,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "depth_histogram": list(self.depth_histogram),
            "certified_upper": self.certified_upper,
        }


def exists_ordering(g: Graph, d: int, mode: Mode,
                    budget: SolveBudget = SolveBudget()) -> SolveResult:
    """Decide whether some ordering of g has matching number >= d.

    Returns a witness ordering on success (post-validated through the
    independent checker), a nonexistence certificate on full exhaustion,
    or a budget_exceeded result.
    """
    m = g.num_edges
    if m == 0:
        raise InvalidTarget("graph has no edges")
    if not (1 <= d <= m):
        raise InvalidTarget(f"target d={d} outside [1, {m}]")
    if mode not in (LINEAR, CYCLIC):
        raise InvalidTarget(f"bad mode {mode!r}")

    compat = _compat_masks(g)
    free = (1 << m) - 1
    cyclic = mode == CYCLIC
    lookback = d - 1
    max_nodes = budget.max_nodes

    seq: list[int] = []
    stack: list[int] = []  # untried candidates of positions 1..len(seq)
    # untried candidates of position len(seq)+1; cyclic mode pins edge 0
    # at position 1 (rotation breaking)
    cand = 1 if cyclic else free
    hist = [0] * m
    nodes = 0
    t0 = time.perf_counter()
    deadline = t0 + budget.max_seconds

    while cand or seq:
        if not cand:  # position exhausted: backtrack
            free |= 1 << seq.pop()
            cand = stack.pop()
            continue
        bit = cand & -cand
        stack.append(cand ^ bit)
        free ^= bit
        hist[len(seq)] += 1
        seq.append(bit.bit_length() - 1)
        nodes += 1
        if nodes > max_nodes or ((nodes == 1 or nodes % _BUDGET_CHECK_STRIDE == 0)
                                 and time.perf_counter() > deadline):
            return SolveResult(BUDGET_EXCEEDED, None, None, nodes,
                               tuple(hist), time.perf_counter() - t0)
        depth = len(seq)  # positions filled; position depth+1 is next
        if depth == m:
            break
        cand = free
        for e in seq[max(0, depth - lookback):]:
            cand &= compat[e]
        if cyclic:
            # the wrap: position depth+1 must also clear positions 1..depth+d-m
            for e in seq[:max(0, depth + d - m)]:
                cand &= compat[e]

    elapsed = time.perf_counter() - t0
    if len(seq) < m:
        return SolveResult(NONEXISTENCE_CERTIFIED, None, None, nodes,
                           tuple(hist), elapsed)
    witness = EdgeOrdering(g, tuple(seq), mode)
    checked = matching_number(witness).value
    if checked < d:  # independent checker must agree; a miss is a solver bug
        raise AssertionError(
            f"witness fails validation: checker value {checked} < target {d}")
    return SolveResult(VALUE_FOUND, d, witness, nodes, tuple(hist), elapsed)


def _compat_masks(g: Graph) -> list[int]:
    """compat[e] = bitmask of edges sharing no endpoint with e.

    Built from per-vertex incidence masks, so e itself and its parallel
    copies, which share both endpoints, are never compatible.
    """
    incident = [0] * g.order
    for e in g.edges:
        incident[e.u] |= 1 << e.id
        incident[e.v] |= 1 << e.id
    full = (1 << g.num_edges) - 1
    return [full & ~(incident[e.u] | incident[e.v]) for e in g.edges]


def _exact(g: Graph, mode: Mode, budget: SolveBudget) -> SolveResult:
    m = g.num_edges
    if m == 0:
        raise InvalidTarget("graph has no edges")
    upper = min(max_matching_size(g), m)
    t0 = time.perf_counter()
    nodes = 0
    hist: list[int] = [0] * m
    certified: int | None = None
    for d in range(upper, 1, -1):
        remaining = SolveBudget(
            max(1, budget.max_nodes - nodes),
            max(1e-9, budget.max_seconds - (time.perf_counter() - t0)))
        res = exists_ordering(g, d, mode, remaining)
        nodes += res.nodes_explored
        for i, c in enumerate(res.depth_histogram):
            hist[i] += c
        if res.status == VALUE_FOUND:
            return SolveResult(VALUE_FOUND, d, res.witness, nodes, tuple(hist),
                               time.perf_counter() - t0)
        if res.status == BUDGET_EXCEEDED:
            return SolveResult(BUDGET_EXCEEDED, None, None, nodes, tuple(hist),
                               time.perf_counter() - t0, certified_upper=certified)
        certified = d
    # every d >= 2 refuted (or the matching bound was 1): any ordering attains 1
    witness = EdgeOrdering(g, tuple(range(m)), mode)
    return SolveResult(VALUE_FOUND, 1, witness, nodes, tuple(hist),
                       time.perf_counter() - t0)


def ms_exact(g: Graph, budget: SolveBudget = SolveBudget()) -> SolveResult:
    """Exact matching sequencibility, searching d downward from the
    matching-number upper bound."""
    return _exact(g, LINEAR, budget)


def cms_exact(g: Graph, budget: SolveBudget = SolveBudget()) -> SolveResult:
    """Exact cyclic matching sequencibility."""
    return _exact(g, CYCLIC, budget)
