"""Closed-form value tables, the verification harness, and experiment drivers.

``predicted`` returns the known ms/cms value of a family instance,
``verify_families`` cross-checks construction output against those values
(and, on small instances, against the exact solver), and the ``explore_*``
functions produce raw data for the open questions about multigraph copies,
the ms-cms gap, and doubled graphs.  Explorers are data producers, not
theorem provers: rows that run out of budget are flagged unresolved rather
than extrapolated.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .constructions import FAMILIES, FamilySpec, family_ordering
from .errors import InvalidFamilyParams, NoKnownFormula
from .graphs import (Graph, _graph_from_pairs, attach_pendants, degrees,
                     is_connected, is_tree, max_matching_size, multiply)
from .orderings import LINEAR, MODES, Mode, matching_number
from .solver import SolveBudget, cms_exact, ms_exact


@dataclass(frozen=True)
class PredictedValue:
    family: str
    params: tuple[int, ...]
    mode: Mode
    value: int
    provenance: str


def predicted(family: str | FamilySpec, mode: Mode,
              params: tuple[int, ...] | None = None) -> PredictedValue:
    """Known value for a family/mode, or NoKnownFormula.

    Accepts a FamilySpec or a family name plus params, and looks the value
    up in the family registry (``constructions.FAMILIES``).  Parameters out
    of the family's bounds raise InvalidFamilyParams.  A formula value below
    1 is reported as 1: it marks a host with no two disjoint edges, where
    1 <= cms <= ms <= nu = 1.
    """
    if isinstance(family, FamilySpec):
        family, params = family.family, family.params
    if params is None:
        raise ValueError("params required when family is given by name")
    if family not in FAMILIES:
        raise NoKnownFormula(f"no formula table for family {family!r}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    record = FAMILIES[family]
    record.check(params)
    value, provenance = record.formula(*params, mode)
    if value < 1:
        value, provenance = 1, "nu = 1: no two edges are disjoint, so cms = ms = 1"
    return PredictedValue(family, params, mode, value, provenance)


# ---------------------------------------------------------------------------
# verification harness

@dataclass(frozen=True)
class VerificationRow:
    """One checked instance.

    ``status`` is ``pass`` when every value computed agrees with the
    prediction and the exact cross-check, if one was due, finished;
    ``unresolved`` when nothing disagrees but the exact solve ran out of
    budget; ``fail`` otherwise.
    """

    family: str
    params: tuple[int, ...]
    mode: Mode
    predicted: int
    constructed: int
    exact: int | None
    status: str
    citation: str
    runtime_ms: float
    nodes: int

    @property
    def case(self) -> str:
        return f"{self.family}({','.join(map(str, self.params))}) {self.mode}"

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def unresolved(self) -> bool:
        return self.status == "unresolved"

    def to_json_obj(self) -> dict:
        return {
            "case": self.case,
            "predicted": self.predicted,
            "constructed": self.constructed,
            "exact": self.exact,
            "status": self.status,
            "citation": self.citation,
            "runtime_ms": round(self.runtime_ms, 3),
            "nodes": self.nodes,
        }


_STATUS_TEXT = {"pass": "pass", "fail": "FAIL", "unresolved": "UNRES"}


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[VerificationRow, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def failed(self) -> bool:
        """True iff some row's values disagree with the prediction."""
        return any(r.status == "fail" for r in self.rows)

    @property
    def unresolved(self) -> int:
        """Rows whose exact cross-check ran out of budget."""
        return sum(r.unresolved for r in self.rows)

    def to_json_obj(self) -> dict:
        return {"all_pass": self.all_pass,
                "rows": [r.to_json_obj() for r in self.rows]}

    def to_text(self) -> str:
        header = f"{'case':<28} {'pred':>4} {'built':>5} {'exact':>5} {'status':<6} {'ms':>8} {'nodes':>9}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            exact = "-" if r.exact is None else str(r.exact)
            lines.append(
                f"{r.case:<28} {r.predicted:>4} {r.constructed:>5} {exact:>5} "
                f"{_STATUS_TEXT[r.status]:<6} {r.runtime_ms:>8.1f} {r.nodes:>9}")
        if self.failed:
            verdict = "FAILURES PRESENT"
        elif self.unresolved:
            verdict = f"{self.unresolved} UNRESOLVED (exact solve out of budget)"
        else:
            verdict = "all pass"
        lines.append(f"{len(self.rows)} cases, {verdict}")
        return "\n".join(lines) + "\n"


def _run_case(family: str, params: tuple[int, ...], mode: Mode,
              exact_up_to_edges: int, budget: SolveBudget) -> VerificationRow:
    started = time.perf_counter()
    pred = predicted(family, mode, params)
    ordering = family_ordering(family, params, mode)
    constructed = matching_number(ordering).value
    exact = None
    nodes = 0
    cross_checked = ordering.length <= exact_up_to_edges
    if cross_checked:
        # the construction is a checked witness: search only above its value
        solve = ms_exact if mode == LINEAR else cms_exact
        res = solve(ordering.graph, budget, seed=ordering)
        nodes, exact = res.nodes_explored, res.value
    agrees = constructed == pred.value and exact in (None, pred.value)
    out_of_budget = cross_checked and exact is None  # ms, cms >= 1 always exist
    status = "fail" if not agrees else "unresolved" if out_of_budget else "pass"
    return VerificationRow(family, params, mode, pred.value, constructed, exact,
                           status, pred.provenance,
                           (time.perf_counter() - started) * 1000.0, nodes)


def verify_families(max_complete: int = 8, max_cycle: int = 16,
                    max_bipartite: int = 8, max_circulant: int = 8,
                    doubled_ms: tuple[int, ...] = (2, 3),
                    exact_up_to_edges: int = 12,
                    budget: SolveBudget = SolveBudget()) -> VerificationReport:
    """Check constructed value == predicted for every family in range.

    Each registry family picks its instances from the range arguments and
    is checked in both modes.  Instances with at most ``exact_up_to_edges``
    edges are additionally solved exactly and must agree.  That solve is
    seeded with the construction, whose value the checker has just read,
    so it searches only the targets above that value, from the matching
    bound down.  On every row up to 16 edges the bound is at most
    predicted+1: one refutation, or none.  A formula that is too low fails
    that refutation; one that is too high fails the construction check.
    Rows are sorted by family, parameters and mode.
    """
    limits = dict(max_complete=max_complete, max_cycle=max_cycle,
                  max_bipartite=max_bipartite, max_circulant=max_circulant,
                  doubled_ms=doubled_ms)
    rows = [_run_case(record.name, params, mode, exact_up_to_edges, budget)
            for record in FAMILIES.values()
            for params in record.verify_params(**limits)
            for mode in MODES]
    rows.sort(key=lambda r: (r.family, r.params, r.mode))
    return VerificationReport(tuple(rows))


# ---------------------------------------------------------------------------
# pendant-edge lemma (trees)

@dataclass(frozen=True)
class PendantLemmaReport:
    order: int
    vertex: int
    linear_pendants: int
    linear_value: int | None
    cyclic_pendants: int
    cyclic_value: int | None

    @property
    def passed(self) -> bool:
        return self.linear_value == 1 and self.cyclic_value == 1


def pendant_lemma_check(tree: Graph, vertex: int | None = None,
                        budget: SolveBudget = SolveBudget()) -> PendantLemmaReport:
    """Exact check that n+1 pendants force ms = 1 and n+2 force cms = 1.

    Scoped to trees: with m = n-1 original edges the pendant edges always
    outnumber them, so some two pendants (which all share the chosen
    vertex) must sit in one window.  The pendants attach to the
    maximum-degree vertex unless one is given.
    """
    if not is_tree(tree):
        raise InvalidFamilyParams("pendant_lemma_check requires a tree")
    n = tree.order
    if vertex is None:
        deg = degrees(tree)
        vertex = max(range(n), key=lambda v: (deg[v], -v))
    lin_val = ms_exact(attach_pendants(tree, vertex, n + 1), budget).value
    cyc_val = cms_exact(attach_pendants(tree, vertex, n + 2), budget).value
    return PendantLemmaReport(n, vertex, n + 1, lin_val, n + 2, cyc_val)


# ---------------------------------------------------------------------------
# open-question explorers
#
# Each explorer's budget covers the whole call: it takes one deadline when
# it starts, every exact solve gets the seconds left, and a cell whose turn
# comes after the deadline stays None without solving (or building its host).

def _value_by(deadline: float, solve, g: Graph, budget: SolveBudget) -> int | None:
    """solve(g).value under budget's node cap and the seconds left before
    ``deadline``; None, without solving, once it has passed."""
    left = deadline - time.perf_counter()
    return solve(g, SolveBudget(budget.max_nodes, left)).value if left > 0 else None


@dataclass(frozen=True)
class Q1Row:
    k: int
    ms_value: int | None
    cms_value: int | None
    ms_reached: bool | None
    cms_reached: bool | None

    @property
    def resolved(self) -> bool:
        return self.ms_value is not None and self.cms_value is not None


@dataclass(frozen=True)
class Q1Result:
    matching_number: int
    rows: tuple[Q1Row, ...]


def explore_q1(g: Graph, k_max: int, budget: SolveBudget = SolveBudget()) -> Q1Result:
    """Exact ms/cms of kG for k = 1..k_max, flagging whether the matching
    number of g is reached."""
    if k_max < 1:
        raise InvalidFamilyParams(f"explore_q1 needs k_max >= 1, got {k_max}")
    deadline = time.perf_counter() + budget.max_seconds
    p = max_matching_size(g)
    rows = []
    for k in range(1, k_max + 1):
        if time.perf_counter() >= deadline:
            rows.append(Q1Row(k, None, None, None, None))
            continue
        gk = multiply(g, k)
        ms = _value_by(deadline, ms_exact, gk, budget)
        cms = _value_by(deadline, cms_exact, gk, budget)
        rows.append(Q1Row(k, ms, cms, None if ms is None else ms == p,
                          None if cms is None else cms == p))
    return Q1Result(p, tuple(rows))


@dataclass(frozen=True)
class Q2Row:
    edges: tuple[tuple[int, int], ...]
    ms_value: int | None
    cms_value: int | None

    @property
    def resolved(self) -> bool:
        return self.ms_value is not None and self.cms_value is not None

    @property
    def gap(self) -> int | None:
        if self.ms_value is None or self.cms_value is None:
            return None
        return self.ms_value - self.cms_value


@dataclass(frozen=True)
class Q2Result:
    n_max: int
    rows: tuple[Q2Row, ...]
    partial: bool

    @property
    def max_gap(self) -> int:
        gaps = [r.gap for r in self.rows if r.gap is not None]
        return max(gaps, default=0)

    @property
    def witnesses(self) -> tuple[Q2Row, ...]:
        top = self.max_gap
        return tuple(r for r in self.rows if r.gap == top)


def _canonical_edge_subsets(n: int):
    """Yield one representative edge set per isomorphism class on n labels.

    A subset is kept iff its edge bitmask is minimal over all vertex
    permutations.  So each one uses exactly the vertices 0..k-1 for some
    k: moving the edges of a vertex v onto an isolated vertex u < v sends
    each edge to an earlier pair and so lowers the mask.
    """
    pairs = list(itertools.combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    perm_maps = []
    for perm in itertools.permutations(range(n)):
        perm_maps.append(tuple(index[tuple(sorted((perm[u], perm[v])))]
                               for u, v in pairs))
    for mask in range(1, 1 << len(pairs)):
        members = [i for i in range(len(pairs)) if mask >> i & 1]
        minimal = True
        for pm in perm_maps:
            mapped = 0
            for i in members:
                mapped |= 1 << pm[i]
            if mapped < mask:
                minimal = False
                break
        if minimal:
            yield [pairs[i] for i in members]


def explore_q2(n_max: int, budget: SolveBudget = SolveBudget(),
               connected_only: bool = False) -> Q2Result:
    """Exhaust graphs on at most n_max vertices and report the largest
    ms - cms gap with every extremal witness."""
    if n_max > 7:
        raise InvalidFamilyParams("explore_q2 enumerates up to 7 vertices")
    if n_max < 2:
        raise InvalidFamilyParams(f"explore_q2 needs n_max >= 2, got {n_max}")
    deadline = time.perf_counter() + budget.max_seconds
    rows = []
    partial = False
    for pair_list in _canonical_edge_subsets(n_max):
        if time.perf_counter() >= deadline:
            partial = True
            break
        # the class spans vertices 0..k-1, see _canonical_edge_subsets
        g = _graph_from_pairs(1 + max(v for _, v in pair_list), pair_list)
        if connected_only and not is_connected(g):
            continue
        row = Q2Row(tuple(pair_list), _value_by(deadline, ms_exact, g, budget),
                    _value_by(deadline, cms_exact, g, budget))
        partial = partial or not row.resolved
        rows.append(row)
    return Q2Result(n_max, tuple(rows), partial)


@dataclass(frozen=True)
class Q3Result:
    ms_single: int | None
    cms_doubled: int | None

    @property
    def resolved(self) -> bool:
        return self.ms_single is not None and self.cms_doubled is not None

    @property
    def equal(self) -> bool | None:
        if not self.resolved:
            return None
        return self.ms_single == self.cms_doubled


def explore_q3(g: Graph, budget: SolveBudget = SolveBudget()) -> Q3Result:
    """Compare cms(2G) with ms(G), both exact."""
    deadline = time.perf_counter() + budget.max_seconds
    return Q3Result(_value_by(deadline, ms_exact, g, budget),
                    _value_by(deadline, cms_exact, multiply(g, 2), budget))
