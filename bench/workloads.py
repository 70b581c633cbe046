"""The benchmark's workloads as fixed lists of ops, and the correctness gate.

Each workload is a closed loop: one caller runs its ops one at a time, in a
fixed order.  ``build_ops(workload, seed, scratch)`` makes the ops and their
inputs.  The seed picks the random hosts of ``solve_panel`` and the random
orderings and lookup order of ``large_hosts``; ``verify_sweep`` ignores it.

An op's ``run`` makes the timed calls into matchseq through a
:class:`spans.Tracer`.  Its ``check`` runs afterwards, outside the timed
region, and returns True when the op ended with a correct verdict, False
when it failed in an allowed way (a solver budget hit), and raises
:class:`WrongVerdict` for an answer that contradicts what is known.  An op
that raises counts as failed.  In a traced pass, ``probes`` runs extra
solver calls after the op; their spans carry a probe label.

Expected values come from ``catalog.predicted`` where a formula exists, and
otherwise from ``CERTIFIED``, values recorded from exhaustive solves.  For
random hosts only ``cms <= ms <= nu`` is known.  Every witness the solver
returns is re-checked by a gap sweep written here, and, when it has at most
40 edges, by ``orderings.matching_number_bruteforce``.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import pkgpath  # noqa: F401  (must precede the matchseq imports)
from matchseq import (catalog, cli, constructions, graphs, orderings, solver)
from matchseq.orderings import CYCLIC, LINEAR
from matchseq.solver import BUDGET_EXCEEDED, NONEXISTENCE_CERTIFIED, VALUE_FOUND

from spans import Tracer

WORKLOADS = ("solve_panel", "large_hosts", "verify_sweep")

# Values with no closed form in catalog.predicted, certified by exhaustive search.
CERTIFIED = {("complete_bipartite", (5, 5), CYCLIC): 4}

RANDOM_HOSTS = 2          # G(8, 16) hosts per solve_panel pass, each solved in both modes
K9_NODE_BUDGET = 500_000  # the K9 cyclic d=3 search hits this today
GENEROUS_SECONDS = 600.0  # budgets are node-based; seconds never bind
BRUTEFORCE_MAX_EDGES = 40
VERIFY_ARGS = {"max_complete": 8, "max_cycle": 16, "exact_up_to_edges": 16}

_UNTRACED = Tracer()


class WrongVerdict(Exception):
    """An op's answer contradicts its expected value."""


@dataclass
class Op:
    name: str
    run: Callable[[Tracer, dict], Any]
    check: Callable[[Any, dict], bool]
    inputs: Any = None
    probes: Callable[[Tracer, Any], None] | None = None


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise WrongVerdict(message)


# ---------------------------------------------------------------------------
# independent oracles

def gap_value(pairs, sequence, cyclic: bool) -> int:
    """Matching number of an ordering by one sweep over its positions.

    Two edges sharing a vertex at positions s < t sit in a common window
    of every size above t - s (and above m - (t - s) cyclically), so the
    value is the smallest such distance, or m when no two edges meet.
    """
    m = len(sequence)
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    best = m
    for t, eid in enumerate(sequence):
        for v in pairs[eid]:
            if v in last:
                best = min(best, t - last[v])
            else:
                first[v] = t
            last[v] = t
    if cyclic:
        for v, f in first.items():
            if last[v] != f:
                best = min(best, m - (last[v] - f))
    return best


def _matching_size(order: int, pairs) -> int:
    """Maximum matching size by branching on the lowest unmatched vertex."""
    neighbours = [set() for _ in range(order)]
    for a, b in pairs:
        neighbours[a].add(b)
        neighbours[b].add(a)
    memo: dict[frozenset, int] = {}

    def best(free: frozenset) -> int:
        if free not in memo:
            if not free:
                return 0
            v = min(free)
            rest = free - {v}
            memo[free] = max([best(rest)] + [1 + best(rest - {w})
                                             for w in neighbours[v] & rest])
        return memo[free]

    return best(frozenset(range(order)))


def _witness_value(name: str, w: orderings.EdgeOrdering) -> int:
    pairs = [(e.u, e.v) for e in w.graph.edges]
    value = gap_value(pairs, w.sequence, w.mode == CYCLIC)
    if w.length <= BRUTEFORCE_MAX_EDGES:
        brute = orderings.matching_number_bruteforce(w)
        _require(brute == value, f"{name}: window scan gives {brute}, gap sweep {value}")
    return value


def _predicted(family: str, params: tuple[int, ...], mode) -> int:
    key = (family, params, mode)
    return CERTIFIED[key] if key in CERTIFIED else \
        catalog.predicted(family, mode, params).value


# ---------------------------------------------------------------------------
# solver ops

def _host(fn, *args):
    """The graph-construction call of a host, made through the tracer."""
    return lambda tr: tr.call(f"graphs.{fn.__name__}", fn, *args)


def _probe(tr: Tracer, label: str, g, d: int, mode):
    with tr.probing(label):
        try:
            return tr.call("solver.exists_ordering", solver.exists_ordering, g, d, mode)
        except RecursionError:
            return None


def _exact_op(name: str, build, mode, bounds: Callable[[dict], tuple[int, int]],
              inputs=None) -> Op:
    """``ms_exact``/``cms_exact`` of a host; ``bounds(store)`` gives the
    lowest and highest correct value."""
    fn = solver.ms_exact if mode == LINEAR else solver.cms_exact

    def run(tr, store):
        return tr.call(f"solver.{fn.__name__}", fn, build(tr))

    def check(res, store):
        if res.status == BUDGET_EXCEEDED:
            return False
        lo, hi = bounds(store)
        _require(res.status == VALUE_FOUND and lo <= res.value <= hi,
                 f"{name}: solver answered {res.status} {res.value}, "
                 f"expected a value in [{lo}, {hi}]")
        got = _witness_value(name, res.witness)
        _require(got == res.value,
                 f"{name}: witness reaches {got}, not the claimed optimum {res.value}")
        store[name] = res.value
        return True

    def probes(tr, res):
        g = build(_UNTRACED)
        _probe(tr, "setup", g, 1, mode)
        if res is None or res.status != VALUE_FOUND:
            return
        found = _probe(tr, "find", g, res.value, mode)
        _require(found is not None and found.status == VALUE_FOUND,
                 f"{name}: find probe at d={res.value} failed")
        if res.value < min(graphs.max_matching_size(g), g.num_edges):
            refuted = _probe(tr, "refute", g, res.value + 1, mode)
            _require(refuted is not None and refuted.status == NONEXISTENCE_CERTIFIED,
                     f"{name}: refute probe at d={res.value + 1} did not certify")

    return Op(name, run, check, inputs, probes)


def _exists_op(name: str, build, d: int, mode, family: str, params: tuple[int, ...],
               budget: solver.SolveBudget = solver.SolveBudget(max_seconds=GENEROUS_SECONDS)) -> Op:
    """``exists_ordering`` at a target d that the family's known value
    reaches, so the correct verdict is a witness."""
    known = _predicted(family, params, mode)
    if d > known:
        raise ValueError(f"{name}: d={d} exceeds the known value {known}")

    def run(tr, store):
        return tr.call("solver.exists_ordering", solver.exists_ordering,
                       build(tr), d, mode, budget)

    def check(res, store):
        if res.status == BUDGET_EXCEEDED:
            return False
        _require(res.status == VALUE_FOUND,
                 f"{name}: solver answered {res.status}, but {family}{params} "
                 f"has a {mode} ordering of value {known}")
        got = _witness_value(name, res.witness)
        _require(got >= d, f"{name}: witness reaches {got} < {d}")
        return True

    def probes(tr, res):
        _probe(tr, "setup", build(_UNTRACED), 1, mode)

    return Op(name, run, check, None, probes)


def _known(family, params, mode):
    value = _predicted(family, params, mode)
    return lambda store: (value, value)


def _solve_panel(seed: int) -> list[Op]:
    doubled_k7 = lambda tr: tr.call("graphs.multiply", graphs.multiply,
                                    _host(graphs.complete, 7)(tr), 2)
    ops = [
        _exact_op("ms.K8", _host(graphs.complete, 8), LINEAR,
                  _known("complete", (8,), LINEAR)),
        _exact_op("ms.K5_5", _host(graphs.complete_bipartite, 5, 5), LINEAR,
                  _known("complete_bipartite", (5, 5), LINEAR)),
        _exact_op("ms.circulant3_6", _host(graphs.circulant3, 6), LINEAR,
                  _known("circulant3", (6,), LINEAR)),
        _exact_op("ms.C14", _host(graphs.cycle, 14), LINEAR,
                  _known("cycle", (14,), LINEAR)),
        _exact_op("cms.K8", _host(graphs.complete, 8), CYCLIC,
                  _known("complete", (8,), CYCLIC)),
        _exact_op("cms.K7", _host(graphs.complete, 7), CYCLIC,
                  _known("complete", (7,), CYCLIC)),
        _exact_op("cms.K5_5", _host(graphs.complete_bipartite, 5, 5), CYCLIC,
                  _known("complete_bipartite", (5, 5), CYCLIC)),
        _exact_op("cms.2K7", doubled_k7, CYCLIC, _known("doubled_complete", (7,), CYCLIC)),
        _exists_op("exists.K9_cyclic_d3", _host(graphs.complete, 9), 3, CYCLIC,
                   "complete", (9,), solver.SolveBudget(K9_NODE_BUDGET, GENEROUS_SECONDS)),
    ]
    rng = random.Random(seed)
    all_pairs = list(itertools.combinations(range(8), 2))
    for i in range(RANDOM_HOSTS):
        pairs = tuple(rng.sample(all_pairs, 16))
        edges = tuple(graphs.Edge(k, a, b) for k, (a, b) in enumerate(pairs))
        build = _host(graphs.Graph, 8, edges)
        ms_name = f"ms.random{i}"
        ops.append(_exact_op(ms_name, build, LINEAR,
                             lambda store, p=pairs: (1, _matching_size(8, p)), pairs))
        # cms <= ms, or <= nu when the ms op failed
        ops.append(_exact_op(f"cms.random{i}", build, CYCLIC,
                             lambda store, p=pairs, ms=ms_name:
                             (1, store.get(ms) or _matching_size(8, p)), pairs))
    return ops


# ---------------------------------------------------------------------------
# large_hosts ops

def _lookup_all(g, pairs):
    return [g.edge_ids_between(a, b) for a, b in pairs]


def _graph_ops(order: int, rng: random.Random) -> list[Op]:
    """Build K_order, look up every vertex pair in seeded order and
    orientation, and round-trip its edge list."""
    key = f"graphs.K{order}"  # op name prefix and store key
    pairs = [(a, b) if rng.random() < 0.5 else (b, a)
             for a, b in itertools.combinations(range(order), 2)]
    rng.shuffle(pairs)
    pairs = tuple(pairs)
    build = _host(graphs.complete, order)

    def run_build(tr, store):
        store[key] = build(tr)
        return store[key]

    def check_build(g, store):
        _require(g.order == order and g.num_edges == len(pairs),
                 f"{key}: built {g.order} vertices / {g.num_edges} edges")
        return True

    def run_lookup(tr, store):
        return tr.call("graphs.edge_ids_between", _lookup_all, store[key], pairs)

    def check_lookup(found, store):
        edges = store[key].edges
        for (a, b), ids in zip(pairs, found):
            _require(len(ids) == 1 and {edges[ids[0]].u, edges[ids[0]].v} == {a, b},
                     f"{key}: lookup of {{{a},{b}}} gave {ids}")
        return True

    def run_io(tr, store):
        text = tr.call("graphs.write_edge_list", graphs.write_edge_list, store[key])
        return tr.call("graphs.read_edge_list", graphs.read_edge_list, text)

    def check_io(g, store):
        _require(g == store[key], f"{key}: edge-list round trip changed the graph")
        return True

    return [Op(key, run_build, check_build),
            Op(f"{key}.lookup", run_lookup, check_lookup, pairs),
            Op(f"{key}.edgelist", run_io, check_io)]


def _construction_ops(key: str, fn, args, family: str, params, mode, m: int,
                      rng: random.Random) -> list[Op]:
    """Build a closed-form ordering, check it, and check a seeded random
    ordering of the same host."""
    value = _predicted(family, params, mode)
    perm = list(range(m))
    rng.shuffle(perm)
    perm = tuple(perm)
    swept: dict[str, int] = {}  # gap-sweep values, computed on the first pass

    def sweep(label, sequence, graph):
        if label not in swept:
            pairs = [(e.u, e.v) for e in graph.edges]
            swept[label] = gap_value(pairs, sequence, mode == CYCLIC)
        return swept[label]

    def run_build(tr, store):
        store[key] = tr.call(f"constructions.{fn.__name__}", fn, *args)
        return store[key]

    def check_build(o, store):
        _require(o.length == m and o.mode == mode,
                 f"{key}: got {o.length} edges in {o.mode} mode")
        return True

    def run_check(tr, store):
        return tr.call("orderings.matching_number", orderings.matching_number, store[key])

    def check_check(report, store):
        o = store[key]
        _require(report.value == value == sweep("built", o.sequence, o.graph),
                 f"{key}: checker gives {report.value}, known value {value}")
        return True

    def run_random(tr, store):
        o = tr.call("orderings.EdgeOrdering", orderings.EdgeOrdering,
                    store[key].graph, perm, mode)
        return tr.call("orderings.matching_number", orderings.matching_number, o)

    def check_random(report, store):
        expected = sweep("random", perm, store[key].graph)
        _require(report.value == expected <= value,
                 f"{key}: checker gives {report.value} on a random ordering, "
                 f"gap sweep {expected}, optimum {value}")
        return True

    return [Op(f"constructions.{key}", run_build, check_build),
            Op(f"orderings.{key}.check", run_check, check_check),
            Op(f"orderings.{key}.random", run_random, check_random, perm)]


def _ordering_io_op(key: str) -> Op:
    def run(tr, store):
        o = store[key]
        text = tr.call("orderings.write_ordering", orderings.write_ordering, o)
        return tr.call("orderings.read_ordering", orderings.read_ordering,
                       text, o.graph, o.mode)

    def check(parsed, store):
        _require(parsed.sequence == store[key].sequence,
                 f"{key}: ordering file round trip changed the sequence")
        return True

    return Op(f"orderings.{key}.io", run, check)


def _render_op(key: str, p: int, q: int) -> Op:
    rows, cols = list(range(p)), list(range(p, p + q))

    def run(tr, store):
        return tr.call("orderings.render_biadjacency", orderings.render_biadjacency,
                       store[key], rows, cols)

    def check(text, store):
        o = store[key]
        parsed = orderings.parse_biadjacency(text, o.graph, rows, cols, o.mode)
        _require(parsed.sequence == o.sequence, f"{key}: matrix view does not parse back")
        return True

    return Op(f"orderings.{key}.render", run, check)


def _matching_op(name: str, build, expected: int) -> Op:
    def run(tr, store):
        return tr.call("graphs.max_matching_size", graphs.max_matching_size, build(tr))

    def check(nu, store):
        _require(nu == expected, f"{name}: matching size {nu}, expected {expected}")
        return True

    return Op(name, run, check)


def _large_hosts(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = _graph_ops(400, rng)
    con = constructions
    ops += _construction_ops("K400", con.cms_complete_even, (200,),
                             "complete", (400,), CYCLIC, 79800, rng)
    ops.append(_ordering_io_op("K400"))
    ops += _construction_ops("K201", con.ms_complete_odd_walecki, (100,),
                             "complete", (201,), LINEAR, 20100, rng)
    ops += _construction_ops("2K101", con.cms_doubled_complete_odd, (50,),
                             "doubled_complete", (101,), CYCLIC, 10100, rng)
    ops.append(_ordering_io_op("2K101"))
    ops += _construction_ops("K100_200", con.ms_complete_bipartite, (100, 200),
                             "complete_bipartite", (100, 200), LINEAR, 20000, rng)
    ops.append(_render_op("K100_200", 100, 200))
    ops += _construction_ops("circulant3_20000", con.ms_circulant3, (20000,),
                             "circulant3", (20000,), CYCLIC, 60000, rng)
    ops += _construction_ops("C100000", con.cms_cycle, (100000,),
                             "cycle", (100000,), CYCLIC, 100000, rng)
    ops += _construction_ops("P100001", con.ms_path, (100001,),
                             "path", (100001,), LINEAR, 100000, rng)
    # Exact solves decided by the matching bound: one greedy descent, m nodes.
    ops += [
        # nu(K_{p,q}) = min(p, q)
        _matching_op("graphs.K12_13.matching", _host(graphs.complete_bipartite, 12, 13), 12),
        _exact_op("cms.C601", _host(graphs.cycle, 601), CYCLIC, _known("cycle", (601,), CYCLIC)),
        _exact_op("ms.C601", _host(graphs.cycle, 601), LINEAR, _known("cycle", (601,), LINEAR)),
        _exact_op("ms.K12_13", _host(graphs.complete_bipartite, 12, 13), LINEAR,
                  _known("complete_bipartite", (12, 13), LINEAR)),
        _exists_op("exists.P600_linear_d299", _host(graphs.path, 600), 299, LINEAR,
                   "path", (600,)),
        # Past the default recursion limit: raises RecursionError today.
        _exists_op("exists.C1201_cyclic_d600", _host(graphs.cycle, 1201), 600, CYCLIC,
                   "cycle", (1201,)),
    ]
    return ops


# ---------------------------------------------------------------------------
# verify_sweep

_CASE = re.compile(r"(\w+)\(([\d,]+)\) (linear|cyclic)")


def _verify_sweep(json_out: Path) -> list[Op]:
    argv = ["verify", "--max-complete", str(VERIFY_ARGS["max_complete"]),
            "--max-cycle", str(VERIFY_ARGS["max_cycle"]),
            "--exact-up-to-edges", str(VERIFY_ARGS["exact_up_to_edges"]),
            "--json-out", str(json_out)]
    rechecked: set[str] = set()  # constructions already run through the oracle

    def run(tr, store):
        with redirect_stdout(io.StringIO()):
            return tr.call("cli.main", cli.main, argv)

    def check(code, store):
        report = json.loads(json_out.read_text(encoding="utf-8"))
        rows = store["verify_rows"] = report["rows"]
        _require(code == 0 and report["all_pass"] and rows,
                 f"verify exited {code}, all_pass={report['all_pass']}")
        for row in rows:
            match = _CASE.fullmatch(row["case"])
            _require(match is not None, f"unparsable verify case {row['case']!r}")
            family, params, mode = match[1], tuple(map(int, match[2].split(","))), match[3]
            value = catalog.predicted(family, mode, params).value
            _require(row["predicted"] == row["constructed"] == value
                     and row["exact"] in (None, value),
                     f"verify row {row['case']}: {row}, known value {value}")
            if row["case"] not in rechecked:
                rechecked.add(row["case"])
                o = constructions.family_ordering(family, params, mode)
                if o.length <= BRUTEFORCE_MAX_EDGES:
                    _require(orderings.matching_number_bruteforce(o) == value,
                             f"{row['case']}: construction fails the window scan")
        return True

    def probes(tr, code):
        with tr.probing("verify"):
            tr.call("catalog.verify_families", lambda: catalog.verify_families(**VERIFY_ARGS))

    return [Op("cli.verify", run, check, argv, probes)]


def build_ops(workload: str, seed: int, scratch: Path) -> list[Op]:
    """The ops of one pass.  ``scratch`` is where verify writes its JSON."""
    if workload == "solve_panel":
        return _solve_panel(seed)
    if workload == "large_hosts":
        return _large_hosts(seed)
    if workload == "verify_sweep":
        return _verify_sweep(scratch / f"verify-{os.getpid()}.json")
    raise ValueError(f"unknown workload {workload!r}")
