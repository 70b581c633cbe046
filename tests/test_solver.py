import itertools
import random
import tracemalloc
from types import SimpleNamespace

import pytest

from matchseq import (BUDGET_EXCEEDED, CYCLIC, LINEAR, NONEXISTENCE_CERTIFIED,
                      EdgeOrdering, SolveBudget, VALUE_FOUND, attach_pendants,
                      circulant3, cms_exact, complete, complete_bipartite, cycle,
                      exists_ordering, matching_number, max_matching_size,
                      multiply, ms_exact, path, with_mode)
from matchseq import solver
from matchseq.catalog import _canonical_edge_subsets
from matchseq.constructions import family_ordering
from matchseq.errors import InvalidOrdering, InvalidTarget
from matchseq.graphs import Edge, Graph, _graph_from_pairs, degrees
from matchseq.solver import (_GREEDY_SCANS, _first_window, _greedy_restarts, _spacing,
                             _tables, _window_rule)


def _restarts(g, d, cyclic):
    """The greedy restarts with the tables, degrees and room that
    ``_search`` hands them; d must leave ``_spacing`` a tree."""
    degree = degrees(g)
    return _greedy_restarts(g, d, cyclic, _tables(g)[0], degree,
                            _spacing(g, d, cyclic, degree))


def test_k5_cyclic_d2_nonexistence():
    res = exists_ordering(complete(5), 2, CYCLIC)
    assert res.status == NONEXISTENCE_CERTIFIED
    assert res.witness is None and res.value is None
    assert res.nodes_explored > 0


def test_k5_linear_d2_witness():
    res = exists_ordering(complete(5), 2, LINEAR)
    assert res.status == VALUE_FOUND
    assert matching_number(res.witness).value >= 2


def test_single_edge_d1_both_modes():
    g = path(2)
    for mode in (LINEAR, CYCLIC):
        res = exists_ordering(g, 1, mode)
        assert res.status == VALUE_FOUND
        assert res.witness.sequence == (0,)


def test_k7_cyclic_d3_nonexistence():
    res = exists_ordering(complete(7), 3, CYCLIC, SolveBudget(5_000_000, 120.0))
    assert res.status == NONEXISTENCE_CERTIFIED


@pytest.mark.parametrize("n,want", [(3, 1), (4, 1), (5, 1), (6, 2)])
def test_cms_exact_small_complete(n, want):
    res = cms_exact(complete(n))
    assert res.status == VALUE_FOUND and res.value == want
    assert matching_number(res.witness).value == want


@pytest.mark.parametrize("n", range(3, 8))
def test_ms_exact_complete(n):
    res = ms_exact(complete(n))
    assert res.value == (n - 1) // 2


def test_paths_and_cycles():
    assert ms_exact(path(7)).value == 3
    assert cms_exact(path(7)).value == 2
    assert ms_exact(cycle(5)).value == 2
    assert cms_exact(cycle(5)).value == 2


def test_multigraph_doubled_k5():
    res = cms_exact(multiply(complete(5), 2))
    assert res.status == VALUE_FOUND and res.value == 2
    assert matching_number(res.witness).value == 2


def test_multigraph_all_parallel():
    g = multiply(path(2), 3)
    assert cms_exact(g).value == 1
    assert ms_exact(g).value == 1


def test_monotonicity_spot_check():
    g = cycle(7)
    for mode in (LINEAR, CYCLIC):
        assert exists_ordering(g, 3, mode).status == VALUE_FOUND
        assert exists_ordering(g, 2, mode).status == VALUE_FOUND
        assert exists_ordering(g, 1, mode).status == VALUE_FOUND


def test_witness_determinism():
    # K6 d=2 is found by the DFS alone, K8 d=3 by the greedy restarts
    for g, d in ((complete(6), 2), (complete(8), 3)):
        a = exists_ordering(g, d, CYCLIC)
        b = exists_ordering(g, d, CYCLIC)
        assert a.witness.sequence == b.witness.sequence
        assert (a.nodes_explored, a.greedy_placements) == \
            (b.nodes_explored, b.greedy_placements)


def test_cyclic_symmetry_breaking_in_witness():
    res = exists_ordering(complete(6), 2, CYCLIC)
    seq = res.witness.sequence
    assert seq[0] == 0          # rotation: edge 0 opens
    # no rule orders positions 2 and m: ascending-id order reaches this
    # witness first, so position 2 holds the lower id
    assert seq[1] < seq[-1]


def test_budget_exceeded_by_nodes():
    res = exists_ordering(circulant3(6), 6, LINEAR, SolveBudget(max_nodes=5))
    assert res.status == BUDGET_EXCEEDED
    assert res.nodes_explored >= 5


def test_budget_exceeded_by_time():
    res = cms_exact(complete(7), SolveBudget(max_seconds=1e-9))
    assert res.status == BUDGET_EXCEEDED


def test_budget_propagates_with_bracket():
    # d=3 on K_7 is refuted in 1,313 nodes and d=2 found 85 nodes later:
    # one node short, the bracket from the refutation survives
    res = cms_exact(complete(7), SolveBudget(max_nodes=1_313))
    assert (res.status, res.nodes_explored, res.certified_upper, res.value) == \
        (BUDGET_EXCEEDED, 1_314, 3, None)
    res = cms_exact(complete(7), SolveBudget(max_nodes=1_398))
    assert (res.status, res.nodes_explored, res.certified_upper, res.value) == \
        (VALUE_FOUND, 1_398, None, 2)


def test_exact_node_budget_is_a_total_cap():
    # d=6 is refuted in exactly 49,788 nodes; d=5 gets the 0 nodes left and
    # stops at its first node, so the total is max_nodes + 1
    res = ms_exact(circulant3(6), SolveBudget(max_nodes=49_788))
    assert res.status == BUDGET_EXCEEDED
    assert res.nodes_explored == 49_789
    assert res.certified_upper == 6
    assert sum(res.depth_histogram) == res.nodes_explored
    res = exists_ordering(circulant3(6), 6, LINEAR, SolveBudget(max_nodes=5))
    assert (res.status, res.nodes_explored) == (BUDGET_EXCEEDED, 6)


@pytest.mark.parametrize("max_nodes,nodes,placements", [
    (4_095, 4_096, 0),
    (4_096, 4_097, 116),
    (8_191, 8_192, 116),
    (8_192, 8_193, 235),
])
def test_checkpoint_schedule_at_the_budget_boundary(max_nodes, nodes, placements):
    # checkpoints fall on node 1, every 4,096th node and node max_nodes + 1;
    # each 4,096th node runs one greedy slice, the last one stops the search
    res = exists_ordering(circulant3(6), 6, LINEAR, SolveBudget(max_nodes))
    assert res.status == BUDGET_EXCEEDED
    assert (res.nodes_explored, res.greedy_placements) == (nodes, placements)
    assert sum(res.depth_histogram) == nodes


def test_exists_budget_covers_the_compat_masks(monkeypatch):
    # the tables use up the whole time budget: the search stops at its first
    # checkpoint, and the reported time includes the tables
    now = [0.0]

    def slow_tables(g, deadline):
        now[0] += 10.0
        return _tables(g, deadline)

    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(solver, "_tables", slow_tables)
    res = exists_ordering(complete(5), 2, CYCLIC, SolveBudget(max_seconds=5.0))
    assert (res.status, res.nodes_explored) == (BUDGET_EXCEEDED, 1)
    assert res.elapsed_seconds == 10.0


@pytest.mark.parametrize("solve,status", [
    (lambda: exists_ordering(complete(5), 2, CYCLIC), NONEXISTENCE_CERTIFIED),
    (lambda: exists_ordering(circulant3(6), 6, LINEAR, SolveBudget(max_nodes=5)),
     BUDGET_EXCEEDED),
    (lambda: exists_ordering(complete(7), 3, CYCLIC, SolveBudget(max_seconds=1e-9)),
     BUDGET_EXCEEDED),
    (lambda: ms_exact(complete(8), SolveBudget(max_nodes=100)), BUDGET_EXCEEDED),
    (lambda: cms_exact(circulant3(6), SolveBudget(max_nodes=2_652)), BUDGET_EXCEEDED),
    (lambda: cms_exact(complete(7), SolveBudget(max_seconds=1e-9)), BUDGET_EXCEEDED),
], ids=["exists-refuted", "exists-nodes", "exists-seconds", "ms-nodes",
        "cms-nodes-after-refutation", "cms-seconds"])
def test_undecided_results_carry_no_value(solve, status):
    # callers read decided answers from .value alone
    res = solve()
    assert res.status == status
    assert res.value is None and res.witness is None


@pytest.mark.parametrize("limits", [
    dict(max_nodes=0), dict(max_seconds=0.0), dict(max_seconds=-1.0),
    dict(max_seconds=float("nan")), dict(max_nodes=float("nan")),
    dict(max_nodes=1000.5),  # not whole: node max_nodes + 1 is never reached
])
def test_budget_limits_must_be_positive(limits):
    with pytest.raises(ValueError):
        SolveBudget(**limits)


@pytest.mark.parametrize("g,d,mode", [
    (complete(4), 0, LINEAR), (complete(4), 100, LINEAR),
    (Graph(3, ()), 1, LINEAR), (complete(4), 1, "spiral"),
    (complete(5), 2.5, CYCLIC), (complete(5), 2.0, CYCLIC),
], ids=["0", "100", "edgeless", "bad-mode", "fractional", "float"])
def test_invalid_targets(g, d, mode):
    with pytest.raises(InvalidTarget):
        exists_ordering(g, d, mode)


def test_empty_graph_rejected():
    with pytest.raises(InvalidTarget):
        ms_exact(Graph(3, ()))


def test_chain_cms_le_ms_le_matching():
    for g in (complete(5), complete(6), cycle(6), cycle(7), path(6), path(7),
              complete_bipartite(2, 3), multiply(cycle(3), 2)):
        cms = cms_exact(g).value
        ms = ms_exact(g).value
        assert cms <= ms <= max_matching_size(g)


def test_even_order_bound_on_solved_instances():
    for g in (complete(4), complete(6), cycle(6), path(8),
              complete_bipartite(3, 3)):
        assert ms_exact(g).value <= (g.order - 1) // 2


def test_exact_value_is_exact_not_just_lower_bound():
    # the witness's checker value must equal the reported optimum
    for g in (complete(6), cycle(9), path(9)):
        for solve in (ms_exact, cms_exact):
            res = solve(g)
            assert matching_number(res.witness).value == res.value


def test_depth_histogram_accounts_all_nodes():
    res = exists_ordering(complete(5), 2, CYCLIC)
    assert sum(res.depth_histogram) == res.nodes_explored


_LOOSE_CLASS = [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)]  # every edge meets 0 or 1
_SPIDER = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7)]  # legs 3, 2, 2


def _differential_hosts() -> list[Graph]:
    """Every graph class on 5 labels with at most 7 edges, seeded random
    multigraphs, two edge-doubled hosts, three named twin hosts: a star, a
    triangle with a pendant edge, and three copies of P3, and four named
    hosts where spacing bites: P8, a spider whose centre is tight at d
    = 3, and C6 and P7, which its cyclic equality case refutes at d = 3.
    The star is K_{1,5}, since K_{1,4} is already one of the
    classes, and so is ``_LOOSE_CLASS``, labels included: the smallest
    class whose linear value is below both the matching and the spacing
    bound."""
    hosts = [_graph_from_pairs(5, pairs) for pairs in _canonical_edge_subsets(5)
             if len(pairs) <= 7]
    rng = random.Random(1109)
    for _ in range(6):
        n = rng.randint(2, 5)
        pairs = list(itertools.combinations(range(n), 2))
        chosen = [rng.choice(pairs) for _ in range(rng.randint(1, 6))]
        hosts.append(_graph_from_pairs(n, chosen, allow_parallel=True))
    return hosts + [multiply(path(3), 2), multiply(cycle(3), 2),
                    complete_bipartite(1, 5), attach_pendants(cycle(3), 0, 1),
                    multiply(path(3), 3), path(8), _graph_from_pairs(8, _SPIDER),
                    cycle(6), path(7)]


def _best_by_enumeration(g: Graph, mode) -> int:
    return max(matching_number(EdgeOrdering(g, perm, mode)).value
               for perm in itertools.permutations(range(g.num_edges)))


@pytest.mark.parametrize(
    "g", _differential_hosts(),
    ids=lambda g: f"n{g.order}-" + "-".join(f"{e.u}{e.v}" for e in g.edges))
def test_solver_agrees_with_exhaustive_enumeration(g):
    m = g.num_edges
    for mode, exact in ((LINEAR, ms_exact), (CYCLIC, cms_exact)):
        best = _best_by_enumeration(g, mode)
        assert exact(g).value == best, mode
        for d in range(1, m + 1):
            want = VALUE_FOUND if d <= best else NONEXISTENCE_CERTIFIED
            assert exists_ordering(g, d, mode).status == want, (mode, d)


@pytest.mark.parametrize(
    "g", _differential_hosts(),
    ids=lambda g: f"n{g.order}-" + "-".join(f"{e.u}{e.v}" for e in g.edges))
def test_greedy_restarts_yield_only_checked_witnesses(g):
    # the DFS of these hosts ends before its first checkpoint, so the
    # differential test above never runs the heuristic: drive it directly
    m = g.num_edges
    for mode in (LINEAR, CYCLIC):
        best = _best_by_enumeration(g, mode)
        for d in range(2, m + 1):  # d = 1 is answered with no search
            if _spacing(g, d, mode == CYCLIC, degrees(g)) is None:
                assert d > best, (mode, d)  # refuted before any search
                continue
            gen = _restarts(g, d, mode == CYCLIC)
            found = [s for _, s in itertools.islice(gen, 4) if s]
            # every reachable target is met within four slices on this corpus
            assert bool(found) == (d <= best), (mode, d)
            for seq in found:
                assert sorted(seq) == list(range(m))
                assert matching_number(EdgeOrdering(g, seq, mode)).value >= d
                assert mode == LINEAR or seq[0] == 0


_PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


@pytest.mark.parametrize("g,d,mode", [
    (_graph_from_pairs(5, _LOOSE_CLASS), 2, LINEAR),
    (_graph_from_pairs(6, [(0, 1), (0, 2), (0, 3), (4, 5)]), 2, LINEAR),
    *((path(2 * k), k, mode) for k in range(2, 9) for mode in (LINEAR, CYCLIC)),
    *((cycle(2 * k), k, CYCLIC) for k in range(2, 9)),
    *((path(2 * k + 1), k, CYCLIC) for k in range(2, 13)),
    *((complete(2 * k), k, CYCLIC) for k in range(2, 7)),
    (circulant3(6), 6, CYCLIC),
    (_graph_from_pairs(10, _PETERSEN), 5, CYCLIC),
    (multiply(path(5), 2), 2, CYCLIC),
], ids=["loose-class", "claw-and-edge"]
    + [f"P{2 * k}-{mode}" for k in range(2, 9) for mode in ("linear", "cyclic")]
    + [f"C{2 * k}-cyclic" for k in range(2, 9)]
    + [f"P{2 * k + 1}-cyclic" for k in range(2, 13)]
    + [f"K{2 * k}-cyclic" for k in range(2, 7)]
    + ["circulant3_6-cyclic", "petersen-cyclic", "2P5-cyclic"])
def test_spacing_refutes_at_the_root(g, d, mode):
    # the class: vertices 0 and 1 have degree 3 = R + 1 at d = 2 (m - 1 =
    # 2R + s, s = 0), and every edge meets one, so position 2 may hold
    # none.  The claw's centre, of degree 3 = R + 2, needs 5 positions of
    # the 4, though every position may hold edge 45.  P_2k linear at d =
    # k: every edge meets a vertex of degree 2 = R + 1 and s = k - 2, so
    # position k may hold none; cyclic, a vertex of degree 2 needs 2k
    # positions of the 2k - 1.  The cyclic rest sit at Δ * d = m with an
    # edge between two vertices of degree Δ that has fewer than Δ copies:
    # C_2k and P_2k+1 (Δ = 2), K_2m (2m - 1), circulant3(6) (4), Petersen
    # (3) and 2P5, whose middle edges are double and Δ = 4.  No node is
    # visited
    res = exists_ordering(g, d, mode)
    assert (res.status, res.nodes_explored, res.depth_histogram) == (
        NONEXISTENCE_CERTIFIED, 0, (0,) * g.num_edges)
    assert _spacing(g, d, mode == CYCLIC, degrees(g)) is None


def test_spacing_keeps_a_tight_host_whose_degree_delta_vertices_pair_up():
    # two disjoint double edges, cyclic d = 2: Δ * d = m = 4, but each edge
    # between vertices of degree Δ = 2 has both copies, so the rule keeps
    # the tree, and 01 23 01 23 has value 2
    g = _graph_from_pairs(4, [(0, 1), (0, 1), (2, 3), (2, 3)], allow_parallel=True)
    assert _spacing(g, 2, True, degrees(g)) is not None
    res = exists_ordering(g, 2, CYCLIC)
    assert res.status == VALUE_FOUND
    assert matching_number(res.witness).value == 2
    assert cms_exact(g).value == 2


@pytest.mark.parametrize("k", range(2, 13))
def test_cms_of_odd_paths_costs_only_the_find(k):
    # P_2k+1 has nu = k, refuted at the root by spacing's equality case, so
    # cms = k - 1 costs the nodes of the find at k - 1 alone (P21 took
    # 16,148,351 nodes before the rule)
    g = path(2 * k + 1)
    res = cms_exact(g)
    find = exists_ordering(g, k - 1, CYCLIC)
    assert (res.status, res.value) == (VALUE_FOUND, k - 1)
    assert res.nodes_explored == find.nodes_explored == (2 * k if k > 2 else 0)


@pytest.mark.parametrize("k,nodes", [
    (2, 2), (3, 36), (4, 192), (5, 1_220), (6, 9_072), (7, 77_364), (8, 743_936),
])
def test_spacing_leaves_trees_with_no_tight_index(k, nodes):
    # C_2k linear at d = k: m - 1 = d + (d - 1), so s = d - 1 and every
    # position may hold every edge; the tree keeps its count
    res = exists_ordering(cycle(2 * k), k, LINEAR)
    assert (res.status, res.nodes_explored) == (NONEXISTENCE_CERTIFIED, nodes)


def _tables_by_definition(g: Graph):
    """``(compat, flip, start)`` from sets: bit f of ``compat[e]`` is set iff
    f and e share no endpoint; twins are edges that meet the same set of
    edges; flip each edge's bit and its next-higher twin's, and start with
    every non-lowest twin locked."""
    ends = [{e.u, e.v} for e in g.edges]
    m = len(ends)
    compat = [sum(1 << f for f in range(m) if not ends[f] & ends[e])
              for e in range(m)]
    meets = [frozenset(f for f in range(m) if ends[f] & ends[e]) for e in range(m)]
    flip = [1 << e for e in range(m)]
    start = (1 << m) - 1
    for e in range(m):
        higher = [f for f in range(e + 1, m) if meets[f] == meets[e]]
        if higher:
            flip[e] |= 1 << higher[0]
            start &= ~(1 << higher[0])
    return compat, flip, start


def test_twin_detection_matches_equal_compat_masks():
    hosts = [_graph_from_pairs(6, pairs) for pairs in _canonical_edge_subsets(6)]
    bases = [path(2), path(3), path(5), cycle(3), cycle(4), complete(4),
             complete_bipartite(1, 4), circulant3(3)]
    hosts += [multiply(g, k) for g in bases for k in (2, 3)]
    hosts += [attach_pendants(h, v, t) for h in bases + [multiply(cycle(4), 2)]
              for v in (0, 1) for t in (1, 3)]
    twinned = 0
    for g in hosts:
        want = _tables_by_definition(g)
        assert _tables(g)[:3] == want, [(e.u, e.v) for e in g.edges]
        twinned += want[2] != (1 << g.num_edges) - 1
    assert (twinned, len(hosts)) == (80, 207)  # hosts with a twin class, of all
    for g in (complete(40), multiply(complete(7), 2)):  # dense, and twins
        assert _tables(g)[:3] == _tables_by_definition(g)


def test_matching_bound_one_builds_no_search_tables(monkeypatch):
    # a star has nu = 1, so no d >= 2 is searched and no table is needed
    def unused(*args):
        raise AssertionError("built for a search that never runs")

    monkeypatch.setattr(solver, "_tables", unused)
    for exact in (ms_exact, cms_exact):
        res = exact(complete_bipartite(1, 6))
        assert (res.status, res.value, res.nodes_explored) == (VALUE_FOUND, 1, 0)


def _window_by_definition(seq, free, d, m, cyclic, compat):
    """The candidates of position len(seq), ANDed slice by slice."""
    p = len(seq)
    mask = free
    for e in seq[max(0, p - d + 1):]:
        mask &= compat[e]
    for e in seq[:max(0, p + d - m)] if cyclic else ():
        mask &= compat[e]
    return mask


def _seeded_multigraph() -> Graph:
    rng = random.Random(2024)
    pairs = list(itertools.combinations(range(7), 2))
    return _graph_from_pairs(7, [rng.choice(pairs) for _ in range(30)],
                             allow_parallel=True)


@pytest.mark.parametrize("g", [cycle(40), complete(9), _seeded_multigraph()],
                         ids=["C40", "K9", "multigraph7-30"])
@pytest.mark.parametrize("mode", [LINEAR, CYCLIC])
def test_window_rule_matches_its_definition(g, mode):
    # random pushes and pops over every d the search sees, 2 to m: each
    # round pops to a depth, below block starts, and refills over the
    # entries the popped positions left behind.  Each placement's
    # successors, read before it from W as the DFS reads them, must be the
    # candidates by definition after it, twin order included
    m = g.num_edges
    cyclic = mode == CYCLIC
    full = (1 << m) - 1
    rng = random.Random(m)
    compat, flip, start, _ = _tables(g)
    for d in range(2, m + 1):
        step = _window_rule(m, d, cyclic, compat, [full] * (m + 1))
        seq, free, ws = [], start, [full]  # ws[i]: W_i
        for depth in [0, 0] + [rng.randrange(m - 1) for _ in range(4)]:
            while len(seq) > depth:
                free ^= flip[seq.pop()]
                ws.pop()
            while len(seq) < m - 1:
                i = len(seq)
                e = rng.choice([e for e in range(m) if free >> e & 1])
                succ = free & ws[i] & compat[e]
                seq.append(e)
                free ^= flip[e]
                assert succ == _window_by_definition(
                    seq, free, d, m, cyclic, compat), (d, seq)
                ws.append(step(i, e))


@pytest.mark.parametrize("g", [
    path(2), multiply(complete(4), 2), complete_bipartite(3, 4), path(5000),
], ids=["P2", "2K4", "K3_4", "P5000"])
def test_d1_needs_no_search(g):
    # a window of one edge is a matching: the identity is a witness in 0
    # nodes, whatever the budget
    m = g.num_edges
    for mode in (LINEAR, CYCLIC):
        for budget in (SolveBudget(), SolveBudget(max_nodes=1)):
            res = exists_ordering(g, 1, mode, budget)
            assert (res.status, res.value, res.nodes_explored,
                    res.greedy_placements) == (VALUE_FOUND, 1, 0, 0)
            assert res.witness.sequence == tuple(range(m))
            assert res.witness.mode == mode
            assert matching_number(res.witness).value >= 1
            assert res.depth_histogram == (0,) * m


def test_d1_on_a_long_path_builds_no_tables():
    # a search of P20001 would hold m-bit masks per edge and per depth
    g = path(20001)
    tracemalloc.start()
    try:
        res = exists_ordering(g, 1, LINEAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert (res.status, res.nodes_explored) == (VALUE_FOUND, 0)


def test_spacing_refutes_a_long_path_before_the_tables():
    # P20000 linear at d = 10,000: every edge meets a vertex of degree 2 =
    # R + 1 and s = d - 2, so position d may hold none.  The tables alone,
    # m masks of m bits, took 1.74 s and 113.5 MiB before this refutation
    g = path(20000)
    tracemalloc.start()
    try:
        res = exists_ordering(g, 10_000, LINEAR)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert (res.status, res.nodes_explored, res.depth_histogram) == (
        NONEXISTENCE_CERTIFIED, 0, (0,) * g.num_edges)


def test_exact_builds_no_tables_for_targets_spacing_refutes(monkeypatch):
    # P4 has nu = 2, but spacing refutes d = 2 in both modes: linear, each
    # edge meets a vertex of degree 2 = R + 1 and position 2 may hold none;
    # cyclic, a vertex of degree 2 needs 4 of the 3 positions
    def unused(*args):
        raise AssertionError("built for a target that spacing refutes")

    monkeypatch.setattr(solver, "_tables", unused)
    for exact in (ms_exact, cms_exact):
        res = exact(path(4))
        assert (res.status, res.value, res.nodes_explored) == (VALUE_FOUND, 1, 0)


def test_tables_stop_at_the_deadline():
    # K200 has 19,900 edges, five slices; its compat masks alone peak near
    # 80 MiB.  Past the deadline after the first slice, the set-up stops
    g = complete(200)
    tracemalloc.start()
    try:
        res = exists_ordering(g, 2, CYCLIC, SolveBudget(max_seconds=1e-6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert (res.status, res.nodes_explored, res.value, res.witness) == (
        BUDGET_EXCEEDED, 0, None, None)
    assert res.depth_histogram == (0,) * g.num_edges


def test_tables_stop_at_the_deadline_in_their_second_pass(monkeypatch):
    # K92 has 4,186 edges, two slices: the first pass (flip and the
    # incidence masks) completes, and the deadline stops the second pass
    # (compat and the twin classes) after its first slice
    calls = []
    slices = solver._slices

    def second_pass_stops(m, deadline):
        calls.append(m)
        part = slices(m, deadline)
        return part if len(calls) % 2 else itertools.islice(part, 1)

    monkeypatch.setattr(solver, "_slices", second_pass_stops)
    g = complete(92)
    assert g.num_edges > solver._BUDGET_CHECK_STRIDE
    assert _tables(g) is None
    res = exists_ordering(g, 2, CYCLIC)
    assert (res.status, res.nodes_explored) == (BUDGET_EXCEEDED, 0)
    assert calls == [g.num_edges] * 4


def test_exact_keeps_its_bracket_when_the_tables_stop():
    # P5002 linear: spacing refutes d = nu = 2,501 in 0 nodes, and the
    # tables of d = 2,500, two slices of edges, stop at the deadline; a
    # seed stays the witness
    g = path(5002)
    res = ms_exact(g, SolveBudget(max_seconds=1e-6))
    assert (res.status, res.nodes_explored, res.certified_upper, res.value) == (
        BUDGET_EXCEEDED, 0, 2_501, None)
    seed = EdgeOrdering(g, tuple(range(g.num_edges)), LINEAR)
    res = ms_exact(g, SolveBudget(max_seconds=1e-6), seed=seed)
    assert (res.status, res.nodes_explored, res.certified_upper, res.value) == (
        BUDGET_EXCEEDED, 0, 2_501, None)
    assert res.witness == seed


def test_matching_bound_is_sized_by_the_edges():
    # one edge among 400,000 vertices: nu = 1 is the answer, and the bound
    # builds neighbour sets only for the two vertices with an edge (per
    # vertex of the order, 88.6 MiB and past the one-second budget)
    g = Graph(400_000, [Edge(0, 0, 1)])
    tracemalloc.start()
    try:
        res = ms_exact(g, SolveBudget(max_seconds=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    assert (res.status, res.value, res.nodes_explored) == (VALUE_FOUND, 1, 0)
    assert res.elapsed_seconds < 0.1


def test_solver_setup_is_sized_by_the_edges():
    # two edges on 2,000,000 vertices: the degrees and the incidence masks
    # over the order took 0.046 s and peaked at 30.5 MiB before node 1
    g = Graph(2_000_000, [Edge(0, 0, 1), Edge(1, 2, 3)])
    solves = [lambda: exists_ordering(g, 2, LINEAR, SolveBudget(max_seconds=1e-6)),
              lambda: exists_ordering(g, 2, CYCLIC), lambda: ms_exact(g),
              lambda: cms_exact(g)]
    for solve in solves:
        tracemalloc.start()
        try:
            res = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert res.witness is None or (res.witness.graph is g
                                       and matching_number(res.witness).value == 2)
    assert (res.status, res.value, res.nodes_explored) == (VALUE_FOUND, 2, 2)


def test_sparse_re_embedding_keeps_the_search():
    """A small graph moved onto 2,000,000 vertices, its labels kept in
    order, gets the same status, value, node counts, histogram and witness
    sequence, the witness on the moved graph."""
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(3, 7)
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(2, 9))]
        g = _graph_from_pairs(n, pairs, allow_parallel=True)
        names = sorted(rng.sample(range(2_000_000), n))
        big = _graph_from_pairs(2_000_000, [(names[u], names[v]) for u, v in pairs],
                                allow_parallel=True)
        m = g.num_edges
        runs = [(lambda h, d=d, mode=mode: exists_ordering(h, d, mode))
                for d in range(2, m + 1) for mode in (LINEAR, CYCLIC)]
        runs += [ms_exact, cms_exact]
        for run in runs:
            small, moved = run(g), run(big)
            assert (moved.status, moved.value, moved.nodes_explored, moved.depth_histogram,
                    moved.certified_upper, moved.greedy_placements) == (
                small.status, small.value, small.nodes_explored, small.depth_histogram,
                small.certified_upper, small.greedy_placements)
            assert (moved.witness is None) == (small.witness is None)
            if moved.witness is not None:
                assert moved.witness.graph is big
                assert moved.witness.sequence == small.witness.sequence


def test_greedy_slice_stops_at_the_scan_limit():
    # K60 has 1,770 edges: scoring position 1 spans two slices, and each
    # slice stops after _GREEDY_SCANS candidates
    g = complete(60)
    gen = _restarts(g, 3, False)
    assert _GREEDY_SCANS < g.num_edges
    assert next(gen) == (0, None)
    assert next(gen) == (1, None)


def test_k9_cyclic_d3_found_by_the_greedy_restarts():
    res = exists_ordering(complete(9), 3, CYCLIC, SolveBudget(500_000))
    assert res.status == VALUE_FOUND
    assert matching_number(res.witness).value >= 3
    assert res.witness.sequence[0] == 0
    # found at a checkpoint, with at most one slice per 4,096 DFS nodes;
    # a slice scores _GREEDY_SCANS candidates, each placement at least one
    assert 0 < res.greedy_placements <= \
        (res.nodes_explored // 4096) * (_GREEDY_SCANS + 1)
    assert res.nodes_explored < 500_000


def test_k11_cyclic_d4_pins_the_greedy_path():
    # the paper's K_{2m+1} at d = m-1, found by the restarts: their path and
    # the checkpoints where their slices end both show in the counts
    res = exists_ordering(complete(11), 4, CYCLIC)
    assert (res.status, res.nodes_explored, res.greedy_placements) == \
        (VALUE_FOUND, 270_336, 11_281)
    assert matching_number(res.witness).value >= 4


def test_refutation_runs_the_heuristic_without_moving_its_count():
    # circulant3(6) linear d=6 has no witness: each of the twelve
    # checkpoints runs the next full slice of the restarts, and the count
    # is the DFS's alone
    g = circulant3(6)
    res = exists_ordering(g, 6, LINEAR)
    assert res.status == NONEXISTENCE_CERTIFIED
    assert res.nodes_explored == 49_788
    gen = _restarts(g, 6, False)
    slices = [next(gen) for _ in range(res.nodes_explored // 4096)]
    assert len(slices) == 12 and all(found is None for _, found in slices)
    assert res.greedy_placements == sum(work for work, _ in slices) == 1_435


# unseeded exact solves of the reference search: (solve, host, nodes,
# greedy placements, depth histogram)
_PINNED_SOLVES = {
    "ms-K5_5": (ms_exact, lambda: complete_bipartite(5, 5), 2_776, 0,
        (2, 2, 2, 2, 2, 1, 1, 1, 2, 4, 7, 12, 24, 46, 82, 136, 198, 289,
         444, 638, 487, 285, 98, 10, 1)),
    "ms-circulant3_6": (ms_exact, lambda: circulant3(6), 49_806, 1_435,
        (19, 235, 2017, 10081, 23041, 14401, 1, 1, 1, 1, 1, 1, 1, 1, 1,
         1, 1, 1)),
    "cms-K7": (cms_exact, lambda: complete(7), 1_398, 0,
        (2, 2, 2, 3, 5, 9, 17, 25, 41, 65, 97, 113, 145, 163, 192, 155,
         125, 104, 93, 39, 1)),
    "cms-K5_5": (cms_exact, lambda: complete_bipartite(5, 5), 3_563, 0,
        (1, 1, 1, 1, 1, 1, 1, 1, 2, 4, 8, 16, 32, 65, 118, 170, 256, 401,
         585, 799, 639, 369, 85, 5, 1)),
    "cms-2K7": (cms_exact, lambda: multiply(complete(7), 2), 5_853, 269,
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
         2, 4, 6, 12, 22, 43, 70, 118, 190, 323, 399, 534, 697, 823,
         768, 672, 541, 454, 140, 13, 1)),
    "ms-K8": (ms_exact, lambda: complete(8), 4_100, 28,
        (2, 2, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 10, 22, 49, 132, 277,
         435, 665, 831, 865, 574, 209, 11, 0, 0)),
    "cms-K8": (cms_exact, lambda: complete(8), 4_096, 271,
        (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 10, 22, 49, 132, 277,
         435, 665, 831, 865, 574, 209, 11, 0, 0)),
}


@pytest.mark.parametrize("name", list(_PINNED_SOLVES))
def test_node_counts_pinned(name):
    # a change of search order shows here, in the count, the depths or the
    # greedy's share
    solve, host, nodes, placements, hist = _PINNED_SOLVES[name]
    res = solve(host())
    assert res.nodes_explored == nodes
    assert (res.greedy_placements, res.depth_histogram) == (placements, hist)


@pytest.mark.parametrize("n,nodes", [
    (4, 0), (5, 84), (6, 242), (7, 1_398), (8, 4_096), (9, 23_266),
    (10, 409_600), (11, 567_427),
])
def test_cms_complete_is_half_the_order_minus_one(n, nodes):
    # the paper's theorem cms(K_2m) = cms(K_2m+1) = m - 1, certified by an
    # exhausted tree at every d above it, with the first window pinned;
    # on K_2m, d = m is refuted in 0 nodes by spacing's equality case, so
    # K_2m's count is the find's alone
    res = cms_exact(complete(n))
    assert (res.status, res.value, res.nodes_explored) == (VALUE_FOUND, n // 2 - 1, nodes)
    assert matching_number(res.witness).value == n // 2 - 1


def test_k9_cyclic_d4_is_refuted_in_under_a_tenth_of_the_unpinned_tree():
    # 12,075,442 nodes without the pinned first window
    res = exists_ordering(complete(9), 4, CYCLIC)
    assert (res.status, res.nodes_explored) == (NONEXISTENCE_CERTIFIED, 19_170)


def test_first_window_needs_a_simple_complete_or_complete_bipartite_host():
    # a maximum matching in id order, from edge 0; parallel copies, twins
    # (K3, stars) and every other host get none
    assert _first_window(complete(6)) == (0, 9, 14)
    assert _first_window(complete_bipartite(3, 4)) == (0, 5, 10)
    assert _first_window(cycle(4)) == (0, 2)  # K_{2,2}
    assert _first_window(multiply(complete(5), 1)) == _first_window(complete(5))
    for g in (complete(3), complete_bipartite(1, 4), multiply(complete(5), 2),
              cycle(6), circulant3(4), path(4), attach_pendants(complete(4), 0, 1)):
        assert _first_window(g) == (), g


@pytest.mark.parametrize("solve,n,value,nodes", [
    (cms_exact, 8, 3, 0),  # spacing's equality case refutes d = 4
    (ms_exact, 8, 3, 4),  # the cyclic construction, read linearly
    (cms_exact, 7, 2, 1_313),
], ids=["cms-K8", "ms-K8", "cms-K7"])
def test_seeded_solve_refutes_only_above_the_seed(solve, n, value, nodes):
    # the construction is the witness; nu = value + 1 is the one target
    # left, refuted without greedy slices (the oracle replays these counts)
    seed = family_ordering("complete", (n,), CYCLIC)
    res = solve(seed.graph, seed=seed)
    assert (res.status, res.value, res.nodes_explored) == (VALUE_FOUND, value, nodes)
    assert res.greedy_placements == 0 and sum(res.depth_histogram) == nodes
    assert res.witness.sequence == seed.sequence
    assert res.witness.mode == (LINEAR if solve is ms_exact else CYCLIC)


def test_seed_at_the_matching_bound_needs_no_search(monkeypatch):
    def unused(*args):
        raise AssertionError("built for a search that never runs")

    monkeypatch.setattr(solver, "_tables", unused)
    for solve, mode in ((ms_exact, LINEAR), (cms_exact, CYCLIC)):
        seed = family_ordering("cycle", (9,), mode)  # C9 attains nu = 4
        res = solve(seed.graph, seed=seed)
        assert (res.status, res.value, res.nodes_explored) == (VALUE_FOUND, 4, 0)
        assert res.witness == seed


@pytest.mark.parametrize("g", [complete(6), complete_bipartite(3, 4), path(9)],
                         ids=["K6", "K3_4", "P9"])
@pytest.mark.parametrize("solve", [ms_exact, cms_exact], ids=["ms", "cms"])
def test_seed_below_the_optimum_still_reaches_it(g, solve):
    seed = EdgeOrdering(g, tuple(range(g.num_edges)), LINEAR)
    res = solve(g, seed=seed)
    assert res.status == VALUE_FOUND and res.value == solve(g).value
    assert matching_number(res.witness).value == res.value
    assert res.value > matching_number(with_mode(seed, res.witness.mode)).value


def test_seeded_solve_keeps_the_budget():
    # out of budget the value stays open, and the seed, read in the solve's
    # mode, is still the witness: the best ordering known
    seed = family_ordering("complete", (7,), CYCLIC)
    res = cms_exact(seed.graph, SolveBudget(max_nodes=10), seed=seed)
    assert (res.status, res.nodes_explored, res.value) == (BUDGET_EXCEEDED, 11, None)
    assert res.witness == seed
    res = ms_exact(seed.graph, SolveBudget(max_nodes=10), seed=seed)
    assert (res.status, res.nodes_explored, res.value) == (BUDGET_EXCEEDED, 11, None)
    assert res.witness == with_mode(seed, LINEAR)


def test_seed_of_another_graph_is_rejected():
    seed = family_ordering("complete", (6,), CYCLIC)
    for solve in (ms_exact, cms_exact):
        for g in (complete(7), cycle(15)):  # K6 has 15 edges too
            with pytest.raises(InvalidOrdering):
                solve(g, seed=seed)
        # an equal graph built apart is the same graph
        assert solve(complete(6), seed=seed).value == solve(complete(6)).value


@pytest.mark.parametrize("g,d,budget,want", [
    (path(1025), 512, SolveBudget(20_000), (BUDGET_EXCEEDED, 20_001, 4)),
    (path(600), 299, SolveBudget(), (VALUE_FOUND, 599, 0)),
], ids=["P1025-d512", "P600-d299"])
def test_large_d_searches_pinned(g, d, budget, want):
    # windows of hundreds of positions: a change to the candidate rule's
    # block bookkeeping that moves the search shows here
    res = exists_ordering(g, d, LINEAR, budget)
    assert (res.status, res.nodes_explored, res.greedy_placements) == want


@pytest.mark.parametrize("g,d,mode", [
    (path(1500), 749, LINEAR),
    (cycle(1201), 600, CYCLIC),
], ids=["P1500-linear", "C1201-cyclic"])
def test_long_hosts_search_past_the_recursion_limit(g, d, mode):
    res = exists_ordering(g, d, mode)
    assert res.status == VALUE_FOUND
    assert matching_number(res.witness).value >= d


@pytest.mark.parametrize("solve", [ms_exact, cms_exact], ids=["ms", "cms"])
def test_exact_solve_on_long_cycle(solve):
    # 1,201 vertices: the matching bound is computed past the recursion limit,
    # and d = nu = 600 is found in one greedy descent
    res = solve(cycle(1201))
    assert (res.status, res.value, res.nodes_explored) == (VALUE_FOUND, 600, 1201)
