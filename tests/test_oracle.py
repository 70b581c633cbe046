"""An independent oracle for ms/cms, written from the definition.

An ordering e_1..e_m has value >= d when every d consecutive edges form a
matching (cyclically in cyclic mode): equivalently, every two positions
closer than d hold disjoint edges.  The oracle searches orderings depth
first over edge ids with plain sets, and shares no code with the solver:
no bitmasks, candidate windows, compat masks, matching bound or greedy.
Its three optional rules, the solver's twin order, its pinned first
window and its spacing of the edges at each vertex, are stated from sets
of edges; ``_oracle_value`` runs without them, so value agreement tests
the rules' soundness and the node-for-node replays test their statement.
"""

import itertools
import random

import pytest

from matchseq import (CYCLIC, LINEAR, attach_pendants, circulant3, cms_exact,
                      complete, complete_bipartite, cycle, exists_ordering,
                      max_matching_size, ms_exact, multiply, path)
from matchseq.catalog import _canonical_edge_subsets, verify_families
from matchseq.constructions import family_ordering
from matchseq.graphs import _graph_from_pairs
from matchseq.solver import NONEXISTENCE_CERTIFIED, VALUE_FOUND, _first_window


def _window_from_sets(ends):
    """The matching the pin rule places first, from sets: if the edges are
    those of K_s (s >= 4) or K_{A,B} (|A|, |B| >= 2) on the vertices they
    touch, every edge in id order that meets none taken before; else []."""
    support = set().union(*ends)
    pairs = {frozenset(e) for e in ends}
    if len(pairs) < len(ends):  # parallel copies
        return []
    every_pair = {frozenset(p) for p in itertools.combinations(support, 2)}
    if not (len(support) >= 4 and pairs == every_pair):  # not K_s; K_{A,B}?
        low = min(support)  # A: the lowest vertex and the vertices it misses
        side = support - set().union(*(e for e in ends if low in e)) | {low}
        if not (2 <= len(side) <= len(support) - 2 and pairs == {
                frozenset((a, b)) for a in side for b in support - side}):
            return []
    taken, window = set(), []
    for e, ends_e in enumerate(ends):
        if taken.isdisjoint(ends_e):
            taken |= ends_e
            window.append(e)
    return window


def _allowed_positions(ends, d, cyclic):
    """For each edge, the 0-based positions where the spacing rule lets it
    sit: the other edges at each endpoint v must fit d apart around it, so
    deg(v) - 1 <= floor((p-1)/d) + floor((m-p)/d) at position p; cyclically,
    deg(v) * d <= m.  Cyclically at top * d = m, top the largest degree,
    the edges at a vertex of degree top sit exactly d apart, on the
    positions of one residue mod d; two such vertices that share an edge
    share the residue, so every edge at either joins both: an edge with
    both ends of degree top and fewer than top copies has nowhere to sit,
    and nor has any other."""
    m = len(ends)
    degree = {}
    for e in ends:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    if cyclic:
        top = max(degree.values())
        if top * d == m and any(
                all(degree[v] == top for v in e) and ends.count(e) < top for e in ends):
            return [set()] * m
        return [set(range(m)) if all(degree[v] * d <= m for v in e) else set()
                for e in ends]
    return [{j for j in range(m) if all(degree[v] - 1 <= j // d + (m - 1 - j) // d
                                        for v in e)} for e in ends]


def _oracle_search(g, d, mode, twins=False, pin=False, spacing=False):
    """(found, placements) of a DFS for an ordering of value >= d.

    Candidates are tried in ascending edge id, and cyclic mode puts edge 0
    first.  With ``twins``, an edge is skipped while a lower-id edge that
    meets the same set of edges is unused.  With ``pin`` and d >= 2,
    positions 1..min(d, |M|) hold M = ``_window_from_sets`` in order, on the
    hosts that have one.  With ``spacing`` and d >= 2, an edge goes only
    where ``_allowed_positions`` lets it, and the tree is empty if some
    edge has no allowed position or some position no allowed edge.  With
    all three, a refutation visits the prefixes the solver visits.
    """
    ends = [{e.u, e.v} for e in g.edges]
    m = len(ends)
    cyclic = mode == CYCLIC
    allowed = [set(range(m))] * m
    if spacing and d >= 2:
        allowed = _allowed_positions(ends, d, cyclic)
        if not all(allowed) or set(range(m)) - set().union(*allowed):
            return False, 0
    order, used, placements = [], set(), [0]
    lower_twins = [[] for _ in range(m)]  # lower-id edges meeting what e meets
    if twins:
        meets = [{f for f in range(m) if ends[f] & ends[e]} for e in range(m)]
        lower_twins = [[f for f in range(e) if meets[f] == meets[e]] for e in range(m)]
    prefix = [0] if cyclic else []
    if pin and d >= 2:
        prefix = _window_from_sets(ends)[:d] or prefix

    def close(i, j):
        return j - i < d or (cyclic and m - (j - i) < d)

    def extend():
        j = len(order)
        if j == m:
            return True
        # the vertices of the placed edges closer than d to position j
        near = set().union(*(ends[f] for i, f in enumerate(order) if close(i, j)))
        for e in (prefix[j:j + 1] if j < len(prefix) else range(m)):
            if e in used or j not in allowed[e] or not ends[e].isdisjoint(near):
                continue
            if any(f not in used for f in lower_twins[e]):
                continue
            placements[0] += 1
            order.append(e)
            used.add(e)
            if extend():
                return True
            used.remove(order.pop())
        return False

    return extend(), placements[0]


def _oracle_value(g, mode):
    for d in range(min(g.num_edges, g.order // 2), 0, -1):
        if _oracle_search(g, d, mode)[0]:
            return d
    raise AssertionError("every ordering has value >= 1")


def test_solver_values_match_the_oracle_on_all_6_vertex_classes():
    # the pinned classes are K4, K5, K6, K2,2, K2,3, K2,4 and K3,3, most of
    # them with isolated vertices and labels no builder gives
    classes = list(_canonical_edge_subsets(6))
    assert len(classes) == 155
    pinned = 0
    for pairs in classes:
        g = _graph_from_pairs(6, pairs)
        window = _window_from_sets([{e.u, e.v} for e in g.edges])
        assert _first_window(g) == tuple(window), pairs
        pinned += bool(window)
        assert ms_exact(g).value == _oracle_value(g, LINEAR), pairs
        assert cms_exact(g).value == _oracle_value(g, CYCLIC), pairs
    assert pinned == 7


@pytest.mark.parametrize("g", [
    multiply(complete(4), 2), multiply(path(5), 2), multiply(cycle(5), 2),
    multiply(complete(3), 3), multiply(complete(4), 4),
], ids=["2K4", "2P5", "2C5", "3K3", "4K4"])
@pytest.mark.parametrize("mode,exact", [(LINEAR, ms_exact), (CYCLIC, cms_exact)])
def test_solver_values_match_the_oracle_on_multigraphs(g, mode, exact):
    assert exact(g).value == _oracle_value(g, mode)


def _relabelled(g, seed):
    """g with its vertices sent to random labels among two more, which stay
    isolated, and its edge ids shuffled."""
    rng = random.Random(seed)
    names = rng.sample(range(g.order + 2), g.order)
    pairs = [(names[e.u], names[e.v]) for e in g.edges]
    rng.shuffle(pairs)
    return _graph_from_pairs(g.order + 2, pairs)


@pytest.mark.parametrize("g,value", [
    (complete(6), (2, 2)), (complete_bipartite(3, 4), (3, 3)),
    (complete_bipartite(4, 4), (3, 3)),
], ids=["K6", "K3_4", "K4_4"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("mode,exact", [(LINEAR, ms_exact), (CYCLIC, cms_exact)])
def test_relabelled_hosts_pin_their_first_window(g, value, seed, mode, exact):
    # the rule reads the host from its edges, not from a builder's labels:
    # the rule-free oracle agrees on the value, and every refutation from
    # nu down and the find at the value replay with the pinned oracle (with
    # spacing: cyclic K6 at d = 3 and K4,4 at d = 4 are refuted at the root)
    h = _relabelled(g, seed)
    want = value[mode == CYCLIC]
    assert len(_window_from_sets([{e.u, e.v} for e in h.edges])) == max_matching_size(h)
    assert exact(h).value == _oracle_value(h, mode) == want
    for d in range(max_matching_size(h), want - 1, -1):
        res = exists_ordering(h, d, mode)
        assert res.status == (VALUE_FOUND if d == want else NONEXISTENCE_CERTIFIED)
        assert _oracle_search(h, d, mode, twins=True, pin=True, spacing=True) == (
            d == want, res.nodes_explored), d


def test_all_6_vertex_classes_replay_node_for_node():
    # every search of each class's exact solves, from nu down to its value:
    # the refutations, 21 of them inside a tree that spacing masks and 23
    # emptied at the root by its cyclic equality case Δ * d = m (5,474
    # nodes before that case), and the finds, all made before the first
    # greedy slice
    searches = nodes = 0
    for pairs in _canonical_edge_subsets(6):
        g = _graph_from_pairs(6, pairs)
        for mode, exact in ((LINEAR, ms_exact), (CYCLIC, cms_exact)):
            value = exact(g).value
            for d in range(max_matching_size(g), max(value, 2) - 1, -1):
                res = exists_ordering(g, d, mode)
                found = res.status == VALUE_FOUND
                assert found == (d == value), (pairs, mode, d)
                assert _oracle_search(g, d, mode, twins=True, pin=True, spacing=True) == (
                    found, res.nodes_explored), (pairs, mode, d)
                searches += 1
                nodes += res.nodes_explored
    assert (searches, nodes) == (498, 4_795)


@pytest.mark.parametrize("g,d,mode,nodes", [
    # first window pinned on K5 and K7 (rule-free trees: 250 and 39,341);
    # spacing empties C9's tree (each vertex needs 2 * 5 > 9 positions) and
    # P8's (no edge may sit at position 4), which took 51 and 121 nodes, and
    # at Δ * d = m circulant3(6)'s, 4-regular on 6 vertices (2,652 nodes)
    (complete(5), 2, CYCLIC, 84),
    (cycle(9), 5, CYCLIC, 0),
    (circulant3(6), 6, CYCLIC, 0),
    (complete(7), 3, CYCLIC, 1_313),
    (path(8), 4, LINEAR, 0),
    # twins, placed in ascending id (rule-free trees: 13,368, 557, 73, 84,
    # 50); in cyclic mode 4K4 and 2P5 sit at Δ * d = m with an edge between
    # two vertices of degree Δ that has fewer than Δ copies, so spacing
    # refutes them at the root (8 and 18 nodes with twins alone)
    (multiply(complete(4), 4), 2, LINEAR, 48),
    (multiply(complete(4), 4), 2, CYCLIC, 0),
    (multiply(path(5), 2), 2, CYCLIC, 0),
    (multiply(complete(4), 2), 2, LINEAR, 24),
    # spacing: 7 edges at vertex 1 do not fit 2 apart in 8 positions (was 6)
    (attach_pendants(path(4), 1, 5), 2, LINEAR, 0),
    # spacing inside the tree: vertex 0, of degree 3 = R + 1 at d = 3, holds
    # positions 1, 4 and 7, and the other four edges 2, 3, 5 and 6 (233 without)
    (_graph_from_pairs(8, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (0, 6), (6, 7)]),
     3, LINEAR, 114),
], ids=["K5", "C9", "circulant3_6", "K7", "P8", "4K4-linear", "4K4-cyclic",
        "2P5-cyclic", "2K4-linear", "P4-5-pendants", "spider-3-2-2"])
def test_refutations_replay_node_for_node(g, d, mode, nodes):
    res = exists_ordering(g, d, mode)
    assert res.status == NONEXISTENCE_CERTIFIED
    assert res.nodes_explored == nodes
    assert _oracle_search(g, d, mode, twins=True, pin=True, spacing=True) == (False, nodes)
    assert not _oracle_search(g, d, mode)[0]  # the rule-free tree refutes too


@pytest.mark.parametrize("g,d,mode,found,nodes", [
    (complete_bipartite(5, 5), 5, LINEAR, False, 5),
    (complete_bipartite(5, 5), 4, LINEAR, True, 2_771),
    (circulant3(6), 6, LINEAR, False, 49_788),
    (circulant3(6), 5, LINEAR, True, 18),
    (complete_bipartite(5, 5), 5, CYCLIC, False, 0),
    (complete_bipartite(5, 5), 4, CYCLIC, True, 3_563),
    (complete(8), 4, LINEAR, False, 4),
    (complete(8), 4, CYCLIC, False, 0),
], ids=["ms-K5_5-d5", "ms-K5_5-d4", "ms-circulant3_6-d6", "ms-circulant3_6-d5",
        "cms-K5_5-d5", "cms-K5_5-d4", "ms-K8-d4", "cms-K8-d4"])
def test_pinned_solve_phases_replay_node_for_node(g, d, mode, found, nodes):
    # the phases of the unseeded solves of test_solver.test_node_counts_pinned
    # that the oracle can replay: each refutation, and each find the DFS made
    # before its first greedy slice (K8's finds come from the greedy).
    # Cyclic K5,5 at d = 5 and K8 at d = 4 sit at Δ * d = m, so spacing
    # refutes them at the root (5 and 4 nodes with the pin alone)
    res = exists_ordering(g, d, mode)
    assert (res.status == VALUE_FOUND, res.nodes_explored) == (found, nodes)
    assert _oracle_search(g, d, mode, twins=True, pin=True, spacing=True) == (
        found, nodes)


def test_verify_cross_checks_replay_node_for_node():
    # every search of the exact solves of `verify --exact-up-to-edges 12`:
    # seeded with the construction, they refute d = nu down to the row's
    # value + 1; the unseeded find at the row's value replays too.  Spacing
    # refutes the even paths' rows in 0 nodes (7,339 nodes before it), and
    # its cyclic equality case 15 more refutations: the cyclic rows of C_2k,
    # P_2k+1, K4, K2,2, K3,3 and circulant3(3), (4) (14,648 nodes before)
    rows = [r for r in verify_families(exact_up_to_edges=12).rows
            if r.exact is not None]
    refutations = 0
    for row in rows:
        g = family_ordering(row.family, row.params, row.mode).graph
        replayed = 0
        for d in range(max_matching_size(g), max(row.exact, 2) - 1, -1):
            res = exists_ordering(g, d, row.mode)
            found = res.status == VALUE_FOUND
            assert found == (d == row.exact), (row.case, d)
            assert _oracle_search(g, d, row.mode, twins=True, pin=True, spacing=True) == (
                found, res.nodes_explored), (row.case, d)
            if not found:
                replayed += res.nodes_explored
                refutations += 1
        assert replayed == row.nodes, row.case
    assert (len(rows), refutations, sum(r.nodes for r in rows)) == (84, 36, 11_192)
