"""An independent oracle for ms/cms, written from the definition.

An ordering e_1..e_m has value >= d when every d consecutive edges form a
matching (cyclically in cyclic mode): equivalently, every two positions
closer than d hold disjoint edges.  The oracle searches orderings depth
first over edge ids with plain sets, and shares no code with the solver:
no bitmasks, candidate windows, compat masks, matching bound or greedy.
Its one optional rule, the solver's twin order, is stated from sets of
edges; ``_oracle_value`` runs without it, so value agreement tests the
rule's soundness and the node-for-node replays test its statement.
"""

import pytest

from matchseq import (CYCLIC, LINEAR, attach_pendants, circulant3, cms_exact,
                      complete, complete_bipartite, cycle, exists_ordering,
                      max_matching_size, ms_exact, multiply, path)
from matchseq.catalog import _canonical_edge_subsets, verify_families
from matchseq.constructions import family_ordering
from matchseq.graphs import _graph_from_pairs
from matchseq.solver import NONEXISTENCE_CERTIFIED, VALUE_FOUND


def _oracle_search(g, d, mode, twins=False):
    """(found, placements) of a DFS for an ordering of value >= d.

    Candidates are tried in ascending edge id, and cyclic mode puts edge 0
    first.  With ``twins``, an edge is skipped while a lower-id edge that
    meets the same set of edges is unused, so a refutation visits the
    prefixes the solver visits.
    """
    ends = [{e.u, e.v} for e in g.edges]
    m = len(ends)
    cyclic = mode == CYCLIC
    order, used, placements = [], set(), [0]
    lower_twins = [[] for _ in range(m)]  # lower-id edges meeting what e meets
    if twins:
        meets = [{f for f in range(m) if ends[f] & ends[e]} for e in range(m)]
        lower_twins = [[f for f in range(e) if meets[f] == meets[e]] for e in range(m)]

    def close(i, j):
        return j - i < d or (cyclic and m - (j - i) < d)

    def extend():
        j = len(order)
        if j == m:
            return True
        # the vertices of the placed edges closer than d to position j
        near = set().union(*(ends[f] for i, f in enumerate(order) if close(i, j)))
        for e in ([0] if cyclic and j == 0 else range(m)):
            if e in used or not ends[e].isdisjoint(near):
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
    classes = list(_canonical_edge_subsets(6))
    assert len(classes) == 155
    for pairs in classes:
        g = _graph_from_pairs(6, pairs)
        assert ms_exact(g).value == _oracle_value(g, LINEAR), pairs
        assert cms_exact(g).value == _oracle_value(g, CYCLIC), pairs


@pytest.mark.parametrize("g", [
    multiply(complete(4), 2), multiply(path(5), 2), multiply(cycle(5), 2),
    multiply(complete(3), 3), multiply(complete(4), 4),
], ids=["2K4", "2P5", "2C5", "3K3", "4K4"])
@pytest.mark.parametrize("mode,exact", [(LINEAR, ms_exact), (CYCLIC, cms_exact)])
def test_solver_values_match_the_oracle_on_multigraphs(g, mode, exact):
    assert exact(g).value == _oracle_value(g, mode)


@pytest.mark.parametrize("g,d,mode,nodes", [
    (complete(5), 2, CYCLIC, 250),
    (cycle(9), 5, CYCLIC, 51),
    (circulant3(6), 6, CYCLIC, 2_652),
    (complete(7), 3, CYCLIC, 39_341),
    (path(8), 4, LINEAR, 121),
    # twins, placed in ascending id (rule-free trees: 13,368, 557, 73, 84, 50)
    (multiply(complete(4), 4), 2, LINEAR, 48),
    (multiply(complete(4), 4), 2, CYCLIC, 8),
    (multiply(path(5), 2), 2, CYCLIC, 18),
    (multiply(complete(4), 2), 2, LINEAR, 24),
    (attach_pendants(path(4), 1, 5), 2, LINEAR, 6),
], ids=["K5", "C9", "circulant3_6", "K7", "P8", "4K4-linear", "4K4-cyclic",
        "2P5-cyclic", "2K4-linear", "P4-5-pendants"])
def test_refutations_replay_node_for_node(g, d, mode, nodes):
    res = exists_ordering(g, d, mode)
    assert res.status == NONEXISTENCE_CERTIFIED
    assert res.nodes_explored == nodes
    assert _oracle_search(g, d, mode, twins=True) == (False, nodes)
    assert not _oracle_search(g, d, mode)[0]  # the rule-free tree refutes too


@pytest.mark.parametrize("g,d,mode,found,nodes", [
    (complete_bipartite(5, 5), 5, LINEAR, False, 32_825),
    (complete_bipartite(5, 5), 4, LINEAR, True, 2_771),
    (circulant3(6), 6, LINEAR, False, 49_788),
    (circulant3(6), 5, LINEAR, True, 18),
    (complete_bipartite(5, 5), 5, CYCLIC, False, 1_313),
    (complete_bipartite(5, 5), 4, CYCLIC, True, 3_563),
    (complete(8), 4, LINEAR, False, 5_488),
    (complete(8), 4, CYCLIC, False, 196),
], ids=["ms-K5_5-d5", "ms-K5_5-d4", "ms-circulant3_6-d6", "ms-circulant3_6-d5",
        "cms-K5_5-d5", "cms-K5_5-d4", "ms-K8-d4", "cms-K8-d4"])
def test_pinned_solve_phases_replay_node_for_node(g, d, mode, found, nodes):
    # the phases of the unseeded solves of test_solver.test_node_counts_pinned
    # that the oracle can replay: each refutation, and each find the DFS made
    # before its first greedy slice (K8's finds come from the greedy)
    res = exists_ordering(g, d, mode)
    assert (res.status == VALUE_FOUND, res.nodes_explored) == (found, nodes)
    assert _oracle_search(g, d, mode, twins=True) == (found, nodes)


def test_verify_cross_checks_replay_node_for_node():
    # every search of the exact solves of `verify --exact-up-to-edges 12`:
    # seeded with the construction, they refute d = nu down to the row's
    # value + 1; the unseeded find at the row's value replays too
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
            assert _oracle_search(g, d, row.mode, twins=True) == (
                found, res.nodes_explored), (row.case, d)
            if not found:
                replayed += res.nodes_explored
                refutations += 1
        assert replayed == row.nodes, row.case
    assert (len(rows), refutations, sum(r.nodes for r in rows)) == (84, 36, 22_343)
