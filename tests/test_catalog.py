import itertools
import json
import random
from types import SimpleNamespace

import pytest

from matchseq import (CYCLIC, LINEAR, FamilySpec, cms_exact, complete,
                      cycle, explore_q1, explore_q2, explore_q3,
                      max_matching_size, ms_exact, multiply, path,
                      pendant_lemma_check, predicted, random_tree,
                      verify_families)
from matchseq.errors import InvalidFamilyParams, NoKnownFormula
from matchseq.graphs import Edge, Graph, complete_bipartite
from matchseq import catalog
from matchseq.constructions import FAMILIES
from matchseq.solver import VALUE_FOUND, SolveBudget, SolveResult


# ---------------------------------------------------------------------------
# predicted values

@pytest.mark.parametrize("family,params,mode,value", [
    ("complete", (9,), CYCLIC, 3),
    ("complete", (8,), CYCLIC, 3),
    ("complete", (8,), LINEAR, 3),
    ("complete", (3,), CYCLIC, 1),
    ("complete", (2,), LINEAR, 1),
    ("complete_bipartite", (4, 4), LINEAR, 3),
    ("complete_bipartite", (6, 4), LINEAR, 4),
    ("complete_bipartite", (1, 1), LINEAR, 1),
    ("cycle", (3,), CYCLIC, 1),
    ("cycle", (16,), LINEAR, 7),
    ("path", (10,), CYCLIC, 4),
    ("path", (11,), LINEAR, 5),
    ("path", (11,), CYCLIC, 4),
    ("path", (3,), CYCLIC, 1),
    ("path", (2,), CYCLIC, 1),
    ("circulant3", (7,), CYCLIC, 6),
    ("circulant3", (8,), LINEAR, 7),
    ("doubled_complete", (7,), CYCLIC, 3),
    ("complete_bipartite", (4, 4), CYCLIC, 3),
    ("complete_bipartite", (6, 4), CYCLIC, 4),
    ("complete_bipartite", (1, 1), CYCLIC, 1),
    ("doubled_complete", (5,), LINEAR, 2),
    ("doubled_complete", (7,), LINEAR, 3),
])
def test_predicted_values(family, params, mode, value):
    pv = predicted(family, mode, params)
    assert pv.value == value
    assert pv.provenance


def test_predicted_accepts_family_spec():
    assert predicted(FamilySpec("cycle", (9,)), CYCLIC).value == 4


def test_predicted_by_name_needs_params():
    with pytest.raises(ValueError):
        predicted("cycle", CYCLIC)


@pytest.mark.parametrize("family,params,mode", [
    ("doubled_complete", (3,), LINEAR),
    ("doubled_complete", (6,), CYCLIC),
    ("doubled_complete", (6,), LINEAR),
    ("martian", (3,), LINEAR),
    ("complete", (1,), LINEAR),  # K_1 has no edges
])
def test_predicted_uncovered_cases(family, params, mode):
    with pytest.raises(NoKnownFormula):
        predicted(family, mode, params)


@pytest.mark.parametrize("family,params,mode", [
    ("cycle", (5, 6), LINEAR),
    ("doubled_complete", (5, 6), CYCLIC),
    ("complete_bipartite", (4,), LINEAR),
])
def test_predicted_wrong_arity(family, params, mode):
    with pytest.raises(InvalidFamilyParams):
        predicted(family, mode, params)


def test_predicted_rejects_an_unknown_mode():
    with pytest.raises(ValueError):
        predicted("complete", "sideways", (5,))


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 7)
                                 for q in range(p, 36 // p + 1)])
def test_cms_exact_complete_bipartite_matches_predicted(p, q):
    assert cms_exact(complete_bipartite(p, q)).value == \
        predicted("complete_bipartite", CYCLIC, (p, q)).value


@pytest.mark.parametrize("n", (5, 7))
def test_ms_exact_doubled_complete_matches_predicted(n):
    assert ms_exact(multiply(complete(n), 2)).value == \
        predicted("doubled_complete", LINEAR, (n,)).value == (n - 1) // 2


def test_corollary_even_vs_odd_complete():
    for n in range(4, 10):
        lin = predicted("complete", LINEAR, (n,)).value
        cyc = predicted("complete", CYCLIC, (n,)).value
        assert cyc == lin - (n % 2)


def test_formulas_fall_below_one_only_where_nu_is_one():
    below = set()
    for name, record in FAMILIES.items():
        top = 8 if record.arity == 2 else 12
        for params in itertools.product(range(record.lower, top + 1),
                                        repeat=record.arity):
            for mode in (LINEAR, CYCLIC):
                try:
                    value, _ = record.formula(*params, mode)
                except NoKnownFormula:
                    continue
                pv = predicted(name, mode, params)
                if value >= 1:
                    assert pv.value == value, (name, params, mode)
                    continue
                below.add((name, params, mode))
                assert max_matching_size(record.build(*params)) == 1
                assert (pv.value, pv.provenance) == (
                    1, "nu = 1: no two edges are disjoint, so cms = ms = 1")
    assert below == {
        ("complete", (2,), LINEAR), ("complete", (2,), CYCLIC),
        ("complete", (3,), CYCLIC),
        ("complete_bipartite", (1, 1), LINEAR),
        ("complete_bipartite", (1, 1), CYCLIC),
        ("path", (2,), LINEAR), ("path", (2,), CYCLIC), ("path", (3,), CYCLIC)}


# ---------------------------------------------------------------------------
# verification harness

def test_verify_small_ranges_all_pass():
    report = verify_families(max_complete=6, max_cycle=8, max_bipartite=4,
                             max_circulant=5, doubled_ms=(2,),
                             exact_up_to_edges=10)
    assert report.all_pass
    assert report.rows == tuple(sorted(
        report.rows, key=lambda r: (r.family, r.params, r.mode)))
    exact_rows = [r for r in report.rows if r.exact is not None]
    assert exact_rows, "small instances must get solver confirmation"
    for r in exact_rows:
        assert r.exact == r.predicted == r.constructed


def test_verify_out_of_budget_rows_are_unresolved():
    # cross-checks seeded with the construction: only rows with a target
    # above the constructed value to refute can run out of budget, the
    # pinned first window refutes K4, K6, K3,3 and circulant3(3) in 2 or 3,
    # and spacing refutes P6 linear in 0; K5 cyclic and C6 linear stay open
    report = verify_families(max_complete=6, max_cycle=6, max_bipartite=3,
                             max_circulant=3, doubled_ms=(2,), exact_up_to_edges=16,
                             budget=SolveBudget(max_nodes=10))
    unresolved = [r for r in report.rows if r.unresolved]
    assert len(report.rows) == 42 and len(unresolved) == 2
    for r in report.rows:
        if r.unresolved:
            assert r.exact is None and not r.passed and r.status == "unresolved"
            assert r.constructed == r.predicted
        else:  # finished cross-checks and rows with none keep their status
            assert r.passed and r.status == "pass"
    assert not report.all_pass and not report.failed and report.unresolved == 2
    assert report.to_json_obj()["all_pass"] is False
    text = report.to_text()
    assert "all pass" not in text
    assert text.endswith("42 cases, 2 UNRESOLVED (exact solve out of budget)\n")


def test_verify_report_json_schema():
    report = verify_families(max_complete=4, max_cycle=4, max_bipartite=2,
                             max_circulant=3, doubled_ms=(),
                             exact_up_to_edges=6)
    obj = report.to_json_obj()
    assert obj["all_pass"] is True
    row = obj["rows"][0]
    assert set(row) == {"case", "predicted", "constructed", "exact", "status",
                        "citation", "runtime_ms", "nodes"}
    json.dumps(obj)  # must be serializable as-is


def test_verify_text_table_mentions_all_cases():
    report = verify_families(max_complete=4, max_cycle=3, max_bipartite=1,
                             max_circulant=3, doubled_ms=(),
                             exact_up_to_edges=0)
    text = report.to_text()
    assert "all pass" in text
    assert "complete(4) cyclic" in text


# ---------------------------------------------------------------------------
# pendant lemma (trees only)

def test_pendant_star():
    star = complete_bipartite(1, 3)  # K_{1,3}, order 4, center 0
    report = pendant_lemma_check(star)
    assert report.vertex == 0
    assert report.linear_pendants == 5 and report.cyclic_pendants == 6
    assert report.linear_value == 1 and report.cyclic_value == 1
    assert report.passed


def test_pendant_path_end_vertex():
    report = pendant_lemma_check(path(4), vertex=0)
    assert report.passed


def test_pendant_rejects_non_trees():
    with pytest.raises(InvalidFamilyParams):
        pendant_lemma_check(cycle(3))
    # triangle plus an isolated vertex: n-1 edges but not connected
    disconnected = Graph(4, (Edge(0, 0, 1), Edge(1, 1, 2), Edge(2, 0, 2)))
    with pytest.raises(InvalidFamilyParams):
        pendant_lemma_check(disconnected)


def test_pendant_random_trees():
    rng = random.Random(77)
    for _ in range(3):
        tree = random_tree(rng.randint(4, 6), rng)
        assert pendant_lemma_check(tree).passed


# ---------------------------------------------------------------------------
# explorers

def test_q1_triangle():
    res = explore_q1(complete(3), 2)
    assert res.matching_number == 1
    assert [(r.k, r.ms_value, r.cms_value) for r in res.rows] == [
        (1, 1, 1), (2, 1, 1)]
    assert all(r.ms_reached and r.cms_reached for r in res.rows)


def test_q1_short_path():
    res = explore_q1(path(3), 2)
    assert res.matching_number == 1
    assert all(r.resolved for r in res.rows)


def test_q1_k5_doubling_reaches_matching_number():
    res = explore_q1(complete(5), 2)
    assert res.matching_number == 2
    k1, k2 = res.rows
    assert (k1.ms_value, k1.cms_value) == (2, 1)
    assert (k2.ms_value, k2.cms_value) == (2, 2)
    assert k2.ms_reached and k2.cms_reached


def test_q2_four_vertices():
    res = explore_q2(4)
    assert not res.partial
    assert len(res.rows) == 10  # nonempty graphs on <= 4 vertices, up to iso
    assert res.max_gap == 0


def test_q2_row_with_a_missing_value_has_no_gap():
    for ms, cms in ((2, None), (None, 1), (None, None)):
        row = catalog.Q2Row(((0, 1), (2, 3)), ms, cms)
        assert not row.resolved and row.gap is None
    assert catalog.Q2Row(((0, 1),), 1, 1).gap == 0


def test_q2_gap_one_on_five_vertices():
    res = explore_q2(5)
    assert not res.partial
    assert len(res.rows) == 33
    assert res.max_gap == 1
    p5 = tuple(sorted(((0, 1), (1, 2), (2, 3), (3, 4))))
    gap_edges = [tuple(sorted(r.edges)) for r in res.witnesses]
    # the 5-vertex odd path is among the extremal witnesses (as some relabeling)
    assert any(len(e) == 4 for e in gap_edges)
    for row in res.rows:
        assert row.gap is not None and row.gap >= 0  # ms >= cms throughout


def test_q2_connected_filter():
    res = explore_q2(4, connected_only=True)
    assert all(len({v for p in r.edges for v in p}) <= len(r.edges) + 1
               for r in res.rows)
    assert len(res.rows) < 10


def test_q2_rejects_large_n():
    with pytest.raises(InvalidFamilyParams):
        explore_q2(8)


def test_q2_rejects_a_range_with_no_edge():
    for n_max in (1, 0, -3):
        with pytest.raises(InvalidFamilyParams):
            explore_q2(n_max)
    assert len(explore_q2(2).rows) == 1  # the smallest range: one edge


@pytest.mark.parametrize("k_max", [0, -1])
def test_q1_rejects_an_empty_range_of_k(k_max):
    with pytest.raises(InvalidFamilyParams):
        explore_q1(complete(3), k_max)


def test_canonical_classes_use_vertices_0_to_k_minus_1():
    for n in range(2, 7):
        for pairs in catalog._canonical_edge_subsets(n):
            used = {v for p in pairs for v in p}
            assert used == set(range(len(used))), (n, pairs)


def test_q3_single_edge():
    res = explore_q3(path(2))
    assert res.ms_single == 1 and res.cms_doubled == 1 and res.equal


def test_q3_k5():
    res = explore_q3(complete(5))
    assert res.ms_single == 2 and res.cms_doubled == 2 and res.equal


def test_q3_c5():
    res = explore_q3(cycle(5))
    assert res.resolved
    assert res.ms_single == 2
    assert res.cms_doubled == max_matching_size(multiply(cycle(5), 2)) == 2
    assert res.equal


def _stub_solves(monkeypatch, seconds_each: float) -> list[SolveBudget]:
    """Stub the explorers' exact solves: each records the budget it is given
    and takes seconds_each on a fake clock that nothing else moves."""
    now = [0.0]
    given: list[SolveBudget] = []

    def solve(g, budget):
        given.append(budget)
        now[0] += seconds_each
        return SolveResult(VALUE_FOUND, 1, None, 1)

    monkeypatch.setattr(catalog, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(catalog, "ms_exact", solve)
    monkeypatch.setattr(catalog, "cms_exact", solve)
    return given


def test_q1_budget_covers_the_whole_call(monkeypatch):
    given = _stub_solves(monkeypatch, 0.4)
    res = explore_q1(complete(3), 3, SolveBudget(max_nodes=77, max_seconds=1.0))
    # each solve gets the node cap and the seconds left; cells due after
    # the deadline stay None
    assert [b.max_seconds for b in given] == pytest.approx([1.0, 0.6, 0.2])
    assert {b.max_nodes for b in given} == {77}
    assert [(r.ms_value, r.cms_value, r.resolved) for r in res.rows] == [
        (1, 1, True), (1, None, False), (None, None, False)]


def test_q1_builds_no_host_after_the_deadline(monkeypatch):
    _stub_solves(monkeypatch, 0.4)
    built = []

    def multiply(g, k):
        built.append(k)
        return g

    monkeypatch.setattr(catalog, "multiply", multiply)
    explore_q1(complete(3), 3, SolveBudget(max_seconds=1.0))
    # k = 2 starts at 0.8 s, before the deadline; k = 3 would start at 1.2 s
    assert built == [1, 2]


def test_q2_budget_covers_the_whole_call(monkeypatch):
    given = _stub_solves(monkeypatch, 0.4)
    res = explore_q2(3, SolveBudget(max_seconds=1.0))
    # 3 classes on 3 vertices: the second class starts at 0.8 s, its cms
    # solve is due past the deadline, and the third class is never reached
    assert [b.max_seconds for b in given] == pytest.approx([1.0, 0.6, 0.2])
    assert [(r.ms_value, r.cms_value) for r in res.rows] == [(1, 1), (1, None)]
    assert res.partial and not res.rows[1].resolved


def test_q2_builds_no_host_at_the_deadline(monkeypatch):
    _stub_solves(monkeypatch, 0.4)
    built = []
    graph_from_pairs = catalog._graph_from_pairs

    def counting(n, pairs):
        built.append(pairs)
        return graph_from_pairs(n, pairs)

    monkeypatch.setattr(catalog, "_graph_from_pairs", counting)
    res = explore_q2(3, SolveBudget(max_seconds=0.8))
    # the first class's two solves end exactly at the 0.8 s deadline, so
    # no later class is built or reported
    assert len(built) == 1
    assert [(r.ms_value, r.cms_value) for r in res.rows] == [(1, 1)]
    assert res.partial


@pytest.mark.parametrize("seconds_each,given,resolved", [
    (0.7, [1.0, 0.3], True),
    (1.0, [1.0], False),
], ids=["both-in-time", "second-past-deadline"])
def test_q3_budget_covers_the_whole_call(monkeypatch, seconds_each, given, resolved):
    seen = _stub_solves(monkeypatch, seconds_each)
    res = explore_q3(path(3), SolveBudget(max_seconds=1.0))
    assert [b.max_seconds for b in seen] == pytest.approx(given)
    assert res.resolved is resolved and res.ms_single == 1
    assert res.equal is (True if resolved else None)
