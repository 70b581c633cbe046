"""Graphs as two endpoint columns: the builders against per-edge references,
the hot paths that must not read ``Graph.edges``, and the line splitting of
the edge-list reader."""

import dataclasses
import itertools
import random

import pytest

from matchseq import (FamilySpec, attach_pendants, biadjacency_layout, circulant3,
                      cms_complete_even, cms_cycle, cms_doubled_complete_odd,
                      complete, complete_bipartite, cycle, matching_number,
                      max_matching_size, ms_circulant3, ms_complete_bipartite,
                      ms_complete_odd_walecki, ms_exact, ms_path, multiply, path,
                      random_tree, read_edge_list, read_ordering, render_biadjacency,
                      write_edge_list, write_ordering)
from matchseq.catalog import _canonical_edge_subsets
from matchseq.errors import FormatError
from matchseq.graphs import Edge, Graph, _graph_from_pairs, _pieces, degrees
from matchseq.solver import _greedy_restarts, _spacing, _tables


def _reference_edges(pairs) -> tuple:
    """The edge tuple of a graph built from ``pairs``, one ``Edge`` per pair
    with its endpoints in ascending order and id = position."""
    return tuple(Edge(i, a, b) if a < b else Edge(i, b, a)
                 for i, (a, b) in enumerate(pairs))


def _builder_cases():
    """(graph, the pairs its builder lists, in id order)."""
    for n in range(1, 8):
        yield complete(n), list(itertools.combinations(range(n), 2))
    for p, q in [(1, 1), (1, 4), (2, 3), (3, 3), (4, 2)]:
        yield complete_bipartite(p, q), [(i, p + j) for i in range(p) for j in range(q)]
    for n in range(3, 9):
        yield cycle(n), [(i, (i + 1) % n) for i in range(n)]
    for n in range(2, 9):
        yield path(n), [(i, i + 1) for i in range(n - 1)]
    for n in range(3, 7):
        yield circulant3(n), [(i, n + c) for i in range(n)
                              for c in ((i - 1) % n, i, (i + 1) % n)]
    for base, k in [(complete(4), 3), (path(3), 2), (cycle(5), 1)]:
        yield multiply(base, k), [(e.u, e.v) for e in base.edges] * k
    for base, v, t in [(path(4), 0, 2), (complete(3), 2, 1), (multiply(path(3), 2), 1, 3)]:
        yield (attach_pendants(base, v, t),
               [(e.u, e.v) for e in base.edges] + [(v, base.order + j) for j in range(t)])
    for order in (2, 5, 9):
        g = random_tree(order, random.Random(order))
        yield g, [(e.u, e.v) for e in g.edges]


def _random_multigraphs(count: int):
    rng = random.Random(2020)
    for _ in range(count):
        n = rng.randint(2, 7)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 14))]
        yield n, pairs


def _assert_same_graph(g: Graph, pairs) -> None:
    rebuilt = Graph(g.order, g.edges, g.allow_parallel)
    assert rebuilt == g
    assert hash(rebuilt) == hash(g)
    assert g.edges == _reference_edges(pairs)
    assert g.num_edges == len(pairs)


def test_builders_agree_with_per_edge_reference():
    for g, pairs in _builder_cases():
        _assert_same_graph(g, pairs)


def test_six_vertex_classes_agree_with_per_edge_reference():
    classes = list(_canonical_edge_subsets(6))
    assert len(classes) == 155
    for pairs in classes:
        _assert_same_graph(_graph_from_pairs(6, pairs), pairs)


def test_random_multigraphs_agree_with_per_edge_reference():
    for n, pairs in _random_multigraphs(200):
        g = _graph_from_pairs(n, pairs, allow_parallel=True)
        _assert_same_graph(g, pairs)
        text = "\n".join([f"{n} {len(pairs)} multi"] + [f"{a} {b}" for a, b in pairs])
        assert read_edge_list(text) == g


def test_edges_is_built_on_each_access():
    g = complete(5)
    assert g.edges == g.edges and g.edges is not g.edges
    assert all(type(e) is Edge for e in g.edges)


def test_graph_fields_are_frozen():
    g = path(3)
    assert [f.name for f in dataclasses.fields(g)] == ["order", "us", "vs", "allow_parallel"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.us = (0,)


def test_hot_paths_do_not_read_edges(monkeypatch):
    def no_edges(self):
        raise AssertionError("Graph.edges read on a hot path")

    monkeypatch.setattr(Graph, "edges", property(no_edges))
    built = [cms_complete_even(4), ms_complete_odd_walecki(3),
             cms_doubled_complete_odd(3), ms_circulant3(5), cms_cycle(1000), ms_path(9)]
    bipartite = ms_complete_bipartite(3, 4)
    rows, cols = biadjacency_layout(FamilySpec("complete_bipartite", (3, 4)))
    assert render_biadjacency(bipartite, rows, cols)
    for o in built + [bipartite]:
        report = matching_number(o)
        assert report.value >= 1
        g = o.graph
        assert read_edge_list(write_edge_list(g)) == g
        assert read_ordering(write_ordering(o), g, o.mode).sequence == o.sequence
    assert max_matching_size(complete(6)) == 3
    compat, flip, start, pin = _tables(multiply(complete(4), 2))
    assert len(compat) == len(flip) == 12 and pin == ()
    assert _tables(complete(6))[3] == (0, 9, 14)
    k5, degree = complete(5), degrees(complete(5))
    room = _spacing(k5, 2, False, degree)
    placed, found = next(_greedy_restarts(k5, 2, False, _tables(k5)[0], degree, room))
    assert placed and found is not None
    assert ms_exact(complete(5)).value == 2


SEPARATORS = ["\r", "\r\n", "\v", "\f", "\x1c", "\x85", "\u2028"]


@pytest.mark.parametrize("sep", SEPARATORS)
def test_lines_split_like_splitlines(sep):
    rng = random.Random(ord(sep[-1]))
    seps = ["\n", "\r", "\r\n", sep]
    for _ in range(40):
        parts = [rng.choice(["", "0 1", "# c", " 2 3 ", "x"]) for _ in range(rng.randint(0, 12))]
        text = "".join(p + rng.choice(seps) for p in parts) + rng.choice(["", "4 5"])
        want = text.splitlines()
        for size in range(1, len(text) + 2):
            pieces = list(_pieces(text, size))
            assert "".join(pieces) == text
            assert [line for piece in pieces for line in piece.splitlines()] == want


@pytest.mark.parametrize("sep", SEPARATORS)
def test_edge_list_line_numbers_follow_splitlines(sep):
    rows = ["# c", "", "4 3", "0 1", "# d", "1 2", "2 2"]
    text = sep.join(rows) + sep
    assert text.splitlines() == rows
    with pytest.raises(FormatError) as err:
        read_edge_list(text)
    assert "loops are not allowed" in str(err.value)
    assert err.value.line == 7
    with pytest.raises(FormatError) as err:
        read_edge_list(text.replace("2 2", "2 3" + sep + "0 3"))
    assert "expected 3 edge lines, found 4" in str(err.value)
    assert err.value.line == 3
    g = read_edge_list(text.replace("2 2", "2 3"))
    assert g.edges == _reference_edges([(0, 1), (1, 2), (2, 3)])
