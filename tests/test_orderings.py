import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchseq import (CYCLIC, LINEAR, EdgeOrdering, FamilySpec,
                      biadjacency_layout, cms_complete_odd, complete,
                      complete_bipartite, cycle, degrees, family_ordering,
                      is_matching, matching_number, matching_number_bruteforce, multiply,
                      parse_biadjacency, path, random_ordering, read_ordering,
                      reflect, render_biadjacency, rotate, with_mode,
                      write_ordering)
from matchseq.errors import (FormatError, InvalidEdgeId, InvalidOrdering)
from matchseq.graphs import Edge, Graph, _graph_from_pairs
from matchseq.orderings import MODES, MatchingNumberReport


def _edge_token(o, eid):
    """One ordering token by itself, as the writer once made each: the
    pair's ids looked up, and the copy index found by a scan of them."""
    u, v = o.graph.us[eid], o.graph.vs[eid]
    siblings = o.graph.edge_ids_between(u, v)
    if len(siblings) == 1:
        return f"{u}-{v}"
    return f"{u}-{v}#{siblings.index(eid)}"


def _k44_paper_ordering(fixtures_dir, mode=LINEAR):
    g = complete_bipartite(4, 4)
    rows, cols = biadjacency_layout(FamilySpec("complete_bipartite", (4, 4)))
    return parse_biadjacency((fixtures_dir / "k44_matrix.txt").read_text(),
                             g, rows, cols, mode)


# ---------------------------------------------------------------------------
# is_matching

def test_is_matching_disjoint_triple():
    g = complete(6)
    ids = [g.edge_ids_between(0, 1)[0], g.edge_ids_between(2, 3)[0],
           g.edge_ids_between(4, 5)[0]]
    assert is_matching(g, ids)


def test_is_matching_sharing_vertex():
    g = complete(6)
    assert not is_matching(g, [g.edge_ids_between(0, 1)[0],
                               g.edge_ids_between(1, 2)[0]])


def test_is_matching_parallel_copies():
    g2 = multiply(path(2), 2)
    assert not is_matching(g2, [0, 1])


def test_first_block_of_odd_complete_construction_is_near_perfect():
    for m in (2, 3, 4):
        o = cms_complete_odd(m)
        first = o.sequence[:m]
        assert is_matching(o.graph, first)
        covered = {v for eid in first for v in
                   (o.graph.edges[eid].u, o.graph.edges[eid].v)}
        assert covered == set(range(1, 2 * m + 1))  # vertex 0 isolated


def test_is_matching_unknown_id():
    with pytest.raises(InvalidEdgeId):
        is_matching(complete(4), [99])


# ---------------------------------------------------------------------------
# matching_number against known labelings

def test_k44_matrix_value_and_pair(fixtures_dir):
    o = _k44_paper_ordering(fixtures_dir)
    report = matching_number(o)
    assert report.value == 3
    a, b, gap = report.violating_pair
    assert gap == 3
    # deterministic tie-break: smallest position first; labels 2 and 5 share
    # a column, so the reported pair sits at positions 2 and 5
    assert (o.position(a), o.position(b)) == (2, 5)
    ea, eb = o.graph.edges[a], o.graph.edges[b]
    assert {ea.u, ea.v} & {eb.u, eb.v}


def test_k46_matrix_value(fixtures_dir):
    g = complete_bipartite(4, 6)
    rows, cols = biadjacency_layout(FamilySpec("complete_bipartite", (4, 6)))
    o = parse_biadjacency((fixtures_dir / "k46_matrix.txt").read_text(),
                          g, rows, cols, LINEAR)
    assert matching_number(o).value == 4
    assert matching_number_bruteforce(o) == 4


def test_single_edge_value_both_modes():
    g = path(2)
    for mode in (LINEAR, CYCLIC):
        report = matching_number(EdgeOrdering(g, (0,), mode))
        assert report.value == 1
        assert report.violating_pair is None


def test_three_disjoint_edges_cyclic():
    g = Graph(6, (Edge(0, 0, 1), Edge(1, 2, 3), Edge(2, 4, 5)))
    for seq in ((0, 1, 2), (2, 0, 1)):
        assert matching_number(EdgeOrdering(g, seq, CYCLIC)).value == 3


def test_bruteforce_matches_on_k44(fixtures_dir):
    assert matching_number_bruteforce(_k44_paper_ordering(fixtures_dir)) == 3


def test_bruteforce_single_edge():
    assert matching_number_bruteforce(EdgeOrdering(path(2), (0,), CYCLIC)) == 1


def test_thousand_random_k6_orderings_agree():
    g = complete(6)
    rng = random.Random(1918)
    for i in range(1000):
        o = random_ordering(g, CYCLIC if i % 2 else LINEAR, rng)
        assert matching_number(o).value == matching_number_bruteforce(o)


def test_matching_number_is_sized_by_the_edges():
    # one edge on 2,000,000 vertices: first/last tables over the order
    # peaked at 30.5 MiB in one call
    g = Graph(2_000_000, [Edge(0, 1_999_998, 1_999_999)])
    for mode in MODES:
        o = EdgeOrdering(g, (0,), mode)
        tracemalloc.start()
        try:
            report = matching_number(o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == MatchingNumberReport(1, None)
        assert peak < 4 << 20, mode


def test_matching_number_keeps_its_report_on_a_sparse_re_embedding():
    """A small graph moved onto 2,000,000 vertices, its labels kept in
    order, gets the same report from the same sequence in both modes."""
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(2, 8)
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 12))]
        g = _graph_from_pairs(n, pairs, allow_parallel=True)
        names = sorted(rng.sample(range(2_000_000), n))
        big = _graph_from_pairs(2_000_000, [(names[u], names[v]) for u, v in pairs],
                                allow_parallel=True)
        for mode in MODES:
            o = random_ordering(g, mode, rng)
            assert matching_number(EdgeOrdering(big, o.sequence, mode)) == matching_number(o)


# ---------------------------------------------------------------------------
# symmetry helpers

def test_rotate_by_m_is_identity():
    o = random_ordering(complete(5), CYCLIC, random.Random(3))
    assert rotate(o, o.length).sequence == o.sequence


def test_rotate_requires_cyclic():
    o = random_ordering(complete(5), LINEAR, random.Random(3))
    with pytest.raises(InvalidOrdering):
        rotate(o, 1)


def test_cyclic_value_invariant_under_rotation_and_reflection():
    o = random_ordering(cycle(9), CYCLIC, random.Random(5))
    base = matching_number(o).value
    for s in range(o.length):
        assert matching_number(rotate(o, s)).value == base
    assert matching_number(reflect(o)).value == base


def test_reflect_preserves_linear_value():
    o = random_ordering(path(8), LINEAR, random.Random(11))
    assert matching_number(reflect(o)).value == matching_number(o).value


# ---------------------------------------------------------------------------
# property tests

_FAMILY_POOL = [complete(5), complete(6), cycle(6), cycle(9), path(7),
                complete_bipartite(2, 4), complete_bipartite(3, 3),
                multiply(cycle(3), 2), multiply(path(3), 3)]


@st.composite
def orderings(draw, modes=(LINEAR, CYCLIC)):
    g = draw(st.sampled_from(_FAMILY_POOL))
    seq = draw(st.permutations(range(g.num_edges)))
    return EdgeOrdering(g, tuple(seq), draw(st.sampled_from(modes)))


@given(orderings())
@settings(max_examples=150, deadline=None)
def test_gap_rule_agrees_with_window_scan(o):
    assert matching_number(o).value == matching_number_bruteforce(o)


@given(orderings())
@settings(max_examples=100, deadline=None)
def test_value_bounds_and_matching_case(o):
    d = matching_number(o).value
    assert 1 <= d <= o.length
    graph_is_matching = all(v <= 1 for v in degrees(o.graph))
    assert (d == o.length) == graph_is_matching


@given(orderings(modes=(CYCLIC,)))
@settings(max_examples=100, deadline=None)
def test_cyclic_at_most_linear(o):
    assert matching_number(o).value <= matching_number(with_mode(o, LINEAR)).value


@given(orderings(modes=(CYCLIC,)))
@settings(max_examples=60, deadline=None)
def test_cyclic_equals_min_over_rotations(o):
    if o.length > 12:
        return
    rotations = [matching_number(with_mode(rotate(o, s), LINEAR)).value
                 for s in range(o.length)]
    assert matching_number(o).value == min(rotations)


@given(orderings(modes=(LINEAR,)))
@settings(max_examples=100, deadline=None)
def test_even_order_bound(o):
    g = o.graph
    if g.order % 2 == 1 or all(v <= 1 for v in degrees(g)):
        return
    assert matching_number(o).value <= (g.order - 1) // 2


@given(orderings())
@settings(max_examples=60, deadline=None)
def test_report_pair_is_adjacent_at_reported_gap(o):
    report = matching_number(o)
    if report.violating_pair is None:
        return
    a, b, gap = report.violating_pair
    ea, eb = o.graph.edges[a], o.graph.edges[b]
    assert {ea.u, ea.v} & {eb.u, eb.v}
    delta = abs(o.position(a) - o.position(b))
    expected = min(delta, o.length - delta) if o.mode == CYCLIC else delta
    assert gap == expected == report.value


def _min_gap_oracle(o: EdgeOrdering) -> MatchingNumberReport:
    """O(m^2) reference: every pair of positions whose edges share a vertex,
    at its forward gap and, in cyclic mode, also at m - gap; the
    lexicographic minimum of (gap, pos_lo, pos_hi) wins."""
    m = o.length
    best = None
    for i, j in itertools.combinations(range(1, m + 1), 2):
        e, f = o.graph.edges[o.sequence[i - 1]], o.graph.edges[o.sequence[j - 1]]
        if not {e.u, e.v} & {f.u, f.v}:
            continue
        gaps = (j - i, m - (j - i)) if o.mode == CYCLIC else (j - i,)
        for gap in gaps:
            if best is None or (gap, i, j) < best:
                best = (gap, i, j)
    if best is None:
        return MatchingNumberReport(m, None)
    gap, i, j = best
    return MatchingNumberReport(gap, (o.sequence[i - 1], o.sequence[j - 1], gap))


@st.composite
def multigraph_orderings(draw):
    n = draw(st.integers(2, 7))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1]),
        min_size=1, max_size=14))
    g = _graph_from_pairs(n, pairs, allow_parallel=True)
    seq = draw(st.permutations(range(g.num_edges)))
    return EdgeOrdering(g, tuple(seq), draw(st.sampled_from(MODES)))


@given(st.one_of(orderings(), multigraph_orderings()))
@settings(max_examples=300, deadline=None)
def test_report_equals_pairwise_oracle(o):
    report = matching_number(o)
    want = _min_gap_oracle(o)
    assert report.value == want.value
    assert report.violating_pair == want.violating_pair


# ---------------------------------------------------------------------------
# construction and validation of orderings

def test_ordering_must_be_permutation():
    g = path(4)
    with pytest.raises(InvalidOrdering):
        EdgeOrdering(g, (0, 0, 1), LINEAR)
    with pytest.raises(InvalidOrdering):
        EdgeOrdering(g, (0, 1), LINEAR)
    # a duplicate, out of range, negative, short, long and non-integer ids
    for seq in [(0, 1, 1), (0, 1, 3), (-1, 0, 1), (2, 1), (0, 1, 2, 0),
                (0, 1.5, 2), ()]:
        with pytest.raises(InvalidOrdering, match="not a permutation of the 3"):
            EdgeOrdering(g, seq, CYCLIC)


def test_edgeless_graph_rejected():
    with pytest.raises(InvalidOrdering):
        EdgeOrdering(Graph(3, ()), (), LINEAR)


def test_bad_mode_rejected():
    with pytest.raises(InvalidOrdering):
        EdgeOrdering(path(3), (0, 1), "sideways")


# ---------------------------------------------------------------------------
# ordering file format

def test_ordering_file_roundtrip_simple():
    o = random_ordering(complete(5), LINEAR, random.Random(9))
    text = write_ordering(o)
    back = read_ordering(text, o.graph, LINEAR)
    assert back.sequence == o.sequence


def test_ordering_file_roundtrip_multigraph():
    g = multiply(cycle(3), 2)
    o = random_ordering(g, CYCLIC, random.Random(10))
    text = write_ordering(o)
    assert "#" in text  # parallel copies must be disambiguated
    assert read_ordering(text, g, CYCLIC).sequence == o.sequence


@st.composite
def simple_graph_orderings(draw):
    """Random simple graphs, each pair listed in either orientation."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), 2))),
                          min_size=1, max_size=20, unique=True))
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = _graph_from_pairs(n, [(b, a) if f else (a, b) for (a, b), f in zip(pairs, flips)])
    seq = draw(st.permutations(range(g.num_edges)))
    return EdgeOrdering(g, tuple(seq), draw(st.sampled_from(MODES)))


@given(st.one_of(orderings(), simple_graph_orderings(), multigraph_orderings()))
@settings(max_examples=200, deadline=None)
def test_ordering_file_roundtrip_property(o):
    text = write_ordering(o)
    back = read_ordering(text, o.graph, o.mode)
    assert back.sequence == o.sequence and back.mode == o.mode


@given(st.one_of(orderings().filter(lambda o: not o.graph.allow_parallel),
                 simple_graph_orderings()))
@settings(max_examples=100, deadline=None)
def test_simple_graph_tokens_match_edge_token(o):
    text = write_ordering(o)
    assert text == " ".join(_edge_token(o, eid) for eid in o.sequence) + "\n"
    for eid, token in zip(o.sequence, text.split()):
        e = o.graph.edges[eid]
        assert token == f"{e.u}-{e.v}"


@pytest.mark.parametrize("o", [
    family_ordering("doubled_complete", (101,), CYCLIC),
    random_ordering(multiply(complete(101), 2), LINEAR, random.Random(101)),
    random_ordering(multiply(complete(5), 3), CYCLIC, random.Random(5)),
    random_ordering(_graph_from_pairs(4, [(0, 1), (1, 2), (0, 1), (2, 3), (0, 1)],
                                      allow_parallel=True), LINEAR, random.Random(4)),
], ids=["2K101-construction", "2K101-random", "3K5-random", "mixed-copies"])
def test_multigraph_tokens_match_edge_token(o):
    # copy indices are computed once per pair in id order; single pairs of a
    # multigraph keep the plain "u-v"
    text = write_ordering(o)
    assert text == " ".join(_edge_token(o, eid) for eid in o.sequence) + "\n"
    assert read_ordering(text, o.graph, o.mode) == o


@pytest.mark.parametrize("text", [
    "0-1 0-2",            # wrong token count
    "0-1 1-2 9-9",        # unknown edge
    "0-1 1-2 xx",         # unparsable
    "0-1 0-1 1-2",        # repeated edge
    "0-1#1 1-2 2-3",      # copy index out of range
    "0-1#-1 1-2 2-3",     # negative copy index
])
def test_ordering_file_errors(text):
    with pytest.raises(FormatError):
        read_ordering(text, path(4), LINEAR)


@pytest.mark.parametrize("edge_id", [3, -1])
def test_position_rejects_unknown_edge_ids(edge_id):
    o = EdgeOrdering(path(4), (2, 0, 1), LINEAR)
    with pytest.raises(InvalidEdgeId):
        o.position(edge_id)


# ---------------------------------------------------------------------------
# matrix rendering

def test_render_parse_roundtrip():
    g = complete_bipartite(3, 5)
    rows, cols = biadjacency_layout(FamilySpec("complete_bipartite", (3, 5)))
    o = random_ordering(g, LINEAR, random.Random(4))
    text = render_biadjacency(o, rows, cols)
    assert parse_biadjacency(text, g, rows, cols, LINEAR).sequence == o.sequence


def test_parse_biadjacency_p4():
    # P4 = 0-1-2-3 with rows (0, 2) and columns (1, 3): the cell (0, 3) is
    # a non-edge, and this matrix labels the three edges in id order
    o = parse_biadjacency("1 .\n2 3\n", path(4), [0, 2], [1, 3], LINEAR)
    assert o.sequence == (0, 1, 2)


@pytest.mark.parametrize("text,message,bad_line", [
    ("1 .\n", "expected 2 matrix rows, found 1", None),
    ("1 . .\n2 3\n", "expected 2 cells", 1),
    ("1 .\nx 3\n", "bad cell 'x'", 2),
    ("1 2\n. 3\n", "cell (1,2) labels a non-edge", 1),
    ("1 .\n1 3\n", "label 1 out of range or repeated", 2),
    ("1 .\n2 4\n", "label 4 out of range or repeated", 2),
    ("0 .\n2 3\n", "label 0 out of range or repeated", 1),
    ("1 .\n2 .\n", "matrix does not label every edge", None),
], ids=["row-count", "cell-count", "non-integer", "non-edge", "repeated",
        "above-range", "below-range", "unlabelled-edge"])
def test_parse_biadjacency_rejections(text, message, bad_line):
    with pytest.raises(FormatError) as err:
        parse_biadjacency(text, path(4), [0, 2], [1, 3], LINEAR)
    assert message in str(err.value)
    assert err.value.line == bad_line


def test_render_rejects_uncovered_edges():
    g = complete(4)  # not bipartite: any split leaves an uncovered edge
    o = EdgeOrdering(g, tuple(range(6)), LINEAR)
    with pytest.raises(InvalidOrdering):
        render_biadjacency(o, [0, 1], [2, 3])


@pytest.mark.parametrize("rows,cols", [
    ([0, 1], [0, 1]),  # {0,1} in two cells, {2,3} in none
    ([0, 0, 2], [1, 3]),  # row vertex 0 twice: {0,1} in two cells
], ids=["edge-twice-edge-missed", "row-vertex-twice"])
def test_render_rejects_an_edge_outside_exactly_one_cell(rows, cols):
    o = EdgeOrdering(_graph_from_pairs(4, [(0, 1), (2, 3)]), (0, 1), LINEAR)
    with pytest.raises(InvalidOrdering, match="exactly one cell"):
        render_biadjacency(o, rows, cols)


def test_render_rejects_multigraphs():
    g = multiply(path(2), 2)
    o = EdgeOrdering(g, (0, 1), LINEAR)
    with pytest.raises(InvalidOrdering):
        render_biadjacency(o, [0], [1])
