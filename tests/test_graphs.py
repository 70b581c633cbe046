import copy
import itertools
import pickle
import random
import tracemalloc

import pytest

from matchseq import (CYCLIC, LINEAR, Edge, EdgeOrdering, FamilySpec, attach_pendants,
                      biadjacency_layout, build_family, circulant3,
                      cms_complete_even, complete, complete_bipartite, cycle,
                      degrees, is_connected, is_tree, max_matching_size,
                      ms_complete_bipartite, multiply, path, random_ordering,
                      random_tree, read_edge_list, read_ordering,
                      render_biadjacency, write_edge_list, write_ordering)
from matchseq.errors import FormatError, InvalidFamilyParams, InvalidVertex
from matchseq.catalog import _canonical_edge_subsets
from matchseq.graphs import Graph, _graph_from_pairs


def test_complete_edge_count_and_lexicographic_ids():
    g = complete(4)
    assert g.num_edges == 6
    assert [(e.u, e.v) for e in g.edges] == [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_cycle_edges():
    g = cycle(7)
    assert [(e.u, e.v) for e in g.edges] == [
        (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (0, 6)]


def test_circulant3_is_cubic():
    g = circulant3(7)
    assert g.num_edges == 21
    assert degrees(g) == [3] * 14


def test_circulant3_n3_coincides_with_k33():
    got = {(e.u, e.v) for e in circulant3(3).edges}
    want = {(e.u, e.v) for e in complete_bipartite(3, 3).edges}
    assert got == want


def test_bipartite_row_major_ids():
    g = complete_bipartite(2, 3)
    assert [(e.u, e.v) for e in g.edges] == [
        (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]


def test_build_family_deterministic():
    spec = FamilySpec("circulant3", (5,))
    assert build_family(spec).edges == build_family(spec).edges


@pytest.mark.parametrize("spec,expected_degrees", [
    (FamilySpec("complete", (6,)), [5] * 6),
    (FamilySpec("cycle", (9,)), [2] * 9),
    (FamilySpec("path", (6,)), [1, 2, 2, 2, 2, 1]),
    (FamilySpec("circulant3", (4,)), [3] * 8),
    (FamilySpec("complete_bipartite", (2, 5)), [5, 5, 2, 2, 2, 2, 2]),
])
def test_family_degree_sequences(spec, expected_degrees):
    assert sorted(degrees(build_family(spec))) == sorted(expected_degrees)


@pytest.mark.parametrize("family,params", [
    ("complete", (0,)), ("cycle", (2,)), ("path", (1,)),
    ("circulant3", (2,)), ("complete_bipartite", (0, 3)),
    ("nosuch", (3,)), ("complete", (3, 3)),
    ("complete", (6.5,)), ("cycle", (6.0,)),
])
def test_family_param_bounds(family, params):
    with pytest.raises(InvalidFamilyParams):
        FamilySpec(family, params)


def test_multiply_counts_and_ids():
    g2 = multiply(complete(7), 2)
    assert g2.num_edges == 42
    assert g2.allow_parallel
    # copy j of edge e keeps endpoints, id j*m + e
    base = complete(7)
    for e in base.edges:
        twin = g2.edges[21 + e.id]
        assert (twin.u, twin.v) == (e.u, e.v)


def test_multiply_identity_and_parallel_adjacency():
    g = cycle(3)
    assert [(e.u, e.v) for e in multiply(g, 1).edges] == [(e.u, e.v) for e in g.edges]
    g3 = multiply(g, 3)
    assert g3.num_edges == 9
    copies = g3.edge_ids_between(0, 1)
    assert len(copies) == 3
    for a in copies:
        for b in copies:
            if a != b:
                ea, eb = g3.edges[a], g3.edges[b]
                assert {ea.u, ea.v} == {eb.u, eb.v}


@pytest.mark.parametrize("g", [complete(5), cycle(6), path(7)])
def test_multiply_preserves_max_matching(g):
    assert max_matching_size(multiply(g, 2)) == max_matching_size(g)
    assert max_matching_size(multiply(g, 3)) == max_matching_size(g)


def test_attach_pendants():
    g = attach_pendants(path(4), 0, 5)
    assert g.order == 9
    assert g.num_edges == 8
    assert sorted(degrees(g))[-1] == 6  # vertex 0: one path edge + five pendants


def test_attach_pendants_single_leaf():
    g = attach_pendants(cycle(3), 1, 1)
    assert g.order == 4 and g.num_edges == 4
    assert degrees(g)[3] == 1


def test_attach_pendants_bad_vertex():
    with pytest.raises(InvalidVertex):
        attach_pendants(path(4), 4, 1)


def test_max_matching_values():
    assert max_matching_size(complete(7)) == 3
    assert max_matching_size(path(10)) == 5
    assert max_matching_size(cycle(9)) == 4
    assert max_matching_size(complete_bipartite(3, 5)) == 3


def test_max_matching_order18_tree_with_perfect_matching():
    # comb: spine 0,2,...,16 plus a leaf hanging off each spine vertex
    pairs = [(2 * i, 2 * i + 2) for i in range(8)] + \
            [(2 * i, 2 * i + 1) for i in range(9)]
    g = Graph(18, tuple(Edge(i, min(p), max(p)) for i, p in enumerate(pairs)))
    assert is_tree(g)
    assert max_matching_size(g) == 9


# ---------------------------------------------------------------------------
# Edmonds' blossom algorithm against an exhaustive oracle

def _exhaustive_matching_size(g: Graph) -> int:
    """Oracle: branch over the lowest-index matchable vertex (left unmatched,
    or matched to each neighbour in turn), memoised on the remaining vertex
    set.  Exponential, and recursive once per matched vertex."""
    adj = [0] * g.order
    for e in g.edges:
        adj[e.u] |= 1 << e.v
        adj[e.v] |= 1 << e.u
    memo: dict[int, int] = {}

    def best(mask: int) -> int:
        while mask:
            low = mask & -mask
            v = low.bit_length() - 1
            if adj[v] & mask:
                break
            mask ^= low  # unmatchable vertex, drop it
        else:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        rest = mask ^ low
        result = best(rest)
        nb = adj[v] & rest
        while nb:
            ub = nb & -nb
            nb ^= ub
            result = max(result, 1 + best(rest ^ ub))
        memo[mask] = result
        return result

    return best((1 << g.order) - 1)


def test_matching_agrees_with_oracle_on_all_6_vertex_classes():
    classes = list(_canonical_edge_subsets(6))
    assert len(classes) == 155
    for pairs in classes:
        g = _graph_from_pairs(6, pairs)
        assert max_matching_size(g) == _exhaustive_matching_size(g), pairs


def test_matching_agrees_with_oracle_on_random_multigraphs():
    rng = random.Random(1109)
    for _ in range(400):
        n = rng.randint(2, 12)
        pairs = list(itertools.combinations(range(n), 2))
        if rng.random() < 0.5:  # multigraph: edges drawn with repetition
            chosen = [rng.choice(pairs) for _ in range(rng.randint(1, 2 * n))]
        else:
            p = rng.random()
            chosen = [e for e in pairs if rng.random() < p]
        g = _graph_from_pairs(n, chosen, allow_parallel=True)
        assert max_matching_size(g) == _exhaustive_matching_size(g), (n, chosen)


_PETERSEN = ([(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
             + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])
# triangles {0,1,2} and {4,5,6} (or {5,6,7}) joined by a path through 3 (and 4)
_TRIANGLES_ODD_PATH = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 6)]
_TRIANGLES_EVEN_PATH = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6),
                        (6, 7), (5, 7)]


@pytest.mark.parametrize("order,pairs,nu", [
    (10, _PETERSEN, 5), (7, _TRIANGLES_ODD_PATH, 3), (8, _TRIANGLES_EVEN_PATH, 4),
], ids=["petersen", "triangles-odd-path", "triangles-even-path"])
def test_matching_on_hosts_with_blossoms(order, pairs, nu):
    # relabelled copies: the greedy start misses on many of them, so the
    # augmenting search has to contract an odd cycle
    rng = random.Random(order)
    for _ in range(20):
        perm = list(range(order))
        rng.shuffle(perm)
        g = _graph_from_pairs(order, [(perm[a], perm[b]) for a, b in pairs])
        assert max_matching_size(g) == _exhaustive_matching_size(g) == nu


def test_matching_on_long_cycle_no_recursion_limit():
    assert max_matching_size(cycle(3000)) == 1500


def test_loops_rejected():
    with pytest.raises(ValueError):
        Graph(3, (Edge(0, 1, 1),))


def test_duplicate_edges_need_allow_parallel():
    edges = (Edge(0, 0, 1), Edge(1, 0, 1))
    with pytest.raises(ValueError):
        Graph(2, edges)
    assert Graph(2, edges, allow_parallel=True).num_edges == 2


def test_random_tree_is_tree():
    rng = random.Random(42)
    for order in range(2, 10):
        t = random_tree(order, rng)
        assert t.order == order
        assert is_tree(t)
    state = rng.getstate()
    assert random_tree(2, rng).edges == (Edge(0, 0, 1),)
    assert rng.getstate() == state  # the empty Pruefer sequence draws nothing


def test_is_connected():
    assert is_connected(cycle(5))
    two_parts = Graph(4, (Edge(0, 0, 1), Edge(1, 2, 3)))
    assert not is_connected(two_parts)
    assert not is_tree(two_parts)
    assert is_connected(Graph(1, ()))


def test_is_connected_builds_no_table_per_vertex_when_edges_are_too_few():
    # one edge on 2,000,000 vertices: a neighbour set per vertex took 4.9 s
    # and peaked at 428 MiB to answer False
    g = Graph(2_000_000, [Edge(0, 1_999_998, 1_999_999)])
    tracemalloc.start()
    try:
        connected = is_connected(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not connected
    assert peak < 4 << 20


def test_edge_list_roundtrip():
    for g in (complete(5), multiply(cycle(3), 2), path(2)):
        text = write_edge_list(g)
        h = read_edge_list(text)
        assert h.order == g.order
        assert h.allow_parallel == g.allow_parallel
        assert [(e.u, e.v) for e in h.edges] == [(e.u, e.v) for e in g.edges]


def test_edge_list_comments_ignored():
    g = read_edge_list("# a triangle\n3 3\n0 1\n# middle comment\n1 2\n0 2\n")
    assert g.num_edges == 3


@pytest.mark.parametrize("text,bad_line", [
    ("3 2\n0 1\n", 1),          # count mismatch reported at header
    ("3 1\n0 0\n", 2),          # loop
    ("3 1\n0 9\n", 2),          # out of range
    ("3 1\nx y\n", 2),          # not integers
    ("nonsense\n", 1),
])
def test_edge_list_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(FormatError) as err:
        read_edge_list(text)
    assert err.value.line == bad_line


def test_edge_list_empty_file():
    with pytest.raises(FormatError):
        read_edge_list("# only comments\n")


@pytest.mark.parametrize("text,message,bad_line", [
    ("x 2\n0 1\n1 2\n", "header must contain integers", 1),
    ("3 1\n0\n", "edge line must be 'u v'", 2),
    ("3 1\n0 1 2\n", "edge line must be 'u v'", 2),
    ("0 0\n", "graph order must be >= 1, got 0", None),
    ("3 2\n0 1\n1 0\n", "duplicate edge {0,1} in a simple graph", None),
    ("3 1 simple\n0 1\n", "header must be 'n m' or 'n m multi'", 1),
    ("3 1 multi x\n0 1\n", "header must be 'n m' or 'n m multi'", 1),
    ("3 3\n0 1\n# c\n2 2\n", "loops are not allowed", 4),
    ("# c\n3 3\n\n0 1\n1 2\n", "expected 3 edge lines, found 2", 2),
], ids=["non-integer-header", "one-token-edge", "three-token-edge", "header-0-0",
        "repeated-pair", "unknown-header-flag", "extra-header-token",
        "bad-line-before-count", "short-count-after-blank-line"])
def test_edge_list_rejections(text, message, bad_line):
    with pytest.raises(FormatError) as err:
        read_edge_list(text)
    assert message in str(err.value)
    assert err.value.line == bad_line


# ---------------------------------------------------------------------------
# bulk validation and pair index against their per-edge references

def _reference_fault(order: int, edges, allow_parallel: bool) -> str | None:
    """Reference validation, the per-edge loop: the message for the first
    faulty edge in id order, or None for a valid graph."""
    seen = set()
    for i, e in enumerate(edges):
        if e.id != i:
            return f"edge ids must be dense: edges[{i}].id == {e.id}"
        if not (0 <= e.u < e.v < order):
            return f"bad edge {e}: need 0 <= u < v < {order}"
        if (e.u, e.v) in seen and not allow_parallel:
            return f"duplicate edge {{{e.u},{e.v}}} in a simple graph"
        seen.add((e.u, e.v))
    return None


def _inject(kind: str, order: int, edges: list, rng: random.Random) -> None:
    """Put one fault of the given kind into ``edges`` in place."""
    i = rng.randrange(len(edges))
    e = edges[i]
    if kind == "id":
        edges[i] = Edge(rng.choice([x for x in range(-2, len(edges) + 2) if x != i]),
                        e.u, e.v)
    elif kind == "loop":
        edges[i] = Edge(i, e.u, e.u)
    elif kind == "swapped":
        edges[i] = Edge(i, e.v, e.u)
    elif kind == "negative":
        edges[i] = Edge(i, -rng.randint(1, 3), e.v)
    elif kind == "too_big":
        edges[i] = Edge(i, e.u, order + rng.randint(0, 2))
    else:  # "duplicate": repeat another edge's pair
        j = rng.choice([x for x in range(len(edges)) if x != i])
        edges[i] = Edge(i, edges[j].u, edges[j].v)


_FAULTS = ("id", "loop", "swapped", "negative", "too_big", "duplicate")


@pytest.mark.parametrize("allow_parallel", [False, True])
def test_validation_agrees_with_per_edge_reference(allow_parallel):
    rng = random.Random(2027 + allow_parallel)
    accepted, rejected_by = 0, set()
    for trial in range(1200):
        order = rng.randint(3, 9)
        pairs = list(itertools.combinations(range(order), 2))
        chosen = rng.sample(pairs, rng.randint(2, len(pairs)))
        edges = [Edge(i, a, b) for i, (a, b) in enumerate(chosen)]
        kinds = [] if trial % 7 == 0 else \
            [rng.choice(_FAULTS) for _ in range(rng.choice([1, 1, 1, 2]))]
        for kind in kinds:
            _inject(kind, order, edges, rng)
        want = _reference_fault(order, edges, allow_parallel)
        try:
            Graph(order, tuple(edges), allow_parallel)
        except ValueError as exc:
            got = str(exc)
        else:
            got = None
        assert got == want, (order, edges, allow_parallel)
        accepted += want is None
        if len(kinds) == 1 and want is not None:
            rejected_by.add(kinds[0])
    assert accepted
    # parallel edges make a repeated pair the one fault that is not one
    assert rejected_by == set(_FAULTS) - ({"duplicate"} if allow_parallel else set())


def test_builders_make_edge_instances():
    multi = multiply(cycle(4), 3)
    hosts = [complete(6), complete_bipartite(2, 3), cycle(5), path(4), circulant3(4),
             multi, attach_pendants(multi, 1, 2), attach_pendants(path(3), 0, 1),
             random_tree(7, random.Random(5)), read_edge_list(write_edge_list(multi)),
             _graph_from_pairs(4, [(3, 0), (2, 1), (1, 3)])]
    for g in hosts:
        assert all(type(e) is Edge for e in g.edges)


def _reference_pair_index(g: Graph) -> dict:
    index: dict = {}
    for e in g.edges:
        index.setdefault((e.u, e.v), []).append(e.id)
    return {k: tuple(v) for k, v in index.items()}


def _shuffled_multigraph_text(rng: random.Random) -> str:
    n = rng.randint(2, 7)
    pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 15))]
    lines = [f"{n} {len(pairs)} multi"] + [f"{a} {b}" for a, b in pairs]
    return "\n".join(lines) + "\n"


def test_pair_index_agrees_with_reference_on_multigraphs():
    """edge_ids_between matches a tuple-keyed reference on every vertex
    pair in both orientations, non-edges included."""
    rng = random.Random(77)
    hosts = [multiply(complete(5), 3), multiply(path(4), 2),
             attach_pendants(multiply(cycle(4), 2), 0, 3),
             attach_pendants(complete(4), 2, 2)]
    hosts += [read_edge_list(_shuffled_multigraph_text(rng)) for _ in range(40)]
    for g in hosts:
        want = _reference_pair_index(g)
        for u, v in itertools.combinations(range(g.order), 2):
            ids = want.get((u, v), ())
            assert list(ids) == sorted(ids)  # copies in id order
            assert g.edge_ids_between(u, v) == g.edge_ids_between(v, u) == ids
        assert g.edge_ids_between(0, g.order) == ()


def _row_run_hosts():
    """The hosts that declare their edges as row runs: K_n and K_{p,q}."""
    for n in range(1, 13):
        yield complete(n)
    for p in range(1, 7):
        for q in range(1, 7):
            yield complete_bipartite(p, q)


def test_arithmetic_lookup_agrees_with_reference():
    """On K_n and K_{p,q}, edge_ids_between matches a tuple-keyed reference
    on every pair in both orientations, a == b and pairs outside the range
    included, and builds no pair index.  The same host rebuilt by
    ``Graph(...)`` has no row runs: its dict gives the same ids.  An
    unpickled copy keeps the row runs and gives them too."""
    for g in _row_run_hosts():
        n = g.order
        want = _reference_pair_index(g)
        rebuilt = Graph(n, g.edges)
        unpickled = pickle.loads(pickle.dumps(g))
        assert rebuilt == unpickled == g
        for u, v in itertools.product(range(n), repeat=2):
            ids = want.get((min(u, v), max(u, v)), ())
            assert g.edge_ids_between(u, v) == rebuilt.edge_ids_between(u, v) == ids
            assert unpickled.edge_ids_between(u, v) == ids
        # the pairs that alias in tests/test_pair_keys.py, and their shapes
        # at every order: a key in range, but an endpoint out of it
        outside = [(0, 8), (8, 0), (-1, 0), (0, -1), (-1, 6), (6, -1), (0, 5),
                   (5, 5), (-1, -1), (0, n), (n, 0), (-1, n - 1), (n - 1, n + 2),
                   (n, n), (1, 2 * n)]
        for a, b in outside:
            if not (0 <= a < n and 0 <= b < n):
                assert g.edge_ids_between(a, b) == rebuilt.edge_ids_between(a, b) == ()
        assert "_pair_index" not in g.__dict__


def test_copies_keep_the_row_runs():
    """A pickled or deep-copied K_n or K_{p,q} answers every pair from its
    row runs, with the original's ids, and builds no pair index."""
    for g in _row_run_hosts():
        want = _reference_pair_index(g)
        for twin in (pickle.loads(pickle.dumps(g)), copy.deepcopy(g)):
            assert twin == g
            for u, v in itertools.product(range(-1, g.order + 1), repeat=2):
                assert twin.edge_ids_between(u, v) == want.get((min(u, v), max(u, v)), ())
            assert "_pair_index" not in twin.__dict__


def test_orderings_round_trip_on_arithmetic_hosts():
    rng = random.Random(28)
    for g in _row_run_hosts():
        if not g.num_edges:  # K_1 has no ordering
            continue
        for mode in (LINEAR, CYCLIC):
            o = random_ordering(g, mode, rng)
            assert read_ordering(write_ordering(o), g, mode) == o
            assert read_ordering(write_ordering(o), read_edge_list(write_edge_list(g)),
                                 mode).sequence == o.sequence
        assert "_pair_index" not in g.__dict__


def test_dense_builders_build_no_pair_index():
    orderings = [cms_complete_even(200), ms_complete_bipartite(100, 200)]
    rows, cols = biadjacency_layout(FamilySpec("complete_bipartite", (100, 200)))
    render_biadjacency(orderings[1], rows, cols)
    k400 = complete(400)
    found = [k400.edge_ids_between(b, a) for a, b in itertools.combinations(range(400), 2)]
    assert found == [(i,) for i in range(79_800)]
    for g in [o.graph for o in orderings] + [k400]:
        assert "_pair_index" not in g.__dict__


@pytest.mark.parametrize("build,bound", [
    (lambda: cms_complete_even(200), 15 * 2**20),
    (lambda: ms_complete_bipartite(100, 200), 5 * 2**20),
], ids=["K400", "K100_200"])
def test_dense_constructions_peak_without_the_index(build, bound):
    # with a pair index per host these peaked at 19.9 and 5.9 MiB; the
    # row runs bring them to about 11.6 and 3.9 MiB
    tracemalloc.start()
    try:
        build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


@pytest.mark.parametrize("ends", [(0, 1), (1_999_998, 1_999_999)])
def test_writers_name_only_the_vertices_with_edges(ends):
    # one edge on 2,000,000 vertices: a name per vertex peaked at 122 MiB in
    # each writer; the text is the same either way
    g = Graph(2_000_000, [Edge(0, *ends)])
    o = EdgeOrdering(g, (0,), CYCLIC)
    for write, want in ((write_edge_list, f"2000000 1\n{ends[0]} {ends[1]}\n"),
                        (write_ordering, f"{ends[0]}-{ends[1]}\n")):
        tracemalloc.start()
        try:
            text = write(o if write is write_ordering else g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == want
        assert peak < 4 << 20, write.__name__
