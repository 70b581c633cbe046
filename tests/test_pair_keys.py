"""Vertex pairs as int keys ``u * order + v``: pairs outside the vertex range
must miss rather than alias onto an edge, the builders that skip the
duplicate-pair check must still pass it, and the writers' vertex-name table
must give the same bytes as formatting each edge."""

import random

import pytest

from matchseq import (CYCLIC, LINEAR, EdgeOrdering, FamilySpec, attach_pendants,
                      build_family, circulant3, complete, complete_bipartite, cycle,
                      family_ordering, multiply, parse_biadjacency, path, random_ordering,
                      read_ordering, write_edge_list, write_ordering)
from matchseq.constructions import RotationScheme
from matchseq.errors import FormatError
from matchseq.graphs import Graph, _from_columns, _graph_from_pairs


# ---------------------------------------------------------------------------
# out-of-range pairs miss

@pytest.mark.parametrize("a,b", [(0, 8), (8, 0), (-1, 0), (0, -1), (-1, 6), (6, -1),
                                 (0, 5), (5, 5), (-1, -1)])
def test_edge_ids_between_misses_outside_the_vertex_range(a, b):
    # on K_5, 0*5 + 8 == 1*5 + 3 and -1*5 + 6 == 0*5 + 1: keyed unchecked,
    # {0,8} and {-1,6} would name the edges {1,3} and {0,1}
    assert complete(5).edge_ids_between(1, 3) == (5,)
    assert complete(5).edge_ids_between(a, b) == ()
    assert multiply(complete(5), 2).edge_ids_between(a, b) == ()


@pytest.mark.parametrize("token", ["0-8", "8-0"])
def test_ordering_token_outside_the_range_is_no_edge(token):
    g = complete(5)
    text = write_ordering(EdgeOrdering(g, tuple(range(10)), LINEAR))
    assert " 1-3 " in text
    with pytest.raises(FormatError) as err:
        read_ordering(text.replace("1-3", token), g, LINEAR)
    a, b = token.split("-")
    assert f"token {token!r}: no edge {{{a},{b}}} in graph" in str(err.value)
    assert err.value.line == 1


def test_ordering_token_outside_the_range_on_a_multigraph():
    g = multiply(complete(5), 2)
    text = write_ordering(EdgeOrdering(g, tuple(range(20)), LINEAR))
    with pytest.raises(FormatError, match=r"no edge \{0,8\}"):
        read_ordering(text.replace("1-3#1", "0-8#1"), g, LINEAR)


def test_matrix_row_vertex_outside_the_range_is_a_non_edge():
    # row vertex 6 of P4 (order 4) next to column 0: the key 0*4 + 6 is that
    # of edge {1,2}, which the cell must not name
    with pytest.raises(FormatError) as err:
        parse_biadjacency("1 .\n2 3\n", path(4), [6, 2], [0, 3], LINEAR)
    assert "cell (1,1) labels a non-edge" in str(err.value)
    assert err.value.line == 1


def test_rotation_scheme_pair_outside_the_range_is_no_edge():
    scheme = RotationScheme(((0, 8),), tuple(range(9)), 1)
    with pytest.raises(ValueError, match=r"no edge \{0,8\}"):
        scheme.ordering(complete(5), LINEAR)


# ---------------------------------------------------------------------------
# builders that skip the duplicate check

def _distinct_builder_hosts():
    for n in range(1, 13):
        yield complete(n)
    for p in range(1, 7):
        for q in range(1, 7):
            yield complete_bipartite(p, q)
    for n in range(3, 21):
        yield cycle(n)
    for n in range(2, 21):
        yield path(n)
    for n in range(3, 13):
        yield circulant3(n)


def test_builders_that_skip_the_duplicate_check_pass_the_full_check():
    for g in _distinct_builder_hosts():
        assert not g.allow_parallel
        assert Graph(g.order, g.edges) == g  # Graph(...) runs every rule
        assert len(set(zip(g.us, g.vs))) == g.num_edges


@pytest.mark.parametrize("us,vs", [((0, 2), (1, 1)), ((0, 1), (1, 4)), ((-1,), (1,))],
                         ids=["swapped", "too-big", "negative"])
def test_skipping_the_duplicate_check_keeps_the_endpoint_rules(us, vs):
    with pytest.raises(ValueError, match="bad edge"):
        _from_columns(4, us, vs, distinct=True)


def test_pairs_from_outside_keep_the_duplicate_check():
    with pytest.raises(ValueError, match="duplicate edge"):
        _graph_from_pairs(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="duplicate edge"):
        _from_columns(3, (0, 0), (1, 1))


# ---------------------------------------------------------------------------
# writers: one formatted name per vertex, same bytes as one f-string per edge

def _fstring_edge_list(g: Graph) -> str:
    header = f"{g.order} {g.num_edges}" + (" multi" if g.allow_parallel else "")
    return "\n".join([header] + [f"{e.u} {e.v}" for e in g.edges]) + "\n"


def _fstring_ordering(o: EdgeOrdering) -> str:
    edges = o.graph.edges
    copies: dict = {}
    for e in edges:
        copies.setdefault((e.u, e.v), []).append(e.id)

    def token(eid):
        e = edges[eid]
        ids = copies[e.u, e.v]
        return f"{e.u}-{e.v}" if len(ids) == 1 else f"{e.u}-{e.v}#{ids.index(eid)}"

    return " ".join(map(token, o.sequence)) + "\n"


_FAMILY_PARAMS = {
    "complete": [(n,) for n in range(2, 13)],
    "complete_bipartite": [(1, 1), (2, 5), (4, 4), (6, 3)],
    "cycle": [(n,) for n in (3, 4, 11, 12)],
    "path": [(n,) for n in (2, 3, 10, 11)],
    "circulant3": [(n,) for n in (3, 4, 7)],
    "doubled_complete": [(n,) for n in (5, 7, 9)],
}


def _writer_orderings():
    rng = random.Random(23)
    for family, params_list in _FAMILY_PARAMS.items():
        for params in params_list:
            for mode in (LINEAR, CYCLIC):
                yield family_ordering(family, params, mode)
                yield random_ordering(build_family(FamilySpec(family, params)), mode, rng)
    for g in (multiply(cycle(4), 3), attach_pendants(multiply(path(3), 2), 1, 2),
              attach_pendants(complete(4), 2, 3)):
        yield random_ordering(g, LINEAR, rng)
    for _ in range(20):
        n = rng.randint(2, 12)
        pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(1, 30))]
        yield random_ordering(_graph_from_pairs(n, pairs, allow_parallel=True), CYCLIC, rng)


def test_writers_match_the_per_edge_fstring_form():
    seen_multi = seen_simple = 0
    for o in _writer_orderings():
        seen_multi += o.graph.allow_parallel
        seen_simple += not o.graph.allow_parallel
        assert write_edge_list(o.graph) == _fstring_edge_list(o.graph)
        assert write_ordering(o) == _fstring_ordering(o)
    assert seen_multi >= 20 and seen_simple >= 50
