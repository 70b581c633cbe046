import random

import pytest

from matchseq import (CYCLIC, LINEAR, FamilySpec, RotationScheme, SolveBudget,
                      VALUE_FOUND, attach_pendants, biadjacency_layout, circulant3,
                      cms_complete_even, cms_complete_odd, cms_cycle,
                      cms_doubled_complete_odd, cms_exact, cms_path, complete,
                      complete_bipartite, cycle, family_ordering, is_matching,
                      matching_number, matching_number_bruteforce,
                      ms_circulant3, ms_complete_bipartite,
                      ms_complete_odd_walecki, ms_path, multiply, path,
                      predicted, random_tree, render_biadjacency, with_mode)
from matchseq.constructions import FAMILIES
from matchseq.errors import InvalidFamilyParams


def _pairs(o):
    return [(o.graph.edges[e].u, o.graph.edges[e].v) for e in o.sequence]


def _rendered(o, family, params):
    rows, cols = biadjacency_layout(FamilySpec(family, params))
    return render_biadjacency(o, rows, cols)


# ---------------------------------------------------------------------------
# complete graphs, cyclic constructions

def test_even_m2_exact_sequence():
    assert _pairs(cms_complete_even(2)) == [
        (0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]
    assert matching_number(cms_complete_even(2)).value == 1


def test_even_m3_first_two_blocks():
    o = cms_complete_even(3)
    assert o.length == 15
    assert _pairs(o)[:6] == [(0, 1), (2, 5), (3, 4), (0, 2), (1, 3), (4, 5)]
    assert matching_number(o).value == 2


def test_odd_m2_exact_sequence():
    assert _pairs(cms_complete_odd(2)) == [
        (1, 4), (2, 3), (0, 2), (3, 4), (1, 3), (0, 4),
        (2, 4), (0, 1), (0, 3), (1, 2)]
    assert matching_number(cms_complete_odd(2)).value == 1


@pytest.mark.parametrize("m", range(2, 9))
def test_complete_cyclic_values_exact(m):
    even = cms_complete_even(m)
    odd = cms_complete_odd(m)
    assert matching_number(even).value == m - 1
    assert matching_number(odd).value == m - 1
    assert odd.length == 2 * m * m + m
    assert even.length == 2 * m * m - m


@pytest.mark.parametrize("m", range(2, 7))
def test_even_blocks_are_a_one_factorization(m):
    o = cms_complete_even(m)
    blocks = [o.sequence[k * m:(k + 1) * m] for k in range(2 * m - 1)]
    seen = set()
    for block in blocks:
        assert is_matching(o.graph, block)
        covered = {v for eid in block for v in
                   (o.graph.edges[eid].u, o.graph.edges[eid].v)}
        assert covered == set(range(2 * m))  # perfect matching
        seen.update(block)
    assert seen == set(range(o.length))  # blocks partition the edge set


@pytest.mark.parametrize("m", range(2, 7))
def test_odd_blocks_near_perfect_with_distinct_isolated_vertices(m):
    o = cms_complete_odd(m)
    isolated = []
    for k in range(2 * m + 1):
        block = o.sequence[k * m:(k + 1) * m]
        assert is_matching(o.graph, block)
        covered = {v for eid in block for v in
                   (o.graph.edges[eid].u, o.graph.edges[eid].v)}
        missing = set(range(2 * m + 1)) - covered
        assert len(missing) == 1
        isolated.append(missing.pop())
    assert sorted(isolated) == list(range(2 * m + 1))


@pytest.mark.parametrize("builder", [cms_complete_even, cms_complete_odd,
                                     ms_complete_odd_walecki,
                                     cms_doubled_complete_odd])
def test_complete_builders_reject_small_m(builder):
    with pytest.raises(InvalidFamilyParams):
        builder(1)


def test_rotation_scheme_closure_checked():
    # every listed pair is an edge of K_6 once, but after 3 steps of
    # v -> v+1 mod 6 the base {0,1} has moved to {3,4}
    bad = RotationScheme(((0, 1),), (1, 2, 3, 4, 5, 0), 3)
    with pytest.raises(ValueError, match="close up"):
        bad.ordering(complete(6), LINEAR)


def test_rotation_scheme_rejects_a_pair_the_host_lacks():
    # {0,1} joins two left vertices of K_{2,2}
    scheme = RotationScheme(((0, 1),), (1, 0, 2, 3), 2)
    with pytest.raises(ValueError, match=r"no edge \{0,1\} in graph"):
        scheme.ordering(complete_bipartite(2, 2), LINEAR)


def test_rotation_scheme_rejects_a_pair_listed_past_its_copies():
    # K_2 has one copy of {0,1}; the second block lists it again
    scheme = RotationScheme(((0, 1),), (0, 1), 2)
    with pytest.raises(ValueError):
        scheme.ordering(complete(2), LINEAR)


@pytest.mark.parametrize("orderings", [
    lambda: (cms_complete_even(m) for m in range(2, 13)),
    lambda: (cms_complete_odd(m) for m in range(2, 13)),
    lambda: (cms_doubled_complete_odd(m) for m in range(2, 7)),
    lambda: (ms_complete_bipartite(p, q) for p in range(1, 13) for q in range(1, 13)),
], ids=["complete_even", "complete_odd", "doubled_complete_odd", "complete_bipartite"])
def test_rotation_sweeps_keep_their_value_read_cyclically(orderings):
    # theta^block_count is the identity for each, see RotationScheme
    for o in orderings():
        assert matching_number(with_mode(o, LINEAR)).value == \
            matching_number(with_mode(o, CYCLIC)).value


def test_rotation_scheme_blocks_partition():
    base = ((0, 1), (2, 3))
    phi = (0, 2, 3, 1)  # fix 0, rotate 1->2->3->1
    scheme = RotationScheme(base, phi, 3)
    o = scheme.ordering(complete(4), LINEAR)
    assert scheme.block_size == 2
    assert sorted(o.sequence) == list(range(6))  # every edge of K_4 exactly once


# ---------------------------------------------------------------------------
# Hamilton-cycle sweep (linear) and its doubled cyclic closure

def test_walecki_exact_sequences():
    assert ms_complete_odd_walecki(2).sequence == (3, 5, 8, 0, 7, 6, 1, 9, 4, 2)
    assert ms_complete_odd_walecki(3).sequence == (
        5, 9, 12, 17, 0, 13, 15, 10, 1, 16, 19, 6, 2, 18, 14, 7, 3, 20, 11, 8, 4)
    assert cms_doubled_complete_odd(2).sequence == (
        3, 5, 8, 0, 7, 6, 1, 9, 4, 2, 18, 15, 13, 17, 10, 19, 11, 16, 12, 14)


def test_walecki_k5():
    o = ms_complete_odd_walecki(2)
    assert matching_number(o).value == 2


def test_walecki_k7_linear_and_cyclic_read():
    o = ms_complete_odd_walecki(3)
    assert o.mode == LINEAR
    assert matching_number(o).value == 3
    assert matching_number(with_mode(o, CYCLIC)).value <= 2


@pytest.mark.parametrize("m", range(2, 9))
def test_walecki_hits_matching_bound(m):
    assert matching_number(ms_complete_odd_walecki(m)).value == m


@pytest.mark.parametrize("m", range(2, 7))
def test_walecki_blocks_are_hamilton_cycles(m):
    o = ms_complete_odd_walecki(m)
    n = 2 * m + 1
    for k in range(m):
        block = o.sequence[k * n:(k + 1) * n]
        deg = {}
        for eid in block:
            e = o.graph.edges[eid]
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        assert len(block) == n
        assert all(d == 2 for d in deg.values()) and len(deg) == n


@pytest.mark.parametrize("m", (2, 3, 4))
def test_doubled_value_exact(m):
    o = cms_doubled_complete_odd(m)
    assert o.length == 2 * (2 * m * m + m)
    assert matching_number(o).value == m
    assert matching_number_bruteforce(o) == m


@pytest.mark.parametrize("m", (2, 3))
def test_doubled_copies_stay_apart(m):
    o = cms_doubled_complete_odd(m)
    n_orig = m * (2 * m + 1)
    total = o.length
    for e in range(n_orig):
        delta = abs(o.position(e) - o.position(n_orig + e))
        assert min(delta, total - delta) >= m


def test_doubled_prefix_is_the_linear_sweep():
    m = 3
    doubled = cms_doubled_complete_odd(m)
    linear = ms_complete_odd_walecki(m)
    n_orig = m * (2 * m + 1)
    assert doubled.sequence[:n_orig] == linear.sequence


# ---------------------------------------------------------------------------
# complete bipartite

def test_k44_matrix_byte_exact(fixtures_dir):
    got = _rendered(ms_complete_bipartite(4, 4), "complete_bipartite", (4, 4))
    assert got == (fixtures_dir / "k44_matrix.txt").read_text()


def test_k44_value():
    assert matching_number(ms_complete_bipartite(4, 4)).value == 3


def test_k46_generator_value():
    o = ms_complete_bipartite(4, 6)
    assert matching_number(o).value == 4
    assert matching_number_bruteforce(o) == 4


def test_k11_single_label():
    o = ms_complete_bipartite(1, 1)
    assert o.sequence == (0,)
    assert matching_number(o).value == 1


@pytest.mark.parametrize("p", range(1, 9))
@pytest.mark.parametrize("q", range(1, 9))
def test_bipartite_values_match_formula(p, q):
    o = ms_complete_bipartite(p, q)
    assert matching_number(o).value == predicted(
        "complete_bipartite", LINEAR, (p, q)).value


def test_bipartite_swapped_sides():
    o = ms_complete_bipartite(6, 4)
    assert o.graph.order == 10
    assert matching_number(o).value == 4


# ---------------------------------------------------------------------------
# cycles

def test_odd_cycle_alternate_edges():
    o = cms_cycle(7)
    assert list(o.sequence) == [0, 2, 4, 6, 1, 3, 5]
    assert matching_number(o).value == 3


def test_cycle_fixtures_byte_exact(fixtures_dir):
    assert _rendered(cms_cycle(16), "cycle", (16,)) == \
        (fixtures_dir / "c16_matrix.txt").read_text()
    assert _rendered(cms_cycle(12), "cycle", (12,)) == \
        (fixtures_dir / "c12_matrix.txt").read_text()


@pytest.mark.parametrize("n", range(3, 17))
def test_cycle_values_both_modes(n):
    o = cms_cycle(n)
    want = (n - 1) // 2
    assert matching_number(o).value == want
    assert matching_number(with_mode(o, LINEAR)).value == want


def test_cycle_n3_value():
    assert matching_number(cms_cycle(3)).value == 1


@pytest.mark.parametrize("n", (8, 12, 16, 10, 14))
def test_even_cycle_label_difference_property(n):
    # adjacent edges must carry labels differing by +-(q-1), or additionally
    # q for the schemes used when q is not divisible by 4, modulo 2q
    q = n // 2
    allowed = {q - 1, 2 * q - (q - 1)} | (set() if q % 4 == 0 else {q})
    o = cms_cycle(n)
    for eid in range(n):
        nxt = (eid + 1) % n
        diff = (o.position(nxt) - o.position(eid)) % n
        assert min(diff, n - diff) in {min(a, 2 * q - a) for a in allowed}


# ---------------------------------------------------------------------------
# paths

def test_path_fixtures_byte_exact(fixtures_dir):
    assert _rendered(ms_path(10), "path", (10,)) == \
        (fixtures_dir / "p10_matrix.txt").read_text()
    assert _rendered(ms_path(11), "path", (11,)) == \
        (fixtures_dir / "p11_matrix.txt").read_text()


def test_p10_values():
    assert matching_number(ms_path(10)).value == 4
    assert matching_number(cms_path(10)).value == 4


def test_p11_values_with_bruteforce_oracle():
    assert matching_number(ms_path(11)).value == 5
    cyc = cms_path(11)
    assert matching_number_bruteforce(cyc) == 4
    assert matching_number(cyc).value == 4


@pytest.mark.parametrize("n", range(2, 17))
def test_path_values_both_modes(n):
    lin = matching_number(ms_path(n)).value
    cyc = matching_number(cms_path(n)).value
    assert lin == predicted("path", LINEAR, (n,)).value
    assert cyc == predicted("path", CYCLIC, (n,)).value


# ---------------------------------------------------------------------------
# circulant cubic bipartite family

def test_circulant_fixtures_byte_exact(fixtures_dir):
    assert _rendered(ms_circulant3(7), "circulant3", (7,)) == \
        (fixtures_dir / "circ7_matrix.txt").read_text()
    assert _rendered(ms_circulant3(8), "circulant3", (8,)) == \
        (fixtures_dir / "circ8_matrix.txt").read_text()


@pytest.mark.parametrize("n", range(3, 11))
def test_circulant_values_both_modes(n):
    o = ms_circulant3(n)
    assert matching_number(o).value == n - 1
    assert matching_number(with_mode(o, LINEAR)).value == n - 1


def test_circulant_n3_agrees_with_exact_solver():
    res = cms_exact(circulant3(3), SolveBudget())
    assert res.status == VALUE_FOUND and res.value == 2
    assert matching_number(ms_circulant3(3)).value == 2


# ---------------------------------------------------------------------------
# exact sequences, one or more per branch of each closed form

@pytest.mark.parametrize("make,seq", [
    (lambda: cms_cycle(9), (0, 2, 4, 6, 8, 1, 3, 5, 7)),
    (lambda: cms_cycle(10), (9, 7, 1, 5, 3, 8, 0, 6, 2, 4)),
    (lambda: cms_cycle(20), (19, 17, 1, 15, 3, 13, 5, 11, 7, 9,
                             18, 0, 16, 2, 14, 4, 12, 6, 10, 8)),
    (lambda: cms_cycle(24), (23, 10, 21, 8, 19, 6, 17, 4, 15, 2, 13, 0,
                             11, 22, 9, 20, 7, 18, 5, 16, 3, 14, 1, 12)),
    (lambda: ms_path(2), (0,)),
    (lambda: ms_path(9), (1, 3, 5, 7, 0, 2, 4, 6)),
    (lambda: ms_path(12), (2, 4, 6, 8, 10, 1, 3, 5, 7, 9, 0)),
    (lambda: ms_complete_bipartite(1, 1), (0,)),
    (lambda: ms_complete_bipartite(3, 3), (0, 4, 8, 1, 5, 6, 2, 3, 7)),
    (lambda: ms_complete_bipartite(3, 7), (0, 8, 16, 6, 7, 15, 5, 13, 14, 4, 12,
                                           20, 3, 11, 19, 2, 10, 18, 1, 9, 17)),
    (lambda: ms_complete_bipartite(7, 3), (0, 4, 8, 18, 1, 5, 15, 19, 2, 12, 16,
                                           20, 9, 13, 17, 6, 10, 14, 3, 7, 11)),
    (lambda: ms_circulant3(3), (1, 4, 0, 8, 5, 6, 3, 2, 7)),
    (lambda: ms_circulant3(4), (1, 4, 7, 0, 11, 5, 6, 10, 3, 2, 9, 8)),
    (lambda: ms_circulant3(9), (1, 4, 7, 10, 13, 16, 19, 22, 0, 26, 5, 6, 11,
                                12, 17, 18, 23, 24, 3, 2, 9, 8, 15, 14, 21, 20,
                                25)),
    (lambda: ms_circulant3(10, LINEAR), (1, 4, 7, 10, 13, 16, 19, 22, 25, 0, 29,
                                         5, 6, 11, 12, 17, 18, 23, 24, 28, 3, 2,
                                         9, 8, 15, 14, 21, 20, 27, 26)),
    (lambda: cms_complete_even(3), (0, 11, 12, 1, 6, 14, 2, 10, 8, 3, 13, 5, 4,
                                    7, 9)),
    (lambda: cms_complete_odd(3), (10, 13, 15, 1, 17, 18, 7, 3, 20, 12, 9, 5,
                                   16, 14, 0, 19, 2, 6, 4, 8, 11)),
    (lambda: ms_complete_odd_walecki(2), (3, 5, 8, 0, 7, 6, 1, 9, 4, 2)),
    (lambda: ms_complete_odd_walecki(3), (5, 9, 12, 17, 0, 13, 15, 10, 1, 16,
                                          19, 6, 2, 18, 14, 7, 3, 20, 11, 8, 4)),
    (lambda: cms_doubled_complete_odd(2), (3, 5, 8, 0, 7, 6, 1, 9, 4, 2, 18, 15,
                                           13, 17, 10, 19, 11, 16, 12, 14)),
], ids=["C9", "C10", "C20", "C24", "P2", "P9", "P12", "K1_1", "K3_3", "K3_7",
        "K7_3", "circ3", "circ4", "circ9", "circ10", "K6", "K7", "walecki5",
        "walecki7", "2K5"])
def test_exact_sequences_pinned(make, seq):
    assert make().sequence == seq


# ---------------------------------------------------------------------------
# every construction output is a true permutation (bijectivity)

@pytest.mark.parametrize("make", [
    lambda: cms_complete_even(4), lambda: cms_complete_odd(4),
    lambda: ms_complete_odd_walecki(4), lambda: cms_doubled_complete_odd(3),
    lambda: ms_complete_bipartite(5, 7), lambda: cms_cycle(13),
    lambda: cms_cycle(14), lambda: ms_path(9), lambda: ms_circulant3(6),
])
def test_constructions_are_bijective_labelings(make):
    o = make()
    assert sorted(o.sequence) == list(range(o.graph.num_edges))


# ---------------------------------------------------------------------------
# dispatcher

def test_family_ordering_dispatch():
    assert matching_number(family_ordering("complete", (6,), CYCLIC)).value == 2
    assert matching_number(family_ordering("complete", (7,), LINEAR)).value == 3
    assert matching_number(family_ordering("complete", (3,), CYCLIC)).value == 1
    assert matching_number(family_ordering("complete", (2,), LINEAR)).value == 1
    assert matching_number(family_ordering("doubled_complete", (5,), CYCLIC)).value == 2
    assert matching_number(family_ordering("path", (9,), LINEAR)).value == 4


def test_family_ordering_rejections():
    for n, mode in ((1, CYCLIC), (3, LINEAR), (6, CYCLIC)):
        with pytest.raises(InvalidFamilyParams, match=f"odd n >= 5, got {n}$"):
            family_ordering("doubled_complete", (n,), mode)
    with pytest.raises(InvalidFamilyParams):
        family_ordering("complete", (1,), LINEAR)
    with pytest.raises(InvalidFamilyParams):
        family_ordering("nosuch", (3,), LINEAR)


@pytest.mark.parametrize("family,params", [("complete", (7,)), ("cycle", (6,))])
def test_family_ordering_rejects_an_unknown_mode(family, params):
    with pytest.raises(ValueError, match="mode must be one of"):
        family_ordering(family, params, "sideways")


@pytest.mark.parametrize("call", [
    lambda: complete(0), lambda: complete_bipartite(0, 3), lambda: cycle(2),
    lambda: path(1), lambda: circulant3(2), lambda: ms_complete_bipartite(0, 3),
    lambda: cms_cycle(2), lambda: ms_path(1), lambda: cms_path(1),
    lambda: ms_circulant3(2), lambda: multiply(complete(3), 0),
    lambda: attach_pendants(path(3), 0, 0),
    lambda: random_tree(1, random.Random(0)),
])
def test_below_bound_raises_invalid_params(call):
    with pytest.raises(InvalidFamilyParams):
        call()


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_record_bound_matches_its_builder(name):
    fam = FAMILIES[name]
    fam.build(*(fam.lower,) * fam.arity)
    with pytest.raises(InvalidFamilyParams):
        fam.build(*(fam.lower - 1,) * fam.arity)


def test_layout_rejections():
    with pytest.raises(InvalidFamilyParams):
        biadjacency_layout(FamilySpec("cycle", (7,)))
    with pytest.raises(InvalidFamilyParams):
        biadjacency_layout(FamilySpec("complete", (4,)))
