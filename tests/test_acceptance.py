"""Acceptance suite: one test per gating criterion, exact values, timed.

Every criterion asserts exact equality (zero tolerance) and stays inside
its stated wall-clock budget; the conftest hook prints a PASS/FAIL line per
criterion at the end of the run.
"""

import random
import time
from contextlib import contextmanager

from matchseq import (CYCLIC, LINEAR, NONEXISTENCE_CERTIFIED,
                      SolveBudget, VALUE_FOUND, FamilySpec, biadjacency_layout,
                      circulant3, cms_complete_even, cms_complete_odd,
                      cms_cycle, cms_doubled_complete_odd, cms_exact, cms_path,
                      complete, complete_bipartite, cycle, exists_ordering,
                      explore_q2, explore_q3, is_matching, matching_number,
                      matching_number_bruteforce, max_matching_size,
                      ms_circulant3, ms_complete_bipartite,
                      ms_complete_odd_walecki, ms_exact, ms_path, multiply,
                      parse_biadjacency, path, pendant_lemma_check, predicted,
                      random_ordering, random_tree, render_biadjacency, rotate,
                      with_mode)


@contextmanager
def within(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, f"time budget {seconds}s exceeded: {elapsed:.2f}s"


def _render(o, family, params):
    rows, cols = biadjacency_layout(FamilySpec(family, params))
    return render_biadjacency(o, rows, cols)


def test_c01_complete_cyclic_constructions():
    """Rotated-matching orderings of K_{2m} and K_{2m+1} hit m-1 exactly."""
    with within(1.0):
        for m in range(2, 9):
            assert matching_number(cms_complete_even(m)).value == m - 1
            assert matching_number(cms_complete_odd(m)).value == m - 1
    print("criterion 1: PASS (cms constructions exact for m = 2..8)")


def test_c02_exact_solver_small_complete():
    """Exact cyclic values of K_3..K_6 and the K_5 nonexistence certificate."""
    with within(10.0):
        assert cms_exact(complete(3)).value == 1
        assert cms_exact(complete(4)).value == 1
        assert cms_exact(complete(5)).value == 1
        assert cms_exact(complete(6)).value == 2
        res = exists_ordering(complete(5), 2, CYCLIC)
        assert res.status == NONEXISTENCE_CERTIFIED
    print("criterion 2: PASS (cms exact on K_3..K_6, K_5 d=2 refuted)")


def test_c02_stretch_k7_nonexistence():
    """Stretch, non-gating: refute cyclic d=3 on K_7 under a generous budget."""
    res = exists_ordering(complete(7), 3, CYCLIC, SolveBudget(100_000_000, 240.0))
    assert res.status != VALUE_FOUND  # a witness would be an outright bug
    if res.status == NONEXISTENCE_CERTIFIED:
        print(f"criterion 2 stretch: PASS (K_7 d=3 refuted, "
              f"{res.nodes_explored} nodes, {res.elapsed_seconds:.2f}s)")
    else:
        print("criterion 2 stretch: inconclusive (budget exhausted; non-gating)")


def test_c03_linear_complete_values_and_hamilton_sweep():
    """ms(K_n) = floor((n-1)/2) exactly, attained constructively for odd n."""
    with within(60.0):
        for n in range(3, 8):
            assert ms_exact(complete(n)).value == (n - 1) // 2
        assert matching_number(ms_complete_odd_walecki(2)).value == 2
        k7 = ms_complete_odd_walecki(3)
        assert matching_number(k7).value == 3
        assert matching_number(with_mode(k7, CYCLIC)).value <= 2
    print("criterion 3: PASS (ms exact n = 3..7; Hamilton sweep attains it)")


def test_c04_complete_bipartite(fixtures_dir):
    """Square matrix byte-exact; formula values for all 1 <= p <= q <= 8."""
    with within(1.0):
        got = _render(ms_complete_bipartite(4, 4), "complete_bipartite", (4, 4))
        assert got == (fixtures_dir / "k44_matrix.txt").read_text()
        for p in range(1, 9):
            for q in range(p, 9):
                value = matching_number(ms_complete_bipartite(p, q)).value
                assert value == predicted("complete_bipartite", LINEAR, (p, q)).value
        g46 = complete_bipartite(4, 6)
        rows, cols = biadjacency_layout(FamilySpec("complete_bipartite", (4, 6)))
        fixture = parse_biadjacency((fixtures_dir / "k46_matrix.txt").read_text(),
                                    g46, rows, cols, LINEAR)
        assert matching_number(fixture).value == 4
    print("criterion 4: PASS (bipartite: fixtures byte-exact, p,q <= 8 exact)")


def test_c05_cycles_and_paths(fixtures_dir):
    """Cycle and path labelings across n = 3..16 plus byte-exact fixtures."""
    with within(30.0):
        for n in range(3, 17):
            o = cms_cycle(n)
            want = (n - 1) // 2
            assert matching_number(o).value == want
            assert matching_number(with_mode(o, LINEAR)).value == want
        assert _render(cms_cycle(16), "cycle", (16,)) == \
            (fixtures_dir / "c16_matrix.txt").read_text()
        assert _render(cms_cycle(12), "cycle", (12,)) == \
            (fixtures_dir / "c12_matrix.txt").read_text()
        for n in range(2, 17):
            assert matching_number(ms_path(n)).value == \
                predicted("path", LINEAR, (n,)).value
            assert matching_number(cms_path(n)).value == \
                predicted("path", CYCLIC, (n,)).value
        assert _render(ms_path(10), "path", (10,)) == \
            (fixtures_dir / "p10_matrix.txt").read_text()
        assert _render(ms_path(11), "path", (11,)) == \
            (fixtures_dir / "p11_matrix.txt").read_text()
        assert cms_exact(path(7)).value == 2  # odd-path cyclic value is optimal
    print("criterion 5: PASS (cycles/paths n <= 16 exact, fixtures byte-exact)")


def test_c06_doubled_complete():
    """Doubled odd complete multigraphs reach cyclic value m."""
    with within(300.0):
        assert matching_number(cms_doubled_complete_odd(2)).value == 2
        assert matching_number(cms_doubled_complete_odd(3)).value == 3
        res = cms_exact(multiply(complete(5), 2))
        assert res.status == VALUE_FOUND and res.value == 2
    print("criterion 6: PASS (cms(2K_5) = 2, cms(2K_7) = 3)")


def test_c07_circulant_fixtures(fixtures_dir):
    """Three-diagonal labelings for n = 7, 8 byte-exact with exact values."""
    with within(1.0):
        o7, o8 = ms_circulant3(7), ms_circulant3(8)
        assert _render(o7, "circulant3", (7,)) == \
            (fixtures_dir / "circ7_matrix.txt").read_text()
        assert _render(o8, "circulant3", (8,)) == \
            (fixtures_dir / "circ8_matrix.txt").read_text()
        assert matching_number(o7).value == 6
        assert matching_number(o8).value == 7
        assert matching_number(with_mode(o7, LINEAR)).value == 6
        assert matching_number(with_mode(o8, LINEAR)).value == 7
    print("criterion 7: PASS (circulant3 fixtures byte-exact, d = n-1)")


def test_c08a_checker_vs_bruteforce_thousand_orderings():
    """Gap rule == window scan on >= 1000 random orderings across families."""
    pool = [complete(6), complete_bipartite(3, 4), cycle(9), cycle(8), path(9),
            circulant3(4), multiply(cycle(3), 2)]
    rng = random.Random(2026)
    count = 0
    for g in pool:
        for mode in (LINEAR, CYCLIC):
            for _ in range(75):
                o = random_ordering(g, mode, rng)
                assert matching_number(o).value == matching_number_bruteforce(o)
                count += 1
    assert count >= 1000
    print(f"criterion 8a: PASS ({count} random orderings, zero mismatches)")


def test_c08b_cyclic_equals_min_rotation():
    """cyclic value == min over rotations of the linear value (m <= 12)."""
    rng = random.Random(4096)
    cases = [random_ordering(g, CYCLIC, rng)
             for g in (complete(4), cycle(7), cycle(12), path(8),
                       complete_bipartite(2, 5), multiply(path(3), 2))
             for _ in range(20)]
    cases += [cms_cycle(n) for n in range(3, 13)]
    cases += [cms_path(n) for n in range(4, 13)]
    cases += [cms_complete_odd(2), rotate(cms_complete_even(2), 3)]
    for o in cases:
        assert o.length <= 12
        rotations = [matching_number(with_mode(rotate(o, s), LINEAR)).value
                     for s in range(o.length)]
        assert matching_number(o).value == min(rotations)
    print(f"criterion 8b: PASS ({len(cases)} cyclic orderings vs rotations)")


def test_c08c_solver_witnesses_revalidate():
    """Every witness passes back through the independent checker."""
    checked = 0
    for g in (complete(4), complete(6), cycle(6), cycle(9), path(8),
              complete_bipartite(3, 3), circulant3(3), multiply(cycle(3), 2)):
        for solve in (ms_exact, cms_exact):
            res = solve(g)
            assert res.status == VALUE_FOUND
            assert matching_number(res.witness).value == res.value
            checked += 1
    for d in (1, 2):
        res = exists_ordering(cycle(8), d, CYCLIC)
        assert matching_number(res.witness).value >= d
        checked += 1
    print(f"criterion 8c: PASS ({checked} witnesses re-validated)")


def test_c08d_value_chain_on_solved_instances():
    """cms <= ms <= maximum matching size on every solved instance."""
    instances = [complete(n) for n in range(3, 8)] + \
        [cycle(n) for n in range(3, 10)] + \
        [path(n) for n in range(2, 10)] + \
        [complete_bipartite(2, 3), complete_bipartite(3, 3), circulant3(3),
         multiply(cycle(3), 2), multiply(complete(5), 2)]
    for g in instances:
        cms = cms_exact(g).value
        ms = ms_exact(g).value
        assert cms <= ms <= max_matching_size(g)
    print(f"criterion 8d: PASS (chain holds on {len(instances)} instances)")


def test_c08e_block_structure():
    """Aligned blocks: 1-factorization (even) / near-perfect sweep (odd)."""
    for m in range(2, 9):
        even = cms_complete_even(m)
        seen = set()
        for k in range(2 * m - 1):
            block = even.sequence[k * m:(k + 1) * m]
            assert is_matching(even.graph, block)
            covered = {v for eid in block for v in
                       (even.graph.edges[eid].u, even.graph.edges[eid].v)}
            assert covered == set(range(2 * m))
            seen.update(block)
        assert seen == set(range(even.length))

        odd = cms_complete_odd(m)
        isolated = []
        for k in range(2 * m + 1):
            block = odd.sequence[k * m:(k + 1) * m]
            assert is_matching(odd.graph, block)
            covered = {v for eid in block for v in
                       (odd.graph.edges[eid].u, odd.graph.edges[eid].v)}
            isolated.extend(set(range(2 * m + 1)) - covered)
        assert sorted(isolated) == list(range(2 * m + 1))
    print("criterion 8e: PASS (block structure for m = 2..8)")


def test_c09_pendant_lemma_random_trees():
    """n+1 pendants force ms = 1 and n+2 force cms = 1, trees of order 4..8."""
    with within(60.0):
        rng = random.Random(90125)
        orders = [4, 5, 5, 6, 7, 7, 8, 8, 8, 8, 8]
        for order in orders:
            tree = random_tree(order, rng)
            report = pendant_lemma_check(tree)
            assert report.linear_value == 1
            assert report.cyclic_value == 1
            assert report.passed
    print(f"criterion 9: PASS ({len(orders)} random trees, order 4..8)")


def test_c10_open_question_tooling():
    """q2 exhausts graphs on <= 5 vertices with gap >= 1; q3 equality on K_5."""
    with within(600.0):
        q2 = explore_q2(5)
        assert not q2.partial
        assert q2.max_gap >= 1
        # the classic gap-1 families must appear among the witnesses:
        # the 5-vertex odd path (4 edges) or K_5 itself (10 edges)
        sizes = {len(w.edges) for w in q2.witnesses}
        assert 4 in sizes or 10 in sizes
        q3 = explore_q3(complete(5))
        assert q3.resolved and q3.equal
        assert q3.ms_single == 2 and q3.cms_doubled == 2
    print(f"criterion 10: PASS (q2 gap {q2.max_gap}, q3 equality on K_5)")
