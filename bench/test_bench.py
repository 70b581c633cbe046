"""Self-tests of the benchmark.  Run from the repository root with

    python3 -m unittest discover -s bench -p "test_*.py"
"""

import json
import random
import unittest
from unittest import mock

import run
import spans
import workloads
from matchseq import graphs, orderings
from matchseq.orderings import CYCLIC, LINEAR


def _signature(ops):
    return [(op.name, op.inputs) for op in ops]


class OpListTest(unittest.TestCase):
    def test_same_seed_gives_the_same_ops(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = workloads.build_ops(workload, 7, run.OUT)
                again = workloads.build_ops(workload, 7, run.OUT)
                self.assertEqual(_signature(first), _signature(again))

    def test_seed_changes_the_random_inputs(self):
        for workload in ("solve_panel", "large_hosts"):
            with self.subTest(workload=workload):
                a = workloads.build_ops(workload, 1, run.OUT)
                b = workloads.build_ops(workload, 2, run.OUT)
                self.assertEqual([op.name for op in a], [op.name for op in b])
                self.assertNotEqual(_signature(a), _signature(b))

    def test_benchmark_json_lists_what_the_runner_reports(self):
        spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(spans.PER_LAYER))
        panel = workloads.build_ops("solve_panel", 0, run.OUT)
        self.assertEqual([op.name for op in panel], list(spans.PANEL_OPS))


class GateTest(unittest.TestCase):
    def _solve_k55(self, mode):
        op = workloads._exact_op("cms.K5_5", workloads._host(graphs.complete_bipartite, 5, 5),
                                 mode, workloads._known("complete_bipartite", (5, 5), mode))
        return op, op.run(spans.Tracer(), {})

    def test_correct_expected_value_passes(self):
        op, res = self._solve_k55(CYCLIC)
        self.assertTrue(op.check(res, {}))

    def test_wrong_certified_value_is_rejected(self):
        with mock.patch.dict(workloads.CERTIFIED,
                             {("complete_bipartite", (5, 5), CYCLIC): 3}):
            op, res = self._solve_k55(CYCLIC)
        with self.assertRaises(workloads.WrongVerdict):
            op.check(res, {})

    def test_wrong_formula_value_is_rejected(self):
        op = workloads._exact_op("ms.K8", workloads._host(graphs.complete, 8), LINEAR,
                                 lambda store: (4, 4))
        res = op.run(spans.Tracer(), {})
        with self.assertRaises(workloads.WrongVerdict):
            op.check(res, {})

    def test_budget_hit_is_a_failed_op_not_a_wrong_verdict(self):
        op = workloads.build_ops("solve_panel", 0, run.OUT)[8]
        self.assertEqual(op.name, "exists.K9_cyclic_d3")
        res = op.run(spans.Tracer(), {})
        self.assertFalse(op.check(res, {}))

    def test_gap_sweep_agrees_with_the_window_scan(self):
        rng = random.Random(0)
        for g in (graphs.complete(6), graphs.multiply(graphs.cycle(5), 2),
                  graphs.complete_bipartite(3, 4), graphs.path(9)):
            pairs = [(e.u, e.v) for e in g.edges]
            for mode in (LINEAR, CYCLIC):
                for _ in range(20):
                    o = orderings.random_ordering(g, mode, rng)
                    self.assertEqual(workloads.gap_value(pairs, o.sequence, mode == CYCLIC),
                                     orderings.matching_number_bruteforce(o))


class NodeCountTest(unittest.TestCase):
    def test_node_counts_repeat_between_runs(self):
        ops = workloads.build_ops("solve_panel", 3, run.OUT)
        counts = []
        for _ in range(2):
            tr = spans.Tracer()
            tr.on = True
            store = {}
            for i, op in enumerate(ops):
                with tr.op(i, op.name):
                    op.run(tr, store)
            counts.append([(s.op, s.name, s.count) for s in tr.spans
                           if s.name in spans.SOLVER_CALLS])
        self.assertEqual(len(counts[0]), len(ops))
        self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
