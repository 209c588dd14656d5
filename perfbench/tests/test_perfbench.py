"""Tests of the benchmark's own code.

    python3 -m unittest discover -s perfbench/tests
"""

import sys
import tempfile
import unittest
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TS = run.import_turansep()


class LexRankTest(unittest.TestCase):
    def test_matches_enumeration_order(self):
        for n in range(1, 9):
            for r in range(1, n + 1):
                for position, subset in enumerate(combinations(range(n), r)):
                    self.assertEqual(ref.lex_rank(subset, n), position, (n, subset))

    def test_first_violation_rank_counts_visited_subsets(self):
        edges = [(2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5)]
        subset, count = ref.first_violation(3, 7, edges, 4, 3)
        visited = list(combinations(range(7), 4)).index(subset) + 1
        self.assertEqual((subset, count), ((2, 3, 4, 5), 4))
        self.assertEqual(ref.lex_rank(subset, 7) + 1, visited)


class SelfTimeTest(unittest.TestCase):
    def test_synthetic_nested_tree(self):
        # name, start, end, parent, job, data
        spans = [
            ["bench.job", 0.0, 10.0, None, 0, None],
            ["cli.run", 1.0, 9.0, 0, 0, None],
            ["cli.parse", 2.0, 3.0, 1, 0, None],
            ["embed.scan", 4.0, 8.0, 1, 0, {"subsets": 5}],
            ["embed.contains", 5.0, 6.5, 3, 0, {"found": True}],
            ["bench.job", 11.0, 12.0, None, 1, None],
        ]
        self.assertEqual(tracing.self_times(spans), [2.0, 3.0, 1.0, 2.5, 1.5, 1.0])
        metrics = tracing.layer_metrics(spans)
        self.assertEqual(metrics["cli.self_s"], 3.0)
        self.assertEqual(metrics["embed.scan_s"], 2.5)
        self.assertEqual(metrics["embed.contains_hit_ratio"], 1.0)
        self.assertEqual(metrics["embed.ns_per_subset"], 2.5e9 / 5)
        layers = sum(v for k, v in metrics.items() if k.startswith("layer."))
        self.assertEqual(layers, 11.0)  # the two root spans, end to end

    def test_job_factors_scale_every_time(self):
        spans = [
            ["bench.job", 0.0, 4.0, None, 0, None],
            ["exact.search", 1.0, 3.0, 0, 0, {"nodes": 4}],
            ["bench.job", 5.0, 6.0, None, 1, None],
        ]
        metrics = tracing.layer_metrics(spans, [0.5, 2.0])
        self.assertEqual(metrics["exact.search_s"], 1.0)
        self.assertEqual(metrics["exact.ns_per_node"], 0.25e9)
        self.assertEqual(metrics["layer.bench_s"], 3.0)

    def test_tracer_records_parents_and_jobs(self):
        ticks = iter(range(100))
        tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
        inner = tracer.wrap(lambda: 1, "embed.contains")
        outer = tracer.wrap(lambda: inner() + inner(), "criteria.cond2")
        with tracer.job_span(7):
            outer()
        names = [s[tracing.NAME] for s in tracer.spans]
        self.assertEqual(names, ["bench.job", "criteria.cond2", "embed.contains",
                                 "embed.contains"])
        self.assertEqual([s[tracing.PARENT] for s in tracer.spans], [None, 0, 1, 1])
        self.assertEqual({s[tracing.JOB] for s in tracer.spans}, {7})
        self.assertEqual(tracing.layer_metrics(tracer.spans)["criteria.cond2_s"], 3.0)


class InstallTest(unittest.TestCase):
    def test_patches_from_imports_and_restores(self):
        criteria, exact, densopt = (sys.modules[f"turansep.{m}"]
                                    for m in ("criteria", "exact", "densopt"))
        before = (criteria.turan_number, densopt.six_part_h, exact.CopyIndex.__init__)
        tracer = tracing.Tracer()
        uninstall = tracing.install(tracer)
        try:
            self.assertIsNot(criteria.turan_number, before[0])
            self.assertIsNot(densopt.six_part_h, before[1])
            criteria.check_condition1(*(TS.hypergraph.build_named(spec) for spec in (
                TS.hypergraph.FamilySpec.complete(5, 3),
                TS.hypergraph.FamilySpec.complete(4, 3))))
        finally:
            uninstall()
        self.assertEqual((criteria.turan_number, densopt.six_part_h,
                          exact.CopyIndex.__init__), before)
        names = {s[tracing.NAME] for s in tracer.spans}
        self.assertTrue({"criteria.cond1", "exact.search", "exact.index"} <= names)


class SeedTest(unittest.TestCase):
    def inputs(self, workload, seed):
        with tempfile.TemporaryDirectory() as tmp:
            state = WORKLOADS[workload].setup(TS, Path(tmp), seed)
            return run.tree_digest(Path(tmp).iterdir()), state

    def test_same_seed_gives_identical_inputs(self):
        for workload in WORKLOADS:
            self.assertEqual(self.inputs(workload, 5)[0], self.inputs(workload, 5)[0])

    def test_seed_relabels_construction_hosts(self):
        self.assertNotEqual(self.inputs("construction-verify", 5)[0],
                            self.inputs("construction-verify", 6)[0])

    def test_different_seeds_give_different_refute_instances(self):
        a = self.inputs("random-refute", 5)[1]
        b = self.inputs("random-refute", 6)[1]
        self.assertNotEqual(a["seeds"], b["seeds"])
        graphs = [TS.exact.random_maximal_free(15, s["K:4,3"], s["seeds"][0]).edges
                  for s in (a, b)]
        self.assertNotEqual(graphs[0], graphs[1])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_ignores_pass_count(self):
        one_pass = [0.1, 0.5, 1.0, 3.0, 4.0, 0.2]
        for passes in (1, 2, 3, 5):
            self.assertEqual(run.percentile(one_pass * passes, 50), 0.5)


if __name__ == "__main__":
    unittest.main()
