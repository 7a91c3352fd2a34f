"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Uses one tiny command so it takes
a few seconds.  Checks that the tracer is transparent, that self times fit
inside wall time, that a wrong golden digest is counted as a failure, that
every traced name still resolves, and that BENCHMARK.json names exactly the
metrics and workloads the harness reports.
"""

from __future__ import annotations

import json
import sys
import unittest

import run
import tracer

TINY = {"argv": ["groups", "--prime", "2", "--window", "0:40"], "exit": 0}


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.WORK.mkdir(parents=True, exist_ok=True)
        run.setup_sample()
        run.spawn(run.CLI + TINY["argv"], run.WORK / "stdout")
        cls.cmd = dict(TINY, sha256=run.sha256(run.WORK / "stdout"))

    def test_tracer_is_transparent(self):
        plain = run.run_command(self.cmd, traced=False)
        traced = run.run_command(self.cmd, traced=True)
        self.assertTrue(plain.ok)
        self.assertTrue(traced.ok, "traced output digest differs from untraced")
        self.assertIsNotNone(traced.stats)

    def test_self_times_fit_in_wall_time(self):
        traced = run.run_command(self.cmd, traced=True)
        metrics = traced.stats["metrics"]
        self_s = [v for k, v in metrics.items() if k.endswith(".self_s")]
        self.assertGreater(metrics["chart.Chart.dots_at.calls"], 0)
        self.assertTrue(all(v >= 0 for v in self_s))
        self.assertLessEqual(sum(self_s), traced.wall_s)

    def test_wrong_golden_digest_fails_every_command(self):
        wrong = {"commands": [dict(TINY, sha256="0" * 64)]}
        res = run.measure("wrong-golden", wrong, seed=0, seconds=0.01, trace=False)
        self.assertGreater(res.attempted, 0)
        self.assertEqual(res.failed / res.attempted, 1.0)

    def test_traced_names_resolve(self):
        sys.path.insert(0, str(run.SRC))
        try:
            t = tracer.Tracer()
            t.install()  # raises LookupError on a renamed function or site
        finally:
            sys.path.remove(str(run.SRC))
        traced = {f"{mod}.{qual}" for mod, qual, _, _ in tracer.TRACED}
        self.assertLessEqual(set(tracer.LOOKUP_SITES), traced)
        self.assertEqual(set(t.caches), set(tracer.CACHES))

    def test_benchmark_json_matches_harness(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        workloads = json.loads((run.HERE / "workloads.json").read_text())
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["per_layer"]], tracer.layer_metrics()
        )
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(w["name"], w["why"]) for w in spec["workloads"]],
            [(name, w["why"]) for name, w in workloads.items()],
        )


if __name__ == "__main__":
    unittest.main()
