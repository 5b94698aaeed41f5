"""Self-tests of the benchmark's own machinery.

Usage, from the repository root::

    python3 perfbench/selftest.py

* driving ``Simulator.run(until=t)`` one tick at a time reproduces the
  single-call behavioural digest of each live workload's scenario
  (``small`` preset), so the per-tick step timing does not change what
  runs;
* the span ledger gives the right self times on a nested synthetic
  call, and the instrumentation puts the original functions back;
* the percentile helper reports its sample count;
* step times take each step's fastest repeat, and passes that ran
  different steps fail the run;
* ``BENCHMARK.json`` lists exactly the metric names the code reports.
"""

from __future__ import annotations

import gc
import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.workloads import build_scenario  # noqa: E402

from perfbench import schema, workloads  # noqa: E402
from perfbench.spans import SpanRecorder, WrapPoint, instrument  # noqa: E402
from perfbench.stats import percentile  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


CLOCK = FakeClock()


class Synthetic:
    def outer(self):
        CLOCK.advance(1.0)
        self.inner()
        CLOCK.advance(2.0)
        leaf()
        CLOCK.advance(3.0)

    def inner(self):
        CLOCK.advance(4.0)
        leaf()

    def sweep(self):
        CLOCK.advance(1.0)
        gc.collect(0)


def leaf():
    CLOCK.advance(5.0)


SYNTHETIC_POINTS = (
    WrapPoint("outer", __name__, "Synthetic", "outer"),
    WrapPoint("inner", __name__, "Synthetic", "inner"),
    WrapPoint("leaf", __name__, None, "leaf"),
    WrapPoint("sweep", __name__, "Synthetic", "sweep"),
)


class TickByTickTest(unittest.TestCase):
    def test_per_tick_driving_keeps_the_digest(self):
        scenario = workloads.SCENARIOS["live_dense"]
        whole = build_scenario(scenario, preset="small")
        whole.system.run(until=whole.params["horizon"])
        stepped = build_scenario(scenario, preset="small")
        for tick in range(stepped.params["horizon"] + 1):
            stepped.system.run(until=tick)
        self.assertEqual(
            workloads.behavior_digest(stepped.system),
            workloads.behavior_digest(whole.system),
        )
        self.assertGreater(
            len(stepped.system.trace.by_category("instance.emit")), 0)


class SpanLedgerTest(unittest.TestCase):
    def test_nested_self_times(self):
        # outer: 1 + inner(4 + leaf 5) + 2 + leaf 5 + 3 = 20
        recorder = SpanRecorder(SYNTHETIC_POINTS, clock=CLOCK)
        module = sys.modules[__name__]
        originals = (Synthetic.__dict__["outer"], Synthetic.__dict__["inner"],
                     module.leaf)
        start = CLOCK.now
        with instrument(recorder):
            Synthetic().outer()
            CLOCK.advance(0.5)  # time outside every span
        ledger = recorder.ledger(CLOCK.now - start)
        self.assertEqual(ledger.layers["outer"].self_s, 6.0)
        self.assertEqual(ledger.layers["inner"].self_s, 4.0)
        self.assertEqual(ledger.layers["leaf"].self_s, 10.0)
        self.assertEqual(ledger.layers["leaf"].calls, 2)
        self.assertEqual(ledger.inclusive_s[SYNTHETIC_POINTS[0].label], 20.0)
        self.assertEqual(ledger.covered_s, 20.0)
        self.assertEqual(ledger.other_s, 0.5)
        ledger.check()
        self.assertEqual(
            (Synthetic.__dict__["outer"], Synthetic.__dict__["inner"],
             module.leaf),
            originals,
        )

    def test_collections_are_their_own_layer(self):
        def slow_collection(phase, info):
            if phase == "stop":
                CLOCK.advance(7.0)

        gc.callbacks.append(slow_collection)
        try:
            recorder = SpanRecorder(SYNTHETIC_POINTS, clock=CLOCK)
            start = CLOCK.now
            with instrument(recorder):
                Synthetic().sweep()
        finally:
            gc.callbacks.remove(slow_collection)
        ledger = recorder.ledger(CLOCK.now - start)
        collections = ledger.layers["gc"]
        self.assertGreaterEqual(collections.calls, 1)
        self.assertEqual(collections.self_s, 7.0 * collections.calls)
        self.assertEqual(ledger.layers["sweep"].self_s, 1.0)
        ledger.check()

    def test_check_rejects_spans_outside_the_window(self):
        recorder = SpanRecorder(SYNTHETIC_POINTS, clock=CLOCK)
        with instrument(recorder):
            Synthetic().outer()
        with self.assertRaises(AssertionError):
            recorder.ledger(10.0).check()


class PercentileTest(unittest.TestCase):
    def test_reports_sample_count(self):
        result = percentile(range(1, 201), 95)
        self.assertEqual(result.samples, 200)
        self.assertEqual(result.beyond, 10)
        self.assertAlmostEqual(result.value, 190.05)
        self.assertIn("n=200", result.describe())

    def test_single_sample(self):
        self.assertEqual(percentile([3.0], 50).value, 3.0)


class BestStepsTest(unittest.TestCase):
    def test_takes_each_steps_fastest_repeat(self):
        passes = [workloads.Pass(3.0, [1.0, 2.0], 10),
                  workloads.Pass(3.0, [2.0, 1.5], 10)]
        self.assertEqual(workloads.best_steps(passes), [1.0, 1.5])

    def test_passes_that_differ_fail_the_run(self):
        passes = [workloads.Pass(1.0, [1.0], 10),
                  workloads.Pass(1.0, [1.0, 1.0], 10)]
        result = workloads._report(workloads.Result(), passes, None, [1],
                                   [0.1], 1.0, None)
        self.assertFalse(result.correct)
        self.assertEqual(result.failed, result.attempted)


class SchemaTest(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(
            [w["name"] for w in declared["workloads"]],
            list(schema.WORKLOADS),
        )
        for key, code in (("end_to_end", schema.END_TO_END),
                          ("per_layer", schema.PER_LAYER)):
            with self.subTest(key=key):
                self.assertEqual(
                    {m["name"]: (m["unit"], m["better"])
                     for m in declared[key]},
                    code,
                )


if __name__ == "__main__":
    unittest.main()
