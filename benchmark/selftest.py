"""Self-tests of the benchmark's helpers: python3 benchmark/selftest.py

They need neither the program nor a dataset.
"""

from __future__ import annotations

import json
import time
import unittest
from pathlib import Path

import layers
import run
from spans import Span, Tracer, self_ns, self_times

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


class TailPercentile(unittest.TestCase):
    def test_reported_only_with_ten_samples_beyond(self):
        # p99 of n samples has n - ceil(0.99 n) samples beyond it
        self.assertIsNone(run.tail_percentile(list(range(999)), 99))  # 9 beyond
        self.assertEqual(run.tail_percentile(list(range(1000)), 99), 989)  # 10 beyond
        self.assertEqual(run.tail_percentile(list(range(100)), 90), 89)
        self.assertIsNone(run.tail_percentile(list(range(99)), 90))

    def test_nearest_rank_ignores_input_order(self):
        samples = [float(x) for x in range(1, 101)]
        self.assertEqual(run.tail_percentile(samples[::-1], 50), 50.0)
        self.assertIsNone(run.tail_percentile([], 50))


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        self.assertEqual(self_ns(0, 100, []), 100)
        self.assertEqual(self_ns(0, 100, [(10, 30), (50, 60)]), 70)
        self.assertEqual(self_ns(0, 100, [(10, 30), (20, 40)]), 70)  # overlap
        self.assertEqual(self_ns(0, 100, [(-20, 10), (90, 130)]), 80)  # clipped
        self.assertEqual(self_ns(0, 100, [(0, 100), (10, 20)]), 0)

    def test_grandchildren_count_only_against_their_parent(self):
        spans = [
            Span("root", 0, 100, -1, 1),
            Span("child", 10, 50, 0, 1),
            Span("grandchild", 20, 30, 1, 1),
            Span("child", 60, 70, 0, 1),
        ]
        self.assertEqual(self_times(spans), [50, 30, 10, 10])

    def test_wrapped_calls_nest(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: time.sleep(0.002))
        outer = tracer.wrap("outer", lambda: (inner(), inner()), new_trace=True)
        outer()
        spans, _ = tracer.take()
        self.assertEqual([s.name for s in spans], ["outer", "inner", "inner"])
        self.assertEqual([s.parent for s in spans], [-1, 0, 0])
        self.assertEqual({s.trace for s in spans}, {1})
        # a span keeps the trace it started in
        frame = tracer.wrap("frame", lambda: None, new_trace=True)
        tracer.wrap("command", lambda: (frame(), frame()))()
        spans, _ = tracer.take()
        self.assertEqual([(s.name, s.trace) for s in spans],
                         [("command", 0), ("frame", 1), ("frame", 2)])
        own = self_times(spans)
        inner_ns = sum(s.end - s.start for s in spans[1:])
        self.assertEqual(own[0], spans[0].end - spans[0].start - inner_ns)

    def test_iterator_spans_start_a_trace_per_item(self):
        tracer = Tracer()
        frames = tracer.wrap_iter("replay", lambda n: iter(range(n)))
        self.assertEqual(list(frames(2)), [0, 1])
        spans, _ = tracer.take()
        # two items, then the next() that ends the iteration
        self.assertEqual([s.trace for s in spans], [1, 2, 3])

    def test_patch_is_undone(self):
        class Module:
            @staticmethod
            def f():
                return 1

        original = Module.f
        tracer = Tracer()
        tracer.patch(Module, "f", tracer.wrap("f", original))
        self.assertEqual(Module.f(), 1)
        tracer.restore()
        self.assertIs(Module.f, original)


DETECTION = ('{"frame": 0, "verdict": true, "movement": false, "active_count": 0, '
             '"quadrant_means": {"Q0": 1.0}, "flags": {"Q0": true}, '
             '"state": "Run", "elapsed_us": %s}')
EVENT = ('{"frame": 0, "event": "Entered", "quadrant": "Q0", '
         '"from_state": null, "to_state": null}')


class Digest(unittest.TestCase):
    def test_elapsed_us_does_not_change_the_digest(self):
        a = [DETECTION % "12.5", EVENT]
        b = [DETECTION % "980.125", EVENT]
        self.assertEqual(run.ndjson_digest(a), run.ndjson_digest(b))
        self.assertNotIn("elapsed_us", run.strip_elapsed(a)[0])

    def test_any_other_field_does(self):
        a = [DETECTION % "12.5"]
        b = [(DETECTION % "12.5").replace('"Run"', '"Slow"')]
        self.assertNotEqual(run.ndjson_digest(a), run.ndjson_digest(b))
        self.assertNotEqual(run.ndjson_digest(a + [EVENT]), run.ndjson_digest(a))


class Intervals(unittest.TestCase):
    def test_events_are_output_but_not_frames(self):
        stream = run.RecordStream()
        # print() writes the text and the newline separately
        for text in (DETECTION % "1", EVENT, EVENT, DETECTION % "2", DETECTION % "3"):
            print(text, file=stream)
        self.assertEqual(len(stream.stamps), 3)
        self.assertEqual(len(stream.lines()), 5)
        self.assertEqual(len(run.intervals_us(stream.stamps)), 2)
        self.assertFalse(run.is_detection_record(EVENT))
        self.assertFalse(run.is_detection_record("\n"))

    def test_intervals_are_consecutive_differences(self):
        self.assertEqual(run.intervals_us([1000, 3000, 3500]), [2.0, 0.5])


class Workloads(unittest.TestCase):
    REFERENCE = ("width=160\nheight=120\nframes=1000\nseed=7\n"
                 "blob=900,8,human,50:-28:30,60:52:30\nblob=250,5,object,0:130:90\n")

    def test_seed_replaced_and_vga_scaled(self):
        vga = run.derive_scene(self.REFERENCE, run.WORKLOADS["vga640"], 3)
        self.assertIn("seed=3", vga)
        self.assertIn("width=640\nheight=480\nframes=80", vga)
        self.assertIn("blob=900,32,human,50:-112:120,60:208:120", vga)
        self.assertIn("blob=250,20,object,0:520:360", vga)

    def test_idle_drops_only_humans(self):
        idle = run.derive_scene(self.REFERENCE, run.WORKLOADS["idle160"], 7)
        self.assertNotIn("human", idle)
        self.assertIn("blob=250,5,object,0:130:90", idle)
        self.assertIn("frames=1000", idle)


class Calibration(unittest.TestCase):
    def test_slowdown_is_the_mean_of_the_calibrations_around_a_pass(self):
        calibration = run.Calibration.__new__(run.Calibration)  # no kernels run
        calibration.reference_s = {"replay": 0.05}
        calibration.last = {"replay": 0.04}
        times = iter([0.06, 0.08])
        calibration.time = lambda kind: next(times)
        self.assertAlmostEqual(calibration.slowdown("replay"), 1.0)
        self.assertAlmostEqual(calibration.slowdown("replay"), 1.4)
        self.assertEqual(calibration.last["replay"], 0.08)


class BenchmarkJson(unittest.TestCase):
    def test_metric_names_and_units_match_the_code(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(run.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], run.END_TO_END)
        for metric in spec["end_to_end"]:
            self.assertEqual(run.UNITS[metric["name"]], metric["unit"])
        for metric in spec["per_layer"]:
            self.assertEqual(layers.PER_LAYER_UNITS[metric["name"]], metric["unit"])
        self.assertEqual({m["name"] for m in spec["per_layer"]}, set(layers.PER_LAYER_UNITS))


if __name__ == "__main__":
    unittest.main()
