"""Self-tests of the benchmark's own arithmetic and output gate.

    python3 perfbench/selftest.py

run.py also runs them before every benchmark run and refuses to report
numbers when one fails.
"""

from __future__ import annotations

import io
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

import run
from tracer import self_times, summarize


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25]
        spans = [
            ("root", 0, 100, -1),
            ("a", 10, 40, 0),
            ("c", 15, 25, 1),
            ("b", 50, 90, 0),
        ]
        self.assertEqual(self_times(spans), [30, 20, 10, 40])
        self.assertEqual(sum(self_times(spans)), 100)

    def test_overlapping_and_escaping_children_count_once(self):
        spans = [
            ("root", 0, 100, -1),
            ("a", 10, 60, 0),
            ("b", 40, 80, 0),
            ("c", 90, 130, 0),
        ]
        # children cover [10, 80] and [90, 100] of the root: 80 ns
        self.assertEqual(self_times(spans)[0], 20)

    def test_summarize_adds_calls_and_seconds(self):
        spans = [("f", 0, 2_000_000_000, -1), ("g", 0, 500_000_000, 0),
                 ("g", 1_000_000_000, 1_500_000_000, 0)]
        summary = summarize(spans)
        self.assertEqual(summary["g"]["calls"], 2)
        self.assertAlmostEqual(summary["g"]["total_s"], 1.0)
        self.assertAlmostEqual(summary["f"]["self_s"], 1.0)


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.tail_percentile(6))
        self.assertIsNone(run.tail_percentile(19))
        self.assertEqual(run.tail_percentile(20), 50)
        self.assertEqual(run.tail_percentile(40), 75)
        self.assertEqual(run.tail_percentile(100), 90)
        self.assertEqual(run.tail_percentile(999), 95)
        self.assertEqual(run.tail_percentile(1000), 99)

    def test_describe_reports_count_and_nearest_rank(self):
        d = run.describe([float(v) for v in range(1, 101)])
        self.assertEqual((d["n"], d["tail_p"], d["tail_value"]), (100, 90, 90.0))
        self.assertEqual(d["median"], 50.5)
        self.assertIsNone(run.describe([3.0, 1.0, 2.0])["tail_value"])


class OutputGate(unittest.TestCase):
    def setUp(self):
        run.RESULTS_DIR.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RESULTS_DIR))
        self.addCleanup(shutil.rmtree, self.dir, True)

    def test_one_flipped_byte_is_one_mismatch(self):
        (self.dir / "row").mkdir()
        (self.dir / "sweep.csv").write_bytes(b"descriptor,status\nnn_K1_N6,ok\n")
        (self.dir / "row" / "model.txt").write_bytes(b"1,6\n0,0,0,1.0\n")
        before = run.digest_tree(self.dir)
        self.assertEqual(sorted(before), ["row/model.txt", "sweep.csv"])
        data = bytearray((self.dir / "row" / "model.txt").read_bytes())
        data[5] ^= 0x01
        (self.dir / "row" / "model.txt").write_bytes(bytes(data))
        after = run.digest_tree(self.dir)
        self.assertEqual(run.count_mismatches(before, after), 1)
        self.assertEqual(run.count_mismatches(before, before), 0)

    def test_missing_and_extra_files_are_mismatches(self):
        self.assertEqual(run.count_mismatches({"a": "1", "b": "2"}, {"a": "1", "c": "3"}), 2)


def passed() -> bool:
    """Run the self-tests quietly; print the failures only."""
    stream = io.StringIO()
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=stream, verbosity=0).run(suite)
    if not result.wasSuccessful():
        print(stream.getvalue())
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
