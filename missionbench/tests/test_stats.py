"""Tests of the benchmark's own statistics (missionbench/stats.py).

    python3 -m unittest discover -s missionbench/tests
"""

import json
import math
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import stats  # noqa: E402


def mission(index, sent, recv, status="done", identical=True, due=None, ack=None):
    m = {"index": index, "sent_s": sent, "ack_s": sent if ack is None else ack,
         "recv_s": recv, "status": status, "identical": identical}
    if due is not None:
        m["due_s"] = due
    return m


class TailRule(unittest.TestCase):
    def test_p99_once_there_are_a_thousand_samples(self):
        t = stats.tail(list(range(1, 1001)))
        self.assertEqual((t.percentile, t.beyond, t.samples), (99.0, 10, 1000))
        self.assertEqual(t.value, 990)  # exactly ten samples above it
        self.assertEqual(t.value, stats.percentile(range(1, 1001), 99))

    def test_fewer_samples_keep_ten_beyond(self):
        t = stats.tail(list(range(1, 201)))
        self.assertEqual((t.value, t.beyond, t.samples), (190, 10, 200))
        self.assertAlmostEqual(t.percentile, 95.0)

    def test_larger_samples_stay_at_p99(self):
        t = stats.tail(list(range(1, 5001)))
        self.assertEqual((t.percentile, t.beyond), (99.0, 50))
        self.assertEqual(t.value, stats.percentile(range(1, 5001), 99))

    def test_too_few_samples_report_the_maximum_with_none_beyond(self):
        t = stats.tail([3.0, 1.0, 2.0])
        self.assertEqual((t.value, t.beyond, t.samples), (3.0, 0, 3))

    def test_beyond_count_is_exact(self):
        values = [float(v) for v in range(537)]
        t = stats.tail(values)
        self.assertEqual(sum(1 for v in values if v > t.value), t.beyond)


class BlockTail(unittest.TestCase):
    def test_median_of_per_block_tails(self):
        # Three blocks of 200; each block's tail has ten samples beyond it.
        values = []
        for base in (0.0, 1000.0, 2000.0):
            values += [base + v for v in range(200)]
        t = stats.block_tail(values)
        self.assertEqual(t.value, 1000.0 + 189)
        self.assertEqual((t.percentile, t.beyond, t.samples), (95.0, 10, 200))

    def test_a_stall_in_one_block_does_not_move_it(self):
        calm = [1.0] * 190 + [2.0] * 10
        stalled = [1.0] * 150 + [50.0] * 50
        self.assertEqual(stats.block_tail(calm * 4 + stalled).value, 1.0)

    def test_short_runs_fall_back_to_the_whole_sample(self):
        values = list(range(1, 301))
        self.assertEqual(stats.block_tail(values), stats.tail(values))


class DueTimeAccounting(unittest.TestCase):
    def test_open_loop_latency_runs_from_the_due_time(self):
        # Due at 1.0 s, sent 0.2 s late, answered at 1.5 s: 500 ms, not 300.
        m = [mission(0, sent=1.2, recv=1.5, due=1.0)]
        self.assertAlmostEqual(stats.latencies_ms(m, open_loop=True)[0], 500.0)
        self.assertAlmostEqual(stats.latencies_ms(m, open_loop=False)[0], 300.0)

    def test_lateness_is_send_minus_due(self):
        m = [mission(0, sent=1.25, recv=2.0, due=1.0), mission(1, sent=2.0, recv=2.1, due=2.0)]
        self.assertEqual([round(x, 6) for x in stats.lateness_ms(m)], [250.0, 0.0])

    def test_waiting_on_the_previous_ack_is_not_lateness(self):
        # Mission 0's ack took until 1.5 s; mission 1, due at 1.1 s, left at
        # 1.502 s: 2 ms late through the generator's fault, not 402 ms.
        m = [mission(1, sent=1.502, recv=2.0, due=1.1, ack=1.6),
             mission(0, sent=1.0, recv=1.8, due=1.0, ack=1.5)]
        self.assertEqual([round(x, 6) for x in stats.lateness_ms(m)], [0.0, 2.0])
        # The daemon's wait stays in the latency, which runs from the due time.
        self.assertAlmostEqual(stats.latencies_ms(m[:1], open_loop=True)[0], 900.0)

    def test_a_late_generator_invalidates_the_run(self):
        late = [mission(i, sent=i + 0.05, recv=i + 0.1, due=float(i)) for i in range(100)]
        with self.assertRaises(stats.InvalidRun):
            stats.check_lateness([{"missions": late}])
        on_time = [mission(i, sent=i + 0.001, recv=i + 0.1, due=float(i)) for i in range(100)]
        stats.check_lateness([{"missions": on_time}])  # does not raise

    def test_closed_loop_runs_are_never_late(self):
        stats.check_lateness([{"missions": [mission(0, sent=5.0, recv=6.0)]}])


class FailuresMissEveryLimit(unittest.TestCase):
    def test_refused_failed_and_wrong_results_are_infinite(self):
        m = [mission(0, 0.0, 0.01),
             mission(1, 0.0, 0.0, status="refused"),
             mission(2, 0.0, 0.02, status="failed"),
             mission(3, 0.0, 0.02, identical=False)]
        lat = stats.latencies_ms(m, open_loop=False)
        self.assertAlmostEqual(lat[0], 10.0)
        self.assertTrue(all(math.isinf(x) for x in lat[1:]))
        self.assertEqual(stats.failed_count(m), 3)

    def test_failures_push_the_median_over_any_limit(self):
        m = [mission(i, 0.0, 0.001) for i in range(4)]
        m += [mission(4 + i, 0.0, 0.0, status="refused") for i in range(5)]
        self.assertTrue(math.isinf(stats.median(stats.latencies_ms(m, open_loop=False))))

    def test_failures_do_not_count_as_throughput(self):
        m = [mission(i, i * 0.1, i * 0.1 + 0.05) for i in range(10)]
        m.append(mission(10, 0.0, 1.0, status="failed"))
        self.assertAlmostEqual(stats.missions_per_s(m), 10.0)


class Throughput(unittest.TestCase):
    def test_median_of_whole_seconds_ignores_a_stalled_second(self):
        m = []
        for second, count in enumerate([10, 10, 2, 10, 10]):
            m += [mission(len(m), second, second + (k + 0.5) / count) for k in range(count)]
        self.assertEqual(stats.missions_per_s(m), 10.0)


class SimulatedPrefix(unittest.TestCase):
    def test_mean_over_the_first_missions_of_the_sequence(self):
        m = [dict(mission(i, 0.0, 1.0), sim_ns=1e6 * (i + 1)) for i in (3, 0, 2, 1, 9)]
        self.assertAlmostEqual(stats.sim_ms_per_mission(m, 4), 2.5)


class HostFingerprint(unittest.TestCase):
    BUILD = {"build_type": "Release", "native_arch": False, "compiler": "gcc 12.2.0"}

    def test_same_host_compares(self):
        host = stats.host_fingerprint(self.BUILD)
        stats.check_same_host(host, dict(host))

    def test_mismatch_is_refused_naming_the_fields(self):
        host = stats.host_fingerprint(self.BUILD)
        other = dict(host, nproc=(host["nproc"] or 1) + 1, native_arch=True)
        with self.assertRaises(stats.HostChanged) as caught:
            stats.check_same_host(host, other)
        self.assertIn("host changed — rebaseline", str(caught.exception))
        self.assertIn("native_arch", str(caught.exception))
        self.assertIn("nproc", str(caught.exception))


class BenchmarkFile(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        with open(HERE.parent.parent / "BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
        for section, table in (("end_to_end", stats.END_TO_END), ("per_layer", stats.PER_LAYER)):
            declared = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
            self.assertEqual(declared, table)


if __name__ == "__main__":
    unittest.main()
