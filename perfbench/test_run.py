"""Self-tests of the benchmark's arithmetic and output checks.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import statistics
import unittest

import run


def placement(**over):
    rec = {
        "design": "bigblue1", "legal": True, "hpwl": 3.3e5, "hpwl_recomputed": 3.3e5,
        "converged": True, "gp_iterations": 849,
        "overflow": 0.0696, "target_overflow": 0.07, "fallback": False,
    }
    rec.update(over)
    return rec


def job(terminals, key=("small", 7)):
    return {"key": key, "terminals": terminals}


DONE = {"event": "done", "hpwl": 5361.9, "iterations": 296, "overflow": 0.0692}
TARGET = 0.07


class Percentiles(unittest.TestCase):
    def test_median_and_quartiles(self):
        xs = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        self.assertEqual(run.median(xs), 5.5)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        self.assertAlmostEqual(run.quartile_spread(xs), (q3 - q1) / 5.5)

    def test_tail_keeps_ten_samples_beyond(self):
        xs = list(range(1, 101))  # 100 samples
        value, p = run.tail(xs)
        self.assertEqual(p, 90)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_tail_at_the_smallest_qualifying_count(self):
        xs = list(range(1, 21))  # 20 samples: only p50 leaves ten beyond
        self.assertEqual(run.tail(xs), (10, 50))
        xs = list(range(1, 41))
        value, p = run.tail(xs)
        self.assertEqual((value, p), (30, 75))

    def test_tail_falls_back_to_the_maximum(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100))
        self.assertEqual(run.tail(list(range(19))), (18, 100))

    def test_geomean(self):
        self.assertAlmostEqual(run.geomean([2.0, 8.0]), 4.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0, "end": 100},
            {"id": 2, "parent": 1, "start": 10, "end": 30},
            {"id": 3, "parent": 1, "start": 40, "end": 90},
            {"id": 4, "parent": 3, "start": 50, "end": 60},
        ]
        st = run.self_times(spans)
        self.assertEqual(st, {1: 30, 2: 20, 3: 40, 4: 10})
        # Self times of a tree add up to the root's duration.
        self.assertEqual(sum(st.values()), 100)

    def test_overlapping_and_overhanging_children_count_once(self):
        spans = [
            {"id": 1, "parent": 0, "start": 0, "end": 100},
            {"id": 2, "parent": 1, "start": 10, "end": 50},
            {"id": 3, "parent": 1, "start": 40, "end": 120},
        ]
        self.assertEqual(run.self_times(spans)[1], 10)


class FailureAccounting(unittest.TestCase):
    def test_clean_placement_passes(self):
        self.assertEqual(run.placement_failures(placement(), {}), [])

    def test_illegal_placement_fails(self):
        why = run.placement_failures(placement(legal=False), {})
        self.assertIn("illegal placement", why)

    def test_cap_hit_gp_fails(self):
        why = run.placement_failures(
            placement(converged=False, gp_iterations=1000, overflow=0.12), {})
        self.assertIn("GP stopped at the iteration cap", why)
        self.assertIn("GP overflow above target", why)

    def test_reaching_the_target_on_the_last_iteration_passes(self):
        rec = placement(converged=True, gp_iterations=1000, overflow=0.0698)
        self.assertEqual(run.placement_failures(rec, {}), [])

    def test_hpwl_mismatch_and_repeat_drift_fail(self):
        why = run.placement_failures(placement(hpwl_recomputed=3.4e5), {})
        self.assertIn("hpwl does not match the placement", why)
        first = {}
        self.assertEqual(run.placement_failures(placement(), first), [])
        why = run.placement_failures(placement(hpwl=3.3000001e5, hpwl_recomputed=3.3000001e5),
                                     first)
        self.assertEqual(why, ["hpwl differs between repeats"])

    def test_missing_done_fails(self):
        self.assertEqual(run.job_failures(job([]), TARGET, {}), ["0 terminal events"])
        self.assertEqual(run.job_failures(job([DONE, DONE]), TARGET, {}),
                         ["2 terminal events"])

    def test_failed_and_shed_jobs_fail(self):
        for kind in ("failed", "overloaded", "rejected"):
            self.assertEqual(run.job_failures(job([{"event": kind}]), TARGET, {}),
                             ["job ended with " + kind])

    def test_served_job_checks(self):
        self.assertEqual(run.job_failures(job([DONE]), TARGET, {}), [])
        capped = dict(DONE, iterations=1000, overflow=0.2)
        why = run.job_failures(job([capped]), TARGET, {})
        self.assertEqual(why, ["GP stopped at the iteration cap above the overflow target"])
        last = dict(DONE, iterations=1000, overflow=0.0698)
        self.assertEqual(run.job_failures(job([last]), TARGET, {}), [])
        first = {}
        run.job_failures(job([DONE]), TARGET, first)
        drift = dict(DONE, hpwl=5362.0)
        self.assertEqual(run.job_failures(job([drift]), TARGET, first),
                         ["hpwl differs between repeats"])

    def test_tally_counts_attempts_and_failures(self):
        tally = run.Tally()
        tally.check("a", [])
        tally.check("b", ["illegal placement"])
        self.assertEqual((tally.attempted, tally.failed), (2, 1))


class Exposition(unittest.TestCase):
    def test_histogram_median_interpolates(self):
        text = "\n".join([
            "# TYPE dp_sched_step_seconds histogram",
            'dp_sched_step_seconds_bucket{stage="gp",le="0.001"} 2',
            'dp_sched_step_seconds_bucket{stage="gp",le="0.002"} 6',
            'dp_sched_step_seconds_bucket{stage="gp",le="+Inf"} 8',
            'dp_sched_step_seconds_bucket{stage="dp",le="0.001"} 0',
            'dp_sched_step_seconds_bucket{stage="dp",le="0.002"} 0',
            'dp_sched_step_seconds_bucket{stage="dp",le="+Inf"} 0',
            "dp_sched_step_seconds_count 8",
        ])
        series = run.parse_exposition(text)
        # 4 of 8 samples: 2 below 1 ms, then 2 of the 4 in (1, 2] ms.
        self.assertAlmostEqual(run.histogram_p50(series, "dp_sched_step_seconds"), 0.0015)

    def test_job_mix_is_seeded(self):
        def take(seed):
            mix = run.job_mix(seed)
            return [next(mix) for _ in range(40)]

        self.assertEqual(take(5), take(5))
        self.assertNotEqual(take(5), take(6))
        presets = [r["preset"] for r in take(5)]
        self.assertEqual(presets.count("medium"), 10)
        self.assertEqual(presets.count("small"), 30)
        # Few distinct jobs, so a run repeats each and can compare HPWLs.
        self.assertLessEqual(len({(r["preset"], r["seed"]) for r in take(5)}),
                             sum(run.SERVE_DISTINCT.values()))


class Trace(unittest.TestCase):
    def test_busy_time_sums_leaf_spans(self):
        def begin(i, parent, name, t):
            return {"ev": "begin", "id": i, "parent": parent, "name": name, "t": t}

        def end(i, t):
            return {"ev": "end", "id": i, "t": t}

        trace = [
            begin(1, 0, "small-3", 0), begin(2, 1, "sanitize", 10), end(2, 20),
            begin(3, 1, "gp", 20), begin(4, 3, "gp.iter", 30), end(4, 40),
            # parked while another job ran: 40..100 is in no leaf span
            begin(5, 3, "gp.iter", 100), end(5, 115), end(3, 115),
            {"ev": "iter", "k": 0, "t": 40}, end(1, 120),
        ]
        total, gp = run.busy_seconds(trace)
        self.assertAlmostEqual(total * 1e9, 35)
        self.assertAlmostEqual(gp * 1e9, 25)


class Definitions(unittest.TestCase):
    def test_benchmark_json_matches_the_reported_metrics(self):
        with open(run.ROOT / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]], list(run.END_TO_END_UNITS))
        self.assertEqual([m["name"] for m in bench["per_layer"]], list(run.PER_LAYER_UNITS))
        for m in bench["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END_UNITS[m["name"]])
        for m in bench["per_layer"]:
            self.assertEqual(m["unit"], run.PER_LAYER_UNITS[m["name"]])
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(run.WORKLOADS))

    def test_every_per_layer_metric_has_a_prediction(self):
        with open(run.ROOT / "perfbench" / "predictions.json") as f:
            predictions = json.load(f)["predictions"]
        self.assertEqual(set(predictions), set(run.PER_LAYER_UNITS))
        for name, p in predictions.items():
            self.assertTrue(p["not"], name)
            for metric, workload in p["moves"] + p.get("weakly", []) + p["not"]:
                self.assertIn(metric, run.END_TO_END_UNITS, name)
                self.assertIn(workload, run.WORKLOADS, name)


if __name__ == "__main__":
    unittest.main()
