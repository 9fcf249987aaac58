"""Self-time arithmetic on synthetic nested span sets.

Run with `python3 -m unittest discover -s perfbench -p 'test_*.py'`.
"""

import unittest

from layers import layer_self_times


def span(name, cat, tid, start, end):
    return {"name": name, "cat": cat, "ph": "X", "ts": start, "dur": end - start, "tid": tid}


class SelfTime(unittest.TestCase):
    def assertTimes(self, events, expected_us):
        got = layer_self_times(events)
        self.assertEqual(set(got), set(expected_us))
        for layer, us in expected_us.items():
            self.assertAlmostEqual(got[layer] * 1e6, us, places=6, msg=layer)

    def test_same_thread_children_are_subtracted(self):
        self.assertTimes(
            [
                span("run", "core", 1, 0, 100),
                span("explore", "symvm", 1, 10, 40),
                span("item", "symvm", 1, 15, 25),
                span("sweep", "sweep", 1, 50, 60),
                {"name": "steal", "cat": "symvm", "ph": "i", "ts": 20, "tid": 1},
            ],
            # core 100-30-10; symvm (30-10)+10; sweep 10.
            {"core": 60, "symvm": 30, "sweep": 10},
        )

    def test_spawned_threads_are_children_and_parallel_ones_merge(self):
        self.assertTimes(
            [
                span("round", "bench", 1, 0, 100),
                span("server", "pipeline", 1, 10, 90),
                # Two workers spawned and joined inside `server`; their
                # lifetimes overlap, covering 20..80 of it together.
                span("worker-0", "symvm", 2, 20, 70),
                span("item", "symvm", 2, 30, 50),
                span("worker-1", "symvm", 3, 25, 80),
                span("boot", "fork", 3, 40, 45),
            ],
            {
                "bench": 20,  # 100 - 80
                "core": 20,  # 80 - |20..80|
                "symvm": (50 - 20) + 20 + (55 - 5),
                "replay": 5,
            },
        )

    def test_long_lived_threads_stay_roots(self):
        self.assertTimes(
            [
                # A service executor running across many short requests.
                span("batch", "fleetd", 2, 5, 45),
                span("batch", "fleetd", 2, 60, 95),
                span("handle", "fleetd", 1, 0, 2),
                span("handle", "fleetd", 1, 50, 51),
                span("handle", "fleetd", 1, 98, 100),
            ],
            {"fleetd": 40 + 35 + 2 + 1 + 2},
        )

    def test_thread_inside_a_nested_span_goes_to_the_innermost(self):
        self.assertTimes(
            [
                span("round", "bench", 1, 0, 100),
                span("sweep", "sweep", 1, 10, 60),
                span("witness", "sweep", 1, 20, 50),
                span("boot", "fork", 7, 25, 35),
            ],
            {"bench": 50, "sweep": (50 - 30) + (30 - 10), "replay": 10},
        )


if __name__ == "__main__":
    unittest.main()
