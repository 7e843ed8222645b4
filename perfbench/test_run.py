"""Self-tests of the benchmark harness: python3 -m unittest discover perfbench"""

import json
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

# A stand-in for `mcast serve`: answers every request, refusing op "refuse".
FAKE_SERVE = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    if req["op"] == "refuse":
        out = {"id": req["id"], "ok": False, "error": {"kind": "bad_request", "message": "no"}}
    else:
        out = {"id": req["id"], "ok": True, "result": {"mode": req["op"]}}
    sys.stdout.write(json.dumps(out, separators=(",", ":")) + "\n")
    sys.stdout.flush()
    if req["op"] == "shutdown":
        break
"""


def corrupt(text, at):
    return text[:at] + chr(ord(text[at]) ^ 1) + text[at + 1:]


class DigestGate(unittest.TestCase):
    OUTPUT = ('{"mode":"traffic","algo":"W-sort","offered_per_ms":0.5,"sessions":20000,'
              '"completion_ratio":1,"mean_latency_ms":6.66657017699985,"timed_out":0}')

    def test_one_corrupted_byte_fails_a_load_run(self):
        pin = run.digest(self.OUTPUT)
        good = dict(code=0, output=self.OUTPUT)
        self.assertFalse(run.load_failed(good, pin))
        for at in (0, len(self.OUTPUT) // 2, len(self.OUTPUT) - 1):
            self.assertTrue(run.load_failed(dict(good, output=corrupt(self.OUTPUT, at)), pin))

    def test_one_corrupted_byte_fails_every_request_of_a_serve_pass(self):
        transcript = '{"id":0,"ok":true,"result":{}}\n{"id":1,"ok":true,"result":{"x":1}}\n'
        good = dict(code=0, ok=[True, True], transcript=transcript)
        pin = run.digest(transcript)
        self.assertEqual(run.serve_failures(good, pin), 0)
        bad = dict(good, transcript=corrupt(transcript, 40))
        self.assertEqual(run.serve_failures(bad, pin), 2)

    def test_a_non_zero_exit_fails_the_run(self):
        self.assertTrue(run.load_failed(dict(code=1, output=self.OUTPUT),
                                        run.digest(self.OUTPUT)))

    def test_counts_repeat_exactly_and_allocations_nearly(self):
        pinned = dict(events=12283899, allocs_assemble=3094304)
        self.assertTrue(run.counters_repeat(pinned, dict(pinned)))
        self.assertFalse(run.counters_repeat(pinned, dict(pinned, events=12283900)))
        self.assertTrue(run.counters_repeat(pinned, dict(pinned, allocs_assemble=3094305)))
        self.assertFalse(run.counters_repeat(pinned, dict(pinned, allocs_assemble=3094404)))

    def test_every_input_seed_is_pinned(self):
        with open(run.PINS) as f:
            pins = json.load(f)
        for name in list(run.WORKLOADS) + ["serve-sample"]:
            self.assertEqual(sorted(pins[name], key=int),
                             [str(i) for i in range(run.INPUT_SEEDS)])


class MetricNames(unittest.TestCase):
    def test_tables_match_benchmark_json(self):
        end_to_end, per_layer = run.benchmark_names()
        self.assertEqual(run.END_TO_END, end_to_end)
        self.assertEqual(run.PER_LAYER, per_layer)

    def test_end_to_end_metrics_are_named_as_in_the_table(self):
        runs = [dict(wall=w, setup=0.001, rss=100.0) for w in (0.5, 0.6, 0.7)]
        metrics = run.e2e(runs)
        self.assertEqual(list(metrics), list(run.END_TO_END))
        self.assertEqual(metrics["sessions_per_s"], run.LOAD_SESSIONS / 0.6)

    def test_per_layer_metrics_are_named_as_in_the_table(self):
        counters = dict(requests=2, sessions=400, unicasts=4000, quarter_unicasts=1000,
                        tree_lookups=400, tree_builds=300, events=40000, blocks=7,
                        memo_hits=3000, memo_misses=1000, allocs_assemble=9000,
                        allocs_engine=1500, allocs_requests=500, chaos_requests=1,
                        chaos_sessions=200, chaos_epochs=30, parse_calls=2, emit_calls=2)
        times = {k: [1000, 1200, 1100] for k in
                 ("draw", "tree", "assemble", "engine", "run_sessions", "quarter_engine",
                  "chaos", "parse", "emit")}
        trace = dict(counters=counters, times_ns=times, request_ns=[2_000_000])
        sample = dict(trace, request_ns=[1000, 2000, 3000, 4000])
        layers = run.layer_metrics(trace, sample, ["traffic", "torus", "chaos", "multicast"],
                                   1000.0, 0.01, [0.5, 0.6, 0.7, 0.8])
        self.assertEqual(list(layers), list(run.PER_LAYER))


class ServeClient(unittest.TestCase):
    def test_a_refused_request_counts_as_a_failure(self):
        lines = [run.request_line(id=1, op="traffic"), run.request_line(id=2, op="refuse"),
                 run.request_line(id=3, op="multicast")]
        p = run.serve_pass([sys.executable, "-c", FAKE_SERVE], lines)
        self.assertEqual(p["code"], 0)
        self.assertEqual(p["ok"], [True, False, True])
        self.assertEqual(run.serve_failures(p, run.digest(p["transcript"])), 1)

    def test_a_reply_to_the_wrong_request_counts_as_a_failure(self):
        lines = [run.request_line(id=2, op="traffic")]
        p = run.serve_pass([sys.executable, "-c", FAKE_SERVE], lines)
        self.assertEqual(p["ok"], [False])


if __name__ == "__main__":
    unittest.main()
