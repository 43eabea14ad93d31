"""Tests of the benchmark's own machinery, not of the program.

Run from the root of a checkout with either of

    python3 -m unittest discover -s perfbench
    python3 -m pytest perfbench
"""

from __future__ import annotations

import gzip
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workload as wk  # noqa: E402
from tracer import WRAPPED, Tracer  # noqa: E402

import tempo_bgp.engine as engine_module  # noqa: E402
from tempo_bgp import Compatibility  # noqa: E402


def small_inputs(name: str) -> wk.Inputs:
    wl = wk.workload(name)
    return wk.oracle_inputs(wl, wl["graph_seed"])


def summary(result):
    return result.accepted, vars(result.counters)


class StreamFidelity(unittest.TestCase):
    def test_stream_yields_the_graph_snapshots_in_domain_order(self):
        g = small_inputs("late-arrivals-path3").g
        samples: list[float] = []
        self.assertEqual(
            list(wk.timed_stream(g, samples)), [(t, g.snapshots[t]) for t in g.domain]
        )
        self.assertEqual(len(samples), len(g.domain))

    def test_streaming_engines_agree_with_and_without_the_timing_stream(self):
        for name in wk.load_workloads():
            inputs = small_inputs(name)
            for engine in ("on_demand", "partial"):
                with self.subTest(workload=name, engine=engine):
                    samples: list[float] = []
                    timed = wk.call_engine(engine, inputs, wk.timed_stream(inputs.g, samples))
                    plain = wk.call_engine(engine, inputs)
                    self.assertEqual(summary(timed), summary(plain))
                    self.assertEqual(len(samples), len(inputs.g.domain))


class OrderGuard(unittest.TestCase):
    def test_unknown_order_is_refused(self):
        # ta7 with y1,y2 is Unknown; run_partial_match would proceed with a
        # warning and lose accepted matchings, so the guard drops the order
        inputs = small_inputs("long-clocked-path2")
        self.assertEqual(inputs.verdict, Compatibility.UNKNOWN.value)
        self.assertIsNone(inputs.order)

    def test_compatible_orders_are_passed_on(self):
        for name in ("dense-cycle4", "late-arrivals-path3"):
            with self.subTest(workload=name):
                inputs = small_inputs(name)
                self.assertEqual(inputs.verdict, Compatibility.COMPATIBLE.value)
                self.assertEqual(inputs.order, tuple(wk.workload(name)["order"]))


class Tracing(unittest.TestCase):
    def test_install_restores_the_engine_names(self):
        originals = {attr: getattr(engine_module, attr) for attr in WRAPPED}
        tracer = Tracer()
        with tracer.installed():
            self.assertTrue(all(getattr(engine_module, a) is not f for a, f in originals.items()))
        self.assertTrue(all(getattr(engine_module, a) is f for a, f in originals.items()))

    def test_traced_calls_match_untraced_and_count_the_calls(self):
        inputs = small_inputs("late-arrivals-path3")
        tracer = Tracer()
        for engine, matcher in run.MATCHER.items():
            with self.subTest(engine=engine):
                plain = wk.call_engine(engine, inputs)
                with tracer.installed():
                    call = tracer.call(engine, lambda: wk.call_engine(engine, inputs), keep=True)
                self.assertEqual(summary(call.result), summary(plain))
                self.assertGreater(call.span_calls(f"bgp.{matcher}"), 0)
                self.assertGreater(call.span_calls(run.STEP), 0)
                self.assertGreater(call.seconds, call.span_seconds(run.STEP))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "spans.tsv.gz"
            n = tracer.write(path)
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                rows = [line.rstrip("\n").split("\t") for line in fh][1:]
        self.assertEqual(len(rows), n)
        roots = {row[0] for row in rows if row[1] == "-1"}
        self.assertEqual(len(roots), len(run.MATCHER))
        self.assertTrue(all(row[1] in roots for row in rows if row[1] != "-1"))


class InputFiles(unittest.TestCase):
    def test_seed_permutes_ids_and_keeps_the_work(self):
        name = "dense-cycle4"
        wl = wk.workload(name)
        seen = []
        for seed in (0, 1):
            directory = wk.make_inputs(name, wl, seed, wl["graph_seed"])
            inputs, _ = wk.setup(directory, wl["order"])
            result = wk.call_engine("partial", inputs)
            seen.append(wk.observed(result, wk.read_canon(directory)))
            seen.append((directory / "edge.csv").read_text(encoding="utf-8"))
        self.assertNotEqual(seen[1], seen[3])
        self.assertEqual(seen[0], seen[2])
        self.assertEqual(wk.pin_problems("partial", seen[0], wk.pins_for(wl, wl["graph_seed"])), [])


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((wk.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(wk.load_workloads()))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_refuses_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(wk.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(wk.HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "dense-cycle4"],
                cwd=tmp,
                capture_output=True,
                text=True,
                timeout=60,
                check=False,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
