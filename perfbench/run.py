"""Seeded benchmark of the three tempo-bgp engines.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--graph-seed M] [--pin]

Run from the root of a checkout.  The workloads, their reasons and their
pinned references are in ``perfbench/workloads.json``.  Each run generates
the workload's graph (``--graph-seed`` picks the ``GenSpec`` seed, by
default the workload's design seed; ``--seed`` permutes the ids), writes
it to ``perfbench/out/`` and hands the program only those files.

``--trace 0`` times each engine end to end with tracing off, for
``--seconds`` seconds, plus set-up time and each engine's peak RSS in a
fresh child process.  Every timing is the median of the run's
repetitions, each scaled to a reference host speed (see ``HostSpeed``).  ``--trace 1`` times
the same calls with spans around the engine's calls into ``bgp`` and
``timed_automaton`` and reports the per-module breakdown; the spans are
written to ``spans.tsv.gz`` beside the inputs.  Every engine run is checked against the workload's pins, and the
three engines against the brute-force oracle on a small graph.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--pin`` prints the pinned reference for the chosen graph seed instead of
measuring, for a maintainer who changes a workload on purpose.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workload as wk
from tracer import Tracer

HERE = Path(__file__).resolve().parent

SETUP_WARMUP = 5  # the first set-ups of a process run slower; they are not timed
REFERENCE_S = 0.0125  # reported seconds are seconds on a host where reference_work() takes this
MIN_REPS = 4
MIN_TRACED_REPS = 2
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "baseline.query_s": "s",
    "on_demand.query_s": "s",
    "partial.query_s": "s",
    "on_demand.snapshot_ms_p50": "ms",
    "on_demand.snapshot_ms_p95": "ms",
    "partial.snapshot_ms_p50": "ms",
    "partial.snapshot_ms_p95": "ms",
    "baseline.peak_rss_mb": "MiB",
    "on_demand.peak_rss_mb": "MiB",
    "partial.peak_rss_mb": "MiB",
    "correct_frac": "frac",
}

SETUP_STAGES = (
    "temporal_graph.load_s",
    "bgp.parse_s",
    "timed_automaton.parse_s",
    "timed_automaton.order_check_s",
)
MATCHER = {"baseline": "match_total", "on_demand": "delta_match", "partial": "extend"}
STEP = "timed_automaton.step"
COUNTERS = ("rows", "generated", "early_rejected", "warnings")


def per_layer_units() -> dict[str, str]:
    units = {"host.reference_s": "s", **dict.fromkeys(SETUP_STAGES, "s")}
    for e, call in MATCHER.items():
        units[f"{e}.bgp.{call}_s"] = "s"
        units[f"{e}.bgp.{call}_calls"] = "count"
        units[f"{e}.bgp.matchings_out"] = "count"
        units[f"{e}.timed_automaton.step_s"] = "s"
        units[f"{e}.timed_automaton.step_calls"] = "count"
        units[f"{e}.timed_automaton.configs_per_step"] = "configs/call"
        units[f"{e}.engine.self_s"] = "s"
        for c in COUNTERS + ("accepted",):
            units[f"{e}.engine.{c}"] = "count"
        units[f"{e}.engine.accept_frac"] = "frac"
        units[f"{e}.trace.overhead_frac"] = "frac"
    return units


PER_LAYER = per_layer_units()


class Tally:
    """Engine runs attempted and failed; a run fails when it raises or breaks a pin."""

    def __init__(self, canon: dict[str, str], pins: dict):
        self.canon, self.pins = canon, pins
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for line in problems:
                print(f"perfbench: FAILED {line}", file=sys.stderr)

    def run(self, engine: str, fn):
        """Call ``fn``, whose result starts with the engine result, and check it.

        Returns ``fn``'s result, or None when it raised.
        """
        try:
            out = fn()
        except Exception as exc:  # a raising engine is a failed run, not a crashed benchmark
            self.record([f"{engine} raised {exc!r}"])
            return None
        self.record(wk.pin_problems(engine, wk.observed(out[0], self.canon), self.pins))
        return out


def median_of(what: str, xs: list[float]) -> float:
    if not xs:
        raise wk.BenchError(f"no successful run for {what}")
    return statistics.median(xs)


def reference_work() -> int:
    """Fixed pure-Python work, tuple keys into a dict and a set, that gauges the host."""
    counts: dict[tuple[int, int], int] = {}
    seen: set[tuple[int, int]] = set()
    for i in range(40_000):
        key = (i % 997, i % 13)
        counts[key] = counts.get(key, 0) + 1
        if i & 1:
            seen.add(key)
    return len(counts) + len(seen)


class HostSpeed:
    """Gauges the host's speed just before each timed call.

    On a shared two-vCPU Xeon host the speed alternates between a fast and
    a slow phase every second or two, and for minutes at a time even the
    fast phase is up to 1.8 times slower.  Each timing is therefore
    multiplied by ``REFERENCE_S`` over the time ``reference_work()`` took
    just before it, making it seconds on a host where that work takes
    ``REFERENCE_S``.  Over five seeds of ``late-arrivals-path3`` the
    spread (quartile distance over median) of the resulting query-time
    medians was 4-7 %, against 16-21 % for the best unscaled time of a run.
    """

    def __init__(self):
        self.times: list[float] = []

    def scale(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - t0
        self.times.append(elapsed)
        return REFERENCE_S / elapsed


def snapshot_percentiles(what: str, runs: list[list[float]]) -> tuple[float, float]:
    """p50 and p95 over a stream's snapshots of each snapshot's median time."""
    profile = [median_of(what, list(samples)) for samples in zip(*runs)]
    if len(profile) < 2:
        raise wk.BenchError(f"{what}: fewer than two snapshots per run")
    return statistics.median(profile), statistics.quantiles(profile, n=100, method="inclusive")[94]


def timed_call(engine: str, inputs, tracer: Tracer | None = None, keep: bool = False):
    """One engine call: (result, seconds, snapshot samples, traced call or None)."""
    samples: list[float] = []
    stream = None if engine == "baseline" else wk.timed_stream(inputs.g, samples)
    gc.collect()
    if tracer is None:
        t0 = time.perf_counter()
        result = wk.call_engine(engine, inputs, stream)
        return result, time.perf_counter() - t0, samples, None
    with tracer.installed():
        call = tracer.call(engine, lambda: wk.call_engine(engine, inputs, stream), keep=keep)
    return call.result, call.seconds, samples, call


def peak_rss_mib(tally: Tally, directory: Path, name: str, engine: str) -> float:
    """Peak RSS of a fresh process that sets up and runs only ``engine``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "rss_child.py"), str(directory), name, engine],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        tally.record([f"{engine} peak-RSS child exited {proc.returncode}: {proc.stderr.strip()}"])
        raise wk.BenchError(f"no peak RSS for {engine}")
    seen = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.record(wk.pin_problems(engine, seen, tally.pins))
    return seen["maxrss_kib"] / 1024.0


class SetUp:
    """Times set-ups of one workload's inputs, one per measuring cycle.

    Spreading the set-ups over the whole run keeps a slow spell of the
    machine from deciding their median.
    """

    def __init__(self, directory: Path, order):
        self.directory, self.order = directory, order
        self.stages: list[list[float]] = []  # scaled seconds per stage
        for _ in range(SETUP_WARMUP):
            self.inputs, _ = wk.setup(directory, order)

    def timed(self, scale: float):
        gc.collect()
        self.inputs, stage_s = wk.setup(self.directory, self.order)
        self.stages.append([x * scale for x in stage_s])
        return self.inputs

    def median_s(self, stage: int | None = None) -> float:
        return median_of("set-up", [sum(s) if stage is None else s[stage] for s in self.stages])


def end_to_end(tally: Tally, name: str, setups: SetUp, seconds: float) -> dict:
    values = {
        f"{e}.peak_rss_mb": peak_rss_mib(tally, setups.directory, name, e) for e in wk.ENGINES
    }
    host = HostSpeed()
    times = {e: [] for e in wk.ENGINES}
    snaps = {e: [] for e in wk.ENGINES}  # per run, the milliseconds of each snapshot
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or time.perf_counter() < deadline:
        inputs = setups.timed(host.scale())
        for engine in wk.ENGINES:
            scale = host.scale()
            out = tally.run(engine, lambda: timed_call(engine, inputs))
            if out is not None:
                times[engine].append(out[1] * scale)
                snaps[engine].append([s * 1000.0 * scale for s in out[2]])
        reps += 1
    print(f"# host: reference work median {statistics.median(host.times) * 1000:.3f} ms")
    values["setup_s"] = setups.median_s()
    for engine in wk.ENGINES:
        values[f"{engine}.query_s"] = median_of(engine, times[engine])
        note = f"# {engine}: {len(times[engine])} timed runs"
        if engine != "baseline":
            p50, p95 = snapshot_percentiles(engine, snaps[engine])
            values[f"{engine}.snapshot_ms_p50"] = p50
            values[f"{engine}.snapshot_ms_p95"] = p95
            note += f" of {len(snaps[engine][0])} snapshots each"
        print(note)
    return values


def per_layer(tally: Tally, setups: SetUp, seconds: float) -> dict:
    tracer = Tracer()
    host = HostSpeed()
    plain = {e: [] for e in wk.ENGINES}
    traced = {e: [] for e in wk.ENGINES}  # (traced call, host scale) pairs
    deadline = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_TRACED_REPS or time.perf_counter() < deadline:
        inputs = setups.timed(host.scale())
        for engine in wk.ENGINES:
            scale = host.scale()
            out = tally.run(engine, lambda: timed_call(engine, inputs))
            if out is not None:
                plain[engine].append(out[1] * scale)
            scale = host.scale()
            out = tally.run(engine, lambda: timed_call(engine, inputs, tracer, reps == 0))
            if out is not None:
                traced[engine].append((out[3], scale))
        reps += 1
    spans_path = setups.directory / "spans.tsv.gz"
    n_spans = tracer.write(spans_path)
    print(f"# {reps} plain and {reps} traced runs per engine; {n_spans} spans in {spans_path}")

    values = {"host.reference_s": statistics.median(host.times)}
    values.update({stage: setups.median_s(i) for i, stage in enumerate(SETUP_STAGES)})
    for engine, call_name in MATCHER.items():
        calls = traced[engine]
        bgp = f"bgp.{call_name}"
        traced_s = median_of(engine, [x.seconds * k for x, k in calls])
        first = calls[0][0]
        c = first.result.counters
        accepted = len(first.result.accepted)
        layer = {
            f"{bgp}_s": statistics.median(x.span_seconds(bgp) * k for x, k in calls),
            f"{bgp}_calls": first.span_calls(bgp),
            "bgp.matchings_out": first.matched,
            f"{STEP}_s": statistics.median(x.span_seconds(STEP) * k for x, k in calls),
            f"{STEP}_calls": first.span_calls(STEP),
            "timed_automaton.configs_per_step": c.rows / max(first.span_calls(STEP), 1),
            "engine.self_s": statistics.median(
                (x.seconds - x.span_seconds(bgp) - x.span_seconds(STEP)) * k for x, k in calls
            ),
            **{f"engine.{k}": getattr(c, k) for k in COUNTERS},
            "engine.accepted": accepted,
            "engine.accept_frac": accepted / max(c.generated, 1),
            "trace.overhead_frac": traced_s / median_of(engine, plain[engine]) - 1.0,
        }
        values.update({f"{engine}.{k}": v for k, v in layer.items()})
        shares = {"bgp": f"{bgp}_s", "step": f"{STEP}_s", "self": "engine.self_s"}
        total = sum(layer[k] for k in shares.values())
        print(
            f"# {engine}: traced query {traced_s:.4f} s = "
            + ", ".join(f"{label} {layer[k] / total:.1%}" for label, k in shares.items())
        )
    return values


def pin(name: str, wl: dict, seed: int, graph_seed: int) -> dict:
    """The reference a workload's runs are checked against, after a cross-check."""
    directory = wk.make_inputs(name, wl, seed, graph_seed)
    canon = wk.read_canon(directory)
    inputs, _ = wk.setup(directory, wl["order"])
    seen = {e: wk.observed(wk.call_engine(e, inputs), canon) for e in wk.ENGINES}
    ref = seen["baseline"]
    for engine, s in seen.items():
        if (s["accepted"], s["digest"]) != (ref["accepted"], ref["digest"]):
            raise wk.BenchError(f"{engine} disagrees with the baseline; refusing to pin")
    problems = [p for ps in wk.oracle_problems(wl, graph_seed) for p in ps]
    if problems:
        raise wk.BenchError("; ".join(problems))
    return {
        "accepted": ref["accepted"],
        "digest": ref["digest"],
        **{e: s["counters"] for e, s in seen.items()},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0, help="permutes the input ids (default 0)")
    ap.add_argument("--seconds", type=float, default=10.0, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--graph-seed", type=int, help="GenSpec seed (default: the workload's)")
    ap.add_argument("--pin", action="store_true", help="print the pinned reference and exit")
    return ap.parse_args(argv)


def main(argv) -> int:
    args = parse_args(argv)
    wl = wk.workload(args.workload)
    graph_seed = wl["graph_seed"] if args.graph_seed is None else args.graph_seed
    if args.pin:
        print(json.dumps({str(graph_seed): pin(args.workload, wl, args.seed, graph_seed)}))
        return 0

    pins = wk.pins_for(wl, graph_seed)
    directory = wk.make_inputs(args.workload, wl, args.seed, graph_seed)
    tally = Tally(wk.read_canon(directory), pins)
    setups = SetUp(directory, wl["order"])
    inputs = setups.inputs
    order = ",".join(wl["order"]) if wl["order"] else "none"
    print(
        f"# {args.workload} seed={args.seed} graph_seed={graph_seed}: "
        f"{inputs.g.n_edges} edges, {len(inputs.g.domain)} snapshots; "
        f"order {order} is {inputs.verdict}, so partial runs "
        f"{'ordered' if inputs.order else 'unordered'}"
    )
    for problems in wk.oracle_problems(wl, graph_seed):
        tally.record(problems)

    if args.trace:
        values = per_layer(tally, setups, args.seconds)
        units = PER_LAYER
    else:
        values = end_to_end(tally, args.workload, setups, args.seconds)
        values["correct_frac"] = 1.0 - tally.failed / tally.attempted
        units = END_TO_END
    for key, unit in units.items():
        print(f"{key:42s} {values[key]:>14.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except wk.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
