"""Workload inputs, set-up, engine calls and the correctness gate.

Shared by ``run.py`` (the benchmark), ``rss_child.py`` (peak-memory child)
and the benchmark's own tests.  The program under test is the
``tempo_bgp`` package in ``src/`` of the same checkout; importing this
module refuses any other copy.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass
from importlib.resources import files
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ENGINES = ("baseline", "on_demand", "partial")
PINNED_COUNTERS = ("rows", "generated", "early_rejected")


class BenchError(Exception):
    """The benchmark cannot run: unknown workload, missing pins, no successful run."""


sys.path.insert(0, str(SRC))
try:
    import tempo_bgp
    from tempo_bgp import (
        Compatibility,
        is_compatible_order,
        is_connected_order,
        load_graph_dir,
        oracle_accepted_matchings,
        parse_automaton,
        parse_bgp,
        run_baseline,
        run_on_demand,
        run_partial_match,
    )
    from tempo_bgp.temporal_graph import build_graph, write_graph_dir
    from tempo_bgp.timed_automaton import order_indices
    from tempo_bgp.workbench import GenSpec, generate_graph, shape_text
except ImportError as exc:
    raise ImportError(f"cannot import tempo_bgp from {SRC}: {exc}") from None
if Path(tempo_bgp.__file__).resolve().parent != SRC / "tempo_bgp":
    raise ImportError(f"tempo_bgp was imported from {tempo_bgp.__file__}, not from {SRC}")


def load_workloads() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


def workload(name: str) -> dict:
    workloads = load_workloads()
    if name not in workloads:
        raise BenchError(f"unknown workload {name!r}; choose from {sorted(workloads)}")
    return workloads[name]


def fixture_automaton(name: str) -> str:
    return (files("tempo_bgp.fixtures") / "ta" / f"{name}.ta").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# Load generation: the program only ever receives the files written here.


def make_inputs(name: str, wl: dict, seed: int, graph_seed: int) -> Path:
    """Write the workload's graph, pattern and automaton files; return their directory.

    ``graph_seed`` is the ``GenSpec`` seed and fixes the graph's structure
    and activations.  ``seed`` permutes node and edge ids (and so the row
    order of the CSV files), which leaves the work the engines do
    unchanged.  ``canon.json`` maps every written id back to the
    generator's id, so that accepted sets compare across seeds.
    """
    g = generate_graph(GenSpec(**wl["genspec"], seed=graph_seed))
    rng = random.Random(f"{name}/{seed}")
    nodes = list(g.nodes)
    edges = list(g.edges)
    rng.shuffle(nodes)
    rng.shuffle(edges)
    node_id = {v: f"n{k}" for k, v in enumerate(nodes)}
    edge_id = {e: f"e{k}" for k, e in enumerate(edges)}
    relabelled = build_graph(
        {node_id[v]: g.nodes[v] for v in nodes},
        {
            edge_id[e]: (node_id[g.edges[e].src], node_id[g.edges[e].dst], g.edges[e].label)
            for e in edges
        },
        {edge_id[e]: g.active[e] for e in edges},
    )
    out = OUT / name / f"seed-{seed}-graph-{graph_seed}"
    write_graph_dir(out, relabelled)
    (out / "pattern.bgp").write_text(shape_text(wl["shape"]), encoding="utf-8")
    (out / "automaton.ta").write_text(fixture_automaton(wl["automaton"]), encoding="utf-8")
    canon = {new: old for old, new in node_id.items()}
    canon.update({new: old for old, new in edge_id.items()})
    (out / "canon.json").write_text(json.dumps(canon), encoding="utf-8")
    return out


def read_canon(directory: Path) -> dict[str, str]:
    return json.loads((directory / "canon.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Set-up: files on disk to ready inputs.


@dataclass
class Inputs:
    g: object
    p: object
    ta: object
    order: tuple[str, ...] | None  # None when the workload has no order or the guard refused it
    verdict: str  # the order guard's finding, for the report


def guard_order(p, ta, order) -> tuple[tuple[str, ...] | None, str]:
    """Pass an order on only when the checks prove it ``Compatible``.

    An ``Unknown`` verdict lets ``run_partial_match`` proceed with a
    warning, and it can then lose accepted matchings (``ta7`` with order
    ``y1,y2``), so the benchmark refuses every verdict but ``Compatible``
    and runs the partial engine unordered instead.
    """
    if order is None:
        return None, "none"
    order = tuple(order)
    if not is_connected_order(p, order):
        return None, "not connected"
    verdict = is_compatible_order(ta, order_indices(p, order))
    return (order if verdict is Compatibility.COMPATIBLE else None), verdict.value


def setup(directory: Path, order) -> tuple[Inputs, tuple[float, float, float, float]]:
    """Load the inputs; also return the seconds spent per stage.

    The stages are graph load, pattern parse, automaton parse (which runs
    ``classify_states``) and the order guard.
    """
    pc = time.perf_counter
    t0 = pc()
    g = load_graph_dir(directory)
    t1 = pc()
    p = parse_bgp((directory / "pattern.bgp").read_text(encoding="utf-8"))
    t2 = pc()
    ta = parse_automaton((directory / "automaton.ta").read_text(encoding="utf-8"), p.width)
    t3 = pc()
    used, verdict = guard_order(p, ta, order)
    t4 = pc()
    return Inputs(g, p, ta, used, verdict), (t1 - t0, t2 - t1, t3 - t2, t4 - t3)


# ---------------------------------------------------------------------------
# Engine calls


def timed_stream(g, samples: list[float]):
    """Yield ``(t, g.snapshots[t])`` in domain order, timing each snapshot.

    A sample is the time from yielding snapshot ``t`` until the engine asks
    for the next one, which is the time it took to absorb ``t``.
    """
    pc = time.perf_counter
    for t in g.domain:
        snap = g.snapshots[t]
        start = pc()
        yield t, snap
        samples.append(pc() - start)


def call_engine(engine: str, inputs: Inputs, stream=None):
    g, p, ta = inputs.g, inputs.p, inputs.ta
    if engine == "baseline":
        return run_baseline(g, p, ta)
    if engine == "on_demand":
        return run_on_demand(g, p, ta, stream=stream)
    return run_partial_match(g, p, ta, order=inputs.order, stream=stream)


# ---------------------------------------------------------------------------
# Correctness gate


def digest(result, canon: dict[str, str]) -> str:
    """Digest of the sorted accepted set, in the generator's ids."""
    rows = sorted(
        (tuple(canon[e] for e in m.edges), tuple(canon[v] for v in m.nodes))
        for m, _ in result.accepted
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def observed(result, canon: dict[str, str]) -> dict:
    c = result.counters
    return {
        "accepted": len(result.accepted),
        "digest": digest(result, canon),
        "counters": {k: getattr(c, k) for k in PINNED_COUNTERS},
    }


def pin_problems(engine: str, seen: dict, pins: dict) -> list[str]:
    """Differences between one engine run and the workload's pinned reference."""
    problems = []
    if seen["accepted"] != pins["accepted"]:
        problems.append(f"{engine}: {seen['accepted']} accepted, pinned {pins['accepted']}")
    if seen["digest"] != pins["digest"]:
        problems.append(f"{engine}: accepted-set digest {seen['digest']}, pinned {pins['digest']}")
    if seen["counters"] != pins[engine]:
        problems.append(f"{engine}: counters {seen['counters']}, pinned {pins[engine]}")
    return problems


def pins_for(wl: dict, graph_seed: int) -> dict:
    pins = wl["pins"].get(str(graph_seed))
    if pins is None:
        raise BenchError(
            f"no pinned reference for graph seed {graph_seed}; pinned: {sorted(wl['pins'])}"
        )
    return pins


def oracle_inputs(wl: dict, graph_seed: int) -> Inputs:
    """The workload's pattern, automaton and guarded order on its small oracle graph.

    The graph is ``oracle_genspec`` with the workload's graph seed, small
    enough for the brute-force oracle.  Built in memory: it is checked,
    never timed.
    """
    g = generate_graph(GenSpec(**wl["oracle_genspec"], seed=graph_seed))
    p = parse_bgp(shape_text(wl["shape"]))
    ta = parse_automaton(fixture_automaton(wl["automaton"]), p.width)
    return Inputs(g, p, ta, *guard_order(p, ta, wl["order"]))


def oracle_problems(wl: dict, graph_seed: int) -> list[list[str]]:
    """Check the three engines against the brute-force oracle on ``oracle_inputs``.

    Returns the problems of each engine run, empty where it agreed.
    """
    inputs = oracle_inputs(wl, graph_seed)
    g, p, ta = inputs.g, inputs.p, inputs.ta
    want = frozenset(oracle_accepted_matchings(g, p, ta))
    # a stream only reveals edges that are active somewhere, so the
    # streaming engines never see matchings that bind a never-active edge
    streamed = frozenset(m for m in want if all(g.active[e] for e in m.edges))
    problems = []
    for engine in ENGINES:
        expect = want if engine == "baseline" else streamed
        try:
            got = call_engine(engine, inputs).accepted_set
        except Exception as exc:  # an engine failure is a result, not a crash
            problems.append([f"oracle: {engine} raised {exc!r}"])
            continue
        ok = got == expect
        problems.append([] if ok else [f"oracle: {engine} accepts {len(got)}, the oracle {len(expect)}"])
    return problems
