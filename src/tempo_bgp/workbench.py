"""Synthetic-data workbench: generators, coarsening, parametric automata,
and the benchmark pattern shapes.

The generator is deterministic under its seed: every potential directed
edge owns a private splitmix64 substream keyed by (seed, pair index), so a
run at density 0.3 produces a subset of the edges produced at 0.8 with the
same seed, and each kept edge's activation pattern is stable across
density settings.

The benchmark shapes (``SHAPE_NAMES``: paths, cycles and a star, none with
labels or constants) are the bundled ``fixtures/bgp`` files; the shape
``cycle2`` is ``cycle2u.bgp``, since ``cycle2.bgp`` carries node labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .bgp import Bgp, parse_bgp
from .errors import FormatError
from .fixtures import fixture_path
from .rng import SplitMix64, substream
from .temporal_graph import TemporalGraph, build_graph, write_graph_dir
from .timed_automaton import TimedAutomaton, Transition


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a synthetic temporal graph.

    A directed complete graph on ``n_nodes`` (no self-loops) is sampled:
    each edge survives with probability ``struct_density``; each surviving
    edge is active at each snapshot ``1..n_snapshots`` independently with
    probability ``temp_density``.
    """

    n_nodes: int
    struct_density: float
    temp_density: float
    n_snapshots: int
    seed: int = 0

    def validate(self) -> None:
        if self.n_nodes < 2:
            raise FormatError("n_nodes must be at least 2")
        if not 0.0 < self.struct_density <= 1.0:
            raise FormatError("struct_density must lie in (0, 1]")
        if not 0.0 < self.temp_density <= 1.0:
            raise FormatError("temp_density must lie in (0, 1]")
        if self.n_snapshots < 1:
            raise FormatError("n_snapshots must be at least 1")


def generate_graph(spec: GenSpec) -> TemporalGraph:
    spec.validate()
    nodes = {f"v{i}": "n" for i in range(spec.n_nodes)}
    edges: dict[str, tuple[str, str, str]] = {}
    active: dict[str, list[float]] = {}
    index = 0
    for u in range(spec.n_nodes):
        for v in range(spec.n_nodes):
            if u == v:
                continue
            rng = substream(spec.seed, index)
            if rng.random() < spec.struct_density:
                eid = f"e{index}"
                edges[eid] = (f"v{u}", f"v{v}", "e")
                times = [
                    float(s)
                    for s in range(1, spec.n_snapshots + 1)
                    if rng.random() < spec.temp_density
                ]
                active[eid] = times
            index += 1
    return build_graph(nodes, edges, active)


def generate_graph_dir(spec: GenSpec, out_dir) -> TemporalGraph:
    g = generate_graph(spec)
    write_graph_dir(Path(out_dir), g)
    return g


def coarsen_graph(g: TemporalGraph, factor: int) -> TemporalGraph:
    """Reduce temporal resolution by mapping each timepoint to its rank group.

    Timepoint of rank ``r`` (1-based within the sorted domain) becomes the
    integer ``ceil(r / factor)``; per-edge duplicates collapse.  The static
    structure is untouched, so time-agnostic matchings are preserved
    exactly.
    """
    if factor < 1:
        raise FormatError("coarsening factor must be a positive integer")
    active = {
        eid: sorted({float(math.ceil(g.rank[t] / factor)) for t in ts})
        for eid, ts in g.active.items()
    }
    return build_graph(
        dict(g.nodes), {eid: (e.src, e.dst, e.label) for eid, e in g.edges.items()}, active
    )


# ---------------------------------------------------------------------------
# Parametric automata


def ring_automaton(m: int, *, laps: int = 1, n_clocks: int = 0) -> TimedAutomaton:
    """Cyclic automaton demanding the m edges appear repeatedly in order.

    Every state accepts and idles on the all-zero letter; state ``q``
    advances on the letter where exactly variable ``(q mod m) + 1`` is
    active.  ``laps > 1`` unrolls the cycle into an equivalent automaton
    with ``m * laps`` states, which is useful for studying how run time
    depends on automaton size.  ``n_clocks`` adds always-true clocks that
    every advancing transition resets, for studying clock bookkeeping
    overhead.
    """
    if m < 1 or laps < 1:
        raise FormatError("ring size and lap count must be positive")
    n = m * laps
    zero = "0" * m
    resets = tuple(range(n_clocks))
    transitions = []
    for q in range(n):
        letter = "".join("1" if j == q % m else "0" for j in range(m))
        transitions.append(Transition(q, zero, (), (), q))
        transitions.append(Transition(q, letter, (), resets, (q + 1) % n))
    return TimedAutomaton(n, 0, range(n), n_clocks, m, transitions)


# ---------------------------------------------------------------------------
# Randomized desk-scale instances


def random_graph(
    rng: SplitMix64,
    *,
    max_nodes: int = 10,
    max_edges: int = 14,
    max_timepoints: int = 6,
) -> TemporalGraph:
    """Small random multigraph; every edge gets at least one activation."""
    n = rng.randint(2, max_nodes)
    labels = ("n", "m")
    nodes = {f"v{i}": labels[rng.randint(0, 1)] for i in range(n)}
    n_edges = rng.randint(1, max_edges)
    n_times = rng.randint(1, max_timepoints)
    edges: dict[str, tuple[str, str, str]] = {}
    active: dict[str, list[float]] = {}
    for i in range(n_edges):
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 2)
        if v >= u:
            v += 1
        eid = f"e{i}"
        edges[eid] = (f"v{u}", f"v{v}", "e")
        times = [float(s) for s in range(1, n_times + 1) if rng.random() < 0.5]
        if not times:
            times = [float(rng.randint(1, n_times))]
        active[eid] = times
    return build_graph(nodes, edges, active)


SHAPE_NAMES = ("cycle2", "cycle3", "cycle4", "path2", "path3", "star2")
_SHAPE_FILES = {name: name for name in SHAPE_NAMES} | {"cycle2": "cycle2u"}


def shape_bgp(name: str) -> Bgp:
    """One of the unlabeled benchmark patterns (paths, cycles, stars)."""
    return parse_bgp(shape_text(name))


def shape_text(name: str) -> str:
    """Text of the bundled pattern file for a benchmark shape."""
    if name not in _SHAPE_FILES:
        raise FormatError(f"unknown pattern shape {name!r}; choose from {list(SHAPE_NAMES)}")
    return fixture_path("bgp", f"{_SHAPE_FILES[name]}.bgp").read_text(encoding="utf-8")
