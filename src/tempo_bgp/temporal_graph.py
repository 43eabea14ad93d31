"""In-memory temporal graphs: CSV ingestion, snapshots, histories.

A temporal graph is a static labeled directed multigraph plus, per edge, a
finite set of activation timepoints.  The *temporal domain* is the sorted
union of all activation sets.  Timepoints are strictly positive reals,
parsed from decimal text into doubles and compared by exact value; input
files must therefore spell each timepoint consistently.

Loaded graphs are immutable and safe to share across concurrent readers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import DuplicateIdError, FormatError, ReferentialError


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    label: str


@dataclass(frozen=True)
class TemporalGraph:
    """Static structure plus per-edge activation times.

    ``active`` maps each edge to its sorted activation times and
    ``domain`` is the sorted tuple of distinct timepoints; ``first_rank``
    maps an edge to the rank of its earliest activation, ``active[e][0]``,
    and is defined exactly for edges with a nonempty activation set.
    Edges with empty activation sets are retained: they participate in
    time-agnostic matching and are simply never active.
    """

    nodes: dict[str, str]
    edges: dict[str, Edge]
    active: dict[str, tuple[float, ...]]
    domain: tuple[float, ...]
    # Derived lookup structures, built once at construction.
    rank: dict[float, int] = field(repr=False)         # timepoint -> 1-based index
    snapshots: dict[float, frozenset[str]] = field(repr=False)
    first_rank: dict[str, int] = field(repr=False)     # edge -> rank of first activation
    by_src: dict[str, tuple[str, ...]] = field(repr=False)
    by_dst: dict[str, tuple[str, ...]] = field(repr=False)
    by_pair: dict[tuple[str, str], tuple[str, ...]] = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_graph(
    nodes: Mapping[str, str],
    edges: Mapping[str, tuple[str, str, str]],
    active: Mapping[str, Iterable[float]],
) -> TemporalGraph:
    """Assemble and validate a graph from in-memory relations.

    ``edges`` maps edge id to ``(src, dst, label)``; ``active`` maps edge id
    to any iterable of timepoints (deduplicated here).  Node and edge id
    spaces must be disjoint.
    """
    node_map = dict(nodes)
    edge_map: dict[str, Edge] = {}
    for eid, (src, dst, label) in edges.items():
        if eid in node_map:
            raise DuplicateIdError(f"id used for both a node and an edge: {eid!r}")
        if src not in node_map:
            raise ReferentialError(f"edge {eid!r} references unknown node {src!r}")
        if dst not in node_map:
            raise ReferentialError(f"edge {eid!r} references unknown node {dst!r}")
        edge_map[eid] = Edge(src, dst, label)

    active_map: dict[str, tuple[float, ...]] = {eid: () for eid in edge_map}
    for eid, times in active.items():
        if eid not in edge_map:
            raise ReferentialError(f"activation references unknown edge {eid!r}")
        seen = set()
        for t in times:
            if not (t > 0.0) or not math.isfinite(t):
                raise FormatError(f"timepoint must be a positive finite number, got {t!r}")
            seen.add(float(t))
        active_map[eid] = tuple(sorted(seen))

    domain = tuple(sorted({t for ts in active_map.values() for t in ts}))
    rank = {t: i for i, t in enumerate(domain, start=1)}
    snap: dict[float, set[str]] = {t: set() for t in domain}
    for eid, ts in active_map.items():
        for t in ts:
            snap[t].add(eid)

    by_src: dict[str, list[str]] = {}
    by_dst: dict[str, list[str]] = {}
    by_pair: dict[tuple[str, str], list[str]] = {}
    for eid, e in edge_map.items():
        by_src.setdefault(e.src, []).append(eid)
        by_dst.setdefault(e.dst, []).append(eid)
        by_pair.setdefault((e.src, e.dst), []).append(eid)

    return TemporalGraph(
        nodes=node_map,
        edges=edge_map,
        active=active_map,
        domain=domain,
        rank=rank,
        snapshots={t: frozenset(s) for t, s in snap.items()},
        first_rank={eid: rank[ts[0]] for eid, ts in active_map.items() if ts},
        by_src={k: tuple(v) for k, v in by_src.items()},
        by_dst={k: tuple(v) for k, v in by_dst.items()},
        by_pair={k: tuple(v) for k, v in by_pair.items()},
    )


def _read_rows(path, expected_header: Sequence[str]):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file, expected header {','.join(expected_header)}")
        if [h.strip() for h in header] != list(expected_header):
            raise FormatError(
                f"{path}: bad header {','.join(header)!r}, expected {','.join(expected_header)!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(expected_header):
                raise FormatError(f"{path}:{lineno}: expected {len(expected_header)} fields, got {len(row)}")
            yield lineno, [f.strip() for f in row]


def parse_timepoint(text: str) -> float:
    """Parse decimal text into a strictly positive, finite timepoint."""
    try:
        t = float(text)
    except ValueError:
        raise FormatError(f"malformed timepoint {text!r}") from None
    if not math.isfinite(t) or t <= 0.0:
        raise FormatError(f"timepoint must be positive and finite, got {text!r}")
    return t


def load_graph(node_path, edge_path, active_path) -> TemporalGraph:
    """Load a temporal graph from its three CSV relations.

    ``node.csv`` has header ``vid,label``; ``edge.csv`` has
    ``eid,src,dst,label``; ``active.csv`` has ``eid,time`` with one row per
    (edge, timepoint).  Duplicate ``(eid, time)`` rows are deduplicated
    silently; duplicate node or edge ids are errors.
    """
    nodes: dict[str, str] = {}
    for lineno, (vid, label) in _read_rows(node_path, ("vid", "label")):
        if not vid:
            raise FormatError(f"{node_path}:{lineno}: empty node id")
        if vid in nodes:
            raise DuplicateIdError(f"{node_path}:{lineno}: duplicate node id {vid!r}")
        nodes[vid] = label

    edges: dict[str, tuple[str, str, str]] = {}
    for lineno, (eid, src, dst, label) in _read_rows(edge_path, ("eid", "src", "dst", "label")):
        if not eid:
            raise FormatError(f"{edge_path}:{lineno}: empty edge id")
        if eid in edges:
            raise DuplicateIdError(f"{edge_path}:{lineno}: duplicate edge id {eid!r}")
        edges[eid] = (src, dst, label)

    active: dict[str, list[float]] = {}
    for lineno, (eid, time_text) in _read_rows(active_path, ("eid", "time")):
        if eid not in edges:
            raise ReferentialError(f"{active_path}:{lineno}: activation references unknown edge {eid!r}")
        active.setdefault(eid, []).append(parse_timepoint(time_text))

    return build_graph(nodes, edges, active)


def load_graph_dir(directory) -> TemporalGraph:
    """Load ``node.csv``, ``edge.csv`` and ``active.csv`` from a directory."""
    from pathlib import Path

    d = Path(directory)
    return load_graph(d / "node.csv", d / "edge.csv", d / "active.csv")


def snapshot(g: TemporalGraph, t: float) -> frozenset[str]:
    """Edges active at time ``t`` (empty for timepoints outside the domain)."""
    return g.snapshots.get(t, frozenset())


def history_upto(g: TemporalGraph, t_index: int) -> frozenset[str]:
    """Union of the first ``t_index`` snapshots; index 0 is the empty graph.

    ``t_index`` is a 1-based ordinal into the temporal domain.
    """
    if not 0 <= t_index <= len(g.domain):
        raise IndexError(f"history index {t_index} out of range 0..{len(g.domain)}")
    return frozenset(eid for eid, r in g.first_rank.items() if r <= t_index)


def write_graph_dir(directory, g: TemporalGraph) -> None:
    """Write a graph back out as the three CSV relations."""
    from pathlib import Path

    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    with open(d / "node.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["vid", "label"])
        for vid, label in g.nodes.items():
            w.writerow([vid, label])
    with open(d / "edge.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["eid", "src", "dst", "label"])
        for eid, e in g.edges.items():
            w.writerow([eid, e.src, e.dst, e.label])
    with open(d / "active.csv", "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["eid", "time"])
        for eid, ts in g.active.items():
            for t in ts:
                w.writerow([eid, format_time(t)])


def format_time(t: float) -> str:
    """Render a timepoint in its shortest form that reads back exactly,
    without a trailing ``.0`` for whole numbers."""
    text = repr(t)
    return text[:-2] if text.endswith(".0") else text
