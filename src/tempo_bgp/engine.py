"""The three evaluation engines: one stepping core, three feeders.

Every engine keeps a working table of rows ``matching -> configurations``
and folds the temporal domain in order, feeding each row its activity
letter at every timepoint.  ``_Core`` does all stepping, early exit and
end-of-stream acceptance; the engines differ only in how rows enter:

* ``run_baseline`` matches the whole graph up front; each matching enters
  at the first snapshot holding one of its edges (after the last letter
  when none is ever active), and one replay covers the domain.
* ``run_on_demand`` consumes snapshots as a stream.  Matchings are found
  when their last edge enters the history, and each snapshot's batch is
  caught up by the same replay over the snapshots seen so far; catch-up
  acceptances are stamped with the discovery time.
* ``run_partial_match`` also tracks partial matchings, so new rows inherit
  live configurations from the row they extend and nothing is replayed.
  Extensions only bind edges first seen in the current snapshot; older
  combinations arise transitively through surviving rows, and a dropped
  row takes all its unseen extensions with it.

Rows are dropped once their configurations empty or only early-reject
states remain; total matchings touching an early-accept state are emitted
at once, and new ones whose initial state decides are settled on entry.
Disabling ``early_exit`` changes counters, never results.  When the
automaton idles on empty letters (``dead_start``), ``defer_start`` lets
baseline and on-demand skip the letters before a matching's first edge.
Streams are checked: timepoints must be positive and strictly increasing
(``FormatError``) and edges known to the graph (``ReferentialError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator, Sequence

from .bgp import (
    Bgp,
    Matching,
    delta_match,
    empty_matching,
    extend,
    match_total,
)
from .errors import FormatError, OrderIncompatible, OrderNotConnected, ReferentialError
from .temporal_graph import TemporalGraph
from .timed_automaton import (
    Compatibility,
    Config,
    TimedAutomaton,
    is_compatible_order,
    is_connected_order,
    order_indices,
    step,
)

Stream = Iterator[tuple[float, frozenset[str]]]


@dataclass
class Counters:
    rows: int = 0
    generated: int = 0
    early_rejected: int = 0
    warnings: int = 0


@dataclass
class EngineResult:
    accepted: list[tuple[Matching, float]]
    counters: Counters

    @property
    def accepted_set(self) -> frozenset[Matching]:
        return frozenset(m for m, _ in self.accepted)


@dataclass
class RowTrace:
    t: float
    matching: Matching
    letter: int
    configs: tuple[Config, ...]
    status: str  # "alive" | "dropped" | "accepted"


@dataclass
class CatchUpEvent:
    """One on-demand catch-up; matchings settled on entry are not replayed and get none."""

    matching: Matching
    discovered_at: float
    configs: tuple[Config, ...]
    eliminated_at: float | None


@dataclass
class Trace:
    """Optional per-tick recording, for tests and debugging only."""

    rows: list[RowTrace] = field(default_factory=list)
    events: list[CatchUpEvent] = field(default_factory=list)

    def add_row(self, t, matching, letter, configs, status) -> None:
        self.rows.append(RowTrace(t, matching, letter, tuple(sorted(configs)), status))

    def add_event(self, matching, discovered_at, configs, eliminated_at) -> None:
        self.events.append(
            CatchUpEvent(matching, discovered_at, tuple(sorted(configs)), eliminated_at)
        )

    def rows_at(self, t: float) -> list[RowTrace]:
        return [r for r in self.rows if r.t == t]

    def row(self, t: float, matching: Matching) -> RowTrace:
        hits = [r for r in self.rows if r.t == t and r.matching == matching]
        if len(hits) != 1:
            raise KeyError(f"expected one row for {matching} at t={t}, found {len(hits)}")
        return hits[0]


def _check_width(p: Bgp, ta: TimedAutomaton) -> None:
    if ta.width != len(p.edge_vars):
        raise FormatError(
            f"automaton width {ta.width} does not match the pattern's {len(p.edge_vars)} edge variables"
        )


def _check_streamable(p: Bgp) -> None:
    # snapshot streams only ever reveal edges, so a pattern without edge
    # variables would silently return nothing here while the baseline
    # matches it statically
    if not p.edge_vars:
        raise FormatError(
            "streaming engines need at least one edge variable; use the baseline for static patterns"
        )


def _letter_bits(edges: Sequence[str | None], snap: frozenset[str]) -> int:
    bits = 0
    for j, eid in enumerate(edges):
        if eid is not None and eid in snap:
            bits |= 1 << j
    return bits


class _Core:
    """The stepping core: entry rule, one-letter tick, replay, end of stream.

    ``p`` is given when the table may hold partial matchings, which are
    never accepted; a table of total matchings needs no such test.
    """

    def __init__(self, ta, early_exit, trace, *, p=None, counters=None):
        self.ta = ta
        self.early_exit = early_exit
        self.trace = trace
        self.p = p
        self.counters = Counters() if counters is None else counters
        self.accepted: dict[Matching, float] = {}
        # every new row shares this set; step never mutates its input
        self.seed = frozenset((ta.initial_config(),))

    def admit(self, batch: list[Matching], t: float) -> bool:
        """The entry rule: whether new matchings get rows or their initial state settles them."""
        if self.early_exit:
            initial = self.ta.initial
            if initial in self.ta.early_accept:
                self.accepted.update(zip(batch, repeat(t)))
                return False
            if initial in self.ta.early_reject:
                self.counters.early_rejected += len(batch)
                return False
        return True

    def tick(self, table, snap, t):
        """Advance every row one letter; returns the surviving table."""
        ta, counters, accepted, trace, p = self.ta, self.counters, self.accepted, self.trace, self.p
        early_exit = self.early_exit
        nxt_table: dict[Matching, set[Config]] = {}
        for m, configs in table.items():
            bits = _letter_bits(m.edges, snap)
            counters.rows += len(configs)
            nxt = step(ta, configs, bits, t)
            status = "alive"
            if early_exit and nxt:
                if (p is None or m.is_total(p)) and any(s in ta.early_accept for s, _ in nxt):
                    accepted[m] = t
                    status = "accepted"
                elif ta.early_reject:
                    nxt = {c for c in nxt if c[0] not in ta.early_reject}
            if status == "alive":
                if nxt:
                    nxt_table[m] = nxt
                else:
                    status = "dropped"
                    counters.early_rejected += 1
            if trace is not None:
                trace.add_row(t, m, bits, nxt, status)
        return nxt_table

    def replay(self, entering: dict[int, list[Matching]], snapshots) -> dict:
        """Seed ``entering[i]`` before ``snapshots[i]`` (after the last one for
        ``i == len(snapshots)``) and step to the end; returns the surviving table."""
        table, seed, n = {}, self.seed, len(snapshots)
        for i in range(min(entering, default=n), n):
            if i in entering:
                table.update(zip(entering[i], repeat(seed)))
            if table:
                t, snap = snapshots[i]
                table = self.tick(table, snap, t)
        table.update(zip(entering.get(n, ()), repeat(seed)))
        return table

    def finish(self, table, t: float) -> EngineResult:
        """End of stream: rows holding an accepting configuration are accepted at ``t``."""
        accepting, p, accepted = self.ta.accepting, self.p, self.accepted
        for m, configs in table.items():
            if (p is None or m.is_total(p)) and any(s in accepting for s, _ in configs):
                accepted[m] = t
        items = sorted(
            accepted.items(),
            key=lambda kv: (tuple(e or "" for e in kv[0].edges), tuple(v or "" for v in kv[0].nodes)),
        )
        return EngineResult(items, self.counters)


def _by_entry(matchings, first: dict[str, int], n: int) -> dict[int, list[Matching]]:
    """Group matchings by the earliest ``first`` index of their edges (``n`` for none)."""
    entering: dict[int, list[Matching]] = {}
    for m in matchings:
        i = n
        for e in m.edges:
            j = first.get(e, n)
            if j < i:
                i = j
        entering.setdefault(i, []).append(m)
    return entering


def _snapshots(g: TemporalGraph, stream: Stream | None, history: set[str]):
    """The checked snapshot loop: ``(t, snap, new_edges)`` per snapshot of ``stream``.

    A snapshot's new edges join ``history`` before it is yielded.  Only new
    edges are checked, so idle snapshots cost nothing extra.
    """
    if stream is None:
        stream = ((t, g.snapshots[t]) for t in g.domain)
    edges = g.edges
    prev = 0.0
    for t, snap in stream:
        if not t > prev:
            raise FormatError(
                f"snapshot timepoints must be positive and strictly increasing, got {t} after {prev}"
            )
        prev = t
        new_edges = snap - history
        if new_edges:
            for e in new_edges:
                if e not in edges:
                    raise ReferentialError(f"snapshot at t={t} holds unknown edge {e!r}")
            history |= new_edges
        yield t, snap, new_edges


def run_baseline(
    g: TemporalGraph,
    p: Bgp,
    ta: TimedAutomaton,
    *,
    early_exit: bool = True,
    defer_start: bool = True,
    distinct_edges: bool = False,
    trace: Trace | None = None,
) -> EngineResult:
    """Match first, then run the automaton once over the whole domain."""
    _check_width(p, ta)
    core = _Core(ta, early_exit, trace)
    matchings = match_total(g, p, distinct_edges=distinct_edges)
    core.counters.generated = len(matchings)
    if trace is not None:
        for m in matchings:
            trace.add_row(0.0, m, 0, core.seed, "alive")
    snapshots = [(t, g.snapshots[t]) for t in g.domain]
    entering = {}
    if core.admit(matchings, 0.0):
        first = {e: r - 1 for e, r in g.first_rank.items()}
        use_defer = defer_start and ta.dead_start
        entering = _by_entry(matchings, first, len(snapshots)) if use_defer else {0: matchings}
    return core.finish(core.replay(entering, snapshots), g.domain[-1] if g.domain else 0.0)


def run_on_demand(
    g: TemporalGraph,
    p: Bgp,
    ta: TimedAutomaton,
    *,
    early_exit: bool = True,
    defer_start: bool = True,
    distinct_edges: bool = False,
    trace: Trace | None = None,
    stream: Stream | None = None,
) -> EngineResult:
    """Consume snapshots in order; catch each batch of new matchings up by replay.

    Only the prefix of the domain seen so far is ever touched, so the
    snapshot source may be a live stream.
    """
    _check_width(p, ta)
    _check_streamable(p)
    core = _Core(ta, early_exit, trace)
    # catch-up keeps its own acceptances (restamped at discovery) and rows
    catch_up = _Core(ta, early_exit, None if trace is None else Trace(), counters=core.counters)
    use_defer = defer_start and ta.dead_start
    table: dict[Matching, set[Config]] = {}
    past: list[tuple[float, frozenset[str]]] = []
    first: dict[str, int] = {}  # edge -> index in past of the snapshot that first held it
    t = 0.0
    for t, snap, new_edges in _snapshots(g, stream, set()):
        if new_edges:
            batch = delta_match(g, p, first, new_edges, distinct_edges=distinct_edges)
            core.counters.generated += len(batch)
            if batch and core.admit(batch, t):
                entering = _by_entry(batch, first, len(past)) if use_defer else {0: batch}
                table.update(catch_up.replay(entering, past))
                core.accepted.update(zip(catch_up.accepted, repeat(t)))
                catch_up.accepted.clear()
                if trace is not None:
                    _record_catch_up(trace, catch_up.trace, batch, t, core.seed)
            first.update(zip(new_edges, repeat(len(past))))
        table = core.tick(table, snap, t)
        past.append((t, snap))
    return core.finish(table, t)


def _record_catch_up(trace: Trace, replayed: Trace, batch, t, seed) -> None:
    """One event per replayed matching, read off the replay's last row for it."""
    last = {r.matching: r for r in replayed.rows}
    for m in batch:
        r = last.get(m)
        if r is None:  # joined after the last letter seen so far
            trace.add_event(m, t, seed, None)
        else:
            trace.add_event(m, t, r.configs, r.t if r.status == "dropped" else None)
    replayed.rows.clear()


def run_partial_match(
    g: TemporalGraph,
    p: Bgp,
    ta: TimedAutomaton,
    *,
    order: Sequence[str] | None = None,
    early_exit: bool = True,
    distinct_edges: bool = False,
    trace: Trace | None = None,
    stream: Stream | None = None,
) -> EngineResult:
    """Incrementally maintain partial matchings; no catching up, ever.

    With ``order`` the working set is restricted to matchings binding a
    prefix of that order; the order must be connected for the pattern and
    must not be provably incompatible with the automaton.  An order that
    cannot be verified either way could lose results, so it is dropped:
    the run proceeds unordered and bumps the warning counter.
    """
    _check_width(p, ta)
    _check_streamable(p)
    core = _Core(ta, early_exit, trace, p=p)
    if order is not None:
        order = tuple(order)
        if not is_connected_order(p, order):
            raise OrderNotConnected(f"order {','.join(order)} has a disconnected prefix")
        comp = is_compatible_order(ta, order_indices(p, order))
        if comp is Compatibility.INCOMPATIBLE:
            raise OrderIncompatible(f"order {','.join(order)} contradicts the automaton's language")
        if comp is Compatibility.UNKNOWN:
            core.counters.warnings += 1
            order = None

    table: dict[Matching, frozenset[Config] | set[Config]] = {empty_matching(p): core.seed}
    if trace is not None:
        trace.add_row(0.0, empty_matching(p), 0, core.seed, "alive")
    history: set[str] = set()
    t = 0.0
    for t, snap, new_edges in _snapshots(g, stream, history):
        if new_edges and table:
            pairs = extend(
                g, p, list(table), new_edges, history, order=order, distinct_edges=distinct_edges
            )
            rewritten: dict[Matching, set[Config]] = {}
            for old, new in pairs:
                if new != old:
                    core.counters.generated += 1
                rewritten.setdefault(new, set()).update(table[old])
            table = rewritten
        table = core.tick(table, snap, t)
    return core.finish(table, t)


ALGORITHMS = ("baseline", "on-demand", "partial")


def run(
    algo: str,
    g: TemporalGraph,
    p: Bgp,
    ta: TimedAutomaton,
    *,
    order: Sequence[str] | None = None,
    early_exit: bool = True,
    defer_start: bool = True,
    distinct_edges: bool = False,
    trace: Trace | None = None,
) -> EngineResult:
    """Dispatch to one of the three engines by name."""
    if algo not in ALGORITHMS:
        raise FormatError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    if order is not None and algo != "partial":
        raise FormatError("an edge-variable order only applies to the partial algorithm")
    common = dict(early_exit=early_exit, distinct_edges=distinct_edges, trace=trace)
    if algo == "baseline":
        return run_baseline(g, p, ta, defer_start=defer_start, **common)
    if algo == "on-demand":
        return run_on_demand(g, p, ta, defer_start=defer_start, **common)
    return run_partial_match(g, p, ta, order=order, **common)
