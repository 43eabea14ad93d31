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
  row takes all its unseen extensions with it.  A row that comes to bind
  every edge variable enters once per fill of its isolated node variables.

Rows are dropped once their configurations empty or only early-reject
states remain; total matchings touching an early-accept state are emitted
at once, and new ones whose initial state decides are settled on entry.
Disabling ``early_exit`` changes counters, never results.  When the
automaton idles on empty letters (``dead_start``), ``defer_start`` lets
baseline and on-demand skip the letters before a matching's first edge.

The core does work only where a letter or a state can change.  A row whose
configurations all lie in idle states (``TimedAutomaton.idle``) is parked,
once it has read an empty letter: it is not stepped again until a snapshot
holds one of its bound edges, found through a wake index ``edge -> rows``.
Parking changes no result and no counter, and tracing changes no step: a
``Trace`` records a parked row as it stands at every tick it skips.

Rows holding equal configuration sets that read the same letter are
stepped once: the core's move table maps ``(configs, letter)`` to the
stepped set, the set early exit keeps, and whether those touch an
early-accept state or may park.  Without clocks ``step`` never reads the
time, so the table lives for the whole run, a lazy subset construction;
with clocks it is cleared at every tick.  Acceptance stays per row, since
a partial matching touching an early-accept state is filtered instead.

Streams are checked: timepoints must be positive, finite and strictly
increasing (``FormatError``) and edges known to the graph (``ReferentialError``).
"""

from __future__ import annotations

import math
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
    order_indices,
)
from .errors import FormatError, OrderIncompatible, OrderNotConnected, ReferentialError
from .temporal_graph import TemporalGraph
from .timed_automaton import (
    Compatibility,
    Config,
    TimedAutomaton,
    is_compatible_order,
    is_connected_order,
    step,
)

Stream = Iterator[tuple[float, frozenset[str]]]
Configs = frozenset[Config]
# a move-table entry: the stepped set, the set early exit keeps, whether the
# stepped set touches an early-accept state, whether the kept set may park
_Move = tuple[Configs, Configs, bool, bool]


@dataclass
class Counters:
    """Work counters of one run.

    ``rows`` counts every configuration advanced by one letter, including
    the identity steps of parked rows, which are counted but not stepped;
    ``generated`` counts the matchings found (for partial, the rows
    ``extend`` added), ``early_rejected`` the rows dropped before the end
    of the stream or refused on entry, and ``warnings`` the orders run
    unordered because they could not be verified.
    """

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
    """Optional per-tick recording, for tests and debugging only.

    Every row gets one ``RowTrace`` per tick; within a tick, parked rows
    come first, recorded as they stand (letter 0, ``"alive"``).
    """

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
    """The stepping core: entry rule, working table, one-letter tick, replay, end of stream.

    ``enter`` is the entry rule of baseline and on-demand, which ``replay``
    then follows; partial rows enter by copying their source row's
    configurations instead.

    The working table holds busy rows, stepped at every tick, and parked
    rows.  A row may park after a step that leaves every configuration it
    holds in ``ta.idle``: an empty letter then leaves it unchanged, clocks
    included (they are last-reset times), and its early-exit checks already
    ran, so stepping it would change nothing.  A parked row is woken, at the
    start of a tick, by a snapshot holding one of its bound edges, found
    through the wake index ``edge -> rows``.

    A row enters the index when it first parks and leaves it when dropped
    or accepted, so busy rows come in two groups: ``busy`` rows, never
    parked, and ``awake`` rows, woken and still indexed.  An awake row parks
    after every idle step; a busy row parks only after an idle step on the
    empty letter.  Indexing costs an entry per bound edge, which pays off
    only for rows whose edges go quiet; on a busy graph rows seldom read an
    empty letter, so they never enter the index and pay nothing new.  The
    skipped identity steps still count in ``rows``, and a ``Trace`` records
    each parked row as it stands.

    Rows hold frozensets shared with the move table ``moves``, keyed by
    value: ``(configs, letter)`` maps to the stepped set, the set early
    exit keeps (early-reject states filtered out), whether the stepped set
    touches an early-accept state and whether the kept set lies in
    ``idle``.  A hit reuses all four; the letter, the ``rows`` count, the
    ``is_total`` test before accepting (a partial matching never is), and
    parking and the wake index stay per row.  A clockless table lives for
    the whole run; a clocked one is cleared at every tick, since guards
    and resets read the time.  A move depends only on the automaton and
    ``early_exit``, so an on-demand catch-up core, built per batch, takes
    its ``parent``'s table and counters; its ticks clear the shared table
    too, so no time's moves leak into another.
    """

    def __init__(self, ta, early_exit, trace, parent: _Core | None = None, defer_start=False):
        self.ta = ta
        self.early_exit = early_exit
        self.defer = defer_start and ta.dead_start
        self.trace = trace
        self.counters = Counters() if parent is None else parent.counters
        self.moves: dict[tuple[Configs, int], _Move] = {} if parent is None else parent.moves
        self.accepted: dict[Matching, float] = {}
        # every new row shares this set, as rows share the move table's
        self.seed = frozenset((ta.initial_config(),))
        self.busy: dict[Matching, Configs] = {}
        self.awake: dict[Matching, Configs] = {}
        self.parked: dict[Matching, Configs] = {}
        self.parked_configs = 0
        self.wake: dict[str, set[Matching]] = {}

    def enter(self, batch: list[Matching], t: float, first: dict[str, int], n: int):
        """The entry rule: settle ``batch`` at ``t`` if the initial state decides,
        else map snapshot indices to the matchings entering before them: 0, or
        with ``defer`` the earliest ``first`` index of their edges (``n`` for none)."""
        if self.early_exit:
            initial = self.ta.initial
            if initial in self.ta.early_accept:
                self.accepted.update(zip(batch, repeat(t)))
                return {}
            if initial in self.ta.early_reject:
                self.counters.early_rejected += len(batch)
                return {}
        if not self.defer:
            return {0: batch}
        entering: dict[int, list[Matching]] = {}
        for m in batch:
            i = n
            for e in m.edges:
                j = first.get(e, n)
                if j < i:
                    i = j
            entering.setdefault(i, []).append(m)
        return entering

    def tick(self, snap, t) -> None:
        """Advance every row one letter: wake the parked rows ``snap`` touches,
        step the busy ones."""
        if self.ta.n_clocks:  # guards and resets read t
            self.moves.clear()
        if self.wake:
            self._wake(snap)
        self.counters.rows += self.parked_configs  # the parked rows' identity steps
        if self.trace is not None:
            for m, configs in self.parked.items():
                self.trace.add_row(t, m, 0, configs, "alive")
        if self.busy:
            self.busy = self._step(self.busy, snap, t, False)
        if self.awake:
            self.awake = self._step(self.awake, snap, t, True)

    def _step(self, rows: dict[Matching, Configs], snap, t, indexed: bool) -> dict:
        """Step ``rows``, which are all in the wake index or all out of it;
        returns those that stay busy."""
        counters, accepted, trace = self.counters, self.accepted, self.trace
        moves, parked = self.moves, self.parked
        busy: dict[Matching, Configs] = {}
        for m, configs in rows.items():
            bits = _letter_bits(m.edges, snap)
            counters.rows += len(configs)
            move = moves.get((configs, bits))
            if move is None:
                move = moves[configs, bits] = self._move(configs, bits, t)
            nxt, kept, touches_accept, rests = move
            status = "alive"
            if touches_accept and m.is_total():
                accepted[m] = t
                status = "accepted"
            else:
                nxt = kept
            if status == "alive":
                if not nxt:
                    status = "dropped"
                    counters.early_rejected += 1
                    if indexed:
                        self._unindex(m)
                elif rests and (indexed or not bits):
                    parked[m] = nxt
                    self.parked_configs += len(nxt)
                    if not indexed:
                        self._index(m)
                else:
                    busy[m] = nxt
            elif indexed:
                self._unindex(m)
            if trace is not None:
                trace.add_row(t, m, bits, nxt, status)
        return busy

    def _move(self, configs: Configs, letter: int, t: float) -> _Move:
        """Step ``configs`` on ``letter`` at ``t`` and work out what every row
        holding them would check next."""
        ta, idle = self.ta, self.ta.idle
        nxt = frozenset(step(ta, configs, letter, t))
        kept, touches_accept = nxt, False
        if self.early_exit and nxt:
            touches_accept = any(s in ta.early_accept for s, _ in nxt)
            if ta.early_reject:
                kept = frozenset(c for c in nxt if c[0] not in ta.early_reject)
        rests = all(s in idle for s, _ in kept)  # an empty set is dropped first
        return nxt, kept, touches_accept, rests

    def _wake(self, snap: frozenset[str]) -> None:
        """Move the parked rows binding an edge of ``snap`` to the awake rows."""
        wake, parked, awake = self.wake, self.parked, self.awake
        # iterate the smaller side: the index is often far smaller than a snapshot
        if len(snap) < len(wake):
            hits = [wake[e] for e in snap if e in wake]
        else:
            hits = [rows for e, rows in wake.items() if e in snap]
        for rows in hits:
            for m in rows:
                configs = parked.pop(m, None)
                if configs is not None:
                    awake[m] = configs
                    self.parked_configs -= len(configs)

    def _index(self, m: Matching) -> None:
        for e in m.edges:
            if e is not None:
                self.wake.setdefault(e, set()).add(m)

    def _unindex(self, m: Matching) -> None:
        wake = self.wake
        for e in m.edges:
            rows = wake.get(e)  # None for an unbound edge, or one bound twice and gone
            if rows is not None:
                rows.discard(m)
                if not rows:
                    del wake[e]

    def rows(self) -> dict[Matching, Configs]:
        """Every row and its configurations, busy or parked."""
        return self.busy | self.awake | self.parked

    def replay(self, entering: dict[int, list[Matching]], snapshots) -> None:
        """Seed ``entering[i]`` before ``snapshots[i]`` (after the last one for
        ``i == len(snapshots)``) and step to the end."""
        seed, n = self.seed, len(snapshots)
        for i in range(min(entering, default=n), n):
            if i in entering:
                self.busy.update(zip(entering[i], repeat(seed)))
            if self.busy or self.awake or self.parked:
                t, snap = snapshots[i]
                self.tick(snap, t)
        self.busy.update(zip(entering.get(n, ()), repeat(seed)))

    def finish(self, t: float) -> EngineResult:
        """End of stream: rows holding an accepting configuration are accepted at ``t``."""
        accepting, accepted = self.ta.accepting, self.accepted
        for m, configs in self.rows().items():
            if any(s in accepting for s, _ in configs) and m.is_total():
                accepted[m] = t
        # accepted matchings are total and distinct, so they sort as they are
        return EngineResult(sorted(accepted.items()), self.counters)


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
        if not prev < t < math.inf:
            raise FormatError(
                "snapshot timepoints must be positive, finite and strictly increasing, "
                f"got {t} after {prev}"
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
    core = _Core(ta, early_exit, trace, defer_start=defer_start)
    matchings = match_total(g, p, distinct_edges=distinct_edges)
    core.counters.generated = len(matchings)
    if trace is not None:
        for m in matchings:
            trace.add_row(0.0, m, 0, core.seed, "alive")
    snapshots = [(t, g.snapshots[t]) for t in g.domain]
    first = {e: r - 1 for e, r in g.first_rank.items()}
    core.replay(core.enter(matchings, 0.0, first, len(snapshots)), snapshots)
    return core.finish(g.domain[-1] if g.domain else 0.0)


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
    core = _Core(ta, early_exit, trace, defer_start=defer_start)
    past: list[tuple[float, frozenset[str]]] = []
    first: dict[str, int] = {}  # edge -> index in past of the snapshot that first held it
    t = 0.0
    for t, snap, new_edges in _snapshots(g, stream, set()):
        if new_edges:
            batch = delta_match(g, p, first, new_edges, distinct_edges=distinct_edges)
            core.counters.generated += len(batch)
            if batch and (entering := core.enter(batch, t, first, len(past))):
                # catch-up keeps its own acceptances (restamped at discovery) and rows
                catch_up = _Core(ta, early_exit, None if trace is None else Trace(), core)
                catch_up.replay(entering, past)
                # the survivors are stepped on this snapshot, which holds their new edge
                core.busy.update(catch_up.rows())
                core.accepted.update(zip(catch_up.accepted, repeat(t)))
                if trace is not None:
                    _record_catch_up(trace, catch_up.trace, batch, t, core.seed)
            first.update(zip(new_edges, repeat(len(past))))
        core.tick(snap, t)
        past.append((t, snap))
    return core.finish(t)


def _record_catch_up(trace: Trace, replayed: Trace, batch, t, seed) -> None:
    """One event per replayed matching, read off the replay's last row for it."""
    last = {r.matching: r for r in replayed.rows}
    for m in batch:
        r = last.get(m)
        if r is None:  # joined after the last letter seen so far
            trace.add_event(m, t, seed, None)
        else:
            trace.add_event(m, t, r.configs, r.t if r.status == "dropped" else None)


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
    core = _Core(ta, early_exit, trace)
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

    core.busy[empty_matching(p)] = core.seed
    if trace is not None:
        trace.add_row(0.0, empty_matching(p), 0, core.seed, "alive")
    history: set[str] = set()
    t = 0.0
    for t, snap, new_edges in _snapshots(g, stream, history):
        if new_edges and (table := core.rows()):
            pairs = extend(
                g, p, list(table), new_edges, history, order=order, distinct_edges=distinct_edges
            )
            # one identity pair per row, the rest are new busy rows (no two
            # alike: an extension's older edges are exactly its source row's);
            # configurations are frozensets, so rows share their source's
            core.counters.generated += len(pairs) - len(table)
            for old, new in pairs:
                if new is not old:
                    core.busy[new] = table[old]
        core.tick(snap, t)
    return core.finish(t)


ALGORITHMS = ("baseline", "on-demand", "partial")


def run(
    algo: str,
    g: TemporalGraph,
    p: Bgp,
    ta: TimedAutomaton,
    *,
    order: Sequence[str] | None = None,
    early_exit: bool = True,
    distinct_edges: bool = False,
) -> EngineResult:
    """Dispatch to one of the three engines by name."""
    if algo not in ALGORITHMS:
        raise FormatError(f"unknown algorithm {algo!r}; choose from {ALGORITHMS}")
    if order is not None and algo != "partial":
        raise FormatError("an edge-variable order only applies to the partial algorithm")
    common = dict(early_exit=early_exit, distinct_edges=distinct_edges)
    if algo == "baseline":
        return run_baseline(g, p, ta, **common)
    if algo == "on-demand":
        return run_on_demand(g, p, ta, **common)
    return run_partial_match(g, p, ta, order=order, **common)
