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
  acceptances are stamped with the discovery time, and the survivors join
  the run's table as any new row does.
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

The core steps rows set-at-a-time, as bit-parallel automaton simulation
carries many runs in one machine word.  A row that survives its first
letter becomes a bit position; rows holding equal configuration sets form
a group, and an index ``edge -> {slot: rows binding it there}`` splits a
group into letter classes at every tick.  Each ``(configs, letter)`` class
moves once, through a move table that maps it to the stepped set, the set
early exit keeps, whether the stepped set touches an early-accept state
and whether the kept set rests (lies in ``TimedAutomaton.idle``, where an
empty letter changes nothing).  Without clocks ``step`` never reads the
time, so the table lives for the whole run, a lazy subset construction;
with clocks it is cleared at every tick.  A tick on which no row binds an
edge of the snapshot while every group rests only counts.  Acceptance
stays per row, since a partial matching touching an early-accept state is
filtered instead.  Tracing changes no step.

Streams are checked: timepoints must be positive, finite and strictly
increasing (``FormatError``) and edges known to the graph (``ReferentialError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
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
# stepped set touches an early-accept state, whether the kept set rests
_Move = tuple[Configs, Configs, bool, bool]


@dataclass
class Counters:
    """Work counters of one run.

    ``rows`` counts every configuration advanced by one letter, a class of
    rows at a time (its size times its configurations);
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

    Every row gets one ``RowTrace`` per tick, in no fixed order within the
    tick.
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


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _select(items: list, bits: int) -> Iterator:
    """The items at the positions set in ``bits``, in order."""
    # the binary digits, least significant first, as one 0/1 byte per position
    return compress(items, bin(bits)[:1:-1].encode().translate(_FLAGS))


class _Core:
    """The stepping core: entry rule, working table, one-letter tick, replay, end of stream.

    ``enter`` is the entry rule of baseline and on-demand, which ``replay``
    then follows; partial rows enter holding their source row's
    configurations instead.

    New rows wait in ``entering`` (configuration set -> rows) and take their
    first step row at a time, grouped by ``(configs, letter)``; that step is
    the one place a letter is computed per row.  Only survivors get an id,
    their position in ``matchings``, so a row that dies on its first letter
    costs no bitset work.  A live row is then one bit in a few ``int``
    bitsets:

    * ``groups`` maps each configuration set to the ids holding it;
    * ``index`` maps each edge to ``{slot bit: ids binding it there}``;
    * ``total`` holds the ids of total rows (a partial matching never is).

    A tick ORs the index entries of the snapshot's edges into one mask per
    slot, iterating the smaller side, splits each group by those masks into
    letter classes and moves each class with ``&``/``|``.  Counting stays
    exact: a class adds its popcount times ``len(configs)`` to ``rows``, and
    its dropped rows' popcount to ``early_rejected``.  Ids become matchings
    again only for a class touching an early-accept state (its ``total``
    rows are accepted), at ``finish`` and when tracing.  When the snapshot
    holds no indexed edge and every group rests, the tick adds ``resting``
    to ``rows`` and moves nothing.  An id that leaves ``groups`` keeps its
    bits in ``index`` and ``total`` until a step leaves at most half the
    ids in ``groups``; the live rows are then renumbered from 0.
    ``_admit`` is the one place a row gets an id.

    Moves come from the table ``moves``, keyed by value.  A clockless table
    lives for the whole run; a clocked one is cleared at every tick, since
    guards and resets read the time.  A move depends only on the automaton
    and ``early_exit``, so the child core that ``catch_up`` builds per
    on-demand batch takes its ``parent``'s table and counters; its ticks
    clear the shared table too, so no time's moves leak into another.
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
        self.entering: dict[Configs, list[Matching]] = {}
        self.matchings: list[Matching] = []
        self.groups: dict[Configs, int] = {}
        self.index: dict[str, dict[int, int]] = {}
        # the rows a zero-letter tick counts when every group rests; None when
        # some group may not rest, or before the first step of the groups
        self.resting: int | None = None
        self.total = 0

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
        """Advance every row one letter: the live groups by class, then the entering rows."""
        if self.ta.n_clocks:  # guards and resets read t
            self.moves.clear()
        if self.groups:
            index = self.index
            # iterate the smaller side: the index is often far smaller than a snapshot
            if len(snap) < len(index):
                hits = [index[e] for e in snap if e in index]
            else:
                hits = [slots for e, slots in index.items() if e in snap] if index else ()
            if hits or self.resting is None:
                self._step_groups(hits, t)
            else:  # every row reads the zero letter and rests: count, move nothing
                self.counters.rows += self.resting
                if self.trace is not None:
                    for configs, rows in self.live().items():
                        for m in rows:
                            self.trace.add_row(t, m, 0, configs, "alive")
        if self.entering:
            self._step_entering(snap, t)

    def _step_groups(self, hits, t) -> None:
        """Split every live group into letter classes by ``hits``, the index
        entries of the snapshot's edges, and move each class."""
        masks: dict[int, int] = {}  # letter bit -> ids binding an edge of the snapshot there
        for slots in hits:
            for bit, ids in slots.items():
                masks[bit] = masks.get(bit, 0) | ids
        accepted, trace, moves, matchings = self.accepted, self.trace, self.moves, self.matchings
        groups: dict[Configs, int] = {}
        resting: int | None = 0
        stepped = rejected = live = 0
        for configs, ids in self.groups.items():
            classes = [(0, ids)]
            for bit, mask in masks.items():
                if ids & mask:
                    split = []
                    for letter, cls in classes:
                        hit = cls & mask
                        if hit:
                            split.append((letter | bit, hit))
                            if hit != cls:
                                split.append((letter, cls ^ hit))
                        else:
                            split.append((letter, cls))
                    classes = split
            for letter, cls in classes:
                move = moves.get((configs, letter))
                if move is None:
                    move = moves[configs, letter] = self._move(configs, letter, t)
                nxt, kept, touches_accept, rests = move
                n = cls.bit_count()
                stepped += n * len(configs)
                if touches_accept and (won := cls & self.total):
                    for m in _select(matchings, won):
                        accepted[m] = t
                        if trace is not None:
                            trace.add_row(t, m, letter, nxt, "accepted")
                    cls ^= won
                    if not cls:
                        continue
                    n = cls.bit_count()
                if kept:
                    groups[kept] = groups.get(kept, 0) | cls
                    live += n
                    if resting is not None:
                        resting = resting + n * len(kept) if rests else None
                    status = "alive"
                else:
                    rejected += n
                    status = "dropped"
                if trace is not None:
                    for m in _select(matchings, cls):
                        trace.add_row(t, m, letter, kept, status)
        self.groups, self.resting = groups, resting
        self.counters.rows += stepped
        self.counters.early_rejected += rejected
        if 2 * live <= len(matchings):
            self._renumber()

    def _step_entering(self, snap, t) -> None:
        """The entering rows' first step, row at a time; the survivors get ids."""
        counters, accepted, trace, moves = self.counters, self.accepted, self.trace, self.moves
        letter_bits = _letter_bits
        resting = self.resting if self.groups else 0
        survivors: dict[Configs, list[Matching]] = {}
        for configs, batch in self.entering.items():
            classes: dict[int, list[Matching]] = {}
            for m in batch:
                classes.setdefault(letter_bits(m.edges, snap), []).append(m)
            for letter, rows in classes.items():
                move = moves.get((configs, letter))
                if move is None:
                    move = moves[configs, letter] = self._move(configs, letter, t)
                nxt, kept, touches_accept, rests = move
                counters.rows += len(rows) * len(configs)
                if touches_accept:
                    alive = []
                    for m in rows:
                        if m.is_total():
                            accepted[m] = t
                            if trace is not None:
                                trace.add_row(t, m, letter, nxt, "accepted")
                        else:
                            alive.append(m)
                    rows = alive
                if kept:
                    survivors.setdefault(kept, []).extend(rows)
                    if resting is not None:
                        resting = resting + len(rows) * len(kept) if rests else None
                    status = "alive"
                else:
                    counters.early_rejected += len(rows)
                    status = "dropped"
                if trace is not None:
                    for m in rows:
                        trace.add_row(t, m, letter, kept, status)
        self.entering = {}
        self._admit(survivors)
        self.resting = resting

    def _move(self, configs: Configs, letter: int, t: float) -> _Move:
        """Step ``configs`` on ``letter`` at ``t`` and work out what every row
        holding them would check next."""
        ta = self.ta
        nxt = frozenset(step(ta, configs, letter, t))
        kept, touches_accept = nxt, False
        if self.early_exit and nxt:
            touches_accept = any(s in ta.early_accept for s, _ in nxt)
            if ta.early_reject:
                kept = frozenset(c for c in nxt if c[0] not in ta.early_reject)
        return nxt, kept, touches_accept, all(s in ta.idle for s, _ in kept)

    def _admit(self, rows: dict[Configs, list[Matching]]) -> None:
        """Give ``rows`` ids, one block of consecutive ids per configuration set;
        the caller keeps ``resting``."""
        matchings, groups, index = self.matchings, self.groups, self.index
        for configs, batch in rows.items():
            if not batch:
                continue
            bit = 1 << len(matchings)
            groups[configs] = groups.get(configs, 0) | (bit << len(batch)) - bit
            matchings.extend(batch)
            for m in batch:
                if m.is_total():
                    self.total |= bit
                slot = 1
                for e in m.edges:
                    if e is not None:
                        slots = index.get(e)
                        if slots is None:
                            slots = index[e] = {}
                        slots[slot] = slots.get(slot, 0) | bit
                    slot <<= 1
                bit <<= 1

    def _renumber(self) -> None:
        """Give the live rows fresh ids from 0, dropping the dead ids' bits."""
        live = self.live()
        self.matchings, self.groups, self.index, self.total = [], {}, {}, 0
        self._admit(live)

    def live(self) -> dict[Configs, list[Matching]]:
        """The live rows by configuration set, entering ones excluded."""
        matchings = self.matchings
        return {
            configs: list(_select(matchings, ids)) for configs, ids in self.groups.items()
        }

    def replay(self, entering: dict[int, list[Matching]], snapshots) -> None:
        """Seed ``entering[i]`` before ``snapshots[i]`` (after the last one for
        ``i == len(snapshots)``) and step to the end."""
        n = len(snapshots)
        for i in range(min(entering, default=n), n):
            if i in entering:
                self.entering.setdefault(self.seed, []).extend(entering[i])
            if self.groups or self.entering:
                t, snap = snapshots[i]
                self.tick(snap, t)
        if n in entering:
            self.entering.setdefault(self.seed, []).extend(entering[n])

    def catch_up(self, entering: dict[int, list[Matching]], snapshots, t: float, batch) -> None:
        """Replay ``entering`` over ``snapshots`` in a child core, then take its
        rows in: live ones through ``_admit``, entering ones as they stand.  Its
        acceptances are stamped ``t``, the discovery time, and a trace gets one
        ``CatchUpEvent`` per matching of ``batch``."""
        child = _Core(self.ta, self.early_exit, None if self.trace is None else Trace(), self)
        child.replay(entering, snapshots)
        self._admit(child.live())
        for configs, rows in child.entering.items():
            self.entering.setdefault(configs, []).extend(rows)
        self.accepted.update(zip(child.accepted, repeat(t)))
        # the next tick is on the snapshot holding every survivor's new edge,
        # so it steps the groups and recounts resting
        self.resting = None
        if self.trace is not None:
            # each replayed matching's last row says where its replay ended
            last = {r.matching: r for r in child.trace.rows}
            for m in batch:
                r = last.get(m)
                if r is None:  # joined after the last letter seen so far
                    self.trace.add_event(m, t, self.seed, None)
                else:
                    self.trace.add_event(m, t, r.configs, r.t if r.status == "dropped" else None)

    def finish(self, t: float) -> EngineResult:
        """End of stream: rows holding an accepting configuration are accepted at ``t``."""
        accepting, accepted = self.ta.accepting, self.accepted
        for configs, ids in self.groups.items():
            if any(s in accepting for s, _ in configs):
                accepted.update(zip(_select(self.matchings, ids & self.total), repeat(t)))
        for configs, batch in self.entering.items():
            if any(s in accepting for s, _ in configs):
                accepted.update((m, t) for m in batch if m.is_total())
        # accepted matchings are total and distinct, so they sort as they are
        return EngineResult(sorted(accepted.items()), self.counters)


def _snapshots(g: TemporalGraph, stream: Stream | None):
    """The checked snapshot loop: ``(t, snap, new_edges)`` per snapshot of ``stream``.

    A snapshot's new edges are those no earlier snapshot held.  Only new
    edges are checked, so idle snapshots cost nothing extra.
    """
    if stream is None:
        stream = ((t, g.snapshots[t]) for t in g.domain)
    edges = g.edges
    history: set[str] = set()
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
    for t, snap, new_edges in _snapshots(g, stream):
        if new_edges:
            batch = delta_match(g, p, first, new_edges, distinct_edges=distinct_edges)
            core.counters.generated += len(batch)
            if batch and (entering := core.enter(batch, t, first, len(past))):
                core.catch_up(entering, past, t, batch)
            first.update(zip(new_edges, repeat(len(past))))
        core.tick(snap, t)
        past.append((t, snap))
    return core.finish(t)


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

    empty = empty_matching(p)
    core._admit({core.seed: [empty]})  # it binds no edge, so it needs no per-row first step
    if trace is not None:
        trace.add_row(0.0, empty, 0, core.seed, "alive")
    t = 0.0
    for t, snap, new_edges in _snapshots(g, stream):
        if new_edges and core.groups:
            live = core.live()
            rows = list(chain.from_iterable(live.values()))
            grown = extend(g, p, rows, new_edges, order=order, distinct_edges=distinct_edges)
            core.counters.generated += len(grown)
            # an extension enters holding its source's configurations; the
            # pairs come in the order of their sources, so one walk finds them
            held = ((m, configs) for configs, batch in live.items() for m in batch)
            row = configs = None
            for source, m in grown:
                while row is not source:
                    row, configs = next(held)
                core.entering.setdefault(configs, []).append(m)
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
