"""The three evaluation engines: one stepping core, three feeders.

Every engine keeps a working table of rows ``matching -> configurations``
and folds the temporal domain in order, feeding each row its activity
letter at every timepoint.  ``_Core`` does all stepping, early exit and
end-of-stream acceptance; the engines differ only in how rows enter:

* ``run_baseline`` matches the whole graph up front; each matching enters
  at the first snapshot holding one of its edges (after the last letter
  when none is ever active), and one replay covers the domain.
* ``run_on_demand`` consumes snapshots as a stream.  Matchings are found
  when their last edge enters the history, and each one is caught up on
  its own over the snapshots seen so far: it steps at those holding one of
  its edges, and at the others only while its configurations do not rest.
  Catch-up acceptances are stamped with the discovery time, and the
  survivors join the run's table as any new row does.
* ``run_partial_match`` also tracks partial matchings, so new rows inherit
  live configurations from the row they extend and nothing is replayed.
  Extensions only bind edges first seen in the current snapshot; older
  combinations arise transitively through surviving rows, and a dropped
  row takes all its unseen extensions with it.  A row that comes to bind
  every edge variable enters once per fill of its isolated node variables.

A new row's first step is taken inside the matcher's search, which looks
its class up in a ``_Fate`` table the core fills; a class dying there is
counted on entry, never built, and a total row it accepts is accepted there.
The untraced searches go further.  Before growing a prefix, baseline's
and on-demand's ask the fate whether any completion can survive its first
move, reading the initial state's transitions, guards ignored, against
what the prefix fixes of the entry letter (``_Verdicts``), and only count
the completions of a dead prefix, once per value of the nodes the count
reads.  This needs each edge's exact first snapshot index, which both
pass.  Partial's, under an order, know each deeper extension's class
before the search, since every edge they bind is new, and count a tail
whose every class dies on its first move into one of those classes.
Every other new row joins the table holding the configurations it had
before that letter, and the tick of its entry snapshot steps it with the
live rows.  Rows are dropped once their configurations empty
or only early-reject states remain; total matchings touching an
early-accept state are emitted at once, and new ones whose initial state
decides are settled on entry.
Disabling ``early_exit`` changes counters, never results.  When the
automaton idles on empty letters (``dead_start``), ``defer_start`` lets
baseline and on-demand skip the letters before a matching's first edge.

The core steps rows set-at-a-time, as bit-parallel automaton simulation
carries many runs in one machine word.  A row that joins the table
becomes a bit position; rows holding equal configuration sets form
a group, and an index ``edge -> {slot: rows binding it there}`` splits a
group into letter classes at every tick.  Each ``(configs, letter)`` class
moves once, read from the run's table ``_Core.moves`` or, on a miss, made
by ``_Core.move``: the stepped set, the set early exit keeps, whether the
stepped set touches an early-accept state and whether the kept set rests
(lies in ``TimedAutomaton.idle``, where an empty letter changes nothing).
A move whose states enable no guarded or resetting transition on its
letter (``TimedAutomaton.reads_clock``) does not read the time, so it is
tabled for the whole run, a lazy subset construction; any other move holds
only at its own timepoint, so it is made afresh.  A clockless automaton's
moves are thus all tabled.  A tick on which no row binds an edge of the
snapshot while every group rests only counts.  Acceptance stays per row,
since a partial matching touching an early-accept state is filtered
instead.  Tracing changes no step; a traced run also builds the rows that
die on their first letter, and they join the table so that the tick
records them.

Streams are checked: timepoints must be positive, finite and strictly
increasing (``FormatError``) and edges known to the graph (``ReferentialError``).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from typing import Iterable, Iterator, Sequence

from .bgp import (
    Bgp,
    Matching,
    # on-demand's history holds only edges ``_snapshots`` checked, so it
    # calls the join without the public check of every old edge
    _delta_match as delta_match,
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
# a move: the stepped set, the set early exit keeps, whether the stepped set
# touches an early-accept state, whether the kept set rests
_Move = tuple[Configs, Configs, bool, bool]
# an entering class: its configurations, letter and first move (None when its
# rows are not stepped), and its rows
_Entry = tuple[Configs, int, "_Move | None", "list[Matching]"]


@dataclass
class Counters:
    """Work counters of one run.

    ``rows`` counts every configuration advanced by one letter, a class of
    rows at a time (its size times its configurations);
    ``generated`` counts the matchings found, including those never built:
    those of a class dying on its first move and those the join counted in
    the subtrees it pruned, never enumerated where their count was already
    known (for partial, the rows ``extend`` added, its counted tails too),
    ``early_rejected`` the
    rows dropped before the end of the stream or refused on entry, and
    ``warnings`` the orders run unordered because they could not be
    verified.
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
    """Where one on-demand catch-up ended: the matching's configurations before
    its discovery snapshot, and the time it was dropped, if it was.  Matchings
    settled on entry are not caught up and get none."""

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


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _select(items: list, bits: int) -> Iterator:
    """The items at the positions set in ``bits``, in order."""
    # the binary digits, least significant first, as one 0/1 byte per position
    return compress(items, bin(bits)[:1:-1].encode().translate(_FLAGS))


class _Fate(dict):
    """The entry classes of one fused matcher call, filled as its leaf meets them.

    A key is ``(entry index, letter)`` for rows entering at
    ``snapshots[index]`` with the initial configuration, or ``(configs,
    letter)`` for partial rows entering at ``t``.  Its value is the class's
    rows, or their count when untraced and the first move keeps and accepts
    nothing; ``_Core.enter`` counts such a class and drops it.  ``classes``
    holds each key's configurations, letter and first move, None when not
    stepped: the initial state decides, or the entry snapshot's time is None
    (after the last one).  The first move decides what ``_Core.join``
    settles on entry; the tick takes it again for the rows that join the
    table.

    A fate also prunes the join, unless the initial state decides or the
    run is traced (every row is then built): ``pruned`` is then an int,
    not None.  For baseline or on-demand rows ``verdicts`` gives each plan
    level its ``_Verdicts`` table, and ``pruned`` adds up the matchings
    counted in dead subtrees, which ``_Core.enter`` books as a class that
    dies on its first move.  For partial rows under an order, a tail whose
    every class is an int is counted into one of those classes, which
    ``enter`` books alike, so ``pruned`` stays 0.  Else the join files
    every matching.
    """

    def __init__(self, core: _Core, snapshots=None, t: float | None = None):
        super().__init__()
        self.core, self.snapshots, self.t = core, snapshots, t
        self.classes: dict[tuple, tuple[Configs, int, _Move | None]] = {}
        # the initial state settles every row that enters holding it
        ta = core.ta
        self.decides = snapshots is not None and core.early_exit and (
            ta.initial in ta.early_accept or ta.initial in ta.early_reject
        )
        # the matchings the join counted in pruned subtrees; None: it files them all
        self.pruned = 0 if not self.decides and core.trace is None else None

    def verdicts(self, mask: int) -> _Verdicts:
        """The run's verdicts on the prefixes binding the edge variables of
        ``mask``: every fate of a run reads one snapshot list (on-demand's
        grows), whose snapshots never change, so the tables serve them all."""
        tables = self.core.verdicts
        table = tables.get(mask)
        if table is None:
            table = tables[mask] = _Verdicts(self.core, self.snapshots, mask)
        return table

    def __missing__(self, key):
        core, (head, letter) = self.core, key
        letter = int(letter)
        if self.snapshots is None:
            configs, t = head, self.t
        else:
            configs, t = core.seed, None if self.decides else self.snapshots[head][0]
        move = None if t is None else core.move(configs, letter, t)
        self.classes[key] = configs, letter, move
        keep = move is None or core.trace is not None or move[1] or move[2]
        value = self[key] = [] if keep else 0
        return value


class _Verdicts(dict):
    """Whether a prefix binding the edge variables of ``mask`` may have a
    completion that survives its first move, by ``(i, bits)``: its entry
    index so far and its edges' bits in ``snapshots[i][1]``.

    A completion enters at ``i`` or earlier.  At ``i`` its letter agrees
    with ``bits`` on ``mask``; earlier, no bound edge has appeared yet
    (``first`` gives each edge's exact first snapshot index), so those bits
    are 0 and the unbound edge entering there sets its own.  The prefix is
    dead when no cube of the initial state whose target a first move keeps
    admits either letter, guards ignored; the trailing entry, which is not
    stepped, is always live.  Entries are filled as the plan meets them,
    so no letter is enumerated.
    """

    def __init__(self, core: _Core, snapshots, mask: int):
        super().__init__()
        ta = core.ta
        self.snapshots, self.mask = snapshots, mask
        self.rest = (1 << ta.width) - 1 & ~mask
        self.cubes = [
            (care, value) for care, value, tr in ta._cubes[ta.initial]
            if not core.early_exit or tr.dst not in ta.early_reject
        ]

    def __missing__(self, key):
        i, bits = key
        mask, rest = self.mask, self.rest
        live = self.snapshots[i][0] is None or any(
            not (value ^ bits) & care & mask
            or i and not value & mask and (value | ~care) & rest
            for care, value in self.cubes
        )
        self[key] = live
        return live


class _Core:
    """The stepping core: entry rule, working table, one-letter tick, replay,
    catch-up, end of stream.

    New rows arrive stepped once, in the classes of a ``_Fate`` table
    (``entry`` makes one for baseline and on-demand).  ``enter`` applies the
    entry rule and counts the classes that first move drops, never built;
    ``join`` accepts the total rows it accepts, so neither costs bitset
    work.  Every other row gets an id, its position in ``matchings``,
    holding the configurations it had before the move, and the tick of its
    entry snapshot steps it as any live row; ``_step_groups`` is the only
    code that steps a row holding an id.  A live row is one bit in a few
    ``int`` bitsets:

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

    ``move`` is the one rule that makes a move and decides whether to table
    it, for the matcher's first moves, the tick and on-demand's
    ``catch_up``, which walks each caught-up row on its own.  A move that
    reads no clock is kept in ``moves``, keyed by value, for the whole run;
    one that reads a clock is made afresh every time, since guards and
    resets read the time (a class's first move is thus made in the matcher
    and again by the tick only when it reads a clock).  The tick and the
    walk read ``moves`` inline and call ``move`` only on a miss, so a tabled
    move costs no call.  ``_move`` makes a move through ``step``, which
    reads the automaton's compiled arcs.
    The join's prefix verdicts (``_Verdicts``) are likewise kept in
    ``verdicts`` for the whole run.
    """

    def __init__(self, ta, early_exit, trace, defer_start=False):
        self.ta = ta
        self.early_exit = early_exit
        self.defer = defer_start and ta.dead_start
        self.trace = trace
        self.counters = Counters()
        self.moves: dict[tuple[Configs, int], _Move] = {}
        self.accepted: dict[Matching, float] = {}
        # every new row shares this set, as rows share the move table's
        self.seed = frozenset((ta.initial_config(),))
        self.verdicts: dict[int, _Verdicts] = {}  # the join's, by bound variables
        self.matchings: list[Matching] = []
        self.groups: dict[Configs, int] = {}
        self.index: dict[str, dict[int, int]] = {}
        # the rows a zero-letter tick counts when every group rests; None when
        # some group may not rest, or before the first step of the groups
        self.resting: int | None = None
        self.total = 0

    def entry(self, first: dict[str, int], snapshots) -> tuple:
        """The matcher's ``entry`` for rows entering at ``snapshots[0]``, or with
        ``defer`` at the earliest ``first`` index of their edges, else the last."""
        fate = _Fate(self, snapshots)
        if self.defer:
            return first, len(snapshots) - 1, snapshots, fate
        return {}, 0, snapshots, fate

    def enter(self, fate: _Fate, t: float) -> dict[object, list[_Entry]]:
        """The entry rule on ``fate``'s classes, counted into ``generated``:
        count and drop those never built, settle the others at ``t`` if the
        initial state decides, else map each key's head (an entry index, or
        partial's configurations) to its classes."""
        counters, accepted, entering = self.counters, self.accepted, {}
        accepts = self.ta.initial in self.ta.early_accept
        if fate.pruned:  # counted by the join in subtrees it pruned, never built
            counters.generated += fate.pruned
            counters.rows += fate.pruned * len(self.seed)
            counters.early_rejected += fate.pruned
        for key, rows in fate.items():
            configs, letter, move = fate.classes[key]
            if rows.__class__ is int:  # they all die on their first move, never built
                counters.generated += rows
                counters.rows += rows * len(configs)
                counters.early_rejected += rows
                continue
            counters.generated += len(rows)
            if fate.decides:
                if accepts:
                    accepted.update(zip(rows, repeat(t)))
                else:
                    counters.early_rejected += len(rows)
            else:
                entering.setdefault(key[0], []).append((configs, letter, move, rows))
        return entering

    def join(self, classes: Iterable[_Entry], t, joining=None) -> None:
        """Accept at ``t`` the rows of ``classes`` that their first move accepts,
        and give the others ids, with ``joining``'s (``configs -> rows``),
        holding their configurations before it, for the tick to step."""
        counters, accepted, trace = self.counters, self.accepted, self.trace
        joining = {} if joining is None else joining
        for configs, letter, move, rows in classes:
            if move is not None and move[2]:
                alive = []
                for m in rows:
                    if m.is_total():
                        accepted[m] = t
                        if trace is not None:
                            trace.add_row(t, m, letter, move[0], "accepted")
                    else:
                        alive.append(m)
                counters.rows += (len(rows) - len(alive)) * len(configs)
                rows = alive
            if rows:
                joining.setdefault(configs, []).extend(rows)
        if joining:
            self._admit(joining)
            # the new rows have not read the tick's letter; let it step the groups
            self.resting = None

    def tick(self, snap, t) -> None:
        """Advance every live row one letter, by class."""
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

    def _step_groups(self, hits, t) -> None:
        """Split every live group into letter classes by ``hits``, the index
        entries of the snapshot's edges, and move each class."""
        masks: dict[int, int] = {}  # letter bit -> ids binding an edge of the snapshot there
        for slots in hits:
            for bit, ids in slots.items():
                masks[bit] = masks.get(bit, 0) | ids
        accepted, trace, matchings = self.accepted, self.trace, self.matchings
        moves, move_of = self.moves, self.move
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
                    move = move_of(configs, letter, t)
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

    def move(self, configs: Configs, letter: int, t: float) -> _Move:
        """The move of ``configs`` on ``letter`` at ``t``, from the run's table
        ``moves`` when it is there.  A move made afresh is tabled unless one
        of its states reads a clock on ``letter``: a guard or a reset reads
        the time, so such a move holds only at ``t``."""
        move = self.moves.get((configs, letter))
        if move is None:
            move = self._move(configs, letter, t)
            reads_clock = self.ta.reads_clock  # the step just made filled every entry
            for s, _ in configs:
                if reads_clock[s, letter]:
                    break
            else:
                self.moves[configs, letter] = move
        return move

    def _move(self, configs: Configs, letter: int, t: float) -> _Move:
        """Step ``configs`` on ``letter`` at ``t`` and work out what every row
        holding them would check next."""
        ta = self.ta
        nxt = frozenset(step(ta, configs, letter, t))
        kept, touches_accept = nxt, False
        if self.early_exit and nxt:
            early_accept, early_reject = ta.early_accept, ta.early_reject
            dropped = []
            for config in nxt:
                if config[0] in early_accept:  # an early-accept state is never early-reject
                    touches_accept = True
                elif config[0] in early_reject:
                    dropped.append(config)
            if dropped:
                kept = nxt.difference(dropped)
        idle = ta.idle
        for s, _ in kept:
            if s not in idle:
                return nxt, kept, touches_accept, False
        return nxt, kept, touches_accept, True

    def _admit(self, rows: dict[Configs, list[Matching]]) -> None:
        """Give ``rows`` ids, one block of consecutive ids per configuration set;
        the caller keeps ``resting``."""
        matchings, groups, index = self.matchings, self.groups, self.index
        for configs, batch in rows.items():
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
        """The live rows by configuration set."""
        matchings = self.matchings
        return {
            configs: list(_select(matchings, ids)) for configs, ids in self.groups.items()
        }

    def replay(self, entering: dict[int, list[_Entry]], snapshots) -> None:
        """Join ``entering[i]`` at ``snapshots[i]`` and step to the last snapshot;
        ``entering[len(snapshots)]``, which reads no letter, joins after it."""
        end = len(snapshots)
        for i in range(min(entering, default=end), end):
            if i in entering:
                self.join(entering[i], snapshots[i][0])
            if self.groups:
                t, snap = snapshots[i]
                self.tick(snap, t)
        self.join(entering.get(end, ()), None)

    def catch_up(self, entering: dict[int, list[_Entry]], past, active, t: float) -> None:
        """Walk each row of ``entering`` on its own over ``past`` up to its last,
        current snapshot, then ``join`` the survivors.

        A row walks on from its first move and moves again only at its
        events, the snapshots holding one of its edges, or at every snapshot
        while its configurations do not rest; a resting stretch is counted
        in one addition.  ``active`` maps each edge to the indices in
        ``past`` of the snapshots before the current one that hold it.  Rows
        entering at the current snapshot join with the survivors, as new rows
        of its tick.  Acceptances are stamped ``t``, the discovery time, and
        a trace gets one ``CatchUpEvent`` per matching, from where its walk
        ended.
        """
        end = len(past) - 1
        counters, accepted, trace = self.counters, self.accepted, self.trace
        moves, move_of = self.moves, self.move

        def walk(m, move, i) -> Configs | None:
            """Walk ``m`` on from its ``move`` at ``past[i]`` to the current
            snapshot; return its configurations there, None when it settled."""
            activity = [(js, 1 << slot) for slot, edge in enumerate(m.edges) if (js := active.get(edge))]
            event = i  # the next snapshot holding an edge of m, found once i passes it
            while True:
                nxt, kept, touches_accept, rests = move
                if touches_accept:  # a caught-up row is total
                    accepted[m] = t
                    if trace is not None:
                        trace.add_event(m, t, nxt, None)
                    return None
                if not kept:
                    counters.early_rejected += 1
                    if trace is not None:
                        trace.add_event(m, t, kept, past[i][0])
                    return None
                configs, i = kept, i + 1
                if event < i:
                    event, letter = end, 0
                    for js, bit in activity:
                        if js[-1] >= i:
                            j = js[bisect_left(js, i)]
                            if j < event:
                                event, letter = j, bit
                            elif j == event:
                                letter |= bit
                if rests and i < event:  # empty letters change nothing
                    counters.rows += len(configs) * (event - i)
                    i = event
                if i == end:
                    if trace is not None:
                        trace.add_event(m, t, configs, None)
                    return configs
                read = letter if i == event else 0
                move = moves.get((configs, read))
                if move is None:
                    move = move_of(configs, read, past[i][0])
                counters.rows += len(configs)

        survivors: dict[Configs, list[Matching]] = {}
        for e, classes in entering.items():
            for configs, _, move, rows in classes:
                if e == end:  # they join as new rows of the current snapshot, having read nothing
                    if trace is not None:
                        for m in rows:
                            trace.add_event(m, t, configs, None)
                    continue
                counters.rows += len(rows) * len(configs)
                for m in rows:
                    if (last := walk(m, move, e)) is not None:
                        survivors.setdefault(last, []).append(m)
        self.join(entering.get(end, ()), t, survivors)

    def finish(self, t: float) -> EngineResult:
        """End of stream: rows holding an accepting configuration are accepted at ``t``."""
        accepting, accepted = self.ta.accepting, self.accepted
        for configs, ids in self.groups.items():
            if any(s in accepting for s, _ in configs):
                accepted.update(zip(_select(self.matchings, ids & self.total), repeat(t)))
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
    snapshots = [(t, g.snapshots[t]) for t in g.domain]
    first = {e: r - 1 for e, r in g.first_rank.items()}
    # a row entering after the last snapshot reads no letter; it joins for finish
    entry = core.entry(first, [*snapshots, (None, frozenset())])
    fate = match_total(g, p, distinct_edges=distinct_edges, entry=entry)
    if trace is not None:
        for rows in fate.values():
            for m in rows:
                trace.add_row(0.0, m, 0, core.seed, "alive")
    core.replay(core.enter(fate, 0.0), snapshots)
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
    """Consume snapshots in order; catch each new matching up over the snapshots seen so far.

    Only the prefix of the domain seen so far is ever touched, so the
    snapshot source may be a live stream.
    """
    _check_width(p, ta)
    _check_streamable(p)
    core = _Core(ta, early_exit, trace, defer_start=defer_start)
    past: list[tuple[float, frozenset[str]]] = []  # the snapshots so far, the current one last
    first: dict[str, int] = {}  # edge -> index in past of the snapshot that first held it
    # edge -> indices in past of the snapshots holding it, for catch-up: it
    # grows with the stream as past does, and is filled up to index
    # ``indexed`` only when a catch-up reads it, so idle snapshots add nothing
    active: dict[str, list[int]] = {}
    indexed = 0
    t = 0.0
    for t, snap, new_edges in _snapshots(g, stream):
        past.append((t, snap))
        if new_edges:
            entry = core.entry(first, past)
            fate = delta_match(g, p, first, new_edges, distinct_edges=distinct_edges, entry=entry)
            if entering := core.enter(fate, t):
                for j in range(indexed, len(past) - 1):
                    for edge in past[j][1]:
                        active.setdefault(edge, []).append(j)
                indexed = len(past) - 1
                core.catch_up(entering, past, active, t)
            first.update(zip(new_edges, repeat(len(past) - 1)))
        core.tick(snap, t)
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
            # an extension enters holding its source's configurations
            entry = (snap, _Fate(core, t=t))
            kw = dict(order=order, distinct_edges=distinct_edges, entry=entry)
            fate = extend(g, p, core.live(), new_edges, **kw)
            core.join(chain.from_iterable(core.enter(fate, t).values()), t)
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
