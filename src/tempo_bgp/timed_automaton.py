"""Timed automata over edge-activity letters.

An automaton reads one letter per timepoint of the temporal domain.  A
letter is a bitset of width equal to the pattern's edge-variable count:
bit ``j`` is set when the edge bound to the j-th edge variable is active
at the current timepoint.  Transitions carry a letter pattern over
``{0,1,*}``, a conjunction of clock comparisons, and a set of clocks to
reset.  Clocks are stored lazily as the time of their last reset; the
value of clock ``c`` at time ``t`` is ``t - last_reset[c]``.

Each pattern is compiled once, at construction, into a ``(mask, value)``
cube grouped by source state.  Discrete moves are read from one move
table, ``(state, letter) -> transitions``, filled on first use, so wide
automata never enumerate their letters.  Each entry is marked by whether
it reads a clock: a move whose enabled transitions carry no guard and no
reset does not depend on the time.  Each entry is also compiled, when it
is filled, into arcs ``(dst, guard, resets)`` whose guard atoms hold their
comparator functions, so ``step`` checks a guard as plain clock
constraints without reading a ``Transition`` or looking a comparator up.

Letter predicates that are not a single cube (XOR and friends) are spelled
as several transition rows, one per pattern, exactly as in the relational
encoding of the automaton.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Collection, Iterable, Sequence

from .bgp import Bgp, order_indices
from .errors import FormatError

Config = tuple[int, tuple[float, ...]]
GuardAtom = tuple[int, str, float]
# a transition compiled for ``step``: (dst, ((clock, comparator, bound), ...), resets)
Arc = tuple[int, tuple[tuple[int, Callable[[float, float], bool], float], ...], tuple[int, ...]]

_OPS = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Transition:
    src: int
    pattern: str
    guard: tuple[GuardAtom, ...]
    resets: tuple[int, ...]
    dst: int


def _pattern_mask_value(pattern: str) -> tuple[int, int]:
    """Compile a {0,1,*} pattern into (cared-bit mask, required value).

    The leftmost character is the first edge variable, i.e. bit 0.
    """
    mask = value = 0
    for j, ch in enumerate(pattern):
        if ch == "*":
            continue
        mask |= 1 << j
        if ch == "1":
            value |= 1 << j
    return mask, value


def eval_clock_guard(guard: Iterable[GuardAtom], last_reset: Sequence[float], now: float) -> bool:
    """Conjunction of ``(now - last_reset[c]) op bound`` over the atoms.

    This reads a ``Transition``'s guard as written; ``step`` reads the
    compiled arcs instead, and this stays the reference it is tested against.
    """
    for clock, op, bound in guard:
        if not _OPS[op](now - last_reset[clock], bound):
            return False
    return True


class TimedAutomaton:
    """Parsed automaton plus derived lookup and pruning structures.

    ``early_accept`` holds states from which acceptance can no longer be
    missed: every reachable state (guards ignored) is accepting and covers
    every letter with a guard-free transition, so no run from there can die
    or end badly.  ``early_reject`` holds states from which no accepting
    state is even optimistically reachable.  Both are therefore sound
    under-approximations.  ``reads_clock`` marks each filled entry of the
    move table, ``(state, letter) -> bool``, by whether one of its
    transitions has a guard or a reset, and ``arcs`` holds the entry's
    transitions compiled for ``step``: ``(dst, ((clock, comparator, bound),
    ...), resets)``, in declaration order.  ``idle`` holds the states whose
    moves on the all-zero letter exist, read no clock and are self-loops: an
    empty letter leaves a configuration there unchanged, clocks included,
    so runs resting in idle states may skip empty letters.  ``dead_start``
    is set when the initial state is idle, making idle prefixes skippable.
    """

    def __init__(
        self,
        n_states: int,
        initial: int,
        accepting: Iterable[int],
        n_clocks: int,
        width: int,
        transitions: Iterable[Transition],
    ):
        self.n_states = n_states
        self.initial = initial
        self.accepting = frozenset(accepting)
        self.n_clocks = n_clocks
        self.width = width
        self.transitions = tuple(transitions)
        self._validate()

        # per source state, each transition with its pattern's (mask, value) cube
        self._cubes: list[list[tuple[int, int, Transition]]] = [[] for _ in range(n_states)]
        for tr in self.transitions:
            self._cubes[tr.src].append((*_pattern_mask_value(tr.pattern), tr))
        # the move table, its marks and its arcs, filled together by transitions_from
        self._moves: dict[tuple[int, int], tuple[Transition, ...]] = {}
        self.reads_clock: dict[tuple[int, int], bool] = {}
        self.arcs: dict[tuple[int, int], tuple[Arc, ...]] = {}

        self.early_accept, self.early_reject = classify_states(self)
        self.idle = frozenset(
            s
            for s in range(n_states)
            if (zero := self.transitions_from(s, 0))
            and not self.reads_clock[s, 0]
            and all(tr.dst == s for tr in zero)
        )
        self.dead_start = initial in self.idle

    def _validate(self) -> None:
        if self.n_clocks < 0 or self.width < 0:
            raise FormatError(f"clock count {self.n_clocks} or width {self.width} is negative")
        if not 0 <= self.initial < self.n_states:
            raise FormatError(f"initial state {self.initial} out of range")
        for s in self.accepting:
            if not 0 <= s < self.n_states:
                raise FormatError(f"accepting state {s} out of range")
        for tr in self.transitions:
            if not (0 <= tr.src < self.n_states and 0 <= tr.dst < self.n_states):
                raise FormatError(f"transition {tr} references an unknown state")
            if len(tr.pattern) != self.width or any(c not in "01*" for c in tr.pattern):
                raise FormatError(
                    f"pattern {tr.pattern!r} is not a width-{self.width} string over 0/1/*"
                )
            for clock, op, _bound in tr.guard:
                if not 0 <= clock < self.n_clocks:
                    raise FormatError(f"guard references unknown clock {clock}")
                if op not in _OPS:
                    raise FormatError(f"unknown comparator {op!r}")
            for clock in tr.resets:
                if not 0 <= clock < self.n_clocks:
                    raise FormatError(f"reset references unknown clock {clock}")

    def transitions_from(self, state: int, letter: int) -> tuple[Transition, ...]:
        """The transitions ``state`` enables on ``letter``, in declaration order.

        A first call also fills ``reads_clock[state, letter]``: whether one of
        them has a guard or a reset, that is, whether a move from ``state``
        on ``letter`` reads the time; and ``arcs[state, letter]``, the same
        transitions compiled for ``step``.
        """
        moves = self._moves.get((state, letter))
        if moves is None:
            moves = tuple(tr for mask, value, tr in self._cubes[state] if letter & mask == value)
            self._moves[state, letter] = moves
            self.reads_clock[state, letter] = any(tr.guard or tr.resets for tr in moves)
            self.arcs[state, letter] = tuple(
                (tr.dst, tuple((c, _OPS[op], bound) for c, op, bound in tr.guard), tr.resets)
                for tr in moves
            )
        return moves

    def initial_config(self) -> Config:
        return (self.initial, (0.0,) * self.n_clocks)


def step(ta: TimedAutomaton, configs: Iterable[Config], letter: int, now: float) -> set[Config]:
    """One synchronous move of every configuration on ``letter`` at ``now``.

    Reads the automaton's arcs for each ``(state, letter)``, filling the
    move table on a first visit.  The guard is evaluated against pre-reset
    clock values; clocks in the reset set are then stamped with ``now``.
    An empty result means every run died.
    """
    out: set[Config] = set()
    arcs_of = ta.arcs
    for state, last_reset in configs:
        arcs = arcs_of.get((state, letter))
        if arcs is None:
            ta.transitions_from(state, letter)
            arcs = arcs_of[state, letter]
        for dst, guard, resets in arcs:
            for clock, holds, bound in guard:
                if not holds(now - last_reset[clock], bound):
                    break
            else:
                if resets:
                    stamps = list(last_reset)
                    for clock in resets:
                        stamps[clock] = now
                    out.add((dst, tuple(stamps)))
                else:
                    out.add((dst, last_reset))
    return out


def accepts(ta: TimedAutomaton, word: Sequence[tuple[float, int]]) -> bool:
    """Whether some run over the timed word ends in an accepting state.

    The empty word is accepted exactly when the initial state accepts.
    Timepoints must be positive, finite and strictly increasing, and letters
    fit the automaton's width (``FormatError``).
    """
    configs: set[Config] = {ta.initial_config()}
    prev = 0.0
    for t, letter in word:
        if not prev < t < math.inf:
            raise FormatError(
                f"timepoints must be positive, finite and strictly increasing, got {t} after {prev}"
            )
        if not 0 <= letter < 1 << ta.width:
            raise FormatError(f"letter {letter} does not fit width {ta.width}")
        configs = step(ta, configs, letter, t)
        if not configs:
            return False
        prev = t
    return any(state in ta.accepting for state, _ in configs)


def classify_states(ta: TimedAutomaton) -> tuple[frozenset[int], frozenset[int]]:
    """Early-accept and early-reject state sets, by two reverse searches.

    Reachability ignores guards entirely.  A state is early-reject when no
    accepting state is reachable from it.  It is early-accept when no bad
    state is: one that is not accepting, or that does not cover all
    ``2^width`` letters with guard-free transitions, since there a run
    could still die on a future letter and the matching would wrongly be
    emitted.
    """
    pred: list[set[int]] = [set() for _ in range(ta.n_states)]
    for tr in ta.transitions:
        pred[tr.dst].add(tr.src)

    def reaching(targets: Iterable[int]) -> set[int]:
        seen = set(targets)
        stack = list(seen)
        while stack:
            for q in pred[stack.pop()] - seen:
                seen.add(q)
                stack.append(q)
        return seen

    everything = frozenset(range(ta.n_states))
    bad = everything - {
        s
        for s in ta.accepting
        if _covers_all_letters([(m, v) for m, v, tr in ta._cubes[s] if not tr.guard])
    }
    return everything - reaching(bad), everything - reaching(ta.accepting)


def _covers_all_letters(cubes: list[tuple[int, int]]) -> bool:
    """Whether the (mask, value) cubes together match every letter.

    Splits on one cared bit at a time instead of enumerating letters: a
    cube with no cared bit left matches everything, and no cube matches
    nothing.
    """
    if not cubes:
        return False
    for mask, _value in cubes:
        if not mask:
            return True
    bit = cubes[0][0] & -cubes[0][0]
    return all(
        _covers_all_letters(
            [(m & ~bit, v & ~bit) for m, v in cubes if not m & bit or v & bit == side]
        )
        for side in (0, bit)
    )


# ---------------------------------------------------------------------------
# Parsing


def parse_automaton(text: str, n_edge_vars: int) -> TimedAutomaton:
    """Parse the line-oriented automaton format.

    Directives::

        states <n>
        initial <id>
        accepting <id> [<id> ...]
        clocks <k>
        trans <from> <pattern> <guard> <resets> <to>

    ``pattern`` is a string over ``{0,1,*}`` of width ``n_edge_vars`` (``-``
    for width 0); ``guard`` is ``true`` or ``&``-joined atoms like
    ``c0<3``; ``resets`` is ``-`` or comma-joined clock indices.  Each
    directive but ``trans`` appears at most once; ``states``, ``initial``
    and ``clocks`` take exactly one integer, and ``clocks`` defaults to 0.
    Pattern widths, state ids and clock ids are checked by the
    ``TimedAutomaton`` constructor.
    """
    n_states = initial = None
    accepting: list[int] = []
    declared_clocks = 0
    rows: list[tuple[int, str, str, str, int]] = []
    seen: set[str] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] in seen:
            raise FormatError(f"line {lineno}: repeated directive {parts[0]!r}")
        if parts[0] != "trans":
            seen.add(parts[0])
        try:
            # unpacking raises ValueError on a missing or extra token
            if parts[0] == "states":
                (n_states,) = map(int, parts[1:])
            elif parts[0] == "initial":
                (initial,) = map(int, parts[1:])
            elif parts[0] == "accepting":
                accepting = [int(x) for x in parts[1:]]
            elif parts[0] == "clocks":
                (declared_clocks,) = map(int, parts[1:])
            elif parts[0] == "trans":
                _, src, pattern, guard, resets, dst = parts
                rows.append((int(src), pattern, guard, resets, int(dst)))
            else:
                raise FormatError(f"line {lineno}: unknown directive {parts[0]!r}")
        except (IndexError, ValueError):
            raise FormatError(f"line {lineno}: malformed directive {line!r}") from None

    if n_states is None or initial is None:
        raise FormatError("automaton must declare 'states' and 'initial'")
    if not accepting:
        raise FormatError("automaton must declare at least one accepting state")

    transitions = []
    for src, pattern, guard_text, resets_text, dst in rows:
        if pattern == "-" and n_edge_vars == 0:
            pattern = ""
        transitions.append(
            Transition(src, pattern, _parse_guard(guard_text), _parse_resets(resets_text), dst)
        )

    return TimedAutomaton(n_states, initial, accepting, declared_clocks, n_edge_vars, transitions)


def _parse_guard(text: str) -> tuple[GuardAtom, ...]:
    if text == "true":
        return ()
    atoms = []
    for part in text.split("&"):
        m = re.match(r"^c(\d+)(<=|>=|<|>)(-?\d+(?:\.\d+)?)$", part.strip())
        if not m:
            raise FormatError(f"bad clock guard atom {part!r}")
        atoms.append((int(m.group(1)), m.group(2), float(m.group(3))))
    return tuple(atoms)


def _parse_resets(text: str) -> tuple[int, ...]:
    if text == "-":
        return ()
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise FormatError(f"bad reset list {text!r}") from None


# ---------------------------------------------------------------------------
# Edge-variable orders


class Compatibility(Enum):
    COMPATIBLE = "Compatible"
    INCOMPATIBLE = "Incompatible"
    UNKNOWN = "Unknown"


def _joins(ends: Collection[str], a: str, b: str) -> bool:
    """Whether an edge ``a -> b`` may follow a prefix touching the nodes ``ends``.

    It may when the prefix is empty or the edge shares an endpoint with it.
    """
    return not ends or a in ends or b in ends


def is_connected_order(p: Bgp, order: Sequence[str]) -> bool:
    """Whether every prefix of ``order`` induces a connected subpattern.

    Connectivity is over shared endpoints, undirected, with constants
    counting as vertices.
    """
    order_indices(p, order)  # refuses a non-permutation
    ends: set[str] = set()
    for y in order:
        a, b = p.rho[y]
        if not _joins(ends, a, b):
            return False
        ends.update((a, b))
    return True


def is_compatible_order(ta: TimedAutomaton, order: Sequence[int]) -> Compatibility:
    """Check an edge-variable order against the automaton's language.

    ``order`` lists canonical bit indices, earliest first.  Each pair is
    checked on the clock-relaxed automaton (guards dropped): a word in
    which the later bit first appears strictly before the earlier one and
    which can still reach an accepting state is a counterexample.  The
    relaxation over-approximates the timed language, so with clocks
    present a counterexample only yields ``UNKNOWN``.
    """
    if sorted(order) != list(range(ta.width)):
        raise FormatError(f"order {order!r} is not a permutation of 0..{ta.width - 1}")
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            verdict = _pair_compatibility(ta, order[i], order[j])
            if verdict is not Compatibility.COMPATIBLE:
                return verdict
    return Compatibility.COMPATIBLE


def _pair_compatibility(ta: TimedAutomaton, early: int, late: int) -> Compatibility:
    """The verdict on the pair of bits ``early`` before ``late``.

    Walks ``(state, late seen)`` pairs over the cubes, guards ignored.
    Until ``late`` is seen a cube must leave ``early`` clear; one that sets
    ``late`` marks it seen, and one that leaves it free goes both ways.
    After that, a cube that can set ``early`` into a state outside
    ``early_reject`` is a counterexample.
    """
    me, ml = 1 << early, 1 << late
    start = (ta.initial, False)
    seen = {start}
    stack = [start]
    while stack:
        state, late_seen = stack.pop()
        for mask, value, tr in ta._cubes[state]:
            if late_seen:
                # a cube can set a bit unless it requires the bit clear
                if (value & me or not mask & me) and tr.dst not in ta.early_reject:
                    return Compatibility.UNKNOWN if ta.n_clocks else Compatibility.INCOMPATIBLE
                nexts = (True,)
            elif value & me:
                continue
            else:
                nexts = (bool(value & ml),) if mask & ml else (False, True)
            for nxt in nexts:
                if (tr.dst, nxt) not in seen:
                    seen.add((tr.dst, nxt))
                    stack.append((tr.dst, nxt))
    return Compatibility.COMPATIBLE


def _search_order(p: Bgp, ta: TimedAutomaton) -> tuple[str, ...] | None:
    """The first order, in ``itertools.permutations`` order, that is connected
    and ``Compatible``; ``None`` when there is none.

    Each ordered pair's verdict is computed once.  Prefixes grow
    depth-first in declaration order; a prefix is cut as soon as it is
    disconnected or one of its variables may not precede a variable still
    to be placed, so every pair of a complete order was checked when its
    earlier side was placed.  What can follow a prefix depends only on the
    variables still to be placed, so a set of them that failed once is
    never searched again: at most 2^w sets, O(2^w * w^2) after the w^2
    pair verdicts instead of w! orders.
    """
    n = len(p.edge_vars)
    precedes = [
        [j == k or _pair_compatibility(ta, j, k) is Compatibility.COMPATIBLE for k in range(n)]
        for j in range(n)
    ]
    order: list[int] = []
    failed: set[tuple[int, ...]] = set()  # each ``rest`` with no completion; kept sorted

    def grow(ends: frozenset[str], rest: list[int]) -> bool:
        if not rest:
            return True
        if tuple(rest) in failed:
            return False
        for k in rest:
            a, b = p.rho[p.edge_vars[k]]
            if not _joins(ends, a, b):
                continue  # the prefix would fall apart
            later = [r for r in rest if r != k]
            if all(precedes[k][r] for r in later):
                order.append(k)
                if grow(ends | {a, b}, later):
                    return True
                order.pop()
        failed.add(tuple(rest))
        return False

    return tuple(p.edge_vars[k] for k in order) if grow(frozenset(), list(range(n))) else None

