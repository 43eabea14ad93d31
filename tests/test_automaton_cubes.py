"""The cube-based automaton analyses against letter-enumerating references.

``classify_states`` and ``is_compatible_order`` reason over transition
cubes instead of the ``2^width`` letters, and ``transitions_from`` fills
its move table one ``(state, letter)`` at a time; the references below
enumerate letters and so only run at small widths.
"""

from __future__ import annotations

from itertools import permutations

import pytest

from tempo_bgp import Compatibility, accepts, classify_states, is_compatible_order
from tempo_bgp.fixtures import TA_WIDTHS, load_ta
from tempo_bgp.rng import SplitMix64
from tempo_bgp.timed_automaton import TimedAutomaton, Transition, _pattern_mask_value
from tempo_bgp.workbench import ring_automaton


def reference_classify(ta: TimedAutomaton):
    succ = {s: {tr.dst for tr in ta.transitions if tr.src == s} for s in range(ta.n_states)}
    reach = {}
    for s in range(ta.n_states):
        seen, stack = {s}, [s]
        while stack:
            for r in succ[stack.pop()] - seen:
                seen.add(r)
                stack.append(r)
        reach[s] = seen

    def letter_total(state):
        free = [
            _pattern_mask_value(tr.pattern)
            for tr in ta.transitions
            if tr.src == state and not tr.guard
        ]
        return all(
            any(letter & mask == value for mask, value in free) for letter in range(1 << ta.width)
        )

    total = {s: letter_total(s) for s in range(ta.n_states)}
    early_accept = frozenset(
        s for s in range(ta.n_states) if all(q in ta.accepting and total[q] for q in reach[s])
    )
    early_reject = frozenset(s for s in range(ta.n_states) if not reach[s] & ta.accepting)
    return early_accept, early_reject


def first_appearance_nfa(bit_early: int, bit_late: int):
    """Three-state recognizer of words where ``late`` strictly precedes ``early``.

    Transitions are (state, mask, value, next): state 0 loops while neither
    bit is set, moves on when the late bit fires alone, state 1 waits for
    the early bit, state 2 absorbs.  Accepting state is 2.
    """
    me, ml = 1 << bit_early, 1 << bit_late
    return [
        (0, me | ml, 0, 0),
        (0, me | ml, ml, 1),
        (1, 0, 0, 1),
        (1, me, me, 2),
        (2, 0, 0, 2),
    ]


def reference_compatible(ta: TimedAutomaton, order) -> Compatibility:
    # the product of the letter-enumerated automaton and the recognizer
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            nfa = first_appearance_nfa(order[i], order[j])
            start = (ta.initial, 0)
            seen, stack = {start}, [start]
            while stack:
                s_ta, s_nfa = stack.pop()
                for letter in range(1 << ta.width):
                    for tr in ta.transitions_from(s_ta, letter):
                        for src, mask, value, r in nfa:
                            if src != s_nfa or letter & mask != value:
                                continue
                            if tr.dst in ta.accepting and r == 2:
                                if ta.n_clocks:
                                    return Compatibility.UNKNOWN
                                return Compatibility.INCOMPATIBLE
                            if (tr.dst, r) not in seen:
                                seen.add((tr.dst, r))
                                stack.append((tr.dst, r))
    return Compatibility.COMPATIBLE


def random_pattern(rng: SplitMix64, width: int) -> str:
    return "".join(rng.choice("01**") for _ in range(width))


def random_automaton(seed: int) -> TimedAutomaton:
    rng = SplitMix64(seed)
    n_states = rng.randint(1, 4)
    width = rng.randint(1, 4)
    n_clocks = rng.randint(0, 1)
    transitions = []
    for _ in range(rng.randint(1, 8)):
        guard = ((0, "<", 2.0),) if n_clocks and rng.random() < 0.3 else ()
        transitions.append(
            Transition(
                rng.randint(0, n_states - 1),
                random_pattern(rng, width),
                guard,
                (),
                rng.randint(0, n_states - 1),
            )
        )
    accepting = {s for s in range(n_states) if rng.random() < 0.5} or {n_states - 1}
    initial = rng.randint(0, n_states - 1)
    return TimedAutomaton(n_states, initial, accepting, n_clocks, width, transitions)


def automata():
    for name in TA_WIDTHS:
        yield name, load_ta(name)
    for m in range(1, 6):
        yield f"ring{m}", ring_automaton(m)
        yield f"ring{m}x2c1", ring_automaton(m, laps=2, n_clocks=1)
    for seed in range(400):
        yield f"random{seed}", random_automaton(seed)


def orders(width: int, rng: SplitMix64):
    if width <= 4:
        return list(permutations(range(width)))
    shuffled = list(range(width))
    for i in range(width - 1, 0, -1):
        k = rng.randint(0, i)
        shuffled[i], shuffled[k] = shuffled[k], shuffled[i]
    return [tuple(range(width)), tuple(reversed(range(width))), tuple(shuffled)]


def reference_transitions(ta: TimedAutomaton, state: int, letter: int):
    out = []
    for tr in ta.transitions:
        mask, value = _pattern_mask_value(tr.pattern)
        if tr.src == state and letter & mask == value:
            out.append(tr)
    return tuple(out)


def test_transitions_from_agrees_with_a_scan():
    for name, ta in automata():
        for state in range(ta.n_states):
            for letter in range(1 << ta.width):
                want = reference_transitions(ta, state, letter)
                assert ta.transitions_from(state, letter) == want, (name, state, letter)
                # the second answer comes from the move table
                assert ta.transitions_from(state, letter) == want, (name, state, letter)


def test_classify_states_agrees_with_letter_enumeration():
    for name, ta in automata():
        assert classify_states(ta) == reference_classify(ta), name


def test_compatible_order_agrees_with_letter_enumeration():
    rng = SplitMix64(7)
    verdicts = set()
    for name, ta in automata():
        for order in orders(ta.width, rng):
            got = is_compatible_order(ta, order)
            assert got is reference_compatible(ta, order), (name, order)
            verdicts.add(got)
    assert verdicts == set(Compatibility)


@pytest.mark.parametrize("seed", range(10))
def test_letter_totality_of_random_cube_sets(seed):
    # One accepting state whose guard-free self-loops are a random cube set:
    # it is early-accept exactly when the cubes cover every letter.
    rng = SplitMix64(1000 + seed)
    for _ in range(50):
        width = rng.randint(1, 6)
        loops = [
            Transition(0, random_pattern(rng, width), (), (), 0) for _ in range(rng.randint(1, 6))
        ]
        ta = TimedAutomaton(1, 0, [0], 0, width, loops)
        assert ta.early_accept == reference_classify(ta)[0]


def test_width_24_automata_construct_and_answer():
    wide = 24
    anything = TimedAutomaton(1, 0, [0], 0, wide, [Transition(0, "*" * wide, (), (), 0)])
    assert anything.early_accept == {0}
    assert is_compatible_order(anything, list(range(wide))) is Compatibility.INCOMPATIBLE
    ring = ring_automaton(wide)
    assert ring.early_accept == frozenset()
    assert is_compatible_order(ring, list(range(wide))) is Compatibility.COMPATIBLE
    assert is_compatible_order(ring, list(reversed(range(wide)))) is Compatibility.INCOMPATIBLE
    # one lap through the ring, an idle letter between edges, accepts; any
    # word is accepted by the automaton that reads everything
    lap = [(float(2 * j + 1), 1 << j) for j in range(wide)]
    lap += [(float(2 * j + 2), 0) for j in range(wide)]
    lap.sort()
    assert accepts(ring, lap)
    assert not accepts(ring, [(1.0, 1 << (wide - 1))])
    rng = SplitMix64(24)
    noise = [(float(t), rng.randint(0, (1 << wide) - 1)) for t in range(1, 50)]
    assert accepts(anything, noise)
    # only the (state, letter) pairs actually read, the zero letters that
    # idle reads included, are in the move tables and their arcs
    assert len(anything._moves) <= len(noise) + 1
    assert len(ring._moves) <= 2 * wide + 1
    assert anything.arcs.keys() == anything._moves.keys()
    assert ring.arcs.keys() == ring._moves.keys()
