"""Automaton parsing, letter and guard evaluation, stepping, classification."""

from __future__ import annotations

import pytest

from tempo_bgp import (
    Compatibility,
    FormatError,
    accepts,
    classify_states,
    eval_clock_guard,
    is_compatible_order,
    is_connected_order,
    oracle_word,
    parse_automaton,
    step,
)
from tempo_bgp.rng import SplitMix64
from tempo_bgp.timed_automaton import _OPS, TimedAutomaton, Transition
from tempo_bgp.workbench import shape_bgp
from test_automaton_cubes import random_pattern
from test_engine_parking import random_clocked_automaton, reference_idle


def word_of(interactions, bgp, shape, edges):
    from tempo_bgp import Matching

    p = bgp[shape]
    nodes = []
    for x in p.node_vars:
        vid = None
        for y, eid in zip(p.edge_vars, edges):
            a, b = p.rho[y]
            if a == x:
                vid = interactions.edges[eid].src
            elif b == x:
                vid = interactions.edges[eid].dst
        nodes.append(vid)
    return oracle_word(interactions, p, Matching(tuple(edges), tuple(nodes)))


class TestParse:
    def test_reply_deadline_relation(self, ta):
        a = ta["ta2"]
        assert (a.n_states, a.initial, a.accepting, a.n_clocks) == (2, 0, {0, 1}, 1)
        rows = {
            (tr.src, tr.pattern, tr.guard, tr.resets, tr.dst) for tr in a.transitions
        }
        assert rows == {
            (0, "00", (), (), 0),
            (0, "10", ((0, "<", 3.0),), (0,), 1),
            (1, "01", ((0, "<", 3.0),), (0,), 0),
            (1, "00", (), (), 1),
        }

    def test_single_state_automaton(self, ta):
        a = ta["ta5"]
        assert a.n_states == 1 and a.accepting == {0}
        assert {tr.pattern for tr in a.transitions} == {"00", "11"}

    def test_wrong_width_rejected(self):
        with pytest.raises(FormatError):
            parse_automaton("states 1\ninitial 0\naccepting 0\ntrans 0 0 true - 0\n", 2)

    def test_unknown_clock_rejected(self):
        text = "states 1\ninitial 0\naccepting 0\nclocks 1\ntrans 0 00 c3<1 - 0\n"
        with pytest.raises(FormatError):
            parse_automaton(text, 2)

    def test_missing_accepting_rejected(self):
        with pytest.raises(FormatError):
            parse_automaton("states 1\ninitial 0\ntrans 0 00 true - 0\n", 2)

    def test_clock_count_crosscheck(self, ta):
        from tempo_bgp.fixtures import fixture_path

        text = fixture_path("ta", "ta2.ta").read_text(encoding="utf-8")
        assert parse_automaton(text, 2).n_clocks == 1

    def test_negative_clock_count_rejected(self):
        from tempo_bgp.fixtures import fixture_path

        # accepted, ta1 would answer order [1, 0] with Unknown, not Incompatible
        text = fixture_path("ta", "ta1.ta").read_text(encoding="utf-8")
        assert "clocks 0" in text
        with pytest.raises(FormatError):
            parse_automaton(text.replace("clocks 0", "clocks -1"), 2)

    def test_negative_clock_count_or_width_rejected_on_construction(self):
        with pytest.raises(FormatError):
            TimedAutomaton(1, 0, [0], -1, 1, [Transition(0, "*", (), (), 0)])
        with pytest.raises(FormatError):
            TimedAutomaton(1, 0, [0], 0, -1, [])


def letter_admitted(patterns, letter):
    """Whether a one-state automaton with one self-loop per pattern moves on ``letter``."""
    loops = [Transition(0, pattern, (), (), 0) for pattern in patterns]
    return bool(TimedAutomaton(1, 0, [0], 0, len(patterns[0]), loops).transitions_from(0, letter))


@pytest.mark.parametrize("seed", range(0, 300, 30))
def test_reads_clock_marks_the_moves_a_guard_or_reset_reads(seed):
    # the marks fill with the move table, never ahead of it
    marked = 0
    for ta in (random_clocked_automaton(s) for s in range(seed, seed + 30)):
        assert ta.reads_clock.keys() == ta._moves.keys()
        assert ta.idle == reference_idle(ta)
        for state in range(ta.n_states):
            for letter in range(1 << ta.width):
                enabled = [
                    tr
                    for tr in ta.transitions
                    if tr.src == state and letter_admitted([tr.pattern], letter)
                ]
                assert ta.transitions_from(state, letter) == tuple(enabled)
                want = any(tr.guard or tr.resets for tr in enabled)
                assert ta.reads_clock[state, letter] == want, (seed, state, letter)
                marked += want
        assert ta.reads_clock.keys() == ta._moves.keys()
    assert marked > 0


def random_multiclock_automaton(seed: int) -> TimedAutomaton:
    """Two or three clocks, guards over all four comparators, resets of
    several clocks at once, guards on clocks the same transition resets."""
    rng = SplitMix64(seed)
    n_states, width, n_clocks = rng.randint(1, 4), rng.randint(1, 3), rng.randint(2, 3)
    transitions = []
    for _ in range(rng.randint(2, 12)):
        guard = tuple(
            (rng.randint(0, n_clocks - 1), rng.choice(sorted(_OPS)), float(rng.randint(0, 3)))
            for _ in range(rng.randint(0, 2))
        )
        resets = tuple(sorted({rng.randint(0, n_clocks - 1) for _ in range(rng.randint(0, 3))}))
        src, dst = rng.randint(0, n_states - 1), rng.randint(0, n_states - 1)
        transitions.append(Transition(src, random_pattern(rng, width), guard, resets, dst))
    accepting = {s for s in range(n_states) if rng.random() < 0.5} or {0}
    return TimedAutomaton(n_states, 0, accepting, n_clocks, width, transitions)


def hand_compiled(transitions):
    return tuple(
        (tr.dst, tuple((clock, _OPS[op], bound) for clock, op, bound in tr.guard), tr.resets)
        for tr in transitions
    )


@pytest.mark.parametrize("seed", range(0, 300, 60))
def test_arcs_compile_each_move_table_entry(seed):
    # the arcs fill with the move table and its marks, never ahead of them
    automata = [random_clocked_automaton(s) for s in range(seed, seed + 60)]
    automata += [random_multiclock_automaton(s) for s in range(seed, seed + 60)]
    for ta in automata:
        assert ta.arcs.keys() == ta._moves.keys() == ta.reads_clock.keys()
        for state in range(ta.n_states):
            for letter in range(1 << ta.width):
                ta.transitions_from(state, letter)
        assert ta.arcs.keys() == ta._moves.keys() == ta.reads_clock.keys()
        assert len(ta.arcs) == ta.n_states << ta.width
        for key, moves in ta._moves.items():
            assert ta.arcs[key] == hand_compiled(moves), key


def reference_step(ta: TimedAutomaton, configs, letter: int, now: float) -> set:
    """The stepper as written before the arc table: every ``Transition`` whose
    pattern admits ``letter``, its guard read by ``eval_clock_guard`` on the
    pre-reset stamps."""
    out = set()
    for state, last_reset in configs:
        for tr in ta.transitions:
            if tr.src != state or not letter_admits(tr.pattern, letter):
                continue
            if tr.guard and not eval_clock_guard(tr.guard, last_reset, now):
                continue
            nxt = tuple(now if c in tr.resets else last_reset[c] for c in range(ta.n_clocks))
            out.add((tr.dst, nxt))
    return out


def letter_admits(pattern: str, letter: int) -> bool:
    return all(ch == "*" or int(ch) == letter >> j & 1 for j, ch in enumerate(pattern))


def reference_accepts(ta: TimedAutomaton, word) -> bool:
    configs = {ta.initial_config()}
    for t, letter in word:
        configs = reference_step(ta, configs, letter, t)
        if not configs:
            return False
    return any(state in ta.accepting for state, _ in configs)


@pytest.mark.parametrize("seed", range(0, 400, 50))
def test_step_and_accepts_agree_with_the_reference_stepper(seed):
    rng = SplitMix64(seed)
    at_bound = {op: 0 for op in _OPS}  # guard atoms read exactly at their bound
    stamps = (0.0, 0.5, 1.0, 2.0, 3.5)
    for ta in (random_multiclock_automaton(s) for s in range(seed, seed + 50)):
        for _ in range(30):
            configs = set()
            for _ in range(rng.randint(0, 4)):
                last_reset = tuple(rng.choice(stamps) for _ in range(ta.n_clocks))
                configs.add((rng.randint(0, ta.n_states - 1), last_reset))
            letter = rng.randint(0, (1 << ta.width) - 1)
            # a stamp plus a guard bound, or half a unit either side
            now = rng.choice(stamps) + rng.randint(0, 3) + rng.choice((-0.5, 0.0, 0.5))
            assert step(ta, configs, letter, now) == reference_step(ta, configs, letter, now)
            for state, last_reset in configs:
                for tr in ta.transitions:
                    if tr.src == state and letter_admits(tr.pattern, letter):
                        for clock, op, bound in tr.guard:
                            at_bound[op] += now - last_reset[clock] == bound
        for _ in range(10):
            word, t = [], 0.0
            for _ in range(rng.randint(0, 8)):
                t += rng.choice((0.5, 1.0, 1.5, 2.0, 3.0))
                word.append((t, rng.randint(0, (1 << ta.width) - 1)))
            assert accepts(ta, word) == reference_accepts(ta, word), (word, ta.transitions)
    assert all(at_bound.values()), at_bound


VALID = "states 2\ninitial 0\naccepting 0\nclocks 1\ntrans 0 00 c0<3 0 1\n"


@pytest.mark.parametrize("directive", ["states 2", "initial 1", "clocks 0", "accepting 1"])
def test_repeated_directive_rejected(directive):
    with pytest.raises(FormatError, match=f"line 6: repeated directive '{directive.split()[0]}'"):
        parse_automaton(VALID + directive + "\n", 2)


@pytest.mark.parametrize(
    "text, width",
    [
        (VALID + "frob 1\n", 2),  # unknown directive
        (VALID.replace("states 2", "states two"), 2),  # malformed directive
        (VALID.replace("states 2", "states 2 7"), 2),  # one integer, no more
        (VALID.replace("initial 0", "initial 0 1"), 2),
        (VALID.replace("clocks 1", "clocks 1 9"), 2),
        (VALID.replace("clocks 1", "clocks"), 2),
        (VALID + "trans 0 00 true -\n", 2),  # trans with a field missing
        (VALID.replace("states 2\n", ""), 2),  # no states line
        (VALID.replace("c0<3", "c0!3"), 2),  # bad guard atom
        (VALID.replace("c0<3 0", "c0<3 a,b"), 2),  # bad reset list
        (VALID.replace(" 00 ", " - "), 2),  # '-' is the width-0 pattern only
        ("states 1\ninitial 0\naccepting 0\ntrans 0 0 true - 0\n", 0),
    ],
)
def test_parse_automaton_rejects(text, width):
    with pytest.raises(FormatError):
        parse_automaton(text, width)


def test_dash_is_the_width_0_pattern():
    a = parse_automaton("states 1\ninitial 0\naccepting 0\ntrans 0 - true - 0\n", 0)
    assert [tr.pattern for tr in a.transitions] == [""]


@pytest.mark.parametrize(
    "initial, accepting, transition",
    [
        (2, [0], Transition(0, "0", (), (), 0)),  # initial state
        (0, [-1], Transition(0, "0", (), (), 0)),  # accepting state
        (0, [0], Transition(0, "0", (), (), 2)),  # transition target
        (0, [0], Transition(3, "0", (), (), 0)),  # transition source
        (0, [0], Transition(0, "0", ((0, "!=", 1.0),), (), 0)),  # comparator
        (0, [0], Transition(0, "0", (), (1,), 0)),  # reset clock
    ],
)
def test_timed_automaton_rejects(initial, accepting, transition):
    with pytest.raises(FormatError):
        TimedAutomaton(2, initial, accepting, 1, 1, [transition])


class TestEvalLetter:
    def test_exact(self):
        assert letter_admitted(["10"], 0b01)  # leftmost char is bit 0
        assert not letter_admitted(["10"], 0b10)

    def test_wildcard(self):
        assert letter_admitted(["*1"], 0b10)
        assert not letter_admitted(["*1"], 0b01)

    def test_pattern_list_exclusion(self, ta):
        loop = [tr.pattern for tr in ta["ta6"].transitions]
        assert sorted(loop) == ["00", "01", "10"]
        assert not letter_admitted(loop, 0b11)
        assert letter_admitted(loop, 0b00)


class TestEvalClockGuard:
    def test_satisfied(self):
        assert eval_clock_guard(((0, "<", 3.0),), (1.0,), 2.0)

    def test_empty_guard(self):
        assert eval_clock_guard((), (), 5.0)

    def test_strict_boundary(self):
        assert not eval_clock_guard(((0, ">", 3.0),), (0.0,), 3.0)
        assert eval_clock_guard(((0, ">=", 3.0),), (0.0,), 3.0)


class TestStep:
    def test_reset_stamps_now(self, ta):
        got = step(ta["ta2"], {(0, (0.0,))}, 0b01, 1.0)
        assert got == {(1, (1.0,))}

    def test_no_transition_kills_run(self, ta):
        assert step(ta["ta1"], {(1, ())}, 0b01, 2.0) == set()

    def test_empty_configs(self, ta):
        assert step(ta["ta1"], set(), 0b00, 1.0) == set()

    def test_guard_blocks(self, ta):
        # too late for the reply deadline
        assert step(ta["ta2"], {(0, (0.0,))}, 0b01, 5.0) == set()

    def test_monotone_in_configs(self, ta):
        a = ta["ta2"]
        small = {(0, (0.0,))}
        large = {(0, (0.0,)), (1, (0.5,))}
        for letter in range(4):
            assert step(a, small, letter, 2.0) <= step(a, large, letter, 2.0)


class TestAccepts:
    def test_alternation_on_example_graph(self, interactions, bgp, ta):
        assert accepts(ta["ta1"], word_of(interactions, bgp, "cycle2", ("e5", "e6")))
        assert not accepts(ta["ta1"], word_of(interactions, bgp, "cycle2", ("e8", "e9")))

    def test_long_overlap_required(self, interactions, bgp, ta):
        w = word_of(interactions, bgp, "office", ("e11", "e12"))
        assert not accepts(ta["ta7"], w)
        assert accepts(ta["ta6"], w)

    def test_empty_word(self, ta):
        assert accepts(ta["ta1"], [])
        assert not accepts(ta["ta3"], [])

    def test_nonincreasing_time_rejected(self, ta):
        with pytest.raises(FormatError):
            accepts(ta["ta1"], [(1.0, 0), (1.0, 0)])
        # NaN compares false both ways, so it must not slip past the check
        nan = float("nan")
        assert accepts(ta["ta2"], [(1.0, 0b01)])
        with pytest.raises(FormatError):
            accepts(ta["ta2"], [(nan, 0b01)])
        with pytest.raises(FormatError):
            accepts(ta["ta2"], [(1.0, 0b01), (nan, 0b10), (3.0, 0b01)])
        # an infinite timepoint is no point of a temporal domain
        inf = float("inf")
        assert accepts(ta["ta7"], [(1.0, 0b11), (5.0, 0b11)])
        with pytest.raises(FormatError, match="finite"):
            accepts(ta["ta7"], [(1.0, 0b11), (inf, 0b11)])
        with pytest.raises(FormatError):
            accepts(ta["ta7"], [(inf, 0b11)])

    @pytest.mark.parametrize("letter", [0b100, -1, 1 << 40])
    def test_letter_outside_the_width_rejected(self, ta, letter):
        # bit 2 of a width-2 letter binds no edge variable
        assert accepts(ta["ta1"], [(1.0, 0b01)])
        with pytest.raises(FormatError, match="width 2"):
            accepts(ta["ta1"], [(1.0, letter)])


class TestClassify:
    def test_absorbing_accepting_sink(self, ta):
        ea, er = classify_states(ta["ta3"])
        assert ea == {2}
        assert er == frozenset()

    def test_alternation_has_no_early_exit(self, ta):
        # both states accept and reach each other, but the automaton can
        # die on letters it does not cover, so neither state is safe to
        # emit from early
        ea, er = classify_states(ta["ta1"])
        assert ea == frozenset()
        assert er == frozenset()

    def test_non_accepting_sink_rejects_early(self):
        a = TimedAutomaton(
            2, 0, [0], 0, 1, [Transition(0, "0", (), (), 0), Transition(0, "1", (), (), 1)]
        )
        assert a.early_reject == {1}
        assert a.early_accept == frozenset()

    def test_soundness_exhaustive_short_words(self, ta):
        # a config in early_accept accepts every continuation; one in
        # early_reject accepts none (checked over all two-letter suffixes)
        for name in ("ta1", "ta3", "ta5", "ta7", "ta8", "tae", "ta4", "ta0_m3"):
            a = ta[name]
            n_letters = 1 << a.width
            suffixes = [
                [(10.0, l1), (11.0, l2)]
                for l1 in range(n_letters)
                for l2 in range(n_letters)
            ]
            for state in range(a.n_states):
                shifted = TimedAutomaton(
                    a.n_states, state, a.accepting, a.n_clocks, a.width, a.transitions
                )
                outcomes = {accepts(shifted, w) for w in suffixes}
                if state in a.early_accept:
                    assert outcomes == {True}
                if state in a.early_reject:
                    assert outcomes == {False}

    def test_dead_start_flags(self, ta):
        assert all(ta[name].dead_start for name in ta)
        # a 00-transition that moves elsewhere disables the flag
        a = TimedAutomaton(
            2,
            0,
            [0, 1],
            0,
            2,
            [
                Transition(0, "00", (), (), 0),
                Transition(0, "**", (), (), 1),
                Transition(1, "**", (), (), 1),
            ],
        )
        assert not a.dead_start


class TestOrders:
    def test_connected(self, bgp):
        p = bgp["path3"]
        assert is_connected_order(p, ("y1", "y2", "y3"))
        assert not is_connected_order(p, ("y1", "y3", "y2"))
        single = shape_bgp("cycle2")
        assert is_connected_order(single, ("y2", "y1"))

    def test_single_edge_any_order(self):
        from tempo_bgp import parse_bgp

        p = parse_bgp("node a\nnode b\nedge y1 : a -> b\n")
        assert is_connected_order(p, ("y1",))

    def test_not_a_permutation(self, bgp):
        with pytest.raises(FormatError):
            is_connected_order(bgp["path3"], ("y1", "y2"))

    def test_compatibility(self, ta):
        assert is_compatible_order(ta["ta3"], [0, 1]) is Compatibility.COMPATIBLE
        assert is_compatible_order(ta["ta3"], [1, 0]) is Compatibility.INCOMPATIBLE
        assert is_compatible_order(ta["ta1"], [1, 0]) is Compatibility.INCOMPATIBLE
        assert is_compatible_order(ta["ta1"], [0, 1]) is Compatibility.COMPATIBLE
        assert is_compatible_order(ta["ta4"], [0, 1, 2]) is Compatibility.COMPATIBLE

    def test_clocks_give_unknown(self, ta):
        assert is_compatible_order(ta["ta2"], [1, 0]) is Compatibility.UNKNOWN
        assert is_compatible_order(ta["ta2"], [0, 1]) is Compatibility.COMPATIBLE

    @pytest.mark.parametrize("order", [[0], [0, 0], [1, 2], [0, 1, 2]])
    def test_compatibility_needs_a_permutation(self, ta, order):
        with pytest.raises(FormatError, match="not a permutation"):
            is_compatible_order(ta["ta1"], order)

    def test_zero_width_vacuous(self):
        a = TimedAutomaton(1, 0, [0], 0, 0, [Transition(0, "", (), (), 0)])
        assert is_compatible_order(a, []) is Compatibility.COMPATIBLE
