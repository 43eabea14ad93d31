"""Moves: the stepping core steps each distinct (configurations, letter) once.

``_Core.move`` is the one move lookup for every class of rows the core
steps, and a live row's letter is read from per-slot bitsets, never row by
row.  A move that reads no clock is kept in the table ``(configs, letter)
-> move`` for the whole run, clocked automaton or not; one whose states
enable a guarded or resetting transition on its letter holds only at its
own timepoint, since guards and resets read the time, so it is made afresh
and never kept.
What a move cannot know stays per row: a partial matching touching an
early-accept state is filtered, never accepted.
"""

from __future__ import annotations

import pytest

import tempo_bgp.engine as engine_module
from tempo_bgp import (
    Trace,
    build_graph,
    oracle_accepted_matchings,
    parse_bgp,
    run_baseline,
    run_on_demand,
    run_partial_match,
    step,
)
from tempo_bgp.fixtures import load_ta
from tempo_bgp.timed_automaton import TimedAutomaton, Transition
from tempo_bgp.workbench import GenSpec, generate_graph, shape_bgp

ENGINES = {
    "baseline": run_baseline,
    "on-demand": run_on_demand,
    "partial": run_partial_match,
}


# -- a machine-independent guard: equal moves are stepped once ---------------


@pytest.mark.parametrize("name", sorted(ENGINES))
@pytest.mark.parametrize(
    "spec, shape, automaton",
    [
        (GenSpec(10, 0.5, 0.3, 100, seed=7), "path2", "ta7"),  # one clock
        (GenSpec(12, 0.5, 0.5, 15, seed=1), "cycle4", "ta0_m4"),  # clockless
    ],
    ids=["clocked", "clockless"],
)
def test_equal_moves_are_stepped_once(name, spec, shape, automaton, monkeypatch):
    g, p, ta = generate_graph(spec), shape_bgp(shape), load_ta(automaton)
    calls = [0]

    def counting_step(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(engine_module, "step", counting_step)
    res = ENGINES[name](g, p, ta)
    assert res.counters.rows > 1000
    assert calls[0] <= res.counters.rows / 10, (calls[0], res.counters.rows)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_letters_are_read_once_per_entering_row(name, traced, monkeypatch):
    # a row that survives its first step becomes a bit position, and a tick
    # reads the letters of whole groups from per-slot bitsets; only an
    # entering row's first step, taken in the matcher's leaf, computes a
    # letter of its own, to look its class up in the fate table (partial's
    # empty row may be one more)
    g = generate_graph(GenSpec(10, 0.5, 0.3, 100, seed=7))
    p, ta = shape_bgp("path2"), load_ta("ta7")
    calls = [0]

    class CountingFate(engine_module._Fate):
        def __getitem__(self, key):
            calls[0] += 1
            return super().__getitem__(key)

    monkeypatch.setattr(engine_module, "_Fate", CountingFate)
    res = ENGINES[name](g, p, ta, trace=Trace() if traced else None)
    assert res.counters.rows > 1000
    assert calls[0] <= res.counters.generated + (name == "partial"), (calls[0], res.counters)


# -- the table's scope --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(ENGINES))
@pytest.mark.parametrize(
    "spec, shape, automaton",
    [
        (GenSpec(10, 0.5, 0.3, 100, seed=7), "path2", "ta7"),  # one clock
        (GenSpec(12, 0.5, 0.5, 15, seed=1), "cycle4", "ta0_m4"),  # clockless
    ],
    ids=["clocked", "clockless"],
)
def test_a_move_is_tabled_exactly_when_it_reads_no_clock(name, spec, shape, automaton, monkeypatch):
    g, p, ta = generate_graph(spec), shape_bgp(shape), load_ta(automaton)
    cores, made = [], []  # made: the (configs, letter) of every move made afresh

    def counting_step(ta, configs, letter, t):
        made.append((configs, letter))
        return step(ta, configs, letter, t)

    class FinishedCore(engine_module._Core):
        def finish(self, t):
            cores.append(self)
            return super().finish(t)

    monkeypatch.setattr(engine_module, "step", counting_step)
    monkeypatch.setattr(engine_module, "_Core", FinishedCore)
    ENGINES[name](g, p, ta)
    [core] = cores
    assert made
    timeless = [
        (configs, letter)
        for configs, letter in made
        if not any(ta.reads_clock[s, letter] for s, _ in configs)
    ]
    # a move that reads no clock is made once and kept; one that does is never kept
    assert len(timeless) == len(set(timeless)) == len(core.moves), (len(timeless), len(core.moves))
    assert set(timeless) == set(core.moves)
    if ta.n_clocks:
        assert core.moves and len(made) > len(core.moves), (len(made), len(core.moves))
    else:
        assert len(core.moves) == len(made), (len(core.moves), len(made))


# one edge variable: a second activation within 2 units of the first
# accepts, a later one kills the run
WITHIN2 = TimedAutomaton(
    3,
    0,
    [2],
    1,
    1,
    [
        Transition(0, "0", (), (), 0),
        Transition(0, "1", (), (0,), 1),
        Transition(1, "0", (), (), 1),
        Transition(1, "1", ((0, "<", 2.0),), (), 2),
        Transition(2, "*", (), (), 2),
    ],
)
# both edges start at t=1, so their rows hold equal sets at t=2 and t=4,
# where each reads its second activation
WITHIN2_GRAPH = {
    "nodes": {"a": "n", "b": "n"},
    "edges": {"e1": ("a", "b", "e"), "e2": ("b", "a", "e")},
    "active": {"e1": [1.0, 2.0], "e2": [1.0, 4.0]},
}
ONE_EDGE = "node x1\nnode x2\nedge y1 : x1 -> x2\n"


@pytest.mark.parametrize("name", sorted(ENGINES))
@pytest.mark.parametrize("early_exit", [True, False])
def test_a_clocked_move_is_not_reused_at_a_later_tick(name, early_exit):
    g, p = build_graph(**WITHIN2_GRAPH), parse_bgp(ONE_EDGE)
    trace = Trace()
    res = ENGINES[name](g, p, WITHIN2, early_exit=early_exit, trace=trace)
    untraced = ENGINES[name](g, p, WITHIN2, early_exit=early_exit)
    assert res.accepted == untraced.accepted
    assert [m.edges for m in res.accepted_set] == [("e1",)]
    assert res.accepted[0][1] == (2.0 if early_exit else 4.0)
    held = {r.matching.edges: r.configs for r in trace.rows if r.t == 2.0}
    assert held[("e2",)] == ((1, (1.0,)),)  # the set e1 read its letter 1 from at t=2
    late = [r for r in trace.rows if r.t == 4.0 and r.matching.edges == ("e2",)]
    assert [(r.letter, r.configs, r.status) for r in late] == [(1, (), "dropped")]


# path2 reading y1 only: a second y1 activation within 2 units of the first
# accepts, a later one kills the run
Y1_WITHIN2 = TimedAutomaton(
    3,
    0,
    [2],
    1,
    2,
    [
        Transition(0, "0*", (), (), 0),
        Transition(0, "1*", (), (0,), 1),
        Transition(1, "0*", (), (), 1),
        Transition(1, "1*", ((0, "<", 2.0),), (), 2),
        Transition(2, "**", (), (), 2),
    ],
)
# y1 is e1 or e3 (both a -> b, first active at t=1), y2 is e2 or e4.  The
# main core steps (e1, e2) from {(1, (1.0,))} on letter 01 at t=4 and
# drops it; at t=5 e4 arrives and the catch-up walk steps (e3, e4) from
# the same set on the same letter at t=2, which accepts: the move made at
# t=4 must not stand for the one at t=2
Y1_WITHIN2_GRAPH = {
    "nodes": {"a": "n", "b": "n", "c": "n"},
    "edges": {
        "e1": ("a", "b", "e"),
        "e2": ("b", "c", "e"),
        "e3": ("a", "b", "e"),
        "e4": ("b", "c", "e"),
    },
    "active": {"e1": [1.0, 4.0], "e2": [3.0], "e3": [1.0, 2.0], "e4": [5.0]},
}


@pytest.mark.parametrize("early_exit", [True, False])
def test_catch_up_does_not_reuse_the_main_cores_clocked_move(early_exit):
    g, p = build_graph(**Y1_WITHIN2_GRAPH), shape_bgp("path2")
    trace = Trace()
    res = run_on_demand(g, p, Y1_WITHIN2, early_exit=early_exit, trace=trace)
    main = [r for r in trace.rows if r.t == 4.0 and r.matching.edges == ("e1", "e2")]
    assert [(r.letter, r.configs, r.status) for r in main] == [(1, (), "dropped")]
    caught_up = {e.matching.edges: e for e in trace.events}[("e3", "e4")]
    assert (caught_up.discovered_at, caught_up.eliminated_at) == (5.0, None)
    assert caught_up.configs == ((2, (1.0,)),)
    # acceptances in catch-up carry the discovery time
    at = {("e3", "e2"): 3.0 if early_exit else 5.0, ("e3", "e4"): 5.0}
    assert {m.edges: t for m, t in res.accepted} == at
    assert res.accepted_set == set(oracle_accepted_matchings(g, p, Y1_WITHIN2))
    assert res.accepted == run_on_demand(g, p, Y1_WITHIN2, early_exit=early_exit).accepted


# y1 active moves the initial state to accepting state 1, which is early
# accept, and to state 3, which is early reject; y2 is never read
ACCEPT_ON_Y1 = TimedAutomaton(
    4,
    0,
    [1],
    0,
    2,
    [
        Transition(0, "0*", (), (), 0),
        Transition(0, "1*", (), (), 1),
        Transition(0, "1*", (), (), 3),
        Transition(1, "**", (), (), 1),
        Transition(3, "**", (), (), 3),
    ],
)
# path2 y1 : x1 -> x2, y2 : x2 -> x3.  At t=2 the partial row y1=e1 and the
# total row y1=e1, y2=e2 both enter holding {(0, ())} and read y1 active
ACCEPT_ON_Y1_GRAPH = {
    "nodes": {"a": "n", "b": "n", "c": "n"},
    "edges": {"e1": ("a", "b", "e"), "e2": ("b", "c", "e"), "e3": ("c", "a", "e")},
    "active": {"e1": [2.0], "e2": [1.0], "e3": [3.0]},
}


def test_acceptance_stays_per_row():
    assert ACCEPT_ON_Y1.early_accept == {1} and 3 in ACCEPT_ON_Y1.early_reject
    g, p = build_graph(**ACCEPT_ON_Y1_GRAPH), shape_bgp("path2")
    trace = Trace()
    res = run_partial_match(g, p, ACCEPT_ON_Y1, trace=trace)
    at2 = {r.matching.edges: r for r in trace.rows if r.t == 2.0}
    partial, total = at2[("e1", None)], at2[("e1", "e2")]
    assert (partial.letter, total.letter) == (1, 1)
    # the total row is accepted with the stepped set, the partial row
    # lives on with the set early exit keeps
    assert (total.status, total.configs) == ("accepted", ((1, ()), (3, ())))
    assert (partial.status, partial.configs) == ("alive", ((1, ()),))
    assert all(m.is_total() for m in res.accepted_set)
    assert {m.edges: t for m, t in res.accepted} == {
        ("e1", "e2"): 2.0,
        ("e2", "e3"): 3.0,
        ("e3", "e1"): 3.0,
    }
    assert res.accepted == run_partial_match(g, p, ACCEPT_ON_Y1).accepted


@pytest.mark.parametrize("name", sorted(ENGINES))
@pytest.mark.parametrize("early_exit", [True, False])
@pytest.mark.parametrize("case", ["within2", "accept-on-y1"])
def test_the_hand_built_cases_agree_with_the_oracle(name, early_exit, case):
    if case == "within2":
        g, p, ta = build_graph(**WITHIN2_GRAPH), parse_bgp(ONE_EDGE), WITHIN2
    else:
        g, p, ta = build_graph(**ACCEPT_ON_Y1_GRAPH), shape_bgp("path2"), ACCEPT_ON_Y1
    res = ENGINES[name](g, p, ta, early_exit=early_exit)
    assert res.accepted_set == set(oracle_accepted_matchings(g, p, ta))
