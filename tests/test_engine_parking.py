"""Idle rows: the stepping core skips work an empty letter cannot change.

An empty letter leaves configurations in ``TimedAutomaton.idle`` as they
are.  The core moves a whole group of such rows with one lookup, and a
tick on which every group rests and no row binds an edge of the snapshot
only counts.  The skip must be exact: a baseline run without early exit
or deferred start must count the rows and rejections the oracle's run,
which steps every letter, implies.  Traced and untraced runs take the
same stepping path, and must agree on every result and counter.
"""

from __future__ import annotations

import pytest

import tempo_bgp.engine as engine_module
from tempo_bgp import (
    Trace,
    build_graph,
    oracle_accepted_matchings,
    oracle_match,
    oracle_run,
    oracle_word,
    run_baseline,
    run_on_demand,
    run_partial_match,
    step,
)
from tempo_bgp.fixtures import TA_WIDTHS, load_ta
from tempo_bgp.rng import SplitMix64
from tempo_bgp.timed_automaton import TimedAutomaton, Transition
from tempo_bgp.workbench import GenSpec, generate_graph, ring_automaton, shape_bgp
from test_automaton_cubes import automata, random_pattern


def random_clocked_automaton(seed: int) -> TimedAutomaton:
    """Small automaton with guards and resets, so idle's exclusions get exercised."""
    rng = SplitMix64(seed)
    n_states = rng.randint(1, 4)
    width = rng.randint(1, 3)
    n_clocks = rng.randint(0, 2)
    transitions = []
    for _ in range(rng.randint(1, 10)):
        src = rng.randint(0, n_states - 1)
        dst = src if rng.random() < 0.5 else rng.randint(0, n_states - 1)
        clock = rng.randint(0, n_clocks - 1) if n_clocks else None
        guard = ((clock, ">", 1.0),) if n_clocks and rng.random() < 0.2 else ()
        resets = (clock,) if n_clocks and rng.random() < 0.2 else ()
        pattern = "0" * width if rng.random() < 0.4 else random_pattern(rng, width)
        transitions.append(Transition(src, pattern, guard, resets, dst))
    accepting = {s for s in range(n_states) if rng.random() < 0.5} or {0}
    return TimedAutomaton(n_states, 0, accepting, n_clocks, width, transitions)


def all_automata():
    yield from automata()
    for seed in range(300):
        yield f"clocked{seed}", random_clocked_automaton(seed)


def reference_idle(ta: TimedAutomaton) -> frozenset[int]:
    """Read off the transition list, not the move table."""
    out = set()
    for s in range(ta.n_states):
        zero = [tr for tr in ta.transitions if tr.src == s and "1" not in tr.pattern]
        if zero and all(tr.dst == s and not tr.guard and not tr.resets for tr in zero):
            out.add(s)
    return frozenset(out)


def test_an_empty_letter_leaves_idle_configurations_unchanged():
    rng = SplitMix64(2024)
    n_idle = 0
    for name, ta in all_automata():
        assert ta.idle == reference_idle(ta), name
        assert ta.dead_start == (ta.initial in ta.idle), name
        for s in ta.idle:
            n_idle += 1
            for _ in range(3):
                last_reset = tuple(float(rng.randint(0, 50)) for _ in range(ta.n_clocks))
                now = max(last_reset, default=0.0) + rng.random() * 10
                assert step(ta, {(s, last_reset)}, 0, now) == {(s, last_reset)}, (name, s)
    assert n_idle > 300


def test_a_guarded_zero_letter_move_is_not_idle():
    ta7 = load_ta("ta7")
    # state 1 leaves on any letter once c0>3, so an empty letter can move it
    assert ta7.idle == {0, 2}
    stay = (1, (0.0,))
    assert step(ta7, {stay}, 0, 5.0) == {(2, (0.0,))}


# -- skipping against the oracle, and traced against untraced ---------------


def self_loop_graph(seed: int, n_snapshots: int = 30):
    """A sparse graph with self-loops, so homomorphic matchings bind one edge twice."""
    rng = SplitMix64(seed)
    nodes = {f"v{i}": "n" for i in range(5)}
    edges, active = {}, {}
    for i in range(9):
        u = rng.randint(0, 4)
        v = u if i < 2 else rng.randint(0, 4)
        edges[f"e{i}"] = (f"v{u}", f"v{v}", "e")
        times = [float(t) for t in range(1, n_snapshots + 1) if rng.random() < 0.08]
        active[f"e{i}"] = times or [float(rng.randint(1, n_snapshots))]
    return build_graph(nodes, edges, active)


GRAPHS = {
    "sparse-0.01": lambda: generate_graph(GenSpec(7, 0.5, 0.01, 200, seed=3)),
    "sparse-0.05": lambda: generate_graph(GenSpec(6, 0.5, 0.05, 60, seed=4)),
    "sparse-0.1": lambda: generate_graph(GenSpec(5, 0.6, 0.1, 40, seed=5)),
    "self-loops": lambda: self_loop_graph(6),
}
# every fixture (ta7's state 1 is not idle), plus a one-clock ring
AUTOMATA = {name: lambda name=name: load_ta(name) for name in TA_WIDTHS}
AUTOMATA["ring2c1"] = lambda: ring_automaton(2, n_clocks=1)
SHAPES = {2: ("path2", "cycle2"), 3: ("path3",), 4: ("cycle4",)}
ENGINES = {
    "baseline": lambda g, p, a, **kw: run_baseline(g, p, a, **kw),
    "on-demand": lambda g, p, a, **kw: run_on_demand(g, p, a, **kw),
    "partial": lambda g, p, a, defer_start, **kw: run_partial_match(g, p, a, **kw),
}


def outcome(res):
    c = res.counters
    return res.accepted, (c.rows, c.generated, c.early_rejected, c.warnings)


def oracle_counters(g, p, ta, distinct_edges):
    """``(rows, generated, early_rejected)`` of a baseline run with neither
    early exit nor deferred start: each matching steps every configuration
    it holds at every letter, until its set empties."""
    matchings = oracle_match(g, p, distinct_edges=distinct_edges)
    rows = rejected = 0
    for m in matchings:
        history = oracle_run(ta, oracle_word(g, p, m))
        for configs in history[:-1]:
            if not configs:
                break
            rows += len(configs)
        rejected += not all(history)
    return rows, len(matchings), rejected


@pytest.mark.parametrize("graph", sorted(GRAPHS))
@pytest.mark.parametrize("automaton", sorted(AUTOMATA))
def test_parking_changes_no_result_or_counter(graph, automaton):
    g, ta = GRAPHS[graph](), AUTOMATA[automaton]()
    for shape in SHAPES[ta.width]:
        p = shape_bgp(shape)
        for distinct_edges in (False, True):
            want = set(oracle_accepted_matchings(g, p, ta, distinct_edges=distinct_edges))
            streamed = {m for m in want if all(g.active[e] for e in m.edges)}
            stepped_all = oracle_counters(g, p, ta, distinct_edges)
            for name, engine in ENGINES.items():
                for early_exit in (True, False):
                    for defer_start in (True, False):
                        kw = dict(
                            early_exit=early_exit,
                            defer_start=defer_start,
                            distinct_edges=distinct_edges,
                        )
                        case = (shape, name, kw)
                        untraced = engine(g, p, ta, **kw)
                        traced = engine(g, p, ta, trace=Trace(), **kw)
                        assert outcome(untraced) == outcome(traced), case
                        expect = want if name == "baseline" else streamed
                        assert untraced.accepted_set == expect, case
                        if name == "baseline" and not early_exit and not defer_start:
                            c = untraced.counters
                            assert (c.rows, c.generated, c.early_rejected) == stepped_all, case


# y1 = y2 = e: the letter is 00 or 11; a second 11 within 2 units of the
# first accepts, a later one rejects
TWICE = TimedAutomaton(
    3,
    0,
    [2],
    1,
    2,
    [
        Transition(0, "00", (), (), 0),
        Transition(0, "11", (), (0,), 1),
        Transition(1, "00", (), (), 1),
        Transition(1, "11", ((0, "<", 2.0),), (), 2),
        Transition(2, "**", (), (), 2),
    ],
)


@pytest.mark.parametrize("name", sorted(ENGINES))
@pytest.mark.parametrize("early_exit", [True, False])
def test_a_matching_binding_one_edge_twice_parks_and_leaves_the_index(name, early_exit):
    # the self-loops e0 and e1 each make a matching binding them twice;
    # both rest on the empty letter at t=2, move again on their edge's
    # second activation and are rejected (e0, at t=3) or accepted (e1, at
    # t=2.5), leaving their group
    g = build_graph(
        {"a": "n", "b": "n"},
        {"e0": ("a", "a", "e"), "e1": ("b", "b", "e"), "e2": ("a", "b", "e")},
        {"e0": [1.0, 3.0], "e1": [1.0, 2.5], "e2": [2.0, 4.0]},
    )
    p = shape_bgp("path2")
    engine = ENGINES[name]
    res = engine(g, p, TWICE, early_exit=early_exit, defer_start=True)
    assert {m.edges for m in res.accepted_set} == {("e1", "e1")}
    traced = engine(g, p, TWICE, early_exit=early_exit, defer_start=True, trace=Trace())
    assert outcome(res) == outcome(traced)


# -- a machine-independent guard: resting rows are not stepped ---------------


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_parked_rows_are_not_stepped(name, monkeypatch):
    g = generate_graph(GenSpec(12, 0.3, 0.02, 200, seed=1))
    p, ta = shape_bgp("path3"), load_ta("ta4")
    calls = [0]

    def counting_step(*args):
        calls[0] += 1
        return step(*args)

    monkeypatch.setattr(engine_module, "step", counting_step)
    res = ENGINES[name](g, p, ta, defer_start=True)
    assert res.counters.rows > 1000
    assert calls[0] <= res.counters.rows / 2, (calls[0], res.counters.rows)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(ENGINES))
def test_parked_rows_are_not_visited(name, traced, monkeypatch):
    # step runs only on move-table misses; a fate-table lookup happens once
    # per row stepped on its own, hit or miss, so it sees a live row that is
    # stepped row at a time instead of with its class
    g = generate_graph(GenSpec(12, 0.3, 0.02, 200, seed=1))
    p, ta = shape_bgp("path3"), load_ta("ta4")
    visits = [0]

    class CountingFate(engine_module._Fate):
        def __getitem__(self, key):
            visits[0] += 1
            return super().__getitem__(key)

    monkeypatch.setattr(engine_module, "_Fate", CountingFate)
    res = ENGINES[name](g, p, ta, defer_start=True, trace=Trace() if traced else None)
    assert res.counters.rows > 1000
    assert visits[0] <= res.counters.rows / 2, (visits[0], res.counters.rows)

