"""Pruning paths the bundled automata never reach.

None of the fixture automata has an early-reject state (their rejection
always happens by running out of transitions), so the reject-state filters
in the engines get their own automata here, built inline.
"""

from __future__ import annotations

import pytest

from tempo_bgp import (
    FormatError,
    Trace,
    build_graph,
    oracle_accepted_matchings,
    parse_bgp,
    run,
    run_baseline,
    run_on_demand,
    run_partial_match,
)
from tempo_bgp.rng import SplitMix64
from tempo_bgp.timed_automaton import TimedAutomaton, Transition
from tempo_bgp.workbench import random_graph, shape_bgp

# y2 must appear no later than y1; a premature y1 falls into a sink
SINKING = TimedAutomaton(
    3,
    0,
    [1],
    0,
    2,
    [
        Transition(0, "00", (), (), 0),
        Transition(0, "*1", (), (), 1),
        Transition(0, "10", (), (), 2),
        Transition(1, "**", (), (), 1),
        Transition(2, "**", (), (), 2),
    ],
)

ACCEPT_ALL = TimedAutomaton(1, 0, [0], 0, 2, [Transition(0, "**", (), (), 0)])

REJECT_ALL = TimedAutomaton(
    2, 0, [1], 0, 2, [Transition(0, "**", (), (), 0)]
)

# one step of anything, then guaranteed acceptance
AFTER_ONE = TimedAutomaton(
    2,
    0,
    [1],
    0,
    2,
    [Transition(0, "**", (), (), 1), Transition(1, "**", (), (), 1)],
)


def test_classification_of_local_automata():
    assert SINKING.early_reject == {2}
    assert SINKING.early_accept == {1}
    assert ACCEPT_ALL.early_accept == {0}
    assert REJECT_ALL.early_reject == {0}
    assert AFTER_ONE.early_accept == {1}
    assert AFTER_ONE.early_reject == frozenset()


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("automaton", [SINKING, ACCEPT_ALL, REJECT_ALL, AFTER_ONE])
def test_differential_with_pruning_automata(seed, automaton):
    g = random_graph(SplitMix64(seed * 7 + 3))
    p = shape_bgp("cycle2" if seed % 2 else "path2")
    ref = frozenset(oracle_accepted_matchings(g, p, automaton))
    for algo in ("baseline", "on-demand", "partial"):
        assert run(algo, g, p, automaton).accepted_set == ref, (algo, seed)


def test_sink_states_never_survive_a_step(interactions, bgp):
    tr = Trace()
    run_baseline(interactions, bgp["cycle2u"], SINKING, trace=tr)
    for row in tr.rows:
        if row.t > 0:
            assert all(s not in SINKING.early_reject for s, _ in row.configs)


def test_reject_all_drops_everything_at_seed(interactions, bgp):
    res = run_baseline(interactions, bgp["cycle2u"], REJECT_ALL)
    assert res.accepted == []
    assert res.counters.early_rejected == res.counters.generated == 4
    assert res.counters.rows == 0


def test_accept_all_emits_everything_at_seed(interactions, bgp):
    res = run_baseline(interactions, bgp["cycle2u"], ACCEPT_ALL)
    assert len(res.accepted) == 4
    assert all(t == 0.0 for _, t in res.accepted)
    assert res.counters.rows == 0


def test_on_demand_accepts_during_catch_up(interactions, bgp):
    # matchings found at t=2 have a nonempty caught-up prefix, which under
    # this automaton is already inside the early-accept region
    tr = Trace()
    res = run_on_demand(interactions, bgp["cycle2"], AFTER_ONE, defer_start=False, trace=tr)
    assert {m.edges for m in res.accepted_set} == {("e5", "e6"), ("e8", "e9")}
    accept_times = dict((m.edges, t) for m, t in res.accepted)
    assert accept_times[("e5", "e6")] == 2.0
    assert accept_times[("e8", "e9")] == 9.0


def test_on_demand_eliminates_during_catch_up(interactions, bgp):
    tr = Trace()
    res = run_on_demand(interactions, bgp["cycle2u"], SINKING, trace=tr)
    # (e5, e6) starts with a lone y1 letter at t=1, so the row discovered
    # at t=2 dies while its catch-up walks that prefix
    dead = [e for e in tr.events if e.matching.edges == ("e5", "e6")]
    assert dead and dead[0].eliminated_at == 1.0
    assert ("e5", "e6") not in {m.edges for m in res.accepted_set}


def test_streaming_engines_refuse_edgeless_patterns(interactions):
    p = parse_bgp("node x\n")
    zero_width = TimedAutomaton(1, 0, [0], 0, 0, [Transition(0, "", (), (), 0)])
    with pytest.raises(FormatError):
        run_on_demand(interactions, p, zero_width)
    with pytest.raises(FormatError):
        run_partial_match(interactions, p, zero_width)
    # the baseline still answers the degenerate static query
    res = run_baseline(interactions, p, zero_width)
    assert len(res.accepted) == interactions.n_nodes


def test_constant_endpoints_through_all_engines(interactions, ta):
    p = parse_bgp("const v5\nconst v1\nedge y1 : v5 -> v1\nedge y2 : v1 -> v5\n")
    ref = frozenset(oracle_accepted_matchings(interactions, p, ta["ta1"]))
    assert {m.edges for m in ref} == {("e5", "e6")}
    for algo in ("baseline", "on-demand", "partial"):
        assert run(algo, interactions, p, ta["ta1"]).accepted_set == ref


def test_simultaneous_arrival_forms_total_directly(bgp, ta):
    g = build_graph(
        {"a": "n", "b": "n"},
        {"u": ("a", "b", "e"), "w": ("b", "a", "e")},
        {"u": [1.0, 2.0], "w": [1.0, 2.0]},
    )
    p = bgp["cycle2u"]
    tr = Trace()
    res = run_partial_match(g, p, ta["ta5"], trace=tr)
    created_at_1 = {r.matching.edges for r in tr.rows_at(1.0)}
    assert ("u", "w") in created_at_1  # built from scratch in one snapshot
    ref = frozenset(oracle_accepted_matchings(g, p, ta["ta5"]))
    assert {m.edges for m in ref} == {("u", "w"), ("w", "u")}
    assert res.accepted_set == ref
    for algo in ("baseline", "on-demand"):
        assert run(algo, g, p, ta["ta5"]).accepted_set == ref


@pytest.mark.parametrize("seed", range(8))
def test_distinct_edges_differential(seed, ta):
    g = random_graph(SplitMix64(seed + 555))
    p = shape_bgp("star2")
    ref = frozenset(oracle_accepted_matchings(g, p, ta["ta5"], distinct_edges=True))
    for algo in ("baseline", "on-demand", "partial"):
        got = run(algo, g, p, ta["ta5"], distinct_edges=True).accepted_set
        assert got == ref, (algo, seed)


def test_long_overlap_positive_path(bgp, ta):
    # both edges active through a stretch longer than 3 time units: the
    # gap automaton must reach its accepting sink
    g = build_graph(
        {"a": "n", "b": "n", "c": "n"},
        {"u": ("a", "c", "e"), "w": ("b", "c", "e")},
        {"u": [1.0, 2.0, 3.0, 4.0, 5.0], "w": [1.0, 2.0, 3.0, 4.0, 5.0]},
    )
    p = shape_bgp("star2")
    ref = frozenset(oracle_accepted_matchings(g, p, ta["ta7"]))
    assert ref  # the overlap query really does fire here
    for algo in ("baseline", "on-demand", "partial"):
        res = run(algo, g, p, ta["ta7"], distinct_edges=True)
        got = frozenset(
            oracle_accepted_matchings(g, p, ta["ta7"], distinct_edges=True)
        )
        assert res.accepted_set == got


def test_gap_wider_than_seven(interactions, bgp):
    # existential pair separated by more than 7 time units, via a reset on
    # the first appearance and a lower-bound guard on the second
    gap7 = TimedAutomaton(
        3,
        0,
        [2],
        1,
        2,
        [
            Transition(0, "**", (), (), 0),
            Transition(0, "1*", (), (0,), 1),
            Transition(1, "**", (), (), 1),
            Transition(1, "*1", ((0, ">", 7.0),), (), 2),
            Transition(2, "**", (), (), 2),
        ],
    )
    g = build_graph(
        {"a": "n", "b": "n", "c": "n", "d": "n"},
        {
            "u": ("a", "b", "e"),
            "w": ("b", "a", "e"),
            "x": ("c", "d", "e"),
            "y": ("d", "c", "e"),
        },
        {"u": [1.0], "w": [9.0], "x": [2.0], "y": [9.0]},
    )
    p = bgp["cycle2u"]
    for algo in ("baseline", "on-demand", "partial"):
        res = run(algo, g, p, gap7)
        # (u, w) spans 8 > 7 units; (x, y) spans exactly 7 and the strict
        # bound rejects it; the reversed bindings never see a second letter
        assert {m.edges for m in res.accepted_set} == {("u", "w")}, algo
    assert {m.edges for m in oracle_accepted_matchings(g, p, gap7)} == {("u", "w")}


def test_partial_accepts_custom_stream(interactions, bgp, ta):
    cut = 5
    stream = ((t, interactions.snapshots[t]) for t in interactions.domain[:cut])
    res = run_partial_match(interactions, bgp["cycle2u"], ta["ta1"], stream=stream)
    truncated = build_graph(
        dict(interactions.nodes),
        {eid: (e.src, e.dst, e.label) for eid, e in interactions.edges.items()},
        {
            eid: [t for t in ts if t <= interactions.domain[cut - 1]]
            for eid, ts in interactions.active.items()
        },
    )
    assert res.accepted_set == run_partial_match(truncated, bgp["cycle2u"], ta["ta1"]).accepted_set
