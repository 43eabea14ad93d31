"""The stepping core the three engines share: checked streams, the entry
rule, unverifiable orders, and counters that agree across feeders."""

from __future__ import annotations

import pytest

from tempo_bgp import (
    FormatError,
    ReferentialError,
    build_graph,
    oracle_accepted_matchings,
    parse_automaton,
    parse_bgp,
    run_baseline,
    run_on_demand,
    run_partial_match,
)
from tempo_bgp.cli import main
from tempo_bgp.fixtures import TA_WIDTHS, fixture_path, load_ta
from tempo_bgp.rng import SplitMix64
from tempo_bgp.temporal_graph import write_graph_dir
from tempo_bgp.workbench import GenSpec, generate_graph, random_graph, shape_bgp
from test_engine_pruning import ACCEPT_ALL, AFTER_ONE, REJECT_ALL, SINKING

STREAMING = (run_on_demand, run_partial_match)


@pytest.mark.parametrize("engine", STREAMING)
def test_reversed_stream_is_refused(engine, interactions, bgp, ta):
    reversed_stream = [(t, interactions.snapshots[t]) for t in reversed(interactions.domain)]
    with pytest.raises(FormatError):
        engine(interactions, bgp["cycle2"], ta["ta2"], stream=iter(reversed_stream))


@pytest.mark.parametrize("engine", STREAMING)
def test_repeated_timepoint_is_refused(engine, interactions, bgp, ta):
    t0, t1 = interactions.domain[:2]
    stream = [(t0, interactions.snapshots[t0]), (t0, interactions.snapshots[t1])]
    with pytest.raises(FormatError):
        engine(interactions, bgp["cycle2"], ta["ta2"], stream=iter(stream))


@pytest.mark.parametrize("engine", STREAMING)
@pytest.mark.parametrize("bad", [float("inf"), float("nan")])
def test_non_finite_timepoint_is_refused(engine, bad, interactions, bgp, ta):
    t0, t1 = interactions.domain[:2]
    stream = [(t0, interactions.snapshots[t0]), (bad, interactions.snapshots[t1])]
    with pytest.raises(FormatError, match="finite"):
        engine(interactions, bgp["cycle2"], ta["ta2"], stream=iter(stream))


@pytest.mark.parametrize("engine", STREAMING)
def test_unknown_edge_in_stream_is_refused(engine, interactions, bgp, ta):
    with pytest.raises(ReferentialError):
        engine(interactions, bgp["cycle2"], ta["ta2"], stream=iter([(1.0, frozenset({"nope"}))]))


@pytest.mark.parametrize(
    "spec",
    [GenSpec(5, 0.6, 0.5, 20, seed=1), GenSpec(12, 0.5, 0.3, 400, seed=7)],
    ids=["small", "long-clocked-path2"],
)
def test_unknown_order_runs_unordered_and_keeps_every_result(spec, ta):
    # ta7 with y1,y2 is Unknown; honouring the order here loses half of the
    # accepted matchings, so the engine drops it and says so
    g = generate_graph(spec)
    p = shape_bgp("path2")
    res = run_partial_match(g, p, ta["ta7"], order=("y1", "y2"))
    assert res.counters.warnings == 1
    ref = run_baseline(g, p, ta["ta7"]).accepted_set
    assert ref and res.accepted_set == ref


def test_match_prints_the_unknown_order_warning(tmp_path, capsys):
    write_graph_dir(tmp_path, generate_graph(GenSpec(5, 0.6, 0.5, 20, seed=1)))
    code = main(
        [
            "match", "--graph", str(tmp_path), "--bgp", str(fixture_path("bgp", "path2.bgp")),
            "--ta", str(fixture_path("ta", "ta7.ta")), "--algo", "partial", "--order", "y1,y2",
        ]
    )
    captured = capsys.readouterr()
    assert code == 0
    assert "warning" in captured.err and "unordered" in captured.err
    assert sum(line.startswith("ACCEPT") for line in captured.out.splitlines()) == 2


SHAPES_BY_WIDTH = {2: ("path2", "cycle2", "star2"), 3: ("path3", "cycle3"), 4: ("cycle4",)}
LOCAL = {"SINKING": SINKING, "ACCEPT_ALL": ACCEPT_ALL, "REJECT_ALL": REJECT_ALL, "AFTER_ONE": AFTER_ONE}


@pytest.mark.parametrize("defer_start", [True, False])
@pytest.mark.parametrize("name", sorted(TA_WIDTHS) + list(LOCAL))
def test_on_demand_counts_like_baseline_when_every_edge_is_active(name, defer_start, ta):
    # random_graph activates every edge, so both feeders see the same
    # matchings, enter them at the same letter and step them alike
    automaton = LOCAL[name] if name in LOCAL else ta[name]
    shapes = SHAPES_BY_WIDTH[automaton.width]
    for seed in range(100):
        g = random_graph(SplitMix64(seed * 31 + 7))
        p = shape_bgp(shapes[seed % len(shapes)])
        base = run_baseline(g, p, automaton, defer_start=defer_start)
        on_demand = run_on_demand(g, p, automaton, defer_start=defer_start)
        assert on_demand.accepted_set == base.accepted_set, seed
        want, got = base.counters, on_demand.counters
        assert (got.rows, got.generated, got.early_rejected) == (
            want.rows,
            want.generated,
            want.early_rejected,
        ), seed


ENGINES = (run_baseline, run_on_demand, run_partial_match)
ANY_LETTER = parse_automaton("states 1\ninitial 0\naccepting 0\ntrans 0 * true - 0\n", 1)


@pytest.mark.parametrize("label, n_accepted", [("", 3), (" : m", 1)])
def test_isolated_node_variable_ranges_over_label_compatible_nodes(label, n_accepted):
    # partial rows never bound z, so run_partial_match used to accept nothing
    g = build_graph({"a": "n", "b": "n", "c": "m"}, {"e1": ("a", "b", "l")}, {"e1": [1.0]})
    p = parse_bgp(f"node x1\nnode x2\nnode z{label}\nedge y1 : x1 -> x2\n")
    want = set(oracle_accepted_matchings(g, p, ANY_LETTER))
    assert len(want) == n_accepted
    for engine in ENGINES:
        assert engine(g, p, ANY_LETTER).accepted_set == want, engine.__name__


ISOLATED = {
    "path1_z": "node x1\nnode x2\nnode z\nedge y1 : x1 -> x2\n",
    "path2_z_m": "node x1\nnode x2\nnode x3\nnode z : m\nedge y1 : x1 -> x2\nedge y2 : x2 -> x3\n",
    "cycle2_z_w": "node z : n\nnode x1\nnode x2\nnode w\n"
    "edge y1 : x1 -> x2\nedge y2 : x2 -> x1\n",
}


@pytest.mark.parametrize("name", sorted(ISOLATED))
def test_engines_agree_with_oracle_on_isolated_node_variables(name):
    p = parse_bgp(ISOLATED[name])
    automata = [ANY_LETTER] if p.width == 1 else [load_ta(n) for n in ("ta1", "ta2", "ta5", "ta7")]
    for seed in range(25):
        g = random_graph(SplitMix64(seed * 17 + 3), max_nodes=5, max_edges=7, max_timepoints=5)
        for automaton in automata:
            for distinct_edges in (False, True):
                want = set(oracle_accepted_matchings(g, p, automaton, distinct_edges=distinct_edges))
                for engine in ENGINES:
                    for early_exit in (True, False):
                        got = engine(
                            g, p, automaton, early_exit=early_exit, distinct_edges=distinct_edges
                        ).accepted_set
                        assert got == want, (seed, engine.__name__, early_exit, distinct_edges)


# "y1 active twice": the second letter holding y1 reaches the accepting sink
Y1_TWICE = parse_automaton(
    "states 3\ninitial 0\naccepting 2\n"
    "trans 0 0* true - 0\ntrans 0 1* true - 1\n"
    "trans 1 0* true - 1\ntrans 1 1* true - 2\n"
    "trans 2 ** true - 2\n",
    2,
)


def test_partial_recounts_a_class_that_gives_up_its_accepted_rows():
    # At t=3 the total row (e1, e2) and the partial row binding only e1
    # share a configuration set and a letter; the total one is accepted and
    # the partial one stays live, so the class is counted again without it.
    g = build_graph(
        {n: "n" for n in "abcd"},
        {"e1": ("a", "b", "l"), "e2": ("b", "c", "l"), "e3": ("c", "d", "l")},
        {"e1": [1.0, 3.0], "e2": [2.0], "e3": [4.0]},
    )
    p = shape_bgp("path2")
    res = run_partial_match(g, p, Y1_TWICE)
    assert [(m.edges, m.nodes, t) for m, t in res.accepted] == [(("e1", "e2"), ("a", "b", "c"), 3.0)]
    assert res.accepted_set == set(oracle_accepted_matchings(g, p, Y1_TWICE))
    c = res.counters
    assert (c.rows, c.generated, c.early_rejected, c.warnings) == (23, 8, 0, 0)
