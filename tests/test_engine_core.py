"""The stepping core the three engines share: checked streams, the entry
rule, unverifiable orders, and counters that agree across feeders."""

from __future__ import annotations

import pytest

from tempo_bgp import (
    FormatError,
    ReferentialError,
    run_baseline,
    run_on_demand,
    run_partial_match,
)
from tempo_bgp.cli import main
from tempo_bgp.fixtures import TA_WIDTHS, fixture_path
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
