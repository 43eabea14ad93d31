"""On-demand catch-up: each newly found matching walks the snapshots before
its discovery on its own, moving only where one of its edges is active or
its configurations do not rest, and no second core replays them.

The references here are independent of the engine's stepping: a count of
``_Core`` instances and ticks, and a fold of ``step`` over the matching's
timed word.
"""

from __future__ import annotations

import pytest

import tempo_bgp.engine as engine_module
from tempo_bgp import Trace, oracle_word, parse_bgp, run_on_demand, step
from tempo_bgp.fixtures import load_ta
from tempo_bgp.rng import SplitMix64
from tempo_bgp.workbench import GenSpec, generate_graph, random_graph, shape_bgp
from test_automaton_cubes import random_automaton
from test_engine_options import ONE_EDGE, SHAPES
from test_engine_parking import random_clocked_automaton


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("every", [1, 2], ids=["every-snapshot", "every-other"])
def test_on_demand_ticks_once_per_stream_snapshot(traced, every, monkeypatch):
    g = generate_graph(GenSpec(12, 0.3, 0.02, 200, seed=1))
    p, ta = shape_bgp("path3"), load_ta("ta4")
    stream = [(t, g.snapshots[t]) for t in g.domain][::every]
    calls = {"__init__": 0, "tick": 0}
    for name in calls:
        original = getattr(engine_module._Core, name)

        def counting(self, *args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(engine_module._Core, name, counting)
    trace = Trace() if traced else None
    res = run_on_demand(g, p, ta, trace=trace, stream=iter(stream))
    assert calls == {"__init__": 1, "tick": len(stream)}
    # matchings keep arriving through the long stream, and many are caught up
    assert res.counters.generated > 300
    if traced:
        assert len({e.discovered_at for e in trace.events}) > 20
        assert sum(e.configs != (ta.initial_config(),) for e in trace.events) > 50


def instances(clocked):
    """``(seed, g, p, ta)``: random automata on random graphs long enough to catch up."""
    for seed in range(300):
        ta = random_clocked_automaton(seed) if clocked else random_automaton(seed)
        if bool(ta.n_clocks) != clocked:
            continue
        if ta.width == 1:
            p = parse_bgp(ONE_EDGE)
        elif ta.width in SHAPES:
            p = shape_bgp(SHAPES[ta.width][seed % len(SHAPES[ta.width])])
        else:
            continue
        g = random_graph(SplitMix64(seed * 31 + 5), max_nodes=6, max_edges=12, max_timepoints=12)
        yield seed, g, p, ta


def folded(g, p, ta, m, before):
    """``m``'s configurations after every letter of its word before ``before``,
    and the time they emptied, if they did."""
    configs = {ta.initial_config()}
    for t, letter in oracle_word(g, p, m):
        if t >= before:
            break
        configs = step(ta, configs, letter, t)
        if not configs:
            return (), t
    return tuple(sorted(configs)), None


@pytest.mark.parametrize("defer_start", [True, False])
@pytest.mark.parametrize("clocked", [False, True], ids=["clockless", "clocked"])
def test_every_catch_up_event_is_a_fold_of_step(clocked, defer_start):
    n_events = n_moved = n_dropped = 0
    for seed, g, p, ta in instances(clocked):
        trace = Trace()
        res = run_on_demand(g, p, ta, early_exit=False, defer_start=defer_start, trace=trace)
        # without early exit no matching is settled on entry, so each gets one event
        assert len(trace.events) == res.counters.generated, seed
        for ev in trace.events:
            m = ev.matching
            assert ev.discovered_at == max(min(g.active[e]) for e in m.edges), (seed, m)
            want = folded(g, p, ta, m, ev.discovered_at)
            assert (ev.configs, ev.eliminated_at) == want, (seed, m)
            n_events += 1
            n_moved += ev.configs != (ta.initial_config(),)
            n_dropped += ev.eliminated_at is not None
    assert n_events > 1500 and n_moved > 500 and n_dropped > 300, (n_events, n_moved, n_dropped)
