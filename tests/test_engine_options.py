"""Every engine option against the oracle, on random graphs and automata.

The three engines are crossed with ``early_exit``, ``defer_start`` (baseline
and on-demand), ``distinct_edges``, an explicit snapshot stream (the
streaming engines) and traced runs, on clockless and clocked random
automata.  Accepted lists must equal the oracle's, restricted for the
streaming engines to matchings whose edges are all active, and a traced
run must count exactly what the untraced one does.  Partial's ``order``
is crossed separately: every permutation of the edge variables behaves as
its verdict, read off the pattern and a letter-enumeration reference, says.
"""

from __future__ import annotations

import time
from itertools import permutations, product

import pytest

from tempo_bgp import (
    Compatibility,
    OrderIncompatible,
    OrderNotConnected,
    Trace,
    oracle_accepted_matchings,
    parse_bgp,
    run_baseline,
    run_on_demand,
    run_partial_match,
)
from tempo_bgp.rng import SplitMix64
from tempo_bgp.workbench import random_graph, shape_bgp
from test_automaton_cubes import random_automaton, reference_compatible
from test_engine_parking import random_clocked_automaton

ONE_EDGE = "node x1\nnode x2\nedge y1 : x1 -> x2\n"
SHAPES = {2: ("path2", "cycle2", "star2"), 3: ("path3", "cycle3")}
SEEDS = range(60)


def runs(g, p, ta):
    """``(name, call)`` for every engine and option set; ``call(trace)`` runs it."""
    snapshots = [(t, g.snapshots[t]) for t in g.domain]
    for distinct_edges in (False, True):
        for early_exit in (True, False):
            kw = dict(early_exit=early_exit, distinct_edges=distinct_edges)
            for defer_start in (True, False):
                opts = dict(kw, defer_start=defer_start)
                yield ("baseline", opts), lambda tr, o=opts: run_baseline(g, p, ta, trace=tr, **o)
                for streamed in (False, True):
                    name = ("on-demand", dict(opts, stream=streamed))
                    yield name, lambda tr, o=opts, s=streamed: run_on_demand(
                        g, p, ta, trace=tr, stream=iter(snapshots) if s else None, **o
                    )
            for streamed in (False, True):
                name = ("partial", dict(kw, stream=streamed))
                yield name, lambda tr, s=streamed: run_partial_match(
                    g, p, ta, trace=tr, stream=iter(snapshots) if s else None, **kw
                )


def instances(clocked):
    """``(seed, g, p, ta)`` for every automaton of either generator, per seed,
    that has clocks exactly when ``clocked`` and whose width has a pattern."""
    for seed in SEEDS:
        g = random_graph(SplitMix64(seed * 101 + 7), max_nodes=6, max_edges=10, max_timepoints=8)
        for ta in (random_automaton(seed), random_clocked_automaton(seed)):
            if bool(ta.n_clocks) != clocked:
                continue
            if ta.width == 1:
                p = parse_bgp(ONE_EDGE)
            elif ta.width in SHAPES:
                p = shape_bgp(SHAPES[ta.width][seed % len(SHAPES[ta.width])])
            else:
                continue
            yield seed, g, p, ta


@pytest.mark.parametrize("clocked", [False, True], ids=["clockless", "clocked"])
def test_every_option_agrees_with_the_oracle(clocked):
    start = time.perf_counter()
    n_runs = n_accepted = 0
    for seed, g, p, ta in instances(clocked):
        wants = {
            distinct: sorted(oracle_accepted_matchings(g, p, ta, distinct_edges=distinct))
            for distinct in (False, True)
        }
        for (engine, opts), call in runs(g, p, ta):
            case = (seed, engine, opts)
            want = wants[opts["distinct_edges"]]
            if engine != "baseline":
                want = [m for m in want if all(g.active[e] for e in m.edges)]
            plain, traced = call(None), call(Trace())
            assert [m for m, _ in plain.accepted] == want, case
            assert traced.accepted == plain.accepted, case
            assert vars(traced.counters) == vars(plain.counters), case
            n_runs += 1
            n_accepted += len(want)
    assert n_runs > 1000 and n_accepted > 100, (n_runs, n_accepted)
    assert time.perf_counter() - start < 10.0


def connected(p, order) -> bool:
    """Whether every prefix is connected: each variable touches an endpoint before it."""
    seen = set(p.rho[order[0]])
    for y in order[1:]:
        if not seen & set(p.rho[y]):
            return False
        seen |= set(p.rho[y])
    return True


def binds_a_prefix(p, order, m) -> bool:
    bound = [m.edges[p.edge_vars.index(y)] is not None for y in order]
    return bound == sorted(bound, reverse=True)


@pytest.mark.parametrize("clocked", [False, True], ids=["clockless", "clocked"])
def test_every_order_behaves_as_its_verdict(clocked):
    start = time.perf_counter()
    verdicts = dict.fromkeys(["disconnected", *Compatibility], 0)
    n_rows = 0
    for seed, g, p, ta in instances(clocked):
        snapshots = [(t, g.snapshots[t]) for t in g.domain]
        wants = {
            distinct: [
                m
                for m in sorted(oracle_accepted_matchings(g, p, ta, distinct_edges=distinct))
                if all(g.active[e] for e in m.edges)
            ]
            for distinct in (False, True)
        }
        for order in permutations(p.edge_vars):
            if not connected(p, order):
                verdict, raises = "disconnected", OrderNotConnected
            else:
                verdict = reference_compatible(ta, [p.edge_vars.index(y) for y in order])
                raises = OrderIncompatible if verdict is Compatibility.INCOMPATIBLE else None
            verdicts[verdict] += 1
            for distinct_edges, early_exit, streamed in product((False, True), repeat=3):
                case = (seed, order, distinct_edges, early_exit, streamed)
                trace = Trace() if verdict is Compatibility.COMPATIBLE else None
                kw = dict(
                    order=order,
                    early_exit=early_exit,
                    distinct_edges=distinct_edges,
                    trace=trace,
                    stream=iter(snapshots) if streamed else None,
                )
                if raises is not None:
                    with pytest.raises(raises):
                        run_partial_match(g, p, ta, **kw)
                    continue
                res = run_partial_match(g, p, ta, **kw)
                assert [m for m, _ in res.accepted] == wants[distinct_edges], case
                assert res.counters.warnings == (verdict is Compatibility.UNKNOWN), case
                if trace is not None:
                    assert all(binds_a_prefix(p, order, r.matching) for r in trace.rows), case
                    n_rows += len(trace.rows)
    # without clocks every order is decided; with clocks a counterexample is only Unknown
    impossible = Compatibility.INCOMPATIBLE if clocked else Compatibility.UNKNOWN
    assert verdicts.pop(impossible) == 0 and min(verdicts.values()) >= 10, verdicts
    assert n_rows > 1000, n_rows
    assert time.perf_counter() - start < 10.0
