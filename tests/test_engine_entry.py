"""Fused entry: the matcher's leaf takes each new row's first step.

A row whose first move keeps and accepts nothing is only counted, never
built as a ``Matching``, and neither it nor a total row its first move
accepts ever gets an id in the core's table; a traced run builds and
records every row and counts exactly what the untraced one does.  The entry cases the leaf
decides are checked against the oracle under every engine option: rows
binding only never-active edges (they enter after the last snapshot and
are settled at the end), initial states that are early-accept or
early-reject, and clocked automata whose first move reads the entry time.
"""

from __future__ import annotations

import gc
import time

import pytest

import tempo_bgp.bgp as bgp_module
import tempo_bgp.engine as engine_module
from tempo_bgp import (
    Trace,
    build_graph,
    oracle_accepted_matchings,
    oracle_match,
    oracle_word,
    parse_bgp,
    step,
)
from tempo_bgp.rng import SplitMix64
from tempo_bgp.timed_automaton import TimedAutomaton, Transition
from tempo_bgp.workbench import GenSpec, generate_graph, random_graph, ring_automaton, shape_bgp
from test_automaton_cubes import random_automaton
from test_engine_options import ONE_EDGE, SHAPES, runs
from test_engine_moves import ENGINES


def first_steps(trace: Trace) -> dict:
    """Each recorded matching's status after its first step (records at t=0 are entries)."""
    status: dict = {}
    for r in sorted(trace.rows, key=lambda r: r.t):
        if r.t > 0:
            status.setdefault(r.matching, r.status)
    return status


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_rows_that_die_on_their_first_letter_are_never_built(name, monkeypatch):
    g = generate_graph(GenSpec(12, 0.5, 0.5, 10, seed=2))
    p, ta = shape_bgp("cycle4"), ring_automaton(4)
    # with deferred starts, on-demand rows take the first step baseline's do
    trace = Trace()
    ENGINES["partial" if name == "partial" else "baseline"](g, p, ta, trace=trace)
    kept = sum(status != "dropped" for status in first_steps(trace).values())

    built = [0]

    class Counted(bgp_module.Matching):
        __slots__ = ()

        def __del__(self):
            built[0] += 1

    monkeypatch.setattr(bgp_module, "Matching", Counted)
    monkeypatch.setattr(bgp_module, "_PLANS", {})
    res = ENGINES[name](g, p, ta)
    counters = vars(res.counters)
    del res
    gc.collect()
    assert counters["generated"] > 1000 and kept < counters["generated"] / 4, (kept, counters)
    # partial's empty row is built too
    assert built[0] <= kept + (name == "partial"), (built[0], kept, counters)

    trace = Trace()
    traced = ENGINES[name](g, p, ta, trace=trace)
    assert vars(traced.counters) == counters
    recorded = {r.matching for r in trace.rows} | {e.matching for e in trace.events}
    assert len(recorded) == counters["generated"] + (name == "partial")


# path2: a first letter holding both edges accepts for good, y1 alone drops
# the row, and y2 alone waits in state 2 for y1, which then accepts
SETTLES = TimedAutomaton(
    3,
    0,
    [1],
    0,
    2,
    [
        Transition(0, "00", (), (), 0),
        Transition(0, "11", (), (), 1),
        Transition(0, "01", (), (), 2),
        Transition(1, "**", (), (), 1),
        Transition(2, "0*", (), (), 2),
        Transition(2, "1*", (), (), 1),
    ],
)


def first_move(g, p, ta, m):
    """The configurations ``m``'s first non-empty letter leads to; None if it has none."""
    for t, letter in oracle_word(g, p, m):
        if letter:
            return step(ta, {ta.initial_config()}, letter, t)
    return None


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_rows_their_first_move_settles_never_get_an_id(name, monkeypatch):
    g, p, ta = generate_graph(GenSpec(12, 0.5, 0.3, 20, seed=3)), shape_bgp("path2"), SETTLES
    assert ta.early_accept == {1} and ta.dead_start
    if name == "partial":
        # an extension's first move starts from its source's configurations
        trace = Trace()
        ENGINES[name](g, p, ta, trace=trace)
        firsts = list(first_steps(trace).values())
        accepted = firsts.count("accepted")
        settled = accepted + firsts.count("dropped")
    else:
        # with deferred starts a row's first move reads its first non-empty
        # letter; y1 is first active when a y2-first row is found, so its
        # catch-up stays in state 2
        matchings = oracle_match(g, p)
        if name == "on-demand":
            matchings = [m for m in matchings if all(g.active[e] for e in m.edges)]
        firsts = [first_move(g, p, ta, m) for m in matchings]
        accepted = sum(1 in {s for s, _ in nxt} for nxt in firsts if nxt)
        settled = accepted + sum(nxt == set() for nxt in firsts)

    admitted, renumbering = [0], [False]
    admit, renumber = engine_module._Core._admit, engine_module._Core._renumber

    def counting_admit(self, rows):
        if not renumbering[0]:
            admitted[0] += sum(map(len, rows.values()))
        return admit(self, rows)

    def uncounted_renumber(self):  # it gives live rows fresh ids, not new rows ids
        renumbering[0] = True
        try:
            renumber(self)
        finally:
            renumbering[0] = False

    monkeypatch.setattr(engine_module._Core, "_admit", counting_admit)
    monkeypatch.setattr(engine_module._Core, "_renumber", uncounted_renumber)
    res = ENGINES[name](g, p, ta)
    generated = res.counters.generated
    if name != "partial":
        assert generated == len(matchings)
    assert accepted > 20 and settled - accepted > 20 and generated - settled > 20, (
        accepted, settled, generated
    )
    # partial's empty row gets an id too
    assert admitted[0] == generated - settled + (name == "partial"), (admitted[0], settled, generated)


# -- entry cases against the oracle --------------------------------------------


def entry_automata(width: int) -> dict[str, TimedAutomaton]:
    """Automata whose initial state decides, and clocked ones whose first move reads the time."""
    any_letter, one, zero = "*" * width, "1" + "*" * (width - 1), "0" + "*" * (width - 1)
    loop = Transition(0, any_letter, (), (), 0)
    return {
        # accepting and covering every letter: early-accept
        "accepting-start": TimedAutomaton(1, 0, [0], 0, width, [loop]),
        # no accepting state is reachable: early-reject
        "hopeless-start": TimedAutomaton(2, 0, [1], 0, width, [loop]),
        # before t=3 the first edge's activity accepts; from t=3 it resets the clock into a trap
        "entry-time": TimedAutomaton(
            3,
            0,
            [1],
            1,
            width,
            [
                Transition(0, zero, (), (), 0),
                Transition(0, one, ((0, "<", 3.0),), (), 1),
                Transition(0, one, ((0, ">=", 3.0),), (0,), 2),
                Transition(1, any_letter, (), (), 1),
                Transition(2, any_letter, ((0, "<", 2.0),), (), 2),
            ],
        ),
        # every run lives before t=4 and dies after, whatever it reads
        "entry-deadline": TimedAutomaton(
            2,
            0,
            [1],
            1,
            width,
            [
                Transition(0, any_letter, ((0, "<", 4.0),), (), 1),
                Transition(1, any_letter, (), (), 1),
            ],
        ),
    }


def silent_graph(seed: int):
    """A random graph in which every other edge is never active."""
    g = random_graph(SplitMix64(seed * 31 + 5), max_nodes=5, max_edges=10, max_timepoints=8)
    edges = {e: (x.src, x.dst, x.label) for e, x in g.edges.items()}
    active = {e: [] if k % 2 else list(g.active[e]) for k, e in enumerate(g.edges)}
    return build_graph(dict(g.nodes), edges, active)


def entry_instances():
    for seed in range(16):
        g = silent_graph(seed)
        for width in (1, 2, 3):
            if width == 1:
                p = parse_bgp(ONE_EDGE)
            else:
                p = shape_bgp(SHAPES[width][seed % len(SHAPES[width])])
            automata = entry_automata(width)
            ta = random_automaton(seed * 7 + width)
            if ta.width == width:
                automata["random"] = ta
            for name, ta in automata.items():
                yield (seed, width, name), g, p, ta


def test_entry_cases_agree_with_the_oracle():
    start = time.perf_counter()
    n_runs = n_silent = 0
    kinds = set()
    for case, g, p, ta in entry_instances():
        wants = {
            distinct: sorted(oracle_accepted_matchings(g, p, ta, distinct_edges=distinct))
            for distinct in (False, True)
        }
        for (engine, opts), call in runs(g, p, ta):
            want = wants[opts["distinct_edges"]]
            if engine != "baseline":
                want = [m for m in want if all(g.active[e] for e in m.edges)]
            elif g.domain:
                n_silent += sum(not any(g.active[e] for e in m.edges) for m in want)
            plain, traced = call(None), call(Trace())
            assert [m for m, _ in plain.accepted] == want, (case, engine, opts)
            assert traced.accepted == plain.accepted, (case, engine, opts)
            assert vars(traced.counters) == vars(plain.counters), (case, engine, opts)
            n_runs += 1
        if ta.initial in ta.early_accept:
            kinds.add("early-accept start")
        if ta.initial in ta.early_reject:
            kinds.add("early-reject start")
    assert kinds == {"early-accept start", "early-reject start"}
    assert n_runs > 2000 and n_silent > 100, (n_runs, n_silent)
    assert time.perf_counter() - start < 20.0


def test_deep_fused_searches_chain_generated_functions():
    # a width-24 search continues in a second generated function, which
    # takes the entry index folded so far (partial: the source row's bits);
    # every edge is new at t=1, so partial binds all 24 levels in one search
    width = 24
    p = parse_bgp(
        "".join(f"node x{i}\n" for i in range(width + 1))
        + "".join(f"edge y{i} : x{i - 1} -> x{i}\n" for i in range(1, width + 1))
    )
    n = 30  # a line v0 -> v1 -> ..., every edge active at 1 and 2
    g = build_graph(
        {f"v{i}": "n" for i in range(n)},
        {f"e{i}": (f"v{i}", f"v{i + 1}", "e") for i in range(n - 1)},
        {f"e{i}": [1.0, 2.0] for i in range(n - 1)},
    )

    def together(guard):
        """Accepts once every variable is active at once, at a time ``guard`` admits."""
        return TimedAutomaton(2, 0, [1], 1, width, [
            Transition(0, "0" * width, (), (), 0),
            Transition(0, "1" * width, guard, (), 1),
            Transition(1, "*" * width, (), (), 1),
        ])

    in_time, too_late = together(()), together(((0, "<", 0.5),))
    for name, run in ENGINES.items():
        kw = {"order": p.edge_vars} if name == "partial" else {}
        accepted = run(g, p, in_time, **kw)
        assert [(m.edges[0], t) for m, t in accepted.accepted] == [(f"e{i}", 1.0) for i in range(6)]
        rejected = run(g, p, too_late, **kw)
        assert rejected.accepted == []
        assert rejected.counters.early_rejected == rejected.counters.generated >= 6
        for ta, plain in ((in_time, accepted), (too_late, rejected)):
            traced = run(g, p, ta, trace=Trace(), **kw)
            assert (traced.accepted, traced.counters) == (plain.accepted, plain.counters), name
