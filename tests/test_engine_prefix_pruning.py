"""The joins' pruning, checked by the work it saves and against traced runs.

Under an engine's fate, the baseline and on-demand joins ask after every
level but the last whether some completion of the prefix can survive its
first move; the completions of a dead prefix are only counted, once per
value of the node slots the count reads where those leave a bound slot
out.  Partial's ordered extension likewise counts the tail below a level
when every deeper class dies on its first move.  A traced run never
prunes, so an untraced run must count exactly what the traced one does,
and both must accept what the oracle accepts.  Each case below also
checks that something was pruned, so the count-only code ran.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from itertools import permutations, product

import pytest

import tempo_bgp.engine as engine_module
from tempo_bgp import (
    OrderIncompatible,
    OrderNotConnected,
    Trace,
    build_graph,
    empty_matching,
    extend,
    oracle_accepted_matchings,
    parse_bgp,
    run_baseline,
    run_on_demand,
    run_partial_match,
)
from tempo_bgp.bgp import _anchored_order, _plan_source, _slot_table
from tempo_bgp.rng import SplitMix64
from tempo_bgp.timed_automaton import TimedAutomaton, Transition
from tempo_bgp.workbench import GenSpec, generate_graph, ring_automaton, shape_bgp


@pytest.fixture
def fates(monkeypatch):
    """Every ``_Fate`` the engines make, each counting the matchings filed in it."""
    made = []

    class Counted(engine_module._Fate):
        def __init__(self, *args, **kw):
            super().__init__(*args, **kw)
            self.filed = 0
            made.append(self)

        def __getitem__(self, key):
            self.filed += 1
            return super().__getitem__(key)

    monkeypatch.setattr(engine_module, "_Fate", Counted)
    return made


def test_the_dense_cycle4_join_files_few_of_its_matchings(fates):
    # ring_automaton(4) drops every cycle4 matching whose entry letter is not
    # y1 alone; the join files at most a quarter of the 25,888 matchings
    g = generate_graph(GenSpec(26, 0.5, 0.5, 25, seed=42))
    p, ta = shape_bgp("cycle4"), ring_automaton(4)
    for run in (run_baseline, run_on_demand):
        fates.clear()
        plain = run(g, p, ta)
        assert plain.counters.generated == 25888
        filed = sum(fate.filed for fate in fates)
        assert 0 < filed <= 0.25 * plain.counters.generated, (run.__name__, filed)
        traced = run(g, p, ta, trace=Trace())
        assert vars(traced.counters) == vars(plain.counters)
        assert traced.accepted == plain.accepted


def test_the_dense_cycle4_counts_read_each_frontier_key_once(fates, monkeypatch):
    # baseline binds y1..y4 in order; after a dead level-1 prefix the count
    # reads only (v2, v0), the by_src lookup of v2 and the closing by_pair
    # lookups on v0, so it runs once per distinct key.  A traced run walks
    # every prefix, so the by_pair probes it makes beyond the untraced run's
    # are those of the dead level-1 prefixes whose key was already counted.
    g = generate_graph(GenSpec(26, 0.5, 0.5, 25, seed=42))
    p, ta = shape_bgp("cycle4"), ring_automaton(4)
    probes = [0]

    class Probed(dict):
        def get(self, key, default=None):
            probes[0] += 1
            return super().get(key, default)

    g = dataclasses.replace(g, by_pair=Probed(g.by_pair))
    entries = []
    make = engine_module._Core.entry
    monkeypatch.setattr(
        engine_module._Core, "entry", lambda core, *args: entries.append(make(core, *args)) or entries[-1]
    )
    plain = run_baseline(g, p, ta)
    counted, probes[0] = probes[0], 0
    traced = run_baseline(g, p, ta, trace=Trace())
    assert vars(plain.counters) == vars(traced.counters) == {
        "rows": 27478, "generated": 25888, "early_rejected": 25888, "warnings": 0
    }
    first, d, snapshots, fate = entries[0]
    live0, live1 = fate.core.verdicts[1], fate.core.verdicts[3]
    dead = []  # the key of each level-1 prefix that is dead, its level-0 prefix live
    for e0, edge in g.edges.items():
        v0, v1 = edge.src, edge.dst
        i0 = first.get(e0, d)
        if v1 not in g.by_src or not live0[i0, e0 in snapshots[i0][1]]:
            continue
        for e1, v2 in g.by_src[v1]:
            i1 = min(i0, first.get(e1, d))
            S = snapshots[i1][1]
            if v2 in g.by_src and not live1[i1, (e0 in S) | (e1 in S) << 1]:
                dead.append((v2, v0))
    keys = set(dead)
    assert 0 < 4 * len(keys) < len(dead)
    walked = sum(len(g.by_src[v2]) for v2, _ in dead)
    assert probes[0] - counted == walked - sum(len(g.by_src[v2]) for v2, _ in keys)
    # ordered partial asks the fate for few of the 17,389 extensions' classes
    fates.clear()
    partial = run_partial_match(g, p, ta, order=("y1", "y2", "y3", "y4"))
    assert vars(partial.counters) == {
        "rows": 18702, "generated": 17389, "early_rejected": 17389, "warnings": 0
    }
    assert sum(fate.filed for fate in fates) <= 4000


def _graph(seed: int):
    """Small random multigraph with self-loops, two node and two edge labels;
    an edge is active at a few timepoints, or never."""
    rng = SplitMix64(seed)
    n = rng.randint(2, 4)
    nodes = {f"v{i}": ("n", "m")[rng.randint(0, 1)] for i in range(n)}
    n_times = rng.randint(1, 5)
    edges, active = {}, {}
    for i in range(rng.randint(2, 9)):
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        edges[f"e{i}"] = (f"v{u}", f"v{v}", ("e", "s")[rng.randint(0, 1)])
        active[f"e{i}"] = [float(t) for t in range(1, n_times + 1) if rng.random() < 0.35]
    return build_graph(nodes, edges, active)


def _automaton(seed: int, width: int, clocked: bool) -> TimedAutomaton:
    """A random automaton whose initial state admits few first letters; it
    often idles on the empty letter (so rows defer) and may have a sink."""
    rng = SplitMix64(seed * 13 + width)
    n_states = rng.randint(2, 4)
    n_clocks = int(clocked)
    transitions = []
    if rng.random() < 0.6:
        transitions.append(Transition(0, "0" * width, (), (), 0))
    for _ in range(rng.randint(1, 7)):
        pattern = "".join("01**"[rng.randint(0, 3)] for _ in range(width))
        guard = ((0, ("<", ">")[rng.randint(0, 1)], 2.0),) if clocked and rng.random() < 0.4 else ()
        resets = (0,) if clocked and rng.random() < 0.3 else ()
        src = 0 if rng.random() < 0.5 else rng.randint(0, n_states - 1)
        transitions.append(Transition(src, pattern, guard, resets, rng.randint(0, n_states - 1)))
    accepting = {s for s in range(1, n_states) if rng.random() < 0.6} or {1}
    return TimedAutomaton(n_states, 0, accepting, n_clocks, width, transitions)


# each exercises one part of the count-only continuation
CASES = {
    # the count multiplies each leaf by the fills of the isolated w
    "isolated node": (
        "node x1\nnode x2\nnode w : m\nedge y1 : x1 -> x2\nedge y2 : x2 -> x1\n", False
    ),
    # the constant's lookups run at the head; its triangle closes on it
    "constant": (
        "const v0\nnode x1\nnode x2\n"
        "edge y1 : v0 -> x1\nedge y2 : x1 -> x2\nedge y3 : x2 -> v0\n",
        False,
    ),
    # the last level tests its label, so a count loops instead of taking a length
    "label on the last level": (
        "node x1\nnode x2\nnode x3\nedge y1 : x1 -> x2\nedge y2 : x2 -> x3 : s\n", False
    ),
    # y1 binds both ends of the self-loop y3, which closes last
    "closing self-loop": (
        "node x1\nnode x2\nedge y1 : x1 -> x2\nedge y2 : x2 -> x1\nedge y3 : x2 -> x2\n",
        False,
    ),
    # every level, counted or not, tests its edge against the bound ones
    "distinct edges": (
        "node x1\nnode x2\nnode x3\n"
        "edge y1 : x1 -> x2\nedge y2 : x2 -> x3\nedge y3 : x3 -> x1\n",
        True,
    ),
}


@pytest.mark.parametrize("clocked", [False, True], ids=["clockless", "clocked"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_pruned_runs_count_what_traced_runs_count(fates, case, clocked):
    text, distinct = CASES[case]
    p = parse_bgp(text)
    pruned = 0
    for seed in range(30):
        g = _graph(seed)
        ta = _automaton(seed, p.width, clocked)
        want = sorted(oracle_accepted_matchings(g, p, ta, distinct_edges=distinct))
        streamed = [m for m in want if all(g.active[e] for e in m.edges)]
        for run, early_exit, defer_start in product(
            (run_baseline, run_on_demand), (True, False), (True, False)
        ):
            kw = dict(early_exit=early_exit, defer_start=defer_start, distinct_edges=distinct)
            where = (seed, run.__name__, early_exit, defer_start)
            fates.clear()
            plain = run(g, p, ta, **kw)
            pruned += sum(fate.pruned or 0 for fate in fates)
            fates.clear()
            traced = run(g, p, ta, trace=Trace(), **kw)
            assert all(fate.pruned is None for fate in fates), where
            assert vars(traced.counters) == vars(plain.counters), where
            assert traced.accepted == plain.accepted, where
            got = [m for m, _ in plain.accepted]
            assert got == (want if run is run_baseline else streamed), where
    assert pruned > 0


# patterns of width 2 and 3: constants, an isolated node variable, labels
# and a closing self-loop, with every order of their edge variables
PARTIAL = [CASES[case][0] for case in sorted(CASES)] + [
    "const v0\nnode x1\nnode w\nedge y1 : v0 -> x1\nedge y2 : x1 -> x1\n",
]


@pytest.mark.parametrize("clocked", [False, True], ids=["clockless", "clocked"])
def test_ordered_partial_runs_count_what_traced_runs_count(fates, clocked):
    tails = 0
    for text, seed, distinct in product(PARTIAL, range(25), (False, True)):
        p, g = parse_bgp(text), _graph(seed)
        ta = _automaton(seed, p.width, clocked)
        want = oracle_accepted_matchings(g, p, ta, distinct_edges=distinct)
        streamed = sorted(m for m in want if all(g.active[e] for e in m.edges))
        for order, early_exit in product(permutations(p.edge_vars), (True, False)):
            kw = dict(order=order, early_exit=early_exit, distinct_edges=distinct)
            where = (text, seed, distinct, order, early_exit)
            fates.clear()
            try:
                plain = run_partial_match(g, p, ta, **kw)
            except (OrderIncompatible, OrderNotConnected):
                continue
            filed = sum(fate.filed for fate in fates)
            fates.clear()
            traced = run_partial_match(g, p, ta, trace=Trace(), **kw)
            assert all(fate.pruned is None for fate in fates), where
            # a traced run files every extension, one fate lookup each; a
            # counted tail files none
            tails += filed < sum(fate.filed for fate in fates)
            assert vars(traced.counters) == vars(plain.counters), where
            assert traced.accepted == plain.accepted, where
            assert [m for m, _ in plain.accepted] == streamed, where
    assert tails > 0


@pytest.mark.parametrize("distinct", [False, True], ids=["homomorphic", "distinct"])
def test_an_ordered_extension_files_what_the_public_one_returns(distinct):
    # an engine's fate gets, per class, the extensions public extend returns
    # with that letter, in its order; a class dying on its first move gets
    # their count, and the tails the plan counted go to one such class
    tails = 0
    for text, seed in product(PARTIAL, range(25)):
        p, g = parse_bgp(text), _graph(seed)
        ta = _automaton(seed, p.width, False)
        for order in permutations(p.edge_vars):
            rows, history = [empty_matching(p)], set()
            core = engine_module._Core(ta, True, None)
            for t in g.domain:
                snap = g.snapshots[t]
                new = snap - history
                history |= new
                if not new:
                    continue
                pairs = extend(g, p, rows, new, order=order, distinct_edges=distinct)
                fate = engine_module._Fate(core, t=t)
                filed = extend(g, p, {core.seed: rows}, new, order=order,
                               distinct_edges=distinct, entry=(snap, fate))
                by_letter = defaultdict(list)
                for _, m in pairs:
                    by_letter[sum(1 << j for j, e in enumerate(m.edges) if e in snap)].append(m)
                dying = 0
                for (_, letter), got in filed.items():
                    if got.__class__ is int:
                        dying += got
                        tails += got > len(by_letter[letter])
                    else:
                        assert got == by_letter[letter], (text, seed, order, t)
                lists = {letter for (_, letter), got in filed.items() if got.__class__ is list}
                assert dying == sum(len(ms) for x, ms in by_letter.items() if x not in lists)
                rows += [m for _, m in pairs]
    assert tails > 0


def _path(width: int):
    return parse_bgp(
        "".join(f"node x{i}\n" for i in range(width + 1))
        + "".join(f"edge y{i} : x{i - 1} -> x{i}\n" for i in range(1, width + 1))
    )


def _line_graph(n_nodes: int):
    """A directed line ``v0 -> v1 -> ...``, edge ``e{i}`` active at ``i + 1``."""
    return build_graph(
        {f"v{i}": "n" for i in range(n_nodes)},
        {f"e{i}": (f"v{i}", f"v{i + 1}", "e") for i in range(n_nodes - 1)},
        {f"e{i}": [float(i + 1)] for i in range(n_nodes - 1)},
    )


def test_a_pruned_count_crosses_the_chained_functions(fates):
    # the width-24 path of test_plan_classes: six matchings on a 29-edge
    # line, each with y1 alone active at its first snapshot.  Baseline binds
    # y1 first, on-demand's anchor y24 first; twelve levels fill a function.
    width = 24
    p, g = _path(width), _line_graph(30)

    def automaton(pattern, idle=False):
        """Accepts once its first letter fits ``pattern``; ``idle`` rows defer."""
        moves = [(0, pattern, 1), (1, "*" * width, 1)] + [(0, "0" * width, 0)] * idle
        return TimedAutomaton(
            2, 0, [1], 0, width, [Transition(a, x, (), (), b) for a, x, b in moves]
        )

    # rows enter at the first snapshot, which holds only e0: y12 is never
    # active there, so baseline prunes at y12 and counts on in the second
    # function, on-demand prunes in the second function
    y12 = automaton("*" * 11 + "1" + "*" * 12)
    # rows defer; y2 and y23 must be active at entry, y1 and y24 not: baseline
    # prunes at y2, on-demand at y22, and both count on across the chain
    inner = automaton("01" + "*" * 20 + "10", idle=True)
    # y1 must be active at the first snapshot: only the row binding e0 lives;
    # on-demand binds y1 last, so it files the dying rows instead
    first_y1 = automaton("1" + "*" * (width - 1))
    for ta, pruned, accepted in ((y12, (6, 6), 0), (inner, (6, 6), 0), (first_y1, (5, 0), 1)):
        for run, want in zip((run_baseline, run_on_demand), pruned):
            fates.clear()
            plain = run(g, p, ta)
            assert sum(fate.pruned for fate in fates) == want, run.__name__
            assert plain.counters.generated == 6 and len(plain.accepted) == accepted
            assert vars(run(g, p, ta, trace=Trace()).counters) == vars(plain.counters)
            # the verdict tables hold only the keys the search met, at most
            # one per prefix of a level, never 2**24 letters
            tables = fates[0].core.verdicts
            assert (1 << width) - 1 not in tables
            for mask, table in tables.items():
                assert len(table) <= len(g.edges), mask
                assert all(not bits & ~mask for _, bits in table), mask


def test_a_last_level_without_tests_is_counted_by_its_length():
    # cycle4's last level iterates the lookup y3 made, which it tests for
    # nothing, so a dead prefix adds its length; a labelled last level loops
    def pruning_plan(text):
        p = parse_bgp(text)
        slots, n = _slot_table(p), len(p.node_vars)
        return _plan_source(slots, n, tuple(_anchored_order(slots, n, 0)), False, False,
                            "total", True)

    src = pruning_plan("node x1\nnode x2\nnode x3\nnode x4\nedge y1 : x1 -> x2\n"
                       "edge y2 : x2 -> x3\nedge y3 : x3 -> x4\nedge y4 : x4 -> x1\n")
    assert src.count("pruned += len(c3)") == 3  # after levels 0, 1 and 2
    assert "live2 = fate.verdicts(7)" in src and "verdicts(15)" not in src
    src = pruning_plan(CASES["label on the last level"][0])
    assert "pruned += 1" in src and "pruned += len(" not in src
