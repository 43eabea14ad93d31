"""Engine behavior beyond the golden traces: toggles, streams, dispatch."""

from __future__ import annotations

from itertools import permutations

import pytest

from tempo_bgp import (
    ALGORITHMS,
    FormatError,
    OrderIncompatible,
    OrderNotConnected,
    Trace,
    build_graph,
    is_connected_order,
    oracle_accepted_matchings,
    parse_automaton,
    run,
    run_baseline,
    run_on_demand,
    run_partial_match,
)
from tempo_bgp.rng import SplitMix64
from tempo_bgp.workbench import random_graph, shape_bgp


def test_width_mismatch_rejected(interactions, bgp, ta):
    with pytest.raises(FormatError):
        run_baseline(interactions, bgp["path3"], ta["ta1"])


def test_empty_domain_accepts_everything_when_initial_accepts(bgp, ta):
    g = build_graph(
        {"a": "n", "b": "n"},
        {"u": ("a", "b", "e"), "w": ("b", "a", "e")},
        {},
    )
    p = bgp["cycle2u"]
    res = run_baseline(g, p, ta["ta1"])
    assert {m.edges for m in res.accepted_set} == {("u", "w"), ("w", "u")}
    assert all(t == 0.0 for _, t in res.accepted)
    # an automaton whose initial state does not accept takes everything away
    assert run_baseline(g, p, ta["ta3"]).accepted == []


def test_never_active_edges_visible_to_baseline_only(bgp, ta):
    g = build_graph(
        {"a": "n", "b": "n"},
        {"u": ("a", "b", "e"), "w": ("b", "a", "e")},
        {"u": [1.0]},
    )
    p = bgp["cycle2u"]
    base = run_baseline(g, p, ta["ta1"]).accepted_set
    assert {m.edges for m in base} == {("u", "w")}
    # streaming engines never see w, so the matching cannot arise
    assert run_on_demand(g, p, ta["ta1"]).accepted == []
    assert run_partial_match(g, p, ta["ta1"]).accepted == []


def test_single_snapshot_stream_equals_baseline(bgp, ta):
    g = build_graph(
        {"a": "n", "b": "n"},
        {"u": ("a", "b", "e"), "w": ("b", "a", "e")},
        {"u": [1.0], "w": [1.0]},
    )
    p = bgp["cycle2u"]
    for name in ("ta1", "ta5", "ta6", "tae"):
        assert (
            run_on_demand(g, p, ta[name]).accepted_set
            == run_baseline(g, p, ta[name]).accepted_set
        )


def test_on_demand_consumes_only_the_stream(interactions, bgp, ta):
    # feeding a truncated stream must equal running on the truncated graph
    cut = 4
    stream = ((t, interactions.snapshots[t]) for t in interactions.domain[:cut])
    res = run_on_demand(interactions, bgp["cycle2"], ta["ta2"], stream=stream)
    truncated = build_graph(
        dict(interactions.nodes),
        {eid: (e.src, e.dst, e.label) for eid, e in interactions.edges.items()},
        {
            eid: [t for t in ts if t <= interactions.domain[cut - 1]]
            for eid, ts in interactions.active.items()
        },
    )
    ref = run_on_demand(truncated, bgp["cycle2"], ta["ta2"])
    assert res.accepted_set == ref.accepted_set
    assert {m.edges for m in res.accepted_set} == {("e5", "e6")}


def test_partial_empty_graph_keeps_seed_row(bgp, ta):
    g = build_graph({"a": "n"}, {}, {})
    tr = Trace()
    res = run_partial_match(g, bgp["cycle2u"], ta["ta2"], trace=tr)
    assert res.accepted == []
    assert [r.matching.edges for r in tr.rows] == [(None, None)]


def test_partial_order_never_materializes_disconnected_pairs(interactions, bgp, ta):
    tr = Trace()
    res = run_partial_match(
        interactions, bgp["path3"], ta["ta4"], order=("y1", "y2", "y3"), trace=tr
    )
    ref = run_baseline(interactions, bgp["path3"], ta["ta4"])
    assert res.accepted_set == ref.accepted_set
    for row in tr.rows:
        bound = [e is not None for e in row.matching.edges]
        assert bound == sorted(bound, reverse=True), row.matching


def test_partial_rejects_bad_orders(interactions, bgp, ta):
    with pytest.raises(OrderNotConnected):
        run_partial_match(interactions, bgp["path3"], ta["ta4"], order=("y1", "y3", "y2"))
    with pytest.raises(OrderIncompatible):
        run_partial_match(interactions, bgp["cycle2u"], ta["ta3"], order=("y2", "y1"))


def test_partial_unknown_order_warns_but_runs(interactions, bgp, ta):
    # alternation automaton with an extra branch whose guard can never be
    # satisfied: dropping guards makes the order look risky (Unknown), but
    # the timed language is untouched, so results still match the baseline
    from tempo_bgp.timed_automaton import TimedAutomaton, Transition

    guarded = TimedAutomaton(
        2,
        0,
        [0, 1],
        1,
        2,
        [
            Transition(0, "00", (), (), 0),
            Transition(0, "10", (), (), 1),
            Transition(1, "00", (), (), 1),
            Transition(1, "01", (), (), 0),
            Transition(0, "01", ((0, "<", 0.0),), (), 0),
        ],
    )
    res = run_partial_match(interactions, bgp["cycle2u"], guarded, order=("y1", "y2"))
    assert res.counters.warnings == 1
    assert res.accepted_set == run_baseline(interactions, bgp["cycle2u"], guarded).accepted_set


def test_early_exit_toggle_changes_counters_not_results(interactions, bgp, ta):
    on = run_baseline(interactions, bgp["example1"], ta["tae"])
    off = run_baseline(interactions, bgp["example1"], ta["tae"], early_exit=False)
    assert on.accepted_set == off.accepted_set
    assert on.counters.rows < off.counters.rows


def test_defer_toggle_changes_counters_not_results(interactions, bgp, ta):
    on = run_baseline(interactions, bgp["cycle2"], ta["ta2"])
    off = run_baseline(interactions, bgp["cycle2"], ta["ta2"], defer_start=False)
    assert on.accepted_set == off.accepted_set
    assert on.counters.rows <= off.counters.rows
    od_on = run_on_demand(interactions, bgp["cycle2"], ta["ta2"])
    od_off = run_on_demand(interactions, bgp["cycle2"], ta["ta2"], defer_start=False)
    assert od_on.accepted_set == od_off.accepted_set


def test_rows_have_no_duplicate_configs(interactions, bgp, ta):
    tr = Trace()
    run_partial_match(interactions, bgp["cycle2u"], ta["ta2"], trace=tr)
    for row in tr.rows:
        assert len(row.configs) == len(set(row.configs))


def test_accept_times_monotone_fields(interactions, bgp, ta):
    res = run_baseline(interactions, bgp["path3"], ta["ta4"])
    for _, t in res.accepted:
        assert t in interactions.domain or t == 0.0
    c = res.counters
    assert c.rows >= 0 and c.generated >= 0 and c.early_rejected >= 0


def test_dispatcher(interactions, bgp, ta):
    res = run("baseline", interactions, bgp["cycle2"], ta["ta2"])
    assert {m.edges for m in res.accepted_set} == {("e5", "e6")}
    with pytest.raises(FormatError):
        run("quantum", interactions, bgp["cycle2"], ta["ta2"])
    with pytest.raises(FormatError):
        run("baseline", interactions, bgp["cycle2"], ta["ta2"], order=("y1", "y2"))


def test_concurrent_runs_share_immutable_inputs(interactions, bgp, ta):
    from concurrent.futures import ThreadPoolExecutor

    jobs = [
        ("baseline", "cycle2", "ta2"),
        ("on-demand", "cycle2", "ta2"),
        ("partial", "cycle2u", "ta1"),
        ("baseline", "example1", "tae"),
    ] * 3
    def work(job):
        algo, shape, a = job
        return run(algo, interactions, bgp[shape], ta[a]).accepted_set
    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(work, jobs))
    for job, got in zip(jobs, results):
        algo, shape, a = job
        assert got == run(algo, interactions, bgp[shape], ta[a]).accepted_set


def first_timepoint_automaton(width: int):
    """``y1`` is active at the first timepoint: the initial state dies on
    the zero letter, so it does not idle and no entry may be deferred."""
    return parse_automaton(
        "states 2\ninitial 0\naccepting 1\nclocks 0\n"
        f"trans 0 1{'*' * (width - 1)} true - 1\ntrans 1 {'*' * width} true - 1\n",
        width,
    )


@pytest.mark.parametrize("seed", range(25))
def test_three_way_agreement_smoke(seed, ta):
    # every engine option against the oracle, for a random bundled automaton
    # and for one that does not idle on empty letters
    rng = SplitMix64(seed * 101 + 17)
    g = random_graph(rng)
    shapes2 = ("path2", "cycle2", "star2")
    shapes3 = ("path3", "cycle3")
    tas2 = ("tae", "ta1", "ta2", "ta3", "ta5", "ta6", "ta7", "ta8", "ta0_m2")
    tas3 = ("ta4", "ta0_m3")
    if rng.randint(0, 1):
        p, a = shape_bgp(rng.choice(shapes2)), ta[rng.choice(tas2)]
    else:
        p, a = shape_bgp(rng.choice(shapes3)), ta[rng.choice(tas3)]
    orders = [None, *(o for o in permutations(p.edge_vars) if is_connected_order(p, o))]
    for automaton in (a, first_timepoint_automaton(p.width)):
        for distinct in (False, True):
            ref = frozenset(oracle_accepted_matchings(g, p, automaton, distinct_edges=distinct))
            for early in (False, True):
                for defer in (False, True):
                    opts = dict(early_exit=early, defer_start=defer, distinct_edges=distinct)
                    case = (seed, distinct, early, defer)
                    assert run_baseline(g, p, automaton, **opts).accepted_set == ref, case
                    stream = iter([(t, g.snapshots[t]) for t in g.domain])
                    res = run_on_demand(g, p, automaton, stream=stream, **opts)
                    assert res.accepted_set == ref, case
                for order in orders:
                    try:
                        res = run_partial_match(
                            g, p, automaton, order=order, early_exit=early, distinct_edges=distinct
                        )
                    except OrderIncompatible:
                        continue
                    assert res.accepted_set == ref, (seed, distinct, early, order)


def clock_gap_automaton(op: str):
    """``y2`` is active ``c0 op 2`` time units after some activation of ``y1``."""
    return parse_automaton(
        "states 3\ninitial 0\naccepting 2\nclocks 1\n"
        "trans 0 ** true - 0\ntrans 0 1* true 0 1\ntrans 1 ** true - 1\n"
        f"trans 1 *1 c0{op}2 - 2\ntrans 2 ** true - 2\n",
        2,
    )


def test_constants_and_guard_boundaries_agree_with_the_oracle(bgp, ta):
    # the oracle's constant-endpoint check and each comparator's false
    # branch at the boundary value, against all three engines
    answered = 0
    for seed in range(200):
        g = random_graph(SplitMix64(seed))
        ref = frozenset(oracle_accepted_matchings(g, bgp["example1"], ta["tae"]))
        for algo in ALGORITHMS:
            assert run(algo, g, bgp["example1"], ta["tae"]).accepted_set == ref, (algo, seed)
        answered += bool(ref)
    assert answered  # v1 reaches v4 in time on some seed

    p = shape_bgp("path2")
    automata = {op: clock_gap_automaton(op) for op in ("<", "<=", ">", ">=")}
    strict_differs = {"<": 0, ">": 0}
    for seed in range(60):
        g = random_graph(SplitMix64(1000 + seed), max_edges=8)
        refs = {}
        for op, automaton in automata.items():
            refs[op] = frozenset(oracle_accepted_matchings(g, p, automaton))
            for algo in ALGORITHMS:
                assert run(algo, g, p, automaton).accepted_set == refs[op], (op, algo, seed)
        for op in strict_differs:
            strict_differs[op] += refs[op] != refs[op + "="]
    # a gap of exactly 2 separates each strict comparator from its non-strict one
    assert all(strict_differs.values()), strict_differs
