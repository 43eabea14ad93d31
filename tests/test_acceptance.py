"""End-to-end acceptance suite.

One test per shipping criterion; the conftest plugin prints a PASS/FAIL
line per criterion in the terminal summary.  Criteria 8 and 9 run the
50-node synthetic benchmark and take a few minutes between them; everything
else is fast.
"""

from __future__ import annotations

import math
import time

import pytest

from tempo_bgp import (
    Matching,
    accepts,
    empty_matching,
    extend,
    history_upto,
    oracle_accepted_matchings,
    oracle_maximal_partials,
    oracle_run,
    oracle_word,
    run,
    run_baseline,
    run_on_demand,
    run_partial_match,
)
from tempo_bgp.engine import Trace
from tempo_bgp.oracle import oracle_enumerate_partials
from tempo_bgp.rng import SplitMix64
from tempo_bgp.workbench import (
    GenSpec,
    coarsen_graph,
    generate_graph,
    random_graph,
    ring_automaton,
    shape_bgp,
)


def bits(display: str) -> int:
    """Letter int from its display string (leftmost char = first variable)."""
    return sum(1 << j for j, ch in enumerate(display) if ch == "1")


CYCLE_EDGES = {"e5", "e6", "e8", "e9"}


# -- criterion 1 -----------------------------------------------------------


def test_criterion_01_baseline_golden_trace(interactions, bgp, ta):
    """Baseline on the example graph: exact working-table evolution."""
    tr = Trace()
    start = time.perf_counter()
    res = run_baseline(interactions, bgp["cycle2"], ta["ta2"], defer_start=False, trace=tr)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0

    m56 = Matching(("e5", "e6"), ("v5", "v1"))
    m89 = Matching(("e8", "e9"), ("v7", "v1"))

    def row(t, m):
        return tr.row(t, m)

    for m in (m56, m89):
        r = row(0.0, m)
        assert (r.letter, r.configs, r.status) == (bits("00"), ((0, (0.0,)),), "alive")

    r = row(1.0, m56)
    assert (r.letter, r.configs) == (bits("10"), ((1, (1.0,)),))
    r = row(1.0, m89)
    assert (r.letter, r.configs) == (bits("00"), ((0, (0.0,)),))

    for t, expected_value in ((1.1, 1.1 - 1.0), (1.9, 1.9 - 1.0)):
        r = row(t, m56)
        assert r.letter == bits("00")
        ((state, stamps),) = r.configs
        assert state == 1
        assert t - stamps[0] == expected_value
        assert row(t, m89).configs == ((0, (0.0,)),)

    r = row(2.0, m56)
    assert (r.letter, r.configs) == (bits("01"), ((0, (2.0,)),))
    r = row(2.0, m89)
    assert (r.letter, r.configs) == (bits("10"), ((1, (2.0,)),))

    r = row(3.0, m56)
    assert (r.letter, r.configs, r.status) == (bits("10"), ((1, (3.0,)),), "alive")
    r = row(3.0, m89)
    assert (r.letter, r.configs, r.status) == (bits("10"), (), "dropped")
    assert all(rt.matching != m89 for rt in tr.rows if rt.t > 3.0)

    assert res.accepted == [(m56, 9.0)]


# -- criterion 2 -----------------------------------------------------------


def test_criterion_02_on_demand_golden_trace(interactions, bgp, ta):
    """On-demand: discovery at t=2 after catch-up, elimination at the t=3 letter."""
    tr = Trace()
    start = time.perf_counter()
    res = run_on_demand(interactions, bgp["cycle2"], ta["ta2"], trace=tr)
    assert time.perf_counter() - start < 1.0

    m56 = Matching(("e5", "e6"), ("v5", "v1"))
    m89 = Matching(("e8", "e9"), ("v7", "v1"))

    ev56 = next(e for e in tr.events if e.matching == m56)
    assert ev56.discovered_at == 2.0
    assert ev56.configs == ((1, (1.0,)),)  # caught up over t=1, 1.1, 1.9
    assert ev56.eliminated_at is None

    ev89 = next(e for e in tr.events if e.matching == m89)
    assert ev89.discovered_at == 9.0
    assert ev89.eliminated_at == 3.0

    assert [(r.matching, r.configs) for r in tr.rows_at(2.0)] == [(m56, ((0, (2.0,)),))]
    assert [(r.matching, r.configs) for r in tr.rows_at(3.0)] == [(m56, ((1, (3.0,)),))]
    assert [(r.matching, r.configs) for r in tr.rows_at(9.0)] == [(m56, ((0, (6.0,)),))]
    assert res.accepted == [(m56, 9.0)]


# -- criterion 3 -----------------------------------------------------------


def test_criterion_03_partial_match_golden_trace(interactions, bgp, ta):
    """Partial-match table on the unlabeled two-cycle, with all side rows."""
    p = bgp["cycle2u"]
    tr = Trace()
    start = time.perf_counter()
    res = run_partial_match(interactions, p, ta["ta2"], trace=tr)
    assert time.perf_counter() - start < 1.0

    empty = empty_matching(p)

    def cycle_rows(t):
        return {
            r.matching.edges: (r.letter, r.configs, r.status)
            for r in tr.rows_at(t)
            if r.matching == empty
            or all(e is None or e in CYCLE_EDGES for e in r.matching.edges)
        }

    assert cycle_rows(0.0) == {(None, None): (bits("00"), ((0, (0.0,)),), "alive")}
    assert cycle_rows(1.0) == {
        (None, None): (bits("00"), ((0, (0.0,)),), "alive"),
        ("e5", None): (bits("10"), ((1, (1.0,)),), "alive"),
        (None, "e5"): (bits("01"), (), "dropped"),
    }
    assert cycle_rows(2.0) == {
        (None, None): (bits("00"), ((0, (0.0,)),), "alive"),
        ("e5", None): (bits("00"), ((1, (1.0,)),), "alive"),
        ("e6", None): (bits("10"), ((1, (2.0,)),), "alive"),
        (None, "e6"): (bits("01"), (), "dropped"),
        ("e8", None): (bits("10"), ((1, (2.0,)),), "alive"),
        (None, "e8"): (bits("01"), (), "dropped"),
        ("e5", "e6"): (bits("01"), ((0, (2.0,)),), "alive"),
    }
    assert cycle_rows(3.0) == {
        (None, None): (bits("00"), ((0, (0.0,)),), "alive"),
        ("e5", None): (bits("10"), (), "dropped"),
        ("e6", None): (bits("00"), ((1, (2.0,)),), "alive"),
        ("e8", None): (bits("10"), (), "dropped"),
        ("e5", "e6"): (bits("10"), ((1, (3.0,)),), "alive"),
    }

    # the sixteen side rows over non-cycle edges, each a maximal partial
    # matching of the history at its creation time
    created: dict[tuple, float] = {}
    for r in tr.rows:
        if r.matching == empty or r.t > 3.0:
            continue
        if r.matching.edges not in created:
            created[r.matching.edges] = r.t
    side = {
        edges: t
        for edges, t in created.items()
        if any(e is not None and e not in CYCLE_EDGES for e in edges)
    }
    assert len(side) == 16
    for edges, t in side.items():
        hist = history_upto(interactions, interactions.rank[t])
        mu = next(
            r.matching for r in tr.rows if r.t == t and r.matching.edges == edges
        )
        assert mu in oracle_maximal_partials(interactions, p, hist), edges

    # every alive row is a valid partial matching of the current history,
    # and every automaton-viable maximal partial is present
    for t in (1.0, 1.1, 1.9, 2.0, 3.0):
        rank = interactions.rank[t]
        hist = history_upto(interactions, rank)
        alive = {r.matching for r in tr.rows_at(t) if r.status == "alive"}
        valid = set(oracle_enumerate_partials(interactions, p, hist))
        assert alive <= valid
        for mu in oracle_maximal_partials(interactions, p, hist):
            if oracle_run(ta["ta2"], oracle_word(interactions, p, mu)[:rank])[-1]:
                assert mu in alive, (t, mu)

    assert {m.edges for m in res.accepted_set} == {("e5", "e6")}


# -- criterion 4 -----------------------------------------------------------


def test_criterion_04_existential_two_hop(interactions, bgp, ta):
    start = time.perf_counter()
    res = run_baseline(interactions, bgp["example1"], ta["tae"])
    assert time.perf_counter() - start < 1.0
    assert res.accepted == [(Matching(("e1", "e3"), ("v2",)), 3.0)]


# -- criterion 5 -----------------------------------------------------------


def test_criterion_05_constraint_semantics(interactions, bgp, ta):
    cyc = bgp["cycle2"]
    w56 = oracle_word(interactions, cyc, Matching(("e5", "e6"), ("v5", "v1")))
    w89 = oracle_word(interactions, cyc, Matching(("e8", "e9"), ("v7", "v1")))
    assert accepts(ta["ta1"], w56)
    assert not accepts(ta["ta1"], w89)

    office = Matching(("e11", "e12"), ("v8", "v2", "v4"))
    w_office = oracle_word(interactions, bgp["office"], office)
    assert not accepts(ta["ta7"], w_office)
    assert accepts(ta["ta6"], w_office)

    assert office not in run_baseline(interactions, bgp["office"], ta["ta7"]).accepted_set
    assert office in run_baseline(interactions, bgp["office"], ta["ta6"]).accepted_set


# -- criteria 6 and 7: randomized corpus ------------------------------------

SHAPES_BY_WIDTH = {2: ("path2", "cycle2", "star2"), 3: ("path3", "cycle3")}
TAS_BY_WIDTH = {
    2: ("tae", "ta0_m2", "ta1", "ta2", "ta3", "ta5", "ta6", "ta7", "ta8"),
    3: ("ta0_m3", "ta4"),
}


def corpus_instance(seed, ta):
    rng = SplitMix64(seed)
    g = random_graph(rng, max_nodes=10, max_edges=14, max_timepoints=6)
    width = 2 if rng.randint(0, 1) else 3
    p = shape_bgp(rng.choice(SHAPES_BY_WIDTH[width]))
    a = ta[rng.choice(TAS_BY_WIDTH[width])]
    return g, p, a


def test_criterion_06_differential_equivalence(ta):
    start = time.perf_counter()
    for seed in range(200):
        g, p, a = corpus_instance(seed, ta)
        ref = frozenset(oracle_accepted_matchings(g, p, a))
        for algo in ("baseline", "on-demand", "partial"):
            got = run(algo, g, p, a).accepted_set
            assert got == ref, (seed, algo)
    assert time.perf_counter() - start < 60.0


def test_criterion_07_extension_prefix_property(ta):
    violations = 0
    for seed in range(200):
        g, p, _ = corpus_instance(seed, ta)
        table = [empty_matching(p)]
        hist: set[str] = set()
        for i in range(1, len(g.domain) + 1):
            new = set(history_upto(g, i)) - hist
            hist |= new
            pairs = extend(g, p, table, new)
            for old, ext in pairs:
                if oracle_word(g, p, old)[: i - 1] != oracle_word(g, p, ext)[: i - 1]:
                    violations += 1
            table = sorted({*table, *(b for _, b in pairs)}, key=lambda m: str(m.edges))
    assert violations == 0


# -- criteria 8 and 9: automaton size and clock count ------------------------


@pytest.fixture(scope="module")
def bench_graph():
    return generate_graph(GenSpec(50, 0.5, 0.5, 25, seed=42))


def _timed_baseline(g, p, a, repeats=2):
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = run_baseline(g, p, a)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return result, best


def test_criterion_08_automaton_size_invariance(bench_graph):
    p = shape_bgp("cycle4")
    run_baseline(bench_graph, p, ring_automaton(4))  # warm-up
    sizes = []
    for laps in (1, 2, 4, 8, 16, 32, 64):
        a = ring_automaton(4, laps=laps)
        assert a.n_states == 4 * laps
        sizes.append(a)
    accepted = []
    times = [math.inf] * len(sizes)
    # round-robin, best per size over the rounds: a slow phase of the host
    # then slows one round of every size, not a block of consecutive sizes
    for _ in range(3):
        for k, a in enumerate(sizes):
            t0 = time.perf_counter()
            result = run_baseline(bench_graph, p, a)
            times[k] = min(times[k], time.perf_counter() - t0)
            accepted.append(result.accepted_set)
    assert all(s == accepted[0] for s in accepted)
    spread = max(times) / min(times) - 1.0
    assert spread < 0.25, f"run time spread {spread:.2%} across sizes {times}"


def test_criterion_09_clock_count_overhead(bench_graph):
    p = shape_bgp("cycle4")
    accepted = []
    timed = {}
    for clocks in range(9):
        a = ring_automaton(4, n_clocks=clocks)
        if clocks in (0, 8):
            result, best = _timed_baseline(bench_graph, p, a)
            timed[clocks] = best
        else:
            result = run_baseline(bench_graph, p, a)
        accepted.append(result.accepted_set)
    assert all(s == accepted[0] for s in accepted)
    assert timed[8] < 1.5 * timed[0], f"clock overhead {timed[8] / timed[0] - 1:.2%}"


# -- criterion 10: scaling trends -------------------------------------------


def test_criterion_10_density_and_domain_scaling(bgp, ta):
    p3 = shape_bgp("path3")
    matchings = []
    partials = []
    for d in [x / 10 for x in range(1, 11)]:
        g = generate_graph(GenSpec(16, d, 0.5, 8, seed=11))
        matchings.append(run_baseline(g, p3, ta["ta4"]).counters.generated)
        partials.append(run_partial_match(g, p3, ta["ta4"]).counters.generated)
    assert all(m > 0 for m in matchings)
    # matchings are monotone under the nested sampler, and the partial
    # working set grows no faster than the matching count
    assert matchings == sorted(matchings)
    ratios = [p / m for p, m in zip(partials, matchings)]
    assert all(a >= b for a, b in zip(ratios, ratios[1:])), ratios
    assert partials[-1] / partials[0] <= matchings[-1] / matchings[0]

    base = generate_graph(GenSpec(16, 0.4, 0.5, 200, seed=3))
    p2 = shape_bgp("path2")
    xs = []
    rows = {algo: [] for algo in ("baseline", "on-demand", "partial")}
    for factor in (8, 4, 2, 1):
        g = coarsen_graph(base, factor)
        xs.append(len(g.domain))
        for algo in rows:
            rows[algo].append(run(algo, g, p2, ta["tae"], early_exit=False).counters.rows)
    assert xs == [25, 50, 100, 200]
    for algo, ys in rows.items():
        assert _r_squared(xs, ys) > 0.95, (algo, ys)


def _r_squared(xs, ys):
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return (sxy * sxy) / (sxx * syy)


# -- criterion 11: ordering checks ------------------------------------------


def test_criterion_11_ordering_checks(bgp, ta, capsys):
    from tempo_bgp import Compatibility, is_compatible_order, is_connected_order
    from tempo_bgp.cli import main
    from tempo_bgp.fixtures import fixture_path

    p3 = bgp["path3"]
    assert is_connected_order(p3, ("y1", "y2", "y3"))
    assert not is_connected_order(p3, ("y1", "y3", "y2"))
    assert is_compatible_order(ta["ta3"], [0, 1]) is Compatibility.COMPATIBLE
    assert is_compatible_order(ta["ta3"], [1, 0]) is Compatibility.INCOMPATIBLE

    assert main([
        "check-order",
        "--bgp", str(fixture_path("bgp", "cycle2u.bgp")),
        "--ta", str(fixture_path("ta", "ta3.ta")),
        "--order", "y1,y2",
    ]) == 0
    assert capsys.readouterr().out.strip() == "connected=true compatible=Compatible"
