"""Order-restricted partial runs across the randomized corpus.

For every instance, exhaustively look for an edge-variable order that is
connected for the pattern and provably compatible with the automaton; when
one exists, the restricted partial run must reproduce the baseline while
only ever materializing prefix-shaped rows.
"""

from __future__ import annotations

import time
from itertools import permutations

import pytest

from tempo_bgp import (
    Compatibility,
    Trace,
    is_compatible_order,
    is_connected_order,
    parse_bgp,
    run_baseline,
    run_partial_match,
)
from tempo_bgp.fixtures import fixture_path, load_bgp
from tempo_bgp.rng import SplitMix64
from tempo_bgp.timed_automaton import TimedAutomaton, Transition, _search_order, order_indices
from tempo_bgp.workbench import random_graph, shape_bgp

from test_automaton_cubes import random_automaton


def find_order(p, a):
    for perm in permutations(p.edge_vars):
        if is_connected_order(p, perm) and (
            is_compatible_order(a, order_indices(p, perm)) is Compatibility.COMPATIBLE
        ):
            return perm
    return None


@pytest.mark.parametrize("seed", range(40))
def test_restricted_partial_equals_baseline(seed, ta):
    rng = SplitMix64(seed * 37 + 11)
    g = random_graph(rng, max_nodes=8, max_edges=10, max_timepoints=5)
    width = 2 if rng.randint(0, 1) else 3
    if width == 2:
        p = shape_bgp(rng.choice(("path2", "cycle2", "star2")))
        a = ta[rng.choice(("tae", "ta1", "ta2", "ta3", "ta0_m2"))]
    else:
        p = shape_bgp(rng.choice(("path3", "cycle3")))
        a = ta[rng.choice(("ta4", "ta0_m3"))]
    order = find_order(p, a)
    if order is None:
        pytest.skip("no connected compatible order for this automaton")
    tr = Trace()
    res = run_partial_match(g, p, a, order=order, trace=tr)
    assert res.counters.warnings == 0
    assert res.accepted_set == run_baseline(g, p, a).accepted_set
    pos = {y: i for i, y in enumerate(order)}
    for row in tr.rows:
        bound = [
            pos[y]
            for y, e in zip(p.edge_vars, row.matching.edges)
            if e is not None
        ]
        assert sorted(bound) == list(range(len(bound))), row.matching


def test_search_finds_known_orders(ta):
    assert find_order(shape_bgp("path3"), ta["ta4"]) == ("y1", "y2", "y3")
    assert find_order(shape_bgp("cycle2"), ta["ta1"]) == ("y1", "y2")
    # mutual exclusion has no first-appearance discipline at all
    assert find_order(shape_bgp("cycle2"), ta["ta6"]) is None


def test_pruned_search_finds_the_permutation_loops_order(ta):
    # every bundled pattern against every bundled automaton of its width,
    # and the benchmark shapes against random automata, which make the
    # search cut disconnected prefixes and backtrack
    cases = [
        (path.stem, load_bgp(path.stem), name, a)
        for path in sorted(fixture_path("bgp").glob("*.bgp"))
        for name, a in ta.items()
    ]
    shapes = [(s, shape_bgp(s)) for s in ("path2", "cycle2", "star2", "path3", "cycle3", "cycle4")]
    for seed in range(200):
        a = random_automaton(seed)
        cases += [(s, p, f"random{seed}", a) for s, p in shapes]
    checked = set()
    for p_name, p, a_name, a in cases:
        if a.width == p.width:
            order = find_order(p, a)
            assert _search_order(p, a) == order, (p_name, a_name)
            checked.add(order is None)
    assert checked == {True, False}  # both found orders and refusals


def star_and_one(width: int, lone: str) -> str:
    """A star of ``width - 1`` edge variables around the constant ``hub``,
    plus one edge variable ``lone -> z``."""
    lines = ["const hub", "node z", *(f"node x{i}" for i in range(1, width))]
    lines += [f"edge y{i} : hub -> x{i}" for i in range(1, width)]
    if lone != "hub":
        lines.append(f"node {lone}")
    return "\n".join([*lines, f"edge y{width} : {lone} -> z", ""])


def test_search_refuses_disconnected_edge_variables_at_once():
    # every letter is all-zero or all-one, so every first appearance
    # coincides and every pair is Compatible both ways: only connectivity
    # rules an order out, and a search over connected prefixes of the star
    # alone would try them all
    width = 12
    a = TimedAutomaton(
        1,
        0,
        [0],
        0,
        width,
        [Transition(0, "0" * width, (), (), 0), Transition(0, "1" * width, (), (), 0)],
    )
    started = time.perf_counter()
    assert _search_order(parse_bgp(star_and_one(width, "w")), a) is None
    assert time.perf_counter() - started < 1.0
    # a constant counts as a vertex: the lone edge at the hub joins the star
    joined = parse_bgp(star_and_one(width, "hub"))
    assert _search_order(joined, a) == joined.edge_vars
