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
    # search cut disconnected prefixes and backtrack; random connected
    # patterns of width 5 and 6 make backtracking meet sets of variables
    # still to place that already failed
    cases = [
        (path.stem, load_bgp(path.stem), name, a)
        for path in sorted(fixture_path("bgp").glob("*.bgp"))
        for name, a in ta.items()
    ]
    shapes = [(s, shape_bgp(s)) for s in ("path2", "cycle2", "star2", "path3", "cycle3", "cycle4")]
    for seed in range(200):
        a = random_automaton(seed)
        cases += [(s, p, f"random{seed}", a) for s, p in shapes]
    for seed in range(150):
        rng = SplitMix64(seed)
        for width in (5, 6):
            p, a = random_connected_bgp(rng, width), random_wide_automaton(rng, width)
            cases.append((f"connected{seed}", p, f"wide{seed}", a))
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


def one_state_automaton(letters: list[str]) -> TimedAutomaton:
    """One accepting state with a loop on each of ``letters``."""
    transitions = [Transition(0, letter, (), (), 0) for letter in letters]
    return TimedAutomaton(1, 0, [0], 0, len(letters[0]), transitions)


def test_search_refuses_disconnected_edge_variables_at_once():
    # every letter is all-zero or all-one, so every first appearance
    # coincides and every pair is Compatible both ways: only connectivity
    # rules an order out, and each set of star variables still to place is
    # searched once, not each of their orders
    width = 12
    a = one_state_automaton(["0" * width, "1" * width])
    started = time.perf_counter()
    assert _search_order(parse_bgp(star_and_one(width, "w")), a) is None
    assert time.perf_counter() - started < 1.0
    # a constant counts as a vertex: the lone edge at the hub joins the star
    joined = parse_bgp(star_and_one(width, "hub"))
    assert _search_order(joined, a) == joined.edge_vars


def test_search_refuses_a_connected_star_at_once():
    # besides all-zero and all-one, one letter sets every variable but
    # y11 and one every variable but y12: each of the two may appear
    # strictly before the other, so no order places both, and every other
    # pair is Compatible both ways, which leaves only remembered sets to
    # stop the search from trying every order of the rest
    width = 12
    p = parse_bgp(star_and_one(width, "hub"))
    letters = ["0" * width, "1" * width, "1" * 10 + "01", "1" * 11 + "0"]
    a = one_state_automaton(letters)
    started = time.perf_counter()
    assert _search_order(p, a) is None
    assert time.perf_counter() - started < 1.0


def random_connected_bgp(rng: SplitMix64, width: int):
    """A connected pattern of ``width`` edge variables, declared in a
    shuffled order, so that the declaration order is often disconnected."""
    nodes = ["x0"]
    ends = []
    for _ in range(width):
        a = rng.choice(nodes)
        b = rng.choice([*nodes, f"x{len(nodes)}"])
        if b not in nodes:
            nodes.append(b)
        ends.append((a, b) if rng.randint(0, 1) else (b, a))
    for i in range(width - 1, 0, -1):
        k = rng.randint(0, i)
        ends[i], ends[k] = ends[k], ends[i]
    lines = [f"node {v}" for v in nodes]
    lines += [f"edge y{i} : {a} -> {b}" for i, (a, b) in enumerate(ends, 1)]
    return parse_bgp("\n".join([*lines, ""]))


def random_wide_automaton(rng: SplitMix64, width: int) -> TimedAutomaton:
    """One accepting state whose letters are all-zero, all-one and one to
    three that set a random part of the variables: a variable set by such
    a letter may not follow one it leaves clear."""
    letters = ["0" * width, "1" * width]
    letters += ["".join(rng.choice("1110") for _ in range(width)) for _ in range(rng.randint(1, 3))]
    return one_state_automaton(letters)
