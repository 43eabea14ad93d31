"""The brute-force reference implementations themselves."""

from __future__ import annotations

import pytest

from tempo_bgp import (
    Matching,
    OracleGuardError,
    accepts,
    build_graph,
    empty_matching,
    match_total,
    oracle_accepts,
    oracle_match,
    oracle_maximal_partials,
    oracle_run,
    oracle_word,
    parse_bgp,
)
from tempo_bgp.oracle import oracle_enumerate_partials
from tempo_bgp.rng import SplitMix64
from tempo_bgp.timed_automaton import TimedAutomaton, Transition
from tempo_bgp.workbench import random_graph, shape_bgp


def test_cycle2_on_example_graph(interactions, bgp):
    got = oracle_match(interactions, bgp["cycle2"])
    assert {m.edges for m in got} == {("e5", "e6"), ("e8", "e9")}


def test_unsatisfiable_label(interactions):
    p = parse_bgp("node x1 : nosuch\nnode x2\nedge y1 : x1 -> x2\n")
    assert oracle_match(interactions, p) == []


@pytest.mark.parametrize("seed", range(6))
def test_cross_check_with_matcher(seed):
    g = random_graph(SplitMix64(seed * 13 + 7), max_edges=8)
    p = shape_bgp("path2")
    assert oracle_match(g, p) == match_total(g, p)


def test_guard_refuses_oversized():
    nodes = {f"v{i}": "n" for i in range(40)}
    edges = {
        f"e{i}": (f"v{i % 40}", f"v{(i + 1) % 40}", "e") for i in range(600)
    }
    g = build_graph(nodes, edges, {k: [1.0] for k in edges})
    with pytest.raises(OracleGuardError):
        oracle_match(g, shape_bgp("path3"))


def test_guard_refuses_wide_letter_expansion():
    # 2^30 concrete letters for one all-wildcard transition
    width = 30
    ta = TimedAutomaton(1, 0, [0], 0, width, [Transition(0, "*" * width, (), (), 0)])
    with pytest.raises(OracleGuardError, match="letter expansion"):
        oracle_run(ta, [(1.0, 0)])


class TestOracleAccepts:
    def test_alternation(self, interactions, bgp, ta):
        p = bgp["cycle2"]
        w_good = oracle_word(interactions, p, Matching(("e5", "e6"), ("v5", "v1")))
        w_bad = oracle_word(interactions, p, Matching(("e8", "e9"), ("v7", "v1")))
        assert oracle_accepts(ta["ta1"], w_good)
        assert not oracle_accepts(ta["ta1"], w_bad)

    def test_containment_violated(self, ta):
        # a letter where y1 is active but y2 is not
        assert not oracle_accepts(ta["ta8"], [(1.0, 0b01)])
        assert oracle_accepts(ta["ta8"], [(1.0, 0b10), (2.0, 0b11)])

    def test_gap_constraint(self, interactions, bgp, ta):
        w = oracle_word(interactions, bgp["office"], Matching(("e11", "e12"), ("v8", "v2", "v4")))
        assert not oracle_accepts(ta["ta7"], w)

    def test_empty_word(self, ta):
        assert oracle_accepts(ta["ta1"], [])
        assert not oracle_accepts(ta["tae"], [])

    def test_agrees_with_engine_on_short_words(self, ta):
        # every width-2 automaton, every letter sequence of length <= 4,
        # over a couple of dyadic time grids
        grids = [
            (1.0, 2.0, 3.0, 4.0),
            (0.25, 0.5, 2.75, 6.125),
            (1.5, 3.25, 3.375, 9.0),
        ]
        names = [n for n, a in ta.items() if a.width == 2]
        for name in names:
            a = ta[name]
            for length in range(5):
                for code in range(4 ** length):
                    letters = [(code >> (2 * i)) & 3 for i in range(length)]
                    for grid in grids:
                        w = list(zip(grid[:length], letters))
                        assert oracle_accepts(a, w) == accepts(a, w), (name, w)

    def test_agrees_with_engine_exhaustive_length_six(self, ta):
        # one integer grid, all width-2 letter sequences up to length 6
        names = [n for n, a in ta.items() if a.width == 2]
        for name in names:
            a = ta[name]
            for length in range(7):
                for code in range(4 ** length):
                    w = [
                        (float(i + 1), (code >> (2 * i)) & 3) for i in range(length)
                    ]
                    assert oracle_accepts(a, w) == accepts(a, w), (name, w)

    def test_agrees_with_engine_wider_alphabets(self, ta):
        for name in ("ta4", "ta0_m3", "ta0_m4"):
            a = ta[name]
            n_letters = 1 << a.width
            for length in range(4):
                for code in range(n_letters ** length):
                    w = []
                    c = code
                    for i in range(length):
                        w.append((float(i + 1), c % n_letters))
                        c //= n_letters
                    assert oracle_accepts(a, w) == accepts(a, w), (name, w)


class TestPartialEnumeration:
    def test_empty_edges(self, interactions, bgp):
        p = bgp["cycle2u"]
        assert oracle_maximal_partials(interactions, p, set()) == [empty_matching(p)]

    def test_two_edge_chain(self):
        g = build_graph(
            {"a": "n", "b": "n", "c": "n"},
            {"u": ("a", "b", "e"), "w": ("b", "c", "e")},
            {"u": [1.0], "w": [2.0]},
        )
        p = shape_bgp("path2")
        got = {m.edges for m in oracle_maximal_partials(g, p, {"u", "w"})}
        # the total matching subsumes its sub-partials; the reversed roles
        # survive as maximal singletons
        assert got == {("u", "w"), ("w", None), (None, "u")}

    def test_seven_partials_and_two_totals_on_early_variant(self):
        # the nine-edge variant of the example graph in which v4 is a
        # customer: the two-cycle pattern then has exactly 7 single-edge
        # partial matchings and 2 totals
        nodes = {
            "v1": "emp",
            "v2": "emp",
            "v3": "emp",
            "v4": "cst",
            "v5": "cst",
            "v6": "cst",
            "v7": "cst",
        }
        edges = {
            "e1": ("v1", "v2", "msg"),
            "e2": ("v1", "v3", "msg"),
            "e3": ("v2", "v4", "msg"),
            "e4": ("v3", "v4", "msg"),
            "e5": ("v5", "v1", "msg"),
            "e6": ("v1", "v5", "msg"),
            "e7": ("v6", "v1", "msg"),
            "e8": ("v7", "v1", "msg"),
            "e9": ("v1", "v7", "msg"),
        }
        g = build_graph(nodes, edges, {k: [1.0] for k in edges})
        p = parse_bgp(
            "node x1 : cst\nnode x2 : emp\nedge y1 : x1 -> x2\nedge y2 : x2 -> x1\n"
        )
        partials = oracle_enumerate_partials(g, p, set(edges))
        totals = {m.edges for m in partials if None not in m.edges}
        singles = {m.edges for m in partials if m.edges.count(None) == 1}
        assert totals == {("e5", "e6"), ("e8", "e9")}
        assert singles == {
            ("e5", None),
            ("e7", None),
            ("e8", None),
            (None, "e3"),
            (None, "e4"),
            (None, "e6"),
            (None, "e9"),
        }
        assert len(singles) == 7

    def test_no_maximal_contains_another(self, interactions, bgp):
        got = oracle_maximal_partials(interactions, bgp["cycle2u"], set(interactions.edges))
        for a in got:
            for b in got:
                assert a == b or not a.contains(b)


def test_guard_refuses_wide_partial_enumeration():
    # 2^30 subsets of edge variables, refused before the first one
    p = parse_bgp("node a\nnode b\n" + "".join(f"edge y{k} : a -> b\n" for k in range(30)))
    with pytest.raises(OracleGuardError, match="edge-variable subsets"):
        oracle_enumerate_partials(build_graph({}, {}, {}), p, [])
