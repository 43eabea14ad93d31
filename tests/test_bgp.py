"""Pattern parsing, total matching, partial matching, incremental deltas."""

from __future__ import annotations

import pytest

from tempo_bgp import (
    DuplicateIdError,
    FormatError,
    Matching,
    ReferentialError,
    delta_match,
    empty_matching,
    extend,
    history_upto,
    match_total,
    oracle_match,
    parse_bgp,
)
from tempo_bgp.rng import SplitMix64
from tempo_bgp.workbench import GenSpec, generate_graph, random_graph, shape_bgp
from test_matcher_binder import restricted


def edge_sets(matchings):
    return {m.edges for m in matchings}


class TestParse:
    def test_cycle2(self, bgp):
        p = bgp["cycle2"]
        assert p.edge_vars == ("y1", "y2")
        assert p.rho == {"y1": ("x1", "x2"), "y2": ("x2", "x1")}
        assert p.labels == {"x1": "cst", "x2": "emp"}

    def test_example1(self, bgp):
        p = bgp["example1"]
        assert p.constants == ("v1", "v4")
        assert p.node_vars == ("x",)
        assert len(p.edge_vars) == 2

    def test_undeclared_endpoint(self):
        with pytest.raises(FormatError):
            parse_bgp("node x1\nedge y1 : x1 -> nowhere\n")
        with pytest.raises(FormatError):  # an edge variable is not an endpoint
            parse_bgp("node x\nedge y1 : x -> x\nedge y2 : y1 -> x\n")

    def test_duplicate_name(self):
        with pytest.raises(DuplicateIdError):
            parse_bgp("node x1\nnode x1\n")

    def test_edge_label(self):
        p = parse_bgp("node a\nnode b\nedge y : a -> b : visit\n")
        assert p.labels["y"] == "visit"

    def test_bad_line(self):
        with pytest.raises(FormatError):
            parse_bgp("vertex x\n")

    @pytest.mark.parametrize(
        "text",
        [
            "node 1x\n",  # bad name
            "const a-b\n",  # bad name
            "node a\nnode b\nedge y1 a -> b\n",  # edge line without its colon
            "node a\nnode b\nedge y1 : a => b\n",  # edge line without its arrow
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(FormatError):
            parse_bgp(text)


class TestMatchTotal:
    def test_cycle2_labeled(self, interactions, bgp):
        assert edge_sets(match_total(interactions, bgp["cycle2"])) == {("e5", "e6"), ("e8", "e9")}

    def test_cycle2_unlabeled(self, interactions, bgp):
        got = edge_sets(match_total(interactions, bgp["cycle2u"]))
        assert got == {("e5", "e6"), ("e6", "e5"), ("e8", "e9"), ("e9", "e8")}
        assert got == edge_sets(oracle_match(interactions, bgp["cycle2u"]))

    def test_example1(self, interactions, bgp):
        got = match_total(interactions, bgp["example1"])
        assert {(m.edges, m.nodes) for m in got} == {
            (("e1", "e3"), ("v2",)),
            (("e2", "e4"), ("v3",)),
        }

    def test_missing_constant_yields_nothing(self, interactions):
        p = parse_bgp("const zz\nnode x\nedge y1 : zz -> x\n")
        assert match_total(interactions, p) == []

    def test_deterministic_order(self, interactions, bgp):
        ms = match_total(interactions, bgp["cycle2u"])
        assert len(set(ms)) == len(ms) == 4
        # a rebuilt copy of the graph gives the same list, order included
        assert match_total(restricted(interactions, interactions.edges), bgp["cycle2u"]) == ms

    def test_distinct_edges_toggle(self, interactions, bgp):
        free = edge_sets(match_total(interactions, bgp["office"]))
        assert free == {("e11", "e11"), ("e11", "e12"), ("e12", "e11"), ("e12", "e12")}
        strict = edge_sets(match_total(interactions, bgp["office"], distinct_edges=True))
        assert strict == {("e11", "e12"), ("e12", "e11")}

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("shape", ["path2", "cycle2", "star2", "path3", "cycle3"])
    def test_agrees_with_oracle(self, seed, shape):
        g = random_graph(SplitMix64(seed * 977 + 5), max_edges=12)
        p = shape_bgp(shape)
        assert sorted(match_total(g, p)) == sorted(oracle_match(g, p))


class TestDeltaMatch:
    def test_new_cycle_at_2(self, interactions, bgp):
        old = history_upto(interactions, interactions.rank[1.9])
        got = delta_match(interactions, bgp["cycle2"], old, {"e6", "e8"})
        assert edge_sets(got) == {("e5", "e6")}

    def test_empty_delta(self, interactions, bgp):
        assert delta_match(interactions, bgp["cycle2"], set(interactions.edges), set()) == []

    def test_from_scratch_equals_total(self, interactions, bgp):
        assert delta_match(interactions, bgp["cycle2u"], set(), set(interactions.edges)) == match_total(
            interactions, bgp["cycle2u"]
        )

    def test_overlap_rejected(self, interactions, bgp):
        with pytest.raises(FormatError):
            delta_match(interactions, bgp["cycle2"], {"e5"}, {"e5"})

    def test_unknown_new_edge_is_refused(self, interactions, bgp):
        with pytest.raises(ReferentialError, match="'nope'"):
            delta_match(interactions, bgp["cycle2"], set(), {"nope"})
        with pytest.raises(ReferentialError, match="'nope'"):
            delta_match(interactions, bgp["cycle2"], set(), {"e5", "nope"})

    def test_unknown_old_edge_is_refused(self):
        g = generate_graph(GenSpec(8, 0.5, 0.5, 4, seed=1))
        p, edges = shape_bgp("path2"), list(g.edges)
        assert len(delta_match(g, p, edges[:5], edges[5:8])) == 2
        old = edges[:5] + ["nope"]
        for history in (old, set(old), dict.fromkeys(old, 0)):
            with pytest.raises(ReferentialError, match="'nope'"):
                delta_match(g, p, history, edges[5:8])

    @pytest.mark.parametrize("seed", range(6))
    def test_telescopes_over_history(self, seed, bgp):
        g = random_graph(SplitMix64(seed + 31))
        p = shape_bgp("path2")
        acc: list[Matching] = []
        hist: set[str] = set()
        for i in range(1, len(g.domain) + 1):
            new = set(history_upto(g, i)) - hist
            acc.extend(delta_match(g, p, hist, new))
            hist |= new
        assert sorted(acc) == sorted(match_total(restricted(g, hist), p))


class TestExtend:
    def test_second_snapshot_pairs(self, interactions, bgp):
        p = bgp["cycle2u"]
        hist1 = history_upto(interactions, interactions.rank[1.0])
        hist2 = history_upto(interactions, interactions.rank[2.0])
        new = set(hist2) - set(hist1)
        e5_only = Matching(("e5", None), ("v5", "v1"))
        empty = empty_matching(p)
        pairs = set(
            (a.edges, b.edges)
            for a, b in extend(interactions, p, [empty, e5_only], new)
        )
        assert (("e5", None), ("e5", "e6")) in pairs
        assert ((None, None), ("e6", None)) in pairs
        assert ((None, None), ("e8", None)) in pairs
        assert all(a != b for a, b in pairs)  # only the extensions, no identity pairs
        # extensions never re-bind edges already in the old history
        assert ((None, None), ("e6", "e5")) not in pairs

    def test_no_new_edges_no_extensions(self, interactions, bgp):
        p = bgp["cycle2u"]
        mus = [empty_matching(p), Matching(("e5", None), ("v5", "v1"))]
        assert extend(interactions, p, mus, set()) == []

    def test_unknown_new_edge_is_refused(self, interactions, bgp):
        p = bgp["cycle2u"]
        for order in (None, ("y1", "y2")):
            with pytest.raises(ReferentialError, match="'nope'"):
                extend(interactions, p, [empty_matching(p)], {"nope"}, order=order)
            with pytest.raises(ReferentialError, match="'nope'"):
                extend(interactions, p, [empty_matching(p)], {"e6", "nope"}, order=order)

    def test_row_that_is_no_prefix_of_the_order_is_not_extended(self, interactions, bgp):
        p = bgp["path3"]
        e = interactions.edges["e5"]
        mu = Matching((None, "e5", None), (None, e.src, e.dst, None))
        every = set(interactions.edges)
        assert extend(interactions, p, [mu], every, order=("y1", "y2", "y3")) == []
        # unordered, the same row grows
        assert extend(interactions, p, [mu], every)

    @pytest.mark.parametrize("order", [["nope"], ["y1", "y1"], ["y1"]])
    def test_order_must_permute_the_edge_variables(self, interactions, bgp, order):
        p = bgp["cycle2u"]
        hist = set(interactions.edges)
        with pytest.raises(FormatError):
            extend(interactions, p, [empty_matching(p)], hist, order=order)

    def test_order_restriction_generates_prefixes_only(self, interactions, bgp):
        p = bgp["path3"]
        order = ("y1", "y2", "y3")
        pairs = extend(interactions, p, [empty_matching(p)], set(interactions.edges), order=order)
        for _, new in pairs:
            bound = [e is not None for e in new.edges]
            assert bound == sorted(bound, reverse=True)

    def test_chain_reveals_connected_prefixes(self):
        # three-edge chain revealed one edge per tick, in path order
        from tempo_bgp import build_graph

        g = build_graph(
            {f"n{i}": "n" for i in range(4)},
            {f"c{i}": (f"n{i}", f"n{i+1}", "e") for i in range(3)},
            {f"c{i}": [float(i + 1)] for i in range(3)},
        )
        p = shape_bgp("path3")
        order = ("y1", "y2", "y3")
        table = [empty_matching(p)]
        hist: set[str] = set()
        expected_new = [
            {("c0", None, None)},
            {("c1", None, None), ("c0", "c1", None)},
            {("c2", None, None), ("c1", "c2", None), ("c0", "c1", "c2")},
        ]
        for i in range(1, 4):
            new = set(history_upto(g, i)) - hist
            hist |= new
            pairs = extend(g, p, table, new, order=order)
            fresh = {b.edges for _, b in pairs}
            assert fresh == expected_new[i - 1]
            table = sorted({*table, *(b for _, b in pairs)}, key=lambda m: str(m.edges))
