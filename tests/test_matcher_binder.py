"""Differential tests of the matcher on self-loops, isolated node variables,
constants, labels and distinct edges, against the brute-force oracle."""

from __future__ import annotations

from itertools import permutations

import pytest

from tempo_bgp import (
    build_graph,
    delta_match,
    empty_matching,
    extend,
    history_upto,
    match_total,
    oracle_match,
    parse_bgp,
)
from tempo_bgp.oracle import oracle_enumerate_partials
from tempo_bgp.rng import SplitMix64

PATTERNS = {
    "self_loop": "node x\nnode z\nedge y1 : x -> x\nedge y2 : x -> z\n",
    "labelled_self_loops": "node x : n\nedge y1 : x -> x : s\nedge y2 : x -> x\n",
    "isolated_labelled_node": "node x1\nnode x2\nnode w : m\nedge y1 : x1 -> x2\n",
    "constant_pair": "const v0\nconst v1\nnode x\nedge y1 : v0 -> v1\nedge y2 : v1 -> x\n",
    "missing_constant": (
        "const nowhere\nnode x1\nnode x2\nedge y1 : x1 -> x2\nedge y2 : x2 -> nowhere\n"
    ),
    "constants": "const v0\nconst v1\nnode x\nedge y1 : v0 -> x\nedge y2 : x -> v1\n",
    "constant_self_loop": (
        "const v0\nnode x\nedge y1 : v0 -> x\nedge y2 : x -> x\nedge y3 : x -> v0\n"
    ),
    "labels": "node x1 : n\nnode x2\nnode x3 : m\nedge y1 : x1 -> x2 : e\nedge y2 : x2 -> x3\n",
}


def looped_graph(seed: int):
    """Small random multigraph with self-loops, two node and two edge labels."""
    rng = SplitMix64(seed)
    n = rng.randint(2, 5)
    nodes = {f"v{i}": ("n", "m")[rng.randint(0, 1)] for i in range(n)}
    n_times = rng.randint(1, 4)
    edges = {}
    active = {}
    for i in range(rng.randint(1, 8)):
        u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
        if rng.random() < 0.3:
            v = u
        edges[f"e{i}"] = (f"v{u}", f"v{v}", ("e", "s")[rng.randint(0, 1)])
        active[f"e{i}"] = [float(rng.randint(1, n_times))]
    return build_graph(nodes, edges, active)


def restricted(g, hist):
    """``g`` with only the edges of ``hist``; every node is kept."""
    return build_graph(
        g.nodes,
        {e: (g.edges[e].src, g.edges[e].dst, g.edges[e].label) for e in hist},
        {e: g.active[e] for e in hist},
    )


SEEDS = range(12)


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_match_total_agrees_with_oracle(name, distinct):
    p = parse_bgp(PATTERNS[name])
    for seed in SEEDS:
        g = looped_graph(seed)
        assert match_total(g, p, distinct_edges=distinct) == oracle_match(
            g, p, distinct_edges=distinct
        ), seed


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_delta_match_telescopes_to_match_total(name, distinct):
    p = parse_bgp(PATTERNS[name])
    for seed in SEEDS:
        g = looped_graph(seed)
        acc = []
        hist: frozenset[str] = frozenset()
        for i in range(1, len(g.domain) + 1):
            new = history_upto(g, i) - hist
            batch = delta_match(g, p, hist, new, distinct_edges=distinct)
            assert batch == sorted(batch, key=lambda m: (m.edges, m.nodes)), seed
            assert all(any(e in new for e in m.edges) for m in batch), seed
            acc.extend(batch)
            hist = history_upto(g, i)
            assert sorted(acc, key=lambda m: (m.edges, m.nodes)) == match_total(
                restricted(g, hist), p, distinct_edges=distinct
            ), (seed, i)


def _prefix_in_rank_order(g, p, order, m):
    """Whether ``m`` binds a prefix of ``order`` with edges first seen at
    non-decreasing ranks: the rows an ordered ``extend`` can reach."""
    edges = [m.edges[p.edge_index(y)] for y in order]
    bound = [e is not None for e in edges]
    ranks = [g.first_rank[e] for e in edges if e is not None]
    return bound == sorted(bound, reverse=True) and ranks == sorted(ranks)


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_extend_telescopes_to_every_partial(name, distinct):
    # fed the history snapshot by snapshot from the empty matching, extend
    # grows a table of every partial matching over the history plus every
    # total one, isolated node variables filled; under an order, of those
    # that bind a prefix of it in rank order
    p = parse_bgp(PATTERNS[name])
    for seed in SEEDS:
        g = looped_graph(seed)
        wants = []
        for i in range(1, len(g.domain) + 1):
            hist = history_upto(g, i)
            partials = oracle_enumerate_partials(g, p, hist, distinct_edges=distinct)
            wants.append(
                {m for m in partials if None in m.edges}
                | set(oracle_match(restricted(g, hist), p, distinct_edges=distinct))
            )
        for order in [None, *permutations(p.edge_vars)]:
            table = [empty_matching(p)]
            hist = frozenset()
            for i, want in enumerate(wants, start=1):
                new = history_upto(g, i) - hist
                hist = history_upto(g, i)
                pairs = extend(g, p, table, new, hist, order=order, distinct_edges=distinct)
                table = [m for _, m in pairs]
                assert len(set(table)) == len(table), (seed, order, i)
                if order is not None:
                    want = {m for m in want if _prefix_in_rank_order(g, p, order, m)}
                assert set(table) == want, (seed, order, i)


def test_graphs_have_self_loop_matchings():
    p = parse_bgp(PATTERNS["self_loop"])
    assert any(match_total(looped_graph(seed), p) for seed in SEEDS)
