"""The class keys of the fused search plans, checked matching by matching.

Every compiled plan files each matching it finds under a class in the
caller's fate table.  For ``match_total`` and ``delta_match`` the class is
``(i, letter)``: ``i`` is the earliest ``first.get(e, d)`` over the
matching's edges and ``letter`` its edges' bits in ``snapshots[i][1]``.
For ``extend`` it is ``(configs, letter)``: the source row's bits in the
snapshot OR the bits the extension binds.  The public matchers collect
the same plans' output through one list; these tests read the keys the
engines see.  The README's plan listing is checked against the generator.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict
from itertools import permutations, product
from pathlib import Path

import pytest

from tempo_bgp import (
    Matching,
    build_graph,
    delta_match,
    empty_matching,
    extend,
    history_upto,
    match_total,
    oracle_match,
    parse_bgp,
)
from tempo_bgp.bgp import _DEPTH, plan_source
from tempo_bgp.oracle import oracle_enumerate_partials
from tempo_bgp.rng import SplitMix64
from tempo_bgp.workbench import SHAPE_NAMES, random_graph, shape_bgp, shape_text

TEXTS = [shape_text(name) for name in SHAPE_NAMES] + [
    "node x1\nnode x2\nnode w : m\nedge y1 : x1 -> x2\n",
    "const v0\nnode x\nedge y1 : v0 -> x\nedge y2 : x -> v0\n",
    "node x\nnode z\nedge y1 : x -> x\nedge y2 : x -> z\n",
]
SEEDS = range(10)


def _bits(edges, snap) -> int:
    return sum(1 << j for j, e in enumerate(edges) if e is not None and e in snap)


def _snapshots(g):
    """Each timepoint's snapshot, then the empty one the engines append after the last."""
    return [*((t, g.snapshots[t]) for t in g.domain), (None, frozenset())]


def _filed(fate):
    """The fate table's ``(key, matching)`` pairs, as a multiset."""
    return Counter((key, m) for key, rows in fate.items() for m in rows)


def _total_classes(matchings, first, d, snapshots):
    want = Counter()
    for m in matchings:
        i = min((first.get(e, d) for e in m.edges), default=d)
        want[(i, _bits(m.edges, snapshots[i][1])), m] += 1
    return want


def _entries(g, snapshots):
    """``(first, d)`` as baseline passes them, deferred, and with ``first``
    knowing only the edges of the first half of the stream."""
    first = {}
    for i, (_, snap) in enumerate(snapshots):
        for e in snap:
            first.setdefault(e, i)
    half = {e: i for e, i in first.items() if i < len(snapshots) // 2}
    return [({}, 0), (first, len(snapshots) - 1), (half, len(snapshots) - 1)]


@pytest.mark.parametrize("distinct", [False, True])
def test_total_and_delta_classes_are_the_entry_index_and_its_letter(distinct):
    for seed, text in product(SEEDS, TEXTS):
        g, p = random_graph(SplitMix64(seed), max_nodes=6, max_edges=12), parse_bgp(text)
        snapshots = _snapshots(g)
        totals = match_total(g, p, distinct_edges=distinct)
        for first, d in _entries(g, snapshots):
            entry = (first, d, snapshots, defaultdict(list))
            fate = match_total(g, p, distinct_edges=distinct, entry=entry)
            assert fate is entry[-1]
            assert _filed(fate) == _total_classes(totals, first, d, snapshots), (seed, text)
            # telescoped over the stream, delta classes add up to the total ones
            got, old = Counter(), set()
            for i in range(1, len(g.domain) + 1):
                new = history_upto(g, i) - old
                entry = (first, d, snapshots, defaultdict(list))
                fate = delta_match(g, p, old, new, distinct_edges=distinct, entry=entry)
                delta = delta_match(g, p, old, new, distinct_edges=distinct)
                assert _filed(fate) == _total_classes(delta, first, d, snapshots), (seed, i)
                got += _filed(fate)
                old |= new
            entry = (first, d, snapshots, defaultdict(list))
            assert got == _filed(match_total(g, p, distinct_edges=distinct, entry=entry))


def _extend_classes(p, groups, new, snap, order, distinct, g):
    """The keys ``extend`` should file each extension of ``groups`` under:
    ``(configs, the source's bits in snap | the bits the extension binds)``."""
    want = Counter()
    for configs, rows in groups.items():
        for mu, m in extend(g, p, rows, new, order=order, distinct_edges=distinct):
            assert mu in rows and m.contains(mu)
            added = sum(1 << j for j, (a, b) in enumerate(zip(mu.edges, m.edges)) if a != b)
            want[(configs, _bits(mu.edges, snap) | added), m] += 1
    return want


def _every_matching(g, p, hist, distinct):
    partials = oracle_enumerate_partials(g, p, hist, distinct_edges=distinct)
    whole = build_graph(
        g.nodes,
        {e: (g.edges[e].src, g.edges[e].dst, g.edges[e].label) for e in hist},
        {e: g.active[e] for e in hist},
    )
    totals = oracle_match(whole, p, distinct_edges=distinct)
    return [*(m for m in partials if None in m.edges), *totals]


@pytest.mark.parametrize("distinct", [False, True])
def test_extend_classes_are_the_configs_and_the_grown_letter(distinct):
    # each snapshot offers its new edges to every matching over the history
    # before it, split between two configuration sets; the snapshot also
    # holds old edges, so the source's own bits count
    for seed, text in product(SEEDS[:6], TEXTS):
        g, p = random_graph(SplitMix64(seed), max_nodes=5, max_edges=8), parse_bgp(text)
        orders = [None, *permutations(p.edge_vars)] if p.width <= 3 else [None]
        hist = frozenset()
        for i, t in enumerate(g.domain, start=1):
            table = _every_matching(g, p, hist, distinct)
            new = history_upto(g, i) - hist
            hist = history_upto(g, i)
            groups = {"even": table[::2], "odd": table[1::2]}
            for order in orders:
                want = _extend_classes(p, groups, new, g.snapshots[t], order, distinct, g)
                entry = (g.snapshots[t], defaultdict(list))
                fate = extend(g, p, groups, new, order=order, distinct_edges=distinct, entry=entry)
                assert fate is entry[-1]
                assert _filed(fate) == want, (seed, text, i, order)


def _line_graph(n_nodes):
    """A directed line ``v0 -> v1 -> ...``, edge ``e{i}`` active at ``i + 1``."""
    return build_graph(
        {f"v{i}": "n" for i in range(n_nodes)},
        {f"e{i}": (f"v{i}", f"v{i + 1}", "e") for i in range(n_nodes - 1)},
        {f"e{i}": [float(i + 1)] for i in range(n_nodes - 1)},
    )


def test_chained_plans_carry_the_class_to_the_leaf():
    # a width-24 path searches past _DEPTH levels, so each plan chains into
    # a further function that takes the entry index, or the source's bits
    width = 24
    assert width - 8 > _DEPTH
    p = parse_bgp(
        "".join(f"node x{i}\n" for i in range(width + 1))
        + "".join(f"edge y{i} : x{i - 1} -> x{i}\n" for i in range(1, width + 1))
    )
    g = _line_graph(30)
    snapshots = _snapshots(g)
    totals = match_total(g, p)
    assert len(totals) == 6
    for first, d in _entries(g, snapshots):
        entry = (first, d, snapshots, defaultdict(list))
        want = _total_classes(totals, first, d, snapshots)
        assert _filed(match_total(g, p, entry=entry)) == want
        old = {f"e{i}" for i in range(0, 29, 2)}
        entry = (first, d, snapshots, defaultdict(list))
        assert _filed(delta_match(g, p, old, set(g.edges) - old, entry=entry)) == want
    # ordered from the empty row; the snapshot holds some of the new edges
    snap = frozenset(f"e{i}" for i in range(0, 29, 3))
    groups = {"seed": [empty_matching(p)]}
    for order in (p.edge_vars, p.edge_vars[::-1]):
        want = _extend_classes(p, groups, g.edges, snap, order, False, g)
        fate = extend(g, p, groups, g.edges, order=order, entry=(snap, defaultdict(list)))
        assert _filed(fate) == want
    # unordered from a row binding every third variable from y2, some of
    # its edges in the snapshot: 16 unbound variables, each level chained
    m = totals[0]
    kept = set(range(1, width, 3))
    edges = tuple(e if j in kept else None for j, e in enumerate(m.edges))
    ends = {i for j in kept for i in (j, j + 1)}
    row = Matching(edges, tuple(v if i in ends else None for i, v in enumerate(m.nodes)))
    new = set(m.edges) - set(edges)
    snap = frozenset(e for e in m.edges[::2])
    groups = {"row": [row]}
    want = _extend_classes(p, groups, new, snap, None, False, g)
    assert sum(want.values()) == 2**16 - 1
    assert _filed(extend(g, p, groups, new, entry=(snap, defaultdict(list)))) == want


def test_readme_lists_the_cycle3_plan():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listing = re.search(r"```python\n(def _plan0\(.*?)```", readme, re.S)
    assert listing is not None
    assert listing.group(1) == plan_source(shape_bgp("cycle3"))
