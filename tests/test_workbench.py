"""Synthetic generation, coarsening, parametric automata."""

from __future__ import annotations

import pytest

from tempo_bgp import FormatError, accepts, match_total, snapshot
from tempo_bgp.fixtures import fixture_path, load_bgp, load_ta
from tempo_bgp.rng import SplitMix64
from tempo_bgp.workbench import (
    SHAPE_NAMES,
    GenSpec,
    coarsen_graph,
    generate_graph,
    generate_graph_dir,
    random_graph,
    ring_automaton,
    shape_bgp,
    shape_text,
)


class TestGenerate:
    def test_complete_graph_edge_count(self):
        g = generate_graph(GenSpec(50, 1.0, 0.5, 5, seed=1))
        assert g.n_edges == 50 * 49

    def test_full_temporal_density(self):
        g = generate_graph(GenSpec(6, 1.0, 1.0, 4, seed=2))
        for eid in g.edges:
            assert g.active[eid] == (1.0, 2.0, 3.0, 4.0)

    def test_same_seed_identical_files(self, tmp_path):
        spec = GenSpec(12, 0.4, 0.6, 6, seed=9)
        generate_graph_dir(spec, tmp_path / "a")
        generate_graph_dir(spec, tmp_path / "b")
        for name in ("node.csv", "edge.csv", "active.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_density_nesting_under_one_seed(self):
        sparse = generate_graph(GenSpec(10, 0.3, 0.5, 4, seed=5))
        dense = generate_graph(GenSpec(10, 0.8, 0.5, 4, seed=5))
        assert set(sparse.edges) <= set(dense.edges)
        for eid in sparse.edges:
            assert sparse.active[eid] == dense.active[eid]

    def test_invalid_specs(self):
        with pytest.raises(FormatError):
            GenSpec(1, 0.5, 0.5, 3).validate()
        with pytest.raises(FormatError):
            GenSpec(5, 0.0, 0.5, 3).validate()
        with pytest.raises(FormatError):
            GenSpec(5, 0.5, 1.5, 3).validate()
        with pytest.raises(FormatError):
            GenSpec(5, 0.5, 0.5, 0).validate()


class TestCoarsen:
    def test_identity_factor_preserves_shape(self, interactions):
        g = coarsen_graph(interactions, 1)
        assert len(g.domain) == len(interactions.domain)
        for eid in interactions.edges:
            assert [interactions.rank[t] for t in interactions.active[eid]] == [
                int(t) for t in g.active[eid]
            ]

    def test_collapse_to_single_snapshot(self, interactions):
        g = coarsen_graph(interactions, 9)
        assert g.domain == (1.0,)
        active_edges = {e for e, ts in interactions.active.items() if ts}
        assert snapshot(g, 1.0) == active_edges

    def test_factor_three(self, interactions):
        assert len(coarsen_graph(interactions, 3).domain) == 3

    def test_structure_untouched(self, interactions, bgp):
        g = coarsen_graph(interactions, 4)
        assert match_total(g, bgp["cycle2u"]) == match_total(interactions, bgp["cycle2u"])

    def test_bad_factor(self, interactions):
        with pytest.raises(FormatError):
            coarsen_graph(interactions, 0)


class TestRingAutomaton:
    def test_matches_bundled_two_ring(self):
        ring = ring_automaton(2)
        bundled = load_ta("ta0_m2")
        words = [
            [(float(i + 1), (code >> (2 * i)) & 3) for i in range(4)]
            for code in range(4 ** 4)
        ]
        for w in words:
            assert accepts(ring, w) == accepts(bundled, w)

    def test_unrolling_preserves_language(self):
        base = ring_automaton(2)
        for laps in (2, 4, 8):
            unrolled = ring_automaton(2, laps=laps)
            assert unrolled.n_states == 2 * laps
            for code in range(4 ** 5):
                w = [(float(i + 1), (code >> (2 * i)) & 3) for i in range(5)]
                assert accepts(base, w) == accepts(unrolled, w), (laps, w)

    def test_clock_padding_keeps_language(self):
        base = ring_automaton(3)
        padded = ring_automaton(3, n_clocks=4)
        rng = SplitMix64(77)
        for _ in range(300):
            length = rng.randint(0, 6)
            w = [(float(i + 1), rng.randint(0, 7)) for i in range(length)]
            assert accepts(base, w) == accepts(padded, w)

    def test_negative_clock_count_rejected(self):
        with pytest.raises(FormatError):
            ring_automaton(2, n_clocks=-1)


def test_random_graph_invariants():
    for seed in range(30):
        g = random_graph(SplitMix64(seed))
        assert g.n_edges >= 1
        for eid in g.edges:
            assert g.active[eid], "every edge must be active somewhere"
        assert set(g.nodes).isdisjoint(set(g.edges))


def test_shape_names():
    with pytest.raises(FormatError):
        shape_bgp("pentagram")
    assert shape_bgp("cycle4").edge_vars == ("y1", "y2", "y3", "y4")


@pytest.mark.parametrize("name", SHAPE_NAMES)
def test_shapes_are_the_unlabeled_fixture_files(name):
    # the fixture cycle2.bgp carries node labels; the cycle2 shape is cycle2u.bgp
    file = "cycle2u" if name == "cycle2" else name
    p = shape_bgp(name)
    assert p.labels == {} and p.constants == ()
    assert p == load_bgp(file)
    assert shape_text(name) == fixture_path("bgp", f"{file}.bgp").read_text(encoding="utf-8")
