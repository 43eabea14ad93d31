"""Loading, snapshots and histories."""

from __future__ import annotations

import pytest

from tempo_bgp import (
    DuplicateIdError,
    FormatError,
    ReferentialError,
    build_graph,
    history_upto,
    load_graph,
    snapshot,
)
from tempo_bgp.temporal_graph import format_time, load_graph_dir, write_graph_dir

GRAPH_DIR_DOMAIN = (1.0, 1.1, 1.9, 2.0, 3.0, 4.0, 5.0, 6.0, 9.0)


def test_interactions_shape(interactions):
    assert interactions.n_nodes == 8
    assert interactions.n_edges == 12
    assert interactions.domain == GRAPH_DIR_DOMAIN


def test_interactions_labels(interactions):
    assert interactions.nodes["v4"] == "emp"
    assert interactions.nodes["v8"] == "ofc"
    assert interactions.edges["e11"].label == "visit"


def test_snapshot_at_2(interactions):
    assert snapshot(interactions, 2.0) == {"e6", "e7", "e8", "e10", "e12"}


def test_snapshot_below_domain(interactions):
    assert snapshot(interactions, 0.5) == frozenset()


def test_snapshot_at_9(interactions):
    # recomputed independently from the activation sets
    expected = {e for e, ts in interactions.active.items() if 9.0 in ts}
    assert snapshot(interactions, 9.0) == expected == {"e9"}


def test_history_at_rank_of_1(interactions):
    expected = {e for e, ts in interactions.active.items() if ts and ts[0] <= 1.0}
    assert history_upto(interactions, interactions.rank[1.0]) == expected == {"e1", "e3", "e4", "e5", "e11"}


def test_history_bounds(interactions):
    assert history_upto(interactions, 0) == frozenset()
    assert history_upto(interactions, len(interactions.domain)) == {
        e for e, ts in interactions.active.items() if ts
    }
    with pytest.raises(IndexError):
        history_upto(interactions, len(interactions.domain) + 1)
    with pytest.raises(IndexError):
        history_upto(interactions, -1)


def test_history_monotone(interactions):
    prev = frozenset()
    for i in range(len(interactions.domain) + 1):
        cur = history_upto(interactions, i)
        assert prev <= cur
        prev = cur


def test_domain_strictly_increasing_and_snapshots_nonempty(interactions):
    assert all(a < b for a, b in zip(interactions.domain, interactions.domain[1:]))
    for t in interactions.domain:
        assert snapshot(interactions, t)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_empty_active(tmp_path):
    n = _write(tmp_path, "node.csv", "vid,label\na,n\nb,n\n")
    e = _write(tmp_path, "edge.csv", "eid,src,dst,label\nx,a,b,e\n")
    a = _write(tmp_path, "active.csv", "eid,time\n")
    g = load_graph(n, e, a)
    assert g.domain == ()
    assert g.active["x"] == ()
    assert g.first_rank == {}


def test_load_duplicate_activation_rows_dedup(tmp_path):
    n = _write(tmp_path, "node.csv", "vid,label\na,n\nb,n\n")
    e = _write(tmp_path, "edge.csv", "eid,src,dst,label\nx,a,b,e\n")
    a = _write(tmp_path, "active.csv", "eid,time\nx,2\nx,2\nx,1\n")
    g = load_graph(n, e, a)
    assert g.active["x"] == (1.0, 2.0)
    # blank rows inside a file are skipped
    blank = _write(tmp_path, "blank.csv", "eid,time\nx,2\n\n  \nx,2\nx,1\n")
    assert load_graph(n, e, blank).active["x"] == (1.0, 2.0)


def test_load_errors(tmp_path):
    n = _write(tmp_path, "node.csv", "vid,label\na,n\nb,n\n")
    e = _write(tmp_path, "edge.csv", "eid,src,dst,label\nx,a,b,e\n")
    bad_active = _write(tmp_path, "bad_active.csv", "eid,time\nzz,1\n")
    with pytest.raises(ReferentialError):
        load_graph(n, e, bad_active)
    bad_edge = _write(tmp_path, "bad_edge.csv", "eid,src,dst,label\nx,a,zz,e\n")
    with pytest.raises(ReferentialError):
        load_graph(n, bad_edge, _write(tmp_path, "a0.csv", "eid,time\n"))
    dup_node = _write(tmp_path, "dup_node.csv", "vid,label\na,n\na,n\n")
    with pytest.raises(DuplicateIdError):
        load_graph(dup_node, e, _write(tmp_path, "a1.csv", "eid,time\n"))
    dup_edge = _write(tmp_path, "dup_edge.csv", "eid,src,dst,label\nx,a,b,e\nx,b,a,e\n")
    with pytest.raises(DuplicateIdError):
        load_graph(n, dup_edge, _write(tmp_path, "a2.csv", "eid,time\n"))
    nonpos = _write(tmp_path, "nonpos.csv", "eid,time\nx,0\n")
    with pytest.raises(FormatError):
        load_graph(n, e, nonpos)
    garbled = _write(tmp_path, "garbled.csv", "eid,time\nx,abc\n")
    with pytest.raises(FormatError):
        load_graph(n, e, garbled)
    bad_header = _write(tmp_path, "h.csv", "id,when\nx,1\n")
    with pytest.raises(FormatError):
        load_graph(n, e, bad_header)


@pytest.mark.parametrize(
    "node_text, edge_text",
    [
        ("", "eid,src,dst,label\n"),  # empty file
        ("vid,label\na\n", "eid,src,dst,label\n"),  # wrong field count
        ("vid,label\n,n\n", "eid,src,dst,label\n"),  # empty node id
        ("vid,label\na,n\n", "eid,src,dst,label\n,a,a,e\n"),  # empty edge id
    ],
)
def test_load_rejects(tmp_path, node_text, edge_text):
    n = _write(tmp_path, "node.csv", node_text)
    e = _write(tmp_path, "edge.csv", edge_text)
    with pytest.raises(FormatError):
        load_graph(n, e, _write(tmp_path, "active.csv", "eid,time\n"))


@pytest.mark.parametrize(
    "edges, active, error",
    [
        ({"x": ("a", "zz", "e")}, {}, ReferentialError),  # edge to an unknown node
        ({"x": ("a", "b", "e")}, {"zz": [1.0]}, ReferentialError),  # unknown edge
        ({"x": ("a", "b", "e")}, {"x": [float("inf")]}, FormatError),
        ({"x": ("a", "b", "e")}, {"x": [float("nan")]}, FormatError),
        ({"x": ("zz", "b", "e")}, {}, ReferentialError),  # edge from an unknown node
    ],
)
def test_build_graph_rejects(edges, active, error):
    with pytest.raises(error):
        build_graph({"a": "n", "b": "n"}, edges, active)


def test_identical_decimal_text_compares_equal(interactions):
    assert 1.1 in interactions.active["e2"]
    assert interactions.rank[float("1.1")] == 2


def test_node_edge_id_spaces_disjoint():
    with pytest.raises(DuplicateIdError):
        build_graph({"a": "n", "b": "n"}, {"a": ("a", "b", "e")}, {})


def test_format_time():
    assert format_time(9.0) == "9"
    assert format_time(1.1) == "1.1"


def test_write_and_load_keep_every_timepoint(tmp_path):
    # six significant digits would write 1000001 and 1000002 both as 1e+06
    times = [1000001.0, 1000002.0, 1.6e9 + 0.5, 0.1234567]
    g = build_graph(
        {"a": "n", "b": "n"},
        {"e1": ("a", "b", "e"), "e2": ("b", "a", "e")},
        {"e1": times[:2], "e2": times[2:]},
    )
    write_graph_dir(tmp_path, g)
    back = load_graph_dir(tmp_path)
    assert back.domain == g.domain == tuple(sorted(times))
    assert back.active == g.active
