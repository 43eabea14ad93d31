"""Command-line interface: formats and exit codes."""

from __future__ import annotations

import time
from types import SimpleNamespace

import pytest

from tempo_bgp import engine
from tempo_bgp.cli import main
from tempo_bgp.fixtures import fixture_path

GRAPH_DIR = str(fixture_path("interactions"))


def bgp_file(name):
    return str(fixture_path("bgp", f"{name}.bgp"))


def ta_file(name):
    return str(fixture_path("ta", f"{name}.ta"))


def run_cli(*args):
    return main(list(args))


def test_match_baseline_output(capsys):
    code = run_cli(
        "match", "--graph", GRAPH_DIR, "--bgp", bgp_file("cycle2"), "--ta", ta_file("ta2"),
        "--algo", "baseline",
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "ACCEPT t=9 y1=e5 y2=e6"
    assert out[1].startswith("STATS rows=11 generated=2 early_rejected=1 wall_ms=")


def test_match_out_file(tmp_path, capsys):
    target = tmp_path / "result.txt"
    code = run_cli(
        "match", "--graph", GRAPH_DIR, "--bgp", bgp_file("cycle2"), "--ta", ta_file("ta2"),
        "--algo", "on-demand", "--out", str(target),
    )
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("ACCEPT t=9 y1=e5 y2=e6\n")


def test_match_missing_graph_is_parse_error(capsys):
    code = run_cli(
        "match", "--graph", "/no/such/dir", "--bgp", bgp_file("cycle2"),
        "--ta", ta_file("ta2"),
    )
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_match_incompatible_order_refused(capsys):
    code = run_cli(
        "match", "--graph", GRAPH_DIR, "--bgp", bgp_file("cycle2u"), "--ta", ta_file("ta3"),
        "--algo", "partial", "--order", "y2,y1",
    )
    assert code == 2
    assert "refused" in capsys.readouterr().err


def test_match_disconnected_order_refused(capsys):
    code = run_cli(
        "match", "--graph", GRAPH_DIR, "--bgp", bgp_file("path3"), "--ta", ta_file("ta4"),
        "--algo", "partial", "--order", "y1,y3,y2",
    )
    assert code == 2


@pytest.mark.parametrize(
    "command", [["match", "--graph", GRAPH_DIR, "--algo", "partial"], ["check-order"]]
)
@pytest.mark.parametrize("order", ["nope", "y1,nope", "y1"])
def test_order_that_is_no_permutation_is_parse_error(command, order, capsys):
    # an unknown name is as malformed as a missing one: exit 1, not a refusal
    code = run_cli(
        *command, "--bgp", bgp_file("cycle2"), "--ta", ta_file("ta2"), "--order", order
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "order" in err


def test_match_flag_plumbing(capsys):
    code = run_cli(
        "match", "--graph", GRAPH_DIR, "--bgp", bgp_file("office"), "--ta", ta_file("ta6"),
        "--algo", "partial", "--distinct-edges", "--no-early-exit",
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[:2] == ["ACCEPT t=9 y1=e11 y2=e12", "ACCEPT t=9 y1=e12 y2=e11"]


@pytest.mark.parametrize("algo", ["baseline", "on-demand", "partial"])
def test_match_prints_isolated_node_bindings(algo, tmp_path, capsys):
    # three matchings share y1=e1 and differ only in the isolated z
    from tempo_bgp.temporal_graph import build_graph, write_graph_dir

    g = build_graph({"a": "n", "b": "n", "c": "m"}, {"e1": ("a", "b", "e")}, {"e1": [1.0]})
    write_graph_dir(tmp_path / "g", g)
    (tmp_path / "p.bgp").write_text("node x1\nnode x2\nnode z\nedge y1 : x1 -> x2\n")
    (tmp_path / "all.ta").write_text(
        "states 1\ninitial 0\naccepting 0\nclocks 0\ntrans 0 * true - 0\n"
    )
    code = run_cli(
        "match", "--graph", str(tmp_path / "g"), "--bgp", str(tmp_path / "p.bgp"),
        "--ta", str(tmp_path / "all.ta"), "--algo", algo,
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert [line.split(" ", 2)[2] for line in out[:-1]] == [
        "y1=e1 z=a", "y1=e1 z=b", "y1=e1 z=c"
    ]


@pytest.mark.parametrize("algo", ["baseline", "on-demand", "partial"])
def test_match_prints_large_timepoints_exactly(algo, tmp_path, capsys):
    # y2 follows y1 one unit later, past six significant digits
    from tempo_bgp.temporal_graph import build_graph, write_graph_dir

    g = build_graph(
        {"a": "n", "b": "n", "c": "n"},
        {"e1": ("a", "b", "e"), "e2": ("b", "c", "e")},
        {"e1": [1000001.0], "e2": [1000002.0]},
    )
    write_graph_dir(tmp_path / "g", g)
    code = run_cli(
        "match", "--graph", str(tmp_path / "g"), "--bgp", bgp_file("path2"),
        "--ta", ta_file("tae"), "--algo", algo,
    )
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "ACCEPT t=1000002 y1=e1 y2=e2"


def test_check_order_report(capsys):
    assert run_cli(
        "check-order", "--bgp", bgp_file("path3"), "--ta", ta_file("ta4"),
        "--order", "y1,y2,y3",
    ) == 0
    assert capsys.readouterr().out.strip() == "connected=true compatible=Compatible"
    assert run_cli(
        "check-order", "--bgp", bgp_file("path3"), "--ta", ta_file("ta4"),
        "--order", "y1,y3,y2",
    ) == 0
    assert capsys.readouterr().out.startswith("connected=false")
    assert run_cli(
        "check-order", "--bgp", bgp_file("cycle2u"), "--ta", ta_file("ta3"),
        "--order", "y2,y1",
    ) == 0
    assert capsys.readouterr().out.strip() == "connected=true compatible=Incompatible"


def test_check_order_search(capsys):
    assert run_cli(
        "check-order", "--bgp", bgp_file("cycle2u"), "--ta", ta_file("ta1"), "--search"
    ) == 0
    assert capsys.readouterr().out.strip() == "y1,y2"


def test_check_order_search_prunes_a_wide_star(tmp_path, capsys):
    # y9 must fire first and y1..y8 together after it, so the 8 * 8! orders
    # that start with y1..y8 all fail; the search must cut them as prefixes
    width = 9
    star = "".join(f"edge y{k} : x0 -> x{k}\n" for k in range(1, width + 1))
    nodes = "".join(f"node x{k}\n" for k in range(1, width + 1))
    (tmp_path / "star.bgp").write_text("node x0\n" + nodes + star)
    (tmp_path / "first.ta").write_text(
        "states 3\ninitial 0\naccepting 2\n"
        f"trans 0 {'0' * width} true - 0\ntrans 0 {'0' * (width - 1)}1 true - 1\n"
        f"trans 1 {'0' * (width - 1)}* true - 1\ntrans 1 {'1' * (width - 1)}* true - 2\n"
        f"trans 2 {'*' * width} true - 2\n"
    )
    start = time.perf_counter()
    assert run_cli(
        "check-order", "--bgp", str(tmp_path / "star.bgp"), "--ta", str(tmp_path / "first.ta"),
        "--search",
    ) == 0
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.strip() == ",".join(f"y{k}" for k in (9, *range(1, width)))


@pytest.mark.parametrize(
    "ta_name, flags, code, out",
    [
        ("ta6", ["--search"], 0, "NO"),  # y1 before y2 and y2 before y1 both admitted
        ("ta1", [], 1, ""),  # neither --order nor --search
    ],
)
def test_check_order_outcomes(ta_name, flags, code, out, capsys):
    assert run_cli(
        "check-order", "--bgp", bgp_file("cycle2u"), "--ta", ta_file(ta_name), *flags
    ) == code
    captured = capsys.readouterr()
    assert captured.out.strip() == out
    if code:
        assert "--order or --search" in captured.err


def test_verify_reports_a_disagreeing_engine(monkeypatch, capsys):
    real_run = engine.run

    def run(algo, *args, **kwargs):
        if algo == "partial":
            return SimpleNamespace(accepted_set=frozenset())
        return real_run(algo, *args, **kwargs)

    monkeypatch.setattr(engine, "run", run)
    assert run_cli(
        "verify", "--graph", GRAPH_DIR, "--bgp", bgp_file("cycle2"), "--ta", ta_file("ta2")
    ) == 1
    assert capsys.readouterr().out.splitlines() == ["partial: missing=['y1=e5 y2=e6'] extra=[]"]


def test_verify_agreement(capsys):
    assert run_cli(
        "verify", "--graph", GRAPH_DIR, "--bgp", bgp_file("cycle2"), "--ta", ta_file("ta2")
    ) == 0
    assert "agree" in capsys.readouterr().out



@pytest.mark.parametrize(
    "ta_name", ["tae", "ta0_m2", "ta1", "ta2", "ta3", "ta5", "ta6", "ta7", "ta8"]
)
@pytest.mark.parametrize("shape", ["cycle2", "path2"])
def test_verify_interactions_across_bundled_automata(ta_name, shape, capsys):
    assert run_cli(
        "verify", "--graph", GRAPH_DIR, "--bgp", bgp_file(shape), "--ta", ta_file(ta_name)
    ) == 0
    assert "agree" in capsys.readouterr().out


def test_verify_randomized_instances(tmp_path, capsys):
    from tempo_bgp.rng import SplitMix64
    from tempo_bgp.temporal_graph import write_graph_dir
    from tempo_bgp.workbench import random_graph, shape_text

    shapes = {2: ("path2", "cycle2", "star2"), 3: ("path3", "cycle3")}
    tas = {
        2: ("tae", "ta0_m2", "ta1", "ta2", "ta3", "ta5", "ta6", "ta7", "ta8"),
        3: ("ta0_m3", "ta4"),
    }
    for seed in range(200):
        rng = SplitMix64(seed)
        g = random_graph(rng, max_nodes=10, max_edges=14, max_timepoints=6)
        width = 2 if rng.randint(0, 1) else 3
        shape = rng.choice(shapes[width])
        ta_name = rng.choice(tas[width])
        gdir = tmp_path / f"g{seed}"
        write_graph_dir(gdir, g)
        pfile = tmp_path / f"p{seed}.bgp"
        pfile.write_text(shape_text(shape), encoding="utf-8")
        code = run_cli(
            "verify", "--graph", str(gdir), "--bgp", str(pfile), "--ta", ta_file(ta_name)
        )
        assert code == 0, (seed, shape, ta_name, capsys.readouterr())
        capsys.readouterr()


def test_verify_guard_exit(tmp_path, capsys):
    gen_dir = tmp_path / "big"
    assert run_cli(
        "gen", "--nodes", "30", "--struct-density", "1.0", "--temp-density", "0.2",
        "--snapshots", "2", "--seed", "1", "--out", str(gen_dir),
    ) == 0
    code = run_cli(
        "verify", "--graph", str(gen_dir), "--bgp", bgp_file("path3"),
        "--ta", ta_file("ta4"),
    )
    assert code == 3


def test_verify_guard_exit_on_wide_wildcard_automaton(tmp_path, capsys):
    # one matching of thirty edge variables; its 2^30-letter expansion trips the guard
    width = 30
    (tmp_path / "node.csv").write_text("vid,label\na,n\nb,n\n", encoding="utf-8")
    (tmp_path / "edge.csv").write_text("eid,src,dst,label\ne1,a,b,e\n", encoding="utf-8")
    (tmp_path / "active.csv").write_text("eid,time\ne1,1\n", encoding="utf-8")
    pattern = tmp_path / "wide.bgp"
    pattern.write_text(
        "node x1\nnode x2\n" + "".join(f"edge y{j} : x1 -> x2\n" for j in range(width)),
        encoding="utf-8",
    )
    automaton = tmp_path / "wide.ta"
    automaton.write_text(
        f"states 1\ninitial 0\naccepting 0\ntrans 0 {'*' * width} true - 0\n", encoding="utf-8"
    )
    code = run_cli("verify", "--graph", str(tmp_path), "--bgp", str(pattern), "--ta", str(automaton))
    assert code == 3
    assert "letter expansion" in capsys.readouterr().err


def test_gen_and_coarsen_roundtrip(tmp_path, capsys):
    out = tmp_path / "g"
    assert run_cli(
        "gen", "--nodes", "8", "--struct-density", "0.7", "--temp-density", "0.5",
        "--snapshots", "12", "--seed", "4", "--out", str(out),
    ) == 0
    coarse = tmp_path / "c"
    assert run_cli(
        "coarsen", "--graph", str(out), "--factor", "3", "--out", str(coarse)
    ) == 0
    text = capsys.readouterr().out
    assert "snapshots" in text
    assert (coarse / "active.csv").exists()


def test_bench_unknown_algorithm(capsys):
    code = run_cli(
        "bench", "--graph", GRAPH_DIR, "--bgp", bgp_file("cycle2"),
        "--ta", ta_file("ta2"), "--algos", "quantum",
    )
    assert code == 1
    assert "unknown algorithm" in capsys.readouterr().err


@pytest.mark.parametrize("repeat", ["0", "-2"])
def test_bench_refuses_fewer_than_one_repeat(capsys, repeat):
    code = run_cli(
        "bench", "--graph", GRAPH_DIR, "--bgp", bgp_file("cycle2"), "--ta", ta_file("ta2"),
        "--repeat", repeat,
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: --repeat must be at least 1")
    assert captured.out == ""


def test_bench_table_format(capsys):
    assert run_cli(
        "bench", "--graph", GRAPH_DIR, "--bgp", bgp_file("cycle2"), "--ta", ta_file("ta2"),
        "--repeat", "2",
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split("\t") == [
        "algo", "runs", "run_ms", "rows", "generated", "early_rejected", "accepted",
    ]
    assert len(lines) == 4
    for line in lines[1:]:
        assert len(line.split("\t")) == 7


def test_match_and_bench_warn_when_they_drop_an_order(capsys):
    # y1,y2 cannot be verified against ta7, so partial runs unordered:
    # match warns once, bench once per algorithm given the order, not per repeat
    query = ("--graph", GRAPH_DIR, "--bgp", bgp_file("path2"), "--ta", ta_file("ta7"))
    warning = "warning: order unverifiable against the automaton; ran unordered"
    assert run_cli("match", *query, "--algo", "partial", "--order", "y1,y2") == 0
    assert capsys.readouterr().err.splitlines() == [warning]
    assert run_cli("bench", *query, "--order", "y1,y2", "--repeat", "3") == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [warning]
    assert len(captured.out.strip().splitlines()) == 4
    assert run_cli("bench", *query, "--order", "y1,y2", "--algos", "baseline") == 0
    assert capsys.readouterr().err == ""
