"""Command-line front end.

Subcommands: ``match``, ``gen``, ``coarsen``, ``check-order``, ``verify``,
``bench``.  Exit codes: 0 success / agreement; 1 parse or I/O error;
2 precondition refusal (e.g. a rejected edge-variable order); 3 oracle
instance-size guard.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from statistics import mean

from . import engine, oracle, workbench
from .bgp import parse_bgp
from .errors import (
    FormatError,
    OracleGuardError,
    OrderIncompatible,
    OrderNotConnected,
    TempoBgpError,
)
from .temporal_graph import format_time, load_graph_dir, write_graph_dir
from .timed_automaton import (
    is_compatible_order,
    is_connected_order,
    order_indices,
    parse_automaton,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_REFUSED = 2
EXIT_GUARD = 3


def _load_inputs(args):
    g = load_graph_dir(args.graph)
    p = parse_bgp(Path(args.bgp).read_text(encoding="utf-8"))
    ta = parse_automaton(Path(args.ta).read_text(encoding="utf-8"), len(p.edge_vars))
    return g, p, ta


def _parse_order(text, p):
    names = [s.strip() for s in text.split(",") if s.strip()]
    for name in names:
        if name not in p.edge_vars:
            raise OrderNotConnected(f"order names unknown edge variable {name!r}")
    return names


def _result_lines(p, result, wall_ms):
    for m, t in result.accepted:
        yield f"ACCEPT t={format_time(t)} {m.format_edges(p)}"
    c = result.counters
    yield (
        f"STATS rows={c.rows} generated={c.generated} "
        f"early_rejected={c.early_rejected} wall_ms={wall_ms:.1f}"
    )


def cmd_match(args) -> int:
    g, p, ta = _load_inputs(args)
    order = _parse_order(args.order, p) if args.order else None
    start = time.perf_counter()
    result = engine.run(
        args.algo,
        g,
        p,
        ta,
        order=order,
        early_exit=not args.no_early_exit,
        distinct_edges=args.distinct_edges,
    )
    wall_ms = (time.perf_counter() - start) * 1000.0
    if result.counters.warnings:
        print("warning: order unverifiable against the automaton; ran unordered", file=sys.stderr)
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
    try:
        for line in _result_lines(p, result, wall_ms):
            print(line, file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return EXIT_OK


def cmd_gen(args) -> int:
    spec = workbench.GenSpec(
        n_nodes=args.nodes,
        struct_density=args.struct_density,
        temp_density=args.temp_density,
        n_snapshots=args.snapshots,
        seed=args.seed,
    )
    g = workbench.generate_graph_dir(spec, args.out)
    print(f"wrote {g.n_nodes} nodes, {g.n_edges} edges, {len(g.domain)} snapshots to {args.out}")
    return EXIT_OK


def cmd_coarsen(args) -> int:
    g = load_graph_dir(args.graph)
    coarse = workbench.coarsen_graph(g, args.factor)
    write_graph_dir(args.out, coarse)
    print(f"wrote {len(coarse.domain)} snapshots (from {len(g.domain)}) to {args.out}")
    return EXIT_OK


def cmd_check_order(args) -> int:
    p = parse_bgp(Path(args.bgp).read_text(encoding="utf-8"))
    ta = parse_automaton(Path(args.ta).read_text(encoding="utf-8"), len(p.edge_vars))
    if args.search:
        from itertools import permutations

        for perm in permutations(p.edge_vars):
            if is_connected_order(p, perm) and (
                is_compatible_order(ta, order_indices(p, perm)).value == "Compatible"
            ):
                print(",".join(perm))
                return EXIT_OK
        print("NO")
        return EXIT_OK
    if not args.order:
        print("error: check-order needs --order or --search", file=sys.stderr)
        return EXIT_PARSE
    names = _parse_order(args.order, p)
    connected = is_connected_order(p, names)
    compatible = is_compatible_order(ta, order_indices(p, names))
    print(f"connected={str(connected).lower()} compatible={compatible.value}")
    return EXIT_OK


def cmd_verify(args) -> int:
    g, p, ta = _load_inputs(args)
    reference = frozenset(
        oracle.oracle_accepted_matchings(g, p, ta, distinct_edges=args.distinct_edges)
    )
    answers = {"oracle": reference}
    for algo in engine.ALGORITHMS:
        answers[algo] = engine.run(
            algo, g, p, ta, distinct_edges=args.distinct_edges
        ).accepted_set
    if all(a == reference for a in answers.values()):
        print(f"agree: {len(reference)} accepted matchings")
        return EXIT_OK
    for name, got in answers.items():
        missing = reference - got
        extra = got - reference
        if missing or extra:
            print(f"{name}: missing={[m.format_edges(p) for m in sorted(missing, key=str)]}"
                  f" extra={[m.format_edges(p) for m in sorted(extra, key=str)]}")
    return EXIT_PARSE


def cmd_bench(args) -> int:
    g, p, ta = _load_inputs(args)
    order = _parse_order(args.order, p) if args.order else None
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in algos:
        if algo not in engine.ALGORITHMS:
            raise FormatError(f"unknown algorithm {algo!r}; choose from {engine.ALGORITHMS}")
    print("algo\truns\trun_ms\trows\tgenerated\tearly_rejected\taccepted")
    for algo in algos:
        times = []
        result = None
        for _ in range(args.repeat):
            start = time.perf_counter()
            result = engine.run(
                algo,
                g,
                p,
                ta,
                order=order if algo == "partial" else None,
                early_exit=not args.no_early_exit,
                distinct_edges=args.distinct_edges,
            )
            times.append((time.perf_counter() - start) * 1000.0)
        c = result.counters
        print(
            f"{algo}\t{args.repeat}\t{mean(times):.1f}\t{c.rows}\t{c.generated}"
            f"\t{c.early_rejected}\t{len(result.accepted)}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempo-bgp",
        description="Evaluate graph patterns with timed-automaton temporal constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(sp, graph=True):
        if graph:
            sp.add_argument("--graph", required=True, help="directory with node/edge/active CSVs")
        sp.add_argument("--bgp", required=True, help="pattern file")
        sp.add_argument("--ta", required=True, help="timed automaton file")

    sp = sub.add_parser("match", help="run one evaluation algorithm")
    add_io(sp)
    sp.add_argument("--algo", default="baseline", choices=engine.ALGORITHMS)
    sp.add_argument("--order", help="comma-separated edge-variable order (partial only)")
    sp.add_argument("--out", help="write results here instead of stdout")
    sp.add_argument("--distinct-edges", action="store_true", help="forbid reusing an edge")
    sp.add_argument("--no-early-exit", action="store_true", help="disable early accept/reject")
    sp.set_defaults(fn=cmd_match)

    sp = sub.add_parser("gen", help="generate a synthetic temporal graph")
    sp.add_argument("--nodes", type=int, required=True)
    sp.add_argument("--struct-density", type=float, required=True)
    sp.add_argument("--temp-density", type=float, required=True)
    sp.add_argument("--snapshots", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True, help="output directory")
    sp.set_defaults(fn=cmd_gen)

    sp = sub.add_parser("coarsen", help="reduce a graph's temporal resolution")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--factor", type=int, required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_coarsen)

    sp = sub.add_parser("check-order", help="check an edge-variable order")
    add_io(sp, graph=False)
    sp.add_argument("--order", help="comma-separated edge-variable order")
    sp.add_argument("--search", action="store_true", help="try all orders, print the first that passes")
    sp.set_defaults(fn=cmd_check_order)

    sp = sub.add_parser("verify", help="run all engines plus the oracle and compare")
    add_io(sp)
    sp.add_argument("--distinct-edges", action="store_true")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("bench", help="time the algorithms and dump counters")
    add_io(sp)
    sp.add_argument("--algos", default="baseline,on-demand,partial")
    sp.add_argument("--repeat", type=int, default=3)
    sp.add_argument("--order")
    sp.add_argument("--distinct-edges", action="store_true")
    sp.add_argument("--no-early-exit", action="store_true")
    sp.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OrderNotConnected, OrderIncompatible) as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except OracleGuardError as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (TempoBgpError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
