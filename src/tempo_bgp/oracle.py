"""Brute-force reference implementations used to validate the engines.

Everything here is deliberately naive and shares no evaluation code with
the production matcher or automaton runner: matchings come from exhaustive
assignment enumeration with a literal check of the matching conditions,
and automaton runs track explicit clock *values* advanced by per-step
increments rather than lazy last-reset stamps.  Agreement between the two
stacks is evidence, not tautology.

All entry points guard against oversized instances and raise
``OracleGuardError`` rather than grind.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .bgp import Bgp, Matching
from .errors import OracleGuardError
from .temporal_graph import TemporalGraph
from .timed_automaton import TimedAutomaton

GUARD_LIMIT = 10_000_000


def _guard(count: int, what: str) -> None:
    if count > GUARD_LIMIT:
        raise OracleGuardError(f"{what}: {count} candidates exceed {GUARD_LIMIT}")


def _literal_check(
    g: TemporalGraph, p: Bgp, edge_assign: dict[str, str], node_assign: dict[str, str]
) -> bool:
    """The matching conditions, checked clause by clause."""
    for x, vid in node_assign.items():
        if vid not in g.nodes:
            return False
        want = p.labels.get(x)
        if want is not None and g.nodes[vid] != want:
            return False
    for y, eid in edge_assign.items():
        if eid not in g.edges:
            return False
        want = p.labels.get(y)
        if want is not None and g.edges[eid].label != want:
            return False
        a, b = p.rho[y]
        for end, vid in ((a, g.edges[eid].src), (b, g.edges[eid].dst)):
            if end in p.constants:
                if end != vid:
                    return False
            else:
                if end not in node_assign or node_assign[end] != vid:
                    return False
    return True


def _freeze(p: Bgp, edge_assign: dict[str, str], node_assign: dict[str, str]) -> Matching:
    return Matching(
        tuple(edge_assign.get(y) for y in p.edge_vars),
        tuple(node_assign.get(x) for x in p.node_vars),
    )


def _assignments(
    g: TemporalGraph,
    p: Bgp,
    edge_vars: Sequence[str],
    pool: Sequence[str],
    *,
    bind_isolated: bool,
    distinct_edges: bool = False,
):
    """Yield every literal-valid assignment of ``edge_vars`` over ``pool``.

    Node variables touched by the chosen edges are forced through the
    endpoint equations; conflicting forcings are discarded by the literal
    check.  Isolated node variables (required for total matchings) range
    over every node.
    """
    isolated = [
        x
        for x in p.node_vars
        if bind_isolated and not any(x in p.rho[y] for y in edge_vars)
    ]
    _guard(
        (len(pool) ** len(edge_vars)) * (len(g.nodes) ** len(isolated) or 1),
        "assignment enumeration",
    )
    for combo in product(pool, repeat=len(edge_vars)):
        if distinct_edges and len(set(combo)) != len(combo):
            continue
        edge_assign = dict(zip(edge_vars, combo))
        node_assign: dict[str, str] = {}
        ok = True
        for y, eid in edge_assign.items():
            a, b = p.rho[y]
            for end, vid in ((a, g.edges[eid].src), (b, g.edges[eid].dst)):
                if end in p.constants:
                    continue
                if end in node_assign and node_assign[end] != vid:
                    ok = False
                    break
                node_assign[end] = vid
            if not ok:
                break
        if not ok:
            continue
        if isolated:
            for extra in product(sorted(g.nodes), repeat=len(isolated)):
                full = dict(node_assign)
                full.update(zip(isolated, extra))
                if _literal_check(g, p, edge_assign, full):
                    yield _freeze(p, edge_assign, full)
        else:
            if _literal_check(g, p, edge_assign, node_assign):
                yield _freeze(p, edge_assign, node_assign)


def oracle_match(g: TemporalGraph, p: Bgp, *, distinct_edges: bool = False) -> list[Matching]:
    """All total matchings, by exhaustive enumeration."""
    for c in p.constants:
        if c not in g.nodes:
            return []
    out = sorted(
        _assignments(
            g, p, p.edge_vars, sorted(g.edges), bind_isolated=True, distinct_edges=distinct_edges
        ),
        key=lambda m: (m.edges, m.nodes),
    )
    return out


def oracle_enumerate_partials(
    g: TemporalGraph, p: Bgp, edge_ids: Iterable[str], *, distinct_edges: bool = False
) -> list[Matching]:
    """Every partial matching over the given edge set, including the empty one.

    Node variables are bound exactly when an incident edge variable is
    bound, so each partial appears once.
    """
    pool = sorted(set(edge_ids))
    seen: set[Matching] = set()
    n = len(p.edge_vars)
    _guard(1 << n, "edge-variable subsets")
    for subset_bits in range(1 << n):
        chosen = [p.edge_vars[j] for j in range(n) if subset_bits >> j & 1]
        for m in _assignments(
            g, p, chosen, pool, bind_isolated=False, distinct_edges=distinct_edges
        ):
            seen.add(m)
    return sorted(
        seen, key=lambda m: (tuple(e or "" for e in m.edges), tuple(v or "" for v in m.nodes))
    )


def oracle_maximal_partials(
    g: TemporalGraph, p: Bgp, edge_ids: Iterable[str], *, distinct_edges: bool = False
) -> list[Matching]:
    """Partial matchings with no strict extension over the same edge set."""
    partials = oracle_enumerate_partials(g, p, edge_ids, distinct_edges=distinct_edges)
    return [
        m
        for m in partials
        if not any(other is not m and other != m and other.contains(m) for other in partials)
    ]


# ---------------------------------------------------------------------------
# Automaton runs with explicit clock values


def _expand_concrete(ta: TimedAutomaton) -> dict[tuple[int, int], list]:
    _guard(sum(1 << tr.pattern.count("*") for tr in ta.transitions), "letter expansion")
    table: dict[tuple[int, int], list] = {}
    for tr in ta.transitions:
        stars = [j for j, ch in enumerate(tr.pattern) if ch == "*"]
        base = sum(1 << j for j, ch in enumerate(tr.pattern) if ch == "1")
        for fill in range(1 << len(stars)):
            bits = base
            for i, j in enumerate(stars):
                if fill >> i & 1:
                    bits |= 1 << j
            table.setdefault((tr.src, bits), []).append(tr)
    return table


def _guard_on_values(guard, values) -> bool:
    for clock, op, bound in guard:
        v = values[clock]
        if op == "<" and not v < bound:
            return False
        if op == "<=" and not v <= bound:
            return False
        if op == ">" and not v > bound:
            return False
        if op == ">=" and not v >= bound:
            return False
    return True


def oracle_run(
    ta: TimedAutomaton, word: Sequence[tuple[float, int]]
) -> list[set[tuple[int, tuple[float, ...]]]]:
    """Configuration sets after each prefix of the word (index 0 = initial).

    Configurations carry explicit clock values; the time delta between
    consecutive letters is added to every clock before guards are checked,
    and reset clocks drop to zero afterwards.
    """
    return _run(ta, _expand_concrete(ta), word)


def _run(ta: TimedAutomaton, table, word) -> list[set[tuple[int, tuple[float, ...]]]]:
    """``oracle_run`` over a letter-expansion table built by ``_expand_concrete``."""
    configs: set[tuple[int, tuple[float, ...]]] = {(ta.initial, (0.0,) * ta.n_clocks)}
    history = [set(configs)]
    prev = 0.0
    for t, letter in word:
        dt = t - prev
        nxt: set[tuple[int, tuple[float, ...]]] = set()
        for state, values in configs:
            advanced = tuple(v + dt for v in values)
            for tr in table.get((state, letter), ()):
                if not _guard_on_values(tr.guard, advanced):
                    continue
                nxt.add(
                    (tr.dst, tuple(0.0 if c in tr.resets else advanced[c] for c in range(ta.n_clocks)))
                )
        configs = nxt
        history.append(set(configs))
        prev = t
    return history


def oracle_accepts(ta: TimedAutomaton, word: Sequence[tuple[float, int]]) -> bool:
    return _accepting(ta, oracle_run(ta, word)[-1])


def _accepting(ta: TimedAutomaton, final) -> bool:
    return any(state in ta.accepting for state, _ in final)


def oracle_word(g: TemporalGraph, p: Bgp, m: Matching) -> list[tuple[float, int]]:
    """The timed word of a matching over the full temporal domain.

    Bit ``j`` of the letter at time ``t`` is set when the edge bound to the
    j-th edge variable is active at ``t``; unbound variables contribute 0.
    """
    word = []
    for t in g.domain:
        bits = 0
        for j, eid in enumerate(m.edges):
            if eid is not None and t in g.active[eid]:
                bits |= 1 << j
        word.append((t, bits))
    return word


def oracle_accepted_matchings(
    g: TemporalGraph, p: Bgp, ta: TimedAutomaton, *, distinct_edges: bool = False
) -> list[Matching]:
    """Reference answer for a whole query: match, build words, filter.

    The letter-expansion table is built once for the whole query.
    """
    table = _expand_concrete(ta)
    return [
        m
        for m in oracle_match(g, p, distinct_edges=distinct_edges)
        if _accepting(ta, _run(ta, table, oracle_word(g, p, m))[-1])
    ]
