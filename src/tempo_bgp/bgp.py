"""Basic graph patterns: parsing, total and partial matching.

A pattern consists of node constants, node variables and edge variables,
with an endpoint map for the edge variables and optional label constraints.
Matching is homomorphic: distinct variables may bind the same graph element
unless ``distinct_edges`` is requested.

Matching is implemented as an edge-growing join in edge-variable
declaration order, backed by the graph's endpoint hash indices.  The
declaration order of the edge variables is also the canonical bit order
used by letter bitsets everywhere else in the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DuplicateIdError, FormatError
from .temporal_graph import TemporalGraph

_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class Bgp:
    constants: tuple[str, ...]
    node_vars: tuple[str, ...]
    edge_vars: tuple[str, ...]
    rho: dict[str, tuple[str, str]]
    labels: dict[str, str]

    @property
    def width(self) -> int:
        return len(self.edge_vars)

    def edge_index(self, name: str) -> int:
        return self.edge_vars.index(name)


@dataclass(frozen=True)
class Matching:
    """A (possibly partial) assignment of pattern variables to graph elements.

    ``edges[j]`` binds the j-th edge variable in declaration order (``None``
    when unbound); ``nodes`` likewise for node variables.  Node variables
    are bound exactly when forced by a bound incident edge variable, except
    for isolated node variables in total matchings.
    """

    edges: tuple[str | None, ...]
    nodes: tuple[str | None, ...]

    def is_total(self, p: Bgp) -> bool:
        return None not in self.edges and None not in self.nodes

    def format_edges(self, p: Bgp) -> str:
        return " ".join(
            f"{y}={e}" for y, e in zip(p.edge_vars, self.edges) if e is not None
        )

    def contains(self, other: "Matching") -> bool:
        """True when this matching extends (or equals) ``other``."""
        return all(b is None or a == b for a, b in zip(self.edges, other.edges)) and all(
            b is None or a == b for a, b in zip(self.nodes, other.nodes)
        )


def empty_matching(p: Bgp) -> Matching:
    return Matching((None,) * len(p.edge_vars), (None,) * len(p.node_vars))


def make_bgp(
    constants: Iterable[str],
    node_vars: Iterable[str],
    edge_vars: Iterable[str],
    rho: dict[str, tuple[str, str]],
    labels: dict[str, str] | None = None,
) -> Bgp:
    constants = tuple(constants)
    node_vars = tuple(node_vars)
    edge_vars = tuple(edge_vars)
    labels = dict(labels or {})
    names = list(constants) + list(node_vars) + list(edge_vars)
    if len(set(names)) != len(names):
        raise DuplicateIdError("constants, node variables and edge variables must be disjoint")
    endpoints_ok = set(constants) | set(node_vars)
    for y in edge_vars:
        if y not in rho:
            raise FormatError(f"edge variable {y!r} has no endpoints")
        a, b = rho[y]
        for end in (a, b):
            if end not in endpoints_ok:
                raise FormatError(f"edge variable {y!r} references undeclared endpoint {end!r}")
    for name in labels:
        if name not in set(node_vars) | set(edge_vars):
            raise FormatError(f"label constraint on unknown variable {name!r}")
    return Bgp(constants, node_vars, edge_vars, dict(rho), labels)


def parse_bgp(text: str) -> Bgp:
    """Parse the line-oriented pattern format.

    One declaration per line::

        const <name>
        node <name> [: <label>]
        edge <name> : <endpoint> -> <endpoint> [: <label>]

    Blank lines and ``#`` comments are ignored.  Edge declaration order is
    the canonical bitset order.
    """
    constants: list[str] = []
    node_vars: list[str] = []
    edge_vars: list[str] = []
    rho: dict[str, tuple[str, str]] = {}
    labels: dict[str, str] = {}
    declared: set[str] = set()

    def declare(name: str) -> str:
        if not _NAME.match(name):
            raise FormatError(f"bad name {name!r}")
        if name in declared:
            raise DuplicateIdError(f"duplicate declaration of {name!r}")
        declared.add(name)
        return name

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        kind, _, rest = line.partition(" ")
        rest = rest.strip()
        if kind == "const":
            constants.append(declare(rest))
        elif kind == "node":
            name, _, label = rest.partition(":")
            node_vars.append(declare(name.strip()))
            if label.strip():
                labels[name.strip()] = label.strip()
        elif kind == "edge":
            m = re.match(
                r"^([A-Za-z_]\w*)\s*:\s*([A-Za-z_]\w*)\s*->\s*([A-Za-z_]\w*)\s*(?::\s*(\S+))?$",
                rest,
            )
            if not m:
                raise FormatError(f"line {lineno}: bad edge declaration {line!r}")
            name, a, b, label = m.groups()
            declare(name)
            edge_vars.append(name)
            rho[name] = (a, b)
            if label:
                labels[name] = label
        else:
            raise FormatError(f"line {lineno}: unknown declaration {kind!r}")

    return make_bgp(constants, node_vars, edge_vars, rho, labels)


# ---------------------------------------------------------------------------
# Matching


def _candidates(g: TemporalGraph, p: Bgp, binding: dict[str, str], y: str) -> Iterable[str]:
    a, b = p.rho[y]
    va = binding.get(a, a if a in p.constants else None)
    vb = binding.get(b, b if b in p.constants else None)
    if va is not None and vb is not None:
        return g.by_pair.get((va, vb), ())
    if va is not None:
        return g.by_src.get(va, ())
    if vb is not None:
        return g.by_dst.get(vb, ())
    return g.edges.keys()


def _try_bind(
    g: TemporalGraph, p: Bgp, binding: dict[str, str], y: str, eid: str
) -> list[str] | None:
    """Check edge ``eid`` against slot ``y``; return newly bound node vars."""
    e = g.edges[eid]
    want = p.labels.get(y)
    if want is not None and e.label != want:
        return None
    a, b = p.rho[y]
    added: list[str] = []
    for end, vid in ((a, e.src), (b, e.dst)):
        if end in p.constants:
            if end != vid:
                _undo(binding, added)
                return None
        elif end in binding:
            if binding[end] != vid:
                _undo(binding, added)
                return None
        else:
            want_node = p.labels.get(end)
            if want_node is not None and g.nodes[vid] != want_node:
                _undo(binding, added)
                return None
            binding[end] = vid
            added.append(end)
    return added


def _undo(binding: dict[str, str], added: list[str]) -> None:
    for name in added:
        del binding[name]


def _freeze(p: Bgp, binding: dict[str, str], edge_binding: dict[str, str]) -> Matching:
    return Matching(
        tuple(edge_binding.get(y) for y in p.edge_vars),
        tuple(binding.get(x) for x in p.node_vars),
    )


def match_total(
    g: TemporalGraph,
    p: Bgp,
    *,
    distinct_edges: bool = False,
    pools: Sequence[Iterable[str] | None] | None = None,
) -> list[Matching]:
    """All total matchings of ``p`` in ``g``, ignoring time.

    ``pools`` optionally restricts, per edge variable, the set of edge ids
    that variable may bind (``None`` entries leave a slot unrestricted).
    Output is sorted by bound edge ids in declaration order, then by node
    bindings, so results are reproducible.
    """
    for c in p.constants:
        if c not in g.nodes:
            return []
    pool_sets = None
    if pools is not None:
        pool_sets = [None if x is None else (x if isinstance(x, (set, frozenset)) else set(x)) for x in pools]

    results: list[Matching] = []
    binding: dict[str, str] = {}
    edge_binding: dict[str, str] = {}
    used: set[str] = set()

    def grow(j: int) -> None:
        if j == len(p.edge_vars):
            # Isolated node variables (no incident edge variable) range
            # over every label-compatible node.
            free = [x for x in p.node_vars if x not in binding]
            if not free:
                results.append(_freeze(p, binding, edge_binding))
                return
            def fill(i: int) -> None:
                if i == len(free):
                    results.append(_freeze(p, binding, edge_binding))
                    return
                x = free[i]
                want = p.labels.get(x)
                for vid, label in g.nodes.items():
                    if want is not None and label != want:
                        continue
                    binding[x] = vid
                    fill(i + 1)
                    del binding[x]
            fill(0)
            return
        y = p.edge_vars[j]
        pool = pool_sets[j] if pool_sets is not None else None
        for eid in _candidates(g, p, binding, y):
            if pool is not None and eid not in pool:
                continue
            if distinct_edges and eid in used:
                continue
            added = _try_bind(g, p, binding, y, eid)
            if added is None:
                continue
            edge_binding[y] = eid
            if distinct_edges:
                used.add(eid)
            grow(j + 1)
            if distinct_edges:
                used.discard(eid)
            del edge_binding[y]
            _undo(binding, added)

    grow(0)
    results.sort(key=lambda m: (m.edges, m.nodes))
    return results


def delta_match(
    g: TemporalGraph,
    p: Bgp,
    old_history: Iterable[str],
    new_edges: Iterable[str],
    *,
    distinct_edges: bool = False,
) -> list[Matching]:
    """Total matchings over ``old ∪ new`` that use at least one new edge.

    Equivalent to ``match_total`` over the union minus ``match_total`` over
    the old history, computed without rescanning old-only matchings: slot
    ``j`` is successively forced into the new edges while earlier slots
    stay in the old history and later slots range over the union.
    """
    old = set(old_history)
    new = set(new_edges)
    if old & new:
        raise FormatError("new_edges must be disjoint from old_history")
    if not new:
        return []
    union = old | new
    out: list[Matching] = []
    for j in range(len(p.edge_vars)):
        pools: list[set[str] | None] = []
        for i in range(len(p.edge_vars)):
            if i < j:
                pools.append(old)
            elif i == j:
                pools.append(new)
            else:
                pools.append(union)
        out.extend(match_total(g, p, distinct_edges=distinct_edges, pools=pools))
    out.sort(key=lambda m: (m.edges, m.nodes))
    return out


# ---------------------------------------------------------------------------
# Partial matchings


def _extensions(
    g: TemporalGraph,
    p: Bgp,
    base: Matching,
    pool: set[str],
    *,
    order: Sequence[str] | None = None,
    distinct_edges: bool = False,
    require_new: bool = True,
) -> list[Matching]:
    """Partial matchings extending ``base`` by binding edges from ``pool``.

    Every added edge variable is bound to a pool edge; all subset sizes are
    produced (proper extensions only when ``require_new``).  With ``order``,
    only assignments whose bound variables form a prefix of the order are
    generated.
    """
    binding = {x: v for x, v in zip(p.node_vars, base.nodes) if v is not None}
    edge_binding = {y: e for y, e in zip(p.edge_vars, base.edges) if e is not None}
    used = set(edge_binding.values())
    out: list[Matching] = []

    if order is not None:
        bound_set = set(edge_binding)
        k = 0
        while k < len(order) and order[k] in bound_set:
            k += 1
        if bound_set - set(order[:k]):
            return []  # base itself is not a prefix; nothing to generate
        todo = list(order[k:])
        prefix_only = True
    else:
        todo = [y for y in p.edge_vars if y not in edge_binding]
        prefix_only = False

    def grow(i: int, bound_any: bool) -> None:
        if i == len(todo):
            if bound_any or not require_new:
                out.append(_freeze(p, binding, edge_binding))
            return
        y = todo[i]
        # leaving y unbound: under a prefix order no later variable may
        # then be bound, so emit and stop.
        if prefix_only:
            if bound_any or not require_new:
                out.append(_freeze(p, binding, edge_binding))
        else:
            grow(i + 1, bound_any)
        for eid in _candidates(g, p, binding, y):
            if eid not in pool:
                continue
            if distinct_edges and eid in used:
                continue
            added = _try_bind(g, p, binding, y, eid)
            if added is None:
                continue
            edge_binding[y] = eid
            if distinct_edges:
                used.add(eid)
            grow(i + 1, True)
            if distinct_edges:
                used.discard(eid)
            del edge_binding[y]
            _undo(binding, added)

    grow(0, False)
    return out


def extend(
    g: TemporalGraph,
    p: Bgp,
    states_matchings: Iterable[Matching],
    new_edges: Iterable[str],
    history: Iterable[str],
    *,
    order: Sequence[str] | None = None,
    distinct_edges: bool = False,
) -> list[tuple[Matching, Matching]]:
    """Pairs ``(old, new)`` rewriting the working set for a new snapshot.

    Every tracked matching yields its identity pair, plus one pair per
    proper extension whose added bindings all use edges first seen in the
    current snapshot (older edges were already offered to the matching's
    ancestors, so re-binding them would replay history with the wrong
    letter prefix).  ``history`` is accepted for contract symmetry; new
    edges are required to belong to it.
    """
    new = set(new_edges)
    hist = set(history)
    if not new <= hist:
        raise FormatError("new_edges must be contained in history")
    pairs: list[tuple[Matching, Matching]] = []
    for mu in states_matchings:
        pairs.append((mu, mu))
        if new:
            for ext in _extensions(
                g, p, mu, new, order=order, distinct_edges=distinct_edges, require_new=True
            ):
                pairs.append((mu, ext))
    return pairs


def match_partial_maximal(
    g: TemporalGraph,
    p: Bgp,
    edge_ids: Iterable[str],
    *,
    distinct_edges: bool = False,
) -> list[Matching]:
    """Maximal partial matchings of ``p`` in the subgraph on ``edge_ids``.

    A partial matching is maximal when no strictly larger partial matching
    exists over the same edge set; the empty matching qualifies exactly
    when nothing binds at all.  Total matchings are vacuously maximal.
    """
    pool = set(edge_ids)
    all_partials = _extensions(
        g, p, empty_matching(p), pool, distinct_edges=distinct_edges, require_new=False
    )
    out = [m for m in all_partials if not _one_step_extendable(g, p, m, pool, distinct_edges)]
    out.sort(key=lambda m: (tuple(e or "" for e in m.edges), tuple(v or "" for v in m.nodes)))
    return out


def _one_step_extendable(
    g: TemporalGraph, p: Bgp, m: Matching, pool: set[str], distinct_edges: bool
) -> bool:
    binding = {x: v for x, v in zip(p.node_vars, m.nodes) if v is not None}
    used = {e for e in m.edges if e is not None}
    for y, bound in zip(p.edge_vars, m.edges):
        if bound is not None:
            continue
        for eid in _candidates(g, p, binding, y):
            if eid not in pool:
                continue
            if distinct_edges and eid in used:
                continue
            added = _try_bind(g, p, binding, y, eid)
            if added is not None:
                _undo(binding, added)
                return True
    return False
