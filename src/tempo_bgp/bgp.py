"""Basic graph patterns: parsing, total and partial matching.

A pattern consists of node constants, node variables and edge variables,
with an endpoint map for the edge variables and optional label constraints.
Matching is homomorphic: distinct variables may bind the same graph element
unless ``distinct_edges`` is requested.

Matching is implemented as an edge-growing join backed by the graph's
endpoint hash indices.  One backtracking step, ``_bind``, binds an edge
variable for total, delta and partial matching alike, writing the position
slots of ``Matching`` itself: node slots are the node variables, then one
slot per constant pre-bound to its name.  ``match_total`` binds the edge
variables in a connected order grown from the first one, so no variable
scans the whole graph while a bound one could reach it through an
endpoint index.  The delta join is anchored: for each
anchor slot in declaration order it binds that slot to each fitting new
edge first, then grows outward in a connected order, slots before the
anchor taking only old edges and slots after it old or new ones, so each
delta matching is built exactly once, at its first new slot.  ``extend``
is the one producer of partial matchings; like the total matchers, it
fills isolated node variables once every edge variable is bound.  Its
reach gate tests each row once against the endpoints of the new edges,
so a row that no new edge can extend yields nothing and is neither
copied nor searched (under an order the test is a table lookup
and at most one set test); variables with both endpoints unbound draw
only from the new edges.  The declaration order of the edge variables
is also the canonical bit order used by letter bitsets everywhere else
in the package.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

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

    @property
    def isolated(self) -> tuple[int, ...]:
        """Indices of the node variables that no edge variable reads."""
        ends = {end for y in self.edge_vars for end in self.rho[y]}
        return tuple(i for i, x in enumerate(self.node_vars) if x not in ends)


def order_indices(p: Bgp, order: Sequence[str]) -> list[int]:
    """The bit indices of ``order``, a permutation of the edge variables (else ``FormatError``)."""
    if sorted(order) != sorted(p.edge_vars):
        raise FormatError(f"order {order!r} is not a permutation of the edge variables")
    return [p.edge_vars.index(y) for y in order]


class Matching(NamedTuple):
    """A (possibly partial) assignment of pattern variables to graph elements.

    ``edges[j]`` binds the j-th edge variable in declaration order (``None``
    when unbound); ``nodes`` likewise for node variables.  Node variables
    are bound exactly when forced by a bound incident edge variable, except
    for isolated node variables, which are bound once every edge variable is.
    """

    edges: tuple[str | None, ...]
    nodes: tuple[str | None, ...]

    def is_total(self) -> bool:
        return None not in self.edges and None not in self.nodes

    def format(self, p: Bgp) -> str:
        """The bound edge variables, then the bound isolated node variables;
        every other binding follows from these."""
        edges = [f"{y}={e}" for y, e in zip(p.edge_vars, self.edges) if e is not None]
        nodes = [
            f"{p.node_vars[i]}={self.nodes[i]}" for i in p.isolated if self.nodes[i] is not None
        ]
        return " ".join(edges + nodes)

    def contains(self, other: "Matching") -> bool:
        """True when this matching extends (or equals) ``other``."""
        return all(b is None or a == b for a, b in zip(self.edges, other.edges)) and all(
            b is None or a == b for a, b in zip(self.nodes, other.nodes)
        )


def empty_matching(p: Bgp) -> Matching:
    return Matching((None,) * len(p.edge_vars), (None,) * len(p.node_vars))


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

    endpoints = set(constants) | set(node_vars)
    for name, ends in rho.items():
        for end in ends:
            if end not in endpoints:
                raise FormatError(f"edge variable {name!r} references undeclared endpoint {end!r}")
    return Bgp(tuple(constants), tuple(node_vars), tuple(edge_vars), rho, labels)


# ---------------------------------------------------------------------------
# Matching


_Slot = tuple[int, int, str | None, str | None, str | None]
_Pool = set[str] | frozenset[str] | dict[str, object]


def _slot_table(p: Bgp) -> list[_Slot]:
    """Per edge variable: its two endpoint node slots, its wanted label and theirs."""
    index = {x: i for i, x in enumerate(p.node_vars + p.constants)}
    table = []
    for y in p.edge_vars:
        a, b = p.rho[y]
        table.append((index[a], index[b], p.labels.get(y), p.labels.get(a), p.labels.get(b)))
    return table


def _bind(
    g: TemporalGraph,
    slot: _Slot,
    nodes: list[str | None],
    edges: list[str | None],
    used: set[str] | None,
    j: int,
    pool: _Pool | None,
    scan: Iterable[str] | None = None,
) -> Iterator[None]:
    """Bind edge variable ``j``, whose slot table entry is ``slot``, to each fitting edge in turn.

    Yields once per edge of ``pool`` (any edge when ``None``) that is not in
    ``used`` and fits the variable's label and its endpoints, with
    ``edges[j]`` and the fresh endpoint slots of ``nodes`` set; they are
    unset when the generator resumes.  Candidates come from the graph's
    endpoint indices when an endpoint is bound, else from ``scan``, which
    must hold only graph edges (every edge, in graph order, when ``None``).
    ``used`` is ``None`` unless edges must be distinct, and then holds the
    edges already bound.  This is the only code that binds an edge variable.
    """
    sa, sb, want, label_a, label_b = slot
    va, vb = nodes[sa], nodes[sb]
    if va is not None:
        candidates = g.by_pair.get((va, vb), ()) if vb is not None else g.by_src.get(va, ())
    elif vb is not None:
        candidates = g.by_dst.get(vb, ())
    else:
        candidates = g.edges if scan is None else scan
    fresh_a = va is None
    fresh_b = vb is None and sb != sa  # a fresh self-loop binds its node once
    loop = fresh_a and sa == sb
    want_a = label_a if fresh_a else None
    want_b = label_b if fresh_b else None
    graph_edges, labels = g.edges, g.nodes
    for eid in candidates:
        if (pool is not None and eid not in pool) or (used is not None and eid in used):
            continue
        e = graph_edges[eid]
        if (
            (want is not None and e.label != want)
            or (loop and e.src != e.dst)
            or (want_a is not None and labels[e.src] != want_a)
            or (want_b is not None and labels[e.dst] != want_b)
        ):
            continue
        if fresh_a:
            nodes[sa] = e.src
        if fresh_b:
            nodes[sb] = e.dst
        edges[j] = eid
        if used is not None:
            used.add(eid)
        yield
        if used is not None:
            used.discard(eid)
        edges[j] = None
        if fresh_a:
            nodes[sa] = None
        if fresh_b:
            nodes[sb] = None


def _isolated_fill(g: TemporalGraph, p: Bgp) -> Callable[[Matching], list[Matching]] | None:
    """The fill of isolated node variables, ``None`` when the pattern has none.

    Isolated node variables (no incident edge variable) range over every
    label-compatible node, and no edge variable reads them.  The fill maps a
    matching binding every edge variable to one matching per assignment of
    them; any other matching maps to itself alone.
    """
    slots = p.isolated
    if not slots:
        return None
    assignments = list(product(*(
        [v for v, label in g.nodes.items() if p.labels.get(p.node_vars[i]) in (None, label)]
        for i in slots
    )))

    def fill(m: Matching) -> list[Matching]:
        if None in m.edges:
            return [m]
        nodes = list(m.nodes)
        out = []
        for values in assignments:
            for i, v in zip(slots, values):
                nodes[i] = v
            out.append(Matching(m.edges, tuple(nodes)))
        return out

    return fill


def _total(
    g: TemporalGraph,
    p: Bgp,
    slots: list[_Slot],
    distinct_edges: bool,
    searches: Iterable[tuple[list[int], list[_Pool | None]]],
    scan: Iterable[str] | None = None,
) -> list[Matching]:
    """Sorted total matchings found by ``searches``, isolated node variables filled.

    Each search binds the edge variables in its order, variable ``j``
    taking edges of its ``pools[j]``, and the first one drawing candidates
    from ``scan`` when neither of its endpoints is a constant (see
    ``_bind``).  No two searches may find the same matching.
    """
    for c in p.constants:
        if c not in g.nodes:
            return []
    results: list[Matching] = []
    n = len(p.node_vars)
    nodes: list[str | None] = [None] * n + list(p.constants)
    edges: list[str | None] = [None] * len(p.edge_vars)
    used: set[str] | None = set() if distinct_edges else None
    last = len(slots) - 1

    def grow(i: int) -> None:
        j = order[i]
        bound = _bind(g, slots[j], nodes, edges, used, j, pools[j], None if i else scan)
        if i < last:
            for _ in bound:
                grow(i + 1)
        else:  # the leaves, emitted here rather than one call deeper each
            for _ in bound:
                results.append(Matching(tuple(edges), tuple(nodes[:n])))

    if last < 0:
        results.append(Matching((), tuple(nodes[:n])))
    else:
        for order, pools in searches:
            grow(0)
    fill = _isolated_fill(g, p)
    if fill is not None:
        results = [f for m in results for f in fill(m)]
    # a Matching is the tuple (edges, nodes), so it sorts as it is
    results.sort()
    return results


def match_total(g: TemporalGraph, p: Bgp, *, distinct_edges: bool = False) -> list[Matching]:
    """All total matchings of ``p`` in ``g``, ignoring time.

    Output is sorted by bound edge ids in declaration order, then by node
    bindings, so results are reproducible.
    """
    slots = _slot_table(p)
    k = len(slots)
    order = _anchored_order(slots, len(p.node_vars), 0) if k else []
    return _total(g, p, slots, distinct_edges, [(order, [None] * k)])


def _anchored_order(slots: list[_Slot], n: int, anchor: int) -> list[int]:
    """The edge variables in binding order from ``anchor`` outward.

    Each next variable is the first, in declaration order, that shares an
    endpoint with a variable already placed or with a constant (node slots
    from ``n`` on); when none does (a disconnected pattern), the first one
    not yet placed.
    """
    order = [anchor]
    rest = [*range(anchor), *range(anchor + 1, len(slots))]
    reached = set(slots[anchor][:2])
    while rest:
        for j in rest:
            sa, sb = slots[j][:2]
            if sa in reached or sb in reached or sa >= n or sb >= n:
                break
        else:
            j = rest[0]
        rest.remove(j)
        order.append(j)
        reached.update(slots[j][:2])
    return order


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
    the old history, computed by an anchored join: for each anchor edge
    variable in declaration order, the anchor binds each fitting new edge
    first and the join grows outward from it, variables declared before
    the anchor taking only old edges and those after it old or new ones.
    Each matching is thus found once, at its first variable bound to a new
    edge.  ``old_history`` is read in place when it is a set or a dict.
    """
    old = old_history if isinstance(old_history, (set, frozenset, dict)) else set(old_history)
    new = set(new_edges)
    if any(e in old for e in new):
        raise FormatError("new_edges must be disjoint from old_history")
    if not new or not p.edge_vars:
        return []
    slots = _slot_table(p)
    n, last = len(p.node_vars), len(slots) - 1
    union = new.union(old) if last else new
    searches = [
        (_anchored_order(slots, n, a), [old] * a + [new] + [union] * (last - a))
        for a in range(last + 1)
    ]
    return _total(g, p, slots, distinct_edges, searches, [e for e in new if e in g.edges])


# ---------------------------------------------------------------------------
# Partial matchings


def _reachable(slot: _Slot, nodes: Sequence[str | None], srcs: set[str], dsts: set[str]) -> bool:
    """Whether a new edge may bind ``slot`` under ``nodes``: one leaving its
    bound source, else one entering its bound target, else any."""
    va, vb = nodes[slot[0]], nodes[slot[1]]
    if va is not None:
        return va in srcs
    return vb is None or vb in dsts


def _order_gate(
    p: Bgp, slots: list[_Slot], slot_order: list[int], srcs: set[str], dsts: set[str]
) -> list[tuple[int, set[str]] | bool]:
    """Per prefix length ``k``, whether a row binding ``slot_order[:k]`` can be extended.

    An extension binds ``slot_order[k]`` first.  When the prefix or a
    constant binds that variable's source, a new edge can fit only if it
    leaves the bound node, so the entry is ``(node slot, srcs)``; else when
    its target is bound, ``(node slot, dsts)``; else ``True``, every row is
    tried.  A constant node's test has one answer for every row, so it is
    made here; a total row (``k == width``) has nothing left to bind.
    """
    n = len(p.node_vars)
    bound = set(range(n, n + len(p.constants)))
    gate: list[tuple[int, set[str]] | bool] = []
    for j in slot_order:
        sa, sb = slots[j][:2]
        reach: tuple[int, set[str]] | bool = (
            (sa, srcs) if sa in bound else (sb, dsts) if sb in bound else True
        )
        if reach is not True and reach[0] >= n:
            reach = p.constants[reach[0] - n] in reach[1]
        gate.append(reach)
        bound.update((sa, sb))
    return gate + [False]


def extend(
    g: TemporalGraph,
    p: Bgp,
    states_matchings: Iterable[Matching],
    new_edges: Iterable[str],
    *,
    order: Sequence[str] | None = None,
    distinct_edges: bool = False,
) -> list[tuple[Matching, Matching]]:
    """Pairs ``(source, new)``: the extensions of the tracked matchings for a new snapshot.

    Each tracked matching yields one pair per proper extension whose added
    bindings all use edges first seen in the current snapshot (older edges
    were already offered to the matching's ancestors, so re-binding them
    would replay history with the wrong letter prefix); the pairs come in
    the order of their sources.  An extension binding every edge variable
    yields one pair per fill of the isolated node variables.  With
    ``order``, only extensions whose bound variables form a prefix of the
    order are generated; ``order`` must be a permutation of the edge
    variables.

    A reach gate skips, before the row is copied and searched, each row
    that no new edge can extend.  The first variable an extension binds
    (the lowest-numbered one, or under an order the order's next one)
    sees only the row's own bindings, so a new edge must leave the row's
    node bound to its source, else enter the one bound to its target,
    unless both are unbound.  ``_order_gate`` tabulates this test by
    prefix length; without an order, the row is tried when some unbound
    variable passes it.  Variables with both endpoints unbound draw from
    the new edges alone, in graph order.
    """
    new = set(new_edges)
    scan = [e for e in g.edges if e in new]  # the new edges the graph knows
    srcs = {g.edges[e].src for e in scan}
    dsts = {g.edges[e].dst for e in scan}
    slots = _slot_table(p)
    n, width = len(p.node_vars), p.width
    if order is None:
        slot_order = gate = None
    else:
        slot_order = order_indices(p, order)
        gate = _order_gate(p, slots, slot_order, srcs, dsts)
    fill = _isolated_fill(g, p)
    pairs: list[tuple[Matching, Matching]] = []
    for mu in states_matchings:
        if gate is None:
            todo = [j for j, e in enumerate(mu.edges) if e is None]
            values = mu.nodes + p.constants
            if not any(_reachable(slots[j], values, srcs, dsts) for j in todo):
                continue
        else:
            k = width - mu.edges.count(None)  # the prefix length, if mu binds a prefix
            reach = gate[k]
            if reach is False or (reach is not True and mu.nodes[reach[0]] not in reach[1]):
                continue
            todo = slot_order[k:]
            if any(mu.edges[j] is not None for j in todo):
                continue  # mu itself is not a prefix; nothing to generate
        edges = list(mu.edges)
        nodes = [*mu.nodes, *p.constants]
        used = {e for e in edges if e is not None} if distinct_edges else None

        def grow(i: int, bound_any: bool) -> None:
            # under an order, leaving todo[i] unbound leaves every later
            # variable unbound too, so the extension ends here
            if bound_any and (i == len(todo) or slot_order is not None):
                m = Matching(tuple(edges), tuple(nodes[:n]))
                if fill is None:
                    pairs.append((mu, m))
                else:
                    pairs.extend((mu, f) for f in fill(m))
            if i == len(todo):
                return
            if slot_order is None:
                grow(i + 1, bound_any)
            j = todo[i]
            for _ in _bind(g, slots[j], nodes, edges, used, j, new, scan):
                grow(i + 1, True)

        grow(0, False)
    return pairs
