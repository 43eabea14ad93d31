"""Basic graph patterns: parsing, total and partial matching.

A pattern consists of node constants, node variables and edge variables,
with an endpoint map for the edge variables and optional label constraints.
Matching is homomorphic: distinct variables may bind the same graph element
unless ``distinct_edges`` is requested.

Matching is implemented as an edge-growing join backed by the graph's
endpoint hash indices.  Every search, total, delta or partial, is
compiled once per process into a function of nested ``for`` loops, one
per edge variable in binding order (``_plan_source``; ``plan_source``
shows ``match_total``'s).  Each level's candidate index, and the label,
self-loop, pool and distinct-edge tests it needs, are fixed when the
code is written.  One rule, ``_lookup``, picks a level's index from the
endpoints bound before it: ``by_pair`` when both are bound, else
``by_src`` or ``by_dst`` by the bound one, whose ``(edge, far endpoint)``
pairs give the other end, else a scan.  In the total, delta and ordered
plans the lookup runs as soon as its key is bound (the lookahead of
Leapfrog Triejoin, Veldhuizen 2014): before the loops for constants and
the extended row's bindings, else at the level binding the key's last
endpoint.  In the total and delta joins an empty lookup backtracks, so
no prefix is grown that cannot close.  Every plan is fused with the first
automaton step: the innermost loop files each matching under its class
in a fate table the caller fills, and never builds one whose class dies
there.  Under an engine's fate the total and delta plans also prune:
after every level but the last, a verdict table the fate fills from the
initial state's transitions says whether some completion of the prefix
can survive its first move, and a dead prefix's completions are only
counted, never filed: once per value of the node slots the later levels'
lookups read, where those leave a bound slot out.  The verdict holds only
when ``first`` gives each edge's exact first snapshot index, as baseline
and on-demand pass it.  Under an engine's fate ``extend``'s ordered plans
prune likewise: every edge they bind is new, so a row's deeper classes
are known, and a tail whose every class dies on its first move is
counted into one of them.
Node slots are the node variables, then one slot per constant;
once every edge variable is bound, one matching is filed per fill, an
assignment of the isolated node variables handed to the plan at run
time.  Without an ``entry``, every class is one list, and the matchers
return matchings in search order, the same for every hash seed.
``match_total`` binds the edge variables in a connected order grown
from the first one, so no variable scans the whole graph while a bound
one could reach it through an endpoint index.  The delta join is
anchored: for each anchor slot in declaration order it binds that slot
to each fitting new edge first, then grows outward in a connected order,
slots before the anchor taking only old edges and slots after it old or
new ones, so each delta matching is built exactly once, at its first new
slot.  ``extend`` is the one producer of partial matchings.  Its reach
gate is the first lookup of the plan a row would run, tested on one
bound endpoint per variable against the endpoints of the new edges, so a
row that no new edge can extend is never searched (under an order the
test is a table lookup and at most one set test);
each row that passes runs the plan of its unbound variables, which reads
only an endpoint index of the new edges built once per call.  The
declaration order of the edge variables is also the canonical bit order
used by letter bitsets everywhere else in the package.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass
from itertools import product, repeat
from operator import itemgetter
from typing import Callable, Collection, Iterable, Literal, NamedTuple, Sequence

from .errors import DuplicateIdError, FormatError, ReferentialError
from .temporal_graph import TemporalGraph, endpoint_index

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


def _slot_table(p: Bgp) -> tuple[_Slot, ...]:
    """Per edge variable: its two endpoint node slots, its wanted label and theirs."""
    index = {x: i for i, x in enumerate(p.node_vars + p.constants)}
    table = []
    for y in p.edge_vars:
        a, b = p.rho[y]
        table.append((index[a], index[b], p.labels.get(y), p.labels.get(a), p.labels.get(b)))
    return tuple(table)


# a plan is a pure function of its key, so one cache serves every caller
_PLANS: dict[tuple, Callable[..., None]] = {}
_DEPTH = 12  # loops per generated function: Python refuses more than 20 nested blocks
_HEAD = "g, index, pools, scan, consts, mu, fills, entry"
_CONTEXT = {
    "g_edges": "g.edges", "g_nodes": "g.nodes",
    "by_src": "index[0]", "by_dst": "index[1]", "by_pair": "index[2]",
}


def _tuple(items: Iterable[str]) -> str:
    items = list(items)
    return f"({', '.join(items)}{',' * (len(items) == 1)})"


def _candidates(a: str | None, b: str | None, dyn: set[str]) -> str:
    """The candidate edges of an unordered level whose endpoints are held in
    locals ``a`` and ``b`` (``None``: unbound), each local of ``dyn`` maybe
    ``None``; an index of ``(edge, far endpoint)`` pairs is stripped to edges."""
    for x in (a, b):
        if x in dyn:
            bound = _candidates(a, b, dyn - {x})
            unbound = _candidates(*(None if y == x else y for y in (a, b)), dyn - {x})
            return f"({bound} if {x} is not None else {unbound})"
    if a is not None and b is not None:
        return f"by_pair.get(({a}, {b}), ())"
    if a is None and b is None:
        return "scan"
    index, end = ("by_src", a) if a is not None else ("by_dst", b)
    return f"map(_first, {index}.get({end}, ()))"


def _bits(js: Iterable[int], test: str) -> str:
    """A letter expression: bit ``j`` set when ``test`` holds of ``e{j}``, for ``j`` in ``js``."""
    return " | ".join(f"({test.format(j)})" + f" << {j}" * (j > 0) for j in js) or "0"


def _lookup(slot: _Slot, bound: Collection[int]) -> tuple[str, tuple[int, ...]] | None:
    """The endpoint index an edge variable of ``slot`` is read from once the
    node slots of ``bound`` are bound, and the slots of its key: ``by_pair``
    when both ends are bound, else ``by_src`` or ``by_dst`` by the bound end,
    else none (the level scans)."""
    sa, sb = slot[:2]
    if sa in bound:
        return ("by_pair", (sa, sb)) if sb in bound else ("by_src", (sa,))
    return ("by_dst", (sb,)) if sb in bound else None


def _plan_source(
    slots: tuple[_Slot, ...],
    n: int,
    order: tuple[int, ...],
    pooled: bool,
    distinct: bool,
    mode: str,
    prune: bool = False,
) -> str:
    """Python source of one search, ``_plan0(g, index, pools, scan, consts, mu, fills, entry)``.

    The search binds the edge variables of ``order`` with one nested ``for``
    per variable, level ``i`` taking edges of ``pools[i]`` when ``pooled``.
    ``index`` holds the endpoint indices ``(by_src, by_dst, by_pair)`` that
    the levels read.  Node slots from ``n`` on are ``consts``; under the
    extension modes the row ``mu`` binds every variable not in ``order``
    and their endpoints.  Under "total" and "ordered" each level reads the
    index ``_lookup`` chooses from the node slots bound before it, into a
    local ``c{j}`` looked up as soon as its key is bound: in the head for
    constants and the row's bindings, else at the level binding the key's
    last slot.  An index of ``(edge, far endpoint)`` pairs binds the far
    end without reading ``g.edges``.  An empty lookup backtracks under
    "total" and reads as ``()`` under "ordered".  A level with no bound end
    reads ``scan`` (only the first level under "total"; later ones read
    every graph edge), which must hold only edges of the level's pool.
    "Unordered" levels, whose ends are bound or not per binding, look up
    their ``_candidates`` inline.  Mode "total" emits each total
    ``Matching``; "ordered" emits after every level; "unordered" lets each
    level also leave its variable unbound, before binding it, and emits
    when some level bound.  A matching binding every edge variable is
    emitted once per fill, a tuple of ``fills`` holding the isolated node
    slots in order.  Past ``_DEPTH`` levels the search chains into a
    further function.

    Each leaf files the matching under its class in ``fate``: an int
    counts it, unbuilt, and a list gets it.  Under "total", ``entry`` is
    ``(first, d, snapshots, fate)``; each level folds ``first.get(e, d)``
    into the entry index ``i``, and the class is ``(i, letter)``, the
    letter read in ``snapshots[i][1]``.  Else ``entry`` is ``(configs, S,
    fate)`` and the class ``(configs, letter)``: new edges are all in the
    snapshot ``S``, so the letter is ``mu``'s bits in ``S`` OR those bound now.

    With ``prune`` (modes "total" and "ordered"), a dead prefix's
    completions are only counted.  Under "total" every level but the last
    asks ``fate.verdicts(mask)``, the table of the prefixes binding the
    variables of ``mask``, whether its prefix may live: the key is ``(i,
    bits)``, ``i`` the prefix's entry index and ``bits`` its edges' bits in
    ``snapshots[i][1]``.  Under "ordered" a level whose next level has
    candidates asks, once per call, whether every deeper class ``(configs,
    src | bits)`` is an int, one dying on its first move.  The count runs
    the remaining levels with the same sources and tests, no fold and no
    verdict, adding each leaf's fills (under "ordered" also 1 per shallower
    extension; a last level without tests adds the length of its
    candidates) to a local count.  Its value depends only on the node
    slots the later lookups' keys read, and on the bound edges under
    ``distinct``; when those leave out a slot bound in the function, it is
    kept per key in a ``memo{i}`` dict local to the call.  A "total" search
    returns the count, the chained functions theirs; an "ordered" one adds
    it to its deepest class, which then dies on its first move too.
    """
    names: dict[int, str] = {}  # node slot -> the local holding its value
    dyn: set[str] = set()  # the locals that may hold None (unordered)
    looked: dict[int, int] = {}  # level -> the level making its lookup, -1 for the head
    total = mode == "total"
    leave = "return 0" if prune else "return"
    bound = tuple(j for j in range(len(slots)) if j not in order)

    head: list[str] = []
    for s in sorted({s for slot in slots for s in slot[:2] if s >= n}):
        names[s] = f"v{s}"
        head.append(f"v{s} = consts[{s - n}]")
    for j in bound:
        head.append(f"e{j} = mu[0][{j}]")
        for s in slots[j][:2]:
            if s not in names:
                names[s] = f"v{s}"
                head.append(f"v{s} = mu[1][{s}]")
    at = dict.fromkeys(names, -1)  # node slot -> the level binding it, -1 for the head
    ahead: list[str] = []  # the lookups made in the head
    unpack = ["first, d, snapshots, fate = entry", "get = first.get"] if total else [
        "configs, S, fate = entry"
    ]
    unpack += ["pruned = 0"] * prune
    edges = [f"e{j}" if j in bound else "None" for j in range(len(slots))]
    isolated = sorted(set(range(n)).difference(s for slot in slots for s in slot[:2]))

    def leaf(whole: bool, letter: str) -> list[str]:
        fill = whole and bool(isolated)
        nodes = (f"w{s}" if fill and s in isolated else names.get(s, "None") for s in range(n))
        m = f"_new(Matching, ({_tuple(edges)}, {_tuple(nodes)}))"
        loop = [f"for {_tuple(f'w{s}' for s in isolated)} in fills:"] if fill else []
        fold = f"i{len(order) - 1}" if order else "d"
        lines = [f"S = snapshots[{fold}][1]"] if total else []
        return lines + [
            f"k = ({fold if total else 'configs'}, {letter})",
            "b = fate[k]",
            "if b.__class__ is int:",
            f"    fate[k] = b + {'len(fills)' if fill else 1}",
            "else:",
            *(f"    {line}" for line in loop),
            f"    {'    ' * fill}b.append({m})",
        ]

    # per level, relative to its loop: the loop and its checks, which a
    # count runs too, then what a search that files runs after them
    loops: list[list[str]] = []
    afters: list[list[str]] = []
    heads: list[list[str]] = []  # per level: its lines in its function's head
    lens: list[str | None] = []  # per level: its candidates' count, when it tests none
    sources: list[str] = []  # per level: its candidates
    reads: list[tuple[int, ...]] = []  # per level: the node slots of its lookup's key
    params: dict[int, list[str]] = {}  # per chained level: the locals its function takes
    for i, j in enumerate(order):
        if i and i % _DEPTH == 0:
            params[i] = [*dict.fromkeys(names.values()), *(e for e in edges if e != "None")]
        sa, sb, want, label_a, label_b = slots[j]
        ends = [(sa, "src", label_a)] + ([(sb, "dst", label_b)] if sb != sa else [])
        fresh = [end for end in ends if names.get(end[0]) is None or names[end[0]] in dyn]
        far = None  # the fresh endpoint an index of pairs binds
        look = None if mode == "unordered" else _lookup(slots[j], names)
        if look is not None:
            index, key = look
            where = looked[i] = max(at[s] for s in key)
            lines, pad = (ahead, "") if where < 0 else (loops[where], "    ")
            arg = names[key[0]] if len(key) == 1 else _tuple(names[s] for s in key)
            if total:
                lines += [f"{pad}c{j} = {index}.get({arg})", f"{pad}if c{j} is None:"]
                lines.append(f"{pad}    {leave if where < 0 else 'continue'}")
            else:
                lines.append(f"{pad}c{j} = {index}.get({arg}, ())")
            source = f"c{j}"
            far = fresh[0][0] if index != "by_pair" else None
        elif mode == "unordered":
            source = _candidates(names.get(sa), names.get(sb), dyn)
        else:
            source = "scan" if not total or i == 0 else "g_edges"
        tests = [f"e{j} not in pool{i}"] if pooled and source != "scan" else []
        heads.append([f"pool{i} = pools[{i}]"] if tests else [])
        if distinct:
            tests += [f"e{j} == {e}" for e in edges if e != "None"]
        if mode == "unordered":
            body = [f"for e{j} in (None, *{source}):", f"    if e{j} is None:"]
            body += [f"        v{s}_{i} = {names.get(s)}" for s, _, _ in fresh]
            body += ["        pass"] * (not fresh) + ["    else:"]
            inner = "        "
            names.update((s, f"v{s}_{i}") for s, _, _ in fresh)
            dyn.update(f"v{s}_{i}" for s, _, _ in fresh)
        else:
            body = [f"for e{j}{f', v{far}' * (far is not None)} in {source}:"]
            inner = "    "
            names.update((s, f"v{s}") for s, _, _ in fresh)
            at.update((s, i) for s, _, _ in fresh)
        mark = len(body)
        if tests:
            body += [f"{inner}if {' or '.join(tests)}:", f"{inner}    continue"]
        checks = [f"E.label != {want!r}"] if want is not None else []
        if sa == sb and fresh:
            checks.append("E.src != E.dst")
        if checks or (fresh and far is None):
            body.append(f"{inner}E = g_edges[e{j}]")
        body += [f"{inner}{names[s]} = E.{end}" for s, end, _ in fresh if s != far]
        checks += [f"g_nodes[{names[s]}] != {x!r}" for s, _, x in fresh if x is not None]
        if checks:
            body += [f"{inner}if {' or '.join(checks)}:", f"{inner}    continue"]
        body += [f"{inner}pass"] * (len(body) == mark and mode == "unordered")
        lens.append(None if tests or checks else f"len({source})")
        sources.append(source)
        reads.append(look[1] if look is not None else ())
        loops.append(body)
        after = []
        if total:  # the entry index so far: the earliest first snapshot
            after.append(f"i{i} = get(e{j}, d)")
            if i:
                after += [f"if i{i - 1} < i{i}:", f"    i{i} = i{i - 1}"]
        edges[j] = f"e{j}"
        if mode == "ordered":
            bits = sum(1 << k for k in order[: i + 1])
            after += leaf(i == len(order) - 1, f"src | {bits}")
        afters.append(after)
    for i, args in params.items():  # a chained function takes the lookups made before it
        args += [f"c{order[k]}" for k, where in looked.items() if where < i <= k]
    head += ahead + unpack + [f"src = {_bits(bound, 'e{} in S')}"] * (not total)
    if total:
        final = leaf(True, _bits(range(len(slots)), "e{} in S"))
    elif mode == "unordered":
        # a total matching takes the fills, any other one at least one binding
        final = []
        branches = [(" and ", True)] * bool(isolated) + [(" or ", False)]
        for kw, (op, whole) in zip(("if", "elif"), branches):
            test = op.join(f"e{j} is not None" for j in order) or "False"
            bits = sum(1 << k for k in order) if whole else _bits(order, "e{} is not None")
            final += [f"{kw} {test}:", *(f"    {x}" for x in leaf(whole, f"src | {bits}"))]
    else:
        final = []
    last = len(order) - 1
    per = "len(fills)" if isolated else "1"  # a total matching's count
    masks = [sum(1 << k for k in order[: i + 1]) for i in range(len(order))]
    memos: list[int] = []  # the levels whose dead prefixes' counts are memoized

    def nest(i: int, start: int, count: bool) -> list[str]:
        """The lines of levels ``i`` on, up to the end of the function whose
        first level is ``start``; a ``count`` only counts what they would file."""
        if i > last:
            return ([f"pruned += {per}"] if total else []) if count else final
        if i != start and i % _DEPTH == 0:
            args = params[i] + ([] if count else [f"i{i - 1}" if total else "src"])
            call = f"_{'count' if count else 'plan'}{i // _DEPTH}({_HEAD}, {', '.join(args)})"
            return [f"pruned += {call}" if prune else call]
        if count and i == last and lens[i] is not None:
            return [f"pruned += {lens[i]}" + " * len(fills)" * bool(isolated)]
        if count:  # "ordered" files every level's extension, "total" only the leaf
            inner = [] if total else [f"pruned += {per if i == last else 1}"]
        else:
            inner = afters[i] + (dead(i, start) if prune and i < last else [])
        return loops[i] + [f"    {line}" for line in inner + nest(i + 1, start, count)]

    def dead(i: int, start: int) -> list[str]:
        """The lines after level ``i`` that count, never walk, the completions
        of a prefix whose verdict is dead, memoized when they can be."""
        block = nest(i + 1, start, True)
        # the completions read the node slots of the later lookups' keys, and
        # under distinct edges the bound edges; a slot bound before the
        # function's first level is the same for every prefix of the call
        mine = {s for s, level in at.items() if start <= level <= i}
        key = sorted({s for k in range(i + 1, len(order)) for s in reads[k] if s in mine})
        if not distinct and len(key) < len(mine) and not block[0].startswith("pruned += len("):
            memos.append(i)
            arg = f"v{key[0]}" if len(key) == 1 else _tuple(f"v{s}" for s in key)
            block = [
                f"m = memo{i}.get({arg})", "if m is None:", "    m = pruned",
                *(f"    {line}" for line in block),
                f"    memo{i}[{arg}] = pruned - m", "else:", "    pruned += m",
            ]
        if total:
            bits = _bits(order[: i + 1], "e{} in S")
            test = [f"S = snapshots[i{i}][1]", f"if not live{i}[i{i}, {bits}]:"]
            return test + [f"    {line}" for line in block + ["continue"]]
        # every later extension binds only new edges, so its class is known
        tail = " and ".join(f"fate[configs, src | {b}].__class__ is int" for b in masks[i + 1:])
        test = [f"if {sources[i + 1]}:", f"    if dead{i} is None:", f"        dead{i} = {tail}"]
        return test + [f"    if dead{i}:"] + [f"        {line}" for line in block + ["continue"]]

    src = []
    for start in range(0, max(len(order), 1), _DEPTH):
        levels = range(start, min(start + _DEPTH, len(order)))
        pool = [line for i in levels for line in heads[i]]
        body = nest(start, start, False)
        verdicts = [
            f"live{i} = fate.verdicts({masks[i]})" if total else f"dead{i} = None"
            for i in levels if prune and i < last
        ] + [f"memo{i} = {{}}" for i in memos if i in levels]
        if prune and not total and not start:  # the dead tails' count joins a class that dies
            body += ["if pruned:", f"    k = (configs, src | {masks[last]})", "    fate[k] += pruned"]
        args = params.get(start, [])
        c = start // _DEPTH
        funcs = [(f"_plan{c}", args + [f"i{start - 1}" if total else "src"] * bool(start),
                  (unpack if start else head) + pool + verdicts, body)]
        if prune and start:
            funcs.append((f"_count{c}", args, ["pruned = 0", *pool], nest(start, start, True)))
        for name, fparams, fhead, fbody in funcs:
            text = "\n".join(fhead + fbody)
            context = [f"    {x} = {value}" for x, value in _CONTEXT.items() if x in text]
            src += [f"def {name}({', '.join([_HEAD, *fparams])}):", *context]
            src += [f"    {line}" for line in fhead + fbody + ["return pruned"] * prune]
    return "\n".join(src) + "\n"


def _plan(*key) -> Callable[..., None]:
    """The search of ``_plan_source(*key)``, compiled once per process."""
    plan = _PLANS.get(key)
    if plan is None:
        namespace = {"Matching": Matching, "_new": tuple.__new__, "_first": itemgetter(0)}
        exec(compile(_plan_source(*key), "<plan>", "exec"), namespace)
        plan = _PLANS[key] = namespace["_plan0"]
    return plan


def plan_source(p: Bgp, order: Sequence[str] | None = None, distinct_edges: bool = False) -> str:
    """The generated source of ``match_total``'s search, binding in ``order`` when given."""
    slots = _slot_table(p)
    n = len(p.node_vars)
    indices = _anchored_order(slots, n, 0) if order is None else order_indices(p, order)
    return _plan_source(slots, n, tuple(indices), False, distinct_edges, "total")


def _fills(g: TemporalGraph, p: Bgp) -> list[tuple[str, ...]]:
    """Every assignment of the isolated node variables (``Bgp.isolated``),
    which no edge variable reads, to label-compatible nodes, in graph order."""
    return list(product(*(
        [v for v, label in g.nodes.items() if p.labels.get(p.node_vars[i]) in (None, label)]
        for i in p.isolated
    )))


def _graph_order(g: TemporalGraph, new: set[str]) -> list[str]:
    """The edges of ``new`` in graph order (``ReferentialError`` for one the graph lacks)."""
    try:
        return sorted(new, key=g.position.__getitem__)
    except KeyError:
        raise ReferentialError(f"unknown edge {min(new.difference(g.edges))!r}") from None


def _total(
    g: TemporalGraph,
    p: Bgp,
    slots: tuple[_Slot, ...],
    distinct_edges: bool,
    searches: Iterable[tuple[list[int], list[_Pool] | None]],
    scan: Iterable[str] | None,
    entry: tuple | None,
):
    """Total matchings found by ``searches`` in search order, isolated node variables filled.

    Each search runs one compiled plan (``_plan_source``), binding the edge
    variables in its order, variable ``j`` taking edges of ``pools[j]``
    (any edge when ``pools`` is None), and the first one drawing candidates
    from ``scan`` (every graph edge when ``None``) when neither of its
    endpoints is a constant.  No two searches may find the same matching.
    Returns ``entry``'s fate table, or without one the one list every class
    collects into.  A fate whose ``pruned`` is an int, not None, runs the
    pruning plans (``_plan_source``) and gets their counts added to it.
    """
    out: list[Matching] = []
    public = entry is None
    if public:  # every row enters at one empty snapshot, so every class is (0, 0)
        entry = ({}, 0, ((None, frozenset()),), defaultdict(lambda: out))
    fate = entry[-1]
    prune = getattr(fate, "pruned", None) is not None
    if all(c in g.nodes for c in p.constants):
        n, fills = len(p.node_vars), _fills(g, p)
        index = (g.by_src, g.by_dst, g.by_pair)
        for order, pools in searches:
            pooled = pools is not None
            plan = _plan(slots, n, tuple(order), pooled, distinct_edges, "total", prune)
            pruned = plan(g, index, [pools[j] for j in order] if pooled else None,
                          g.edges if scan is None else scan, p.constants, None, fills, entry)
            if prune:
                fate.pruned += pruned
    return out if public else fate


def match_total(g: TemporalGraph, p: Bgp, *, distinct_edges: bool = False, entry=None):
    """All total matchings of ``p`` in ``g``, ignoring time.

    Output comes in search order, the same for every hash seed: the first
    variable of the binding order scans the graph's edges in graph order.
    With ``entry = (first, d, snapshots, fate)``, matchings are filed by
    entry class in ``fate`` (``_plan_source``), which is returned.
    """
    slots = _slot_table(p)
    order = _anchored_order(slots, len(p.node_vars), 0)
    return _total(g, p, slots, distinct_edges, [(order, None)], None, entry)


def _anchored_order(slots: tuple[_Slot, ...], n: int, anchor: int) -> list[int]:
    """The edge variables in binding order from ``anchor`` outward (none without slots).

    Each next variable is the first, in declaration order, that shares an
    endpoint with a variable already placed or with a constant (node slots
    from ``n`` on); when none does (a disconnected pattern), the first one
    not yet placed.
    """
    if not slots:
        return []
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
    entry=None,
):
    """Total matchings over ``old ∪ new`` that use at least one new edge.

    Equivalent to ``match_total`` over the union minus ``match_total`` over
    the old history, computed by an anchored join: for each anchor edge
    variable in declaration order, the anchor binds each fitting new edge
    first and the join grows outward from it, variables declared before
    the anchor taking only old edges and those after it old or new ones.
    Each matching is thus found once, at its first variable bound to a new
    edge; output comes in search order, anchor by anchor, each reading the
    new edges in graph order.  ``old_history`` is read in place when it is
    a set or a dict; an unknown edge, old or new, raises ``ReferentialError``.
    ``entry`` fuses the search as for ``match_total``.
    """
    old = old_history if isinstance(old_history, (set, frozenset, dict)) else set(old_history)
    unknown = set(old).difference(g.edges)
    if unknown:
        raise ReferentialError(f"unknown edge {min(unknown)!r} in old_history")
    return _delta_match(g, p, old, new_edges, distinct_edges=distinct_edges, entry=entry)


def _delta_match(
    g: TemporalGraph,
    p: Bgp,
    old: Collection[str],
    new_edges: Iterable[str],
    *,
    distinct_edges: bool = False,
    entry=None,
):
    """``delta_match`` on an ``old`` history, a set or a dict read in place,
    that holds only edges of ``g``: the engine's, whose edges were checked
    as they arrived, is not read again on every call."""
    new = set(new_edges)
    scan = _graph_order(g, new)
    if any(e in old for e in new):
        raise FormatError("new_edges must be disjoint from old_history")
    slots = _slot_table(p)
    n, last = len(p.node_vars), len(slots) - 1
    union = new.union(old) if new and last > 0 else new
    searches = [
        (_anchored_order(slots, n, a), [old] * a + [new] + [union] * (last - a))
        for a in range(last + 1 if new else 0)
    ]
    return _total(g, p, slots, distinct_edges, searches, scan, entry)


# ---------------------------------------------------------------------------
# Partial matchings


def _gate(
    slot: _Slot, bound: Collection[int], n: int, consts: Sequence[str],
    srcs: Collection[str], dsts: Collection[str],
) -> bool | tuple[int, Collection[str]]:
    """Whether a new edge may bind a variable of ``slot`` first, once the node
    slots of ``bound`` are bound: ``True`` when its plan level's first lookup
    (``_lookup``) has no key, else the test of the key's first node slot
    ``s``, ``(s, dsts)`` for ``by_dst`` and ``(s, srcs)`` otherwise, decided
    here for a constant."""
    look = _lookup(slot, bound)
    if look is None:
        return True
    s, side = look[1][0], dsts if look[0] == "by_dst" else srcs
    return (s, side) if s < n else consts[s - n] in side


def extend(
    g: TemporalGraph,
    p: Bgp,
    states_matchings: Iterable[Matching],
    new_edges: Iterable[str],
    *,
    order: Sequence[str] | None = None,
    distinct_edges: bool = False,
    entry=None,
):
    """Pairs ``(source, new)``: the extensions of the tracked matchings for a new snapshot.

    Each tracked matching yields one pair per proper extension whose added
    bindings all use edges first seen in the current snapshot (older edges
    were already offered to the matching's ancestors, so re-binding them
    would replay history with the wrong letter prefix); the pairs come in
    the order of their sources, each source's in search order.  An
    extension binding every edge variable yields one pair per fill of the
    isolated node variables; an unknown new edge raises ``ReferentialError``.
    With ``order``, only extensions whose bound variables form a prefix of
    the order are generated; ``order`` must be a permutation of the edge
    variables.

    A reach gate skips, before the row is searched, each row that no new
    edge can extend.  The first variable an extension binds (any unbound
    one, or under an order the order's next one) sees only the row's own
    bindings, so the first lookup of its plan level (``_gate``) must find a
    new edge.  Under an order the gate is one entry per prefix length, a
    row's node tested against ``srcs`` or ``dsts`` at most once; without
    one, each set of unbound variables gets its tests once per call.  A
    row that passes runs the compiled plan of its unbound variables (one
    per prefix length under an order, per set of unbound variables without
    one): under an order it emits after each level; without one, each
    unbound variable is first left unbound, then bound to each fitting
    edge, in declaration order.  The plans read only the endpoint indices
    of the new edges (``endpoint_index``), built once per call in graph
    order, whose keys are also the gate's ``srcs`` and ``dsts``; variables
    with both endpoints unbound draw from the new edges in graph order.
    With ``entry = (snap, fate)``, ``states_matchings`` maps configuration
    sets to their rows, and extensions are filed by class in ``fate``
    (``_plan_source``), which is returned instead of the pairs.  A fate
    whose ``pruned`` is an int, not None, runs the ordered pruning plans:
    a tail whose every class is an int, dying on its first move, is
    counted into one of them, never filed.
    """
    scan = _graph_order(g, set(new_edges))
    index = endpoint_index((e, g.edges[e]) for e in scan)
    srcs, dsts = index[0].keys(), index[1].keys()
    slots = _slot_table(p)
    n, width = len(p.node_vars), p.width
    consts, fills = p.constants, _fills(g, p)
    mode = "unordered" if order is None else "ordered"
    if order is None:
        slot_order = gate = None
    else:
        slot_order = order_indices(p, order)
        gate, bound = [], set(range(n, n + len(consts)))
        for j in slot_order:  # per prefix length: True, False or one (node slot, side) test
            gate.append(_gate(slots[j], bound, n, consts, srcs, dsts))
            bound.update(slots[j][:2])
        gate.append(False)  # a total row has nothing left to bind
    reaches: dict[tuple[int, ...], Literal[True] | list[tuple[int, Collection[str]]]] = {}
    plans: dict[object, Callable[..., None]] = {}
    pairs: list[tuple[Matching, Matching]] = []
    out: list[Matching] = []
    public = entry is None
    if public:  # one class per row's extensions: no snapshot, no configurations
        entry = (frozenset(), defaultdict(lambda: out))
        states_matchings = {None: states_matchings}
    # under an order, an engine's fate lets the plans count the tails that die
    prune = gate is not None and getattr(entry[-1], "pruned", None) is not None
    for configs, rows in states_matchings.items():
        held = (configs, *entry)
        for mu in rows:
            if gate is None:
                todo = key = tuple(j for j, e in enumerate(mu.edges) if e is None)
                tests = reaches.get(key)
                if tests is None:  # True when some variable passes every row, else the tests
                    bound = {s for j in range(width) if j not in todo for s in slots[j][:2]}
                    bound.update(range(n, n + len(consts)))
                    tests = [_gate(slots[j], bound, n, consts, srcs, dsts) for j in todo]
                    tests = reaches[key] = True in tests or [t for t in tests if t]
                if tests is not True:
                    for s, side in tests:
                        if mu.nodes[s] in side:
                            break
                    else:
                        continue
            else:
                key = width - mu.edges.count(None)  # the prefix length, if mu binds a prefix
                reach = gate[key]
                if reach is False or (reach is not True and mu.nodes[reach[0]] not in reach[1]):
                    continue
                todo = slot_order[key:]
                if any(mu.edges[j] is not None for j in todo):
                    continue  # mu itself is not a prefix; nothing to generate
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = _plan(slots, n, tuple(todo), False, distinct_edges, mode, prune)
            plan(g, index, None, scan, consts, mu, fills, held)
            if public:
                pairs += zip(repeat(mu), out)
                out.clear()
    return pairs if public else entry[-1]
