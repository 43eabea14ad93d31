"""Spans around the calls the engines make into the other modules.

``Tracer.installed()`` patches wrappers onto the names ``tempo_bgp.engine``
calls (the matchers of ``bgp`` and the automaton's ``step``) and restores
the originals afterwards.  ``Tracer.call`` times one top-level call as a
root span; every wrapped call made during it becomes a child span.

Spans live in flat arrays in memory.  A call's spans are either kept, to
be written out once by ``write``, or summed per name and dropped.
"""

from __future__ import annotations

import gzip
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass

import tempo_bgp.engine as engine_module

WRAPPED = {
    "match_total": "bgp.match_total",
    "delta_match": "bgp.delta_match",
    "extend": "bgp.extend",
    "step": "timed_automaton.step",
}
MATCHERS = ("bgp.match_total", "bgp.delta_match", "bgp.extend")


@dataclass
class TracedCall:
    result: object
    seconds: float
    spans: dict[str, tuple[float, int]]  # child span name -> (seconds, calls)
    matched: int  # rows or pairs the matcher calls returned

    def span_seconds(self, name: str) -> float:
        return self.spans.get(name, (0.0, 0))[0]

    def span_calls(self, name: str) -> int:
        return self.spans.get(name, (0.0, 0))[1]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.roots: set[int] = set()
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.matched = [0]  # rows or pairs the matcher calls returned during the root call
        self.epoch = time.perf_counter()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, span_name: str, fn):
        nid = self._id(span_name)
        pc = time.perf_counter
        add_name, add_start, add_end = self.name.append, self.start.append, self.end.append

        if span_name in MATCHERS:
            matched = self.matched

            def wrapper(*args, **kwargs):
                t0 = pc()
                out = fn(*args, **kwargs)
                t1 = pc()
                add_name(nid)
                add_start(t0)
                add_end(t1)
                matched[0] += len(out)
                return out

        else:

            def wrapper(*args, **kwargs):
                t0 = pc()
                out = fn(*args, **kwargs)
                t1 = pc()
                add_name(nid)
                add_start(t0)
                add_end(t1)
                return out

        return wrapper

    @contextmanager
    def installed(self):
        originals = {attr: getattr(engine_module, attr) for attr in WRAPPED}
        try:
            for attr, span_name in WRAPPED.items():
                setattr(engine_module, attr, self._wrap(span_name, originals[attr]))
            yield self
        finally:
            for attr, fn in originals.items():
                setattr(engine_module, attr, fn)

    def call(self, name: str, fn, *, keep: bool) -> TracedCall:
        """Run ``fn()`` as a root span; with ``keep`` false its spans are dropped once summed."""
        nid = self._id(name)
        self.roots.add(nid)
        base = len(self.name)
        self.name.append(nid)
        self.start.append(0.0)
        self.end.append(0.0)
        self.matched[0] = 0
        t0 = time.perf_counter()
        try:
            out = fn()
        except BaseException:
            del self.name[base:], self.start[base:], self.end[base:]
            raise
        t1 = time.perf_counter()
        self.start[base] = t0
        self.end[base] = t1
        per_name: dict[str, list] = {}
        for i in range(base + 1, len(self.name)):
            acc = per_name.setdefault(self.names[self.name[i]], [0.0, 0])
            acc[0] += self.end[i] - self.start[i]
            acc[1] += 1
        if not keep:
            del self.name[base:], self.start[base:], self.end[base:]
        spans = {k: (v[0], v[1]) for k, v in per_name.items()}
        return TracedCall(out, t1 - t0, spans, self.matched[0])

    def write(self, path) -> int:
        """Write the kept spans as gzipped TSV (id, parent, name, start, end); return their count.

        Times are seconds since the tracer was made; a root span's parent
        is -1 and every other span's parent is the root it ran under.
        """
        parent = -1
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            for i, nid in enumerate(self.name):
                if nid in self.roots:
                    parent_of_this, parent = -1, i
                else:
                    parent_of_this = parent
                fh.write(
                    f"{i}\t{parent_of_this}\t{self.names[nid]}"
                    f"\t{self.start[i] - self.epoch:.9f}\t{self.end[i] - self.epoch:.9f}\n"
                )
        return len(self.name)
