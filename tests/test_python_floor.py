"""The declared Python floor: every package module parses as that version's syntax.

``pyproject.toml`` declares ``requires-python``; the interpreter running the
tests may be newer, so the package's source is parsed with
``ast.parse(..., feature_version=floor)``, which refuses syntax the floor
lacks (``except*`` for 3.10, say).  The matcher writes Python at run time,
so every search it generates for the bundled patterns is parsed the same way.
"""

from __future__ import annotations

import ast
import re
from itertools import combinations, product
from pathlib import Path

import pytest

from tempo_bgp import parse_bgp
from tempo_bgp.bgp import _anchored_order, _plan_source, _slot_table
from tempo_bgp.fixtures import fixture_path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "tempo_bgp").rglob("*.py"))


def floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def test_the_floor_is_declared_and_enforced_by_the_parser():
    assert floor() == (3, 10)
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=floor())


@pytest.mark.parametrize("path", MODULES, ids=[p.relative_to(ROOT).as_posix() for p in MODULES])
def test_every_module_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor())


# the bundled patterns, and a labelled width-24 chain whose search spans two functions
PATTERNS = {path.stem: path.read_text() for path in sorted(fixture_path("bgp").glob("*.bgp"))}
PATTERNS["chain24"] = "".join(f"node x{i}\n" for i in range(25)) + "".join(
    f"edge y{i} : x{i - 1} -> x{i} : e\n" for i in range(1, 25)
)


def _searches(p, mode):
    """The ``(order, pooled, mode)`` of each search ``mode`` runs on ``p``:
    match_total's, each anchor's delta join, each prefix of the declaration
    order, each set of unbound variables (one wide one past width 4)."""
    slots, n, width = _slot_table(p), len(p.node_vars), p.width
    if mode == "total":
        return [(_anchored_order(slots, n, 0), False, "total")]
    if mode == "anchored delta":
        return [(_anchored_order(slots, n, a), True, "total") for a in range(width)]
    if mode == "ordered":
        return [(range(k, width), False, "ordered") for k in range(width)]
    every = [c for r in range(1, width + 1) for c in combinations(range(width), r)]
    wide = [tuple(j for j in range(width) if j % 3 != 1)]
    return [(todo, False, "unordered") for todo in (every if width <= 4 else wide)]


@pytest.mark.parametrize("mode", ["total", "anchored delta", "ordered", "unordered"])
def test_every_generated_plan_parses_at_the_floor(mode):
    chained = counted = memoized = 0
    for name, text in PATTERNS.items():
        p = parse_bgp(text)
        slots, n = _slot_table(p), len(p.node_vars)
        for order, pooled, kind in _searches(p, mode):
            # the engines' total and ordered searches also come in a pruning version
            for distinct, prune in product((False, True), {False, kind != "unordered"}):
                key = (tuple(order), pooled, distinct, kind, prune)
                src = _plan_source(slots, n, *key)
                ast.parse(src, filename=f"<plan {name}>", feature_version=floor())
                compile(src, f"<plan {name}>", "exec")
                chained += "def _plan1(" in src
                counted += "def _count1(" in src
                memoized += "memo1 = {}" in src
    assert chained > 0  # the width-24 chain's searches continue in a second function
    if mode != "unordered":
        assert counted > 0  # and so do its pruning searches' counts
        assert memoized > 0  # a cycle's dead prefixes share counts by their frontier
