"""The declared Python floor: every package module parses as that version's syntax.

``pyproject.toml`` declares ``requires-python``; the interpreter running the
tests may be newer, so the package's source is parsed with
``ast.parse(..., feature_version=floor)``, which refuses syntax the floor
lacks (``except*`` for 3.10, say).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

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
