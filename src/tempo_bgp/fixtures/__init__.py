"""Bundled fixture data: the running-example graph, patterns, automata.

``TA_WIDTHS`` holds each automaton fixture's width (its edge-variable count).
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from ..bgp import Bgp, parse_bgp
from ..temporal_graph import TemporalGraph, load_graph_dir
from ..timed_automaton import TimedAutomaton, parse_automaton

TA_WIDTHS = {
    "tae": 2,
    "ta0_m2": 2,
    "ta0_m3": 3,
    "ta0_m4": 4,
    "ta1": 2,
    "ta2": 2,
    "ta3": 2,
    "ta4": 3,
    "ta5": 2,
    "ta6": 2,
    "ta7": 2,
    "ta8": 2,
}


def fixture_path(*parts: str) -> Path:
    return Path(resources.files(__package__).joinpath(*parts))


def load_interactions() -> TemporalGraph:
    """The eight-node, twelve-edge example graph used throughout the tests."""
    return load_graph_dir(fixture_path("interactions"))


def load_bgp(name: str) -> Bgp:
    return parse_bgp(fixture_path("bgp", f"{name}.bgp").read_text(encoding="utf-8"))


def load_ta(name: str) -> TimedAutomaton:
    text = fixture_path("ta", f"{name}.ta").read_text(encoding="utf-8")
    return parse_automaton(text, TA_WIDTHS[name])
