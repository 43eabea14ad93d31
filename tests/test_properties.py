"""Property-based checks tying the engines to the brute-force oracle."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from tempo_bgp import (
    accepts,
    empty_matching,
    extend,
    history_upto,
    oracle_accepts,
    oracle_run,
    oracle_word,
    step,
)
from tempo_bgp.fixtures import TA_WIDTHS, load_ta
from tempo_bgp.rng import SplitMix64
from tempo_bgp.workbench import random_graph, ring_automaton, shape_bgp

AUTOMATA = {name: load_ta(name) for name in TA_WIDTHS}
AUTOMATA["ring3c2"] = ring_automaton(3, n_clocks=2)


def letters(name):
    return st.integers(min_value=0, max_value=(1 << AUTOMATA[name].width) - 1)


def dyadic_words(name):
    # times on a 1/8 grid keep every clock computation exact in floating
    # point, so the two clock representations must agree bit for bit
    return st.lists(
        st.tuples(st.integers(min_value=1, max_value=64), letters(name)), max_size=9
    ).map(
        lambda steps: [
            (sum(d for d, _ in steps[: i + 1]) * 0.125, letter)
            for i, (_, letter) in enumerate(steps)
        ]
    )


def with_automaton(strategy):
    """An automaton name with a value drawn for it by ``strategy(name)``."""
    return st.sampled_from(sorted(AUTOMATA)).flatmap(
        lambda name: st.tuples(st.just(name), strategy(name))
    )


common = settings(max_examples=120, deadline=None, derandomize=True)


@given(case=with_automaton(dyadic_words))
@common
def test_accepts_agrees_with_oracle(case):
    name, word = case
    ta = AUTOMATA[name]
    assert accepts(ta, word) == oracle_accepts(ta, word)


@given(case=with_automaton(dyadic_words))
@common
def test_lazy_clocks_equal_explicit_increments(case):
    name, word = case
    ta = AUTOMATA[name]
    reference = oracle_run(ta, word)
    configs = {ta.initial_config()}
    now = 0.0
    for k, (t, letter) in enumerate(word, start=1):
        configs = step(ta, configs, letter, t)
        now = t
        as_values = {
            (s, tuple(now - r for r in lr)) for s, lr in configs
        }
        assert as_values == reference[k]


@given(
    case=with_automaton(letters),
    stamps=st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6),
)
@common
def test_step_monotone_in_configs(case, stamps):
    name, letter = case
    ta = AUTOMATA[name]
    configs = [
        (s % ta.n_states, (float(v),) * ta.n_clocks) for s, v in enumerate(stamps)
    ]
    small = set(configs[: len(configs) // 2])
    large = set(configs)
    assert step(ta, small, letter, 9.0) <= step(ta, large, letter, 9.0)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_prefix_agreement_of_extensions(seed):
    rng = SplitMix64(seed)
    g = random_graph(rng, max_nodes=7, max_edges=9, max_timepoints=5)
    p = shape_bgp(rng.choice(("path2", "cycle2", "star2")))
    table = [empty_matching(p)]
    hist: set[str] = set()
    for i in range(1, len(g.domain) + 1):
        new = set(history_upto(g, i)) - hist
        hist |= new
        pairs = extend(g, p, table, new)
        for old, new_m in pairs:
            assert oracle_word(g, p, old)[: i - 1] == oracle_word(g, p, new_m)[: i - 1]
        table = sorted({*table, *(b for _, b in pairs)}, key=lambda m: str(m.edges))


@given(
    laps=st.sampled_from((2, 4, 16)),
    word=st.lists(
        st.tuples(st.integers(min_value=1, max_value=9), st.integers(min_value=0, max_value=3)),
        max_size=9,
    ),
)
@common
def test_ring_unrolling_language_invariant(laps, word):
    timed = [
        (float(sum(d for d, _ in word[: i + 1])), letter)
        for i, (_, letter) in enumerate(word)
    ]
    assert accepts(ring_automaton(2), timed) == accepts(ring_automaton(2, laps=laps), timed)
