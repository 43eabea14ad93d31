"""Temporal graph pattern matching with timed-automaton constraints."""

from .bgp import (
    Bgp,
    Matching,
    delta_match,
    empty_matching,
    extend,
    match_total,
    parse_bgp,
)
from .engine import (
    ALGORITHMS,
    Counters,
    EngineResult,
    Trace,
    run,
    run_baseline,
    run_on_demand,
    run_partial_match,
)
from .errors import (
    DuplicateIdError,
    FormatError,
    OracleGuardError,
    OrderIncompatible,
    OrderNotConnected,
    ReferentialError,
    TempoBgpError,
)
from .oracle import (
    oracle_accepted_matchings,
    oracle_accepts,
    oracle_match,
    oracle_maximal_partials,
    oracle_run,
    oracle_word,
)
from .temporal_graph import (
    TemporalGraph,
    build_graph,
    history_upto,
    load_graph,
    load_graph_dir,
)
from .timed_automaton import (
    Compatibility,
    TimedAutomaton,
    accepts,
    classify_states,
    eval_clock_guard,
    is_compatible_order,
    is_connected_order,
    parse_automaton,
    step,
)

__version__ = "0.1.0"
