"""History-constrained systems: nested automata whose transitions are guarded
by languages over the global action history.

The package provides the finite-automaton substrate (determinization,
minimization, equivalence), HCS run semantics with regular, VASS, and nested
guards, the intersection and flattening constructions, reachability/safety
games on guarded systems with the countdown-game reduction, exact VASS
coverability engines, the two-counter-machine translation, and the
delimited Kleene star construction, plus JSON model formats and a CLI.
"""

from .automata import (
    Alphabet,
    FiniteAutomaton,
    accepts,
    complete,
    determinize,
    equivalence_counterexample,
    equivalent,
    is_empty,
    minimize,
)
from .bench import SuccinctnessReport, cycle_dfa, prime_family, verify_succinctness
from .core import (
    GuardProduct,
    Hcs,
    HcsSemantics,
    build_intersection_dfa,
    build_intersection_nfa,
    determinize_hcs,
    flatten_nested,
    hcs_size,
    member,
    total_state_count,
)
from .core import is_empty as hcs_is_empty
from .errors import ContractError, HcsError, InputError, ResourceLimitError, UnsupportedGuardError
from .games import (
    Arena,
    CountdownGame,
    GameSolution,
    HcsGame,
    Objective,
    arena_size_bounds,
    build_arena,
    countdown_guard_dfas,
    countdown_to_hcs_game,
    game_non_blocking,
    normalize_countdown,
    solve_countdown,
    solve_hcs_game,
    solve_reachability,
    solve_safety,
)
from .vass import (
    CoverabilityInstance,
    CoverabilityResult,
    Vass,
    bounded_accepted_word,
    decide_coverability,
    replay_transitions,
    vass_accepts,
)
from .vassguards import (
    BoundedEmptiness,
    TwoCounterMachine,
    bounded_reach_empty,
    complete_vass,
    delimited_star_hcs,
    hcs_cover_empty,
    product_vass,
    two_cm_to_hcs,
    two_counter_run_words,
)

__all__ = [name for name in dir() if not name.startswith("_")]
