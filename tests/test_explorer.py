"""The product explorer against the plain all-symbols construction.

Arenas and solutions must be equal value for value (vertex order, edge
order, regions and strategies; guard runtimes up to ``renumber_runtimes``),
and every exploration built on the explorer must stop exactly at its cap.
"""

import json
import os
import random

import pytest

from hcs import formats
from hcs.automata import FiniteAutomaton
from hcs.core import Hcs, guard_kind, is_empty
from hcs.errors import ContractError, ResourceLimitError
from hcs.games import (
    Arena,
    CountdownGame,
    HcsGame,
    Objective,
    build_arena,
    countdown_to_hcs_game,
    game_non_blocking,
    solve_hcs_game,
    solve_reachability,
    solve_safety,
)
from hcs.models import (
    AB,
    branching_empty_hcs,
    guard_alternating,
    guard_contains_aa,
    guard_length_multiple_of_three,
)
from hcs.vass import COVER, Vass
from hcs.vassguards import hcs_cover_empty

from oracles import out_edges, reference_arena, reference_product, reference_solution, renumber_runtimes

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def random_countdown(rng, target):
    n = rng.randint(1, 4)
    edges = set()
    for s in range(n):
        for _ in range(rng.randint(0, 2)):
            edges.add((s, rng.choice((1, 2, 4, 8)), rng.randrange(n)))
    return CountdownGame(tuple(f"s{i}" for i in range(n)), 0, target, tuple(sorted(edges)))


def assert_matches_reference(game):
    completed = game_non_blocking(game)
    arena = build_arena(completed)
    assert renumber_runtimes(arena) == reference_arena(completed)
    assert solve_hcs_game(game) == reference_solution(arena)
    # Without the completion, dead ends reach the solver too.
    blocking = build_arena(game)
    solve = solve_reachability if game.objective.kind == "reach" else solve_safety
    assert solve(renumber_runtimes(blocking)) == reference_solution(reference_arena(game))


def test_countdown_games_match_reference():
    rng = random.Random(20261019)
    for _ in range(200):
        assert_matches_reference(countdown_to_hcs_game(random_countdown(rng, rng.choice((1, 2, 4, 8, 16)))))


def random_guarded_game(rng):
    """Up to 5 states over {a, b} with epsilon moves, self-loops, three
    regular guards, random owners and a random reach/safe target set."""
    guards = {"alt": guard_alternating(), "mod3": guard_length_multiple_of_three(), "aa": guard_contains_aa()}
    n = rng.randint(2, 5)
    drawn = [(rng.randrange(n), rng.choice((0, 1, None)), rng.randrange(n)) for _ in range(rng.randint(1, 3 * n))]
    transitions = list(dict.fromkeys(drawn))
    guarded = {t: rng.choice(sorted(guards)) for t in range(len(transitions)) if rng.random() < 0.4}
    underlying = FiniteAutomaton(AB, tuple(f"q{i}" for i in range(n)), 0, frozenset(), tuple(transitions))
    hcs = Hcs(AB, underlying, guards, guarded)
    owner = tuple(rng.randint(0, 1) for _ in range(n))
    targets = frozenset(q for q in range(n) if rng.random() < 0.3)
    return HcsGame(hcs, owner, Objective(rng.choice(("reach", "safe")), targets))


def test_random_guarded_games_match_reference():
    rng = random.Random(1019)
    for _ in range(200):
        assert_matches_reference(random_guarded_game(rng))


def shipped_games():
    """Every shipped game document, plus every shipped HCS with regular
    guards played with alternating owners towards its accepting states."""
    for name in sorted(os.listdir(MODELS)):
        with open(os.path.join(MODELS, name)) as handle:
            model = formats.from_document(json.load(handle))
        if isinstance(model, HcsGame):
            yield name, model.hcs, model.owner, model.objective.states
        elif isinstance(model, Hcs) and all(guard_kind(g) == "regular" for g in model.guards.values()):
            owner = tuple(q % 2 for q in range(len(model.underlying.states)))
            yield name, model, owner, model.underlying.accepting


@pytest.mark.parametrize("kind", ["reach", "safe"])
def test_shipped_games_match_reference(kind):
    names = []
    for name, hcs, owner, states in shipped_games():
        assert_matches_reference(HcsGame(hcs, owner, Objective(kind, frozenset(states))))
        names.append(name)
    assert "game_reachability.json" in names


def test_solver_rejects_ungrouped_edges():
    arena = Arena((), ((0, ()), (1, ())), ((1, None, 0), (0, None, 1)), (0, 0), 0, frozenset({1}), "reach")
    assert out_edges(arena) == [[1], [0]]
    with pytest.raises(ContractError, match="grouped by source"):
        solve_reachability(arena)


def test_arena_cap_is_exact():
    game = game_non_blocking(countdown_to_hcs_game(CountdownGame(("A", "B"), 0, 8, ((0, 2, 1), (1, 4, 0)))))
    n = len(reference_arena(game).vertices)
    assert len(build_arena(game, max_vertices=n).vertices) == n
    with pytest.raises(ResourceLimitError, match=f"arena construction exceeded {n - 1} vertices"):
        build_arena(game, max_vertices=n - 1)


def test_emptiness_cap_is_exact():
    hcs = branching_empty_hcs()
    n = len(reference_product(hcs)[1])
    assert n > 1
    assert is_empty(hcs, max_configs=n)
    with pytest.raises(ResourceLimitError, match=f"emptiness exploration exceeded {n - 1} configurations"):
        is_empty(hcs, max_configs=n - 1)


def test_cover_set_engine_cap_is_exact():
    # A non-deterministic guard (it has an epsilon move) whose configuration
    # sets cycle through two values, and which never accepts: the language
    # is empty and the set-based exploration is finite.
    guard = Vass(
        AB, 1, ("z", "y", "w"), 0, frozenset(),
        ((0, 0, (1,), 1), (1, 0, (-1,), 0), (0, 1, (0,), 0), (1, 1, (0,), 1), (0, None, (0,), 2)),
        COVER,
    )
    assert not guard.deterministic
    underlying = FiniteAutomaton(
        AB, ("s0", "s1", "s2"), 0, frozenset({2}), ((0, 0, 1), (1, 1, 0), (1, 0, 2))
    )
    hcs = Hcs(AB, underlying, {"g": guard}, {2: "g"})
    n = len(reference_product(hcs)[1])
    assert n > 1
    assert hcs_cover_empty(hcs, node_cap=n)
    with pytest.raises(ResourceLimitError, match=f"set-based exploration exceeded {n - 1} configurations"):
        hcs_cover_empty(hcs, node_cap=n - 1)


def test_cover_onthefly_cap_is_exact_with_dying_guards():
    # Deterministic guards that die. g dies on the first b: in z a b pays
    # from both counters, and the second only grows in y, so the move into
    # s3 that g guards never fires. h dies once the history has more b's
    # than a's. The a-loop on s1 is accelerated to omega. The Karp-Miller
    # tree has 13 nodes, 8 of them with a DEAD guard.
    g = Vass(
        AB, 2, ("z", "y"), 0, frozenset({1}),
        ((0, 0, (1, 0), 0), (0, 1, (-1, -1), 1), (1, 0, (0, 1), 1), (1, 1, (0, 0), 0)),
        COVER,
    )
    h = Vass(AB, 1, ("x",), 0, frozenset({0}), ((0, 0, (1,), 0), (0, 1, (-1,), 0)), COVER)
    underlying = FiniteAutomaton(
        AB, ("s0", "s1", "s2", "s3"), 0, frozenset({3}),
        ((0, 0, 1), (1, 1, 0), (1, None, 2), (2, 1, 2), (2, 0, 3), (1, 0, 1)),
    )
    hcs = Hcs(AB, underlying, {"g": g, "h": h}, {2: "h", 4: "g"})
    n = 13
    assert hcs_cover_empty(hcs, node_cap=n)
    with pytest.raises(ResourceLimitError, match=f"on-the-fly exploration exceeded {n - 1} nodes"):
        hcs_cover_empty(hcs, node_cap=n - 1)
