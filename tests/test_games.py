import itertools
import json
import os

import pytest

from hcs import formats
from hcs.automata import Alphabet, FiniteAutomaton
from hcs.core import Hcs, HcsSemantics
from hcs.errors import ContractError, InputError, ResourceLimitError
from hcs.games import (
    Arena,
    CountdownGame,
    HcsGame,
    Objective,
    arena_size_bounds,
    build_arena,
    countdown_alphabet,
    countdown_guard_dfas,
    countdown_to_hcs_game,
    game_non_blocking,
    normalize_countdown,
    solve_countdown,
    solve_hcs_game,
    solve_reachability,
    solve_safety,
)
from hcs.models import AB, branching_nonempty_hcs

from oracles import out_edges, solve_countdown_countup

DATA = os.path.join(os.path.dirname(__file__), "data")

X = Alphabet(("x",))


def cg(states, init, target, edges):
    return CountdownGame(tuple(states), init, target, tuple(edges))


def reach_game(hcs, owner, targets):
    return HcsGame(hcs, tuple(owner), Objective("reach", frozenset(targets)))


def assert_strategy_closure(solution):
    """Player 0's strategy must reach the target from everywhere in its
    region within |vertices| steps, whatever Player 1 does."""
    arena = solution.arena
    out = out_edges(arena)
    horizon = len(arena.vertices)
    memo = {}

    def reaches(v, steps):
        if v in arena.marked:
            return True
        if steps == 0:
            return False
        key = (v, steps)
        if key not in memo:
            if arena.owner[v] == 0:
                edge = solution.strategy_0[v]
                memo[key] = reaches(arena.edges[edge][2], steps - 1)
            else:
                succs = [arena.edges[e][2] for e in out[v]]
                memo[key] = True if not succs else all(reaches(s, steps - 1) for s in succs)
        return memo[key]

    for v in solution.winning_region_0:
        assert reaches(v, horizon), f"vertex {v} does not force the target"


class TestArena:
    def test_trivial_guards_isomorphic_to_underlying(self):
        underlying = FiniteAutomaton(
            AB, ("q0", "q1"), 0, frozenset({1}), ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1))
        )
        game = reach_game(Hcs(AB, underlying, {}, {}), (0, 1), {1})
        arena = build_arena(game)
        assert len(arena.vertices) == len(underlying.states)
        assert len(arena.edges) == len(underlying.transitions)
        assert arena.initial == 0
        assert arena.vertices[0][0] == underlying.initial

    def test_owner_and_target_lifted(self):
        hcs = branching_nonempty_hcs()
        game = reach_game(hcs, (0, 1, 0, 1, 0), {4})
        arena = build_arena(game)
        for i, (q, _) in enumerate(arena.vertices):
            assert arena.owner[i] == game.owner[q]
            assert (i in arena.marked) == (q == 4)

    def test_size_bounds_hold(self):
        hcs = branching_nonempty_hcs()
        game = reach_game(hcs, (0, 1, 0, 1, 0), {4})
        arena = build_arena(game)
        v_bound, e_bound = arena_size_bounds(game)
        assert len(arena.vertices) <= v_bound
        assert len(arena.edges) <= e_bound


class TestSolvers:
    def test_initial_in_target(self):
        underlying = FiniteAutomaton(X, ("q",), 0, frozenset(), ((0, 0, 0),))
        game = reach_game(Hcs(X, underlying, {}, {}), (0,), {0})
        solution = solve_hcs_game(game)
        assert solution.winner_from_initial == 0
        assert solution.strategy_0 == {}

    def test_target_unreachable(self):
        underlying = FiniteAutomaton(X, ("q", "island"), 0, frozenset(), ((0, 0, 0),))
        game = reach_game(Hcs(X, underlying, {}, {}), (0, 0), {1})
        assert solve_hcs_game(game).winner_from_initial == 1

    def test_player_one_escape(self):
        # Player 1 owns the hub and can avoid the target forever.
        underlying = FiniteAutomaton(
            X, ("hub", "goal", "away"), 0, frozenset(), ((0, 0, 1), (0, 0, 2), (1, 0, 1), (2, 0, 2))
        )
        game = reach_game(Hcs(X, underlying, {}, {}), (1, 0, 0), {1})
        assert solve_hcs_game(game).winner_from_initial == 1
        forced = reach_game(Hcs(X, underlying, {}, {}), (0, 0, 0), {1})
        assert solve_hcs_game(forced).winner_from_initial == 0

    def test_safety_trivial_cases(self):
        underlying = FiniteAutomaton(X, ("q", "bad"), 0, frozenset(), ((0, 0, 0), (0, 0, 1), (1, 0, 1)))
        hcs = Hcs(X, underlying, {}, {})
        empty_forbidden = HcsGame(hcs, (1, 1), Objective("safe", frozenset()))
        assert solve_hcs_game(empty_forbidden).winner_from_initial == 0
        all_forbidden = HcsGame(hcs, (0, 0), Objective("safe", frozenset({0, 1})))
        assert solve_hcs_game(all_forbidden).winner_from_initial == 1

    def test_safety_is_dual_of_reachability_with_swapped_owners(self):
        fixtures = [
            (branching_nonempty_hcs(), (0, 1, 0, 1, 0), {4}),
            (branching_nonempty_hcs(), (1, 1, 1, 1, 1), {2}),
            (branching_nonempty_hcs(), (0, 0, 0, 0, 0), {3}),
        ]
        for hcs, owner, marked in fixtures:
            safe = HcsGame(hcs, owner, Objective("safe", frozenset(marked)))
            dual = HcsGame(
                hcs, tuple(1 - o for o in owner), Objective("reach", frozenset(marked))
            )
            assert (
                solve_hcs_game(safe).winner_from_initial
                == 1 - solve_hcs_game(dual).winner_from_initial
            )

    def test_determinacy_and_closure_on_fixtures(self):
        hcs = branching_nonempty_hcs()
        for owner in [(0, 1, 0, 1, 0), (1, 0, 1, 0, 1), (0, 0, 1, 1, 0)]:
            solution = solve_hcs_game(reach_game(hcs, owner, {4}))
            arena = solution.arena
            region1 = frozenset(range(len(arena.vertices))) - solution.winning_region_0
            assert solution.winning_region_0.isdisjoint(region1)
            assert solution.winning_region_0 | region1 == frozenset(range(len(arena.vertices)))
            assert_strategy_closure(solution)

    def test_strategy_domains_are_exact_and_closed(self):
        hcs = branching_nonempty_hcs()
        for owner in [(0, 1, 0, 1, 0), (1, 0, 1, 0, 1)]:
            for kind, marked in [("reach", {4}), ("safe", {3}), ("reach", {0}), ("safe", {4})]:
                game = HcsGame(hcs, owner, Objective(kind, frozenset(marked)))
                solution = solve_hcs_game(game)
                arena = solution.arena
                region0 = solution.winning_region_0
                region1 = frozenset(range(len(arena.vertices))) - region0
                if kind == "reach":
                    dom0 = {v for v in region0 if arena.owner[v] == 0 and v not in arena.marked}
                    dom1 = {v for v in region1 if arena.owner[v] == 1}
                else:
                    dom0 = {v for v in region0 if arena.owner[v] == 0}
                    dom1 = {v for v in region1 if arena.owner[v] == 1 and v not in arena.marked}
                assert set(solution.strategy_0) == dom0
                assert set(solution.strategy_1) == dom1
                for v, e in solution.strategy_0.items():
                    assert arena.edges[e][0] == v and arena.edges[e][2] in region0
                for v, e in solution.strategy_1.items():
                    assert arena.edges[e][0] == v and arena.edges[e][2] in region1

    def test_wrong_objective_kind_rejected(self):
        underlying = FiniteAutomaton(X, ("q",), 0, frozenset(), ((0, 0, 0),))
        game = HcsGame(Hcs(X, underlying, {}, {}), (0,), Objective("safe", frozenset()))
        arena = build_arena(game)
        with pytest.raises(ContractError):
            solve_reachability(arena)
        reach = reach_game(Hcs(X, underlying, {}, {}), (0,), {0})
        with pytest.raises(ContractError):
            solve_safety(build_arena(reach))


def naive_reach_region(arena):
    """Independent fixpoint: grow the winning set by one-step force checks."""
    out = out_edges(arena)
    succs = [[arena.edges[e][2] for e in out[v]] for v in range(len(arena.vertices))]
    winning = set(arena.marked)
    changed = True
    while changed:
        changed = False
        for v in range(len(arena.vertices)):
            if v in winning:
                continue
            if arena.owner[v] == 0:
                forced = any(s in winning for s in succs[v])
            else:
                forced = all(s in winning for s in succs[v])  # vacuous if stuck
            if forced:
                winning.add(v)
                changed = True
    return frozenset(winning)


class TestSolverAgainstNaiveFixpoint:
    def test_random_games(self):
        import random

        rng = random.Random(4242)
        for _ in range(40):
            n = rng.randint(1, 4)
            transitions = set()
            for _ in range(rng.randint(n, 3 * n)):
                label = rng.choice([0, 1, None])
                transitions.add((rng.randrange(n), label, rng.randrange(n)))
            underlying = FiniteAutomaton(
                AB,
                tuple(f"q{i}" for i in range(n)),
                0,
                frozenset(),
                tuple(sorted(transitions, key=lambda t: (t[0], -1 if t[1] is None else t[1], t[2]))),
            )
            guard = FiniteAutomaton(
                AB, ("g0", "g1"), 0, frozenset({rng.randrange(2)}),
                tuple((q, a, rng.randrange(2)) for q in range(2) for a in range(2)),
            )
            guarded = {}
            for t in range(len(underlying.transitions)):
                if rng.random() < 0.4:
                    guarded[t] = "g"
            hcs = Hcs(AB, underlying, {"g": guard} if guarded else {}, guarded)
            owner = tuple(rng.randrange(2) for _ in range(n))
            marked = frozenset(q for q in range(n) if rng.random() < 0.4)
            game = HcsGame(hcs, owner, Objective("reach", marked))
            solution = solve_hcs_game(game)
            assert solution.winning_region_0 == naive_reach_region(solution.arena)


class TestGameNonBlocking:
    def test_escapes_follow_ownership(self):
        # p0's only move is guarded (it can be stuck), p1 has no moves at all.
        guard = FiniteAutomaton(AB, ("g",), 0, frozenset(), ((0, 0, 0), (0, 1, 0)))
        underlying = FiniteAutomaton(AB, ("p0", "p1"), 0, frozenset(), ((0, 0, 1),))
        game = reach_game(Hcs(AB, underlying, {"g": guard}, {0: "g"}), (0, 1), {1})
        completed = game_non_blocking(game)
        states = completed.hcs.underlying.states
        assert "sink_lose" in states and "sink_win" in states
        lose = states.index("sink_lose")
        win = states.index("sink_win")
        assert completed.owner[lose] == 0 and completed.owner[win] == 1
        assert win in completed.objective.states and lose not in completed.objective.states
        escapes = {
            src: dst
            for src, label, dst in completed.hcs.underlying.transitions
            if label is None
        }
        assert escapes[0] == lose and escapes[1] == win
        assert escapes[lose] == lose and escapes[win] == win

    def test_states_with_unguarded_moves_get_no_escape(self):
        underlying = FiniteAutomaton(AB, ("q",), 0, frozenset(), ((0, 0, 0),))
        game = reach_game(Hcs(AB, underlying, {}, {}), (0,), set())
        assert game_non_blocking(game) is game

    def test_winner_unchanged_by_completion(self):
        underlying = FiniteAutomaton(
            AB, ("q0", "q1"), 0, frozenset(), ((0, 0, 1), (1, 0, 0), (1, 1, 1))
        )
        for owner in [(0, 1), (1, 0), (0, 0), (1, 1)]:
            game = reach_game(Hcs(AB, underlying, {}, {}), owner, {1})
            direct = solve_hcs_game(game)
            twice = solve_hcs_game(game_non_blocking(game))
            assert direct.winner_from_initial == twice.winner_from_initial


class TestCountdownSolver:
    def test_target_zero_wins_immediately(self):
        assert solve_countdown(cg(["A"], 0, 0, [])) == 0

    def test_loop_two_examples(self):
        assert solve_countdown(cg(["A"], 0, 4, [(0, 2, 0)])) == 0
        assert solve_countdown(cg(["A"], 0, 3, [(0, 2, 0)])) == 1

    def test_views_agree_on_enumerated_games(self):
        for game in enumerate_countdowns(states=2, weights=(1, 2), targets=(1, 2, 3, 4)):
            assert solve_countdown(game) == solve_countdown_countup(game)

    def test_stuck_player_zero_loses(self):
        assert solve_countdown(cg(["A"], 0, 1, [(0, 2, 0)])) == 1

    def test_table_cap_raises_before_allocating(self):
        # (target + 1) * |states| cells: 10^11 targets fail fast, not out of memory.
        huge = cg(["A", "B"], 0, 10**11, [(0, 2, 1), (1, 2, 0)])
        with pytest.raises(ResourceLimitError, match="200000000002 cells"):
            solve_countdown(huge)
        game = cg(["A", "B"], 0, 4, [(0, 2, 1), (1, 2, 0)])
        assert solve_countdown(game, max_states=10) == 0
        with pytest.raises(ResourceLimitError):
            solve_countdown(game, max_states=9)


def enumerate_countdowns(states, weights, targets, max_edges_per_state=2):
    """All countdown games (single successor per offered weight) of the size."""
    names = [f"s{i}" for i in range(states)]
    per_state = [()]
    for w in weights:
        for t in range(states):
            per_state.append(((w, t),))
    for combo in itertools.combinations([(w, t) for w in weights for t in range(states)], 2):
        if combo[0][0] != combo[1][0] or max_edges_per_state > 2:
            per_state.append(combo)
    for assignment in itertools.product(per_state, repeat=states):
        edges = [
            (s, w, t) for s, offers in enumerate(assignment) for w, t in offers
        ]
        for target in targets:
            yield cg(names, 0, target, edges)


class TestNormalize:
    def test_normalized_game_unchanged(self):
        game = cg(["A"], 0, 4, [(0, 2, 0)])
        assert normalize_countdown(game) is game

    def test_weight_three_becomes_two_then_one(self):
        game = cg(["A"], 0, 4, [(0, 3, 0)])
        normalized = normalize_countdown(game)
        weights = sorted(w for _, w, _ in normalized.edges)
        assert weights == [1, 2]
        assert solve_countdown(game) == solve_countdown(normalized)

    def test_target_five_padded_to_eight(self):
        game = cg(["A"], 0, 5, [(0, 5, 0)])
        normalized = normalize_countdown(game)
        assert normalized.target == 8
        assert solve_countdown(game) == solve_countdown(normalized)
        # the pad is a forced prefix of weight 3, decomposed 2 + 1
        pad_weights = [w for s, w, _ in normalized.edges if normalized.states[s].startswith(("pad", "chain"))]
        assert sorted(pad_weights)[-2:] == [1, 2] or 3 not in pad_weights

    def test_winner_preserved_on_fixture_set(self):
        fixtures = [
            cg(["A"], 0, 3, [(0, 3, 0)]),
            cg(["A", "B"], 0, 6, [(0, 3, 1), (1, 3, 0)]),
            cg(["A", "B"], 0, 7, [(0, 5, 1), (1, 2, 0), (0, 7, 0)]),
            cg(["A"], 0, 0, []),
        ]
        for game in fixtures:
            normalized = normalize_countdown(game)
            assert _is_pow2_game(normalized)
            assert solve_countdown(game) == solve_countdown(normalized), game


def _is_pow2_game(game):
    def p2(n):
        return n > 0 and n & (n - 1) == 0

    return p2(game.target) and all(p2(w) for _, w, _ in game.edges)


class TestReduction:
    def test_requires_powers_of_two(self):
        with pytest.raises(InputError):
            countdown_to_hcs_game(cg(["A"], 0, 8, [(0, 3, 0)]))
        with pytest.raises(InputError):
            countdown_to_hcs_game(cg(["A"], 0, 3, [(0, 2, 0)]))

    def test_guard_dfas_match_golden_k2(self):
        with open(os.path.join(DATA, "countdown_guards_k2.json")) as handle:
            golden = json.load(handle)
        assert golden["alphabet"] == list(countdown_alphabet(2).symbols)
        produced = [formats.to_document(d) for d in countdown_guard_dfas(2)]
        assert produced == golden["guards"]

    def test_smallest_game_won(self):
        game = cg(["A"], 0, 1, [(0, 1, 0)])
        reduced = countdown_to_hcs_game(game)
        assert solve_hcs_game(reduced).winner_from_initial == 0

    def test_loop_two_target_four_and_arena_bound(self):
        game = cg(["A"], 0, 4, [(0, 2, 0)])
        reduced = countdown_to_hcs_game(game)
        solution = solve_hcs_game(reduced)
        assert solution.winner_from_initial == 0
        v_bound, e_bound = arena_size_bounds(game_non_blocking(reduced))
        assert len(solution.arena.vertices) <= v_bound
        assert len(solution.arena.edges) <= e_bound

    def test_guard_states_encode_binary_value(self):
        game = cg(["A"], 0, 4, [(0, 2, 0)])
        reduced = countdown_to_hcs_game(game)
        semantics = HcsSemantics(reduced.hcs)
        guards = reduced.hcs.guards

        def states_after(word):
            d = semantics.initial()
            for sym in word:
                d = semantics.step(d, sym)
            _, p = semantics.configs[d]
            return {
                name: guards[name].states[state]
                for name, state in zip(semantics.names, semantics.products[p])
            }

        after_two = states_after(["2", "n0", "n1"])
        assert after_two == {"D0": "p0", "D1": "q1", "D2": "p2"}
        after_four = states_after(["2", "n0", "n1", "2", "n0", "c1"])
        assert after_four == {"D0": "p0", "D1": "p1", "D2": "q2"}

    def test_misplays_drive_guard_to_sink_and_lose(self):
        game = cg(["A"], 0, 4, [(0, 2, 0)])
        reduced = countdown_to_hcs_game(game)
        solution = solve_hcs_game(reduced)
        arena = solution.arena
        semantics = HcsSemantics(reduced.hcs)
        underlying = reduced.hcs.underlying

        def arena_vertex_after(word, state_name):
            state = underlying.state_index(state_name)
            guard_states = tuple(tr.initial() for tr in semantics.trackers)
            for sym in word:
                a = reduced.hcs.alphabet.index(sym)
                guard_states = tuple(
                    tr.step(s, a) for tr, s in zip(semantics.trackers, guard_states)
                )
            return arena.vertices.index((state, guard_states))

        # Playing c0 when D0 is not pending sends D0 to its sink r0.
        misplay = arena_vertex_after(["2", "c0"], "ch_A_2_1")
        d0 = semantics.names.index("D0")
        guard_state = arena.vertices[misplay][1][d0]
        assert reduced.hcs.guards["D0"].states[guard_state] == "r0"
        assert misplay not in solution.winning_region_0
        # Playing n1 when D1 is pending a carry also loses.
        misplay2 = arena_vertex_after(["2", "n0", "n1", "2", "n0", "n1"], "s_A")
        d1 = semantics.names.index("D1")
        assert reduced.hcs.guards["D1"].states[arena.vertices[misplay2][1][d1]] == "r1"
        assert misplay2 not in solution.winning_region_0

    def test_differential_on_small_sample(self):
        for game in enumerate_countdowns(states=1, weights=(1, 2), targets=(1, 2, 4)):
            direct = solve_countdown(game)
            reduced = solve_hcs_game(countdown_to_hcs_game(game)).winner_from_initial
            assert direct == reduced, game

    def test_duplicate_edges_collapse(self):
        game = cg(["A", "B"], 0, 2, [(0, 2, 1), (0, 2, 1), (1, 1, 1)])
        reduced = countdown_to_hcs_game(game)
        assert solve_hcs_game(reduced).winner_from_initial == solve_countdown(game)

    def test_weights_above_target_are_dropped(self):
        # A weight-4 edge can never end exactly on target 2; it must not
        # appear in the reduction and must not change the winner.
        game = cg(["A"], 0, 2, [(0, 4, 0), (0, 1, 0)])
        reduced = countdown_to_hcs_game(game)
        assert "4" not in reduced.hcs.alphabet.symbols
        assert solve_hcs_game(reduced).winner_from_initial == solve_countdown(game)
