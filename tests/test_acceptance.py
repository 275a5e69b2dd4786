"""Acceptance suite: every criterion as a dedicated test with its stated
budget, printing one pass/fail line per criterion.

Each tolerance is pinned here. The checks are oracle-based: exhaustive word
comparisons with deduplicated breadth-first product walks, independent
brute-force searches, frozen golden files, and differential runs of paired
engines.
"""

import itertools
import json
import os
import random
import sys
import time
from contextlib import contextmanager

import pytest

from hcs import cli, formats
from hcs.automata import FiniteAutomaton, accepts
from hcs.bench import cycle_dfa, first_primes, prime_family, verify_succinctness
from hcs.core import (
    Hcs,
    build_intersection_dfa,
    build_intersection_nfa,
    determinize_hcs,
    hcs_size,
    is_empty,
    member,
    total_state_count,
)
from hcs.games import (
    CountdownGame,
    HcsGame,
    Objective,
    arena_size_bounds,
    countdown_to_hcs_game,
    game_non_blocking,
    solve_countdown,
    solve_hcs_game,
)
from hcs.models import (
    AB,
    all_trivial_hcs,
    branching_empty_hcs,
    branching_nonempty_hcs,
    count_balanced_vass,
    four_eyes_hcs,
    guard_alternating,
    guard_contains_aa,
    six_state_two_counter_machine,
    traffic_lights_hcs,
)
from hcs.vass import COVER, CoverabilityInstance, Vass, decide_coverability, replay_transitions
from hcs.vassguards import (
    ACTIONS,
    TwoCounterMachine,
    delimited_star_hcs,
    hcs_cover_empty,
    product_vass,
    two_cm_to_hcs,
    two_counter_run_words,
)

from oracles import (
    HcsStepper,
    NfaStepper,
    VassStepper,
    accepted_words,
    brute_force_coverable,
    first_disagreement,
    vass_accepts_brute,
)
from test_core import random_depth_two_hcs
from test_games import assert_strategy_closure

DATA = os.path.join(os.path.dirname(__file__), "data")
MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def _line(text):
    # Visible with `pytest -s`; under default capture the lines still land in
    # the captured output of the owning test.
    print(text, flush=True)


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        _line(f"ACCEPTANCE {number:>2} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        _line(f"ACCEPTANCE {number:>2} {name}: FAIL (took {elapsed:.2f}s, budget {budget_s}s)")
        raise AssertionError(f"criterion {number} exceeded its {budget_s}s budget")
    _line(f"ACCEPTANCE {number:>2} {name}: PASS ({elapsed:.2f}s, budget {budget_s}s)")


def fixture_corpus():
    return {
        "branching_empty": branching_empty_hcs(),
        "branching_nonempty": branching_nonempty_hcs(),
        "four_eyes": four_eyes_hcs(),
        "traffic": traffic_lights_hcs(),
        "inter_nfa_c2_c3": build_intersection_nfa([cycle_dfa(2), cycle_dfa(3)]),
        "inter_dfa_c2_c3": build_intersection_dfa([cycle_dfa(2), cycle_dfa(3)]),
        "inter_empty": build_intersection_nfa([guard_contains_aa(), guard_alternating()]),
        "all_trivial": all_trivial_hcs(),
        "prime_family_2": prime_family(2),
    }


def test_criterion_1_branching_examples_fidelity():
    with criterion(1, "branching examples fidelity", 1):
        assert is_empty(branching_empty_hcs())
        u2 = branching_nonempty_hcs()
        assert member(u2, list("baaba"))
        assert not is_empty(u2)


def test_criterion_2_determinization_oracle():
    with criterion(2, "determinization word oracle + state bound", 30):
        corpus = fixture_corpus()
        assert len(corpus) >= 8
        for name, hcs in corpus.items():
            dfa = determinize_hcs(hcs)
            assert dfa.deterministic and dfa.is_complete(), name
            mismatch = first_disagreement(HcsStepper(hcs), NfaStepper(dfa), len(hcs.alphabet), 8)
            assert mismatch is None, (name, mismatch)
            assert len(dfa.states) <= 2 ** total_state_count(hcs), name


def test_criterion_3_succinctness_lower_bound():
    with criterion(3, "prime-cycle succinctness gap", 10):
        for k in (2, 3, 4, 5):
            report = verify_succinctness(k)
            product = 1
            for p in first_primes(k):
                product *= p
            assert report.minimal_dfa_states >= product > 2**k, k
            assert report.hcs_size <= 64 * k**3, k
            if k == 3:
                assert report.minimal_dfa_states == 34


def test_criterion_4_nesting_bound():
    with criterion(4, "depth-2 flattening bound", 10):
        from hcs.core import flatten_nested

        rng = random.Random(777)
        checked = 0
        while checked < 20:
            hcs = random_depth_two_hcs(rng)
            n = total_state_count(hcs)
            assert n <= 12
            flat = flatten_nested(hcs)
            dfa = determinize_hcs(flat)
            assert len(dfa.states) <= 2**n
            mismatch = first_disagreement(HcsStepper(hcs), NfaStepper(dfa), 2, 8)
            assert mismatch is None
            checked += 1


def _canonical_countdown(n_states, target, edges):
    reachable = {0}
    frontier = [0]
    adj = {}
    for s, w, t in edges:
        adj.setdefault(s, []).append((w, t))
    while frontier:
        q = frontier.pop()
        for w, t in adj.get(q, ()):
            if t not in reachable:
                reachable.add(t)
                frontier.append(t)
    kept = [(s, w, t) for s, w, t in edges if s in reachable]
    others = sorted(reachable - {0})
    best = None
    for perm in itertools.permutations(others):
        relabel = {0: 0, **{old: i + 1 for i, old in enumerate(perm)}}
        form = tuple(sorted((relabel[s], w, relabel[t]) for s, w, t in kept))
        if best is None or form < best:
            best = form
    return (len(reachable), target, best)


def _enumerate_single_successor_games():
    """All <=3-state games, <=2 offered weights per state, one successor each."""
    pairs = [(w, t) for w in (1, 2, 4) for t in range(3)]
    options = [()] + [(p,) for p in pairs]
    options += [
        (a, b) for a, b in itertools.combinations(pairs, 2) if a[0] != b[0]
    ]
    seen = set()
    for combo in itertools.product(options, repeat=3):
        edges = tuple((s, w, t) for s, offers in enumerate(combo) for w, t in offers)
        for target in (1, 2, 4, 8):
            key = _canonical_countdown(3, target, edges)
            if key in seen:
                continue
            seen.add(key)
            yield CountdownGame(("s0", "s1", "s2"), 0, target, edges)


def _enumerate_branching_games():
    """All 2-state games where Player 1 may choose among successor sets."""
    successor_sets = [(0,), (1,), (0, 1)]
    weight_options = [()]
    weight_options += [((w, succ),) for w in (1, 2, 4) for succ in successor_sets]
    weight_options += [
        ((w1, s1), (w2, s2))
        for (w1, w2) in itertools.combinations((1, 2, 4), 2)
        for s1 in successor_sets
        for s2 in successor_sets
    ]
    seen = set()
    for combo in itertools.product(weight_options, repeat=2):
        edges = tuple(
            (s, w, t)
            for s, offers in enumerate(combo)
            for w, succs in offers
            for t in succs
        )
        for target in (1, 2, 4, 8):
            key = _canonical_countdown(2, target, edges)
            if key in seen:
                continue
            seen.add(key)
            yield CountdownGame(("s0", "s1"), 0, target, edges)


def _random_four_state_games(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        edges = []
        for s in range(4):
            for _ in range(rng.randint(0, 2)):
                edges.append((s, rng.choice((1, 2, 4)), rng.randrange(4)))
        yield CountdownGame(
            ("s0", "s1", "s2", "s3"), 0, rng.choice((1, 2, 4, 8)), tuple(set(edges))
        )


def test_criterion_5_countdown_reduction_differential():
    with criterion(5, "countdown-game reduction differential", 300):
        total = 0
        for game in itertools.chain(
            _enumerate_single_successor_games(),
            _enumerate_branching_games(),
            _random_four_state_games(300, seed=20260808),
        ):
            direct = solve_countdown(game)
            reduced = countdown_to_hcs_game(game)
            solution = solve_hcs_game(reduced)
            assert direct == solution.winner_from_initial, game
            v_bound, e_bound = arena_size_bounds(game_non_blocking(reduced))
            assert len(solution.arena.vertices) <= v_bound, game
            assert len(solution.arena.edges) <= e_bound, game
            total += 1
        _line(f"              (criterion 5 covered {total} countdown games)")


def test_criterion_6_attractor_properties():
    with criterion(6, "attractor determinacy, duality, closure", 10):
        hcs = branching_nonempty_hcs()
        owners = [(0, 1, 0, 1, 0), (1, 0, 1, 0, 1), (0, 0, 0, 0, 0), (1, 1, 1, 1, 1)]
        for owner in owners:
            for marked in ({4}, {2}, {0}):
                game = HcsGame(hcs, owner, Objective("reach", frozenset(marked)))
                solution = solve_hcs_game(game)
                vertices = frozenset(range(len(solution.arena.vertices)))
                region1 = vertices - solution.winning_region_0
                assert solution.winning_region_0 | region1 == vertices
                assert solution.winning_region_0.isdisjoint(region1)
                assert solution.winner_from_initial in (0, 1)
                assert_strategy_closure(solution)
                safe = HcsGame(hcs, owner, Objective("safe", frozenset(marked)))
                dual = HcsGame(
                    hcs, tuple(1 - o for o in owner), Objective("reach", frozenset(marked))
                )
                assert (
                    solve_hcs_game(safe).winner_from_initial
                    == 1 - solve_hcs_game(dual).winner_from_initial
                )
        reduced = countdown_to_hcs_game(CountdownGame(("A",), 0, 4, ((0, 2, 0),)))
        assert_strategy_closure(solve_hcs_game(reduced))


def _cover_pipeline_fixtures():
    counting = Vass(
        AB, 1, ("zero", "pos"), 0, frozenset({1}),
        ((0, 0, (1,), 1), (0, 1, (0,), 0), (1, 0, (1,), 1), (1, 1, (0,), 1)),
        COVER,
    )
    parity = Vass(
        AB, 2, ("even", "odd"), 0, frozenset({0}),
        (
            (0, 0, (1, 0), 1), (0, 1, (0, 1), 0),
            (1, 0, (1, 0), 0), (1, 1, (0, 1), 1),
        ),
        COVER,
    )
    u1 = FiniteAutomaton(AB, ("w", "d"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)))
    u2 = FiniteAutomaton(AB, ("x", "y"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1)))
    return [
        Hcs(AB, u1, {"g": counting}, {1: "g"}),
        Hcs(AB, u2, {"g": parity}, {1: "g"}),
        Hcs(AB, u2, {"g1": counting, "g2": parity}, {1: "g1"}),
        Hcs(AB, u2, {}, {}),
    ]


def test_criterion_7_cover_vass_pipeline():
    with criterion(7, "cover-VASS product pipeline", 60):
        for hcs in _cover_pipeline_fixtures():
            product = product_vass(hcs, assume_non_dying=True)
            mismatch = first_disagreement(
                HcsStepper(hcs), VassStepper(product), len(hcs.alphabet), 6
            )
            assert mismatch is None
            base = hcs.underlying.size() + sum(g.unary_size() for g in hcs.guards.values())
            m = len(hcs.guards)
            assert product.unary_size() <= 2 * base ** (m + 2)
            assert hcs_cover_empty(hcs, "onthefly") == hcs_cover_empty(
                hcs, "product", assume_non_dying=True
            )


def test_criterion_8_coverability_engines():
    with criterion(8, "coverability engine agreement", 60):
        rng = random.Random(1234321)
        checked = 0
        while checked < 200:
            n_states = rng.randint(1, 4)
            transitions = []
            for _ in range(rng.randint(1, 8)):
                transitions.append(
                    (
                        rng.randrange(n_states),
                        rng.choice((0, 1)),
                        (rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))),
                        rng.randrange(n_states),
                    )
                )
            transitions = tuple(dict.fromkeys(transitions))
            vass = Vass(
                AB, 2,
                tuple(f"v{i}" for i in range(n_states)),
                0,
                frozenset({n_states - 1}),
                transitions,
                COVER,
            )
            target = rng.randrange(n_states)
            target_counters = (rng.choice((0, 0, 1, 2)), rng.choice((0, 0, 1)))
            instance = CoverabilityInstance(vass, 0, target, target_counters)
            km = decide_coverability(instance, "km")
            backward = decide_coverability(instance, "backward")
            brute = brute_force_coverable(vass, 0, target, target_counters, 16)
            assert km.coverable == backward.coverable == brute
            for result in (km, backward):
                if result.coverable:
                    state, counters = replay_transitions(
                        vass, (0, (0, 0)), result.witness
                    )
                    assert state == target
                    assert all(c >= t for c, t in zip(counters, target_counters))
            checked += 1


def test_criterion_9_two_counter_reduction():
    with criterion(9, "two-counter machine reduction", 30):
        machines = [
            TwoCounterMachine(("p", "q"), ((0, "inc1", 1), (1, "dec1", 0)), 0, 0),
            TwoCounterMachine(("p", "q"), ((0, "inc1", 1), (1, "dec1", 0)), 0, 1),
            TwoCounterMachine(
                ("p", "q", "r"),
                ((0, "zero1", 1), (1, "inc2", 2), (2, "dec2", 1), (1, "zero2", 0)),
                0,
                1,
            ),
            TwoCounterMachine(
                ("p", "q", "r"),
                ((0, "inc1", 1), (1, "inc2", 2), (2, "dec1", 0), (0, "zero2", 2)),
                0,
                2,
            ),
            TwoCounterMachine(("p",), ((0, "inc2", 0),), 0, 0),
        ]
        for machine in machines:
            hcs = two_cm_to_hcs(machine)
            expected = {
                word + ("zero1", "zero2")
                for word in two_counter_run_words(machine, 4)
                if len(word) + 2 <= 6
            }
            got = accepted_words(HcsStepper(hcs), ACTIONS, 6)
            assert got == expected, machine
        translated = two_cm_to_hcs(six_state_two_counter_machine())
        with open(os.path.join(DATA, "two_counter_translation.json")) as handle:
            golden = json.load(handle)
        assert formats.to_document(translated) == golden


def test_criterion_10_delimited_kleene_star():
    with criterion(10, "delimited Kleene star fidelity", 10):
        vass = count_balanced_vass()
        hcs = delimited_star_hcs(vass)
        assert member(hcs, ["$"])

        def oracle(word):
            if not word or word[0] != "$" or word[-1] != "$":
                return False
            blocks, current = [], []
            for sym in word[1:]:
                if sym == "$":
                    blocks.append(current)
                    current = []
                else:
                    current.append(sym)
            if current:
                return False
            return all(vass_accepts_brute(vass, block) for block in blocks)

        stepper = HcsStepper(hcs)
        symbols = hcs.alphabet.symbols

        def walk(state, word):
            assert stepper.accepting(state) == oracle(word), word
            if len(word) == 6:
                return
            for i, sym in enumerate(symbols):
                walk(stepper.step(state, i), word + [sym])

        walk(stepper.initial(), [])


def test_criterion_11_cli_contract(capsys, tmp_path):
    with criterion(11, "CLI and format contract", 10):
        model_files = sorted(f for f in os.listdir(MODELS) if f.endswith(".json"))
        assert len(model_files) >= 10
        for name in model_files:
            path = os.path.join(MODELS, name)
            model = formats.load_path(path)
            assert formats.from_document(formats.to_document(model)) == model, name
            first = tmp_path / f"1_{name}"
            second = tmp_path / f"2_{name}"
            assert cli.main(["fmt", "--model", path, "--out", str(first)]) == 0
            assert cli.main(["fmt", "--model", str(first), "--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name

        def verdict(argv):
            assert cli.main(argv) == 0
            return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

        u2 = os.path.join(MODELS, "branching_nonempty.json")
        assert verdict(["member", "--model", u2, "--word", "b a a b a"]) == {
            "accepted": member(branching_nonempty_hcs(), list("baaba"))
        }
        assert verdict(["empty", "--model", os.path.join(MODELS, "branching_empty.json")]) == {
            "empty": is_empty(branching_empty_hcs())
        }
        cd3 = os.path.join(MODELS, "countdown_loop2_target3.json")
        assert verdict(["countdown", "solve", "--model", cd3]) == {
            "winner": solve_countdown(formats.load_path(cd3))
        }
        vass_doc = os.path.join(MODELS, "count_balanced_vass.json")
        model = formats.load_path(vass_doc)
        expected = decide_coverability(
            CoverabilityInstance(model, 0, 1, (0,)), "km"
        ).coverable
        got = verdict(["vass", "cover", "--model", vass_doc, "--target", "draining"])
        assert got["coverable"] == expected
        report = verify_succinctness(2)
        assert verdict(["bench", "primes", "--k", "2"])["minimal_dfa_states"] == (
            report.minimal_dfa_states
        )
