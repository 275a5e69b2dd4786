"""The lazy subset-product DFA against the loops it replaced.

``determinize_hcs`` must build the same states, accepting set and transition
set as the plain subset construction kept in ``oracles``, with the same cap;
``bounded_reach_empty`` must give the same status and witness as the
plain layered search, and its witnesses must replay with ``member``. Cover
guards are tracked as antichains of omega-configurations, so ``member``
answers on guards whose epsilon loops pump counters without bound.
"""

import json
import os
import random

import pytest

from hcs import formats
from hcs.automata import FiniteAutomaton
from hcs.bench import prime_family
from hcs.core import Hcs, HcsSemantics, build_intersection_nfa, determinize_hcs, guard_kind, is_empty, member
from hcs.errors import InputError, ResourceLimitError
from hcs.models import AB, branching_nonempty_hcs, guard_alternating, guard_contains_aa, guard_length_multiple_of_three
from hcs.vass import COVER, REACH, Vass, eps_closure_configs, vass_accepts
from hcs.vassguards import TwoCounterMachine, bounded_reach_empty, two_cm_to_hcs

from oracles import all_words, cover_vass_member, reference_bounded_reach, reference_determinize
from test_core import random_depth_two_hcs

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def random_guarded_hcs(rng):
    """Up to 5 states over {a, b} with epsilon moves, self-loops, three
    regular guards on about 40% of the moves and random accepting states."""
    guards = {"alt": guard_alternating(), "mod3": guard_length_multiple_of_three(), "aa": guard_contains_aa()}
    n = rng.randint(1, 5)
    drawn = [(rng.randrange(n), rng.choice((0, 1, None)), rng.randrange(n)) for _ in range(rng.randint(1, 3 * n))]
    transitions = list(dict.fromkeys(drawn))
    guarded = {t: rng.choice(sorted(guards)) for t in range(len(transitions)) if rng.random() < 0.4}
    accepting = frozenset(q for q in range(n) if rng.random() < 0.4)
    underlying = FiniteAutomaton(AB, tuple(f"q{i}" for i in range(n)), 0, accepting, tuple(transitions))
    return Hcs(AB, underlying, guards, guarded)


def shipped_models():
    """Every shipped HCS whose guards are regular or nested."""
    for name in sorted(os.listdir(MODELS)):
        with open(os.path.join(MODELS, name)) as handle:
            model = formats.from_document(json.load(handle))
        if isinstance(model, Hcs) and all(guard_kind(g) != "vass" for g in model.guards.values()):
            yield name, model


def assert_same_dfa(hcs):
    dfa = determinize_hcs(hcs)
    states, accepting, transitions = reference_determinize(hcs)
    assert dfa.states == states
    assert dfa.accepting == accepting
    assert len(dfa.transitions) == len(transitions)
    assert set(dfa.transitions) == set(transitions)
    return dfa


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_prime_family_matches_reference(k):
    assert_same_dfa(prime_family(k))


def test_shipped_models_match_reference():
    names = [name for name, model in shipped_models() if assert_same_dfa(model)]
    assert "traffic_lights.json" in names and "delimited_star.json" not in names


def test_random_guarded_systems_match_reference():
    rng = random.Random(20261019)
    for _ in range(200):
        assert_same_dfa(random_guarded_hcs(rng))
    for _ in range(40):
        assert_same_dfa(random_depth_two_hcs(rng))


def test_determinization_cap_is_exact():
    for hcs in (prime_family(3), prime_family(4)):
        n = len(reference_determinize(hcs)[0])
        assert n > 1
        assert len(determinize_hcs(hcs, max_states=n).states) == n
        with pytest.raises(ResourceLimitError, match=f"state cap of {n - 1}$"):
            determinize_hcs(hcs, max_states=n - 1)
    one_state = Hcs(AB, FiniteAutomaton(AB, ("q",), 0, frozenset(), ((0, 0, 0), (0, 1, 0))), {}, {})
    assert len(determinize_hcs(one_state, max_states=0).states) == 1


def test_dead_state_is_shared_and_absorbing():
    underlying = FiniteAutomaton(AB, ("q0", "q1"), 0, frozenset({1}), ((0, 0, 1),))
    semantics = HcsSemantics(Hcs(AB, underlying, {}, {}))
    start = semantics.initial()
    dead = semantics.step(start, "b")
    assert semantics.configs[dead] == (frozenset(), None)
    assert semantics.step(semantics.step(start, "a"), "a") == dead
    assert semantics.step(dead, "a") == semantics.step(dead, "b") == dead
    assert not semantics.accepting(dead)


def test_a_symbol_index_out_of_range_is_refused_and_leaves_the_table_intact():
    semantics, fresh = HcsSemantics(branching_nonempty_hcs()), HcsSemantics(branching_nonempty_hcs())
    for walked in (semantics, fresh):
        walked.step(walked.initial(), "a")
    for d in (0, 1):
        for bad in (2, -1):  # the entries of the next and the previous state
            with pytest.raises(InputError, match=rf"^symbol index {bad} out of range for 2 symbols$"):
                semantics.step(d, bad)
    assert semantics.configs[semantics.step(1, "a")] == fresh.configs[fresh.step(1, "a")] == (frozenset({3}), 2)
    assert semantics.configs == fresh.configs and semantics._delta == fresh._delta


def two_counter_models():
    machines = [
        TwoCounterMachine(("p", "q"), ((0, "inc1", 1), (1, "dec1", 0)), 0, 0),
        TwoCounterMachine(("p", "q"), ((0, "inc1", 1), (1, "dec1", 0)), 0, 1),
        TwoCounterMachine(("p", "q", "r"), ((0, "inc1", 1), (1, "inc2", 2), (2, "dec1", 0), (0, "zero2", 2)), 0, 2),
    ]
    return [two_cm_to_hcs(m) for m in machines]


def test_bounded_search_matches_reference():
    rng = random.Random(4711)
    models = [random_guarded_hcs(rng) for _ in range(100)] + two_counter_models()
    for hcs in models:
        for max_len in (0, 3, 6):
            outcome = bounded_reach_empty(hcs, max_len)
            status, witness = reference_bounded_reach(hcs, max_len)
            assert outcome.status == status
            assert outcome.witness == witness
            if witness is not None:
                assert member(hcs, list(outcome.witness))


def test_bounded_search_cap_matches_reference():
    hcs = two_counter_models()[1]
    total = None
    for cap in range(1, 200):
        try:
            reference_bounded_reach(hcs, 6, cap)
        except ResourceLimitError:
            with pytest.raises(ResourceLimitError, match=f"exceeded {cap} configurations"):
                bounded_reach_empty(hcs, 6, cap)
            continue
        total = cap
        assert bounded_reach_empty(hcs, 6, cap).status == "unknown"
        break
    assert total is not None and total > 1


def test_nested_guard_emptiness_terminates():
    # The inner system accepts every word, so its lazy DFA state repeats and
    # the outer exploration closes; the accepting s2 is unreachable.
    inner = Hcs(AB, FiniteAutomaton(AB, ("i",), 0, frozenset({0}), ((0, 0, 0), (0, 1, 0))), {}, {})
    underlying = FiniteAutomaton(AB, ("s0", "s1", "s2"), 0, frozenset({2}), ((0, 0, 0), (0, 1, 0), (0, 0, 1)))
    hcs = Hcs(AB, underlying, {"inner": inner}, {2: "inner"})
    assert is_empty(hcs, max_configs=5000)


def nth_from_last_guard(n):
    """The n-th symbol from the end is a: n + 1 states, whose subset DFA
    has 2^n states."""
    states = ("s",) + tuple(f"x{i}" for i in range(1, n + 1))
    moves = tuple((i, a, i + 1) for i in range(1, n) for a in (0, 1))
    return FiniteAutomaton(AB, states, 0, frozenset({n}), ((0, 0, 0), (0, 1, 0), (0, 0, 1)) + moves)


def checked_by(guard):
    """A system with the guard's language: any word, then an epsilon move
    that the guard must admit."""
    underlying = FiniteAutomaton(AB, ("q0", "q1"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 0), (0, None, 1)))
    return Hcs(AB, underlying, {"g": guard}, {2: "g"})


def test_a_nondeterministic_guard_is_never_determinized_whole():
    # The guard's DFA has 2^18 states, over the cap; a word visits one
    # subset per prefix.
    hcs = checked_by(nth_from_last_guard(18))
    word = ["b"] * 5 + ["a"] + ["b"] * 17
    assert member(hcs, word, 100_000)
    assert not member(hcs, word[1:] + ["b"], 100_000)
    semantics = HcsSemantics(hcs, 100_000)
    assert semantics.accepts(word)
    assert len(semantics.trackers[0].configs) <= len(word) + 1


def random_pumping_cover_vass(rng):
    """A small cover VASS over {a, b} with at least one epsilon self-loop
    that raises a counter."""
    n = rng.randint(1, 3)
    dim = rng.randint(1, 2)
    transitions = [
        (rng.randrange(n), rng.choice((0, 1, None)), tuple(rng.choice((-1, 0, 1)) for _ in range(dim)), rng.randrange(n))
        for _ in range(rng.randint(1, 6))
    ]
    q = rng.randrange(n)
    transitions.append((q, None, tuple(rng.choice((0, 1)) for _ in range(dim - 1)) + (1,), q))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.5) or frozenset({n - 1})
    return Vass(AB, dim, tuple(f"v{i}" for i in range(n)), 0, accepting, tuple(dict.fromkeys(transitions)), COVER)


def test_cover_guards_with_pumping_epsilon_loops_match_backward_oracle():
    rng = random.Random(8128)
    for _ in range(60):
        vass = random_pumping_cover_vass(rng)
        gadget = build_intersection_nfa([vass])
        for word in all_words("ab", 4):
            expected = cover_vass_member(vass, word)
            assert member(gadget, word, 10_000) == expected, (vass, word)
            assert vass_accepts(vass, word, 10_000) == expected, (vass, word)
    for _ in range(20):
        first, second = random_pumping_cover_vass(rng), random_pumping_cover_vass(rng)
        gadget = build_intersection_nfa([first, second])
        for word in all_words("ab", 3):
            expected = cover_vass_member(first, word) and cover_vass_member(second, word)
            assert member(gadget, word, 10_000) == expected, (first, second, word)


def test_cover_antichain_keeps_maximal_omega_configurations():
    # p pumps its counter on epsilon; q keeps a copy that a b-move can spend.
    vass = Vass(
        AB, 1, ("p", "q"), 0, frozenset({1}),
        ((0, None, (1,), 0), (0, None, (0,), 1), (1, 1, (-1,), 1), (1, 0, (0,), 0)),
        COVER,
    )
    semantics = HcsSemantics(build_intersection_nfa([vass]))
    start = semantics.initial()
    runtime = semantics.products[semantics.configs[start][1]][0]
    assert runtime == frozenset({(0, (float("inf"),)), (1, (float("inf"),))})
    assert member(build_intersection_nfa([vass]), ["b"] * 50, 10)


def test_reach_guards_keep_explicit_configurations():
    guard = Vass(AB, 1, ("g",), 0, frozenset({0}), ((0, 0, (1,), 0), (0, 1, (-1,), 0)), REACH)
    semantics = HcsSemantics(build_intersection_nfa([guard]))
    d = semantics.step(semantics.step(semantics.initial(), "a"), "a")
    assert semantics.products[semantics.configs[d][1]][0] == frozenset({(0, (2,))})


def test_epsilon_closure_cap():
    # A +1 epsilon self-loop: reach mode must enumerate every counter value
    # and stops at the cap; cover mode closes it with (p, omega) after (p, 0).
    for mode in (REACH, COVER):
        vass = Vass(AB, 1, ("p",), 0, frozenset({0}), ((0, None, (1,), 0),), mode)
        if mode == REACH:
            with pytest.raises(ResourceLimitError, match="epsilon closure exceeded 50 configurations"):
                vass_accepts(vass, [], 50)
        else:
            assert vass_accepts(vass, [], 2)


def test_reach_epsilon_closure_cap_is_exact():
    # p spends its counter on epsilon and hands every value to q: from
    # (p, 3) the closure is (p, 3..0) and (q, 3..0).
    vass = Vass(AB, 1, ("p", "q"), 0, frozenset(), ((0, None, (-1,), 0), (0, None, (0,), 1)), REACH)
    root = [(0, (3,))]
    n = len(eps_closure_configs(vass, root))
    assert n == 8
    assert len(eps_closure_configs(vass, root, n)) == n
    with pytest.raises(ResourceLimitError, match=f"epsilon closure exceeded {n - 1} configurations"):
        eps_closure_configs(vass, root, n - 1)


def test_epsilon_closure_keeps_roots_beyond_the_cap():
    states = tuple(f"p{i}" for i in range(5))
    roots = [(q, (q,)) for q in range(5)]
    for mode in (REACH, COVER):
        closed = Vass(AB, 1, states, 0, frozenset(), ((0, 0, (1,), 1),), mode)
        assert eps_closure_configs(closed, roots, 2) == frozenset(roots)
    # In reach mode a root set at the cap leaves no room for a new configuration.
    opened = Vass(AB, 1, states, 0, frozenset(), ((4, None, (1,), 4),), REACH)
    with pytest.raises(ResourceLimitError, match="epsilon closure exceeded 2 configurations"):
        eps_closure_configs(opened, roots, 2)
