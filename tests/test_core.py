import random

import pytest

from hcs.automata import Alphabet, FiniteAutomaton, accepts, determinize, equivalent
from hcs.bench import cycle_dfa
from hcs.core import (
    Hcs,
    HcsSemantics,
    build_intersection_dfa,
    build_intersection_nfa,
    determinize_hcs,
    flatten_nested,
    hcs_size,
    is_empty,
    member,
    total_state_count,
)
from hcs.errors import InputError, ResourceLimitError, UnsupportedGuardError
from hcs.models import (
    AB,
    all_trivial_hcs,
    branching_empty_hcs,
    branching_nonempty_hcs,
    count_balanced_vass,
    four_eyes_hcs,
    guard_alternating,
    guard_contains_aa,
    guard_length_multiple_of_three,
    traffic_lights_hcs,
)

from oracles import HcsStepper, NfaStepper, all_words, languages_agree


def fixture_hcs_set():
    return {
        "branching_empty": branching_empty_hcs(),
        "branching_nonempty": branching_nonempty_hcs(),
        "four_eyes": four_eyes_hcs(),
        "traffic": traffic_lights_hcs(),
        "inter_nfa_c2_c3": build_intersection_nfa([cycle_dfa(2), cycle_dfa(3)]),
        "inter_dfa_c2_c3": build_intersection_dfa([cycle_dfa(2), cycle_dfa(3)]),
        "inter_empty": build_intersection_nfa([guard_contains_aa(), guard_alternating()]),
        "all_trivial": all_trivial_hcs(),
    }


class TestMember:
    def test_branching_nonempty_accepts_baaba(self):
        assert member(branching_nonempty_hcs(), list("baaba"))

    def test_branching_empty_rejects_everything_short(self):
        u1 = branching_empty_hcs()
        assert not any(member(u1, w) for w in all_words("ab", 10))

    def test_four_eyes(self):
        fe = four_eyes_hcs()
        assert member(fe, ["SubmitA", "Approve1", "Approve2", "CompleteA"])
        assert member(fe, ["SubmitB", "Approve2", "Approve1", "CompleteB"])
        assert not member(fe, ["SubmitA", "Approve1", "CompleteA"])
        assert not member(fe, ["SubmitA", "Approve1", "Approve2", "CompleteB"])

    def test_unknown_symbol(self):
        with pytest.raises(InputError, match="zz"):
            member(branching_nonempty_hcs(), ["zz"])

    def test_traffic_safety(self):
        tl = traffic_lights_hcs()
        assert member(tl, [])
        assert member(tl, ["t2_green"])
        assert not member(tl, ["t1_green", "t2_green"])
        assert member(tl, ["t1_green", "t1_orange", "t1_red", "t2_green"])
        # A word containing an unsafe green never recovers.
        assert not member(tl, ["t1_green", "t2_green", "t2_orange", "t2_red"])


class TestEmptiness:
    def test_branching_examples(self):
        assert is_empty(branching_empty_hcs())
        assert not is_empty(branching_nonempty_hcs())

    def test_no_accepting_states(self):
        underlying = FiniteAutomaton(AB, ("q",), 0, frozenset(), ((0, 0, 0),))
        assert is_empty(Hcs(AB, underlying, {}, {}))

    def test_agrees_with_determinization(self):
        from hcs.automata import is_empty as automaton_empty

        for name, hcs in fixture_hcs_set().items():
            assert is_empty(hcs) == automaton_empty(determinize_hcs(hcs)), name

    def test_vass_guard_rejected(self):
        underlying = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ((0, 0, 0),))
        hcs = Hcs(AB, underlying, {"g": count_balanced_vass()}, {0: "g"})
        with pytest.raises(UnsupportedGuardError):
            is_empty(hcs)

    def test_configuration_cap(self):
        with pytest.raises(ResourceLimitError):
            is_empty(four_eyes_hcs(), max_configs=2)


class TestDeterminizeHcs:
    def test_trivial_guards_equal_underlying(self):
        hcs = all_trivial_hcs()
        assert equivalent(determinize_hcs(hcs), determinize(hcs.underlying))

    def test_word_oracle_on_fixtures(self):
        for name, hcs in fixture_hcs_set().items():
            dfa = determinize_hcs(hcs)
            assert dfa.deterministic and dfa.is_complete(), name
            assert languages_agree(
                HcsStepper(hcs), NfaStepper(dfa), len(hcs.alphabet), 8
            ), name

    def test_intersection_gadget_equals_c6(self):
        gadget = build_intersection_nfa([cycle_dfa(2), cycle_dfa(3)])
        assert equivalent(determinize_hcs(gadget), determinize(cycle_dfa(6)))

    def test_reachable_state_bound(self):
        for name, hcs in fixture_hcs_set().items():
            dfa = determinize_hcs(hcs)
            bound = 2 ** total_state_count(hcs)
            assert len(dfa.states) <= bound, name

    def test_state_cap(self):
        with pytest.raises(ResourceLimitError):
            determinize_hcs(four_eyes_hcs(), max_states=3)

    def test_nested_guard_is_built_only_as_far_as_reached(self):
        # The inner system's whole DFA has 6 states, more than the cap, but
        # the outer DFA steps it only twice before its one move is spent.
        inner = build_intersection_nfa([cycle_dfa(2), cycle_dfa(3)])
        underlying = FiniteAutomaton(inner.alphabet, ("s", "t"), 0, frozenset({1}), ((0, 0, 1),))
        dfa = determinize_hcs(Hcs(inner.alphabet, underlying, {"six": inner}, {0: "six"}), max_states=3)
        assert dfa.transitions == ((0, 0, 1), (1, 0, 2), (2, 0, 2))

    def test_vass_guard_at_any_depth_rejected(self):
        underlying = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ((0, 0, 0),))
        inner = Hcs(AB, underlying, {"counter": count_balanced_vass()}, {0: "counter"})
        for hcs in (inner, Hcs(AB, underlying, {"nested": inner}, {0: "nested"})):
            with pytest.raises(UnsupportedGuardError, match="^determinization requires regular guards, got 'counter'$"):
                determinize_hcs(hcs)


class TestIntersectionGadgets:
    def test_nfa_gadget_language(self):
        gadget = build_intersection_nfa([cycle_dfa(2), cycle_dfa(3)])
        for n in range(13):
            assert member(gadget, ["a"] * n) == (n % 6 == 0)

    def test_single_guard_is_identity(self):
        guard = guard_contains_aa()
        gadget = build_intersection_nfa([guard])
        for word in all_words("ab", 8):
            assert member(gadget, word) == accepts(guard, word)

    def test_nfa_gadget_membership_matches_guards_exhaustively(self):
        guards = [guard_length_multiple_of_three(), guard_contains_aa()]
        gadget = build_intersection_nfa(guards)
        for word in all_words("ab", 8):
            expected = all(accepts(g, word) for g in guards)
            assert member(gadget, word) == expected

    def test_alternating_and_aa_is_empty(self):
        gadget = build_intersection_nfa([guard_contains_aa(), guard_alternating()])
        assert is_empty(gadget)

    def test_empty_list_needs_alphabet(self):
        with pytest.raises(InputError):
            build_intersection_nfa([])
        gadget = build_intersection_nfa([], alphabet=AB)
        for word in all_words("ab", 4):
            assert member(gadget, word)

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            build_intersection_nfa([cycle_dfa(2), guard_contains_aa()])

    def test_dfa_gadget_examples(self):
        gadget = build_intersection_dfa([cycle_dfa(2), cycle_dfa(3)])
        assert gadget.deterministic
        assert member(gadget, ["a"] * 6 + ["$", "$"])
        assert not member(gadget, ["a"] * 2 + ["$", "$"])
        assert not member(gadget, ["a"] * 6 + ["$"])
        assert not member(gadget, ["a"] * 6 + ["$", "$", "$"])

    def test_dfa_gadget_single_guard(self):
        gadget = build_intersection_dfa([cycle_dfa(2)])
        for n in range(9):
            assert member(gadget, ["a"] * n + ["$"]) == (n % 2 == 0)
            assert not member(gadget, ["a"] * n)

    def test_dfa_gadget_membership_matches_guards(self):
        guards = [guard_contains_aa(), guard_alternating()]
        gadget = build_intersection_dfa(guards)
        for word in all_words("ab", 8):
            expected = all(accepts(g, word) for g in guards)
            assert member(gadget, word + ["$", "$"]) == expected

    def test_dollar_collision(self):
        bad = FiniteAutomaton(Alphabet(("a", "$")), ("q",), 0, frozenset({0}), ())
        with pytest.raises(InputError):
            build_intersection_dfa([bad])

    def test_gadget_size_linear_in_guards(self):
        guards = [cycle_dfa(p) for p in (2, 3, 5)]
        gadget = build_intersection_nfa(guards)
        assert hcs_size(gadget) <= 8 * 3 + sum(g.size() for g in guards)


def nested_gadget_hcs():
    """Depth-2 HCS: the inner intersection gadget used as a guard."""
    inner = build_intersection_nfa([cycle_dfa(2), cycle_dfa(3)])
    alpha = inner.alphabet
    underlying = FiniteAutomaton(
        alpha, ("w", "acc"), 0, frozenset({1}), ((0, 0, 0), (0, None, 1), (1, 0, 1))
    )
    return Hcs(alpha, underlying, {"six": inner}, {1: "six"})


class TestFlattenNested:
    def test_depth_one_unchanged(self):
        hcs = branching_nonempty_hcs()
        assert flatten_nested(hcs) is hcs

    def test_depth_two_language_preserved(self):
        nested = nested_gadget_hcs()
        flat = flatten_nested(nested)
        assert all(
            not isinstance(g, Hcs) for g in flat.guards.values()
        )
        assert languages_agree(HcsStepper(nested), HcsStepper(flat), len(nested.alphabet), 8)

    def test_traffic_flattens_and_agrees(self):
        tl = traffic_lights_hcs()
        flat = flatten_nested(tl)
        assert languages_agree(HcsStepper(tl), HcsStepper(flat), len(tl.alphabet), 4)

    def test_exponential_bound_on_generated_depth_two(self):
        rng = random.Random(2024)
        for _ in range(12):
            hcs = random_depth_two_hcs(rng)
            assert total_state_count(hcs) <= 12
            dfa = determinize_hcs(flatten_nested(hcs))
            assert len(dfa.states) <= 2 ** total_state_count(hcs)


def random_depth_two_hcs(rng):
    """Small random HCS whose guards are themselves guarded systems."""

    def random_dfa(n):
        transitions = []
        for q in range(n):
            for a in range(2):
                transitions.append((q, a, rng.randrange(n)))
        return FiniteAutomaton(
            AB,
            tuple(f"g{i}" for i in range(n)),
            0,
            frozenset({rng.randrange(n)}),
            tuple(transitions),
        )

    def random_inner(n_states):
        inner_guard = random_dfa(rng.randint(1, 2))
        transitions = []
        guarded = {}
        for q in range(n_states):
            for a in range(2):
                if rng.random() < 0.8:
                    idx = len(transitions)
                    transitions.append((q, a, rng.randrange(n_states)))
                    if rng.random() < 0.5:
                        guarded[idx] = "ig"
        underlying = FiniteAutomaton(
            AB,
            tuple(f"i{i}" for i in range(n_states)),
            0,
            frozenset({rng.randrange(n_states)}),
            tuple(transitions),
        )
        return Hcs(AB, underlying, {"ig": inner_guard}, guarded)

    inner = random_inner(rng.randint(1, 2))
    outer_states = rng.randint(1, 3)
    transitions = []
    guarded = {}
    for q in range(outer_states):
        for a in range(2):
            if rng.random() < 0.8:
                idx = len(transitions)
                transitions.append((q, a, rng.randrange(outer_states)))
                if rng.random() < 0.5:
                    guarded[idx] = "nested"
    underlying = FiniteAutomaton(
        AB,
        tuple(f"o{i}" for i in range(outer_states)),
        0,
        frozenset({rng.randrange(outer_states)}),
        tuple(transitions),
    )
    return Hcs(AB, underlying, {"nested": inner}, guarded)


class TestRandomizedDeterminization:
    def test_random_guarded_systems_agree_with_member(self):
        rng = random.Random(555)
        for _ in range(60):
            hcs = random_guarded_hcs(rng)
            dfa = determinize_hcs(hcs)
            assert languages_agree(HcsStepper(hcs), NfaStepper(dfa), 2, 8)
            from hcs.automata import is_empty as automaton_empty

            assert is_empty(hcs) == automaton_empty(dfa)


def random_guarded_hcs(rng):
    def rand_nfa(n, eps_prob):
        labels = [0, 1, None]
        transitions = set()
        for _ in range(rng.randint(n, 3 * n)):
            label = rng.choice(labels) if rng.random() < eps_prob else rng.choice([0, 1])
            transitions.add((rng.randrange(n), label, rng.randrange(n)))
        return FiniteAutomaton(
            AB,
            tuple(f"q{i}" for i in range(n)),
            0,
            frozenset(q for q in range(n) if rng.random() < 0.4),
            tuple(sorted(transitions, key=lambda t: (t[0], -1 if t[1] is None else t[1], t[2]))),
        )

    underlying = rand_nfa(rng.randint(1, 4), eps_prob=0.25)
    guards = {f"g{i}": rand_nfa(rng.randint(1, 3), eps_prob=0.2) for i in range(rng.randint(0, 2))}
    guarded = {}
    if guards:
        for t in range(len(underlying.transitions)):
            if rng.random() < 0.5:
                guarded[t] = rng.choice(sorted(guards))
    return Hcs(AB, underlying, guards, guarded)


class TestConfigurationSemantics:
    def test_guard_states_depend_only_on_sigma_projection(self):
        # The four-eyes model moves through guarded epsilon transitions;
        # guard runtimes must match stepping the guard DFAs on the word alone.
        hcs = four_eyes_hcs()
        semantics = HcsSemantics(hcs)
        word = ["SubmitA", "Approve2", "Approve1", "CompleteA"]
        d = semantics.initial()
        for i, sym in enumerate(word):
            d = semantics.step(d, sym)
            _, p = semantics.configs[d]
            for name, tracker, state in zip(
                semantics.names, semantics.trackers, semantics.products[p]
            ):
                expected = tracker.initial()
                for s in word[: i + 1]:
                    expected = tracker.step(expected, hcs.alphabet.index(s))
                assert state == expected, name

    def test_trivial_guard_table_erasure(self):
        hcs = all_trivial_hcs()
        for word in all_words("ab", 6):
            assert member(hcs, word) == accepts(hcs.underlying, word)

    def test_deterministic_hcs_keeps_singleton_configs(self):
        gadget = build_intersection_dfa([cycle_dfa(2), cycle_dfa(3)])
        assert gadget.deterministic
        semantics = HcsSemantics(gadget)
        d = semantics.initial()
        for sym in ["a", "a", "$", "$"]:
            assert len(semantics.configs[d][0]) <= 1
            d = semantics.step(d, sym)
