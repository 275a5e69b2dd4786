import glob
import itertools
import os
import random

import pytest

from hcs import formats
from hcs.automata import (
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
from hcs.bench import cycle_dfa, prime_family
from hcs.core import Hcs, build_intersection_nfa, determinize_hcs, guard_kind
from hcs.errors import ContractError, InputError, ResourceLimitError
from hcs.games import HcsGame
from hcs.models import guard_contains_aa, guard_length_multiple_of_three

from oracles import (
    NfaStepper,
    _reference_subset_dfa,
    all_words,
    first_disagreement,
    reference_determinize,
    reference_equivalence,
    reference_minimize,
)

AB = Alphabet(("a", "b"))


def random_nfa(rng, n_states, n_symbols=2, eps=False):
    states = tuple(f"q{i}" for i in range(n_states))
    labels = list(range(n_symbols)) + ([None] if eps else [])
    transitions = set()
    for _ in range(rng.randint(n_states, 3 * n_states)):
        transitions.add(
            (rng.randrange(n_states), rng.choice(labels), rng.randrange(n_states))
        )
    accepting = frozenset(q for q in range(n_states) if rng.random() < 0.4)
    return FiniteAutomaton(
        alphabet=Alphabet(tuple("abc"[:n_symbols])),
        states=states,
        initial=0,
        accepting=accepting,
        transitions=tuple(sorted(transitions, key=lambda t: (t[0], -1 if t[1] is None else t[1], t[2]))),
    )


def random_dfa(rng, n_states, n_symbols):
    """A DFA with some moves missing and, from a random initial state, often
    some states unreachable."""
    transitions = tuple(
        (q, a, rng.randrange(n_states))
        for q in range(n_states)
        for a in range(n_symbols)
        if rng.random() < 0.85
    )
    return FiniteAutomaton(
        alphabet=Alphabet(tuple("abc"[:n_symbols])),
        states=tuple(f"q{i}" for i in range(n_states)),
        initial=rng.randrange(n_states),
        accepting=frozenset(q for q in range(n_states) if rng.random() < 0.4),
        transitions=transitions,
    )


def random_automaton(rng, n_symbols):
    """A DFA as in ``random_dfa`` or an NFA with epsilon moves, evenly."""
    if rng.random() < 0.5:
        return random_dfa(rng, rng.randint(1, 8), n_symbols)
    return random_nfa(rng, rng.randint(1, 5), n_symbols, eps=True)


def fields(automaton):
    return automaton.states, automaton.initial, automaton.accepting, automaton.transitions


class TestAlphabet:
    def test_rejects_duplicates(self):
        with pytest.raises(InputError):
            Alphabet(("a", "a"))

    def test_rejects_eps(self):
        with pytest.raises(InputError):
            Alphabet(("a", "eps"))

    def test_unknown_symbol_is_named(self):
        with pytest.raises(InputError, match="zzz"):
            AB.index("zzz")


class TestValidation:
    def test_duplicate_transition_rejected(self):
        with pytest.raises(InputError):
            FiniteAutomaton(AB, ("q",), 0, frozenset(), ((0, 0, 0), (0, 0, 0)))

    def test_deterministic_flag(self):
        dfa = cycle_dfa(3)
        assert dfa.deterministic
        nfa = guard_contains_aa()
        assert not nfa.deterministic

    def test_size_measure(self):
        assert cycle_dfa(5).size() == 10


class TestAccepts:
    def test_cycle_three(self):
        c3 = cycle_dfa(3)
        assert accepts(c3, ["a", "a", "a"])
        assert not accepts(c3, ["a", "a"])

    def test_empty_word_initial_accepting(self):
        assert accepts(cycle_dfa(3), [])

    def test_contains_aa_nfa(self):
        assert accepts(guard_contains_aa(), ["b", "a", "a", "b"])
        assert not accepts(guard_contains_aa(), ["a", "b", "a", "b"])

    def test_unknown_symbol(self):
        with pytest.raises(InputError, match="c"):
            accepts(cycle_dfa(2), ["c"])


class TestDeterminize:
    def test_deterministic_complete_input(self):
        dfa = complete(cycle_dfa(3))
        out = determinize(dfa)
        assert out.deterministic and out.is_complete()
        assert len(out.states) <= len(dfa.states)
        assert equivalent(dfa, out)

    def test_two_state_nfa_two_subsets(self):
        # (a|b)*a: stays in q0 on everything, guesses the final a.
        nfa = FiniteAutomaton(AB, ("q0", "q1"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 0), (0, 0, 1)))
        out = determinize(nfa)
        assert len(out.states) == 2

    def test_mod3_guard_word_oracle(self):
        nfa = guard_length_multiple_of_three()
        out = determinize(nfa)
        for word in all_words("ab", 8):
            assert accepts(nfa, word) == accepts(out, word)

    def test_epsilon_closure_at_start(self):
        nfa = FiniteAutomaton(AB, ("q0", "q1"), 0, frozenset({1}), ((0, None, 1), (1, 0, 1)))
        out = determinize(nfa)
        assert accepts(out, []) and accepts(out, ["a"]) and not accepts(out, ["b"])

    def test_random_nfas_agree_with_subset_oracle(self):
        rng = random.Random(7)
        for _ in range(60):
            nfa = random_nfa(rng, rng.randint(1, 5), eps=rng.random() < 0.5)
            out = determinize(nfa)
            assert out.deterministic and out.is_complete()
            assert len(out.states) <= 2 ** len(nfa.states)
            disagreement = first_disagreement(
                NfaStepper(nfa), NfaStepper(out), len(nfa.alphabet), 8
            )
            assert disagreement is None

    def test_state_cap(self):
        rng = random.Random(1)
        nfa = random_nfa(rng, 8)
        with pytest.raises(ResourceLimitError):
            determinize(nfa, max_states=1)


class TestMinimize:
    def test_requires_deterministic(self):
        with pytest.raises(ContractError):
            minimize(guard_contains_aa())

    def test_idempotent(self):
        rng = random.Random(13)
        for _ in range(20):
            dfa = determinize(random_nfa(rng, rng.randint(1, 4)))
            once = minimize(dfa)
            assert minimize(once) == once

    def test_structurally_canonical_for_equal_languages(self):
        # Two different-shaped DFAs for a*: a single loop and a two-state loop.
        one = FiniteAutomaton(Alphabet(("a",)), ("s",), 0, frozenset({0}), ((0, 0, 0),))
        two = FiniteAutomaton(
            Alphabet(("a",)), ("s", "t"), 0, frozenset({0, 1}), ((0, 0, 1), (1, 0, 0))
        )
        assert minimize(one) == minimize(two)

    def test_all_pairs_distinguishable(self):
        rng = random.Random(23)
        for _ in range(20):
            dfa = determinize(random_nfa(rng, rng.randint(1, 5)))
            small = minimize(dfa)
            assert equivalent(dfa, small)
            delta = {(s, a): d for s, a, d in small.transitions}
            for p in range(len(small.states)):
                for q in range(p + 1, len(small.states)):
                    assert self._distinguishing_word(small, delta, p, q) is not None

    @staticmethod
    def _distinguishing_word(dfa, delta, p, q):
        from collections import deque

        seen = {(p, q)}
        queue = deque([((p, q), [])])
        while queue:
            (x, y), word = queue.popleft()
            if (x in dfa.accepting) != (y in dfa.accepting):
                return word
            for a in range(len(dfa.alphabet)):
                pair = (delta[(x, a)], delta[(y, a)])
                if pair not in seen:
                    seen.add(pair)
                    queue.append((pair, word + [a]))
        return None


class TestEmptiness:
    def test_no_accepting_states(self):
        auto = FiniteAutomaton(AB, ("q",), 0, frozenset(), ((0, 0, 0),))
        assert is_empty(auto)

    def test_cycle_accepts_epsilon(self):
        assert not is_empty(cycle_dfa(3))

    def test_unreachable_accepting_state(self):
        auto = FiniteAutomaton(AB, ("q", "island"), 0, frozenset({1}), ((0, 0, 0),))
        assert is_empty(auto)
        for word in all_words("ab", 2):
            assert not accepts(auto, word)

    def test_matches_bounded_brute_force(self):
        rng = random.Random(99)
        for _ in range(40):
            nfa = random_nfa(rng, rng.randint(1, 4), eps=True)
            brute = any(accepts(nfa, w) for w in all_words("ab", len(nfa.states)))
            assert is_empty(nfa) == (not brute)


class TestEquivalence:
    def test_reflexive(self):
        assert equivalent(guard_contains_aa(), guard_contains_aa())

    def test_nfa_equivalent_to_its_dfa(self):
        nfa = guard_contains_aa()
        assert equivalent(nfa, determinize(nfa))

    def test_cycles_distinguished_by_shortest_word(self):
        c2, c3 = cycle_dfa(2), cycle_dfa(3)
        assert not equivalent(c2, c3)
        assert equivalence_counterexample(c2, c3) == ["a", "a"]

    def test_alphabet_mismatch(self):
        with pytest.raises(InputError):
            equivalent(cycle_dfa(2), guard_contains_aa())

    def test_symmetric_and_matches_word_comparison(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_nfa(rng, rng.randint(1, 3))
            b = random_nfa(rng, rng.randint(1, 3))
            verdict = equivalent(a, b)
            assert verdict == equivalent(b, a)
            words_agree = all(accepts(a, w) == accepts(b, w) for w in all_words("ab", 8))
            assert verdict == words_agree


class TestDifferential:
    """``determinize``, ``accepts``, ``is_empty``, ``minimize`` and
    ``equivalence_counterexample`` against the subset, Moore and
    determinize-both references of oracles.py, on seeded random automata."""

    def test_determinize_matches_reference_subset_construction(self):
        rng = random.Random(1401)
        for _ in range(1000):
            n_sym = rng.randint(1, 3)
            nfa = random_nfa(rng, rng.randint(1, 6), n_sym, eps=True)
            delta, accepting, subsets = _reference_subset_dfa(nfa, 1_000_000)
            dfa = determinize(nfa)
            names = tuple("{" + " ".join(nfa.states[q] for q in sorted(s)) + "}" for s in subsets)
            assert dfa.states == names, nfa
            assert dfa.initial == 0
            assert dfa.transitions == tuple((d, a, delta[(d, a)]) for d in range(len(subsets)) for a in range(n_sym))
            assert dfa.accepting == frozenset(accepting)

            stepper = NfaStepper(nfa)
            for _ in range(8):
                word = [rng.randrange(n_sym) for _ in range(rng.randint(0, 8))]
                subset = stepper.initial()
                for a in word:
                    subset = stepper.step(subset, a)
                assert accepts(nfa, [nfa.alphabet.symbols[a] for a in word]) == stepper.accepting(subset)
            reached = {stepper.initial()}
            todo = list(reached)
            while todo:
                subset = todo.pop()
                for a in range(n_sym):
                    nxt = stepper.step(subset, a)
                    if nxt not in reached:
                        reached.add(nxt)
                        todo.append(nxt)
            assert is_empty(nfa) == (not any(map(stepper.accepting, reached)))

    def test_minimize_matches_moore_refinement(self):
        rng = random.Random(1301)
        for _ in range(1200):
            dfa = random_dfa(rng, rng.randint(1, 9), rng.randint(1, 3))
            small = minimize(dfa)
            assert fields(small) == reference_minimize(dfa), dfa
            assert small.deterministic

    def test_equivalence_matches_determinize_both(self):
        rng = random.Random(1302)
        for i in range(1200):
            n_sym = rng.randint(1, 3)
            a = random_automaton(rng, n_sym)
            if i % 3 == 0:
                b = random_automaton(rng, n_sym)
            else:
                b = minimize(a) if a.deterministic else determinize(a)
                if i % 3 == 2:
                    # Flip one state's acceptance: often equal, else a long witness.
                    flip = frozenset({rng.randrange(len(b.states))})
                    b = FiniteAutomaton(b.alphabet, b.states, b.initial, b.accepting ^ flip, b.transitions)
                if rng.random() < 0.5:
                    a, b = b, a
            assert equivalence_counterexample(a, b) == reference_equivalence(a, b), (a, b)

    def test_caps_bind_at_the_same_state_count(self):
        rng = random.Random(1303)
        for _ in range(300):
            n_sym = rng.randint(1, 3)
            dfa = random_dfa(rng, rng.randint(1, 9), n_sym)
            n = len(dfa.states) + (not dfa.is_complete())
            assert fields(minimize(dfa, n)) == reference_minimize(dfa, n)
            for check in (minimize, reference_minimize):
                with pytest.raises(ResourceLimitError, match="minimization input exceeds"):
                    check(dfa, n - 1)

            a, b = random_automaton(rng, n_sym), random_automaton(rng, n_sym)
            for cap in itertools.count(1):
                try:
                    expected = reference_equivalence(a, b, cap)
                    break
                except ResourceLimitError:
                    pass
            assert equivalence_counterexample(a, b, cap) == expected
            if cap > 1:
                with pytest.raises(ResourceLimitError, match=f"state cap of {cap - 1}$"):
                    equivalence_counterexample(a, b, cap - 1)

            gadget = build_intersection_nfa([a, b])
            for build, source, n in (
                (determinize, a, len(_reference_subset_dfa(a, 1_000_000)[2])),
                (determinize_hcs, gadget, len(reference_determinize(gadget)[0])),
            ):
                assert len(build(source, n).states) == n
                if n > 1:
                    with pytest.raises(ResourceLimitError, match=f"determinization exceeded the state cap of {n - 1}$"):
                        build(source, n - 1)


MODELS = os.path.join(os.path.dirname(__file__), "..", "models")


def _library_results():
    """Every automaton that determinize, determinize_hcs, minimize and complete
    build from the shipped models and from prime_family(1..5)."""
    hcss = [prime_family(k) for k in range(1, 6)]
    for path in sorted(glob.glob(os.path.join(MODELS, "*.json"))):
        model = formats.load_path(path)
        model = model.hcs if isinstance(model, HcsGame) else model
        if isinstance(model, Hcs):
            hcss.append(model)
    automata = []
    for hcs in hcss:
        automata.append(hcs.underlying)
        automata += [g for g in hcs.guards.values() if isinstance(g, FiniteAutomaton)]
        if all(guard_kind(g) != "vass" for g in hcs.guards.values()):
            dfa = determinize_hcs(hcs)
            yield dfa
            yield minimize(dfa)
    for automaton in automata:
        dfa = determinize(automaton)
        yield from (complete(automaton), dfa, minimize(dfa))
        if automaton.deterministic:
            yield minimize(automaton)


def test_library_results_pass_validation_unchanged():
    count = 0
    for built in _library_results():
        rebuilt = FiniteAutomaton(built.alphabet, built.states, built.initial, built.accepting, built.transitions)
        assert rebuilt == built
        assert rebuilt.deterministic == built.deterministic
        count += 1
    assert count >= 90


def test_prime_family_6_minimizes_to_l_plus_k_plus_1():
    """L = 2 * 3 * 5 * 7 * 11 * 13 = 30,030 residues, k = 6 delimiters and a sink."""
    dfa = determinize_hcs(prime_family(6))
    small = minimize(dfa)
    assert len(dfa.states) == 30_094
    assert len(small.states) == 30_030 + 6 + 1
    assert equivalence_counterexample(dfa, small) is None
