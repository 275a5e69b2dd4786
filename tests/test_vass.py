import json
import os
import random

import pytest

from hcs import cli, formats
from hcs.automata import Alphabet, FiniteAutomaton
from hcs.core import Hcs, member
from hcs.errors import ContractError, InputError, ResourceLimitError, UnsupportedGuardError
from hcs.models import AB, count_balanced_vass, six_state_two_counter_machine
from hcs.vass import (
    COVER,
    REACH,
    CoverabilityInstance,
    Vass,
    bounded_accepted_word,
    decide_coverability,
    replay_transitions,
    vass_accepts,
)
from hcs.vassguards import (
    ACTIONS,
    TwoCounterMachine,
    bounded_reach_empty,
    complete_vass,
    delimited_star_hcs,
    hcs_cover_empty,
    product_vass,
    two_cm_to_hcs,
    two_counter_run_words,
)

from oracles import (
    HcsStepper,
    VassStepper,
    accepted_words,
    all_words,
    brute_force_coverable,
    first_disagreement,
    reference_product_vass,
    vass_accepts_brute,
)

DATA = os.path.join(os.path.dirname(__file__), "data")


def counting_guard() -> Vass:
    """Non-dying cover guard: accepting once an 'a' has been read."""
    return Vass(
        alphabet=AB,
        dim=1,
        states=("zero", "pos"),
        initial=0,
        accepting=frozenset({1}),
        transitions=(
            (0, 0, (1,), 1),
            (0, 1, (0,), 0),
            (1, 0, (1,), 1),
            (1, 1, (0,), 1),
        ),
        mode=COVER,
    )


def guarded_chain_hcs(guard: Vass) -> Hcs:
    """Two-state system whose only accepting move is guarded."""
    underlying = FiniteAutomaton(
        AB, ("wait", "done"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1))
    )
    return Hcs(AB, underlying, {"g": guard}, {1: "g"})


class TestVassBasics:
    def test_validation(self):
        with pytest.raises(InputError):
            Vass(AB, 0, ("q",), 0, frozenset(), (), COVER)
        with pytest.raises(InputError):
            Vass(AB, 1, ("q",), 0, frozenset(), ((0, 0, (1, 1), 0),), COVER)
        with pytest.raises(InputError):
            Vass(AB, 1, ("q",), 0, frozenset(), (), "maybe")
        with pytest.raises(InputError, match=r"update vector \(True,\) must hold 1 integers"):
            Vass(AB, 1, ("q",), 0, frozenset(), ((0, 0, (True,), 0),), COVER)

    @pytest.mark.parametrize(
        "states, initial, accepting, moves, message",
        [
            (("p", "p"), 0, {0}, [(0, 0, 1)], "duplicate state names"),
            (("p", "q"), 2, {0}, [(0, 0, 1)], "initial state index 2 out of range"),
            (("p", "q"), 0, {5}, [(0, 0, 1)], "accepting state index 5 out of range"),
            (("p", "q"), 0, {0}, [(0, 0, 3)], "transition (0, 0, 3) has an out-of-range state"),
            (("p", "q"), 0, {0}, [(0, 2, 1)], "transition label index 2 out of range"),
            (("p", "q"), 0, {0}, [(0, 0, 1), (1, 1, 0), (0, 0, 1)], "duplicate transition (0, 0, 1)"),
        ],
        ids=["state names", "initial", "accepting", "endpoint", "label", "transition twice"],
    )
    def test_automaton_and_vass_share_the_control_rule(self, states, initial, accepting, moves, message):
        with pytest.raises(InputError) as automaton_error:
            FiniteAutomaton(AB, states, initial, frozenset(accepting), tuple(moves))
        vass_moves = tuple((src, label, (1,), dst) for src, label, dst in moves)
        with pytest.raises(InputError) as vass_error:
            Vass(AB, 1, states, initial, frozenset(accepting), vass_moves, COVER)
        assert str(automaton_error.value) == str(vass_error.value) == message

    def test_transition_listed_twice_is_refused(self, tmp_path, capsys):
        moves = ((0, 0, (1,), 0), (0, 0, (1,), 0), (0, 1, (0,), 0))
        with pytest.raises(InputError, match=r"duplicate transition \(0, 0, 0\)"):
            Vass(AB, 1, ("g",), 0, frozenset({0}), moves, COVER)
        guard = Vass(AB, 1, ("g",), 0, frozenset({0}), moves[1:], COVER)
        assert guard.deterministic
        hcs = guarded_chain_hcs(guard)
        assert hcs_cover_empty(hcs, "product", assume_non_dying=True) == hcs_cover_empty(hcs, "onthefly")
        doc = formats.to_document(guard)
        doc["transitions"].insert(0, doc["transitions"][0])
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["fmt", "--model", str(path)]) == 2
        assert "duplicate transition" in capsys.readouterr().err

    def test_deterministic_flag(self):
        v = count_balanced_vass()
        assert not v.deterministic  # it has an epsilon move
        d = counting_guard()
        assert d.deterministic

    def test_unary_size(self):
        v = Vass(AB, 2, ("q",), 0, frozenset(), ((0, 0, (3, -2), 0), (0, 1, (0, 0), 0)), COVER)
        assert v.unary_size() == 1 + 3 + 1

    def test_accepts_count_balanced_language(self):
        v = count_balanced_vass()
        assert vass_accepts(v, ["a", "a", "b"])
        assert not vass_accepts(v, ["a", "b", "b"])
        for word in all_words("ab", 6):
            n_a = 0
            expected = True
            seen_b = False
            for sym in word:
                if sym == "a":
                    if seen_b:
                        expected = False
                    n_a += 1
                else:
                    seen_b = True
            count_b = sum(1 for s in word if s == "b")
            expected = expected and count_b <= n_a
            assert vass_accepts(v, word) == expected, word

    def test_reach_mode_counter_tracker(self):
        alpha = Alphabet(ACTIONS)
        tracker = Vass(
            alpha,
            1,
            ("g",),
            0,
            frozenset({0}),
            tuple(
                (0, alpha.index(a), (1,) if a == "inc1" else (-1,) if a == "dec1" else (0,), 0)
                for a in ACTIONS
            ),
            mode=REACH,
        )
        assert vass_accepts(tracker, ["inc1", "dec1"])
        assert not vass_accepts(tracker, ["inc1"])

    def test_monotonicity_of_cover_acceptance(self):
        rng = random.Random(11)
        for _ in range(30):
            vass = random_cover_vass(rng)
            stepper = VassStepper(vass)
            for word in all_words("ab", 3):
                # accepted from (q, x) implies accepted from any bigger start
                base = frozenset({(vass.initial, (0,) * vass.dim)})
                raised = frozenset({(vass.initial, (1,) * vass.dim)})
                run_base = base
                run_up = raised
                ok_base = ok_up = None
                for sym in word:
                    a = vass.alphabet.index(sym)
                    run_base = stepper.step(run_base, a)
                    run_up = stepper.step(run_up, a)
                if stepper.accepting(run_base):
                    assert stepper.accepting(run_up), (vass, word)


def random_cover_vass(rng, n_states=3, dim=2):
    transitions = []
    for _ in range(rng.randint(2, 6)):
        transitions.append(
            (
                rng.randrange(n_states),
                rng.choice([0, 1, None]),
                tuple(rng.choice([-1, 0, 1]) for _ in range(dim)),
                rng.randrange(n_states),
            )
        )
    # avoid effectful epsilon self-cycles blowing up closures
    transitions = [
        t for t in transitions if not (t[1] is None and t[0] == t[3] and any(u > 0 for u in t[2]))
    ]
    seen = set()
    unique = []
    for t in transitions:
        if t not in seen:
            seen.add(t)
            unique.append(t)
    return Vass(
        alphabet=AB,
        dim=dim,
        states=tuple(f"v{i}" for i in range(n_states)),
        initial=0,
        accepting=frozenset({rng.randrange(n_states)}),
        transitions=tuple(unique),
        mode=COVER,
    )


class TestCoverability:
    def test_increment_then_decrement(self):
        vass = Vass(
            AB, 1, ("q", "t"), 0, frozenset({1}), ((0, 0, (1,), 0), (0, 1, (-1,), 1)), COVER
        )
        for engine in ("km", "backward"):
            result = decide_coverability(CoverabilityInstance(vass, 0, 1, (0,)), engine)
            assert result.coverable
            state, counters = replay_transitions(vass, (0, (0,)), result.witness)
            assert state == 1 and counters >= (0,)

    def test_first_step_would_go_negative(self):
        vass = Vass(AB, 1, ("q", "t"), 0, frozenset({1}), ((0, 1, (-1,), 1),), COVER)
        for engine in ("km", "backward"):
            assert not decide_coverability(CoverabilityInstance(vass, 0, 1, (0,)), engine).coverable

    def test_witness_requires_pumping(self):
        vass = Vass(
            AB, 1, ("q", "t"), 0, frozenset({1}), ((0, 0, (1,), 0), (0, 1, (0,), 1)), COVER
        )
        result = decide_coverability(CoverabilityInstance(vass, 0, 1, (5,)), "km")
        assert result.coverable
        state, counters = replay_transitions(vass, (0, (0,)), result.witness)
        assert state == 1 and counters[0] >= 5

    def test_backward_skips_elements_pruned_while_queued(self):
        # Backward from (t, 1): q gets (1,) and p gets (3,), queued in that
        # order. Expanding q gives p the smaller (1,), which prunes the queued
        # (3,); it is skipped when dequeued, so only (t, 1), (q, 1), (p, 1)
        # and (s, 0) are expanded. Expanding (p, 3) too would count 6.
        vass = Vass(
            AB, 1, ("s", "p", "q", "t"), 0, frozenset({3}),
            ((2, 0, (0,), 3), (1, 0, (-2,), 3), (1, 1, (0,), 2), (0, 0, (1,), 1)),
            COVER,
        )
        result = decide_coverability(CoverabilityInstance(vass, 0, 3, (1,)), "backward")
        assert result.coverable and result.nodes_explored == 4
        assert result.witness == (3, 2, 0)
        state, counters = replay_transitions(vass, (0, (0,)), result.witness)
        assert state == 3 and counters[0] >= 1

    def test_node_cap_is_validated_for_both_engines(self):
        vass = count_balanced_vass()
        instance = CoverabilityInstance(vass, 0, 1, (0,))
        for engine in ("km", "backward"):
            for cap in (0, -1):
                with pytest.raises(InputError, match=f"node cap must be at least 1, got {cap}"):
                    decide_coverability(instance, engine, node_cap=cap)
        with pytest.raises(ResourceLimitError, match="backward coverability exceeded 1 elements"):
            decide_coverability(instance, "backward", node_cap=1)

    @pytest.mark.parametrize("engine", ["km", "backward"])
    @pytest.mark.parametrize("source, target", [(0, 5), (7, 1), (-1, 1), (0, -1), (2, 0)])
    def test_state_indices_are_validated(self, engine, source, target):
        # count_balanced_vass has two states: an index outside [0, 2) used to
        # be answered "not coverable", raise IndexError, or wrap around.
        with pytest.raises(InputError, match="must be state indices below 2"):
            decide_coverability(CoverabilityInstance(count_balanced_vass(), source, target, (0,)), engine)

    def test_engines_agree_with_brute_force(self):
        rng = random.Random(424242)
        checked = 0
        while checked < 200:
            vass = random_cover_vass(rng, n_states=rng.randint(1, 4))
            # coverability ignores labels; keep the instance small
            target = rng.randrange(len(vass.states))
            target_counters = (rng.choice([0, 0, 1, 2]), rng.choice([0, 0, 1]))
            instance = CoverabilityInstance(vass, 0, target, target_counters)
            km = decide_coverability(instance, "km")
            backward = decide_coverability(instance, "backward")
            brute = brute_force_coverable(vass, 0, target, target_counters, 16)
            assert km.coverable == backward.coverable == brute, (vass, target, target_counters)
            for result in (km, backward):
                if result.coverable:
                    state, counters = replay_transitions(vass, (0, (0,) * vass.dim), result.witness)
                    assert state == target
                    assert all(c >= t for c, t in zip(counters, target_counters))
            checked += 1

    def test_bounded_word_search(self):
        vass = count_balanced_vass()
        assert bounded_accepted_word(vass, 0) == []
        reach = Vass(AB, 1, ("q",), 0, frozenset({0}), ((0, 0, (1,), 0),), REACH)
        assert bounded_accepted_word(reach, 3) == []

    def test_bounded_word_search_finds_the_shortest_word(self):
        # Random VASS whose epsilon moves never raise a counter, so the
        # brute-force run search terminates; each also runs in reach mode.
        rng = random.Random(1357)
        for _ in range(60):
            cover = random_cover_vass(rng, n_states=rng.randint(1, 3), dim=rng.randint(1, 2))
            moves = tuple(t for t in cover.transitions if t[1] is not None or all(u <= 0 for u in t[2]))
            for mode in (COVER, REACH):
                vass = Vass(AB, cover.dim, cover.states, 0, cover.accepting, moves, mode)
                for max_len in (0, 2, 4):
                    word = bounded_accepted_word(vass, max_len)
                    shorter = max_len if word is None else len(word) - 1
                    assert not any(vass_accepts_brute(vass, w) for w in all_words("ab", shorter)), vass
                    assert word is None or vass_accepts_brute(vass, word), (vass, word)

    def test_negative_max_len_is_input_error(self):
        underlying = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ())
        for search in (
            lambda n: bounded_accepted_word(count_balanced_vass(), n),
            lambda n: bounded_reach_empty(Hcs(AB, underlying, {}, {}), n),
        ):
            assert search(0) is not None
            with pytest.raises(InputError, match="word-length bound must be non-negative, got -1"):
                search(-1)

    def test_bounded_word_search_honours_its_cap(self):
        # Layer d holds the d + 1 counter vectors of length-d words, and the
        # accepting state is unreachable, so 60 layers count 1,890 of them.
        loops = ((0, 0, (1, 0), 0), (0, 1, (0, 1), 0))
        vass = Vass(AB, 2, ("p", "q"), 0, frozenset({1}), loops, REACH)
        assert bounded_accepted_word(vass, 60, 1890) is None
        with pytest.raises(ResourceLimitError, match="bounded search exceeded 1889 configurations"):
            bounded_accepted_word(vass, 60, 1889)

    def test_engines_with_larger_updates_and_targets(self):
        rng = random.Random(99991)
        for _ in range(80):
            n = rng.randint(1, 4)
            dim = rng.randint(1, 3)
            transitions = tuple(
                dict.fromkeys(
                    (
                        rng.randrange(n),
                        rng.choice((0, 1)),
                        tuple(rng.choice((-2, -1, 0, 1, 2)) for _ in range(dim)),
                        rng.randrange(n),
                    )
                    for _ in range(rng.randint(1, 9))
                )
            )
            vass = Vass(
                AB, dim, tuple(f"s{i}" for i in range(n)), 0, frozenset({n - 1}),
                transitions, COVER,
            )
            target = rng.randrange(n)
            target_counters = tuple(rng.choice((0, 1, 2, 4, 6)) for _ in range(dim))
            instance = CoverabilityInstance(vass, 0, target, target_counters)
            km = decide_coverability(instance, "km", node_cap=200_000)
            backward = decide_coverability(instance, "backward", node_cap=200_000)
            brute = brute_force_coverable(vass, 0, target, target_counters, 40)
            assert km.coverable == backward.coverable == brute
            for result in (km, backward):
                if result.coverable:
                    state, counters = replay_transitions(vass, (0, (0,) * dim), result.witness)
                    assert state == target
                    assert all(c >= t for c, t in zip(counters, target_counters))


#: Six states, dimension 3; the target v5 has no incoming transition. A
#: Karp-Miller tree that prunes only nodes equal to an ancestor explores
#: 582,092 nodes here before it answers "not coverable".
UNREACHABLE_TARGET_VASS = Vass(
    AB, 3, tuple(f"v{i}" for i in range(6)), 0, frozenset({5}),
    (
        (0, 0, (1, 1, 0), 4), (2, 1, (1, 0, 1), 3), (4, 1, (0, 0, 0), 2), (4, 1, (-1, 1, 0), 3),
        (3, 0, (0, 1, 0), 3), (4, 0, (1, 0, 0), 3), (3, 1, (0, 0, 0), 1), (4, 1, (1, 0, 1), 0),
        (1, 1, (0, -1, -1), 3), (4, 1, (1, 1, -1), 4), (1, 1, (-1, 0, 0), 2), (2, 0, (-1, 0, 0), 3),
        (1, 1, (0, 1, 0), 4), (0, 0, (1, 1, 0), 2), (1, 0, (1, 0, 0), 0), (2, 1, (0, -1, 0), 1),
    ),
    COVER,
)


class TestKarpMillerCore:
    def test_covered_nodes_are_pruned_across_branches(self):
        instance = CoverabilityInstance(UNREACHABLE_TARGET_VASS, 0, 5, (2, 1, 2))
        km = decide_coverability(instance, "km")
        assert not km.coverable and km.nodes_explored <= 100
        assert not decide_coverability(instance, "backward").coverable

    def test_witnesses_replay_on_the_pruned_tree(self):
        vass = UNREACHABLE_TARGET_VASS
        for target in range(5):
            for needed in ((0, 0, 0), (3, 3, 3), (1, 5, 2)):
                instance = CoverabilityInstance(vass, 0, target, needed)
                km = decide_coverability(instance, "km")
                assert km.coverable == decide_coverability(instance, "backward").coverable
                if km.coverable:
                    state, counters = replay_transitions(vass, (0, (0, 0, 0)), km.witness)
                    assert state == target and all(c >= n for c, n in zip(counters, needed))

    def test_kept_nodes_are_never_removed(self):
        # Deleting kept nodes that a new node covers, with their subtrees
        # (Finkel's minimal coverability tree), answers "not coverable" here.
        vass = Vass(
            AB, 1, ("s0", "s1", "s2"), 0, frozenset({2}),
            (
                (0, 0, (1,), 1), (2, 0, (2,), 1), (2, 1, (1,), 1), (1, 1, (0,), 0),
                (1, 0, (0,), 0), (2, 0, (2,), 0), (1, 1, (-2,), 0), (0, 1, (1,), 2),
            ),
            COVER,
        )
        instance = CoverabilityInstance(vass, 0, 2, (3,))
        assert decide_coverability(instance, "backward").coverable
        km = decide_coverability(instance, "km")
        assert km.coverable
        state, counters = replay_transitions(vass, (0, (0,)), km.witness)
        assert state == 2 and counters[0] >= 3

    def test_cap_counts_kept_nodes(self):
        instance = CoverabilityInstance(UNREACHABLE_TARGET_VASS, 0, 5, (2, 1, 2))
        n = decide_coverability(instance, "km").nodes_explored
        assert decide_coverability(instance, "km", node_cap=n).nodes_explored == n
        with pytest.raises(ResourceLimitError, match=f"Karp-Miller tree exceeded {n - 1} nodes"):
            decide_coverability(instance, "km", node_cap=n - 1)
        for cap in (0, -1):
            with pytest.raises(InputError, match="node cap must be at least 1"):
                decide_coverability(instance, "km", node_cap=cap)


class TestProductVass:
    def test_requires_caller_assertion(self):
        hcs = guarded_chain_hcs(counting_guard())
        with pytest.raises(ContractError, match="non_dying"):
            product_vass(hcs)

    def test_rejects_reach_and_nondeterministic_guards(self):
        reach_guard = Vass(AB, 1, ("g",), 0, frozenset({0}), ((0, 0, (1,), 0),), REACH)
        with pytest.raises(UnsupportedGuardError):
            product_vass(guarded_chain_hcs(reach_guard), assume_non_dying=True)
        with pytest.raises(UnsupportedGuardError):
            product_vass(guarded_chain_hcs(count_balanced_vass()), assume_non_dying=True)

    def test_no_guards_gives_underlying_plus_final(self):
        underlying = FiniteAutomaton(AB, ("q0", "q1"), 0, frozenset({1}), ((0, 0, 1),))
        hcs = Hcs(AB, underlying, {}, {})
        product = product_vass(hcs, assume_non_dying=True)
        assert len(product.states) == 3  # reachable tuples plus t
        assert product.mode == COVER
        eps_to_final = [
            t for t in product.transitions if t[1] is None and t[3] == len(product.states) - 1
        ]
        assert len(eps_to_final) == 1

    def test_language_matches_hcs_on_non_dying_fixture(self):
        hcs = guarded_chain_hcs(counting_guard())
        product = product_vass(hcs, assume_non_dying=True)
        disagreement = first_disagreement(HcsStepper(hcs), VassStepper(product), 2, 6)
        assert disagreement is None

    def test_size_bound(self):
        for guard in (counting_guard(),):
            hcs = guarded_chain_hcs(guard)
            product = product_vass(hcs, assume_non_dying=True)
            base = hcs.underlying.size() + guard.unary_size()
            assert product.unary_size() <= 2 * base ** (1 + 2)

    def test_two_guards_stack_dimensions(self):
        g1 = counting_guard()
        g2 = Vass(
            AB,
            2,
            ("s",),
            0,
            frozenset({0}),
            ((0, 0, (1, 0), 0), (0, 1, (0, 1), 0)),
            COVER,
        )
        underlying = FiniteAutomaton(AB, ("u0", "u1"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1)))
        hcs = Hcs(AB, underlying, {"g1": g1, "g2": g2}, {1: "g1"})
        product = product_vass(hcs, assume_non_dying=True)
        assert product.dim == 3
        assert first_disagreement(HcsStepper(hcs), VassStepper(product), 2, 6) is None
        base = hcs.underlying.size() + g1.unary_size() + g2.unary_size()
        assert product.unary_size() <= 2 * base ** (2 + 2)

    def test_matches_reference_product_on_random_systems(self):
        rng = random.Random(1616)
        seen = set()
        for _ in range(500):
            hcs = random_guarded_hcs(rng)
            product = product_vass(hcs, assume_non_dying=True)
            assert formats.to_document(product) == formats.to_document(reference_product_vass(hcs)), hcs
            seen.add(f"{len(hcs.guards)} guards")
            own = {state for guard in hcs.guards.values() for state in guard.states}
            reached = {token.rstrip(")") for name in product.states[:-1] for token in name.split()[1:]}
            if reached - own:
                seen.add("renamed sink" if "_vsink" in reached else "sink")
            if any(label is None and dst != len(product.states) - 1 for _, label, _, dst in product.transitions):
                seen.add("epsilon")
        assert seen == {"0 guards", "1 guards", "2 guards", "sink", "renamed sink", "epsilon"}


def random_guarded_hcs(rng):
    """An HCS over {a, b} with 0-2 deterministic cover guards of 1-3 states
    and dimension 1-2, each with about a quarter of its moves missing and
    sometimes a state already named "vsink"; the underlying system has 1-4
    states and up to 7 moves, a third of them epsilon, half of them guarded."""
    guards = {}
    for i in range(rng.choice((0, 1, 1, 2, 2))):
        n, dim = rng.randint(1, 3), rng.randint(1, 2)
        names = [f"g{j}" for j in range(n)]
        if rng.random() < 0.2:
            names[rng.randrange(n)] = "vsink"
        moves = tuple(
            (q, a, tuple(rng.choice((-1, 0, 0, 1)) for _ in range(dim)), rng.randrange(n))
            for q in range(n)
            for a in range(2)
            if rng.random() < 0.75
        )
        accepting = frozenset(q for q in range(n) if rng.random() < 0.6)
        guards[f"G{i}"] = Vass(AB, dim, tuple(names), 0, accepting, moves, COVER)
    m = rng.randint(1, 4)
    transitions, guarded = [], {}
    for _ in range(rng.randint(1, 7)):
        move = (rng.randrange(m), rng.choice((0, 1, None)), rng.randrange(m))
        if move in transitions:
            continue
        if guards and rng.random() < 0.5:
            guarded[len(transitions)] = rng.choice(sorted(guards))
        transitions.append(move)
    accepting = frozenset(q for q in range(m) if rng.random() < 0.4)
    underlying = FiniteAutomaton(AB, tuple(f"u{i}" for i in range(m)), 0, accepting, tuple(transitions))
    return Hcs(AB, underlying, guards, guarded)


class TestCoverEmptiness:
    def test_blocked_guard_means_empty(self):
        # The guard accepts only after a decrement that is never enabled.
        guard = Vass(
            AB, 1, ("z", "ok"), 0, frozenset({1}),
            ((0, 0, (0,), 0), (0, 1, (-1,), 1), (1, 0, (0,), 1), (1, 1, (0,), 1)),
            COVER,
        )
        underlying = FiniteAutomaton(AB, ("s0", "s1"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1)))
        hcs = Hcs(AB, underlying, {"g": guard}, {1: "g"})
        assert hcs_cover_empty(hcs, engine="onthefly")
        assert hcs_cover_empty(hcs, engine="product", assume_non_dying=True)

    def test_trivial_guards_nonempty(self):
        underlying = FiniteAutomaton(AB, ("s0", "s1"), 0, frozenset({1}), ((0, 0, 1),))
        hcs = Hcs(AB, underlying, {}, {})
        assert not hcs_cover_empty(hcs, engine="onthefly")
        assert not hcs_cover_empty(hcs, engine="product", assume_non_dying=True)

    def test_delimited_star_nonempty_with_nondet_guard(self):
        hcs = delimited_star_hcs(count_balanced_vass())
        assert not hcs_cover_empty(hcs, engine="onthefly")

    def test_engines_agree_on_non_dying_fixtures(self):
        fixtures = [
            guarded_chain_hcs(counting_guard()),
        ]
        underlying = FiniteAutomaton(AB, ("a0", "a1"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1)))
        fixtures.append(Hcs(AB, underlying, {"g": counting_guard()}, {1: "g"}))
        for hcs in fixtures:
            assert hcs_cover_empty(hcs, "onthefly") == hcs_cover_empty(
                hcs, "product", assume_non_dying=True
            )

    def test_engines_agree_on_random_non_negative_guards(self):
        # Non-negative updates cannot die, so both engines are exact.
        rng = random.Random(31337)
        for _ in range(40):
            n = rng.randint(1, 3)
            transitions = []
            for q in range(n):
                for a in range(2):
                    transitions.append(
                        (q, a, (rng.choice((0, 1)),), rng.randrange(n))
                    )
            guard = Vass(
                AB, 1, tuple(f"g{i}" for i in range(n)), 0,
                frozenset({rng.randrange(n)}), tuple(transitions), COVER,
            )
            m = rng.randint(1, 3)
            u_transitions = []
            guarded = {}
            for q in range(m):
                for a in range(2):
                    if rng.random() < 0.85:
                        idx = len(u_transitions)
                        u_transitions.append((q, a, rng.randrange(m)))
                        if rng.random() < 0.5:
                            guarded[idx] = "g"
            underlying = FiniteAutomaton(
                AB, tuple(f"u{i}" for i in range(m)), 0,
                frozenset({rng.randrange(m)}), tuple(u_transitions),
            )
            hcs = Hcs(AB, underlying, {"g": guard}, guarded)
            onthefly = hcs_cover_empty(hcs, "onthefly", node_cap=100_000)
            product = hcs_cover_empty(hcs, "product", assume_non_dying=True, node_cap=100_000)
            assert onthefly == product, hcs

    def test_dying_guard_shows_why_assertion_matters(self):
        # The guard dies on 'a' but guards only the never-needed b-move; the
        # real language is nonempty, which the on-the-fly engine sees while
        # the product construction (built for non-dying guards) does not.
        guard = Vass(
            AB, 1, ("z",), 0, frozenset({0}), ((0, 0, (-1,), 0), (0, 1, (0,), 0)), COVER
        )
        underlying = FiniteAutomaton(AB, ("s0", "s1", "s2"), 0, frozenset({1}), ((0, 0, 1), (0, 1, 2)))
        hcs = Hcs(AB, underlying, {"g": guard}, {1: "g"})
        assert member(hcs, ["a"])
        assert not hcs_cover_empty(hcs, engine="onthefly")
        assert hcs_cover_empty(hcs, engine="product", assume_non_dying=True)

    def test_acceleration_terminates_on_unbounded_counters(self):
        # The a-loop pumps the guard counter without bound; the exploration
        # must accelerate to omega and still conclude "empty", because the
        # guard is never in its accepting state when the b-move is queried.
        guard = Vass(
            AB, 1, ("z", "ok"), 0, frozenset({1}),
            ((0, 0, (1,), 0), (0, 1, (-1,), 1), (1, 0, (0,), 1), (1, 1, (0,), 1)),
            COVER,
        )
        underlying = FiniteAutomaton(AB, ("s0", "s1"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1)))
        hcs = Hcs(AB, underlying, {"g": guard}, {1: "g"})
        assert not member(hcs, ["a", "b"])
        assert hcs_cover_empty(hcs, engine="onthefly", node_cap=10_000)

    def test_acceleration_finds_witness_behind_growing_counter(self):
        # Here the guard accepts while counting, so after enough a's the
        # guarded move fires; the witness sits beyond any fixed counter value
        # only in the product sense, and exploration stays finite.
        guard = Vass(
            AB, 1, ("z", "ok"), 0, frozenset({1}),
            ((0, 0, (1,), 1), (0, 1, (0,), 0), (1, 0, (1,), 1), (1, 1, (0,), 1)),
            COVER,
        )
        underlying = FiniteAutomaton(AB, ("s0", "s1"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1)))
        hcs = Hcs(AB, underlying, {"g": guard}, {1: "g"})
        assert member(hcs, ["a", "b"])
        assert not hcs_cover_empty(hcs, engine="onthefly", node_cap=10_000)


class TestTwoCounterMachines:
    def test_action_determinacy_enforced(self):
        with pytest.raises(InputError, match="determinacy"):
            TwoCounterMachine(("p", "q"), ((0, "inc1", 0), (0, "inc1", 1)), 0, 1)

    def test_translation_membership(self):
        machine = TwoCounterMachine(("p", "q"), ((0, "inc1", 1), (1, "dec1", 0)), 0, 0)
        hcs = two_cm_to_hcs(machine)
        assert member(hcs, ["zero1", "zero2"])
        assert member(hcs, ["inc1", "dec1", "zero1", "zero2"])
        assert not member(hcs, ["inc1", "zero1", "zero2"])

    def test_empty_when_counter_forced_positive(self):
        machine = TwoCounterMachine(("p", "q"), ((0, "inc1", 1), (1, "dec1", 0)), 0, 1)
        hcs = two_cm_to_hcs(machine)
        outcome = bounded_reach_empty(hcs, 6)
        assert outcome.status == "unknown" and outcome.max_len == 6

    def test_bounded_search_finds_witness(self):
        machine = TwoCounterMachine(("p", "q"), ((0, "inc1", 1), (1, "dec1", 0)), 0, 0)
        outcome = bounded_reach_empty(two_cm_to_hcs(machine), 4)
        assert outcome.nonempty and outcome.witness == ("zero1", "zero2")

    def test_bounded_zero_length_with_accepting_initial(self):
        underlying = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ())
        outcome = bounded_reach_empty(Hcs(AB, underlying, {}, {}), 0)
        assert outcome.nonempty and outcome.witness == ()

    def test_structural_golden_file(self):
        hcs = two_cm_to_hcs(six_state_two_counter_machine())
        with open(os.path.join(DATA, "two_counter_translation.json")) as handle:
            golden = json.load(handle)
        assert formats.to_document(hcs) == golden

    def test_membership_matches_direct_simulation(self):
        machines = [
            TwoCounterMachine(("p", "q"), ((0, "inc1", 1), (1, "dec1", 0)), 0, 0),
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
        ]
        for machine in machines:
            hcs = two_cm_to_hcs(machine)
            expected = {
                word + ("zero1", "zero2")
                for word in two_counter_run_words(machine, 4)
            }
            expected = {w for w in expected if len(w) <= 6}
            got = accepted_words(HcsStepper(hcs), ACTIONS, 6)
            assert got == expected, machine

    def test_simulator_is_independent_of_translation(self):
        machine = TwoCounterMachine(("p", "q"), ((0, "inc1", 1), (1, "dec1", 0)), 0, 0)
        words = two_counter_run_words(machine, 4)
        assert () in words and ("inc1", "dec1") in words
        assert ("inc1",) not in words

    def test_target_with_zero1_collision_rejected(self):
        machine = TwoCounterMachine(("p",), ((0, "zero1", 0),), 0, 0)
        with pytest.raises(InputError, match="zero1"):
            two_cm_to_hcs(machine)


class TestDelimitedStar:
    def test_block_language_examples(self):
        hcs = delimited_star_hcs(count_balanced_vass())
        assert member(hcs, ["$"])
        assert member(hcs, "$ a a b $ a b $".split())
        assert not member(hcs, "$ a b b $".split())
        assert not member(hcs, "$ b a $".split())

    def test_matches_definitional_oracle(self):
        vass = count_balanced_vass()
        hcs = delimited_star_hcs(vass)

        def oracle(word):
            if not word or word[0] != "$" or word[-1] != "$":
                return False
            blocks = []
            current = []
            for sym in word[1:]:
                if sym == "$":
                    blocks.append(current)
                    current = []
                else:
                    current.append(sym)
            if current:
                return False  # does not end on a delimiter
            return all(vass_accepts_brute(vass, block) for block in blocks)

        for word in all_words(["a", "b", "$"], 6):
            assert member(hcs, word) == oracle(word), word

    def test_dollar_collision_rejected(self):
        bad = Vass(Alphabet(("a", "$")), 1, ("q",), 0, frozenset({0}), (), COVER)
        with pytest.raises(InputError):
            delimited_star_hcs(bad)

    def test_reach_mode_rejected(self):
        reach = Vass(AB, 1, ("q",), 0, frozenset({0}), (), REACH)
        with pytest.raises(ContractError):
            delimited_star_hcs(reach)

    def test_empty_blocks_only_when_language_has_epsilon(self):
        no_eps = Vass(
            AB, 1, ("q0", "q1"), 0, frozenset({1}), ((0, 0, (1,), 1), (1, 0, (1,), 1)), COVER
        )  # accepts a+
        hcs = delimited_star_hcs(no_eps)
        assert member(hcs, ["$"])
        assert not member(hcs, ["$", "$"])
        assert member(hcs, ["$", "a", "$"])


class TestCompleteVass:
    def test_completion_adds_sink(self):
        partial = Vass(AB, 1, ("q",), 0, frozenset({0}), ((0, 0, (1,), 0),), COVER)
        full = complete_vass(partial)
        assert len(full.states) == 2
        keys = {(s, l) for s, l, _, _ in full.transitions}
        assert keys == {(q, a) for q in range(2) for a in range(2)}
        assert full.deterministic
