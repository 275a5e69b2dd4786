"""Guard products and semantics shared between calls through the module
caches.

A regular guard tuple seen a second time gets one ``GuardProduct`` that
every later semantics over the same guard objects and cap reuses, and a
system that ``member`` sees a second time at one cap gets one
``HcsSemantics`` that later calls walk, one call at a time. A tuple with a
nondeterministic or nested guard is never shared: its lazy trackers are
private to one semantics. Outputs must not depend on whether the caches are
cold or warm, on which thread interns a tuple or state first, on what other
systems stepped the same guard objects, or on ``id`` values of objects that
have died. Tests that need cold caches empty them with
``_clear_guard_products`` themselves; nothing empties them between tests,
so a sharing bug shows wherever it bites.
"""

import gc
import heapq
import json
import os
import random
import sys
import threading
import time
import weakref

import pytest

from hcs import core, formats
from hcs.automata import Alphabet, FiniteAutomaton, determinize
from hcs.core import Hcs, HcsSemantics, _clear_guard_products, determinize_hcs, guard_product, is_empty, member
from hcs.errors import HcsError, InputError, ResourceLimitError
from hcs.games import (
    CountdownGame,
    HcsGame,
    Objective,
    arena_size_bounds,
    build_arena,
    countdown_to_hcs_game,
    game_non_blocking,
    normalize_countdown,
    solve_hcs_game,
)
from hcs.models import AB
from hcs.vass import COVER, REACH, Vass

from oracles import all_words
from test_core import random_depth_two_hcs, random_guarded_hcs
from test_explorer import random_countdown
from test_lazy_dfa import checked_by, nth_from_last_guard
from test_vass import random_guarded_hcs as random_cover_guarded_hcs

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")


def _admit(hcs, max_states=core.DEFAULT_STATE_CAP):
    """Sight the guard tuple twice, so that it has a shared product."""
    guard_product(hcs, max_states)
    product = guard_product(hcs, max_states)
    assert product is guard_product(hcs, max_states)
    return product


def _cold_then_warm(compute):
    """``compute()`` on a cold cache, on admission and on a cache hit."""
    _clear_guard_products()
    return [_outcome(compute) for _ in range(3)]


def _outcome(compute):
    try:
        return compute()
    except HcsError as err:
        return type(err).__name__, str(err)


def test_second_sighting_admits_and_only_regular_tuples_are_shared():
    reduced = countdown_to_hcs_game(CountdownGame(("A",), 0, 4, ((0, 2, 0),)))
    _clear_guard_products()
    first = guard_product(reduced.hcs)
    shared = guard_product(reduced.hcs)
    assert shared is not first
    assert guard_product(game_non_blocking(reduced).hcs) is shared
    assert HcsSemantics(reduced.hcs).products is shared.products
    # Another cap is another product.
    assert guard_product(reduced.hcs, 1000) is not shared
    loop = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ((0, 0, 0),))
    outer = Hcs(AB, loop, {"n": Hcs(AB, loop, {}, {})}, {0: "n"})
    assert guard_product(outer) is not guard_product(outer)
    nondeterministic = checked_by(nth_from_last_guard(3))
    assert guard_product(nondeterministic) is not guard_product(nondeterministic)


def _on_four_threads(compute):
    """``compute()`` on each of 4 threads, all starting together."""
    results, errors = [None] * 4, []
    start = threading.Barrier(4)

    def work(i):
        try:
            start.wait(timeout=60)  # all four intern the same values at once
            results[i] = compute()
        except BaseException as err:  # reported below, on the main thread
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    return results


def test_threads_intern_into_one_shared_product():
    rng = random.Random(1818)
    games = [countdown_to_hcs_game(random_countdown(rng, 8)) for _ in range(30)]
    _clear_guard_products()
    serial = [solve_hcs_game(game) for game in games]
    for _ in range(5):  # a lost race shows in some rounds only
        _clear_guard_products()
        product = _admit(games[0].hcs)
        assert not product.products  # the threads intern every tuple
        for solutions in _on_four_threads(lambda: [solve_hcs_game(game) for game in games]):
            assert [s.winner_from_initial for s in solutions] == [s.winner_from_initial for s in serial]
            for got, want in zip(solutions, serial):
                assert got.arena.vertices == want.arena.vertices
                assert got.arena.edges == want.arena.edges
                assert got == want
        assert guard_product(games[0].hcs) is product
        assert len(product.products) == len(product._product_ids) == len(set(product.products))
        assert all(product._product_ids[t] == p for p, t in enumerate(product.products))


def test_the_cap_is_part_of_the_key():
    hcs = checked_by(determinize(nth_from_last_guard(3)))
    n = len(determinize_hcs(hcs).states)  # the outer DFA needs n states
    _clear_guard_products()
    product = _admit(hcs, n)
    assert len(determinize_hcs(hcs, n).states) == n
    for _ in range(3):  # cold, on admission, then cached
        with pytest.raises(ResourceLimitError, match=f"^determinization exceeded the state cap of {n - 1}$"):
            determinize_hcs(hcs, n - 1)
    assert guard_product(hcs, n - 1) is not product
    assert guard_product(hcs, n) is product


def test_threads_step_one_shared_nondeterministic_guard():
    hcs = checked_by(nth_from_last_guard(4))
    rng = random.Random(2626)
    words = [[rng.choice("ab") for _ in range(rng.randint(0, 12))] for _ in range(60)]
    walked = HcsSemantics(hcs)
    serial = [walked.accepts(word) for word in words]
    for _ in range(3):
        _clear_guard_products()
        member(hcs, [])
        member(hcs, [])
        semantics = _cached(hcs)  # its guard's tracker is shared through it
        (tracker,) = semantics.trackers
        assert len(tracker.configs) == 1
        tracker.configs = _YieldingList(tracker.configs)  # a lost race is lost every round
        for verdicts in _on_four_threads(lambda: [member(hcs, word) for word in words]):
            assert verdicts == serial
        assert _cached(hcs) is semantics
        configs, ids = tracker.configs, tracker._config_ids
        assert len(configs) == len(ids) == len(set(configs)) == len(walked.trackers[0].configs)
        assert all(ids[c] == d for d, c in enumerate(configs))
        assert len(tracker._delta) == len(configs) * tracker._width


def _verdicts(hcs):
    words = all_words(hcs.alphabet, 4)
    return (
        [member(hcs, w) for w in words],
        is_empty(hcs),
        formats.to_document(determinize_hcs(hcs)),
    )


def _recycle_ids(monkeypatch):
    """Make ``core`` see recycled ids; returns the list of ids handed out.

    The caches key objects by ``id``. CPython reuses the id of a dead
    object only when its allocator happens to, so the keys see an id that
    is handed out again, smallest free first, as soon as its object dies.
    """
    live, free, handed = {}, [], []

    def release(key):
        heapq.heappush(free, live.pop(key))

    def recycled_id(obj):
        key = id(obj)
        if key not in live:
            live[key] = heapq.heappop(free) if free else len(live)
            weakref.finalize(obj, release, key).atexit = False
            handed.append(live[key])
        return live[key]

    monkeypatch.setattr(core, "id", recycled_id, raising=False)
    return handed


def test_reused_ids_give_no_stale_hit(monkeypatch):
    cold = []
    for seed in range(60):
        _clear_guard_products()
        cold.append(_verdicts(random_guarded_hcs(random.Random(seed))))
    handed = _recycle_ids(monkeypatch)
    _clear_guard_products()
    for seed in range(60):
        hcs = random_guarded_hcs(random.Random(seed))
        assert _verdicts(hcs) == cold[seed]
        del hcs
        gc.collect()
    assert len(set(handed)) < len(handed)  # some id did come back


def test_one_tracker_per_guard_per_entry(monkeypatch):
    built = []

    class Counting(core._RegularTracker):
        def __init__(self, guard):
            built.append(guard)
            super().__init__(guard)

    monkeypatch.setattr(core, "_RegularTracker", Counting)
    rng = random.Random(5050)
    _clear_guard_products()
    for target, k in ((8, 3), (16, 4)):
        built.clear()
        for _ in range(50):
            game = countdown_to_hcs_game(random_countdown(rng, target))
            solve_hcs_game(game)
            arena_size_bounds(game_non_blocking(game))
        assert len(built) <= 2 * (k + 1)


# "Ends in a", nondeterministically: s loops on a and b, s -a-> A and
# s -b-> B, and A accepts.
_ENDS_IN_A = FiniteAutomaton(AB, ("s", "A", "B"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 0), (0, 0, 1), (0, 1, 2)))


def _game(transitions):
    """A reach game over {a, b} with states q and r whose third transition
    is guarded by ``_ENDS_IN_A``: every game made here holds that one
    guard object."""
    underlying = FiniteAutomaton(AB, ("q", "r"), 0, frozenset(), transitions)
    return HcsGame(Hcs(AB, underlying, {"g": _ENDS_IN_A}, {2: "g"}), (0, 0), Objective("reach", frozenset({1})))


def test_an_arena_does_not_depend_on_other_systems_over_its_guard():
    # The first game reads a before b; the second reads b first, so it
    # reaches the guard's subsets in the other order.
    first = _game(((0, 0, 0), (0, 1, 0), (0, 0, 1)))
    second = _game(((0, 1, 1), (1, 0, 1), (1, 1, 1)))
    _clear_guard_products()
    arena = build_arena(first)
    build_arena(second)
    build_arena(second)
    assert build_arena(first) == arena
    assert arena.vertices[1:3] == ((0, (1,)), (0, (2,)))


def test_cold_and_warm_caches_give_identical_arenas():
    rng = random.Random(2026)
    games = [countdown_to_hcs_game(random_countdown(rng, rng.choice((1, 2, 4, 8, 16)))) for _ in range(200)]
    cold = []
    for game in games:
        _clear_guard_products()
        cold.append(build_arena(game))
    assert [build_arena(game) for game in games] == cold
    assert [build_arena(game) for game in games] == cold


def _shipped_models():
    """Every model in ``models/`` by file name, a countdown game reduced to
    its guarded game."""
    for name in sorted(os.listdir(MODELS)):
        with open(os.path.join(MODELS, name), encoding="utf-8") as handle:
            model = formats.from_document(json.load(handle))
        if isinstance(model, CountdownGame):
            model = countdown_to_hcs_game(normalize_countdown(model))
        yield name, model


def test_cold_and_warm_caches_agree_on_shipped_models():
    for name, model in _shipped_models():
        if isinstance(model, HcsGame):
            computations = [lambda: build_arena(model)]
        elif isinstance(model, Hcs):
            computations = [
                lambda: formats.to_document(determinize_hcs(model)),
                lambda: [member(model, w) for w in all_words(model.alphabet, 4)],
            ]
        else:
            continue
        for compute in computations:
            cold, admitted, hit = _cold_then_warm(compute)
            assert cold == admitted == hit, name


# ---------------------------------------------------------------------------
# The semantics ``member`` walks, cached per (system, cap)


def _cached(hcs, max_states=core.DEFAULT_STATE_CAP):
    """The semantics of the cached entry, or None."""
    entry = core._shared_semantics.entries.get((id(hcs), max_states))
    return None if entry is None else entry[0]


def _loop_hcs():
    """A fresh one-state system over {a, b} with no guards."""
    loop = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ((0, 0, 0), (0, 1, 0)))
    return Hcs(AB, loop, {}, {})


def test_member_admits_a_system_on_its_second_sighting():
    hcs = random_depth_two_hcs(random.Random(7))
    _clear_guard_products()
    member(hcs, ["a"])
    assert _cached(hcs) is None
    member(hcs, ["a", "b"])
    semantics = _cached(hcs)
    assert semantics.hcs is hcs
    member(hcs, ["b"])
    assert _cached(hcs) is semantics
    # At most 16 entries, the least recently used out first.
    others = [_loop_hcs() for _ in range(core._SHARED_CAPACITY)]
    for other in others:
        member(other, [])
        member(other, [])
    assert _cached(hcs) is None
    assert all(_cached(other) is not None for other in others)
    _clear_guard_products()
    assert not core._shared_semantics.entries and not core._shared_semantics.seen


def _eps_loop_hcs():
    """Language {a}; the one move is guarded by a cover VASS with a +1
    epsilon self-loop."""
    alphabet = Alphabet(("a",))
    pump = Vass(alphabet, 1, ("p",), 0, frozenset({0}), ((0, None, (1,), 0), (0, 0, (0,), 0)), COVER)
    underlying = FiniteAutomaton(alphabet, ("s0", "s1"), 0, frozenset({1}), ((0, 0, 1),))
    return Hcs(alphabet, underlying, {"pump": pump}, {0: "pump"})


def test_the_cap_is_part_of_the_semantics_key():
    hcs = _eps_loop_hcs()
    _clear_guard_products()
    for cap in (core.DEFAULT_STATE_CAP, 10_000, core.DEFAULT_STATE_CAP, 10_000):
        assert member(hcs, ["a"], cap) and not member(hcs, ["a", "a"], cap)
    default, small = _cached(hcs), _cached(hcs, 10_000)
    assert default is not None and small is not None and default is not small
    assert member(hcs, ["a"], 10_000) and _cached(hcs, 10_000) is small


def test_reused_system_ids_give_no_stale_semantics(monkeypatch):
    systems = [random_guarded_hcs, random_depth_two_hcs, random_cover_guarded_hcs]
    words = list(all_words(AB, 3))
    cold = []
    for seed in range(60):
        hcs = systems[seed % 3](random.Random(seed))
        cold.append([HcsSemantics(hcs).accepts(w) for w in words])
    handed = _recycle_ids(monkeypatch)
    _clear_guard_products()
    for seed in range(60):
        hcs = systems[seed % 3](random.Random(seed))
        for _ in range(3):  # a stale entry would answer one of these
            assert [member(hcs, w) for w in words] == cold[seed], seed
        del hcs
        gc.collect()
    assert len(set(handed)) < len(handed)  # some id did come back


def _assert_interned_once(semantics):
    """Ids and pairs are a bijection, every id has its table row, and so
    for the guard product and every nested tracker."""
    configs, ids = semantics.configs, semantics._config_ids
    assert len(configs) == len(ids) == len(set(configs))
    assert all(ids[c] == d for d, c in enumerate(configs))
    assert len(semantics._delta) == len(configs) * semantics._width
    assert len(set(semantics.products)) == len(semantics.products)
    for tracker in semantics.trackers:
        if isinstance(tracker, HcsSemantics):
            _assert_interned_once(tracker)


class _YieldingList(list):
    """A list whose ``append`` lets other threads run first. A state is
    appended between the look-up that missed it and the publication of its
    id, so a race that walks outside the entry's lock would lose is lost in
    every round, not once in many."""

    def append(self, item):
        time.sleep(0)
        super().append(item)


def _yield_on_intern(semantics):
    semantics.configs = _YieldingList(semantics.configs)
    for tracker in semantics.trackers:
        if isinstance(tracker, HcsSemantics):
            _yield_on_intern(tracker)


def test_threads_walk_one_cached_semantics():
    rng = random.Random(2424)
    systems = [random_depth_two_hcs(rng) for _ in range(4)] + [random_cover_guarded_hcs(rng) for _ in range(4)]
    outer = FiniteAutomaton(AB, ("o0", "o1"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)))
    systems += [Hcs(AB, outer, {"n": hcs}, {1: "n", 2: "n"}) for hcs in systems[4:6]]
    # The threads walk the counting system first, in step, so they miss on
    # the same new states together.
    counting = _counting_hcs()
    queries = [(counting, ["a"] * 100 + ["b"] * 100)]
    queries += [(hcs, [rng.choice("ab") for _ in range(rng.randint(0, 40))]) for hcs in systems for _ in range(6)]
    systems.append(counting)
    serial = [HcsSemantics(hcs).accepts(word) for hcs, word in queries]
    for _ in range(3):
        _clear_guard_products()
        for hcs in systems:
            member(hcs, [])
            member(hcs, [])
        cached = [_cached(hcs) for hcs in systems]
        assert all(semantics is not None and len(semantics.configs) == 1 for semantics in cached)
        for semantics in cached:
            _yield_on_intern(semantics)
        for verdicts in _on_four_threads(lambda: [member(hcs, word) for hcs, word in queries]):
            assert verdicts == serial
        assert [_cached(hcs) for hcs in systems] == cached
        for semantics in cached:
            _assert_interned_once(semantics)


def _bursting_hcs():
    """Reading b sends a reach-mode guard into a +1 epsilon self-loop,
    whose epsilon closure has no end."""
    burst = Vass(AB, 1, ("r0", "r1"), 0, frozenset({0}), ((0, 0, (0,), 0), (0, 1, (0,), 1), (1, None, (1,), 1)), REACH)
    underlying = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ((0, 0, 0), (0, 1, 0)))
    return Hcs(AB, underlying, {"g": burst}, {0: "g"})


def test_a_cap_error_leaves_the_cached_semantics_usable():
    hcs = _bursting_hcs()
    limit = "epsilon closure exceeded 50 configurations"
    _clear_guard_products()
    member(hcs, ["a"], 50)
    member(hcs, ["a"], 50)
    semantics = _cached(hcs, 50)
    for _ in range(3):
        with pytest.raises(ResourceLimitError, match=f"^{limit}$"):
            member(hcs, ["a", "a", "b", "a"], 50)
        assert _cached(hcs, 50) is semantics
        assert member(hcs, ["a", "a", "a"], 50)
    _assert_interned_once(semantics)


def _counting_hcs():
    """One state looping on a and b; b needs a cover VASS guard that counts
    a's up and b's down. Each a read is another guard runtime, so another
    state of the lazy DFA."""
    counter = Vass(AB, 1, ("c",), 0, frozenset({0}), ((0, 0, (1,), 0), (0, 1, (-1,), 0)), COVER)
    underlying = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ((0, 0, 0), (0, 1, 0)))
    return Hcs(AB, underlying, {"n": counter}, {1: "n"})


def test_a_semantics_that_outgrows_its_bound_is_dropped():
    hcs = _counting_hcs()
    _clear_guard_products()
    member(hcs, [])
    member(hcs, [])
    semantics = _cached(hcs)
    assert member(hcs, ["a"] * 100 + ["b"] * 100) and _cached(hcs) is semantics
    assert member(hcs, ["a"] * core._SHARED_DFA_STATES)
    assert len(semantics.configs) > core._SHARED_DFA_STATES
    assert _cached(hcs) is None
    assert member(hcs, ["a"])  # seen afresh: private, then admitted again
    assert _cached(hcs) is None
    assert member(hcs, ["a"])
    assert len(_cached(hcs).configs) == 2


# ---------------------------------------------------------------------------
# Verdicts and errors do not depend on the cache


def _membership_systems():
    systems = [
        (name, model.hcs if isinstance(model, HcsGame) else model)
        for name, model in _shipped_models()
        if isinstance(model, (Hcs, HcsGame))
    ]
    rng = random.Random(4242)
    for i in range(12):
        systems.append((f"regular{i}", random_guarded_hcs(rng)))
        systems.append((f"nested{i}", random_depth_two_hcs(rng)))
        systems.append((f"cover{i}", random_cover_guarded_hcs(rng)))
    return systems


def test_cold_admitted_and_cached_semantics_agree_on_every_short_word():
    for name, hcs in _membership_systems():
        words = list(all_words(hcs.alphabet, 4))
        cold, admitted = [], []
        for word in words:
            _clear_guard_products()
            cold.append(_outcome(lambda: member(hcs, word)))
            admitted.append(_outcome(lambda: member(hcs, word)))  # on the entry this call admits
        semantics = _cached(hcs)
        hits = [_outcome(lambda: member(hcs, word)) for word in words]
        assert cold == admitted == hits, name
        assert semantics is not None and _cached(hcs) is semantics


def test_unknown_symbols_and_cap_errors_keep_their_text_and_order():
    bursting = _bursting_hcs()
    pumping = Vass(AB, 1, ("r",), 0, frozenset({0}), ((0, None, (1,), 0),), REACH)
    at_start = Hcs(AB, bursting.underlying, {"g": pumping}, {0: "g"})
    limit = "^epsilon closure exceeded 50 configurations$"
    _clear_guard_products()
    for _ in range(3):  # cold, on admission, then cached
        with pytest.raises(InputError, match=r"^unknown symbol 'c' \(alphabet: \['a', 'b'\]\)$"):
            member(bursting, ["a", "c", "b"], 50)
        with pytest.raises(InputError, match=r"^unknown symbol \['a'\] \(alphabet: \['a', 'b'\]\)$"):
            member(bursting, ["a", ["a"]], 50)
        # A cap error from an earlier step, or from the start, comes first.
        with pytest.raises(ResourceLimitError, match=limit):
            member(bursting, ["a", "b", "c"], 50)
        with pytest.raises(ResourceLimitError, match=limit):
            member(at_start, ["c"], 50)
    assert _cached(bursting, 50) is not None
