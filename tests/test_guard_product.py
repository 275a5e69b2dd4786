"""Guard products shared between semantics through the module cache.

A regular guard tuple seen a second time gets one ``GuardProduct`` that
every later semantics over the same guard objects and cap reuses. Outputs
must not depend on whether the cache is cold or warm, on which thread
interns a tuple first, or on ``id`` values of guards that have died. Tests
that need a cold cache empty it with ``_clear_guard_products`` themselves;
nothing empties it between tests, so a sharing bug shows wherever it bites.
"""

import gc
import heapq
import json
import os
import random
import sys
import threading
import weakref

import pytest

from hcs import core, formats
from hcs.automata import FiniteAutomaton, determinize
from hcs.core import Hcs, HcsSemantics, _clear_guard_products, determinize_hcs, guard_product, is_empty, member
from hcs.errors import HcsError, ResourceLimitError
from hcs.games import (
    CountdownGame,
    HcsGame,
    arena_size_bounds,
    build_arena,
    countdown_to_hcs_game,
    game_non_blocking,
    normalize_countdown,
    solve_hcs_game,
)
from hcs.models import AB

from oracles import all_words
from test_core import random_guarded_hcs
from test_explorer import random_countdown

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
    assert first._lock is None
    shared = guard_product(reduced.hcs)
    assert shared is not first and shared._lock is not None
    assert guard_product(game_non_blocking(reduced).hcs) is shared
    assert HcsSemantics(reduced.hcs).products is shared.products
    # Another cap is another product.
    assert guard_product(reduced.hcs, 1000) is not shared
    loop = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ((0, 0, 0),))
    outer = Hcs(AB, loop, {"n": Hcs(AB, loop, {}, {})}, {0: "n"})
    assert guard_product(outer) is not guard_product(outer)


def _solve_on_four_threads(games):
    """Each of 4 threads solves every game, all starting together."""
    results, errors = [None] * 4, []
    start = threading.Barrier(4)

    def work(i):
        try:
            start.wait(timeout=60)  # all four intern the same tuples at once
            results[i] = [solve_hcs_game(game) for game in games]
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
        for solutions in _solve_on_four_threads(games):
            assert [s.winner_from_initial for s in solutions] == [s.winner_from_initial for s in serial]
            for got, want in zip(solutions, serial):
                assert got.arena.vertices == want.arena.vertices
                assert got.arena.edges == want.arena.edges
                assert got == want
        assert guard_product(games[0].hcs) is product
        assert len(product.products) == len(product._product_ids) == len(set(product.products))
        assert all(product._product_ids[t] == p for p, t in enumerate(product.products))


def _needs_n_states():
    """A nondeterministic guard (third symbol from the end is a) and the
    number of states its determinization needs."""
    guard = FiniteAutomaton(
        AB,
        ("s", "x", "y", "z"),
        0,
        frozenset({3}),
        ((0, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 2), (1, 1, 2), (2, 0, 3), (2, 1, 3)),
    )
    return guard, len(determinize(guard).states)


def test_the_cap_is_part_of_the_key():
    guard, n = _needs_n_states()
    loop = FiniteAutomaton(AB, ("q",), 0, frozenset({0}), ((0, 0, 0), (0, 1, 0)))
    hcs = Hcs(AB, loop, {"g": guard}, {0: "g"})
    _clear_guard_products()
    product = _admit(hcs, n)
    assert len(product.trackers[0].delta) == n
    for _ in range(3):  # unseen, seen once, then would-be admission
        with pytest.raises(ResourceLimitError):
            HcsSemantics(hcs, n - 1)
    assert guard_product(hcs, n) is product


def _verdicts(hcs):
    words = all_words(hcs.alphabet, 4)
    return (
        [member(hcs, w) for w in words],
        is_empty(hcs),
        formats.to_document(determinize_hcs(hcs)),
    )


def test_reused_ids_give_no_stale_hit(monkeypatch):
    cold = []
    for seed in range(60):
        _clear_guard_products()
        cold.append(_verdicts(random_guarded_hcs(random.Random(seed))))
    # The cache keys guards by ``id``. CPython reuses the id of a dead
    # object only when its allocator happens to, so the keys see an id that
    # is handed out again, smallest free first, as soon as its object dies.
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
        def __init__(self, guard, max_states):
            built.append(guard)
            super().__init__(guard, max_states)

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


def test_cold_and_warm_caches_give_identical_arenas():
    rng = random.Random(2026)
    games = [countdown_to_hcs_game(random_countdown(rng, rng.choice((1, 2, 4, 8, 16)))) for _ in range(200)]
    cold = []
    for game in games:
        _clear_guard_products()
        cold.append(build_arena(game))
    assert [build_arena(game) for game in games] == cold
    assert [build_arena(game) for game in games] == cold


def test_cold_and_warm_caches_agree_on_shipped_models():
    for name in sorted(os.listdir(MODELS)):
        with open(os.path.join(MODELS, name), encoding="utf-8") as handle:
            model = formats.from_document(json.load(handle))
        if isinstance(model, CountdownGame):
            model = countdown_to_hcs_game(normalize_countdown(model))
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
