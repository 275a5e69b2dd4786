"""HCS with VASS guards: membership, emptiness engines, and the reductions.

Cover-guard emptiness runs either through the product VASS plus a
coverability engine, or through the Karp-Miller core (``vass.karp_miller``)
run on the fly over (underlying state, guard controls) with the guards'
counters stacked into one vector. Both engines step one move function over
those controls, ``_product_moves``. A deterministic guard whose only enabled
move would drive a counter negative is dead: its control becomes ``DEAD``
and its counters zero, it rejects every extension of the history, but the
outer system keeps running on transitions the guard does not control.

The two-counter-machine translation guards each zero-test with a one-state
reach-acceptance counter tracker, making language emptiness of the result
equivalent to 2CM reachability; a bounded breadth-first search provides the
matching semi-decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import inf
from operator import add
from typing import Optional

from .automata import DEFAULT_STATE_CAP, Alphabet, FiniteAutomaton, _fresh_name, _missing_moves, _trusted
from .automata import explore, layered_search
from .core import VASS, Hcs, HcsSemantics, guard_kind
from .errors import ContractError, InputError, UnsupportedGuardError
from .vass import (
    COVER,
    REACH,
    CoverabilityInstance,
    Vass,
    config_accepting,
    decide_coverability,
    initial_configs,
    karp_miller,
)


def complete_vass(vass: Vass) -> Vass:
    """Structural completion: missing (state, symbol) pairs move to a
    non-accepting sink with zero counter effect. Preserves determinism."""
    n_symbols = len(vass.alphabet)
    missing = _missing_moves(len(vass.states), n_symbols, vass.transitions)
    if not missing:
        return vass
    sink = len(vass.states)
    zero = (0,) * vass.dim
    extra = [(q, a, zero, sink) for q, a in missing] + [(sink, a, zero, sink) for a in range(n_symbols)]
    return _trusted(
        Vass,
        vass.alphabet,
        vass.dim,
        vass.states + (_fresh_name("vsink", vass.states),),
        vass.initial,
        vass.accepting,
        vass.transitions + tuple(extra),
        vass.mode,
        vass.deterministic,
    )


def _cover_dvass_guards(hcs: Hcs, operation: str) -> dict[str, Vass]:
    guards: dict[str, Vass] = {}
    for name, guard in hcs.guards.items():
        if guard_kind(guard) != VASS:
            raise UnsupportedGuardError(f"{operation} requires VASS guards; {name!r} is not one")
        if guard.mode != COVER:
            raise UnsupportedGuardError(f"{operation} requires cover-mode guards; {name!r} is reach")
        guards[name] = guard
    return guards


#: The control of a deterministic guard after a move drove a counter negative.
DEAD = "dead"


def _product_moves(hcs: Hcs):
    """The one move function of the cover-guard product, with the completed
    guards it steps, in guard order.

    A control is (underlying state, guard states ...), where a guard state
    is a state of its completed guard or ``DEAD``. ``moves(control)``
    yields (transition index, label, next control, update) for every
    underlying transition from the state whose guard accepts, in transition
    order. ``update`` is the guards' counter updates stacked in guard order:
    zero for an epsilon move and on the slice of a dead guard, which stays
    dead.
    """
    names = hcs.guard_names()
    index_of = {name: i for i, name in enumerate(names)}
    completed = [complete_vass(hcs.guards[name]) for name in names]
    # per guard: (state, symbol) -> (update, destination), DEAD stepping to itself
    steps = []
    for g in completed:
        step = {(src, label): (update, dst) for src, label, update, dst in g.transitions}
        step.update({(DEAD, a): ((0,) * g.dim, DEAD) for a in range(len(hcs.alphabet))})
        steps.append(step)
    by_src: dict[int, list[tuple[int, Optional[int], int, Optional[int]]]] = {}
    for t, (src, label, dst) in enumerate(hcs.underlying.transitions):
        name = hcs.guarded.get(t)
        by_src.setdefault(src, []).append((t, label, dst, None if name is None else index_of[name]))
    zero = (0,) * sum(g.dim for g in completed)

    def moves(control: tuple):
        states = control[1:]
        for t, label, dst, g in by_src.get(control[0], ()):
            if g is not None and states[g] not in completed[g].accepting:
                continue
            if label is None:
                yield t, None, (dst, *states), zero
                continue
            nxt, update = [dst], []
            for s, step in zip(states, steps):
                counts, s = step[s, label]
                nxt.append(s)
                update += counts
            yield t, label, tuple(nxt), tuple(update)

    return completed, moves


def product_vass(hcs: Hcs, assume_non_dying: bool = False) -> Vass:
    """Product of the underlying automaton with all cover-DVASS guards.

    States are (underlying state, guard states ...) tuples; the counters of
    all guards are stacked into one vector and a single fresh final state is
    reached by zero-effect epsilon moves from accepting tuples. Structural
    incompleteness is repaired with sinks, but a guard that can die makes
    the product miss runs, so the caller must assert non-dying guards.
    """
    guards = _cover_dvass_guards(hcs, "product_vass")
    for name, guard in guards.items():
        if not guard.deterministic:
            raise UnsupportedGuardError(f"product_vass requires deterministic guards; {name!r} is not")
    if not assume_non_dying:
        raise ContractError(
            "product_vass is only faithful for guards that cannot die; "
            "pass assume_non_dying=True to assert this"
        )
    completed, moves = _product_moves(hcs)
    zero = (0,) * (sum(g.dim for g in completed) or 1)
    auto = hcs.underlying

    def successors(control: tuple) -> list:
        return [((label, update or zero), nxt) for _, label, nxt, update in moves(control)]

    controls, edges, _ = explore([(auto.initial, *[g.initial for g in completed])], successors, inf, "")
    transitions = [(v, label, update, w) for v, (label, update), w in edges]
    final = len(controls)
    transitions += [(v, None, zero, final) for v, c in enumerate(controls) if c[0] in auto.accepting]
    names = [
        "(" + " ".join([auto.states[c[0]]] + [g.states[s] for g, s in zip(completed, c[1:])]) + ")"
        for c in controls
    ]
    return Vass(
        alphabet=hcs.alphabet,
        dim=len(zero),
        states=(*names, "t"),
        initial=0,
        accepting=frozenset({final}),
        transitions=tuple(transitions),
        mode=COVER,
    )


def hcs_cover_empty(
    hcs: Hcs,
    engine: str = "onthefly",
    node_cap: int = DEFAULT_STATE_CAP,
    assume_non_dying: bool = False,
) -> bool:
    """Emptiness for an HCS with cover-VASS guards.

    The default on-the-fly engine builds a Karp-Miller tree over (state,
    guard controls) with stacked counters; a dead guard is the control
    ``DEAD``, so dying guards need no caller assertion. Non-deterministic
    guards fall back to an exact set-of-configurations search that reports
    non-emptiness as soon as a witness depth is reached but raises at the
    cap instead of ever guessing "empty".
    """
    guards = _cover_dvass_guards(hcs, "hcs_cover_empty")
    if engine == "product":
        product = product_vass(hcs, assume_non_dying=assume_non_dying)
        final = len(product.states) - 1
        instance = CoverabilityInstance(
            vass=product,
            source=product.initial,
            target=final,
            target_counters=(0,) * product.dim,
        )
        return not decide_coverability(instance, "km", node_cap).coverable
    if engine != "onthefly":
        raise InputError(f"unknown emptiness engine {engine!r}")
    if all(g.deterministic for g in guards.values()):
        return _onthefly_empty_deterministic(hcs, node_cap)
    _, _, hit = HcsSemantics(hcs, node_cap).explore(
        node_cap,
        "set-based exploration exceeded {} configurations "
        "(emptiness of non-deterministic cover-VASS guards is a semi-decision)",
        hcs.underlying.accepting,
    )
    return hit is None


def _onthefly_empty_deterministic(hcs: Hcs, node_cap: int) -> bool:
    """Karp-Miller tree over product controls with stacked counters.

    A guard whose slice of the vector would go negative becomes ``DEAD``
    with a zero slice; it stays dead and rejects from then on.
    """
    completed, product_moves = _product_moves(hcs)
    bounds = (0, *accumulate(g.dim for g in completed))
    slices = [(i, bounds[i - 1], bounds[i]) for i in range(1, len(bounds))]  # (control position, slice)

    def moves(control: tuple, vec: tuple):
        for t, _, nxt, update in product_moves(control):
            fired = tuple(map(add, vec, update))
            if fired and min(fired) < 0:
                nxt, fired = list(nxt), list(fired)
                for i, lo, hi in slices:
                    if min(fired[lo:hi]) < 0:
                        nxt[i], fired[lo:hi] = DEAD, (0,) * (hi - lo)
                nxt, fired = tuple(nxt), tuple(fired)
            yield t, nxt, fired

    auto = hcs.underlying
    _, hit = karp_miller(
        [((auto.initial, *[g.initial for g in completed]), (0,) * bounds[-1])],
        moves,
        node_cap,
        "on-the-fly exploration exceeded {} nodes",
        lambda control, _: control[0] in auto.accepting,
    )
    return hit is None


# ---------------------------------------------------------------------------
# Two-counter machines

ACTIONS = ("inc1", "dec1", "zero1", "inc2", "dec2", "zero2")


@dataclass(frozen=True)
class TwoCounterMachine:
    """A Minsky machine: increment, guarded decrement, and zero tests."""

    states: tuple[str, ...]
    transitions: tuple[tuple[int, str, int], ...]
    source: int
    target: int

    def __post_init__(self):
        n = len(self.states)
        if len(set(self.states)) != n:
            raise InputError("duplicate state names")
        if not (0 <= self.source < n and 0 <= self.target < n):
            raise InputError("source/target state index out of range")
        seen = set()
        for src, action, dst in self.transitions:
            if action not in ACTIONS:
                raise InputError(f"unknown action {action!r}")
            if not (0 <= src < n and 0 <= dst < n):
                raise InputError("transition state index out of range")
            if (src, action) in seen:
                raise InputError(
                    f"action determinacy violated: two {action!r} transitions from "
                    f"{self.states[src]!r}"
                )
            seen.add((src, action))


def two_counter_run_words(machine: TwoCounterMachine, max_len: int) -> frozenset[tuple[str, ...]]:
    """Action sequences of runs (source, (0,0)) -> (target, (0,0)), by length."""
    accepted: set[tuple[str, ...]] = set()
    frontier: list[tuple[int, int, int, tuple[str, ...]]] = [(machine.source, 0, 0, ())]
    for _ in range(max_len + 1):
        nxt = []
        for state, c1, c2, word in frontier:
            if state == machine.target and c1 == 0 and c2 == 0:
                accepted.add(word)
            if len(word) == max_len:
                continue
            for src, action, dst in machine.transitions:
                if src != state:
                    continue
                d1, d2 = c1, c2
                if action == "inc1":
                    d1 += 1
                elif action == "inc2":
                    d2 += 1
                elif action == "dec1":
                    if c1 == 0:
                        continue
                    d1 -= 1
                elif action == "dec2":
                    if c2 == 0:
                        continue
                    d2 -= 1
                elif action == "zero1" and c1 != 0:
                    continue
                elif action == "zero2" and c2 != 0:
                    continue
                nxt.append((dst, d1, d2, word + (action,)))
        frontier = nxt
        if not frontier:
            break
    return frozenset(accepted)


def _counter_tracker(counter: int) -> Vass:
    """One-state reach-acceptance 1-VASS tracking one 2CM counter."""
    alpha = Alphabet(ACTIONS)
    transitions = []
    for action in ACTIONS:
        if action == f"inc{counter}":
            update = (1,)
        elif action == f"dec{counter}":
            update = (-1,)
        else:
            update = (0,)
        transitions.append((0, alpha.index(action), update, 0))
    return Vass(
        alphabet=alpha,
        dim=1,
        states=(f"track{counter}",),
        initial=0,
        accepting=frozenset({0}),
        transitions=tuple(transitions),
        mode=REACH,
    )


def two_cm_to_hcs(machine: TwoCounterMachine) -> Hcs:
    """Translate 2CM reachability into language emptiness with reach guards.

    The underlying DFA mirrors the machine; two appended zero tests route
    the old target through fresh states r and s, so acceptance forces both
    counters back to exactly zero. Every zero-test transition is guarded by
    the matching counter tracker.
    """
    if any(src == machine.target and action == "zero1" for src, action, _ in machine.transitions):
        raise InputError(
            "the target state already has a zero1 transition; "
            "the appended zero-test tail would break action determinacy"
        )
    alpha = Alphabet(ACTIONS)
    states = list(machine.states)
    r = len(states)
    states.append(_fresh_name("r", states))
    s = len(states)
    states.append(_fresh_name("s", states))
    transitions: list[tuple[int, Optional[int], int]] = [
        (src, alpha.index(action), dst) for src, action, dst in machine.transitions
    ]
    guarded: dict[int, str] = {}
    for t, (src, action, dst) in enumerate(machine.transitions):
        if action == "zero1":
            guarded[t] = "G1"
        elif action == "zero2":
            guarded[t] = "G2"
    guarded[len(transitions)] = "G1"
    transitions.append((machine.target, alpha.index("zero1"), r))
    guarded[len(transitions)] = "G2"
    transitions.append((r, alpha.index("zero2"), s))
    underlying = FiniteAutomaton(
        alphabet=alpha,
        states=tuple(states),
        initial=machine.source,
        accepting=frozenset({s}),
        transitions=tuple(transitions),
    )
    return Hcs(alpha, underlying, {"G1": _counter_tracker(1), "G2": _counter_tracker(2)}, guarded)


@dataclass(frozen=True)
class BoundedEmptiness:
    """Outcome of the bounded semi-decision: a witness or "unknown up to"."""

    status: str  # "nonempty" | "unknown"
    witness: Optional[tuple[str, ...]]
    max_len: int

    @property
    def nonempty(self) -> bool:
        return self.status == "nonempty"


def bounded_reach_empty(hcs: Hcs, max_len: int, node_cap: int = DEFAULT_STATE_CAP) -> BoundedEmptiness:
    """Exhaustive configuration search over words up to ``max_len``.

    Never answers "empty": it either finds an accepted word or reports that
    none exists up to the bound. A layer of the search is the epsilon-closed
    set of ``HcsSemantics`` vertices its words reach.
    """
    semantics = HcsSemantics(hcs, node_cap)
    n = len(hcs.underlying.states)
    accepting = hcs.underlying.accepting
    symbols = hcs.alphabet.symbols

    def closed(v: int) -> list[int]:
        p, q = divmod(v, n)
        return [v - q + r for r in semantics.closure({q}, p)]

    def expand(v: int) -> list:
        return [(symbols[a], r) for a, w in semantics.successors(v) if a is not None for r in closed(w)]

    def start() -> list[int]:
        return closed(semantics.initial_product() * n + hcs.underlying.initial)

    word = layered_search(start, expand, lambda v: v % n in accepting, max_len, node_cap)
    return BoundedEmptiness("unknown" if word is None else "nonempty", word, max_len)


def delimited_star_hcs(vass: Vass) -> Hcs:
    """Recognize the delimited Kleene star of a cover-VASS language.

    The outer DFA accepts a single delimiter or delimiter-separated blocks;
    the guard is the input VASS behind a fresh initial state that skips any
    prefix and enters the original machine at the last delimiter, so each
    guard query checks exactly the most recent block. When the block
    language contains the empty word, consecutive delimiters close an empty
    block: that case is a fact about the language, not the history, so it
    becomes an unguarded self-loop.
    """
    if vass.mode != COVER:
        raise ContractError("the delimited star construction takes a cover-mode VASS")
    if "$" in vass.alphabet:
        raise InputError('the VASS alphabet already contains "$"')
    extended = Alphabet(vass.alphabet.symbols + ("$",))
    dollar = extended.index("$")
    n_sigma = len(vass.alphabet)

    guard_states = ["p0"]
    taken = {"p0"}
    for name in vass.states:
        guard_states.append(_fresh_name(name, taken))
        taken.add(guard_states[-1])
    zero = (0,) * vass.dim
    guard_transitions = [(0, a, zero, 0) for a in range(len(extended))]
    guard_transitions.append((0, dollar, zero, vass.initial + 1))
    guard_transitions += [
        (src + 1, label, update, dst + 1) for src, label, update, dst in vass.transitions
    ]
    guard = Vass(
        alphabet=extended,
        dim=vass.dim,
        states=tuple(guard_states),
        initial=0,
        accepting=frozenset(q + 1 for q in vass.accepting),
        transitions=tuple(guard_transitions),
        mode=COVER,
    )

    transitions: list[tuple[int, Optional[int], int]] = [(0, dollar, 1)]
    transitions += [(1, a, 2) for a in range(n_sigma)]
    transitions += [(2, a, 2) for a in range(n_sigma)]
    guarded = {len(transitions): "block"}
    transitions.append((2, dollar, 1))
    empty_block_ok = any(config_accepting(vass, q, c) for q, c in initial_configs(vass))
    if empty_block_ok:
        transitions.append((1, dollar, 1))
    underlying = FiniteAutomaton(
        alphabet=extended,
        states=("before", "after_delim", "in_block"),
        initial=0,
        accepting=frozenset({1}),
        transitions=tuple(transitions),
    )
    return Hcs(extended, underlying, {"block": guard}, guarded)
