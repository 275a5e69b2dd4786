"""History-constrained systems: run semantics, membership, emptiness, and
the constructions that relate them back to plain finite automata.

An HCS is an underlying transition system plus a guard table; a guarded
transition is admissible only when its guard accepts the sequence of
non-epsilon symbols read so far. Guards are regular automata, VASS, or
nested HCS. Epsilon moves never extend the history: a guard on an epsilon
transition reads the history's sigma-projection as it stands.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from . import vass as vassmod
from .automata import (
    DEFAULT_STATE_CAP,
    Alphabet,
    FiniteAutomaton,
    SubsetDfa,
    _dfa_rows,
    _fresh_name,
    complete,
)
from .errors import InputError, UnsupportedGuardError
from .vass import Vass

Guard = Union[FiniteAutomaton, Vass, "Hcs"]

REGULAR = "regular"
VASS = "vass"
NESTED = "nested"


def guard_kind(guard: Guard) -> str:
    if isinstance(guard, FiniteAutomaton):
        return REGULAR
    if isinstance(guard, Vass):
        return VASS
    if isinstance(guard, Hcs):
        return NESTED
    raise InputError(f"unsupported guard object {type(guard).__name__}")


@dataclass(frozen=True)
class Hcs:
    """An underlying automaton plus a guard table.

    ``guarded`` maps transition indices of the underlying automaton to guard
    names; transitions absent from the map carry the trivial guard (the full
    language), which is never materialized.
    """

    alphabet: Alphabet
    underlying: FiniteAutomaton
    guards: dict[str, Guard]
    guarded: dict[int, str]

    def __post_init__(self):
        if self.underlying.alphabet.symbols != self.alphabet.symbols:
            raise InputError("underlying automaton alphabet differs from the HCS alphabet")
        for idx, name in self.guarded.items():
            if not 0 <= idx < len(self.underlying.transitions):
                raise InputError(f"guarded transition index {idx} out of range")
            if name not in self.guards:
                raise InputError(f"guard {name!r} is not in the guard table")
        for name, guard in self.guards.items():
            guard_kind(guard)  # raises for an object that is no guard
            symbols = guard.alphabet.symbols
            if symbols != self.alphabet.symbols:
                raise InputError(
                    f"guard {name!r} alphabet {list(symbols)} differs from the HCS alphabet"
                )

    @property
    def deterministic(self) -> bool:
        """An HCS is deterministic exactly when its underlying automaton is."""
        return self.underlying.deterministic

    def guard_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.guards))


def hcs_size(hcs: Hcs) -> int:
    """Size measure: underlying states+transitions plus every guard's size."""
    total = hcs.underlying.size()
    for guard in hcs.guards.values():
        kind = guard_kind(guard)
        if kind == REGULAR:
            total += guard.size()
        elif kind == VASS:
            total += guard.unary_size()
        else:
            total += hcs_size(guard)
    return total


def total_state_count(hcs: Hcs) -> int:
    """States in the underlying automaton plus all guards, through nesting."""
    total = len(hcs.underlying.states)
    for guard in hcs.guards.values():
        kind = guard_kind(guard)
        if kind == NESTED:
            total += total_state_count(guard)
        else:
            total += len(guard.states)
    return total


# ---------------------------------------------------------------------------
# Prefix-deterministic stepping
#
# Guard runtime states are a deterministic function of the sigma-projection
# of the consumed prefix, so one runtime per guard is shared by every run in
# a configuration: a state index of the completed DFA guard, the lazy
# subset DFA state of an NFA guard (never determinized whole), the inner
# lazy DFA state for nested guards, and the configurations a VASS guard can
# reach (empty once the guard has died; maximal omega-configurations in
# cover mode, see ``vass.eps_closure_configs``).


class _RegularTracker:
    def __init__(self, guard: FiniteAutomaton):
        dfa = complete(guard)
        self.delta = _dfa_rows(dfa)
        self.accept = dfa.accepting
        self.start = dfa.initial

    def initial(self):
        return self.start

    def step(self, state, symbol: int):
        return self.delta[state][symbol]

    def accepting(self, state) -> bool:
        return state in self.accept


class _VassTracker:
    def __init__(self, guard: Vass, max_configs: int):
        self.guard = guard
        self.max_configs = max_configs

    def initial(self):
        return vassmod.initial_configs(self.guard, self.max_configs)

    def step(self, configs, symbol: int):
        return vassmod.step_configs(self.guard, configs, symbol, self.max_configs)

    def accepting(self, configs) -> bool:
        return any(vassmod.config_accepting(self.guard, q, c) for q, c in configs)


class GuardProduct:
    """The interned product of one guard tuple's runtimes.

    ``trackers`` hold one compiled tracker per guard, in the order given,
    all over ``alphabet``; ``products`` lists the guard-runtime tuples by
    product id; ``advance`` and ``admits`` are memoized in tables that fill
    as callers reach them.

    The product depends on the guards and the cap alone, never on the
    system they guard, so ``guard_product`` lets one thread's semantics
    over the same deterministic regular guard objects reuse one product,
    whatever the cap: their trackers take none.
    Like ``SubsetDfa``, a product is single-threaded: it interns without a
    lock, and the caches keep it to the thread that made it.
    """

    def __init__(self, alphabet: Alphabet, guards: tuple, max_states: int):
        self.guards = guards
        self.trackers = [_tracker(guard, max_states) for guard in guards]
        self.products: list[tuple] = []
        self._product_ids: dict[tuple, int] = {}
        # Flat memo tables, one row per product, None until asked for:
        # p * |alphabet| + a -> product id, and p * |guards| + g -> acceptance.
        self._width = len(alphabet)
        self._steps: list[Optional[int]] = []
        self._accepts: list[Optional[bool]] = []
        self._unfilled = ([None] * self._width, [None] * len(guards))

    def initial(self) -> int:
        return self.product_id(tuple(tr.initial() for tr in self.trackers))

    def product_id(self, guard_states: tuple) -> int:
        """Intern a tuple of guard runtimes; equal tuples share one id."""
        p = self._product_ids.get(guard_states)
        if p is None:
            self._steps += self._unfilled[0]
            self._accepts += self._unfilled[1]
            self.products.append(guard_states)
            p = self._product_ids[guard_states] = len(self.products) - 1
        return p

    def advance(self, p: int, a: int) -> int:
        """The guard product after reading symbol ``a``, memoized."""
        key = p * self._width + a
        nxt = self._steps[key]
        if nxt is None:
            stepped = tuple([tr.step(s, a) for tr, s in zip(self.trackers, self.products[p])])
            nxt = self._steps[key] = self.product_id(stepped)
        return nxt

    def admits(self, p: int, g: int) -> bool:
        """Whether guard ``g`` accepts in guard product ``p``, memoized."""
        key = p * len(self.trackers) + g
        ok = self._accepts[key]
        if ok is None:
            ok = self._accepts[key] = self.trackers[g].accepting(self.products[p][g])
        return ok


def _tracker(guard: Guard, max_states: int):
    kind = guard_kind(guard)
    if kind == REGULAR:
        return _RegularTracker(guard) if guard.deterministic else SubsetDfa(guard)
    if kind == VASS:
        return _VassTracker(guard, max_states)
    return HcsSemantics(guard, max_states)


# Two caches of compiled values, each thread its own pair (``_caches``):
# guard products of deterministic regular guard tuples, keyed by the guard
# ids in name order, and the semantics ``member`` walks, keyed by (system
# id, cap). No compiled value reaches a second thread, so none takes a
# lock. An entry holds the objects of its key alive, so no id in a live
# key is reused. A value is cached when it is first made; each cache keeps
# at most ``_SHARED_CAPACITY`` entries, least recently used out first.
_SHARED_CAPACITY = 16
#: A cached semantics whose lazy DFA holds more states than this after a
#: call is dropped: a VASS guard's lazy DFA has no bound of its own.
_SHARED_DFA_STATES = 4096


class _LruCache:
    """One of the caches above."""

    def __init__(self):
        self.entries: OrderedDict[tuple, object] = OrderedDict()

    def get(self, key: tuple, make: Callable[[], object]):
        """The entry under ``key``, or else ``make()``, cached under it."""
        value = self.entries.get(key)
        if value is not None:
            self.entries.move_to_end(key)
            return value
        value = self.entries[key] = make()
        if len(self.entries) > _SHARED_CAPACITY:
            self.entries.popitem(last=False)
        return value

    def drop(self, key: tuple, value) -> None:
        """Forget ``value`` if it is still the entry under ``key``."""
        if self.entries.get(key) is value:
            del self.entries[key]

    def clear(self) -> None:
        self.entries.clear()


class _Caches(threading.local):
    """The calling thread's two caches."""

    def __init__(self):
        self.products = _LruCache()
        self.semantics = _LruCache()


_caches = _Caches()


def guard_product(hcs: Hcs, max_states: int = DEFAULT_STATE_CAP) -> GuardProduct:
    """The product of the guards of ``hcs`` in name order: cached for the
    calling thread when there are guards and every one is a deterministic
    regular automaton; private otherwise. A private product is owned by the
    one semantics that asked for it, so the runtimes of a lazy guard
    tracker depend on that semantics' own steps alone. The guards fix the
    alphabet, and the trackers of deterministic regular guards take no cap,
    so the key holds neither."""
    guards = tuple([hcs.guards[name] for name in hcs.guard_names()])
    if not guards or not all(isinstance(guard, FiniteAutomaton) and guard.deterministic for guard in guards):
        return GuardProduct(hcs.alphabet, guards, max_states)
    return _caches.products.get(tuple(map(id, guards)), lambda: GuardProduct(hcs.alphabet, guards, max_states))


def _clear_guard_products() -> None:
    """Forget the calling thread's cached guard products and semantics (a
    cold cache)."""
    _caches.products.clear()
    _caches.semantics.clear()


class HcsSemantics(SubsetDfa):
    """Stepping machinery for one HCS: the lazy subset DFA of its underlying
    automaton over one ``GuardProduct`` of its guards.

    The product's ``initial``, ``advance`` and ``admits`` replace the
    trivial ones of ``SubsetDfa`` on the instance, so the stepping loops
    call the product directly; ``trackers`` and ``products`` are the
    product's. An ``HcsSemantics`` is itself a guard tracker
    (``initial``/``step``/``accepting``) for a nested guard, private to
    the semantics whose product holds it. Like ``SubsetDfa``, a semantics
    is single-threaded; ``member`` caches one per thread.
    """

    def __init__(self, hcs: Hcs, max_states: int = DEFAULT_STATE_CAP):
        self.hcs = hcs
        self.names = hcs.guard_names()
        index_of = {name: i for i, name in enumerate(self.names)}
        super().__init__(hcs.underlying, {t: index_of[name] for t, name in hcs.guarded.items()})
        product = guard_product(hcs, max_states)
        self.trackers, self.products = product.trackers, product.products
        self.initial_product, self.advance, self.admits = product.initial, product.advance, product.admits


def member(hcs: Hcs, word: Sequence[str], max_states: int = DEFAULT_STATE_CAP) -> bool:
    """Decide whether ``word`` has an accepting run consistent with all guards.

    The word walks the system's semantics for this cap, cached for the
    calling thread from its first call (see ``_caches``), so steps that
    earlier words filled are read from its table. A semantics whose lazy
    DFA outgrows ``_SHARED_DFA_STATES`` is dropped after the call.
    """
    key = (id(hcs), max_states)
    semantics = _caches.semantics.get(key, lambda: HcsSemantics(hcs, max_states))
    try:
        return semantics.accepts(word)
    finally:
        if len(semantics.configs) > _SHARED_DFA_STATES:
            _caches.semantics.drop(key, semantics)


def is_empty(hcs: Hcs, max_configs: int = DEFAULT_STATE_CAP) -> bool:
    """Emptiness by breadth-first exploration of (state, guard states) pairs.

    Only regular and nested guards are supported here; emptiness with VASS
    guards has its own engines.
    """
    for name, guard in hcs.guards.items():
        if guard_kind(guard) == VASS:
            raise UnsupportedGuardError(
                f"guard {name!r} is a VASS; use the cover/bounded emptiness engines"
            )
    _, _, hit = HcsSemantics(hcs, max_configs).explore(
        max_configs, "emptiness exploration exceeded {} configurations", hcs.underlying.accepting
    )
    return hit is None


# ---------------------------------------------------------------------------
# Determinization


def determinize_hcs(hcs: Hcs, max_states: int = DEFAULT_STATE_CAP) -> FiniteAutomaton:
    """Build a complete DFA for the HCS language.

    The lazy DFA of ``HcsSemantics``, built to completion: each state is a
    maximal subset of underlying states paired with one runtime per guard,
    numbered in breadth-first order. Dead subsets share a single sink. A
    nondeterministic regular guard and a nested guard run on their own
    lazy DFAs, which are filled only as far as the outer DFA reaches them,
    so ``max_states`` bounds the outer DFA alone.
    """
    _require_regular(hcs)
    return HcsSemantics(hcs, max_states).build(max_states, "d{}".format)


def _require_regular(hcs: Hcs) -> None:
    """Refuse a VASS guard at any depth: the guards of nested guards first,
    in table order, then the system's own."""
    for guard in hcs.guards.values():
        if guard_kind(guard) == NESTED:
            _require_regular(guard)
    for name, guard in hcs.guards.items():
        if guard_kind(guard) == VASS:
            raise UnsupportedGuardError(f"determinization requires regular guards, got {name!r}")


# ---------------------------------------------------------------------------
# Intersection gadgets


DELIMITER = "$"


def build_intersection_nfa(guards: Sequence[Guard], alphabet: Optional[Alphabet] = None) -> Hcs:
    """Chain gadget intersecting the guard languages with epsilon transitions.

    A sigma-self-loop state feeds a chain of k guarded epsilon transitions;
    the word is consumed first and every guard must accept it to traverse the
    chain. With no guards the result accepts the full language (the empty
    intersection convention), which requires an explicit alphabet.
    """
    return _chain_gadget(guards, alphabet, delimited=False)


def build_intersection_dfa(guards: Sequence[Guard], alphabet: Optional[Alphabet] = None) -> Hcs:
    """Deterministic intersection gadget: accepts w $^k for w in every guard.

    The epsilon chain is replaced by a fresh delimiter symbol and the i-th
    guard is rebuilt to accept w followed by i-1 delimiters, matching its
    position in the chain.
    """
    return _chain_gadget(guards, alphabet, delimited=True)


def _chain_gadget(guards: Sequence[Guard], alphabet: Optional[Alphabet], delimited: bool) -> Hcs:
    """States q0..qk: sigma-self-loops on q0, then the link q(i-1) -> qi
    guarded by guard i. A link is epsilon, or, when ``delimited``, the
    delimiter appended to the alphabet, and guard i gets a tail of i-1
    delimiters."""
    if guards:
        alphabet = guards[0].alphabet
        for guard in guards:
            if guard.alphabet.symbols != alphabet.symbols:
                raise InputError("intersection guards must share one alphabet")
    elif alphabet is None:
        raise InputError("the empty intersection needs an explicit alphabet")
    extended, link = alphabet, None
    if delimited:
        if DELIMITER in alphabet:
            raise InputError(f"symbol {DELIMITER!r} already belongs to the alphabet")
        extended, link = Alphabet(alphabet.symbols + (DELIMITER,)), len(alphabet)
    transitions = [(0, a, 0) for a in range(len(alphabet))]
    guarded: dict[int, str] = {}
    table: dict[str, Guard] = {}
    for i, guard in enumerate(guards, 1):
        guarded[len(transitions)] = f"g{i}"
        table[f"g{i}"] = _guard_with_delimiter_tail(guard, i - 1, extended) if delimited else guard
        transitions.append((i - 1, link, i))
    underlying = FiniteAutomaton(
        alphabet=extended,
        states=tuple(f"q{i}" for i in range(len(guards) + 1)),
        initial=0,
        accepting=frozenset({len(guards)}),
        transitions=tuple(transitions),
    )
    return Hcs(extended, underlying, table, guarded)


def _guard_with_delimiter_tail(guard: Guard, tail: int, extended: Alphabet) -> Guard:
    """Rebuild a guard over the extended alphabet to accept w followed by
    ``tail`` delimiter symbols, for w in the original language."""
    kind = guard_kind(guard)
    if kind not in (REGULAR, VASS):
        raise UnsupportedGuardError("delimiter extension supports regular and VASS guards only")
    states = list(guard.states)
    links: list[tuple[int, int]] = []
    accepting = frozenset(guard.accepting)
    for step in range(tail):
        fresh = len(states)
        states.append(_fresh_name(f"tail{step + 1}", states))
        links += [(q, fresh) for q in (sorted(accepting) if step == 0 else [fresh - 1])]
    if tail:
        accepting = frozenset({len(states) - 1})
    dollar = extended.index(DELIMITER)
    if kind == REGULAR:
        return FiniteAutomaton(
            alphabet=extended,
            states=tuple(states),
            initial=guard.initial,
            accepting=accepting,
            transitions=tuple(guard.transitions) + tuple((q, dollar, r) for q, r in links),
        )
    zero = (0,) * guard.dim
    return Vass(
        alphabet=extended,
        dim=guard.dim,
        states=tuple(states),
        initial=guard.initial,
        accepting=accepting,
        transitions=tuple(guard.transitions) + tuple((q, dollar, zero, r) for q, r in links),
        mode=guard.mode,
    )


# ---------------------------------------------------------------------------
# Nested guards


def flatten_nested(hcs: Hcs, max_states: int = DEFAULT_STATE_CAP) -> Hcs:
    """Replace every nested guard by its DFA from ``determinize_hcs``.

    Depth-one inputs are returned structurally unchanged.
    """
    if not any(guard_kind(g) == NESTED for g in hcs.guards.values()):
        return hcs
    table = dict(hcs.guards)
    for name, guard in hcs.guards.items():
        if guard_kind(guard) == NESTED:
            table[name] = determinize_hcs(guard, max_states)
    return Hcs(hcs.alphabet, hcs.underlying, table, dict(hcs.guarded))
