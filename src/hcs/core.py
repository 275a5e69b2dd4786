"""History-constrained systems: run semantics, membership, emptiness, and
the constructions that relate them back to plain finite automata.

An HCS is an underlying transition system plus a guard table; a guarded
transition is admissible only when its guard accepts the sequence of
non-epsilon symbols read so far. Guards are regular automata, VASS, or
nested HCS. Epsilon moves never extend the history: a guard on an epsilon
transition reads the history's sigma-projection as it stands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from . import vass as vassmod
from .automata import (
    DEFAULT_STATE_CAP,
    Alphabet,
    FiniteAutomaton,
    _dfa_rows,
    _trusted,
    complete,
    determinize,
)
from .errors import InputError, ResourceLimitError, UnsupportedGuardError
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
            kind = guard_kind(guard)
            symbols = guard.alphabet.symbols
            if symbols != self.alphabet.symbols:
                raise InputError(
                    f"guard {name!r} alphabet {list(symbols)} differs from the HCS alphabet"
                )

    @property
    def deterministic(self) -> bool:
        """An HCS is deterministic exactly when its underlying automaton is."""
        return self.underlying.deterministic

    def guard_of(self, transition_index: int) -> Optional[Guard]:
        name = self.guarded.get(transition_index)
        return None if name is None else self.guards[name]

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
# a configuration: a DFA state index for regular guards, the inner lazy DFA
# state for nested guards, and the configurations a VASS guard can reach
# (empty once the guard has died; maximal omega-configurations in cover
# mode, see ``vass.eps_closure_configs``).


class _RegularTracker:
    def __init__(self, guard: FiniteAutomaton, max_states: int):
        dfa = guard if guard.deterministic else determinize(guard, max_states)
        dfa = complete(dfa)
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


class _NestedTracker:
    def __init__(self, guard: "Hcs", max_states: int):
        self.semantics = HcsSemantics(guard, max_states)

    def initial(self):
        return self.semantics.initial()

    def step(self, state, symbol: int):
        return self.semantics.step(state, symbol)

    def accepting(self, state) -> bool:
        return self.semantics.accepting(state)


class HcsSemantics:
    """Stepping machinery for one HCS: a lazily built DFA over an interned
    product of guard runtimes.

    A DFA state is an int standing for an epsilon-closed subset of underlying
    states paired with a guard-product id; ``configs`` lists the pairs by id.
    A step is computed the first time it is asked for and then read from a
    table. Every empty subset is the one dead state, which steps to itself.
    """

    def __init__(self, hcs: Hcs, max_states: int = DEFAULT_STATE_CAP):
        self.hcs = hcs
        self.names = hcs.guard_names()
        index_of = {name: i for i, name in enumerate(self.names)}
        self.trackers = []
        for name in self.names:
            guard = hcs.guards[name]
            kind = guard_kind(guard)
            if kind == REGULAR:
                self.trackers.append(_RegularTracker(guard, max_states))
            elif kind == VASS:
                self.trackers.append(_VassTracker(guard, max_states))
            else:
                self.trackers.append(_NestedTracker(guard, max_states))
        # (state, symbol) -> [(destination, guard position or None)]
        self.sigma_edges: dict[tuple[int, int], list[tuple[int, Optional[int]]]] = {}
        self.eps_edges: dict[int, list[tuple[int, Optional[int]]]] = {}
        for t, (src, label, dst) in enumerate(hcs.underlying.transitions):
            name = hcs.guarded.get(t)
            g = None if name is None else index_of[name]
            if label is None:
                self.eps_edges.setdefault(src, []).append((dst, g))
            else:
                self.sigma_edges.setdefault((src, label), []).append((dst, g))
        # Product exploration state, filled on first use: per-state sigma
        # edges sorted by symbol, interned guard-state tuples, and the
        # memoized step and acceptance tables keyed by product id.
        self._width = len(hcs.alphabet)
        self._moves: Optional[list[list[tuple[int, int, Optional[int]]]]] = None
        self.products: list[tuple] = []
        self._product_ids: dict[tuple, int] = {}
        self._steps: dict[int, int] = {}  # p * |alphabet| + a -> product id
        self._accepts: dict[int, bool] = {}  # p * |guards| + g -> acceptance
        # The lazy DFA: (subset, product id) by state id, and its step table
        # (d * |alphabet| + a -> state id, None until asked for).
        self.configs: list[tuple[frozenset[int], Optional[int]]] = []
        self._config_ids: dict[tuple[frozenset[int], Optional[int]], int] = {}
        self._delta: list[Optional[int]] = []
        self._unfilled = [None] * self._width

    # -- the lazy DFA --

    def initial(self) -> int:
        p = self.initial_product()
        return self._state(self.closure({self.hcs.underlying.initial}, p), p)

    def step(self, d: int, symbol: str | int) -> int:
        a = symbol if isinstance(symbol, int) else self.hcs.alphabet.index(symbol)
        i = d * self._width + a
        nxt = self._delta[i]
        if nxt is None:
            subset, p = self.configs[d]
            targets = set()
            for q in subset:
                for dst, g in self.sigma_edges.get((q, a), ()):
                    if g is None or self.admits(p, g):
                        targets.add(dst)
            if targets:
                p = self.advance(p, a)
                closed = self.closure(targets, p) if self.eps_edges else frozenset(targets)
                nxt = self._state(closed, p)
            else:
                nxt = self._state(frozenset(), None)
            self._delta[i] = nxt
        return nxt

    def accepting(self, d: int) -> bool:
        return not self.hcs.underlying.accepting.isdisjoint(self.configs[d][0])

    def _state(self, subset: frozenset[int], p: Optional[int]) -> int:
        key = (subset, p)
        d = self._config_ids.get(key)
        if d is None:
            d = self._config_ids[key] = len(self.configs)
            self.configs.append(key)
            self._delta += self._unfilled if subset else [d] * self._width
        return d

    def closure(self, seen: set[int], p: int) -> frozenset[int]:
        """Close ``seen`` in place under the epsilon moves admitted in ``p``."""
        todo = list(seen)
        while todo:
            q = todo.pop()
            for dst, g in self.eps_edges.get(q, ()):
                if dst not in seen and (g is None or self.admits(p, g)):
                    seen.add(dst)
                    todo.append(dst)
        return frozenset(seen)

    # -- the product of one underlying state with the guard runtimes --

    def initial_product(self) -> int:
        return self.product_id(tuple(tr.initial() for tr in self.trackers))

    def product_id(self, guard_states: tuple) -> int:
        """Intern a tuple of guard runtimes; equal tuples share one id."""
        p = self._product_ids.get(guard_states)
        if p is None:
            p = self._product_ids[guard_states] = len(self.products)
            self.products.append(guard_states)
        return p

    def advance(self, p: int, a: int) -> int:
        """The guard product after reading symbol ``a``, memoized."""
        key = p * self._width + a
        nxt = self._steps.get(key)
        if nxt is None:
            stepped = tuple([tr.step(s, a) for tr, s in zip(self.trackers, self.products[p])])
            nxt = self._steps[key] = self.product_id(stepped)
        return nxt

    def admits(self, p: int, g: int) -> bool:
        """Whether guard ``g`` accepts in guard product ``p``, memoized."""
        key = p * len(self.trackers) + g
        ok = self._accepts.get(key)
        if ok is None:
            ok = self._accepts[key] = self.trackers[g].accepting(self.products[p][g])
        return ok

    def successors(self, q: int, p: int) -> list[tuple[Optional[int], int, int]]:
        """Admissible moves out of (q, p) as (label, destination, product id).

        Epsilon moves come first and keep the guard product; sigma moves
        follow by symbol, each group in transition order.
        """
        if self._moves is None:
            self._moves = [[] for _ in self.hcs.underlying.states]
            for (src, a), targets in sorted(self.sigma_edges.items()):
                self._moves[src] += [(a, dst, g) for dst, g in targets]
        moves = [
            (None, dst, p)
            for dst, g in self.eps_edges.get(q, ())
            if g is None or self.admits(p, g)
        ]
        last = nxt = None
        for a, dst, g in self._moves[q]:
            if g is None or self.admits(p, g):
                if a != last:
                    last, nxt = a, self.advance(p, a)
                moves.append((a, dst, nxt))
        return moves

    def explore(self, max_states: int, limit: str, stop: frozenset[int] = frozenset()):
        """Breadth-first exploration of the reachable (state, product id) pairs.

        Returns ``(vertices, edges)``: vertices in discovery order and edges
        as (source, label, target) vertex triples, grouped by source in
        vertex order. Returns None as soon as a vertex whose state is in
        ``stop`` is dequeued. Discovering vertex number ``max_states + 1``
        raises ResourceLimitError with ``limit`` formatted by the cap.
        """
        n = len(self.hcs.underlying.states)
        start = (self.hcs.underlying.initial, self.initial_product())
        order = {start[1] * n + start[0]: 0}  # vertex key p * n + q
        vertices = [start]
        edges: list[tuple[int, Optional[int], int]] = []
        for v, (q, p) in enumerate(vertices):
            if q in stop:
                return None
            for label, dst, nxt in self.successors(q, p):
                key = nxt * n + dst
                w = order.get(key)
                if w is None:
                    if len(vertices) >= max_states:
                        raise ResourceLimitError(limit.format(max_states), max_states)
                    w = order[key] = len(vertices)
                    vertices.append((dst, nxt))
                edges.append((v, label, w))
        return vertices, edges


def member(hcs: Hcs, word: Sequence[str], max_states: int = DEFAULT_STATE_CAP) -> bool:
    """Decide whether ``word`` has an accepting run consistent with all guards."""
    semantics = HcsSemantics(hcs, max_states)
    step = semantics.step
    d = semantics.initial()
    for a in map(hcs.alphabet.index, word):
        d = step(d, a)
    return semantics.accepting(d)


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
    explored = HcsSemantics(hcs, max_configs).explore(
        max_configs, "emptiness exploration exceeded {} configurations", hcs.underlying.accepting
    )
    return explored is not None


# ---------------------------------------------------------------------------
# Determinization


def determinize_hcs(hcs: Hcs, max_states: int = DEFAULT_STATE_CAP) -> FiniteAutomaton:
    """Build a complete DFA for the HCS language.

    The lazy DFA of ``HcsSemantics``, built to completion: each state is a
    maximal subset of underlying states paired with one state per
    (determinized, completed) guard, numbered in breadth-first order. Dead
    subsets share a single sink. Nested guards are flattened first.
    """
    hcs = flatten_nested(hcs, max_states)
    for name, guard in hcs.guards.items():
        if guard_kind(guard) != REGULAR:
            raise UnsupportedGuardError(f"determinization requires regular guards, got {name!r}")
    semantics = HcsSemantics(hcs, max_states)
    step = semantics.step
    configs = semantics.configs
    symbols = range(len(hcs.alphabet))
    cap = max(max_states, 1)  # the start state is never refused
    transitions: list[tuple[int, Optional[int], int]] = []
    d = semantics.initial()
    while d < len(configs):
        transitions += [(d, a, step(d, a)) for a in symbols]
        if len(configs) > cap:
            raise ResourceLimitError(f"determinization exceeded the state cap of {max_states}", max_states)
        d += 1
    return _trusted(
        hcs.alphabet,
        tuple(f"d{i}" for i in range(len(configs))),
        0,
        frozenset(d for d in range(len(configs)) if semantics.accepting(d)),
        tuple(transitions),
        True,
    )


# ---------------------------------------------------------------------------
# Intersection gadgets


def build_intersection_nfa(guards: Sequence[Guard], alphabet: Optional[Alphabet] = None) -> Hcs:
    """Chain gadget intersecting the guard languages with epsilon transitions.

    A sigma-self-loop state feeds a chain of k guarded epsilon transitions;
    the word is consumed first and every guard must accept it to traverse the
    chain. With no guards the result accepts the full language (the empty
    intersection convention), which requires an explicit alphabet.
    """
    if not guards:
        if alphabet is None:
            raise InputError("the empty intersection needs an explicit alphabet")
        underlying = FiniteAutomaton(
            alphabet=alphabet,
            states=("q0",),
            initial=0,
            accepting=frozenset({0}),
            transitions=tuple((0, a, 0) for a in range(len(alphabet))),
        )
        return Hcs(alphabet, underlying, {}, {})
    alpha = guards[0].alphabet
    for guard in guards:
        if guard.alphabet.symbols != alpha.symbols:
            raise InputError("intersection guards must share one alphabet")
    k = len(guards)
    states = tuple(f"q{i}" for i in range(k + 1))
    transitions = [(0, a, 0) for a in range(len(alpha))]
    guarded: dict[int, str] = {}
    table: dict[str, Guard] = {}
    for i in range(1, k + 1):
        guarded[len(transitions)] = f"g{i}"
        table[f"g{i}"] = guards[i - 1]
        transitions.append((i - 1, None, i))
    underlying = FiniteAutomaton(
        alphabet=alpha,
        states=states,
        initial=0,
        accepting=frozenset({k}),
        transitions=tuple(transitions),
    )
    return Hcs(alpha, underlying, table, guarded)


DELIMITER = "$"


def _fresh_name(base: str, taken: Sequence[str]) -> str:
    name = base
    while name in taken:
        name = "_" + name
    return name


def _extend_alphabet(alpha: Alphabet, symbol: str) -> Alphabet:
    if symbol in alpha:
        raise InputError(f"symbol {symbol!r} already belongs to the alphabet")
    return Alphabet(alpha.symbols + (symbol,))


def _guard_with_delimiter_tail(guard: Guard, tail: int, extended: Alphabet) -> Guard:
    """Rebuild a guard over the extended alphabet to accept w followed by
    ``tail`` delimiter symbols, for w in the original language."""
    dollar = extended.index(DELIMITER)
    kind = guard_kind(guard)
    if kind == REGULAR:
        states = list(guard.states)
        transitions = list(guard.transitions)
        accepting = set(guard.accepting)
        for step in range(tail):
            fresh = len(states)
            states.append(_fresh_name(f"tail{step + 1}", states))
            for q in sorted(accepting) if step == 0 else [fresh - 1]:
                transitions.append((q, dollar, fresh))
            if step == tail - 1:
                accepting = {fresh}
        return FiniteAutomaton(
            alphabet=extended,
            states=tuple(states),
            initial=guard.initial,
            accepting=frozenset(accepting),
            transitions=tuple(transitions),
        )
    if kind == VASS:
        states = list(guard.states)
        transitions = [(src, label, update, dst) for src, label, update, dst in guard.transitions]
        accepting = set(guard.accepting)
        zero = (0,) * guard.dim
        for step in range(tail):
            fresh = len(states)
            states.append(_fresh_name(f"tail{step + 1}", states))
            for q in sorted(accepting) if step == 0 else [fresh - 1]:
                transitions.append((q, dollar, zero, fresh))
            if step == tail - 1:
                accepting = {fresh}
        return Vass(
            alphabet=extended,
            dim=guard.dim,
            states=tuple(states),
            initial=guard.initial,
            accepting=frozenset(accepting),
            transitions=tuple(transitions),
            mode=guard.mode,
        )
    raise UnsupportedGuardError("delimiter extension supports regular and VASS guards only")


def build_intersection_dfa(guards: Sequence[Guard], alphabet: Optional[Alphabet] = None) -> Hcs:
    """Deterministic intersection gadget: accepts w $^k for w in every guard.

    The epsilon chain is replaced by a fresh delimiter symbol and the i-th
    guard is rebuilt to accept w followed by i-1 delimiters, matching its
    position in the chain.
    """
    if not guards:
        if alphabet is None:
            raise InputError("the empty intersection needs an explicit alphabet")
        extended = _extend_alphabet(alphabet, DELIMITER)
        underlying = FiniteAutomaton(
            alphabet=extended,
            states=("q0",),
            initial=0,
            accepting=frozenset({0}),
            transitions=tuple((0, a, 0) for a in range(len(alphabet))),
        )
        return Hcs(extended, underlying, {}, {})
    alpha = guards[0].alphabet
    for guard in guards:
        if guard.alphabet.symbols != alpha.symbols:
            raise InputError("intersection guards must share one alphabet")
    extended = _extend_alphabet(alpha, DELIMITER)
    dollar = extended.index(DELIMITER)
    k = len(guards)
    states = tuple(f"q{i}" for i in range(k + 1))
    transitions = [(0, a, 0) for a in range(len(alpha))]
    guarded: dict[int, str] = {}
    table: dict[str, Guard] = {}
    for i in range(1, k + 1):
        guarded[len(transitions)] = f"g{i}"
        table[f"g{i}"] = _guard_with_delimiter_tail(guards[i - 1], i - 1, extended)
        transitions.append((i - 1, dollar, i))
    underlying = FiniteAutomaton(
        alphabet=extended,
        states=states,
        initial=0,
        accepting=frozenset({k}),
        transitions=tuple(transitions),
    )
    return Hcs(extended, underlying, table, guarded)


# ---------------------------------------------------------------------------
# Nested guards


def has_nested_guards(hcs: Hcs) -> bool:
    return any(guard_kind(g) == NESTED for g in hcs.guards.values())


def flatten_nested(hcs: Hcs, max_states: int = DEFAULT_STATE_CAP) -> Hcs:
    """Replace every nested guard by an equivalent DFA, bottom-up.

    Depth-one inputs are returned structurally unchanged.
    """
    if not has_nested_guards(hcs):
        return hcs
    table: dict[str, Guard] = {}
    for name, guard in hcs.guards.items():
        if guard_kind(guard) == NESTED:
            table[name] = determinize_hcs(guard, max_states)
        else:
            table[name] = guard
    return Hcs(hcs.alphabet, hcs.underlying, table, dict(hcs.guarded))
