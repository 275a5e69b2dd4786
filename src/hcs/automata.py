"""Finite automata: representation, simulation, determinization, minimization.

States are referenced by index into a name list; transition labels are symbol
indices, with None standing for epsilon. All values are immutable after
construction and every operation is a pure function of its inputs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ContractError, InputError, ResourceLimitError

#: Reserved label name for epsilon in documents and word syntax.
EPS_NAME = "eps"

#: Default cap on constructed state counts; the constructions here are
#: exponential by design, so we fail loudly instead of thrashing.
DEFAULT_STATE_CAP = 1_000_000


@dataclass(frozen=True)
class Alphabet:
    """An ordered list of distinct symbol names; "eps" is reserved."""

    symbols: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index: dict[str, int] = {}
        for sym in self.symbols:
            if not sym:
                raise InputError("alphabet symbols must be non-empty strings")
            if sym == EPS_NAME:
                raise InputError('"eps" is reserved for epsilon and cannot be an alphabet symbol')
            if sym in index:
                raise InputError(f"duplicate alphabet symbol {sym!r}")
            index[sym] = len(index)
        object.__setattr__(self, "_index", index)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except (KeyError, TypeError):
            raise InputError(f"unknown symbol {symbol!r} (alphabet: {list(self.symbols)})") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[str]:
        return iter(self.symbols)


def alphabet(*symbols: str) -> Alphabet:
    """Convenience constructor: ``alphabet("a", "b")``."""
    return Alphabet(tuple(symbols))


@dataclass(frozen=True)
class FiniteAutomaton:
    """An NFA (or DFA) over a named alphabet, with optional epsilon labels.

    ``transitions`` holds (from-state, label, to-state) triples where the
    label is a symbol index or None for epsilon. ``deterministic`` is derived:
    no epsilon transition and at most one transition per (state, symbol).
    """

    alphabet: Alphabet
    states: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    transitions: tuple[tuple[int, Optional[int], int], ...]
    deterministic: bool = field(init=False)

    def __post_init__(self):
        n = len(self.states)
        if len(set(self.states)) != n:
            raise InputError("duplicate state names")
        if not 0 <= self.initial < n:
            raise InputError(f"initial state index {self.initial} out of range")
        for q in self.accepting:
            if not 0 <= q < n:
                raise InputError(f"accepting state index {q} out of range")
        n_sym = len(self.alphabet)
        seen = set()
        keys = set()
        for src, label, dst in self.transitions:
            if not (0 <= src < n and 0 <= dst < n):
                raise InputError(f"transition ({src}, {label}, {dst}) has an out-of-range state")
            if label is not None and not 0 <= label < n_sym:
                raise InputError(f"transition label index {label} out of range")
            if (src, label, dst) in seen:
                raise InputError(f"duplicate transition ({src}, {label}, {dst})")
            seen.add((src, label, dst))
            keys.add((src, label))
        det = all(label is not None for _, label, _ in self.transitions) and len(keys) == len(seen)
        object.__setattr__(self, "deterministic", det)

    def size(self) -> int:
        """Size measure: number of states plus number of transitions."""
        return len(self.states) + len(self.transitions)

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise InputError(f"unknown state {name!r}") from None

    def transition_map(self) -> dict[tuple[int, Optional[int]], list[int]]:
        """Map (state, label) -> successor list, built fresh on each call."""
        out: dict[tuple[int, Optional[int]], list[int]] = {}
        for src, label, dst in self.transitions:
            out.setdefault((src, label), []).append(dst)
        return out

    def is_complete(self) -> bool:
        """True if every (state, symbol) pair has at least one transition."""
        keys = {(src, label) for src, label, _ in self.transitions if label is not None}
        return all(
            (q, a) in keys for q in range(len(self.states)) for a in range(len(self.alphabet))
        )


def _eps_closure(delta: dict[tuple[int, Optional[int]], list[int]], states: Iterable[int]) -> frozenset[int]:
    closure = set(states)
    stack = list(closure)
    while stack:
        q = stack.pop()
        for nxt in delta.get((q, None), ()):
            if nxt not in closure:
                closure.add(nxt)
                stack.append(nxt)
    return frozenset(closure)


def accepts(automaton: FiniteAutomaton, word: Sequence[str]) -> bool:
    """Decide whether some run labelled by ``word`` reaches an accepting state.

    Epsilon moves are free; symbols are given by name and must belong to the
    automaton's alphabet.
    """
    indices = [automaton.alphabet.index(sym) for sym in word]
    delta = automaton.transition_map()
    current = _eps_closure(delta, [automaton.initial])
    for a in indices:
        nxt: set[int] = set()
        for q in current:
            nxt.update(delta.get((q, a), ()))
        current = _eps_closure(delta, nxt)
        if not current:
            return False
    return bool(current & automaton.accepting)


def complete(automaton: FiniteAutomaton, sink_name: str = "sink") -> FiniteAutomaton:
    """Add a non-accepting sink so every (state, symbol) pair has a move.

    Returns the input unchanged when it is already complete. Preserves
    determinism.
    """
    if automaton.is_complete():
        return automaton
    name = sink_name
    while name in automaton.states:
        name = "_" + name
    states = automaton.states + (name,)
    sink = len(automaton.states)
    keys = {(src, label) for src, label, _ in automaton.transitions if label is not None}
    extra = [
        (q, a, sink)
        for q in range(len(states))
        for a in range(len(automaton.alphabet))
        if (q, a) not in keys and q != sink
    ]
    extra += [(sink, a, sink) for a in range(len(automaton.alphabet))]
    return FiniteAutomaton(
        alphabet=automaton.alphabet,
        states=states,
        initial=automaton.initial,
        accepting=automaton.accepting,
        transitions=automaton.transitions + tuple(extra),
    )


def determinize(nfa: FiniteAutomaton, max_states: int = DEFAULT_STATE_CAP) -> FiniteAutomaton:
    """Powerset construction; the result is deterministic and complete.

    Subset states are explored breadth-first with symbols in alphabet order,
    so the output ordering is canonical. The empty subset becomes an explicit
    sink, which keeps the reachable state count at or below 2^|Q|.
    """
    delta = nfa.transition_map()
    start = _eps_closure(delta, [nfa.initial])
    order: dict[frozenset[int], int] = {start: 0}
    names = [_subset_name(start, nfa.states)]
    transitions: list[tuple[int, Optional[int], int]] = []
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        src = order[subset]
        for a in range(len(nfa.alphabet)):
            nxt: set[int] = set()
            for q in subset:
                nxt.update(delta.get((q, a), ()))
            closed = _eps_closure(delta, nxt)
            if closed not in order:
                if len(order) >= max_states:
                    raise ResourceLimitError(
                        f"determinization exceeded the state cap of {max_states}", max_states
                    )
                order[closed] = len(order)
                names.append(_subset_name(closed, nfa.states))
                queue.append(closed)
            transitions.append((src, a, order[closed]))
    accepting = frozenset(order[s] for s in order if s & nfa.accepting)
    return FiniteAutomaton(
        alphabet=nfa.alphabet,
        states=tuple(names),
        initial=0,
        accepting=accepting,
        transitions=tuple(transitions),
    )


def _subset_name(subset: frozenset[int], names: Sequence[str]) -> str:
    if not subset:
        return "{}"
    return "{" + " ".join(names[q] for q in sorted(subset)) + "}"


def is_empty(automaton: FiniteAutomaton) -> bool:
    """True iff no accepting state is reachable from the initial state."""
    delta = automaton.transition_map()
    seen = {automaton.initial}
    queue = deque(seen)
    while queue:
        q = queue.popleft()
        if q in automaton.accepting:
            return False
        for a in [None] + list(range(len(automaton.alphabet))):
            for nxt in delta.get((q, a), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return True


def minimize(dfa: FiniteAutomaton, max_states: int = DEFAULT_STATE_CAP) -> FiniteAutomaton:
    """Hopcroft partition refinement to the canonical minimal complete DFA.

    Requires deterministic input. The result is complete, has no two
    language-equivalent states, and is renamed in breadth-first discovery
    order ("m0", "m1", ...) so equal languages yield identical structures.
    """
    if not dfa.deterministic:
        raise ContractError("minimize requires a deterministic automaton")
    dfa = complete(dfa, "sink")
    if len(dfa.states) > max_states:
        raise ResourceLimitError(f"minimization input exceeds the state cap of {max_states}", max_states)
    delta = {(src, label): dst for src, label, dst in dfa.transitions}
    n_sym = len(dfa.alphabet)

    reachable = [dfa.initial]
    seen = {dfa.initial}
    for q in reachable:
        for a in range(n_sym):
            nxt = delta[(q, a)]
            if nxt not in seen:
                seen.add(nxt)
                reachable.append(nxt)

    block = _hopcroft_blocks(reachable, n_sym, delta, dfa.accepting)

    # BFS over blocks from the initial block, symbols in alphabet order.
    initial_block = block[dfa.initial]
    order: dict[int, int] = {initial_block: 0}
    representative = {initial_block: dfa.initial}
    queue = deque([initial_block])
    transitions: list[tuple[int, Optional[int], int]] = []
    while queue:
        b = queue.popleft()
        q = representative[b]
        for a in range(n_sym):
            nb = block[delta[(q, a)]]
            if nb not in order:
                order[nb] = len(order)
                representative[nb] = delta[(q, a)]
                queue.append(nb)
            transitions.append((order[b], a, order[nb]))
    accepting = frozenset(order[block[q]] for q in reachable if q in dfa.accepting)
    return FiniteAutomaton(
        alphabet=dfa.alphabet,
        states=tuple(f"m{i}" for i in range(len(order))),
        initial=0,
        accepting=accepting,
        transitions=tuple(transitions),
    )


def _hopcroft_blocks(
    reachable: list[int],
    n_sym: int,
    delta: dict[tuple[int, Optional[int]], int],
    accepting: frozenset[int],
) -> dict[int, int]:
    """Coarsest language-equivalence partition of a complete DFA.

    Worklist refinement: splitting always enqueues the smaller half, giving
    the usual n log n behaviour. Returns a block id per reachable state.
    """
    blocks: list[set[int]] = []
    block_of: dict[int, int] = {}
    for group in (
        [q for q in reachable if q in accepting],
        [q for q in reachable if q not in accepting],
    ):
        if group:
            bid = len(blocks)
            blocks.append(set(group))
            for q in group:
                block_of[q] = bid
    pre: list[dict[int, list[int]]] = [{} for _ in range(n_sym)]
    for p in reachable:
        for a in range(n_sym):
            pre[a].setdefault(delta[(p, a)], []).append(p)
    work = deque((bid, a) for bid in range(len(blocks)) for a in range(n_sym))
    while work:
        bid, a = work.popleft()
        moved_in: set[int] = set()
        for q in blocks[bid]:
            moved_in.update(pre[a].get(q, ()))
        affected: dict[int, set[int]] = {}
        for p in moved_in:
            affected.setdefault(block_of[p], set()).add(p)
        for ybid, inside in affected.items():
            if len(inside) == len(blocks[ybid]):
                continue
            outside = blocks[ybid] - inside
            small = inside if len(inside) <= len(outside) else outside
            large = outside if small is inside else inside
            blocks[ybid] = large
            new_bid = len(blocks)
            blocks.append(small)
            for q in small:
                block_of[q] = new_bid
            for b in range(n_sym):
                work.append((new_bid, b))
    return block_of


def equivalence_counterexample(
    a: FiniteAutomaton, b: FiniteAutomaton, max_states: int = DEFAULT_STATE_CAP
) -> Optional[list[str]]:
    """Shortest word accepted by exactly one of the two automata, or None.

    Both automata are determinized and completed; the product is explored
    breadth-first, so emptiness of both difference languages is checked in
    one pass.
    """
    if a.alphabet.symbols != b.alphabet.symbols:
        raise InputError("equivalence requires identical alphabets")
    da = determinize(a, max_states)
    db = determinize(b, max_states)
    ta = {(src, label): dst for src, label, dst in da.transitions}
    tb = {(src, label): dst for src, label, dst in db.transitions}
    start = (da.initial, db.initial)
    parent: dict[tuple[int, int], tuple[tuple[int, int], int]] = {}
    seen = {start}
    queue = deque([start])
    while queue:
        pair = queue.popleft()
        qa, qb = pair
        if (qa in da.accepting) != (qb in db.accepting):
            word: list[str] = []
            node = pair
            while node != start:
                node, sym = parent[node]
                word.append(a.alphabet.symbols[sym])
            return list(reversed(word))
        for sym in range(len(a.alphabet)):
            nxt = (ta[(qa, sym)], tb[(qb, sym)])
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = (pair, sym)
                queue.append(nxt)
    return None


def equivalent(a: FiniteAutomaton, b: FiniteAutomaton, max_states: int = DEFAULT_STATE_CAP) -> bool:
    """True iff the two automata accept the same language."""
    return equivalence_counterexample(a, b, max_states) is None
