"""Finite automata: representation, simulation, determinization, minimization.

States are referenced by index into a name list; transition labels are symbol
indices, with None standing for epsilon. All values are immutable after
construction and every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

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

    def is_complete(self) -> bool:
        """True if every (state, symbol) pair has at least one transition."""
        keys = {(src, label) for src, label, _ in self.transitions if label is not None}
        return all(
            (q, a) in keys for q in range(len(self.states)) for a in range(len(self.alphabet))
        )


def _trusted(
    alphabet: Alphabet,
    states: tuple[str, ...],
    initial: int,
    accepting: frozenset[int],
    transitions: tuple[tuple[int, Optional[int], int], ...],
    deterministic: bool,
) -> FiniteAutomaton:
    """A ``FiniteAutomaton`` built by this library, without re-validation.

    The fields must be valid by construction and ``deterministic`` must be
    what ``__post_init__`` would derive; the result then compares equal to
    the one the validating constructor builds.
    """
    automaton = object.__new__(FiniteAutomaton)
    automaton.__dict__.update(
        alphabet=alphabet,
        states=states,
        initial=initial,
        accepting=accepting,
        transitions=transitions,
        deterministic=deterministic,
    )
    return automaton


def _dfa_rows(dfa: FiniteAutomaton) -> list[list[int]]:
    """Transition table of a deterministic automaton: ``rows[q][a]`` is the
    successor of state q on symbol a, or -1 where the move is missing."""
    rows = [[-1] * len(dfa.alphabet) for _ in dfa.states]
    for src, label, dst in dfa.transitions:
        rows[src][label] = dst
    return rows


def _bfs_table(dfa: FiniteAutomaton, max_states: int) -> tuple[list[list[int]], list[bool]]:
    """The reachable part of a DFA, numbered as ``determinize`` numbers it.

    States are renumbered breadth-first from the initial state with symbols
    in alphabet order; missing moves go to one sink, numbered where it is
    first needed and stepping to itself. A new state beyond ``max_states``
    raises as in ``determinize``. Returns the complete rows and the
    acceptance flag of each new state.
    """
    rows = _dfa_rows(dfa)
    new = [-1] * len(rows)
    new[dfa.initial] = 0
    order = [dfa.initial]  # old state per new number; -1 is the sink
    table: list[list[int]] = []
    sink = -1
    for q in order:
        if q < 0:
            table.append([sink] * len(dfa.alphabet))
            continue
        out = []
        for dst in rows[q]:
            d = new[dst] if dst >= 0 else sink
            if d < 0:
                if len(order) >= max_states:
                    raise ResourceLimitError(
                        f"determinization exceeded the state cap of {max_states}", max_states
                    )
                d = len(order)
                order.append(dst)
                if dst >= 0:
                    new[dst] = d
                else:
                    sink = d
            out.append(d)
        table.append(out)
    accepting = dfa.accepting
    return table, [q in accepting for q in order]


class SubsetDfa:
    """The subset construction of an automaton as a lazily built DFA.

    A DFA state is an int standing for an epsilon-closed subset of the
    automaton's states paired with a guard-product id; ``configs`` lists the
    pairs by id. A step is computed the first time it is asked for and then
    read from a table. Every empty subset is the one dead state, which steps
    to itself.

    ``guard_at`` maps transition indices to guard positions. A transition
    with a guard is taken only where ``admits`` holds, and each symbol read
    moves the guard product by ``advance``. Here the only guard product is 0
    and both are trivial; ``core.HcsSemantics`` supplies real guards.
    """

    def __init__(self, automaton: FiniteAutomaton, guard_at: Optional[dict[int, int]] = None):
        self.automaton = automaton
        guard_at = guard_at or {}
        # (state, symbol) -> [(destination, guard position or None)]
        self.sigma_edges: dict[tuple[int, int], list[tuple[int, Optional[int]]]] = {}
        self.eps_edges: dict[int, list[tuple[int, Optional[int]]]] = {}
        for t, (src, label, dst) in enumerate(automaton.transitions):
            if label is None:
                self.eps_edges.setdefault(src, []).append((dst, guard_at.get(t)))
            else:
                self.sigma_edges.setdefault((src, label), []).append((dst, guard_at.get(t)))
        self._width = len(automaton.alphabet)
        # Per-state sigma edges sorted by symbol, filled on first use.
        self._moves: Optional[list[list[tuple[int, int, Optional[int]]]]] = None
        # The lazy DFA: (subset, product id) by state id, and its step table
        # (d * |alphabet| + a -> state id, None until asked for).
        self.configs: list[tuple[frozenset[int], Optional[int]]] = []
        self._config_ids: dict[tuple[frozenset[int], Optional[int]], int] = {}
        self._delta: list[Optional[int]] = []
        self._unfilled = [None] * self._width

    # -- the guard product, trivial here --

    def initial_product(self) -> int:
        return 0

    def advance(self, p: int, a: int) -> int:
        return p

    def admits(self, p: int, g: int) -> bool:
        return True

    # -- the lazy DFA --

    def initial(self) -> int:
        p = self.initial_product()
        return self._state(self.closure({self.automaton.initial}, p), p)

    def step(self, d: int, symbol: str | int) -> int:
        a = symbol if isinstance(symbol, int) else self.automaton.alphabet.index(symbol)
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
        return not self.automaton.accepting.isdisjoint(self.configs[d][0])

    def accepts(self, word: Sequence[str]) -> bool:
        """Walk the lazy DFA along ``word``, given by symbol names."""
        step = self.step
        d = self.initial()
        for a in map(self.automaton.alphabet.index, word):
            d = step(d, a)
        return self.accepting(d)

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

    def build(self, max_states: int, name: Callable[[int], str]) -> FiniteAutomaton:
        """The lazy DFA of a fresh instance, built to completion.

        States are numbered breadth-first with symbols in alphabet order and
        named by ``name``; the dead state, if reached, is the sink. Reaching
        more than ``max_states`` states raises (the start state is never
        refused).
        """
        step = self.step
        configs = self.configs
        symbols = range(self._width)
        cap = max(max_states, 1)
        transitions: list[tuple[int, Optional[int], int]] = []
        d = self.initial()
        while d < len(configs):
            transitions += [(d, a, step(d, a)) for a in symbols]
            if len(configs) > cap:
                raise ResourceLimitError(f"determinization exceeded the state cap of {max_states}", max_states)
            d += 1
        return _trusted(
            self.automaton.alphabet,
            tuple(map(name, range(len(configs)))),
            0,
            frozenset(d for d in range(len(configs)) if self.accepting(d)),
            tuple(transitions),
            True,
        )

    # -- the product of one state with the guard product --

    def successors(self, q: int, p: int) -> list[tuple[Optional[int], int, int]]:
        """Admissible moves out of (q, p) as (label, destination, product id).

        Epsilon moves come first and keep the guard product; sigma moves
        follow by symbol, each group in transition order.
        """
        if self._moves is None:
            self._moves = [[] for _ in self.automaton.states]
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
        n = len(self.automaton.states)
        start = (self.automaton.initial, self.initial_product())
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


def accepts(automaton: FiniteAutomaton, word: Sequence[str]) -> bool:
    """Decide whether some run labelled by ``word`` reaches an accepting state.

    Epsilon moves are free; symbols are given by name and must belong to the
    automaton's alphabet.
    """
    return SubsetDfa(automaton).accepts(word)


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
    return _trusted(
        automaton.alphabet,
        states,
        automaton.initial,
        automaton.accepting,
        automaton.transitions + tuple(extra),
        automaton.deterministic,
    )


def determinize(nfa: FiniteAutomaton, max_states: int = DEFAULT_STATE_CAP) -> FiniteAutomaton:
    """Powerset construction; the result is deterministic and complete.

    The lazy ``SubsetDfa`` built to completion: subset states are numbered
    breadth-first with symbols in alphabet order, so the output ordering is
    canonical, and each is named by its subset. The empty subset becomes an
    explicit sink, which keeps the reachable state count at or below 2^|Q|.
    """
    dfa = SubsetDfa(nfa)
    return dfa.build(max_states, lambda d: _subset_name(dfa.configs[d][0], nfa.states))


def _subset_name(subset: frozenset[int], names: Sequence[str]) -> str:
    if not subset:
        return "{}"
    return "{" + " ".join(names[q] for q in sorted(subset)) + "}"


def is_empty(automaton: FiniteAutomaton) -> bool:
    """True iff no accepting state is reachable from the initial state."""
    # One vertex per state at most, so the cap never binds.
    n = len(automaton.states)
    return SubsetDfa(automaton).explore(n, "", automaton.accepting) is not None


def minimize(dfa: FiniteAutomaton, max_states: int = DEFAULT_STATE_CAP) -> FiniteAutomaton:
    """Hopcroft partition refinement to the canonical minimal complete DFA.

    Requires deterministic input. The result is complete, has no two
    language-equivalent states, and is renamed in breadth-first discovery
    order ("m0", "m1", ...) so equal languages yield identical structures.
    The cap applies to the input's state count, plus one for the sink an
    incomplete input needs.
    """
    if not dfa.deterministic:
        raise ContractError("minimize requires a deterministic automaton")
    # A DFA is complete iff it has a move for every (state, symbol) pair.
    n = len(dfa.states) + (len(dfa.transitions) < len(dfa.states) * len(dfa.alphabet))
    if n > max_states:
        raise ResourceLimitError(f"minimization input exceeds the state cap of {max_states}", max_states)
    table, accepting = _bfs_table(dfa, max_states)
    block = _hopcroft_blocks(table, accepting)
    # The table is in breadth-first order, so blocks in order of their
    # first member are the quotient's breadth-first order.
    number = [-1] * len(table)
    first_member: list[int] = []
    for q, b in enumerate(block):
        if number[b] < 0:
            number[b] = len(first_member)
            first_member.append(q)
    transitions = tuple(
        (i, a, number[block[dst]]) for i, q in enumerate(first_member) for a, dst in enumerate(table[q])
    )
    return _trusted(
        dfa.alphabet,
        tuple(f"m{i}" for i in range(len(first_member))),
        0,
        frozenset(i for i, q in enumerate(first_member) if accepting[q]),
        transitions,
        True,
    )


def _hopcroft_blocks(table: list[list[int]], accepting: list[bool]) -> list[int]:
    """Coarsest language-equivalence partition of a complete DFA.

    Hopcroft's algorithm on a refinable partition (Valmari & Lehtinen,
    STACS 2008): each block is a range of one element array, a state marked
    by a splitter is swapped to the front of its block, and a split gives a
    new block id to the smaller side and queues it with every symbol, for
    O(k n log n) overall. Queuing one side suffices, as for the initial
    accepting/rejecting pair: the other is the old block, already queued or
    already split against, minus it. Returns a block id per state.
    """
    n = len(table)
    n_sym = len(table[0])
    pre: list[list[list[int]]] = [[[] for _ in range(n)] for _ in range(n_sym)]
    for p, row in enumerate(table):
        for a, q in enumerate(row):
            pre[a][q].append(p)
    elems = [q for q in range(n) if accepting[q]]
    n_acc = len(elems)
    elems += [q for q in range(n) if not accepting[q]]
    loc = [0] * n
    for i, q in enumerate(elems):
        loc[q] = i
    block = [0] * n
    first, end = [0], [n]
    if 0 < n_acc < n:
        first, end = [0, n_acc], [n_acc, n]
        for i in range(n_acc, n):
            block[elems[i]] = 1
    mid = first[:]  # block b's marked states sit in elems[first[b]:mid[b]]
    work = [(0 if n_acc <= n - n_acc else 1, a) for a in range(n_sym)] if len(first) > 1 else []
    while work:
        b, a = work.pop()
        pre_a = pre[a]
        touched = []
        for q in elems[first[b] : end[b]]:
            for p in pre_a[q]:
                c = block[p]
                i, j = loc[p], mid[c]
                if i >= j:
                    if j == first[c]:
                        touched.append(c)
                    other = elems[j]
                    elems[i], loc[other] = other, i
                    elems[j], loc[p] = p, j
                    mid[c] = j + 1
        for c in touched:
            lo, j, hi = first[c], mid[c], end[c]
            if j == hi:
                mid[c] = lo
                continue
            new = len(first)
            if j - lo <= hi - j:
                first.append(lo)
                end.append(j)
                first[c] = mid[c] = j
            else:
                first.append(j)
                end.append(hi)
                end[c] = j
                mid[c] = lo
            mid.append(first[new])
            for i in range(first[new], end[new]):
                block[elems[i]] = new
            work += [(new, x) for x in range(n_sym)]
    return block


def equivalence_counterexample(
    a: FiniteAutomaton, b: FiniteAutomaton, max_states: int = DEFAULT_STATE_CAP
) -> Optional[list[str]]:
    """Shortest word accepted by exactly one of the two automata, or None.

    Nondeterministic inputs are determinized; deterministic ones are only
    renumbered and completed the way ``determinize`` would, so the cap binds
    at the same state count. The product is explored breadth-first, so
    emptiness of both difference languages is checked in one pass.
    """
    if a.alphabet.symbols != b.alphabet.symbols:
        raise InputError("equivalence requires identical alphabets")
    ta, fa = _bfs_table(a if a.deterministic else determinize(a, max_states), max_states)
    tb, fb = _bfs_table(b if b.deterministic else determinize(b, max_states), max_states)
    width = len(tb)
    parent: dict[int, tuple[int, int]] = {0: (0, -1)}  # pair qa * width + qb
    queue = [0]
    for pair in queue:
        qa, qb = divmod(pair, width)
        if fa[qa] != fb[qb]:
            word: list[str] = []
            while pair:
                pair, sym = parent[pair]
                word.append(a.alphabet.symbols[sym])
            return word[::-1]
        for sym, (na, nb) in enumerate(zip(ta[qa], tb[qb])):
            nxt = na * width + nb
            if nxt not in parent:
                parent[nxt] = (pair, sym)
                queue.append(nxt)
    return None


def equivalent(a: FiniteAutomaton, b: FiniteAutomaton, max_states: int = DEFAULT_STATE_CAP) -> bool:
    """True iff the two automata accept the same language."""
    return equivalence_counterexample(a, b, max_states) is None
