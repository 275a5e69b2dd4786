"""Finite automata: representation, simulation, determinization, minimization.

States are referenced by index into a name list; transition labels are symbol
indices, with None standing for epsilon. All values are immutable after
construction and every operation is a pure function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import inf
from typing import Callable, Collection, Hashable, Iterable, Iterator, Optional, Sequence

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
        object.__setattr__(self, "deterministic", _check_control(self))

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
        return not _missing_moves(len(self.states), len(self.alphabet), self.transitions)


def _check_control(machine) -> bool:
    """Validate the finite control of an automaton or VASS and return its
    determinism flag: no epsilon move and at most one move per (state,
    symbol). Transitions start (from-state, label, ...) and end with the
    to-state; a transition listed twice is refused."""
    n = len(machine.states)
    if len(set(machine.states)) != n:
        raise InputError("duplicate state names")
    if not 0 <= machine.initial < n:
        raise InputError(f"initial state index {machine.initial} out of range")
    for q in machine.accepting:
        if not 0 <= q < n:
            raise InputError(f"accepting state index {q} out of range")
    n_sym = len(machine.alphabet)
    seen = set()
    keys = set()
    for t in machine.transitions:
        src, label, dst = t[0], t[1], t[-1]
        if not (0 <= src < n and 0 <= dst < n):
            raise InputError(f"transition ({src}, {label}, {dst}) has an out-of-range state")
        if label is not None and not 0 <= label < n_sym:
            raise InputError(f"transition label index {label} out of range")
        size = len(seen)
        seen.add(t)  # hashed once: a VASS transition holds its update tuple
        if len(seen) == size:
            raise InputError(f"duplicate transition ({src}, {label}, {dst})")
        keys.add((src, label))
    return all(t[1] is not None for t in machine.transitions) and len(keys) == len(seen)


def _fresh_name(base: str, taken: Collection[str]) -> str:
    """The name of a state a construction adds: ``base`` with ``_``
    prefixed until no name in ``taken`` has it. A construction that adds
    many states passes a set of the names taken so far."""
    name = base
    while name in taken:
        name = "_" + name
    return name


def _missing_moves(n_states: int, n_symbols: int, transitions: Sequence[tuple]) -> list[tuple[int, int]]:
    """The (state, symbol) pairs without a move, state-major, for a sink to
    take. ``transitions`` start (from-state, label, ...), as in automata and
    VASS."""
    keys = {(t[0], t[1]) for t in transitions if t[1] is not None}
    return [(q, a) for q in range(n_states) for a in range(n_symbols) if (q, a) not in keys]


def _trusted(cls, *values):
    """An automaton or VASS built by this library, without re-validation.

    ``values`` are the fields of ``cls`` in declaration order, ``deterministic``
    last; valid by construction, they give a value equal to a validated one.
    """
    value = object.__new__(cls)
    value.__dict__.update(zip([f.name for f in fields(cls)], values))
    return value


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


def _label_order(item: tuple) -> int:
    """Sort key of an edge-table entry: epsilon first, then by symbol."""
    return -1 if item[0] is None else item[0]


def _no_guard_product() -> int:
    return 0


def _same_guard_product(p: int, a: int) -> int:
    return p


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
    and ``advance`` keeps it; ``core.HcsSemantics`` rebinds
    ``initial_product``, ``advance`` and ``admits`` to a real guard product.
    They are instance attributes, not methods, so the rebinding shadows no
    method and the loops below make one plain call per lookup. Without a
    ``guard_at`` no edge has a guard and ``admits`` is never called, so a
    plain instance (an automaton, or a nondeterministic regular guard's
    tracker) leaves it unset.

    The start state is computed once. An instance is single-threaded: it
    interns states without a lock, so threads that share one must take
    turns (as ``core.member`` does for the semantics it caches).
    """

    def __init__(self, automaton: FiniteAutomaton, guard_at: Optional[dict[int, int]] = None):
        self.automaton = automaton
        guard_at = guard_at or {}
        # The one edge table: per state, label -> [(destination, guard
        # position or None)] in transition order, epsilon (None) first and
        # then the symbols in order.
        edges: list[dict[Optional[int], list[tuple[int, Optional[int]]]]] = [{} for _ in automaton.states]
        for t, (src, label, dst) in enumerate(automaton.transitions):
            edges[src].setdefault(label, []).append((dst, guard_at.get(t)))
        self.edges = [dict(sorted(out.items(), key=_label_order)) for out in edges]
        self._has_eps = any(None in out for out in edges)
        self._width = len(automaton.alphabet)
        self._n = len(automaton.states)
        # The lazy DFA: (subset, product id) by state id, and its step table
        # (d * |alphabet| + a -> state id, None until asked for).
        self.configs: list[tuple[frozenset[int], Optional[int]]] = []
        self._config_ids: dict[tuple[frozenset[int], Optional[int]], int] = {}
        self._delta: list[Optional[int]] = []
        self._unfilled = [None] * self._width
        self._start: Optional[int] = None
        self.initial_product: Callable[[], int] = _no_guard_product
        self.advance: Callable[[int, int], int] = _same_guard_product

    # -- the lazy DFA --

    def initial(self) -> int:
        if self._start is None:
            p = self.initial_product()
            self._start = self._state(self.closure({self.automaton.initial}, p), p)
        return self._start

    def step(self, d: int, symbol: str | int) -> int:
        if isinstance(symbol, int):
            if not 0 <= symbol < self._width:  # would index another state's row
                raise InputError(f"symbol index {symbol} out of range for {self._width} symbols")
            a = symbol
        else:
            a = self.automaton.alphabet.index(symbol)
        nxt = self._delta[d * self._width + a]
        return self._fill(d, a) if nxt is None else nxt

    def _fill(self, d: int, a: int) -> int:
        """Compute the step of ``d`` on symbol index ``a`` and enter it in
        the table. The loops below, whose symbols are in range, call it."""
        subset, p = self.configs[d]
        targets = set()
        for q in subset:
            for dst, g in self.edges[q].get(a, ()):
                if g is None or self.admits(p, g):
                    targets.add(dst)
        if targets:
            p = self.advance(p, a)
            closed = self.closure(targets, p) if self._has_eps else frozenset(targets)
            nxt = self._state(closed, p)
        else:
            nxt = self._state(frozenset(), None)
        self._delta[d * self._width + a] = nxt
        return nxt

    def accepting(self, d: int) -> bool:
        return not self.automaton.accepting.isdisjoint(self.configs[d][0])

    def accepts(self, word: Sequence[str]) -> bool:
        """Walk the lazy DFA along ``word``, given by symbol names, reading
        each filled step from the table and computing the others."""
        d = self.initial()
        alphabet = self.automaton.alphabet
        try:
            symbols = [alphabet._index[symbol] for symbol in word]
        except (KeyError, TypeError):
            # Name the unknown symbol only when the walk reaches it, so a
            # cap error from an earlier step is still reported first.
            symbols = map(alphabet.index, word)
        delta, width, fill = self._delta, self._width, self._fill
        for a in symbols:
            nxt = delta[d * width + a]
            d = fill(d, a) if nxt is None else nxt
        return self.accepting(d)

    def _state(self, subset: frozenset[int], p: Optional[int]) -> int:
        key = (subset, p)
        d = self._config_ids.get(key)
        if d is None:
            # The table grows in place: ``accepts`` holds it.
            d = len(self.configs)
            self._delta += self._unfilled if subset else [d] * self._width
            self.configs.append(key)
            self._config_ids[key] = d
        return d

    def closure(self, seen: set[int], p: int) -> frozenset[int]:
        """Close ``seen`` in place under the epsilon moves admitted in ``p``."""
        todo = list(seen)
        while todo:
            q = todo.pop()
            for dst, g in self.edges[q].get(None, ()):
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
        fill = self._fill
        configs = self.configs
        symbols = range(self._width)
        cap = max(max_states, 1)
        transitions: list[tuple[int, Optional[int], int]] = []
        d = self.initial()
        while d < len(configs):
            transitions += [(d, a, fill(d, a)) for a in symbols]
            if len(configs) > cap:
                raise ResourceLimitError(f"determinization exceeded the state cap of {max_states}", max_states)
            d += 1
        return _trusted(
            FiniteAutomaton,
            self.automaton.alphabet,
            tuple(map(name, range(len(configs)))),
            0,
            frozenset(d for d in range(len(configs)) if self.accepting(d)),
            tuple(transitions),
            True,
        )

    # -- the product of the automaton with the guard product --

    def successors(self, v: int) -> list[tuple[Optional[int], int]]:
        """Admissible moves out of vertex ``v = p * |Q| + q``, the pair of
        state q and product id p, as (label, vertex) pairs.

        Epsilon moves come first and keep the guard product; sigma moves
        follow by symbol, each group in transition order.
        """
        n = self._n
        p, q = v // n, v % n
        moves = []
        for a, targets in self.edges[q].items():
            nxt = None if a is not None else v - q
            for dst, g in targets:
                if g is None or self.admits(p, g):
                    if nxt is None:
                        nxt = self.advance(p, a) * n
                    moves.append((a, nxt + dst))
        return moves

    def explore(self, max_states: int, limit: str, stop: frozenset[int] = frozenset()):
        """``explore`` from the initial state and guard product over the
        vertices of ``successors``, stopping at a state in ``stop``."""
        n = self._n
        root = self.initial_product() * n + self.automaton.initial
        return explore([root], self.successors, max_states, limit, (lambda v: v % n in stop) if stop else None)


def explore(roots: Iterable[Hashable], successors: Callable, max_states: int, limit: str, stop=None):
    """Breadth-first search over hashable vertices.

    ``successors(v)`` lists the (label, vertex) moves out of v. Returns
    ``(vertices, edges, hit)``: vertices in discovery order, the roots
    first, de-duplicated and never refused; edges as (source, label,
    target) vertex-index triples, grouped by source in vertex order; and
    the index of the first dequeued vertex that ``stop`` holds for, where
    the search ends, or None. Discovering a vertex while ``max_states`` are
    known raises ResourceLimitError with ``limit`` formatted by the cap.
    """
    index: dict = {}
    for v in roots:
        index.setdefault(v, len(index))
    vertices = list(index)
    edges: list[tuple[int, object, int]] = []
    for i, v in enumerate(vertices):
        if stop is not None and stop(v):
            return vertices, edges, i
        for label, w in successors(v):
            j = index.get(w)
            if j is None:
                if len(vertices) >= max_states:
                    raise ResourceLimitError(limit.format(max_states), max_states)
                j = index[w] = len(vertices)
                vertices.append(w)
            edges.append((i, label, j))
    return vertices, edges, None


def layered_search(start: Callable, expand: Callable, accepting: Callable, max_len: int, max_configs: int):
    """The first accepted word of the shortest length up to ``max_len``, or None.

    ``start()`` lists the start configurations; it is called only once
    ``max_len`` is known to be valid, so a bad bound is reported before any
    start closure can hit a cap. ``expand(c)`` lists the (symbol,
    configuration) pairs one symbol on from c. Layer d maps the
    configurations words of length d reach to the first word that expanding
    layer d - 1 in order finds, and is tested for acceptance before it is
    expanded. Once the layers after the first hold more than ``max_configs``
    configurations in total, checked after each whole layer, it raises.
    """
    if max_len < 0:
        raise InputError(f"the word-length bound must be non-negative, got {max_len}")
    layer = dict.fromkeys(start(), ())
    seen = 0
    for depth in range(max_len + 1):
        for config, word in layer.items():
            if accepting(config):
                return word
        if depth == max_len or not layer:
            break
        nxt: dict = {}
        for config, word in layer.items():
            for symbol, succ in expand(config):
                if succ not in nxt:
                    nxt[succ] = word + (symbol,)
        layer = nxt
        seen += len(layer)
        if seen > max_configs:
            raise ResourceLimitError(f"bounded search exceeded {max_configs} configurations", max_configs)
    return None


def accepts(automaton: FiniteAutomaton, word: Sequence[str]) -> bool:
    """Decide whether some run labelled by ``word`` reaches an accepting state.

    Epsilon moves are free; symbols are given by name and must belong to the
    automaton's alphabet.
    """
    return SubsetDfa(automaton).accepts(word)


def complete(automaton: FiniteAutomaton) -> FiniteAutomaton:
    """Add a non-accepting sink so every (state, symbol) pair has a move.

    Returns the input unchanged when it is already complete. Preserves
    determinism.
    """
    n_symbols = len(automaton.alphabet)
    missing = _missing_moves(len(automaton.states), n_symbols, automaton.transitions)
    if not missing:
        return automaton
    sink = len(automaton.states)
    extra = [(q, a, sink) for q, a in missing] + [(sink, a, sink) for a in range(n_symbols)]
    return _trusted(
        FiniteAutomaton,
        automaton.alphabet,
        automaton.states + (_fresh_name("sink", automaton.states),),
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
    return SubsetDfa(automaton).explore(inf, "", automaton.accepting)[2] is None


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
        FiniteAutomaton,
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
