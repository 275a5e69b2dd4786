"""Reference computations that check the toolkit's verdicts from outside.

Nothing here imports ``hcs``. Every function works on plain data: JSON model
documents as the toolkit's formats define them, or tuples of integers. Each
reference is written from the definitions in the README's semantics notes and
from the classical algorithm it names, not from the toolkit's code:

- ``countdown_winner``: the count-down fixpoint over (state, remaining value);
- ``DocStepper``: prefix-deterministic HCS stepping over a document, with
  regular guards run as subset simulations and nested guards recursively;
- ``minimal_states_formula`` and ``gadget_accepts``: the size of the minimal
  DFA of a^(nL) $^k, and the language predicate itself;
- ``replay_firing`` and ``bounded_cover_search``: VASS certificate replay and
  a coverability search with every counter capped;
- ``CoverGuardStepper`` and ``bounded_nonempty_search``: exact stepping and a
  counter-capped emptiness search for HCS with deterministic cover-VASS
  guards, where a guard with no enabled move is dead for good.
"""

from __future__ import annotations

from collections import deque
from math import gcd

EPS = "eps"


# ---------------------------------------------------------------------------
# Countdown games


def countdown_winner(doc: dict) -> int:
    """Winner of a countdown document: 0 if Player 0 can hit exactly 0.

    Player 0 wins outright at value 0. At (s, v) Player 0 offers a weight
    d <= v available at s; Player 1 then picks any d-edge out of s; Player 0
    wins iff some offer leaves every Player-1 choice winning at v - d.
    """
    states = doc["states"]
    index = {name: i for i, name in enumerate(states)}
    offers: dict[int, dict[int, set[int]]] = {}
    for edge in doc["edges"]:
        offers.setdefault(index[edge["from"]], {}).setdefault(edge["weight"], set()).add(
            index[edge["to"]]
        )
    wins_at: list[list[bool]] = [[True] * len(states)]
    for value in range(1, doc["target"] + 1):
        row = []
        for s in range(len(states)):
            row.append(
                any(
                    weight <= value and all(wins_at[value - weight][t] for t in succs)
                    for weight, succs in offers.get(s, {}).items()
                )
            )
        wins_at.append(row)
    return 0 if wins_at[doc["target"]][index[doc["initial"]]] else 1


# ---------------------------------------------------------------------------
# HCS stepping over documents (regular and nested guards)


class _NfaRun:
    """Subset simulation of an nfa/dfa document."""

    def __init__(self, doc: dict):
        self.delta: dict[tuple[str, str], list[str]] = {}
        for t in doc["transitions"]:
            self.delta.setdefault((t["from"], t["label"]), []).append(t["to"])
        self.start = self._close({doc["initial"]})
        self.final = frozenset(doc["accepting"])

    def _close(self, states) -> frozenset:
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for nxt in self.delta.get((q, EPS), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def initial(self):
        return self.start

    def step(self, subset, symbol: str):
        nxt = set()
        for q in subset:
            nxt.update(self.delta.get((q, symbol), ()))
        return self._close(nxt)

    def accepts(self, subset) -> bool:
        return bool(subset & self.final)


class DocStepper:
    """Membership for an ``hcs`` document with regular and nested guards.

    A configuration is (set of underlying states, one runtime per guard).
    Reading a symbol takes every admissible sigma transition, where a guard
    is asked about the history before the symbol; the guards then read the
    symbol, and the epsilon closure asks guards about the extended history.
    """

    def __init__(self, doc: dict):
        self.guards = {}
        for name, gdoc in doc.get("guards", {}).items():
            if gdoc["type"] in ("nfa", "dfa"):
                self.guards[name] = _NfaRun(gdoc)
            elif gdoc["type"] == "hcs":
                self.guards[name] = DocStepper(gdoc)
            else:
                raise ValueError(f"DocStepper has no semantics for {gdoc['type']} guards")
        self.names = sorted(self.guards)
        self.sigma: dict[tuple[str, str], list[tuple[str, int | None]]] = {}
        self.eps: dict[str, list[tuple[str, int | None]]] = {}
        position = {name: i for i, name in enumerate(self.names)}
        for t in doc["transitions"]:
            g = position[t["guard"]] if "guard" in t else None
            if t["label"] == EPS:
                self.eps.setdefault(t["from"], []).append((t["to"], g))
            else:
                self.sigma.setdefault((t["from"], t["label"]), []).append((t["to"], g))
        self.initial_state = doc["initial"]
        self.final = frozenset(doc["accepting"])

    def _allowed(self, runtimes: tuple, g) -> bool:
        return g is None or self.guards[self.names[g]].accepts(runtimes[g])

    def _close(self, states: set, runtimes: tuple) -> frozenset:
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for dst, g in self.eps.get(q, ()):
                if dst not in seen and self._allowed(runtimes, g):
                    seen.add(dst)
                    stack.append(dst)
        return frozenset(seen)

    def initial(self):
        runtimes = tuple(self.guards[name].initial() for name in self.names)
        return (self._close({self.initial_state}, runtimes), runtimes)

    def step(self, config, symbol: str):
        states, runtimes = config
        nxt = set()
        for q in states:
            for dst, g in self.sigma.get((q, symbol), ()):
                if self._allowed(runtimes, g):
                    nxt.add(dst)
        advanced = tuple(
            self.guards[name].step(runtime, symbol) for name, runtime in zip(self.names, runtimes)
        )
        return (self._close(nxt, advanced), advanced)

    def accepts(self, config) -> bool:
        return bool(config[0] & self.final)

    def member(self, word) -> bool:
        config = self.initial()
        for symbol in word:
            config = self.step(config, symbol)
        return self.accepts(config)


def delimited_block_word(word, open_symbol: str = "a", close_symbol: str = "b") -> bool:
    """The delimited star of a^n b^m (m <= n): $ (block $)*, blocks possibly empty."""
    if len(word) < 1 or word[0] != "$" or word[-1] != "$":
        return False
    block: list[str] = []
    for symbol in word[1:]:
        if symbol != "$":
            block.append(symbol)
            continue
        n = 0
        while n < len(block) and block[n] == open_symbol:
            n += 1
        rest = block[n:]
        if any(s != close_symbol for s in rest) or len(rest) > n:
            return False
        block = []
    return True


# ---------------------------------------------------------------------------
# Intersection gadgets over cycle lengths


def lcm_of(lengths) -> int:
    out = 1
    for n in lengths:
        out = out * n // gcd(out, n)
    return out


def minimal_states_formula(lengths) -> int:
    """States of the minimal complete DFA for a^(nL) $^k: L residues, k
    delimiter counts after a multiple of L, and one sink."""
    return lcm_of(lengths) + len(lengths) + 1


def gadget_accepts(word, lengths) -> bool:
    """Membership in a^(nL) $^k, with L the lcm and k the number of cycles."""
    n = 0
    while n < len(word) and word[n] == "a":
        n += 1
    tail = word[n:]
    return n % lcm_of(lengths) == 0 and len(tail) == len(lengths) and all(s == "$" for s in tail)


def dfa_accepts(initial: int, accepting, delta: dict, word_indices) -> bool:
    """Run a complete DFA given as a (state, symbol index) -> state table."""
    q = initial
    for a in word_indices:
        q = delta[(q, a)]
    return q in accepting


# ---------------------------------------------------------------------------
# VASS coverability


def replay_firing(transitions, start_state: int, start_counters, firing):
    """Fire transition indices in order; None if any step is illegal."""
    state, counters = start_state, tuple(start_counters)
    for t in firing:
        src, _, update, dst = transitions[t]
        if src != state:
            return None
        counters = tuple(c + u for c, u in zip(counters, update))
        if min(counters) < 0:
            return None
        state = dst
    return state, counters


def covers(config, target: int, target_counters) -> bool:
    state, counters = config
    return state == target and all(c >= t for c, t in zip(counters, target_counters))


def bounded_cover_search(transitions, source: int, source_counters, target: int, target_counters, bound: int) -> bool:
    """Is the target covered on some path whose counters all stay <= bound?"""
    start = (source, tuple(source_counters))
    seen = {start}
    queue = deque([start])
    while queue:
        config = queue.popleft()
        if covers(config, target, target_counters):
            return True
        state, counters = config
        for src, _, update, dst in transitions:
            if src != state:
                continue
            nxt = tuple(c + u for c, u in zip(counters, update))
            if min(nxt) < 0 or max(nxt) > bound:
                continue
            node = (dst, nxt)
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return False


# ---------------------------------------------------------------------------
# HCS with deterministic cover-VASS guards

DEAD = None


class CoverGuardStepper:
    """Exact stepping for an ``hcs`` document whose guards are deterministic
    cover-mode ``vass`` documents without epsilon moves.

    A guard runtime is (state, counters) or DEAD. A guard with no transition
    for the symbol, or whose transition would drive a counter negative, is
    dead and rejects every later query; an accepting control state accepts.
    """

    def __init__(self, doc: dict):
        self.names = sorted(doc.get("guards", {}))
        self.step_of = []
        self.guard_initial = []
        self.guard_final = []
        for name in self.names:
            gdoc = doc["guards"][name]
            table = {}
            for t in gdoc["transitions"]:
                table[(t["from"], t["label"])] = (t["to"], tuple(t["update"]))
            self.step_of.append(table)
            self.guard_initial.append((gdoc["initial"], (0,) * gdoc["dim"]))
            self.guard_final.append(frozenset(gdoc["accepting"]))
        position = {name: i for i, name in enumerate(self.names)}
        self.moves: dict[str, list[tuple[str, str, int | None]]] = {}
        for t in doc["transitions"]:
            g = position[t["guard"]] if "guard" in t else None
            self.moves.setdefault(t["from"], []).append((t["label"], t["to"], g))
        self.initial_state = doc["initial"]
        self.final = frozenset(doc["accepting"])

    def allowed(self, runtimes: tuple, g) -> bool:
        return g is None or (runtimes[g] is not DEAD and runtimes[g][0] in self.guard_final[g])

    def advance(self, runtimes: tuple, symbol: str) -> tuple:
        out = []
        for table, runtime in zip(self.step_of, runtimes):
            if runtime is DEAD or (runtime[0], symbol) not in table:
                out.append(DEAD)
                continue
            dst, update = table[(runtime[0], symbol)]
            counters = tuple(c + u for c, u in zip(runtime[1], update))
            out.append(DEAD if min(counters) < 0 else (dst, counters))
        return tuple(out)

    def successors(self, node):
        """(symbol or EPS, next node) pairs of one (state, runtimes) node."""
        q, runtimes = node
        for label, dst, g in self.moves.get(q, ()):
            if not self.allowed(runtimes, g):
                continue
            if label == EPS:
                yield label, (dst, runtimes)
            else:
                yield label, (dst, self.advance(runtimes, label))

    def start(self):
        return (self.initial_state, tuple(self.guard_initial))

    def member(self, word) -> bool:
        """Exact membership: the set of (state, runtimes) nodes along ``word``."""
        current = self._close({self.start()})
        for symbol in word:
            nxt = set()
            for node in current:
                for label, succ in self.successors(node):
                    if label == symbol:
                        nxt.add(succ)
            current = self._close(nxt)
        return any(q in self.final for q, _ in current)

    def _close(self, nodes: set) -> set:
        seen = set(nodes)
        stack = list(nodes)
        while stack:
            node = stack.pop()
            for label, succ in self.successors(node):
                if label == EPS and succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen


def _over_bound(runtimes: tuple, bound: int) -> bool:
    return any(r is not DEAD and max(r[1]) > bound for r in runtimes)


def bounded_nonempty_search(stepper: CoverGuardStepper, bound: int):
    """Shortest accepted word whose run keeps every live counter <= bound,
    or None if there is none."""
    start = stepper.start()
    parent = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        if node[0] in stepper.final:
            word = []
            while parent[node] is not None:
                node, label = parent[node]
                if label != EPS:
                    word.append(label)
            return word[::-1]
        for label, succ in stepper.successors(node):
            if succ not in parent and not _over_bound(succ[1], bound):
                parent[succ] = (node, label)
                queue.append(succ)
    return None
