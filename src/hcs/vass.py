"""Vector addition systems with states: semantics and coverability engines.

A VASS is a finite control with d counters that stay non-negative; a
transition fires only when the updated counters are all >= 0. Acceptance is
either "cover" (accepting control state, counters unconstrained) or "reach"
(accepting state with all counters exactly zero).

One Karp-Miller core, ``karp_miller``, builds every coverability tree of
the package: over (state, counters) for the ``km`` coverability engine,
over epsilon moves for cover-mode epsilon closures, and over (state, guard
controls) with stacked counters for cover-guard emptiness
(``vassguards``). It accelerates a node to omega against its ancestors and
skips a new node that a node already kept with the same control covers.
Coverability is decided exactly by two engines: that tree, and backward
search over upward-closed sets represented by their minimal basis vectors.
Both return a replayable firing sequence when the target is coverable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from math import ceil, inf
from operator import add, le, neg, sub
from typing import Iterable, Optional, Sequence

from .automata import DEFAULT_STATE_CAP, EPS_NAME, Alphabet, _check_control, explore, layered_search
from .errors import ContractError, InputError, ResourceLimitError

COVER = "cover"
REACH = "reach"


@dataclass(frozen=True)
class Vass:
    """A d-dimensional VASS over a named alphabet.

    Transitions are (from-state, label, update, to-state) with label a symbol
    index or None for epsilon and update an integer vector of length ``dim``.
    The control is validated by the automaton rule, ``_check_control``.
    """

    alphabet: Alphabet
    dim: int
    states: tuple[str, ...]
    initial: int
    accepting: frozenset[int]
    transitions: tuple[tuple[int, Optional[int], tuple[int, ...], int], ...]
    mode: str = COVER
    deterministic: bool = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("VASS dimension must be at least 1")
        if self.mode not in (COVER, REACH):
            raise InputError(f"unknown VASS mode {self.mode!r}")
        for _, _, update, _ in self.transitions:
            if len(update) != self.dim or not all(type(u) is int for u in update):
                raise InputError(f"update vector {update} must hold {self.dim} integers")
        object.__setattr__(self, "deterministic", _check_control(self))

    @cached_property
    def out_edges(self) -> list[tuple[int, ...]]:
        """Indices of the transitions leaving each state, in index order."""
        out: list[list[int]] = [[] for _ in self.states]
        for t, (src, _, _, _) in enumerate(self.transitions):
            out[src].append(t)
        return [tuple(ts) for ts in out]

    def unary_size(self) -> int:
        """Unary size: states plus, per transition, the largest |update| (at least 1)."""
        total = len(self.states)
        for _, _, update, _ in self.transitions:
            total += max(1, *(abs(u) for u in update)) if update else 1
        return total

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise InputError(f"unknown state {name!r}") from None


#: The ``label`` of ``_fired`` that matches every transition.
_ANY = -1


def _fired(vass: Vass, state: int, counters: tuple, label: Optional[int] = _ANY):
    """The one move table of a VASS: (transition, to-state, fired counters)
    for each transition out of ``state`` with ``label`` (every one for
    ``_ANY``) that keeps the counters non-negative, in index order."""
    transitions, every = vass.transitions, label == _ANY
    for t in vass.out_edges[state]:
        _, lab, update, dst = transitions[t]
        # ``is`` settles epsilon and equal small symbols, so the epsilon
        # closure never makes the slow comparison of a symbol with None.
        if lab is label or every or (label is not None and lab == label):
            fired = tuple(map(add, counters, update))
            if min(fired) >= 0:
                yield t, dst, fired


def config_accepting(vass: Vass, state: int, counters: tuple[int, ...]) -> bool:
    """Acceptance of a single configuration under the VASS's mode."""
    if state not in vass.accepting:
        return False
    return vass.mode != REACH or not any(counters)


def eps_closure_configs(
    vass: Vass,
    configs: Iterable[tuple[int, tuple[int, ...]]],
    max_configs: int = DEFAULT_STATE_CAP,
) -> frozenset[tuple[int, tuple[int, ...]]]:
    """Close a configuration set under epsilon transitions.

    In reach mode the closure itself is returned: epsilon cycles with
    positive counter effect make it infinite, and we fail loudly at the cap
    instead of looping. Cover acceptance reads only control states, and a
    configuration can do whatever a smaller one in its state can, so in
    cover mode the maximal omega-configurations (omega is ``math.inf``) of
    the closure's downward closure stand for it: a finite antichain even
    where epsilon loops pump counters without bound. They are the maxima,
    per state, of the ``karp_miller`` tree rooted at ``configs`` over the
    epsilon moves.
    """
    limit = "epsilon closure exceeded {} configurations"

    def moves(state: int, counters: tuple):
        return _fired(vass, state, counters, None)

    if vass.mode == COVER:
        nodes, _ = karp_miller(configs, moves, max_configs, limit)
        found: dict[int, list[tuple]] = {}
        for node in nodes:
            found.setdefault(node[0], []).append(node[1])
        return frozenset(
            (state, counters)
            for state, kept in found.items()
            for counters in kept
            if not any(other != counters and all(map(le, counters, other)) for other in kept)
        )
    closure, _, _ = explore(configs, lambda c: [(t, (d, f)) for t, d, f in moves(*c)], max_configs, limit)
    return frozenset(closure)


def step_configs(
    vass: Vass,
    configs: Iterable[tuple[int, tuple[int, ...]]],
    symbol: int,
    max_configs: int = DEFAULT_STATE_CAP,
) -> frozenset[tuple[int, tuple[int, ...]]]:
    """All configurations reachable by reading one symbol (plus epsilon moves)."""
    nxt = {(dst, fired) for state, counters in configs for _, dst, fired in _fired(vass, state, counters, symbol)}
    return eps_closure_configs(vass, nxt, max_configs)


def initial_configs(vass: Vass, max_configs: int = DEFAULT_STATE_CAP) -> frozenset[tuple[int, tuple[int, ...]]]:
    return eps_closure_configs(vass, [(vass.initial, (0,) * vass.dim)], max_configs)


def vass_accepts(vass: Vass, word: Sequence[str], max_configs: int = DEFAULT_STATE_CAP) -> bool:
    """Exhaustive run search: does some run over ``word`` end accepting?

    Counters on a length-n run are bounded by n times the largest update, so
    the search space is finite for models without effectful epsilon cycles;
    cover mode tracks omega-configurations, which are finite even with them.
    """
    indices = [vass.alphabet.index(sym) for sym in word]
    configs = initial_configs(vass, max_configs)
    for a in indices:
        configs = step_configs(vass, configs, a, max_configs)
        if not configs:
            return False
    return any(config_accepting(vass, q, c) for q, c in configs)


def bounded_accepted_word(
    vass: Vass, max_len: int, max_configs: int = DEFAULT_STATE_CAP
) -> Optional[list[str]]:
    """Shortest accepted word of length at most ``max_len``, if any.

    A ``layered_search`` over configurations, one ``step_configs`` per
    symbol; like ``bounded_reach_empty``, it raises ``ResourceLimitError``
    once its layers after the first hold more than ``max_configs``
    configurations in total.
    """
    symbols = vass.alphabet.symbols

    def expand(config: tuple) -> list:
        return [(sym, c) for a, sym in enumerate(symbols) for c in step_configs(vass, [config], a, max_configs)]

    def start() -> list:
        return initial_configs(vass, max_configs)

    word = layered_search(start, expand, lambda c: config_accepting(vass, *c), max_len, max_configs)
    return None if word is None else list(word)


@dataclass(frozen=True)
class CoverabilityInstance:
    """Cover ``target`` (state, counter lower bounds) from (source, source_counters)."""

    vass: Vass
    source: int
    target: int
    target_counters: tuple[int, ...]
    source_counters: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.vass.mode != COVER:
            raise ContractError("coverability is defined for cover-mode VASS")
        n = len(self.vass.states)
        if not (0 <= self.source < n and 0 <= self.target < n):
            raise InputError(f"source {self.source} and target {self.target} must be state indices below {n}")
        if self.source_counters is None:
            object.__setattr__(self, "source_counters", (0,) * self.vass.dim)
        if len(self.target_counters) != self.vass.dim or len(self.source_counters) != self.vass.dim:
            raise InputError("counter vectors must match the VASS dimension")
        if any(c < 0 for c in self.target_counters) or any(c < 0 for c in self.source_counters):
            raise InputError("counter vectors must be non-negative")


@dataclass(frozen=True)
class CoverabilityResult:
    coverable: bool
    witness: Optional[tuple[int, ...]]  # transition indices, replayable from the source
    engine: str
    nodes_explored: int

    def witness_word(self, vass: Vass) -> Optional[list[str]]:
        """Witness as a symbol list (``EPS_NAME`` for epsilon-labelled transitions)."""
        if self.witness is None:
            return None
        out = []
        for t in self.witness:
            label = vass.transitions[t][1]
            out.append(EPS_NAME if label is None else vass.alphabet.symbols[label])
        return out


def replay_transitions(
    vass: Vass, start: tuple[int, tuple[int, ...]], firing: Sequence[int]
) -> tuple[int, tuple[int, ...]]:
    """Replay a firing sequence under step semantics; raises if a step is illegal."""
    state, counters = start
    for t in firing:
        src, _, update, dst = vass.transitions[t]
        if src != state:
            raise InputError(f"transition {t} does not start in state {vass.states[state]}")
        fired = tuple(map(add, counters, update))
        if min(fired) < 0:
            raise InputError(f"transition {t} would drive a counter negative at {counters}")
        state, counters = dst, fired
    return state, counters


def decide_coverability(
    instance: CoverabilityInstance,
    engine: str = "km",
    node_cap: int = DEFAULT_STATE_CAP,
) -> CoverabilityResult:
    """Decide coverability with the requested engine ("km" or "backward")."""
    if node_cap < 1:
        raise InputError(f"node cap must be at least 1, got {node_cap}")
    if engine == "km":
        return _km_coverability(instance, node_cap)
    if engine == "backward":
        return _backward(instance, node_cap)
    raise InputError(f"unknown coverability engine {engine!r}")


# ---------------------------------------------------------------------------
# Karp-Miller tree


def karp_miller(roots, moves, cap: int, limit: str, stop=None):
    """Karp-Miller coverability tree over (control, omega-vector) nodes.

    Nodes are kept in breadth-first order as plain tuples
    ``(control, vec, parent, via, accelerations)``; a root has parent -1 and
    via None, and omega is ``math.inf``. ``moves(control, vec)`` yields the
    successors ``(via, control', vec')`` of a node. A new node gets omega
    wherever it strictly grew over an ancestor with an equal control (see
    ``_accelerate``), and it is dropped when a node already kept with the
    same control covers it. Kept nodes are never removed, so the downward
    closure of the kept vectors is closed under ``moves``.

    Returns ``(nodes, hit)``: ``hit`` is the index of the first kept node
    for which ``stop(control, vec)`` holds, or None once every kept node is
    expanded. Keeping a non-root node beyond ``cap`` nodes raises
    ResourceLimitError with ``limit`` formatted by the cap; roots are never
    refused.
    """
    if cap < 1:
        raise InputError(f"node cap must be at least 1, got {cap}")
    nodes: list[tuple] = []
    found: dict = {}  # control -> vectors of the nodes kept with it
    parent = -1
    batch = [(None, control, vec) for control, vec in roots]
    while True:
        for via, control, vec in batch:
            accels = ()
            if parent >= 0:
                vec, accels = _accelerate(nodes, parent, via, control, vec)
            kept = found.setdefault(control, [])
            for other in kept:
                if all(map(le, vec, other)):
                    break
            else:
                if parent >= 0 and len(nodes) >= cap:
                    raise ResourceLimitError(limit.format(cap), cap)
                kept.append(vec)
                nodes.append((control, vec, parent, via, accels))
                if stop is not None and stop(control, vec):
                    return nodes, len(nodes) - 1
        parent += 1
        if parent == len(nodes):
            return nodes, None
        batch = moves(nodes[parent][0], nodes[parent][1])


def _accelerate(nodes: list[tuple], parent: int, via, control, vec: tuple) -> tuple[tuple, tuple]:
    """Set to omega the components of ``vec`` that strictly grew over an
    ancestor with an equal control, until no ancestor grows it further.

    Returns the new vector and the accelerations applied, in order, as
    (vias from that ancestor to the new node, vector before omega).
    """
    accels = ()
    j = parent
    while j >= 0:
        anc_control, anc_vec, up = nodes[j][0], nodes[j][1], nodes[j][2]
        if anc_control == control and all(map(le, anc_vec, vec)):
            # Omega entries are inherited along the path, so a component
            # finite at the node is finite at every ancestor too.
            grown = [x < y != inf for x, y in zip(anc_vec, vec)]
            if True in grown:
                cycle = [via]
                k = parent
                while k != j:
                    cycle.append(nodes[k][3])
                    k = nodes[k][2]
                accels += ((tuple(reversed(cycle)), vec),)
                vec = tuple(inf if g else y for g, y in zip(grown, vec))
                j = parent
                continue
        j = up
    return vec, accels


def _km_coverability(instance: CoverabilityInstance, node_cap: int) -> CoverabilityResult:
    vass = instance.vass
    target, needed = instance.target, instance.target_counters
    nodes, hit = karp_miller(
        [(instance.source, tuple(instance.source_counters))],
        lambda state, vec: _fired(vass, state, vec),
        node_cap,
        "Karp-Miller tree exceeded {} nodes",
        lambda state, vec: state == target and all(map(le, needed, vec)),
    )
    if hit is None:
        return CoverabilityResult(False, None, "km", len(nodes))
    return CoverabilityResult(True, tuple(_km_witness(vass, nodes, hit, instance)), "km", len(nodes))


def _firing_requirement(vass: Vass, firing: Sequence[int]) -> tuple[list[int], list[int]]:
    """Minimal start vector from which the sequence fires once, and the
    sequence's effect."""
    req = [0] * vass.dim
    running = [0] * vass.dim
    for t in firing:
        update = vass.transitions[t][2]
        for j in range(vass.dim):
            running[j] += update[j]
            if -running[j] > req[j]:
                req[j] = -running[j]
    return req, running


def _km_witness(
    vass: Vass, nodes: list[tuple], idx: int, instance: CoverabilityInstance
) -> list[int]:
    """Expand a covering tree branch into a concrete firing sequence.

    Accelerated segments are pumped a computed number of times, working
    backwards from the target vector so every intermediate requirement is met.
    """
    path: list[int] = []
    cur = idx
    while cur >= 0:
        path.append(cur)
        cur = nodes[cur][2]
    path.reverse()

    needed = list(instance.target_counters)
    seq: list[int] = []
    for node_idx in reversed(path[1:]):
        via, accels = nodes[node_idx][3:]
        for cycle, pre_vec in reversed(accels):
            req, effect = _firing_requirement(vass, cycle)
            k = 0
            for j in range(vass.dim):
                base = pre_vec[j]
                if base == inf or effect[j] <= 0:
                    continue
                if needed[j] > base:
                    k = max(k, ceil((needed[j] - base) / effect[j]))
            if k > 0:
                seq[0:0] = list(cycle) * k
                for j in range(vass.dim):
                    lowest_start = req[j] + (k - 1) * max(0, -effect[j])
                    needed[j] = max(0, lowest_start, needed[j] - k * effect[j])
        update = vass.transitions[via][2]
        needed = [max(0, -u, nd - u) for nd, u in zip(needed, update)]
        seq.insert(0, via)
    if any(nd > have for nd, have in zip(needed, instance.source_counters)):
        raise AssertionError("witness reconstruction produced an infeasible requirement")
    return seq


# ---------------------------------------------------------------------------
# Backward coverability over upward-closed sets


def _backward(instance: CoverabilityInstance, node_cap: int) -> CoverabilityResult:
    vass = instance.vass
    # Per target state: (transition, source, update, least), where ``least``
    # is the smallest vector from which the update can fire.
    into_state: dict[int, list[tuple]] = {}
    for t, (src, _, update, dst) in enumerate(vass.transitions):
        least = tuple(map(max, map(neg, update), repeat(0)))
        into_state.setdefault(dst, []).append((t, src, update, least))

    # Minimal basis of configurations from which the target is coverable,
    # per state a dict from basis vector to a firing sequence that works
    # from anything above it, in insertion order.
    target, seq = tuple(instance.target_counters), ()
    basis: dict[int, dict[tuple[int, ...], tuple[int, ...]]] = {instance.target: {target: seq}}
    worklist = deque([(instance.target, target, seq)])
    explored = 0
    while worklist:
        state, vec, seq = worklist.popleft()
        if basis[state].get(vec) is not seq:
            continue  # pruned while queued; something below it stays, so it never re-enters
        explored += 1
        if explored > node_cap:
            raise ResourceLimitError(f"backward coverability exceeded {node_cap} elements", node_cap)
        for t, src, update, least in into_state.get(state, ()):
            pred = tuple(map(max, least, map(sub, vec, update)))
            existing = basis.setdefault(src, {})
            for old in existing:
                if all(map(le, old, pred)):
                    break
            else:
                for old in [old for old in existing if all(map(le, pred, old))]:
                    del existing[old]
                existing[pred] = entry = (t, *seq)
                worklist.append((src, pred, entry))
    for vec, seq in basis.get(instance.source, {}).items():
        if all(map(le, vec, instance.source_counters)):
            return CoverabilityResult(True, seq, "backward", explored)
    return CoverabilityResult(False, None, "backward", explored)
