"""Independent oracles shared by the test modules.

These deliberately re-implement the minimum needed to check the library
from the outside: raw subset stepping over transition data, breadth-first
word enumeration, and a counter-bounded coverability search. None of them
call the library operations they are used to check.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import replace


def all_words(symbols, max_len):
    """Every word over ``symbols`` up to the given length, shortest first."""
    for length in range(max_len + 1):
        for word in itertools.product(symbols, repeat=length):
            yield list(word)


class NfaStepper:
    """Subset simulation straight off the transition tuples."""

    def __init__(self, automaton):
        self.auto = automaton
        self.delta = {}
        for src, label, dst in automaton.transitions:
            self.delta.setdefault((src, label), []).append(dst)

    def _closure(self, states):
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for nxt in self.delta.get((q, None), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return frozenset(seen)

    def initial(self):
        return self._closure({self.auto.initial})

    def step(self, subset, symbol):
        nxt = set()
        for q in subset:
            nxt.update(self.delta.get((q, symbol), ()))
        return self._closure(nxt)

    def accepting(self, subset):
        return bool(subset & self.auto.accepting)


class HcsStepper:
    """Raw configurations of an HCS, stepped as the README's semantics notes
    say: an epsilon-closed set of underlying states plus one runtime per
    guard, in name order. A runtime is a state of the guard's own stepper
    (``NfaStepper``, ``VassStepper`` or a nested ``HcsStepper``), advanced on
    every symbol read and never on an epsilon move. A guarded transition is
    taken only where its guard accepts the current runtime. A configuration
    with no underlying state left is ``(frozenset(), None)`` for good."""

    def __init__(self, hcs):
        self.hcs = hcs
        names = sorted(hcs.guards)
        self.guards = [_guard_stepper(hcs.guards[name]) for name in names]
        position = {name: i for i, name in enumerate(names)}
        self.delta = {}
        for t, (src, label, dst) in enumerate(hcs.underlying.transitions):
            name = hcs.guarded.get(t)
            self.delta.setdefault((src, label), []).append((dst, None if name is None else position[name]))

    def _targets(self, states, label, runtimes):
        return {
            dst
            for q in states
            for dst, g in self.delta.get((q, label), ())
            if g is None or self.guards[g].accepting(runtimes[g])
        }

    def _closure(self, states, runtimes):
        seen = set(states)
        todo = list(states)
        while todo:
            for dst in self._targets([todo.pop()], None, runtimes):
                if dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        return frozenset(seen)

    def initial(self):
        runtimes = tuple(guard.initial() for guard in self.guards)
        return self._closure({self.hcs.underlying.initial}, runtimes), runtimes

    def step(self, config, symbol):
        states, runtimes = config
        targets = self._targets(states, symbol, runtimes)
        if not targets:
            return frozenset(), None
        runtimes = tuple(guard.step(r, symbol) for guard, r in zip(self.guards, runtimes))
        return self._closure(targets, runtimes), runtimes

    def accepting(self, config):
        return bool(config[0] & self.hcs.underlying.accepting)


def _guard_stepper(guard):
    """The stepper of a guard, told apart by its fields: an HCS has an
    underlying automaton, a VASS a dimension."""
    if hasattr(guard, "underlying"):
        return HcsStepper(guard)
    if hasattr(guard, "dim"):
        return VassStepper(guard)
    return NfaStepper(guard)


def first_disagreement(a, b, n_symbols, max_len):
    """Shortest word (symbol-index tuple) on which two prefix-deterministic
    steppers disagree, or None if they agree on every word up to max_len.

    Pairs of reached states are deduplicated: both steppers are deterministic
    functions of the prefix, so an already-seen pair has an already-checked
    future.
    """
    start = (a.initial(), b.initial())
    if a.accepting(start[0]) != b.accepting(start[1]):
        return ()
    seen = {start}
    frontier = [(start, ())]
    for _ in range(max_len):
        nxt = []
        for (sa, sb), word in frontier:
            for sym in range(n_symbols):
                pa = a.step(sa, sym)
                pb = b.step(sb, sym)
                if a.accepting(pa) != b.accepting(pb):
                    return word + (sym,)
                pair = (pa, pb)
                if pair not in seen:
                    seen.add(pair)
                    nxt.append((pair, word + (sym,)))
        frontier = nxt
        if not frontier:
            return None
    return None


def languages_agree(a, b, n_symbols, max_len):
    return first_disagreement(a, b, n_symbols, max_len) is None


class VassStepper:
    """Set-of-configurations stepper straight off the VASS transition tuples."""

    def __init__(self, vass):
        self.vass = vass

    def initial(self):
        return frozenset(_vass_closure(self.vass, {(self.vass.initial, (0,) * self.vass.dim)}))

    def step(self, configs, symbol):
        nxt = set()
        for state, counters in configs:
            for src, lab, update, dst in self.vass.transitions:
                if src != state or lab != symbol:
                    continue
                fired = tuple(c + u for c, u in zip(counters, update))
                if all(c >= 0 for c in fired):
                    nxt.add((dst, fired))
        return frozenset(_vass_closure(self.vass, nxt))

    def accepting(self, configs):
        for state, counters in configs:
            if state in self.vass.accepting:
                if self.vass.mode == "cover" or all(c == 0 for c in counters):
                    return True
        return False


def accepted_words(stepper, symbols, max_len):
    """All accepted words up to max_len by walking the prefix trie."""
    out = set()

    def walk(state, word):
        if stepper.accepting(state):
            out.add(tuple(word))
        if len(word) == max_len:
            return
        for i, sym in enumerate(symbols):
            walk(stepper.step(state, i), word + [sym])

    walk(stepper.initial(), [])
    return out


def brute_force_coverable(vass, source, target, target_counters, counter_bound):
    """Exhaustive coverability with every counter capped at ``counter_bound``."""
    start = (source, (0,) * vass.dim)
    seen = {start}
    queue = deque([start])
    while queue:
        state, counters = queue.popleft()
        if state == target and all(c >= t for c, t in zip(counters, target_counters)):
            return True
        for src, _, update, dst in vass.transitions:
            if src != state:
                continue
            nxt = tuple(c + u for c, u in zip(counters, update))
            if any(c < 0 for c in nxt) or any(c > counter_bound for c in nxt):
                continue
            node = (dst, nxt)
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return False


def vass_accepts_brute(vass, word):
    """Run search over a word using only the transition tuples."""
    current = {(vass.initial, (0,) * vass.dim)}
    current = _vass_closure(vass, current)
    for sym in word:
        label = vass.alphabet.index(sym)
        nxt = set()
        for state, counters in current:
            for src, lab, update, dst in vass.transitions:
                if src != state or lab != label:
                    continue
                fired = tuple(c + u for c, u in zip(counters, update))
                if all(c >= 0 for c in fired):
                    nxt.add((dst, fired))
        current = _vass_closure(vass, nxt)
        if not current:
            return False
    for state, counters in current:
        if state in vass.accepting:
            if vass.mode == "cover" or all(c == 0 for c in counters):
                return True
    return False


def _vass_closure(vass, configs):
    seen = set(configs)
    stack = list(configs)
    while stack:
        state, counters = stack.pop()
        for src, lab, update, dst in vass.transitions:
            if src != state or lab is not None:
                continue
            fired = tuple(c + u for c, u in zip(counters, update))
            if all(c >= 0 for c in fired):
                node = (dst, fired)
                if node not in seen:
                    seen.add(node)
                    stack.append(node)
    return seen


def solve_countdown_countup(game):
    """Count-up view of a countdown game: climb from 0 to the target exactly."""
    by_weight = {}
    for src, weight, dst in game.edges:
        by_weight.setdefault(src, {}).setdefault(weight, []).append(dst)
    win = [[False] * len(game.states) for _ in range(game.target + 1)]
    for s in range(len(game.states)):
        win[game.target][s] = True
    for u in range(game.target - 1, -1, -1):
        for s in range(len(game.states)):
            win[u][s] = any(
                u + d <= game.target and all(win[u + d][t] for t in succs)
                for d, succs in by_weight.get(s, {}).items()
            )
    return 0 if win[0][game.initial] else 1


def reference_product(hcs):
    """Reachable (state, guard runtimes) pairs and moves, found the plain way:
    at every pair, try every alphabet symbol, filter the underlying edges by
    raw guard acceptance and step each guard's own stepper, numbering pairs
    in breadth-first order. Returns (guard names, vertices, edges)."""
    raw = HcsStepper(hcs)
    guards, delta = raw.guards, raw.delta

    def ok(runtimes, g):
        return g is None or guards[g].accepting(runtimes[g])

    start = (hcs.underlying.initial, tuple(guard.initial() for guard in guards))
    order = {start: 0}
    vertices = [start]
    edges = []
    queue = deque([0])

    def vertex_id(node):
        if node not in order:
            order[node] = len(order)
            vertices.append(node)
            queue.append(order[node])
        return order[node]

    while queue:
        v = queue.popleft()
        q, runtimes = vertices[v]
        for dst, g in delta.get((q, None), ()):
            if ok(runtimes, g):
                edges.append((v, None, vertex_id((dst, runtimes))))
        for a in range(len(hcs.alphabet)):
            targets = [dst for dst, g in delta.get((q, a), ()) if ok(runtimes, g)]
            if not targets:
                continue
            advanced = tuple(guard.step(r, a) for guard, r in zip(guards, runtimes))
            for dst in targets:
                edges.append((v, a, vertex_id((dst, advanced))))
    return tuple(sorted(hcs.guards)), vertices, edges


def reference_product_vass(hcs):
    """The cover-guard product VASS built the plain way: breadth-first over
    (state, guard states) pairs, guards in name order, trying every
    underlying transition from the state in index order. A guard move that
    is missing goes to a zero-effect sink named "vsink" with "_" prefixed
    until it is fresh. States are named "(u g ...)", counters are stacked in
    guard order (one zero counter without guards), and one final state "t"
    is reached by zero-effect epsilon moves from every accepting pair."""
    from hcs.vass import COVER, Vass

    names = sorted(hcs.guards)
    guards = [hcs.guards[name] for name in names]
    auto = hcs.underlying
    tables, guard_state_names = [], []
    for guard in guards:
        sink, sink_name = len(guard.states), "vsink"
        while sink_name in guard.states:
            sink_name = "_" + sink_name
        table = {(src, label): (update, dst) for src, label, update, dst in guard.transitions}
        for q in range(sink + 1):
            for a in range(len(hcs.alphabet)):
                table.setdefault((q, a), ((0,) * guard.dim, sink))
        tables.append(table)
        guard_state_names.append(list(guard.states) + [sink_name])
    zero = (0,) * (sum(guard.dim for guard in guards) or 1)

    start = (auto.initial, tuple(guard.initial for guard in guards))
    ids = {start: 0}
    nodes = [start]
    queue = deque([start])
    transitions = []
    while queue:
        node = queue.popleft()
        q, guard_states = node
        for t, (src, label, dst) in enumerate(auto.transitions):
            if src != q:
                continue
            name = hcs.guarded.get(t)
            if name is not None:
                i = names.index(name)
                if guard_states[i] not in guards[i].accepting:
                    continue
            if label is None:
                nxt, update = (dst, guard_states), zero
            else:
                moved = [table[(s, label)] for table, s in zip(tables, guard_states)]
                nxt = (dst, tuple(d for _, d in moved))
                update = tuple(c for u, _ in moved for c in u) or zero
            if nxt not in ids:
                ids[nxt] = len(nodes)
                nodes.append(nxt)
                queue.append(nxt)
            transitions.append((ids[node], label, update, ids[nxt]))
    final = len(nodes)
    transitions += [(ids[node], None, zero, final) for node in nodes if node[0] in auto.accepting]
    states = [
        "(" + " ".join([auto.states[q]] + [guard_state_names[i][s] for i, s in enumerate(guard_states)]) + ")"
        for q, guard_states in nodes
    ]
    return Vass(hcs.alphabet, len(zero), tuple(states) + ("t",), 0, frozenset({final}), tuple(transitions), COVER)


def out_edges(arena):
    """The edge ids leaving each vertex of ``arena``, in edge order."""
    out = [[] for _ in arena.vertices]
    for i, (src, _, _) in enumerate(arena.edges):
        out[src].append(i)
    return out


def renumber_runtimes(arena):
    """``arena`` with each guard's runtimes numbered in order of first
    appearance, so that library runtimes and raw stepper runtimes compare."""
    tables = {}
    vertices = []
    for q, runtimes in arena.vertices:
        ids = []
        for g, runtime in enumerate(runtimes):
            table = tables.setdefault(g, {})
            ids.append(table.setdefault(runtime, len(table)))
        vertices.append((q, tuple(ids)))
    return replace(arena, vertices=tuple(vertices))


def reference_arena(game):
    """The arena of ``game`` over ``reference_product``, its runtimes
    renumbered by ``renumber_runtimes``."""
    from hcs.games import Arena

    names, vertices, edges = reference_product(game.hcs)
    arena = Arena(
        guard_names=names,
        vertices=tuple(vertices),
        edges=tuple(edges),
        owner=tuple(game.owner[q] for q, _ in vertices),
        initial=0,
        marked=frozenset(i for i, (q, _) in enumerate(vertices) if q in game.objective.states),
        objective_kind=game.objective.kind,
    )
    return renumber_runtimes(arena)


def _reference_attractor(arena, player, targets):
    """Backward attractor over adjacency lists, sets and a join-order map."""
    out = out_edges(arena)
    rev = [[] for _ in arena.vertices]
    for src, _, dst in arena.edges:
        rev[dst].append(src)
    count = [len(edges) for edges in out]
    region = set(targets)
    joined_at = {v: 0 for v in targets}
    queue = deque(sorted(targets))
    for v in range(len(arena.vertices)):
        if v not in region and arena.owner[v] != player and count[v] == 0:
            region.add(v)
            joined_at[v] = 0
            queue.append(v)
    tick = 0
    while queue:
        v = queue.popleft()
        for u in rev[v]:
            if u in region:
                continue
            if arena.owner[u] != player:
                count[u] -= 1
                if count[u]:
                    continue
            tick += 1
            region.add(u)
            joined_at[u] = tick
            queue.append(u)
    strategy = {}
    for v in region:
        if arena.owner[v] == player and v not in targets:
            strategy[v] = min(
                e for e in out[v] if arena.edges[e][2] in region and joined_at[arena.edges[e][2]] < joined_at[v]
            )
    return frozenset(region), strategy


def _reference_staying(arena, player, region):
    out = out_edges(arena)
    strategy = {}
    for v in region:
        if arena.owner[v] == player:
            inside = [e for e in out[v] if arena.edges[e][2] in region]
            if inside:
                strategy[v] = min(inside)
    return strategy


def reference_solution(arena):
    """Reach or safe solution of ``arena``: attractor for the player who
    wants the marked vertices, least staying edges for the other."""
    from hcs.games import GameSolution

    attractor_player = 0 if arena.objective_kind == "reach" else 1
    attracted, attract_strategy = _reference_attractor(arena, attractor_player, arena.marked)
    rest = frozenset(range(len(arena.vertices))) - attracted
    stay_strategy = _reference_staying(arena, 1 - attractor_player, rest)
    region0 = attracted if attractor_player == 0 else rest
    strategies = (attract_strategy, stay_strategy) if attractor_player == 0 else (stay_strategy, attract_strategy)
    return GameSolution(
        winner_from_initial=0 if arena.initial in region0 else 1,
        winning_region_0=region0,
        strategy_0=strategies[0],
        strategy_1=strategies[1],
        arena=arena,
    )


def reference_determinize(hcs, max_states=1_000_000):
    """Breadth-first subset construction over ``HcsStepper``
    configurations (an epsilon-closed subset and every guard's raw
    runtime), keyed and numbered in discovery order; the dead configuration
    is the one sink. Returns (states, accepting, transitions) with
    transitions as a list."""
    from hcs.errors import ResourceLimitError

    raw = HcsStepper(hcs)
    start = raw.initial()
    order = {start: 0}
    queue = deque([start])
    transitions = []
    while queue:
        config = queue.popleft()
        for a in range(len(hcs.alphabet)):
            nxt = raw.step(config, a)
            if nxt not in order:
                if len(order) + 1 > max_states:
                    raise ResourceLimitError(f"determinization exceeded the state cap of {max_states}", max_states)
                order[nxt] = len(order)
                queue.append(nxt)
            transitions.append((order[config], a, order[nxt]))
    accepting = frozenset(i for config, i in order.items() if raw.accepting(config))
    return tuple(f"d{i}" for i in range(len(order))), accepting, transitions


def reference_bounded_reach(hcs, max_len, node_cap=1_000_000):
    """Layered search over (state, guard runtimes) pairs, one layer per
    sigma symbol, as ``bounded_reach_empty`` did before it walked the
    explorer's successors. Returns (status, witness)."""
    from hcs.errors import ResourceLimitError

    raw = HcsStepper(hcs)
    guards, delta = raw.guards, raw.delta

    def closure(layer):
        stack = list(layer)
        while stack:
            q, runtimes = stack.pop()
            for dst, g in delta.get((q, None), ()):
                node = (dst, runtimes)
                if node not in layer and (g is None or guards[g].accepting(runtimes[g])):
                    layer[node] = layer[(q, runtimes)]
                    stack.append(node)

    layer = {(hcs.underlying.initial, tuple(guard.initial() for guard in guards)): ()}
    closure(layer)
    seen_words = 0
    for depth in range(max_len + 1):
        for (q, _), word in layer.items():
            if q in hcs.underlying.accepting:
                return "nonempty", word
        if depth == max_len:
            break
        nxt = {}
        for (q, runtimes), word in layer.items():
            for a in range(len(hcs.alphabet)):
                for dst, g in delta.get((q, a), ()):
                    if g is None or guards[g].accepting(runtimes[g]):
                        advanced = tuple(guard.step(r, a) for guard, r in zip(guards, runtimes))
                        nxt.setdefault((dst, advanced), word + (hcs.alphabet.symbols[a],))
        closure(nxt)
        seen_words += len(nxt)
        if seen_words > node_cap:
            raise ResourceLimitError(f"bounded search exceeded {node_cap} configurations", node_cap)
        layer = nxt
    return "unknown", None


def cover_vass_member(vass, word):
    """Membership of ``word`` in the language of a cover-mode VASS, decided
    by backward coverability from the definition, over the raw transition
    tuples. A node (i, q) is control state q after the first i symbols of
    the word; an epsilon transition stays at i, a transition labelled with
    symbol i moves to i + 1. The configurations that cover (len(word), f),
    for an accepting f, form an upward-closed set, kept as its minimal
    basis per node; the predecessor of basis vector v through update u is
    max(v - u, 0), the least counters that fire u and land at or above v.
    The word is accepted when the zero vector at (0, initial) is in the
    set. Dickson's lemma bounds the basis, so the search ends."""
    labels = [vass.alphabet.symbols.index(sym) for sym in word]
    zero = (0,) * vass.dim
    basis = {(len(labels), f): [zero] for f in vass.accepting}
    todo = [(node, zero) for node in basis]
    while todo:
        (i, q), vec = todo.pop()
        if vec not in basis[i, q]:
            continue  # replaced by a smaller vector since it was queued
        for src, label, update, dst in vass.transitions:
            if dst != q:
                continue
            if label is None:
                node = (i, src)
            elif i > 0 and label == labels[i - 1]:
                node = (i - 1, src)
            else:
                continue
            pred = tuple(max(v - u, 0) for v, u in zip(vec, update))
            kept = basis.setdefault(node, [])
            if any(all(k <= p for k, p in zip(old, pred)) for old in kept):
                continue
            kept[:] = [old for old in kept if not all(p <= k for p, k in zip(pred, old))] + [pred]
            todo.append((node, pred))
    return zero in basis.get((0, vass.initial), ())


def _reference_subset_dfa(automaton, max_states):
    """Powerset construction over the raw transition tuples, as
    ``equivalence_counterexample`` determinized both inputs before DFA inputs
    were renumbered in place: breadth-first, symbols in order, the empty
    subset an ordinary state. Returns (delta dict, accepting set, subsets
    in state order)."""
    from hcs.errors import ResourceLimitError

    n_sym = len(automaton.alphabet)
    moves = {}
    for src, label, dst in automaton.transitions:
        moves.setdefault((src, label), set()).add(dst)

    def closure(states):
        seen = set(states)
        todo = list(states)
        while todo:
            for dst in moves.get((todo.pop(), None), ()):
                if dst not in seen:
                    seen.add(dst)
                    todo.append(dst)
        return frozenset(seen)

    start = closure({automaton.initial})
    order = {start: 0}
    queue = deque([start])
    delta = {}
    while queue:
        subset = queue.popleft()
        for a in range(n_sym):
            nxt = closure({dst for q in subset for dst in moves.get((q, a), ())})
            if nxt not in order:
                if len(order) >= max_states:
                    raise ResourceLimitError(f"determinization exceeded the state cap of {max_states}", max_states)
                order[nxt] = len(order)
                queue.append(nxt)
            delta[(order[subset], a)] = order[nxt]
    return delta, {i for s, i in order.items() if s & automaton.accepting}, list(order)


def reference_equivalence(a, b, max_states=1_000_000):
    """Shortest word accepted by exactly one automaton, or None: both are
    determinized, and their product is walked breadth-first over dicts."""
    da, fa, _ = _reference_subset_dfa(a, max_states)
    db, fb, _ = _reference_subset_dfa(b, max_states)
    parent = {(0, 0): None}
    queue = deque([(0, 0)])
    while queue:
        pair = queue.popleft()
        if (pair[0] in fa) != (pair[1] in fb):
            word = []
            while parent[pair] is not None:
                pair, sym = parent[pair]
                word.append(a.alphabet.symbols[sym])
            return word[::-1]
        for sym in range(len(a.alphabet)):
            nxt = (da[(pair[0], sym)], db[(pair[1], sym)])
            if nxt not in parent:
                parent[nxt] = (pair, sym)
                queue.append(nxt)
    return None


def reference_minimize(dfa, max_states=1_000_000):
    """Moore partition refinement of a DFA, completed with a sink where a move
    is missing, renamed "m0", "m1", ... in breadth-first order over classes.
    Returns (states, initial, accepting, transitions) as ``minimize`` builds
    them."""
    from hcs.errors import ResourceLimitError

    n, n_sym = len(dfa.states), len(dfa.alphabet)
    delta = {(src, label): dst for src, label, dst in dfa.transitions}
    if any((q, a) not in delta for q in range(n) for a in range(n_sym)):
        delta.update({(q, a): n for q in range(n + 1) for a in range(n_sym) if (q, a) not in delta})
        n += 1
    if n > max_states:
        raise ResourceLimitError(f"minimization input exceeds the state cap of {max_states}", max_states)
    reachable = [dfa.initial]
    for q in reachable:
        for a in range(n_sym):
            if delta[(q, a)] not in reachable:
                reachable.append(delta[(q, a)])
    cls = {q: int(q in dfa.accepting) for q in reachable}
    while True:
        signature = {q: (cls[q],) + tuple(cls[delta[(q, a)]] for a in range(n_sym)) for q in reachable}
        ids = {s: i for i, s in enumerate(sorted(set(signature.values())))}
        refined = {q: ids[signature[q]] for q in reachable}
        if len(ids) == len(set(cls.values())):
            break
        cls = refined
    order = {cls[dfa.initial]: 0}
    member = {cls[dfa.initial]: dfa.initial}
    queue = deque([cls[dfa.initial]])
    transitions = []
    while queue:
        c = queue.popleft()
        for a in range(n_sym):
            dst = delta[(member[c], a)]
            if cls[dst] not in order:
                order[cls[dst]] = len(order)
                member[cls[dst]] = dst
                queue.append(cls[dst])
            transitions.append((order[c], a, order[cls[dst]]))
    accepting = frozenset(order[c] for c, q in member.items() if q in dfa.accepting)
    return tuple(f"m{i}" for i in range(len(order))), 0, accepting, tuple(transitions)
