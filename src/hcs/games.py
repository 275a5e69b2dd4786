"""Two-player games on history-constrained systems.

A game assigns each underlying state an owner and a reachability or safety
objective. Solving goes through an explicit arena: the product of the
underlying automaton with all guard DFAs, with ownership and objective
lifted componentwise. Reachability is solved by the classical attractor
fixpoint; safety is solved as the complement reachability game with the
roles swapped.

A player who cannot move loses the play. Games are made non-blocking before
solving by giving every potentially blocked state an escape to a sink chosen
by its owner, which encodes exactly that convention without changing either
player's optimal play.

The countdown-game reduction builds, for target 2^k, the k+1 binary-counter
guard DFAs and the weight/carry/dispatch gadget whose only accepting state
is reachable exactly when the guards jointly encode the target value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Optional

from .automata import DEFAULT_STATE_CAP, Alphabet, FiniteAutomaton, complete, determinize
from .core import Hcs, HcsSemantics, guard_kind
from .errors import ContractError, InputError, ResourceLimitError, UnsupportedGuardError

REACH = "reach"
SAFE = "safe"


@dataclass(frozen=True)
class Objective:
    kind: str
    states: frozenset[int]  # target states (reach) or forbidden states (safe)

    def __post_init__(self):
        if self.kind not in (REACH, SAFE):
            raise InputError(f"unknown objective kind {self.kind!r}")


@dataclass(frozen=True)
class HcsGame:
    """An HCS with per-state ownership and a reach/safe objective."""

    hcs: Hcs
    owner: tuple[int, ...]
    objective: Objective

    def __post_init__(self):
        n = len(self.hcs.underlying.states)
        if len(self.owner) != n:
            raise InputError("owner map must cover every underlying state")
        if any(o not in (0, 1) for o in self.owner):
            raise InputError("owners must be 0 or 1")
        if any(not 0 <= q < n for q in self.objective.states):
            raise InputError("objective state index out of range")
        for name, guard in self.hcs.guards.items():
            if guard_kind(guard) != "regular":
                raise UnsupportedGuardError(
                    f"games require regular guards; {name!r} is {guard_kind(guard)}"
                )


@dataclass(frozen=True)
class Arena:
    """Reachable product of the underlying automaton with all guard DFAs.

    Vertices are (underlying state, guard-state tuple) pairs in breadth-first
    discovery order; edges are grouped by source vertex in that order.
    """

    guard_names: tuple[str, ...]
    vertices: tuple[tuple[int, tuple[int, ...]], ...]
    edges: tuple[tuple[int, Optional[int], int], ...]
    owner: tuple[int, ...]
    initial: int
    marked: frozenset[int]  # objective states, lifted to vertices
    objective_kind: str

    @cached_property
    def out_offsets(self) -> tuple[int, ...]:
        """The out-edges of vertex v are the edge ids offsets[v] .. offsets[v + 1] - 1.

        Computed once; requires the edges grouped by source in vertex order,
        as ``build_arena`` emits them.
        """
        sources = [src for src, _, _ in self.edges]
        if sources != sorted(sources):
            raise ContractError("arena edges must be grouped by source vertex")
        offsets = [0] * (len(self.vertices) + 1)
        for src in sources:
            offsets[src + 1] += 1
        return tuple(accumulate(offsets))

    def out_edges(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.vertices]
        for i, (src, _, _) in enumerate(self.edges):
            out[src].append(i)
        return out

    def stats(self) -> dict:
        return {
            "vertices": len(self.vertices),
            "edges": len(self.edges),
            "marked": len(self.marked),
        }


@dataclass(frozen=True)
class GameSolution:
    winner_from_initial: int
    winning_region_0: frozenset[int]
    strategy_0: dict[int, int]  # vertex -> edge index into arena.edges
    strategy_1: dict[int, int]
    arena: Arena


def game_non_blocking(game: HcsGame) -> HcsGame:
    """Give every potentially blocked state an escape, routed by ownership.

    A state whose outgoing transitions are all guarded can be stuck in some
    history, which loses for its owner: Player-0 states get an epsilon
    escape to a losing sink, Player-1 states to a sink that is winning for
    Player 0 (added to the reach target, kept out of the safe forbidden
    set). Neither player ever prefers an escape, so the winner is
    unchanged; epsilon labels keep the guard product from growing at the
    sinks.
    """
    hcs = game.hcs
    auto = hcs.underlying
    has_unguarded = set()
    for t, (src, _, _) in enumerate(auto.transitions):
        if t not in hcs.guarded:
            has_unguarded.add(src)
    blocked = [q for q in range(len(auto.states)) if q not in has_unguarded]
    if not blocked:
        return game
    states = list(auto.states)
    owner = list(game.owner)
    transitions = list(auto.transitions)
    needed = {game.owner[q] for q in blocked}
    sink_of: dict[int, int] = {}
    for player in sorted(needed):
        name = "sink_lose" if player == 0 else "sink_win"
        while name in states:
            name = "_" + name
        sink_of[player] = len(states)
        states.append(name)
        owner.append(player)
    for q in blocked:
        transitions.append((q, None, sink_of[game.owner[q]]))
    for sink in sink_of.values():
        transitions.append((sink, None, sink))
    underlying = FiniteAutomaton(
        alphabet=auto.alphabet,
        states=tuple(states),
        initial=auto.initial,
        accepting=auto.accepting,
        transitions=tuple(transitions),
    )
    objective_states = set(game.objective.states)
    if game.objective.kind == REACH and 1 in sink_of:
        objective_states.add(sink_of[1])
    if game.objective.kind == SAFE and 0 in sink_of:
        objective_states.add(sink_of[0])
    return HcsGame(
        Hcs(hcs.alphabet, underlying, dict(hcs.guards), dict(hcs.guarded)),
        tuple(owner),
        Objective(game.objective.kind, frozenset(objective_states)),
    )


def build_arena(game: HcsGame, max_vertices: int = DEFAULT_STATE_CAP) -> Arena:
    """Materialize the reachable product game graph.

    Guards are determinized and completed internally; epsilon moves of the
    underlying automaton become arena edges that leave guard states alone.
    """
    semantics = HcsSemantics(game.hcs, max_vertices)
    nodes, edges = semantics.explore(max_vertices, "arena construction exceeded {} vertices")
    products = semantics.products
    vertices = [(q, products[p]) for q, p in nodes]
    owner = tuple([game.owner[q] for q, _ in nodes])
    marked = frozenset([i for i, (q, _) in enumerate(nodes) if q in game.objective.states])
    return Arena(
        guard_names=semantics.names,
        vertices=tuple(vertices),
        edges=tuple(edges),
        owner=owner,
        initial=0,
        marked=marked,
        objective_kind=game.objective.kind,
    )


def arena_size_bounds(game: HcsGame) -> tuple[int, int]:
    """Vertex and edge bounds from the product structure.

    Computed over the determinized-and-completed guard DFAs actually used in
    the arena: |Q| * (sum of guard state counts)^m and |T| * (sum of guard
    transition counts)^m.
    """
    hcs = game.hcs
    guard_dfas = [
        complete(g if g.deterministic else determinize(g)) for _, g in sorted(hcs.guards.items())
    ]
    m = len(guard_dfas)
    q_sum = sum(len(g.states) for g in guard_dfas)
    t_sum = sum(len(g.transitions) for g in guard_dfas)
    v_bound = len(hcs.underlying.states) * (q_sum**m if m else 1)
    e_bound = len(hcs.underlying.transitions) * (t_sum**m if m else 1)
    return v_bound, e_bound


def _attractor(
    arena: Arena, player: int, targets: frozenset[int]
) -> tuple[frozenset[int], dict[int, int]]:
    """Backward attractor with join order, yielding a progress-measured strategy.

    Returns (region, strategy for ``player`` inside the region). Opponent
    dead-ends are vacuously attracted: their owner is stuck and a stuck
    player loses.
    """
    n = len(arena.vertices)
    edges, owner, offsets = arena.edges, arena.owner, arena.out_offsets
    rev: list[list[int]] = [[] for _ in range(n)]
    for src, _, dst in edges:
        rev[dst].append(src)
    count = [offsets[v + 1] - offsets[v] for v in range(n)]
    joined = [-1] * n  # join tick; -1 outside the region
    order = sorted(targets)  # the region in join order, read as a queue
    for v in order:
        joined[v] = 0
    for v in range(n):
        if joined[v] < 0 and owner[v] != player and count[v] == 0:
            joined[v] = 0
            order.append(v)
    tick = 0
    for v in order:
        for u in rev[v]:
            if joined[u] >= 0:
                continue
            if owner[u] != player:
                count[u] -= 1
                if count[u]:
                    continue
            tick += 1
            joined[u] = tick
            order.append(u)
    strategy: dict[int, int] = {}
    for v in order:
        if owner[v] == player and joined[v] > 0:
            strategy[v] = next(
                e for e in range(offsets[v], offsets[v + 1]) if 0 <= joined[edges[e][2]] < joined[v]
            )
    return frozenset(order), strategy


def _staying_strategy(arena: Arena, player: int, region: frozenset[int]) -> dict[int, int]:
    """Lexicographically minimal edge keeping ``player`` inside ``region``."""
    edges, offsets = arena.edges, arena.out_offsets
    strategy: dict[int, int] = {}
    for v in region:
        if arena.owner[v] == player:
            for e in range(offsets[v], offsets[v + 1]):
                if edges[e][2] in region:
                    strategy[v] = e
                    break
    return strategy


def _solve(arena: Arena, player: int) -> GameSolution:
    """``player`` wins the attractor of the marked vertices; the other player
    wins the rest by staying in it."""
    region, attract = _attractor(arena, player, arena.marked)
    rest = frozenset(range(len(arena.vertices))) - region
    stay = _staying_strategy(arena, 1 - player, rest)
    region0, strategy0, strategy1 = (region, attract, stay) if player == 0 else (rest, stay, attract)
    return GameSolution(
        winner_from_initial=0 if arena.initial in region0 else 1,
        winning_region_0=region0,
        strategy_0=strategy0,
        strategy_1=strategy1,
        arena=arena,
    )


def solve_reachability(arena: Arena) -> GameSolution:
    """Attractor solution of a reach-objective arena."""
    if arena.objective_kind != REACH:
        raise ContractError("solve_reachability requires a reach objective")
    return _solve(arena, 0)


def solve_safety(arena: Arena) -> GameSolution:
    """Safety solved as the complement reachability game with roles swapped."""
    if arena.objective_kind != SAFE:
        raise ContractError("solve_safety requires a safe objective")
    return _solve(arena, 1)


def solve_hcs_game(game: HcsGame, max_vertices: int = DEFAULT_STATE_CAP) -> GameSolution:
    """Non-blocking completion, arena construction, and the matching solver."""
    completed = game_non_blocking(game)
    arena = build_arena(completed, max_vertices)
    if game.objective.kind == REACH:
        return solve_reachability(arena)
    return solve_safety(arena)


# ---------------------------------------------------------------------------
# Countdown games


@dataclass(frozen=True)
class CountdownGame:
    """Weighted game graph: Player 0 picks an offered weight, Player 1 picks
    a matching edge, and Player 0 wins by driving the counter exactly to 0."""

    states: tuple[str, ...]
    initial: int
    target: int
    edges: tuple[tuple[int, int, int], ...]  # (from, weight, to)

    def __post_init__(self):
        n = len(self.states)
        if len(set(self.states)) != n:
            raise InputError("duplicate state names")
        if not 0 <= self.initial < n:
            raise InputError("initial state index out of range")
        if self.target < 0:
            raise InputError("target must be non-negative")
        for src, weight, dst in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise InputError("edge state index out of range")
            if weight < 1:
                raise InputError("edge weights must be positive")


def solve_countdown(game: CountdownGame, max_states: int = DEFAULT_STATE_CAP) -> int:
    """Direct fixpoint over (state, remaining value); returns the winner.

    Player 0 wins (s, 0) outright; at (s, v) they win iff some offered
    weight d <= v has every d-successor winning at v - d. With no playable
    weight the counter can never hit zero, so Player 0 loses. The table has
    (target + 1) * |states| cells; more than ``max_states`` raises
    ``ResourceLimitError`` before any is allocated, so a game of more than
    ``DEFAULT_STATE_CAP`` (1,000,000) cells needs an explicit larger
    ``max_states``.
    """
    cells = (game.target + 1) * len(game.states)
    if cells > max_states:
        raise ResourceLimitError(
            f"countdown table of {cells} cells exceeds the state cap of {max_states}", max_states
        )
    by_weight: dict[int, dict[int, list[int]]] = {}
    for src, weight, dst in game.edges:
        by_weight.setdefault(src, {}).setdefault(weight, []).append(dst)
    win = [[False] * len(game.states) for _ in range(game.target + 1)]
    for s in range(len(game.states)):
        win[0][s] = True
    for v in range(1, game.target + 1):
        for s in range(len(game.states)):
            win[v][s] = any(
                d <= v and all(win[v - d][t] for t in succs)
                for d, succs in by_weight.get(s, {}).items()
            )
    return 0 if win[game.target][game.initial] else 1


def _is_power_of_two(n: int) -> bool:
    return n > 0 and n & (n - 1) == 0


def _power_chain(weight: int) -> list[int]:
    """Descending power-of-two components of a weight."""
    return [1 << b for b in range(weight.bit_length() - 1, -1, -1) if weight >> b & 1]


def normalize_countdown(game: CountdownGame) -> CountdownGame:
    """Rewrite weights and target to powers of two.

    Each composite weight becomes a chain of fresh forced states stepping
    through its descending binary components; a short target is padded to
    the next power of two by a forced prefix of the difference. Forced
    chains add no strategic choices, but note that a chain entered with less
    than the full weight remaining can hit zero mid-chain, which the
    original atomic weight could not; games already in power-of-two form are
    returned unchanged.
    """
    if _is_power_of_two(game.target) and all(_is_power_of_two(w) for _, w, _ in game.edges):
        return game
    states = list(game.states)
    edges: list[tuple[int, int, int]] = []

    def fresh(base: str) -> int:
        name = base
        while name in states:
            name = "_" + name
        states.append(name)
        return len(states) - 1

    def add_chain(src: int, weight: int, dst: int) -> None:
        parts = _power_chain(weight)
        cur = src
        for i, part in enumerate(parts):
            nxt = dst if i == len(parts) - 1 else fresh(f"chain{len(states)}")
            edges.append((cur, part, nxt))
            cur = nxt

    for src, weight, dst in game.edges:
        if _is_power_of_two(weight):
            edges.append((src, weight, dst))
        else:
            add_chain(src, weight, dst)
    initial = game.initial
    target = game.target
    if not _is_power_of_two(target):
        padded = (1 << target.bit_length()) if target else 1
        entry = fresh("pad_start")
        add_chain(entry, padded - target, game.initial)
        initial = entry
        target = padded
    return CountdownGame(tuple(states), initial, target, tuple(edges))


def countdown_alphabet(k: int) -> Alphabet:
    """Symbols for target 2^k: the offered powers, carries, and no-carries."""
    symbols = [str(1 << i) for i in range(k + 1)]
    symbols += [f"c{i}" for i in range(k)]
    symbols += [f"n{i}" for i in range(k)]
    return Alphabet(tuple(symbols))


def countdown_guard_dfas(k: int) -> list[FiniteAutomaton]:
    """The k+1 binary-counter guard DFAs for target 2^k.

    Guard i tracks bit i of the running total: state p is 0, q is 1, a is a
    pending carry forced out by the carry symbol, and r is a rejecting sink.
    The last guard accepts exactly when the total has reached 2^k.
    """
    alpha = countdown_alphabet(k)
    idx = {sym: i for i, sym in enumerate(alpha.symbols)}
    dfas = []
    for i in range(k + 1):
        inc = {idx[str(1 << i)]}
        if i >= 1:
            inc.add(idx[f"c{i - 1}"])
        if i < k:
            carry = idx[f"c{i}"]
            nocarry = idx[f"n{i}"]
            transitions = []
            for a in range(len(alpha)):
                transitions.append((0, a, 1 if a in inc else (3 if a == carry else 0)))
                transitions.append((1, a, 2 if a in inc else (3 if a == carry else 1)))
                if a == carry:
                    transitions.append((2, a, 0))
                elif a in inc or a == nocarry:
                    transitions.append((2, a, 3))
                else:
                    transitions.append((2, a, 2))
                transitions.append((3, a, 3))
            dfas.append(
                FiniteAutomaton(
                    alphabet=alpha,
                    states=(f"p{i}", f"q{i}", f"a{i}", f"r{i}"),
                    initial=0,
                    accepting=frozenset({0}),
                    transitions=tuple(transitions),
                )
            )
        else:
            nocarries = {idx[f"n{j}"] for j in range(k)}
            transitions = []
            for a in range(len(alpha)):
                transitions.append((0, a, 1 if a in inc else 0))
                transitions.append((1, a, 1 if a in nocarries else 2))
                transitions.append((2, a, 2))
            dfas.append(
                FiniteAutomaton(
                    alphabet=alpha,
                    states=(f"p{i}", f"q{i}", f"r{i}"),
                    initial=0,
                    accepting=frozenset({1}),
                    transitions=tuple(transitions),
                )
            )
    return dfas


@lru_cache(maxsize=8)
def _shared_guard_dfas(k: int) -> tuple[FiniteAutomaton, ...]:
    """The counter guards depend on k alone, so reductions share them.

    Bounded because an entry holds k + 1 automata over 3k + 1 symbols.
    """
    return tuple(countdown_guard_dfas(k))


def countdown_to_hcs_game(game: CountdownGame) -> HcsGame:
    """Reduce a countdown game to a reachability game on a guarded system.

    Requires the target and every weight to be a power of two (normalize
    first otherwise). Weights larger than the target can never be played
    toward an exact hit and are dropped. Player 0 picks a weight symbol,
    then resolves the carry chain c0/n0 ... c(k-1)/n(k-1); Player 1 then
    dispatches along a matching edge. From any original state Player 0 may
    enter the epsilon chain guarded by the counter DFAs into the unique
    accepting state, which is reachable exactly when the counter sits at the
    target.
    """
    if not _is_power_of_two(game.target):
        raise InputError(
            f"target {game.target} is not a power of two; apply normalize_countdown first"
        )
    for _, weight, _ in game.edges:
        if not _is_power_of_two(weight):
            raise InputError(
                f"weight {weight} is not a power of two; apply normalize_countdown first"
            )
    k = game.target.bit_length() - 1
    alpha = countdown_alphabet(k)
    idx = {sym: i for i, sym in enumerate(alpha.symbols)}
    guards = {f"D{i}": dfa for i, dfa in enumerate(_shared_guard_dfas(k))}

    states: list[str] = []
    owner: list[int] = []
    state_of: dict[str, int] = {}

    def add_state(name: str, who: int) -> int:
        display = name
        while display in states:
            display = "_" + display
        state_of[name] = len(states)
        states.append(display)
        owner.append(who)
        return state_of[name]

    for name in game.states:
        add_state(f"s_{name}", 0)
    transitions: list[tuple[int, Optional[int], int]] = []
    guarded: dict[int, str] = {}

    # Weight choice, carry chain, and Player-1 dispatch. Duplicate edges
    # collapse: they offer Player 1 nothing new.
    offered: dict[int, dict[int, set[int]]] = {}
    for src, weight, dst in game.edges:
        if weight > game.target:
            continue  # overshoots immediately; playing it could never win
        offered.setdefault(src, {}).setdefault(weight, set()).add(dst)
    for src in sorted(offered):
        for weight in sorted(offered[src]):
            base = f"{game.states[src]}_{weight}"
            dispatch = add_state(f"dp_{base}", 1)
            entry = dispatch
            for j in range(k - 1, -1, -1):
                step = add_state(f"ch_{base}_{j}", 0)
                transitions.append((step, idx[f"c{j}"], entry))
                transitions.append((step, idx[f"n{j}"], entry))
                entry = step
            transitions.append((state_of[f"s_{game.states[src]}"], idx[str(weight)], entry))
            for dst in sorted(offered[src][weight]):
                transitions.append((dispatch, None, state_of[f"s_{game.states[dst]}"]))

    # The guarded epsilon chain into the accepting state.
    chain = [add_state(f"fin_{j}", 0) for j in range(k + 1)]
    goal = add_state("goal", 0)
    for name in game.states:
        transitions.append((state_of[f"s_{name}"], None, chain[0]))
    for j in range(k + 1):
        nxt = chain[j + 1] if j < k else goal
        guarded[len(transitions)] = f"D{j}"
        transitions.append((chain[j], None, nxt))

    underlying = FiniteAutomaton(
        alphabet=alpha,
        states=tuple(states),
        initial=state_of[f"s_{game.states[game.initial]}"],
        accepting=frozenset({goal}),
        transitions=tuple(transitions),
    )
    hcs = Hcs(alpha, underlying, guards, guarded)
    reduced = HcsGame(hcs, tuple(owner), Objective(REACH, frozenset({goal})))
    return game_non_blocking(reduced)
