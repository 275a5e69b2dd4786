"""Seeded corpora for the four workloads, as plain data.

Nothing here imports ``hcs``: every corpus is a list of queries over JSON
model documents (kept as JSON text, in the toolkit's document formats),
cycle-length lists, or words, each with the reference answer computed by
``reference``. A corpus is a pure function of (seed, rounds). Every round has
the same make-up, so two runs with the same number of rounds attempt the same
operations in the same proportions, whatever the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from reference import (
    DocStepper,
    countdown_winner,
    delimited_block_word,
    lcm_of,
    minimal_states_formula,
)

REPO = Path(__file__).resolve().parent.parent
MODELS = REPO / "models"


@dataclass
class Query:
    """One verdict to compute: its kind, its input and the reference answer."""

    kind: str
    data: Any
    expected: Any = None
    extra: dict = field(default_factory=dict)
    #: Reference results a check has computed once, for the later passes.
    memo: dict = field(default_factory=dict)


def _rng(seed: int, workload: str) -> random.Random:
    return random.Random(f"{workload}:{seed}")


# ---------------------------------------------------------------------------
# countdown-games

#: Per round: 5, 8, 26 and 10 games with targets 1, 2, 4 and 8, then one
#: large game, with target 32 in every eighth round and 16 otherwise. Large
#: games are 2% of the corpus. p50 falls inside the target-4 games and p90
#: inside the target-8 games, away from the edges between populations.
SMALL_COUNTS = {1: 5, 2: 8, 4: 26, 8: 10}
WEIGHTS = (1, 2, 4)
#: The large games are drawn by the same generator from this fixed seed, not
#: from the run's: they take most of a pass's time and set its peak memory,
#: and a run holds too few of them for their cost to average out.
LARGE_SEED = 0


def countdown_doc(rng: random.Random, target: int) -> dict:
    """Up to 4 states, each with 0-2 edges of weight 1, 2 or 4."""
    n = rng.randint(1, 4)
    names = [f"s{i}" for i in range(n)]
    edges = set()
    for s in range(n):
        for _ in range(rng.randint(0, 2)):
            edges.add((s, rng.choice(WEIGHTS), rng.randrange(n)))
    return {
        "type": "countdown",
        "states": names,
        "initial": names[0],
        "target": target,
        "edges": [{"from": names[s], "weight": w, "to": names[t]} for s, w, t in sorted(edges)],
    }


def countdown_corpus(seed: int, rounds: int) -> list[Query]:
    rng = _rng(seed, "countdown-games")
    large_rng = _rng(LARGE_SEED, "countdown-games-large")
    out = []
    for r in range(rounds):
        docs = [countdown_doc(rng, t) for t, count in SMALL_COUNTS.items() for _ in range(count)]
        docs.append(countdown_doc(large_rng, 32 if r % 8 == 7 else 16))
        rng.shuffle(docs)
        for doc in docs:
            out.append(Query("countdown", json.dumps(doc), countdown_winner(doc)))
    return out


# ---------------------------------------------------------------------------
# succinct-pipeline

#: Per round: prime_family(1) and (2) once, prime_family(3) 25 times,
#: prime_family(4) 16 times, prime_family(5) once, and 39 seeded gadgets over
#: 2-4 cycle lengths drawn from 2..6. About three in four seeded gadgets cost
#: less than prime_family(3), so p50 falls well inside the prime_family(3)
#: population (30% of the corpus) and p90 well inside the prime_family(4)
#: population (19%), whatever the seed draws; prime_family(5) is the one
#: large query per round (1%).
PRIME_COPIES = {1: 1, 2: 1, 3: 25, 4: 16, 5: 1}
GADGETS_PER_ROUND = 39
CYCLE_LENGTHS = range(2, 7)
PRIMES = (2, 3, 5, 7, 11)


def succinct_corpus(seed: int, rounds: int) -> list[Query]:
    rng = _rng(seed, "succinct-pipeline")
    out = []
    for _ in range(rounds):
        batch = [("prime", list(PRIMES[:k])) for k, copies in PRIME_COPIES.items() for _ in range(copies)]
        for _ in range(GADGETS_PER_ROUND):
            lengths = [rng.choice(CYCLE_LENGTHS) for _ in range(rng.randint(2, 4))]
            batch.append(("cycles", lengths))
        rng.shuffle(batch)
        for kind, lengths in batch:
            out.append(
                Query(kind, lengths, minimal_states_formula(lengths), {"words": _gadget_words(rng, lengths)})
            )
    return out


def _gadget_words(rng: random.Random, lengths: list[int]) -> list[list[str]]:
    """Words around the language a^(nL) $^k: members and near misses."""
    period, k = lcm_of(lengths), len(lengths)
    n = rng.randint(0, 2) * period
    off = n + rng.randint(1, period - 1) if period > 1 else n + 1
    return [
        ["a"] * n + ["$"] * k,
        ["a"] * (n + period) + ["$"] * k,
        ["a"] * off + ["$"] * k,
        ["a"] * n + ["$"] * (k + 1),
        ["a"] * n + ["$"] * (k - 1),
        ["a"] * n + ["$"] * (k - 1) + ["a", "$"],
    ]


# ---------------------------------------------------------------------------
# vass-cover

AB = ["a", "b"]

#: Per round: six coverability instances, two of each dimension, then two
#: HCS with deterministic cover-VASS guards (one whose guards can die, one
#: whose guards cannot).
COVER_DIMS = (2, 2, 3, 3, 4, 4)
LOOP_ENTRIES = (0, 1)
FORWARD_ENTRIES = (-1, 0, 1, 1)


def vass_doc(rng: random.Random, dim: int) -> tuple[dict, dict]:
    """A cover-VASS of dimension ``dim`` whose control graph is a chain of 5
    states with self-loops. Each state has two self-loops with entries 0 or
    +1, and all but the last have two transitions to later states with
    entries -1, 0, +1 or +1; labels are a or b.

    Every cycle is a self-loop that never decrements, so a Karp-Miller branch
    expands at most five nodes in a state (no loop, either loop, both loops
    in either order) and leaves it by at most two transitions. A tree thus
    has at most about 1.2e5 nodes, below the engines' cap, whatever the seed.
    """
    n = 5
    names = [f"v{i}" for i in range(n)]
    seen = []
    for s in range(n):
        moves = [(LOOP_ENTRIES, s) for _ in range(2)]
        if s < n - 1:
            moves += [(FORWARD_ENTRIES, rng.randint(s + 1, n - 1)) for _ in range(2)]
        for entries, dst in moves:
            t = (s, rng.randrange(2), tuple(rng.choice(entries) for _ in range(dim)), dst)
            if t not in seen:
                seen.append(t)
    doc = {
        "type": "vass",
        "alphabet": AB,
        "dim": dim,
        "mode": "cover",
        "states": names,
        "initial": names[0],
        "accepting": [names[-1]],
        "transitions": [
            {"from": names[s], "label": AB[a], "update": list(u), "to": names[d]} for s, a, u, d in seen
        ],
    }
    problem = {
        "target": rng.randint(1, n - 1),
        "target_counters": [rng.choice((1, 2, 3)) for _ in range(dim)],
        "transitions": seen,
    }
    return doc, problem


def guard_doc(rng: random.Random, can_die: bool) -> dict:
    """A deterministic cover-VASS guard without epsilon moves: 1-2 states,
    dimension 1-2, most (state, symbol) pairs defined. Entries are -1, 0, +1
    for a guard that can die and 0, 0, +1 for one that cannot."""
    dim = rng.randint(1, 2)
    n = rng.randint(1, 2)
    names = [f"g{i}" for i in range(n)]
    entries = (-1, 0, 1) if can_die else (0, 0, 1)
    transitions = []
    for s in range(n):
        for a in AB:
            if rng.random() < 0.85:
                transitions.append(
                    {
                        "from": names[s],
                        "label": a,
                        "update": [rng.choice(entries) for _ in range(dim)],
                        "to": names[rng.randrange(n)],
                    }
                )
    accepting = [q for q in names if rng.random() < 0.5] or [names[-1]]
    return {
        "type": "vass",
        "alphabet": AB,
        "dim": dim,
        "mode": "cover",
        "states": names,
        "initial": names[0],
        "accepting": accepting,
        "transitions": transitions,
    }


def guarded_hcs_doc(rng: random.Random, can_die: bool) -> dict:
    """An HCS over {a, b} with 1-2 guards from ``guard_doc``. Its underlying
    automaton is a chain of 3-5 states: each state has a self-loop on a and
    on b with probability 1/2 each, all but the last have 1-2 moves to a
    later state (1 in 8 an epsilon move), and half of all moves are guarded.
    The last state accepts."""
    n = rng.randint(3, 5)
    names = [f"u{i}" for i in range(n)]
    guards = {f"G{i}": guard_doc(rng, can_die) for i in range(rng.randint(1, 2))}
    transitions = []
    seen = set()
    for s in range(n):
        moves = [(a, s) for a in AB if rng.random() < 0.5]
        if s < n - 1:
            for _ in range(rng.randint(1, 2)):
                moves.append(("eps" if rng.random() < 0.125 else rng.choice(AB), rng.randint(s + 1, n - 1)))
        for label, dst in moves:
            if (s, label, dst) in seen:
                continue
            seen.add((s, label, dst))
            move = {"from": names[s], "label": label, "to": names[dst]}
            if rng.random() < 0.5:
                move["guard"] = rng.choice(sorted(guards))
            transitions.append(move)
    return {
        "type": "hcs",
        "alphabet": AB,
        "states": names,
        "initial": names[0],
        "accepting": [names[-1]],
        "transitions": transitions,
        "guards": guards,
    }


def vass_corpus(seed: int, rounds: int) -> list[Query]:
    rng = _rng(seed, "vass-cover")
    out = []
    for _ in range(rounds):
        batch = []
        for dim in COVER_DIMS:
            doc, problem = vass_doc(rng, dim)
            batch.append(Query("cover", json.dumps(doc), None, problem))
        for can_die in (True, False):
            doc = guarded_hcs_doc(rng, can_die)
            batch.append(Query("guarded", json.dumps(doc), None, {"can_die": can_die}))
        rng.shuffle(batch)
        out.extend(batch)
    return out


# ---------------------------------------------------------------------------
# membership-stream

SHIPPED = ("traffic_lights", "four_eyes", "branching_nonempty")
WORD_LENGTHS = (1000, 2000)
NESTED_MODELS = 8
NESTED_ALPHABET = ["a", "b", "c"]


def shipped_doc(name: str) -> dict:
    with open(MODELS / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _random_dfa_doc(rng: random.Random, alphabet: list[str]) -> dict:
    n = rng.randint(2, 3)
    names = [f"d{i}" for i in range(n)]
    return {
        "type": "dfa",
        "alphabet": alphabet,
        "states": names,
        "initial": names[0],
        "accepting": [q for q in names if rng.random() < 0.6] or [names[0]],
        "transitions": [
            {"from": q, "label": a, "to": names[rng.randrange(n)]} for q in names for a in alphabet
        ],
    }


def _random_hcs_doc(rng: random.Random, alphabet: list[str], guard_maker) -> dict:
    """2-3 states; every (state, symbol) pair has a move, a third of them
    guarded, plus one guarded epsilon move."""
    n = rng.randint(2, 3)
    names = [f"h{i}" for i in range(n)]
    guards = {f"g{i}": guard_maker() for i in range(rng.randint(1, 2))}
    transitions = []
    for q in names:
        for a in alphabet:
            move = {"from": q, "label": a, "to": names[rng.randrange(n)]}
            if rng.random() < 1 / 3:
                move["guard"] = rng.choice(sorted(guards))
            transitions.append(move)
    src, dst = rng.sample(names, 2)
    transitions.append({"from": src, "label": "eps", "to": dst, "guard": rng.choice(sorted(guards))})
    return {
        "type": "hcs",
        "alphabet": alphabet,
        "states": names,
        "initial": names[0],
        "accepting": [q for q in names if rng.random() < 0.5] or [names[-1]],
        "transitions": transitions,
        "guards": guards,
    }


def nested_doc(rng: random.Random) -> dict:
    """Depth-2 nesting: an HCS guarded by HCS that are guarded by DFAs."""
    alphabet = NESTED_ALPHABET
    return _random_hcs_doc(
        rng,
        alphabet,
        lambda: _random_hcs_doc(rng, alphabet, lambda: _random_dfa_doc(rng, alphabet)),
    )


#: The epsilon-loop fault: a 2-state HCS whose one move is guarded by a
#: cover-VASS with a +1 epsilon self-loop. Its language is {a}, but the
#: guard's epsilon closure is infinite, so membership explores until the cap.
EPS_LOOP_DOC = {
    "type": "hcs",
    "alphabet": ["a"],
    "states": ["s0", "s1"],
    "initial": "s0",
    "accepting": ["s1"],
    "transitions": [{"from": "s0", "label": "a", "to": "s1", "guard": "pump"}],
    "guards": {
        "pump": {
            "type": "vass",
            "alphabet": ["a"],
            "dim": 1,
            "mode": "cover",
            "states": ["p"],
            "initial": "p",
            "accepting": ["p"],
            "transitions": [
                {"from": "p", "label": "eps", "update": [1], "to": "p"},
                {"from": "p", "label": "a", "update": [0], "to": "p"},
            ],
        }
    },
}


def walk_word(rng: random.Random, stepper, alphabet: list[str], length: int):
    """A random word that stays alive (some underlying state left) while it
    can; the last symbol is chosen to accept or to reject, by a coin flip.
    Returns the word and its reference verdict."""
    want = rng.random() < 0.5
    config = stepper.initial()
    word = []
    for i in range(length):
        order = rng.sample(alphabet, len(alphabet))
        last = i == length - 1
        chosen = None
        for symbol in order:
            nxt = stepper.step(config, symbol)
            if (stepper.accepts(nxt) == want) if last else bool(nxt[0]):
                chosen = (symbol, nxt)
                break
        if chosen is None and last:
            chosen = (order[0], stepper.step(config, order[0]))
        elif chosen is None:
            # No underlying state survives any symbol: the rest of the word
            # cannot be accepted, whatever it is.
            word.append(order[0])
            word += [rng.choice(alphabet) for _ in range(length - i - 1)]
            return word, False
        word.append(chosen[0])
        config = chosen[1]
    return word, stepper.accepts(config)


def star_word(rng: random.Random, length: int):
    """$-delimited blocks a^n b^m, mostly with m <= n; with probability 1/2
    one block breaks the rule (m = n + 1, or an a after the b's)."""
    word = ["$"]
    broken = rng.random() < 0.5
    break_at = rng.randrange(length) if broken else -1
    while len(word) < length:
        n = rng.randint(0, 30)
        m = rng.randint(0, n)
        block = ["a"] * n + ["b"] * m
        if len(word) <= break_at < len(word) + n + m + 1:
            block = ["a"] * n + ["b"] * (n + 1) if rng.random() < 0.5 else block + ["b", "a"]
            break_at = -1
        word.extend(block)
        word.append("$")
    return word, delimited_block_word(word)


#: Per round: three traffic-lights words, one four-eyes and one branching
#: word, two nested-model words, three delimited-star words, and one
#: epsilon-loop query. The cheap four-eyes and branching words are 2 in 10
#: verdicts, so p50 falls among the dearer ones.
WALKED_PER_ROUND = ("traffic_lights",) * 3 + ("four_eyes", "branching_nonempty")
STAR_PER_ROUND = 3


def membership_corpus(seed: int, rounds: int) -> tuple[dict, list[Query]]:
    """Models (documents by name, as JSON text) and the queries of every
    round."""
    rng = _rng(seed, "membership-stream")
    models = {name: shipped_doc(name) for name in SHIPPED}
    for i in range(NESTED_MODELS):
        models[f"nested{i}"] = nested_doc(rng)
    models["eps_loop"] = EPS_LOOP_DOC
    steppers = {name: DocStepper(doc) for name, doc in models.items() if name != "eps_loop"}
    nested = [f"nested{i}" for i in range(NESTED_MODELS)]
    out = []
    for r in range(rounds):
        batch = []
        walked = WALKED_PER_ROUND + (nested[(2 * r) % NESTED_MODELS], nested[(2 * r + 1) % NESTED_MODELS])
        for name in walked:
            word, verdict = walk_word(rng, steppers[name], models[name]["alphabet"], rng.randint(*WORD_LENGTHS))
            batch.append(Query("member", (name, word), verdict))
        for _ in range(STAR_PER_ROUND):
            word, verdict = star_word(rng, rng.randint(*WORD_LENGTHS))
            batch.append(Query("member_vass", ("star", word), verdict))
        batch.append(Query("eps_loop", ("eps_loop", ["a"]), True))
        rng.shuffle(batch)
        out.extend(batch)
    return {name: json.dumps(doc) for name, doc in models.items()}, out
