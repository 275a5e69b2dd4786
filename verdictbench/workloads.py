"""The four workloads: turning a corpus into model values, computing one
verdict per query through the public functions of ``hcs``, and checking it.

A workload has three steps:

- ``prepare(hcs, corpus)`` is set-up: it turns the corpus into model values
  (parsing documents with ``formats.from_document`` or building gadgets).
- ``ask(hcs, item)`` computes one verdict. It looks every function up on its
  module at call time, so the traced run can time each public call.
- ``check(item, result)`` compares the verdict with the reference answer,
  outside the timed region. It returns None, or a message on a mismatch.

``hcs`` is a namespace holding the toolkit's modules (``hcs.games``,
``hcs.formats``, ...), imported afresh by every set-up.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

import corpus as corpora
import reference as ref

#: Node cap handed to the coverability and emptiness engines.
NODE_CAP = 200_000
#: State cap for the epsilon-loop membership queries. At this cap the
#: closure gives up after about as long as an ordinary query takes.
EPS_LOOP_CAP = 10_000
#: Counter bound of the reference searches that back "not coverable" and
#: "empty" verdicts, and the bounds tried in turn for "non-empty" ones.
SEARCH_BOUND = 4
WITNESS_BOUNDS = (4, 8, 16)
#: Query kinds whose model has VASS guards; their member time is
#: core.member_vass_ms.
VASS_MEMBER_KINDS = ("member_vass", "eps_loop")


@dataclass
class Item:
    """A prepared query: the corpus entry plus the model values it needs."""

    query: corpora.Query
    model: Any


@dataclass(frozen=True)
class Workload:
    name: str
    #: Corpus rounds per second of --seconds, set so that the passes of an
    #: untraced run take about 0.6 x --seconds together on the machine of
    #: the README's reference figures when it is not loaded from elsewhere.
    rounds_per_second: float
    make_corpus: Callable[[int, int], Any]
    prepare: Callable[[Any, Any], list]
    ask: Callable[[Any, Item], Any]
    check: Callable[[Item, Any], Optional[str]]
    #: Exceptions, by class name, that a query kind is known to raise today.
    known_faults: tuple = ()


# ---------------------------------------------------------------------------
# countdown-games


def _prepare_countdown(hcs, queries):
    return [Item(q, hcs.formats.from_document(json.loads(q.data))) for q in queries]


def _ask_countdown(hcs, item):
    return hcs.games.solve_hcs_game(hcs.games.countdown_to_hcs_game(item.model))


def _check_countdown(item, solution):
    if solution.winner_from_initial != item.query.expected:
        return f"winner {solution.winner_from_initial}, fixpoint says {item.query.expected}: {item.query.data}"
    return None


# ---------------------------------------------------------------------------
# succinct-pipeline


def _prepare_succinct(hcs, queries):
    items = []
    for q in queries:
        if q.kind == "prime":
            gadget = hcs.bench.prime_family(len(q.data))
        else:
            gadget = hcs.core.build_intersection_dfa([hcs.bench.cycle_dfa(n) for n in q.data])
        items.append(Item(q, gadget))
    return items


@dataclass
class PipelineResult:
    parsed: Any
    minimal: Any
    counterexample: Optional[list]
    doc_bytes: int


def _ask_succinct(hcs, item):
    """determinize --out, then minimize --model, then equiv, as the CLI does."""
    dfa = hcs.core.determinize_hcs(item.model)
    text = json.dumps(hcs.formats.to_document(dfa))
    parsed = hcs.formats.from_document(json.loads(text))
    minimal = hcs.automata.minimize(parsed)
    counterexample = hcs.automata.equivalence_counterexample(parsed, minimal)
    return PipelineResult(parsed, minimal, counterexample, len(text))


def _check_succinct(item, result):
    lengths = item.query.data
    minimal = result.minimal
    if len(minimal.states) != item.query.expected:
        return f"{lengths}: minimal DFA has {len(minimal.states)} states, L + k + 1 = {item.query.expected}"
    if result.counterexample is not None:
        return f"{lengths}: parsed and minimal DFAs differ on {result.counterexample}"
    symbols = {s: i for i, s in enumerate(minimal.alphabet.symbols)}
    delta = {(src, a): dst for src, a, dst in minimal.transitions}
    for word in item.query.extra["words"]:
        got = ref.dfa_accepts(minimal.initial, minimal.accepting, delta, [symbols[s] for s in word])
        if got != ref.gadget_accepts(word, lengths):
            return f"{lengths}: minimal DFA says {got} on a^{word.count('a')} with {word.count('$')} $"
    return None


# ---------------------------------------------------------------------------
# vass-cover


def _prepare_vass(hcs, queries):
    items = []
    for q in queries:
        model = hcs.formats.from_document(json.loads(q.data))
        if q.kind == "cover":
            model = hcs.vass.CoverabilityInstance(
                model, 0, q.extra["target"], tuple(q.extra["target_counters"])
            )
        items.append(Item(q, model))
    return items


def _ask_vass(hcs, item):
    if item.query.kind == "cover":
        decide = hcs.vass.decide_coverability
        return decide(item.model, "km", NODE_CAP), decide(item.model, "backward", NODE_CAP)
    empty = hcs.vassguards.hcs_cover_empty(item.model, "onthefly", NODE_CAP)
    if item.query.extra["can_die"]:
        return empty, None
    product = hcs.vassguards.hcs_cover_empty(item.model, "product", NODE_CAP, assume_non_dying=True)
    return empty, product


def _memo(item, key, compute):
    """A reference result for this query, computed on the first pass only."""
    if key not in item.query.memo:
        item.query.memo[key] = compute()
    return item.query.memo[key]


def _check_cover(item, results):
    problem = item.query.extra
    km, backward = results
    if km.coverable != backward.coverable:
        return f"engines disagree: km {km.coverable}, backward {backward.coverable}"
    dim = len(problem["target_counters"])
    if km.coverable:
        for result in (km, backward):
            end = ref.replay_firing(problem["transitions"], 0, (0,) * dim, result.witness)
            if end is None or not ref.covers(end, problem["target"], problem["target_counters"]):
                return f"{result.engine} witness {result.witness} does not replay to a cover"
    elif _memo(
        item,
        "bounded_cover",
        lambda: ref.bounded_cover_search(
            problem["transitions"], 0, (0,) * dim, problem["target"], problem["target_counters"], SEARCH_BOUND
        ),
    ):
        return "not coverable, but the bounded search covers the target"
    return None


def _check_guarded(item, results):
    empty, product = results
    if product is not None and product != empty:
        return f"engines disagree: onthefly empty={empty}, product empty={product}"
    stepper = _memo(item, "stepper", lambda: ref.CoverGuardStepper(json.loads(item.query.data)))

    def search(bound):
        return _memo(item, ("nonempty", bound), lambda: ref.bounded_nonempty_search(stepper, bound))

    if empty:
        if search(SEARCH_BOUND) is not None:
            return "empty, but the bounded search finds an accepted word"
        return None
    for bound in WITNESS_BOUNDS:
        word = search(bound)
        if word is not None:
            return None if stepper.member(word) else f"witness {word} does not replay"
    return f"non-empty, but no accepted word keeps its counters <= {WITNESS_BOUNDS[-1]}"


def _check_vass(item, results):
    if item.query.kind == "cover":
        return _check_cover(item, results)
    return _check_guarded(item, results)


# ---------------------------------------------------------------------------
# membership-stream


def _prepare_membership(hcs, data):
    documents, queries = data
    models = {name: hcs.formats.from_document(json.loads(text)) for name, text in documents.items()}
    models["star"] = hcs.vassguards.delimited_star_hcs(hcs.models.count_balanced_vass())
    return [Item(q, models[q.data[0]]) for q in queries]


def _ask_membership(hcs, item):
    word = item.query.data[1]
    if item.query.kind == "eps_loop":
        return hcs.core.member(item.model, word, EPS_LOOP_CAP)
    return hcs.core.member(item.model, word)


def _check_membership(item, accepted):
    if accepted != item.query.expected:
        name, word = item.query.data
        return f"{name}: member says {accepted} on a {len(word)}-symbol word, the reference {item.query.expected}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "countdown-games", 2.4, corpora.countdown_corpus, _prepare_countdown, _ask_countdown, _check_countdown
        ),
        Workload(
            "succinct-pipeline", 0.3, corpora.succinct_corpus, _prepare_succinct, _ask_succinct, _check_succinct
        ),
        Workload("vass-cover", 26.0, corpora.vass_corpus, _prepare_vass, _ask_vass, _check_vass),
        Workload(
            "membership-stream",
            1.25,
            corpora.membership_corpus,
            _prepare_membership,
            _ask_membership,
            _check_membership,
            known_faults=(("eps_loop", "ResourceLimitError"),),
        ),
    )
}
