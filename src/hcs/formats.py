"""The canonical JSON document formats binding all model types together.

Each document is an object with a "type" field in {nfa, dfa, hcs, game,
vass, countdown, 2cm}. Parsing is strict: unknown fields are rejected,
"eps" is reserved for epsilon labels, and "$" is an ordinary symbol.
Round trips are stable (parse(serialize(x)) equals x structurally). The
canonical order is computed on the document: ``canonical_document`` sorts
every transition and edge list, guards included, by (from, label or 2cm
action with epsilon first, weight, to, update), so that fmt output is
byte-identical for structurally equal models.
"""

from __future__ import annotations

import json
from typing import Any

from .automata import EPS_NAME, Alphabet, FiniteAutomaton
from .core import Hcs
from .errors import InputError
from .games import CountdownGame, HcsGame, Objective
from .vass import Vass
from .vassguards import ACTIONS, TwoCounterMachine

Model = Any  # FiniteAutomaton | Hcs | HcsGame | Vass | CountdownGame | TwoCounterMachine


def _expect_keys(doc: dict, context: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(doc, dict):
        raise InputError(f"{context}: expected a JSON object, got {type(doc).__name__}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise InputError(f"{context}: missing fields {missing}")
    unknown = [k for k in doc if k not in required and k not in optional]
    if unknown:
        raise InputError(f"{context}: unknown fields {unknown}")


def _strings(doc: dict, key: str, context: str) -> list[str]:
    value = doc[key]
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise InputError(f"{context}: {key} must be a list of strings")
    return value


def _entries(doc: dict, key: str, context: str) -> list:
    value = doc[key]
    if not isinstance(value, list):
        raise InputError(f"{context}: {key} must be a list")
    return value


def _object(doc: dict, key: str, context: str) -> dict:
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise InputError(f"{context}: {key} must be an object")
    return value


def _int(doc: dict, key: str, context: str) -> int:
    value = doc[key]
    if type(value) is not int:  # a JSON true or false is not a number
        raise InputError(f"{context}: {key} must be an integer")
    return value


def _state_table(doc: dict, context: str) -> tuple[list[str], dict[str, int]]:
    """The document's state names and a name -> index map, built once."""
    states = _strings(doc, "states", context)
    return states, {name: i for i, name in enumerate(states)}


#: The 2cm action names, each mapped to itself.
_ACTIONS = {action: action for action in ACTIONS}


def _lookup(table: dict, name: Any, context: str, what: str) -> Any:
    """What ``name`` stands for in one of a document's name tables: its
    states, its symbols (with "eps" -> None) or the 2cm actions."""
    try:
        return table[name]
    except (KeyError, TypeError):  # TypeError: an unhashable JSON value
        raise InputError(f"{context}: unknown {what} {name!r}") from None


def _shaped(doc: dict, key: str, context: str, where: str, fields: tuple[str, ...], optional: tuple[str, ...] = ()):
    """Enumerate the list ``doc[key]``, each entry checked to be an object
    with every one of ``fields`` and no other key outside ``optional``. A
    right entry costs one key-set comparison; ``where.format(i)`` and the
    field lists of ``_expect_keys`` are built only for a wrong one."""
    required = frozenset(fields)
    allowed = required.union(optional)
    for i, entry in enumerate(_entries(doc, key, context)):
        if not isinstance(entry, dict) or (entry.keys() != required and entry.keys() != allowed):
            _expect_keys(entry, where.format(i), fields, optional)
        yield i, entry


# ---------------------------------------------------------------------------
# Serialization


def _control_fields(machine: FiniteAutomaton | Vass, kind: str) -> dict:
    """The document of an automaton or VASS; a VASS adds "dim" and "mode"
    after the alphabet and an "update" before each transition's "to"."""
    states, symbols = machine.states, machine.alphabet.symbols
    doc = {"type": kind, "alphabet": list(symbols)}
    if kind == "vass":
        doc["dim"], doc["mode"] = machine.dim, machine.mode
        transitions = [
            {
                "from": states[src],
                "label": EPS_NAME if label is None else symbols[label],
                "update": list(update),
                "to": states[dst],
            }
            for src, label, update, dst in machine.transitions
        ]
    else:
        transitions = [
            {"from": states[src], "label": EPS_NAME if label is None else symbols[label], "to": states[dst]}
            for src, label, dst in machine.transitions
        ]
    doc["states"] = list(states)
    doc["initial"] = states[machine.initial]
    doc["accepting"] = [states[q] for q in sorted(machine.accepting)]
    doc["transitions"] = transitions
    return doc


def _hcs_fields(hcs: Hcs, kind: str) -> dict:
    doc = _control_fields(hcs.underlying, kind)
    for idx, name in sorted(hcs.guarded.items()):
        doc["transitions"][idx]["guard"] = name
    doc["guards"] = {name: to_document(hcs.guards[name]) for name in sorted(hcs.guards)}
    return doc


def to_document(model: Model) -> dict:
    """Serialize any model value to its JSON document."""
    if isinstance(model, FiniteAutomaton):
        return _control_fields(model, "dfa" if model.deterministic else "nfa")
    if isinstance(model, HcsGame):
        doc = _hcs_fields(model.hcs, "game")
        states = model.hcs.underlying.states
        doc["owner"] = {states[q]: model.owner[q] for q in range(len(states))}
        doc["objective"] = {
            "kind": model.objective.kind,
            "states": [states[q] for q in sorted(model.objective.states)],
        }
        return doc
    if isinstance(model, Hcs):
        return _hcs_fields(model, "hcs")
    if isinstance(model, Vass):
        return _control_fields(model, "vass")
    if isinstance(model, CountdownGame):
        return {
            "type": "countdown",
            "states": list(model.states),
            "initial": model.states[model.initial],
            "target": model.target,
            "edges": [
                {"from": model.states[src], "weight": weight, "to": model.states[dst]}
                for src, weight, dst in model.edges
            ],
        }
    if isinstance(model, TwoCounterMachine):
        return {
            "type": "2cm",
            "states": list(model.states),
            "transitions": [
                {"from": model.states[src], "action": action, "to": model.states[dst]}
                for src, action, dst in model.transitions
            ],
            "source": model.states[model.source],
            "target": model.states[model.target],
        }
    raise InputError(f"cannot serialize {type(model).__name__}")


# ---------------------------------------------------------------------------
# Parsing


def _parse_control(doc: dict, kind: str, guards: bool = False):
    """The automaton or VASS of a document of type ``kind``, the guard name
    of each transition that has one (only if ``guards`` allows it), and the
    document's state table."""
    alpha = Alphabet(tuple(_strings(doc, "alphabet", kind)))
    labels = {symbol: i for i, symbol in enumerate(alpha.symbols)} | {EPS_NAME: None}
    states, index = _state_table(doc, kind)
    initial = _lookup(index, doc["initial"], kind, "state")
    accepting = frozenset(_lookup(index, q, kind, "state") for q in _entries(doc, "accepting", kind))
    vass = kind == "vass"
    fields = ("from", "label", "update", "to") if vass else ("from", "label", "to")
    transitions = []
    guarded: dict[int, str] = {}
    for i, entry in _shaped(doc, "transitions", kind, kind + ": transition {}", fields, ("guard",) if guards else ()):
        src = _lookup(index, entry["from"], kind, "state")
        label = _lookup(labels, entry["label"], kind, "symbol")
        dst = _lookup(index, entry["to"], kind, "state")
        if vass:
            update = entry["update"]
            if not isinstance(update, list) or not all(type(u) is int for u in update):
                raise InputError(f"{kind}: transition {i}: update must be a list of integers")
            transitions.append((src, label, tuple(update), dst))
        else:
            transitions.append((src, label, dst))
        if "guard" in entry:
            if not isinstance(entry["guard"], str):
                raise InputError(f"{kind}: transition {i}: guard must be a string")
            guarded[i] = entry["guard"]
    if vass:
        dim = _int(doc, "dim", kind)
        return Vass(alpha, dim, tuple(states), initial, accepting, tuple(transitions), doc["mode"]), guarded, index
    return FiniteAutomaton(alpha, tuple(states), initial, accepting, tuple(transitions)), guarded, index


def _parse_hcs(doc: dict, context: str) -> tuple[Hcs, dict[str, int]]:
    """The system of an ``hcs`` or ``game`` document and its state table."""
    underlying, guarded, index = _parse_control(doc, context, guards=True)
    guards = {}
    for name, guard_doc in _object(doc, "guards", context).items():
        guards[name] = from_document(guard_doc)
        if isinstance(guards[name], (HcsGame, CountdownGame, TwoCounterMachine)):
            raise InputError(f"{context}: guard {name!r} must be an automaton, VASS, or HCS")
    return Hcs(underlying.alphabet, underlying, guards, guarded), index


def from_document(doc: dict) -> Model:
    """Parse a JSON document into the corresponding model value."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise InputError('a model document must be an object with a "type" field')
    kind = doc["type"]
    base = ("type", "alphabet", "states", "initial", "accepting", "transitions")
    if kind in ("nfa", "dfa"):
        _expect_keys(doc, kind, base)
        automaton = _parse_control(doc, kind)[0]
        if kind == "dfa" and not automaton.deterministic:
            raise InputError('document of type "dfa" is not deterministic')
        return automaton
    if kind == "hcs":
        _expect_keys(doc, kind, base, ("guards",))
        return _parse_hcs(doc, kind)[0]
    if kind == "game":
        _expect_keys(doc, kind, base, ("guards", "owner", "objective"))
        hcs, index = _parse_hcs(doc, kind)
        owner_doc = _object(doc, "owner", kind)
        owner = []
        for name in hcs.underlying.states:
            if name not in owner_doc:
                raise InputError(f"game: state {name!r} has no owner")
            if type(owner_doc[name]) is not int or owner_doc[name] not in (0, 1):
                raise InputError(f"game: owner of {name!r} must be 0 or 1")
            owner.append(owner_doc[name])
        unknown_owners = [n for n in owner_doc if n not in index]
        if unknown_owners:
            raise InputError(f"game: owner map names unknown states {unknown_owners}")
        objective_doc = doc.get("objective")
        if objective_doc is None:
            raise InputError("game: missing objective")
        _expect_keys(objective_doc, "game objective", ("kind", "states"))
        objective = Objective(
            objective_doc["kind"],
            frozenset(
                _lookup(index, q, "game objective", "state") for q in _entries(objective_doc, "states", "game objective")
            ),
        )
        return HcsGame(hcs, tuple(owner), objective)
    if kind == "vass":
        _expect_keys(doc, kind, ("type", "alphabet", "dim", "mode", "states", "initial", "accepting", "transitions"))
        return _parse_control(doc, kind)[0]
    if kind == "countdown":
        _expect_keys(doc, kind, ("type", "states", "initial", "target", "edges"))
        states, index = _state_table(doc, kind)
        edges = []
        for i, entry in _shaped(doc, "edges", kind, "countdown edge {}", ("from", "weight", "to")):
            src = _lookup(index, entry["from"], kind, "state")
            if type(entry["weight"]) is not int:
                raise InputError(f"countdown edge {i}: weight must be an integer")
            edges.append((src, entry["weight"], _lookup(index, entry["to"], kind, "state")))
        return CountdownGame(
            states=tuple(states),
            initial=_lookup(index, doc["initial"], kind, "state"),
            target=_int(doc, "target", kind),
            edges=tuple(edges),
        )
    if kind == "2cm":
        _expect_keys(doc, kind, ("type", "states", "transitions", "source", "target"))
        states, index = _state_table(doc, kind)
        transitions = []
        for i, entry in _shaped(doc, "transitions", kind, "2cm transition {}", ("from", "action", "to")):
            action = _lookup(_ACTIONS, entry["action"], f"2cm transition {i}", "action")
            transitions.append(
                (_lookup(index, entry["from"], kind, "state"), action, _lookup(index, entry["to"], kind, "state"))
            )
        return TwoCounterMachine(
            states=tuple(states),
            transitions=tuple(transitions),
            source=_lookup(index, doc["source"], kind, "state"),
            target=_lookup(index, doc["target"], kind, "state"),
        )
    raise InputError(f"unknown document type {kind!r}")


# ---------------------------------------------------------------------------
# Canonical form


def canonical_document(doc: dict) -> dict:
    """The document with every transition and edge list stably sorted by the
    module docstring's key, recursively through guards; states, symbols and
    2cm actions rank by position in its ``states`` and ``alphabet`` (or
    ``ACTIONS``)."""
    state = {name: i for i, name in enumerate(doc["states"])}
    rank = {name: i for i, name in enumerate(doc.get("alphabet", ACTIONS))}

    def key(entry: dict) -> tuple:
        # "eps" is in no alphabet and a countdown edge has no label: both rank -1.
        label = rank.get(entry.get("label", entry.get("action")), -1)
        return (state[entry["from"]], label, entry.get("weight", 0), state[entry["to"]], entry.get("update", ()))

    out = dict(doc)
    for field in ("transitions", "edges"):
        if field in doc:
            out[field] = sorted(doc[field], key=key)
    if "guards" in doc:
        out["guards"] = {name: canonical_document(guard) for name, guard in doc["guards"].items()}
    return out


def canonicalize(model: Model) -> Model:
    """The model rebuilt from its canonical document."""
    return from_document(canonical_document(to_document(model)))


def dumps(doc: dict) -> str:
    """Deterministic pretty form used by fmt and for files on disk."""
    return json.dumps(doc, indent=2) + "\n"


def dumps_line(doc: dict) -> str:
    """Single-line form used for CLI verdicts."""
    return json.dumps(doc, separators=(", ", ": "))


def load_path(path: str) -> Model:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return from_document(json.load(handle))
    except FileNotFoundError:
        raise InputError(f"no such file: {path}") from None
    except json.JSONDecodeError as err:
        raise InputError(f"{path} is not valid JSON: {err}") from None
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to parse") from None


def save_path(path: str, model: Model) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(to_document(model)))
