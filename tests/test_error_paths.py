"""Pinned texts of the error and verdict branches that the other tests do
not reach: every CLI refusal and rare verdict, and every constructor and
argument check of the library, each with its exact exit code or exception
class and message."""

import json
import os

import pytest

from hcs import cli, formats
from hcs.automata import Alphabet, FiniteAutomaton
from hcs.bench import SuccinctnessReport, prime_family, verify_succinctness
from hcs.core import Hcs, guard_kind, hcs_size
from hcs.errors import ContractError, InputError, UnsupportedGuardError
from hcs.games import CountdownGame, HcsGame, Objective
from hcs.models import AB, count_balanced_vass
from hcs.vass import REACH, CoverabilityInstance, Vass, decide_coverability, replay_transitions
from hcs.vassguards import TwoCounterMachine, hcs_cover_empty, two_cm_to_hcs

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")

NFA = FiniteAutomaton(AB, ("p", "q"), 0, frozenset({1}), ((0, 0, 0), (0, 0, 1), (1, None, 0)))
COUNTER = Vass(AB, 1, ("p",), 0, frozenset({0}), ((0, 0, (1,), 0), (0, 1, (-1,), 0)))
REGULAR_GUARD = FiniteAutomaton(AB, ("g",), 0, frozenset({0}), ((0, 0, 0), (0, 1, 0)))
LOOP = FiniteAutomaton(AB, ("s",), 0, frozenset({0}), ((0, 0, 0), (0, 1, 0)))


def _built_documents():
    """Documents the shipped models do not cover, by name."""
    mixed = Hcs(AB, LOOP, {"c": COUNTER, "r": REGULAR_GUARD}, {0: "c", 1: "r"})
    with open(os.path.join(MODELS, "two_counter_small.json"), encoding="utf-8") as handle:
        machine = formats.from_document(json.load(handle))
    return {
        "nfa": NFA,
        "reach_vass": Vass(AB, 1, ("p",), 0, frozenset({0}), ((0, 0, (1,), 0),), REACH),
        "vass_ab": Vass(AB, 1, ("p", "q"), 0, frozenset({1}), ((0, 0, (1,), 0), (0, 1, (-1,), 1))),
        "mixed": mixed,
        "reach_guards": two_cm_to_hcs(machine),
    }


REFUSALS = [
    (["member", "--word", "a"], "game_reachability", "member expects an automaton, HCS, or VASS document"),
    (["empty"], "game_reachability", "empty expects an automaton, HCS, or VASS document"),
    (["determinize", "--out", os.devnull], "game_reachability", "determinize expects an automaton or HCS document"),
    (["minimize", "--out", os.devnull], "four_eyes", "minimize expects an automaton document"),
    (["equiv", "--b", os.path.join(MODELS, "four_eyes.json")], "four_eyes", "equiv expects two automaton documents"),
    (["game", "solve"], "four_eyes", "game solve expects a game document"),
    (["countdown", "solve"], "four_eyes", "countdown solve expects a countdown document"),
    (["countdown", "to-hcs", "--out", os.devnull], "four_eyes", "countdown to-hcs expects a countdown document"),
    (["mcm", "to-hcs", "--out", os.devnull], "four_eyes", "mcm to-hcs expects a 2cm document"),
    (["vass", "cover", "--target", "p"], "four_eyes", "vass cover expects a vass document"),
]

CLI_CASES = [
    (["member", "--word", "a a"], "nfa", 0, '{"accepted": true}', ""),
    (["member", "--word", "b"], "nfa", 0, '{"accepted": false}', ""),
    (["empty", "--engine", "bounded"], "branching_empty", 2, "", "error: --engine bounded requires --max-len"),
    (["empty", "--engine", "bounded", "--max-len", "3"], "branching_empty", 0,
     '{"empty": null, "unknown_up_to": 3}', ""),
    (["empty", "--engine", "bounded", "--max-len", "4"], "vass_ab", 0, '{"empty": false, "witness": ["a", "b"]}', ""),
    (["empty"], "reach_vass", 2, "",
     "error: emptiness of a reach-mode VASS is undecidable here; use --engine bounded"),
    (["empty"], "mixed", 2, "",
     "error: mixed guard kinds: exact emptiness needs all-VASS or all-regular guards; use --engine bounded"),
    (["empty"], "reach_guards", 2, "",
     "error: reach-mode VASS guards make emptiness undecidable; use --engine bounded"),
    (["determinize", "--out", os.devnull], "nfa", 0, f'{{"written": {json.dumps(os.devnull)}, "states": 3}}', ""),
] + [(argv, model, 2, "", f"error: {message}") for argv, model, message in REFUSALS]


@pytest.mark.parametrize(
    "argv, model, code, out, err", CLI_CASES, ids=[" ".join(case[0][:2]) + f" {case[1]}" for case in CLI_CASES]
)
def test_cli_branch_output(argv, model, code, out, err, tmp_path, capsys):
    built = _built_documents()
    if model in built:
        path = str(tmp_path / f"{model}.json")
        formats.save_path(path, built[model])
    else:
        path = os.path.join(MODELS, f"{model}.json")
    option = "--a" if argv[0] == "equiv" else "--model"
    assert cli.main([*argv, option, path]) == code
    captured = capsys.readouterr()
    assert captured.out == (out + "\n" if out else "")
    assert captured.err == (err + "\n" if err else "")


def _game(owner=(0,), objective=frozenset({0}), guards=None):
    guards = {"g": REGULAR_GUARD} if guards is None else guards
    hcs = Hcs(AB, LOOP, guards, {0: "g"})
    return HcsGame(hcs, owner, Objective("reach", objective))


def _instance(**fields):
    values = dict(vass=COUNTER, source=0, target=0, target_counters=(0,))
    values.update(fields)
    return CoverabilityInstance(**values)


def _report(k, minimal, product, bound):
    return SuccinctnessReport(k, (2,), 4, minimal, product, bound).validate()


LIBRARY_CASES = [
    # games.HcsGame
    (lambda: _game(owner=(0, 1)), InputError, "owner map must cover every underlying state"),
    (lambda: _game(owner=(2,)), InputError, "owners must be 0 or 1"),
    (lambda: _game(objective=frozenset({1})), InputError, "objective state index out of range"),
    (lambda: _game(guards={"g": COUNTER}), UnsupportedGuardError, "games require regular guards; 'g' is vass"),
    # games.CountdownGame
    (lambda: CountdownGame(("A", "A"), 0, 1, ()), InputError, "duplicate state names"),
    (lambda: CountdownGame(("A",), 1, 1, ()), InputError, "initial state index out of range"),
    (lambda: CountdownGame(("A",), 0, -1, ()), InputError, "target must be non-negative"),
    (lambda: CountdownGame(("A",), 0, 1, ((0, 1, 1),)), InputError, "edge state index out of range"),
    (lambda: CountdownGame(("A",), 0, 1, ((0, 0, 0),)), InputError, "edge weights must be positive"),
    # vassguards.TwoCounterMachine
    (lambda: TwoCounterMachine(("p", "p"), (), 0, 0), InputError, "duplicate state names"),
    (lambda: TwoCounterMachine(("p",), (), 0, 1), InputError, "source/target state index out of range"),
    (lambda: TwoCounterMachine(("p",), ((0, "jump", 0),), 0, 0), InputError, "unknown action 'jump'"),
    (lambda: TwoCounterMachine(("p",), ((0, "inc1", 1),), 0, 0), InputError, "transition state index out of range"),
    (
        lambda: TwoCounterMachine(("p", "q"), ((0, "inc1", 0), (0, "inc1", 1)), 0, 0),
        InputError,
        "action determinacy violated: two 'inc1' transitions from 'p'",
    ),
    # vass.CoverabilityInstance, replay and engine names
    (
        lambda: _instance(vass=Vass(AB, 1, ("p",), 0, frozenset(), (), REACH)),
        ContractError,
        "coverability is defined for cover-mode VASS",
    ),
    (lambda: _instance(target=1), InputError, "source 0 and target 1 must be state indices below 1"),
    (lambda: _instance(target_counters=(0, 0)), InputError, "counter vectors must match the VASS dimension"),
    (lambda: _instance(source_counters=(-1,)), InputError, "counter vectors must be non-negative"),
    (
        lambda: replay_transitions(count_balanced_vass(), (1, (0,)), [0]),
        InputError,
        "transition 0 does not start in state draining",
    ),
    (
        lambda: replay_transitions(COUNTER, (0, (0,)), [1]),
        InputError,
        "transition 1 would drive a counter negative at (0,)",
    ),
    (lambda: decide_coverability(_instance(), "dfs"), InputError, "unknown coverability engine 'dfs'"),
    (
        lambda: hcs_cover_empty(Hcs(AB, LOOP, {"c": COUNTER}, {0: "c"}), "dfs"),
        InputError,
        "unknown emptiness engine 'dfs'",
    ),
    # core.Hcs and guard kinds
    (lambda: guard_kind(object()), InputError, "unsupported guard object object"),
    (lambda: Hcs(AB, LOOP, {}, {2: "g"}), InputError, "guarded transition index 2 out of range"),
    (lambda: Hcs(AB, LOOP, {}, {0: "g"}), InputError, "guard 'g' is not in the guard table"),
    (
        lambda: Hcs(AB, LOOP, {"g": FiniteAutomaton(Alphabet(("a",)), ("g",), 0, frozenset(), ())}, {}),
        InputError,
        "guard 'g' alphabet ['a'] differs from the HCS alphabet",
    ),
    # names
    (lambda: Alphabet(("a", "")), InputError, "alphabet symbols must be non-empty strings"),
    (lambda: NFA.state_index("r"), InputError, "unknown state 'r'"),
    (lambda: COUNTER.state_index("r"), InputError, "unknown state 'r'"),
    # bench
    (lambda: prime_family(0), InputError, "the prime family is defined for k >= 1"),
    (lambda: verify_succinctness(7), ContractError, "k = 7 exceeds the cap 6; the oracle is exponential in k"),
    (lambda: _report(2, 5, 6, 4), ContractError, "minimal DFA has 5 states, below the prime product 6"),
    (lambda: _report(1, 3, 3, 2), ContractError, "at k = 1 the prime product must equal 2"),
    (lambda: _report(2, 4, 4, 4), ContractError, "prime product 4 does not exceed 2^k = 4"),
]


@pytest.mark.parametrize("make, error, message", LIBRARY_CASES, ids=[case[2] for case in LIBRARY_CASES])
def test_library_check_message(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_invalid_json_names_its_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(InputError) as info:
        formats.load_path(str(path))
    expected = f"{path} is not valid JSON: Expecting property name enclosed in double quotes: "
    assert str(info.value) == expected + "line 1 column 2 (char 1)"


def test_hcs_size_counts_vass_and_nested_guards():
    # The underlying loop and the regular guard have 1 state and 2 moves
    # each; the counter's unary size is 1 state plus 1 per move.
    nested = Hcs(AB, LOOP, {"r": REGULAR_GUARD}, {0: "r"})
    assert hcs_size(Hcs(AB, LOOP, {"c": COUNTER, "n": nested}, {})) == 3 + 3 + (3 + 3)
