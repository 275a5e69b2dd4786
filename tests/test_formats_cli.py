import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hcs import cli, formats
from hcs.automata import Alphabet, FiniteAutomaton, minimize
from hcs.bench import verify_succinctness
from hcs.core import Hcs, member
from hcs.errors import HcsError, InputError
from hcs.games import solve_countdown, solve_hcs_game
from hcs.models import AB, branching_nonempty_hcs
from hcs.vass import REACH, Vass

from test_automata import random_dfa, random_nfa
from test_vass import random_cover_vass, random_guarded_hcs

MODELS = os.path.join(os.path.dirname(__file__), os.pardir, "models")
MODEL_FILES = sorted(f for f in os.listdir(MODELS) if f.endswith(".json"))


def model_path(name):
    return os.path.join(MODELS, name)


def run_cli(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out.startswith("{") else out


class TestDocuments:
    @pytest.mark.parametrize("name", MODEL_FILES)
    def test_round_trip_identity(self, name):
        model = formats.load_path(model_path(name))
        assert formats.from_document(formats.to_document(model)) == model
        # Byte for byte: key order and the place of "update" count too.
        assert formats.dumps(formats.to_document(model)) == Path(model_path(name)).read_text(encoding="utf-8")

    def test_random_models_round_trip(self):
        rng = random.Random(2101)
        models = []
        for _ in range(40):
            models.append(random_nfa(rng, rng.randint(1, 5), rng.randint(1, 3), eps=rng.random() < 0.5))
            models.append(random_dfa(rng, rng.randint(1, 5), rng.randint(1, 3)))
            models.append(random_cover_vass(rng, n_states=rng.randint(1, 4), dim=rng.randint(1, 3)))
            models.append(random_guarded_hcs(rng))
        for model in models:
            doc = formats.to_document(model)
            assert formats.from_document(doc) == model
            canonical = formats.canonical_document(doc)
            assert formats.canonical_document(canonical) == canonical
            assert formats.dumps(formats.to_document(formats.from_document(canonical))) == formats.dumps(canonical)

    @pytest.mark.parametrize("name", MODEL_FILES)
    def test_fmt_idempotent(self, name, tmp_path, capsys):
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert cli.main(["fmt", "--model", model_path(name), "--out", str(first)]) == 0
        assert cli.main(["fmt", "--model", str(first), "--out", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_fmt_canonicalizes_reordered_transitions(self, tmp_path, capsys):
        doc = formats.to_document(branching_nonempty_hcs())
        shuffled = dict(doc)
        shuffled["transitions"] = list(reversed(doc["transitions"]))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(doc))
        b.write_text(json.dumps(shuffled))
        fa, fb = tmp_path / "fa.json", tmp_path / "fb.json"
        cli.main(["fmt", "--model", str(a), "--out", str(fa)])
        cli.main(["fmt", "--model", str(b), "--out", str(fb)])
        capsys.readouterr()
        assert fa.read_bytes() == fb.read_bytes()

    @pytest.mark.parametrize("name", MODEL_FILES)
    def test_fmt_canonicalizes_shuffled_model_file(self, name, tmp_path, capsys):
        # Every transition and edge list shuffled, inside guards too.
        def shuffled(doc, rng):
            doc = dict(doc)
            for field in ("transitions", "edges"):
                if field in doc:
                    doc[field] = rng.sample(doc[field], len(doc[field]))
            if "guards" in doc:
                doc["guards"] = {g: shuffled(guard, rng) for g, guard in doc["guards"].items()}
            return doc

        doc = json.loads(Path(model_path(name)).read_text())
        assert cli.main(["fmt", "--model", model_path(name)]) == 0
        expected = capsys.readouterr().out
        rng = random.Random(name)
        for i in range(5):
            path = tmp_path / f"{i}.json"
            path.write_text(json.dumps(shuffled(doc, rng)))
            assert cli.main(["fmt", "--model", str(path)]) == 0
            assert capsys.readouterr().out == expected

    def test_fmt_to_stdout(self, capsys):
        assert cli.main(["fmt", "--model", model_path("branching_empty.json")]) == 0
        out = capsys.readouterr().out
        parsed = formats.from_document(json.loads(out))
        from hcs.models import branching_empty_hcs

        assert parsed == formats.canonicalize(branching_empty_hcs())

    def test_unknown_fields_rejected(self):
        doc = formats.to_document(branching_nonempty_hcs())
        doc["surprise"] = 1
        with pytest.raises(InputError, match="surprise"):
            formats.from_document(doc)

    def test_unknown_type_rejected(self):
        with pytest.raises(InputError):
            formats.from_document({"type": "petri"})

    def test_dfa_document_must_be_deterministic(self):
        doc = {
            "type": "dfa",
            "alphabet": ["a"],
            "states": ["q"],
            "initial": "q",
            "accepting": [],
            "transitions": [
                {"from": "q", "label": "eps", "to": "q"},
            ],
        }
        with pytest.raises(InputError, match="deterministic"):
            formats.from_document(doc)

    def test_committed_documents_match_builders(self):
        from hcs import models
        from hcs.bench import cycle_dfa
        from hcs.core import build_intersection_dfa

        builders = {
            "branching_empty.json": models.branching_empty_hcs,
            "branching_nonempty.json": models.branching_nonempty_hcs,
            "count_balanced_vass.json": models.count_balanced_vass,
            "four_eyes.json": models.four_eyes_hcs,
            "traffic_lights.json": models.traffic_lights_hcs,
            "two_counter_six_state.json": models.six_state_two_counter_machine,
            "intersection_c2_c3.json": lambda: build_intersection_dfa([cycle_dfa(2), cycle_dfa(3)]),
        }
        for name, build in builders.items():
            document = formats.to_document(build())
            with open(model_path(name)) as handle:
                text = handle.read()
            assert json.loads(text) == document, name
            assert text == formats.dumps(document), name


class TestCliVerdictsMatchLibrary:
    def test_member(self, capsys):
        code, verdict = run_cli(
            capsys,
            ["member", "--model", model_path("branching_nonempty.json"), "--word", "b a a b a"],
        )
        assert code == 0
        assert verdict == {"accepted": member(branching_nonempty_hcs(), list("baaba"))}

    def test_member_word_chars(self, capsys):
        code, verdict = run_cli(
            capsys,
            ["member", "--model", model_path("branching_nonempty.json"), "--word-chars", "baaba"],
        )
        assert code == 0 and verdict == {"accepted": True}

    def test_word_chars_needs_single_character_symbols(self, capsys):
        code = cli.main(
            ["member", "--model", model_path("four_eyes.json"), "--word-chars", "ab"]
        )
        capsys.readouterr()
        assert code == 2

    def test_word_and_word_chars_conflict(self, capsys):
        code = cli.main(
            [
                "member",
                "--model",
                model_path("branching_nonempty.json"),
                "--word",
                "a",
                "--word-chars",
                "a",
            ]
        )
        capsys.readouterr()
        assert code == 2

    def test_empty_on_both_engines(self, capsys):
        for engine, name, expected in [
            ("onthefly", "branching_empty.json", True),
            ("product", "branching_empty.json", True),
            ("onthefly", "branching_nonempty.json", False),
        ]:
            code, verdict = run_cli(
                capsys, ["empty", "--model", model_path(name), "--engine", engine]
            )
            assert code == 0 and verdict == {"empty": expected}

    def test_empty_bounded(self, capsys):
        code, verdict = run_cli(
            capsys,
            [
                "empty",
                "--model",
                model_path("two_counter_small.json"),
                "--engine",
                "bounded",
                "--max-len",
                "4",
            ],
        )
        # a 2cm document is not an HCS; translate first
        assert code == 2 or verdict.get("empty") in (False, None)

    def test_mcm_then_bounded_empty(self, tmp_path, capsys):
        out = tmp_path / "translated.json"
        code, verdict = run_cli(
            capsys,
            ["mcm", "to-hcs", "--model", model_path("two_counter_small.json"), "--out", str(out)],
        )
        assert code == 0 and verdict["states"] == 4
        code, verdict = run_cli(
            capsys, ["empty", "--model", str(out), "--engine", "bounded", "--max-len", "4"]
        )
        assert code == 0
        assert verdict == {"empty": False, "witness": ["zero1", "zero2"]}

    def test_determinize_minimize_equiv(self, tmp_path, capsys):
        det = tmp_path / "det.json"
        code, verdict = run_cli(
            capsys,
            ["determinize", "--model", model_path("branching_nonempty.json"), "--out", str(det)],
        )
        assert code == 0
        produced = formats.load_path(str(det))
        assert verdict["states"] == len(produced.states)
        small = tmp_path / "min.json"
        code, verdict = run_cli(capsys, ["minimize", "--model", str(det), "--out", str(small)])
        assert code == 0
        assert formats.load_path(str(small)) == minimize(produced)
        code, verdict = run_cli(capsys, ["equiv", "--a", str(det), "--b", str(small)])
        assert code == 0 and verdict == {"equivalent": True}

    def test_game_solve(self, capsys):
        code, verdict = run_cli(
            capsys, ["game", "solve", "--model", model_path("game_reachability.json")]
        )
        assert code == 0
        solution = solve_hcs_game(formats.load_path(model_path("game_reachability.json")))
        assert verdict["winner"] == solution.winner_from_initial
        assert verdict["region0_size"] == len(solution.winning_region_0)
        assert verdict["arena"]["vertices"] == len(solution.arena.vertices)
        assert len(verdict["strategy0"]) == len(solution.strategy_0)

    def test_game_solve_safety_objective(self, tmp_path, capsys):
        from hcs.games import HcsGame, Objective

        game = HcsGame(
            branching_nonempty_hcs(), (0, 1, 0, 1, 0), Objective("safe", frozenset({3}))
        )
        path = tmp_path / "safe.json"
        formats.save_path(str(path), game)
        code, verdict = run_cli(capsys, ["game", "solve", "--model", str(path)])
        assert code == 0
        assert verdict["winner"] == solve_hcs_game(game).winner_from_initial

    def test_countdown_solve_and_reduce(self, tmp_path, capsys):
        for name, expected in [
            ("countdown_loop2_target4.json", 0),
            ("countdown_loop2_target3.json", 1),
        ]:
            code, verdict = run_cli(capsys, ["countdown", "solve", "--model", model_path(name)])
            assert code == 0
            assert verdict == {"winner": expected}
            assert expected == solve_countdown(formats.load_path(model_path(name)))
        out = tmp_path / "reduced.json"
        code, verdict = run_cli(
            capsys,
            [
                "countdown",
                "to-hcs",
                "--model",
                model_path("countdown_loop2_target4.json"),
                "--out",
                str(out),
            ],
        )
        assert code == 0 and verdict["guards"] == 3
        code, verdict = run_cli(capsys, ["game", "solve", "--model", str(out)])
        assert code == 0 and verdict["winner"] == 0
        # target 3 needs normalization first
        code, _ = run_cli(
            capsys,
            [
                "countdown",
                "to-hcs",
                "--model",
                model_path("countdown_loop2_target3.json"),
                "--out",
                str(out),
            ],
        )
        assert code == 2
        code, verdict = run_cli(
            capsys,
            [
                "countdown",
                "to-hcs",
                "--model",
                model_path("countdown_loop2_target3.json"),
                "--out",
                str(out),
                "--normalize",
            ],
        )
        assert code == 0
        code, verdict = run_cli(capsys, ["game", "solve", "--model", str(out)])
        assert code == 0 and verdict["winner"] == 1

    def test_vass_cover(self, capsys):
        argv = ["vass", "cover", "--model", model_path("count_balanced_vass.json"), "--target", "draining"]
        # The whole stdout, witness and node count included; km is the default.
        cases = (([], "km", 3), (["--engine", "km"], "km", 3), (["--engine", "backward"], "backward", 2))
        for options, engine, nodes in cases:
            assert run_cli(capsys, [*argv, *options]) == (
                0,
                {"coverable": True, "witness": ["eps"], "engine": engine, "nodes_explored": nodes},
            )

    def test_vass_member_and_empty(self, capsys):
        code, verdict = run_cli(
            capsys,
            ["member", "--model", model_path("count_balanced_vass.json"), "--word", "a a b"],
        )
        assert code == 0 and verdict == {"accepted": True}
        code, verdict = run_cli(
            capsys, ["empty", "--model", model_path("count_balanced_vass.json")]
        )
        assert code == 0 and verdict == {"empty": False}

    def test_vass_empty_builds_one_karp_miller_tree(self, tmp_path, capsys, monkeypatch):
        # 8 states; p4-p7 accept, but no transition enters them.
        moves = ((0, 0, (1, 0), 1), (1, 0, (0, 1), 2), (2, 1, (-1, 0), 3), (3, 1, (0, -1), 0), (0, 1, (0, 0), 2))
        moves += ((1, 1, (0, 0), 3),)
        states = tuple(f"p{i}" for i in range(8))
        path = tmp_path / "unreachable.json"
        formats.save_path(str(path), Vass(AB, 2, states, 0, frozenset({4, 5, 6, 7}), moves, "cover"))
        trees = []
        karp_miller = cli.karp_miller

        def spy(*args):
            nodes, hit = karp_miller(*args)
            trees.append((len(nodes), hit))
            return nodes, hit

        monkeypatch.setattr(cli, "karp_miller", spy)
        assert cli.main(["empty", "--model", str(path)]) == 0
        assert capsys.readouterr().out == '{"empty": true}\n'
        assert trees == [(6, None)]

    def test_delimited_star_document(self, capsys):
        code, verdict = run_cli(
            capsys, ["member", "--model", model_path("delimited_star.json"), "--word", "$ a b $"]
        )
        assert code == 0 and verdict == {"accepted": True}
        code, verdict = run_cli(capsys, ["empty", "--model", model_path("delimited_star.json")])
        assert code == 0 and verdict == {"empty": False}

    def test_bench_primes(self, capsys):
        code, verdict = run_cli(capsys, ["bench", "primes", "--k", "3"])
        assert code == 0
        report = verify_succinctness(3)
        assert verdict["minimal_dfa_states"] == report.minimal_dfa_states == 34
        code2 = cli.main(["bench", "primes", "--k", "2", "--table"])
        table = capsys.readouterr().out
        assert code2 == 0 and "min_dfa_states" in table


#: A valid document of every type; each ``READER_ERRORS`` case breaks one
#: field of one of them.
_CONTROL = {"alphabet": ["a", "b"], "states": ["p", "q"], "initial": "p", "accepting": ["q"]}
_DFA = {"type": "dfa", **_CONTROL, "transitions": [{"from": "p", "label": "a", "to": "q"}]}
_GUARDED = {
    **_CONTROL,
    "transitions": [{"from": "p", "label": "a", "to": "q", "guard": "g"}, {"from": "q", "label": "eps", "to": "p"}],
    "guards": {"g": _DFA},
}
READER_BASES = {
    "nfa": {"type": "nfa", **_CONTROL,
            "transitions": [{"from": "q", "label": "eps", "to": "p"}, {"from": "p", "label": "a", "to": "q"}]},
    "dfa": _DFA,
    "hcs": {"type": "hcs", **_GUARDED},
    "game": {"type": "game", **_GUARDED, "owner": {"p": 0, "q": 1}, "objective": {"kind": "reach", "states": ["q"]}},
    "vass": {"type": "vass", "alphabet": ["a"], "dim": 1, "mode": "cover", "states": ["p"], "initial": "p",
             "accepting": ["p"], "transitions": [{"from": "p", "label": "a", "update": [1], "to": "p"}]},
    "countdown": {"type": "countdown", "states": ["A", "B"], "initial": "A", "target": 3,
                  "edges": [{"from": "A", "weight": 1, "to": "B"}]},
    "2cm": {"type": "2cm", "states": ["p", "q"], "transitions": [{"from": "p", "action": "inc1", "to": "q"}],
            "source": "p", "target": "q"},
}
DELETE = "<delete>"

#: (document type, path to the field, its new value or DELETE, the message).
READER_ERRORS = [
    ("nfa", (), [], 'a model document must be an object with a "type" field'),
    ("nfa", ("type",), DELETE, 'a model document must be an object with a "type" field'),
    ("nfa", ("type",), "pda", "unknown document type 'pda'"),
    ("nfa", ("oops",), 1, "nfa: unknown fields ['oops']"),
    ("nfa", ("initial",), DELETE, "nfa: missing fields ['initial']"),
    ("nfa", ("alphabet",), ["a", 1], "nfa: alphabet must be a list of strings"),
    ("nfa", ("states",), "p", "nfa: states must be a list of strings"),
    ("nfa", ("accepting",), 5, "nfa: accepting must be a list"),
    ("nfa", ("transitions",), {}, "nfa: transitions must be a list"),
    ("nfa", ("transitions", 1), 5, "nfa: transition 1: expected a JSON object, got int"),
    ("nfa", ("transitions", 0), ["q", "eps", "p"], "nfa: transition 0: expected a JSON object, got list"),
    ("nfa", ("transitions", 1, "to"), DELETE, "nfa: transition 1: missing fields ['to']"),
    ("nfa", ("transitions", 1, "weight"), 1, "nfa: transition 1: unknown fields ['weight']"),
    ("nfa", ("transitions", 1, "guard"), "g", "nfa: transition 1: unknown fields ['guard']"),
    ("nfa", ("transitions", 1, "from"), "r", "nfa: unknown state 'r'"),
    ("nfa", ("transitions", 0, "to"), None, "nfa: unknown state None"),
    ("nfa", ("initial",), {"x": 1}, "nfa: unknown state {'x': 1}"),
    ("nfa", ("accepting",), [["q"]], "nfa: unknown state ['q']"),
    ("nfa", ("transitions", 1, "label"), "c", "nfa: unknown symbol 'c'"),
    ("nfa", ("transitions", 1, "label"), 1, "nfa: unknown symbol 1"),
    ("nfa", ("transitions", 1, "label"), ["a"], "nfa: unknown symbol ['a']"),
    ("dfa", ("transitions", 0, "label"), "eps", 'document of type "dfa" is not deterministic'),
    ("hcs", ("transitions", 0, "guard"), 5, "hcs: transition 0: guard must be a string"),
    ("hcs", ("transitions", 0, "guard"), "h", "guard 'h' is not in the guard table"),
    ("hcs", ("transitions", 1, "label"), DELETE, "hcs: transition 1: missing fields ['label']"),
    ("hcs", ("guards",), [], "hcs: guards must be an object"),
    ("hcs", ("guards", "g"), READER_BASES["countdown"], "hcs: guard 'g' must be an automaton, VASS, or HCS"),
    ("hcs", ("guards", "g", "transitions", 0, "to"), "z", "dfa: unknown state 'z'"),
    ("game", ("owner",), [], "game: owner must be an object"),
    ("game", ("owner", "p"), True, "game: owner of 'p' must be 0 or 1"),
    ("game", ("owner", "q"), 2, "game: owner of 'q' must be 0 or 1"),
    ("game", ("owner", "q"), DELETE, "game: state 'q' has no owner"),
    ("game", ("owner", "zz"), 0, "game: owner map names unknown states ['zz']"),
    ("game", ("objective",), DELETE, "game: missing objective"),
    ("game", ("objective",), 5, "game objective: expected a JSON object, got int"),
    ("game", ("objective", "states"), DELETE, "game objective: missing fields ['states']"),
    ("game", ("objective", "x"), 1, "game objective: unknown fields ['x']"),
    ("game", ("objective", "kind"), "win", "unknown objective kind 'win'"),
    ("game", ("objective", "states"), 5, "game objective: states must be a list"),
    ("game", ("objective", "states"), ["zz"], "game objective: unknown state 'zz'"),
    ("game", ("objective", "states"), [[]], "game objective: unknown state []"),
    ("vass", ("dim",), True, "vass: dim must be an integer"),
    ("vass", ("transitions", 0, "update"), DELETE, "vass: transition 0: missing fields ['update']"),
    ("vass", ("transitions", 0, "update"), 5, "vass: transition 0: update must be a list of integers"),
    ("vass", ("transitions", 0, "update"), [True], "vass: transition 0: update must be a list of integers"),
    ("vass", ("transitions", 0, "label"), "c", "vass: unknown symbol 'c'"),
    ("vass", ("transitions", 0, "guard"), "g", "vass: transition 0: unknown fields ['guard']"),
    ("vass", ("transitions", 0, "from"), ["p"], "vass: unknown state ['p']"),
    ("countdown", ("edges",), 7, "countdown: edges must be a list"),
    ("countdown", ("edges", 0), "e", "countdown edge 0: expected a JSON object, got str"),
    ("countdown", ("edges", 0, "weight"), DELETE, "countdown edge 0: missing fields ['weight']"),
    ("countdown", ("edges", 0, "label"), "a", "countdown edge 0: unknown fields ['label']"),
    ("countdown", ("edges", 0, "weight"), True, "countdown edge 0: weight must be an integer"),
    ("countdown", ("edges", 0, "to"), "Z", "countdown: unknown state 'Z'"),
    ("countdown", ("initial",), ["A"], "countdown: unknown state ['A']"),
    ("countdown", ("target",), True, "countdown: target must be an integer"),
    ("2cm", ("transitions", 0), None, "2cm transition 0: expected a JSON object, got NoneType"),
    ("2cm", ("transitions", 0, "action"), DELETE, "2cm transition 0: missing fields ['action']"),
    ("2cm", ("transitions", 0, "label"), "a", "2cm transition 0: unknown fields ['label']"),
    ("2cm", ("transitions", 0, "action"), "jump", "2cm transition 0: unknown action 'jump'"),
    ("2cm", ("transitions", 0, "action"), ["inc1"], "2cm transition 0: unknown action ['inc1']"),
    ("2cm", ("transitions", 0, "to"), "zz", "2cm: unknown state 'zz'"),
    ("2cm", ("source",), {}, "2cm: unknown state {}"),
]


class TestExitCodes:
    def test_missing_file_is_input_error(self, capsys):
        assert cli.main(["member", "--model", "nope.json", "--word", "a"]) == 2
        capsys.readouterr()

    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"type": "nfa", "alphabet": ["a"], "oops": 1}')
        assert cli.main(["empty", "--model", str(bad)]) == 2
        capsys.readouterr()

    def test_non_object_entry_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = {
            "type": "dfa",
            "alphabet": ["a"],
            "states": ["q"],
            "initial": "q",
            "accepting": [],
            "transitions": [5],
        }
        bad.write_text(json.dumps(doc))
        assert cli.main(["fmt", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "expected a JSON object" in err
        assert "Traceback" not in err

    def test_unknown_state_keeps_its_message(self):
        doc = {"type": "countdown", "states": ["A"], "initial": "B", "target": 1, "edges": []}
        with pytest.raises(InputError, match="countdown: unknown state 'B'"):
            formats.from_document(doc)
        doc = {"type": "vass", "alphabet": ["a"], "dim": 1, "mode": "cover", "states": ["p"],
               "initial": "p", "accepting": [["p"]], "transitions": []}
        with pytest.raises(InputError, match=r"vass: unknown state \['p'\]"):
            formats.from_document(doc)

    @pytest.mark.parametrize("kind, path, value, message", READER_ERRORS, ids=[case[3] for case in READER_ERRORS])
    def test_every_reader_error_keeps_its_message(self, kind, path, value, message, tmp_path, capsys):
        doc = json.loads(json.dumps(READER_BASES[kind]))
        if path:
            node = doc
            for key in path[:-1]:
                node = node[key]
            if value == DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        else:
            doc = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["fmt", "--model", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_resource_cap_is_exit_three(self, capsys):
        assert (
            cli.main(
                [
                    "determinize",
                    "--model",
                    model_path("four_eyes.json"),
                    "--out",
                    os.devnull,
                    "--max-states",
                    "2",
                ]
            )
            == 3
        )
        capsys.readouterr()

    def test_bounded_vass_search_cap_is_exit_three(self, tmp_path, capsys):
        loops = ((0, 0, (1, 0), 0), (0, 1, (0, 1), 0))
        vass = Vass(Alphabet(("a", "b")), 2, ("p", "q"), 0, frozenset({1}), loops, REACH)
        path = tmp_path / "loops.json"
        formats.save_path(str(path), vass)
        argv = ["empty", "--model", str(path), "--engine", "bounded", "--max-len", "60"]
        assert cli.main(argv + ["--max-states", "10"]) == 3
        assert "bounded search exceeded 10 configurations" in capsys.readouterr().err
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.strip() == '{"empty": null, "unknown_up_to": 60}'

    def test_negative_max_len_is_input_error(self, capsys):
        for name in ("branching_nonempty.json", "count_balanced_vass.json"):
            argv = ["empty", "--model", model_path(name), "--engine", "bounded", "--max-len", "-3"]
            assert cli.main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "the word-length bound must be non-negative, got -3" in captured.err

    def test_negative_max_len_is_checked_before_the_start_closure(self, tmp_path, capsys):
        # A reach-mode epsilon +1 loop has an infinite closure: the bad bound
        # must be reported before the closure can hit the cap.
        pump = Vass(Alphabet(("a",)), 1, ("p",), 0, frozenset({0}), ((0, None, (1,), 0),), REACH)
        path = tmp_path / "pump.json"
        formats.save_path(str(path), pump)
        argv = ["empty", "--model", str(path), "--engine", "bounded", "--max-len", "-1", "--max-states", "50"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the word-length bound must be non-negative, got -1" in captured.err

    def test_deep_nesting_is_an_exit_code_not_a_traceback(self, tmp_path, capsys):
        # One state and one a-loop per level, each guarded by the level below.
        doc = {"type": "hcs", "alphabet": ["a"], "states": ["q"], "initial": "q", "accepting": ["q"]}
        level = {**doc, "transitions": [{"from": "q", "label": "a", "to": "q"}]}
        for _ in range(400):
            loop = {"from": "q", "label": "a", "to": "q", "guard": "g"}
            level = {**doc, "transitions": [loop], "guards": {"g": level}}
        nested = tmp_path / "nested.json"
        nested.write_text(json.dumps(level))
        for argv in (["member", "--word", "a"], ["empty"], ["fmt"]):
            assert cli.main([*argv, "--model", str(nested)]) == 3, argv
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("resource limit: ")
        array = tmp_path / "array.json"
        array.write_text("[" * 100_000 + "]" * 100_000)
        assert cli.main(["fmt", "--model", str(array)]) == 2
        assert "nested too deeply to parse" in capsys.readouterr().err

    def test_max_len_needs_the_bounded_engine(self, capsys):
        path = model_path("branching_nonempty.json")
        for engine in (["--engine", "product"], ["--engine", "onthefly"], []):
            assert cli.main(["empty", "--model", path, *engine, "--max-len", "2"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "--max-len applies only to --engine bounded" in captured.err

    def test_empty_options_that_do_not_apply_are_input_errors(self, tmp_path, capsys):
        automaton = tmp_path / "automaton.json"
        formats.save_path(str(automaton), branching_nonempty_hcs().underlying)
        guard = Vass(AB, 1, ("zero", "pos"), 0, frozenset({1}), ((0, 0, (1,), 1), (1, 0, (0,), 1)))
        underlying = FiniteAutomaton(AB, ("wait", "done"), 0, frozenset({1}), ((0, 0, 0), (0, 1, 1)))
        guarded = tmp_path / "guarded.json"
        formats.save_path(str(guarded), Hcs(AB, underlying, {"g": guard}, {1: "g"}))
        vass = model_path("count_balanced_vass.json")
        regular = model_path("branching_empty.json")
        product = ["--engine", "product"]
        non_dying = "--assume-non-dying applies only to --engine product on cover-VASS guards"
        for path, options, message in [
            (automaton, product, "--engine product applies only to HCS documents"),
            (vass, product, "--engine product applies only to HCS documents"),
            (automaton, ["--assume-non-dying"], non_dying),
            (vass, ["--assume-non-dying"], non_dying),
            (regular, [*product, "--assume-non-dying"], non_dying),
            (guarded, ["--assume-non-dying"], non_dying),
            (guarded, ["--engine", "bounded", "--max-len", "2", "--assume-non-dying"], non_dying),
        ]:
            assert cli.main(["empty", "--model", str(path), *options]) == 2, (path, options)
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err
        for path, options, empty in [
            (automaton, [], False),
            (vass, [], False),
            (regular, product, True),
            (guarded, [], False),
            (guarded, [*product, "--assume-non-dying"], False),
        ]:
            assert run_cli(capsys, ["empty", "--model", str(path), *options]) == (0, {"empty": empty})

    def test_countdown_table_cap_is_exit_three(self, tmp_path, capsys):
        doc = json.loads(Path(model_path("countdown_loop2_target3.json")).read_text())
        doc["target"] = 10**11
        path = tmp_path / "huge_target.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["countdown", "solve", "--model", str(path)]) == 3
        small = model_path("countdown_loop2_target3.json")
        assert cli.main(["countdown", "solve", "--model", small, "--max-states", "3"]) == 3
        assert "resource limit" in capsys.readouterr().err

    def test_non_positive_cap_is_usage_error(self, capsys):
        for argv in (
            ["vass", "cover", "--model", model_path("count_balanced_vass.json"), "--target", "draining"],
            ["determinize", "--model", model_path("four_eyes.json"), "--out", os.devnull],
        ):
            for cap in ("-1", "0", "x"):
                with pytest.raises(SystemExit) as exit_info:
                    cli.main(argv + ["--max-states", cap])
                assert exit_info.value.code == 2
                assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc",
        [
            {"type": "dfa", "alphabet": ["a"], "states": ["q"], "initial": "q", "accepting": 5, "transitions": []},
            {"type": "dfa", "alphabet": ["a"], "states": ["q"], "initial": "q", "accepting": "q", "transitions": []},
            {"type": "vass", "alphabet": ["a"], "dim": "x", "mode": "cover", "states": ["p"],
             "initial": "p", "accepting": [], "transitions": []},
            {"type": "countdown", "states": ["A"], "initial": "A", "target": 1, "edges": 7},
            {"type": "vass", "alphabet": ["a"], "dim": 1, "mode": "cover", "states": ["p"], "initial": "p",
             "accepting": [], "transitions": [{"from": "p", "label": "a", "update": [True], "to": "p"}]},
            {"type": "game", "alphabet": ["a"], "states": ["s"], "initial": "s", "accepting": [],
             "transitions": [], "owner": {"s": True}, "objective": {"kind": "reach", "states": ["s"]}},
        ],
    )
    def test_field_of_the_wrong_kind_is_input_error(self, doc, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert cli.main(["fmt", "--model", str(bad)]) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("name", MODEL_FILES)
    def test_every_field_of_every_kind_parses_or_is_rejected(self, name):
        # Each top-level field, each field of the first transition or edge
        # and of a game objective, and the same inside every guard document,
        # replaced by values of every JSON kind: what fmt does either works
        # or raises one of the errors the CLI turns into exit code 2.
        with open(model_path(name), encoding="utf-8") as handle:
            doc = json.load(handle)

        def fields(node, path=()):
            for key, value in node.items():
                yield path + (key,)
                if isinstance(value, list) and value and isinstance(value[0], dict):
                    yield from (path + (key, 0, k) for k in value[0])
                elif key == "objective":
                    yield from (path + (key, k) for k in value)
                elif key == "guards":
                    for guard, guard_doc in value.items():
                        yield from fields(guard_doc, path + (key, guard))

        for path in fields(doc):
            for value in (5, -1, 1.5, True, None, "x", [], [5], [[1]], {}, {"a": 1}):
                mutated = json.loads(json.dumps(doc))
                node = mutated
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                try:
                    formats.to_document(formats.canonicalize(formats.from_document(mutated)))
                except HcsError:
                    pass

    def test_verdict_not_conflated_with_exit_code(self, capsys):
        code, verdict = run_cli(capsys, ["empty", "--model", model_path("branching_empty.json")])
        assert code == 0 and verdict == {"empty": True}

    def test_quiet_suppresses_diagnostics(self, capsys):
        cli.main(["member", "--model", "nope.json", "--word", "a", "--quiet"])
        captured = capsys.readouterr()
        assert captured.err == ""


class TestEntryPoint:
    def test_module_invocation(self):
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "hcs.cli",
                "member",
                "--model",
                model_path("branching_nonempty.json"),
                "--word",
                "b a a b a",
            ],
            capture_output=True,
            text=True,
            cwd=Path(cli.__file__).parents[1],  # run the package under test, PYTHONPATH or not
        )
        assert result.returncode == 0
        assert json.loads(result.stdout) == {"accepted": True}
