"""Hand-checked cases for the benchmark's reference computations, plus the
quick mode end to end.

Run from the repository root: ``python3 -m pytest verdictbench -q``.
"""

from __future__ import annotations

import json

import reference as ref
from corpus import MODELS


def _model(name: str) -> dict:
    with open(MODELS / f"{name}.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_countdown_fixpoint_hand_cases():
    # Target 3 with only weight 2 on a loop: 3 -> 1, and 1 is stuck.
    assert ref.countdown_winner(_model("countdown_loop2_target3")) == 1
    # Target 4 with the same loop: 4 -> 2 -> 0.
    assert ref.countdown_winner(_model("countdown_loop2_target4")) == 0
    # Player 1 picks the successor: one of them has no moves, so Player 0 loses.
    doc = {
        "type": "countdown",
        "states": ["A", "B", "C"],
        "initial": "A",
        "target": 2,
        "edges": [
            {"from": "A", "weight": 1, "to": "B"},
            {"from": "A", "weight": 1, "to": "C"},
            {"from": "B", "weight": 1, "to": "B"},
        ],
    }
    assert ref.countdown_winner(doc) == 1
    doc["edges"].append({"from": "C", "weight": 1, "to": "C"})
    assert ref.countdown_winner(doc) == 0


def test_hcs_stepper_hand_cases():
    branching = ref.DocStepper(_model("branching_nonempty"))
    # b, a, a to p3; b is guarded by len_mod_3 on "baa"; a by contains_aa on "baab".
    assert branching.member(list("baaba"))
    # The guard len_mod_3 sees "ba", of length 2, so b is blocked.
    assert not branching.member(list("bab"))
    assert not branching.member(list("ab"))
    four_eyes = ref.DocStepper(_model("four_eyes"))
    assert four_eyes.member(["SubmitA", "Approve1", "Approve2", "CompleteA"])
    assert not four_eyes.member(["SubmitA", "Approve1", "CompleteA"])
    assert not four_eyes.member(["SubmitB", "Approve2", "Approve1", "CompleteA"])
    lights = ref.DocStepper(_model("traffic_lights"))
    assert lights.member(["t1_green", "t1_orange", "t1_red", "t2_green"])
    # Light 2 may not turn green while light 1 is green.
    assert not lights.member(["t1_green", "t2_green"])


def test_delimited_star_predicate():
    assert ref.delimited_block_word(list("$aab$"))
    assert ref.delimited_block_word(list("$"))
    assert ref.delimited_block_word(list("$$ab$"))
    assert not ref.delimited_block_word(list("$abb$"))
    assert not ref.delimited_block_word(list("$ba$"))
    assert not ref.delimited_block_word(list("$aab"))


def test_gadget_formula_and_predicate():
    # prime_family(3) intersects cycles of 2, 3 and 5: 30 + 3 + 1 states.
    assert ref.minimal_states_formula([2, 3, 5]) == 34
    assert ref.minimal_states_formula([4, 6]) == 12 + 2 + 1
    assert ref.gadget_accepts(["a"] * 30 + ["$"] * 3, [2, 3, 5])
    assert ref.gadget_accepts(["$"] * 3, [2, 3, 5])
    assert not ref.gadget_accepts(["a"] * 15 + ["$"] * 3, [2, 3, 5])
    assert not ref.gadget_accepts(["a"] * 30 + ["$"] * 2, [2, 3, 5])
    # A two-state DFA for even-length words over {a}.
    delta = {(0, 0): 1, (1, 0): 0}
    assert ref.dfa_accepts(0, {0}, delta, [0, 0])
    assert not ref.dfa_accepts(0, {0}, delta, [0])


def test_vass_replay_and_bounded_search():
    # (src, label, update, dst): pump counter 0 in state 0, move it to 1.
    transitions = [(0, 0, (1, 0), 0), (0, 1, (-1, 1), 1)]
    assert ref.replay_firing(transitions, 0, (0, 0), [0, 0, 1]) == (1, (1, 1))
    assert ref.replay_firing(transitions, 0, (0, 0), [1]) is None  # counter 0 would go negative
    assert ref.replay_firing(transitions, 0, (0, 0), [0, 1, 1]) is None  # state 1 has no move
    assert ref.covers((1, (1, 1)), 1, (0, 1))
    assert ref.bounded_cover_search(transitions, 0, (0, 0), 1, (2, 1), 4)
    assert not ref.bounded_cover_search(transitions, 0, (0, 0), 1, (0, 2), 4)


def _guarded(guard_transitions) -> dict:
    """u0 -a-> u1 guarded by G, u0 -b-> u0 free; G has one state g."""
    return {
        "type": "hcs",
        "alphabet": ["a", "b"],
        "states": ["u0", "u1"],
        "initial": "u0",
        "accepting": ["u1"],
        "transitions": [
            {"from": "u0", "label": "a", "to": "u1", "guard": "G"},
            {"from": "u0", "label": "b", "to": "u0"},
        ],
        "guards": {
            "G": {
                "type": "vass",
                "alphabet": ["a", "b"],
                "dim": 1,
                "mode": "cover",
                "states": ["g"],
                "initial": "g",
                "accepting": ["g"],
                "transitions": guard_transitions,
            }
        },
    }


def test_cover_guard_stepper_and_search():
    dies_on_b = _guarded(
        [
            {"from": "g", "label": "a", "update": [1], "to": "g"},
            {"from": "g", "label": "b", "update": [-1], "to": "g"},
        ]
    )
    stepper = ref.CoverGuardStepper(dies_on_b)
    assert stepper.member(["a"])
    # b drives the counter to -1: the guard is dead and a stays blocked.
    assert not stepper.member(["b", "a"])
    assert ref.bounded_nonempty_search(stepper, 4) == ["a"]
    # A guard with no a move dies on reading a, but the a move is asked
    # about the history before it, where the guard is still alive.
    only_b = ref.CoverGuardStepper(_guarded([{"from": "g", "label": "b", "update": [0], "to": "g"}]))
    assert only_b.member(["b", "b", "a"])
    never = _guarded([])
    never["guards"]["G"]["accepting"] = []
    assert ref.bounded_nonempty_search(ref.CoverGuardStepper(never), 8) is None


def test_quick_mode_passes():
    import run

    assert run.main(["--quick"]) == 0
