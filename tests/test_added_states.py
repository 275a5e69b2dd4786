"""Names of the states a construction adds.

Every construction names an added state by a fixed base name with ``_``
prefixed until no state of the result has it. Each test below gives the
construction a model that already uses the base name and pins the names it
produces.
"""

from hcs.automata import FiniteAutomaton, complete
from hcs.core import Hcs, build_intersection_dfa
from hcs.games import (
    CountdownGame,
    HcsGame,
    Objective,
    countdown_to_hcs_game,
    game_non_blocking,
    normalize_countdown,
)
from hcs.models import AB
from hcs.vass import COVER, Vass
from hcs.vassguards import TwoCounterMachine, complete_vass, delimited_star_hcs, two_cm_to_hcs


def test_complete_sink():
    partial = FiniteAutomaton(AB, ("sink", "_sink"), 0, frozenset({0}), ((0, 0, 1),))
    assert complete(partial).states == ("sink", "_sink", "__sink")


def test_complete_vass_sink():
    partial = Vass(AB, 1, ("vsink",), 0, frozenset({0}), ((0, 0, (1,), 0),), COVER)
    assert complete_vass(partial).states == ("vsink", "_vsink")


def test_game_non_blocking_sinks():
    underlying = FiniteAutomaton(
        AB, ("sink_lose", "sink_win", "_sink_win"), 0, frozenset(), ((0, 0, 1), (1, 0, 2), (2, 0, 0))
    )
    loop = FiniteAutomaton(AB, ("p",), 0, frozenset({0}), ((0, 0, 0),))
    game = HcsGame(
        Hcs(AB, underlying, {"G": loop}, {0: "G", 1: "G"}), (0, 1, 0), Objective("reach", frozenset({2}))
    )
    escaped = game_non_blocking(game)
    states = escaped.hcs.underlying.states
    assert states == ("sink_lose", "sink_win", "_sink_win", "_sink_lose", "__sink_win")
    assert escaped.owner == (0, 1, 0, 0, 1)
    assert escaped.objective == Objective("reach", frozenset({2, 4}))


def test_normalize_countdown_chain_and_pad():
    game = CountdownGame(("a", "chain3", "pad_start"), 0, 3, ((0, 3, 1),))
    normal = normalize_countdown(game)
    assert normal.states == ("a", "chain3", "pad_start", "_chain3", "_pad_start")
    assert normal.edges == ((0, 2, 3), (3, 1, 1), (4, 1, 0))
    assert (normal.initial, normal.target) == (4, 4)


def test_countdown_reduction_names():
    # The reduction's names carry distinct prefixes, so even states named
    # like its own never collide; the names are pinned all the same.
    game = CountdownGame(("x", "s_x", "goal", "fin_0"), 0, 2, ((0, 1, 1), (1, 2, 0)))
    assert countdown_to_hcs_game(game).hcs.underlying.states == (
        "s_x", "s_s_x", "s_goal", "s_fin_0", "dp_x_1", "ch_x_1_0",
        "dp_s_x_2", "ch_s_x_2_0", "fin_0", "fin_1", "goal", "sink_lose",
    )


def test_two_counter_translation_tail():
    machine = TwoCounterMachine(("r", "_r", "s"), ((0, "inc1", 1),), 0, 2)
    assert two_cm_to_hcs(machine).underlying.states == ("r", "_r", "s", "__r", "_s")


def test_delimited_star_entry():
    vass = Vass(AB, 1, ("p0", "_p0", "q"), 0, frozenset({2}), ((0, 0, (1,), 2),), COVER)
    assert delimited_star_hcs(vass).guards["block"].states == ("p0", "_p0", "__p0", "q")


def test_intersection_dfa_tails():
    regular = FiniteAutomaton(AB, ("p", "tail1"), 0, frozenset({0, 1}), ((0, 0, 1),))
    vass = Vass(AB, 1, ("tail1", "tail2"), 0, frozenset({0}), ((0, 0, (1,), 1),), COVER)
    hcs = build_intersection_dfa([regular, regular, vass])
    dollar = hcs.alphabet.index("$")
    g2, g3 = hcs.guards["g2"], hcs.guards["g3"]
    assert g2.states == ("p", "tail1", "_tail1")
    assert g2.accepting == frozenset({2})
    assert g2.transitions == ((0, 0, 1), (0, dollar, 2), (1, dollar, 2))
    assert g3.states == ("tail1", "tail2", "_tail1", "_tail2")
    assert g3.accepting == frozenset({3})
    assert g3.transitions == ((0, 0, (1,), 1), (0, dollar, (0,), 2), (2, dollar, (0,), 3))
