"""Command-line surface: one subcommand per library operation.

Verdicts are printed as single-line JSON on stdout; diagnostics go to
stderr. Exit code 0 means a decision was computed (the verdict lives in the
output, not the exit code), 2 means an input or format error, 3 means a
resource cap was exceeded.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import bench, formats
from .automata import DEFAULT_STATE_CAP, FiniteAutomaton, accepts, determinize, equivalent, minimize
from .automata import is_empty as automaton_is_empty
from .core import Hcs, determinize_hcs, guard_kind, member
from .core import is_empty as hcs_is_empty
from .errors import HcsError, InputError, ResourceLimitError
from .games import CountdownGame, HcsGame, countdown_to_hcs_game, normalize_countdown
from .games import solve_countdown, solve_hcs_game
from .vass import COVER, CoverabilityInstance, Vass, bounded_accepted_word, decide_coverability, vass_accepts
from .vassguards import TwoCounterMachine, bounded_reach_empty, hcs_cover_empty, two_cm_to_hcs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_RESOURCE = 3


def _emit(doc: dict) -> None:
    sys.stdout.write(formats.dumps_line(doc) + "\n")


def _diag(args, message: str) -> None:
    if not getattr(args, "quiet", False):
        sys.stderr.write(message + "\n")


def _parse_word(args, model) -> list[str]:
    if args.word is not None and args.word_chars is not None:
        raise InputError("give either --word or --word-chars, not both")
    if args.word is not None:
        return args.word.split()
    if args.word_chars is not None:
        symbols = model.alphabet.symbols
        if any(len(s) != 1 for s in symbols):
            raise InputError("--word-chars requires every alphabet symbol to be one character")
        return list(args.word_chars)
    return []


def _cmd_member(args) -> int:
    model = formats.load_path(args.model)
    word = _parse_word(args, model)
    if isinstance(model, FiniteAutomaton):
        verdict = accepts(model, word)
    elif isinstance(model, Hcs):
        verdict = member(model, word, args.max_states)
    elif isinstance(model, Vass):
        verdict = vass_accepts(model, word, args.max_states)
    else:
        raise InputError("member expects an automaton, HCS, or VASS document")
    _emit({"accepted": verdict})
    return EXIT_OK


def _guard_kinds(hcs: Hcs) -> set[str]:
    return {guard_kind(g) for g in hcs.guards.values()}


def _cmd_empty(args) -> int:
    model = formats.load_path(args.model)
    engine = args.engine
    if engine == "bounded" or args.max_len is not None:
        if args.max_len is None:
            raise InputError("--engine bounded requires --max-len")
        if isinstance(model, Hcs):
            outcome = bounded_reach_empty(model, args.max_len, args.max_states)
            if outcome.nonempty:
                _emit({"empty": False, "witness": list(outcome.witness)})
            else:
                _emit({"empty": None, "unknown_up_to": outcome.max_len})
            return EXIT_OK
        if isinstance(model, Vass):
            witness = bounded_accepted_word(model, args.max_len, args.max_states)
            if witness is None:
                _emit({"empty": None, "unknown_up_to": args.max_len})
            else:
                _emit({"empty": False, "witness": witness})
            return EXIT_OK
        raise InputError("bounded emptiness expects an HCS or VASS document")
    if isinstance(model, FiniteAutomaton):
        _emit({"empty": automaton_is_empty(model)})
        return EXIT_OK
    if isinstance(model, Vass):
        if model.mode != COVER:
            raise InputError(
                "emptiness of a reach-mode VASS is undecidable here; use --engine bounded"
            )
        nonempty = any(
            decide_coverability(
                CoverabilityInstance(model, model.initial, q, (0,) * model.dim),
                "km",
                args.max_states,
            ).coverable
            for q in sorted(model.accepting)
        )
        _emit({"empty": not nonempty})
        return EXIT_OK
    if isinstance(model, Hcs):
        kinds = _guard_kinds(model)
        if "vass" in kinds:
            if kinds != {"vass"}:
                raise InputError(
                    "mixed guard kinds: exact emptiness needs all-VASS or all-regular guards; "
                    "use --engine bounded"
                )
            if any(g.mode != COVER for g in model.guards.values()):
                raise InputError(
                    "reach-mode VASS guards make emptiness undecidable; use --engine bounded"
                )
            verdict = hcs_cover_empty(
                model,
                engine=engine,
                node_cap=args.max_states,
                assume_non_dying=args.assume_non_dying,
            )
            _emit({"empty": verdict})
            return EXIT_OK
        if engine == "product":
            _emit({"empty": automaton_is_empty(determinize_hcs(model, args.max_states))})
        else:
            _emit({"empty": hcs_is_empty(model, args.max_states)})
        return EXIT_OK
    raise InputError("empty expects an automaton, HCS, or VASS document")


def _cmd_determinize(args) -> int:
    model = formats.load_path(args.model)
    if isinstance(model, FiniteAutomaton):
        result = determinize(model, args.max_states)
    elif isinstance(model, Hcs):
        result = determinize_hcs(model, args.max_states)
    else:
        raise InputError("determinize expects an automaton or HCS document")
    formats.save_path(args.out, result)
    _emit({"written": args.out, "states": len(result.states)})
    return EXIT_OK


def _cmd_minimize(args) -> int:
    model = formats.load_path(args.model)
    if not isinstance(model, FiniteAutomaton):
        raise InputError("minimize expects an automaton document")
    result = minimize(model, args.max_states)
    formats.save_path(args.out, result)
    _emit({"written": args.out, "states": len(result.states)})
    return EXIT_OK


def _cmd_equiv(args) -> int:
    a = formats.load_path(args.a)
    b = formats.load_path(args.b)
    if not isinstance(a, FiniteAutomaton) or not isinstance(b, FiniteAutomaton):
        raise InputError("equiv expects two automaton documents")
    _emit({"equivalent": equivalent(a, b, args.max_states)})
    return EXIT_OK


def _cmd_game_solve(args) -> int:
    model = formats.load_path(args.model)
    if not isinstance(model, HcsGame):
        raise InputError("game solve expects a game document")
    solution = solve_hcs_game(model, args.max_states)
    arena = solution.arena
    symbols = model.hcs.alphabet.symbols

    def edge_doc(edge_index: int) -> list:
        src, label, dst = arena.edges[edge_index]
        return [src, "eps" if label is None else symbols[label], dst]

    _emit(
        {
            "winner": solution.winner_from_initial,
            "region0_size": len(solution.winning_region_0),
            "region1_size": len(arena.vertices) - len(solution.winning_region_0),
            "arena": arena.stats(),
            "strategy0": [edge_doc(solution.strategy_0[v]) for v in sorted(solution.strategy_0)],
            "strategy1": [edge_doc(solution.strategy_1[v]) for v in sorted(solution.strategy_1)],
        }
    )
    return EXIT_OK


def _cmd_countdown_solve(args) -> int:
    model = formats.load_path(args.model)
    if not isinstance(model, CountdownGame):
        raise InputError("countdown solve expects a countdown document")
    _emit({"winner": solve_countdown(model, args.max_states)})
    return EXIT_OK


def _cmd_countdown_to_hcs(args) -> int:
    model = formats.load_path(args.model)
    if not isinstance(model, CountdownGame):
        raise InputError("countdown to-hcs expects a countdown document")
    if args.normalize:
        model = normalize_countdown(model)
    game = countdown_to_hcs_game(model)
    formats.save_path(args.out, game)
    _emit(
        {
            "written": args.out,
            "states": len(game.hcs.underlying.states),
            "guards": len(game.hcs.guards),
        }
    )
    return EXIT_OK


def _cmd_mcm_to_hcs(args) -> int:
    model = formats.load_path(args.model)
    if not isinstance(model, TwoCounterMachine):
        raise InputError("mcm to-hcs expects a 2cm document")
    hcs = two_cm_to_hcs(model)
    formats.save_path(args.out, hcs)
    _emit({"written": args.out, "states": len(hcs.underlying.states)})
    return EXIT_OK


def _cmd_vass_cover(args) -> int:
    model = formats.load_path(args.model)
    if not isinstance(model, Vass):
        raise InputError("vass cover expects a vass document")
    instance = CoverabilityInstance(
        vass=model,
        source=model.initial,
        target=model.state_index(args.target),
        target_counters=(0,) * model.dim,
    )
    result = decide_coverability(instance, args.engine, args.max_states)
    _emit(
        {
            "coverable": result.coverable,
            "witness": result.witness_word(model),
            "engine": result.engine,
            "nodes_explored": result.nodes_explored,
        }
    )
    return EXIT_OK


def _cmd_bench_primes(args) -> int:
    report = bench.verify_succinctness(args.k, cap=args.cap, max_states=args.max_states)
    if args.table:
        sys.stdout.write(bench.report_table([report]) + "\n")
    else:
        _emit(report.as_dict())
    return EXIT_OK


def _cmd_fmt(args) -> int:
    model = formats.canonicalize(formats.load_path(args.model))
    text = formats.dumps(formats.to_document(model))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        _emit({"written": args.out})
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--max-states",
        type=_positive_int,
        default=DEFAULT_STATE_CAP,
        help="cap on constructed states/configurations/nodes",
    )
    common.add_argument("--quiet", action="store_true", help="suppress diagnostics on stderr")

    parser = argparse.ArgumentParser(
        prog="hcs", description="History-constrained systems toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("member", parents=[common], help="membership of a word")
    p.add_argument("--model", required=True)
    p.add_argument("--word", help="whitespace-separated symbol names")
    p.add_argument("--word-chars", help="shorthand when all symbols are single characters")
    p.set_defaults(run=_cmd_member)

    p = sub.add_parser("empty", parents=[common], help="language emptiness")
    p.add_argument("--model", required=True)
    p.add_argument("--engine", choices=["onthefly", "product", "bounded"], default="onthefly")
    p.add_argument("--max-len", type=int, default=None, help="word-length bound for --engine bounded")
    p.add_argument(
        "--assume-non-dying",
        action="store_true",
        help="assert that cover-VASS guards never die (required by --engine product)",
    )
    p.set_defaults(run=_cmd_empty)

    p = sub.add_parser("determinize", parents=[common], help="build an equivalent complete DFA")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_determinize)

    p = sub.add_parser("minimize", parents=[common], help="canonical minimal DFA")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_minimize)

    p = sub.add_parser("equiv", parents=[common], help="language equivalence of two automata")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(run=_cmd_equiv)

    game = sub.add_parser("game", help="games on guarded systems").add_subparsers(
        dest="subcommand", required=True
    )
    p = game.add_parser("solve", parents=[common], help="solve a reach/safe game")
    p.add_argument("--model", required=True)
    p.set_defaults(run=_cmd_game_solve)

    countdown = sub.add_parser("countdown", help="countdown games").add_subparsers(
        dest="subcommand", required=True
    )
    p = countdown.add_parser("solve", parents=[common], help="direct fixpoint solver")
    p.add_argument("--model", required=True)
    p.set_defaults(run=_cmd_countdown_solve)
    p = countdown.add_parser("to-hcs", parents=[common], help="reduce to a guarded reachability game")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--normalize", action="store_true", help="rewrite weights/target to powers of two first")
    p.set_defaults(run=_cmd_countdown_to_hcs)

    mcm = sub.add_parser("mcm", help="two-counter machines").add_subparsers(
        dest="subcommand", required=True
    )
    p = mcm.add_parser("to-hcs", parents=[common], help="translate reachability to emptiness")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(run=_cmd_mcm_to_hcs)

    vass = sub.add_parser("vass", help="VASS analyses").add_subparsers(
        dest="subcommand", required=True
    )
    p = vass.add_parser("cover", parents=[common], help="coverability of a control state")
    p.add_argument("--model", required=True)
    p.add_argument("--target", required=True, help="target state name")
    p.add_argument("--engine", choices=["km", "backward"], default="km")
    p.set_defaults(run=_cmd_vass_cover)

    bench_parser = sub.add_parser("bench", help="experiments").add_subparsers(
        dest="subcommand", required=True
    )
    p = bench_parser.add_parser("primes", parents=[common], help="succinctness report for A_k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--cap", type=int, default=bench.DEFAULT_K_CAP)
    p.add_argument("--table", action="store_true", help="aligned text table instead of JSON")
    p.set_defaults(run=_cmd_bench_primes)

    p = sub.add_parser("fmt", parents=[common], help="canonicalize a model document")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(run=_cmd_fmt)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ResourceLimitError as err:
        _diag(args, f"resource limit: {err}")
        return EXIT_RESOURCE
    except HcsError as err:
        _diag(args, f"error: {err}")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
