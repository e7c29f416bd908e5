"""Command-line front end.

Subcommands: ``info``, ``solve``, ``reduce``, ``generate``, ``verify`` and
``bench``.  ``generate`` makes members of the ``random`` and ``chain``
families; ``bench`` times every stage of each route on game files, lift
and verify included.  Exit codes: 0 on success, 1 on a domain failure
(parse error, failed verification, a solution file that breaks its
format, benchmark winner mismatch) and, with no message, on a closed
standard output, 2 on usage errors.

Game files use the PGSolver format.  ``--convention`` states how priorities
in files are read and written; it defaults to ``max``, matching the
surrounding tool ecosystem, while everything internal is min-parity.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import METHODS, REFINE, WinnerMismatchError, records_to_csv, run_benchmark
from .game import EVEN, ODD, Game, convert_priorities, verify_strategy
from .generators import gen_chain, gen_random
from .io import (
    FormatError,
    parse_pgsolver,
    parse_solution,
    write_pgsolver,
    write_solution,
)
from .reduction import quotient, write_partition
from .solvers import ALGORITHMS, solve


class _Subparser(argparse.ArgumentParser):
    """A subcommand's parser.  It reports arguments it does not know with
    its own usage; left to the root parser, they would show the root's."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _at_least(low: int, what: str):
    """An argparse ``type=`` converter to integers of at least ``low``."""

    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be {what}, not {text!r}")
        return value

    return convert


_natural = _at_least(0, "a natural number")
_positive = _at_least(1, "a positive integer")


def _names(option: str, names: tuple[str, ...]):
    """An argparse ``type=`` converter to a comma list of ``names``, or all."""

    def convert(text: str) -> tuple[str, ...]:
        chosen = tuple(tok for tok in text.split(",") if tok)
        if chosen == ("all",):
            return names
        if not chosen or not set(chosen) <= set(names):
            raise argparse.ArgumentTypeError(f"{option} takes a comma list of {', '.join(names)}")
        return chosen

    return convert


def _read_game(path: str, convention: str) -> Game:
    with open(path, "rb") as fh:
        return parse_pgsolver(fh.read(), convention)


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _game_to_text(game: Game, convention: str) -> str:
    if convention == "max":
        game = convert_priorities(game, "min_to_max")
    return write_pgsolver(game)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="paritygame", description=__doc__)
    parser.add_argument(
        "--convention",
        choices=("min", "max"),
        default="max",
        help="priority convention of game files (default: max)",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subparser)

    p_info = sub.add_parser("info", help="print game statistics")
    p_info.add_argument("file")
    p_info.set_defaults(run=_cmd_info)

    p_solve = sub.add_parser("solve", help="solve a game, print the solution")
    p_solve.add_argument("file")
    p_solve.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="zielonka",
        help="solver (default: zielonka); spm can take seconds or minutes on "
        "games with about as many priorities as vertices",
    )
    p_solve.set_defaults(run=_cmd_solve)

    p_reduce = sub.add_parser("reduce", help="minimise a game")
    p_reduce.add_argument("file")
    p_reduce.add_argument(
        "--equivalence", choices=tuple(REFINE), default="stuttering"
    )
    p_reduce.add_argument("-o", "--output", help="quotient game file (default: stdout)")
    p_reduce.add_argument("--map", dest="map_file", help="write the block map here")
    p_reduce.set_defaults(run=_cmd_reduce)

    p_gen = sub.add_parser("generate", help="generate a game family member")
    p_gen.add_argument("--family", choices=("random", "chain"), required=True)
    p_gen.add_argument("--n", type=_positive, default=8, help="vertex count parameter")
    p_gen.add_argument("--degree", type=_positive, default=3, help="random family: max out-degree")
    p_gen.add_argument("--pmax", type=_natural, default=3, help="random family: max priority")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--chain-priority", type=_natural, default=1)
    p_gen.add_argument("--chain-owner", type=int, choices=(EVEN, ODD), default=ODD)
    p_gen.add_argument("--sink-priority", type=_natural, default=0)
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(run=_cmd_generate)

    p_verify = sub.add_parser("verify", help="check a solution file against a game")
    p_verify.add_argument("file")
    p_verify.add_argument("solution")
    p_verify.set_defaults(run=_cmd_verify)

    p_bench = sub.add_parser("bench", help="time refine, quotient, solve, lift, verify per route")
    p_bench.add_argument("files", nargs="+", help="game files to benchmark")
    p_bench.add_argument(
        "--methods", type=_names("--methods", METHODS), default="all",
        help=f"comma list of {','.join(METHODS)} or all (default: all)",
    )
    p_bench.add_argument(
        "--solvers", type=_names("--solvers", ALGORITHMS), default="zielonka",
        help=f"comma list of {','.join(ALGORITHMS)} or all (default: zielonka)",
    )
    p_bench.add_argument("--repetitions", type=_positive, default=3,
                         help="runs per combination; the least total is kept (default: 3)")
    p_bench.add_argument("-o", "--output", help="CSV output file (default: stdout)")
    p_bench.set_defaults(run=_cmd_bench)
    return parser


def _cmd_info(args) -> int:
    game = _read_game(args.file, args.convention)
    present = sorted(set(game.priority))
    print(f"vertices:   {game.vertex_count}")
    print(f"edges:      {game.edge_count}")
    print(f"priorities: {len(present)} {present}")
    return 0


def _cmd_solve(args) -> int:
    game = _read_game(args.file, args.convention)
    solution = solve(game, args.algorithm)
    print(write_solution(game, solution.winner, solution.strategy_even, solution.strategy_odd))
    return 0


def _cmd_reduce(args) -> int:
    game = _read_game(args.file, args.convention)
    part = REFINE[args.equivalence](game)
    reduced, _ = quotient(game, part)
    _write_text(args.output, _game_to_text(reduced, args.convention))
    if args.map_file:
        _write_text(args.map_file, write_partition(part))
    print(
        f"reduced {game.vertex_count} vertices / {game.edge_count} edges "
        f"to {reduced.vertex_count} / {reduced.edge_count}",
        file=sys.stderr,
    )
    return 0


def _cmd_generate(args) -> int:
    if args.family == "random":
        game = gen_random(args.n, args.degree, args.pmax, args.seed)
    else:
        game = gen_chain(args.n, args.chain_priority, args.chain_owner, args.sink_priority)
    _write_text(args.output, _game_to_text(game, args.convention))
    return 0


def _cmd_verify(args) -> int:
    game = _read_game(args.file, args.convention)
    with open(args.solution, "rb") as fh:
        solution = parse_solution(fh.read(), game)
    for player in (EVEN, ODD):
        result = verify_strategy(game, player, solution.region(player), solution.strategy(player))
        if not result:
            print(
                f"player {player}: {result.reason}; witness {result.witness}",
                file=sys.stderr,
            )
            return 1
    print("solution verified: both strategies win their regions")
    return 0


def _cmd_bench(args) -> int:
    games = [(path, _read_game(path, args.convention)) for path in args.files]
    records = run_benchmark(games, args.methods, args.solvers, args.repetitions)
    _write_text(args.output, records_to_csv(records))
    return 0


def cli_dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage of the failing (sub)command, or the
        # help it was asked for
        return exc.code
    try:
        return args.run(args)
    except BrokenPipeError:
        raise  # main's to handle: it is no domain failure
    except (FormatError, OSError, ValueError, WinnerMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = cli_dispatch(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left; devnull spares the exit's flush (Python docs, SIGPIPE)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    main()
