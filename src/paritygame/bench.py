"""Benchmark harness: direct solving versus reduce-then-solve, end to end.

:func:`run_route` defines each route once: ``direct`` solves the game,
``strong`` and ``stuttering`` refine it, solve the quotient and lift the
solution; then both players' strategies are verified on the game.  Every
stage runs through a ``call`` hook.  :func:`run_benchmark` times each
(game, method, solver) in turn with a hook that adds each stage's time to
its column.  A record holds the original and solved sizes, the stage
times of the repetition with the least total (µs inside, ms in the CSV)
and the number of vertices EVEN wins.  Every combination's winner vector
must equal the game's first combination's, and its strategies must
verify; else the run stops before a later combination is timed.
"""
from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass
from itertools import product

from .game import EVEN, ODD, Game, verify_strategy
from .reduction import quotient, refine_strong, refine_stuttering
from .solvers import ALGORITHMS, solve
from .strategy import lift_solution

REFINE = {"strong": refine_strong, "stuttering": refine_stuttering}
METHODS = ("direct", *REFINE)
STAGES = ("refine", "quotient", "solve", "lift", "verify")
CSV_SCHEMA_COMMENT = "# paritygame bench csv, schema v2; times are milliseconds"
CSV_HEADER = (
    "game,method,solver,orig_v,orig_e,red_v,red_e,"
    "t_refine_ms,t_quotient_ms,t_solve_ms,t_lift_ms,t_verify_ms,t_total_ms,even_wins,runs"
)


class WinnerMismatchError(RuntimeError):
    """A soundness failure: different methods disagree on the winner of
    some vertex, or a strategy fails verification."""


def run_route(game: Game, method: str, solver: str, call=lambda stage, fn, *args: fn(*args)):
    """Solve ``game`` by ``method`` (one of :data:`METHODS`) with
    ``solver``, running each stage as ``call(stage, fn, *args)``; returns
    the game that was solved, the solution of ``game`` and the verdicts on
    EVEN's and ODD's strategy."""
    if method == "direct":
        solved = game
        solution = call("solve", solve, game, solver)
    else:
        part = call("refine", REFINE[method], game)
        solved, vmap = call("quotient", quotient, game, part)
        reduced = call("solve", solve, solved, solver)
        solution = call("lift", lift_solution, game, part, solved, vmap, reduced)
    verdicts = tuple(
        call("verify", verify_strategy, game, p, solution.region(p), solution.strategy(p))
        for p in (EVEN, ODD)
    )
    return solved, solution, verdicts


@dataclass
class BenchRecord:
    game_id: str
    method: str
    solver: str
    orig_v: int
    orig_e: int
    red_v: int
    red_e: int
    stage_us: dict[str, int]  # µs per stage, in the order of STAGES
    even_wins: int
    runs: int

    @property
    def total_us(self) -> int:
        return sum(self.stage_us.values())

    def csv_fields(self) -> list[str]:
        times = (f"{us / 1000:.3f}" for us in (*self.stage_us.values(), self.total_us))
        sizes = (self.orig_v, self.orig_e, self.red_v, self.red_e)
        return [self.game_id, self.method, self.solver, *map(str, sizes), *times,
                str(self.even_wins), str(self.runs)]


def _timed_route(game: Game, method: str, solver: str):
    """One run: µs per stage, then :func:`run_route`'s result."""
    stage_us = dict.fromkeys(STAGES, 0)

    def timed(stage, fn, *args):
        t0 = time.perf_counter_ns()
        result = fn(*args)
        stage_us[stage] += (time.perf_counter_ns() - t0) // 1000
        return result

    return stage_us, *run_route(game, method, solver, timed)


def run_benchmark(
    games: list[tuple[str, Game]],
    methods=METHODS,
    solvers=("zielonka",),
    repetitions: int = 3,
) -> list[BenchRecord]:
    """One record per (game, method, solver), a repeated method or solver
    name counting once; raises :class:`WinnerMismatchError` when methods
    disagree on a game or a strategy does not verify, and
    :class:`ValueError`, before timing anything, for an empty or unknown
    method or solver list, a repetition count that is not an ``int`` of at
    least 1 or a game with no vertices."""
    if not methods or not set(methods) <= set(METHODS):
        raise ValueError(f"methods must be a non-empty choice of {', '.join(METHODS)}")
    if not solvers or not set(solvers) <= set(ALGORITHMS):
        raise ValueError(f"solvers must be a non-empty choice of {', '.join(ALGORITHMS)}")
    if isinstance(repetitions, bool) or not isinstance(repetitions, int) or repetitions < 1:
        raise ValueError(f"repetitions must be an int >= 1, not {repetitions!r}")
    for game_id, game in games:
        if not game.vertex_count:
            raise ValueError(f"game {game_id} has no vertices")
    records = []
    for game_id, game in games:
        ref = None
        for method, solver in product(dict.fromkeys(methods), dict.fromkeys(solvers)):
            runs = (_timed_route(game, method, solver) for _ in range(repetitions))
            stage_us, solved, solution, verdicts = min(runs, key=lambda r: sum(r[0].values()))
            winner = solution.winner
            if ref is None:
                ref = f"{method}/{solver}", winner
            elif winner != ref[1]:
                v = next(v for v, (a, b) in enumerate(zip(ref[1], winner)) if a != b)
                raise WinnerMismatchError(
                    f"game {game_id}: {method}/{solver} and {ref[0]} "
                    f"disagree on the winner of vertex {v}"
                )
            for player, result in zip((EVEN, ODD), verdicts):
                if not result:
                    raise WinnerMismatchError(
                        f"game {game_id}: {method}/{solver} strategy "
                        f"of player {player} rejected: {result.reason}"
                    )
            records.append(BenchRecord(
                game_id, method, solver, game.vertex_count, game.edge_count,
                solved.vertex_count, solved.edge_count, stage_us, winner.count(EVEN),
                repetitions,
            ))
    return records


def records_to_csv(records: list[BenchRecord]) -> str:
    """The CSV text, without a final newline.  Fields are quoted as RFC
    4180 asks, so a game id holding a comma or a quote stays one field."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(r.csv_fields() for r in records)
    # every row ends in the ``runs`` count, so only the last terminator goes
    return f"{CSV_SCHEMA_COMMENT}\n{CSV_HEADER}\n{out.getvalue()}".rstrip("\n")
