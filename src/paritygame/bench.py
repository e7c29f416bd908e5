"""Benchmark harness: direct solving versus reduce-then-solve.

Each (game, method, solver) combination is timed, checked and recorded in
turn.  Its record holds the original and reduced sizes and the wall-clock
reduction and solving times (best of a configurable number of
repetitions, microsecond resolution internally, milliseconds in the CSV).
Outside the timed region, a reduced method's solution is lifted to the
game, every combination's winner of every vertex is compared with the
game's first combination, and both players' strategies are verified; a
mismatch or a rejected strategy means a soundness bug and stops the run
before a later combination is timed.  The CSV reports the winner of
vertex 0.
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

METHODS = ("direct", "strong+solve", "stuttering+solve")
CSV_SCHEMA_COMMENT = "# paritygame bench csv, schema v1; times are milliseconds"
CSV_HEADER = (
    "game,method,solver,orig_v,orig_e,red_v,red_e,"
    "t_reduce_ms,t_solve_ms,t_total_ms,winner_v0,runs"
)


class WinnerMismatchError(RuntimeError):
    """A soundness failure: different methods disagree on the winner of
    some vertex, or a strategy fails verification."""


@dataclass
class BenchRecord:
    game_id: str
    method: str
    solver: str
    orig_v: int
    orig_e: int
    red_v: int
    red_e: int
    reduce_us: int
    solve_us: int
    winner_v0: int
    runs: int

    @property
    def total_us(self) -> int:
        return self.reduce_us + self.solve_us

    def csv_fields(self) -> list[str]:
        return [
            self.game_id,
            self.method,
            self.solver,
            str(self.orig_v),
            str(self.orig_e),
            str(self.red_v),
            str(self.red_e),
            f"{self.reduce_us / 1000:.3f}",
            f"{self.solve_us / 1000:.3f}",
            f"{self.total_us / 1000:.3f}",
            str(self.winner_v0),
            str(self.runs),
        ]


def _timed(game: Game, method: str, solver: str):
    """One run of ``method``: the reduce and solve times in µs, the game
    solved, its solution, and the partition and block map (``None`` for
    ``direct``)."""
    if method == "direct":
        t0 = time.perf_counter_ns()
        solution = solve(game, solver)
        return 0, (time.perf_counter_ns() - t0) // 1000, game, solution, None
    refine = refine_strong if method == "strong+solve" else refine_stuttering
    t0 = time.perf_counter_ns()
    part = refine(game)
    reduced, vmap = quotient(game, part)
    t1 = time.perf_counter_ns()
    solution = solve(reduced, solver)
    t2 = time.perf_counter_ns()
    return (t1 - t0) // 1000, (t2 - t1) // 1000, reduced, solution, (part, vmap)


def run_benchmark(
    games: list[tuple[str, Game]],
    methods=METHODS,
    solvers=("zielonka",),
    repetitions: int = 3,
) -> list[BenchRecord]:
    """One record per (game, method, solver); raises
    :class:`WinnerMismatchError` when methods disagree on a game or a
    strategy, lifted for a reduced method, does not verify, and
    :class:`ValueError`, before timing anything, for an empty or unknown
    method or solver list, a repetition count below 1 or a game with no
    vertices."""
    if not methods or not set(methods) <= set(METHODS):
        raise ValueError(f"methods must be a non-empty choice of {', '.join(METHODS)}")
    if not solvers or not set(solvers) <= set(ALGORITHMS):
        raise ValueError(f"solvers must be a non-empty choice of {', '.join(ALGORITHMS)}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    for game_id, game in games:
        if not game.vertex_count:
            raise ValueError(f"game {game_id} has no vertices")
    records = []
    for game_id, game in games:
        ref = None
        for method, solver in product(methods, solvers):
            runs = (_timed(game, method, solver) for _ in range(repetitions))
            reduce_us, solve_us, solved, solution, reduction = min(runs, key=lambda r: r[0] + r[1])
            if reduction is not None:
                part, vmap = reduction
                solution = lift_solution(game, part, solved, vmap, solution)
            winner = solution.winner
            if ref is None:
                ref = f"{method}/{solver}", winner
            elif winner != ref[1]:
                v = next(v for v, (a, b) in enumerate(zip(ref[1], winner)) if a != b)
                raise WinnerMismatchError(
                    f"game {game_id}: {method}/{solver} and {ref[0]} "
                    f"disagree on the winner of vertex {v}"
                )
            for player in (EVEN, ODD):
                result = verify_strategy(
                    game, player, solution.region(player), solution.strategy(player)
                )
                if not result:
                    raise WinnerMismatchError(
                        f"game {game_id}: {method}/{solver} strategy "
                        f"of player {player} rejected: {result.reason}"
                    )
            records.append(BenchRecord(
                game_id, method, solver, game.vertex_count, game.edge_count,
                solved.vertex_count, solved.edge_count, reduce_us, solve_us, winner[0],
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
