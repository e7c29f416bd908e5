"""Benchmark harness: direct solving versus reduce-then-solve.

For each (game, method, solver) combination one record is produced with
the original and reduced sizes and the wall-clock reduction and solving
times (best of a configurable number of repetitions, microsecond
resolution internally, milliseconds in the CSV).  The winner of every
vertex, carried back through the block map for reduced methods, is
cross-checked across all methods per game, and the stuttering
reduction's solution is lifted to the game and both players' strategies
verified, outside the timed region; a mismatch or a rejected strategy
means a soundness bug and aborts the run.  The CSV reports the winner of
vertex 0.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

from .game import EVEN, ODD, Game, verify_strategy
from .reduction import quotient, refine_strong, refine_stuttering
from .solvers import solve
from .strategy import lift_solution

METHODS = ("direct", "strong+solve", "stuttering+solve")
CSV_SCHEMA_COMMENT = "# paritygame bench csv, schema v1; times are milliseconds"
CSV_HEADER = (
    "game,method,solver,orig_v,orig_e,red_v,red_e,"
    "t_reduce_ms,t_solve_ms,t_total_ms,winner_v0,runs"
)


class WinnerMismatchError(RuntimeError):
    """A soundness failure: different methods disagree on the winner of
    some vertex, or a lifted strategy fails verification."""


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


def _measure_once(game: Game, method: str, solver: str):
    if method == "direct":
        t0 = time.perf_counter_ns()
        solution = solve(game, solver)
        t1 = time.perf_counter_ns()
        return 0, (t1 - t0) // 1000, game.vertex_count, game.edge_count, solution.winner, None
    refine = refine_strong if method == "strong+solve" else refine_stuttering
    t0 = time.perf_counter_ns()
    part = refine(game)
    reduced, vmap = quotient(game, part)
    t1 = time.perf_counter_ns()
    solution = solve(reduced, solver)
    t2 = time.perf_counter_ns()
    return (
        (t1 - t0) // 1000,
        (t2 - t1) // 1000,
        reduced.vertex_count,
        reduced.edge_count,
        [solution.winner[b] for b in vmap],
        (part, reduced, vmap, solution),
    )


def _bench_one(
    game_id: str, game: Game, method: str, solver: str, repetitions: int
) -> tuple[BenchRecord, list[int], tuple | None]:
    best = None
    for _ in range(repetitions):
        sample = _measure_once(game, method, solver)
        if best is None or sample[0] + sample[1] < best[0] + best[1]:
            best = sample
    reduce_us, solve_us, red_v, red_e, winner, reduction = best
    record = BenchRecord(
        game_id=game_id,
        method=method,
        solver=solver,
        orig_v=game.vertex_count,
        orig_e=game.edge_count,
        red_v=red_v,
        red_e=red_e,
        reduce_us=reduce_us,
        solve_us=solve_us,
        winner_v0=winner[0],
        runs=repetitions,
    )
    return record, winner, reduction


def _verify_lifted(record: BenchRecord, game: Game, reduction: tuple) -> None:
    """Lift a reduced solution to ``game`` and verify both strategies."""
    lifted = lift_solution(game, *reduction)
    for player in (EVEN, ODD):
        result = verify_strategy(game, player, lifted.region(player), lifted.strategy(player))
        if not result:
            raise WinnerMismatchError(
                f"game {record.game_id}: {record.method}/{record.solver} lifted strategy "
                f"of player {player} rejected: {result.reason}"
            )


def run_benchmark(
    games: list[tuple[str, Game]],
    methods=METHODS,
    solvers=("zielonka",),
    repetitions: int = 3,
) -> list[BenchRecord]:
    """One record per (game, method, solver); raises
    :class:`WinnerMismatchError` when methods disagree on a game or the
    lifted ``stuttering+solve`` strategies do not verify, and
    :class:`ValueError`, before timing anything, for an unknown method, a
    repetition count below 1 or a game with no vertices."""
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    for game_id, game in games:
        if not game.vertex_count:
            raise ValueError(f"game {game_id} has no vertices")
    records = []
    for game_id, game in games:
        results = [
            _bench_one(game_id, game, method, solver, repetitions)
            for method in methods
            for solver in solvers
        ]
        for r, winner, _ in results:
            ref, ref_winner, _ = results[0]
            if winner != ref_winner:
                v = next(
                    (v for v, (a, b) in enumerate(zip(ref_winner, winner)) if a != b),
                    min(len(winner), len(ref_winner)),
                )
                raise WinnerMismatchError(
                    f"game {r.game_id}: {r.method}/{r.solver} and {ref.method}/{ref.solver} "
                    f"disagree on the winner of vertex {v}"
                )
        for r, _, reduction in results:
            if r.method == "stuttering+solve":
                _verify_lifted(r, game, reduction)
        records.extend(r for r, _, _ in results)
    return records


def records_to_csv(records: list[BenchRecord]) -> str:
    """The CSV text, without a final newline.  Fields are quoted as RFC
    4180 asks, so a game id holding a comma or a quote stays one field."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(r.csv_fields() for r in records)
    # every row ends in the ``runs`` count, so only the last terminator goes
    return f"{CSV_SCHEMA_COMMENT}\n{CSV_HEADER}\n{out.getvalue()}".rstrip("\n")
