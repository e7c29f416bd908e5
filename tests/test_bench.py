"""Benchmark harness: routes, record shape, CSV output, soundness
cross-check."""

import re
import time
from decimal import Decimal

import pytest

import paritygame.bench as bench
from paritygame import ODD, Game, gen_chain, gen_random, write_pgsolver
from paritygame.bench import (
    CSV_HEADER,
    STAGES,
    WinnerMismatchError,
    records_to_csv,
    run_benchmark,
    run_route,
)
from paritygame.cli import cli_dispatch


def small_grid():
    return [
        ("chain-100", gen_chain(100, 1, ODD, 0)),
        ("random-30", gen_random(30, 3, 3, 7)),
        ("random-50", gen_random(50, 3, 3, 8)),
    ]


def test_one_record_per_combination():
    games = small_grid()
    records = run_benchmark(games, repetitions=1)
    assert len(records) == len(games) * 3  # three methods, one solver
    assert {(r.game_id, r.method) for r in records} == {
        (gid, m) for gid, _ in games for m in bench.METHODS
    }


def test_chain_reduction_sizes_in_records():
    records = run_benchmark([("chain-100", gen_chain(100, 1, ODD, 0))], repetitions=1)
    by_method = {r.method: r for r in records}
    assert by_method["direct"].red_v == 101
    assert by_method["stuttering"].red_v == 2
    assert by_method["strong"].red_v == 101


def test_winner_column_is_consistent_and_sizes_monotone():
    records = run_benchmark(small_grid(), repetitions=2)
    by_game = {}
    for r in records:
        by_game.setdefault(r.game_id, []).append(r)
        assert r.red_v <= r.orig_v and r.red_e <= r.orig_e
        assert list(r.stage_us) == list(STAGES)
        assert r.total_us == sum(r.stage_us.values())
        assert r.runs == 2
    for rs in by_game.values():
        assert len({r.even_wins for r in rs}) == 1
        sizes = {r.method: r.red_v for r in rs}
        assert sizes["stuttering"] <= sizes["strong"] <= sizes["direct"]


def test_csv_shape():
    records = run_benchmark([("random-20", gen_random(20, 3, 3, 1))], repetitions=1)
    text = records_to_csv(records)
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == CSV_HEADER
    assert len(lines) == 2 + len(records)
    row = lines[2].split(",")
    assert len(row) == len(CSV_HEADER.split(","))
    assert lines[0] == "# paritygame bench csv, schema v2; times are milliseconds"
    [float(t) for t in row[7:13]]  # the five stage columns and the total
    assert 0 <= int(row[13]) <= 20  # even_wins


def test_multiple_solvers_multiply_rows():
    records = run_benchmark(
        [("random-12", gen_random(12, 3, 3, 5))],
        methods=("direct", "stuttering"),
        solvers=("zielonka", "spm"),
        repetitions=1,
    )
    assert len(records) == 4
    assert len({r.even_wins for r in records}) == 1


def lifting_that_flips(monkeypatch, flip):
    """Make ``bench`` lift reduced solutions with the winners of the
    vertices ``flip(game)`` handed to the other player, strategies kept;
    returns the list of the sizes of the games ``bench`` solves."""
    real_lift, real_solve = bench.lift_solution, bench.solve
    solved = []

    def solve(g, solver):
        solved.append(g.vertex_count)
        return real_solve(g, solver)

    def lift(game, *reduction):
        lifted = real_lift(game, *reduction)
        for v in flip(game):
            lifted.winner[v] = 1 - lifted.winner[v]
        return lifted

    monkeypatch.setattr(bench, "solve", solve)
    monkeypatch.setattr(bench, "lift_solution", lift)
    return solved


def test_winner_mismatch_aborts(monkeypatch):
    # a broken lifting that hands every vertex to the other player
    lifting_that_flips(monkeypatch, lambda game: game.vertices())
    with pytest.raises(WinnerMismatchError, match="vertex 0$"):
        run_benchmark([("chain-100", gen_chain(100, 1, ODD, 0))], repetitions=1)


def test_winner_mismatch_beyond_vertex_0_aborts(monkeypatch):
    # the stuttering method loses the sink of the chain while every method
    # agrees on vertex 0
    lifting_that_flips(monkeypatch, lambda game: [game.vertex_count - 1])
    with pytest.raises(WinnerMismatchError, match="vertex 100$"):
        run_benchmark(
            [("chain-100", gen_chain(100, 1, ODD, 0))],
            methods=("direct", "stuttering"),
            repetitions=1,
        )


def test_a_mismatch_stops_the_run_before_later_methods_are_solved(monkeypatch):
    # the stuttering method loses the chain's sink, and the strong quotient
    # must not be solved afterwards
    solved = lifting_that_flips(monkeypatch, lambda game: [game.vertex_count - 1])
    with pytest.raises(WinnerMismatchError, match="stuttering/zielonka and direct/zielonka"):
        run_benchmark(
            [("chain-100", gen_chain(100, 1, ODD, 0))],
            methods=("direct", "stuttering", "strong"),
            repetitions=1,
        )
    assert solved == [101, 2]


def corrupt_one_move(solution, vertex_count):
    """``solution`` with its least EVEN move sent to a vertex the game lacks."""
    moves = solution.strategy_even.moves
    moves[min(moves)] = vertex_count
    return solution


def test_rejected_lifted_strategy_aborts(monkeypatch, tmp_path, capsys):
    # a lifting that redirects one winning move to a vertex the game lacks;
    # only the stuttering lift used to be verified
    real = bench.lift_solution
    monkeypatch.setattr(
        bench, "lift_solution",
        lambda game, *reduction: corrupt_one_move(real(game, *reduction), game.vertex_count),
    )
    game = gen_random(30, 3, 3, 7)
    for method in ("stuttering", "strong"):
        with pytest.raises(
            WinnerMismatchError,
            match=rf"^game random-30: {re.escape(method)}/zielonka strategy of player 0 "
            r"rejected: strategy move is not a game edge$",
        ):
            run_benchmark([("random-30", game)], ("direct", method), repetitions=1)
    # the direct method, which is not lifted, still passes
    run_benchmark([("random-30", game)], ("direct",), repetitions=1)
    f = tmp_path / "random-30.gm"
    f.write_text(write_pgsolver(game), encoding="ascii")
    code = cli_dispatch(["--convention", "min", "bench", str(f), "-o", str(tmp_path / "b.csv")])
    assert code == 1
    assert "strategy of player 0 rejected" in capsys.readouterr().err


def test_rejected_direct_strategy_aborts(monkeypatch):
    # the direct solution's strategies used to go unchecked
    game = gen_random(30, 3, 3, 7)
    real = bench.solve
    monkeypatch.setattr(
        bench, "solve",
        lambda g, solver: corrupt_one_move(real(g, solver), g.vertex_count),
    )
    with pytest.raises(
        WinnerMismatchError,
        match=r"^game random-30: direct/zielonka strategy of player 0 "
        r"rejected: strategy move is not a game edge$",
    ):
        run_benchmark([("random-30", game)], ("direct",), repetitions=1)


def test_rejects_a_game_with_no_vertices(monkeypatch):
    # every stage accepts the empty game, and the record's winner of vertex
    # 0 used to raise IndexError; no method may be timed first
    monkeypatch.setattr(bench, "solve", None)
    with pytest.raises(ValueError, match="game empty has no vertices"):
        run_benchmark([("chain-3", gen_chain(3, 1, ODD, 0)), ("empty", Game([], [], []))])


def test_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_benchmark(small_grid(), methods=("direct", "sideways"))


@pytest.mark.parametrize(
    "methods, solvers, message",
    [
        (bench.METHODS, ("zielonka", "foo"), "solvers must be a non-empty choice"),
        ((), ("zielonka",), "methods must be a non-empty choice"),
        (bench.METHODS, (), "solvers must be a non-empty choice"),
    ],
    ids=["unknown-solver", "no-method", "no-solver"],
)
def test_rejects_bad_solvers_and_empty_lists_before_timing(monkeypatch, methods, solvers, message):
    # an unknown solver used to raise only once earlier combinations were
    # timed, and an empty list returned no records
    monkeypatch.setattr(bench, "solve", None)
    with pytest.raises(ValueError, match=message):
        run_benchmark(small_grid(), methods, solvers)


@pytest.mark.parametrize(
    "method, stages",
    [
        ("direct", ["solve", "verify", "verify"]),
        ("strong", ["refine", "quotient", "solve", "lift", "verify", "verify"]),
        ("stuttering", ["refine", "quotient", "solve", "lift", "verify", "verify"]),
    ],
)
def test_route_runs_each_stage_through_call(method, stages):
    game = gen_chain(100, 1, ODD, 0)
    seen = []

    def call(stage, fn, *args):
        seen.append(stage)
        return fn(*args)

    solved, solution, verdicts = run_route(game, method, "zielonka", call)
    assert seen == stages
    assert solution.winner == run_route(game, "direct", "zielonka")[1].winner
    assert len(solution.winner) == 101 and all(verdicts)
    assert solved.vertex_count == {"direct": 101, "strong": 101, "stuttering": 2}[method]


def test_a_slow_lift_shows_in_its_column_and_the_total(monkeypatch):
    real = bench.lift_solution

    def slow_lift(*args):
        time.sleep(0.005)
        return real(*args)

    monkeypatch.setattr(bench, "lift_solution", slow_lift)
    records = run_benchmark(
        [("chain-100", gen_chain(100, 1, ODD, 0))], ("direct", "stuttering"), repetitions=2
    )
    assert [r.stage_us["lift"] >= 5000 for r in records] == [False, True]
    columns = CSV_HEADER.split(",")
    row = records_to_csv(records).splitlines()[3].split(",")
    assert float(row[columns.index("t_lift_ms")]) >= 5
    assert float(row[columns.index("t_total_ms")]) >= 5


def test_total_column_is_the_sum_of_the_stage_columns_and_direct_skips_reduction():
    records = run_benchmark(small_grid(), solvers=("zielonka", "spm"), repetitions=2)
    header, *rows = records_to_csv(records).splitlines()[1:]
    columns = header.split(",")
    stage_columns = [columns.index(f"t_{stage}_ms") for stage in STAGES]
    assert stage_columns == list(range(7, 12)) and columns[12] == "t_total_ms"
    for line in rows:
        row = line.split(",")
        assert sum(Decimal(row[i]) for i in stage_columns) == Decimal(row[12])
        skipped = [row[columns.index(f"t_{s}_ms")] for s in ("refine", "quotient", "lift")]
        assert (skipped == ["0.000"] * 3) == (row[1] == "direct")


def test_even_wins_counts_the_whole_winner_vector():
    game = gen_random(50, 3, 3, 8)
    winner = run_route(game, "direct", "zielonka")[1].winner
    for r in run_benchmark([("random-50", game)], repetitions=1):
        assert r.even_wins == winner.count(0)


def test_repeated_names_are_timed_once_in_first_seen_order(monkeypatch, tmp_path):
    game = gen_random(20, 3, 3, 1)
    routes = []
    real = bench.run_route

    def route(game, method, solver, call):
        routes.append((method, solver))
        return real(game, method, solver, call)

    monkeypatch.setattr(bench, "run_route", route)
    records = run_benchmark([("g", game)], ("direct", "direct"), ("spm", "spm"), repetitions=1)
    assert [(r.method, r.solver) for r in records] == routes == [("direct", "spm")]
    routes.clear()
    records = run_benchmark(
        [("g", game)], ("stuttering", "direct", "stuttering"), ("spm", "zielonka", "spm"),
        repetitions=1,
    )
    order = [(m, s) for m in ("stuttering", "direct") for s in ("spm", "zielonka")]
    assert [(r.method, r.solver) for r in records] == routes == order
    f = tmp_path / "g.gm"
    f.write_text(write_pgsolver(game), encoding="ascii")
    out = tmp_path / "b.csv"
    code = cli_dispatch([
        "--convention", "min", "bench", str(f), "--methods", "direct,direct",
        "--solvers", "zielonka,zielonka", "--repetitions", "1", "-o", str(out),
    ])
    assert code == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3


@pytest.mark.parametrize("repetitions", [0, -1, True, False, 2.5, "3", None])
def test_rejects_a_repetition_count_that_is_no_positive_int_before_timing(monkeypatch, repetitions):
    # True used to be written as the runs column, 2.5 and "3" raised TypeError
    monkeypatch.setattr(bench, "solve", None)
    with pytest.raises(ValueError, match=r"^repetitions must be an int >= 1, not "):
        run_benchmark(small_grid(), repetitions=repetitions)
