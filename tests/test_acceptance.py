"""Acceptance suite: one test per criterion, one printed pass/fail line.

Run ``pytest -v -s tests/test_acceptance.py`` to watch the lines as the
criteria execute; timing budgets are printed alongside.  All checks are
exact unless stated otherwise; the only timed criterion is number 9.
"""

import time
from contextlib import contextmanager

from paritygame import (
    EVEN,
    ODD,
    Game,
    gen_chain,
    gen_random,
    lift_solution,
    parse_pgsolver,
    quotient,
    refine_strong,
    refine_stuttering,
    verify_strategy,
    write_pgsolver,
)
from paritygame.bench import CSV_HEADER, records_to_csv, run_benchmark
from paritygame.generators import Xoshiro256StarStar
from paritygame.solvers import solve_spm

from helpers import gen_branch, gen_divergent_pair, random_consistent_walk, solve_zielonka
from lifting_reference import Lifting, mimick_next
from oracles import (
    oracle_strong_pairs,
    oracle_stuttering_pairs,
    partition_from_relation,
    solve_brute,
)


@contextmanager
def criterion(num: int, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL  [{time.perf_counter() - t0:.1f}s]")
        raise
    print(f"criterion {num} ({label}): PASS  [{time.perf_counter() - t0:.1f}s]")


def fixture_games() -> list[Game]:
    g1 = Game([0, 1], [EVEN, ODD], [[1], [0]])
    g4 = Game([0, 0, 1], [EVEN, EVEN, ODD], [[1, 2], [1], [2]])
    return [
        g1,
        g4,
        gen_branch(),
        gen_divergent_pair(),
        gen_chain(1, 1, ODD, 0),
        gen_chain(5, 1, ODD, 0),
        gen_chain(9, 1, EVEN, 0),
    ]


def test_criterion_1_solver_cross_validation():
    with criterion(1, "solver cross-validation, 500 games"):
        for seed in range(500):
            g = gen_random(1 + seed % 8, 1 + seed % 3, seed % 4, seed)
            reference = solve_zielonka(g).winner
            assert solve_spm(g).winner == reference, seed
            assert solve_brute(g).winner == reference, seed


def test_criterion_2_winner_preservation():
    with criterion(2, "winner preservation through quotients, 500 games"):
        for seed in range(500):
            n = 1 + (seed * 7919) % 60
            g = gen_random(n, 3, 3, seed)
            direct = solve_zielonka(g)
            for refine in (refine_strong, refine_stuttering):
                reduced, vmap = quotient(g, refine(g))
                reduced_solution = solve_zielonka(reduced)
                assert all(
                    direct.winner[v] == reduced_solution.winner[vmap[v]]
                    for v in g.vertices()
                ), (seed, refine.__name__)


def test_criterion_3_oracle_equivalence():
    with criterion(3, "relational oracle equivalence, 200 games"):
        for seed in range(200):
            g = gen_random(1 + seed % 10, 3, 3, seed + 40_000)
            assert (
                partition_from_relation(g, oracle_stuttering_pairs(g))
                == refine_stuttering(g).blocks
            ), seed
            assert (
                partition_from_relation(g, oracle_strong_pairs(g))
                == refine_strong(g).blocks
            ), seed


def test_criterion_4_refinement_ordering():
    with criterion(4, "strong refines stuttering, sizes monotone"):
        corpus = fixture_games()
        corpus += [gen_random(1 + (s * 31) % 50, 3, 3, s + 70_000) for s in range(100)]
        for g in corpus:
            strong = refine_strong(g)
            stut = refine_stuttering(g)
            for block in strong.blocks:
                assert len({stut.block_of[v] for v in block}) == 1
            qs, _ = quotient(g, strong)
            qt, _ = quotient(g, stut)
            assert qt.vertex_count <= qs.vertex_count <= g.vertex_count
            assert qt.edge_count <= qs.edge_count <= g.edge_count


def test_criterion_5_chain_family_quantitative():
    with criterion(5, "chain family quotient sizes, n up to 10^4"):
        for n in (10, 100, 1000, 10_000):
            g = gen_chain(n, 1, ODD, 0)
            reduced, _ = quotient(g, refine_stuttering(g))
            assert reduced.vertex_count == 2, n
            assert reduced.edge_count == 2, n
            strong, _ = quotient(g, refine_strong(g))
            assert strong.vertex_count == n + 1, n


def test_criterion_6_strategy_lifting():
    with criterion(6, "lifted strategies verify, 500 games, both players"):
        for seed in range(500):
            n = 1 + (seed * 104729) % 60
            g = gen_random(n, 3, 3, seed + 10_000)
            part = refine_stuttering(g)
            reduced, vmap = quotient(g, part)
            lifted = lift_solution(g, part, reduced, vmap, solve_zielonka(reduced))
            for player in (EVEN, ODD):
                result = verify_strategy(
                    g, player, lifted.region(player), lifted.strategy(player)
                )
                assert result.ok, (seed, player, result)


def test_criterion_7_memoryless_collapse():
    with criterion(7, "mimick move agreement on shared endpoints, 100 games"):
        rng = Xoshiro256StarStar(271828)
        for seed in range(100):
            n = 2 + (seed * 47) % 40
            g = gen_random(n, 3, 3, seed + 20_000)
            part = refine_stuttering(g)
            reduced, vmap = quotient(g, part)
            reduced_solution = solve_zielonka(reduced)
            lifted = lift_solution(g, part, reduced, vmap, reduced_solution)
            for player in (EVEN, ODD):
                ctx = Lifting(g, part, reduced, vmap, reduced_solution, player)
                own_won = [
                    v for v in lifted.region(player) if g.owner[v] == player
                ]
                if not own_won:
                    continue
                walks_by_endpoint: dict[int, list[list[int]]] = {}
                for _ in range(25):
                    start = own_won[rng.below(len(own_won))]
                    walk = random_consistent_walk(g, ctx, rng, start)
                    while walk and g.owner[walk[-1]] != player:
                        walk.pop()
                    if walk:
                        walks_by_endpoint.setdefault(walk[-1], []).append(walk)
                for endpoint, walks in walks_by_endpoint.items():
                    moves = {mimick_next(ctx, tuple(w)) for w in walks}
                    assert len(moves) == 1, (seed, player, endpoint)


GOLDEN_RANDOM_8_3_3_42 = (
    "parity 7;\n0 2 0 0,1,4;\n1 2 1 1,5;\n2 1 0 2,5;\n3 1 0 2;\n"
    "4 1 1 7;\n5 0 0 0,2;\n6 2 1 0,2,4;\n7 3 1 2,3,5;"
)
GOLDEN_RANDOM_5_2_1_7 = (
    "parity 4;\n0 0 0 4;\n1 0 1 1;\n2 0 1 1,2;\n3 1 0 0,4;\n4 1 1 2,3;"
)


def test_criterion_8_round_trip_and_determinism():
    with criterion(8, "serialisation round-trip and generator determinism"):
        for g in fixture_games():
            assert parse_pgsolver(write_pgsolver(g)) == g
        for seed in range(100):
            g = gen_random(1 + seed % 25, 3, 3, seed + 30_000)
            assert parse_pgsolver(write_pgsolver(g)) == g
        assert write_pgsolver(gen_random(8, 3, 3, 42)) == GOLDEN_RANDOM_8_3_3_42
        assert write_pgsolver(gen_random(8, 3, 3, 42)) == GOLDEN_RANDOM_8_3_3_42
        assert write_pgsolver(gen_random(5, 2, 1, 7)) == GOLDEN_RANDOM_5_2_1_7


def test_criterion_9_performance_and_harness():
    with criterion(9, "10^5-vertex stuttering reduction < 10 s; 20-game CSV grid"):
        big = gen_random(100_000, 5, 3, 20260808)
        assert big.edge_count > 250_000
        t0 = time.perf_counter()
        part = refine_stuttering(big)
        elapsed = time.perf_counter() - t0
        print(f"  stuttering reduction of |V|=10^5: {elapsed:.2f}s "
              f"({part.block_count} blocks)")
        assert elapsed < 10.0

        grid = [(f"chain-{n}", gen_chain(n, 1, ODD, 0)) for n in (10, 100, 1000)]
        grid += [
            (f"random-{n}-s{i}", gen_random(n, 3, 3, 50_000 + i))
            for i, n in enumerate(
                [20, 40, 60, 80, 100, 120, 150, 180, 210, 250,
                 290, 330, 370, 410, 450, 480, 500]
            )
        ]
        assert len(grid) == 20
        records = run_benchmark(grid, repetitions=1)
        assert len(records) == 60
        text = records_to_csv(records)
        lines = text.splitlines()
        assert lines[0].startswith("#") and lines[1] == CSV_HEADER
        width = len(CSV_HEADER.split(","))
        winners: dict[str, set[str]] = {}
        for row in lines[2:]:
            cols = row.split(",")
            assert len(cols) == width
            float(cols[7]), float(cols[8]), float(cols[9])
            assert cols[10] in ("0", "1")
            winners.setdefault(cols[0], set()).add(cols[10])
        assert all(len(ws) == 1 for ws in winners.values())
