"""Solver correctness: attractor, Zielonka, progress measures, brute force."""

import sys

import pytest

from paritygame import (
    EVEN,
    ODD,
    Game,
    attractor,
    gen_chain,
    gen_divergent_pair,
    gen_random,
    solve,
    solve_brute,
    solve_spm,
    solve_zielonka,
    verify_strategy,
)


def test_attractor_chain_pulls_everything():
    g = gen_chain(3, 1, ODD, 0)
    assert attractor(g, EVEN, [3]) == [0, 1, 2, 3]


def test_attractor_choice_vertex(g4):
    assert attractor(g4, EVEN, [1]) == [0, 1]


def test_attractor_of_everything_is_everything(g4):
    assert attractor(g4, ODD, list(g4.vertices())) == [0, 1, 2]


def test_attractor_opponent_needs_all_edges(g4):
    # b is odd-owned with only its self-loop; v escapes to a
    assert attractor(g4, ODD, [2]) == [2]


def test_zielonka_forced_cycle(g1):
    sol = solve_zielonka(g1)
    assert sol.winner == [EVEN, EVEN]


def test_zielonka_choice(g4):
    sol = solve_zielonka(g4)
    assert sol.winner == [EVEN, EVEN, ODD]
    assert sol.strategy_even.moves == {0: 1, 1: 1}
    assert sol.strategy_odd.moves == {2: 2}


def test_zielonka_divergent_pair():
    sol = solve_zielonka(gen_divergent_pair())
    assert sol.winner == [ODD, ODD, EVEN]


def test_brute_examples(g1, g4):
    assert solve_brute(g4).winner == [EVEN, EVEN, ODD]
    assert solve_brute(g1).winner == [EVEN, EVEN]
    loner = Game(priority=[1], owner=[ODD], successors=[[0]])
    assert solve_brute(loner).winner == [ODD]


def test_brute_rejects_large_games():
    with pytest.raises(ValueError):
        solve_brute(gen_random(11, 3, 3, 0))


def test_spm_agrees_on_fixtures(g1):
    assert solve_spm(g1).winner == solve_zielonka(g1).winner
    assert solve_spm(gen_divergent_pair()).winner == [ODD, ODD, EVEN]


def test_spm_cross_validation_sample():
    for seed in range(100):
        g = gen_random(1 + seed % 8, 3, 3, seed)
        assert solve_spm(g).winner == solve_zielonka(g).winner, seed


def test_three_way_agreement_sample():
    for seed in range(100):
        g = gen_random(1 + seed % 8, 3, 3, seed + 5000)
        wz = solve_zielonka(g).winner
        assert solve_spm(g).winner == wz, seed
        assert solve_brute(g).winner == wz, seed


def test_zielonka_nests_deeper_than_the_recursion_limit():
    # vertex i has priority 2i, owner i mod 2 and edges {i, i+1}: every
    # level peels off one vertex, so Zielonka nests 3,000 levels
    n = 3000
    g = Game(
        [2 * i for i in range(n)],
        [i % 2 for i in range(n)],
        [[i, i + 1] for i in range(n - 1)] + [[n - 1]],
    )
    limit = sys.getrecursionlimit()
    sol = solve_zielonka(g)
    assert sys.getrecursionlimit() == limit
    assert sol.winner == [EVEN] * n
    assert verify_strategy(g, EVEN, list(g.vertices()), sol.strategy_even).ok


def test_solution_invariants_and_strategy_soundness():
    for solver in (solve_zielonka, solve_spm, solve_brute):
        for seed in range(40):
            g = gen_random(1 + seed % 8, 3, 3, seed)
            sol = solver(g)
            # every vertex has exactly one winner
            assert all(w in (EVEN, ODD) for w in sol.winner)
            for player in (EVEN, ODD):
                strat = sol.strategy(player)
                region = sol.region(player)
                assert set(strat.moves) == {
                    v for v in region if g.owner[v] == player
                }, (solver.__name__, seed)
                assert strat.is_valid(g)
                res = verify_strategy(g, player, region, strat)
                assert res.ok, (solver.__name__, seed, player, res)


def test_region_closure():
    for seed in range(60):
        g = gen_random(1 + seed % 14, 3, 3, seed)
        sol = solve_zielonka(g)
        for v in g.vertices():
            winner = sol.winner[v]
            if g.owner[v] != winner:
                assert all(sol.winner[w] == winner for w in g.successors[v])


def test_solver_dispatch(g1):
    assert solve(g1, "spm").winner == solve(g1, "zielonka").winner
    with pytest.raises(ValueError):
        solve(g1, "magic")


def test_progress_measure_lattice_invariants():
    from paritygame import progress_measure

    for seed in range(40):
        g = gen_random(1 + seed % 10, 3, 3, seed)
        measure = progress_measure(g)
        winner = solve_zielonka(g).winner
        for v in g.vertices():
            assert measure.in_bounds(v)
            assert measure.is_top(v) == (winner[v] == ODD), (seed, v)
        assert measure.odd_priorities == sorted(measure.odd_priorities, reverse=True)


def test_all_losing_game_lifts_to_top():
    # two odd self-loops: the even player wins nothing, every measure tops out
    g = Game(priority=[1, 3], owner=[EVEN, ODD], successors=[[0], [1]])
    for solver in (solve_zielonka, solve_spm, solve_brute):
        sol = solver(g)
        assert sol.winner == [ODD, ODD]
        assert sol.strategy_even.moves == {}
        assert sol.strategy_odd.moves == {1: 1}


def test_single_vertex_games():
    for priority, expected in ((0, EVEN), (1, ODD), (2, EVEN)):
        g = Game(priority=[priority], owner=[priority % 2], successors=[[0]])
        for solver in (solve_zielonka, solve_spm, solve_brute):
            assert solver(g).winner == [expected]


def test_solvers_on_reduced_chain_agree_with_direct():
    from paritygame import quotient, refine_stuttering

    g = gen_chain(30, 1, ODD, 0)
    direct = solve_zielonka(g)
    reduced, vmap = quotient(g, refine_stuttering(g))
    qsol = solve_zielonka(reduced)
    assert all(direct.winner[v] == qsol.winner[vmap[v]] for v in g.vertices())
