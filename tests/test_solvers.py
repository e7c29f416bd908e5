"""Solver correctness: attractor, Zielonka, progress measures, the
brute-force oracle, and the preprocessing driver behind ``solve``."""

import sys
import time
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paritygame import (
    EVEN,
    ODD,
    Game,
    gen_chain,
    gen_random,
    solve,
    verify_strategy,
)
import paritygame
import paritygame.solvers as solvers
from paritygame.solvers import solve_spm
from paritygame.generators import Xoshiro256StarStar

from helpers import (
    alternating_chain,
    gen_divergent_pair,
    priority_ladder,
    small_games,
    solve_zielonka,
    strategy_is_valid,
)
from oracles import solve_brute
from test_refinement_reference import game_zoo
from test_solver_reference import SPM_FAMILIES, progress_measure


def attract(g: Game, player: int, targets: list[int]) -> list[int]:
    """The attractor of ``targets`` for ``player`` in the whole game,
    ascending."""
    attr, _ = solvers._attract(g, player, targets, [True] * g.vertex_count)
    return sorted(attr)


def test_attractor_chain_pulls_everything():
    g = gen_chain(3, 1, ODD, 0)
    assert attract(g, EVEN, [3]) == [0, 1, 2, 3]


def test_attractor_choice_vertex(g4):
    assert attract(g4, EVEN, [1]) == [0, 1]


def test_attractor_of_everything_is_everything(g4):
    assert attract(g4, ODD, list(g4.vertices())) == [0, 1, 2]


def test_attractor_opponent_needs_all_edges(g4):
    # b is odd-owned with only its self-loop; v escapes to a
    assert attract(g4, ODD, [2]) == [2]


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


def _frame_depth() -> int:
    """How many frames sit above the caller's."""
    depth, frame = 0, sys._getframe().f_back
    while frame.f_back is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_zielonka_nests_deeper_than_the_recursion_limit(monkeypatch):
    # vertex i has priority 2i, owner i mod 2 and edges {i, i+1}: every
    # level peels off one vertex, so Zielonka nests 3,000 levels through
    # its first sub-level; the whole priority ladder of 180 re-runs levels
    # throughout.  Every attractor runs at the same frame depth.
    n = 3000
    deep = Game(
        [2 * i for i in range(n)],
        [i % 2 for i in range(n)],
        [[i, i + 1] for i in range(n - 1)] + [[n - 1]],
    )
    attract = solvers._attract
    depths = []

    def recording(*args):
        depths.append(_frame_depth())
        return attract(*args)

    monkeypatch.setattr(solvers, "_attract", recording)
    limit = sys.getrecursionlimit()
    for g, winner in ((deep, [EVEN] * n), (priority_ladder(180), [v % 2 for v in range(180)])):
        depths.clear()
        sol = solve_zielonka(g)
        assert sys.getrecursionlimit() == limit
        assert len(set(depths)) == 1
        assert sol.winner == winner
        for player in (EVEN, ODD):
            assert verify_strategy(g, player, sol.region(player), sol.strategy(player)).ok


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
                assert strategy_is_valid(strat, g)
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


# ---------------------------------------------------------------------------
# The preprocessing driver: self-loop dominions, attractor closure, then the
# Zielonka core on the remainder or SPM per strongly connected component.
# Its strategies may differ from the whole-game solvers', so it is held to
# equal winners and strategies that verify.


def assert_solves(g, sol, winner):
    """``sol`` has the winners ``winner`` and, for each player, a strategy
    defined on exactly the vertices it owns and wins, which verifies."""
    assert sol.winner == winner
    for player in (EVEN, ODD):
        region = sol.region(player)
        strategy = sol.strategy(player)
        assert set(strategy.moves) == {v for v in region if g.owner[v] == player}
        res = verify_strategy(g, player, region, strategy)
        assert res.ok, (player, res)


def test_solve_offers_only_the_complete_solvers(g4):
    # the brute-force oracle lives with the tests; solve used to run it
    with pytest.raises(ValueError, match="^unknown algorithm 'brute'$"):
        solve(g4, "brute")


@pytest.mark.parametrize("name", ["solve_zielonka", "solve_spm", "attractor"])
def test_solve_is_the_only_exported_solver(name):
    # the whole-game solvers keep the cliffs solve's preprocessing removes
    assert not hasattr(paritygame, name)
    assert name not in paritygame.__all__


def _game_zoo():
    rng = Xoshiro256StarStar(4242)
    return [game_zoo(trial, rng) for trial in range(400)]


def _chains():
    return [
        gen_chain(n, p, o, s)
        for n in (1, 2, 7, 30, 200)
        for p in range(3)
        for o in (EVEN, ODD)
        for s in range(3)
    ]


DRIVER_FAMILIES = {
    "criterion-1": lambda: [gen_random(1 + s % 8, 1 + s % 3, s % 4, s) for s in range(500)],
    "game-zoo": _game_zoo,
    "ladders": lambda: [priority_ladder(n) for n in range(1, 201)],
    "chains": _chains,
    "alternating-chains": lambda: [alternating_chain(n) for n in range(1, 41)],
}


@pytest.mark.parametrize("family", sorted(DRIVER_FAMILIES))
def test_driver_wins_what_zielonka_wins(family):
    for i, g in enumerate(DRIVER_FAMILIES[family]()):
        winner = solve_zielonka(g).winner
        for algorithm in ("zielonka", "spm"):
            sol = solve(g, algorithm)
            assert sol.winner == winner, (i, algorithm)
            assert_solves(g, sol, winner)


def test_driver_without_winning_self_loops_is_the_whole_game_zielonka():
    checked = 0
    for seed in range(300):
        g = gen_random(1 + seed % 30, 1 + seed % 4, seed % 6, seed)
        if any(v in g.successors[v] and g.priority[v] % 2 == g.owner[v] for v in g.vertices()):
            continue
        ref, sol = solve_zielonka(g), solve(g, "zielonka")
        assert sol.winner == ref.winner
        assert list(sol.strategy_even.moves.items()) == list(ref.strategy_even.moves.items())
        assert list(sol.strategy_odd.moves.items()) == list(ref.strategy_odd.moves.items())
        checked += 1
    assert checked > 100


# At most two successors, so that brute force enumerates few strategies.
@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    small_games(max_vertices=10, max_priority=4, max_successors=2),
    st.sampled_from(["zielonka", "spm"]),
)
def test_driver_preserves_the_brute_force_winners(g, algorithm):
    assert_solves(g, solve(g, algorithm), solve_brute(g).winner)


LADDER_WINNER = [v % 2 for v in range(3000)]


@pytest.mark.parametrize(
    "game, algorithm, winner",
    [
        (lambda: priority_ladder(3000), "zielonka", LADDER_WINNER),
        (lambda: priority_ladder(3000), "spm", LADDER_WINNER),
        (lambda: gen_chain(20000, 1, ODD, 0), "spm", [EVEN] * 20001),
    ],
    ids=["ladder-zielonka", "ladder-spm", "odd-chain-spm"],
)
def test_driver_settles_self_loop_games_in_linear_time(game, algorithm, winner):
    # the whole-game solvers take minutes or more on these: Zielonka opens
    # about n^2/4 levels on the ladder, SPM makes about 2^(n/2) lifts on it
    # and a quadratic number on the chain
    g = game()
    t0 = time.perf_counter()
    assert_solves(g, solve(g, algorithm), winner)
    assert time.perf_counter() - t0 < 10.0


def test_spm_driver_is_linear_on_a_chain_that_preprocessing_leaves_whole():
    # the sink's self-loop loses for its owner, so nothing is settled before
    # the component pass, which runs over all 20,001 vertices, 20,000 deep
    g = gen_chain(20000, 1, EVEN, 1)
    t0 = time.perf_counter()
    assert_solves(g, solve(g, "spm"), [ODD] * 20001)
    assert time.perf_counter() - t0 < 10.0


def test_spm_memory_follows_the_priorities_present_not_the_largest():
    # the measure layout held one entry per priority value up to the
    # largest: 16 MB here, gigabytes for a priority of 10**9 + 1
    g = Game([0, 10**6 + 1], [EVEN, ODD], [[1], [0]])
    tracemalloc.start()
    try:
        sol = solve(g, "spm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024
    assert_solves(g, sol, [EVEN, EVEN])


# ---------------------------------------------------------------------------
# The race between solve_spm's two halves.


@contextmanager
def recorded_halves():
    """Record the lifting states solve_spm builds, and the budget of every
    slice they run, while the block is active."""
    halves, budgets = [], []
    real_init, real_run = solvers._SpmHalf.__init__, solvers._SpmHalf.run

    def init(half, game, player):
        real_init(half, game, player)
        halves.append(half)

    def run(half, budget):
        budgets.append(budget)
        return real_run(half, budget)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers._SpmHalf, "__init__", init)
        mp.setattr(solvers._SpmHalf, "run", run)
        yield halves, budgets


def dual_game(g: Game) -> Game:
    return Game([p + 1 for p in g.priority], [1 - o for o in g.owner], g.successors)


def unseeded_measure(g: Game, player: int) -> list[int]:
    half = solvers._SpmHalf(g, player)
    while not half.run(g.vertex_count):
        pass
    return half.value


def assert_race_ends_at_unseeded_measures(g: Game):
    with recorded_halves() as (halves, _):
        solve_spm(g)
    even, odd = halves
    assert even.value == unseeded_measure(g, EVEN)
    assert odd.value == unseeded_measure(g, ODD)
    # the odd player's measures are the even player's on the dual game
    # (owners swapped, priorities shifted by one)
    assert odd.value == unseeded_measure(dual_game(g), EVEN)


@pytest.mark.parametrize("family", sorted(SPM_FAMILIES))
def test_raced_halves_end_at_the_unseeded_measures(family):
    for i, g in enumerate(SPM_FAMILIES[family]()):
        try:
            assert_race_ends_at_unseeded_measures(g)
        except AssertionError as exc:
            raise AssertionError(f"game {i}") from exc


@settings(deadline=None, derandomize=True, max_examples=200)
@given(small_games(max_vertices=9, max_priority=11, max_successors=3))
def test_raced_halves_end_at_the_unseeded_measures_property(g):
    assert_race_ends_at_unseeded_measures(g)


@pytest.mark.parametrize("dual", [False, True], ids=["game", "dual"])
@pytest.mark.parametrize("n", [400, 800])
def test_spm_race_has_no_counting_cliff(n, dual):
    # Solved by independent halves, these remainders took 355 (n = 400)
    # and 465 (n = 800) visits per vertex, the opponent's measures climbing
    # to top one step per lap.  A slice visits at most its budget.
    g = gen_random(n, 3, 3, 3)
    if dual:
        g = dual_game(g)
    with recorded_halves() as (halves, budgets):
        sol = solve(g, "spm")
    remainder = sum(len(half.value) for half in halves) // 2
    assert remainder > n // 2
    assert sum(budgets) <= 20 * remainder
    assert_solves(g, sol, solve_zielonka(g).winner)


def test_spm_rejects_a_seed_with_one_extra_vertex():
    # The extra vertex is top in the half that converged first, and the
    # seed makes it top in the other: no half wins it.  The seeded measure
    # is still a progress measure, so its strategy verifies on what it
    # claims; the check that every vertex has exactly one winner fires.
    g = gen_random(40, 3, 3, 3)
    won = solve_zielonka(g).region(EVEN)
    assert 0 < len(won) < g.vertex_count
    real_seed = solvers._SpmHalf.seed

    def corrupted(half, lost):
        lost = list(lost)
        real_seed(half, lost + [min(set(g.vertices()) - set(lost))])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers._SpmHalf, "seed", corrupted)
        with pytest.raises(RuntimeError, match="progress measure halves disagree at vertex"):
            solve_spm(g)


def test_spm_rejects_a_strategy_that_does_not_verify(g4):
    # vertex 0 wins by moving to the even self-loop 1; redirected to the
    # odd self-loop 2, the winners still agree but the strategy loses
    real_strategy = solvers._SpmHalf.strategy

    def corrupted(half):
        moves = real_strategy(half)
        if 0 in moves:
            moves[0] = 2
        return moves

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solvers._SpmHalf, "strategy", corrupted)
        with pytest.raises(
            RuntimeError, match=r"strategy of player 0 rejected: strategy leaves the region \(0, 2\)"
        ):
            solve_spm(g4)
