"""Edge-subdivided games: ``stretch`` pads every edge with vertices of its
source's priority and owner, which changes no winner and which
stuttering reduction removes."""

import pytest

from paritygame import (
    EVEN,
    ODD,
    Game,
    gen_random,
    lift_solution,
    quotient,
    refine_stuttering,
    solve,
    verify_strategy,
)

from helpers import stretch

# 300 random base games of 3 to 12 vertices
BASES = [gen_random(3 + seed % 10, 3, 4, seed) for seed in range(300)]
SOLVERS = ["zielonka", "spm"]


def test_stretch_pads_each_edge_with_its_sources_priority_and_owner():
    g = Game([0, 1], [EVEN, ODD], [[0, 1], [0]])
    assert stretch(g, 2) == Game(
        [0, 1, 0, 0, 0, 0, 1, 1],
        [EVEN, ODD, EVEN, EVEN, EVEN, EVEN, ODD, ODD],
        [[2, 4], [6], [3], [0], [5], [1], [7], [0]],
    )


def test_stretch_by_zero_is_the_game():
    for g in BASES:
        assert stretch(g, 0) == g


@pytest.mark.parametrize("algorithm", SOLVERS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_base_vertices_keep_their_winners(k, algorithm):
    for g in BASES:
        assert solve(stretch(g, k), algorithm).winner[: g.vertex_count] == solve(g, algorithm).winner


@pytest.mark.parametrize("algorithm", SOLVERS)
@pytest.mark.parametrize("k", [1, 2, 3])
def test_the_stuttering_route_wins_where_the_direct_one_does(k, algorithm):
    for g in BASES:
        s = stretch(g, k)
        part = refine_stuttering(s)
        reduced, vmap = quotient(s, part)
        lifted = lift_solution(s, part, reduced, vmap, solve(reduced, algorithm))
        assert lifted.winner == solve(s, algorithm).winner
        for player in (EVEN, ODD):
            assert verify_strategy(s, player, lifted.region(player), lifted.strategy(player))


def test_stuttering_blocks_do_not_depend_on_the_padding_length():
    for g in BASES:
        counts = {refine_stuttering(stretch(g, k)).block_count for k in (1, 2, 3)}
        assert len(counts) == 1
