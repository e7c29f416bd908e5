"""Solving games and carrying quotient strategies back to the original.

Winning a reduced game is only half the story: to explain *how* a player
wins the original game we lift the quotient strategy.  Inside each block
the lifted strategy walks along intra-block edges towards an exit onto
the target vertex chosen from the quotient move; an independent verifier
then certifies the result, so nothing rests on the construction alone.
The same call lifts through a strong or a stuttering quotient.
"""

from paritygame import (
    EVEN,
    ODD,
    gen_random,
    lift_solution,
    quotient,
    refine_strong,
    refine_stuttering,
    solve,
    verify_strategy,
)

game = gen_random(10, 3, 2, 46)

# Two solvers, one answer.
for algorithm in ("zielonka", "spm"):
    solution = solve(game, algorithm)
    print(f"{algorithm:>8}: winners {solution.winner}")

direct = solve(game)
print("even strategy:", direct.strategy_even.moves)
print("odd strategy: ", direct.strategy_odd.moves)

# Reduce under each equivalence, solve the quotient, lift both strategies
# in one call, verify them.
for refine in (refine_strong, refine_stuttering):
    part = refine(game)
    reduced, vmap = quotient(game, part)
    print(f"\n{refine.__name__}: reduced {game.vertex_count} vertices to {reduced.vertex_count}")
    lifted = lift_solution(game, part, reduced, vmap, solve(reduced))

    for player in (EVEN, ODD):
        region = lifted.region(player)
        strategy = lifted.strategy(player)
        result = verify_strategy(game, player, region, strategy)
        print(f"player {player}: wins {region}, lifted moves {strategy.moves}, "
              f"verified: {result.ok}")
        assert result.ok and region == direct.region(player)
