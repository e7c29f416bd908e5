"""Building parity games, checking a strategy, and moving games and
solutions through files.

A parity game is a total directed graph: every vertex carries a priority
and an owner (player 0 = even, player 1 = odd).  The winner of an infinite
play is the parity of the lowest priority seen infinitely often.
"""

from paritygame import (
    EVEN,
    ODD,
    Game,
    Strategy,
    convert_priorities,
    parse_pgsolver,
    parse_solution,
    solve,
    verify_strategy,
    write_pgsolver,
    write_solution,
)

# A tiny game: vertex 0 (even player, priority 0) chooses between two
# self-loops, a good one (priority 0) and a bad one (priority 1).
game = Game(
    priority=[0, 0, 1],
    owner=[EVEN, EVEN, ODD],
    successors=[[1, 2], [1], [2]],
)
print(game, "with priorities", sorted(set(game.priority)))

# Every Game is a parity game: a vertex without a successor, or an edge to
# a vertex that does not exist, is refused when the game is built.
try:
    Game(priority=[0, 1], owner=[EVEN, ODD], successors=[[1], [7]])
except ValueError as exc:
    print("rejected:", exc)

# The solver gives every vertex's winner.  A memoryless strategy for the
# even player is checked on the region even wins: moving from 0 to the good
# loop wins there, moving to the bad loop leaves the region.
solution = solve(game)
print("winners:", solution.winner)
region = solution.region(EVEN)
for moves in ({0: 1, 1: 1}, {0: 2, 1: 1}):
    result = verify_strategy(game, EVEN, region, Strategy(EVEN, moves))
    print(f"even plays {moves} on {region}:", "wins" if result else result.reason)

# PGSolver text round-trips exactly.
text = write_pgsolver(game)
print("\nPGSolver form:")
print(text)
assert parse_pgsolver(text) == game

# A solution file is read against its game: one line per vertex, with a
# move exactly where the winner owns the vertex.  Reading back what the
# solver wrote gives the same solution.
solution_text = write_solution(
    game, solution.winner, solution.strategy_even, solution.strategy_odd
)
print("\nsolution form:")
print(solution_text)
read_back = parse_solution(solution_text, game)
print("read back equal:", read_back == solution)
assert read_back == solution

# External tools usually read priorities max-first; the reflection keeps
# every winner while flipping the convention.
print("\nmax-parity form:")
print(write_pgsolver(convert_priorities(game, "min_to_max")))
