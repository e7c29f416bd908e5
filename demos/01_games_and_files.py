"""Building parity games, querying them, and moving them through files.

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
    play_from,
    stats,
    write_pgsolver,
)

# A tiny game: vertex 0 (even player, priority 0) chooses between two
# self-loops, a good one (priority 0) and a bad one (priority 1).
game = Game(
    priority=[0, 0, 1],
    owner=[EVEN, EVEN, ODD],
    successors=[[1, 2], [1], [2]],
)
print("stats:", stats(game))

# Every Game is a parity game: a vertex without a successor, or an edge to
# a vertex that does not exist, is refused when the game is built.
try:
    Game(priority=[0, 1], owner=[EVEN, ODD], successors=[[1], [7]])
except ValueError as exc:
    print("rejected:", exc)

# Fix both players' moves and unfold the unique play from vertex 0.
even_strategy = Strategy(EVEN, {0: 1, 1: 1})
odd_strategy = Strategy(ODD, {2: 2})
play, winner = play_from(game, even_strategy, odd_strategy, 0)
print("play:", play.prefix, "then repeat", play.cycle, "-> winner", winner)

# PGSolver text round-trips exactly.
text = write_pgsolver(game)
print("\nPGSolver form:")
print(text)
assert parse_pgsolver(text) == game

# External tools usually read priorities max-first; the reflection keeps
# every winner while flipping the convention.
print("\nmax-parity form:")
print(write_pgsolver(convert_priorities(game, "min_to_max")))
