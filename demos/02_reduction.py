"""Minimising games with strong bisimilarity and stuttering equivalence.

Strong bisimilarity matches single steps, so it counts: two vertices at
different distances from the interesting part of the game never merge.
Stuttering equivalence collapses runs of same-priority, same-owner
vertices and only keeps the branching that matters, which is why it
compresses chain-like structures to a constant size.
"""

from paritygame import (
    EVEN,
    ODD,
    Game,
    gen_chain,
    quotient,
    refine_strong,
    refine_stuttering,
    write_partition,
    write_pgsolver,
)

print(f"{'n':>6}  {'original':>9}  {'strong':>7}  {'stuttering':>10}")
for n in (10, 100, 1000, 10000):
    game = gen_chain(n, 1, ODD, 0)
    strong, _ = quotient(game, refine_strong(game))
    stut, _ = quotient(game, refine_stuttering(game))
    print(
        f"{n:>6}  {game.vertex_count:>9}  {strong.vertex_count:>7}  "
        f"{stut.vertex_count:>10}"
    )

# The whole chain is one stuttering block; only the sink stays separate.
game = gen_chain(5, 1, ODD, 0)
part = refine_stuttering(game)
print("\nblock map of the 5-chain (vertex, block, divergent):")
print(write_partition(part))

reduced, vmap = quotient(game, part)
print("\nits quotient game:")
print(write_pgsolver(reduced))

# Divergence decides self-loops: an infinite path inside a block becomes
# a self-loop on the block.  In this divergent pair two odd vertices form
# a cycle with an escape to a self-looping even sink, and both blocks of
# the quotient keep a self-loop.
pair = Game([1, 1, 0], [ODD, ODD, EVEN], [[1], [0, 2], [2]])
reduced, _ = quotient(pair, refine_stuttering(pair))
print("\ndivergent pair quotient (note both self-loops):")
print(write_pgsolver(reduced))
