"""Helpers shared between the strategy tests and the acceptance suite."""

from paritygame import (
    EVEN,
    ODD,
    Game,
    LiftContext,
    quotient,
    refine_stuttering,
    solve_zielonka,
)


def alternating_chain(n: int) -> Game:
    """``n`` priority-1 vertices of alternating owner into a priority-0
    sink: no edge is inert, so stuttering splits one vertex per round."""
    owner = [EVEN if i % 2 == 0 else ODD for i in range(n)] + [EVEN]
    return Game([1] * n + [0], owner, [[i + 1] for i in range(n)] + [[n]])


def priority_ladder(n: int) -> Game:
    """Vertex i has priority i, owner i mod 2 and edges {i, i+1}; the last
    vertex only loops."""
    successors = [[i, i + 1] for i in range(n - 1)] + [[n - 1]]
    return Game(list(range(n)), [i % 2 for i in range(n)], successors)


def make_context(game: Game, player: int) -> LiftContext:
    part = refine_stuttering(game)
    reduced, vmap = quotient(game, part)
    qsol = solve_zielonka(reduced)
    return LiftContext.from_solution(game, part, reduced, vmap, qsol, player)


def random_consistent_walk(game, ctx, rng, start, max_len=10):
    """A play inside the winning blocks whose block projection follows the
    quotient strategy; at owned vertices it may also stay inert."""
    walk = [start]
    for _ in range(max_len):
        v = walk[-1]
        if game.owner[v] == ctx.player:
            c = ctx.vmap[v]
            tgt = ctx.quotient_strategy.moves[c]
            allowed = [
                w
                for w in game.successors[v]
                if ctx.vmap[w] == c or ctx.vmap[w] == tgt
            ]
        else:
            allowed = [
                w for w in game.successors[v] if ctx.vmap[w] in ctx.winning_blocks
            ]
        if not allowed:
            break
        walk.append(allowed[rng.below(len(allowed))])
    return walk
