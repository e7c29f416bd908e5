"""Lifting winning strategies from a stuttering quotient back to the
original game.

Given a winning memoryless strategy on the quotient, the lifted strategy
shadows it.  Take a member ``v``, owned by the lifting player, of a winning
block ``b`` whose quotient move goes to another block ``t``.  Its target
vertex is the least vertex of ``t`` reachable from ``v`` by intra-block
moves followed by one exit edge.  ``v`` moves straight to its target
vertex when that is an edge; otherwise it moves to the intra-block
successor fewest intra-block steps away from an exit onto that target,
the least such successor on ties.  Where the quotient strategy stays put
(a divergent block's self-loop), ``v`` takes its least intra-block
successor and the play stays inside the block.

:func:`lift_strategy` computes these moves in one pass per winning block.
A one-member block needs no search: its vertex's least successor in ``t``
is its target and a direct exit.  A larger block groups its exit edges by
the vertex of ``t`` they enter and runs one backward breadth-first search
per such vertex ``x``, least first, over in-block predecessors not yet
claimed.  The search for ``x`` claims exactly the members whose target is
``x``, each with its distance to an exit onto ``x``; no condensation of
the block is needed.  The path-level mimicking construction, which
defines the same moves for any play, lives in the tests
(``tests/lifting_reference.py``) as the reference the per-block pass is
compared against.

:func:`verify_strategy`, the independent check a lifted strategy is held
to, lives in :mod:`paritygame.game` next to :class:`Strategy`, so that the
solvers can run it too; it is re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import EVEN, ODD, Game, Strategy
from .game import VerifyResult, verify_strategy  # re-exported
from .reduction import Partition
from .solvers import Solution


@dataclass
class LiftContext:
    """Everything needed to transport one player's quotient strategy back
    to the original game.

    ``vmap`` sends each vertex to its quotient vertex (block);
    ``quotient_strategy`` must be winning for ``player`` on the quotient
    vertices listed in ``winning_blocks``.
    """

    game: Game
    partition: Partition
    quotient: Game
    vmap: list[int]
    quotient_strategy: Strategy
    player: int
    winning_blocks: set[int]

    def __post_init__(self):
        if self.partition.kind != "stuttering":
            raise ValueError("strategy lifting requires a stuttering partition")
        if self.vmap != self.partition.block_of:
            raise ValueError("vmap does not match the partition")
        if self.quotient_strategy.player != self.player:
            raise ValueError("quotient strategy belongs to the other player")
        for c, t in self.quotient_strategy.moves.items():
            if not self.quotient.has_edge(c, t):
                raise ValueError(f"quotient strategy move {c}->{t} is not an edge")

    @classmethod
    def from_solution(
        cls,
        game: Game,
        partition: Partition,
        quotient: Game,
        vmap: list[int],
        solution: Solution,
        player: int,
    ) -> "LiftContext":
        winning = {b for b in quotient.vertices() if solution.winner[b] == player}
        return cls(game, partition, quotient, vmap, solution.strategy(player), player, winning)

    def won_region(self) -> list[int]:
        """Preimage of the winning quotient vertices."""
        return [v for v in self.game.vertices() if self.vmap[v] in self.winning_blocks]


def _lift_block(ctx: LiftContext, b: int, moves: dict[int, int]):
    """Record in ``moves`` the lifted move of every member of winning
    block ``b``, owned by the lifting player: the direct edge to the
    member's target vertex, else the intra-block successor nearest an exit
    onto it, or the least intra-block successor when the quotient strategy
    stays on ``b``.  Targets and distances come from one ordered backward
    search per entry vertex (see the module docstring)."""
    game = ctx.game
    succ = game.successors
    vmap = ctx.vmap
    members = ctx.partition.blocks[b]
    if b not in ctx.quotient_strategy.moves:
        raise ValueError(f"quotient strategy undefined at winning block {b}")
    t = ctx.quotient_strategy.moves[b]
    if t == b:
        if not ctx.partition.divergent[b]:
            raise ValueError(f"quotient strategy stays at non-divergent block {b}")
        for v in members:
            stay = next((w for w in succ[v] if vmap[w] == b), None)
            if stay is None:
                raise ValueError(f"divergent block member {v} has no intra-block move")
            moves[v] = stay
        return
    if len(members) == 1:
        # Most blocks of a barely reducible game are singletons: the least
        # successor in t is both the target vertex and a direct exit.
        (v,) = members
        for w in succ[v]:
            if vmap[w] == t:
                moves[v] = w
                return
        raise ValueError(f"block {b} has no exit onto target block {t}: unstable partition")
    entries: dict[int, list[int]] = {}  # members by the vertex of t they exit onto
    for v in members:
        for w in succ[v]:
            if vmap[w] == t:
                entries.setdefault(w, []).append(v)
    # Every vertex on an in-block route from v to its target vertex shares
    # it, so the search for x claims exactly the members whose target is x,
    # each at its shortest distance from an exit onto x.
    target: dict[int, int] = {}
    dist: dict[int, int] = {}
    pred = game.predecessors
    for x in sorted(entries):
        frontier = [v for v in entries[x] if v not in dist]
        for v in frontier:
            target[v] = x
            dist[v] = 1
        for w in frontier:  # grows while it is read: a FIFO queue
            d = dist[w] + 1
            for q in pred[w]:
                if vmap[q] == b and q not in dist:
                    target[q] = x
                    dist[q] = d
                    frontier.append(q)
    if len(dist) != len(members):
        raise ValueError(f"block {b} has no exit onto target block {t}: unstable partition")
    for v in members:
        x = target[v]
        d = dist[v] - 1
        if d == 0:
            moves[v] = x
        else:
            # the least in-block successor one step nearer the same target
            moves[v] = next(u for u in succ[v] if dist.get(u) == d and target[u] == x)


def lift_strategy(ctx: LiftContext) -> Strategy:
    """Memoryless strategy on the original game induced by the quotient
    strategy: defined on the player's vertices of every winning block.

    Each winning block owned by the player is lifted in one pass (see
    the module docstring for the rule).  The tests compare the result
    with the path-level mimicking construction on every such vertex.
    """
    moves: dict[int, int] = {}
    for b in sorted(ctx.winning_blocks):
        if ctx.quotient.owner[b] == ctx.player:
            _lift_block(ctx, b, moves)
    return Strategy(ctx.player, dict(sorted(moves.items())))


def lift_solution(
    game: Game,
    partition: Partition,
    quotient_game: Game,
    vmap: list[int],
    quotient_solution: Solution,
) -> Solution:
    """Full solution of the original game out of a solved quotient: winners
    transfer along the block map and both strategies are lifted."""
    winner = [quotient_solution.winner[vmap[v]] for v in game.vertices()]
    strategies = {}
    for player in (EVEN, ODD):
        ctx = LiftContext.from_solution(
            game, partition, quotient_game, vmap, quotient_solution, player
        )
        strategies[player] = lift_strategy(ctx)
    return Solution(winner, strategies[EVEN], strategies[ODD])
