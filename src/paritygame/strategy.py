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
The path-level mimicking construction, which defines the same moves for
any play, lives in the tests (``tests/lifting_reference.py``) as the
reference the per-block pass is compared against.

:func:`verify_strategy`, the independent check a lifted strategy is held
to, lives in :mod:`paritygame.game` next to :class:`Strategy`, so that the
solvers can run it too; it is re-exported here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .game import EVEN, ODD, Game, Strategy
from .game import VerifyResult, verify_strategy  # re-exported
from .graphs import strongly_connected_components
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
    block ``b``, owned by the lifting player, from one pass over the
    block: the direct edge to the member's target vertex, else the
    intra-block successor nearest an exit onto it, or the least
    intra-block successor when the quotient strategy stays on ``b``."""
    game = ctx.game
    succ = game.successors
    vmap = ctx.vmap
    members = ctx.partition.blocks[b]
    if b not in ctx.quotient_strategy.moves:
        raise ValueError(f"quotient strategy undefined at winning block {b}")
    t = ctx.quotient_strategy.moves[b]
    if len(members) == 1:
        # Most blocks of a barely reducible game are singletons: the only
        # intra-block move is a self-loop, and the least successor in the
        # target block is both the target vertex and a direct exit.
        (v,) = members
        if t == b:
            if not ctx.partition.divergent[b]:
                raise ValueError(f"quotient strategy stays at non-divergent block {b}")
            if v not in succ[v]:
                raise ValueError(f"divergent block member {v} has no intra-block move")
            moves[v] = v
            return
        for w in succ[v]:
            if vmap[w] == t:
                moves[v] = w
                return
        raise ValueError(f"block {b} has no exit onto target block {t}: unstable partition")
    intra = {v: [w for w in succ[v] if vmap[w] == b] for v in members}
    if t == b:
        if not ctx.partition.divergent[b]:
            raise ValueError(f"quotient strategy stays at non-divergent block {b}")
        for v in members:
            if not intra[v]:
                raise ValueError(f"divergent block member {v} has no intra-block move")
            moves[v] = intra[v][0]
        return
    # target(v): least class-t vertex reachable by an intra-block run from
    # v and one exit edge.  It is constant on intra-block SCCs, so one
    # sweep over them in reverse topological order finds it: members
    # without an intra-block move first, then the rest in Tarjan's order.
    sccs = [[v] for v in members if not intra[v]]
    inner = [v for v in members if intra[v]]
    if inner:
        sccs += strongly_connected_components(inner, intra)
    target: dict[int, int] = {}
    for comp in sccs:
        best = None
        for v in comp:
            for w in succ[v]:
                cand = w if vmap[w] == t else target.get(w)
                if cand is not None and (best is None or cand < best):
                    best = cand
        if best is None:
            raise ValueError(f"block {b} has no exit onto target block {t}: unstable partition")
        for v in comp:
            target[v] = best
    # Every vertex on a shortest route from v to an exit onto target(v)
    # shares v's target, so a backward search confined to v's target group
    # gives the same distances as one over the whole block.
    dist: dict[int, int] = {}
    frontier = deque()
    for v in members:
        if target[v] in succ[v]:
            dist[v] = 1
            frontier.append(v)
    while frontier:
        w = frontier.popleft()
        for q in game.predecessors[w]:
            if q not in dist and target.get(q) == target[w]:
                dist[q] = dist[w] + 1
                frontier.append(q)
    for v in members:
        tv = target[v]
        if dist[v] == 1:
            moves[v] = tv
        else:
            moves[v] = min(
                (u for u in intra[v] if target[u] == tv and u in dist),
                key=lambda u: (dist[u], u),
            )


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
