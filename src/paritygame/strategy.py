"""Lifting winning strategies from a stuttering quotient back to the
original game, plus an independent strategy verifier.

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

:func:`verify_strategy` is the safety net: it checks region closure and
the parity of every cycle of the strategy-restricted graph, so a defective
lifted strategy is reported as a hard error instead of being trusted.  It
builds the restricted successor table once and decomposes it into nested
strongly connected components, peeling each won component's
minimum-priority vertices.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import compress

from .game import EVEN, ODD, Game, Strategy
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


@dataclass
class VerifyResult:
    ok: bool
    reason: str = ""
    witness: tuple = field(default_factory=tuple)

    def __bool__(self) -> bool:
        return self.ok


def _find_cycle(start: int, comp: set[int], succ) -> list[int]:
    """A cycle through ``start`` inside a strongly connected set."""
    parent: dict[int, int] = {}
    frontier = deque([start])
    while frontier:
        x = frontier.popleft()
        for w in succ(x):
            if w == start:
                cycle = [x]
                while x != start:
                    x = parent[x]
                    cycle.append(x)
                return list(reversed(cycle))
            if w in comp and w not in parent:
                parent[w] = x
                frontier.append(w)
    raise RuntimeError("no cycle through a cyclic SCC vertex")


def verify_strategy(
    game: Game, player: int, region, strategy: Strategy
) -> VerifyResult:
    """Independent check that ``strategy`` wins everywhere on ``region``.

    Verifies (a) the opponent cannot leave the region and the strategy does
    not either, vertex by vertex in ascending order, and (b) every cycle of
    the strategy-restricted graph inside the region has a minimum priority
    of the player's parity.  On failure the result carries an escaping
    edge, an uncovered vertex, or a witness cycle.  A region naming a
    vertex the game does not have raises :class:`ValueError`.

    The cycle condition is checked by nested strongly connected components
    (Emerson and Lei, LICS 1986) over one restricted successor table: the
    strategy's move at the player's vertices, every successor at the
    opponent's.  A cyclic component whose minimum priority has the
    opponent's parity holds a losing cycle through a vertex of that
    priority.  Otherwise every cycle of the component through such a vertex
    is won, and the cycles that avoid them lie inside the components of
    what is left without them, which are decomposed in turn.
    """
    n = game.vertex_count
    owner, priority, successors = game.owner, game.priority, game.successors
    moves = strategy.moves
    opponent = 1 - player
    inside = [False] * n
    for v in region:
        if not 0 <= v < n:
            raise ValueError(f"region vertex {v} is not a vertex of the game")
        inside[v] = True
    members = list(compress(range(n), inside))
    restricted = list(successors)
    for v in members:
        if owner[v] == opponent:
            for w in successors[v]:
                if not inside[w]:
                    return VerifyResult(False, "opponent can escape the region", (v, w))
        else:
            if v not in moves:
                return VerifyResult(False, "strategy undefined inside the region", (v,))
            w = moves[v]
            if w not in successors[v]:
                return VerifyResult(False, "strategy move is not a game edge", (v, w))
            if not inside[w]:
                return VerifyResult(False, "strategy leaves the region", (v, w))
            restricted[v] = (w,)

    pending = [members]
    while pending:
        for comp in strongly_connected_components(pending.pop(), restricted):
            if len(comp) == 1 and comp[0] not in restricted[comp[0]]:
                continue
            q = min(map(priority.__getitem__, comp))
            if q % 2 == opponent:
                start = min(v for v in comp if priority[v] == q)
                cycle = _find_cycle(start, set(comp), restricted.__getitem__)
                return VerifyResult(
                    False, f"cycle with losing minimal priority {q}", tuple(cycle)
                )
            rest = [v for v in comp if priority[v] != q]
            if rest:
                pending.append(rest)
    return VerifyResult(True)


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
