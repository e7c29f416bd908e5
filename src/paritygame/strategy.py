"""Lifting winning strategies from a quotient back to the original game.

The partition may be strong or stuttering: members of a strong block reach
the same blocks in one step, so a strong partition is stuttering-stable too.

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

:func:`lift_solution` carries a solved quotient back in one call: winners
transfer along the block map, and each player's moves are computed in one
pass per block that player owns and wins.  A one-member block that
leaves for ``t`` needs no search, and is lifted inline in that pass: its
vertex's least successor in ``t`` is its target and a direct exit.  A
larger block, or a divergent one that stays, goes to ``_lift_block``,
which groups a larger block's exit edges by the vertex of ``t`` they
enter and runs one backward breadth-first search per such vertex ``x``,
least first, over in-block predecessors not yet claimed.  The search for
``x`` claims exactly the members whose target is ``x``, each with its
distance to an exit onto ``x``; no condensation of the block is needed.
The path-level mimicking construction, which defines the same moves for
any play, lives in the tests (``tests/lifting_reference.py``) as the
reference the per-block pass is compared against.
"""

from __future__ import annotations

from .game import EVEN, ODD, Game, Solution, Strategy, _check_moves, _check_players
from .reduction import Partition, _check_block_map


def _lift_block(game: Game, partition: Partition, b: int, t: int, moves: dict[int, int]):
    """Record in ``moves`` the lifted move of every member of winning
    block ``b``, owned by the lifting player, whose quotient move goes to
    ``t``: the direct edge to the member's target vertex, else the
    intra-block successor nearest an exit onto it, or the least
    intra-block successor when ``t`` is ``b``.  Targets and distances come
    from one ordered backward search per entry vertex (see the module
    docstring); a one-member block that leaves is lifted by the caller."""
    succ = game.successors
    vmap = partition.block_of
    members = partition.blocks[b]
    if t == b:
        if not partition.divergent[b]:
            raise ValueError(f"quotient strategy stays at non-divergent block {b}")
        for v in members:
            stay = next((w for w in succ[v] if vmap[w] == b), None)
            if stay is None:
                raise ValueError(f"divergent block member {v} has no intra-block move")
            moves[v] = stay
        return
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


def lift_solution(
    game: Game,
    partition: Partition,
    quotient_game: Game,
    vmap: list[int],
    quotient_solution: Solution,
) -> Solution:
    """Full solution of the original game out of a solved quotient: winners
    transfer along the block map, and each player's strategy is lifted
    block by block (see the module docstring for the rule) on the
    player's vertices of every block the player owns and wins.

    Raises ``ValueError`` unless ``partition``, strong or stuttering,
    covers ``game``'s vertices with the block map ``vmap``, which names
    only blocks the partition lists, the quotient game has one vertex per
    block, each with the priority and owner of its block's least member,
    the quotient winner vector gives a player for exactly the quotient's
    vertices, and each quotient strategy belongs to its player, moves only
    at blocks and along quotient edges, is defined at every won block its
    player owns and stays only on divergent blocks; and when a block it
    lifts has a member with no in-block route onto the quotient move (an
    unstable partition).
    """
    _check_block_map(game, partition)
    if vmap != partition.block_of:
        raise ValueError("vmap does not match the partition")
    if quotient_game.vertex_count != partition.block_count:
        raise ValueError(
            f"quotient of {quotient_game.vertex_count} vertices "
            f"for a partition of {partition.block_count} blocks"
        )
    blocks, priority, owner = partition.blocks, game.priority, game.owner
    qpriority, qowner = quotient_game.priority, quotient_game.owner
    if [priority[m[0]] for m in blocks] != list(qpriority) or (
        [owner[m[0]] for m in blocks] != list(qowner)
    ):
        b, v = next(
            (b, m[0])
            for b, m in enumerate(blocks)
            if (qpriority[b], qowner[b]) != (priority[m[0]], owner[m[0]])
        )
        raise ValueError(
            f"quotient block {b} differs in priority or owner from its least member {v}"
        )
    qwinner = quotient_solution.winner
    if len(qwinner) != quotient_game.vertex_count:
        raise ValueError(
            f"quotient winner vector of length {len(qwinner)} "
            f"for {quotient_game.vertex_count} blocks"
        )
    _check_players(qwinner, "block")
    succ, qsucc = game.successors, quotient_game.successors
    lifted = []
    for player in (EVEN, ODD):
        strategy = quotient_solution.strategy(player)
        if strategy.player != player:
            raise ValueError("quotient strategy belongs to the other player")
        qmoves = strategy.moves
        _check_moves(qmoves)
        for c, t in qmoves.items():
            if not 0 <= c < quotient_game.vertex_count:
                raise ValueError(f"quotient strategy moves at {c}, which is not a block")
            if t not in qsucc[c]:
                raise ValueError(f"quotient strategy move {c}->{t} is not an edge")
        moves: dict[int, int] = {}
        for b, members in enumerate(blocks):
            if qwinner[b] == player and qowner[b] == player:
                if b not in qmoves:
                    raise ValueError(f"quotient strategy undefined at winning block {b}")
                t = qmoves[b]
                if t == b or len(members) > 1:
                    _lift_block(game, partition, b, t, moves)
                    continue
                # a one-member block leaves for t: its vertex's least
                # successor in t is both its target vertex and a direct exit
                (v,) = members
                for w in succ[v]:
                    if vmap[w] == t:
                        moves[v] = w
                        break
                else:
                    raise ValueError(
                        f"block {b} has no exit onto target block {t}: unstable partition"
                    )
        lifted.append(Strategy(player, dict(sorted(moves.items()))))
    return Solution([qwinner[b] for b in vmap], *lifted)
