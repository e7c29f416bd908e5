"""Path-level reference for strategy lifting.

Test equipment: the mimicking construction of the stuttering-lifting
proof, stated for an arbitrary play.  :func:`entry_set` gives the
vertices of new blocks a strategy-consistent continuation may enter,
:func:`target_class` and :func:`target_vertex` pick where the lifted
strategy steers, and :func:`mimick_next` is the move it makes.  The
library's :func:`paritygame.lift_solution` computes the same moves in one
pass per block; the tests compare the two on every owned vertex and check
that with a memoryless quotient strategy the selectors depend only on the
final vertex of the play.  They read one player's side of a solved
stuttering quotient from a :class:`Lifting` record.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from paritygame import Game, Partition, Solution, Strategy, lift_solution


#: Distance value for unreachable vertices.
INFINITY = math.inf


def distance(game: Game, v: int, u: int) -> int | float:
    """Least number of edges from ``v`` to ``u``; ``INFINITY`` when ``u`` is
    unreachable, 0 when ``v == u``."""
    if v == u:
        return 0
    seen = {v}
    frontier = deque([(v, 0)])
    while frontier:
        x, d = frontier.popleft()
        for w in game.successors[x]:
            if w == u:
                return d + 1
            if w not in seen:
                seen.add(w)
                frontier.append((w, d + 1))
    return INFINITY


@dataclass
class Lifting:
    """The inputs of :func:`paritygame.lift_solution` (``solution`` solves
    ``quotient``) and the player whose lifted moves the selectors
    compute."""

    game: Game
    partition: Partition
    quotient: Game
    vmap: list[int]
    solution: Solution
    player: int

    @property
    def quotient_strategy(self) -> Strategy:
        return self.solution.strategy(self.player)

    def wins(self, block: int) -> bool:
        return self.solution.winner[block] == self.player

    def lift(self) -> Solution:
        return lift_solution(self.game, self.partition, self.quotient, self.vmap, self.solution)


@dataclass(frozen=True)
class Path:
    """Non-empty finite vertex sequence; consecutive vertices must be joined
    by game edges (checked against a concrete game via :meth:`is_valid`)."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        if not self.vertices:
            raise ValueError("a path contains at least one vertex")

    def is_valid(self, game: Game) -> bool:
        vs = self.vertices
        if any(not (0 <= v < game.vertex_count) for v in vs):
            return False
        return all(game.has_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))


def consistent(game: Game, path: Path | Sequence[int], strategy: Strategy) -> bool:
    """True iff every move of the path taken at a strategy-owned vertex in
    the strategy's domain follows the strategy."""
    vs = path.vertices if isinstance(path, Path) else tuple(path)
    for j in range(len(vs) - 1):
        v = vs[j]
        if game.owner[v] == strategy.player and v in strategy.moves:
            if vs[j + 1] != strategy.moves[v]:
                return False
    return True


def _path_vertices(p: Path | Sequence[int]) -> tuple[int, ...]:
    return p.vertices if isinstance(p, Path) else tuple(p)


def _check_in_won_blocks(ctx: Lifting, vs: tuple[int, ...]):
    if not Path(vs).is_valid(ctx.game):
        raise ValueError("sequence is not a path of the game")
    for v in vs:
        if not ctx.wins(ctx.vmap[v]):
            raise ValueError(f"path vertex {v} lies outside the winning blocks")


def entry_set(ctx: Lifting, p: Path | Sequence[int]) -> list[int]:
    """Vertices of new blocks that strategy-consistent continuations of the
    play may enter next.

    With a memoryless quotient strategy the set is a function of the final
    block alone: the chosen successor block at own vertices (empty when the
    strategy stays on a divergent block), every other successor block at
    opponent vertices.
    """
    vs = _path_vertices(p)
    _check_in_won_blocks(ctx, vs)
    c = ctx.vmap[vs[-1]]
    if ctx.quotient.owner[c] == ctx.player:
        if c not in ctx.quotient_strategy.moves:
            raise ValueError(f"quotient strategy undefined at winning block {c}")
        t = ctx.quotient_strategy.moves[c]
        if t == c:
            return []
        return list(ctx.partition.blocks[t])
    out: list[int] = []
    for b in ctx.quotient.successors[c]:
        if b != c:
            out.extend(ctx.partition.blocks[b])
    return sorted(out)


def target_class(ctx: Lifting, p: Path | Sequence[int]) -> int:
    """Block of the least entry vertex: the unique block the lifted
    strategy will steer the play into."""
    entries = entry_set(ctx, p)
    if not entries:
        raise ValueError("target_class of an empty entry set")
    return ctx.vmap[min(entries)]


def target_vertex(ctx: Lifting, p: Path | Sequence[int]) -> int:
    """Least target-class vertex reachable by an intra-block run from the
    end of the play followed by a single exit edge."""
    tclass = target_class(ctx, p)
    vs = _path_vertices(p)
    last = vs[-1]
    b = ctx.vmap[last]
    game = ctx.game
    block_of = ctx.vmap
    closure = {last}
    stack = [last]
    while stack:
        x = stack.pop()
        for w in game.successors[x]:
            if block_of[w] == b and w not in closure:
                closure.add(w)
                stack.append(w)
    candidates = {
        u for w in closure for u in game.successors[w] if block_of[u] == tclass
    }
    if not candidates:
        raise ValueError("block has no exit onto the target class: unstable partition")
    return min(candidates)


def _exit_distances(ctx: Lifting, block: int, t: int) -> dict[int, int]:
    """Shortest number of steps from each block member to the target vertex
    ``t`` using intra-block edges and one final exit edge."""
    game = ctx.game
    members = ctx.partition.blocks[block]
    member_set = set(members)
    dist = {w: 1 for w in members if game.has_edge(w, t)}
    frontier = deque(sorted(dist))
    while frontier:
        w = frontier.popleft()
        for q in game.predecessors[w]:
            if q in member_set and q not in dist:
                dist[q] = dist[w] + 1
                frontier.append(q)
    return dist


def mimick_next(ctx: Lifting, p: Path | Sequence[int]) -> int:
    """Next move of the lifted strategy after play ``p`` (whose final
    vertex the lifting player owns).

    When an exit is wanted and directly available, take it; otherwise move
    to the inert successor closest to an exit onto the target vertex.
    Proximity is measured along intra-block steps: a globally short route
    that first leaves the block is no help to a play that must stay inert,
    and ranking by graph distance can lock the play into an intra-block
    cycle.  With an empty entry set the block is divergent and the play
    simply stays inside it.
    """
    vs = _path_vertices(p)
    last = vs[-1]
    game = ctx.game
    if game.owner[last] != ctx.player:
        raise ValueError(f"path ends at vertex {last} not owned by player {ctx.player}")
    entries = entry_set(ctx, p)
    b = ctx.vmap[last]
    inert = [u for u in game.successors[last] if ctx.vmap[u] == b]
    if not entries:
        if not ctx.partition.divergent[b]:
            raise ValueError(f"quotient strategy stays at non-divergent block {b}")
        if not inert:
            raise ValueError(f"divergent block member {last} has no intra-block move")
        return min(inert)
    t = target_vertex(ctx, p)
    if game.has_edge(last, t):
        return t
    dist = _exit_distances(ctx, b, t)
    if not any(u in dist for u in inert):
        raise ValueError(f"no inert route from {last} towards target vertex {t}")
    return min(inert, key=lambda u: (dist.get(u, float("inf")), u))
