"""Core parity game representation: games, memoryless strategies,
eventually-periodic plays (:func:`play_from`), graph distance and
priority conversion.

A parity game is a total directed graph whose vertices carry a natural
priority and an owning player.  The winner of an infinite play is decided
by the parity of the lowest priority occurring infinitely often
(min-parity convention; conversion helpers for max-parity inputs live in
:func:`convert_priorities`).

Vertices are dense integers ``0..n-1``.  The fixed total vertex order used
for all deterministic tie-breaking is plain ascending index.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Sequence

EVEN = 0
ODD = 1

#: Distance value for unreachable vertices.
INFINITY = math.inf


class Game:
    """Immutable parity game on dense vertex indices.

    Successor lists are normalised to duplicate-free ascending order and
    predecessor lists are derived from them.  Empty names read as ``None``,
    and a game without any name has ``names is None``, as a parsed file
    without names does.  Construction does not insist
    on the game invariants (so broken games can be inspected); run
    :func:`validate` to obtain the list of violations.
    """

    __slots__ = ("priority", "owner", "successors", "predecessors", "names")

    def __init__(
        self,
        priority: Sequence[int],
        owner: Sequence[int],
        successors: Sequence[Iterable[int]],
        names: Sequence[str | None] | None = None,
    ):
        n = len(priority)
        if len(owner) != n or len(successors) != n:
            raise ValueError("priority, owner and successors must have equal length")
        if names is not None and len(names) != n:
            raise ValueError("names must have one entry per vertex")
        owner = tuple(owner)
        if owner.count(EVEN) + owner.count(ODD) != n:
            for v, p in enumerate(owner):
                if p not in (EVEN, ODD):
                    raise ValueError(f"vertex {v}: owner must be {EVEN} (even) or {ODD} (odd)")
        priority = tuple(priority)
        if min(priority, default=0) < 0:
            for v, p in enumerate(priority):
                if p < 0:
                    raise ValueError(f"vertex {v}: priority must be a natural number")
        self.priority = priority
        self.owner = owner
        self.successors = tuple(map(tuple, map(sorted, map(set, successors))))
        if names is not None:
            names = tuple([nm or None for nm in names])
            if names.count(None) == n:
                names = None
        self.names = names
        self.predecessors = _predecessors(self.successors)

    @classmethod
    def _from_normalised(cls, priority, owner, successors, predecessors=None, names=None) -> Game:
        """A game from parts already in the form ``__init__`` leaves them in,
        neither checked nor copied; predecessors are derived unless given.
        Parts may be shared with another game, since games are immutable."""
        new = cls.__new__(cls)
        new.priority = priority
        new.owner = owner
        new.successors = successors
        new.predecessors = _predecessors(successors) if predecessors is None else predecessors
        new.names = names
        return new

    @property
    def vertex_count(self) -> int:
        return len(self.priority)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.successors)

    def vertices(self) -> range:
        return range(len(self.priority))

    def has_edge(self, v: int, w: int) -> bool:
        return w in self.successors[v]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self.priority == other.priority
            and self.owner == other.owner
            and self.successors == other.successors
            and self.names == other.names
        )

    def __hash__(self):
        return hash((self.priority, self.owner, self.successors))

    def __repr__(self) -> str:
        return f"Game(|V|={self.vertex_count}, |E|={self.edge_count})"


def _predecessors(successors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Ascending predecessor tuples of a successor table, leaving out dangling edges."""
    n = len(successors)
    preds: list[list[int]] = [[] for _ in range(n)]
    for v, succs in enumerate(successors):
        for w in succs:
            if 0 <= w < n:
                preds[w].append(v)
    return tuple(map(tuple, preds))


@dataclass(frozen=True)
class Play:
    """Eventually-periodic infinite path: finite prefix followed by a
    repeated non-empty cycle.  The prefix may be empty when the play cycles
    from its very first vertex."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("a play needs a non-empty cycle")

    def is_valid(self, game: Game) -> bool:
        seq = self.prefix + self.cycle
        ok = all(game.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1))
        return ok and game.has_edge(self.cycle[-1], self.cycle[0])


@dataclass
class Strategy:
    """Memoryless strategy: a partial map from owned vertices to a chosen
    successor."""

    player: int
    moves: dict[int, int] = field(default_factory=dict)

    def is_valid(self, game: Game) -> bool:
        return all(
            game.owner[v] == self.player and game.has_edge(v, w)
            for v, w in self.moves.items()
        )


@dataclass(frozen=True)
class GameStats:
    vertex_count: int
    edge_count: int
    priority_count: int
    priorities_present: tuple[int, ...]


def validate(game: Game) -> list[str]:
    """Check the game invariants; returns a list of human-readable
    violations (empty iff the game is well formed)."""
    n = game.vertex_count
    violations = []
    for v in game.vertices():
        succs = game.successors[v]
        if not succs:
            violations.append(f"totality(v{v}): vertex has no successor")
        for w in succs:
            if not (0 <= w < n):
                violations.append(f"dangling_edge(v{v}->v{w}): successor does not exist")
        if list(succs) != sorted(set(succs)):
            violations.append(f"successors(v{v}): list not sorted and duplicate-free")
    # Predecessors are derived in the constructor; re-check they invert the
    # successor relation in case a game object was mutated.
    for v in game.vertices():
        for w in game.successors[v]:
            if 0 <= w < n and v not in game.predecessors[w]:
                violations.append(f"predecessors(v{w}): missing inverse of v{v}->v{w}")
    return violations


def stats(game: Game) -> GameStats:
    present = tuple(sorted(set(game.priority)))
    return GameStats(
        vertex_count=game.vertex_count,
        edge_count=game.edge_count,
        priority_count=len(present),
        priorities_present=present,
    )


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


def play_from(
    game: Game, strategy_even: Strategy, strategy_odd: Strategy, v: int
) -> tuple[Play, int]:
    """Unfold the unique play from ``v`` under two memoryless strategies.

    Both strategies together must cover every reached vertex.  Returns the
    eventually-periodic play and the winner: the parity of the minimum
    priority on the cycle.
    """
    moves = {EVEN: strategy_even.moves, ODD: strategy_odd.moves}
    seq: list[int] = []
    position: dict[int, int] = {}
    cur = v
    while cur not in position:
        position[cur] = len(seq)
        seq.append(cur)
        table = moves[game.owner[cur]]
        if cur not in table:
            raise ValueError(f"no strategy move defined at reached vertex {cur}")
        nxt = table[cur]
        if not game.has_edge(cur, nxt):
            raise ValueError(f"strategy move {cur}->{nxt} is not a game edge")
        cur = nxt
    k = position[cur]
    play = Play(prefix=tuple(seq[:k]), cycle=tuple(seq[k:]))
    winner = min(game.priority[w] for w in play.cycle) % 2
    return play, winner


def convert_priorities(game: Game, direction: str = "max_to_min") -> Game:
    """Flip between min-parity and max-parity priority readings.

    Every priority becomes ``d - priority`` where ``d`` is the maximum
    priority rounded up to an even number; this preserves the winner of
    every vertex.  Both directions use the same reflection.  The result
    shares ``game``'s successor, predecessor and name tuples; only the
    priorities are new.
    """
    if direction not in ("max_to_min", "min_to_max"):
        raise ValueError(f"unknown direction {direction!r}")
    return Game._from_normalised(
        _reflect(game.priority), game.owner, game.successors, game.predecessors, game.names
    )


def _reflect(priority: Sequence[int]) -> tuple[int, ...]:
    """``d - p`` for every priority ``p``, with ``d`` the maximum priority
    rounded up to an even number."""
    d = max(priority, default=0)
    if d % 2 == 1:
        d += 1
    return tuple([d - p for p in priority])
