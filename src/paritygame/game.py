"""Core parity game representation: games, memoryless strategies, the
solutions that pair winners with strategies, the strategy verifier
(:func:`verify_strategy`), and priority conversion.

A parity game is a total directed graph whose vertices carry a natural
priority and an owning player.  The winner of an infinite play is decided
by the parity of the lowest priority occurring infinitely often
(min-parity convention; conversion helpers for max-parity inputs live in
:func:`convert_priorities`).

Vertices are dense integers ``0..n-1``.  The fixed total vertex order used
for all deterministic tie-breaking is plain ascending index.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain, compress
from operator import itemgetter
from typing import Iterable, Sequence

from .graphs import strongly_connected_components

EVEN = 0
ODD = 1


class Game:
    """Immutable parity game on dense vertex indices.

    Construction accepts exactly the parity games: every vertex needs an
    owner of 0 or 1, a natural priority and at least one successor, every
    successor must be an ``int`` vertex id in ``0..n-1``, and a name must
    be a ``str`` or ``None``.  Anything else raises :class:`ValueError`
    naming the first bad vertex, so every ``Game`` is total and its edges
    stay inside the vertex set.

    Successor lists are normalised to duplicate-free ascending order.  The
    predecessor lists are derived from them on the first read of
    :attr:`predecessors`, however the game was made, so a game that is
    only written out never builds them.  Empty names read as ``None``, and
    a game without any name has ``names is None``, as a parsed file
    without names does.
    """

    __slots__ = ("priority", "owner", "successors", "_pred", "names")

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
        # ``count``, ``min`` and range checks compare by value, so ``True``
        # and ``1.0`` would pass them; the type checks keep every scan in C.
        owner = tuple(owner)
        if not set(map(type, owner)) <= {int} or owner.count(EVEN) + owner.count(ODD) != n:
            for v, p in enumerate(owner):
                if type(p) is not int or p not in (EVEN, ODD):
                    raise ValueError(f"vertex {v}: owner must be {EVEN} (even) or {ODD} (odd)")
        priority = tuple(priority)
        if not set(map(type, priority)) <= {int} or min(priority, default=0) < 0:
            for v, p in enumerate(priority):
                if type(p) is not int or p < 0:
                    raise ValueError(f"vertex {v}: priority must be a natural number")
        try:
            successors = tuple(map(tuple, map(sorted, map(set, successors))))
        except TypeError:
            # ``sorted`` cannot order an int against a str; name the vertex
            _check_successors(successors, n)
            raise
        if not set(map(type, chain.from_iterable(successors))) <= {int} or n and (
            0 in map(len, successors)
            or min(map(itemgetter(0), successors)) < 0
            or max(map(itemgetter(-1), successors)) >= n
        ):
            _check_successors(successors, n)
        self.priority = priority
        self.owner = owner
        self.successors = successors
        if names is not None:
            names = tuple(names)
            if names.count(None) != n:
                # scanned as given, so that ``0`` or ``b""`` is no missing name
                if not set(map(type, names)) <= {str, type(None)}:
                    for v, nm in enumerate(names):
                        if nm is not None and not isinstance(nm, str):
                            raise ValueError(f"vertex {v}: name must be a string, not {nm!r}")
                names = tuple([nm or None for nm in names])
            if names.count(None) == n:
                names = None
        self.names = names
        self._pred = None

    @classmethod
    def _from_normalised(cls, priority, owner, successors, names=None) -> Game:
        """A game from parts already in the form ``__init__`` leaves them in,
        neither checked nor copied.  Parts may be shared with another game,
        since games are immutable; predecessors are derived on their first
        read, as for any game."""
        new = cls.__new__(cls)
        new.priority = priority
        new.owner = owner
        new.successors = successors
        new._pred = None
        new.names = names
        return new

    @property
    def predecessors(self) -> tuple[tuple[int, ...], ...]:
        """Ascending predecessor tuple of every vertex."""
        pred = self._pred
        if pred is None:
            pred = self._pred = _predecessors(self.successors)
        return pred

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


def _check_successors(successors: Sequence[Iterable[int]], n: int) -> None:
    """Raise naming the first vertex whose successors are not iterable, or
    that has no successor or one that is not an ``int`` id in ``0..n-1``."""
    for v, succs in enumerate(successors):
        if not isinstance(succs, Iterable):
            raise ValueError(
                f"vertex {v}: successors must be an iterable of vertex ids, not {succs!r}"
            )
        if not succs:
            raise ValueError(f"vertex {v} has no successor")
        for w in succs:
            if type(w) is not int:
                raise ValueError(f"vertex {v}: successor {w!r} is not a vertex id")
            if not 0 <= w < n:
                raise ValueError(f"dangling successor id {w} at vertex {v}")


def _predecessors(successors: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Ascending predecessor tuples of a successor table whose ids all
    lie in ``0..n-1``."""
    preds: list[list[int]] = [[] for _ in successors]
    for v, succs in enumerate(successors):
        for w in succs:
            preds[w].append(v)
    return tuple(map(tuple, preds))


@dataclass
class Strategy:
    """Memoryless strategy: a partial map from owned vertices to a chosen
    successor."""

    player: int
    moves: dict[int, int] = field(default_factory=dict)


@dataclass
class Solution:
    """Winner per vertex plus a winning strategy for each player, defined on
    exactly the vertices that player owns and wins."""

    winner: list[int]
    strategy_even: Strategy
    strategy_odd: Strategy

    def region(self, player: int) -> list[int]:
        return [v for v, w in enumerate(self.winner) if w == player]

    def strategy(self, player: int) -> Strategy:
        return self.strategy_even if player == EVEN else self.strategy_odd


def _check_players(winner: Sequence, unit: str) -> None:
    """Raise :class:`ValueError` naming the first ``unit`` whose winner is
    not the int :data:`EVEN` or :data:`ODD`; the scan of types and counts
    runs in C, the loop only names the culprit."""
    if not set(map(type, winner)) <= {int} or (
        winner.count(EVEN) + winner.count(ODD) != len(winner)
    ):
        for i, w in enumerate(winner):
            if type(w) is not int or w not in (EVEN, ODD):
                raise ValueError(f"{unit} {i}: winner {w!r} is not {EVEN} (even) or {ODD} (odd)")


def _check_moves(moves: dict) -> None:
    """Raise naming the first vertex of ``moves`` that is not an ``int``
    or whose move is not one."""
    for v, w in moves.items():
        if type(v) is not int:
            raise ValueError(f"strategy vertex {v!r} is not a vertex id")
        if type(w) is not int:
            raise ValueError(f"vertex {v}: strategy move {w!r} is not a vertex id")


def _check_region(region: Sequence, n: int) -> None:
    """Raise naming the first entry of ``region`` that is not an ``int``
    vertex id in ``0..n-1``."""
    for v in region:
        if type(v) is not int or not 0 <= v < n:
            raise ValueError(f"region vertex {v!r} is not a vertex of the game")


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
    edge, an uncovered vertex, or a witness cycle.  A ``player`` other than
    :data:`EVEN` or :data:`ODD`, a strategy of the other player, a
    region entry that is not an ``int`` vertex id of the game, or a
    strategy vertex or move that is not an ``int`` raises
    :class:`ValueError`.

    The cycle condition is checked by nested strongly connected components
    (Emerson and Lei, LICS 1986) over one restricted successor table: the
    strategy's move at the player's vertices, every successor at the
    opponent's.  The closure pass counts each member's in-degree in that
    table, and every vertex that no cycle reaches is peeled from the
    sources first: it lies on no cycle, so the decomposition sees only
    what a cycle reaches.  A cyclic component whose minimum priority has
    the opponent's parity holds a losing cycle through a vertex of that
    priority.  Otherwise every cycle of the component through such a vertex
    is won, and the cycles that avoid them lie inside the components of
    what is left without them, which are decomposed in turn.
    """
    n = game.vertex_count
    owner, priority, successors = game.owner, game.priority, game.successors
    if player not in (EVEN, ODD):
        raise ValueError(f"player must be {EVEN} (even) or {ODD} (odd), not {player!r}")
    if strategy.player != player:
        raise ValueError(f"the strategy belongs to player {strategy.player}, not {player}")
    moves = strategy.moves
    opponent = 1 - player
    region = list(region)
    # ``0 <= v < n``, ``in`` and dict lookups compare by value, so ``True``
    # and ``1.0`` would pass them; the type scans run in C, and the loops
    # only name the culprit
    if not set(map(type, region)) <= {int}:
        _check_region(region, n)
    if not set(map(type, chain(moves, moves.values()))) <= {int}:
        _check_moves(moves)
    inside = [False] * n
    for v in region:
        if not 0 <= v < n:
            _check_region(region, n)
        inside[v] = True
    members = list(compress(range(n), inside))
    restricted = list(successors)
    indegree = [0] * n  # in the restricted graph
    for v in members:
        if owner[v] == opponent:
            for w in successors[v]:
                if not inside[w]:
                    return VerifyResult(False, "opponent can escape the region", (v, w))
                indegree[w] += 1
        else:
            if v not in moves:
                return VerifyResult(False, "strategy undefined inside the region", (v,))
            w = moves[v]
            if w not in successors[v]:
                return VerifyResult(False, "strategy move is not a game edge", (v, w))
            if not inside[w]:
                return VerifyResult(False, "strategy leaves the region", (v, w))
            restricted[v] = (w,)
            indegree[w] += 1

    # peel from the sources every vertex that no cycle reaches; what is
    # left holds every cycle
    peeled = [v for v in members if not indegree[v]]
    for v in peeled:
        for w in restricted[v]:
            indegree[w] -= 1
            if not indegree[w]:
                peeled.append(w)
    pending = [list(compress(range(n), indegree))] if len(peeled) < len(members) else []
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


def convert_priorities(game: Game, direction: str = "max_to_min") -> Game:
    """Flip between min-parity and max-parity priority readings.

    Every priority becomes ``d - priority`` where ``d`` is the maximum
    priority rounded up to an even number; this preserves the winner of
    every vertex.  Both directions use the same reflection.  The result
    shares ``game``'s successor and name tuples; only the priorities are
    new, and its predecessor table is built on its first read.
    """
    if direction not in ("max_to_min", "min_to_max"):
        raise ValueError(f"unknown direction {direction!r}")
    return Game._from_normalised(_reflect(game.priority), game.owner, game.successors, game.names)


def _reflect(priority: Sequence[int]) -> tuple[int, ...]:
    """``d - p`` for every priority ``p``, with ``d`` the maximum priority
    rounded up to an even number."""
    d = max(priority, default=0)
    if d % 2 == 1:
        d += 1
    return tuple([d - p for p in priority])
