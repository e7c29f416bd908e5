"""Complete parity-game solving.

:func:`solve` is the one way in.  It first settles what needs no solver,
after Friedmann and Lange ("Solving Parity Games in Practice", ATVA
2009): self-loop dominions and their attractors.  Two cores then produce
winners plus memoryless winning strategies for both players on the rest:

* ``zielonka`` — the attractor decomposition, phrased directly for the
  min-parity winner convention, each level a generator over its own
  vertex list that yields its sub-levels to one driver loop (no Python
  recursion, no full-width masks), run on the remaining vertex list in
  place;
* ``spm`` — small progress measures (:func:`solve_spm`), run on each
  strongly connected component of the remainder, bottom-up: each
  player's measures on the component, lifted from a predecessor
  worklist.  The two halves race in slices of one visit per vertex; the
  first to converge writes the region it wins as top in the other, which
  is that half's top set at its least fixpoint, so lifting on from there
  ends at the same measures while skipping the opponent's climb to top.
  Each solution is checked twice: every vertex has exactly one winner,
  and both strategies pass :func:`~paritygame.game.verify_strategy`.  A
  measure is one mixed-radix integer, one digit per priority of the
  opponent's parity (the tests decode it into the lattice's tuples).

The strategy-enumeration oracle that cross-checks both on small games,
and the whole-game Zielonka solver the tests compare against, live with
the tests.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import deque

from .game import EVEN, ODD, Game, Solution, Strategy, verify_strategy
from .graphs import strongly_connected_components

ALGORITHMS = ("zielonka", "spm")


def _attract(
    game: Game, player: int, targets: list[int], alive: list[bool]
) -> tuple[set[int], dict[int, int]]:
    """Attractor of ``targets`` for ``player`` inside the subgame ``alive``,
    with a deterministic attractor strategy for the attracted player-owned
    vertices outside the target set."""
    predecessors, owner, successors = game.predecessors, game.owner, game.successors
    in_attr = set(targets)
    witness: dict[int, int] = {}
    escape: dict[int, int] = {}
    # FIFO: the loop also visits the vertices appended while it runs
    queue = sorted(in_attr)
    for u in queue:
        for p in predecessors[u]:
            if not alive[p] or p in in_attr:
                continue
            if owner[p] == player:
                # witness chosen before p joins, so a self-loop can never be
                # picked and witness chains always shorten the rank; the
                # successors ascend, so the first one inside is the least
                for w in successors[p]:
                    if w in in_attr:
                        witness[p] = w
                        break
                in_attr.add(p)
                queue.append(p)
            else:
                left = escape.get(p)
                if left is None:
                    left = sum(map(alive.__getitem__, successors[p]))
                left -= 1
                escape[p] = left
                if left == 0:
                    in_attr.add(p)
                    queue.append(p)
    return in_attr, witness


def _level(
    game: Game,
    vertices: list[int],
    alive: list[bool],
    moves: dict[int, dict[int, int]],
    reuse: tuple[list[int], set[int], dict[int, int]] | None = None,
):
    """One level of Zielonka's decomposition of the subgame ``vertices``,
    as a generator that yields each sub-level, is sent its regions and
    returns its own: it removes the attractor of the lowest bucket (or
    ``reuse``, a bucket, attractor and witnesses already computed), solves
    the remainder, then claims the subgame or re-runs it without the
    opponent's trap.  What it clears in ``alive`` it restores."""
    if not vertices:
        return set(), set()
    priority, owner, successors = game.priority, game.owner, game.successors
    m = priority[vertices[0]]
    side = m % 2
    opp = 1 - side
    if reuse:
        lowest, attr, witness = reuse
    else:
        lowest = vertices[: bisect_right(vertices, m, key=priority.__getitem__)]
        attr, witness = _attract(game, side, lowest, alive)
    for v in attr:
        alive[v] = False
    regions = yield _level(game, [v for v in vertices if alive[v]], alive, moves)
    for v in attr:
        alive[v] = True
    if not regions[opp]:
        for v in lowest:
            if owner[v] == side:
                moves[side][v] = min(w for w in successors[v] if alive[w])
        moves[side].update(witness)
        # the sub-level won its whole subgame; with the attractor that is
        # this level's
        regions[side].update(attr)
        return regions
    trap, trap_witness = _attract(game, opp, sorted(regions[opp]), alive)
    moves[opp].update(trap_witness)
    for v in trap:
        alive[v] = False
    # a trap that misses the attractor leaves the re-run the same bucket,
    # attractor and witnesses: a vertex of ``opp`` outside the trap has no
    # successor in it, or it would be in it, so no vertex left gains or
    # loses a way into the attractor
    reuse = (lowest, attr, witness) if trap.isdisjoint(attr) else None
    regions = yield _level(game, [v for v in vertices if alive[v]], alive, moves, reuse)
    for v in trap:
        alive[v] = True
    regions[opp].update(trap)
    return regions


def _zielonka(
    game: Game, vertices: list[int], alive: list[bool]
) -> tuple[tuple[set[int], set[int]], dict[int, dict[int, int]]]:
    """Zielonka's decomposition of the subgame ``vertices`` (min-parity).

    ``vertices`` is ordered by priority and then by vertex, and ``alive``
    marks exactly those vertices; the subgame must be total.  Returns both
    players' winning regions of the subgame and candidate moves, which
    cover at least every vertex that its owner wins and stay inside the
    subgame.  ``alive`` is restored before returning.

    Each level (:func:`_level`) works only on its own vertex list: the
    minimum priority, the lowest bucket and the next subgame come from
    that list, never from the whole game, and a claimed region grows from
    the sub-level's region.  One membership array marks the current
    subgame, so no level copies it.  The levels wait on one list, each
    sub-level's regions sent to its parent, so nesting never reaches the
    Python stack.
    """
    moves: dict[int, dict[int, int]] = {EVEN: {}, ODD: {}}
    stack = [_level(game, vertices, alive, moves)]
    regions = None
    while stack:
        try:
            stack.append(stack[-1].send(regions))
            regions = None
        except StopIteration as done:
            stack.pop()
            regions = done.value
    return regions, moves


def _solution(game: Game, region_even: set[int], moves: dict[int, dict[int, int]]) -> Solution:
    """The solution whose even region is ``region_even``, each player's
    strategy being ``moves`` cut down to the vertices it owns and wins."""
    winner = [EVEN if v in region_even else ODD for v in range(game.vertex_count)]
    owner = game.owner
    strategies = {}
    for player in (EVEN, ODD):
        strategies[player] = Strategy(
            player,
            {
                v: w
                for v, w in moves[player].items()
                if winner[v] == player and owner[v] == player
            },
        )
    return Solution(winner, strategies[EVEN], strategies[ODD])


# ---------------------------------------------------------------------------
# Small progress measures.


class _SpmHalf:
    """One player's half of small progress measures on the game, as a
    resumable lifting state: the measures and a FIFO worklist of the
    vertices that may lift.

    A measure is one integer in mixed radix, one digit per priority of the
    opponent's parity, the lowest most significant: a digit's radix is one
    more than the number of vertices carrying its priority, and top is the
    product of all radices.  Tuple order is then integer order.  A vertex
    of priority ``p`` may carry ``m - m % keep[p] + step[p]`` above a
    successor measured ``m < top``: ``keep[p]`` is the weight of the least
    significant digit that ``p`` keeps, which is ``p``'s own when ``p`` has
    the opponent's parity; ``step[p]`` is then that weight, else 0, and the
    addition carries over the digits at their bound, up to top.

    Chaotic iteration from any measure below the least fixpoint reaches
    that fixpoint, in any order of lifts (Jurdziński, STACS 2000): every
    lift stays below it, since the lift is monotone, and a measure that no
    vertex can lift is at or above it.  So :meth:`run` may stop and resume
    anywhere, and :meth:`seed` may raise to top any vertex that is top at
    the least fixpoint.
    """

    __slots__ = (
        "player", "owner", "successors", "predecessors", "keep", "step", "top",
        "value", "queue", "queued",
    )

    def __init__(self, game: Game, player: int):
        priority = game.priority
        count = [0] * (max(priority, default=0) + 1)
        for p in priority:
            count[p] += 1
        keep = [0] * len(count)
        top = 1
        for p in reversed(range(len(count))):
            keep[p] = top
            if p % 2 != player:
                top *= count[p] + 1
        n = game.vertex_count
        self.player, self.owner = player, game.owner
        self.successors, self.predecessors = game.successors, game.predecessors
        self.keep = list(map(keep.__getitem__, priority))
        self.step = [0 if p % 2 == player else k for p, k in zip(priority, self.keep)]
        self.top = top
        self.value = [0] * n
        # A vertex is revisited only when one of its successors was lifted,
        # so the worklist converges to the same measure as a sweep over all
        # vertices.  The lift is monotone in the successor's measure, so
        # the best option is the lift of the best successor measure.
        self.queue = deque(range(n))
        self.queued = [True] * n

    def run(self, budget: int) -> bool:
        """Visit at most ``budget`` queued vertices, lifting each as far as
        its successors allow; returns whether the measure has converged."""
        player, owner = self.player, self.owner
        successors, predecessors = self.successors, self.predecessors
        keep, step, top, value = self.keep, self.step, self.top, self.value
        queue, queued = self.queue, self.queued
        popleft, append = queue.popleft, queue.append
        for _ in itertools.repeat(None, budget):
            if not queue:
                return True
            v = popleft()
            queued[v] = False
            if owner[v] == player:
                m = min(map(value.__getitem__, successors[v]))
            else:
                m = max(map(value.__getitem__, successors[v]))
            m += step[v] - m % keep[v]
            if m > top:
                m = top
            if m > value[v]:
                value[v] = m
                for p in predecessors[v]:
                    if not queued[p]:
                        queued[p] = True
                        append(p)
        return not queue

    def seed(self, lost) -> None:
        """Raise every vertex of ``lost`` to top and queue the predecessors
        of those that were below it."""
        predecessors, top, value = self.predecessors, self.top, self.value
        queued, append = self.queued, self.queue.append
        for v in lost:
            if value[v] < top:
                value[v] = top
                for p in predecessors[v]:
                    if not queued[p]:
                        queued[p] = True
                        append(p)

    def won(self) -> list[int]:
        """The vertices below top: those the player wins, once the measure
        has converged."""
        top = self.top
        return [v for v, m in enumerate(self.value) if m < top]

    def strategy(self) -> dict[int, int]:
        """The player's moves at the vertices it owns and wins: to a
        successor of least measure, the least such one on ties."""
        value, top, owner, successors = self.value, self.top, self.owner, self.successors
        return {
            v: min(successors[v], key=value.__getitem__)
            for v in range(len(value))
            if value[v] < top and owner[v] == self.player
        }


def solve_spm(game: Game) -> Solution:
    """Small progress measures for both players, raced against each other.

    The two halves are each player's measures on the game.  They take
    turns of n visits, n being the vertex count.  When one converges, the
    vertices it wins are exactly the other half's top set at its least
    fixpoint (after Gazda and Willemse, "Improvement in Small Progress
    Measures", GandALF 2015): they are written as top there, and the other
    half runs on to convergence.  Lifting from below the least fixpoint
    reaches it (see :class:`_SpmHalf`), so the measures, winners and
    strategies are those of two independent runs; where the opponent wins,
    the seeded half skips its climb to top one step per lap.

    The seed makes the halves' agreement a weaker check, so two checks
    guard the result, each raising :class:`RuntimeError`: every vertex is
    won by exactly one half, and both strategies pass
    :func:`~paritygame.game.verify_strategy` on the regions they claim.
    """
    halves = (_SpmHalf(game, EVEN), _SpmHalf(game, ODD))
    n = game.vertex_count
    turn = 0
    while not halves[turn].run(n):
        turn = 1 - turn
    rest = halves[1 - turn]
    rest.seed(halves[turn].won())
    while not rest.run(n):
        pass
    even, odd = halves
    for v in range(n):
        if (even.value[v] < even.top) == (odd.value[v] < odd.top):
            raise RuntimeError(f"progress measure halves disagree at vertex {v}")
    winner = [EVEN if m < even.top else ODD for m in even.value]
    solution = Solution(winner, Strategy(EVEN, even.strategy()), Strategy(ODD, odd.strategy()))
    for player in (EVEN, ODD):
        verdict = verify_strategy(game, player, solution.region(player), solution.strategy(player))
        if not verdict:
            raise RuntimeError(
                f"progress measure strategy of player {player} rejected: "
                f"{verdict.reason} {verdict.witness}"
            )
    return solution


def _subgame(game: Game, vertices: list[int]) -> Game:
    """The subgame on the ascending list ``vertices``, renumbered in that
    order, keeping the edges that stay inside it."""
    index = {v: i for i, v in enumerate(vertices)}
    return Game._from_normalised(
        tuple([game.priority[v] for v in vertices]),
        tuple([game.owner[v] for v in vertices]),
        tuple([tuple([index[w] for w in game.successors[v] if w in index]) for v in vertices]),
    )


def _claim(
    game: Game,
    player: int,
    won: list[int],
    alive: list[bool],
    regions: tuple[set[int], set[int]],
    moves: dict[int, dict[int, int]],
) -> None:
    """Give ``player`` the attractor of ``won`` among the ``alive``
    vertices, with its witness moves, and take the attractor out of
    ``alive``."""
    attr, witness = _attract(game, player, won, alive)
    for v in attr:
        alive[v] = False
    regions[player].update(attr)
    moves[player].update(witness)


def solve(game: Game, algorithm: str = "zielonka") -> Solution:
    """Solve with ``zielonka`` or ``spm``.

    ``zielonka`` and ``spm`` first settle what needs no solver, after
    Friedmann and Lange ("Solving Parity Games in Practice", ATVA 2009):

    1. a vertex with a self-loop whose priority has its owner's parity is
       won by its owner, who plays the loop;
    2. each player's self-loop vertices are closed under that player's
       attractor, the witnesses being the moves; the complement of the
       attractors is again a total subgame;
    3. ``zielonka`` runs its core on that remainder in place; ``spm`` takes
       the remainder's strongly connected components bottom-up, runs
       :func:`solve_spm` on what is unsolved of each, and claims the
       attractors of both regions it found before the next component.

    Any other ``algorithm`` raises :class:`ValueError`.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    priority, owner, successors = game.priority, game.owner, game.successors
    loops: tuple[list[int], list[int]] = ([], [])
    for v, succs in enumerate(successors):
        if v in succs and priority[v] % 2 == owner[v]:
            loops[owner[v]].append(v)
    n = game.vertex_count
    alive = [True] * n
    regions: tuple[set[int], set[int]] = (set(), set())
    moves: dict[int, dict[int, int]] = {EVEN: {}, ODD: {}}
    for player in (EVEN, ODD):
        moves[player].update(zip(loops[player], loops[player]))
        _claim(game, player, loops[player], alive, regions, moves)
    rest = [v for v in range(n) if alive[v]]
    if algorithm == "zielonka":
        rest.sort(key=priority.__getitem__)
        rest_regions, rest_moves = _zielonka(game, rest, alive)
        for player in (EVEN, ODD):
            regions[player].update(rest_regions[player])
            moves[player].update(rest_moves[player])
    else:
        # components come sinks first, so whatever leaves the unsolved part
        # of a component is already solved, and that part is a total subgame
        for component in strongly_connected_components(rest, successors):
            unsolved = sorted(v for v in component if alive[v])
            if not unsolved:
                continue
            sub = solve_spm(_subgame(game, unsolved))
            for player in (EVEN, ODD):
                moves[player].update(
                    (unsolved[i], unsolved[w]) for i, w in sub.strategy(player).moves.items()
                )
                won = [unsolved[i] for i in sub.region(player)]
                _claim(game, player, won, alive, regions, moves)
    return _solution(game, regions[EVEN], moves)
