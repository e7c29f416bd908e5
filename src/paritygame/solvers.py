"""Complete parity-game solvers.

Three interchangeable solvers produce winners plus memoryless winning
strategies for both players:

* :func:`solve_zielonka` — the attractor decomposition, phrased directly
  for the min-parity winner convention, on an explicit stack of
  subgame-local levels (no Python recursion, no full-width masks);
* :func:`solve_spm` — small progress measures, run on the max-converted
  game (the lattice's standard presentation) and lifted from a predecessor
  worklist, with the second player's strategy obtained from the dual game;
* :func:`solve_brute` — strategy enumeration with a one-player cycle
  analysis, usable as an oracle on tiny games.

:func:`solve` runs the first two behind the preprocessing of Friedmann and
Lange ("Solving Parity Games in Practice", ATVA 2009): self-loop dominions
and their attractors are settled first, then Zielonka's core runs on the
remaining vertex list in place, or SPM on each strongly connected
component of the remainder, bottom-up.  Its winners equal the whole-game
solvers'; its strategies win but need not be theirs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

from .game import EVEN, ODD, Game, Strategy, convert_priorities
from .graphs import strongly_connected_components


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


def attractor(game: Game, player: int, targets) -> list[int]:
    """Least set containing ``targets`` that ``player`` can force plays
    into: player vertices with a successor inside, opponent vertices with
    all successors inside.  Returned in ascending vertex order."""
    alive = [True] * game.vertex_count
    attr, _ = _attract(game, player, sorted(set(targets)), alive)
    return sorted(attr)


@dataclass(slots=True)
class _Level:
    """One level of Zielonka's decomposition, kept on an explicit stack.

    ``removed`` is what the level has taken out of the shared membership
    array for the sub-level now running: first the attractor of ``lowest``,
    then, when ``rerun`` is set, the opponent's trap.
    """

    vertices: list[int]
    side: int
    lowest: list[int]
    removed: set[int]
    witness: dict[int, int]
    rerun: bool = False


def _zielonka(
    game: Game, vertices: list[int], alive: list[bool]
) -> tuple[tuple[set[int], set[int]], dict[int, dict[int, int]]]:
    """Zielonka's decomposition of the subgame ``vertices`` (min-parity),
    on an explicit stack of subgame-local levels.

    ``vertices`` is ordered by priority and then by vertex, and ``alive``
    marks exactly those vertices; the subgame must be total.  Returns both
    players' winning regions of the subgame and candidate moves, which
    cover at least every vertex that its owner wins and stay inside the
    subgame.  ``alive`` is restored before returning.

    Each level removes the attractor of the lowest-priority vertices for
    the matching player, solves the remainder, and either claims the whole
    subgame or re-runs it without the opponent's established region.
    A level works only on its own vertex list: the minimum priority, the
    lowest bucket and the next subgame come from that list, never from the
    whole game, and a claimed region grows from the sub-level's region.
    One membership array marks the current subgame; a level clears the
    vertices it removes before its sub-level runs and restores them after,
    so no level copies it.  Deep games need no Python recursion.
    """
    priority, owner, successors = game.priority, game.owner, game.successors
    moves: dict[int, dict[int, int]] = {EVEN: {}, ODD: {}}
    stack: list[_Level] = []
    while True:
        # descend: open a level per subgame until the subgame is empty
        while vertices:
            m = priority[vertices[0]]
            side = m % 2
            lowest = vertices[: bisect_right(vertices, m, key=priority.__getitem__)]
            attr, witness = _attract(game, side, lowest, alive)
            for v in attr:
                alive[v] = False
            stack.append(_Level(vertices, side, lowest, attr, witness))
            if len(attr) == len(lowest):
                # the attractor is the lowest bucket, a prefix of the list
                vertices = vertices[len(lowest) :]
            else:
                vertices = [v for v in vertices if alive[v]]
        regions: tuple[set[int], set[int]] = (set(), set())
        # ascend: close levels until one must re-run without the opponent's trap
        while stack:
            level = stack[-1]
            for v in level.removed:
                alive[v] = True
            side = level.side
            opp = 1 - side
            if level.rerun:
                regions[opp].update(level.removed)
            elif not regions[opp]:
                for v in level.lowest:
                    if owner[v] == side:
                        moves[side][v] = min(w for w in successors[v] if alive[w])
                moves[side].update(level.witness)
                # the sub-level won its whole subgame; with the attractor
                # that is this level's
                regions[side].update(level.removed)
            else:
                trap, trap_witness = _attract(game, opp, sorted(regions[opp]), alive)
                moves[opp].update(trap_witness)
                for v in trap:
                    alive[v] = False
                level.removed, level.rerun = trap, True
                vertices = [v for v in level.vertices if alive[v]]
                break
            stack.pop()
        else:
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


def solve_zielonka(game: Game) -> Solution:
    """Attractor-based solver (min-parity) on the whole game: the
    subgame-local, stack-based Zielonka core run on every vertex."""
    n = game.vertex_count
    vertices = sorted(range(n), key=game.priority.__getitem__)
    regions, moves = _zielonka(game, vertices, [True] * n)
    return _solution(game, regions[EVEN], moves)


# ---------------------------------------------------------------------------
# Small progress measures.

TOP = None  # sentinel: the measure lattice's top element


@dataclass
class ProgressMeasure:
    """Per-vertex measure for the max-parity lifting algorithm.

    ``odd_priorities`` lists the odd priorities of the game in decreasing
    order of significance; a non-top value is a tuple with one component
    per odd priority, bounded by the number of vertices carrying it.
    """

    odd_priorities: list[int]
    bounds: list[int]
    value: list[tuple[int, ...] | None]

    def is_top(self, v: int) -> bool:
        return self.value[v] is TOP

    def in_bounds(self, v: int) -> bool:
        t = self.value[v]
        return t is TOP or all(0 <= c <= b for c, b in zip(t, self.bounds))


def _spm_even_half(game: Game) -> tuple[ProgressMeasure, list[bool], dict[int, int]]:
    """Even player's winning set and strategy via measure lifting on the
    max-converted game; also returns the converged measure."""
    gmax = convert_priorities(game, "min_to_max")
    n = gmax.vertex_count
    d = max(gmax.priority, default=0)
    odd_ps = [p for p in range(d, 0, -1) if p % 2 == 1]
    bounds = [sum(1 for v in range(n) if gmax.priority[v] == p) for p in odd_ps]
    width = len(odd_ps)
    # number of significant components for each priority p: those >= p
    prefix_len = [sum(1 for q in odd_ps if q >= p) for p in range(d + 1)]

    measure = ProgressMeasure(odd_ps, bounds, [(0,) * width] * n)
    value = measure.value

    def prog(v: int, mw: tuple[int, ...] | None) -> tuple[int, ...] | None:
        """Least measure that ``v`` may carry above a successor measured
        ``mw``: equal on the components that ``v``'s priority keeps, and
        strictly greater there when that priority is odd."""
        if mw is TOP:
            return TOP
        k = prefix_len[gmax.priority[v]]
        head = list(mw[:k])
        if gmax.priority[v] % 2 == 1:
            for j in range(k - 1, -1, -1):
                if head[j] < bounds[j]:
                    head[j] += 1
                    break
                head[j] = 0
            else:
                return TOP
        return tuple(head) + (0,) * (width - k)

    def less(a, b) -> bool:
        if b is TOP:
            return a is not TOP
        return a is not TOP and a < b

    # Chaotic iteration from the bottom reaches the least fixpoint in any
    # order of lifts, so a FIFO worklist converges to the same measure as a
    # sweep over all vertices: a vertex is revisited only when one of its
    # successors was lifted.  ``prog`` is monotone in the successor's
    # measure, so the best option is ``prog`` of the best successor measure.
    queue = deque(range(n))
    queued = [True] * n
    while queue:
        v = queue.popleft()
        queued[v] = False
        succs = gmax.successors[v]
        pick = value[succs[0]]
        if gmax.owner[v] == EVEN:
            for w in succs[1:]:
                if less(value[w], pick):
                    pick = value[w]
        else:
            for w in succs[1:]:
                if less(pick, value[w]):
                    pick = value[w]
        best = prog(v, pick)
        if less(value[v], best):
            value[v] = best
            for p in gmax.predecessors[v]:
                if not queued[p]:
                    queued[p] = True
                    queue.append(p)

    even_wins = [value[v] is not TOP for v in range(n)]
    strategy: dict[int, int] = {}
    for v in range(n):
        if even_wins[v] and gmax.owner[v] == EVEN:
            # prog is monotone: the least successor measure has the least prog
            strategy[v] = min(
                gmax.successors[v],
                key=lambda w: ((1,) if value[w] is TOP else (0, value[w]), w),
            )
    return measure, even_wins, strategy


def progress_measure(game: Game) -> ProgressMeasure:
    """Converged measure of the max-converted game (diagnostic view of the
    lifting run behind the even half of :func:`solve_spm`): a vertex is
    top exactly when the odd player wins it."""
    measure, _, _ = _spm_even_half(game)
    return measure


def solve_spm(game: Game) -> Solution:
    """Small progress measures for both players.

    The primal run yields the even player's region and strategy; the odd
    player's side comes from the dual game (owners swapped, priorities
    shifted by one), whose even player coincides with the original odd one.
    """
    _, even_wins, even_moves = _spm_even_half(game)
    dual = Game._from_normalised(
        tuple([p + 1 for p in game.priority]),
        tuple([1 - o for o in game.owner]),
        game.successors,
        game.predecessors,
        game.names,
    )
    _, odd_wins, odd_moves = _spm_even_half(dual)
    for v in game.vertices():
        if even_wins[v] == odd_wins[v]:
            raise RuntimeError(f"progress measure halves disagree at vertex {v}")
    winner = [EVEN if even_wins[v] else ODD for v in game.vertices()]
    return Solution(
        winner,
        Strategy(EVEN, even_moves),
        Strategy(ODD, odd_moves),
    )


# ---------------------------------------------------------------------------
# Brute-force oracle.

BRUTE_VERTEX_LIMIT = 10
BRUTE_CHOICE_LIMIT = 10**6


def _cycle_wins(game: Game, player: int, fixed: dict[int, int]) -> set[int]:
    """Vertices from which the free-moving opponent can reach a cycle whose
    minimum priority has the opponent's parity, when ``player`` is pinned
    to the memoryless strategy ``fixed``."""
    n = game.vertex_count
    restricted = [
        (fixed[v],) if game.owner[v] == player else game.successors[v] for v in range(n)
    ]
    opponent = 1 - player
    bad: set[int] = set()
    for q in sorted(set(game.priority)):
        if q % 2 != opponent:
            continue
        sub = [v for v in range(n) if game.priority[v] >= q]
        for comp in strongly_connected_components(sub, restricted):
            if not any(game.priority[v] == q for v in comp):
                continue
            if len(comp) > 1 or comp[0] in restricted[comp[0]]:
                bad.update(comp)
    # backward reachability of a bad cycle in the restricted graph
    reach = set(bad)
    queue = deque(bad)
    while queue:
        u = queue.popleft()
        for p in game.predecessors[u]:
            if p not in reach and u in restricted[p]:
                reach.add(p)
                queue.append(p)
    return reach


def _brute_side(game: Game, player: int) -> tuple[set[int], dict[int, int]]:
    own = [v for v in game.vertices() if game.owner[v] == player]
    count = 1
    for v in own:
        count *= len(game.successors[v])
        if count > BRUTE_CHOICE_LIMIT:
            raise ValueError("brute-force solver: strategy space too large")
    union: set[int] = set()
    best: set[int] = set()
    best_moves: dict[int, int] = {}
    for choice in itertools.product(*(game.successors[v] for v in own)):
        moves = dict(zip(own, choice))
        wins = set(game.vertices()) - _cycle_wins(game, player, moves)
        union |= wins
        if len(wins) > len(best):
            best = wins
            best_moves = moves
    if best != union:
        raise RuntimeError("no single strategy dominates; determinacy violated?")
    return best, best_moves


def solve_brute(game: Game) -> Solution:
    """Exhaustive solver: enumerate one player's memoryless strategies and
    settle each against a free-moving opponent via cycle analysis.  Only
    for small games (the enumeration is exponential)."""
    if game.vertex_count > BRUTE_VERTEX_LIMIT:
        raise ValueError(
            f"brute-force solver limited to {BRUTE_VERTEX_LIMIT} vertices"
        )
    even_region, even_moves = _brute_side(game, EVEN)
    odd_region, odd_moves = _brute_side(game, ODD)
    if even_region | odd_region != set(game.vertices()) or even_region & odd_region:
        raise RuntimeError("winning regions do not partition the vertex set")
    winner = [EVEN if v in even_region else ODD for v in game.vertices()]
    return Solution(
        winner,
        Strategy(EVEN, {v: w for v, w in even_moves.items() if v in even_region}),
        Strategy(ODD, {v: w for v, w in odd_moves.items() if v in odd_region}),
    )


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
    """Solve with ``zielonka``, ``spm`` or ``brute``.

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

    Winners equal the whole-game solvers'; the strategies win but may
    differ from theirs.  When no vertex has such a self-loop,
    ``zielonka`` returns exactly :func:`solve_zielonka`'s solution.
    ``brute`` is :func:`solve_brute` on the whole game.
    """
    if algorithm == "brute":
        return solve_brute(game)
    if algorithm not in ("zielonka", "spm"):
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
