"""Differential check of the solver core against the recursive solvers.

The production Zielonka solver runs each level as a generator over its
own vertex list, driven from one loop, with one membership array cleared
and restored around each sub-level; the production progress-measure
solver lifts from a predecessor worklist.  The references below are the
earlier forms, kept here as the exactness oracle: Zielonka recursing over
full-width membership masks (with the attractor it was written against),
and measure lifting that sweeps every vertex until nothing changes.  Both production
solvers must return the same solutions, down to the order in which the
strategy dicts list their moves, and the same converged measure.  That
measure is compared as tuples: :func:`progress_measure` decodes the
solver's mixed-radix integers into the :class:`ProgressMeasure` view the
sweep reference computes.
"""

import sys
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import given, settings

from paritygame import (
    EVEN,
    ODD,
    Game,
    Solution,
    Strategy,
    convert_priorities,
    gen_chain,
    gen_random,
    quotient,
    refine_stuttering,
    solve,
    verify_strategy,
)
import paritygame.solvers as solvers
from paritygame.solvers import _SpmHalf, solve_spm

from helpers import alternating_chain, priority_ladder, small_games, solve_zielonka


def _attract(
    game: Game, player: int, targets: list[int], alive: list[bool]
) -> tuple[set[int], dict[int, int]]:
    """Attractor of ``targets`` for ``player`` inside the subgame ``alive``,
    with a deterministic attractor strategy for the attracted player-owned
    vertices outside the target set."""
    in_attr = set(targets)
    witness: dict[int, int] = {}
    escape: dict[int, int] = {}
    queue = deque(sorted(in_attr))
    while queue:
        u = queue.popleft()
        for p in game.predecessors[u]:
            if not alive[p] or p in in_attr:
                continue
            if game.owner[p] == player:
                # witness chosen before p joins, so a self-loop can never be
                # picked and witness chains always shorten the rank
                witness[p] = min(w for w in game.successors[p] if w in in_attr)
                in_attr.add(p)
                queue.append(p)
            else:
                if p not in escape:
                    escape[p] = sum(1 for w in game.successors[p] if alive[w])
                escape[p] -= 1
                if escape[p] == 0:
                    in_attr.add(p)
                    queue.append(p)
    return in_attr, witness


def reference_zielonka(game: Game) -> Solution:
    """Recursive attractor-based solver (min-parity).

    Each level removes the attractor of the lowest-priority vertices for
    the matching player, solves the remainder, and either claims the whole
    subgame or re-runs it without the opponent's established region.
    """
    n = game.vertex_count
    moves: dict[int, dict[int, int]] = {EVEN: {}, ODD: {}}
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 2 * n + 1000))

    def rec(alive: list[bool], size: int) -> tuple[set[int], set[int]]:
        if size == 0:
            return set(), set()
        m = min(game.priority[v] for v in range(n) if alive[v])
        side = m % 2
        lowest = [v for v in range(n) if alive[v] and game.priority[v] == m]
        attr, witness = _attract(game, side, lowest, alive)
        sub = alive[:]
        for v in attr:
            sub[v] = False
        regions = rec(sub, size - len(attr))
        if not regions[1 - side]:
            for v in lowest:
                if game.owner[v] == side:
                    moves[side][v] = min(w for w in game.successors[v] if alive[w])
            moves[side].update(witness)
            full = {v for v in range(n) if alive[v]}
            return (full, set()) if side == EVEN else (set(), full)
        opp = 1 - side
        trap, trap_witness = _attract(game, opp, sorted(regions[opp]), alive)
        moves[opp].update(trap_witness)
        rest = alive[:]
        for v in trap:
            rest[v] = False
        regions2 = rec(rest, size - len(trap))
        regions2[opp].update(trap)
        return regions2

    region_even, region_odd = rec([True] * n, n)
    winner = [EVEN if v in region_even else ODD for v in range(n)]
    strategies = {}
    for player in (EVEN, ODD):
        strategies[player] = Strategy(
            player,
            {
                v: w
                for v, w in moves[player].items()
                if winner[v] == player and game.owner[v] == player
            },
        )
    return Solution(winner, strategies[EVEN], strategies[ODD])


TOP = None  # sentinel: the measure lattice's top element


@dataclass
class ProgressMeasure:
    """Per-vertex measure for the max-parity lifting algorithm, as tuples.

    ``odd_priorities`` lists the odd priorities of the game in decreasing
    order of significance; a non-top value is a tuple with one component
    per odd priority, bounded by the number of vertices carrying it, and
    top is ``TOP``.
    """

    odd_priorities: list[int]
    bounds: list[int]
    value: list[tuple[int, ...] | None]

    def is_top(self, v: int) -> bool:
        return self.value[v] is TOP

    def in_bounds(self, v: int) -> bool:
        t = self.value[v]
        return t is TOP or all(0 <= c <= b for c, b in zip(t, self.bounds))


def progress_measure(game: Game) -> ProgressMeasure:
    """Converged measure of the max-converted game, decoded into tuples: a
    vertex is top exactly when the odd player wins it.

    This is the even half of :func:`paritygame.solvers.solve_spm` run to
    convergence on its own, unseeded; the race in ``solve_spm`` ends at the
    same measure.  The solver works on mixed-radix integers over the
    min-parity game's odd priorities, lowest most significant; reflected
    into the max-converted game these are its odd priorities, highest
    first, and only this decoding turns the integers back into tuples.
    """
    half = _SpmHalf(game, EVEN)
    while not half.run(game.vertex_count):
        pass
    top = half.top
    gmax = convert_priorities(game, "min_to_max")
    odd_ps = [p for p in range(max(gmax.priority, default=0), 0, -1) if p % 2]
    bounds = [gmax.priority.count(p) for p in odd_ps]

    def digits(m: int) -> tuple[int, ...] | None:
        if m == top:
            return TOP
        out = []
        for b in reversed(bounds):
            m, r = divmod(m, b + 1)
            out.append(r)
        return tuple(reversed(out))

    return ProgressMeasure(odd_ps, bounds, list(map(digits, half.value)))


def reference_spm_even_half(game: Game) -> tuple[ProgressMeasure, list[bool], dict[int, int]]:
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

    def prog(v: int, w: int) -> tuple[int, ...] | None:
        mw = value[w]
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

    changed = True
    while changed:
        changed = False
        for v in range(n):
            options = [prog(v, w) for w in gmax.successors[v]]
            if gmax.owner[v] == EVEN:
                best = options[0]
                for o in options[1:]:
                    if less(o, best):
                        best = o
            else:
                best = options[0]
                for o in options[1:]:
                    if less(best, o):
                        best = o
            if less(value[v], best):
                value[v] = best
                assert measure.in_bounds(v)
                changed = True

    even_wins = [value[v] is not TOP for v in range(n)]
    strategy: dict[int, int] = {}
    for v in range(n):
        if even_wins[v] and gmax.owner[v] == EVEN:
            strategy[v] = min(
                gmax.successors[v],
                key=lambda w: (
                    (1,) if prog(v, w) is TOP else (0, prog(v, w)),
                    (1,) if value[w] is TOP else (0, value[w]),
                    w,
                ),
            )
    return measure, even_wins, strategy


def reference_spm(game: Game) -> Solution:
    """Small progress measures for both players.

    The primal run yields the even player's region and strategy; the odd
    player's side comes from the dual game (owners swapped, priorities
    shifted by one), whose even player coincides with the original odd one.
    """
    _, even_wins, even_moves = reference_spm_even_half(game)
    dual = Game(
        [p + 1 for p in game.priority],
        [1 - o for o in game.owner],
        game.successors,
        game.names,
    )
    _, odd_wins, odd_moves = reference_spm_even_half(dual)
    for v in game.vertices():
        if even_wins[v] == odd_wins[v]:
            raise RuntimeError(f"progress measure halves disagree at vertex {v}")
    winner = [EVEN if even_wins[v] else ODD for v in game.vertices()]
    return Solution(
        winner,
        Strategy(EVEN, even_moves),
        Strategy(ODD, odd_moves),
    )


def _recursive_zielonka(game: Game) -> Solution:
    # the reference raises the process-wide recursion limit; undo that so
    # no later test runs under it
    limit = sys.getrecursionlimit()
    try:
        return reference_zielonka(game)
    finally:
        sys.setrecursionlimit(limit)


def _as_items(solution: Solution):
    return (
        solution.winner,
        list(solution.strategy_even.moves.items()),
        list(solution.strategy_odd.moves.items()),
    )


def _criterion_1_games():
    return [gen_random(1 + s % 8, 1 + s % 3, s % 4, s) for s in range(500)]


def _wider_random_games():
    return [gen_random(1 + s % 40, 1 + s % 4, 2 + s % 7, s) for s in range(120)]


def _ladders(sizes):
    return [priority_ladder(n) for n in sizes]


def _chains():
    return [gen_chain(n, 1, EVEN, 0) for n in range(1, 31)] + [
        gen_chain(n, p, o, s)
        for n in (1, 7, 30)
        for p in range(3)
        for o in (EVEN, ODD)
        for s in range(3)
    ]


def _alternating_chains():
    return [alternating_chain(n) for n in range(1, 41)]


def _solver_heavy_spm_games():
    return [gen_random(100, 3, 3, 0), gen_random(60, 3, 7, 0)]


def _lattice_edge_games():
    """Games at the edges of the measure lattice."""
    # every priority 0: no odd digit, so top is 1 and nothing reaches it
    games = [gen_random(1 + s % 8, 3, 0, s) for s in range(8)]
    # odd priorities that skip values leave digits of bound 0 between the
    # occupied ones, which every carry must pass over
    for i, values in enumerate(([0, 4, 5], [0, 1, 5], [1, 6, 7], [0, 3, 8, 9], [2, 3, 9])):
        for s in range(12):
            g = gen_random(2 + s % 9, 3, len(values) - 1, 100 * i + s)
            games.append(Game([values[p] for p in g.priority], g.owner, g.successors))
    # an EVEN-owned cycle over 70 odd priorities: top is 2**70, beyond
    # machine words, and the odd player wins everywhere
    games.append(
        Game([2 * i + 1 for i in range(70)], [EVEN] * 70, [[(i + 1) % 70] for i in range(70)])
    )
    # an ODD-owned vertex whose lift carries over three digits (two of
    # them of bound 0) into the most significant one
    games.append(
        Game([7, 1, 4, 0, 7], [ODD, ODD, EVEN, EVEN, EVEN], [[0, 2], [2, 4], [1, 3], [2, 3], [1]])
    )
    return games


ZIELONKA_FAMILIES = {
    "criterion-1": _criterion_1_games,
    "wider-random": _wider_random_games,
    "ladders": lambda: _ladders([*range(1, 41), 180]),
    "chains": _chains,
    "alternating-chains": _alternating_chains,
    "solver-heavy-spm": _solver_heavy_spm_games,
}

# Measure lifting on a priority ladder of n vertices makes about 2^(n/2)
# lifts, so the ladders stay small here.
SPM_FAMILIES = {
    **ZIELONKA_FAMILIES,
    "ladders": lambda: _ladders(range(1, 13)),
    "lattice-edges": _lattice_edge_games,
}


@pytest.mark.parametrize("family", sorted(ZIELONKA_FAMILIES))
def test_zielonka_matches_recursive_reference(family):
    for i, g in enumerate(ZIELONKA_FAMILIES[family]()):
        assert _as_items(solve_zielonka(g)) == _as_items(_recursive_zielonka(g)), i


@pytest.mark.parametrize("family", sorted(SPM_FAMILIES))
def test_spm_matches_sweep_reference(family):
    for i, g in enumerate(SPM_FAMILIES[family]()):
        assert _as_items(solve_spm(g)) == _as_items(reference_spm(g)), i
        reference_measure, _, _ = reference_spm_even_half(g)
        assert progress_measure(g).value == reference_measure.value, i


@settings(deadline=None, derandomize=True, max_examples=200)
@given(small_games(max_vertices=9, max_priority=11, max_successors=3))
def test_spm_matches_sweep_reference_property(g):
    assert progress_measure(g).value == reference_spm_even_half(g)[0].value
    assert _as_items(solve_spm(g)) == _as_items(reference_spm(g))


def test_zielonka_rerun_reuses_an_attractor_its_trap_misses(monkeypatch):
    # a level that re-runs after removing a trap disjoint from its
    # attractor would find the same bucket, attractor and witnesses again;
    # here that repeat would be a sixth attractor, of 5,062 vertices
    g = gen_random(10_000, 5, 3, 1)
    attract = solvers._attract
    sizes = []

    def counting(game, player, targets, alive):
        attr, witness = attract(game, player, targets, alive)
        sizes.append(len(attr))
        return attr, witness

    monkeypatch.setattr(solvers, "_attract", counting)
    solution = solve(g)
    assert sizes == [1, 4928, 5062, 9, 9]
    monkeypatch.undo()
    for player in (EVEN, ODD):
        assert verify_strategy(g, player, solution.region(player), solution.strategy(player))
    reduced, _ = quotient(g, refine_stuttering(g))
    for h in (g, reduced):
        reference = _recursive_zielonka(h)
        assert _as_items(solve_zielonka(h)) == _as_items(reference)
        assert solve(h).winner == reference.winner
