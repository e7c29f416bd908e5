"""Differential check of the strategy verifier.

The production verifier builds the strategy-restricted successor table
once, peels what no cycle reaches and decomposes the rest into nested
strongly connected components.  The
reference below is the earlier form, kept here as the exactness oracle:
one strongly connected component pass per losing priority over the
vertices of at least that priority, through per-vertex successor
callbacks.  Both must give the same verdict on every strategy, and the
same reason and witness whenever the region is not closed.  A rejected
cycle may be another one than the reference's, so every cycle witness is
checked for what it claims: a cycle of the restricted graph inside the
region whose minimum priority has the opponent's parity.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from paritygame import (
    EVEN,
    ODD,
    Game,
    Solution,
    Strategy,
    VerifyResult,
    gen_chain,
    gen_random,
    lift_solution,
    quotient,
    refine_stuttering,
    solve,
    verify_strategy,
)
from paritygame.generators import Xoshiro256StarStar
from paritygame.game import _find_cycle

from helpers import alternating_chain, priority_ladder, small_games, solve_zielonka
from test_graphs_reference import reference_sccs
from test_refinement_reference import game_zoo


def reference_verify_strategy(
    game: Game, player: int, region, strategy: Strategy
) -> VerifyResult:
    """Independent check that ``strategy`` wins everywhere on ``region``.

    Verifies (a) the opponent cannot leave the region and the strategy does
    not either, and (b) every cycle of the strategy-restricted graph inside
    the region has a minimum priority of the player's parity.  On failure
    the result carries an escaping edge, an uncovered vertex, or a witness
    cycle.
    """
    W = set(region)
    opponent = 1 - player
    for v in sorted(W):
        if game.owner[v] == opponent:
            for w in game.successors[v]:
                if w not in W:
                    return VerifyResult(False, "opponent can escape the region", (v, w))
        else:
            if v not in strategy.moves:
                return VerifyResult(False, "strategy undefined inside the region", (v,))
            w = strategy.moves[v]
            if not game.has_edge(v, w):
                return VerifyResult(False, "strategy move is not a game edge", (v, w))
            if w not in W:
                return VerifyResult(False, "strategy leaves the region", (v, w))

    def restricted(v: int) -> list[int]:
        if game.owner[v] == player:
            return [strategy.moves[v]]
        return list(game.successors[v])

    for q in sorted({game.priority[v] for v in W}):
        if q % 2 == player:
            continue
        sub = [v for v in sorted(W) if game.priority[v] >= q]
        sub_set = set(sub)
        sccs = reference_sccs(
            sub, lambda v: [w for w in restricted(v) if w in sub_set]
        )
        for comp in sccs:
            if not any(game.priority[v] == q for v in comp):
                continue
            cyclic = len(comp) > 1 or comp[0] in restricted(comp[0])
            if not cyclic:
                continue
            start = min(v for v in comp if game.priority[v] == q)
            comp_set = set(comp)
            cycle = _find_cycle(start, comp_set, lambda v: [w for w in restricted(v) if w in comp_set])
            return VerifyResult(
                False, f"cycle with losing minimal priority {q}", tuple(cycle)
            )
    return VerifyResult(True)


# ---------------------------------------------------------------------------
# Strategies to verify: solved, lifted, and corrupted.


def _tail_between_cycles(length: int) -> Game:
    """An even-won 2-cycle, whose odd vertex may leave it for an acyclic
    tail of ``length`` vertices that ends in an odd-won 2-cycle: the first
    cycle reaches the whole tail, so a restricted graph that keeps the
    exit peels none of it."""
    end = length + 2
    priority, owner = [2, 2], [ODD, EVEN]
    successors = [[1, 2], [0]]
    for t in range(2, end):
        priority.append(3 + t % 3)
        owner.append(t % 2)
        successors.append([t + 1, min(t + 2, end)] if t % 2 == EVEN else [t + 1])
    priority += [1, 4]
    owner += [ODD, EVEN]
    successors += [[end + 1], [end]]
    return Game(priority, owner, successors)


def _lead_ins_to_a_losing_cycle(sources: int, length: int) -> Game:
    """An odd-won 2-cycle (vertices 0 and 1) behind ``sources`` acyclic
    lead-ins of ``length`` vertices each, entering it at alternate
    vertices; every fourth even lead-in vertex may also leave for an even
    self-loop (vertex 2)."""
    priority, owner = [1, 2, 0], [EVEN, ODD, EVEN]
    successors = [[1], [0], [2]]
    for k in range(sources):
        for i in range(length):
            v = len(priority)
            priority.append(3 + (i + k) % 3)
            owner.append((i + k) % 2)
            succs = [v + 1 if i < length - 1 else k % 2]
            if owner[v] == EVEN and i % 4 == 0:
                succs.append(2)
            successors.append(succs)
    return Game(priority, owner, successors)


def _games():
    rng = Xoshiro256StarStar(5150)
    games = [game_zoo(trial, rng) for trial in range(300)]
    games += [gen_random(40, 1 + s % 5, 3, s) for s in range(60)]
    games += [gen_chain(n, p, o, q) for n in (1, 7, 60) for p in (0, 1) for o in (EVEN, ODD)
              for q in (0, 1)]
    games += [alternating_chain(n) for n in (1, 6, 60)]
    games += [priority_ladder(n) for n in (1, 2, 9, 40)]
    games += [_tail_between_cycles(n) for n in (1, 8, 60)]
    games += [_lead_ins_to_a_losing_cycle(k, n) for k, n in ((1, 60), (3, 9), (4, 40))]
    return games


def _solutions(game: Game):
    """The direct solutions of both algorithms and the lifted solution."""
    yield solve(game, "zielonka")
    yield solve(game, "spm")
    part = refine_stuttering(game)
    reduced, vmap = quotient(game, part)
    yield lift_solution(game, part, reduced, vmap, solve(reduced, "zielonka"))


def _corruptions(game: Game, solution: Solution, player: int, rng: Xoshiro256StarStar):
    """(region, strategy) pairs: the claim as solved, then the same claim
    with one move redirected along an edge, one move redirected off the
    edges (the perfbench corruption), one move dropped, the region grown
    or shrunk by a vertex, and the player claiming the opponent's region
    with arbitrary moves."""
    n = game.vertex_count
    region = solution.region(player)
    moves = solution.strategy(player).moves
    yield region, moves
    owned = sorted(moves)
    for _ in range(3):
        if owned:
            v = owned[rng.below(len(owned))]
            succs = game.successors[v]
            yield region, {**moves, v: succs[rng.below(len(succs))]}
    if owned:
        v = owned[0]
        off = [w for w in range(n) if not game.has_edge(v, w)]
        if off:
            yield region, {**moves, v: off[0]}
        yield region, {u: w for u, w in moves.items() if u != v}
    v = rng.below(n)
    grown = sorted(set(region) | {v})
    yield grown, {**moves, **({v: game.successors[v][0]} if game.owner[v] == player else {})}
    if region:
        yield [u for u in region if u != region[rng.below(len(region))]], moves
    # the whole game, every owned vertex playing its first or last move
    for pick in (0, -1):
        everything = {v: game.successors[v][pick] for v in range(n) if game.owner[v] == player}
        yield list(range(n)), everything


CYCLE_REASON = re.compile(r"cycle with losing minimal priority (\d+)")


def _check_cycle_witness(game, player, region, moves, result: VerifyResult):
    """The witness is a cycle of the restricted graph inside the region,
    and its minimum priority is the one the reason names and has the
    opponent's parity."""
    q = int(CYCLE_REASON.fullmatch(result.reason).group(1))
    cycle = result.witness
    inside = set(region)
    assert cycle and set(cycle) <= inside
    for v, w in zip(cycle, cycle[1:] + cycle[:1]):
        if game.owner[v] == player:
            assert moves[v] == w
        else:
            assert game.has_edge(v, w)
    assert min(game.priority[v] for v in cycle) == q
    assert q % 2 == 1 - player


def _assert_agrees(game, player, region, moves):
    strategy = Strategy(player, moves)
    result = verify_strategy(game, player, region, strategy)
    expected = reference_verify_strategy(game, player, region, strategy)
    assert result.ok == expected.ok
    if not expected.ok and not expected.reason.startswith("cycle"):
        assert (result.reason, result.witness) == (expected.reason, expected.witness)
    elif not expected.ok:
        assert CYCLE_REASON.fullmatch(expected.reason)
        _check_cycle_witness(game, player, region, moves, result)
    return result


def test_verdicts_match_the_reference_on_solved_and_corrupted_strategies():
    rng = Xoshiro256StarStar(8080)
    outcomes: dict[str, int] = {}
    for i, game in enumerate(_games()):
        for solution in _solutions(game):
            for player in (EVEN, ODD):
                for region, moves in _corruptions(game, solution, player, rng):
                    result = _assert_agrees(game, player, region, moves)
                    kind = "ok" if result.ok else result.reason.split(" minimal")[0]
                    outcomes[kind] = outcomes.get(kind, 0) + 1
    # every kind of verdict is exercised
    assert set(outcomes) == {
        "ok",
        "opponent can escape the region",
        "strategy undefined inside the region",
        "strategy move is not a game edge",
        "strategy leaves the region",
        "cycle with losing",
    }, outcomes
    assert min(outcomes.values()) >= 20, outcomes


def test_cycle_witnesses_on_large_random_games():
    # whole-game claims with arbitrary moves: nearly always a losing cycle,
    # found deep in the nested decomposition
    rng = Xoshiro256StarStar(77)
    rejected = 0
    for seed in range(20):
        game = gen_random(400, 6, 3, seed)
        for player in (EVEN, ODD):
            moves = {
                v: game.successors[v][rng.below(len(game.successors[v]))]
                for v in game.vertices()
                if game.owner[v] == player
            }
            rejected += not _assert_agrees(game, player, list(game.vertices()), moves).ok
    assert rejected >= 30


@settings(deadline=None, derandomize=True, max_examples=300)
@given(
    small_games(max_vertices=12, max_priority=3, max_successors=3),
    st.sampled_from(["zielonka", "spm"]),
)
def test_lifted_strategies_verify(game, algorithm):
    part = refine_stuttering(game)
    reduced, vmap = quotient(game, part)
    lifted = lift_solution(game, part, reduced, vmap, solve(reduced, algorithm))
    assert lifted.winner == solve_zielonka(game).winner
    for player in (EVEN, ODD):
        region, strategy = lifted.region(player), lifted.strategy(player)
        assert verify_strategy(game, player, region, strategy).ok
        assert reference_verify_strategy(game, player, region, strategy).ok
