"""Strategy lifting (entry sets, targets, mimicking) and verification."""

import dataclasses
import re
import time

import pytest

import paritygame.game
from paritygame import (
    EVEN,
    ODD,
    Game,
    Partition,
    Solution,
    Strategy,
    gen_chain,
    gen_random,
    lift_solution,
    quotient,
    refine_strong,
    refine_stuttering,
    solve,
    verify_strategy,
)
from paritygame.generators import Xoshiro256StarStar
from paritygame.graphs import strongly_connected_components

from helpers import (
    GAME_OF_THREE,
    MALFORMED_IDS,
    MALFORMED_PARTITIONS,
    PathStrategyOracle,
    alternating_chain,
    gen_divergent_pair,
    make_context,
    play_from,
    random_consistent_walk,
    relabelled,
    solve_zielonka,
)
from lifting_reference import (
    Lifting,
    consistent,
    entry_set,
    mimick_next,
    target_class,
    target_vertex,
)
from test_graphs_reference import reference_sccs


def even_chain(n: int = 3) -> Game:
    """Chain variant owned by the even player (who also wins everything)."""
    return gen_chain(n, 1, EVEN, 0)


def test_entry_set_opponent_owned_chain():
    # chain block is odd-owned, the lifting player is even: the entry set
    # is the sole exit block, seen from any chain suffix
    ctx = make_context(gen_chain(3, 1, ODD, 0), EVEN)
    assert entry_set(ctx, (0,)) == [3]
    assert entry_set(ctx, (0, 1, 2)) == [3]
    assert entry_set(ctx, (1, 2)) == [3]


def test_entry_set_empty_when_quotient_strategy_stays():
    # the odd player wins the divergent pair by looping inside the block
    ctx = make_context(gen_divergent_pair(), ODD)
    assert ctx.quotient_strategy.moves == {0: 0}
    assert entry_set(ctx, (0,)) == []
    assert entry_set(ctx, (1, 0)) == []


def test_entry_set_rejects_paths_outside_winning_blocks(g4):
    ctx = make_context(g4, EVEN)
    with pytest.raises(ValueError):
        entry_set(ctx, (2,))


def test_target_class_chain():
    ctx = make_context(gen_chain(3, 1, ODD, 0), EVEN)
    assert target_class(ctx, (0,)) == 1  # the sink's block


def test_target_class_least_entry_vertex_decides():
    ctx = make_context(even_chain(3), EVEN)
    assert target_class(ctx, (0,)) == ctx.vmap[3]
    with pytest.raises(ValueError):
        target_class(make_context(gen_divergent_pair(), ODD), (0,))


def test_target_vertex_chain_suffix():
    ctx = make_context(gen_chain(3, 1, ODD, 0), EVEN)
    # from c2 the inert closure is {c2, c3} and the only exit hits x
    assert target_vertex(ctx, (1,)) == 3
    assert target_vertex(ctx, (0, 1)) == 3


def test_target_vertex_direct_edge_singleton(g4):
    ctx = make_context(g4, EVEN)
    assert target_vertex(ctx, (0,)) == 1


def test_target_vertex_picks_least_reachable():
    # two exits from one block into the same target class: least index wins
    g = Game(
        priority=[1, 1, 0, 0],
        owner=[EVEN, EVEN, EVEN, EVEN],
        successors=[[1, 3], [0, 2], [2], [3]],
    )
    ctx = make_context(g, EVEN)
    assert sorted(ctx.partition.blocks[ctx.vmap[0]]) == [0, 1]
    assert target_vertex(ctx, (0,)) == 2
    assert target_vertex(ctx, (1,)) == 2


def test_mimick_next_walks_the_chain():
    ctx = make_context(even_chain(3), EVEN)
    assert mimick_next(ctx, (0,)) == 1
    assert mimick_next(ctx, (0, 1)) == 2
    assert mimick_next(ctx, (0, 1, 2)) == 3
    assert mimick_next(ctx, (2,)) == 3


def test_mimick_next_divergent_block_stays_inside():
    ctx = make_context(gen_divergent_pair(), ODD)
    assert mimick_next(ctx, (0,)) == 1
    assert mimick_next(ctx, (0, 1)) == 0


def test_mimick_next_requires_owned_endpoint():
    ctx = make_context(gen_chain(3, 1, ODD, 0), EVEN)
    with pytest.raises(ValueError):
        mimick_next(ctx, (0,))


def test_lift_strategy_even_chain():
    psi = make_context(even_chain(3), EVEN).lift().strategy_even
    assert {v: psi.moves[v] for v in (0, 1, 2)} == {0: 1, 1: 2, 2: 3}
    assert psi.moves[3] == 3


def test_lift_strategy_choice_vertex(g4):
    assert make_context(g4, EVEN).lift().strategy_even.moves == {0: 1, 1: 1}


def test_lift_strategy_undefined_on_lost_blocks(g4):
    lifted = make_context(g4, ODD).lift()
    # odd owns only b, which odd wins; nothing else enters the domain
    assert lifted.strategy_odd.moves == {2: 2}
    assert 2 not in lifted.strategy_even.moves


def test_verify_strategy_forced_cycle(g1):
    assert verify_strategy(g1, EVEN, [0, 1], Strategy(EVEN, {0: 1})).ok


def test_verify_strategy_flags_region_escape(g4):
    res = verify_strategy(g4, EVEN, [0, 1], Strategy(EVEN, {0: 2, 1: 1}))
    assert not res.ok
    assert res.witness == (0, 2)
    assert "leaves" in res.reason


def test_verify_strategy_divergent_pair_odd():
    g = gen_divergent_pair()
    res = verify_strategy(g, ODD, [0, 1], Strategy(ODD, {0: 1, 1: 0}))
    assert res.ok


def test_verify_strategy_flags_losing_cycle():
    g = gen_divergent_pair()
    # even claiming the odd cycle must be rejected with a witness cycle
    res = verify_strategy(g, EVEN, [0, 1, 2], Strategy(EVEN, {2: 2}))
    assert not res.ok


def test_verify_strategy_flags_missing_move(g4):
    res = verify_strategy(g4, EVEN, [0, 1], Strategy(EVEN, {0: 1}))
    assert not res.ok and res.witness == (1,)


@pytest.mark.parametrize("vertex", [-1, 3, 1.0, "1", True])
def test_verify_strategy_rejects_a_region_outside_the_game(g4, vertex):
    # an entry that only equals a vertex id is no vertex either
    with pytest.raises(ValueError, match=f"region vertex {re.escape(repr(vertex))} "):
        verify_strategy(g4, EVEN, [0, 1, vertex], Strategy(EVEN, {0: 1, 1: 1}))


@pytest.mark.parametrize("move", [True, 1.0, "1"])
def test_verify_strategy_rejects_a_move_that_is_no_vertex_id(g4, move):
    # True used to be taken as vertex 1 and verified; 1.0 escaped as a
    # TypeError from indexing
    text = re.escape(repr(move))
    with pytest.raises(ValueError, match=f"^vertex 0: strategy move {text} is not a vertex id$"):
        verify_strategy(g4, EVEN, [0, 1], Strategy(EVEN, {0: move, 1: 1}))
    with pytest.raises(ValueError, match=f"^strategy vertex {text} is not a vertex id$"):
        verify_strategy(g4, EVEN, [0, 1], Strategy(EVEN, {0: 1, move: 1}))


def test_verify_strategy_rejects_a_non_player_and_a_foreign_strategy():
    # with player 2 the opponent was -1, so no cycle could lose
    g = gen_chain(3, 1, ODD, 0)
    with pytest.raises(ValueError, match="player must be 0 .even. or 1 .odd., not 2"):
        verify_strategy(g, 2, [0, 1, 2, 3], Strategy(2, {0: 1, 1: 2, 2: 3, 3: 3}))
    # ODD wins the chain into an odd sink with these moves, but the
    # strategy is labelled EVEN's
    g = gen_chain(3, 1, ODD, 1)
    assert verify_strategy(g, ODD, g.vertices(), Strategy(ODD, {0: 1, 1: 2, 2: 3}))
    with pytest.raises(ValueError, match="belongs to player 0, not 1"):
        verify_strategy(g, ODD, g.vertices(), Strategy(EVEN, {0: 1, 1: 2, 2: 3}))


@pytest.fixture
def decomposed(monkeypatch):
    """The node lists the verifier hands to the strongly connected
    components, in call order."""
    calls: list[list[int]] = []

    def recording(nodes, succ):
        calls.append(list(nodes))
        return strongly_connected_components(nodes, succ)

    monkeypatch.setattr(paritygame.game, "strongly_connected_components", recording)
    return calls


@pytest.mark.parametrize(
    "game", [gen_chain(800, 1, EVEN, 0), alternating_chain(400)], ids=["even", "alternating"]
)
def test_verify_strategy_decomposes_only_the_sink_of_a_chain(game, decomposed):
    # every chain vertex is peeled: no cycle reaches it
    game = relabelled(game, 1)
    sink = next(v for v in game.vertices() if v in game.successors[v])
    solution = solve(game, "zielonka")
    for player in (EVEN, ODD):
        assert verify_strategy(game, player, solution.region(player), solution.strategy(player))
    assert decomposed == [[sink]]


def test_verify_strategy_decomposes_what_a_cycle_reaches(decomposed):
    game = gen_random(10000, 5, 3, 1)
    solution = solve(game, "zielonka")
    for player in (EVEN, ODD):
        region, moves = solution.region(player), solution.strategy(player).moves
        restricted = {
            v: [moves[v]] if game.owner[v] == player else list(game.successors[v])
            for v in region
        }
        reached = {
            v
            for comp in reference_sccs(region, restricted.__getitem__)
            if len(comp) > 1 or comp[0] in restricted[comp[0]]
            for v in comp
        }
        frontier = list(reached)
        while frontier:
            for w in restricted[frontier.pop()]:
                if w not in reached:
                    reached.add(w)
                    frontier.append(w)
        decomposed.clear()
        assert verify_strategy(game, player, region, solution.strategy(player))
        assert decomposed[0] == sorted(reached)
        assert 0 < len(reached) < len(region)


def test_lifting_ignores_routes_that_leave_the_block():
    """Regression: picking inert successors by global graph distance walks
    into a cycle here, because the globally shortest route to the target
    leaves the block (via vertex 5) and can never be taken inertly.

    Block {0,1,2,3} is even-owned with priority 1, so a play trapped
    inside it is lost; the lifted strategy must route 0 -> 2 -> 3 -> 4
    even though 0 -> 1 looks closer through the other block.
    """
    g = Game(
        priority=[1, 1, 1, 1, 0, 3],
        owner=[EVEN] * 6,
        successors=[[1, 2], [0, 5], [3], [0, 4], [4], [4]],
    )
    ctx = make_context(g, EVEN)
    assert ctx.partition.blocks[0] == [0, 1, 2, 3]
    lifted = ctx.lift()
    assert lifted.strategy_even.moves[0] == 2
    res = verify_strategy(g, EVEN, lifted.region(EVEN), lifted.strategy_even)
    assert res.ok, res


def test_lifted_strategies_win_on_random_games():
    for seed in range(150):
        g = gen_random(1 + seed % 40, 3, 3, seed)
        part = refine_stuttering(g)
        reduced, vmap = quotient(g, part)
        lifted = lift_solution(g, part, reduced, vmap, solve_zielonka(reduced))
        for player in (EVEN, ODD):
            res = verify_strategy(g, player, lifted.region(player), lifted.strategy(player))
            assert res.ok, (seed, player, res)


def test_lifting_on_big_block_games():
    # priorities limited to {0} or {0,1} produce large stuttering classes,
    # so the in-block routing (inert moves towards an exit) is genuinely
    # exercised rather than collapsing to direct target edges
    routing_moves = 0
    for seed in range(250):
        n = 2 + (seed * 13) % 50
        g = gen_random(n, 1 + seed % 4, seed % 2, seed + 500_000)
        part = refine_stuttering(g)
        reduced, vmap = quotient(g, part)
        lifted = lift_solution(g, part, reduced, vmap, solve_zielonka(reduced))
        for player in (EVEN, ODD):
            psi = lifted.strategy(player)
            for v, w in psi.moves.items():
                if vmap[v] == vmap[w] and len(part.blocks[vmap[v]]) > 1:
                    routing_moves += 1
            res = verify_strategy(g, player, lifted.region(player), psi)
            assert res.ok, (seed, player, res)
    assert routing_moves > 500


def test_winner_transfer_matches_direct_solution():
    for seed in range(60):
        g = gen_random(1 + seed % 30, 3, 3, seed + 999)
        part = refine_stuttering(g)
        reduced, vmap = quotient(g, part)
        lifted = lift_solution(g, part, reduced, vmap, solve_zielonka(reduced))
        assert lifted.winner == solve_zielonka(g).winner, seed


def test_mimick_next_is_memoryless():
    rng = Xoshiro256StarStar(13)
    games_checked = 0
    for seed in range(300):
        if games_checked >= 40:
            break
        g = gen_random(2 + seed % 25, 3, 3, seed)
        part = refine_stuttering(g)
        reduced, vmap = quotient(g, part)
        qsol = solve_zielonka(reduced)
        lifted = lift_solution(g, part, reduced, vmap, qsol)
        for player in (EVEN, ODD):
            ctx = Lifting(g, part, reduced, vmap, qsol, player)
            region = [v for v in lifted.region(player) if g.owner[v] == player]
            if not region:
                continue
            by_endpoint = {}
            for _ in range(50):
                start = region[rng.below(len(region))]
                walk = random_consistent_walk(g, ctx, rng, start)
                while walk and g.owner[walk[-1]] != player:
                    walk.pop()
                if walk:
                    by_endpoint.setdefault(walk[-1], []).append(walk)
            for endpoint, walks in by_endpoint.items():
                choices = {mimick_next(ctx, tuple(w)) for w in walks}
                assert len(choices) == 1, (seed, player, endpoint)
            games_checked += 1


def test_lifted_strategies_beat_every_memoryless_opponent():
    # for a fixed memoryless strategy the opponent faces a one-player
    # game, where memoryless counter-strategies are optimal; enumerating
    # them all is therefore a complete play-level check
    import itertools

    rng = Xoshiro256StarStar(60606)
    plays = 0
    for seed in range(120):
        n = 2 + rng.below(7)
        g = gen_random(n, 1 + rng.below(3), rng.below(3), seed + 7_000_000)
        part = refine_stuttering(g)
        reduced, vmap = quotient(g, part)
        lifted = lift_solution(g, part, reduced, vmap, solve_zielonka(reduced))
        for player in (EVEN, ODD):
            psi = lifted.strategy(player)
            region = lifted.region(player)
            if not region:
                continue
            opponent = 1 - player
            opp_vertices = [v for v in g.vertices() if g.owner[v] == opponent]
            combos = 1
            for v in opp_vertices:
                combos *= len(g.successors[v])
            if combos > 600:
                continue
            for choice in itertools.product(*(g.successors[v] for v in opp_vertices)):
                tau = Strategy(opponent, dict(zip(opp_vertices, choice)))
                strategies = {player: psi, opponent: tau}
                for v in region:
                    _, winner = play_from(g, strategies[EVEN], strategies[ODD], v)
                    assert winner == player, (seed, player, v)
                    plays += 1
    assert plays > 1000


def test_path_strategy_oracle_returns_successors():
    ctx = make_context(even_chain(4), EVEN)
    oracle = PathStrategyOracle(ctx)
    path = [0]
    for _ in range(6):
        nxt = oracle(tuple(path))
        assert nxt in ctx.game.successors[path[-1]]
        path.append(nxt)
    # the induced play is consistent with the lifted strategy
    assert consistent(ctx.game, tuple(path), ctx.lift().strategy_even)
    assert path[:5] == [0, 1, 2, 3, 4]


def test_lift_strategy_matches_path_level_selector():
    """Through the partition of either refinement, strong or stuttering,
    the per-block pass emits exactly the path-level mimick_next move at
    every owned vertex of a won block, and both lifted strategies win
    their regions."""
    games = [gen_random(1 + (s * 104729) % 60, 3, 3, s + 10_000) for s in range(500)]
    games += [
        gen_random(2 + (s * 13) % 50, 1 + s % 4, s % 2, s + 500_000) for s in range(250)
    ]
    games += [
        gen_chain(n, p, o, q)
        for n in (1, 2, 7, 40)
        for p in (0, 1, 2)
        for o in (EVEN, ODD)
        for q in (0, 1)
    ]
    games += [alternating_chain(n) for n in (1, 2, 5, 40)]
    compared = 0
    for refine in (refine_strong, refine_stuttering):
        for i, g in enumerate(games):
            part = refine(g)
            reduced, vmap = quotient(g, part)
            qsol = solve_zielonka(reduced)
            lifted = lift_solution(g, part, reduced, vmap, qsol)
            for player in (EVEN, ODD):
                ctx = Lifting(g, part, reduced, vmap, qsol, player)
                region, strategy = lifted.region(player), lifted.strategy(player)
                expected = {v: mimick_next(ctx, (v,)) for v in region if g.owner[v] == player}
                where = (refine.__name__, i, player)
                assert strategy.moves == expected, where
                assert verify_strategy(g, player, region, strategy), where
                compared += 1
    assert compared == 4 * len(games)


def test_lifting_rejects_an_unstable_partition():
    # block {0, 1} is not stable: 0 exits to the sink, 1 only loops
    g = Game(priority=[1, 1, 0], owner=[EVEN] * 3, successors=[[2], [1], [2]])
    part = Partition(block_of=[0, 0, 1], divergent=[False, True])
    reduced = Game(priority=[1, 0], owner=[EVEN, EVEN], successors=[[1], [1]])
    qsol = Solution([EVEN, EVEN], Strategy(EVEN, {0: 1, 1: 1}), Strategy(ODD, {}))
    with pytest.raises(ValueError, match="unstable"):
        lift_solution(g, part, reduced, [0, 0, 1], qsol)
    with pytest.raises(ValueError, match="unstable"):
        mimick_next(Lifting(g, part, reduced, [0, 0, 1], qsol, EVEN), (1,))


def test_lifting_rejects_a_one_member_block_with_no_exit_onto_its_target():
    # all three blocks are singletons; the hand-built quotient has an edge
    # 0 -> 2, but vertex 0 only moves to 1
    g = Game(priority=[1, 0, 0], owner=[EVEN] * 3, successors=[[1], [1], [2]])
    part = Partition(block_of=[0, 1, 2], divergent=[False, True, True])
    reduced = Game(priority=[1, 0, 0], owner=[EVEN] * 3, successors=[[1, 2], [1], [2]])
    qsol = Solution([EVEN] * 3, Strategy(EVEN, {0: 2, 1: 1, 2: 2}), Strategy(ODD, {}))
    with pytest.raises(
        ValueError, match="^block 0 has no exit onto target block 2: unstable partition$"
    ):
        lift_solution(g, part, reduced, [0, 1, 2], qsol)


def test_a_divergent_one_member_block_that_stays_takes_its_self_loop():
    # EVEN wins vertex 1 by staying on its priority-0 self-loop, although
    # its least successor is 0; the quotient of singletons is the game
    g = Game(priority=[1, 0], owner=[ODD, EVEN], successors=[[0], [0, 1]])
    part = refine_stuttering(g)
    reduced, vmap = quotient(g, part)
    assert part.blocks == [[0], [1]] and reduced == g
    lifted = lift_solution(g, part, reduced, vmap, solve_zielonka(reduced))
    assert lifted.winner == [ODD, EVEN]
    assert lifted.strategy(EVEN).moves == {1: 1}
    assert lifted.strategy(ODD).moves == {0: 0}
    # the same stay on a one-member block marked non-divergent is refused
    part = dataclasses.replace(part, divergent=[True, False])
    with pytest.raises(ValueError, match="stays at non-divergent block 1"):
        lift_solution(g, part, reduced, vmap, solve_zielonka(reduced))


def _g4_quotient(g4):
    """g4's stuttering partition and quotient, which is g4 itself: blocks
    0 and 1 are won by EVEN and owned by it, block 2 by ODD."""
    part = refine_stuttering(g4)
    reduced, vmap = quotient(g4, part)
    return part, reduced, vmap


def test_lifting_accepts_a_strong_partition(g4):
    """A strong partition is stuttering-stable, so a solution lifts through
    it: EVEN wins 0 by moving to the even self-loop 1, ODD wins 2."""
    part = refine_strong(g4)
    reduced, vmap = quotient(g4, part)
    lifted = lift_solution(g4, part, reduced, vmap, solve_zielonka(reduced))
    assert lifted.winner == [EVEN, EVEN, ODD]
    assert lifted.strategy(EVEN).moves == {0: 1, 1: 1}
    assert lifted.strategy(ODD).moves == {2: 2}
    for player in (EVEN, ODD):
        assert verify_strategy(g4, player, lifted.region(player), lifted.strategy(player))


def test_lifting_rejects_a_vmap_other_than_the_block_map(g4):
    part, reduced, _ = _g4_quotient(g4)
    with pytest.raises(ValueError, match="vmap does not match the partition"):
        lift_solution(g4, part, reduced, [0, 2, 1], solve_zielonka(reduced))


def test_lifting_rejects_a_quotient_move_that_is_no_edge(g4):
    part, reduced, vmap = _g4_quotient(g4)
    qsol = Solution([EVEN, EVEN, ODD], Strategy(EVEN, {0: 1, 1: 2}), Strategy(ODD, {2: 2}))
    with pytest.raises(ValueError, match="move 1->2 is not an edge"):
        lift_solution(g4, part, reduced, vmap, qsol)


@pytest.mark.parametrize("block", [-1, 2, 7])
def test_lifting_rejects_a_quotient_move_at_no_block(block):
    # the chain's quotient has 2 blocks, both won by EVEN; at -1 the move
    # used to be checked against the last block's successors and pass
    g = gen_chain(5, 1, ODD, 0)
    part = refine_stuttering(g)
    reduced, vmap = quotient(g, part)
    qsol = solve_zielonka(reduced)
    qsol.strategy_even.moves[block] = 1
    with pytest.raises(ValueError, match=f"moves at {block}, which is not a block"):
        lift_solution(g, part, reduced, vmap, qsol)


@pytest.mark.parametrize(
    "moves",
    [{"a": 1}, {1.0: 1}, {True: 1}, {1: 1.0}, {1: True}],
    ids=["text-block", "float-block", "bool-block", "float-move", "bool-move"],
)
def test_lifting_rejects_a_quotient_move_that_is_no_int(moves):
    # EVEN's quotient strategy is {1: 1}; the first two used to raise
    # TypeError, and the last three were read as block 1
    g = gen_chain(5, 1, ODD, 0)
    part = refine_stuttering(g)
    reduced, vmap = quotient(g, part)
    qsol = solve_zielonka(reduced)
    qsol.strategy_even.moves = moves
    with pytest.raises(ValueError, match="is not a vertex id"):
        lift_solution(g, part, reduced, vmap, qsol)


def test_lifting_rejects_a_missing_move_at_an_owned_won_block(g4):
    part, reduced, vmap = _g4_quotient(g4)
    qsol = Solution([EVEN, EVEN, ODD], Strategy(EVEN, {0: 1}), Strategy(ODD, {2: 2}))
    with pytest.raises(ValueError, match="undefined at winning block 1"):
        lift_solution(g4, part, reduced, vmap, qsol)


def test_lifting_rejects_a_stay_on_a_non_divergent_block():
    # the divergent pair's block {0, 1} keeps its quotient self-loop, but
    # is marked non-divergent here, so ODD may not stay on it
    g = gen_divergent_pair()
    part = refine_stuttering(g)
    reduced, vmap = quotient(g, part)
    part = dataclasses.replace(part, divergent=[False, True])
    qsol = Solution([ODD, EVEN], Strategy(EVEN, {1: 1}), Strategy(ODD, {0: 0}))
    with pytest.raises(ValueError, match="stays at non-divergent block 0"):
        lift_solution(g, part, reduced, vmap, qsol)


def test_lifting_rejects_a_divergent_block_member_with_no_intra_block_move():
    # block {0, 1} is marked divergent, and EVEN wins it by staying, but
    # vertex 0 only moves to block 1
    g = Game([0, 0, 1], [EVEN, EVEN, EVEN], [[2], [1], [2]])
    part = Partition([0, 0, 1], [True, True])
    reduced, vmap = quotient(g, part)
    with pytest.raises(ValueError, match="^divergent block member 0 has no intra-block move$"):
        lift_solution(g, part, reduced, vmap, solve(reduced))


def test_lifting_rejects_a_strategy_of_the_wrong_player(g4):
    part, reduced, vmap = _g4_quotient(g4)
    qsol = Solution([EVEN, EVEN, ODD], Strategy(ODD, {0: 1, 1: 1}), Strategy(ODD, {2: 2}))
    with pytest.raises(ValueError, match="belongs to the other player"):
        lift_solution(g4, part, reduced, vmap, qsol)


def _chain5_solution():
    """``gen_chain(5, 1, ODD, 0)`` with its stuttering partition, quotient,
    block map and quotient solution."""
    g5 = gen_chain(5, 1, ODD, 0)
    p5 = refine_stuttering(g5)
    r5, v5 = quotient(g5, p5)
    return g5, p5, r5, v5, solve(r5)


@pytest.mark.parametrize(
    "other, message",
    [
        (gen_chain(7, 1, ODD, 0), "partition of 6 vertices for a game of 8"),
        (gen_chain(3, 1, EVEN, 0), "partition of 6 vertices for a game of 4"),
    ],
    ids=["larger-game", "smaller-game"],
)
def test_lifting_rejects_a_partition_of_another_game(other, message):
    # both used to raise a bare IndexError
    _, p5, r5, v5, s5 = _chain5_solution()
    with pytest.raises(ValueError, match=f"^{message}$"):
        lift_solution(other, p5, r5, v5, s5)


@pytest.mark.parametrize("args, message", MALFORMED_PARTITIONS, ids=MALFORMED_IDS)
def test_lifting_rejects_a_partition_that_does_not_describe_the_game(args, message):
    # the first lifted a solution, the second raised a bare IndexError;
    # the partition now refuses both
    reduced = quotient(GAME_OF_THREE, refine_stuttering(GAME_OF_THREE))[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        lift_solution(GAME_OF_THREE, Partition(*args), reduced, args[0], solve(reduced))


def test_lifting_rejects_a_block_map_naming_a_block_it_does_not_list():
    # vertex 2 sits in block 2 of a two-block partition; this raised a
    # bare IndexError, and the partition now refuses it
    g = Game([0, 0, 1], [EVEN, EVEN, EVEN], [[1], [0], [2]])
    reduced, _ = quotient(g, refine_stuttering(g))
    with pytest.raises(ValueError, match=r"^vertex 2: block 2 is not an int in range\(2\)$"):
        lift_solution(g, Partition([0, 0, 2], [True, True]), reduced, [0, 0, 2], solve(reduced))


@pytest.mark.parametrize("extra", [-1, 1], ids=["shorter", "longer"])
def test_lifting_rejects_a_quotient_winner_vector_of_another_length(extra):
    # a shorter vector raised a bare IndexError, a longer one was accepted
    g5, p5, r5, v5, s5 = _chain5_solution()
    winner = s5.winner[:extra] if extra < 0 else s5.winner + [EVEN] * extra
    qsol = Solution(winner, s5.strategy_even, s5.strategy_odd)
    with pytest.raises(ValueError, match=f"^quotient winner vector of length {2 + extra} for 2 blocks$"):
        lift_solution(g5, p5, r5, v5, qsol)


@pytest.mark.parametrize(
    "other", [gen_random(5, 2, 3, 1), Game([0], [EVEN], [[0]])], ids=["larger", "smaller"]
)
def test_lifting_rejects_a_quotient_of_another_block_count(other):
    # the larger quotient raised a bare IndexError, and the smaller one was
    # reported as a quotient strategy that stays at non-divergent block 0
    g = gen_chain(4, 1, ODD, 0)
    part = refine_stuttering(g)
    _, vmap = quotient(g, part)
    message = f"^quotient of {other.vertex_count} vertices for a partition of 2 blocks$"
    with pytest.raises(ValueError, match=message):
        lift_solution(g, part, other, vmap, solve(other))


@pytest.mark.parametrize("bad", [2, -1, None, "1", True, 0.0])
def test_lifting_rejects_a_quotient_winner_that_is_no_player(bad):
    # [2, 2] used to lift to winners [2, 2, 2, 2, 2]
    g = gen_chain(4, 1, ODD, 0)
    part = refine_stuttering(g)
    reduced, vmap = quotient(g, part)
    qsol = Solution([EVEN, bad], Strategy(EVEN, {}), Strategy(ODD, {}))
    with pytest.raises(ValueError, match=rf"^block 1: winner .* is not 0 \(even\) or 1 \(odd\)$"):
        lift_solution(g, part, reduced, vmap, qsol)


@pytest.mark.parametrize(
    "game", [alternating_chain(20_000), gen_chain(20_000, 1, EVEN, 0)],
    ids=["alternating-chain", "even-chain"],
)
def test_reduce_then_solve_is_near_linear_on_long_chains(game):
    t0 = time.perf_counter()
    part = refine_stuttering(game)
    reduced, vmap = quotient(game, part)
    solution = lift_solution(game, part, reduced, vmap, solve_zielonka(reduced))
    for player in (EVEN, ODD):
        res = verify_strategy(game, player, solution.region(player), solution.strategy(player))
        assert res.ok, (player, res)
    assert time.perf_counter() - t0 < 10.0


@pytest.mark.parametrize(
    "change, block",
    [
        (lambda q: Game(q.priority, [1 - o for o in q.owner], q.successors), 0),
        (lambda q: Game([p + 1 for p in q.priority], q.owner, q.successors), 0),
        (lambda q: Game(q.priority[:3] + (q.priority[3] + 2,) + q.priority[4:], q.owner,
                        q.successors), 3),
    ],
    ids=["flipped-owners", "shifted-priorities", "one-shifted-priority"],
)
def test_lifting_rejects_a_quotient_game_that_is_not_its_partitions(change, block):
    # with the owners flipped the lifted strategies used to fail
    # verification: EVEN's opponent escaped its region, and ODD's strategy
    # was undefined inside its own
    g = gen_random(30, 3, 3, 5)
    part = refine_stuttering(g)
    reduced, vmap = quotient(g, part)
    other = change(reduced)
    rep = part.blocks[block][0]
    message = f"^quotient block {block} differs in priority or owner from its least member {rep}$"
    with pytest.raises(ValueError, match=message):
        lift_solution(g, part, other, vmap, solve(other))
