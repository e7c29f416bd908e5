"""Partition refinement, quotients and the relational oracles."""

import ast
import dataclasses
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings

import paritygame.reduction
import paritygame.solvers

from paritygame import (
    EVEN,
    ODD,
    Game,
    Partition,
    Solution,
    Strategy,
    convert_priorities,
    gen_chain,
    gen_random,
    lift_solution,
    quotient,
    refine_strong,
    refine_stuttering,
    write_partition,
)

from helpers import (
    GAME_OF_THREE,
    MALFORMED_IDS,
    MALFORMED_PARTITIONS,
    alternating_chain,
    assert_same_game,
    gen_branch,
    gen_divergent_pair,
    nested_game,
    relabelled,
    small_games,
    solve_zielonka,
)
from oracles import (
    compute_divergent,
    divergent_wrt,
    inert_closure,
    oracle_strong_pairs,
    oracle_stuttering_pairs,
    partition_from_relation,
)


def test_refine_strong_branch():
    # v0 steps into the block {v1, v2}, the others step straight to the sink
    assert refine_strong(gen_branch()).blocks == [[0], [1, 2], [3]]


def test_refine_strong_chain_counts_steps():
    for n in (1, 4, 9):
        part = refine_strong(gen_chain(n, 1, ODD, 0))
        assert part.block_count == n + 1
        assert all(len(b) == 1 for b in part.blocks)
    # permuted ids: the cascade splits one vertex per round, out of order,
    # and the singletons are still numbered by their vertex
    g = relabelled(gen_chain(300, 1, ODD, 0), 5)
    part = refine_strong(g)
    assert part.blocks == [[v] for v in range(301)]
    assert part.block_of == list(range(301))
    # only the sink diverges, by its self-loop
    assert part.divergent == [v in g.successors[v] for v in range(301)]
    assert part.divergent.count(True) == 1


def test_refine_strong_priority_distinct_all_singletons():
    g = Game(priority=[0, 1, 2], owner=[EVEN] * 3, successors=[[1], [2], [0]])
    assert refine_strong(g).blocks == [[0], [1], [2]]


def test_compute_divergent_divergent_pair():
    g = gen_divergent_pair()
    flags = compute_divergent(g, refine_stuttering(g))
    assert flags == [True, True, True]


def test_compute_divergent_chain():
    g = gen_chain(3, 1, ODD, 0)
    flags = compute_divergent(g, refine_stuttering(g))
    assert flags == [False, False, False, True]


def test_compute_divergent_singleton_without_self_loop(g1):
    assert compute_divergent(g1, refine_stuttering(g1)) == [False, False]


def test_refine_stuttering_branch():
    part = refine_stuttering(gen_branch())
    assert part.blocks == [[0, 1, 2], [3]]
    assert part.divergent == [False, True]


def test_refine_stuttering_chain_two_blocks_any_length():
    for n in (1, 2, 5, 40):
        part = refine_stuttering(gen_chain(n, 1, ODD, 0))
        assert part.block_count == 2
        assert part.blocks[0] == list(range(n))
        assert part.divergent == [False, True]


def test_refine_stuttering_g1_singletons(g1):
    assert refine_stuttering(g1).blocks == [[0], [1]]


def test_quotient_chain():
    g = gen_chain(5, 1, ODD, 0)
    reduced, vmap = quotient(g, refine_stuttering(g))
    assert reduced.vertex_count == 2
    assert reduced.priority == (1, 0)
    assert reduced.owner == (ODD, EVEN)
    assert reduced.successors == ((1,), (1,))
    assert vmap == [0, 0, 0, 0, 0, 1]


def test_quotient_divergent_pair_keeps_self_loops():
    g = gen_divergent_pair()
    reduced, _ = quotient(g, refine_stuttering(g))
    assert reduced.vertex_count == 2
    assert reduced.successors == ((0, 1), (1,))


def test_quotient_under_all_singletons_is_identity():
    g = Game(priority=[0, 1, 2], owner=[EVEN, ODD, EVEN], successors=[[1], [2], [0]])
    for refine in (refine_strong, refine_stuttering):
        reduced, vmap = quotient(g, refine(g))
        assert reduced == g
        assert vmap == [0, 1, 2]


def test_quotient_rejects_a_non_total_game():
    # A Game is always total, but a hand-built partition can still leave a
    # quotient block without a successor: the 2-cycle's one block diverges,
    # and marking it otherwise drops its only quotient edge.
    g = Game(priority=[0, 0], owner=[EVEN, EVEN], successors=[[1], [0]])
    part = Partition([0, 0], [False])
    with pytest.raises(ValueError, match="^quotient block 0 has no successor"):
        quotient(g, part)


def test_quotient_rejects_a_non_total_one_member_block():
    # the one-member path: a lone self-loop marked non-divergent leaves
    # its block without a quotient edge
    g = Game(priority=[0, 1], owner=[EVEN, ODD], successors=[[0], [0]])
    part = Partition([0, 1], [False, False])
    with pytest.raises(ValueError, match="^quotient block 0 has no successor"):
        quotient(g, part)


@pytest.mark.parametrize("n, o_chain", [(7, ODD), (3, EVEN)], ids=["longer", "shorter"])
def test_quotient_rejects_a_partition_of_another_game(n, o_chain):
    part = refine_stuttering(gen_chain(5, 1, ODD, 0))
    with pytest.raises(ValueError, match=f"^partition of 6 vertices for a game of {n + 1}$"):
        quotient(gen_chain(n, 1, o_chain, 0), part)


def test_quotient_rejects_a_block_map_naming_a_block_it_does_not_list():
    # vertex 2 sits in block 2 of a two-block partition: the quotient was a
    # two-vertex Game whose vertex 1 moved to vertex 2.  The partition
    # itself now refuses the block map, before quotient sees it.
    g = Game([0, 0, 1], [EVEN, EVEN, EVEN], [[1], [0], [2]])
    for block_of, v, b in (([0, 0, 2], 2, 2), ([-1, -1, 1], 0, -1)):
        with pytest.raises(
            ValueError, match=rf"^vertex {v}: block {b} is not an int in range\(2\)$"
        ):
            quotient(g, Partition(block_of, [True, True]))


@pytest.mark.parametrize("args, message", MALFORMED_PARTITIONS, ids=MALFORMED_IDS)
def test_quotient_rejects_a_partition_that_does_not_describe_the_game(args, message):
    # the first gave a quotient with two priorities and one successor
    # tuple, the second a bare IndexError; the partition now refuses both
    with pytest.raises(ValueError, match=f"^{message}$"):
        quotient(GAME_OF_THREE, Partition(*args))


def test_write_partition_rejects_a_divergence_flag_count_other_than_the_block_count():
    # this raised a bare IndexError; the partition now refuses it
    args, message = MALFORMED_PARTITIONS[0]
    with pytest.raises(ValueError, match=f"^{message}$"):
        write_partition(Partition(*args))


@pytest.mark.parametrize(
    "block_of, message",
    [
        ([0.0, 1], r"vertex 0: block 0\.0 is not an int in range\(2\)"),
        ([0, True], r"vertex 1: block True is not an int in range\(2\)"),
        (["0", 1], r"vertex 0: block '0' is not an int in range\(2\)"),
        ([0, -1, 1], r"vertex 1: block -1 is not an int in range\(2\)"),
        ([1, 0, 2], r"vertex 2: block 2 is not an int in range\(2\)"),
        ([0, 0], "partition block 1 has no vertex"),
    ],
    ids=["float", "bool", "str", "negative", "no-flag", "no-vertex"],
)
def test_partition_refuses_a_block_id_that_is_not_an_int_naming_a_flag(block_of, message):
    # 0.0 and True passed the partition checks, and quotient then built a
    # Game with successor ids True and 0.0
    with pytest.raises(ValueError, match=f"^{message}$"):
        Partition(block_of, [False, False])


def test_partition_derives_ascending_member_lists():
    # the member lists used to be an argument, trusted as given
    part = Partition([2, 0, 1, 0, 2, 1], [False, True, False])
    assert part.blocks == [[1, 3], [2, 5], [0, 4]]
    assert part.block_count == 3
    assert Partition([], []).blocks == []
    # equality reads the block map and the flags, of which the members follow
    assert part == Partition([2, 0, 1, 0, 2, 1], [False, True, False])


def test_replacing_a_field_of_a_partition_derives_its_members_again():
    part = Partition([0, 0, 1], [False, False])
    flagged = dataclasses.replace(part, divergent=[True, False])
    assert flagged.blocks == [[0, 1], [2]] and flagged.blocks is not part.blocks
    assert flagged.divergent == [True, False]
    assert dataclasses.replace(part, block_of=[1, 0, 0]).blocks == [[1, 2], [0]]
    with pytest.raises(ValueError, match="^partition block 1 has no vertex$"):
        dataclasses.replace(part, block_of=[0, 0, 0])


def test_quotient_and_lift_take_each_block_from_the_block_map():
    # member lists [[1], [0], [2]] against this block map gave quotient
    # block 0 vertex 1's priority and owner, and lift_solution went on
    g = Game([0, 1, 0], [ODD, EVEN, EVEN], [[2], [2], [2]])
    part = Partition([0, 1, 2], [False, False, True])
    reduced, vmap = quotient(g, part)
    assert reduced.priority == g.priority and reduced.owner == g.owner
    assert reduced.successors == ((2,), (2,), (2,))
    qsol = Solution([EVEN] * 3, Strategy(EVEN, {1: 2, 2: 2}), Strategy(ODD, {}))
    assert lift_solution(g, part, reduced, vmap, qsol).strategy_even.moves == {1: 2, 2: 2}


def test_quotient_rejects_a_partition_whose_blocks_mix_priorities_or_owners():
    # a same-size partition of another game: its one block used to become
    # a vertex of priority 0 owned by EVEN, and lifting a solution of that
    # quotient gave EVEN the move 1: 2 at vertex 1, which ODD owns
    g = Game([0, 1, 2], [EVEN, ODD, EVEN], [[1], [2], [2]])
    part = refine_stuttering(Game([1, 1, 1], [ODD, ODD, ODD], [[1], [2], [2]]))
    with pytest.raises(ValueError, match="^partition block 0 mixes priorities or owners$"):
        quotient(g, part)


_PACKAGE = Path(paritygame.__file__).parent


@pytest.mark.parametrize(
    "path", sorted(_PACKAGE.glob("*.py")), ids=lambda path: f"paritygame.{path.stem}"
)
def test_library_invariants_are_not_asserts(path):
    # assert statements vanish under ``python -O``; invariants must raise.
    # Parsed, not imported: importing ``__main__`` would run the CLI.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements on lines {lines}"


def test_strong_refines_stuttering():
    for seed in range(40):
        g = gen_random(1 + seed % 14, 3, 3, seed)
        strong = refine_strong(g)
        stut = refine_stuttering(g)
        for block in strong.blocks:
            images = {stut.block_of[v] for v in block}
            assert len(images) == 1


def test_monotone_shrinking():
    for seed in range(40):
        g = gen_random(1 + seed % 20, 3, 3, seed)
        qs, _ = quotient(g, refine_strong(g))
        qt, _ = quotient(g, refine_stuttering(g))
        assert qt.vertex_count <= qs.vertex_count <= g.vertex_count
        assert qt.edge_count <= qs.edge_count <= g.edge_count


def _inverse(successors) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(v for v, ws in enumerate(successors) if w in ws) for w in range(len(successors))
    )


def test_quotients_are_valid_total_games():
    # quotients skip the constructor's checks; rebuilding one through it
    # checks totality, id range, sorted successors and predecessors.
    # Derived games build their predecessor table on its first read, and a
    # priority conversion builds its own, whether the quotient's was read
    # or not.
    for seed in range(40):
        g = gen_random(1 + seed % 20, 3, 3, seed + 777)
        for refine in (refine_strong, refine_stuttering):
            reduced, _ = quotient(g, refine(g))
            assert reduced._pred is None
            converted = convert_priorities(reduced)
            assert converted.predecessors == _inverse(converted.successors)
            assert reduced._pred is None
            assert reduced.predecessors == _inverse(reduced.successors)
            assert_same_game(reduced, Game(reduced.priority, reduced.owner, reduced.successors))
            converted = convert_priorities(reduced)
            assert converted._pred is None
            assert converted.successors is reduced.successors
        sub = paritygame.solvers._subgame(g, list(range(0, g.vertex_count, 2)))
        assert sub._pred is None
        assert sub.predecessors == _inverse(sub.successors)


def test_quotient_idempotence():
    for seed in range(30):
        g = gen_random(1 + seed % 14, 3, 3, seed)
        for refine in (refine_strong, refine_stuttering):
            q1, _ = quotient(g, refine(g))
            q2, _ = quotient(q1, refine(q1))
            assert (q2.vertex_count, q2.edge_count) == (q1.vertex_count, q1.edge_count)


def test_blocks_are_priority_and_owner_uniform():
    for seed in range(30):
        g = gen_random(1 + seed % 16, 3, 3, seed)
        part = refine_stuttering(g)
        for v in g.vertices():
            rep = part.blocks[part.block_of[v]][0]
            assert game_label(g, v) == game_label(g, rep)


def game_label(g, v):
    return (g.priority[v], g.owner[v])


def test_winner_preservation_small_sample():
    for seed in range(60):
        g = gen_random(1 + seed % 25, 3, 3, seed)
        direct = solve_zielonka(g)
        for refine in (refine_strong, refine_stuttering):
            reduced, vmap = quotient(g, refine(g))
            qsol = solve_zielonka(reduced)
            assert all(
                direct.winner[v] == qsol.winner[vmap[v]] for v in g.vertices()
            )


def test_oracle_agrees_on_fixtures(g1):
    for g in (gen_chain(4, 1, ODD, 0), gen_branch(), gen_divergent_pair(), g1):
        expected = refine_stuttering(g).blocks
        assert partition_from_relation(g, oracle_stuttering_pairs(g)) == expected


def test_oracle_identity_when_labels_distinct():
    g = Game(priority=[0, 1, 2], owner=[EVEN, ODD, EVEN], successors=[[1], [2], [0]])
    rel = oracle_stuttering_pairs(g)
    assert rel == {(0, 0), (1, 1), (2, 2)}


def test_oracle_relation_is_equivalence():
    for seed in range(25):
        g = gen_random(1 + seed % 8, 3, 3, seed)
        rel = oracle_stuttering_pairs(g)
        assert all((w, v) in rel for (v, w) in rel)
        assert all(
            (v, u) in rel
            for (v, w) in rel
            for (w2, u) in rel
            if w2 == w
        )


def test_oracle_equivalence_random_games():
    for seed in range(80):
        g = gen_random(1 + seed % 12, 3, 3, seed)
        stut = refine_stuttering(g).blocks
        assert partition_from_relation(g, oracle_stuttering_pairs(g)) == stut, seed
        strong = refine_strong(g).blocks
        assert partition_from_relation(g, oracle_strong_pairs(g)) == strong, seed


@pytest.mark.parametrize("states", [3, 6, 10, 20])
def test_oracle_equivalence_nested_games(states):
    # verification-shaped games: long inert paths fanning into many exits
    g = nested_game(states)
    stut = refine_stuttering(g)
    assert partition_from_relation(g, oracle_stuttering_pairs(g)) == stut.blocks
    assert [stut.divergent[b] for b in stut.block_of] == compute_divergent(g, stut)


@settings(deadline=None, derandomize=True, max_examples=300)
@given(small_games(max_vertices=8, max_priority=2, max_successors=3))
def test_refinement_equals_oracle_property(g):
    stut = refine_stuttering(g).blocks
    assert partition_from_relation(g, oracle_stuttering_pairs(g)) == stut
    strong = refine_strong(g).blocks
    assert partition_from_relation(g, oracle_strong_pairs(g)) == strong


def test_stuttering_has_no_cliff_on_long_fanning_inert_paths():
    # inert paths here fan into hundreds of exit blocks, so copying every
    # component's exit set in every round is quadratic
    g = nested_game(12_000)
    t0 = time.perf_counter()
    assert refine_stuttering(g).block_count == 26_129
    assert time.perf_counter() - t0 < 10.0


def relation_satisfies_stuttering_conditions(game, rel):
    """Direct check of the defining conditions, with divergence and inert
    steps taken with respect to the relation itself."""
    if any((w, v) not in rel for (v, w) in rel):
        return False
    div = {v: divergent_wrt(game, rel, v) for v in game.vertices()}
    for (v, w) in rel:
        if game.priority[v] != game.priority[w] or game.owner[v] != game.owner[w]:
            return False
        if div[v] != div[w]:
            return False
        closure = inert_closure(game, rel, w)
        for u in game.successors[v]:
            if (v, u) in rel and (u, w) in rel:
                continue
            if not any(
                (v, w2) in rel and any((u, u2) in rel for u2 in game.successors[w2])
                for w2 in closure
            ):
                return False
    return True


def relation_of_partition(blocks):
    return {(v, w) for b in blocks for v in b for w in b}


def test_oracle_divergence_checked_only_at_transfer_fixpoint():
    """Regression: a tail 7 -> 8 <-> 9 once lent the chain vertex before it
    a spurious divergence witness, so interleaving divergence deletions
    with transfer deletions split {3..7} although that block is part of a
    larger self-consistent relation.  The oracle and the refinement must
    both keep it together."""
    g = Game(
        priority=[0] * 10,
        owner=[ODD, EVEN, EVEN, ODD, ODD, ODD, ODD, ODD, ODD, ODD],
        successors=[[1], [2], [3], [4], [5], [6], [7], [1, 8], [9], [8]],
    )
    part = refine_stuttering(g)
    assert part.blocks == [[0], [1, 2], [3, 4, 5, 6, 7], [8, 9]]
    rel = oracle_stuttering_pairs(g)
    assert partition_from_relation(g, rel) == part.blocks
    assert relation_satisfies_stuttering_conditions(g, rel)


def test_refinement_relation_is_self_consistent():
    # the partition's induced relation must satisfy the defining
    # conditions evaluated against itself, on a structured zoo where
    # blocks are large and divergence is in play
    from test_refinement_reference import game_zoo
    from paritygame.generators import Xoshiro256StarStar

    rng = Xoshiro256StarStar(999)
    for trial in range(60):
        g = game_zoo(trial, rng)
        if g.vertex_count > 14:
            continue
        part = refine_stuttering(g)
        rel = relation_of_partition(part.blocks)
        assert relation_satisfies_stuttering_conditions(g, rel), trial


def test_write_partition_dump():
    g = gen_chain(2, 1, ODD, 0)
    dump = write_partition(refine_stuttering(g))
    assert dump == "0 0 0\n1 0 0\n2 1 1"


def check_divergence_flags(g, name=""):
    """Both refinements flag a block divergent iff the oracle's
    compute_divergent flags each of its members, and the quotient keeps a
    self-loop exactly on the divergent blocks."""
    for refine in (refine_strong, refine_stuttering):
        part = refine(g)
        flags = compute_divergent(g, part)
        assert [part.divergent[b] for b in part.block_of] == flags, (name, refine.__name__)
        reduced, _ = quotient(g, part)
        loops = [b in reduced.successors[b] for b in reduced.vertices()]
        assert loops == part.divergent, (name, refine.__name__)


def test_divergence_flags_come_from_the_refinement():
    from test_refinement_reference import oracle_games

    for name, g in oracle_games():
        check_divergence_flags(g, name)
    # peeling orders an acyclic inert graph without Tarjan; a game with an
    # inert cycle gets exactly one call
    calls = []

    def counted(nodes, succ):
        calls.append(1)
        return paritygame.graphs.strongly_connected_components(nodes, succ)

    with mock.patch.object(paritygame.reduction, "strongly_connected_components", counted):
        assert refine_stuttering(alternating_chain(400)).block_count == 401
        assert refine_stuttering(relabelled(gen_chain(800, 1, EVEN, 0), 331)).block_count == 2
        assert calls == []
        assert refine_stuttering(gen_divergent_pair()).divergent == [True, True]
    assert len(calls) == 1


@settings(deadline=None, derandomize=True, max_examples=300)
@given(small_games(max_vertices=8, max_priority=2, max_successors=3))
def test_divergence_flags_come_from_the_refinement_on_small_games(g):
    check_divergence_flags(g)


def loose_vertices(g):
    """Vertices with no edge inside their (priority, owner) class, not even
    a self-loop: the ones stuttering refinement signs like strong
    bisimulation."""
    key = list(zip(g.priority, g.owner))
    return [v for v, ws in enumerate(g.successors) if all(key[w] != key[v] for w in ws)]


def check_loose_path(g):
    """Stuttering blocks equal the oracle's, and exactly the loose vertices
    are recorded as bare vertices among the inert components."""
    assert refine_stuttering(g).blocks == partition_from_relation(g, oracle_stuttering_pairs(g))
    comps, comp_of = paritygame.reduction._inert_components(
        g, paritygame.reduction._initial_blocks(g)[0]
    )
    bare = [v for v in g.vertices() if type(comps[comp_of[v]]) is int]
    assert bare == loose_vertices(g)
    assert all(comps[comp_of[v]] == v for v in bare)


def test_a_vertex_whose_only_inert_edge_is_a_self_loop_is_not_loose():
    # 0 diverges on its self-loop, 1 and 2 on their 2-cycle, all exit to 3
    # only: one block; signed as loose, 0 would split off
    g = Game([1, 1, 1, 0], [EVEN] * 4, [[0, 3], [2, 3], [1, 3], [3]])
    check_loose_path(g)
    assert refine_stuttering(g).blocks == [[0, 1, 2], [3]]


def test_a_tarjan_singleton_that_reaches_an_inert_cycle_is_not_loose():
    # 0 is a component of its own that peeling never takes, since it steps
    # into the inert cycle 1 <-> 2; 3 diverges on a self-loop; all four
    # exit to 4 only and diverge, so they form one block
    g = Game([1, 1, 1, 1, 0], [EVEN] * 5, [[1, 4], [2, 4], [1, 4], [3, 4], [4]])
    check_loose_path(g)
    assert refine_stuttering(g).blocks == [[0, 1, 2, 3], [4]]


def test_a_vertex_whose_inert_edges_all_become_non_inert():
    # 0's one inert edge goes to 1, which splits off in the first round:
    # from then on 0 has no inert edge, but it was not loose, so the
    # component path signs it; 4 keeps 0's company; 1 and 5 are loose,
    # the sinks 2 and 3 are not
    g = Game(
        [1, 1, 0, 2, 1, 1],
        [EVEN] * 6,
        [[1, 3], [2], [2], [3], [1, 3], [3]],
    )
    check_loose_path(g)
    part = refine_stuttering(g)
    assert part.blocks == [[0, 4], [1], [2], [3], [5]]
    assert all(part.block_of[w] != part.block_of[0] for w in g.successors[0])
    assert loose_vertices(g) == [1, 5]


@settings(deadline=None, derandomize=True, max_examples=300)
@given(small_games(max_vertices=10, max_priority=1, max_successors=3))
def test_loose_and_non_loose_vertices_mixed(g):
    assume(0 < len(loose_vertices(g)) < g.vertex_count)
    check_loose_path(g)


def test_nested_block_count_is_pinned():
    # signing every one-member component as loose gave 5,384 blocks here
    assert refine_stuttering(nested_game(2000)).block_count == 4168
