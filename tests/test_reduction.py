"""Partition refinement, quotients and the relational oracles."""

import ast
import inspect
from unittest import mock

import pytest
from hypothesis import given, settings

import paritygame.bench
import paritygame.cli
import paritygame.game
import paritygame.generators
import paritygame.graphs
import paritygame.io
import paritygame.reduction
import paritygame.solvers
import paritygame.strategy

from paritygame import (
    EVEN,
    ODD,
    Game,
    compute_divergent,
    gen_branch,
    gen_chain,
    gen_divergent_pair,
    gen_random,
    initial_partition,
    quotient,
    refine_strong,
    refine_stuttering,
    solve_zielonka,
    write_partition,
)

from helpers import alternating_chain, small_games
from oracles import (
    divergent_wrt,
    inert_closure,
    oracle_strong_pairs,
    oracle_stuttering_pairs,
    partition_from_relation,
)


def test_initial_partition_g1(g1):
    assert initial_partition(g1).blocks == [[0], [1]]


def test_initial_partition_branch():
    assert initial_partition(gen_branch()).blocks == [[0, 1, 2], [3]]


def test_initial_partition_uniform_game():
    g = Game(priority=[2] * 4, owner=[ODD] * 4, successors=[[1], [2], [3], [0]])
    assert initial_partition(g).blocks == [[0, 1, 2, 3]]


def test_refine_strong_branch():
    # v0 steps into the block {v1, v2}, the others step straight to the sink
    assert refine_strong(gen_branch()).blocks == [[0], [1, 2], [3]]


def test_refine_strong_chain_counts_steps():
    for n in (1, 4, 9):
        part = refine_strong(gen_chain(n, 1, ODD, 0))
        assert part.block_count == n + 1
        assert all(len(b) == 1 for b in part.blocks)


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
    assert compute_divergent(g1, initial_partition(g1)) == [False, False]


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


def test_quotient_rejects_initial_partition(g1):
    with pytest.raises(ValueError):
        quotient(g1, initial_partition(g1))


def test_quotient_rejects_a_non_total_game():
    g = Game(priority=[0, 1], owner=[EVEN, EVEN], successors=[[1], []])
    for refine in (refine_strong, refine_stuttering):
        with pytest.raises(ValueError, match="totality"):
            quotient(g, refine(g))


@pytest.mark.parametrize(
    "module",
    [
        paritygame.bench,
        paritygame.cli,
        paritygame.game,
        paritygame.generators,
        paritygame.graphs,
        paritygame.io,
        paritygame.reduction,
        paritygame.solvers,
        paritygame.strategy,
    ],
)
def test_library_invariants_are_not_asserts(module):
    # assert statements vanish under ``python -O``; invariants must raise
    tree = ast.parse(inspect.getsource(module))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{module.__name__}: assert statements on lines {lines}"


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


def test_quotients_are_valid_total_games():
    from paritygame import validate

    for seed in range(40):
        g = gen_random(1 + seed % 20, 3, 3, seed + 777)
        for refine in (refine_strong, refine_stuttering):
            reduced, _ = quotient(g, refine(g))
            assert validate(reduced) == []


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


@settings(deadline=None, derandomize=True, max_examples=300)
@given(small_games(max_vertices=8, max_priority=2, max_successors=3))
def test_refinement_equals_oracle_property(g):
    stut = refine_stuttering(g).blocks
    assert partition_from_relation(g, oracle_stuttering_pairs(g)) == stut
    strong = refine_strong(g).blocks
    assert partition_from_relation(g, oracle_strong_pairs(g)) == strong


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


def _not_called(*args):
    raise AssertionError("a refinement called compute_divergent")


def check_divergence_flags(g, name=""):
    """Both refinements flag a block divergent iff compute_divergent flags
    each of its members, without calling it, and the quotient keeps a
    self-loop exactly on the divergent blocks."""
    for refine in (refine_strong, refine_stuttering):
        with mock.patch.object(paritygame.reduction, "compute_divergent", _not_called):
            part = refine(g)
        flags = compute_divergent(g, part)
        assert [part.divergent[b] for b in part.block_of] == flags, (name, part.kind)
        reduced, _ = quotient(g, part)
        loops = [b in reduced.successors[b] for b in reduced.vertices()]
        assert loops == part.divergent, (name, part.kind)


def test_divergence_flags_come_from_the_refinement():
    from test_refinement_reference import oracle_games

    for name, g in oracle_games():
        check_divergence_flags(g, name)
    # one condensation per call, however many rounds the refinement takes
    calls = []

    def counted(nodes, succ):
        calls.append(1)
        return paritygame.graphs.strongly_connected_components(nodes, succ)

    g = alternating_chain(400)
    with mock.patch.object(paritygame.reduction, "strongly_connected_components", counted):
        assert refine_stuttering(g).block_count == 401
    assert len(calls) == 1


@settings(deadline=None, derandomize=True, max_examples=300)
@given(small_games(max_vertices=8, max_priority=2, max_successors=3))
def test_divergence_flags_come_from_the_refinement_on_small_games(g):
    check_divergence_flags(g)
