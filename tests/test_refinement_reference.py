"""Differential check of the incremental refinement engine.

The production engine caches signatures and re-signs only the vertices
whose signature a split may have changed; the reference below recomputes
every signature of every block against the full partition each round,
with its own whole-block stuttering signature function, independent of
the engine's dirty-set signer.  Both must produce identical partitions
on every game, including the structured families that trigger long split
cascades and multi-way splits, and games whose blocks are all singletons
from the start.
"""

from paritygame import Game, gen_chain, gen_random, refine_strong, refine_stuttering
from paritygame.generators import Xoshiro256StarStar
from paritygame.graphs import strongly_connected_components, vertices_with_infinite_path
from paritygame.reduction import _initial_blocks

from helpers import alternating_chain, priority_ladder


def _stuttering_signatures(
    game: Game, block_of: list[int], members: list[int]
) -> dict[int, tuple[bool, frozenset[int]]]:
    """Signature (divergence bit, exit-block set) for each member of one
    block, with exits propagated backwards over intra-block edges."""
    member_set = set(members)
    intra = {v: [w for w in game.successors[v] if w in member_set] for v in members}

    divergent = vertices_with_infinite_path(members, intra)

    # Exit sets are constant on intra-block SCCs; Tarjan emits components
    # before the components that reach them, so one pass suffices.
    sccs = strongly_connected_components(members, intra)
    scc_of: dict[int, int] = {}
    for i, comp in enumerate(sccs):
        for v in comp:
            scc_of[v] = i
    scc_exits: list[frozenset[int]] = []
    for i, comp in enumerate(sccs):
        exits: set[int] = set()
        for v in comp:
            for w in game.successors[v]:
                if w not in member_set:
                    exits.add(block_of[w])
            for w in intra[v]:
                if scc_of[w] != i:
                    exits |= scc_exits[scc_of[w]]
        scc_exits.append(frozenset(exits))

    return {v: (v in divergent, scc_exits[scc_of[v]]) for v in members}


def _naive_rounds(game, signature_of):
    block_of, blocks = _initial_blocks(game)
    while True:
        groups: dict = {}
        for b, members in sorted(blocks.items()):
            sigs = signature_of(game, block_of, members)
            for v in members:
                groups.setdefault((b, sigs[v]), []).append(v)
        if len(groups) == len(blocks):
            return sorted(sorted(vs) for vs in groups.values())
        ordered = sorted(groups.values(), key=lambda vs: vs[0])
        blocks = dict(enumerate(ordered))
        for b, vs in blocks.items():
            for v in vs:
                block_of[v] = b


def naive_strong(game):
    def sig(game, block_of, members):
        return {
            v: tuple(sorted({block_of[w] for w in game.successors[v]}))
            for v in members
        }

    return _naive_rounds(game, sig)


def naive_stuttering(game):
    return _naive_rounds(game, _stuttering_signatures)


def game_zoo(trial: int, rng: Xoshiro256StarStar) -> Game:
    kind = trial % 8
    if kind < 3:
        return gen_random(1 + rng.below(40), 1 + rng.below(4), rng.below(4), trial)
    if kind == 3:
        return gen_chain(1 + rng.below(30), rng.below(3), rng.below(2), rng.below(3))
    if kind == 4:
        # chain with stretches of equal labels and a random back edge
        n = 2 + rng.below(30)
        prio = []
        cur = rng.below(2)
        for _ in range(n):
            if rng.below(4) == 0:
                cur = rng.below(3)
            prio.append(cur)
        succ = [[i + 1] for i in range(n - 1)]
        succ.append([rng.below(n)] if rng.below(2) else [n - 1])
        return Game(prio, [rng.below(2) for _ in range(n)], succ)
    if kind == 5:
        return alternating_chain(1 + rng.below(30))
    if kind == 6:
        return priority_ladder(1 + rng.below(12))
    n = 1 + rng.below(8)
    succ = [sorted({rng.below(n) for _ in range(1 + rng.below(n))}) for _ in range(n)]
    return Game([rng.below(2) for _ in range(n)], [rng.below(2) for _ in range(n)], succ)


def test_incremental_refinement_matches_naive_reference():
    rng = Xoshiro256StarStar(777)
    for trial in range(400):
        g = game_zoo(trial, rng)
        assert sorted(sorted(b) for b in refine_strong(g).blocks) == naive_strong(g), trial
        assert (
            sorted(sorted(b) for b in refine_stuttering(g).blocks)
            == naive_stuttering(g)
        ), trial
