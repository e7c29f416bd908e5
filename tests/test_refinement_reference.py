"""Differential checks of the incremental refinement engine.

The production engine caches signatures and re-signs only the vertices
whose signature a split may have changed; the reference below recomputes
every signature of every block against the full partition each round,
with its own whole-block stuttering signature function, independent of
the engine's dirty-set signer.  Both must produce identical partitions
on every game, including the structured families that trigger long split
cascades and multi-way splits, and games whose blocks are all singletons
from the start.

A second reference is the engine as it stood when it kept a set of
members per block; the flat engine that replaced it must give the same
partitions (numbering and divergence flags included) and the same
quotient games.
"""

import pytest

from paritygame import (
    EVEN,
    Game,
    Partition,
    gen_chain,
    gen_random,
    quotient,
    refine_strong,
    refine_stuttering,
)
import paritygame.reduction as reduction
from paritygame.generators import Xoshiro256StarStar
from paritygame.graphs import strongly_connected_components

from helpers import (
    alternating_chain,
    assert_same_game,
    comb,
    nested_game,
    priority_ladder,
    relabelled,
)
from oracles import (
    compute_divergent,
    oracle_strong_pairs,
    oracle_stuttering_pairs,
    partition_from_relation,
    reference_infinite_path,
)


def _stuttering_signatures(
    game: Game, block_of: list[int], members: list[int]
) -> dict[int, tuple[bool, frozenset[int]]]:
    """Signature (divergence bit, exit-block set) for each member of one
    block, with exits propagated backwards over intra-block edges."""
    member_set = set(members)
    intra = {v: [w for w in game.successors[v] if w in member_set] for v in members}

    divergent = reference_infinite_path(members, intra.__getitem__)

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
    groups: dict = {}
    for v in game.vertices():
        groups.setdefault((game.priority[v], game.owner[v]), []).append(v)
    blocks = dict(enumerate(groups.values()))
    block_of = [0] * game.vertex_count
    for b, vs in blocks.items():
        for v in vs:
            block_of[v] = b
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


# The engine as it stood with a dict of member sets per block, kept
# verbatim (signature functions and dirty rules included) as the exactness
# oracle for the size-array engine: both must give equal partitions,
# numbering and divergence flags included, and equal quotients.

def _initial_blocks(game: Game) -> tuple[list[int], dict[int, list[int]]]:
    groups: dict[tuple[int, int], list[int]] = {}
    for v in game.vertices():
        groups.setdefault((game.priority[v], game.owner[v]), []).append(v)
    ordered = sorted(groups.values(), key=lambda vs: vs[0])
    block_of = [0] * game.vertex_count
    blocks: dict[int, list[int]] = {}
    for b, vs in enumerate(ordered):
        blocks[b] = vs
        for v in vs:
            block_of[v] = b
    return block_of, blocks


def _finalize(game: Game, block_of: list[int], blocks: dict[int, list[int]], equivalence: str) -> Partition:
    ordered = sorted(blocks.values(), key=lambda vs: vs[0])
    final_of = [0] * game.vertex_count
    for b, vs in enumerate(ordered):
        for v in vs:
            final_of[v] = b
    part = Partition(block_of=final_of, blocks=ordered, divergent=[False] * len(ordered))
    flags = compute_divergent(game, part)
    for b, vs in enumerate(ordered):
        flag = flags[vs[0]]
        if equivalence == "stuttering":
            if any(flags[v] != flag for v in vs):
                raise RuntimeError(f"divergence not uniform in stable block {b}")
        part.divergent[b] = flag
    return part


def _refine(game: Game, signatures, next_dirty) -> tuple[list[int], dict[int, list[int]]]:
    """Dirty-set signature refinement shared by both equivalences.

    ``signatures(game, block_of, sig, dirty)`` returns the new signature of
    every vertex in the sorted list ``dirty``; it may read the cached
    ``sig`` of vertices outside ``dirty``.  ``next_dirty(game, block_of,
    moved)`` returns the vertices whose signature a round's moves may have
    changed.  Blocks stay signature-uniform between rounds, so a round
    splits off exactly the members whose signature changed, never
    rescanning the remainder; long split cascades (chains) therefore stay
    linear.  Members of singleton blocks are never re-signed: a singleton
    cannot split, and no other vertex reads its signature.
    """
    block_of, initial = _initial_blocks(game)
    blocks: dict[int, set[int]] = {b: set(vs) for b, vs in initial.items()}
    del initial
    next_id = len(blocks)
    sig: list[tuple | None] = [None] * game.vertex_count
    dirty = [v for v in game.vertices() if len(blocks[block_of[v]]) > 1]
    while dirty:
        changed: dict[int, list[int]] = {}
        for v, s in zip(dirty, signatures(game, block_of, sig, dirty)):
            if s != sig[v]:
                sig[v] = s
                changed.setdefault(block_of[v], []).append(v)
        moved: list[int] = []
        for b in sorted(changed):
            members = blocks[b]
            touched = changed[b]
            groups: dict[tuple, list[int]] = {}
            for v in touched:
                groups.setdefault(sig[v], []).append(v)  # type: ignore[arg-type]
            parts = list(groups.values())
            if len(parts) > 1:
                parts.sort(key=lambda g: (-len(g), g[0]))
            if len(touched) == len(members):
                if len(parts) == 1:
                    continue  # whole block re-signed uniformly
                blocks[b] = set(parts[0])
                parts = parts[1:]
            else:
                # untouched members share the stale-but-valid signature and
                # keep the block id; every changed group splits away
                members.difference_update(touched)
            for part in parts:
                blocks[next_id] = set(part)
                for v in part:
                    block_of[v] = next_id
                moved.extend(part)
                next_id += 1
        dirty = [v for v in next_dirty(game, block_of, moved) if len(blocks[block_of[v]]) > 1]
        dirty.sort()
    # free the engine state first: _finalize's own allocations set the peak
    del sig, dirty
    final = {}
    for b in list(blocks):
        final[b] = sorted(blocks.pop(b))
    return block_of, final


def _sign_strong(game: Game, block_of: list[int], sig: list, dirty: list[int]) -> list[tuple]:
    succ = game.successors
    return [tuple(sorted({block_of[w] for w in succ[v]})) for v in dirty]


def _dirty_strong(game: Game, block_of: list[int], moved: list[int]) -> set[int]:
    pred = game.predecessors
    return {p for u in moved for p in pred[u]}


def _sign_stuttering(game: Game, block_of: list[int], sig: list, dirty: list[int]) -> list[tuple]:
    """Signature (divergence bit, sorted exit-block tuple) of every dirty
    vertex with respect to its current block.

    Inert (intra-block) successors outside ``dirty`` contribute their
    cached signatures: the dirty set is closed backwards under inert
    edges, so those are still exact.  Dirty vertices without a dirty inert
    successor are signed directly; the rest are signed per strongly
    connected component of the dirty inert graph, whose exit sets and
    divergence are constant on a component.
    """
    succ = game.successors
    in_dirty = set(dirty)
    new: dict[int, tuple[bool, tuple[int, ...]]] = {}
    local: dict[int, tuple[bool, set[int]]] = {}
    inert: dict[int, list[int]] = {}
    for v in dirty:
        b = block_of[v]
        div = False
        exits: set[int] = set()
        inner: list[int] = []
        for w in succ[v]:
            bw = block_of[w]
            if bw != b:
                exits.add(bw)
            elif w in in_dirty:
                inner.append(w)
            else:
                d, e = sig[w]  # type: ignore[misc]
                div = div or d
                exits.update(e)
        if inner:
            local[v] = (div, exits)
            inert[v] = inner
        else:
            new[v] = (div, tuple(sorted(exits)))
    # Tarjan emits components before the components that reach them, so
    # one pass over its output signs every component.
    for comp in strongly_connected_components(inert, inert):
        comp_set = set(comp)
        div = len(comp) > 1
        exits = set()
        for v in comp:
            d, e = local[v]
            div = div or d
            exits |= e
            for w in inert[v]:
                if w in comp_set:
                    div = div or w == v
                else:
                    dw, ew = new[w]
                    div = div or dw
                    exits.update(ew)
        s = (div, tuple(sorted(exits)))
        for v in comp:
            new[v] = s
    return [new[v] for v in dirty]


def _dirty_stuttering(game: Game, block_of: list[int], moved: list[int]) -> set[int]:
    """Moved vertices and their predecessors, closed backwards under edges
    that are inert in the new partition: exactly the vertices whose exit
    sets or divergence may have changed."""
    pred = game.predecessors
    dirty = set(moved)
    for u in moved:
        dirty.update(pred[u])
    stack = list(dirty)
    while stack:
        x = stack.pop()
        b = block_of[x]
        for p in pred[x]:
            if block_of[p] == b and p not in dirty:
                dirty.add(p)
                stack.append(p)
    return dirty


def reference_strong(game: Game) -> Partition:
    block_of, blocks = _refine(game, _sign_strong, _dirty_strong)
    return _finalize(game, block_of, blocks, "strong")


def reference_stuttering(game: Game) -> Partition:
    block_of, blocks = _refine(game, _sign_stuttering, _dirty_stuttering)
    return _finalize(game, block_of, blocks, "stuttering")


def reference_quotient(game: Game, partition: Partition, equivalence: str) -> tuple[Game, list[int]]:
    """Quotient game of a stable partition of ``equivalence`` (``"strong"``
    or ``"stuttering"``) plus the vertex-to-block map.

    Block priorities and owners come from the representative (blocks are
    uniform by construction).  For strong partitions a block keeps a
    self-loop iff some member has an intra-block edge; for stuttering
    partitions intra-block edges collapse into a self-loop exactly on
    divergent blocks.
    """
    block_of = partition.block_of
    priority = []
    owner = []
    successors = []
    for b, members in enumerate(partition.blocks):
        rep = members[0]
        priority.append(game.priority[rep])
        owner.append(game.owner[rep])
        targets = {block_of[w] for v in members for w in game.successors[v]}
        if equivalence == "stuttering":
            targets.discard(b)
            if partition.divergent[b]:
                targets.add(b)
        if not targets:
            raise ValueError(f"quotient block {b} has no successor (totality broken)")
        successors.append(sorted(targets))
    return Game(priority, owner, successors), list(block_of)


def torus(k: int, seed: int) -> Game:
    """k x k torus, each vertex moving right or down, with priorities 0..2
    and owners drawn from ``seed``."""
    rng = Xoshiro256StarStar(seed)
    n = k * k
    successors = [[i * k + (j + 1) % k, (i + 1) % k * k + j] for i in range(k) for j in range(k)]
    return Game([rng.below(3) for _ in range(n)], [rng.below(2) for _ in range(n)], successors)


def oracle_games():
    rng = Xoshiro256StarStar(777)
    for trial in range(400):
        yield f"zoo {trial}", game_zoo(trial, rng)
    for n in (1, 2, 5, 40, 300):
        for prio in (0, 1):
            yield f"chain {n} {prio}", gen_chain(n, prio, 1, 2)
        yield f"alternating chain {n}", alternating_chain(n)
    # the chains workload's shapes, ids permuted: strong refinement (and
    # stuttering on the alternating chain) splits one vertex per round off
    # a large block, in no particular id order
    yield "permuted chain 800", relabelled(gen_chain(800, 1, EVEN, 0), 331)
    yield "permuted alternating chain 400", relabelled(alternating_chain(400), 332)
    for n in (1, 3, 30, 150):
        yield f"ladder {n}", priority_ladder(n)
    yield "torus 200", torus(200, 5)
    yield "nested 300", nested_game(300)
    for seed in (1, 2, 3):
        yield f"random {seed}", gen_random(10_000, 5, 3, seed)


@pytest.mark.parametrize(
    "engine, reference, equivalence",
    [
        (refine_strong, reference_strong, "strong"),
        (refine_stuttering, reference_stuttering, "stuttering"),
    ],
    ids=["strong", "stuttering"],
)
def test_engine_matches_dict_of_sets_reference(engine, reference, equivalence):
    for name, g in oracle_games():
        part = engine(g)
        ref = reference(g)
        assert part == ref, name
        reduced, vmap = quotient(g, part)
        ref_reduced, ref_vmap = reference_quotient(g, ref, equivalence)
        assert_same_game(reduced, ref_reduced)
        assert vmap == ref_vmap, name


# The engine signs a lone dirty vertex outside its rounds and follows the
# dirty set it leaves for as long as that holds one vertex.  On these
# families a cascade of such one-vertex splits runs along the spine, meets
# a tooth (one vertex of its own priority, or a binary in-tree), leaves the
# lane for a round or a few, and comes back; with owners that flip every
# two steps, stuttering merges stretches of spine instead.
LANE_FAMILIES = {
    "comb": lambda spine, stretch: comb(spine, 3, 0, 2, stretch),
    "binary in-trees": lambda spine, stretch: comb(spine, 6, 2, 1, stretch),
}


def _signing_trace(monkeypatch) -> list[str]:
    """A list that every later refinement appends ``"B"`` to for each
    vertex a batched signing signs and ``"L"`` for each lone-vertex split,
    through a wrapper around the signer the engine is given.  The engine
    splits a lone vertex off unsigned, so a ``next_dirty`` call with no
    signing since the previous one marks a lone split."""
    trace: list[str] = []
    refine = reduction._refine

    def traced(game, signer):
        def traced_signer(game, block_of):
            sign, next_dirty, diverges = signer(game, block_of)
            signed = False

            def sign_batch(dirty):
                nonlocal signed
                signed = True
                trace.extend("B" * len(dirty))
                return sign(dirty)

            def next_dirty_after(moved):
                nonlocal signed
                if not signed:
                    trace.append("L")
                signed = False
                return next_dirty(moved)

            return sign_batch, next_dirty_after, diverges

        return refine(game, traced_signer)

    monkeypatch.setattr(reduction, "_refine", traced)
    return trace


@pytest.mark.parametrize("family", sorted(LANE_FAMILIES))
def test_lane_cascades_match_the_relational_oracles(family):
    for spine in (1, 2, 7, 16, 30):
        for stretch in (1, 2):
            g = relabelled(LANE_FAMILIES[family](spine, stretch), spine)
            assert refine_strong(g).blocks == partition_from_relation(
                g, oracle_strong_pairs(g)
            ), (spine, stretch)
            assert refine_stuttering(g).blocks == partition_from_relation(
                g, oracle_stuttering_pairs(g)
            ), (spine, stretch)


@pytest.mark.parametrize("family", sorted(LANE_FAMILIES))
def test_lane_cascades_match_the_dict_of_sets_reference(family, monkeypatch):
    trace = _signing_trace(monkeypatch)
    for spine in (60, 500):
        for stretch in (1, 2):
            g = relabelled(LANE_FAMILIES[family](spine, stretch), spine)
            for engine, reference, equivalence in (
                (refine_strong, reference_strong, "strong"),
                (refine_stuttering, reference_stuttering, "stuttering"),
            ):
                trace.clear()
                part = engine(g)
                signings = "".join(trace)
                ref = reference(g)
                assert part == ref, (spine, stretch)
                reduced, vmap = quotient(g, part)
                ref_reduced, ref_vmap = reference_quotient(g, ref, equivalence)
                assert_same_game(reduced, ref_reduced)
                assert vmap == ref_vmap
                if stretch == 1:
                    # the lane was left for a round, and entered after one
                    assert "LB" in signings and "BL" in signings, signings


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize(
    "make, engine, signed",
    [
        (lambda: gen_chain(800, 1, EVEN, 0), refine_strong, 800),
        (lambda: alternating_chain(400), refine_stuttering, 400),
    ],
    ids=["even-chain-strong", "alternating-chain-stuttering"],
)
def test_a_split_cascade_signs_each_vertex_once(make, engine, signed, seed, monkeypatch):
    # the first round signs every vertex of a block of several; after it,
    # each lone dirty vertex is split off unsigned (a lane that signed it
    # again would make 1,598 and 797 signings)
    trace = _signing_trace(monkeypatch)
    engine(relabelled(make(), seed))
    assert trace.count("B") == signed
