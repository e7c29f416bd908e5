"""Partition refinement for parity games.

Two equivalences are computed by signature-based refinement from the
initial (priority, owner) partition:

* strong bisimilarity: vertices in a block must reach the same set of
  successor blocks in one step;
* divergence-sensitive stuttering equivalence: vertices in a block must
  agree on (a) whether an infinite path can stay inside the block and
  (b) which other blocks are reachable after a run of intra-block edges.

One engine serves both, with a signature function per equivalence.
Its state is flat: the block of every vertex, the size of every block and
a cached signature per vertex.  Each round re-signs only the dirty
vertices of non-singleton blocks (those whose signature the previous
round's splits may have changed) and splits off exactly the members whose
signature changed.  Member lists exist only in the result: one ascending
pass over the block map builds them sorted and numbers the blocks by
their least member.  Both refinements are deterministic, since the
coarsest stable partition is unique.  The test suite cross-checks both
on small games against relational greatest-fixpoint oracles of its own,
and against the earlier engine that kept a set of members per block.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game import Game
from .graphs import strongly_connected_components, vertices_with_infinite_path


@dataclass
class Partition:
    """Disjoint blocks over the vertex set.

    ``blocks`` maps dense block ids to sorted vertex lists, the block
    representative being the least member.  ``divergent`` flags (per block)
    are meaningful for stuttering partitions: they record whether an
    infinite path can stay inside the block.  ``kind`` records which
    refinement produced the partition (``"initial"``, ``"strong"`` or
    ``"stuttering"``).
    """

    block_of: list[int]
    blocks: list[list[int]]
    divergent: list[bool]
    kind: str

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def _initial_blocks(game: Game) -> tuple[list[int], list[int]]:
    """Block of every vertex in the (priority, owner) partition, classes
    numbered by first occurrence, and the size of every block."""
    ids: dict[tuple[int, int], int] = {}
    block_of = [ids.setdefault(key, len(ids)) for key in zip(game.priority, game.owner)]
    size = [0] * len(ids)
    for b in block_of:
        size[b] += 1
    return block_of, size


def _finalize(game: Game, block_of: list[int], kind: str) -> Partition:
    """Renumber ``block_of`` in place by least member and collect the
    sorted member lists, both in one ascending pass; then attach the
    divergence flags, which must be uniform on stuttering blocks."""
    final = [-1] * (max(block_of, default=-1) + 1)
    blocks: list[list[int]] = []
    for v, b in enumerate(block_of):
        f = final[b]
        if f < 0:
            f = final[b] = len(blocks)
            blocks.append([v])
        else:
            blocks[f].append(v)
        block_of[v] = f
    part = Partition(block_of=block_of, blocks=blocks, divergent=[], kind=kind)
    flags = compute_divergent(game, part)
    part.divergent = [flags[vs[0]] for vs in blocks]
    if kind == "stuttering":
        for b, vs in enumerate(blocks):
            if len(vs) > 1 and any(flags[v] != part.divergent[b] for v in vs):
                raise RuntimeError(f"divergence not uniform in stable block {b}")
    return part


def initial_partition(game: Game) -> Partition:
    """Coarsest partition whose blocks agree on priority and owner."""
    return _finalize(game, _initial_blocks(game)[0], kind="initial")


def compute_divergent(game: Game, partition: Partition) -> list[bool]:
    """Per-vertex divergence flags with respect to a partition: a vertex
    diverges iff it can reach, along intra-block edges, an intra-block
    cycle."""
    block_of = partition.block_of
    # a vertex without an intra-block successor cannot diverge, so only
    # the others enter the peeling
    intra: dict[int, list[int]] = {}
    for v, succs in enumerate(game.successors):
        b = block_of[v]
        inside = [w for w in succs if block_of[w] == b]
        if inside:
            intra[v] = inside
    alive = vertices_with_infinite_path(intra, intra)
    return [v in alive for v in game.vertices()]


def _refine(game: Game, signatures, next_dirty) -> list[int]:
    """Dirty-set signature refinement shared by both equivalences; returns
    the block of every vertex.

    ``signatures(game, block_of, sig, dirty)`` returns the new signature of
    every vertex in the sorted list ``dirty``; it may read the cached
    ``sig`` of vertices outside ``dirty``.  ``next_dirty(game, block_of,
    moved)`` returns the vertices whose signature a round's moves may have
    changed.  The state is ``block_of`` and the size of every block, no
    member sets.  Blocks stay signature-uniform between rounds, so a round
    splits off exactly the members whose signature changed, never
    rescanning the remainder; long split cascades (chains) therefore stay
    linear.  Members of singleton blocks are never re-signed: a singleton
    cannot split, and no other vertex reads its signature.
    """
    block_of, size = _initial_blocks(game)
    sig: list[tuple | None] = [None] * game.vertex_count
    dirty = [v for v, b in enumerate(block_of) if size[b] > 1]
    while dirty:
        changed: dict[int, list[int]] = {}
        for v, s in zip(dirty, signatures(game, block_of, sig, dirty)):
            if s != sig[v]:
                sig[v] = s
                changed.setdefault(block_of[v], []).append(v)
        moved: list[int] = []
        for b in sorted(changed):
            touched = changed[b]
            groups: dict[tuple, list[int]] = {}
            for v in touched:
                groups.setdefault(sig[v], []).append(v)  # type: ignore[arg-type]
            parts = list(groups.values())
            if len(parts) > 1:
                parts.sort(key=lambda g: (-len(g), g[0]))
            if len(touched) == size[b]:
                if len(parts) == 1:
                    continue  # whole block re-signed uniformly
                # the largest group keeps the block id
                size[b] = len(parts.pop(0))
            else:
                # untouched members share the stale-but-valid signature and
                # keep the block id; every changed group splits away
                size[b] -= len(touched)
            for part in parts:
                new_id = len(size)
                size.append(len(part))
                for v in part:
                    block_of[v] = new_id
                moved.extend(part)
        dirty = sorted(v for v in next_dirty(game, block_of, moved) if size[block_of[v]] > 1)
    return block_of


def _sign_strong(game: Game, block_of: list[int], sig: list, dirty: list[int]) -> list[tuple]:
    succ = game.successors
    return [tuple(sorted({block_of[w] for w in succ[v]})) for v in dirty]


def _dirty_strong(game: Game, block_of: list[int], moved: list[int]) -> set[int]:
    pred = game.predecessors
    return {p for u in moved for p in pred[u]}


def refine_strong(game: Game) -> Partition:
    """Coarsest refinement of the initial partition in which all members of
    a block have identical sets of successor blocks (strong bisimilarity).

    A vertex's signature is its set of successor blocks, so only the
    predecessors of vertices that changed block are re-signed.
    """
    return _finalize(game, _refine(game, _sign_strong, _dirty_strong), kind="strong")


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


def refine_stuttering(game: Game) -> Partition:
    """Coarsest refinement of the initial partition that is stable for
    divergence-sensitive stuttering equivalence.

    A vertex's signature is its divergence flag and the set of other
    blocks it reaches after a run of intra-block edges.  Each round
    re-signs only the dirty vertices of non-singleton blocks: those that
    moved, their predecessors, and whatever reaches them by intra-block
    edges.
    """
    return _finalize(game, _refine(game, _sign_stuttering, _dirty_stuttering), kind="stuttering")


def quotient(game: Game, partition: Partition) -> tuple[Game, list[int]]:
    """Quotient game of a stable partition plus the vertex-to-block map.

    Block priorities and owners come from the representative (blocks are
    uniform by construction).  For strong partitions a block keeps a
    self-loop iff some member has an intra-block edge; for stuttering
    partitions intra-block edges collapse into a self-loop exactly on
    divergent blocks.
    """
    if partition.kind not in ("strong", "stuttering"):
        raise ValueError(f"cannot quotient a partition of kind {partition.kind!r}")
    block_of = partition.block_of
    reps = [members[0] for members in partition.blocks]
    priority = list(map(game.priority.__getitem__, reps))
    owner = list(map(game.owner.__getitem__, reps))
    succ = game.successors
    stuttering = partition.kind == "stuttering"
    successors = []
    for b, members in enumerate(partition.blocks):
        targets = {block_of[w] for v in members for w in succ[v]}
        if stuttering:
            targets.discard(b)
            if partition.divergent[b]:
                targets.add(b)
        if not targets:
            raise ValueError(f"quotient block {b} has no successor (totality broken)")
        successors.append(sorted(targets))
    return Game(priority, owner, successors), list(block_of)


def write_partition(partition: Partition) -> str:
    """Debug dump: one line ``<vertex> <block> <divergent{0,1}>`` per vertex."""
    lines = []
    for v, b in enumerate(partition.block_of):
        lines.append(f"{v} {b} {1 if partition.divergent[b] else 0}")
    return "\n".join(lines)
