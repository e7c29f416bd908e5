"""Partition refinement for parity games.

Two equivalences are computed by signature-based refinement from the
initial (priority, owner) partition:

* strong bisimilarity: vertices in a block must reach the same set of
  successor blocks in one step;
* divergence-sensitive stuttering equivalence: vertices in a block must
  agree on (a) whether an infinite path can stay inside the block and
  (b) which other blocks are reachable after a run of intra-block edges.

One engine serves both, with a signature function per equivalence.
Signatures are cached per vertex; each round re-signs only the dirty
vertices of non-singleton blocks (those whose signature the previous
round's splits may have changed) and splits off exactly the members whose
signature changed.  Both refinements are deterministic: the coarsest
stable partition is unique, and blocks are finally numbered by their
least member.  The test suite cross-checks both on small games against
relational greatest-fixpoint oracles of its own.
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


def _finalize(game: Game, block_of: list[int], blocks: dict[int, list[int]], kind: str) -> Partition:
    ordered = sorted(blocks.values(), key=lambda vs: vs[0])
    final_of = [0] * game.vertex_count
    for b, vs in enumerate(ordered):
        for v in vs:
            final_of[v] = b
    part = Partition(block_of=final_of, blocks=ordered,
                     divergent=[False] * len(ordered), kind=kind)
    flags = compute_divergent(game, part)
    for b, vs in enumerate(ordered):
        flag = flags[vs[0]]
        if kind == "stuttering":
            if any(flags[v] != flag for v in vs):
                raise RuntimeError(f"divergence not uniform in stable block {b}")
        part.divergent[b] = flag
    return part


def initial_partition(game: Game) -> Partition:
    """Coarsest partition whose blocks agree on priority and owner."""
    block_of, blocks = _initial_blocks(game)
    return _finalize(game, block_of, blocks, kind="initial")


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


def refine_strong(game: Game) -> Partition:
    """Coarsest refinement of the initial partition in which all members of
    a block have identical sets of successor blocks (strong bisimilarity).

    A vertex's signature is its set of successor blocks, so only the
    predecessors of vertices that changed block are re-signed.
    """
    block_of, blocks = _refine(game, _sign_strong, _dirty_strong)
    return _finalize(game, block_of, blocks, kind="strong")


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
    block_of, blocks = _refine(game, _sign_stuttering, _dirty_stuttering)
    return _finalize(game, block_of, blocks, kind="stuttering")


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
    priority = []
    owner = []
    successors = []
    for b, members in enumerate(partition.blocks):
        rep = members[0]
        priority.append(game.priority[rep])
        owner.append(game.owner[rep])
        targets = {block_of[w] for v in members for w in game.successors[v]}
        if partition.kind == "stuttering":
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
