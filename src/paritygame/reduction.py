"""Partition refinement for parity games.

Two equivalences are computed by signature-based refinement from the
initial (priority, owner) partition:

* strong bisimilarity: vertices in a block must reach the same set of
  successor blocks in one step;
* divergence-sensitive stuttering equivalence: vertices in a block must
  agree on (a) whether an infinite path can stay inside the block and
  (b) which other blocks are reachable after a run of intra-block edges.

One engine serves both, with a signature function per equivalence.  Its
state is flat: the block of every vertex, the size of every block and a
cached signature per vertex.  Each round re-signs only the dirty vertices
of non-singleton blocks (those whose signature the previous round's
splits may have changed) and splits off exactly the members whose
signature changed.  One ascending pass over the block map then builds the
sorted member lists and numbers the blocks by their least member; each
refinement reads the divergence flags off its own result.  Stuttering
refinement condenses the initial inert graph (the edges inside a
(priority, owner) class) once: blocks only split and inert cycles never
do (Groote and Vaandrager, ICALP 1990), so its components, sinks first,
order the signing in every round.  Both refinements are deterministic,
since the coarsest stable partition is unique; the test suite checks them
against relational greatest-fixpoint oracles and earlier engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .game import Game
from .graphs import strongly_connected_components, vertices_with_infinite_path


@dataclass
class Partition:
    """Disjoint blocks over the vertex set.

    ``blocks`` maps dense block ids to sorted vertex lists, the block
    representative being the least member.  ``divergent`` flags (per block)
    record whether an infinite path can stay inside the block from the
    representative, and from every member once the partition is stable.
    ``kind`` records which refinement produced the partition
    (``"initial"``, ``"strong"`` or ``"stuttering"``).
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


def _finalize(block_of: list[int], kind: str, diverges) -> Partition:
    """Renumber ``block_of`` in place by least member and collect the
    sorted member lists, both in one ascending pass; then flag each block
    by ``diverges(members)``."""
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
    return Partition(block_of, blocks, list(map(diverges, blocks)), kind)


def initial_partition(game: Game) -> Partition:
    """Coarsest partition whose blocks agree on priority and owner."""
    block_of = _initial_blocks(game)[0]
    flags = compute_divergent(game, Partition(block_of, [], [], "initial"))
    return _finalize(block_of, "initial", lambda vs: flags[vs[0]])


def _intra_successors(game: Game, block_of: list[int]) -> dict[int, list[int]]:
    """The successors of every vertex inside its own block, for the
    vertices that have one (no other vertex can diverge)."""
    intra: dict[int, list[int]] = {}
    for v, succs in enumerate(game.successors):
        b = block_of[v]
        inside = [w for w in succs if block_of[w] == b]
        if inside:
            intra[v] = inside
    return intra


def compute_divergent(game: Game, partition: Partition) -> list[bool]:
    """Per-vertex divergence flags with respect to a partition: a vertex
    diverges iff it can reach, along intra-block edges, an intra-block
    cycle."""
    intra = _intra_successors(game, partition.block_of)
    alive = vertices_with_infinite_path(intra, intra)
    return [v in alive for v in game.vertices()]


def _refine(game: Game, signatures, next_dirty) -> tuple[list[int], list]:
    """Dirty-set signature refinement shared by both equivalences; returns
    the block of every vertex and the signature cache.

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
    return block_of, sig


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
    predecessors of vertices that changed block are re-signed.  Members
    of a block reach the same blocks, so a block is divergent iff its
    representative has an intra-block successor.
    """
    block_of = _refine(game, _sign_strong, _dirty_strong)[0]
    succ = game.successors
    return _finalize(
        block_of, "strong", lambda vs: block_of[vs[0]] in map(block_of.__getitem__, succ[vs[0]])
    )


def _inert_components(game: Game) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components of the initial inert graph, sinks
    first (vertices without an inert successor, then Tarjan's output over
    the rest), and the index of every vertex's component."""
    inert = _intra_successors(game, _initial_blocks(game)[0])
    comps = [[v] for v in game.vertices() if v not in inert]
    comps += strongly_connected_components(inert, inert)
    comp_of = [0] * game.vertex_count
    for c, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = c
    return comps, comp_of


def _sign_stuttering(comps, comp_of, game, block_of, sig, dirty) -> list[tuple]:
    """Signature (divergence bit, sorted exit-block tuple) of every dirty
    vertex, one initial inert component at a time, sinks first.  A
    component never splits and its edges stay inert, so the dirty set is a
    union of components, whose members share exits and divergence.  An
    inert successor in another component was signed earlier this round, or
    is clean and its cached signature still exact."""
    succ = game.successors
    new: dict[int, tuple[bool, tuple[int, ...]]] = {}  # by component
    for c in sorted({comp_of[v] for v in dirty}):
        comp = comps[c]
        b = block_of[comp[0]]
        div = len(comp) > 1
        exits: set[int] = set()
        for v in comp:
            for w in succ[v]:
                bw = block_of[w]
                if bw != b:
                    exits.add(bw)
                elif comp_of[w] != c:
                    d, e = new.get(comp_of[w]) or sig[w]  # type: ignore[misc]
                    div = div or d
                    exits.update(e)
                elif w == v:
                    div = True
        new[c] = (div, tuple(sorted(exits)))
    return [new[comp_of[v]] for v in dirty]


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
    blocks it reaches after a run of intra-block edges.  Each round signs
    its dirty vertices (those that moved, their predecessors, and whatever
    reaches them by intra-block edges) in the order of one condensation of
    the initial inert graph.  A block of several members takes its flag
    from a member's final signature; a one-member block diverges iff its
    vertex has a self-loop.
    """
    sign = partial(_sign_stuttering, *_inert_components(game))
    block_of, sig = _refine(game, sign, _dirty_stuttering)
    succ = game.successors
    return _finalize(
        block_of, "stuttering", lambda vs: sig[vs[0]][0] if len(vs) > 1 else vs[0] in succ[vs[0]]
    )


def quotient(game: Game, partition: Partition) -> tuple[Game, list[int]]:
    """Quotient game of a stable partition plus the vertex-to-block map.

    Block priorities and owners come from the representative (blocks are
    uniform by construction).  A block's successors are the blocks its
    members reach, itself included exactly when it is divergent, which
    for a strong partition means that a member has an intra-block edge.
    """
    if partition.kind not in ("strong", "stuttering"):
        raise ValueError(f"cannot quotient a partition of kind {partition.kind!r}")
    block_of = partition.block_of
    reps = [members[0] for members in partition.blocks]
    priority = tuple(map(game.priority.__getitem__, reps))
    owner = tuple(map(game.owner.__getitem__, reps))
    succ = game.successors
    successors = []
    for b, (members, divergent) in enumerate(zip(partition.blocks, partition.divergent)):
        targets = {block_of[w] for v in members for w in succ[v]}
        targets.discard(b)
        if divergent:
            targets.add(b)
        if not targets:
            raise ValueError(f"quotient block {b} has no successor (totality broken)")
        successors.append(tuple(sorted(targets)))
    return Game._from_normalised(priority, owner, tuple(successors)), list(block_of)


def write_partition(partition: Partition) -> str:
    """Debug dump: one line ``<vertex> <block> <divergent{0,1}>`` per vertex."""
    lines = []
    for v, b in enumerate(partition.block_of):
        lines.append(f"{v} {b} {1 if partition.divergent[b] else 0}")
    return "\n".join(lines)
