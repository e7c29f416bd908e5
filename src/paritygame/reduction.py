"""Partition refinement for parity games.

Two equivalences are computed by signature-based refinement from the
initial (priority, owner) partition:

* strong bisimilarity: vertices in a block must reach the same set of
  successor blocks in one step;
* divergence-sensitive stuttering equivalence: vertices in a block must
  agree on (a) whether an infinite path can stay inside the block and
  (b) which other blocks are reachable after a run of intra-block edges.

One engine call, one signer per equivalence: ``_refine(game, signer)`` is
the whole refinement, and a signer supplies three functions: the
signature of a batch of vertices, the vertices a round's moves make dirty
and the divergence of a block of several members.  The engine's state is
flat: the block of every vertex, the size of every block and a cached
signature per vertex.  Each round re-signs only the dirty vertices of
non-singleton blocks (those whose signature the previous round's splits
may have changed) and splits off exactly the members whose signature
changed, so a round's bookkeeping grows with what changed in it, not
with the game.  A lone dirty vertex skips the round: its signature has
always changed, so it is split off on its own without being signed, and a
cascade of one-vertex splits (a chain) costs its splits, not a round or a
signing each.  One ascending pass over the block map then builds the
sorted member lists, numbers the blocks by their least member and flags
them: a one-member block diverges iff its vertex has a self-loop, a
larger one as the signer says of its least member.
Stuttering refinement orders the initial inert graph (the edges inside a
(priority, owner) class) once, sinks first: blocks only split and inert
cycles never do (Groote and Vaandrager, ICALP 1990), so that order of its
strongly connected components serves every round.  Peeling, which takes a
vertex once its other inert successors are taken, orders everything that
reaches no inert cycle; Tarjan runs only on the rest, which is the
library's only condensation of the block-internal graph (lifting needs
none, and the definition the divergence flags are checked against lives
with the tests' oracles).  A stuttering signature is an ``int`` interned
per call: a component whose inert successors all carry one signature,
and that adds neither exits nor divergence to it, reuses its id, so only
where successors disagree is an exit set built.  A loose vertex, one
with no edge inside its initial class (not even a self-loop), never gains
an inert edge, since blocks only split: its stuttering signature is its
strong one, the set of its successor blocks, interned without exit or
inner sets.  A quotient reads a one-member block's targets straight off
its vertex's successors.  Both refinements are
deterministic, since the coarsest stable partition is unique; the test
suite checks them against relational greatest-fixpoint oracles and
earlier engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Iterable

from .game import Game
from .graphs import strongly_connected_components


@dataclass
class Partition:
    """Disjoint blocks over the vertex set.

    ``blocks`` maps dense block ids to sorted vertex lists, the block
    representative being the least member.  ``divergent`` flags (per block)
    record whether an infinite path can stay inside the block from the
    representative, and from every member once the partition is stable.
    A stable partition of either equivalence, strong or stuttering, can be
    quotiented and a solved quotient lifted through it.
    """

    block_of: list[int]
    blocks: list[list[int]]
    divergent: list[bool]

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


def _refine(game: Game, signer) -> Partition:
    """Coarsest refinement of the (priority, owner) partition of ``game``
    that is stable for the signatures of ``signer``: blocks numbered by
    least member, sorted member lists and divergence flags.

    ``signer(game, block_of)`` is called once with the initial block map,
    which the engine then refines in place, and returns three functions.
    ``sign(dirty)`` returns the new signature of every vertex in the list
    ``dirty``.  ``next_dirty(moved)`` returns, as any iterable without
    duplicates, the vertices whose signature a round's moves may have
    changed.
    ``diverges(v)`` says, once the partition is stable, whether the block
    of ``v``, a least member of a block of several, is divergent; a
    one-member block is divergent iff its vertex has a self-loop.

    The state is ``block_of``, the size of every block and a signature
    cache, no member sets.  Blocks stay signature-uniform between rounds,
    so a round splits off exactly the members whose signature changed,
    never rescanning the remainder.  Nothing in the rounds is sorted: the
    order of the dirty vertices and of the changed blocks only picks the
    interim block ids, which the final pass renumbers.

    A round with one dirty vertex skips the round machinery: the vertex is
    split off unsigned, and the dirty set it leaves is followed the same
    way for as long as it holds one vertex.  A split cascade (a chain)
    thus costs its splits, not a round each.  Members of singleton blocks
    are never re-signed: a singleton cannot split, and no other vertex
    reads its signature.

    The lone split is always right.  Blocks only split, and every vertex
    that moves takes a block id that did not exist before, so a lone dirty
    vertex ``v`` is a direct predecessor of a vertex ``w`` that sits in a
    block id created by the step just before.  For strong signatures
    every dirty vertex is such a predecessor.  For stuttering ones, ``v``
    did not move: a vertex that moved alone is a singleton, filtered out,
    and a moved part of two or more vertices puts all of them in the
    dirty set.  Nor was ``v`` reached only through the inert closure: an
    inert predecessor shares its block with the vertex it precedes, which
    would then be dirty too.  A strong signature, the set of successor
    blocks, thus gains ``w``'s new id.  A stuttering one gains it as a
    direct exit, since ``v`` lies outside ``w``'s block, and no shortcut
    can return the old id, since every interned set predates the new one.
    So ``v``'s new signature differs from its cached one, and from those of
    its block-mates: they are not dirty, so theirs predate the new id.
    """
    block_of, size = _initial_blocks(game)
    sign, next_dirty, diverges = signer(game, block_of)
    sig: list = [None] * len(block_of)
    dirty = [v for v, b in enumerate(block_of) if size[b] > 1]
    while dirty:
        if len(dirty) == 1:
            # the lone dirty vertex's signature has changed (see above): it
            # leaves a block of several, and as a singleton needs no
            # cached signature
            v = dirty[0]
            size[block_of[v]] -= 1
            block_of[v] = len(size)
            size.append(1)
            # ``dirty`` is ``[v]``, the one vertex moved
            dirty = [u for u in next_dirty(dirty) if size[block_of[u]] > 1]
            continue
        changed: dict[int, list[int]] = {}
        for v, s in zip(dirty, sign(dirty)):
            if s != sig[v]:
                sig[v] = s
                b = block_of[v]
                if b in changed:
                    changed[b].append(v)
                else:
                    changed[b] = [v]
        moved: list[int] = []
        for b in changed:
            touched = changed[b]
            groups: dict[object, list[int]] = {}
            for v in touched:
                groups.setdefault(sig[v], []).append(v)
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
        dirty = [v for v in next_dirty(moved) if size[block_of[v]] > 1]
    # free the signature cache first, so the member lists can reuse its memory
    del sig
    # renumber ``block_of`` in place by least member and collect the
    # sorted member lists, both in one ascending pass
    final = [-1] * len(size)
    blocks: list[list[int]] = []
    for v, b in enumerate(block_of):
        f = final[b]
        if f < 0:
            f = final[b] = len(blocks)
            blocks.append([v])
        else:
            blocks[f].append(v)
        block_of[v] = f
    succ = game.successors
    divergent = [diverges(vs[0]) if len(vs) > 1 else vs[0] in succ[vs[0]] for vs in blocks]
    return Partition(block_of, blocks, divergent)


def _strong_signer(game: Game, block_of: list[int]) -> tuple:
    """Signer for ``_refine`` of strong bisimilarity over ``block_of``:
    ``sign``, ``next_dirty`` and ``diverges``.

    A vertex's signature is the frozenset of its successor blocks, so only
    the predecessors of vertices that changed block are re-signed.
    Members of a block reach the same blocks, so a block is divergent iff
    its least member has an intra-block successor.
    """
    succ, pred = game.successors, game.predecessors
    block = block_of.__getitem__

    def sign(dirty: list[int]) -> list[frozenset[int]]:
        return [frozenset(map(block, succ[v])) for v in dirty]

    def next_dirty(moved: list[int]) -> Iterable[int]:
        # a lone moved vertex's own predecessor tuple as it is
        if len(moved) == 1:
            return pred[moved[0]]
        return {p for u in moved for p in pred[u]}

    def diverges(v: int) -> bool:
        return block_of[v] in map(block, succ[v])

    return sign, next_dirty, diverges


def refine_strong(game: Game) -> Partition:
    """Coarsest refinement of the initial partition in which all members of
    a block have identical sets of successor blocks (strong bisimilarity).

    A vertex's signature is the frozenset of its successor blocks.  A
    block is divergent iff a member has an intra-block successor: for a
    one-member block, a self-loop.
    """
    return _refine(game, _strong_signer)


def _inert_components(game: Game, block_of: list[int]) -> tuple[list, list[int]]:
    """Strongly connected components of the inert graph of the initial
    ``block_of`` (the edges inside a block), sinks first, and the index of
    every vertex's component.

    The order is built by peeling: a vertex becomes a component of its own
    once every inert successor other than itself is peeled.  What is left
    reaches an inert cycle, and only those vertices go through Tarjan,
    whose output follows the peeled singletons.  A loose vertex, one with
    no inert edge at all (not even a self-loop), is recorded as the bare
    vertex rather than a one-member list; every other component is a list.
    """
    succ, pred = game.successors, game.predecessors
    waiting: list[int] = []  # inert successors other than the vertex, unpeeled
    order: list[int] = []  # peeled vertices, sinks first
    comps: list = []
    for v, ws in enumerate(succ):
        b = block_of[v]
        k = 0
        for w in ws:
            if block_of[w] == b and w != v:
                k += 1
        waiting.append(k)
        if not k:
            order.append(v)
            comps.append([v] if v in ws else v)
    comp_of = [0] * game.vertex_count
    for c, v in enumerate(order):
        comp_of[v] = c
        b = block_of[v]
        for p in pred[v]:
            if block_of[p] == b and p != v:
                waiting[p] -= 1
                if not waiting[p]:
                    order.append(p)
                    comps.append([p])
    if len(order) < game.vertex_count:
        left = [v for v, k in enumerate(waiting) if k]
        inert = {v: [w for w in succ[v] if block_of[w] == block_of[v]] for v in left}
        for c, comp in enumerate(strongly_connected_components(left, inert), len(comps)):
            comps.append(comp)
            for v in comp:
                comp_of[v] = c
    return comps, comp_of


# never a block id: the member of a signature's set that marks divergence
_DIVERGES = -1


def _stuttering_signer(game: Game, block_of: list[int]) -> tuple:
    """Signer for ``_refine`` of stuttering equivalence over the inert
    components of the initial ``block_of``: ``sign``, ``next_dirty`` and
    ``diverges``.

    A signature is an ``int`` id, interned per call, of the frozenset of
    blocks a component exits to after inert steps, plus ``_DIVERGES`` when
    an infinite inert path starts there.  Components are signed sinks
    first.  A component never splits and its edges stay inert, so the
    dirty set is a union of components, whose members share the signature
    ``current[c]``; an inert successor in another component was signed
    earlier this round, or is clean and its id still exact.  A component
    whose inert successors outside it all carry one id, whose direct exits
    lie in that id's set and that adds no divergence takes that id without
    building a set; only one whose successors disagree pays for a union.
    A loose vertex (a bare ``int`` among the components) has no inert
    successor and no divergence, so its key is the frozenset of its
    successor blocks.  The dirty rule is ``_dirty_stuttering``.  A block
    of several members diverges iff its members' signature holds
    ``_DIVERGES``; a singleton is never re-signed, and one split off alone
    is never signed, so its ``current`` entry may be stale.
    """
    comps, comp_of = _inert_components(game, block_of)
    succ = game.successors
    block = block_of.__getitem__
    ids: dict[frozenset[int], int] = {}
    sets: list[frozenset[int]] = []
    current = [0] * len(comps)

    def sign(dirty: list[int]) -> list[int]:
        for c in sorted({comp_of[v] for v in dirty}):
            comp = comps[c]
            if type(comp) is int:
                # a loose vertex never gains an inert edge, since blocks
                # only split: its signature is its strong one
                key = frozenset(map(block, succ[comp]))
            else:
                b = block_of[comp[0]]
                div = len(comp) > 1
                exits: set[int] = set()
                inner: set[int] = set()  # ids of inert successors outside comp
                for v in comp:
                    for w in succ[v]:
                        bw = block_of[w]
                        if bw != b:
                            exits.add(bw)
                        elif comp_of[w] != c:
                            inner.add(current[comp_of[w]])
                        elif w == v:
                            div = True
                if len(inner) == 1:
                    (i,) = inner
                    key = sets[i]
                    if (not div or _DIVERGES in key) and key.issuperset(exits):
                        current[c] = i
                        continue
                if div:
                    exits.add(_DIVERGES)
                for i in inner:
                    exits |= sets[i]
                key = frozenset(exits)
            i = ids.setdefault(key, len(sets))
            if i == len(sets):
                sets.append(key)
            current[c] = i
        return [current[comp_of[v]] for v in dirty]

    def diverges(v: int) -> bool:
        return _DIVERGES in sets[current[comp_of[v]]]

    return sign, partial(_dirty_stuttering, game, block_of), diverges


def _dirty_stuttering(game: Game, block_of: list[int], moved: Iterable[int]) -> set[int]:
    """Moved vertices and their predecessors, closed backwards under edges
    that are inert in the new partition: exactly the vertices whose exit
    sets or divergence may have changed.  A lone moved vertex is alone in
    its block, so nothing re-signs it; when no predecessor of it has an
    inert predecessor, its predecessor tuple is returned as it is, with no
    set or stack built."""
    pred = game.predecessors
    if len(moved) == 1:
        ps = pred[moved[0]]
        for p in ps:
            b = block_of[p]
            for q in pred[p]:
                if block_of[q] == b:
                    break
            else:
                continue
            break
        else:
            return ps
    dirty = set(moved)
    stack: list[int] = []
    for u in moved:
        for p in pred[u]:
            if p not in dirty:
                dirty.add(p)
                stack.append(p)
    # every predecessor of a moved vertex is already in; close the added
    # ones backwards over inert edges
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
    blocks it reaches after a run of intra-block edges, interned as one
    ``int`` per distinct signature.  Each round signs its dirty vertices
    (those that moved, their predecessors, and whatever reaches them by
    intra-block edges) in one sinks-first order of the initial inert
    graph's components, built by peeling before any Tarjan call.  A block
    of several members takes its flag from its least member's final
    signature; a one-member block diverges iff its vertex has a self-loop.
    """
    return _refine(game, _stuttering_signer)


def _check_block_map(game: Game, partition: Partition) -> None:
    """Raise ``ValueError`` unless the block map of ``partition`` has one
    entry per vertex of ``game`` and names only blocks the partition lists."""
    block_of, n = partition.block_of, game.vertex_count
    if len(block_of) != n:
        raise ValueError(f"partition of {len(block_of)} vertices for a game of {n}")
    if n and not (0 <= min(block_of) and max(block_of) < len(partition.blocks)):
        raise ValueError("partition block map names a block the partition does not list")


def quotient(game: Game, partition: Partition) -> tuple[Game, list[int]]:
    """Quotient game of a stable partition plus the vertex-to-block map.

    Block priorities and owners come from the representative; a block
    whose members differ in either raises ``ValueError`` (a partition of
    another game), as does a block map of another length or one naming a
    block the partition does not list; a one-member block cannot differ,
    and takes its targets straight from its vertex's successors.  A block's successors are the
    blocks its members reach, itself included exactly when it is
    divergent, which for a strong partition means that a member has an
    intra-block edge.
    """
    _check_block_map(game, partition)
    block_of = partition.block_of
    reps = [members[0] for members in partition.blocks]
    priority = tuple(map(game.priority.__getitem__, reps))
    owner = tuple(map(game.owner.__getitem__, reps))
    succ = game.successors
    block = block_of.__getitem__
    successors = []
    for b, (members, divergent) in enumerate(zip(partition.blocks, partition.divergent)):
        if len(members) == 1:
            targets = set(map(block, succ[members[0]]))
        else:
            if len({(game.priority[v], game.owner[v]) for v in members}) > 1:
                raise ValueError(f"partition block {b} mixes priorities or owners")
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
