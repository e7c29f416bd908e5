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
signature changed, so a round's bookkeeping grows with what changed in
it, not with the game.  One ascending pass over the block map then
builds the sorted member lists and numbers the blocks by their least
member; each refinement reads the divergence flags off its own result.
Stuttering refinement orders the initial inert graph (the edges inside a
(priority, owner) class) once, sinks first: blocks only split and inert
cycles never do (Groote and Vaandrager, ICALP 1990), so that order of its
strongly connected components serves every round.  Peeling, which takes
a vertex once its other inert successors are taken, orders everything
that reaches no inert cycle; Tarjan runs only on the rest, which is the
library's only condensation of the block-internal graph (lifting needs
none, and the definition the divergence flags are checked against lives
with the tests' oracles).  A stuttering signature is an ``int`` interned
per call: a component whose inert successors all carry one signature,
and that adds neither exits nor divergence to it, reuses its id, so only
where successors disagree is an exit set built.  Both refinements are
deterministic, since the coarsest stable partition is unique; the test
suite checks them against relational greatest-fixpoint oracles and
earlier engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .game import Game
from .graphs import strongly_connected_components


@dataclass
class Partition:
    """Disjoint blocks over the vertex set.

    ``blocks`` maps dense block ids to sorted vertex lists, the block
    representative being the least member.  ``divergent`` flags (per block)
    record whether an infinite path can stay inside the block from the
    representative, and from every member once the partition is stable.
    ``kind`` records which refinement produced the partition
    (``"strong"`` or ``"stuttering"``).
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


def _refine(
    game: Game, block_of: list[int], size: list[int], signatures, next_dirty
) -> tuple[list[int], list]:
    """Dirty-set signature refinement shared by both equivalences, from
    the initial ``block_of`` and block ``size`` (refined in place); returns
    the block of every vertex and the signature cache.

    ``signatures(game, block_of, sig, dirty)`` returns the new signature of
    every vertex in the sorted list ``dirty``; it may read the cached
    ``sig`` of vertices outside ``dirty``.  ``next_dirty(game, block_of,
    moved)`` returns, as any iterable without duplicates, the vertices
    whose signature a round's moves may have changed.  The state is
    ``block_of`` and the size of every block, no member sets.  Blocks stay
    signature-uniform between rounds, so a round splits off exactly the
    members whose signature changed, never rescanning the remainder; long
    split cascades (chains) therefore stay linear.  A round costs what
    changed in it: a block with one changed member splits that member off
    directly, and the changed blocks are sorted only when there are
    several.  Members of singleton blocks are never re-signed: a singleton
    cannot split, and no other vertex reads its signature.
    """
    sig: list = [None] * game.vertex_count
    dirty = [v for v, b in enumerate(block_of) if size[b] > 1]
    while dirty:
        changed: dict[int, list[int]] = {}
        for v, s in zip(dirty, signatures(game, block_of, sig, dirty)):
            if s != sig[v]:
                sig[v] = s
                b = block_of[v]
                if b in changed:
                    changed[b].append(v)
                else:
                    changed[b] = [v]
        moved: list[int] = []
        for b in sorted(changed) if len(changed) > 1 else changed:
            touched = changed[b]
            if len(touched) == 1:
                # a lone changed member leaves a block of several
                v = touched[0]
                size[b] -= 1
                block_of[v] = len(size)
                size.append(1)
                moved.append(v)
                continue
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
        dirty = [v for v in next_dirty(game, block_of, moved) if size[block_of[v]] > 1]
        dirty.sort()
    return block_of, sig


def _sign_strong(game: Game, block_of: list[int], sig: list, dirty: list[int]) -> list[frozenset]:
    succ = game.successors
    block = block_of.__getitem__
    return [frozenset(map(block, succ[v])) for v in dirty]


def _dirty_strong(game: Game, block_of: list[int], moved: list[int]) -> Iterable[int]:
    """The predecessors of the moved vertices: a lone moved vertex's own
    predecessor tuple as it is, otherwise their set."""
    pred = game.predecessors
    if len(moved) == 1:
        return pred[moved[0]]
    return {p for u in moved for p in pred[u]}


def refine_strong(game: Game) -> Partition:
    """Coarsest refinement of the initial partition in which all members of
    a block have identical sets of successor blocks (strong bisimilarity).

    A vertex's signature is its set of successor blocks, so only the
    predecessors of vertices that changed block are re-signed.  Members
    of a block reach the same blocks, so a block is divergent iff its
    representative has an intra-block successor: for a one-member block,
    a self-loop.
    """
    block_of = _refine(game, *_initial_blocks(game), _sign_strong, _dirty_strong)[0]
    succ = game.successors
    return _finalize(
        block_of,
        "strong",
        lambda vs: block_of[vs[0]] in map(block_of.__getitem__, succ[vs[0]])
        if len(vs) > 1
        else vs[0] in succ[vs[0]],
    )


def _inert_components(game: Game, block_of: list[int]) -> tuple[list[list[int]], list[int]]:
    """Strongly connected components of the inert graph of the initial
    ``block_of`` (the edges inside a block), sinks first, and the index of
    every vertex's component.

    The order is built by peeling: a vertex becomes a component of its own
    once every inert successor other than itself is peeled.  What is left
    reaches an inert cycle, and only those vertices go through Tarjan,
    whose output follows the peeled singletons.
    """
    succ, pred = game.successors, game.predecessors
    waiting: list[int] = []  # inert successors other than the vertex, unpeeled
    for v, ws in enumerate(succ):
        b = block_of[v]
        k = 0
        for w in ws:
            if block_of[w] == b and w != v:
                k += 1
        waiting.append(k)
    order = [v for v, k in enumerate(waiting) if not k]
    comp_of = [0] * game.vertex_count
    for c, v in enumerate(order):
        comp_of[v] = c
        b = block_of[v]
        for p in pred[v]:
            if block_of[p] == b and p != v:
                waiting[p] -= 1
                if not waiting[p]:
                    order.append(p)
    comps = [[v] for v in order]
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


def _stuttering_signer(
    game: Game, block_of: list[int]
) -> tuple[Callable[..., list[int]], list[frozenset[int]]]:
    """Signature function for ``_refine`` over the inert components of the
    initial ``block_of``, and its table of exit sets by signature id.

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
    """
    comps, comp_of = _inert_components(game, block_of)
    succ = game.successors
    ids: dict[frozenset[int], int] = {}
    sets: list[frozenset[int]] = []
    current = [0] * len(comps)

    def sign(game: Game, block_of: list[int], sig: list, dirty: list[int]) -> list[int]:
        for c in sorted({comp_of[v] for v in dirty}):
            comp = comps[c]
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

    return sign, sets


def _dirty_stuttering(game: Game, block_of: list[int], moved: list[int]) -> set[int]:
    """Moved vertices and their predecessors, closed backwards under edges
    that are inert in the new partition: exactly the vertices whose exit
    sets or divergence may have changed."""
    pred = game.predecessors
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
    of several members takes its flag from a member's final signature; a
    one-member block diverges iff its vertex has a self-loop.
    """
    block_of, size = _initial_blocks(game)
    sign, sets = _stuttering_signer(game, block_of)
    block_of, sig = _refine(game, block_of, size, sign, _dirty_stuttering)
    succ = game.successors
    return _finalize(
        block_of,
        "stuttering",
        lambda vs: _DIVERGES in sets[sig[vs[0]]] if len(vs) > 1 else vs[0] in succ[vs[0]],
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
    if len(block_of) != game.vertex_count:
        raise ValueError(
            f"partition of {len(block_of)} vertices for a game of {game.vertex_count}"
        )
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
