"""Differential check of the successor-table Tarjan primitive.

:func:`paritygame.graphs.strongly_connected_components` indexes a
successor table and keeps its state in a dict keyed by the given nodes.
The reference below is the earlier callback form, kept here as the
exactness oracle: Tarjan driven by ``succ(v)`` with a node set.  The table
form must emit the same components, in the same order, with their
members in the same order, on every node subset and every order of the
nodes.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import pytest

from paritygame import EVEN, ODD, gen_chain, gen_random
from paritygame.generators import Xoshiro256StarStar
from paritygame.graphs import strongly_connected_components

from helpers import alternating_chain, priority_ladder
from test_refinement_reference import game_zoo


def reference_sccs(
    nodes: Iterable[int], succ: Callable[[int], Sequence[int]]
) -> list[list[int]]:
    """Tarjan's algorithm, iterative.

    ``succ(v)`` may mention vertices outside ``nodes``; those are ignored.
    Components are emitted in reverse topological order (every component
    precedes the components that can reach it).
    """
    nodes = list(nodes)
    node_set = set(nodes)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        # (vertex, iterator position) call stack
        work = [(root, 0)]
        while work:
            v, pos = work.pop()
            if pos == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            succs = succ(v)
            for i in range(pos, len(succs)):
                w = succs[i]
                if w not in node_set:
                    continue
                if w not in index:
                    work.append((v, i + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return sccs


# ---------------------------------------------------------------------------
# Graphs and node subsets.


def _graphs():
    """(name, successor table) pairs: the game zoo, random games, chains,
    alternating chains and ladders."""
    rng = Xoshiro256StarStar(606)
    for trial in range(300):
        yield f"zoo-{trial}", game_zoo(trial, rng).successors
    for s in range(200):
        yield f"random-{s}", gen_random(40, 3, 3, s).successors
    for n in (1, 2, 9, 300):
        for owner in (EVEN, ODD):
            yield f"chain-{n}-{owner}", gen_chain(n, 1, owner, 0).successors
        yield f"alternating-{n}", alternating_chain(n).successors
        yield f"ladder-{n}", priority_ladder(n).successors
    ring = [[(v + 1) % 500, (v * 7) % 500] for v in range(500)]
    yield "ring", tuple(map(tuple, map(sorted, map(set, ring))))


def _subsets(table, rng):
    """Node lists over ``table``: all vertices ascending and descending,
    a shuffled order, and random subsets in random order."""
    n = len(table)
    everything = list(range(n))
    yield everything
    yield everything[::-1]
    shuffled = everything[:]
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
    yield shuffled
    for keep in (2, 3):
        yield [v for v in shuffled if rng.below(keep) == 0]
    yield []


def test_components_match_the_callback_reference():
    rng = Xoshiro256StarStar(1312)
    for name, table in _graphs():
        for nodes in _subsets(table, rng):
            expected = reference_sccs(nodes, table.__getitem__)
            assert strongly_connected_components(nodes, table) == expected, name
            # a dict table over the nodes alone gives the same answer
            local = {v: table[v] for v in nodes}
            assert strongly_connected_components(nodes, local) == expected, name


class _Probe:
    """A successor table that records which vertices were looked up and
    offers nothing else: no length, no iteration."""

    def __init__(self, table):
        self.table = table
        self.read: list[int] = []

    def __getitem__(self, v):
        self.read.append(v)
        return self.table[v]


@pytest.mark.parametrize("primitive", [strongly_connected_components])
def test_primitives_read_only_the_given_nodes(primitive):
    # a call on a few nodes of a huge game must cost nothing per game vertex
    table = [(v + 1,) for v in range(200_000)]
    nodes = [70_000, 70_001, 70_002, 123_456]
    probe = _Probe(table)
    primitive(nodes, probe)
    assert sorted(probe.read) == nodes


def test_deep_components_need_no_recursion():
    n = 100_000
    table = [(v + 1,) for v in range(n - 1)] + [(0,)]
    (comp,) = strongly_connected_components(range(n), table)
    assert comp == list(range(n - 1, -1, -1))
    assert strongly_connected_components(range(n - 1), table) == [
        [v] for v in range(n - 2, -1, -1)
    ]
