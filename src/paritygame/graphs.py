"""Iterative strongly connected components, shared by the stuttering
refinement (on the inert vertices that reach an inert cycle), the solvers
and the strategy verifier (on the region vertices that a cycle of the
restricted graph reaches).

:func:`strongly_connected_components` takes the subgraph's vertices
``nodes`` and a successor table ``succ``, indexed by vertex: a tuple or
list over the whole game, or a dict over ``nodes``.  ``succ[v]`` may
mention vertices outside ``nodes``; those are ignored.  All state lives in
a dict keyed by ``nodes``, so a call costs time linear in ``nodes`` and
the edges leaving them, however large the table is.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

SuccessorTable = Sequence[Sequence[int]] | Mapping[int, Sequence[int]]


def strongly_connected_components(
    nodes: Iterable[int], succ: SuccessorTable
) -> list[list[int]]:
    """Tarjan's algorithm, iterative.

    The depth-first search starts from ``nodes`` in the given order and
    follows ``succ[v]`` in its order.  Components are emitted in reverse
    topological order (every component precedes the components that can
    reach it); a component lists its root last, each other member before
    the members it was discovered from.
    """
    # low[v]: 0 before v is visited, then its low link, which starts as
    # its index; a vertex whose component has been emitted gets ``done``,
    # above every index, so it never lowers a link
    low = dict.fromkeys(nodes, 0)
    done = len(low) + 1
    stack: list[int] = []
    sccs: list[list[int]] = []
    counter = 0

    for root in low:
        if low[root]:
            continue
        counter += 1
        low[root] = counter
        stack.append(root)
        # (vertex, its index, iterator over its successors) call stack
        work = [(root, counter, iter(succ[root]))]
        while work:
            v, index, successors = work[-1]
            for w in successors:
                lw = low.get(w)
                if lw is None:
                    continue
                if lw == 0:
                    counter += 1
                    low[w] = counter
                    stack.append(w)
                    work.append((w, counter, iter(succ[w])))
                    break
                if lw < low[v]:
                    low[v] = lw
            else:
                work.pop()
                lv = low[v]
                if lv == index:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    comp.reverse()
                    for w in comp:
                        low[w] = done
                    sccs.append(comp)
                else:
                    parent = work[-1][0]
                    if lv < low[parent]:
                        low[parent] = lv
    return sccs
