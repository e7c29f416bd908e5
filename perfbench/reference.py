"""A fixed reference workload that measures how fast the host runs now.

The host this benchmark was built on changes speed by up to two thirds
over tens of seconds, so two runs of the same code can differ by more than
any change worth catching.  The benchmark therefore times this workload
next to the library's operations and reports each time as a multiple of
it, scaled back to seconds by ``REFERENCE_S``.  The workload uses no
library code, so no change to the library moves it; it does the kind of
work the library's layers do (writing and parsing text, building
predecessor lists, an attractor, signature refinement), so the host's
changes of speed move it as they move the library.
"""

from __future__ import annotations

import random
import time

N = 3000
# About the time of ``reference()`` on a 2.1 GHz Intel Xeon VM in its fast
# state.  Normalised times read as seconds on that host in that state.
REFERENCE_S = 0.017

_rng = random.Random(0)
_SUCCESSORS = [[_rng.randrange(N) for _ in range(3)] for _ in range(N)]


def reference() -> int:
    """One round of the reference work; returns a checksum."""
    text = "\n".join(f"{v} {v % 5} {v % 2} {','.join(map(str, s))};"
                     for v, s in enumerate(_SUCCESSORS))
    succ = [[int(w) for w in line[:-1].split()[3].split(",")] for line in text.splitlines()]
    pred: list[list[int]] = [[] for _ in range(N)]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    count = [len(ws) for ws in succ]
    attractor = set(range(0, N, 7))
    queue = list(attractor)
    while queue:
        w = queue.pop()
        for v in pred[w]:
            if v in attractor:
                continue
            count[v] -= 1
            if v % 2 == 0 or count[v] == 0:
                attractor.add(v)
                queue.append(v)
    block = [v % 5 for v in range(N)]
    for _ in range(3):
        signatures: dict = {}
        block = [signatures.setdefault((block[v], tuple(sorted({block[w] for w in succ[v]}))),
                                       len(signatures))
                 for v in range(N)]
    return len(attractor) + len(signatures)


def timed() -> float:
    """Seconds one round of ``reference()`` takes now."""
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start
