"""Relational greatest-fixpoint oracles for strong bisimilarity and
divergence-sensitive stuttering equivalence, the divergence flags they and
the refinements are held to, and a brute-force solver.

Test equipment for small games: each relational oracle starts from all
priority/owner-equal pairs and deletes violating pairs until a fixpoint,
independently of the signature-refinement engine it cross-checks.
:func:`solve_brute` enumerates one player's memoryless strategies and
settles each by cycle analysis, independently of the solvers it
cross-checks.
:func:`reference_parse_pgsolver` and :func:`reference_parse_solution`
read game and solution text one line at a time, as the library's readers
did before they read the body in one scan; they are the references those
readers' results and errors are compared against.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from typing import Callable, Iterable, Sequence

from paritygame import EVEN, ODD, FormatError, Game, Partition, Solution, Strategy
from paritygame.game import _reflect
from paritygame.graphs import strongly_connected_components
from paritygame.io import (
    _HEADER_RE,
    _SOLUTION_HEADER_RE,
    _check_header_max,
    _decode_utf8,
    _header_max,
)

# The reference readers' own line grammar, stated apart from the library's
# so that a change to the library's patterns shows against them: a vertex
# line and a solution line, each matched from the start of one line.
REFERENCE_VERTEX_RE = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+([01])(?:\s+([0-9](?:[0-9,\s]*[0-9,])?))?\s*(?:\"([^\"]*)\")?\s*;\s*$",
    re.ASCII,
)
REFERENCE_SOLUTION_RE = re.compile(r"^\s*(\d+)\s+([01])(?:\s+(\d+))?\s*;\s*$", re.ASCII)


def reference_infinite_path(
    nodes: Iterable[int], succ: Callable[[int], Sequence[int]]
) -> set[int]:
    """Vertices from which an infinite path exists inside the subgraph
    spanned by ``nodes``.

    Computed by repeatedly peeling vertices without remaining successors;
    whatever survives can reach a cycle.
    """
    nodes = list(nodes)
    node_set = set(nodes)
    out_deg = {}
    preds: dict[int, list[int]] = {v: [] for v in nodes}
    for v in nodes:
        k = 0
        for w in succ(v):
            if w in node_set:
                k += 1
                preds[w].append(v)
        out_deg[v] = k
    queue = [v for v in nodes if out_deg[v] == 0]
    dead = set(queue)
    while queue:
        v = queue.pop()
        for p in preds[v]:
            if p in dead:
                continue
            out_deg[p] -= 1
            if out_deg[p] == 0:
                dead.add(p)
                queue.append(p)
    return node_set - dead


def compute_divergent(game: Game, partition: Partition) -> list[bool]:
    """Per-vertex divergence flags with respect to a partition: a vertex
    diverges iff it can reach, along intra-block edges, an intra-block
    cycle.  The definition the refinements' own flags are checked against."""
    block_of = partition.block_of

    def intra(v: int) -> list[int]:
        return [w for w in game.successors[v] if block_of[w] == block_of[v]]

    alive = reference_infinite_path(game.vertices(), intra)
    return [v in alive for v in game.vertices()]


def divergent_wrt(game: Game, rel: set[tuple[int, int]], v: int) -> bool:
    related = {u for u in game.vertices() if (v, u) in rel}

    def succ(x: int) -> list[int]:
        return [w for w in game.successors[x] if w in related]

    return v in reference_infinite_path(related, succ)


def inert_closure(game: Game, rel: set[tuple[int, int]], start: int) -> list[int]:
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in game.successors[x]:
            if (x, y) in rel and y not in seen:
                seen.add(y)
                stack.append(y)
    return sorted(seen)


def oracle_stuttering_pairs(game: Game) -> set[tuple[int, int]]:
    """Stuttering equivalence as a relation, by greatest-fixpoint deletion.

    Starts from all priority/owner-equal pairs and repeatedly removes pairs
    violating the transfer condition or the divergence agreement, with
    inert steps and divergence evaluated against the current relation.

    The transfer condition is monotone in the relation, so its violations
    are deleted down to a fixpoint first; only then are divergence flags
    compared.  Interleaving the two over-deletes: while transfer-doomed
    pairs are still present, they can lend one vertex of a pair a spurious
    divergence witness that its partner already lost, splitting pairs that
    the largest stuttering bisimulation keeps together.

    Quadratic in pairs per pass; intended for games with at most a dozen
    vertices.
    """
    n = game.vertex_count
    rel = {
        (v, w)
        for v in range(n)
        for w in range(n)
        if game.priority[v] == game.priority[w] and game.owner[v] == game.owner[w]
    }

    def transfer_ok(v: int, w: int) -> bool:
        closure = inert_closure(game, rel, w)
        for u in game.successors[v]:
            if (v, u) in rel and (u, w) in rel:
                continue
            if not any(
                (v, w2) in rel and any((u, u2) in rel for u2 in game.successors[w2])
                for w2 in closure
            ):
                return False
        return True

    while True:
        while True:
            bad: set[tuple[int, int]] = set()
            for (v, w) in rel:
                if v == w or (w, v) in bad:
                    continue
                if not transfer_ok(v, w):
                    bad.add((v, w))
                    bad.add((w, v))
            if not bad:
                break
            rel -= bad
        div = [divergent_wrt(game, rel, v) for v in range(n)]
        bad = {
            (v, w)
            for (v, w) in rel
            if v != w and div[v] != div[w]
        }
        if not bad:
            return rel
        rel -= {(w, v) for (v, w) in bad} | bad


def oracle_strong_pairs(game: Game) -> set[tuple[int, int]]:
    """Strong bisimilarity as a relation, by greatest-fixpoint deletion."""
    n = game.vertex_count
    rel = {
        (v, w)
        for v in range(n)
        for w in range(n)
        if game.priority[v] == game.priority[w] and game.owner[v] == game.owner[w]
    }
    while True:
        bad: set[tuple[int, int]] = set()
        for (v, w) in rel:
            if v == w or (w, v) in bad:
                continue
            ok = all(
                any((u, u2) in rel for u2 in game.successors[w])
                for u in game.successors[v]
            ) and all(
                any((u2, u) in rel for u2 in game.successors[v])
                for u in game.successors[w]
            )
            if not ok:
                bad.add((v, w))
                bad.add((w, v))
        if not bad:
            return rel
        rel -= bad


def partition_from_relation(game: Game, rel: set[tuple[int, int]]) -> list[list[int]]:
    """Blocks induced by an equivalence relation, sorted by representative."""
    seen: set[int] = set()
    blocks: list[list[int]] = []
    for v in game.vertices():
        if v in seen:
            continue
        cls = sorted(u for u in game.vertices() if (v, u) in rel)
        seen.update(cls)
        blocks.append(cls)
    return blocks


# ---------------------------------------------------------------------------
# Brute-force oracle.

BRUTE_VERTEX_LIMIT = 10
BRUTE_CHOICE_LIMIT = 10**6


def _cycle_wins(game: Game, player: int, fixed: dict[int, int]) -> set[int]:
    """Vertices from which the free-moving opponent can reach a cycle whose
    minimum priority has the opponent's parity, when ``player`` is pinned
    to the memoryless strategy ``fixed``."""
    n = game.vertex_count
    restricted = [
        (fixed[v],) if game.owner[v] == player else game.successors[v] for v in range(n)
    ]
    opponent = 1 - player
    bad: set[int] = set()
    for q in sorted(set(game.priority)):
        if q % 2 != opponent:
            continue
        sub = [v for v in range(n) if game.priority[v] >= q]
        for comp in strongly_connected_components(sub, restricted):
            if not any(game.priority[v] == q for v in comp):
                continue
            if len(comp) > 1 or comp[0] in restricted[comp[0]]:
                bad.update(comp)
    # backward reachability of a bad cycle in the restricted graph
    reach = set(bad)
    queue = deque(bad)
    while queue:
        u = queue.popleft()
        for p in game.predecessors[u]:
            if p not in reach and u in restricted[p]:
                reach.add(p)
                queue.append(p)
    return reach


def _brute_side(game: Game, player: int) -> tuple[set[int], dict[int, int]]:
    own = [v for v in game.vertices() if game.owner[v] == player]
    count = 1
    for v in own:
        count *= len(game.successors[v])
        if count > BRUTE_CHOICE_LIMIT:
            raise ValueError("brute-force solver: strategy space too large")
    union: set[int] = set()
    best: set[int] = set()
    best_moves: dict[int, int] = {}
    for choice in itertools.product(*(game.successors[v] for v in own)):
        moves = dict(zip(own, choice))
        wins = set(game.vertices()) - _cycle_wins(game, player, moves)
        union |= wins
        if len(wins) > len(best):
            best = wins
            best_moves = moves
    if best != union:
        raise RuntimeError("no single strategy dominates; determinacy violated?")
    return best, best_moves


def solve_brute(game: Game) -> Solution:
    """Exhaustive solver: enumerate one player's memoryless strategies and
    settle each against a free-moving opponent via cycle analysis.  Only
    for small games (the enumeration is exponential)."""
    if game.vertex_count > BRUTE_VERTEX_LIMIT:
        raise ValueError(
            f"brute-force solver limited to {BRUTE_VERTEX_LIMIT} vertices"
        )
    even_region, even_moves = _brute_side(game, EVEN)
    odd_region, odd_moves = _brute_side(game, ODD)
    if even_region | odd_region != set(game.vertices()) or even_region & odd_region:
        raise RuntimeError("winning regions do not partition the vertex set")
    winner = [EVEN if v in even_region else ODD for v in game.vertices()]
    return Solution(
        winner,
        Strategy(EVEN, {v: w for v, w in even_moves.items() if v in even_region}),
        Strategy(ODD, {v: w for v, w in odd_moves.items() if v in odd_region}),
    )


def reference_parse_pgsolver(text: str | bytes, convention: str = "min") -> Game:
    """Parse PGSolver text into a game.

    ``convention`` states how priorities in the file are to be read:
    ``"min"`` takes them verbatim, ``"max"`` reflects them so that internal
    semantics is always min-parity.  ``bytes`` are decoded as UTF-8.
    """
    if convention not in ("min", "max"):
        raise ValueError(f"unknown priority convention {convention!r}")
    if isinstance(text, bytes):
        text = _decode_utf8(text)

    ids: list[int] = []
    priority: list[int] = []
    owner: list[int] = []
    successors: list[list[int]] = []
    names: list[str | None] = []
    linenos: list[int] = []
    # ``seen`` stays None while the ids run 0, 1, 2, ... in file order,
    # which rules out duplicates without a set lookup per line.
    seen: set[int] | None = None
    lines = text.split("\n")
    header_max = _header_max(_HEADER_RE, lines[0])
    start = 0 if header_max is None else 1
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        m = REFERENCE_VERTEX_RE.match(raw)
        if m is None:
            if not raw.strip():
                continue
            raise FormatError(lineno, f"cannot parse vertex line {raw.strip()!r}")
        vid_text, prio_text, owner_text, succ_field, name = m.groups()
        # the fields are digits, so only a number longer than ``int``
        # converts can fail here
        try:
            vid = int(vid_text)
            prio = int(prio_text)
        except ValueError:
            raise FormatError(lineno, "vertex id or priority has too many digits") from None
        if seen is None and vid != len(ids):
            seen = set(ids)
        if seen is not None:
            if vid in seen:
                raise FormatError(lineno, f"duplicate vertex id {vid}")
            seen.add(vid)
        # The field starts with a digit and ends in a digit or comma, so it
        # needs no stripping.
        if succ_field is None:
            raise FormatError(lineno, f"vertex {vid} has an empty successor list")
        try:
            successors.append(list(map(int, succ_field.split(","))))
        except ValueError:
            raise FormatError(lineno, f"bad successor list {succ_field!r}") from None
        ids.append(vid)
        priority.append(prio)
        owner.append(int(owner_text))
        names.append(name)
        linenos.append(lineno)

    if not ids:
        raise FormatError(1, "no vertices in input")
    n = len(ids)
    if seen is not None:
        top = max(ids)
        if top + 1 != n:
            for vid in range(top + 1):
                if vid not in seen:
                    raise FormatError(1, f"vertex ids are not contiguous: {vid} is missing")
        order = sorted(range(n), key=ids.__getitem__)
        priority = [priority[i] for i in order]
        owner = [owner[i] for i in order]
        successors = [successors[i] for i in order]
        names = [names[i] for i in order]
        linenos = [linenos[i] for i in order]
    _check_header_max(header_max, n)
    if convention == "max":
        priority = _reflect(priority)
    try:
        return Game(priority, owner, successors, names)
    except ValueError as exc:  # a dangling successor id, named at its vertex's line
        v = next(v for v, succs in enumerate(successors) if max(succs) >= n)
        raise FormatError(linenos[v], str(exc)) from None


def reference_parse_solution(text: str | bytes, game: Game) -> Solution:
    """Read solution text against ``game`` into the :class:`Solution` it
    states.  Text that breaks the format for this game raises
    :class:`FormatError` naming the line.  ``bytes`` are decoded as UTF-8."""
    if isinstance(text, bytes):
        text = _decode_utf8(text)
    n, owner = game.vertex_count, game.owner
    winner: list[int | None] = [None] * n
    moves: tuple[dict[int, int], dict[int, int]] = ({}, {})  # by player
    lines = text.split("\n")
    header_max = _header_max(_SOLUTION_HEADER_RE, lines[0])
    start = 0 if header_max is None else 1
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        if not raw.strip():
            continue
        m = REFERENCE_SOLUTION_RE.match(raw)
        if m is None:
            raise FormatError(lineno, f"cannot parse solution line {raw.strip()!r}")
        try:
            vid = int(m.group(1))
            move = None if m.group(3) is None else int(m.group(3))
        except ValueError:
            raise FormatError(lineno, "vertex id or move has too many digits") from None
        if vid >= n:
            raise FormatError(lineno, f"vertex id {vid} is outside the game's {n} vertices")
        if winner[vid] is not None:
            raise FormatError(lineno, f"duplicate vertex id {vid}")
        w = winner[vid] = int(m.group(2))
        if move is None and owner[vid] == w:
            raise FormatError(lineno, f"vertex {vid} is won by its owner {w}, but has no move")
        if move is not None:
            if owner[vid] != w:
                raise FormatError(lineno, f"vertex {vid}: the solution gives a move, "
                                  f"but its winner {w} does not own it")
            moves[w][vid] = move
    if None in winner:
        raise FormatError(1, f"vertex {winner.index(None)} has no line")
    _check_header_max(header_max, n)
    return Solution(winner, Strategy(EVEN, moves[EVEN]), Strategy(ODD, moves[ODD]))
