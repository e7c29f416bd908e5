"""Reading and writing games in the PGSolver text format.

Grammar::

    file     := header? line+
    header   := "parity" <max-id> ";"
    line     := <id> <priority> <owner> <succ> ("," <succ>)* name? ";"
    name     := '"' <characters> '"'

Owner 0 is the even player, 1 the odd player; comments are not supported.
The reader accepts exactly this:

- vertex lines in any order, with blank lines anywhere (a line is blank
  when ``str.strip`` leaves nothing of it);
- whitespace inside a line is ASCII (space, tab, ``\r``, ``\f``, ``\v``),
  free-form between fields, so CRLF line ends read as LF ones;
- the ids are ``0..n-1``, each on exactly one line, in decimal digits with
  leading zeros allowed;
- every vertex has a successor list, which is deduplicated and sorted;
- a name holds neither ``"`` nor a line break, and ``""`` means no name;
- the header is optional, but when present it must give the max id.

The body is read in one regular-expression scan over the whole text, its
numbers converted by ``int`` in bulk; only when the scan rejects the text
is it read again line by line, to name the first bad line in a
:class:`FormatError`.  Internally the toolkit always uses min-parity
winner semantics: parsing with ``convention="max"`` reflects the priorities
as read, before the game is built, so every parse builds its game exactly
once (writing converts back at the CLI boundary).

A companion, equally line-oriented format stores solutions: a header
``solution <max-id>;`` followed by ``<id> <winner> (<move>)? ;`` per
vertex, the move being present exactly when the winner owns the vertex.
A solution is read against its game: one line for each of the game's
vertices, in any order, and an optional header that declares the game's
max id.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, ge
from typing import NoReturn

from .game import EVEN, ODD, Game, Strategy, _check_players, _check_successors, _reflect
from .solvers import Solution


class FormatError(ValueError):
    """Malformed game or solution text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# All patterns are ASCII-only: a Unicode ``\d`` would also take digits
# such as "\u0661" or "\uff10", which ``int`` then converts.
_HEADER_RE = re.compile(r"^\s*parity\s+(\d+)\s*;\s*$", re.ASCII)
# The successor field runs from a digit to its last digit or comma; spelled
# greedily rather than as a lazy ``[0-9][0-9,\s]*?`` it matches the same
# text without retrying the rest of the pattern after every character.
_VERTEX_RE = re.compile(
    r"^\s*(\d+)\s+(\d+)\s+([01])(?:\s+([0-9](?:[0-9,\s]*[0-9,])?))?\s*(?:\"([^\"]*)\")?\s*;\s*$",
    re.ASCII,
)
# The same grammar for every line of a body at once: whitespace inside a
# line is the ASCII whitespace of ``\s`` but the line break, and a line
# holding only what ``str.strip`` removes (Unicode ``\s``, which is
# ``str.isspace``) is blank.  No match crosses a line break, so every line
# matches exactly when the matches number the lines.  Unlike
# ``_VERTEX_RE`` it demands a successor list.
_WS = r"[ \t\r\f\v]"
_LINE_SCAN = re.compile(
    rf"^(?:{_WS}*([0-9]+){_WS}+([0-9]+){_WS}+([01]){_WS}+([0-9](?:[0-9, \t\r\f\v]*[0-9,])?)"
    rf"{_WS}*(?:\"([^\"\n]*)\")?{_WS}*;{_WS}*|[^\S\n]*)$",
    re.MULTILINE,
)
_OWNERS = {"0": EVEN, "1": ODD}


def _header_max(header_re: re.Pattern, first_line: str) -> int | None:
    """The max id that ``first_line`` declares, or None when it is no
    header."""
    m = header_re.match(first_line)
    if m is None:
        return None
    try:
        return int(m.group(1))
    except ValueError:
        raise FormatError(1, "header max id has too many digits") from None


def _check_header_max(header_max: int | None, n: int) -> None:
    """An optional header must declare the max id of the ``n`` vertices
    read, so that a truncated file whose ids happen to be contiguous does
    not parse."""
    if header_max is not None and header_max != n - 1:
        raise FormatError(1, f"header declares max id {header_max}, but the max id is {n - 1}")


def _decode_utf8(data: bytes) -> str:
    """``data`` decoded as UTF-8; a bad byte raises :class:`FormatError`
    naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(line, f"not UTF-8: {exc.reason}") from None


def parse_pgsolver(text: str | bytes, convention: str = "min") -> Game:
    """Parse PGSolver text into a game.

    ``convention`` states how priorities in the file are to be read:
    ``"min"`` takes them verbatim, ``"max"`` reflects them so that internal
    semantics is always min-parity.  ``bytes`` are decoded as UTF-8.
    """
    if convention not in ("min", "max"):
        raise ValueError(f"unknown priority convention {convention!r}")
    if isinstance(text, bytes):
        text = _decode_utf8(text)
    first, _, rest = text.partition("\n")
    header_max = _header_max(_HEADER_RE, first)
    # a header-only text leaves an empty body: one blank line
    body, first_lineno = (text, 1) if header_max is None else (rest, 2)

    rows = _LINE_SCAN.findall(body)
    if len(rows) != body.count("\n") + 1:
        _diagnose(body, first_lineno)
    columns = list(zip(*rows))  # a body has a line, so ``rows`` has a row
    if "" in columns[0]:  # blank lines
        keep = columns[0]
        columns = [tuple(compress(column, keep)) for column in columns]
    id_col, priority_col, owner_col, succ_col, name_col = columns
    if not id_col:
        raise FormatError(1, "no vertices in input")
    try:
        ids = list(map(int, id_col))
        priority = tuple(map(int, priority_col))
        flat = tuple(map(int, ",".join(succ_col).split(",")))
    except ValueError:  # a number too long for ``int``, or an empty field
        _diagnose(body, first_lineno)
    owner = tuple(map(_OWNERS.__getitem__, owner_col))
    successors = _cut_successors(succ_col, flat)
    names = tuple([nm or None for nm in name_col]) if any(name_col) else None

    n = len(ids)
    identity = list(range(n))
    if ids != identity:
        if sorted(ids) != identity:
            seen = set(ids)
            if len(seen) != n:
                _diagnose(body, first_lineno)  # a duplicate id
            missing = next(v for v in range(n) if v not in seen)
            raise FormatError(1, f"vertex ids are not contiguous: {missing} is missing")
        order = sorted(range(n), key=ids.__getitem__)
        priority = tuple(map(priority.__getitem__, order))
        owner = tuple(map(owner.__getitem__, order))
        successors = list(map(successors.__getitem__, order))
        if names is not None:
            names = tuple(map(names.__getitem__, order))
    _check_header_max(header_max, n)
    if convention == "max":
        priority = _reflect(priority)
    if max(flat) >= n:
        try:
            _check_successors(successors, n)
        except ValueError as exc:  # a dangling successor id
            raise FormatError(1, str(exc)) from None
    return Game._from_normalised(priority, owner, tuple(successors), names)


def _cut_successors(fields: tuple[str, ...], flat: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The successor tuple of each successor field in ``fields``, cut from
    ``flat``, the ids of all of them in order.  A tuple that is not
    strictly ascending is deduplicated and sorted, as ``Game`` does."""
    # each field ends where the commas up to it say
    commas = accumulate(map(str.count, fields, repeat(",")))
    ends = list(map(add, commas, range(1, len(fields) + 1)))
    successors = list(map(flat.__getitem__, map(slice, chain((0,), ends), ends)))
    # a drop inside a tuple, not at a boundary between two, means that
    # tuple is not strictly ascending
    drops = set(compress(range(1, len(flat)), map(ge, flat, islice(flat, 1, None))))
    for k in {bisect_right(ends, j) for j in drops.difference(ends)}:
        successors[k] = tuple(sorted(set(successors[k])))
    return successors


def _diagnose(body: str, first_lineno: int) -> NoReturn:
    """Raise the :class:`FormatError` of the first line of ``body`` that
    breaks the format, reading it line by line; ``first_lineno`` is the
    number of its first line in the whole text.  Called only when the
    bulk scan rejected ``body``, so some line does break it."""
    seen: set[int] = set()
    for lineno, raw in enumerate(body.split("\n"), start=first_lineno):
        m = _VERTEX_RE.match(raw)
        if m is None:
            if not raw.strip():
                continue
            raise FormatError(lineno, f"cannot parse vertex line {raw.strip()!r}")
        vid_text, prio_text, _, succ_field, _ = m.groups()
        # the fields are digits, so only a number longer than ``int``
        # converts can fail here
        try:
            vid = int(vid_text)
            int(prio_text)
        except ValueError:
            raise FormatError(lineno, "vertex id or priority has too many digits") from None
        if vid in seen:
            raise FormatError(lineno, f"duplicate vertex id {vid}")
        seen.add(vid)
        if succ_field is None:
            raise FormatError(lineno, f"vertex {vid} has an empty successor list")
        try:
            list(map(int, succ_field.split(",")))
        except ValueError:
            raise FormatError(lineno, f"bad successor list {succ_field!r}") from None
    raise RuntimeError("the bulk scan rejected a text whose every line is well formed")


def _check_not_empty(game: Game) -> None:
    if not game.vertex_count:
        raise ValueError("a game with no vertices has no PGSolver text")


def write_pgsolver(game: Game) -> str:
    """Serialise a game, deterministically: ascending vertex order and
    sorted successor lists, priorities written verbatim (min-parity).
    The format has no escapes, so a name holding ``"`` or a newline raises
    :class:`ValueError` naming its vertex; so does a game with no vertices,
    whose header ``parity -1;`` no reader accepts."""
    _check_not_empty(game)
    names = game.names or (None,) * game.vertex_count
    out = [f"parity {game.vertex_count - 1};"]
    for v, (p, o, succs, name) in enumerate(
        zip(game.priority, game.owner, game.successors, names)
    ):
        if name and ('"' in name or "\n" in name):
            raise ValueError(f"vertex {v}: name {name!r} holds a double quote or a newline")
        label = f' "{name}"' if name else ""
        out.append(f"{v} {p} {o} {','.join(map(str, succs))}{label};")
    return "\n".join(out)


def write_solution(game: Game, winner, strategy_even: Strategy, strategy_odd: Strategy) -> str:
    """Serialise winners and winning moves; the move column is present
    exactly at vertices owned by their winner.  Raises :class:`ValueError`
    naming the vertex when ``winner`` does not cover exactly the game's
    vertices, names a player other than 0 and 1, or a strategy lacks the
    move of a vertex its owner wins, and for a game with no vertices."""
    _check_not_empty(game)
    n = game.vertex_count
    if len(winner) != n:
        raise ValueError(
            f"winner vector of length {len(winner)} for {n} vertices: "
            f"vertex {min(len(winner), n)} is unmatched"
        )
    _check_players(winner, "vertex")
    moves = {EVEN: strategy_even.moves, ODD: strategy_odd.moves}
    out = [f"solution {n - 1};"]
    try:
        for v, o in enumerate(game.owner):
            w = winner[v]
            if o == w:
                out.append(f"{v} {w} {moves[w][v]};")
            else:
                out.append(f"{v} {w};")
    except KeyError:
        raise ValueError(
            f"vertex {v} is won by its owner {w}, whose strategy has no move there"
        ) from None
    return "\n".join(out)


_SOLUTION_RE = re.compile(r"^\s*(\d+)\s+([01])(?:\s+(\d+))?\s*;\s*$", re.ASCII)
_SOLUTION_HEADER_RE = re.compile(r"^\s*solution\s+(\d+)\s*;\s*$", re.ASCII)


def parse_solution(text: str | bytes, game: Game) -> Solution:
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
        m = _SOLUTION_RE.match(raw)
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
