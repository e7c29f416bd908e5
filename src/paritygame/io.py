r"""Reading and writing games in the PGSolver text format.

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
numbers converted in bulk; only when the scan rejects the text is it read
again line by line, to name the first bad line in a :class:`FormatError`.
The body :func:`write_pgsolver` writes (lines ``<id> <priority> <owner>
<succ>,...,<succ>;`` with single spaces and no name, LF ends, an optional
final newline) skips the scan: one match checks it and one split cuts its
fields.  Any other body takes the scan; both build the same game and
raise the same errors.  The successor fields, once the match or the scan
has limited them to digits, commas and ASCII whitespace, go to one JSON
decode; when JSON refuses them (leading zeros, a form feed or vertical
tab, more digits than ``int`` reads), each field is read with ``int``.
Internally the toolkit always uses min-parity winner semantics: parsing
with ``convention="max"`` reflects the priorities as read, before the game
is built, so every parse builds its game exactly once (writing converts
back at the CLI boundary).

A companion, equally line-oriented format stores solutions: a header
``solution <max-id>;`` followed by ``<id> <winner> (<move>)? ;`` per
vertex, the move being present exactly when the winner owns the vertex.
A solution is read against its game: one line for each of the game's
vertices, in any order, and an optional header that declares the game's
max id.  Its body is read in one pass, line by line: each line is
matched whole, converted and checked as it is read, so the first bad
line raises its error.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat, starmap
from operator import ge, itemgetter
from typing import Iterator, NoReturn, Sequence

from .game import EVEN, ODD, Game, Solution, Strategy, _check_players, _reflect


class FormatError(ValueError):
    """Malformed game or solution text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# All patterns are ASCII-only: a Unicode ``\d`` would also take digits
# such as "\u0661" or "\uff10", which ``int`` then converts.
_HEADER_RE = re.compile(r"^\s*parity\s+(\d+)\s*;\s*$", re.ASCII)
_SOLUTION_HEADER_RE = re.compile(r"^\s*solution\s+(\d+)\s*;\s*$", re.ASCII)
# Whitespace inside a line is the ASCII whitespace of ``\s`` but the line
# break.  A vertex line is a head (id, priority, owner), a successor field
# and a tail (an optional name, then ``;``).  The successor field runs from
# a digit to its last digit or comma; spelled greedily rather than as a
# lazy ``[0-9][0-9,\s]*?`` it matches the same text without retrying the
# rest of the pattern after every character.  Each whitespace run of the
# tail has one owner, a name taking the run after it, so a line that fails
# after a long run backtracks through it once, not once per way to split it.
_WS = r"[ \t\r\f\v]"
_HEAD = rf"{_WS}*([0-9]+){_WS}+([0-9]+){_WS}+([01])"
_SUCCESSORS = rf"{_WS}+([0-9](?:[0-9, \t\r\f\v]*[0-9,])?)"
_TAIL = rf"{_WS}*(?:\"([^\"\n]*)\"{_WS}*)?;{_WS}*"
# One line, matched whole; its successor field is optional, so that a line
# without one is named as such.
_VERTEX_RE = re.compile(rf"{_HEAD}(?:{_SUCCESSORS})?{_TAIL}")
# Every line of a body at once, each a vertex line or blank: a line holding
# only what ``str.strip`` removes (Unicode ``\s``, which is
# ``str.isspace``).  No match crosses a line break, so every line matches
# exactly when the matches number the lines.  The successor field is
# required here: an optional one made the scan 15% slower on the writer's
# text of ``gen_random(10000, 5, 3, 1)``, LF or CRLF.
_LINE_SCAN = re.compile(rf"^(?:{_HEAD}{_SUCCESSORS}{_TAIL}|[^\S\n]*)$", re.MULTILINE)
# One solution line, matched whole; a line without a move leaves its move
# group None.
_SOLUTION_RE = re.compile(rf"{_WS}*([0-9]+){_WS}+([01])(?:{_WS}+([0-9]+))?{_WS}*;{_WS}*")
# The body ``write_pgsolver`` writes: vertex lines of single-space-separated
# fields and no name, LF ends, an optional final newline.  Every repeat is
# possessive: a greedy line repeat keeps backtracking state for each line
# (6.8 MB at 10,000 lines), and no digit run has a digit to give back.  A
# line break is taken with the line after it, leaving a final newline to
# ``\n?``.  Python 3.10 has no possessive repeat: there every body takes
# ``_LINE_SCAN``.
_WRITER_LINE = r"[0-9]++ [0-9]++ [01] [0-9]++(?:,[0-9]++)*+;"
try:
    _WRITER_FORM: re.Pattern | None = re.compile(rf"{_WRITER_LINE}(?:\n{_WRITER_LINE})*+\n?")
except re.error:
    _WRITER_FORM = None
_DROP_SEMICOLON = itemgetter(slice(-1))
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


def _split_header(text: str | bytes, header_re: re.Pattern) -> tuple[int | None, str, int]:
    """The max id that the header of ``text`` declares (None when its first
    line is no header), the body after the header and the number of the
    body's first line.  ``bytes`` are decoded as UTF-8."""
    if isinstance(text, bytes):
        text = _decode_utf8(text)
    first, _, rest = text.partition("\n")
    header_max = _header_max(header_re, first)
    # a header-only text leaves an empty body: one blank line
    return (header_max, text, 1) if header_max is None else (header_max, rest, 2)


def _lines(body: str, first_lineno: int, pattern: re.Pattern, kind: str) -> Iterator[tuple]:
    """The number and the ``pattern`` match of each line of ``body`` that
    is not blank, read line by line; ``first_lineno`` is the number of its
    first line in the whole text.  A line that ``pattern`` does not match
    whole raises a :class:`FormatError` naming it as no ``kind`` line."""
    for lineno, raw in enumerate(body.split("\n"), start=first_lineno):
        if raw.strip():
            m = pattern.fullmatch(raw)
            if m is None:
                raise FormatError(lineno, f"cannot parse {kind} line {raw.strip()!r}")
            yield lineno, m


def parse_pgsolver(text: str | bytes, convention: str = "min") -> Game:
    """Parse PGSolver text into a game.

    ``convention`` states how priorities in the file are to be read:
    ``"min"`` takes them verbatim, ``"max"`` reflects them so that internal
    semantics is always min-parity.  ``bytes`` are decoded as UTF-8.
    """
    if convention not in ("min", "max"):
        raise ValueError(f"unknown priority convention {convention!r}")
    header_max, body, first_lineno = _split_header(text, _HEADER_RE)
    diagnose = partial(_diagnose, body, first_lineno)

    if _WRITER_FORM is not None and _WRITER_FORM.fullmatch(body):
        fields = body.split()
        id_col, priority_col, owner_col = fields[0::4], fields[1::4], fields[2::4]
        succ_col = list(map(_DROP_SEMICOLON, fields[3::4]))
        del fields  # and the successor fields with their ``;``
        names = None
    else:
        # no match crosses a line break, so when the matches do not number
        # the lines, some line breaks the format
        rows = _LINE_SCAN.findall(body)
        if len(rows) != body.count("\n") + 1:
            diagnose()
        columns = list(zip(*rows))  # a body has a line, so ``rows`` has a row
        if "" in columns[0]:  # blank lines
            keep = columns[0]
            columns = [tuple(compress(column, keep)) for column in columns]
        id_col, priority_col, owner_col, succ_col, name_col = columns
        if not id_col:
            raise FormatError(1, "no vertices in input")
        names = tuple([nm or None for nm in name_col]) if any(name_col) else None

    try:
        ids = list(map(int, id_col))
        priority = tuple(map(int, priority_col))
        successors, top = _decode_successors(succ_col)
    except ValueError:  # a number too long for ``int``, or an empty field
        diagnose()
    owner = tuple(map(_OWNERS.__getitem__, owner_col))

    n = len(ids)
    identity = list(range(n))
    order = identity
    if ids != identity:
        if sorted(ids) != identity:
            seen = set(ids)
            if len(seen) != n:
                diagnose()  # a duplicate id
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
    if top >= n:
        # the least vertex with a dangling id, and its least such id, named
        # at the vertex's line: the ``order[v]``-th line that is not blank
        v = next(v for v, succs in enumerate(successors) if succs[-1] >= n)
        succs = successors[v]
        linenos = (k for k, raw in enumerate(body.split("\n"), first_lineno) if raw.strip())
        raise FormatError(
            next(islice(linenos, order[v], None)),
            f"dangling successor id {succs[bisect_left(succs, n)]} at vertex {v}",
        )
    return Game._from_normalised(priority, owner, tuple(successors), names)


def _decode_successors(fields: Sequence[str]) -> tuple[list[tuple[int, ...]], int]:
    """The successor tuple of each successor field in ``fields``, and the
    largest id of all.  A tuple that is not strictly ascending is
    deduplicated and sorted, as ``Game`` does.  Raises :class:`ValueError`
    for a field that is no comma list of numbers ``int`` converts.

    The fields hold only digits, commas and ASCII whitespace, as a scan
    has checked, so each reads as the body of a JSON array, and one
    decode reads them all.  When JSON refuses them (leading zeros, a form
    feed or vertical tab, a number past ``int``'s digit limit, a bad
    list), each field is read with ``int``."""
    try:
        lists = json.loads("[[" + "],[".join(fields) + "]]")
    except ValueError:
        lists = [list(map(int, field.split(","))) for field in fields]
    flat = list(chain.from_iterable(lists))
    for k in _unsorted(flat, list(accumulate(map(len, lists)))):
        lists[k] = sorted(set(lists[k]))
    # tuples, each list let go as it is converted
    lists.reverse()
    return list(map(tuple, starmap(lists.pop, repeat((), len(lists))))), max(flat)


def _unsorted(flat: Sequence[int], ends: list[int]) -> set[int]:
    """The indices of the lists that are not strictly ascending, among
    lists laid end to end in ``flat`` with the ``k``-th ending at
    ``ends[k]``."""
    # a drop inside a list, not at a boundary between two, means that
    # list is not strictly ascending
    drops = set(compress(range(1, len(flat)), map(ge, flat, islice(flat, 1, None))))
    return {bisect_right(ends, j) for j in drops.difference(ends)}


def _diagnose(body: str, first_lineno: int) -> NoReturn:
    """Raise the :class:`FormatError` of the first line of ``body`` that
    breaks the format, reading it line by line; ``first_lineno`` is the
    number of its first line in the whole text.  Called only when the
    bulk scan rejected ``body``, so some line does break it."""
    seen: set[int] = set()
    for lineno, m in _lines(body, first_lineno, _VERTEX_RE, "vertex"):
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
    move of a vertex its owner wins or gives one there that is not an
    ``int`` vertex id (a ``bool`` is not one), and for a game with no
    vertices or a strategy of the other player (in
    :func:`~paritygame.verify_strategy`'s words); moves the text leaves
    out are not checked."""
    _check_not_empty(game)
    for player, strategy in ((EVEN, strategy_even), (ODD, strategy_odd)):
        if strategy.player != player:
            raise ValueError(f"the strategy belongs to player {strategy.player}, not {player}")
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
                move = moves[w][v]
                if type(move) is not int or not 0 <= move < n:
                    raise ValueError(f"vertex {v}: move {move!r} is not a vertex id in 0..{n - 1}")
                out.append(f"{v} {w} {move};")
            else:
                out.append(f"{v} {w};")
    except KeyError:
        raise ValueError(
            f"vertex {v} is won by its owner {w}, whose strategy has no move there"
        ) from None
    return "\n".join(out)


def parse_solution(text: str | bytes, game: Game) -> Solution:
    """Read solution text against ``game`` into the :class:`Solution` it
    states.  Text that breaks the format for this game raises
    :class:`FormatError` naming the line.  ``bytes`` are decoded as UTF-8.

    The body is read in one pass, line by line, so the first bad line
    raises its error."""
    header_max, body, first_lineno = _split_header(text, _SOLUTION_HEADER_RE)
    n, owner = game.vertex_count, game.owner
    winner: list = [None] * n
    moves: tuple[dict[int, int], dict[int, int]] = ({}, {})  # by player
    for lineno, m in _lines(body, first_lineno, _SOLUTION_RE, "solution"):
        vid_text, winner_text, move_text = m.groups()
        try:
            vid = int(vid_text)
            move = None if move_text is None else int(move_text)
        except ValueError:
            raise FormatError(lineno, "vertex id or move has too many digits") from None
        if vid >= n:
            raise FormatError(lineno, f"vertex id {vid} is outside the game's {n} vertices")
        if winner[vid] is not None:
            raise FormatError(lineno, f"duplicate vertex id {vid}")
        w = winner[vid] = _OWNERS[winner_text]
        if move is None:
            if owner[vid] == w:
                raise FormatError(lineno, f"vertex {vid} is won by its owner {w}, but has no move")
        elif owner[vid] != w:
            raise FormatError(lineno, f"vertex {vid}: the solution gives a move, "
                              f"but its winner {w} does not own it")
        else:
            moves[w][vid] = move
    if None in winner:
        raise FormatError(1, f"vertex {winner.index(None)} has no line")
    _check_header_max(header_max, n)
    return Solution(winner, Strategy(EVEN, moves[EVEN]), Strategy(ODD, moves[ODD]))
