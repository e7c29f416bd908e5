"""PGSolver format parsing/writing and the solution format."""

import re
import time
import tracemalloc
from functools import partial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import alternating_chain, assert_same_game, priority_ladder, solve_zielonka
from oracles import (
    REFERENCE_SOLUTION_RE,
    REFERENCE_VERTEX_RE,
    reference_parse_pgsolver,
    reference_parse_solution,
)
from paritygame import (
    EVEN,
    ODD,
    FormatError,
    Game,
    Strategy,
    convert_priorities,
    gen_chain,
    gen_random,
    lift_solution,
    parse_pgsolver,
    parse_solution,
    quotient,
    refine_stuttering,
    solve,
    write_pgsolver,
    write_solution,
)
import paritygame.io as pgio

G1_TEXT = "parity 1;\n0 0 0 1;\n1 1 1 0;"
# g1: vertex 0 is even-owned, vertex 1 odd-owned, and even wins both
G1 = Game([0, 1], [EVEN, ODD], [[1], [0]])


def test_parse_g1():
    g = parse_pgsolver(G1_TEXT, convention="min")
    assert g.priority == (0, 1)
    assert g.owner == (EVEN, ODD)
    assert g.successors == ((1,), (0,))


def test_parse_single_self_loop():
    g = parse_pgsolver("parity 0;\n0 2 0 0;", convention="min")
    assert g.priority == (2,)
    assert g.owner == (EVEN,)
    assert g.successors == ((0,),)


def test_parse_rejects_an_unknown_convention():
    with pytest.raises(ValueError, match="^unknown priority convention 'mid'$"):
        parse_pgsolver("parity 0;\n0 0 0 0;\n", "mid")


def test_parse_empty_successor_list_rejected():
    with pytest.raises(FormatError, match="empty successor"):
        parse_pgsolver("parity 1;\n0 0 0 1;\n1 1 1;")


def test_parse_duplicate_vertex_rejected():
    with pytest.raises(FormatError, match="duplicate"):
        parse_pgsolver("0 0 0 0;\n0 1 1 0;")


def test_parse_dangling_successor_rejected():
    # the least vertex with a dangling id is named, with the least of its
    # dangling ids, at that vertex's line
    cases = [
        ("0 0 0 1,7;\n1 1 1 0;", 1, "dangling successor id 7 at vertex 0"),
        # the first id past the last vertex is dangling too
        ("1 1 1 0,2;\n0 0 0 1;", 1, "dangling successor id 2 at vertex 1"),
        ("0 0 0 0;\n1 0 0 0,5;", 2, "dangling successor id 5 at vertex 1"),
        ("parity 2;\n0 0 0 0;\n\n1 0 0 1;\n2 0 0 9;", 5, "dangling successor id 9 at vertex 2"),
        ("parity 3;\n0 0 0 0;\n\n3 0 0 8;\n1 0 0 1;\n2 0 0 9,7;", 6,
         "dangling successor id 7 at vertex 2"),
    ]
    for text, line, message in cases:
        with pytest.raises(FormatError, match=f"^line {line}: {message}$") as info:
            parse_pgsolver(text)
        assert info.value.line == line


def test_parse_gap_in_ids_rejected():
    with pytest.raises(FormatError, match="contiguous"):
        parse_pgsolver("0 0 0 0;\n2 1 1 2;")


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_pgsolver, "parity 7;\n0 1 0 1;\n1 0 1 0;"),
        (partial(parse_solution, game=G1), "solution 9;\n0 0 1;\n1 0;"),
    ],
    ids=["game", "solution"],
)
def test_header_max_id_must_match_the_vertices(parse, text):
    # a truncated game file whose ids happen to be contiguous; a solution
    # whose header is not its game's
    with pytest.raises(FormatError, match="^line 1: header declares max id"):
        parse(text)
    # without the header the same lines parse: it stays optional
    parse(text.split("\n", 1)[1])


@pytest.mark.parametrize(
    "parse, keyword",
    [(parse_pgsolver, "parity"), (partial(parse_solution, game=G1), "solution")],
    ids=["game", "solution"],
)
def test_header_max_id_too_long_for_int_raises_format_error(parse, keyword):
    with pytest.raises(FormatError, match="^line 1: header max id has too many digits$"):
        parse(f"{keyword} {'1' * 5000};\n0 0 0 0;")


def test_parse_syntax_error_carries_line():
    with pytest.raises(FormatError, match="line 2"):
        parse_pgsolver("0 0 0 0;\nnot a vertex;")


# 100,000 characters of the whitespace a line may hold
LONG_RUN = " \t\f\v\r" * 20_000


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_pgsolver, f"0 0 0 1{LONG_RUN}x;"),
        (parse_pgsolver, f'0 0 0 1{LONG_RUN}"v"x;'),
        (parse_pgsolver, f'0 0 0 1 "v"{LONG_RUN}x;'),
        (parse_pgsolver, f"0 0 0{LONG_RUN}x;"),
        (partial(parse_solution, game=G1), f"0 0{LONG_RUN}x;"),
        (parse_pgsolver, f"parity{LONG_RUN}x;\n0 0 0 0;"),
        (partial(parse_solution, game=G1), f"solution{LONG_RUN}x;\n0 0 1;\n1 0;"),
    ],
    ids=[
        "gap-before-semicolon",
        "gap-before-name",
        "gap-after-name",
        "gap-before-no-successors",
        "solution-line",
        "game-header",
        "solution-header",
    ],
)
def test_a_long_whitespace_run_then_a_bad_character_fails_fast(parse, text):
    # a pattern that could split the run between two repeats would try
    # every split before failing: quadratic in the run
    t0 = time.perf_counter()
    with pytest.raises(FormatError, match="^line 1: "):
        parse(text)
    assert time.perf_counter() - t0 < 1.0


def test_parse_is_whitespace_tolerant():
    g = parse_pgsolver("  0  0  0   1 ;\n\n 1 1 1 0,  1 ;\n")
    assert g.successors == ((1,), (0, 1))


def test_parse_sorts_and_deduplicates_a_successor_list():
    g = parse_pgsolver("0 0 0 3,1,3;\n1 0 0 1;\n2 0 0 2;\n3 0 0 3;")
    assert g.successors[0] == (1, 3)


def test_parse_reads_ids_listed_in_reverse_order():
    g = parse_pgsolver('parity 2;\n2 2 0 0 "c";\n1 1 1 2,0;\n0 0 0 1;')
    assert_same_game(g, Game([0, 1, 2], [EVEN, ODD, EVEN], [[1], [0, 2], [0]], [None, None, "c"]))


def test_parse_reads_leading_zeros():
    lines = [f"{v} 0 0 {(v + 1) % 8};" for v in range(7)]
    g = parse_pgsolver("\n".join(lines + ["007 003 1 000;"]))
    assert g.priority[7] == 3 and g.owner[7] == ODD and g.successors[7] == (0,)


def test_parse_names_the_line_of_a_trailing_comma():
    with pytest.raises(FormatError, match=r"^line 3: bad successor list '1,2,'$") as info:
        parse_pgsolver("parity 2;\n0 0 0 1;\n1 0 0 1,2,;\n2 0 0 0;")
    assert info.value.line == 3


def test_parse_names_the_line_of_a_successor_too_long_for_int():
    with pytest.raises(FormatError, match="^line 2: bad successor list '1111") as info:
        parse_pgsolver("0 0 0 0;\n1 0 0 " + "1" * 5000 + ";")
    assert info.value.line == 2


def test_parse_accepts_a_final_newline():
    assert parse_pgsolver(G1_TEXT + "\n") == G1


@pytest.mark.parametrize("text", ["parity 0;", "parity 0;\n"])
def test_parse_rejects_a_text_that_is_only_the_header(text):
    with pytest.raises(FormatError, match="^line 1: no vertices in input$"):
        parse_pgsolver(text)


def test_parse_max_convention_reflects_priorities():
    g = parse_pgsolver(G1_TEXT, convention="max")
    # max priority 1 rounds up to 2; 0 -> 2, 1 -> 1
    assert g.priority == (2, 1)


def test_write_g1_exact_text(g1):
    assert write_pgsolver(g1) == G1_TEXT


def test_write_quotient_of_chain_five():
    g = gen_chain(5, 1, ODD, 0)
    reduced, _ = quotient(g, refine_stuttering(g))
    assert write_pgsolver(reduced) == "parity 1;\n0 1 1 1;\n1 0 0 1;"


def test_names_may_contain_spaces_and_semicolons():
    text = 'parity 1;\n0 0 0 1 "state 3; waiting";\n1 1 1 0;'
    g = parse_pgsolver(text)
    assert g.names == ("state 3; waiting", None)
    assert parse_pgsolver(write_pgsolver(g)) == g


def test_names_round_trip_and_empty_names_omitted():
    text = 'parity 1;\n0 0 0 1 "start";\n1 1 1 0;'
    g = parse_pgsolver(text)
    assert g.names == ("start", None)
    assert write_pgsolver(g) == text
    unnamed = Game([0], [EVEN], [[0]], names=[""])
    assert '"' not in write_pgsolver(unnamed)
    # a game whose names are all empty has none, like the text it writes
    assert unnamed.names is None
    assert parse_pgsolver(write_pgsolver(unnamed)) == unnamed


@pytest.mark.parametrize("name", ['a"b', "a\nb", '"', "\n"])
def test_writer_rejects_a_name_the_parser_cannot_read(name):
    # the format has no escape: 'a"b' used to be written and then refused
    # by parse_pgsolver with "line 2: cannot parse vertex line"
    g = Game([0, 1], [EVEN, ODD], [[1], [0]], names=["ok", name])
    with pytest.raises(ValueError, match="^vertex 1: name .* double quote or a newline$"):
        write_pgsolver(g)


def test_writers_reject_a_game_with_no_vertices():
    # Game([], [], []) is a game, but its texts 'parity -1;' and
    # 'solution -1;' are refused by parse_pgsolver and parse_solution
    empty = Game([], [], [])
    with pytest.raises(ValueError, match="^a game with no vertices has no PGSolver text$"):
        write_pgsolver(empty)
    with pytest.raises(ValueError, match="^a game with no vertices has no PGSolver text$"):
        write_solution(empty, [], Strategy(0), Strategy(1))


def test_round_trip_on_random_games():
    for seed in range(50):
        g = gen_random(1 + seed % 15, 3, 3, seed)
        assert parse_pgsolver(write_pgsolver(g)) == g


def test_round_trip_accepts_bytes(g1):
    assert parse_pgsolver(write_pgsolver(g1).encode("ascii")) == g1


def test_non_ascii_name_round_trips_through_utf8_bytes():
    g = Game([0], [EVEN], [[0]], names=["é"])
    assert parse_pgsolver(write_pgsolver(g).encode()) == g


def test_bytes_that_are_not_utf8_raise_format_error():
    with pytest.raises(FormatError, match="line 2: not UTF-8") as info:
        parse_pgsolver(b'0 0 0 0;\n1 0 0 0 "\xff";')
    assert info.value.line == 2


def test_solution_bytes_that_are_not_utf8_raise_format_error():
    with pytest.raises(FormatError, match="line 3: not UTF-8") as info:
        parse_solution(b"solution 1;\n0 0 1;\n1 \xc3;", G1)
    assert info.value.line == 3


@pytest.mark.parametrize("digit", ["\u0661", "\uff10", "\u0966"])
def test_non_ascii_digits_raise_format_error(digit):
    with pytest.raises(FormatError, match="line 2: cannot parse vertex") as info:
        parse_pgsolver(f"0 0 0 0;\n1 {digit} 0 0;".encode())
    assert info.value.line == 2
    with pytest.raises(FormatError, match="line 3: cannot parse solution") as info:
        parse_solution(f"solution 1;\n0 0 1;\n1 0 {digit};".encode(), G1)
    assert info.value.line == 3


@pytest.mark.parametrize(
    "text",
    ["0 " + "1" * 5000 + " 0 0;", "0 0 0 0;\n" + "1" * 5000 + " 0 0 0;"],
    ids=["priority", "vertex-id"],
)
def test_numbers_too_long_for_int_raise_format_error(text):
    lineno = text.count("\n") + 1
    with pytest.raises(FormatError, match=f"line {lineno}: .* too many digits"):
        parse_pgsolver(text)


@pytest.mark.parametrize(
    "text",
    ["solution 0;\n" + "1" * 5000 + " 0;", "solution 0;\n0 0 " + "1" * 5000 + ";"],
    ids=["vertex-id", "move"],
)
def test_solution_numbers_too_long_for_int_raise_format_error(text):
    with pytest.raises(FormatError, match="line 2: .* too many digits"):
        parse_solution(text, G1)


def test_solution_format_round_trip(g4):
    sol = solve_zielonka(g4)
    text = write_solution(g4, sol.winner, sol.strategy_even, sol.strategy_odd)
    assert text.splitlines()[0] == "solution 2;"
    parsed = parse_solution(text, g4)
    assert parsed == sol
    assert parse_solution(text.encode(), g4) == sol
    # moves present exactly where the winner owns the vertex
    assert parsed.strategy_even.moves == {0: 1, 1: 1}
    assert parsed.strategy_odd.moves == {2: 2}


def test_solution_move_only_when_winner_owns(g1):
    sol = solve_zielonka(g1)
    text = write_solution(g1, sol.winner, sol.strategy_even, sol.strategy_odd)
    # vertex 1 is odd-owned but even-won: no move column
    assert text.splitlines()[2] == "1 0;"


def test_write_solution_rejects_inconsistent_input():
    g = Game([0, 1], [EVEN, ODD], [[1], [0]])
    with pytest.raises(ValueError, match="vertex 0 is won by its owner 0"):
        write_solution(g, [EVEN, EVEN], Strategy(EVEN, {}), Strategy(ODD, {}))
    with pytest.raises(ValueError, match="length 1 for 2 vertices: vertex 1"):
        write_solution(g, [EVEN], Strategy(EVEN, {0: 1}), Strategy(ODD, {}))
    with pytest.raises(ValueError, match="length 3 for 2 vertices: vertex 2"):
        write_solution(g, [EVEN] * 3, Strategy(EVEN, {0: 1}), Strategy(ODD, {}))


@pytest.mark.parametrize(
    "winner, vertex",
    [([2, 0], 0), ([EVEN, -1], 1), ([ODD, None], 1), ([EVEN, "1"], 1), ([True, 0], 0), ([ODD, 0.0], 1)],
)
def test_write_solution_rejects_a_winner_that_is_no_player(winner, vertex):
    # before the check, [2, 0] gave "solution 1;\n0 2;\n1 0;" and, since
    # True == 1, [True, 0] gave "solution 1;\n0 True;\n1 0;": text that
    # parse_solution refuses
    g = Game([0, 1], [EVEN, ODD], [[1], [0]])
    with pytest.raises(ValueError, match=rf"^vertex {vertex}: winner .* is not 0 \(even\) or 1 \(odd\)$"):
        write_solution(g, winner, Strategy(EVEN, {}), Strategy(ODD, {}))


def test_parse_solution_rejects_garbage():
    with pytest.raises(FormatError, match="^line 2: cannot parse solution line"):
        parse_solution("solution 0;\n0 2;", G1)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("solution 1;\n0 0 1;\n1 0;\n2 0;", 4, "vertex id 2 is outside the game's 2 vertices"),
        ("0 0 1;\n0 0 1;\n1 0;", 2, "duplicate vertex id 0"),
        # used to parse to ([0, 0], {0: 1, 1: 0})
        ("solution 1;\n0 0 1;\n1 0 0;", 3,
         "vertex 1: the solution gives a move, but its winner 0 does not own it"),
        ("solution 1;\n1 0;\n\n0 0;", 4, "vertex 0 is won by its owner 0, but has no move"),
        ("solution 1;\n0 0 1;\n", 1, "vertex 1 has no line"),
        ("", 1, "vertex 0 has no line"),
        ("solution 2;\n0 0 1;\n1 0;", 1, "header declares max id 2, but the max id is 1"),
    ],
    ids=["outside", "duplicate", "stray-move", "missing-move", "missing-line", "empty",
         "header"],
)
def test_parse_solution_reads_the_text_against_its_game(text, line, message):
    with pytest.raises(FormatError, match=f"^line {line}: {re.escape(message)}$") as info:
        parse_solution(text, G1)
    assert info.value.line == line


# ---------------------------------------------------------------------------
# Properties over the seeded generators and over mutated text.

PROPERTY = settings(deadline=None, derandomize=True, max_examples=150)

# Anything but a quote or a line break fits in a name.
NAMES = st.text(st.characters(blacklist_characters='"\n', blacklist_categories=("Cs",)), max_size=6)


@st.composite
def games(draw):
    n = draw(st.integers(1, 25))
    family = draw(st.sampled_from(["random", "chain", "ladder", "alternating"]))
    if family == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        g = gen_random(n, draw(st.integers(1, 4)), draw(st.integers(0, 8)), seed)
    elif family == "chain":
        g = gen_chain(n, draw(st.integers(0, 3)), draw(st.sampled_from([EVEN, ODD])),
                      draw(st.integers(0, 3)))
    elif family == "ladder":
        g = priority_ladder(n)
    else:
        g = alternating_chain(n)
    if draw(st.booleans()):
        names = draw(st.lists(NAMES, min_size=g.vertex_count, max_size=g.vertex_count))
        g = Game(g.priority, g.owner, g.successors, names)
    return g


@PROPERTY
@given(games(), st.sampled_from(["min", "max"]))
def test_parse_inverts_write_in_both_conventions(g, convention):
    text = write_pgsolver(g)
    expected = g if convention == "min" else convert_priorities(g, "max_to_min")
    assert_same_game(parse_pgsolver(text, convention), expected)
    assert write_pgsolver(parse_pgsolver(text, "min")) == text


@PROPERTY
@given(games(), st.data())
def test_parse_ignores_line_order_and_blank_lines(g, data):
    header, *lines = write_pgsolver(g).split("\n")
    lines = data.draw(st.permutations(lines))
    blanks = data.draw(st.lists(
        st.tuples(st.integers(0, len(lines)), st.sampled_from(["", " ", "\t  "])), max_size=6
    ))
    for pos, blank in sorted(blanks, reverse=True):
        lines.insert(pos, blank)
    if data.draw(st.booleans()):
        lines.insert(0, header)
    text = "\n".join(lines)
    for convention in ("min", "max"):
        assert_same_game(
            parse_pgsolver(text, convention), parse_pgsolver(write_pgsolver(g), convention)
        )


def _parses_or_raises_format_error(text):
    for convention in ("min", "max"):
        try:
            parse_pgsolver(text, convention)
        except FormatError as exc:
            assert 1 <= exc.line <= text.count("\n") + 1


def _mutate(text, data):
    """``text`` with one to four short spans replaced by short runs of
    format characters."""
    for _ in range(data.draw(st.integers(1, 4))):
        i = data.draw(st.integers(0, len(text)))
        j = data.draw(st.integers(i, min(len(text), i + 8)))
        text = text[:i] + data.draw(st.text(' \t\n,;"0123456789-x', max_size=4)) + text[j:]
    return text


@PROPERTY
@given(games(), st.data())
def test_mutated_text_raises_only_format_errors(g, data):
    _parses_or_raises_format_error(_mutate(write_pgsolver(g), data))


@PROPERTY
@given(st.text(max_size=60))
def test_arbitrary_text_raises_only_format_errors(text):
    _parses_or_raises_format_error(text)


# ---------------------------------------------------------------------------
# The bulk reader against the line-by-line reference reader: the same game
# with the same names, or the same FormatError on the same line.

# whitespace between fields; inside a line it is ASCII, and a line of only
# Unicode whitespace is blank
SEPARATORS = st.sampled_from([" ", "\t", "  ", "\v", "\f", " \f\v\t"])
BLANKS = st.sampled_from(["", " \t", "\u00a0", "\x1c"])


@st.composite
def varied_texts(draw):
    """PGSolver text in every shape the format allows: lines in any
    order with blank lines between them, LF or CRLF endings, any ASCII
    whitespace between fields, ids and priorities with leading zeros,
    successor lists unsorted or with duplicates, names that hold format
    characters, and a header or none.  One text in about ten has a
    dangling successor id."""
    n = draw(st.integers(1, 12))
    sep = draw(SEPARATORS)
    name_text = draw(st.sampled_from([NAMES, st.text(";, 0123456789", max_size=5)]))

    def number(value):
        return "0" * draw(st.integers(0, 2)) + str(value)

    comma = "," + draw(st.sampled_from(["", " ", "\v"]))
    # now and then a text names the id past the last vertex
    top = n - 1 if draw(st.integers(0, 9)) else n
    lines = []
    for v in range(n):
        priority = number(draw(st.integers(0, 9)))
        succs = comma.join(map(number, draw(st.lists(st.integers(0, top), min_size=1, max_size=4))))
        name = draw(st.none() | name_text)
        label = "" if name is None else f'{sep}"{name}"'
        pad = sep if draw(st.booleans()) else ""
        owner = draw(st.sampled_from("01"))
        lines.append(f"{pad}{number(v)}{sep}{priority}{sep}{owner}{sep}{succs}{label}{pad};")
    lines = draw(st.permutations(lines))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(BLANKS))
    if draw(st.booleans()):
        lines.insert(0, f"parity {n - 1};")
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


def _reads_as_the_reference_does(text):
    for convention in ("min", "max"):
        try:
            expected = reference_parse_pgsolver(text, convention)
        except FormatError as exc:
            with pytest.raises(FormatError) as info:
                parse_pgsolver(text, convention)
            assert (info.value.line, str(info.value)) == (exc.line, str(exc))
        else:
            got = parse_pgsolver(text, convention)
            assert_same_game(got, expected)
            assert got.names == expected.names


@PROPERTY
@given(varied_texts())
def test_varied_text_reads_as_the_reference_reads_it(text):
    _reads_as_the_reference_does(text)


@PROPERTY
@given(varied_texts(), st.data())
def test_mutated_varied_text_reads_as_the_reference_reads_it(text, data):
    _reads_as_the_reference_does(_mutate(text, data))


@PROPERTY
@given(games(), st.data())
def test_mutated_written_text_reads_as_the_reference_reads_it(g, data):
    _reads_as_the_reference_does(_mutate(write_pgsolver(g), data))


@PROPERTY
@given(st.text(max_size=60) | st.text(' \t\r\n\v\f\x1c\u00a0,;"0123456789parity', max_size=40))
def test_arbitrary_text_reads_as_the_reference_reads_it(text):
    _reads_as_the_reference_does(text)


# ---------------------------------------------------------------------------
# The library's line patterns against the reference readers' own: on any
# single line, both fail or both give the same groups.

# whitespace a line may hold between fields, and whitespace that only makes
# a line blank
GAPS = st.text(" \t\r\v\f\x1c\u00a0", max_size=2)
LINE_CHARS = ' \t\r\v\f\x1c\u00a0,;"0123456789\u0661x'
NUMBERS = st.builds(lambda zeros, value: zeros + str(value), st.sampled_from(["", "0"]),
                    st.integers(0, 999))
OWNERS = st.sampled_from("012")
SUCCESSOR_FIELDS = st.just("") | st.builds(
    str.join, st.sampled_from([",", ", ", ",\v", " ,"]), st.lists(NUMBERS, min_size=1, max_size=3)
)
LABELS = st.just("") | NAMES.map('"{}"'.format)
SINGLE_LINES = st.text(LINE_CHARS, max_size=30) | st.text(
    st.characters(blacklist_characters="\n"), max_size=40
)


@st.composite
def lines_near(draw, *fields):
    """One line of ``fields``, strategies for the text of each field, set
    apart by runs of whitespace and ended by ``;`` or not; then now and
    then a short span of it is replaced by a run of line characters."""

    def gap(between_fields):
        # one run in three may be empty or hold whitespace that is not ASCII
        if draw(st.integers(0, 2)) == 0:
            return draw(GAPS)
        return draw(SEPARATORS if between_fields else st.sampled_from(["", " ", "\r", "\t\v"]))

    first, *rest = fields
    line = gap(False) + draw(first) + "".join(gap(True) + draw(field) for field in rest)
    line += gap(False) + draw(st.sampled_from([";", ";", "", ";;"])) + gap(False)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        i = draw(st.integers(0, len(line)))
        j = draw(st.integers(i, min(len(line), i + 4)))
        line = line[:i] + draw(st.text(LINE_CHARS, max_size=3)) + line[j:]
    return line


def _groups(match):
    return None if match is None else match.groups()


@PROPERTY
@given(lines_near(NUMBERS, NUMBERS, OWNERS, SUCCESSOR_FIELDS, LABELS) | SINGLE_LINES)
def test_the_vertex_line_grammar_is_the_reference_readers(line):
    assert _groups(pgio._VERTEX_RE.fullmatch(line)) == _groups(REFERENCE_VERTEX_RE.match(line))


@PROPERTY
@given(lines_near(NUMBERS, OWNERS, st.just("") | NUMBERS) | SINGLE_LINES)
def test_the_solution_line_grammar_is_the_reference_readers(line):
    # both readers skip a blank line before they match it
    if line.strip():
        expected = _groups(REFERENCE_SOLUTION_RE.match(line))
        assert _groups(pgio._SOLUTION_RE.fullmatch(line)) == expected


# ---------------------------------------------------------------------------
# The lane for the body ``write_pgsolver`` writes: one match and one split
# in place of the line scan, and the same games and errors.

needs_lane = pytest.mark.skipif(
    pgio._WRITER_FORM is None, reason="no possessive repeat: every body takes the line scan"
)


class _ScanSpy:
    """Stands in for ``pgio._LINE_SCAN``, counting the bodies it scans."""

    scan = pgio._LINE_SCAN

    def __init__(self):
        self.calls = 0

    def findall(self, body):
        self.calls += 1
        return self.scan.findall(body)


@st.composite
def writer_texts(draw):
    """``write_pgsolver`` text of a game without names, now and then varied
    in ways the writer's form allows but the writer never writes: lines in
    any order, leading zeros in ids, priorities and successors, successor
    lists unsorted or with repeats, a dangling id, a missing line, a wrong
    header or none, a final newline."""
    g = draw(games())
    header, *lines = write_pgsolver(Game(g.priority, g.owner, g.successors)).split("\n")
    n = len(lines)
    leading_zeros = draw(st.integers(0, 4)) == 0

    def number(digits):
        return "0" * draw(st.integers(0, 2)) + digits if leading_zeros else digits

    rows = []
    for line in lines:
        vid, priority, owner, succs = line[:-1].split(" ")
        succs = succs.split(",")
        if draw(st.integers(0, 4)) == 0:
            succs = draw(st.permutations(succs + draw(st.lists(st.sampled_from(succs), max_size=2))))
        rows.append([number(vid), number(priority), owner, ",".join(map(number, succs))])
    if draw(st.integers(0, 9)) == 0:
        draw(st.sampled_from(rows))[3] += f",{n + draw(st.integers(0, 2))}"
    if n > 1 and draw(st.integers(0, 9)) == 0:
        del rows[draw(st.integers(0, n - 1))]
    lines = [f"{vid} {priority} {owner} {succs};" for vid, priority, owner, succs in rows]
    if draw(st.booleans()):
        lines = draw(st.permutations(lines))
    header = draw(st.sampled_from([header, header, f"parity {n};", None]))
    text = "\n".join(lines if header is None else [header, *lines])
    return text + "\n" if draw(st.booleans()) else text


@PROPERTY
@given(writer_texts())
def test_writer_text_reads_as_the_reference_reads_it(text):
    spy = _ScanSpy()
    with mock.patch.object(pgio, "_LINE_SCAN", spy):
        _reads_as_the_reference_does(text)
    # one parse per convention, and without the lane each scans the body
    assert spy.calls == (0 if pgio._WRITER_FORM is not None else 2)


@pytest.mark.parametrize(
    "text",
    [
        'parity 1;\n0 0 0 1 "a";\n1 1 1 0;',
        "parity 1;\n0 0 0 1;\n\n1 1 1 0;",
        "parity 1;\n0 0 0 1;\n1\t1 1 0;",
        "parity 1;\r\n0 0 0 1;\r\n1 1 1 0;\r\n",
        "parity 1;\n0 0 0 1;\n1 1 1 0, 1;",
    ],
    ids=["name", "blank-line", "tab", "crlf", "comma-space"],
)
def test_text_outside_the_writers_form_takes_the_line_scan(text):
    spy = _ScanSpy()
    with mock.patch.object(pgio, "_LINE_SCAN", spy):
        parse_pgsolver(text)
    assert spy.calls == 1


@needs_lane
def test_the_writers_form_match_keeps_no_state_per_line():
    # a greedy line repeat keeps backtracking state for every line:
    # megabytes here
    body = write_pgsolver(gen_random(20000, 5, 3, 1)).partition("\n")[2]
    tracemalloc.start()
    try:
        assert pgio._WRITER_FORM.fullmatch(body)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_the_writers_form_reads_the_same_through_the_line_scan(monkeypatch):
    texts = [
        write_pgsolver(gen_random(300, 4, 6, 2)),
        "parity 3;\n3 2 0 0,2,2;\n1 1 1 3,0;\n0 0 0 1;\n2 5 1 002;\n",
    ]
    with_lane = [parse_pgsolver(text, convention) for text in texts for convention in ("min", "max")]
    monkeypatch.setattr(pgio, "_WRITER_FORM", None)
    assert [parse_pgsolver(text, convention)
            for text in texts for convention in ("min", "max")] == with_lane


@pytest.mark.parametrize(
    "fields",
    [("3,1,3", "0", "2,1"), ("01,2", "0"), ("1,\v2", "0,\f1"), ("1 ,\r2", "1, 0")],
    ids=["json", "leading-zero", "form-feed", "ascii-space"],
)
def test_successor_fields_json_refuses_read_as_int_reads_them(fields):
    # every field is one the line scan lets through
    lists = [sorted(set(map(int, field.split(",")))) for field in fields]
    successors, top = pgio._decode_successors(fields)
    assert successors == list(map(tuple, lists)) and top == max(map(max, lists))


def _solution_text(g, sol):
    return write_solution(g, sol.winner, sol.strategy_even, sol.strategy_odd)


@PROPERTY
@given(games(), st.sampled_from(["zielonka", "spm"]))
def test_parse_solution_inverts_write_solution(g, algorithm):
    sol = solve(g, algorithm)
    assert parse_solution(_solution_text(g, sol), g) == sol


@PROPERTY
@given(games())
def test_parse_solution_inverts_write_solution_of_a_lifted_solution(g):
    part = refine_stuttering(g)
    reduced, vmap = quotient(g, part)
    sol = lift_solution(g, part, reduced, vmap, solve(reduced))
    assert parse_solution(_solution_text(g, sol), g) == sol


@PROPERTY
@given(games(), st.data())
def test_write_solution_writes_only_moves_its_reader_reads(g, data):
    # a move that is no vertex id used to be written verbatim ("0 0 True;",
    # "0 0 -1;"), in text that parse_solution refuses
    sol = solve(g)
    owned_won = [v for v in g.vertices() if g.owner[v] == sol.winner[v]]
    assume(owned_won)
    v = data.draw(st.sampled_from(owned_won))
    n = g.vertex_count
    move = data.draw(
        st.integers(-2, n + 2) | st.integers() | st.booleans() | st.floats() | st.text(max_size=3)
    )
    sol.strategy(sol.winner[v]).moves[v] = move
    try:
        text = _solution_text(g, sol)
    except ValueError as exc:
        assert str(exc).startswith(f"vertex {v}: ")
        return
    assert parse_solution(text, g) == sol


def _solution_parses_or_raises_format_error(text, g):
    """A solution read from ``text`` states one player per vertex and a
    move exactly where that player owns the vertex; anything else is a
    :class:`FormatError` naming a line of ``text``."""
    try:
        sol = parse_solution(text, g)
    except FormatError as exc:
        assert 1 <= exc.line <= text.count("\n") + 1
        return
    assert len(sol.winner) == g.vertex_count and set(sol.winner) <= {EVEN, ODD}
    for player in (EVEN, ODD):
        owned_and_won = {v for v in sol.region(player) if g.owner[v] == player}
        assert set(sol.strategy(player).moves) == owned_and_won


@PROPERTY
@given(games(), st.data())
def test_mutated_solution_text_raises_only_format_errors(g, data):
    text = _mutate(_solution_text(g, solve(g)), data)
    _solution_parses_or_raises_format_error(text, g)


@PROPERTY
@given(games(), st.text(max_size=60))
def test_arbitrary_solution_text_raises_only_format_errors(g, text):
    _solution_parses_or_raises_format_error(text, g)


def _solution_reads_as_the_reference_does(text, g):
    try:
        expected = reference_parse_solution(text, g)
    except FormatError as exc:
        with pytest.raises(FormatError) as info:
            parse_solution(text, g)
        assert (info.value.line, str(info.value)) == (exc.line, str(exc))
    else:
        assert parse_solution(text, g) == expected


@PROPERTY
@given(games(), st.data())
def test_permuted_or_mutated_solution_text_reads_as_the_reference_reads_it(g, data):
    header, *lines = _solution_text(g, solve(g)).split("\n")
    lines = data.draw(st.permutations(lines))
    if data.draw(st.booleans()):
        lines.insert(0, header)
    text = "\n".join(lines)
    if data.draw(st.booleans()):
        text = _mutate(text, data)
    _solution_reads_as_the_reference_does(text, g)


@PROPERTY
@given(games(), st.text(max_size=60) | st.text(' \t\r\n\v\f\x1c\u00a0;0123456789solution', max_size=40))
def test_arbitrary_solution_text_reads_as_the_reference_reads_it(g, text):
    _solution_reads_as_the_reference_does(text, g)
