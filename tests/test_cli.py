"""End-to-end CLI behaviour: subcommands, conventions, exit codes."""

import csv

import pytest

from paritygame import (
    ODD,
    Game,
    gen_chain,
    gen_random,
    parse_pgsolver,
    parse_solution,
    solve,
    write_pgsolver,
)
from paritygame.bench import CSV_HEADER
from paritygame.cli import cli_dispatch

from helpers import gen_branch

G1_MIN_TEXT = "parity 1;\n0 0 0 1;\n1 1 1 0;"


def write_game(path, text):
    path.write_text(text + "\n", encoding="ascii")
    return str(path)


def generate(tmp_path, family, n, *options):
    """Write ``generate --family family --n n`` to a file named after it,
    priorities as the min convention reads them, and return its path."""
    path = str(tmp_path / f"{family}-{n}{''.join(options)}.gm")
    argv = ["--convention", "min", "generate", "--family", family, "--n", str(n), *options]
    assert cli_dispatch([*argv, "-o", path]) == 0
    return path


def bench_rows(path):
    """The data rows of a bench CSV, after its comment and header."""
    with open(path, encoding="utf-8", newline="") as fh:
        comment, header, *rows = csv.reader(fh)
    assert header == CSV_HEADER.split(",")
    return rows


def test_info(tmp_path, capsys):
    f = write_game(tmp_path / "g.gm", G1_MIN_TEXT)
    assert cli_dispatch(["--convention", "min", "info", f]) == 0
    out = capsys.readouterr().out
    assert "vertices:   2" in out
    assert "[0, 1]" in out


@pytest.mark.parametrize(
    "text, vertices, edges, priorities",
    [
        (G1_MIN_TEXT, 2, 2, "2 [0, 1]"),
        (write_pgsolver(gen_branch()), 4, 4, "2 [0, 1]"),
        ("parity 0;\n0 5 1 0;", 1, 1, "1 [5]"),
    ],
    ids=["g1", "branch", "self-loop"],
)
def test_info_counts(tmp_path, capsys, text, vertices, edges, priorities):
    f = write_game(tmp_path / "g.gm", text)
    assert cli_dispatch(["--convention", "min", "info", f]) == 0
    assert capsys.readouterr().out == (
        f"vertices:   {vertices}\nedges:      {edges}\npriorities: {priorities}\n"
    )


def test_an_unwritable_name_exits_1(monkeypatch, capsys):
    import paritygame.cli

    monkeypatch.setattr(
        paritygame.cli, "gen_chain", lambda *args: Game([0], [0], [[0]], names=['a"b'])
    )
    assert cli_dispatch(["generate", "--family", "chain"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "vertex 0: name 'a\"b'" in captured.err


def test_generate_then_solve(tmp_path, capsys):
    out_file = tmp_path / "chain.gm"
    code = cli_dispatch(
        ["generate", "--family", "chain", "--n", "4", "-o", str(out_file)]
    )
    assert code == 0
    code = cli_dispatch(["solve", "--algorithm", "zielonka", str(out_file)])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "solution 4;"
    # the even player wins the whole chain family
    assert all(line.rstrip(";").split()[1] == "0" for line in lines[1:])


def test_solve_default_convention_is_max(tmp_path, capsys):
    # a cycle through priorities {0, 1}: lowest-wins gives it to even,
    # highest-wins (the default file convention) to odd
    f = write_game(tmp_path / "g.gm", G1_MIN_TEXT)
    assert cli_dispatch(["solve", f]) == 0
    max_out = capsys.readouterr().out
    assert cli_dispatch(["--convention", "min", "solve", f]) == 0
    min_out = capsys.readouterr().out
    assert max_out.splitlines()[1].rstrip(";").split()[1] == "1"
    assert min_out.splitlines()[1].rstrip(";").split()[1] == "0"


def test_reduce_writes_quotient_and_map(tmp_path, capsys):
    f = write_game(tmp_path / "chain.gm", write_pgsolver(gen_chain(6, 1, ODD, 0)))
    out_file = tmp_path / "q.gm"
    map_file = tmp_path / "map.txt"
    code = cli_dispatch(
        [
            "--convention",
            "min",
            "reduce",
            "--equivalence",
            "stuttering",
            f,
            "-o",
            str(out_file),
            "--map",
            str(map_file),
        ]
    )
    assert code == 0
    reduced = parse_pgsolver(out_file.read_text(), convention="min")
    assert reduced.vertex_count == 2
    map_lines = map_file.read_text().strip().splitlines()
    assert len(map_lines) == 7
    assert map_lines[0].split() == ["0", "0", "0"]
    assert map_lines[6].split() == ["6", "1", "1"]


def test_reduce_strong(tmp_path):
    f = write_game(tmp_path / "chain.gm", write_pgsolver(gen_chain(6, 1, ODD, 0)))
    out_file = tmp_path / "q.gm"
    assert cli_dispatch(["--convention", "min", "reduce", "--equivalence", "strong", f, "-o", str(out_file)]) == 0
    assert parse_pgsolver(out_file.read_text(), convention="min").vertex_count == 7


def test_verify_accepts_solver_output(tmp_path, capsys):
    f = write_game(tmp_path / "g.gm", G1_MIN_TEXT)
    assert cli_dispatch(["--convention", "min", "solve", f]) == 0
    solution_text = capsys.readouterr().out
    sol_file = tmp_path / "g.sol"
    sol_file.write_text(solution_text, encoding="ascii")
    assert cli_dispatch(["--convention", "min", "verify", f, str(sol_file)]) == 0
    assert "verified" in capsys.readouterr().out


def test_verify_rejects_a_move_at_a_vertex_its_winner_does_not_own(tmp_path, capsys):
    # every chain vertex is odd-owned and won by even, so no line may carry
    # a move; the moves used to be dropped and the solution verified
    f = generate(tmp_path, "chain", 3)
    sol_file = tmp_path / "stray.sol"
    sol_file.write_text("solution 3;\n0 0 1;\n1 0 2;\n2 0 3;\n3 0 3;\n", encoding="ascii")
    assert cli_dispatch(["--convention", "min", "verify", f, str(sol_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        "error: line 2: vertex 0: the solution gives a move, but its winner 0 does not own it"
        in captured.err
    )


@pytest.mark.parametrize(
    "text, message",
    [
        ("solution 4;\n0 0;\n1 0;\n2 0;\n3 0 3;\n4 0;\n", "line 6: vertex id 4 is outside"),
        ("solution 2;\n0 0;\n1 0;\n2 0;\n", "line 1: vertex 3 has no line"),
        # the sink is even-owned and won by even
        ("solution 3;\n0 0;\n1 0;\n2 0;\n3 0;\n", "line 5: vertex 3 is won by its owner 0"),
    ],
    ids=["one-vertex-more", "one-vertex-fewer", "missing-move"],
)
def test_verify_rejects_a_solution_that_breaks_its_format(tmp_path, capsys, text, message):
    # the first two used to print "solution does not cover the game's
    # vertices", the third "strategy undefined inside the region"
    f = generate(tmp_path, "chain", 3)
    sol_file = tmp_path / "bad.sol"
    sol_file.write_text(text, encoding="ascii")
    assert cli_dispatch(["--convention", "min", "verify", f, str(sol_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_verify_rejects_wrong_solution(tmp_path, capsys):
    f = write_game(tmp_path / "g.gm", G1_MIN_TEXT)
    sol_file = tmp_path / "bad.sol"
    # claims odd wins everywhere; the 0-priority cycle refutes it
    sol_file.write_text("solution 1;\n0 1;\n1 1 0;\n", encoding="ascii")
    assert cli_dispatch(["--convention", "min", "verify", f, str(sol_file)]) == 1
    err = capsys.readouterr().err
    assert "cycle" in err


@pytest.mark.parametrize("dual", [False, True], ids=["game", "dual"])
def test_spm_solution_verifies(tmp_path, capsys, dual):
    # SPM's remainder of this game is 250 vertices, enough for the two
    # progress measure halves to race and one to seed the other
    g = gen_random(400, 3, 3, 3)
    if dual:
        g = Game([p + 1 for p in g.priority], [1 - o for o in g.owner], g.successors)
    f = write_game(tmp_path / "g.gm", write_pgsolver(g))
    assert cli_dispatch(["--convention", "min", "solve", "--algorithm", "spm", f]) == 0
    sol_file = tmp_path / "g.sol"
    sol_file.write_text(capsys.readouterr().out, encoding="ascii")
    assert cli_dispatch(["--convention", "min", "verify", f, str(sol_file)]) == 0
    assert "verified" in capsys.readouterr().out
    assert parse_solution(sol_file.read_bytes(), g).winner == solve(g, "zielonka").winner


def test_bench_family_grid(tmp_path):
    files = [generate(tmp_path, "chain", n) for n in (10, 50)]
    out = tmp_path / "bench.csv"
    code = cli_dispatch(
        ["--convention", "min", "bench", *files, "--methods", "all", "--repetitions", "1",
         "-o", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 + 2 * 3  # comment + header + 2 games x 3 methods


def test_bench_large_chain_grid(tmp_path):
    files = [generate(tmp_path, "chain", n) for n in (1000, 10000)]
    out = tmp_path / "bench.csv"
    code = cli_dispatch(
        ["--convention", "min", "bench", *files, "--methods", "all", "--repetitions", "1",
         "-o", str(out)]
    )
    assert code == 0
    rows = bench_rows(out)
    assert len(rows) == 2 * 3
    red_v = {(row[0], row[1]): row[5] for row in rows}
    assert red_v[files[1], "stuttering+solve"] == "2"
    assert red_v[files[1], "direct"] == "10001"


def test_bench_random_family(tmp_path):
    files = [
        generate(tmp_path, "random", n, "--seed", str(seed)) for n in (12, 20) for seed in (3, 4)
    ]
    out = tmp_path / "bench.csv"
    code = cli_dispatch(
        ["--convention", "min", "bench", *files, "--methods", "direct,stuttering",
         "--solvers", "zielonka,spm", "--repetitions", "1", "-o", str(out)]
    )
    assert code == 0
    rows = bench_rows(out)
    assert len(rows) == 4 * 2 * 2
    assert {row[0] for row in rows} == set(files)
    assert {row[2] for row in rows} == {"zielonka", "spm"}


def test_bench_on_game_files(tmp_path):
    f1 = write_game(tmp_path / "a.gm", write_pgsolver(gen_chain(20, 1, ODD, 0)))
    f2 = write_game(tmp_path / "b.gm", write_pgsolver(gen_chain(30, 1, ODD, 0)))
    out = tmp_path / "bench.csv"
    code = cli_dispatch(
        ["--convention", "min", "bench", f1, f2, "--repetitions", "1", "-o", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2 + 2 * 3
    assert lines[2].startswith(f1)


@pytest.mark.parametrize("name", ["a,b.gm", "jeu-\u00e9.gm"], ids=["comma", "non-ascii"])
def test_bench_csv_reads_back_one_field_per_column(tmp_path, name):
    # "a,b.gm" gave a row of 13 columns under 12 headers, and a non-ASCII
    # game id failed to write
    f = write_game(tmp_path / name, write_pgsolver(gen_chain(5, 1, ODD, 0)))
    out = tmp_path / "bench.csv"
    code = cli_dispatch(
        ["--convention", "min", "bench", f, "--repetitions", "1", "-o", str(out)]
    )
    assert code == 0
    with open(out, encoding="utf-8", newline="") as fh:
        comment, header, *rows = csv.reader(fh)
    assert header == CSV_HEADER.split(",")
    assert len(rows) == 3
    assert all(len(row) == len(header) and row[0] == f for row in rows)


def test_usage_errors_exit_2(tmp_path, capsys):
    assert cli_dispatch(["solve"]) == 2
    assert cli_dispatch(["--no-such-flag", "info", "x"]) == 2
    capsys.readouterr()
    # bench takes game files only; ``generate`` makes the families
    for argv, message in [
        (["bench"], "usage: paritygame bench"),
        (["bench", "--family", "chain", "x.gm"], "unrecognized arguments: --family"),
    ]:
        assert cli_dispatch(argv) == 2, argv
        captured = capsys.readouterr()
        assert message in captured.err, argv
        assert captured.out == "", argv
    f = write_game(tmp_path / "chain.gm", write_pgsolver(gen_chain(4, 1, ODD, 0)))
    # bad bench options used to exit 1 as domain failures, or 0 with no rows,
    # and bad lists printed no usage
    for options, message in [
        (["--repetitions", "0"], "argument --repetitions: must be a positive integer"),
        (["--methods", "foo"], "--methods takes a comma list of"),
        (["--methods", "all,direct"], "--methods takes a comma list of"),
        (["--methods", ","], "--methods takes a comma list of"),
        (["--solvers", "foo"], "--solvers takes a comma list of zielonka, spm\n"),
        (["--solvers", "brute"], "--solvers takes a comma list of zielonka, spm\n"),
        (["--solvers", ","], "--solvers takes a comma list of"),
    ]:
        assert cli_dispatch(["bench", f, *options]) == 2, options
        captured = capsys.readouterr()
        assert message in captured.err, options
        assert "usage: paritygame bench" in captured.err, options
        assert captured.out == "", options
    # numeric options used to reach the generators and exit 1
    for argv, message in [
        (["generate", "--family", "chain", "--n", "0"], "argument --n: must be a positive"),
        (["generate", "--family", "random", "--degree", "0"], "argument --degree: must be a positive"),
        (["generate", "--family", "random", "--pmax", "-1"], "argument --pmax: must be a natural"),
        (["generate", "--family", "chain", "--chain-priority", "-1"], "argument --chain-priority: must be a natural"),
        (["generate", "--family", "chain", "--sink-priority", "-1"], "argument --sink-priority: must be a natural"),
        (["solve", "--algorithm", "brute", "f"], "argument --algorithm: invalid choice: 'brute'"),
    ]:
        assert cli_dispatch(argv) == 2, argv
        captured = capsys.readouterr()
        assert message in captured.err, argv
        assert captured.out == "", argv


def test_a_usage_error_shows_the_subcommand_usage(capsys):
    # the root usage, which lists the subcommands, used to be printed instead
    assert cli_dispatch(["generate", "--family", "chain", "--n", "0"]) == 2
    err = capsys.readouterr().err
    assert "usage: paritygame generate" in err
    assert "{info,solve,reduce" not in err


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["bench", "--family", "chain", "x.gm"], "usage: paritygame bench"),
        (["solve", "x.gm", "--bogus"], "usage: paritygame solve"),
        (["--bogus", "solve", "x.gm"], "usage: paritygame [-h]"),
    ],
    ids=["after-bench", "after-solve", "before-the-subcommand"],
)
def test_an_unknown_option_shows_the_usage_of_its_parser(argv, usage, capsys):
    # the root usage used to be shown after a subcommand too
    assert cli_dispatch(argv) == 2
    captured = capsys.readouterr()
    assert usage in captured.err
    assert "unrecognized arguments: " in captured.err
    assert ("{info,solve,reduce" in captured.err) == (argv[0] == "--bogus")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_returns_0(argv, capsys):
    # argparse exits after printing help; that exit used to escape
    assert cli_dispatch(argv) == 0
    assert "usage: paritygame" in capsys.readouterr().out


def test_bench_has_no_jobs_option(capsys):
    assert cli_dispatch(["bench", "x.gm", "--jobs", "2"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_info_reads_utf8_names(tmp_path, capsys):
    f = tmp_path / "named.gm"
    f.write_text('0 0 0 0 "\u00e9";\n', encoding="utf-8")
    assert cli_dispatch(["--convention", "min", "info", str(f)]) == 0
    assert "vertices:   1" in capsys.readouterr().out


def test_info_rejects_invalid_utf8_with_line_number(tmp_path, capsys):
    f = tmp_path / "bad.gm"
    f.write_bytes(b'0 0 0 1;\n1 0 0 1 "\xff";\n')
    assert cli_dispatch(["--convention", "min", "info", str(f)]) == 1
    err = capsys.readouterr().err
    assert "line 2" in err and "UTF-8" in err


@pytest.mark.parametrize(
    "data, reason",
    [("solution 1;\n0 0 1;\n1 0 \u00e9;\n".encode(), "cannot parse"),
     ("solution 1;\n0 0 1;\n1 0 \u0661;\n".encode(), "cannot parse"),
     (b"solution 1;\n0 0 1;\n1 0 \xff;\n", "not UTF-8")],
    ids=["utf8", "non-ascii-digit", "not-utf8"],
)
def test_verify_reports_bad_solution_bytes_with_line_number(tmp_path, capsys, data, reason):
    f = write_game(tmp_path / "g.gm", G1_MIN_TEXT)
    sol_file = tmp_path / "bad.sol"
    sol_file.write_bytes(data)
    assert cli_dispatch(["--convention", "min", "verify", f, str(sol_file)]) == 1
    err = capsys.readouterr().err
    assert "line 3" in err and reason in err
    assert "codec" not in err


def test_domain_errors_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.gm"
    bad.write_text("0 0 0 ;\n", encoding="ascii")
    assert cli_dispatch(["info", str(bad)]) == 1
    assert cli_dispatch(["info", str(tmp_path / "missing.gm")]) == 1
    capsys.readouterr()


def test_generate_offers_only_random_and_chain(capsys):
    # the two fixed fixture games are test equipment in ``helpers``
    for family in ("branch", "divergent-pair"):
        assert cli_dispatch(["generate", "--family", family]) == 2, family
        captured = capsys.readouterr()
        assert "usage: paritygame generate" in captured.err, family
        assert "invalid choice" in captured.err, family
        assert captured.out == "", family
