"""Tests of the benchmark's own machinery: every gate fires on a corrupted
output and the failure is counted; spans, span cost and percentiles.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from paritygame import (  # noqa: E402
    EVEN,
    ODD,
    Game,
    Solution,
    Strategy,
    convert_priorities,
    gen_chain,
    gen_random,
    refine_stuttering,
    solve,
    write_pgsolver,
)

import child  # noqa: E402
import families  # noqa: E402
import pipeline  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from spans import NullTracer, Tracer, span_cost  # noqa: E402

CHAIN = families.GameSpec("chain", None, "zielonka", {"stuttering": 2, "strong": 7})


def _text(game):
    return write_pgsolver(convert_priorities(game, "min_to_max"))


def _run(route, spec, game, tally, direct=None, first_pass=True):
    generated = pipeline.fingerprint(game) if first_pass else None
    return pipeline.run_route(route, spec, _text(game), NullTracer(), f"0/{spec.name}/{route}",
                              tally, direct, generated)


def _all_routes(spec, game, tally, first_pass=True):
    out = {}
    for route in pipeline.ROUTES:
        direct = out["solve"]["solution"].winner if out.get("solve") else None
        _, out[route] = _run(route, spec, game, tally, direct, first_pass)
    return out


@pytest.mark.parametrize(
    "spec, game",
    [
        (CHAIN, gen_chain(6, 1, EVEN, 0)),
        (families.GameSpec("random", None, "zielonka"), gen_random(40, 3, 3, 7)),
        (families.GameSpec("spm", None, "spm"), gen_random(25, 3, 5, 2)),
    ],
)
def test_correct_outputs_pass_every_gate(spec, game):
    tally = pipeline.Tally()
    out = _all_routes(spec, game, tally)
    assert (tally.attempted, tally.failed, tally.failures) == (3, 0, [])
    assert out["reduce_solve"]["solution"].winner == out["solve"]["solution"].winner


def test_corrupted_winner_vector_is_counted(monkeypatch):
    real = pipeline.lift_solution

    def flipped(*args):
        sol = real(*args)
        return replace(sol, winner=[1 - sol.winner[0]] + sol.winner[1:])

    monkeypatch.setattr(pipeline, "lift_solution", flipped)
    tally = pipeline.Tally()
    _all_routes(CHAIN, gen_chain(6, 1, EVEN, 0), tally)
    assert tally.failed == 1
    assert tally.layer_failed["strategy"] >= 1
    assert any("lifted winners: vertex 0" in f for f in tally.failures)


def test_corrupted_strategy_is_counted(monkeypatch):
    real = pipeline.solve

    def bad_move(game, algorithm):
        sol = real(game, algorithm)
        moves = dict(sol.strategy_even.moves)
        v = min(moves)
        moves[v] = next(w for w in game.vertices() if not game.has_edge(v, w))
        return Solution(sol.winner, Strategy(EVEN, moves), sol.strategy_odd)

    monkeypatch.setattr(pipeline, "solve", bad_move)
    tally = pipeline.Tally()
    game = gen_chain(6, 1, EVEN, 0)
    _run("solve", CHAIN, game, tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.layer_failed["solvers"] == 1
    assert "strategy move is not a game edge" in tally.failures[0]


def test_losing_strategy_is_counted(monkeypatch):
    # Odd owns a 2-cycle of odd priority it wins by staying; redirect one
    # move to the even-winning sink and claim odd still wins there.
    game = Game([1, 1, 0], [ODD, ODD, EVEN], [[1], [0, 2], [2]])
    real = pipeline.solve

    def losing(game, algorithm):
        sol = real(game, algorithm)
        moves = dict(sol.strategy_odd.moves)
        moves[1] = 2
        return Solution(sol.winner, sol.strategy_even, Strategy(ODD, moves))

    monkeypatch.setattr(pipeline, "solve", losing)
    tally = pipeline.Tally()
    _run("solve", families.GameSpec("pair", None, "zielonka"), game, tally)
    assert tally.failed == 1 and tally.layer_failed["solvers"] == 1


def test_wrong_quotient_size_is_counted(monkeypatch):
    real = pipeline.quotient
    monkeypatch.setattr(pipeline, "quotient",
                        lambda game, part: real(game, refine_stuttering(game)))
    tally = pipeline.Tally()
    _run("minimise", CHAIN, gen_chain(6, 1, EVEN, 0), tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.layer_failed["reduction"] == 1
    assert "strong quotient has 2 vertices, expected 7" in tally.failures[0]


def test_wrong_strong_quotient_winners_are_counted(monkeypatch):
    real = pipeline.quotient

    def odd_everywhere(game, part):
        reduced, vmap = real(game, part)
        return Game([1] * reduced.vertex_count, reduced.owner, reduced.successors), vmap

    monkeypatch.setattr(pipeline, "quotient", odd_everywhere)
    tally = pipeline.Tally()
    _all_routes(families.GameSpec("chain", None, "zielonka"), gen_chain(6, 1, EVEN, 0), tally)
    assert any("strong quotient winners" in f for f in tally.failures)
    assert tally.layer_failed["reduction"] >= 1


def test_raising_call_is_charged_to_its_layer(monkeypatch):
    def broken(game, algorithm):
        raise RuntimeError("boom")

    monkeypatch.setattr(pipeline, "solve", broken)
    tally = pipeline.Tally()
    out = _all_routes(CHAIN, gen_chain(6, 1, EVEN, 0), tally, first_pass=False)
    assert out["solve"] is None and out["reduce_solve"] is None
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.layer_failed["solvers"] == 2


def test_parse_gate_and_digest_gate():
    game = gen_chain(6, 1, EVEN, 0)
    other = gen_chain(6, 3, EVEN, 0)
    assert pipeline.check_parse(game, pipeline.fingerprint(game)) == []
    assert pipeline.check_parse(game, pipeline.fingerprint(other))[0][0] == "io"
    tally = pipeline.Tally()
    assert tally.check_digest(("g", "solve"), "a") == []
    assert tally.check_digest(("g", "solve"), "a") == []
    assert tally.check_digest(("g", "solve"), "b")[0][0] == "io"


def test_spans_share_the_operation_id_and_are_parented_to_the_route():
    tracer = Tracer()
    with tracer.span("op1", "route.solve"):
        tracer.call("io.parse", sum, [1, 2])
        tracer.call("solvers.zielonka_original", sorted, [2, 1])
    assert [s[1] for s in tracer.spans] == ["io.parse", "solvers.zielonka_original", "route.solve"]
    assert {s[0] for s in tracer.spans} == {"op1"}
    assert [s[2] for s in tracer.spans] == ["route.solve", "route.solve", None]
    sample = child.layer_sample(tracer.spans, 2, 3.0)
    assert sample["spans"] == 1.5
    assert sample["io.self_s"] == sample["io.parse_s"] == pytest.approx(
        (tracer.spans[0][4] - tracer.spans[0][3]) * 3.0 / 2)


def test_span_cost_is_positive():
    assert 0 < span_cost(calls=2000, batches=3) < 1e-3


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(5))) is None
    assert run.tail_percentile(list(range(20))) is None
    assert run.tail_percentile(list(range(40)))[0] == 75
    assert run.tail_percentile(list(range(100))) == (90, 89)


def test_permuted_game_is_isomorphic():
    game = gen_random(30, 3, 4, 11)
    rng = random.Random(5)
    perm = list(range(30))
    random.Random(5).shuffle(perm)
    image = families.permuted(game, rng)
    assert [solve(image).winner[perm[v]] for v in game.vertices()] == solve(game).winner


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "chains", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "no paritygame sources" in proc.stderr


def test_every_declared_metric_gets_a_value():
    specs = [
        families.GameSpec("even", lambda call, seed: call("generators.gen_chain", gen_chain,
                                                          6, 1, EVEN, 0),
                          "zielonka", {"stuttering": 2, "strong": 7}),
        families.GameSpec("spm", lambda call, seed: gen_random(25, 3, 5, 2), "spm"),
    ]
    games = [spec.build(NullTracer().call, 0) for spec in specs]
    tally = pipeline.Tally()
    measured = child.measure(specs, [_text(g) for g in games],
                             [pipeline.fingerprint(g) for g in games], 0.0, True, tally,
                             {"solve": 2})
    passes = child.MIN_PASSES  # timed; the warm-up pass gives no sample
    assert tally.failed == 0 and tally.attempted == (passes + 1) * len(specs) * (2 + 1 + 1)
    assert all(len(measured[k][r]) == passes for k in ("routes", "layers")
               for r in pipeline.ROUTES)
    assert all(len(measured["raw_routes"][r]) == passes for r in pipeline.ROUTES)
    result = {**measured, "generate_s": [0.001], "setup_reference_s": [0.02],
              "layer_failed": tally.layer_failed,
              "peak_rss_mb": 20.0, "span_count": len(measured["spans"]), "span_cost_s": 1e-6}
    values = {**run.end_to_end(result, [0.1], [0.12]), **run.per_layer(result)}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert isinstance(values[metric["name"]][0], (int, float)), metric["name"]
    assert values["reduction.max_block"][0] >= 6
    # Spans of one operation, route span included: 6 on solve (counted once
    # per pass although it repeats twice), 9 on reduce_solve, 7 on minimise.
    assert values["trace.overhead_s"][0] == pytest.approx(len(specs) * (6 + 9 + 7) * 1e-6)


def test_reference_work_is_fixed():
    # Every reported time is a multiple of this work; changing it rescales
    # them all, so its result is pinned.
    assert reference.reference() == 5102
    assert reference.timed() > 0
