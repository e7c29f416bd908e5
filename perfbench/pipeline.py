"""The three routes a user takes with a game file, and the correctness
gates checked on their outputs from outside the timed region.

Routes read and write text in the command line's default ``max``
convention, so the conversion cost users pay is included.  Every library
call goes through ``tracer.call`` with a span name ``<layer>.<call>``; the
layer is the package module the call belongs to.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from paritygame import (
    EVEN,
    ODD,
    convert_priorities,
    lift_solution,
    parse_pgsolver,
    quotient,
    refine_strong,
    refine_stuttering,
    solve,
    verify_strategy,
    write_partition,
    write_pgsolver,
    write_solution,
)

ROUTES = ("solve", "reduce_solve", "minimise")
LAYERS = ("generators", "io", "game", "reduction", "solvers", "strategy")


def _verified_solution(call, game, solution, verify_name):
    verdicts = [
        call(verify_name, verify_strategy, game, p, solution.region(p), solution.strategy(p))
        for p in (EVEN, ODD)
    ]
    text = call("io.write_solution", write_solution, game, solution.winner,
                solution.strategy_even, solution.strategy_odd)
    return verdicts, text


def route_solve(call, text, algorithm):
    """``paritygame solve`` plus ``verify``: a verified solution."""
    game = call("io.parse", parse_pgsolver, text, "max")
    solution = call(f"solvers.{algorithm}_original", solve, game, algorithm)
    verdicts, out = _verified_solution(call, game, solution, "strategy.verify_direct")
    return {"game": game, "solution": solution, "verdicts": verdicts, "text": out}


def route_reduce_solve(call, text, algorithm):
    """The paper's route to the same answer: solve the stuttering quotient
    and lift the solution back."""
    game = call("io.parse", parse_pgsolver, text, "max")
    partition = call("reduction.refine_stuttering", refine_stuttering, game)
    reduced, vmap = call("reduction.quotient_stuttering", quotient, game, partition)
    reduced_solution = call(f"solvers.{algorithm}_quotient", solve, reduced, algorithm)
    solution = call("strategy.lift", lift_solution, game, partition, reduced, vmap,
                    reduced_solution)
    verdicts, out = _verified_solution(call, game, solution, "strategy.verify_lifted")
    return {"game": game, "partition": partition, "reduced": reduced,
            "solution": solution, "verdicts": verdicts, "text": out}


def route_minimise(call, text, algorithm):
    """``paritygame reduce --equivalence strong --map``."""
    game = call("io.parse", parse_pgsolver, text, "max")
    partition = call("reduction.refine_strong", refine_strong, game)
    reduced, vmap = call("reduction.quotient_strong", quotient, game, partition)
    flipped = call("game.convert", convert_priorities, reduced, "min_to_max")
    out = call("io.write_game", write_pgsolver, flipped)
    block_map = call("reduction.write_partition", write_partition, partition)
    return {"game": game, "partition": partition, "reduced": reduced, "vmap": vmap,
            "text": out + "\n" + block_map}


ROUTE_FNS = {"solve": route_solve, "reduce_solve": route_reduce_solve, "minimise": route_minimise}


# ---------------------------------------------------------------------------
# Gates.  Each returns a list of (layer, message) failures; the layer is the
# one whose output the gate checks.


def fingerprint(game) -> str:
    """sha256 of everything ``Game.__eq__`` compares."""
    return digest(repr((game.priority, game.owner, game.successors, game.names)))


def check_parse(parsed, generated_fingerprint):
    if fingerprint(parsed) != generated_fingerprint:
        return [("io", "parsed text differs from the generated game")]
    return []


def check_verdicts(verdicts, layer):
    return [
        (layer, f"player {p} strategy rejected: {v.reason} {v.witness[:8]}")
        for p, v in zip((EVEN, ODD), verdicts)
        if not v
    ]


def check_winners(reference, winner, layer, what):
    if reference is None:
        return [("solvers", f"{what}: no direct solution to compare with")]
    if len(reference) != len(winner):
        return [(layer, f"{what}: {len(winner)} winners for {len(reference)} vertices")]
    for v, (a, b) in enumerate(zip(reference, winner)):
        if a != b:
            return [(layer, f"{what}: vertex {v} won by {b}, directly by {a}")]
    return []


def check_blocks(kind, reduced, expected):
    if kind in expected and reduced.vertex_count != expected[kind]:
        return [("reduction", f"{kind} quotient has {reduced.vertex_count} vertices, "
                              f"expected {expected[kind]}")]
    return []


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@dataclass
class Tally:
    """Operations attempted and failed, failures per layer, and the output
    digest of every (game, route) from the first pass that produced one."""

    attempted: int = 0
    failed: int = 0
    layer_failed: dict = field(default_factory=lambda: dict.fromkeys(LAYERS, 0))
    failures: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)

    def record(self, op, failures):
        self.attempted += 1
        if failures:
            self.failed += 1
            for layer, message in failures:
                self.layer_failed[layer] += 1
                self.failures.append(f"{op}: [{layer}] {message}")

    def check_digest(self, key, text):
        d = digest(text)
        first = self.digests.setdefault(key, d)
        if d != first:
            return [("io", f"output digest {d[:12]} differs from the first pass's {first[:12]}")]
        return []


def run_route(route, spec, text, tracer, op, tally, direct=None, generated=None):
    """Run one (game, route) operation: time it, then gate its output.

    Returns ``(seconds, outputs)``; ``outputs`` is ``None`` if the route
    raised.  ``direct`` is the game's winner vector from the ``solve``
    route, the reference for the other routes' winners.  ``generated``, the
    fingerprint of the generated game, is given in a run's first pass only:
    it turns on the two gates that cost extra work, the parse gate and,
    on a ``minimise`` route, solving the strong quotient to compare its
    winners.  Later passes are held to the first pass by the digest gate.
    """
    start = time.perf_counter()
    try:
        with tracer.span(op, f"route.{route}"):
            out = ROUTE_FNS[route](tracer.call, text, spec.algorithm)
    except Exception as exc:  # a failed operation is counted, not fatal
        seconds = time.perf_counter() - start
        layer = (tracer.last or "io").split(".")[0]
        tally.record(op, [(layer, f"{tracer.last} raised {exc!r}")])
        return seconds, None
    seconds = time.perf_counter() - start

    failures = [] if generated is None else check_parse(out["game"], generated)
    failures += tally.check_digest((spec.name, route), out["text"])
    reference = direct
    if route == "solve":
        failures += check_verdicts(out["verdicts"], "solvers")
    elif route == "reduce_solve":
        failures += check_verdicts(out["verdicts"], "strategy")
        failures += check_blocks("stuttering", out["reduced"], spec.blocks)
        failures += check_winners(reference, out["solution"].winner, "strategy", "lifted winners")
    else:
        failures += check_blocks("strong", out["reduced"], spec.blocks)
        if generated is not None:
            failures += check_strong_winners(reference, out)
    tally.record(op, failures)
    return seconds, out


def check_strong_winners(reference, minimised):
    """Winners of the strong quotient, carried back through ``vmap``, must
    equal the direct winners."""
    reduced_winner = solve(minimised["reduced"], "zielonka").winner
    carried = [reduced_winner[b] for b in minimised["vmap"]]
    return check_winners(reference, carried, "reduction", "strong quotient winners")


def op_counts(route, out):
    """Exact counts from one operation's outputs."""
    if route == "solve":
        return {"vertices": out["game"].vertex_count}
    partition = out["partition"]
    if route == "minimise":
        return {"strong_blocks": partition.block_count}
    solution = out["solution"]
    return {
        "stuttering_blocks": partition.block_count,
        "divergent_blocks": sum(partition.divergent),
        "max_block": max(len(b) for b in partition.blocks),
        "quotient_vertices": out["reduced"].vertex_count,
        "lifted_moves": len(solution.strategy_even.moves) + len(solution.strategy_odd.moves),
    }


def pass_counts(per_op):
    """The reported counts, from ``op_counts`` of every operation of the
    first pass; ``None`` if one of those operations failed (is ``None``)."""
    if None in per_op:
        return None
    c: dict = {}
    for counts in per_op:
        for k, v in counts.items():
            c[k] = max(c.get(k, 0), v) if k == "max_block" else c.get(k, 0) + v
    return {
        "reduction.stuttering_blocks": c["stuttering_blocks"],
        "reduction.strong_blocks": c["strong_blocks"],
        "reduction.divergent_blocks": c["divergent_blocks"],
        "reduction.max_block": c["max_block"],
        "reduction.shrink": c["stuttering_blocks"] / c["vertices"],
        "solvers.vertices_solved": c["vertices"] + c["quotient_vertices"],
        "strategy.lifted_moves": c["lifted_moves"],
    }
