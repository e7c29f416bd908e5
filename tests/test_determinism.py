"""Cross-process determinism: the whole pipeline must produce identical
output under different hash seeds (no set-iteration order may leak into
results)."""

import os
import subprocess
import sys
from pathlib import Path

PIPELINE = r"""
from paritygame import (
    Game, gen_chain, gen_random, refine_strong, refine_stuttering, quotient,
    solve, write_pgsolver, write_partition, write_solution, lift_solution,
    EVEN, ODD,
)
from paritygame.solvers import solve_spm
from helpers import solve_zielonka

chunks = []
for seed in (1, 2, 3):
    g = gen_random(60, 3, 3, seed)
    part = refine_stuttering(g)
    reduced, vmap = quotient(g, part)
    sol = solve_zielonka(reduced)
    chunks += [write_pgsolver(g), write_pgsolver(reduced), write_partition(part)]
    chunks += [str(vmap), str(sol.winner)]
    chunks += [str(sorted(sol.strategy_even.moves.items()))]
    chunks += [str(sorted(sol.strategy_odd.moves.items()))]
    lifted = lift_solution(g, part, reduced, vmap, sol)
    for player in (EVEN, ODD):
        chunks.append(str(sorted(lifted.strategy(player).moves.items())))
    for game in (g, reduced):
        for algorithm in ("zielonka", "spm"):
            s = solve(game, algorithm)
            chunks.append(write_solution(game, s.winner, s.strategy_even, s.strategy_odd))
    strong = refine_strong(g)
    chunks.append(write_partition(strong))
# sparse games, each with a vertex that wins by its own self-loop
for seed in range(5):
    g = gen_random(20, 2, 3, seed)
    for algorithm in ("zielonka", "spm"):
        s = solve(g, algorithm)
        chunks.append(write_solution(g, s.winner, s.strategy_even, s.strategy_odd))
# larger partitions, where many blocks split in one round, and a chain
# whose ids are permuted so that its one-vertex splits run out of order
chain = gen_chain(500, 1, ODD, 0)
n = chain.vertex_count
perm = [7 * v % n for v in range(n)]
priority, owner, succ = [0] * n, [0] * n, [None] * n
for v in range(n):
    priority[perm[v]] = chain.priority[v]
    owner[perm[v]] = chain.owner[v]
    succ[perm[v]] = [perm[w] for w in chain.successors[v]]
for g in [gen_random(2000, 5, 3, seed) for seed in (1, 2, 3)] + [Game(priority, owner, succ)]:
    chunks += [write_partition(refine_strong(g)), write_partition(refine_stuttering(g))]
small = gen_random(12, 3, 3, 9)
chunks.append(str(solve_spm(small).winner))
print("\n".join(chunks))
"""


def run_pipeline(hashseed: str) -> str:
    # the tests' own directory, for ``helpers``
    path = [str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONHASHSEED=hashseed, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", PIPELINE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_pipeline_identical_across_hash_seeds():
    outputs = {run_pipeline(seed) for seed in ("0", "1", "424242")}
    assert len(outputs) == 1
    assert len(outputs.pop()) > 1000
