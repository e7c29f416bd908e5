"""Measuring direct solving against reduce-then-solve, end to end.

One record per (game, method, solver): original and solved sizes plus the
wall-clock time of every stage of the route (refine, quotient, solve,
lift, verify), from the repetition with the least total.  The winner of
every vertex is cross-checked across methods and both strategies are
verified on the game, so the harness doubles as a soundness test.
"""

from paritygame import ODD, gen_chain, gen_random
from paritygame.bench import STAGES, records_to_csv, run_benchmark

grid = [(f"chain-{n}", gen_chain(n, 1, ODD, 0)) for n in (100, 1000, 10000)]
grid += [(f"random-{n}", gen_random(n, 3, 3, 7 + n)) for n in (50, 200, 500)]

records = run_benchmark(grid, methods=("direct", "strong", "stuttering"),
                        solvers=("zielonka",), repetitions=3)
print(records_to_csv(records))

# The chain family is where stuttering reduction shines: a constant-size
# quotient regardless of n, while strong bisimilarity cannot merge any
# two chain vertices (they count their distance to the sink).
chain_rows = [r for r in records if r.game_id == "chain-10000"]
for r in chain_rows:
    print(f"# chain-10000 {r.method:>10}: solves {r.red_v:>6} vertices "
          f"in {r.total_us/1000:.1f} ms total")

# Per-game comparison in the style of a size/time scatter: each line is
# one game, reduced size and total time of reduce-then-solve against the
# direct numbers.
print(f"\n# {'game':>12} {'size':>6} {'stut size':>9} {'direct ms':>10} {'stut ms':>9}")
by_game = {}
for r in records:
    by_game.setdefault(r.game_id, {})[r.method] = r
for game_id, methods in by_game.items():
    direct, stut = methods["direct"], methods["stuttering"]
    print(f"# {game_id:>12} {direct.orig_v + direct.orig_e:>6} "
          f"{stut.red_v + stut.red_e:>9} {direct.total_us/1000:>10.3f} "
          f"{stut.total_us/1000:>9.3f}")

# Zielonka walks chains in linear time, so reduction is pure overhead
# there.  Small progress measures alone would lift every chain vertex,
# but `solve` first settles the sink's self-loop and its attractor, here
# the whole chain, so under SPM too the direct route needs no reduction.
spm_records = run_benchmark(
    [("chain-1000", gen_chain(1000, 1, ODD, 0))],
    methods=("direct", "stuttering"),
    solvers=("spm",),
    repetitions=1,
)
print("\n# small progress measures on chain-1000, ms per stage:")
for r in spm_records:
    stages = " + ".join(f"{stage} {r.stage_us[stage]/1000:.1f}" for stage in STAGES)
    print(f"# {r.method:>10}: {r.total_us/1000:>7.1f} = {stages}")
