"""Measuring direct solving against reduce-then-solve.

One record per (game, method, solver): original and reduced sizes plus
wall-clock reduction and solving times, best of the configured
repetitions.  The winner of every vertex is cross-checked across methods,
so the harness doubles as a soundness test.
"""

from paritygame import ODD, gen_chain, gen_random
from paritygame.bench import records_to_csv, run_benchmark

grid = [(f"chain-{n}", gen_chain(n, 1, ODD, 0)) for n in (100, 1000, 10000)]
grid += [(f"random-{n}", gen_random(n, 3, 3, 7 + n)) for n in (50, 200, 500)]

records = run_benchmark(grid, methods=("direct", "strong+solve", "stuttering+solve"),
                        solvers=("zielonka",), repetitions=3)
print(records_to_csv(records))

# The chain family is where stuttering reduction shines: a constant-size
# quotient regardless of n, while strong bisimilarity cannot merge any
# two chain vertices (they count their distance to the sink).
chain_rows = [r for r in records if r.game_id == "chain-10000"]
for r in chain_rows:
    print(f"# chain-10000 {r.method:>16}: solves {r.red_v:>6} vertices "
          f"in {r.total_us/1000:.1f} ms total")

# Per-game comparison in the style of a size/time scatter: each line is
# one game, reduced size and total time of reduce-then-solve against the
# direct numbers.
print(f"\n# {'game':>12} {'size':>6} {'stut size':>9} {'direct ms':>10} {'stut ms':>9}")
by_game = {}
for r in records:
    by_game.setdefault(r.game_id, {})[r.method] = r
for game_id, methods in by_game.items():
    direct, stut = methods["direct"], methods["stuttering+solve"]
    print(f"# {game_id:>12} {direct.orig_v + direct.orig_e:>6} "
          f"{stut.red_v + stut.red_e:>9} {direct.total_us/1000:>10.3f} "
          f"{stut.total_us/1000:>9.3f}")

# Zielonka walks chains in linear time, so reduction is pure overhead
# there.  Small progress measures alone would lift every chain vertex,
# but `solve` first settles the sink's self-loop and its attractor, here
# the whole chain, so under SPM too the direct route needs no reduction.
spm_records = run_benchmark(
    [("chain-1000", gen_chain(1000, 1, ODD, 0))],
    methods=("direct", "stuttering+solve"),
    solvers=("spm",),
    repetitions=1,
)
print("\n# small progress measures on chain-1000:")
for r in spm_records:
    print(f"# {r.method:>16}: {r.total_us/1000:>9.1f} ms "
          f"(reduce {r.reduce_us/1000:.1f} + solve {r.solve_us/1000:.1f})")
