"""The workloads' games, built from the workload seed.

Only ``random`` draws its game from the seed directly.  The other families
have fixed shapes, so the seed permutes their vertex ids instead: the games
stay isomorphic (same sizes, same quotients, same winners up to renaming)
while the library sees different input.  The SPM games keep fixed generator
seeds for the same reason: across generator seeds SPM's running time on
``gen_random(100, 3, 3, s)`` varies about tenfold, which no bound could
absorb, while a relabelling moves it by about a tenth.

The games are sized so that one pass over a workload takes about a second:
a run then gives dozens of samples per route, and their median is steadier
against the host's changes of speed than a few multi-second samples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from paritygame import EVEN, ODD, Game, gen_chain, gen_random

RANDOM_N = 10_000
CHAIN_N = 800
ALTERNATING_N = 400
LADDER_N = 180
SPM_GAMES = ((100, 3, 3, 0), (60, 3, 7, 0))


@dataclass(frozen=True)
class GameSpec:
    """One game of a workload.  ``build(call, seed)`` makes the game,
    routing every generator call through ``call`` so it can be traced;
    ``blocks`` holds the known quotient sizes per equivalence, if any."""

    name: str
    build: Callable
    algorithm: str
    blocks: dict = field(default_factory=dict)


def permuted(game: Game, rng: random.Random) -> Game:
    """The same game with vertex ids renamed by a random permutation."""
    n = game.vertex_count
    new = list(range(n))
    rng.shuffle(new)
    priority = [0] * n
    owner = [0] * n
    successors: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        priority[new[v]] = game.priority[v]
        owner[new[v]] = game.owner[v]
        successors[new[v]] = sorted(new[w] for w in game.successors[v])
    return Game(priority, owner, successors)


def alternating_chain(n: int) -> Game:
    """``n`` priority-1 vertices of alternating owner feeding a priority-0
    self-looping sink: no edge is inert, so no quotient merges anything."""
    owner = [EVEN if i % 2 == 0 else ODD for i in range(n)] + [EVEN]
    return Game([1] * n + [0], owner, [[i + 1] for i in range(n)] + [[n]])


def priority_ladder(n: int) -> Game:
    """Vertex i has priority i, owner i mod 2 and edges {i, i+1}; the last
    vertex only loops.  Zielonka recurses once per priority: about O(n^3)."""
    successors = [[i, i + 1] for i in range(n - 1)] + [[n - 1]]
    return Game(list(range(n)), [i % 2 for i in range(n)], successors)


def _relabelled(name, algorithm, make, blocks=None) -> GameSpec:
    def build(call, seed):
        return permuted(make(call), random.Random(f"{seed}/{name}"))
    return GameSpec(name, build, algorithm, blocks or {})


def _spm_game(n, d, p, s) -> GameSpec:
    return _relabelled(
        f"spm-{n}-{d}-{p}-s{s}", "spm",
        lambda call: call("generators.gen_random", gen_random, n, d, p, s),
    )


def _workloads() -> dict[str, list[GameSpec]]:
    return {
        "random": [
            GameSpec(
                f"random-{RANDOM_N}",
                lambda call, seed: call("generators.gen_random", gen_random, RANDOM_N, 5, 3, seed),
                "zielonka",
            ),
        ],
        "chains": [
            _relabelled(
                f"even-chain-{CHAIN_N}", "zielonka",
                lambda call: call("generators.gen_chain", gen_chain, CHAIN_N, 1, EVEN, 0),
                {"stuttering": 2, "strong": CHAIN_N + 1},
            ),
            _relabelled(
                f"alternating-chain-{ALTERNATING_N}", "zielonka",
                lambda call: alternating_chain(ALTERNATING_N),
                {"stuttering": ALTERNATING_N + 1, "strong": ALTERNATING_N + 1},
            ),
        ],
        "solver-heavy": [
            _relabelled(f"ladder-{LADDER_N}", "zielonka", lambda call: priority_ladder(LADDER_N)),
            *(_spm_game(*args) for args in SPM_GAMES),
        ],
    }


WORKLOADS = _workloads()

# Set-up repetitions per run; each takes 0.1-0.3 s.  setup_s is their median.
SETUP_REPS = 9

# Back-to-back repetitions per game of the routes that take a few
# milliseconds, so that each of their samples lasts about a tenth of a
# second; a sample is the total time divided by the repetitions.
REPEATS = {
    "chains": {"solve": 10, "minimise": 8},
    "solver-heavy": {"minimise": 20},
}
