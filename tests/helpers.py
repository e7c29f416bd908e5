"""Helpers shared between the test modules: game families, lifting
records, plays, and reference definitions that only the tests use."""

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from hypothesis import strategies as st

from paritygame import (
    EVEN,
    ODD,
    Game,
    Partition,
    Solution,
    Strategy,
    quotient,
    refine_stuttering,
)
from paritygame.generators import Xoshiro256StarStar
from paritygame.solvers import _solution, _zielonka

from lifting_reference import Lifting, Path, distance, mimick_next


# arguments of Partition that would not describe GAME_OF_THREE, with the
# error its constructor raises: one flag for two blocks, a block no
# vertex maps to
GAME_OF_THREE = Game([0, 0, 1], [EVEN] * 3, [[1], [0], [2]])
MALFORMED_PARTITIONS = [
    (([0, 0, 1], [True]), r"vertex 2: block 1 is not an int in range\(1\)"),
    (([0, 0, 2], [True] * 3), "partition block 1 has no vertex"),
]
MALFORMED_IDS = ["flag-count", "empty-block"]


def assert_same_game(a: Game, b: Game):
    """``a`` and ``b`` are equal, hash alike and derive the same
    predecessor lists (which ``==`` does not compare)."""
    assert a == b
    assert hash(a) == hash(b)
    assert a.predecessors == b.predecessors


def solve_zielonka(game: Game) -> Solution:
    """Attractor-based solver (min-parity) on the whole game: the
    subgame-local, stack-based Zielonka core run on every vertex."""
    n = game.vertex_count
    vertices = sorted(range(n), key=game.priority.__getitem__)
    regions, moves = _zielonka(game, vertices, [True] * n)
    return _solution(game, regions[EVEN], moves)


@dataclass(frozen=True)
class Play:
    """Eventually-periodic infinite path: finite prefix followed by a
    repeated non-empty cycle.  The prefix may be empty when the play cycles
    from its very first vertex."""

    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("a play needs a non-empty cycle")


def play_from(
    game: Game, strategy_even: Strategy, strategy_odd: Strategy, v: int
) -> tuple[Play, int]:
    """Unfold the unique play from ``v`` under two memoryless strategies.

    Both strategies together must cover every reached vertex.  Returns the
    eventually-periodic play and the winner: the parity of the minimum
    priority on the cycle.
    """
    moves = {EVEN: strategy_even.moves, ODD: strategy_odd.moves}
    seq: list[int] = []
    position: dict[int, int] = {}
    cur = v
    while cur not in position:
        position[cur] = len(seq)
        seq.append(cur)
        table = moves[game.owner[cur]]
        if cur not in table:
            raise ValueError(f"no strategy move defined at reached vertex {cur}")
        nxt = table[cur]
        if not game.has_edge(cur, nxt):
            raise ValueError(f"strategy move {cur}->{nxt} is not a game edge")
        cur = nxt
    k = position[cur]
    play = Play(prefix=tuple(seq[:k]), cycle=tuple(seq[k:]))
    winner = min(game.priority[w] for w in play.cycle) % 2
    return play, winner


def play_is_valid(play: Play, game: Game) -> bool:
    """Every step of ``play``, the cycle's closing step included, is an
    edge of ``game``."""
    seq = play.prefix + play.cycle
    ok = all(game.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1))
    return ok and game.has_edge(play.cycle[-1], play.cycle[0])


def strategy_is_valid(strategy: Strategy, game: Game) -> bool:
    """Every move of ``strategy`` is an edge of ``game`` from a vertex its
    player owns."""
    return all(
        game.owner[v] == strategy.player and game.has_edge(v, w)
        for v, w in strategy.moves.items()
    )


@st.composite
def small_games(draw, max_vertices: int, max_priority: int, max_successors: int) -> Game:
    """Hypothesis strategy: games of 1..``max_vertices`` vertices with
    priorities 0..``max_priority``, both owners, and 1..``max_successors``
    successors per vertex."""
    n = draw(st.integers(1, max_vertices))
    priority = draw(st.lists(st.integers(0, max_priority), min_size=n, max_size=n))
    owner = draw(st.lists(st.sampled_from([EVEN, ODD]), min_size=n, max_size=n))
    successors = [
        draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=max_successors))
        for _ in range(n)
    ]
    return Game(priority, owner, successors)


def gen_branch() -> Game:
    """Three equal-priority even vertices reaching a self-looping odd sink
    through different branch points; merged by both equivalences."""
    return Game(
        priority=[0, 0, 0, 1],
        owner=[EVEN, EVEN, EVEN, ODD],
        successors=[[1], [3], [3], [3]],
    )


def gen_divergent_pair() -> Game:
    """Two odd-priority vertices forming a cycle with an escape edge to a
    self-looping even sink; both blocks of the stuttering partition are
    divergent."""
    return Game(
        priority=[1, 1, 0],
        owner=[ODD, ODD, EVEN],
        successors=[[1], [0, 2], [2]],
    )


def alternating_chain(n: int) -> Game:
    """``n`` priority-1 vertices of alternating owner into a priority-0
    sink: no edge is inert, so stuttering splits one vertex per round."""
    owner = [EVEN if i % 2 == 0 else ODD for i in range(n)] + [EVEN]
    return Game([1] * n + [0], owner, [[i + 1] for i in range(n)] + [[n]])


def comb(spine: int, every: int, depth: int, tooth_priority: int, stretch: int = 1) -> Game:
    """A chain of ``spine`` priority-1 vertices into a priority-0
    self-looping sink (vertex 0), with a tooth hanging off every
    ``every``-th spine vertex from the sink's neighbour on: a complete
    binary in-tree of ``depth`` levels below its root, all of priority
    ``tooth_priority``, whose root moves to that spine vertex.  A vertex's
    owner flips every ``stretch`` steps of distance to the sink, so with
    ``stretch`` 1 no edge is inert.

    Both refinements split such a game in a cascade out from the sink: a
    stretch of spine one vertex at a time, then, where a tooth hangs, the
    spine vertex and the tooth's root in one round."""
    priority, distance, successors = [0], [0], [[0]]
    for i in range(spine):
        priority.append(1)
        distance.append(i + 1)
        successors.append([i])
    for s in range(1, spine + 1, every):
        level = [s]
        for d in range(depth + 1):
            below = []
            for p in level:
                for _ in range(1 if d == 0 else 2):
                    below.append(len(priority))
                    priority.append(tooth_priority)
                    distance.append(distance[p] + 1)
                    successors.append([p])
            level = below
    return Game(priority, [x // stretch % 2 for x in distance], successors)


def stretch(game: Game, k: int) -> Game:
    """``game`` with every edge ``v -> w`` subdivided into a path through
    ``k`` fresh vertices that carry ``v``'s priority and owner.  The base
    vertices keep their ids, the fresh ones follow in edge order, and the
    set of priorities a play sees infinitely often stays the same."""
    priority, owner = list(game.priority), list(game.owner)
    successors: list[list[int]] = [[] for _ in priority]
    for v, ws in enumerate(game.successors):
        for w in ws:
            u = v
            for _ in range(k):
                successors[u].append(len(priority))
                u = len(priority)
                successors.append([])
                priority.append(game.priority[v])
                owner.append(game.owner[v])
            successors[u].append(w)
    return Game(priority, owner, successors)


def priority_ladder(n: int) -> Game:
    """Vertex i has priority i, owner i mod 2 and edges {i, i+1}; the last
    vertex only loops."""
    successors = [[i, i + 1] for i in range(n - 1)] + [[n - 1]]
    return Game(list(range(n)), [i % 2 for i in range(n)], successors)


def random_lts(states: int, seed: int) -> list[list[tuple[int, int]]]:
    """Seeded labelled transition system: each state draws ``1 +
    below(3)`` distinct (label ``below(3)``, target ``below(states)``)
    pairs, rejection-sampled until distinct, states in order."""
    rng = Xoshiro256StarStar(seed)
    lts = []
    for _ in range(states):
        k = 1 + rng.below(3)
        moves: list[tuple[int, int]] = []
        while len(moves) < k:
            move = (rng.below(3), rng.below(states))
            if move not in moves:
                moves.append(move)
        lts.append(moves)
    return lts


def nested_game(states: int, seed: int = 1) -> Game:
    """Product of ``random_lts(states, seed)`` with the formula
    ``νX.μY.((⟨a⟩X ∧ [b]Y) ∨ ⟨b,c⟩Y)``, labels a, b, c = 0, 1, 2.

    Vertex (s, j) is ``7s + j`` for the subformulas in preorder: j = 0
    νX (priority 0), 1 μY (priority 1), then the ∨, the ∧, ⟨a⟩X, [b]Y
    and ⟨b,c⟩Y, which take μY's priority 1.  Fixpoints, ∨ and ⟨L⟩ are
    EVEN's, ∧ and [L] ODD's.  A modality steps to the L-successors' νX or
    μY vertex; an empty ⟨L⟩ goes to the false sink (priority 1), an empty
    [L] to the true sink (priority 0), the last two vertices, both EVEN's
    and each with a self-loop.
    """
    true, false = 7 * states, 7 * states + 1
    priority = [0, 1, 1, 1, 1, 1, 1] * states + [0, 1]
    owner = [EVEN, EVEN, EVEN, ODD, EVEN, ODD, EVEN] * states + [EVEN, EVEN]
    successors: list[list[int]] = []
    for s, moves in enumerate(random_lts(states, seed)):
        v = 7 * s
        a = [7 * t for label, t in moves if label == 0] or [false]
        b = [7 * t + 1 for label, t in moves if label == 1] or [true]
        bc = [7 * t + 1 for label, t in moves if label != 0] or [false]
        successors += [[v + 1], [v + 2], [v + 3, v + 6], [v + 4, v + 5], a, b, bc]
    return Game(priority, owner, successors + [[true], [false]])


def relabelled(game: Game, seed: int) -> Game:
    """The same game with vertex ids renamed by the permutation ``seed``
    draws, as the benchmark's ``chains`` workload renames its chains: a
    chain's one-vertex splits then run in no particular id order."""
    n = game.vertex_count
    new = list(range(n))
    random.Random(seed).shuffle(new)
    priority, owner = [0] * n, [0] * n
    successors: list[list[int]] = [[] for _ in range(n)]
    for v in range(n):
        priority[new[v]] = game.priority[v]
        owner[new[v]] = game.owner[v]
        successors[new[v]] = [new[w] for w in game.successors[v]]
    return Game(priority, owner, successors)


def make_context(game: Game, player: int) -> Lifting:
    part = refine_stuttering(game)
    reduced, vmap = quotient(game, part)
    return Lifting(game, part, reduced, vmap, solve_zielonka(reduced), player)


def random_consistent_walk(game, ctx, rng, start, max_len=10):
    """A play inside the winning blocks whose block projection follows the
    quotient strategy; at owned vertices it may also stay inert."""
    walk = [start]
    for _ in range(max_len):
        v = walk[-1]
        if game.owner[v] == ctx.player:
            c = ctx.vmap[v]
            tgt = ctx.quotient_strategy.moves[c]
            allowed = [
                w
                for w in game.successors[v]
                if ctx.vmap[w] == c or ctx.vmap[w] == tgt
            ]
        else:
            allowed = [w for w in game.successors[v] if ctx.wins(ctx.vmap[w])]
        if not allowed:
            break
        walk.append(allowed[rng.below(len(allowed))])
    return walk


def cmp_proximity(game: Game, u: int, a: int, b: int) -> int:
    """Compare two distinct vertices by proximity to ``u``.

    Returns -1 when ``a`` precedes ``b`` (strictly closer to ``u``, or at
    equal distance with smaller index) and +1 otherwise.  The relation is a
    strict total order on distinct vertices; ``a == b`` is rejected.
    """
    if a == b:
        raise ValueError("cmp_proximity is only defined on distinct vertices")
    da, db = distance(game, a, u), distance(game, b, u)
    if da != db:
        return -1 if da < db else 1
    return -1 if a < b else 1


def min_vertex(vertices: Iterable[int]) -> int:
    """Least vertex of a non-empty set under the fixed vertex order."""
    vs = list(vertices)
    if not vs:
        raise ValueError("min_vertex of an empty set")
    return min(vs)


@dataclass
class PathStrategyOracle:
    """Path-dependent strategy interface over the lifting construction:
    feed it any play ending at an owned vertex, get the next vertex."""

    context: Lifting

    def next_move(self, p: Path | Sequence[int]) -> int:
        return mimick_next(self.context, p)

    def __call__(self, p: Path | Sequence[int]) -> int:
        return self.next_move(p)
