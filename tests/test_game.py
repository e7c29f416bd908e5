"""Game representation, orderings, plays and priority conversion."""

import pytest

from paritygame import (
    EVEN,
    ODD,
    Game,
    Strategy,
    convert_priorities,
    gen_chain,
    gen_random,
    write_pgsolver,
)

from helpers import (
    assert_same_game,
    cmp_proximity,
    min_vertex,
    play_from,
    play_is_valid,
    solve_zielonka,
)
from lifting_reference import INFINITY, Path, consistent, distance


def test_successor_lists_normalised():
    g = Game(priority=[0], owner=[EVEN], successors=[[0, 0, 0]])
    assert g.successors == ((0,),)
    assert g.predecessors == ((0,),)


def test_constructed_games_build_predecessors_on_first_read():
    # the constructor used to build the table eagerly, also for a game that
    # is only written out
    for seed in range(20):
        g = gen_random(1 + seed % 12, 3, 3, seed)
        assert g._pred is None
        pred = g.predecessors
        assert pred == tuple(
            tuple(v for v in g.vertices() if w in g.successors[v]) for w in g.vertices()
        )
        assert g._pred is pred


@pytest.mark.parametrize(
    "fields, message",
    [
        (([0, 1], [EVEN], [[0], [1]]), "priority, owner and successors must have equal length"),
        (([0, 1], [EVEN, ODD], [[0]]), "priority, owner and successors must have equal length"),
        (([0, 1], [EVEN, ODD], [[0], [1]], ["a"]), "names must have one entry per vertex"),
        (([0, 1, 2], [EVEN, 2, 5], [[0], [1], [2]]), "vertex 1: owner must be 0 (even) or 1 (odd)"),
        (([0, 0], [EVEN, -1], [[0], [1]]), "vertex 1: owner must be 0 (even) or 1 (odd)"),
        (([0, -1, -2], [EVEN, ODD, EVEN], [[0], [1], [2]]), "vertex 1: priority must be a natural number"),
        # the owner check runs before the priority check
        (([-1, 0], [EVEN, 2], [[0], [1]]), "vertex 1: owner must be 0 (even) or 1 (odd)"),
        (([1, 2, -3], [ODD, ODD, ODD], [[0], [1], [2]]), "vertex 2: priority must be a natural number"),
        # True == 1 and 1.0 == 1, so checks by value alone let these through
        (([0, 1], [EVEN, 1.0], [[1], [0]]), "vertex 1: owner must be 0 (even) or 1 (odd)"),
        (([0, True], [0, 1], [[1], [0]]), "vertex 1: priority must be a natural number"),
        (([0, 2.0], [0, 1], [[1], [0]]), "vertex 1: priority must be a natural number"),
        # a bool successor reached the writer as "0 0 0 True;", and a float
        # one raised a bare TypeError while deriving predecessors
        (([0, 0], [0, 0], [[True], [0]]), "vertex 0: successor True is not a vertex id"),
        (([0, 0], [0, 0], [[1.0], [0]]), "vertex 0: successor 1.0 is not a vertex id"),
        # sorting an int against a str raised a bare TypeError
        (([0, 0], [0, 0], [[0, 'a'], [0]]), "vertex 0: successor 'a' is not a vertex id"),
        # a Game is total and its successor ids lie in 0..n-1; solve read -1
        # as the last vertex, and write_pgsolver wrote "1 1 1 ;" for [[1], []]
        (([0, 1], [EVEN, ODD], [[1], []]), "vertex 1 has no successor"),
        (([0, 1], [EVEN, ODD], [[1], [7]]), "dangling successor id 7 at vertex 1"),
        (([0, 1], [EVEN, ODD], [[1], [-1]]), "dangling successor id -1 at vertex 1"),
        (([0, 0, 0], [0, 0, 0], [[1], [0, 5], []]), "dangling successor id 5 at vertex 1"),
        (([0, 0, 0], [0, 0, 0], [[1], [], [3]]), "vertex 1 has no successor"),
        # write_pgsolver raised a bare TypeError on these names
        (([0], [0], [[0]], [5]), "vertex 0: name must be a string, not 5"),
        (([0, 0], [0, 0], [[0], [1]], ["a", b"x"]), "vertex 1: name must be a string, not b'x'"),
        # a falsy name that is not a string used to read as no name
        (([0], [0], [[0]], [0]), "vertex 0: name must be a string, not 0"),
        (([0], [0], [[0]], [b""]), "vertex 0: name must be a string, not b''"),
        (([0], [0], [[0]], [False]), "vertex 0: name must be a string, not False"),
        # an entry that is not iterable raised a bare TypeError
        (([0], [0], [5]), "vertex 0: successors must be an iterable of vertex ids, not 5"),
        (([0, 0], [0, 0], [[1], 7]), "vertex 1: successors must be an iterable of vertex ids, not 7"),
    ],
)
def test_constructor_rejects_bad_fields_naming_the_first_bad_vertex(fields, message):
    with pytest.raises(ValueError) as exc:
        Game(*fields)
    assert str(exc.value) == message


def test_non_int_fields_never_reach_the_writer():
    # write_pgsolver(Game([0.5, True], ...)) used to write "0.5" and "True"
    with pytest.raises(ValueError, match="^vertex 0: priority must be a natural number$"):
        write_pgsolver(Game([0.5, True], [0, 1], [[1], [0]]))
    with pytest.raises(ValueError, match=r"^vertex 0: owner must be 0 \(even\) or 1 \(odd\)$"):
        write_pgsolver(Game([0, 1], [True, 1.0], [[1], [0]]))


def test_priority_flips_equal_freshly_constructed_games():
    games = [gen_random(1 + seed % 15, 3, 1 + seed % 6, seed) for seed in range(20)]
    games.append(Game([0, 3, 2], [EVEN, ODD, ODD], [[1], [1, 0], [0]], names=["x", "", None]))
    for g in games:
        for direction in ("max_to_min", "min_to_max"):
            flipped = convert_priorities(g, direction)
            d = max(g.priority) + max(g.priority) % 2
            assert_same_game(
                flipped, Game([d - p for p in g.priority], g.owner, g.successors, g.names)
            )


def test_distance_examples(g1, g4):
    assert distance(g1, 0, 1) == 1
    assert distance(g1, 0, 0) == 0
    chain = gen_chain(3, 1, ODD, 0)
    assert distance(chain, 0, 3) == 3
    # a's only edge is its self-loop, b is unreachable from it
    assert distance(g4, 1, 2) == INFINITY


def test_distance_triangle_inequality_along_edges():
    for seed in range(20):
        g = gen_random(1 + seed % 12, 3, 3, seed)
        for u in g.vertices():
            for v in g.vertices():
                for w in g.successors[v]:
                    assert distance(g, v, u) <= 1 + distance(g, w, u)


def test_cmp_proximity_target_is_minimal():
    g = gen_random(9, 3, 3, 3)
    for u in g.vertices():
        for v in g.vertices():
            if v != u:
                assert cmp_proximity(g, u, u, v) == -1


def test_cmp_proximity_chain_distances():
    chain = gen_chain(3, 1, ODD, 0)
    # c2 (distance 2 to the sink) precedes c1 (distance 3)
    assert cmp_proximity(chain, 3, 1, 0) == -1
    assert cmp_proximity(chain, 3, 0, 1) == 1


def test_cmp_proximity_ties_break_by_index(g1):
    g = Game(priority=[0, 0, 0], owner=[EVEN] * 3, successors=[[2], [2], [2]])
    assert cmp_proximity(g, 2, 0, 1) == -1
    with pytest.raises(ValueError):
        cmp_proximity(g, 2, 1, 1)


def test_cmp_proximity_is_strict_total_order():
    for seed in range(10):
        g = gen_random(7, 3, 2, seed)
        for u in g.vertices():
            for a in g.vertices():
                for b in g.vertices():
                    if a == b:
                        continue
                    assert cmp_proximity(g, u, a, b) == -cmp_proximity(g, u, b, a)
            order = sorted(
                g.vertices(),
                key=lambda a: (distance(g, a, u), a),
            )
            for i in range(len(order) - 1):
                assert cmp_proximity(g, u, order[i], order[i + 1]) == -1


def test_min_vertex():
    assert min_vertex({3, 1, 2}) == 1
    assert min_vertex({0}) == 0
    with pytest.raises(ValueError):
        min_vertex(set())


def test_consistent_examples(g1, g4):
    phi = Strategy(EVEN, {0: 1})
    assert consistent(g1, Path((0, 1, 0)), phi)
    assert not consistent(g4, Path((0, 2)), Strategy(EVEN, {0: 1}))
    assert consistent(g4, Path((2,)), Strategy(EVEN, {0: 1}))


def test_consistent_ignores_vertices_outside_domain(g4):
    # v0 unconstrained when the strategy says nothing about it
    assert consistent(g4, Path((0, 2, 2)), Strategy(EVEN, {1: 1}))


def test_play_from_forced_cycle(g1):
    play, winner = play_from(g1, Strategy(EVEN, {0: 1}), Strategy(ODD, {1: 0}), 0)
    assert play.prefix == ()
    assert play.cycle == (0, 1)
    assert winner == EVEN


def test_play_from_choice(g4):
    odd = Strategy(ODD, {2: 2})
    play, winner = play_from(g4, Strategy(EVEN, {0: 1, 1: 1}), odd, 0)
    assert (play.prefix, play.cycle, winner) == ((0,), (1,), EVEN)
    play, winner = play_from(g4, Strategy(EVEN, {0: 2, 1: 1}), odd, 0)
    assert (play.prefix, play.cycle, winner) == ((0,), (2,), ODD)


def test_play_from_missing_move(g4):
    with pytest.raises(ValueError):
        play_from(g4, Strategy(EVEN, {0: 2}), Strategy(ODD, {}), 0)


def test_play_from_lengths_bounded():
    for seed in range(20):
        g = gen_random(1 + seed % 10, 3, 3, seed)
        se = Strategy(EVEN, {v: g.successors[v][0] for v in g.vertices() if g.owner[v] == EVEN})
        so = Strategy(ODD, {v: g.successors[v][-1] for v in g.vertices() if g.owner[v] == ODD})
        for v in g.vertices():
            play, _ = play_from(g, se, so, v)
            assert len(play.prefix) <= g.vertex_count
            assert 1 <= len(play.cycle) <= g.vertex_count
            assert play_is_valid(play, g)


def test_convert_priorities_reflects_at_even_bound(g1):
    converted = convert_priorities(g1, "min_to_max")
    assert converted.priority == (2, 1)


def test_convert_priorities_all_equal_stay_equal():
    g = Game(priority=[3, 3], owner=[EVEN, ODD], successors=[[1], [0]])
    converted = convert_priorities(g, "min_to_max")
    assert len(set(converted.priority)) == 1


def test_convert_priorities_rejects_an_unknown_direction(g1):
    with pytest.raises(ValueError, match="^unknown direction 'sideways'$"):
        convert_priorities(g1, "sideways")


def test_convert_priorities_involution():
    # the reflection is an involution whenever priority 0 or 1 is present
    for seed in range(30):
        g = gen_random(1 + seed % 10, 3, 3, seed)
        if min(g.priority) > 1:
            continue
        twice = convert_priorities(convert_priorities(g, "min_to_max"), "max_to_min")
        assert twice.priority == g.priority


def test_convert_priorities_preserves_winner(g1):
    # the reflected game carries the same winners under the opposite
    # reading; with min-parity solvers that is testable as a double
    # conversion (the induced priority shift is always even)
    for seed in range(30):
        g = gen_random(1 + seed % 12, 3, 3, seed)
        round_tripped = convert_priorities(
            convert_priorities(g, "min_to_max"), "max_to_min"
        )
        assert solve_zielonka(g).winner == solve_zielonka(round_tripped).winner
    g1_twice = convert_priorities(convert_priorities(g1, "min_to_max"), "max_to_min")
    assert solve_zielonka(g1).winner == solve_zielonka(g1_twice).winner


def test_path_validity(g1):
    assert Path((0, 1, 0)).is_valid(g1)
    assert not Path((0, 0)).is_valid(g1)
    with pytest.raises(ValueError):
        Path(())
