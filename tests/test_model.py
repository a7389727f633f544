"""Game structure, validation, and the small graph surgeries."""

import re
from fractions import Fraction

import pytest

from helpers import game_stream
from ssg.errors import InvalidGameError, InvalidStrategyError
from ssg.model import (
    Game,
    Player,
    Strategy,
    VertexKind,
    argbest,
    as_fraction,
    check_strategy,
    game_of,
    merge_sink_neighbors,
    validate,
    vertex_to_sink,
)
from ssg.oracle import oracle_solve


def test_game_of_builds_and_counts():
    g = game_of([
        ("max", 1, 2),
        ("min", 0, 3),
        ("ave", 1, 3),
        ("sink", Fraction(1, 2)),
    ])
    assert g.n == 4
    assert (g.n_max, g.n_min, g.n_ave) == (1, 1, 1)
    assert g.kinds[3] is VertexKind.SINK
    assert g.succs[3] == (3,)
    assert g.sink_value(3) == Fraction(1, 2)
    assert g.max_vertices == (0,)


def test_validate_rejects_wrong_ave_arity():
    with pytest.raises(InvalidGameError):
        game_of([("ave", 1, 1, 1), ("sink", 0)])


def test_validate_rejects_dangling_successor():
    with pytest.raises(InvalidGameError):
        game_of([("max", 7), ("sink", 0)])


def test_validate_rejects_empty_positional():
    with pytest.raises(InvalidGameError):
        game_of([("min",), ("sink", 0)])


def test_validate_rejects_sink_value_out_of_range():
    with pytest.raises(InvalidGameError):
        game_of([("sink", Fraction(3, 2))])
    with pytest.raises(InvalidGameError):
        game_of([("sink", -1)])


def test_validate_rejects_broken_sink_self_loop():
    g = game_of([("max", 1), ("sink", 1)])
    bad = Game(g.kinds, ((1,), (0,)), g.sink_values)
    with pytest.raises(InvalidGameError):
        validate(bad)


@pytest.mark.parametrize("rows, message", [
    ([(), ("sink", 1)], "vertex 0: empty row"),
    ([("avg", 1, 1), ("sink", 1)], "vertex 0: unknown kind 'avg'"),
    ([("max", 1), ("sink",)], "vertex 1: sink rows are ('sink', value)"),
    ([("max", 1), ("sink", 1, 1)], "vertex 1: sink rows are ('sink', value)"),
], ids=["empty", "unknown_kind", "sink_without_value", "sink_with_arcs"])
def test_game_of_rejects_malformed_rows(rows, message):
    with pytest.raises(InvalidGameError, match=re.escape(message)):
        game_of(rows)


SINK, MAX = VertexKind.SINK, VertexKind.MAX


@pytest.mark.parametrize("game, message", [
    (Game((MAX, SINK), ((1,), (1,)), (None,)), "must have equal length"),
    (Game((MAX, SINK), ((1,), (1,)), (None, None)), "sink 1 has no value"),
    (Game((MAX, SINK), ((1,), (1,)), (Fraction(1), Fraction(1))), "non-sink 0 carries"),
], ids=["unequal_fields", "sink_without_value", "non_sink_with_value"])
def test_validate_rejects_inconsistent_fields(game, message):
    with pytest.raises(InvalidGameError, match=message):
        validate(game)


def test_as_fraction_rejects_floats():
    assert as_fraction("2/6") == Fraction(1, 3)
    assert as_fraction(1) == 1
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_player_kind_mapping():
    assert Player.MAX.kind is VertexKind.MAX
    assert Player.MIN.kind is VertexKind.MIN


def test_strategy_access_and_update():
    s = Strategy(Player.MAX, {3: 1, 0: 2})
    assert s.support == (0, 3)
    assert s[3] == 1
    s2 = s.updated({3: 4})
    assert s2[3] == 4 and s[3] == 1


def test_check_strategy_rejects_foreign_vertex_and_arc():
    g = game_of([("max", 1, 2), ("min", 0), ("sink", 1)])
    check_strategy(g, Strategy(Player.MAX, {0: 2}))
    with pytest.raises(InvalidStrategyError):
        check_strategy(g, Strategy(Player.MAX, {1: 0}))
    with pytest.raises(InvalidStrategyError):
        check_strategy(g, Strategy(Player.MAX, {0: 0}))


def test_vertex_to_sink_keeps_ids():
    g = game_of([("max", 1, 2), ("min", 0, 2), ("sink", 1)])
    sub = vertex_to_sink(g, 1, Fraction(1, 3))
    assert sub.n == g.n
    assert sub.is_sink(1) and sub.sink_value(1) == Fraction(1, 3)
    assert sub.succs[1] == (1,)
    assert sub.succs[0] == g.succs[0]


@pytest.mark.parametrize("vertex", [-1, -3, 3, 9])
def test_vertex_to_sink_rejects_ids_outside_the_game(vertex):
    # a negative id would otherwise index from the end and leave a sink
    # whose self-loop points at a vertex that does not exist
    g = game_of([("max", 1, 2), ("min", 0, 2), ("sink", 1)])
    with pytest.raises(InvalidGameError, match="out of range"):
        vertex_to_sink(g, vertex, Fraction(1, 3))


@pytest.mark.parametrize("value", [Fraction(3, 2), -1])
def test_vertex_to_sink_rejects_values_outside_the_unit_interval(value):
    g = game_of([("max", 1, 2), ("min", 0, 2), ("sink", 1)])
    with pytest.raises(InvalidGameError, match=r"outside \[0, 1\]"):
        vertex_to_sink(g, 1, value)


def test_sink_value_refuses_a_non_sink():
    g = game_of([("max", 1), ("sink", 1)])
    with pytest.raises(InvalidGameError, match="vertex 0 is not a sink"):
        g.sink_value(0)


def test_merge_sink_neighbors_keeps_best_sink_for_each_owner():
    g = game_of([
        ("max", 2, 3, 1),
        ("min", 2, 3, 0),
        ("sink", Fraction(1, 4)),
        ("sink", Fraction(3, 4)),
    ])
    m = merge_sink_neighbors(g)
    assert m.succs[0] == (3, 1)
    assert m.succs[1] == (2, 0)


def test_merge_sink_neighbors_preserves_values():
    for g in game_stream(40, seed=11):
        merged = merge_sink_neighbors(g)
        assert oracle_solve(merged).values == oracle_solve(g).values


def test_argbest_breaks_ties_to_the_smallest_id():
    value = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
    assert argbest(VertexKind.MAX, (2, 0, 2, 1), value) == 0
    assert argbest(VertexKind.MIN, (3, 3, 1, 0), value) == 1
    # duplicate arcs to the single best successor
    assert argbest(VertexKind.MAX, (1, 2, 2), value) == 2
    assert argbest(VertexKind.MIN, (3, 2, 3), value) == 3
