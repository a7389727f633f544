"""Exhaustive minimax reference solver."""

from fractions import Fraction

import pytest

from helpers import game_stream
from ssg.errors import PreconditionError
from ssg.model import Player, game_of
from ssg.oracle import enumerate_strategies, oracle_solve, strategy_count


def test_oracle_on_simple_choice():
    g = game_of([
        ("max", 1, 3),
        ("min", 2, 4),
        ("max", 0, 5),
        ("sink", Fraction(1, 2)),
        ("sink", Fraction(1, 4)),
        ("sink", 1),
    ])
    result = oracle_solve(g)
    assert result.values[0] == Fraction(1, 2)
    assert result.values[1] == Fraction(1, 4)
    assert result.values[2] == 1


def test_oracle_on_non_stopping_trap():
    g = game_of([("max", 2, 1), ("min", 3, 0), ("sink", 1), ("sink", 0)])
    result = oracle_solve(g)
    assert result.values[0] == 1
    assert result.values[1] == 0


def test_witness_pair_achieves_the_values():
    from ssg.evaluation import evaluate

    for g in game_stream(30, seed=17):
        result = oracle_solve(g)
        pair = result.witness_pair
        sigma, tau = pair.sigma, pair.tau
        assert evaluate(g, sigma, tau) == result.values


def test_strategy_count():
    g = game_of([
        ("max", 1, 2, 3),
        ("min", 0, 2),
        ("ave", 1, 3),
        ("sink", 0),
    ])
    assert strategy_count(g, Player.MAX) == 3
    assert strategy_count(g, Player.MIN) == 2


def test_enumerate_strategies_is_sorted_and_complete():
    g = game_of([
        ("max", 1, 2),
        ("max", 0, 2),
        ("sink", 1),
    ])
    seen = [tuple(s[v] for v in s.support) for s in enumerate_strategies(g, Player.MAX)]
    assert seen == [(1, 0), (1, 2), (2, 0), (2, 2)]
    assert len(seen) == strategy_count(g, Player.MAX)


def test_oracle_refuses_oversized_games():
    rows = [("max", i + 1, i + 2) for i in range(40)]
    rows += [("sink", 0), ("sink", 1)]
    g = game_of(rows)
    assert strategy_count(g, Player.MAX) == 2**40
    with pytest.raises(PreconditionError):
        oracle_solve(g)


def test_oracle_cap_is_adjustable():
    g = game_of([("max", 1, 2), ("sink", 0), ("sink", 1)])
    with pytest.raises(PreconditionError):
        oracle_solve(g, cap=1)
    assert oracle_solve(g, cap=2).values[0] == 1
