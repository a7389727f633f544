"""Strategy iteration: switching rules, traces, termination bounds."""

import random
from fractions import Fraction

import pytest

from helpers import game_stream
from ssg.errors import NotStoppingError
from ssg.evaluation import best_response_min
from ssg.generate import Family
from ssg.iteration import HKTrace, all_open_strategy, hoffman_karp, switchable
from ssg.model import Player, Strategy, game_of, merge_sink_neighbors
from ssg.oracle import oracle_solve


def choice_game():
    # positional cycle 0 -> 1 -> 2 -> 0, so not stopping
    return game_of([
        ("max", 1, 3),
        ("min", 2, 4),
        ("max", 0, 5),
        ("sink", Fraction(1, 2)),
        ("sink", Fraction(1, 4)),
        ("sink", 1),
    ])


def stopping_choice_game():
    return game_of([
        ("max", 1, 3),
        ("min", 2, 4),
        ("ave", 0, 5),
        ("sink", Fraction(1, 2)),
        ("sink", Fraction(1, 4)),
        ("sink", 1),
    ])


def test_all_open_strategy_heads_for_best_sink():
    g = choice_game()
    sigma = all_open_strategy(g)
    assert sigma[0] == 3
    assert sigma[2] == 5


def test_switchable_reports_best_successor():
    g = choice_game()
    sigma = Strategy(Player.MAX, {0: 3, 2: 0})
    _, values = best_response_min(g, sigma)
    found = switchable(g, sigma, values)
    assert found == ((2, 5),)


def test_hoffman_karp_solves_simple_choice():
    trace = hoffman_karp(stopping_choice_game())
    assert trace.values[0] == Fraction(1, 2)
    assert trace.values[1] == Fraction(1, 4)
    assert trace.values[2] == Fraction(3, 4)
    pair = trace.pair
    assert pair.sigma.owner is Player.MAX and pair.tau.owner is Player.MIN


def test_hoffman_karp_solves_positional_cycle_without_the_gate():
    g = choice_game()
    with pytest.raises(NotStoppingError):
        hoffman_karp(g)
    trace = hoffman_karp(g, require_stopping=False)
    assert trace.values[0] == Fraction(1, 2)
    assert trace.values[1] == Fraction(1, 4)
    assert trace.values[2] == 1


def test_hoffman_karp_matches_oracle_on_stopping_games():
    for g in game_stream(40, seed=29, stopping=True):
        assert hoffman_karp(g).values == oracle_solve(g).values


def test_trace_values_increase_monotonically():
    for g in game_stream(15, seed=31, stopping=True):
        trace = hoffman_karp(g)
        assert trace.iterations == len(trace.strategies) - 1
        previous = None
        for sigma in trace.strategies:
            _, values = best_response_min(g, sigma)
            if previous is not None:
                assert all(values[v] >= previous[v] for v in range(g.n))
                assert any(values[v] > previous[v] for v in range(g.n))
            previous = values
        assert previous == trace.values


def test_non_stopping_game_is_refused_by_default():
    trap = game_of([("max", 2, 1), ("min", 3, 0), ("sink", 1), ("sink", 0)])
    with pytest.raises(NotStoppingError):
        hoffman_karp(trap)
    trace = hoffman_karp(trap, require_stopping=False)
    assert trace.values[0] == 1 and trace.values[1] == 0


def test_iteration_bound_when_max_cannot_cycle():
    count = 0
    for g in game_stream(30, family=Family.MAX_ACYCLIC, min_n=6, max_n=14, seed=37):
        merged = merge_sink_neighbors(g)
        n_max = len(merged.max_vertices)
        trace = hoffman_karp(merged, require_stopping=False)
        assert trace.iterations <= n_max
        rng = random.Random(1000 + count)
        sigma0 = Strategy(
            Player.MAX, {v: rng.choice(merged.succs[v]) for v in merged.max_vertices}
        )
        trace2 = hoffman_karp(merged, sigma0, require_stopping=False)
        assert trace2.iterations <= 2 * n_max
        assert trace2.values == trace.values
        count += 1
    assert count == 30
