"""Strategy iteration: switching rules, traces, termination bounds."""

import random
from fractions import Fraction

import pytest

from helpers import game_stream
from ssg import evaluation, iteration
from ssg.errors import InternalInvariantError, NotStoppingError
from ssg.evaluation import best_response_max, best_response_min, switchable
from ssg.generate import Family
from ssg.iteration import HKTrace, all_open_strategy, hoffman_karp
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


def test_switchable_serves_min_strategies():
    g = choice_game()
    sigma = Strategy(Player.MAX, {0: 3, 2: 5})
    tau = Strategy(Player.MIN, {1: 2})
    values = evaluation.evaluate(g, sigma, tau)
    assert values[2] == 1 and values[4] == Fraction(1, 4)
    assert switchable(g, tau, values) == ((1, 4),)
    tau = Strategy(Player.MIN, {1: 4})
    assert switchable(g, tau, evaluation.evaluate(g, sigma, tau)) == ()


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


# --- the improvement loop's guards --------------------------------------------


def one_choice_game():
    # from LOW, MAX must switch to the sink worth 1
    return game_of([("max", 1, 2), ("sink", 0), ("sink", 1)])


LOW = Strategy(Player.MAX, {0: 1})


def replay_first(monkeypatch, module, name, change=lambda values: values):
    """Rebind module.name to answer every call with its first answer, changed."""
    original = getattr(module, name)
    first = []

    def frozen(*args):
        if not first:
            first.append(original(*args))
            return first[0]
        return change(first[0])

    monkeypatch.setattr(module, name, frozen)


def test_a_round_that_loses_monotonicity_is_an_invariant_error(monkeypatch):
    replay_first(monkeypatch, evaluation, "evaluate", lambda values: (0,) * len(values))
    with pytest.raises(InternalInvariantError, match="lost monotonicity at vertex 2"):
        best_response_max(one_choice_game(), Strategy(Player.MIN, {}))


def test_a_switch_without_strict_gain_is_an_invariant_error(monkeypatch):
    g = game_of([("min", 1, 2), ("sink", 1), ("sink", Fraction(1, 2))])
    replay_first(monkeypatch, evaluation, "evaluate")
    with pytest.raises(InternalInvariantError, match="vertex 0 did not strictly improve"):
        best_response_min(g, Strategy(Player.MAX, {}))


def test_hoffman_karp_guards_its_rounds_too(monkeypatch):
    g = one_choice_game()
    replay_first(
        monkeypatch,
        iteration,
        "best_response_min",
        lambda reply: reply._replace(values=(0,) * len(reply.values)),
    )
    with pytest.raises(InternalInvariantError, match="lost monotonicity"):
        hoffman_karp(g, LOW)
    monkeypatch.undo()
    replay_first(monkeypatch, iteration, "best_response_min")
    with pytest.raises(InternalInvariantError, match="did not strictly improve"):
        hoffman_karp(g, LOW)


def test_hoffman_karp_past_the_strategy_count_is_an_invariant_error(monkeypatch):
    g = one_choice_game()
    assert hoffman_karp(g, LOW).iterations == 1
    monkeypatch.setattr(iteration, "strategy_count", lambda game, player: 0)
    with pytest.raises(InternalInvariantError, match="ran longer than the strategy space"):
        hoffman_karp(g, LOW)
