"""Exact play evaluation under fixed strategy pairs, and local optimality."""

from fractions import Fraction

import pytest

from helpers import all_pairs, dense_evaluate, game_stream, random_pair
import random

from ssg import evaluation
from ssg.dichotomy import make_stopping, value_denominator_bound
from ssg.errors import PreconditionError
from ssg.evaluation import (
    attractor,
    best_response_max,
    best_response_min,
    check_local_optimality,
    check_stopping,
    evaluate,
    greedy_strategies,
    one_step_value,
    solve_linear_system,
    zero_set,
)
from ssg.generate import Family
from ssg.model import Player, Strategy, game_of
from ssg.oracle import enumerate_strategies, oracle_solve


def two_ave_cycle():
    return game_of([
        ("ave", 1, 2),
        ("ave", 0, 3),
        ("sink", 0),
        ("sink", 1),
    ])


def test_evaluate_two_ave_cycle():
    g = two_ave_cycle()
    sigma = Strategy(Player.MAX, {})
    tau = Strategy(Player.MIN, {})
    values = evaluate(g, sigma, tau)
    assert values[0] == Fraction(1, 3)
    assert values[1] == Fraction(2, 3)


def test_evaluate_trap_is_zero():
    g = game_of([("max", 1), ("min", 0), ("sink", 1)])
    values = evaluate(g, Strategy(Player.MAX, {0: 1}), Strategy(Player.MIN, {1: 0}))
    assert values[0] == 0 and values[1] == 0
    assert values[2] == 1


def test_zero_set_matches_zero_values():
    for g in game_stream(60, seed=3):
        rng = random.Random(g.n * 7919 + 13)
        sigma, tau = random_pair(g, rng)
        values = evaluate(g, sigma, tau)
        zeros = zero_set(g, sigma, tau)
        assert zeros == frozenset(v for v in range(g.n) if values[v] == 0)


def test_value_denominators_stay_bounded():
    for g in game_stream(60, seed=5):
        bound = value_denominator_bound(g)
        rng = random.Random(g.n * 104729 + 1)
        for _ in range(3):
            sigma, tau = random_pair(g, rng)
            values = evaluate(g, sigma, tau)
            assert all(x.denominator <= bound for x in values)


def test_one_step_value():
    g = game_of([
        ("max", 2, 3),
        ("ave", 2, 3),
        ("sink", Fraction(1, 4)),
        ("sink", Fraction(3, 4)),
    ])
    w = {2: Fraction(1, 4), 3: Fraction(3, 4)}
    assert one_step_value(g, w, 0) == Fraction(3, 4)
    assert one_step_value(g, w, 1) == Fraction(1, 2)


def test_check_local_optimality_flags_bad_max_choice():
    g = game_of([("max", 1, 2), ("sink", 0), ("sink", 1)])
    report = check_local_optimality(g, {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)})
    assert not report.satisfied
    assert [v.vertex for v in report.violations] == [0]
    good = check_local_optimality(g, {0: Fraction(1), 1: Fraction(0), 2: Fraction(1)})
    assert good.satisfied and good.violations == ()


def test_greedy_strategies_requires_optimal_values():
    g = game_of([("max", 1, 2), ("sink", 0), ("sink", 1)])
    pair = greedy_strategies(g, {0: Fraction(1), 1: Fraction(0), 2: Fraction(1)})
    sigma, tau = pair.sigma, pair.tau
    assert sigma[0] == 2 and tau.support == ()
    with pytest.raises(PreconditionError):
        greedy_strategies(g, {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)})


def exhaustive_best_min(g, sigma):
    best = None
    for tau in enumerate_strategies(g, Player.MIN):
        values = evaluate(g, sigma, tau)
        if best is None or all(values[v] <= best[v] for v in range(g.n)):
            best = values
    return best


def test_best_response_min_matches_enumeration():
    for g in game_stream(25, max_n=6, seed=9):
        rng = random.Random(g.n * 31 + 7)
        sigma, _ = random_pair(g, rng)
        resp = best_response_min(g, sigma)
        for tau in enumerate_strategies(g, Player.MIN):
            other = evaluate(g, sigma, tau)
            assert all(resp.values[v] <= other[v] for v in range(g.n))
        assert evaluate(g, sigma, resp.strategy) == resp.values


def test_best_response_max_matches_enumeration():
    for g in game_stream(25, max_n=6, seed=10):
        rng = random.Random(g.n * 37 + 5)
        _, tau = random_pair(g, rng)
        resp = best_response_max(g, tau)
        for sigma in enumerate_strategies(g, Player.MAX):
            other = evaluate(g, sigma, tau)
            assert all(resp.values[v] >= other[v] for v in range(g.n))
        assert evaluate(g, resp.strategy, tau) == resp.values


def test_best_response_min_prefers_staying_in_zero_region():
    g = game_of([("min", 0, 1), ("sink", 1)])
    resp = best_response_min(g, Strategy(Player.MAX, {}))
    assert resp.strategy[0] == 0
    assert resp.values[0] == 0


def test_check_stopping():
    stopping = game_of([("max", 1, 2), ("ave", 0, 2), ("sink", 1)])
    report = check_stopping(stopping)
    assert report.stopping and report.witness == frozenset()

    trap = game_of([("max", 2, 1), ("min", 3, 0), ("sink", 1), ("sink", 0)])
    report = check_stopping(trap)
    assert not report.stopping
    assert report.witness == frozenset({0, 1})
    # each witness vertex can keep the play inside the witness
    for v in report.witness:
        assert any(s in report.witness for s in trap.succs[v])


def test_solve_linear_system_small():
    # x - y/2 = 1/2, y - x/2 = 0  =>  x = 2/3, y = 1/3
    matrix = [
        [Fraction(1), Fraction(-1, 2)],
        [Fraction(-1, 2), Fraction(1)],
    ]
    rhs = [Fraction(1, 2), Fraction(0)]
    assert solve_linear_system(matrix, rhs) == [Fraction(2, 3), Fraction(1, 3)]


def test_solve_linear_system_rejects_singular():
    from ssg.errors import InternalInvariantError

    matrix = [
        [Fraction(1), Fraction(-1)],
        [Fraction(2), Fraction(-2)],
    ]
    with pytest.raises(InternalInvariantError):
        solve_linear_system(matrix, [Fraction(0), Fraction(0)])


def test_evaluate_agrees_with_minimax_on_optimal_pair():
    for g in game_stream(20, max_n=6, seed=21, stopping=True):
        result = oracle_solve(g)
        pair = result.witness_pair
        sigma, tau = pair.sigma, pair.tau
        assert evaluate(g, sigma, tau) == result.values


def test_attractor_counts_duplicate_arcs():
    # 0 -> 2 twice, 1 -> 2 and 3, 2 is the seed, 3 loops, 4 -> 0 and 1
    arcs = [(2, 2), (2, 3), (), (3,), (0, 1)]
    assert attractor(arcs, [1] * 5, [2]) == [True, True, True, False, True]
    need_all = [len(out) for out in arcs]
    assert attractor(arcs, need_all, [2]) == [True, False, True, False, False]


def coincident_and_sink_arcs_game():
    # both arcs of 1 go to 3, which can close the cycle 0 -> 1 -> 3 -> 0;
    # both arcs of 6 and of 7 hit one sink; 2 flips between two sinks;
    # 3 escapes to a sink; 4 forks; and 5 escapes to the value-0 trap
    # {8, 9} when MIN keeps 8 on 9 and MAX keeps 9 on 8
    return game_of([
        ("max", 1, 2, 4),
        ("ave", 3, 3),
        ("ave", 10, 11),
        ("ave", 0, 10),
        ("ave", 5, 0),
        ("ave", 4, 8),
        ("ave", 11, 11),
        ("ave", 10, 10),
        ("min", 9, 6, 7),
        ("max", 8, 5),
        ("sink", Fraction(1, 3)),
        ("sink", 0),
    ])


def test_evaluate_matches_a_dense_reference_system():
    corpora = [
        game_stream(12, family, min_n=low, max_n=high, seed=41, stopping=stopping)
        for family, low, high in ((Family.RANDOM, 4, 9), (Family.SINGLE_CYCLE, 4, 12))
        for stopping in (True, False)
    ]
    # dag_plus_k games are stopping by construction
    corpora.append(game_stream(12, Family.DAG_PLUS_K, min_n=7, max_n=11, seed=41, k=2))
    corpora.append(
        [make_stopping(g, 3) for g in game_stream(8, max_n=6, seed=43, stopping=False)]
    )
    rng = random.Random(2024)
    checked = 0
    for corpus in corpora:
        for g in corpus:
            for _ in range(5):
                sigma, tau = random_pair(g, rng)
                assert evaluate(g, sigma, tau) == dense_evaluate(g, sigma, tau)
                checked += 1
    g = coincident_and_sink_arcs_game()
    for sigma, tau in all_pairs(g):
        assert evaluate(g, sigma, tau) == dense_evaluate(g, sigma, tau)
        checked += 1
    assert checked >= 300


def test_evaluate_solves_fork_free_cycles_without_a_linear_system(monkeypatch):
    dims = []
    solve = evaluation.solve_linear_system

    def recording(matrix, rhs):
        dims.append(len(matrix))
        return solve(matrix, rhs)

    monkeypatch.setattr(evaluation, "solve_linear_system", recording)
    ell = 300
    g = game_of([("ave", (v + 1) % ell, ell) for v in range(ell)] + [("sink", Fraction(1, 3))])
    values = evaluate(g, Strategy(Player.MAX, {}), Strategy(Player.MIN, {}))
    assert sum(dims) == 0
    assert all(value == Fraction(1, 3) for value in values)
