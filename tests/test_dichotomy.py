"""Bisection solving, rational rounding, and the stopping transform."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import game_stream, plain_bisection
from ssg import dichotomy, evaluation
from ssg.dichotomy import (
    dichotomy_solve,
    fixed_point_f,
    make_stopping,
    sink_denominator_lcm,
    solve_feedback,
    stern_brocot,
    value_denominator_bound,
)
from ssg.errors import InternalInvariantError, NotStoppingError, PreconditionError
from ssg.evaluation import check_stopping
from ssg.generate import Family, GeneratorSpec, generate
from ssg.iteration import hoffman_karp
from ssg.model import VertexKind, game_of
from ssg.oracle import oracle_solve
from ssg.solvers import solve_acyclic
from ssg.structure import feedback_vertex_set


F = Fraction


def coin_pair():
    # w0 = (w1 + 1) / 2, w1 = w0 / 2: fixed point at 2/3
    return game_of([("ave", 1, 2), ("ave", 3, 0), ("sink", 1), ("sink", 0)])


def trap():
    return game_of([("max", 2, 1), ("min", 3, 0), ("sink", 1), ("sink", 0)])


class CountingSolver:
    def __init__(self):
        self.calls = 0

    def __call__(self, game):
        self.calls += 1
        return solve_acyclic(game)


# --- denominator bounds ---------------------------------------------------


def test_sink_denominator_lcm():
    g = game_of([("ave", 1, 2), ("sink", F(1, 3)), ("sink", F(3, 4))])
    assert sink_denominator_lcm(g) == 12
    assert sink_denominator_lcm(coin_pair()) == 1


def test_value_denominator_bound_covers_observed_values():
    for g in game_stream(40, seed=61, stopping=True):
        bound = value_denominator_bound(g)
        for value in oracle_solve(g).values:
            assert value.denominator <= bound


# --- f and its fixed point ------------------------------------------------


def test_fixed_point_f_frozen():
    g = coin_pair()
    assert fixed_point_f(g, 0, F(1, 2)) == F(5, 8)
    assert fixed_point_f(g, 0, 0) == F(1, 2)
    assert fixed_point_f(g, 0, 1) == F(3, 4)
    assert fixed_point_f(g, 0, F(2, 3)) == F(2, 3)


def test_fixed_point_f_is_monotone():
    g = coin_pair()
    points = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    images = [fixed_point_f(g, 0, p) for p in points]
    assert all(a <= b for a, b in zip(images, images[1:]))


def test_fixed_point_f_rejects_sink():
    with pytest.raises(PreconditionError):
        fixed_point_f(coin_pair(), 2, F(1, 2))


# --- bisection -------------------------------------------------------------


def test_dichotomy_solves_coin_pair():
    values = dichotomy_solve(coin_pair(), 0)
    assert values[0] == F(2, 3)
    assert values[1] == F(1, 3)


def test_dichotomy_rejects_sink_pivot():
    with pytest.raises(PreconditionError):
        dichotomy_solve(coin_pair(), 2)


@pytest.mark.parametrize("x", [-1, -3, 4, 9])
def test_dichotomy_rejects_ids_outside_the_game(x):
    # -3 used to freeze vertex n - 3 and 9 used to raise IndexError
    for solve in (dichotomy_solve, lambda g, v: solve_feedback(g, [v])):
        with pytest.raises(PreconditionError, match="not a playable vertex"):
            solve(coin_pair(), x)


def test_dichotomy_requires_stopping():
    with pytest.raises(NotStoppingError):
        dichotomy_solve(trap(), 0)


def test_dichotomy_propagates_unbroken_cycles():
    # stopping, but freezing vertex 0 leaves the 2-3 cycle intact, so the
    # cover check refuses before any subsolve
    g = game_of([
        ("ave", 1, 4),
        ("ave", 0, 4),
        ("max", 3, 4),
        ("ave", 2, 4),
        ("sink", F(1, 2)),
    ])
    assert check_stopping(g).stopping
    counter = CountingSolver()
    with pytest.raises(PreconditionError, match="a cycle avoids"):
        dichotomy_solve(g, 0, counter)
    assert counter.calls == 0


@pytest.mark.parametrize(
    "solve",
    [dichotomy_solve, lambda g, x, sub: solve_feedback(g, [x], sub)],
    ids=["dichotomy_solve", "solve_feedback"],
)
def test_bisection_certifies_its_answer(solve):
    # coin_pair plus vertex 4, which x = 0 never reads: a subsolver
    # exact at 0's successors but wrong at 4 still pins 0's value, and
    # only the final certificate sees the wrong 4
    g = game_of([
        ("ave", 1, 2),
        ("ave", 3, 0),
        ("sink", 1),
        ("sink", 0),
        ("ave", 2, 3),
    ])

    def wrong_at_4(game):
        values = list(solve_acyclic(game))
        values[4] = F(0)
        return tuple(values)

    with pytest.raises(InternalInvariantError, match=r"local optimality at \[4\]"):
        solve(g, 0, wrong_at_4)
    assert solve(g, 0, solve_acyclic)[:2] == (F(2, 3), F(1, 3))


def test_dichotomy_matches_oracle_within_call_budget():
    solved = 0
    for g in game_stream(
        25, family=Family.SINGLE_CYCLE, min_n=3, max_n=9, seed=67, stopping=True
    ):
        counter = CountingSolver()
        values = dichotomy_solve(g, 0, subsolver=counter)
        assert values == oracle_solve(g).values
        bound = value_denominator_bound(g)
        assert counter.calls <= (bound * bound - 1).bit_length() + 1
        # the bracket pins the value once narrower than 1/(den * bound)
        assert counter.calls <= (values[0].denominator * bound).bit_length() + 1
        solved += 1
    assert solved == 25


def flat_f():
    # vertex 2 is worth min(v, 0) = 0, so f(v) = 9/28 for every trial v
    return game_of([
        ("ave", 1, 3),
        ("ave", 2, 3),
        ("min", 0, 4),
        ("sink", F(3, 7)),
        ("sink", 0),
    ])


def test_bisection_can_still_need_every_halving():
    # 9/28 under a bound of 42: no bracket wider than the last one holds
    # it alone, so plain bisection runs every halving before its
    # Stern-Brocot step.  The strategy step lands after the first solve:
    # at the trial 1/2, MIN at vertex 2 already leaves for the 0-sink,
    # its optimal arc, so the pair read off that solve is optimal
    g = flat_f()
    bound = value_denominator_bound(g)
    counter, reference = CountingSolver(), CountingSolver()
    assert plain_bisection(g, [0], reference)[0] == F(9, 28)
    assert reference.calls == (bound * bound - 1).bit_length() + 1
    values = dichotomy_solve(g, 0, subsolver=counter)
    assert counter.calls == 1
    assert values[0] == F(9, 28)
    assert values == oracle_solve(g).values


def test_strategy_step_lands_where_f_bends_at_its_fixed_point():
    # f(v) = min(v, 3/7) / 4 + 9/28 bends at its fixed point 3/7.  The
    # first trial, 1/2, lies above 3/7, so MIN at vertex 2 takes the
    # 3/7-sink there, its optimal arc: the strategy step lands after one
    # solve
    g = game_of([
        ("ave", 1, 3),
        ("ave", 2, 3),
        ("min", 0, 4),
        ("sink", F(3, 7)),
        ("sink", F(3, 7)),
    ])
    counter = CountingSolver()
    values = dichotomy_solve(g, 0, subsolver=counter)
    assert counter.calls == 1
    assert values[0] == F(3, 7)
    assert values == oracle_solve(g).values


# --- simplest rational in an interval --------------------------------------


def test_stern_brocot_frozen_cases():
    assert stern_brocot(F(333, 1000), F(334, 1000), 10) == F(1, 3)
    assert stern_brocot(F(1, 2), F(1, 2), 2) == F(1, 2)
    assert stern_brocot(F(66, 100), F(67, 100), 3) == F(2, 3)
    assert stern_brocot(F(0), F(1, 7), 1) == F(0)
    assert stern_brocot(F(9, 10), F(1), 1) == F(1)


def test_stern_brocot_rejects_tight_caps_and_bad_intervals():
    with pytest.raises(PreconditionError):
        stern_brocot(F(333, 1000), F(334, 1000), 2)
    with pytest.raises(PreconditionError):
        stern_brocot(F(2, 3), F(1, 3), 10)
    with pytest.raises(PreconditionError):
        stern_brocot(F(-1, 2), F(1, 2), 10)


@st.composite
def unit_intervals(draw):
    b1 = draw(st.integers(1, 40))
    a1 = draw(st.integers(0, b1))
    b2 = draw(st.integers(1, 40))
    a2 = draw(st.integers(0, b2))
    lo, hi = sorted([F(a1, b1), F(a2, b2)])
    return lo, hi


@settings(max_examples=300)
@given(unit_intervals(), st.integers(1, 60))
def test_stern_brocot_is_simplest(interval, cap):
    lo, hi = interval
    best = None
    for d in range(1, cap + 1):
        lowest = math.ceil(lo * d)
        if lowest <= math.floor(hi * d):
            best = F(lowest, d)
            break
    if best is None:
        with pytest.raises(PreconditionError):
            stern_brocot(lo, hi, cap)
    else:
        assert stern_brocot(lo, hi, cap) == best


# --- nested bisection over a feedback set -----------------------------------


def test_solve_feedback_frozen():
    g = game_of([
        ("max", 1, 4),
        ("ave", 2, 5),
        ("min", 3, 1),
        ("ave", 0, 5),
        ("sink", F(1, 3)),
        ("sink", F(3, 4)),
    ])
    values = solve_feedback(g, [0, 1])
    assert values == (F(3, 4), F(3, 4), F(3, 4), F(3, 4), F(1, 3), F(3, 4))
    assert values == oracle_solve(g).values


def test_solve_feedback_validates_inputs():
    g = coin_pair()
    with pytest.raises(PreconditionError):
        solve_feedback(g, [2])
    with pytest.raises(PreconditionError):
        solve_feedback(g, [])
    with pytest.raises(NotStoppingError):
        solve_feedback(trap(), [0])


def test_solve_feedback_empty_set_on_acyclic_game():
    g = game_of([("ave", 1, 2), ("sink", 1), ("sink", 0)])
    assert solve_feedback(g, []) == (F(1, 2), F(1), F(0))


def test_solve_feedback_agrees_with_single_pivot():
    for g in game_stream(
        15, family=Family.SINGLE_CYCLE, min_n=3, max_n=8, seed=71, stopping=True
    ):
        assert solve_feedback(g, [0]) == dichotomy_solve(g, 0)


def test_solve_feedback_matches_oracle_on_two_cycle_games():
    count = 0
    for g in game_stream(
        12, family=Family.DAG_PLUS_K, min_n=7, max_n=8, seed=73, k=2
    ):
        fvs = feedback_vertex_set(g)
        assert fvs is not None and len(fvs) == 2
        assert solve_feedback(g, fvs) == oracle_solve(g).values
        count += 1
    assert count == 12


AVE_HEAVY = (0.15, 0.15, 0.6, 0.1)


def test_solve_feedback_never_solves_more_than_plain_bisection():
    # dag_plus_k cycles are apart, so inner brackets are mostly one point;
    # on AVE-heavy random games the levels move each other's values
    corpus = game_stream(
        30, family=Family.DAG_PLUS_K, min_n=7, max_n=12, seed=83, stopping=True, k=2
    ) + [
        g
        for g in game_stream(
            60, min_n=5, max_n=8, seed=84, stopping=True, proportions=AVE_HEAVY
        )
        if len(feedback_vertex_set(g, 2) or ()) == 2
    ]
    ours = plain = 0
    for g in corpus:
        xs = sorted(feedback_vertex_set(g))
        counter, reference = CountingSolver(), CountingSolver()
        values = solve_feedback(g, xs, counter)
        assert values == tuple(plain_bisection(g, xs, reference))
        assert counter.calls <= reference.calls
        ours += counter.calls
        plain += reference.calls
    assert len(corpus) > 50
    assert 100 * ours < plain


def test_solve_feedback_certifies_each_answer_once(monkeypatch):
    # a count, not a clock: an answer the top level's strategy step
    # found was checked on the game already, and is not checked again
    checks = []
    check = evaluation.check_local_optimality

    def recording(game, w):
        checks.append((id(game), tuple(w)))
        return check(game, w)

    monkeypatch.setattr(evaluation, "check_local_optimality", recording)
    monkeypatch.setattr(dichotomy, "check_local_optimality", recording)
    corpus = game_stream(
        30, family=Family.DAG_PLUS_K, min_n=7, max_n=12, seed=83, stopping=True, k=2
    )
    for g in corpus:
        checks.clear()
        values = solve_feedback(g, feedback_vertex_set(g))
        assert checks.count((id(g), values)) == 1
        assert len(set(checks)) == len(checks)


def test_solve_feedback_matches_strategy_iteration_on_three_vertex_sets():
    # AVE-heavy random games whose three frozen vertices move each
    # other's values, so inner levels start from real brackets
    count = 0
    for g in game_stream(
        80, min_n=8, max_n=13, seed=91, stopping=True, proportions=AVE_HEAVY
    ):
        fvs = feedback_vertex_set(g, 3)
        if fvs is None or len(fvs) < 3:
            continue
        assert solve_feedback(g, fvs) == hoffman_karp(g).values
        count += 1
    assert count >= 25


def test_feedback_corpus_matches_strategy_iteration_within_its_subsolves():
    # AVE-heavy and mixed random games with covers of one to three
    # vertices: the strategy step lands on most levels, 254 subsolves in
    # all.  Bisection's fallback still runs: the worst game, AVE-heavy
    # n = 24 seed 42, takes 28, and two games (AVE-heavy n = 20 seed 59,
    # mixed n = 40 seed 17) end a level on its Stern-Brocot candidate
    games = subsolves = 0
    for proportions in (AVE_HEAVY, (0.25, 0.25, 0.4, 0.1)):
        for n in range(16, 41, 4):
            for seed in range(60):
                g = generate(GeneratorSpec(
                    n=n, family=Family.RANDOM, seed=seed, proportions=proportions
                ))
                if not check_stopping(g).stopping:
                    continue
                fvs = feedback_vertex_set(g, 3)
                if fvs is None:
                    continue
                counter = CountingSolver()
                assert solve_feedback(g, fvs, counter) == hoffman_karp(g).values
                games += 1
                subsolves += counter.calls
    assert games == 65
    assert subsolves <= 300


# --- stopping transform ------------------------------------------------------


def test_make_stopping_preserves_ids_and_stops():
    g = trap()
    t = make_stopping(g, 8)
    assert check_stopping(t).stopping
    for v in range(g.n):
        assert t.kinds[v] == g.kinds[v]
    assert t.n > g.n


def test_make_stopping_exact_on_trap():
    # both players keep a direct sink arc, so the perturbation is invisible
    t = make_stopping(trap(), 8)
    values = oracle_solve(t).values
    assert values[0] == 1 and values[1] == 0


def test_make_stopping_routes_playable_arcs_through_coin_chains():
    # n/2^m does not bound the value shift (see
    # test_make_stopping_shift_can_exceed_n_over_2_to_the_m); the
    # construction itself is what make_stopping guarantees
    m = 10
    for g in game_stream(20, min_n=4, max_n=6, seed=79):
        t = make_stopping(g, m)
        assert check_stopping(t).stopping
        assert t.kinds[: g.n] == g.kinds
        assert t.sink_values[: g.n] == g.sink_values
        chained = set()
        for v in range(g.n):
            if g.is_sink(v):
                continue
            assert len(t.succs[v]) == len(g.succs[v])
            for y, head in zip(g.succs[v], t.succs[v]):
                if g.is_sink(y):
                    assert head == y
                    continue
                cur = head
                for _ in range(m):
                    assert cur >= g.n and cur not in chained
                    assert t.kinds[cur] is VertexKind.AVE
                    chained.add(cur)
                    cur, target = t.succs[cur]
                    assert target == y
                assert t.is_sink(cur) and t.sink_value(cur) == 0
        zero_added = not any(g.sink_value(v) == 0 for v in g.sink_vertices)
        assert t.n == g.n + len(chained) + zero_added


def test_make_stopping_reuses_zero_sink_and_default_length():
    g = trap()
    t = make_stopping(g)
    assert check_stopping(t).stopping
    # two playable arcs rerouted, zero sink already present
    m = max(1, 2 * g.n + (sink_denominator_lcm(g) - 1).bit_length())
    assert t.n == g.n + 2 * m
    with pytest.raises(PreconditionError):
        make_stopping(g, 0)


# --- worst-case denominator ladder -------------------------------------------


# --- documented bounds, checked against the oracle ----------------------------


def test_value_denominator_bound_caps_size_not_divisors():
    g = generate(GeneratorSpec(n=8, family=Family.RANDOM, seed=10148))
    values = oracle_solve(g).values
    bound = value_denominator_bound(g)
    assert bound == 24 and F(7, 16) in values
    assert all(v.denominator <= bound for v in values)


@pytest.mark.parametrize(
    "n, seed, m, factor",
    [(6, 20011, 12, F(14, 10)), (6, 20011, 16, F(14, 10)), (7, 20157, 12, F(32, 10))],
    ids=["n6-m12", "n6-m16", "n7-m12"],
)
def test_make_stopping_shift_can_exceed_n_over_2_to_the_m(n, seed, m, factor):
    spec = GeneratorSpec(
        n=n, family=Family.RANDOM, seed=seed, proportions=(0.15, 0.15, 0.6, 0.1)
    )
    g = generate(spec)
    exact = oracle_solve(g).values
    nearby = oracle_solve(make_stopping(g, m)).values
    shift = max(abs(nearby[v] - exact[v]) for v in range(g.n))
    assert shift > factor * F(g.n, 2**m)
