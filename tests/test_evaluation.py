"""Exact play evaluation under fixed strategy pairs, and local optimality."""

import math
import re
import sys
from fractions import Fraction

import pytest

from helpers import (
    all_pairs,
    dense_evaluate,
    dense_solve,
    game_stream,
    random_pair,
    ref_argbest,
    ref_check_local_optimality,
    ref_one_step_value,
    ref_switchable,
)
import random

from ssg import evaluation
from ssg.cli import SOLVERS, run_algorithm
from ssg.dichotomy import make_stopping, value_denominator_bound
from ssg.errors import InternalInvariantError, InvalidStrategyError, PreconditionError
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
    switchable,
)
from ssg.generate import Family, GeneratorSpec, generate
from ssg.iteration import hoffman_karp
from ssg.model import Player, Strategy, VertexKind, argbest, game_of
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


@pytest.mark.parametrize("sigma, tau, message", [
    (Strategy(Player.MIN, {1: 0}), Strategy(Player.MAX, {0: 1}), "expects (MAX strategy"),
    (Strategy(Player.MAX, {}), Strategy(Player.MIN, {1: 0}), "MAX strategy does not cover"),
], ids=["owners_swapped", "partial"])
def test_evaluate_refuses_a_pair_that_is_not_total(sigma, tau, message):
    g = game_of([("max", 1, 2), ("min", 0, 2), ("sink", 1)])
    with pytest.raises(InvalidStrategyError, match=re.escape(message)):
        evaluate(g, sigma, tau)


def test_check_local_optimality_refuses_a_short_vector():
    g = game_of([("max", 1, 2), ("sink", 0), ("sink", 1)])
    with pytest.raises(PreconditionError, match="length differs"):
        check_local_optimality(g, (Fraction(1), Fraction(0)))


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


def test_greedy_strategies_hold_the_values_on_non_stopping_games():
    # a tied MAX choice can circle forever at worth 0, so the readout
    # must still leave each player a strategy that holds the other
    checked = 0
    for family in (Family.RANDOM, Family.MAX_ACYCLIC, Family.SINGLE_CYCLE):
        for g in game_stream(40, family=family, max_n=12, seed=41, stopping=False):
            try:
                values = run_algorithm(g, "auto").values
            except PreconditionError:
                continue
            pair = greedy_strategies(g, values)
            assert best_response_min(g, pair.sigma).values == values
            assert best_response_max(g, pair.tau).values == values
            checked += 1
    assert checked >= 60


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
    rows = [
        {0: Fraction(1), 1: Fraction(-1, 2)},
        {0: Fraction(-1, 2), 1: Fraction(1)},
    ]
    rhs = [Fraction(1, 2), Fraction(0)]
    assert solve_linear_system(rows, rhs) == [Fraction(2, 3), Fraction(1, 3)]


def test_solve_linear_system_rejects_singular():
    rows = [
        {0: Fraction(1), 1: Fraction(-1)},
        {0: Fraction(2), 1: Fraction(-2)},
    ]
    with pytest.raises(InternalInvariantError):
        solve_linear_system(rows, [Fraction(0), Fraction(0)])


def _random_entry(rng, denominators):
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice(denominators))


def _random_sparse_system(rng, case):
    """A random square system as (rows, rhs), shaped by case."""
    k = rng.randint(3 if case == 3 else 1, 14)
    denominators = (1, 2, 4, 8, 16) if case % 2 else (1, 3, 5, 7, 9, 15)
    rows = []
    for i in range(k):
        row = {i: _random_entry(rng, denominators)}
        for j in rng.sample(range(k), min(k, rng.randint(0, 2))):
            row[j] = _random_entry(rng, denominators)
        rows.append(row)
    if case == 2 and k > 1:
        # a coin chain: 2 x_i - x_(i+1) = 0 along a block, closed by
        # the block's last row, which leans on a random column
        lo = rng.randrange(k - 1)
        for i in range(lo, k - 1):
            rows[i] = {i: Fraction(2), i + 1: Fraction(-1)}
    if case == 3:
        # g1 is f * g0 plus an entry in column r.  Only g0 and g1 hold
        # column p, q has at least three holders and r has a larger id,
        # so p pivots first, on the shorter g0, and cancels g1's q entry
        p, q, r = sorted(rng.sample(range(k), 3))
        g0, g1, g2 = rng.sample(range(k), 3)
        free_rows = [i for i in range(k) if i not in (g0, g1, g2)]
        free_cols = [j for j in range(k) if j not in (p, q, r)]
        for i, j in zip(free_rows, free_cols):
            rows[i] = {c: e for c, e in rows[i].items() if c not in (p, q, r)}
            rows[i][j] = _random_entry(rng, denominators)
            if rng.random() < 0.5:
                rows[i][q] = _random_entry(rng, denominators)
        x, y, z, u, w, f = (_random_entry(rng, denominators) for _ in range(6))
        rows[g0] = {p: x, q: y}
        rows[g1] = {p: f * x, q: f * y, r: z}
        rows[g2] = {q: u, r: w}
    if case == 4:
        # a column no row holds
        gone = rng.randrange(k)
        rows = [{j: e for j, e in row.items() if j != gone} for row in rows]
    if case == 5 and k > 1:
        # two dependent rows
        a, b = rng.sample(range(k), 2)
        factor = _random_entry(rng, denominators)
        rows[b] = {j: factor * entry for j, entry in rows[a].items()}
    rhs = [_random_entry(rng, denominators) if rng.random() < 0.7 else Fraction(0) for _ in rows]
    return rows, rhs


def _outcome(solve, *args):
    try:
        return solve(*args)
    except InternalInvariantError as exc:
        return str(exc)


def test_solve_linear_system_matches_a_dense_eliminator_on_random_sparse_systems():
    rng = random.Random(8)
    factors = random.Random(9)
    seen = {"solved": 0, "singular": 0}
    for trial in range(300):
        case = trial % 6
        rows, rhs = _random_sparse_system(rng, case)
        k = len(rows)
        matrix = [[row.get(j, Fraction(0)) for j in range(k)] for row in rows]
        before = [dict(row) for row in rows], list(rhs)
        expected = _outcome(dense_solve, matrix, rhs)
        found = _outcome(solve_linear_system, rows, rhs)
        assert found == expected, (case, rows, rhs)
        assert (rows, rhs) == before
        # the same system as int rows, the shape chain_values hands over;
        # each row scaled to integers and then by a factor of 1 to 6
        int_rows, int_rhs = [], []
        for row, r in zip(rows, rhs):
            scale = math.lcm(r.denominator, *[e.denominator for e in row.values()])
            scale *= factors.randint(1, 6)
            int_rows.append({j: int(e * scale) for j, e in row.items()})
            int_rhs.append(int(r * scale))
        int_matrix = [[Fraction(row.get(j, 0)) for j in range(k)] for row in int_rows]
        int_before = [dict(row) for row in int_rows], list(int_rhs)
        int_found = _outcome(solve_linear_system, int_rows, int_rhs)
        assert int_found == _outcome(dense_solve, int_matrix, [Fraction(r) for r in int_rhs])
        assert int_found == expected, (case, int_rows, int_rhs)
        assert isinstance(int_found, str) or all(type(v) is Fraction for v in int_found)
        assert (int_rows, int_rhs) == int_before
        if case in (4, 5) and k > 1:
            assert found == "singular linear system"
        seen["singular" if isinstance(found, str) else "solved"] += 1
    assert seen["solved"] >= 150 and seen["singular"] >= 80


def test_solve_linear_system_refuses_to_lose_a_column(monkeypatch):
    # without re-queueing, column 2's count drops from 2 to 1 and its
    # only queue entry goes stale; the solve must not return x_2 = 0
    import heapq
    import types

    lossy = types.SimpleNamespace(
        heapify=heapq.heapify, heappop=heapq.heappop, heappush=lambda queue, item: None
    )
    monkeypatch.setattr(evaluation, "heapq", lossy)
    rows = [
        {0: Fraction(2), 1: Fraction(-1)},
        {1: Fraction(2), 2: Fraction(-1)},
        {2: Fraction(2), 0: Fraction(-1)},
    ]
    with pytest.raises(InternalInvariantError, match="lost a column"):
        solve_linear_system(rows, [Fraction(1), Fraction(0), Fraction(0)])


def test_evaluate_agrees_with_minimax_on_optimal_pair():
    for g in game_stream(20, max_n=6, seed=21, stopping=True):
        result = oracle_solve(g)
        pair = result.witness_pair
        sigma, tau = pair.sigma, pair.tau
        assert evaluate(g, sigma, tau) == result.values


def test_attractor_counts_duplicate_arcs():
    # 0 -> 2 twice, 1 -> 2 and 3, 2 is the seed, 3 loops, 4 -> 0 and 1
    arcs = [(2, 2), (2, 3), (), (3,), (0, 1)]
    assert attractor(arcs, [1] * 5, [2]) == [1, 1, 0, None, 2]
    need_all = [len(out) for out in arcs]
    assert attractor(arcs, need_all, [2]) == [1, None, 0, None, None]


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


def two_bases_game():
    # {0, 1} and {2, 3} are fork-free cycles, each solved at its own
    # unknown; AVE 4 sees both, so two bases meet there, and MAX 5 picks
    # between 4 and cycle {0, 1}
    return game_of([
        ("ave", 1, 6),
        ("ave", 0, 7),
        ("ave", 3, 7),
        ("ave", 2, 6),
        ("ave", 0, 2),
        ("max", 4, 0),
        ("sink", Fraction(1, 3)),
        ("sink", Fraction(3, 5)),
    ])


def row_naming_another_unknown_game():
    # the pass stalls on cycle 0 -> 1 -> 3 -> 0 and resumes from fork 0;
    # AVE 3 then meets base 0 and the base of cycle {4, 5}, so both arcs
    # of 0 lead to unknown 3 and the row of 0 names 3 alone
    return game_of([
        ("ave", 1, 2),
        ("max", 3, 6),
        ("min", 3, 7),
        ("ave", 0, 4),
        ("ave", 5, 6),
        ("ave", 4, 7),
        ("sink", Fraction(2, 7)),
        ("sink", 1),
    ])


def duplicate_arcs_game():
    # AVE 0 and 2 list one successor twice, on cycles through 1 and 3;
    # AVE 4 lists one sink twice
    return game_of([
        ("ave", 1, 1),
        ("ave", 0, 5),
        ("ave", 3, 3),
        ("max", 2, 0, 4),
        ("ave", 6, 6),
        ("sink", Fraction(1, 2)),
        ("sink", Fraction(3, 4)),
    ])


def zero_region_cycle_game():
    # AVE cycle {0, 1} has no arc out and MIN 3 can keep {2, 3} away
    # from the only positive sink: both are worth 0 however played, and
    # a closed row there would read 0 / 0
    return game_of([
        ("ave", 1, 1),
        ("ave", 0, 0),
        ("ave", 3, 4),
        ("min", 2, 5),
        ("sink", 0),
        ("ave", 2, 6),
        ("sink", Fraction(5, 6)),
    ])


def upstream_stall_game():
    # the smallest vertex left at the stall, 0, only leads into the
    # cycle 2 -> 3 -> 2; the walk from 0 closes it at 2
    return game_of([
        ("ave", 1, 4),
        ("max", 2, 4),
        ("ave", 3, 5),
        ("min", 2, 5),
        ("sink", Fraction(1, 5)),
        ("sink", 1),
    ])


def test_evaluate_matches_a_dense_reference_system():
    ave_heavy = (0.15, 0.15, 0.6, 0.1)
    corpora = [
        game_stream(12, family, min_n=low, max_n=high, seed=41, stopping=stopping)
        for family, low, high in ((Family.RANDOM, 4, 9), (Family.SINGLE_CYCLE, 4, 12))
        for stopping in (True, False)
    ]
    corpora += [
        game_stream(12, min_n=4, max_n=12, seed=43, stopping=stopping, proportions=ave_heavy)
        for stopping in (True, False)
    ]
    # dag_plus_k games are stopping by construction
    corpora.append(game_stream(12, Family.DAG_PLUS_K, min_n=7, max_n=11, seed=41, k=2))
    corpora.append(
        [make_stopping(g, 3) for g in game_stream(8, max_n=6, seed=43, stopping=False)]
    )
    corpora.append([
        make_stopping(g, 10)
        for g in game_stream(4, Family.SINGLE_CYCLE, min_n=4, max_n=7, seed=47)
        + game_stream(4, min_n=4, max_n=5, seed=47, proportions=ave_heavy)
    ])
    rng = random.Random(2024)
    checked = 0
    for corpus in corpora:
        for g in corpus:
            for _ in range(5):
                sigma, tau = random_pair(g, rng)
                assert evaluate(g, sigma, tau) == dense_evaluate(g, sigma, tau)
                checked += 1
    for g in (
        coincident_and_sink_arcs_game(),
        two_bases_game(),
        row_naming_another_unknown_game(),
        duplicate_arcs_game(),
        zero_region_cycle_game(),
        upstream_stall_game(),
    ):
        for sigma, tau in all_pairs(g):
            assert evaluate(g, sigma, tau) == dense_evaluate(g, sigma, tau)
            checked += 1
    assert checked >= 400


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


def path_with_side_cycles(length):
    # AVE p_i steps on to p_(i+1) and aside into its own escaping cycle
    # {a_i, b_i}, so p_i waits on every side cycle beyond it
    sink_a, sink_b = 3 * length, 3 * length + 1
    path = [("ave", i + 1 if i + 1 < length else sink_a, length + i) for i in range(length)]
    sides = [("ave", 2 * length + i, sink_a) for i in range(length)]
    sides += [("ave", length + i, sink_b) for i in range(length)]
    return game_of(path + sides + [("sink", Fraction(1, 2)), ("sink", Fraction(1, 3))])


def forks_into_a_coin_path(k):
    # forks f_i = (c_0, f_(i+1)); coins c_j = (c_(j+1), sink) run into the
    # ladder g_i = (f_i, g_(i+1)) of forks back to f_i
    f, c, g, sink = 0, k, 2 * k, 3 * k
    forks = [("ave", c, f + i + 1 if i + 1 < k else sink) for i in range(k)]
    coins = [("ave", c + j + 1 if j + 1 < k else g, sink) for j in range(k)]
    ladder = [("ave", f + i, g + i + 1 if i + 1 < k else sink) for i in range(k)]
    return game_of(forks + coins + ladder + [("sink", Fraction(1, 3))])


def fork_ladder_round_a_coin_path(k):
    # forks f_i = (f_(i+1), c_0) lead into coins c_j = (c_(j+1), sink),
    # which run into the ladder h_i = (h_(i+1), f_(k-i)) of forks back to
    # f_0, so the coins wait on every fork
    f, c, h, sink = 0, k, 2 * k, 3 * k
    forks = [("ave", f + i + 1 if i + 1 < k else c, c) for i in range(k)]
    coins = [("ave", c + j + 1 if j + 1 < k else h, sink) for j in range(k)]
    ladder = [("ave", h + i + 1 if i + 1 < k else f, f + k - i if i else sink) for i in range(k)]
    return game_of(forks + coins + ladder + [("sink", Fraction(1, 3))])


def _kernel_lines(game):
    """Lines chain_values and the code nested in it run on game with no
    positional vertex, not counting the functions it calls."""
    count = 0
    code = evaluation.chain_values.__code__
    codes = {code, *[c for c in code.co_consts if hasattr(c, "co_code")]}

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code in codes else None)
    try:
        values = evaluation.chain_values(game, {})
    finally:
        sys.settrace(previous)
    assert values == dense_evaluate(
        game, Strategy(Player.MAX, {}), Strategy(Player.MIN, {})
    )
    return count


@pytest.mark.parametrize(
    "family", [path_with_side_cycles, forks_into_a_coin_path, fork_ladder_round_a_coin_path]
)
def test_the_value_pass_walks_each_vertex_once(family):
    # at 4 times the size, a walk restarted from the smallest vertex left
    # at every stall runs 8 to 12 times the lines here, a kept walk 4 times
    small, large = _kernel_lines(family(60)), _kernel_lines(family(240))
    assert large < 5 * small, (small, large)


def _fork_count(game, chosen):
    """AVE vertices with two distinct successors that are neither sinks
    nor cut off from every positive sink under the chosen arcs."""
    preds = [[] for _ in range(game.n)]
    for v, out in enumerate(game.succs):
        for s in (chosen[v],) if v in chosen else out:
            preds[s].append(v)
    stack = [v for v in game.sink_vertices if game.sink_value(v) > 0]
    reaches = set(stack)
    while stack:
        for p in preds[stack.pop()]:
            if p not in reaches:
                reaches.add(p)
                stack.append(p)

    def unsettled(v):
        return not game.is_sink(v) and v in reaches

    return sum(
        1
        for v in game.ave_vertices
        if unsettled(v) and len(set(game.succs[v])) == 2 and all(map(unsettled, game.succs[v]))
    )


def _fork_systems(monkeypatch, games):
    """Per chain_values call of hoffman_karp on each game: its fork count
    and the rows of the systems it solved."""
    calls = []
    solve, chain_values = evaluation.solve_linear_system, evaluation.chain_values

    def recording_solve(rows, rhs):
        calls[-1][1].extend(rows)
        return solve(rows, rhs)

    def counting_chain_values(game, chosen):
        calls.append((_fork_count(game, chosen), []))
        return chain_values(game, chosen)

    monkeypatch.setattr(evaluation, "solve_linear_system", recording_solve)
    monkeypatch.setattr(evaluation, "chain_values", counting_chain_values)
    for game in games:
        hoffman_karp(game, require_stopping=False)
    monkeypatch.undo()
    return calls


def test_fork_system_stays_within_the_fork_count(monkeypatch):
    # coin chains fold into forms: no make_stopping single cycle needs a system
    chains = _fork_systems(monkeypatch, [
        make_stopping(generate(GeneratorSpec(n=n, family=Family.SINGLE_CYCLE, seed=seed)), 10)
        for n in range(10, 15)
        for seed in range(2)
    ])
    assert sum(forks for forks, _ in chains) > 1000
    assert all(not rows for _, rows in chains)
    # where forks meet, at most one sparse row per fork, and fewer in all
    ave_heavy = (0.15, 0.15, 0.6, 0.1)
    heavy = _fork_systems(monkeypatch, [
        generate(GeneratorSpec(n=n, family=Family.RANDOM, seed=seed, proportions=ave_heavy))
        for n in (40, 80)
        for seed in range(3)
    ])
    assert all(len(rows) <= forks for forks, rows in heavy)
    assert max(len(rows) for _, rows in heavy) > 3
    assert max(len(row) for _, rows in heavy for row in rows) <= 3
    assert 0 < sum(len(rows) for _, rows in heavy) < sum(forks for forks, _ in heavy)


# --- integer comparisons -------------------------------------------------


def _probe_vectors(game, answer, rng):
    """The answer, then vectors near it that break or tie its equations:
    one entry moved by +-1/(2 den), two sink entries swapped, all-equal
    vectors, and integral entries as ints or the whole vector as a dict."""
    yield answer
    for v in rng.sample(range(game.n), min(game.n, 4)):
        for step in (1, -1):
            moved = list(answer)
            moved[v] += Fraction(step, 2 * answer[v].denominator)
            yield tuple(moved)
    sinks = game.sink_vertices
    if len(sinks) > 1:
        a, b = rng.sample(sinks, 2)
        swapped = list(answer)
        swapped[a], swapped[b] = answer[b], answer[a]
        yield tuple(swapped)
    for tie in (0, 1, Fraction(1, 3), answer[rng.randrange(game.n)]):
        yield (tie,) * game.n
    yield tuple(int(x) if x.denominator == 1 else x for x in answer)
    yield {v: answer[v] for v in reversed(range(game.n))}


def _integer_comparison_corpus():
    ave_heavy = (0.15, 0.15, 0.6, 0.1)
    return (
        game_stream(25, max_n=9, seed=83, stopping=True, proportions=ave_heavy)
        + game_stream(15, max_n=9, seed=89, stopping=False, proportions=ave_heavy)
        + game_stream(15, family=Family.MAX_ACYCLIC, max_n=9, seed=97)
        + game_stream(15, family=Family.DAG_PLUS_K, min_n=8, max_n=12, seed=101, k=2)
    )


def test_integer_comparisons_match_the_fraction_operators():
    # every solver's answer, and vectors near it, read the same through
    # the integer comparisons as through Fraction's own operators
    vectors = violated = tied = 0
    for g in _integer_comparison_corpus():
        rng = random.Random(g.n * 7919 + len(g.ave_vertices))
        answers = []
        for name in SOLVERS:
            try:
                answers.append(run_algorithm(g, name).values)
            except PreconditionError:
                continue
        assert answers, "every game has an answer from some solver"
        positional = g.max_vertices + g.min_vertices
        strategies = [
            Strategy(owner, {v: rng.choice(g.succs[v]) for v in g.owned_vertices(owner)})
            for owner in (Player.MAX, Player.MIN)
        ]
        for answer in answers:
            for w in _probe_vectors(g, answer, rng):
                vectors += 1
                report = check_local_optimality(g, w)
                assert report == ref_check_local_optimality(g, w)
                violated += not report.satisfied
                for v in range(g.n):
                    assert one_step_value(g, w, v) == ref_one_step_value(g, w, v)
                for v in positional:
                    kind, succs = g.kinds[v], g.succs[v]
                    tied += len({w[s] for s in succs}) < len(set(succs))
                    assert argbest(kind, succs, w) == ref_argbest(kind, succs, w)
                for strategy in strategies:
                    assert switchable(g, strategy, w) == ref_switchable(g, strategy, w)
    assert vectors > 4000 and vectors - violated > 1000 and violated > 3000 and tied > 3000


def test_check_local_optimality_builds_values_only_where_it_fails(monkeypatch):
    g = generate(GeneratorSpec(n=240, family=Family.ACYCLIC, seed=3))
    answer = run_algorithm(g, "acyclic").values
    calls = []

    def counting(game, w, v):
        calls.append(v)
        return one_step_value(game, w, v)

    monkeypatch.setattr(evaluation, "one_step_value", counting)
    assert check_local_optimality(g, answer).satisfied
    assert calls == []
    broken = list(answer)
    for v in (g.n // 4, g.n // 2, 3 * g.n // 4):
        broken[v] += Fraction(1, 3)
    report = check_local_optimality(g, tuple(broken))
    assert len(report.violations) >= 3
    assert calls == [bad.vertex for bad in report.violations]


@pytest.mark.parametrize("indexed", [tuple, lambda w: dict(enumerate(w))], ids=["tuple", "dict"])
def test_values_that_are_not_exact_are_refused_naming_the_vertex(indexed):
    # 0.5 == HALF * (0 + 1), so a float here would pass a Fraction check
    g = game_of([("ave", 1, 2), ("max", 3, 4), ("sink", 0), ("sink", 0), ("sink", 1)])
    w = indexed([0.5, Fraction(1), Fraction(0), Fraction(0), Fraction(1)])
    with pytest.raises(PreconditionError, match=r"vertex 0: 0\.5 is not an int or a Fraction"):
        check_local_optimality(g, w)
    with pytest.raises(PreconditionError, match="vertex 0: 0.5"):
        greedy_strategies(g, w)
    w = indexed([Fraction(1, 2), Fraction(1), Fraction(0), 0.0, Fraction(1)])
    with pytest.raises(PreconditionError, match="vertex 3: 0.0"):
        check_local_optimality(g, w)
    with pytest.raises(PreconditionError, match="vertex 3: 0.0"):
        argbest(VertexKind.MAX, g.succs[1], w)
    with pytest.raises(PreconditionError, match="vertex 3: 0.0"):
        one_step_value(g, w, 1)
    with pytest.raises(PreconditionError, match="vertex 3: 0.0"):
        switchable(g, Strategy(Player.MAX, {1: 4}), w)
    w = indexed([Fraction(1, 2), Fraction(1), "0", Fraction(0), Fraction(1)])
    with pytest.raises(PreconditionError, match="vertex 2: '0'"):
        one_step_value(g, w, 0)


def test_check_stopping_runs_once_per_game(monkeypatch):
    fixpoints = []
    original = evaluation.attractor

    def counting(arcs, need, seeds):
        fixpoints.append(len(arcs))
        return original(arcs, need, seeds)

    monkeypatch.setattr(evaluation, "attractor", counting)
    g = game_of([("max", 2, 1), ("min", 3, 0), ("sink", 1), ("sink", 0)])
    first = check_stopping(g)
    assert check_stopping(g) is first
    assert not first.stopping and fixpoints == [4]
    # an equal game built apart keeps its own report
    copy = g.replace()
    assert check_stopping(copy) == first and fixpoints == [4, 4]
