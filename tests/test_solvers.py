"""Component-based exact solvers, from acyclic games up to fork games."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import closed_profile, game_stream, hand_system
from ssg import solvers, structure
from ssg.cli import run_algorithm
from ssg.errors import InternalInvariantError, NotStoppingError, PreconditionError
from ssg.evaluation import check_stopping, evaluate, greedy_strategies
from ssg.generate import Family, GeneratorSpec, generate
from ssg.model import VertexKind, game_of
from ssg.oracle import oracle_solve
from ssg.solvers import (
    closed_values,
    solve_acyclic,
    solve_almost_acyclic_scc,
    solve_by_scc,
    solve_fork_fpt,
    solve_max_acyclic_scc,
)
from ssg.structure import analyze


F = Fraction


def two_ave_cycle():
    return game_of([("ave", 1, 2), ("ave", 0, 3), ("sink", 0), ("sink", 1)])


def ave_fork_triangle():
    return game_of([
        ("ave", 1, 2),
        ("ave", 0, 4),
        ("ave", 0, 5),
        ("sink", 0),
        ("sink", F(1, 4)),
        ("sink", F(3, 4)),
    ])


# --- acyclic -----------------------------------------------------------


def test_solve_acyclic_caterpillar():
    g = game_of([
        ("ave", 1, 4),
        ("ave", 2, 4),
        ("ave", 3, 4),
        ("sink", 1),
        ("sink", 0),
    ])
    values = solve_acyclic(g)
    assert values[0] == F(1, 8)
    assert values[1] == F(1, 4)
    assert values[2] == F(1, 2)


def test_solve_acyclic_refuses_cycles():
    with pytest.raises(PreconditionError):
        solve_acyclic(two_ave_cycle())


def test_solve_acyclic_matches_oracle():
    for g in game_stream(30, family=Family.ACYCLIC, seed=41):
        assert solve_acyclic(g) == oracle_solve(g).values


# --- componentwise driver ----------------------------------------------


def test_solve_by_scc_layers_component_values():
    g = game_of([
        ("max", 1, 2),
        ("min", 0, 3),
        ("ave", 3, 4),
        ("ave", 2, 4),
        ("sink", F(1, 2)),
    ])
    values = solve_by_scc(g, solve_almost_acyclic_scc)
    assert values == oracle_solve(g).values


def test_solve_by_scc_keeps_smallest_id_ties_across_the_frontier():
    # MAX vertex 2 leaves its cycle for sink 0 or solved vertex 6, both
    # worth 1/2; the frontier sink has a smaller id than the component
    g = game_of([
        ("sink", F(1, 2)),
        ("sink", F(1, 4)),
        ("max", 3, 6, 0),
        ("min", 4, 7, 0),
        ("ave", 2, 1),
        ("sink", F(3, 4)),
        ("ave", 5, 1),
        ("sink", F(1, 2)),
    ])
    values = solve_by_scc(g, solve_almost_acyclic_scc)
    oracle = oracle_solve(g).values
    assert values == oracle
    assert values == (F(1, 2), F(1, 4), F(1, 2), F(3, 8), F(3, 8), F(3, 4), F(1, 2), F(1, 2))
    pair = greedy_strategies(g, values)
    assert pair == greedy_strategies(g, oracle)
    assert pair.sigma.choice == {2: 0}
    assert pair.tau.choice == {3: 4}


def test_solve_by_scc_rejects_dishonest_component_values():
    g = two_ave_cycle()

    def wrong(cgame):
        return tuple(F(1) for _ in range(cgame.n))

    with pytest.raises(InternalInvariantError):
        solve_by_scc(g, wrong)


def cycle_chain(blocks: int):
    """b two-vertex cycles in a row: MAX 2i -> (2i+1, 2i+2), AVE
    2i+1 -> (2i, 2i+2), and the last block leaves into sink 1/3."""
    rows = []
    for i in range(blocks):
        rows += [("max", 2 * i + 1, 2 * i + 2), ("ave", 2 * i, 2 * i + 2)]
    return game_of(rows + [("sink", F(1, 3))])


def record_analyses(monkeypatch) -> list:
    """Every game that goes through structure.analyze, in call order."""
    seen = []

    def recording_analyze(game):
        seen.append(game)
        return analyze(game)

    monkeypatch.setattr(structure, "analyze", recording_analyze)
    return seen


@pytest.mark.parametrize("blocks", [100, 1000])
def test_auto_analyses_only_the_input_game(monkeypatch, blocks):
    # a count, not a clock: component games inherit their report from
    # the input game's, so no component is analysed again
    seen = record_analyses(monkeypatch)
    g = cycle_chain(blocks)
    report = run_algorithm(g, "auto")
    assert report.algorithm == "almost_acyclic"
    assert report.values[0] == F(1, 3)
    assert len(seen) == 1
    assert sum(game.n for game in seen) == g.n


@pytest.mark.parametrize("seed", [71, 117, 133])
def test_fork_recursion_analyses_each_game_once(monkeypatch, seed):
    # seed 133 opens AVE forks in nested recursions: 13 analyses of 10
    # games when every layer analysed its game again
    g = generate(GeneratorSpec(n=12, family=Family.DAG_PLUS_K, seed=seed, k=1))
    seen = record_analyses(monkeypatch)
    assert solve_fork_fpt(g) == oracle_solve(g).values
    assert len(seen) == len({id(game) for game in seen}) >= 1


# --- closed evaluation --------------------------------------------------


def test_closed_values_two_ave_cycle():
    g = two_ave_cycle()
    values = closed_values(g, analyze(g))
    assert values[0] == F(1, 3)
    assert values[1] == F(2, 3)


def test_closed_values_fork_system():
    g = ave_fork_triangle()
    values = closed_values(g, analyze(g))
    assert values[0] == F(1, 2)
    assert values[1] == F(3, 8)
    assert values[2] == F(5, 8)


def test_closed_values_zero_trap():
    g = game_of([("min", 0, 1), ("sink", 1)])
    values = closed_values(g, analyze(g))
    assert values[0] == 0
    assert values[1] == 1


def test_closed_values_rejects_positional_forks():
    g = game_of([
        ("max", 1, 2),
        ("ave", 0, 3),
        ("ave", 0, 4),
        ("sink", F(1, 3)),
        ("sink", F(2, 3)),
    ])
    with pytest.raises(PreconditionError):
        closed_values(g, analyze(g))


def test_closed_values_match_hand_system_and_evaluation():
    checked = 0
    for g in game_stream(60, family=Family.SINGLE_CYCLE, min_n=3, max_n=14, seed=43):
        report = analyze(g)
        values = closed_values(g, report)
        sigma, tau = closed_profile(g, report)
        assert evaluate(g, sigma, tau) == values
        cycle = sorted({v for v, _ in report.cycle_arcs})
        escaping = any(
            g.kinds[v] is VertexKind.AVE
            and any(g.is_sink(s) for s in g.succs[v])
            for v in cycle
        )
        if escaping:
            sol = hand_system(g, report)
            assert all(values[v] == sol[v] for v in cycle)
            checked += 1
        else:
            assert all(values[v] == 0 for v in cycle)
    assert checked >= 20


# --- single strongly connected cycles ------------------------------------


def test_almost_acyclic_closed_case():
    values = solve_almost_acyclic_scc(two_ave_cycle())
    assert values[0] == F(1, 3) and values[1] == F(2, 3)


def test_almost_acyclic_max_stays_on_cycle():
    g = game_of([("max", 1, 2), ("ave", 0, 3), ("sink", F(1, 2)), ("sink", 1)])
    values = solve_almost_acyclic_scc(g)
    assert values[0] == 1 and values[1] == 1


def test_almost_acyclic_max_opens():
    g = game_of([("max", 1, 2), ("ave", 0, 3), ("sink", F(1, 2)), ("sink", 0)])
    values = solve_almost_acyclic_scc(g)
    # staying on the cycle is worth 1/4 at the fork, leaving pays 1/2
    assert values[0] == F(1, 2)
    assert values[1] == F(1, 4)


def test_almost_acyclic_min_opens():
    g = game_of([("min", 1, 2), ("ave", 0, 3), ("sink", F(1, 2)), ("sink", 1)])
    values = solve_almost_acyclic_scc(g)
    assert values[0] == F(1, 2)
    assert values[1] == F(3, 4)


def test_almost_acyclic_rejects_forks():
    with pytest.raises(PreconditionError):
        solve_almost_acyclic_scc(ave_fork_triangle())


def test_almost_acyclic_rejects_disconnected_cycles():
    g = game_of([
        ("max", 0, 1),
        ("min", 1, 2),
        ("sink", F(1, 2)),
    ])
    with pytest.raises(PreconditionError):
        solve_almost_acyclic_scc(g)


def test_almost_acyclic_matches_oracle():
    # non-stopping cycles are where the side order and the MAX-side
    # invariant matter, so both kinds must stay in the corpus
    checked = {True: 0, False: 0}
    for g in game_stream(40, family=Family.SINGLE_CYCLE, min_n=3, max_n=10, seed=47):
        report = analyze(g)
        if report.k_p or report.k_a:
            continue
        values = solve_by_scc(g, solve_almost_acyclic_scc)
        assert values == oracle_solve(g).values
        checked[check_stopping(g).stopping] += 1
    assert checked[True] >= 20 and checked[False] >= 10


def test_almost_acyclic_fall_through_errors(monkeypatch):
    monkeypatch.setattr(
        solvers, "check_local_optimality", lambda game, values: SimpleNamespace(satisfied=False)
    )
    stopping = game_of([("max", 1, 2), ("ave", 0, 3), ("sink", F(1, 2)), ("sink", 0)])
    with pytest.raises(InternalInvariantError, match="no opening was optimal"):
        solve_almost_acyclic_scc(stopping)
    trap = game_of([("max", 1, 2), ("min", 0, 3), ("sink", F(1, 2)), ("sink", F(1, 4))])
    with pytest.raises(InternalInvariantError, match="MAX side failed"):
        solve_almost_acyclic_scc(trap)


# --- strongly connected, MAX never forks ---------------------------------


def test_max_acyclic_frozen():
    g = game_of([
        ("max", 1, 3),
        ("min", 2, 4),
        ("max", 0, 5),
        ("sink", F(1, 2)),
        ("sink", F(1, 4)),
        ("sink", 1),
    ])
    values = solve_max_acyclic_scc(g)
    assert values[0] == F(1, 2)
    assert values[1] == F(1, 4)
    assert values[2] == 1


def test_max_acyclic_rejects_max_forks():
    g = game_of([
        ("max", 1, 2),
        ("ave", 0, 3),
        ("ave", 0, 4),
        ("sink", F(1, 3)),
        ("sink", F(2, 3)),
    ])
    with pytest.raises(PreconditionError):
        solve_max_acyclic_scc(g)


def test_max_acyclic_matches_oracle():
    for g in game_stream(30, family=Family.MAX_ACYCLIC, min_n=4, max_n=8, seed=53):
        values = solve_by_scc(g, solve_max_acyclic_scc)
        assert values == oracle_solve(g).values


# --- few forks of either kind --------------------------------------------


def test_fork_fpt_positional_fork():
    g = game_of([
        ("max", 1, 2),
        ("ave", 0, 3),
        ("ave", 0, 4),
        ("sink", F(1, 3)),
        ("sink", F(2, 3)),
    ])
    values = solve_fork_fpt(g)
    assert values[0] == F(2, 3)
    assert values[1] == F(1, 2)
    assert values[2] == F(2, 3)


def test_fork_fpt_average_fork():
    g = game_of([
        ("ave", 1, 2),
        ("max", 0, 4),
        ("ave", 0, 5),
        ("sink", F(1, 2)),
        ("sink", 1),
        ("sink", 0),
    ])
    values = solve_fork_fpt(g)
    assert values[0] == F(2, 3)
    assert values[1] == 1
    assert values[2] == F(1, 3)


def test_fork_fpt_pure_average_forks():
    g = ave_fork_triangle()
    assert solve_fork_fpt(g) == closed_values(g, analyze(g))


def test_fork_fpt_requires_stopping():
    trap = game_of([("max", 2, 1), ("min", 3, 0), ("sink", 1), ("sink", 0)])
    with pytest.raises(NotStoppingError):
        solve_fork_fpt(trap)


def test_fork_fpt_matches_oracle_on_random_games():
    for g in game_stream(60, seed=59, stopping=True):
        assert solve_fork_fpt(g) == oracle_solve(g).values


def test_fork_recursion_refuses_an_opening_that_keeps_its_forks(monkeypatch):
    # with openings that open nothing, every opened game keeps the
    # component's average fork weight, so the recursion must stop there
    monkeypatch.setattr(solvers, "_opened", lambda game, report, v, kind: game)
    raised = 0
    for seed in range(200):
        for n in range(10, 13):
            g = generate(GeneratorSpec(n=n, family=Family.DAG_PLUS_K, seed=seed, k=1))
            if g.structure.k_a == 0 or not check_stopping(g).stopping:
                continue
            try:
                solve_fork_fpt(g)
            except InternalInvariantError as exc:
                assert "average fork weight went from" in str(exc)
                raised += 1
    assert raised >= 20


def test_fork_opening_takes_the_nearest_escape_before_the_fork(monkeypatch):
    # AVE fork 0 -> 1, 2; cycles 0 -> 1 -> 3 -> 0 and 0 -> 2 -> 4 -> 0.
    # MAX 3 and 4 escape one step before the fork, MAX 1 two steps
    # before it, and AVE 2 leaks to the 0-sink, so the game stops
    g = game_of([
        ("ave", 1, 2),
        ("max", 3, 5),
        ("ave", 4, 6),
        ("max", 0, 5),
        ("max", 0, 5),
        ("sink", 1),
        ("sink", 0),
    ])
    assert sorted(g.structure.fork_average) == [0]
    assert check_stopping(g).stopping
    opened = []
    original = solvers._opened

    def recording(game, report, v, kind):
        opened.append(v)
        return original(game, report, v, kind)

    monkeypatch.setattr(solvers, "_opened", recording)
    assert solve_fork_fpt(g) == oracle_solve(g).values
    assert opened[0] == 3
