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
from ssg.iteration import hoffman_karp
from ssg.model import Game, VertexKind, game_of
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


def test_solve_acyclic_waits_for_every_duplicate_arc():
    # vertex 0 lists 2 twice and 1 once, and 1 is solved two rounds
    # after 2: counting distinct successors would solve 0 too early
    g = game_of([
        ("max", 2, 2, 1),
        ("ave", 3, 4),
        ("min", 5, 5),
        ("min", 5, 6),
        ("ave", 3, 6),
        ("sink", F(1, 3)),
        ("sink", 1),
    ])
    values = solve_acyclic(g)
    assert values == oracle_solve(g).values
    assert values[:5] == (F(1, 2), F(1, 2), F(1, 3), F(1, 3), F(2, 3))


def test_solve_acyclic_refuses_cycles():
    with pytest.raises(PreconditionError, match="sink-free cycle"):
        solve_acyclic(two_ave_cycle())


@pytest.mark.parametrize("rows", [
    [("max", 0, 1), ("sink", 1)],  # a self-loop off a sink
    [("max", 1, 1), ("ave", 2, 3), ("ave", 1, 3), ("sink", 0)],  # 0 only reaches a cycle
])
def test_solve_acyclic_refuses_loops_and_what_reaches_a_cycle(rows):
    with pytest.raises(PreconditionError, match="sink-free cycle"):
        solve_acyclic(game_of(rows))


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


def test_component_games_carry_their_sink_list(monkeypatch):
    # a count, not a clock: component_game hands each component game its
    # sink list with its report, so no component game scans its kinds
    seen = record_analyses(monkeypatch)
    scanned = []
    vertices_of = Game.vertices_of

    def recording_vertices_of(game, kind):
        scanned.append((game, kind))
        return vertices_of(game, kind)

    monkeypatch.setattr(Game, "vertices_of", recording_vertices_of)
    g = cycle_chain(100)
    assert run_algorithm(g, "almost_acyclic").values[0] == F(1, 3)
    assert seen == [g]
    assert [game for game, kind in scanned if game is not g and kind is VertexKind.SINK] == []


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


def test_closed_values_reads_only_the_report_it_is_given(monkeypatch):
    calls = []
    analyze = structure.analyze

    def counting(game):
        calls.append(game)
        return analyze(game)

    monkeypatch.setattr(structure, "analyze", counting)
    g = two_ave_cycle()
    assert closed_values(g, structure.analyze(g)) == (F(1, 3), F(2, 3), F(0), F(1))
    assert calls == [g]


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


def test_almost_acyclic_rejects_a_tail_off_the_cycle():
    # AVE 2 enters the single cycle 0 <-> 1 but lies on no cycle itself
    g = game_of([("ave", 1, 3), ("ave", 0, 3), ("ave", 0, 3), ("sink", F(1, 2))])
    with pytest.raises(PreconditionError, match="one strongly connected component plus sinks"):
        solve_almost_acyclic_scc(g)


@pytest.mark.parametrize("solver", [solve_almost_acyclic_scc, solve_max_acyclic_scc])
@pytest.mark.parametrize(
    "rows, message",
    [
        # two disjoint two-vertex cycles, each leaving into the sink
        (
            [("max", 1, 4), ("ave", 0, 4), ("min", 3, 4), ("ave", 2, 4), ("sink", F(1, 2))],
            "more than one strongly connected component",
        ),
        # AVE 2 enters the single cycle 0 <-> 1 but lies on no cycle itself
        (
            [("ave", 1, 3), ("ave", 0, 3), ("ave", 0, 3), ("sink", F(1, 2))],
            "expected one strongly connected component plus sinks",
        ),
        # both faults at once: the tail is named first
        (
            [("max", 1, 4), ("ave", 0, 4), ("min", 3, 4), ("ave", 2, 4), ("sink", F(1, 2)),
             ("ave", 0, 4)],
            "expected one strongly connected component plus sinks",
        ),
    ],
)
def test_one_cycle_solvers_name_what_is_not_one_component(rows, message, solver):
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        solver(game_of(rows))


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


def fork_corpus():
    """Stopping games with 0 < k_p + k_a <= 10 from three families, n = 12-24."""
    for n in range(12, 25, 4):
        for seed in range(40):
            specs = [
                GeneratorSpec(n=n, family=Family.DAG_PLUS_K, seed=seed, k=k) for k in (1, 2, 3)
            ] + [
                GeneratorSpec(
                    n=n, family=Family.RANDOM, seed=seed, proportions=(0.25, 0.25, 0.4, 0.1)
                ),
                GeneratorSpec(n=n, family=Family.MAX_ACYCLIC, seed=seed),
            ]
            for spec in specs:
                g = generate(spec)
                weight = g.structure.k_p + g.structure.k_a
                if 0 < weight <= 10 and check_stopping(g).stopping:
                    yield g


def test_fork_recursion_stays_within_its_counted_solves(monkeypatch):
    # a count, not a clock: each branch of positional forks starts with
    # closed values, and each opening ends in acyclic solves once its
    # AVE forks are gone; the totals pin how many the recursion makes
    calls = {"closed": 0, "acyclic": 0}

    def counting(name, solver):
        def counted(*args):
            calls[name] += 1
            return solver(*args)
        return counted

    monkeypatch.setattr(solvers, "closed_values", counting("closed", solvers.closed_values))
    monkeypatch.setattr(solvers, "solve_acyclic", counting("acyclic", solvers.solve_acyclic))
    games = positional = average = 0
    for g in fork_corpus():
        assert solve_fork_fpt(g) == hoffman_karp(g).values
        games += 1
        positional += g.structure.k_p > 0
        average += g.structure.k_a > 0
    assert (games, positional, average) == (150, 109, 95)
    assert calls == {"closed": 355, "acyclic": 82}


def nominee_ladder(n: int, spots: int = 12) -> Game:
    """An n-cycle with `spots` escaping MAX vertices and an AVE leak to
    the 0-sink between each two; only the last MAX escape reaches the
    1-sink, so the opener (vertex 0) is wrong and its solution nominates
    the last one, past ten escapes that would lose."""
    every, rows = n // spots, []
    for v in range(n):
        onward = (v + 1) % n
        if v % every == 0:
            rows.append(("max", onward, n + (v // every == spots - 1)))
        elif v % every == every // 2:
            rows.append(("ave", onward, n))
        else:
            rows.append(("max", onward))
    return game_of(rows + [("sink", 0), ("sink", 1)])


def test_a_fork_free_component_stays_within_its_stated_solves(monkeypatch):
    # a count, not a clock: _fork_component's docstring allows a
    # fork-free component one closed_values call and at most two
    # solve_acyclic calls per side; trying every escaping vertex in
    # place of the nominees breaks that bound on this corpus
    calls = {"closed": 0, "acyclic": 0}
    per_component = []

    def counting(name, solver):
        def counted(*args):
            calls[name] += 1
            return solver(*args)
        return counted

    fork_component = solvers._fork_component

    def recording(cgame):
        before = dict(calls)
        w = fork_component(cgame)
        if not (cgame.structure.k_p or cgame.structure.k_a):
            per_component.append(tuple(calls[k] - before[k] for k in ("closed", "acyclic")))
        return w

    monkeypatch.setattr(solvers, "closed_values", counting("closed", solvers.closed_values))
    monkeypatch.setattr(solvers, "solve_acyclic", counting("acyclic", solvers.solve_acyclic))
    monkeypatch.setattr(solvers, "_fork_component", recording)
    ran = {"single_cycles": {True: 0, False: 0}, "fork_fpt": 0}
    for seed in range(60):
        for n in range(12, 41, 7):
            for spec in (
                GeneratorSpec(n=n, family=Family.SINGLE_CYCLE, seed=seed),
                GeneratorSpec(n=n, family=Family.RANDOM, seed=seed),
                GeneratorSpec(
                    n=n, family=Family.RANDOM, seed=seed, proportions=(0.25, 0.25, 0.4, 0.1)
                ),
                GeneratorSpec(n=n, family=Family.DAG_PLUS_K, seed=seed, k=1 + seed % 3),
            ):
                g = generate(spec)
                report, stopping = g.structure, check_stopping(g).stopping
                if report.is_acyclic:
                    continue
                if report.k_p == report.k_a == 0:
                    solve_by_scc(g, solve_almost_acyclic_scc)
                    ran["single_cycles"][stopping] += 1
                elif stopping and report.k_p + report.k_a <= 10:
                    solve_fork_fpt(g)
                    ran["fork_fpt"] += 1
    assert all(closed == 1 and acyclic <= 4 for closed, acyclic in per_component)
    assert ran == {"single_cycles": {True: 518, False: 42}, "fork_fpt": 97}
    assert len(per_component) == 1098
    assert sum(acyclic >= 2 for _, acyclic in per_component) == 150
    per_component.clear()
    assert solve_by_scc(nominee_ladder(10**4), solve_almost_acyclic_scc)[0] > 0
    assert per_component == [(1, 2)]


def test_fork_recursion_refuses_an_opening_that_keeps_its_forks(monkeypatch):
    # with openings that open nothing, every opened game keeps the
    # component's average fork weight, so the recursion must stop there
    monkeypatch.setattr(solvers, "_opened", lambda game, v, kind: game)
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

    def recording(game, v, kind):
        opened.append(v)
        return original(game, v, kind)

    monkeypatch.setattr(solvers, "_opened", recording)
    assert solve_fork_fpt(g) == oracle_solve(g).values
    assert opened[0] == 3
