"""Names the benchmark tracer (perfbench/tracer.py) rebinds or reads.

The tracer times layers by rebinding module globals by name, so a layer
renamed or deleted here would silently drop out of its traces.
"""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import sys
from collections import Counter
from pathlib import Path

from helpers import game_stream
from ssg import cli, evaluation, iteration, solvers, structure
from ssg.cli import RunReport
from ssg.generate import Family, GeneratorSpec, generate
from ssg.iteration import HKTrace
from ssg.model import Player, Strategy, game_of

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    traced = load_tracer().TRACED
    assert traced
    missing = [
        f"{home}.{name}"
        for home, name in traced
        if not callable(getattr(importlib.import_module(f"ssg.{home}"), name, None))
    ]
    assert missing == []


def test_every_auto_pick_is_counted_and_registered():
    # the tracer counts auto's picks per name in PICKABLE, so a pick
    # missing there would drop out of the per-layer counts silently
    tree = ast.parse(inspect.getsource(cli.choose_algorithm))
    returns = [node.value for node in ast.walk(tree) if isinstance(node, ast.Return)]
    assert all(isinstance(value, ast.Constant) for value in returns)
    picks = [value.value for value in returns]
    assert sorted(picks) == sorted(load_tracer().PICKABLE)
    assert all(pick in cli.SOLVERS for pick in picks)


def test_traced_results_keep_their_work_counts():
    assert {"iterations", "subsolver_calls"} <= {f.name for f in dataclasses.fields(RunReport)}
    assert "iterations" in {f.name for f in dataclasses.fields(HKTrace)}


def test_game_structure_goes_through_the_traced_analyze_once(monkeypatch):
    # the tracer counts analyses by rebinding structure.analyze, so the
    # cache on the game must look it up there, and only on first use
    calls = []
    analyze = structure.analyze

    def counting(game):
        calls.append(game)
        return analyze(game)

    monkeypatch.setattr(structure, "analyze", counting)
    g = game_of([("ave", 1, 2), ("ave", 0, 3), ("sink", 0), ("sink", 1)])
    first = g.structure
    assert calls == [g]
    assert g.structure is first
    assert calls == [g]
    assert first == analyze(g)


def test_strategy_iteration_calls_go_through_the_traced_names(monkeypatch):
    # the tracer rebinds iteration.best_response_min and evaluation.evaluate;
    # every evaluate call runs chain_values once, so an evaluate call that
    # bypassed the rebinding would show up as an extra chain_values call
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    for module, name in (
        (iteration, "best_response_min"),
        (evaluation, "evaluate"),
        (evaluation, "chain_values"),
    ):
        count(module, name)
    g = generate(GeneratorSpec(n=9, family=Family.RANDOM, seed=11))
    trace = iteration.hoffman_karp(g, require_stopping=False)
    assert trace.iterations == 2
    assert calls["best_response_min"] == trace.iterations + 1
    assert calls["evaluate"] == calls["chain_values"] > calls["best_response_min"]
    calls.clear()
    tau = Strategy(Player.MIN, {v: min(g.succs[v]) for v in g.min_vertices})
    evaluation.best_response_max(g, tau)
    assert calls["evaluate"] == calls["chain_values"] > 0


def test_component_solves_go_through_the_traced_names(monkeypatch):
    # the tracer counts solves by rebinding solvers.closed_values and
    # solvers.solve_acyclic; a default argument or a local alias bound to
    # the original would run its code without passing the rebinding, so
    # the profiler's count of runs must equal the rebinding's count of calls
    names = ("closed_values", "solve_acyclic")
    codes = {getattr(solvers, name).__code__: name for name in names}
    ran = Counter()
    seen = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            ran[codes[frame.f_code]] += 1

    for name in names:
        original = getattr(solvers, name)

        def counting(*args, _name=name, _original=original):
            seen[_name] += 1
            return _original(*args)

        monkeypatch.setattr(solvers, name, counting)
    cycles = [
        g
        for g in game_stream(30, family=Family.SINGLE_CYCLE, min_n=3, max_n=10, seed=47)
        if not (g.structure.k_p or g.structure.k_a)
    ]
    fork_games = game_stream(
        30, family=Family.DAG_PLUS_K, min_n=7, max_n=12, seed=59, stopping=True, k=2
    )
    for solve, games in (
        (solvers.solve_almost_acyclic_scc, cycles),
        (solvers.solve_fork_fpt, fork_games),
    ):
        ran.clear()
        seen.clear()
        sys.setprofile(profile)
        try:
            for g in games:
                solve(g)
        finally:
            sys.setprofile(None)
        assert seen == ran
        assert all(ran[name] > 0 for name in names)


def test_feedback_subsolver_calls_are_the_traced_acyclic_solves():
    # the tracer reads dichotomy.subsolver_calls from the registry's count
    # and solvers.solve_acyclic.calls from its rebinding; both count the
    # same subsolves however the bisection recursion is shaped
    games = game_stream(
        4, family=Family.DAG_PLUS_K, min_n=8, max_n=12, seed=61, stopping=True, k=2
    ) + [
        g
        for g in game_stream(
            30, min_n=8, max_n=11, seed=91, stopping=True, proportions=(0.15, 0.15, 0.6, 0.1)
        )
        if len(structure.feedback_vertex_set(g, 3) or ()) == 3
    ][:4]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        reports = [cli.run_algorithm(g, "feedback") for g in games]
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    calls = sum(report.subsolver_calls for report in reports)
    assert len(games) == 8 and calls > 0
    assert metrics["dichotomy.subsolver_calls"] == calls
    assert metrics["solvers.solve_acyclic.calls"] == calls
