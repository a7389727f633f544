"""Names the benchmark tracer (perfbench/tracer.py) rebinds or reads.

The tracer times layers by rebinding module globals by name, so a layer
renamed or deleted here would silently drop out of its traces.
"""

import dataclasses
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from ssg import evaluation, iteration, structure
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
