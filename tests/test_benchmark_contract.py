"""Names the benchmark tracer (perfbench/tracer.py) rebinds or reads.

The tracer times layers by rebinding module globals by name, so a layer
renamed or deleted here would silently drop out of its traces.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from ssg import structure
from ssg.cli import RunReport
from ssg.iteration import HKTrace
from ssg.model import game_of

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
