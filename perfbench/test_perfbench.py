"""Checks of the benchmark harness itself.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import run
from tracer import Tracer
from workloads import WORKLOADS, build_requests

EXACT = [
    "structure.analyze.vertices",
    "evaluation.solve_linear_system.dim_sum",
    "solvers.solve_acyclic.calls",
    "dichotomy.subsolver_calls",
    "iteration.hoffman_karp.iterations",
]

# the exact count each workload is built to drive
DRIVEN = {
    "scc_chain": "structure.analyze.vertices",
    "hk_stopping": "evaluation.solve_linear_system.dim_sum",
    "feedback_bisect": "dichotomy.subsolver_calls",
    "auto_mix": "cli.choose_algorithm.picked.almost_acyclic",
}


def traced_counts(name: str, seed: int, count: int) -> dict:
    ssg = run.load_program()
    loop = run.Loop(ssg, build_requests(WORKLOADS[name], seed)[:count])
    tracer = Tracer()
    tracer.install()
    try:
        loop.run(count, None, tracer)
    finally:
        tracer.uninstall()
    assert loop.wrong == 0 and loop.errors == 0
    picked = "cli.choose_algorithm.picked."
    return {k: v for k, v in tracer.metrics().items() if k in EXACT or k.startswith(picked)}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_work_counts_repeat_across_traced_runs(name):
    first = traced_counts(name, 3, 6)
    second = traced_counts(name, 3, 6)
    assert first == second
    assert first[DRIVEN[name]] > 0


def test_request_lists_are_a_function_of_the_seed():
    for workload in WORKLOADS.values():
        assert build_requests(workload, 5) == build_requests(workload, 5)
        assert build_requests(workload, 5) != build_requests(workload, 6)


def test_failures_are_recorded_and_the_loop_goes_on(monkeypatch):
    ssg = run.load_program()
    requests = build_requests(WORKLOADS["scc_chain"], 0)[:2]
    real = ssg.cli.run_algorithm
    outcomes = iter([ssg.InternalInvariantError("boom"), ssg.PreconditionError("no"), None, None])

    def flaky(game, name):
        failure = next(outcomes)
        if failure is not None:
            raise failure
        return real(game, name)

    monkeypatch.setattr(ssg.cli, "run_algorithm", flaky)
    loop = run.Loop(ssg, requests)
    loop.run(4, None)
    assert (loop.attempted, loop.errors, loop.refused, loop.answered) == (4, 1, 1, 2)
    assert loop.wrong == 0


def test_watchdog_ends_the_loop_and_keeps_its_rows(monkeypatch):
    ssg = run.load_program()
    requests = build_requests(WORKLOADS["scc_chain"], 0)[:1]
    real = ssg.cli.run_algorithm
    calls = []

    def slow_second(game, name):
        calls.append(name)
        if len(calls) == 2:
            time.sleep(5)
        return real(game, name)

    monkeypatch.setattr(ssg.cli, "run_algorithm", slow_second)
    previous = signal.signal(signal.SIGALRM, run._watchdog)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        loop = run.Loop(ssg, requests)
        loop.run(3, None)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert loop.stopped and (loop.attempted, loop.answered) == (1, 1)


def test_certify_rejects_wrong_values():
    ssg = run.load_program()
    stopping = ssg.game_of([("max", 1, 2), ("ave", 0, 2), ("sink", Fraction(1, 3))])
    assert run.certify(ssg, stopping, (Fraction(1, 3),) * 3) is None
    assert run.certify(ssg, stopping, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 3)))
    # MAX and MIN pass the play back and forth forever: worth 0, though
    # 1/2 everywhere satisfies every local equation
    circling = ssg.game_of([("max", 1), ("min", 0, 2), ("sink", Fraction(1, 2))])
    assert run.certify(ssg, circling, (Fraction(0), Fraction(0), Fraction(1, 2))) is None
    assert run.certify(ssg, circling, (Fraction(1, 2),) * 3)


def test_certify_accepts_values_greedy_ties_would_stall_on():
    ssg = run.load_program()
    # vertex 0 ties between 1 (circles back) and 2 (reaches the sink);
    # the smallest-id greedy choice would never stop
    game = ssg.game_of([("max", 1, 2), ("min", 0), ("ave", 3, 3), ("sink", Fraction(1, 2))])
    values = (Fraction(1, 2),) * 4
    assert ssg.oracle_solve(game).values == values
    assert run.certify(ssg, game, values) is None


def test_traced_run_reports_every_per_layer_metric():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scc_chain", "--seed", "1",
         "--seconds", "0.1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
