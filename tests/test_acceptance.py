"""End-to-end gate: ten cross-checked properties, one output line each.

Run `python3 -m pytest -s tests/test_acceptance.py` to see the lines.
Every comparison is exact rational equality unless a check says
otherwise; the scaling check (C10) warns by default and fails hard only
with SSG_RELEASE_CHECKS=1 in the environment.
"""

from __future__ import annotations

import os
import random
import time
import warnings
from contextlib import contextmanager
from fractions import Fraction

from helpers import closed_profile, game_stream, hand_system, random_pair
from ssg.dichotomy import (
    dichotomy_solve,
    fixed_point_f,
    solve_feedback,
    value_denominator_bound,
)
from ssg.evaluation import check_stopping, evaluate
from ssg.generate import Family, GeneratorSpec, generate
from ssg.iteration import hoffman_karp
from ssg.model import (
    Game,
    Player,
    Strategy,
    VertexKind,
    game_of,
    merge_sink_neighbors,
    validate,
)
from ssg.oracle import oracle_solve
from ssg.solvers import (
    closed_values,
    solve_acyclic,
    solve_almost_acyclic_scc,
    solve_by_scc,
    solve_fork_fpt,
    solve_max_acyclic_scc,
)
from ssg.structure import analyze, feedback_vertex_set


@contextmanager
def criterion(number: int, name: str):
    """Print one PASS/FAIL line for a numbered check."""
    info: dict[str, str] = {}
    try:
        yield info
    except BaseException:
        print(f"C{number} {name}: FAIL")
        raise
    detail = f" ({info['detail']})" if "detail" in info else ""
    print(f"C{number} {name}: PASS{detail}")


def test_c1_every_applicable_solver_matches_the_oracle():
    with criterion(1, "solver_agreement") as info:
        started = time.perf_counter()
        applied = {"dichotomy": 0, "almost_acyclic": 0, "max_acyclic": 0}
        games = game_stream(500, min_n=4, max_n=8, seed=1001, stopping=True)
        for g in games:
            want = oracle_solve(g).values
            assert hoffman_karp(g).values == want
            assert solve_fork_fpt(g) == want
            fvs = feedback_vertex_set(g)
            assert solve_feedback(g, fvs) == want
            if len(fvs) == 1:
                assert dichotomy_solve(g, fvs[0]) == want
                applied["dichotomy"] += 1
            report = analyze(g)
            if report.k_p == 0 and report.k_a == 0:
                assert solve_by_scc(g, solve_almost_acyclic_scc) == want
                applied["almost_acyclic"] += 1
            if report.is_max_acyclic:
                assert solve_by_scc(g, solve_max_acyclic_scc) == want
                applied["max_acyclic"] += 1
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        # the corpus must actually exercise the restricted solvers
        assert applied["dichotomy"] >= 200
        assert applied["almost_acyclic"] >= 300
        assert applied["max_acyclic"] >= 300
        info["detail"] = (
            "500 games; hk, fork, feedback on all; dichotomy "
            f"{applied['dichotomy']}, almost_acyclic {applied['almost_acyclic']}, "
            f"max_acyclic {applied['max_acyclic']}; {elapsed:.1f}s"
        )


def test_c2_caterpillar_root_value_halves_per_level():
    with criterion(2, "caterpillar_root") as info:
        for n in range(1, 13):
            g = generate(GeneratorSpec(n=n, family=Family.CATERPILLAR, seed=0))
            want = Fraction(1, 2**n)
            assert solve_acyclic(g)[0] == want
            assert oracle_solve(g).values[0] == want
            assert dichotomy_solve(g, 0)[0] == want
        info["detail"] = "n = 1..12 under acyclic, oracle and dichotomy"


def test_c3_improvement_steps_stay_within_the_max_count():
    with criterion(3, "improvement_step_bound") as info:
        games = game_stream(
            200, family=Family.MAX_ACYCLIC, min_n=10, max_n=60, seed=2002
        )
        worst = Fraction(0)
        for i, g in enumerate(games):
            merged = merge_sink_neighbors(g)
            report = analyze(merged)
            assert report.is_max_acyclic
            cyclic = {report.component_of[x] for x, _ in report.cycle_arcs}
            assert len(cyclic) == 1
            n_max = len(merged.max_vertices)
            trace = hoffman_karp(merged, require_stopping=False)
            assert trace.iterations <= n_max
            rng = random.Random(7000 + i)
            sigma0 = Strategy(
                Player.MAX,
                {v: rng.choice(merged.succs[v]) for v in merged.max_vertices},
            )
            retrace = hoffman_karp(merged, sigma0, require_stopping=False)
            assert retrace.iterations <= 2 * n_max
            assert retrace.values == trace.values
            worst = max(worst, Fraction(trace.iterations, max(n_max, 1)))
        info["detail"] = f"200 games, n up to 60, worst steps/n_max = {worst}"


def test_c4_evaluation_denominators_respect_the_bound():
    with criterion(4, "denominator_bound") as info:
        corpora = [
            game_stream(150, min_n=4, max_n=9, seed=401),
            game_stream(40, family=Family.SINGLE_CYCLE, min_n=4, max_n=14, seed=402),
            game_stream(40, family=Family.MAX_ACYCLIC, min_n=6, max_n=20, seed=403),
            game_stream(20, family=Family.DAG_PLUS_K, min_n=8, max_n=20, seed=404),
        ]
        rng = random.Random(405)
        checked = 0
        for games in corpora:
            for g in games:
                bound = value_denominator_bound(g)
                for _ in range(3):
                    sigma, tau = random_pair(g, rng)
                    for value in evaluate(g, sigma, tau):
                        assert value.denominator <= bound
                        checked += 1
        for g in game_stream(60, min_n=4, max_n=8, seed=406, stopping=True):
            bound = value_denominator_bound(g)
            for value in oracle_solve(g).values:
                assert value.denominator <= bound
                checked += 1
        info["detail"] = f"{checked} values under fixed and optimal play"


def test_c5_closed_cycle_values_solve_the_linear_system():
    with criterion(5, "cycle_equations") as info:
        checked = 0
        for g in game_stream(
            300, family=Family.SINGLE_CYCLE, min_n=3, max_n=14, seed=505
        ):
            report = analyze(g)
            cycle = sorted({v for v, _ in report.cycle_arcs})
            ell = sum(1 for v in cycle if g.kinds[v] is VertexKind.AVE)
            assert ell <= 12
            values = closed_values(g, report)
            sigma, tau = closed_profile(g, report)
            assert evaluate(g, sigma, tau) == values
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
                # no way off the cycle, so its values vanish
                assert all(values[v] == 0 for v in cycle)
            if checked >= 100:
                break
        assert checked >= 100
        info["detail"] = f"{checked} cycles with an escape arc"


class _CountingSolver:
    """Acyclic subsolver that counts how often it is invoked."""

    def __init__(self) -> None:
        self.calls = 0

    def __call__(self, game: Game):
        self.calls += 1
        return solve_acyclic(game)


def test_c6_bisection_stays_within_its_call_budget():
    with criterion(6, "bisection_call_budget") as info:
        slack = None
        for g in game_stream(
            40, family=Family.DAG_PLUS_K, min_n=10, max_n=50, seed=606
        ):
            bound = value_denominator_bound(g)
            budget = (bound * bound - 1).bit_length() + 1
            counter = _CountingSolver()
            values = dichotomy_solve(g, 0, subsolver=counter)
            assert counter.calls <= budget
            assert fixed_point_f(g, 0, values[0]) == values[0]
            assert hoffman_karp(g).values == values
            margin = budget - counter.calls
            slack = margin if slack is None else min(slack, margin)
        info["detail"] = f"40 games, n up to 50, minimum call slack {slack}"


def test_c7_feedback_recursion_matches_the_oracle():
    with criterion(7, "feedback_recursion") as info:
        started = time.perf_counter()
        count = 0
        for g in game_stream(
            50, family=Family.DAG_PLUS_K, min_n=7, max_n=8, seed=707, k=2
        ):
            assert check_stopping(g).stopping
            fvs = feedback_vertex_set(g)
            assert len(fvs) == 2
            assert solve_feedback(g, fvs) == oracle_solve(g).values
            count += 1
        elapsed = time.perf_counter() - started
        assert count == 50
        assert elapsed < 300.0
        info["detail"] = f"50 games with a two-vertex feedback set, {elapsed:.1f}s"


def test_c8_raising_a_sink_never_lowers_any_value():
    with criterion(8, "sink_monotonicity") as info:
        rng = random.Random(4242)
        checked = 0
        for g in game_stream(320, min_n=4, max_n=7, seed=808):
            raisable = [v for v in g.sink_vertices if g.sink_value(v) < 1]
            if not raisable:
                continue
            s = rng.choice(raisable)
            old = g.sink_value(s)
            bump = (1 - old) * Fraction(rng.randrange(1, 64), 64)
            sink_values = list(g.sink_values)
            sink_values[s] = old + bump
            raised = g.replace(sink_values=tuple(sink_values))
            validate(raised)
            base = oracle_solve(g).values
            lifted = oracle_solve(raised).values
            assert all(after >= before for before, after in zip(base, lifted))
            assert lifted[s] > base[s]
            checked += 1
            if checked >= 200:
                break
        assert checked >= 200
        info["detail"] = f"{checked} single-sink raises, componentwise"


def _reaches_a_sink_under_every_pair(game: Game) -> bool:
    """Stopping property spelled out by brute force over all pairs."""
    from helpers import all_pairs

    for sigma, tau in all_pairs(game):
        arcs = []
        for v in range(game.n):
            if game.is_sink(v):
                arcs.append(())
            elif v in sigma:
                arcs.append((sigma[v],))
            elif v in tau:
                arcs.append((tau[v],))
            else:
                arcs.append(game.succs[v])
        reach = set(game.sink_vertices)
        changed = True
        while changed:
            changed = False
            for v in range(game.n):
                if v not in reach and any(s in reach for s in arcs[v]):
                    reach.add(v)
                    changed = True
        if len(reach) < game.n:
            return False
    return True


def test_c9_stopping_check_agrees_with_exhaustive_search():
    with criterion(9, "stopping_detection") as info:
        games = []
        for g in game_stream(600, min_n=4, max_n=7, seed=909):
            if len(g.max_vertices) + len(g.min_vertices) <= 6:
                games.append(g)
            if len(games) == 300:
                break
        assert len(games) == 300
        outcomes = {True: 0, False: 0}
        for g in games:
            want = _reaches_a_sink_under_every_pair(g)
            assert check_stopping(g).stopping is want
            outcomes[want] += 1
        # both answers must be represented for the comparison to mean much
        assert outcomes[True] >= 20 and outcomes[False] >= 20
        info["detail"] = f"{outcomes[True]} stopping, {outcomes[False]} not"


def _escape_ladder(n: int, escapes: int = 12) -> Game:
    """Single n-cycle with evenly spaced coin-flip escapes to one sink."""
    spots = {round(i * n / escapes) % n for i in range(escapes)}
    rows: list[tuple] = []
    for v in range(n):
        onward = (v + 1) % n
        rows.append(("ave", onward, n) if v in spots else ("max", onward))
    rows.append(("sink", Fraction(1, 2)))
    return game_of(rows)


def _timed(fn, arg) -> float:
    started = time.perf_counter()
    fn(arg)
    return time.perf_counter() - started


def test_c10_cycle_solver_scales_linearly():
    with criterion(10, "linear_scaling") as info:
        sizes = (10**3, 10**4, 10**5)
        times = []
        for n in sizes:
            g = _escape_ladder(n)
            values = solve_almost_acyclic_scc(g)
            # every walk ends in the one sink, so every value is 1/2
            assert all(v == Fraction(1, 2) for v in values)
            times.append(min(_timed(solve_almost_acyclic_scc, g) for _ in range(3)))
        ratios = [times[i + 1] / times[i] for i in range(len(times) - 1)]
        detail = (
            ", ".join(f"{t:.3f}s" for t in times)
            + "; decade ratios "
            + ", ".join(f"{r:.1f}" for r in ratios)
        )
        info["detail"] = detail
        if os.environ.get("SSG_RELEASE_CHECKS") == "1":
            assert all(r <= 15 for r in ratios), detail
        elif any(r > 15 for r in ratios):
            warnings.warn(f"cycle solver above 15x per size decade: {detail}")
