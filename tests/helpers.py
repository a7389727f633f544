"""Shared corpus builders; everything is seeded and deterministic."""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction

from ssg.dichotomy import stern_brocot, value_denominator_bound
from ssg.errors import InternalInvariantError
from ssg.evaluation import OptimalityReport, Violation, check_stopping, one_step_value
from ssg.generate import DEFAULT_PROPORTIONS, Family, GeneratorSpec, generate
from ssg.model import Game, Player, Strategy, VertexKind, vertex_to_sink
from ssg.structure import is_feedback_set


def game_stream(
    count: int,
    family: Family = Family.RANDOM,
    min_n: int = 4,
    max_n: int = 8,
    seed: int = 0,
    stopping: bool | None = None,
    k: int = 1,
    proportions=DEFAULT_PROPORTIONS,
):
    """Deterministic list of generated games, optionally stopping-filtered."""
    games: list[Game] = []
    attempt = 0
    while len(games) < count:
        n = min_n + attempt % (max_n - min_n + 1)
        game = generate(
            GeneratorSpec(
                n=n,
                family=family,
                seed=seed * 1_000_003 + attempt,
                proportions=proportions,
                k=k,
            )
        )
        attempt += 1
        if attempt > max(400, count * 400):
            raise RuntimeError("corpus filter rejected too many instances")
        if stopping is not None and check_stopping(game).stopping is not stopping:
            continue
        games.append(game)
    return games


def random_pair(game: Game, rng: random.Random) -> tuple[Strategy, Strategy]:
    """A uniformly random total positional strategy pair."""
    sigma = {v: rng.choice(game.succs[v]) for v in game.max_vertices}
    tau = {v: rng.choice(game.succs[v]) for v in game.min_vertices}
    return Strategy(Player.MAX, sigma), Strategy(Player.MIN, tau)


def all_pairs(game: Game):
    """Every total positional strategy pair, MAX-major order."""
    from ssg.oracle import enumerate_strategies

    for sigma in enumerate_strategies(game, Player.MAX):
        for tau in enumerate_strategies(game, Player.MIN):
            yield sigma, tau


def closed_profile(game: Game, report) -> tuple[Strategy, Strategy]:
    """Every positional vertex takes its smallest-id cycle arc."""
    max_choice, min_choice = {}, {}
    for v in sorted(game.max_vertices + game.min_vertices):
        in_cycle = sorted(s for s in game.succs[v] if (v, s) in report.cycle_arcs)
        choice = in_cycle[0] if in_cycle else min(game.succs[v])
        if game.kinds[v] is VertexKind.MAX:
            max_choice[v] = choice
        else:
            min_choice[v] = choice
    return Strategy(Player.MAX, max_choice), Strategy(Player.MIN, min_choice)


def dense_solve(matrix: list[list[Fraction]], rhs: list[Fraction]) -> list[Fraction]:
    """Solve A x = b exactly by dense Gaussian elimination.

    The tests' own eliminator, kept apart from evaluation's sparse
    kernel so that reference values share no code with it.  Pivoting
    picks, within the current column, the row whose entry has the
    largest numerator in absolute value (smallest row index on ties).
    Raises InternalInvariantError on a singular matrix.
    """
    k = len(matrix)
    a = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(k):
        pivot_row = -1
        pivot_size = -1
        for i in range(col, k):
            entry = a[i][col]
            if entry:
                size = abs(entry.numerator)
                if size > pivot_size:
                    pivot_row, pivot_size = i, size
        if pivot_row < 0:
            raise InternalInvariantError("singular linear system")
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
        pivot = a[col][col]
        for i in range(col + 1, k):
            factor = a[i][col]
            if factor:
                factor /= pivot
                row_i, row_c = a[i], a[col]
                for j in range(col, k + 1):
                    if row_c[j]:
                        row_i[j] -= factor * row_c[j]
    x = [Fraction(0)] * k
    for i in range(k - 1, -1, -1):
        acc = a[i][k]
        row = a[i]
        for j in range(i + 1, k):
            if row[j]:
                acc -= row[j] * x[j]
        x[i] = acc / row[i]
    return x


def hand_system(game: Game, report) -> dict[int, Fraction]:
    """Cycle values written out as a plain linear system."""
    cycle = sorted({v for v, _ in report.cycle_arcs})
    index = {v: i for i, v in enumerate(cycle)}
    matrix = [[Fraction(0)] * len(cycle) for _ in cycle]
    rhs = [Fraction(0)] * len(cycle)
    for v in cycle:
        i = index[v]
        matrix[i][i] += Fraction(1)
        if game.kinds[v] is VertexKind.AVE:
            succs = game.succs[v]
            share = Fraction(1, 2)
        else:
            succs = [min(s for s in game.succs[v] if (v, s) in report.cycle_arcs)]
            share = Fraction(1)
        for s in succs:
            if game.is_sink(s):
                rhs[i] += share * game.sink_value(s)
            else:
                matrix[i][index[s]] -= share
    sol = dense_solve(matrix, rhs)
    return {v: sol[index[v]] for v in cycle}


def dense_evaluate(game: Game, sigma: Strategy, tau: Strategy) -> tuple[Fraction, ...]:
    """Reference values of a total strategy pair, written as one dense
    system with an equation per non-sink vertex.

    Shares no code with evaluation.evaluate: it solves with
    dense_solve, a vertex is pinned to 0 when a forward search over the
    arcs the pair uses finds no positive sink, and every other non-sink
    vertex equals the average over those arcs.
    """
    choice = {**sigma.choice, **tau.choice}
    arcs = [(choice[v],) if v in choice else game.succs[v] for v in range(game.n)]

    def reaches_positive(v: int) -> bool:
        seen, stack = {v}, [v]
        while stack:
            u = stack.pop()
            if game.is_sink(u):
                if game.sink_value(u) > 0:
                    return True
                continue
            for s in arcs[u]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return False

    rows = [v for v in range(game.n) if not game.is_sink(v)]
    index = {v: i for i, v in enumerate(rows)}
    matrix = [[Fraction(0)] * len(rows) for _ in rows]
    rhs = [Fraction(0)] * len(rows)
    for v in rows:
        i = index[v]
        matrix[i][i] = Fraction(1)
        if not reaches_positive(v):
            continue
        share = Fraction(1, len(arcs[v]))
        for s in arcs[v]:
            if game.is_sink(s):
                rhs[i] += share * game.sink_value(s)
            else:
                matrix[i][index[s]] -= share
    sol = dense_solve(matrix, rhs) if rows else []
    return tuple(
        game.sink_value(v) if game.is_sink(v) else sol[index[v]] for v in range(game.n)
    )


def plain_bisection(game: Game, xs, subsolver):
    """Nested bisection with no early stop and no warm start.

    The tests' reference for the subsolve count of solve_feedback: each
    level on xs[0] halves [0, 1] until it is no wider than 1/bound^2
    (or a midpoint is the fixed point), then solves at the simplest
    rational left, with xs[1:] bisected the same way inside every solve.
    """
    if not xs:
        return subsolver(game)
    x, rest = xs[0], xs[1:]
    bound = value_denominator_bound(game)
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > Fraction(1, bound * bound):
        mid = (lo + hi) / 2
        values = plain_bisection(vertex_to_sink(game, x, mid), rest, subsolver)
        fm = one_step_value(game, values, x)
        if fm == mid:
            return values
        if fm > mid:
            lo = mid
        else:
            hi = mid
    candidate = stern_brocot(lo, hi, bound)
    return plain_bisection(vertex_to_sink(game, x, candidate), rest, subsolver)


def brute_feedback_vertex_set(game: Game, k_max: int | None = None):
    """Smallest feedback vertex set by plain subset enumeration.

    The tests' reference for structure.feedback_vertex_set: sizes 0, 1,
    2, ... up to k_max, subsets of each size in lexicographic id order,
    first hit wins; None when no set within the cap works.  It costs
    n^k_max, so the tests keep n and k_max small.
    """
    vertices = [v for v in range(game.n) if not game.is_sink(v)]
    if k_max is None:
        k_max = len(vertices)
    for size in range(min(k_max, len(vertices)) + 1):
        for combo in itertools.combinations(vertices, size):
            if is_feedback_set(game, combo):
                return combo
    return None


# Fraction-operator references for the integer comparisons of model and
# evaluation: the package compares exact values on their numerators and
# denominators, and these compare them through Fraction's own operators.


def ref_argbest(kind, succs, value):
    """The best successor by Python's max/min; ties to the smallest id."""
    pick = max if kind is VertexKind.MAX else min
    best = pick(value[s] for s in succs)
    return min(s for s in succs if value[s] == best)


def ref_one_step_value(game: Game, w, v: int) -> Fraction:
    """The one-step value by Fraction arithmetic."""
    kind = game.kinds[v]
    if kind is VertexKind.SINK:
        return game.sink_value(v)
    if kind is VertexKind.AVE:
        s1, s2 = game.succs[v]
        return Fraction(1, 2) * (w[s1] + w[s2])
    if kind is VertexKind.MAX:
        return max(w[s] for s in game.succs[v])
    return min(w[s] for s in game.succs[v])


def ref_check_local_optimality(game: Game, w) -> OptimalityReport:
    """Every vertex's entry against ref_one_step_value, by Fraction ==."""
    violations = []
    for v in range(game.n):
        expected = ref_one_step_value(game, w, v)
        if w[v] != expected:
            violations.append(Violation(v, expected, w[v]))
    return OptimalityReport(not violations, tuple(violations))


def ref_switchable(game: Game, strategy: Strategy, values):
    """Owned vertices whose best successor beats their choice, by Fraction <, >."""
    kind = strategy.owner.kind
    pick, better = (max, operator.gt) if kind is VertexKind.MAX else (min, operator.lt)
    found = []
    for v in game.owned_vertices(strategy.owner):
        succs = game.succs[v]
        if better(pick(values[s] for s in succs), values[strategy[v]]):
            found.append((v, ref_argbest(kind, succs, values)))
    return tuple(found)
