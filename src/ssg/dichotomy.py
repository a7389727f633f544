"""Value search along a feedback vertex set.

Turning one vertex x into a sink of trial value v makes the rest of
the game easier to solve; the map f sending v to the one-step value at
x over the solved rest is monotone, and on stopping games its unique
fixed point is x's true value.  Bisection narrows an interval around
the fixed point, and stops as soon as the simplest rational in it is
the only one with denominator within the game's precision bound; a
Stern-Brocot walk names that rational and one more solve verifies it.
Each trial's values also name a strategy pair, every MAX and MIN vertex
on its best successor; when that pair's values are locally optimal they
are the game's values (Condon, Inf. Comput. 96, 1992), and the search
ends there, a Hoffman-Karp step that bisection's bracket keeps safe.
Iterating the trick over a whole feedback vertex set solves any
stopping game whose cycles are covered by a few vertices; the set must
cover every cycle.  solve_feedback is the one entry: dichotomy_solve,
bisection on a single vertex, calls it with a one-vertex set.  Each inner
level starts from the bracket its enclosing level's solves give it,
since raising a sink never lowers a value, and no level tries more
values than plain bisection from [0, 1] would.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from .errors import InternalInvariantError, PreconditionError
from .evaluation import (
    chain_values,
    check_local_optimality,
    one_step_value,
    require_local_optimality,
    require_stopping,
)
from .model import Game, RationalLike, ValueVector, VertexKind, argbest, as_fraction, vertex_to_sink
from .solvers import solve_acyclic
from .structure import is_feedback_set

Subsolver = Callable[[Game], ValueVector]


def sink_denominator_lcm(game: Game) -> int:
    """Least common denominator of all sink values (1 when sink-free)."""
    return math.lcm(1, *[game.sink_value(v).denominator for v in game.sink_vertices])


def value_denominator_bound(game: Game) -> int:
    """An upper bound on the denominator of every optimal value.

    Optimal values are reached by some positional strategy pair, and
    evaluating a fixed pair keeps denominators within 6 to the power of
    half the AVE count, times the sinks' common denominator.  The bound
    limits the size of a denominator, not its divisors: a value of 7/16
    occurs under a bound of 24.
    """
    return 6 ** ((game.n_ave + 1) // 2) * sink_denominator_lcm(game)


def fixed_point_f(
    game: Game, x: int, v: RationalLike, subsolver: Subsolver = solve_acyclic
) -> Fraction:
    """One-step value at x when x is frozen to the trial value v.

    Solves the game with x turned into a v-sink, then plays one step
    from x over its original successors.  Monotone in v; its fixed
    point is x's optimal value whenever the game is stopping.
    """
    trial = vertex_to_sink(game, x, v)
    values = subsolver(trial)
    return one_step_value(game, values, x)


def dichotomy_solve(
    game: Game, x: int, subsolver: Subsolver = solve_acyclic
) -> ValueVector:
    """Solve a stopping game by bisecting on the value of one vertex.

    One call to solve_feedback, the one entry into bisection, with the
    set [x]: x must cover every cycle, and a pivot that leaves one is
    refused before any subsolve.  The search interval halves until it
    holds a single rational of denominator at most bound: at the latest
    when it is no wider than 1/bound^2, and already once its simplest
    rational c leaves it narrower than 1/(den(c) * bound).  That
    candidate is verified to be a fixed point before the values are
    returned, so the subsolver runs at most
    (bound^2 - 1).bit_length() + 1 times.
    """
    return solve_feedback(game, [x], subsolver)


def _dichotomy_core(
    game: Game,
    xs: Sequence[int],
    subsolver: Subsolver,
    below: ValueVector | None = None,
    above: ValueVector | None = None,
    certify: bool = False,
) -> ValueVector:
    """Values of game, bisecting on xs[0] with xs[1:] frozen one level down.

    below and above are the values of the enclosing level's solves at
    the ends of its bracket around this game's trial value, or None for
    an end it has not solved.  A raised sink never lowers a value, so
    x's value lies between its values there.  The trials are plain
    bisection's, except that one outside that bracket is decided
    without a solve, and the loop ends once the bracket pins the value
    or a strategy step lands.  The step follows every trial: each MAX
    and MIN vertex, x included, takes its best successor under the
    trial's values (model.argbest), and one evaluation.chain_values pass
    gives the game's values u under that pair.  If u is locally optimal
    it is the value vector, since the game is stopping, and the level
    returns it; otherwise bisection goes on as if the step had not run.
    The step solves nothing, so no level makes more trials than plain
    bisection from [0, 1] on the same game.  A leaf certifies its
    subsolver's values, since a step that reads strategies off wrong
    values can still evaluate them honestly.  With certify, the answer
    is certified on game once: a step's answer was checked there
    already, and any other is checked on the way out.
    """
    if not xs:
        return require_local_optimality(game, subsolver(game))
    x, rest = xs[0], xs[1:]
    bound = value_denominator_bound(game)
    floor = Fraction(0) if below is None else below[x]
    ceiling = Fraction(1) if above is None else above[x]
    positional = game.max_vertices + game.min_vertices

    def solve_at(v: Fraction) -> tuple[ValueVector, Fraction]:
        values = _dichotomy_core(vertex_to_sink(game, x, v), rest, subsolver, below, above)
        return values, one_step_value(game, values, x)

    def pinned(lo: Fraction, hi: Fraction) -> bool:
        # the simplest rational c in [lo, hi] is the only one of
        # denominator <= bound once (hi - lo) * den(c) * bound < 1
        width = hi - lo
        if width * bound >= 1:
            return False
        return width * stern_brocot(lo, hi, bound).denominator * bound < 1

    # plain bisection's trials, in units of 1/scale: it stops at width
    # 1/scale; [floor, ceiling] stays the narrowest bracket known
    scale = 1 << (bound * bound - 1).bit_length()
    below = above = None  # from here on, this level's own solves
    lo, hi = 0, scale
    while hi - lo > 1:
        mid = (lo + hi) // 2
        trial = Fraction(mid, scale)
        if trial < floor:
            lo = mid
        elif trial > ceiling:
            hi = mid
        elif pinned(floor, ceiling):
            break
        else:
            values, fm = solve_at(trial)
            if fm == trial:
                return require_local_optimality(game, values) if certify else values
            chosen = {v: argbest(game.kinds[v], game.succs[v], values) for v in positional}
            u = chain_values(game, chosen)
            if check_local_optimality(game, u).satisfied:
                return u
            if fm > trial:
                lo, floor, below = mid, trial, values
            else:
                hi, ceiling, above = mid, trial, values
    candidate = stern_brocot(floor, ceiling, bound)
    values, fc = solve_at(candidate)
    if fc != candidate:
        raise InternalInvariantError(
            f"no fixed point at the candidate {candidate} in [{floor}, {ceiling}]"
        )
    return require_local_optimality(game, values) if certify else values


def stern_brocot(lo: RationalLike, hi: RationalLike, max_denominator: int) -> Fraction:
    """The simplest rational in [lo, hi], walking the Stern-Brocot tree.

    Simplest means smallest denominator (smallest numerator breaking
    ties), and it is unique.  Runs in time logarithmic in the result's
    denominator by descending whole continued-fraction runs at once.
    Raises PreconditionError if even the simplest rational needs a
    denominator beyond max_denominator.
    """
    lo, hi = as_fraction(lo), as_fraction(hi)
    if lo < 0 or hi < lo:
        raise PreconditionError(f"invalid interval [{lo}, {hi}]")
    a_num, a_den = lo.numerator, lo.denominator
    b_num, b_den = hi.numerator, hi.denominator
    # result = (p0 * t + p1) / (q0 * t + q1) for the subtree's value t
    p0, p1, q0, q1 = 1, 0, 0, 1
    while True:
        t = -(-a_num // a_den)
        if t * b_den <= b_num:
            num, den = p0 * t + p1, q0 * t + q1
            break
        whole = a_num // a_den
        p0, p1 = p0 * whole + p1, p0
        q0, q1 = q0 * whole + q1, q0
        a_num, a_den, b_num, b_den = (
            b_den,
            b_num - whole * b_den,
            a_den,
            a_num - whole * a_den,
        )
    if den > max_denominator:
        raise PreconditionError(
            f"simplest rational {num}/{den} exceeds denominator {max_denominator}"
        )
    return Fraction(num, den)


def solve_feedback(
    game: Game, feedback: Sequence[int], subsolver: Subsolver = solve_acyclic
) -> ValueVector:
    """Solve a stopping game given a feedback vertex set.

    The one entry into bisection.  The set must cover every cycle, so
    that subsolver only ever sees games with none left.  Feedback
    vertices are frozen one at a time in increasing id order;
    each level bisects on its vertex with the next level as subsolver,
    bottoming out in subsolver (the DAG solver by default, replaceable
    for instrumentation).  An inner level is warm-started: its vertex's
    value lies between its values in the enclosing level's solves at
    the ends of that level's bracket, so the inner bisection skips
    every trial outside those two values.  After each trial a level
    evaluates its game under the strategy pair read off the trial's
    values and ends if the result is locally optimal; a failed step
    solves nothing.  Every subsolve is certified
    (evaluation.require_local_optimality) before a step reads
    strategies off it, and so is the final answer, once, on this game:
    on a stopping game local optimality pins the values.  Refuses,
    before any subsolve, vertices that are not playable, sets that
    leave a cycle uncovered and games that are not stopping.
    """
    xs = sorted(set(feedback))
    for x in xs:
        if not (0 <= x < game.n) or game.is_sink(x):
            raise PreconditionError(f"vertex {x} is not a playable vertex")
    if not is_feedback_set(game, xs):
        raise PreconditionError("a cycle avoids the proposed feedback set")
    require_stopping(game)
    return _dichotomy_core(game, xs, subsolver, certify=True)


def make_stopping(game: Game, m: int | None = None) -> Game:
    """A nearby stopping game with the same vertex ids.

    Every arc between playable vertices is routed through a fresh coin
    chain of length m that continues with probability one half per step
    and drops to a value-0 sink after m straight continues.  Original
    optimal values shift by an amount nothing here bounds; n / 2^m is
    not a bound, since AVE-heavy games exceed it several times over.
    The default m, 2n plus the bit length of the sinks' common
    denominator, is a heuristic, paid for with a much bigger game.
    """
    if m is None:
        q0 = sink_denominator_lcm(game)
        m = max(1, 2 * game.n + (q0 - 1).bit_length())
    if m < 1:
        raise PreconditionError(f"chain length {m} must be positive")

    kinds = [game.kinds[v] for v in range(game.n)]
    succs = [list(game.succs[v]) for v in range(game.n)]
    values = [game.sink_values[v] for v in range(game.n)]

    zero = next(
        (v for v in game.sink_vertices if game.sink_value(v) == 0), None
    )
    if zero is None:
        zero = len(kinds)
        kinds.append(VertexKind.SINK)
        succs.append([zero])
        values.append(Fraction(0))

    for v in range(game.n):
        if game.is_sink(v):
            continue
        for slot, y in enumerate(game.succs[v]):
            if game.is_sink(y):
                continue
            head = len(kinds)
            for j in range(m):
                step = head + j
                onward = step + 1 if j + 1 < m else zero
                kinds.append(VertexKind.AVE)
                succs.append([onward, y])
                values.append(None)
            succs[v][slot] = head
    return Game(
        tuple(kinds), tuple([tuple(s) for s in succs]), tuple(values)
    )

