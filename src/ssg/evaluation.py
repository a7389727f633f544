"""Exact evaluation of strategy pairs and one-player best responses.

Fixing an arc for every positional vertex turns the game into an
absorbing Markov chain, and every vertex value is the expected value
of the sink the chain gets absorbed in.  One kernel, chain_values,
computes these values exactly for any such choice of arcs: evaluate
hands it a strategy pair, solvers.closed_values the cycle arcs of a
component.  Sinks and the vertices of value zero (those that cannot
reach a positive sink) are settled first.  Every other value is an
integer form (c/Q + a x_base) / 2^k, Q the lcm of the settled
denominators, filled in backwards from the settled vertices, so coin
chains and fork-free cycles fold without a row.  Only AVE vertices
where two unknowns meet, and one vertex picked per stall, become
unknowns; a row that names only its own unknown is solved in closed
form, and the others solve one sparse integer system, at most one row
of three entries per fork, eliminated fraction-free in greedy
Markowitz order.  Each value becomes one Fraction, at the end, and
values are compared on their integers, cross-multiplied.

Both best responses and iteration.hoffman_karp run one guarded
improvement loop, _improve, over switchable; they differ only in how
the opponent responds to each new strategy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    InternalInvariantError,
    InvalidStrategyError,
    NotStoppingError,
    PreconditionError,
)
from .model import (
    Game,
    Player,
    Strategy,
    StrategyPair,
    ValueVector,
    VertexKind,
    _parts,
    argbest,
    check_strategy,
)

ZERO = Fraction(0)
# bound once: an enum member lookup costs more than a global
_MAX, _MIN, _AVE, _SINK = VertexKind.MAX, VertexKind.MIN, VertexKind.AVE, VertexKind.SINK
Form = tuple[int, int, int, int | None]  # (c, a, k, base): see chain_values


def _require_total(game: Game, *strategies: Strategy) -> None:
    for strategy in strategies:
        check_strategy(game, strategy)
    for strategy in strategies:
        if not strategy.is_total_for(game):
            who = strategy.owner.value.upper()
            raise InvalidStrategyError(f"{who} strategy does not cover every {who} vertex")


def attractor(
    arcs: Sequence[Sequence[int]], need: Sequence[int], seeds: Iterable[int]
) -> list[int | None]:
    """Backward fixpoint: the seeds, plus every vertex v of which need[v]
    arcs point into the set, with the round in which each vertex joined.

    arcs[v] lists the successors of v; a successor listed twice counts
    twice, and an arc from a vertex to itself never pulls it in.  The
    queue runs first in, first out: seeds join in round 0, and any other
    vertex one round after the member whose arrival completed its need,
    so with need 1 a vertex is one round above its lowest successor in
    the set, and with every arc needed one above its highest.  Returns
    each vertex's round, None outside the set; test membership with
    `is not None`, since round 0 is falsy.

    It is the package's one backward fixpoint: the zero region of
    chain_values and _min_zero_region, the stopping witness of
    check_stopping, the exit ranks of greedy strategies, the fork
    opener's search, the DAG order of solvers.solve_acyclic (every arc
    needed, so rounds order each vertex after its successors) and the
    cover check of structure.is_feedback_set.  The value pass of
    chain_values is not on the list: it stalls on cycles and resumes
    from an unknown it picks, which no fixpoint does.
    """
    n = len(arcs)
    preds: list[list[int]] = [[] for _ in range(n)]
    for v, out in enumerate(arcs):
        for s in out:
            preds[s].append(v)
    missing = list(need)
    rounds: list[int | None] = [None] * n
    queue = list(seeds)
    for v in queue:
        rounds[v] = 0
    for u in queue:  # grows as vertices join, in round order
        for p in preds[u]:
            if rounds[p] is None:
                missing[p] -= 1
                if missing[p] == 0:
                    rounds[p] = rounds[u] + 1
                    queue.append(p)
    return rounds


def _choices(game: Game, sigma: Strategy, tau: Strategy) -> dict[int, int]:
    """The arc each positional vertex takes under a total strategy pair."""
    if sigma.owner is not Player.MAX or tau.owner is not Player.MIN:
        raise InvalidStrategyError("evaluate expects (MAX strategy, MIN strategy)")
    _require_total(game, sigma, tau)
    return {**sigma.choice, **tau.choice}


def solve_linear_system(
    rows: list[dict[int, Fraction | int]], rhs: list[Fraction | int]
) -> list[Fraction]:
    """Solve A x = b exactly by sparse fraction-free elimination.

    rows[i] maps column j to A[i][j], an int or a Fraction; an absent
    column is a zero entry and a zero entry is ignored.  A is square, of
    dimension len(rows).  Each row is scaled once to integers, and
    elimination runs on ints (as in Bareiss, Math. Comp. 22, 1968): a
    row with entry r in the pivot column becomes (p/g) row - (r/g) pivot
    row, g = gcd(p, r), and is then divided by the gcd of its entries
    and right-hand side.  Pivots follow a greedy Markowitz order: at
    each step the column held by the fewest remaining rows (smallest id
    on ties), pivoting on its shortest holding row (smallest index on
    ties).  Entries that cancel are dropped, so a chain of two-entry
    rows folds without fill.  A column -> holding rows index keeps each
    step local to the pivot column, and a lazily updated heap keyed by
    holder count picks the next column.  Back substitution runs in
    reverse pivot order, over one common denominator per row, and builds
    each unknown as one Fraction.  The inputs are not modified.  Raises
    InternalInvariantError on a singular matrix.
    """
    k = len(rows)
    a: list[dict[int, int]] = []
    b: list[int] = []
    for row, r in zip(rows, rhs):
        scale = math.lcm(r.denominator, *[e.denominator for e in row.values()])
        a.append({j: e.numerator * (scale // e.denominator) for j, e in row.items() if e})
        b.append(r.numerator * (scale // r.denominator))
    holders: list[set[int]] = [set() for _ in range(k)]
    for i, row in enumerate(a):
        for j in row:
            holders[j].add(i)
    queue = [(len(h), j) for j, h in enumerate(holders)]
    heapq.heapify(queue)
    eliminated = [False] * k
    pivots: list[tuple[int, int]] = []
    while queue:
        count, col = heapq.heappop(queue)
        if eliminated[col] or count != len(holders[col]):
            continue  # stale entry; the current count is queued too
        if not count:
            raise InternalInvariantError("singular linear system")
        piv = min(holders[col], key=lambda i: (len(a[i]), i))
        prow = a[piv]
        pval = prow[col]
        pb = b[piv]
        for i in holders[col] - {piv}:
            row = a[i]
            lead = row.pop(col)
            holders[col].discard(i)
            g = math.gcd(pval, lead)
            keep, take = pval // g, lead // g
            if keep != 1:
                for j in row:
                    row[j] *= keep
            bi = b[i] * keep - take * pb
            for j, entry in prow.items():
                if j == col:
                    continue
                old = row.get(j)
                if old is None:
                    row[j] = -take * entry
                    holders[j].add(i)
                else:
                    new = old - take * entry
                    if new:
                        row[j] = new
                    else:
                        del row[j]
                        holders[j].discard(i)
            g = math.gcd(bi, *row.values())
            if g > 1:
                bi //= g
                for j in row:
                    row[j] //= g
            b[i] = bi
        for j in prow:
            holders[j].discard(piv)
        eliminated[col] = True
        pivots.append((piv, col))
        # only the pivot row's columns changed holders
        for j in prow:
            if j != col:
                heapq.heappush(queue, (len(holders[j]), j))
    if len(pivots) != k:
        raise InternalInvariantError("linear solve lost a column from its queue")
    x = [ZERO] * k
    for piv, col in reversed(pivots):
        row = a[piv]
        known = [(entry, x[j]) for j, entry in row.items() if j != col]
        den = math.lcm(*[xj.denominator for _, xj in known])
        num = b[piv] * den
        for entry, xj in known:
            num -= entry * xj.numerator * (den // xj.denominator)
        x[col] = Fraction(num, row[col] * den)
    return x


def _mean_form(forms: Sequence[Form | None], out: Sequence[int]) -> Form | None:
    """The mean of forms[s] over the one or two arcs out; None if two bases meet."""
    if len(out) == 1:
        return forms[out[0]]
    (c, a, k, b), (c2, a2, k2, b2) = forms[out[0]], forms[out[1]]
    if k < k2:
        c, a, k, b, c2, a2, k2, b2 = c2, a2, k2, b2, c, a, k, b
    if b is None or b2 is None or b == b2:
        k2 = k - k2
        return (c + (c2 << k2), a + (a2 << k2), k + 1, b2 if b is None else b)
    return None


def chain_values(game: Game, chosen: Mapping[int, int]) -> ValueVector:
    """Exact vertex values when every positional vertex v keeps to the
    arc chosen[v]; chosen covers exactly the positional vertices.

    Sinks keep their value and vertices that cannot reach a positive
    sink are worth 0: the settled vertices, Q the lcm of their
    denominators.  Every value is an integer form (c, a, k, base), worth
    (c/Q + a x_base) / 2^k, base an unknown or None (x_None = 0), filled
    in backwards from the settled vertices once all successors have one:
    a positional vertex copies its chosen successor's, an AVE vertex
    halves the sum of its two if they share a base or one has none
    (_mean_form), and else becomes an unknown, form (0, 1, 0, v).  A
    stalled pass resumes from the top of a walk kept across stalls, once
    what got a form is off it: a fork (an AVE vertex with two distinct
    unsettled successors), as its step got a form.  An empty walk steps
    on from the smallest vertex left (first arcs first) to a vertex u on
    it, and the pass resumes from its first fork from u on, else from u;
    no vertex is walked twice.  An unknown u whose row names only u is
    solved in closed form, x_u = c / (Q (2^k - a)) for its row's form
    (c, a, k, u); the others solve one integer system, at most one row
    per fork and three entries per row.
    """
    n = game.n
    arcs = [(chosen[v],) if v in chosen else out for v, out in enumerate(game.succs)]
    sinks = game.sink_values
    positive = [v for v in game.sink_vertices if sinks[v].numerator > 0]
    reach = attractor(arcs, [1] * n, positive)
    q = math.lcm(*[sinks[v].denominator for v in positive])
    settled = [
        0 if r is None else None if s is None else s.numerator * (q // s.denominator)
        for r, s in zip(reach, sinks)
    ]
    forms: list[Form | None] = [None if s is None else (s, 0, 0, None) for s in settled]
    preds: list[list[int]] = [[] for _ in range(n)]
    wait = [0] * n  # arcs of v into vertices without a form
    ready: list[int] = []
    for v, out in enumerate(arcs):
        if forms[v] is None:
            for s in out:
                if forms[s] is None:
                    preds[s].append(v)
                    wait[v] += 1
            if not wait[v]:
                ready.append(v)
    unknowns: list[int] = []
    walk, at = [], {}  # vertices walked, each stepping on to the next, and their indices
    for low in range(n):
        while ready or forms[low] is None:
            if not ready:  # stalled: each vertex left has an arc to one left
                while walk and forms[walk[-1]] is not None:
                    walk.pop()
                u = walk[-1] if walk else low  # a stalled fork, else walk from low
                while u not in at:
                    at[u] = len(walk)
                    walk.append(u)
                    u = arcs[u][0] if forms[arcs[u][0]] is None else arcs[u][-1]
                for v in walk[at[u] :]:  # the walk's first fork from u on
                    s, t = arcs[v][0], arcs[v][-1]
                    if s != t and settled[s] is None and settled[t] is None:
                        break
                else:
                    v = u
                if forms[v] is not None:  # resetting it would stall the pass forever
                    raise InternalInvariantError(f"value pass stalled on {v}, which has a form")
                ready = [v]
                unknowns.append(v)
                forms[v] = (0, 1, 0, v)
            for v in ready:  # grows as vertices get their forms
                if forms[v] is None:
                    f = _mean_form(forms, arcs[v])
                    if f is None:
                        unknowns.append(v)
                        f = (0, 1, 0, v)
                    forms[v] = f
                for p in preds[v]:
                    wait[p] -= 1
                    if not wait[p] and forms[p] is None:
                        ready.append(p)
            ready = []

    bases: dict[int | None, tuple[int, int]] = {None: (0, 1)}  # u -> (m, d): x_u = m / (q d)
    rows: dict[int, list[Form]] = {}  # x_u is the mean of the listed forms
    for u in unknowns:
        f = _mean_form(forms, arcs[u])
        if f is None or f[3] not in (None, u):
            rows[u] = [forms[s] for s in arcs[u]] if f is None else [f]
        elif f[1] < 1 << f[2]:  # x_u = (c/q + a x_u) / 2^k
            bases[u] = (f[0], (1 << f[2]) - f[1])
        else:
            raise InternalInvariantError("escape-free cycle classified as escaping")
    if rows:
        index = {u: i for i, u in enumerate(rows)}
        matrix: list[dict[int, int]] = []
        rhs: list[int] = []
        # len(terms) q x_u - sum of q form(t) = 0, times d 2^top: integers
        for u, terms in rows.items():
            top = max(k for _, _, k, _ in terms)
            d = math.lcm(*[bases[g][1] for _, _, _, g in terms if g not in index])
            row = {index[u]: (len(terms) * d) << top}
            b = 0
            for c, a, k, g in terms:
                m, dg = bases.get(g, (0, 1))  # m = 0 for the system's own
                b += ((c * dg + a * m) * (d // dg)) << (top - k)
                if g in index:
                    row[index[g]] = row.get(index[g], 0) - ((a * d) << (top - k))
            matrix.append(row)
            rhs.append(b)
        x = solve_linear_system(matrix, rhs)
        bases.update((u, (xu.numerator, xu.denominator)) for u, xu in zip(rows, x))
    values: dict[Form, Fraction] = {(0, 0, 0, None): ZERO}
    for v in game.sink_vertices:
        values[forms[v]] = sinks[v]
    out = []
    for form in forms:
        x = values.get(form)
        if x is None:
            c, a, k, g = form
            m, d = bases[g]
            x = values[form] = Fraction(c * d + a * m, (q * d) << k)
        out.append(x)
    return tuple(out)


def evaluate(game: Game, sigma: Strategy, tau: Strategy) -> ValueVector:
    """Exact vertex values under a total strategy pair: chain_values
    with every MAX vertex on its sigma arc and every MIN vertex on its
    tau arc.
    """
    return chain_values(game, _choices(game, sigma, tau))


@dataclass(frozen=True)
class Violation:
    vertex: int
    expected: Fraction
    found: Fraction


@dataclass(frozen=True)
class OptimalityReport:
    satisfied: bool
    violations: tuple[Violation, ...]


_SATISFIED = OptimalityReport(True, ())


def one_step_value(game: Game, w: ValueVector, v: int) -> Fraction:
    """Value the local optimality equations demand at one vertex; a new
    Fraction only at an AVE vertex, else a value of w or the game."""
    kind = game.kinds[v]
    if kind is _SINK:
        return game.sink_value(v)
    if kind is _AVE:
        s1, s2 = game.succs[v]
        a, b = w[s1], w[s2]
        try:
            n1, d1, n2, d2 = a.numerator, a.denominator, b.numerator, b.denominator
        except AttributeError:
            _parts(w, (s1, s2))  # raises unless both are ints or Fractions
            raise
        return Fraction(n1 * d2 + n2 * d1, 2 * d1 * d2)
    return w[argbest(kind, game.succs[v], w)]


def check_local_optimality(game: Game, w: ValueVector) -> OptimalityReport:
    """Check the local optimality equations at every vertex.

    MAX vertices must equal the maximum over successors, MIN the
    minimum, AVE the half-sum of its two successors, sinks their own
    value.  In a stopping game these equations pin down the value
    vector uniquely.  w's ints or Fractions are compared on their
    integers, and only a failing vertex gets one_step_value's Fraction.
    """
    if len(w) != game.n:
        raise PreconditionError("value vector length differs from vertex count")
    parts, succs = _parts(w, range(game.n)), game.succs
    bad = []
    for v, kind in enumerate(game.kinds):
        num, den = parts[v]
        if kind is _AVE:
            (n1, d1), (n2, d2) = parts[succs[v][0]], parts[succs[v][1]]
            ok = (n1 * d2 + n2 * d1) * den == 2 * num * d1 * d2
        elif kind is _SINK:
            x = game.sink_values[v]
            ok = num * x.denominator == x.numerator * den
        else:  # equal values have equal parts, both in lowest terms
            ok = parts[argbest(kind, succs[v], w)] == (num, den)
        if not ok:
            bad.append(v)
    if not bad:
        return _SATISFIED
    violations = [Violation(v, one_step_value(game, w, v), w[v]) for v in bad]
    return OptimalityReport(False, tuple(violations))


def greedy_strategies(game: Game, w: ValueVector) -> StrategyPair:
    """Strategy pair reading the argmax/argmin out of a locally optimal w.

    Ties go to the smallest successor id, except at the MAX vertices of
    a non-stopping game.  There a tie can keep the play circling forever
    at worth 0, so MAX takes the smallest-id tied successor of lower
    exit rank (its attractor round over the tied arcs, _exit_ranks),
    closer to leaving its value class.  Refuses a w
    that is not locally optimal, because the greedy readout is only
    meaningful there.
    """
    report = check_local_optimality(game, w)
    if not report.satisfied:
        raise PreconditionError(
            "value vector violates local optimality at "
            f"{[bad.vertex for bad in report.violations]}"
        )
    sigma = {v: argbest(_MAX, game.succs[v], w) for v in game.max_vertices}
    tau = {v: argbest(_MIN, game.succs[v], w) for v in game.min_vertices}
    if not check_stopping(game).stopping:
        rank = _exit_ranks(game, w)
        for v in game.max_vertices:
            if rank[v] is not None:
                sigma[v] = min(
                    s for s in game.succs[v]
                    if w[s] == w[v] and rank[s] is not None and rank[s] < rank[v]
                )
    return StrategyPair(Strategy(Player.MAX, sigma), Strategy(Player.MIN, tau))


def _exit_ranks(game: Game, w: ValueVector) -> list[int | None]:
    """Steps from each vertex to leaving its value class under w.

    Sinks, and AVE vertices with a successor of another value, have
    rank 0.  Any other vertex is one step above its tied successors
    (those of its own value): above the lowest for MAX and AVE vertices,
    above the highest for MIN vertices, which may dodge.  These are the
    attractor rounds over the tied arcs, where MIN vertices need every
    tied arc; None where no rank exists.
    """
    tied = [[s for s in out if w[s] == w[v]] for v, out in enumerate(game.succs)]
    seeds = [
        v for v, kind in enumerate(game.kinds)
        if kind is _SINK or (kind is _AVE and len(tied[v]) < 2)
    ]
    need = [len(t) if k is _MIN else 1 for k, t in zip(game.kinds, tied)]
    return attractor(tied, need, seeds)


def _min_zero_region(game: Game, sigma: Strategy) -> frozenset[int]:
    """Vertices where MIN can force value 0 against the fixed sigma.

    Largest set without positive sinks such that AVE members keep both
    successors inside, MAX members have their sigma choice inside, and
    MIN members have at least one successor inside.  From such a set
    MIN confines the play forever, so its value is 0; outside it every
    MIN strategy leaks to a positive sink with positive probability.
    The complement is the attractor of the positive sinks in which MIN
    joins only once all its arcs lead in.
    """
    arcs = [
        (sigma[v],) if kind is _MAX else game.succs[v]
        for v, kind in enumerate(game.kinds)
    ]
    need = [len(out) if k is _MIN else 1 for k, out in zip(game.kinds, arcs)]
    positive = [v for v in game.sink_vertices if game.sink_value(v) > 0]
    leaks = attractor(arcs, need, positive)
    return frozenset(v for v in range(game.n) if leaks[v] is None)


def switchable(
    game: Game, strategy: Strategy, values: ValueVector
) -> tuple[tuple[int, int], ...]:
    """Vertices of strategy.owner that can strictly improve on their choice.

    A MAX vertex improves on a strictly larger successor value, a MIN
    vertex on a strictly smaller one.  Each switchable vertex is paired
    with its best successor (ties to the smallest id); the result is
    sorted by vertex id.
    """
    kind = strategy.owner.kind
    found = []
    for v in game.owned_vertices(strategy.owner):
        best = argbest(kind, game.succs[v], values)
        b, c = values[best], values[strategy[v]]
        if b.numerator * c.denominator != c.numerator * b.denominator:  # the pick never trails
            found.append((v, best))
    return tuple(found)


def _improve(
    game: Game,
    strategy: Strategy,
    respond: Callable[[Strategy], tuple[Strategy, ValueVector]],
    cap: int | None = None,
) -> tuple[list[Strategy], tuple[Strategy, ValueVector]]:
    """Strategy improvement for strategy.owner, from strategy.

    respond(s) answers s with the opponent's strategy and the values.
    Each round switches every switchable vertex and responds again,
    until nothing switches.  Raises InternalInvariantError unless every
    value moves the owner's way, every switched one strictly, within
    cap rounds.  Returns the visited strategies and the last response.
    """
    sign = 1 if strategy.owner is Player.MAX else -1
    history = [strategy]
    reply = respond(strategy)
    while switches := switchable(game, strategy, reply[1]):
        strategy = strategy.updated(dict(switches))
        history.append(strategy)
        if cap is not None and len(history) - 1 > cap:
            raise InternalInvariantError(
                "strategy iteration ran longer than the strategy space is large"
            )
        values, reply = reply[1], respond(strategy)
        new = reply[1]
        for i, (a, b) in enumerate(zip(values, new)):
            if sign * (a.numerator * b.denominator - b.numerator * a.denominator) > 0:
                raise InternalInvariantError(
                    f"policy iteration lost monotonicity at vertex {i}: {a} -> {b}"
                )
        for v, _ in switches:
            a, b = values[v], new[v]
            if sign * (b.numerator * a.denominator - a.numerator * b.denominator) <= 0:
                raise InternalInvariantError(
                    f"switched vertex {v} did not strictly improve: {values[v]} -> {new[v]}"
                )
    return history, reply


class BestResponse(NamedTuple):
    strategy: Strategy
    values: ValueVector


def best_response_min(game: Game, sigma: Strategy) -> BestResponse:
    """Exact best response of MIN against a total MAX strategy.

    Returns a MIN strategy and the value vector that simultaneously
    minimises every vertex value.  Vertices where MIN can confine the
    play away from positive sinks are pinned to a confining arc first:
    their value is 0, which plain switching would never discover and
    which no switch can undercut.  The rest start on their smallest
    successor id and _improve switches them; each round strictly
    decreases the value vector, which bounds the number of rounds.
    """
    _require_total(game, sigma)
    zero_region = _min_zero_region(game, sigma)
    choice = {}
    for v in game.min_vertices:
        if v in zero_region:
            choice[v] = min(s for s in game.succs[v] if s in zero_region)
        else:
            choice[v] = min(game.succs[v])
    tau = Strategy(Player.MIN, choice)
    history, (_, values) = _improve(game, tau, lambda t: (sigma, evaluate(game, sigma, t)))
    return BestResponse(history[-1], values)


def best_response_max(game: Game, tau: Strategy) -> BestResponse:
    """Exact best response of MAX against a total MIN strategy.

    Plain policy iteration suffices on the MAX side: a stalled strategy
    satisfies all MAX local equations, and since the value vector of a
    game is the least fixpoint of the one-step operator, stalling
    already certifies optimality.  _improve runs from the smallest
    successor id; each round strictly increases the value vector.
    """
    _require_total(game, tau)
    sigma = Strategy(Player.MAX, {v: min(game.succs[v]) for v in game.max_vertices})
    history, (_, values) = _improve(game, sigma, lambda s: (tau, evaluate(game, s, tau)))
    return BestResponse(history[-1], values)


class StoppingReport(NamedTuple):
    stopping: bool
    witness: frozenset[int]


def check_stopping(game: Game) -> StoppingReport:
    """Whether every strategy pair reaches a sink almost surely.

    The witness is the largest sink-free set some pair can confine the
    play to: AVE members keep both successors in the set, positional
    members at least one.  It is the complement of the attractor of the
    sinks in which AVE vertices join on one arc and positional vertices
    on all of theirs.  The game is stopping exactly when it is empty.
    Kept on the game after its first check, as game.structure is.
    """
    report = game.__dict__.get("_stopping")
    if report is None:
        need = [1 if k is _AVE else len(out) for k, out in zip(game.kinds, game.succs)]
        escapes = attractor(game.succs, need, game.sink_vertices)
        witness = frozenset(v for v in range(game.n) if escapes[v] is None)
        report = game.__dict__["_stopping"] = StoppingReport(not witness, witness)
    return report


def require_stopping(game: Game) -> None:
    """Raise NotStoppingError unless every strategy pair stops."""
    report = check_stopping(game)
    if not report.stopping:
        raise NotStoppingError(
            "game is not stopping; play can be confined to "
            f"{sorted(report.witness)}"
        )


def require_local_optimality(game: Game, w: ValueVector) -> ValueVector:
    """Certify a solver's answer: w as a tuple, if locally optimal.

    On a stopping game the local optimality equations pin down the
    value vector, so passing them certifies the values.  A violation
    is a solver bug: raises InternalInvariantError naming the vertices.
    """
    w = tuple(w)
    outcome = check_local_optimality(game, w)
    if not outcome.satisfied:
        raise InternalInvariantError(
            "values violate local optimality at "
            f"{[bad.vertex for bad in outcome.violations]}"
        )
    return w
