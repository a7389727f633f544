"""Solvers that exploit how close a game's cycle structure is to a DAG.

Acyclic games fall to a single backward pass; strongly connected
MAX-acyclic games to strategy iteration with a linear iteration bound.
Every other component goes through one recursion, _fork_component,
which keeps the first locally optimal value of one candidate stream: a
branch per cycle-arc choice of its positional forks, or else the
closed values, then each side's openings, MAX first.  A side opens the
escaping vertex nearest before a fork and the vertices its solution
nominates, recursing on fewer AVE forks down to single cycles, where a
side costs at most two acyclic solves and the smallest-id escaping
vertex stands in for the fork.  All of them return exact rationals and
certify their answer against the local optimality equations.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterator

from .errors import InternalInvariantError, PreconditionError
from .evaluation import (
    attractor,
    chain_values,
    check_local_optimality,
    check_stopping,
    one_step_value,
    require_local_optimality,
    require_stopping,
)
from .iteration import hoffman_karp
from .model import Game, ValueVector, VertexKind, argbest, merge_sink_neighbors
from .structure import StructureReport, component_game

ZERO = Fraction(0)


def solve_acyclic(game: Game) -> ValueVector:
    """Optimal values of a DAG game in one backward pass.

    The attractor of the sinks in which every arc is needed ranks each
    vertex one round above its highest successor, so in round order
    every vertex takes its one-step value over solved successors, sinks
    first.  Refuses games with a sink-free cycle.
    """
    rounds = attractor(game.succs, [len(out) for out in game.succs], game.sink_vertices)
    if None in rounds:
        raise PreconditionError("game has a sink-free cycle")
    values: list[Fraction] = [ZERO] * game.n
    for v in sorted(range(game.n), key=rounds.__getitem__):
        values[v] = one_step_value(game, values, v)
    return tuple(values)


def solve_by_scc(game: Game, component_solver) -> ValueVector:
    """Assemble optimal values component by component.

    Components are processed successors-first, so when a component's
    turn comes every arc leaving it points at an already-solved vertex
    and the component solver sees those values as frontier sinks of the
    compact component game; its values map back through the id map,
    where only the component's own vertices are still unsolved.  Sinks
    and non-cyclic singletons are folded in directly.
    """
    solved: dict[int, Fraction] = {}
    for comp in game.structure.components:
        v = comp[0]
        if len(comp) == 1 and game.is_sink(v):
            solved[v] = game.sink_value(v)
        elif len(comp) == 1 and v not in game.succs[v]:
            solved[v] = one_step_value(game, solved, v)
        else:
            sub, ids = component_game(game, comp, solved)
            for u, x in zip(ids, component_solver(sub)):
                solved.setdefault(u, x)
    return require_local_optimality(game, [solved[v] for v in range(game.n)])


def _require_one_cycle_component(game: Game, report: StructureReport) -> None:
    """The preconditions shared by the strongly connected solvers.

    Every non-sink vertex must belong to a single cyclic component
    (frontier sinks aside), as the game's report tells: the cyclic
    components and the sinks hold every vertex, and there is at most
    one cyclic component.
    """
    cyclic = [comp for comp in report.components if report.cycle_succs[comp[0]]]
    if sum(map(len, cyclic)) + len(game.sink_vertices) != game.n:
        raise PreconditionError(
            "expected one strongly connected component plus sinks"
        )
    if len(cyclic) > 1:
        raise PreconditionError("more than one strongly connected component")


def solve_max_acyclic_scc(game: Game) -> ValueVector:
    """Solve a strongly connected component where no MAX vertex forks.

    After merging each vertex's sink neighbors, strategy iteration from
    the all-open start provably needs at most one improvement step per
    MAX vertex; that bound is asserted.
    """
    _require_one_cycle_component(game, game.structure)
    if not game.structure.is_max_acyclic:
        raise PreconditionError("a MAX vertex has two outgoing cycle arcs")
    merged = merge_sink_neighbors(game)
    trace = hoffman_karp(merged, require_stopping=False)
    n_max = len(game.max_vertices)
    if trace.iterations > n_max:
        raise InternalInvariantError(
            f"{trace.iterations} improvement steps on a component "
            f"with {n_max} MAX vertices"
        )
    return trace.values


def _escape(game: Game, v: int, kind: VertexKind) -> int | None:
    """The best arc out of the cycle of a `kind` vertex v, or None when
    v is of another kind or has none.  Escapes lead to sinks: real ones
    or solved frontier vertices."""
    if game.kinds[v] is not kind:
        return None
    escapes = sorted(set(game.succs[v]).difference(game.structure.cycle_succs[v]))
    return argbest(kind, escapes, game.sink_values) if escapes else None


def _opened(game: Game, v: int, kind: VertexKind) -> Game:
    opened = (_escape(game, v, kind),)
    return game.replace(succs=game.succs[:v] + (opened,) + game.succs[v + 1:])


def _first_opened(
    opened: Game, report: StructureReport, kind: VertexKind, values: ValueVector,
    start: int, stop: set[int],
) -> int | None:
    """First `kind` vertex from start on, following cycle arcs and
    halting at a vertex in stop, whose best arc in the opened game
    under the given values leaves the cycle."""
    cur = start
    for _ in range(opened.n + 1):
        if cur in stop:
            return None
        targets = report.cycle_succs[cur]
        if opened.kinds[cur] is kind and argbest(kind, opened.succs[cur], values) not in targets:
            return cur
        if not targets:
            return None
        cur = targets[0]
    return None


def closed_values(game: Game, report: StructureReport) -> ValueVector:
    """Values when every positional vertex keeps the play inside.

    The report must be the game's own, game.structure.

    With positional choices committed to their one cycle arc the play
    is a Markov chain that only leaves through the coin flips of AVE
    vertices, and evaluation.chain_values gives its exact values: a
    plain cycle folds into forms of one unknown u, solved in closed
    form, x_u = c / (Q (2^k - a)) for the form (c, a, k, u) it reads
    round the cycle, and forking AVE vertices add at most one row each.
    """
    if report.k_p:
        raise PreconditionError("positional fork vertices present")
    _require_one_cycle_component(game, report)
    chosen, sink, ave = {}, VertexKind.SINK, VertexKind.AVE
    for v, kind in enumerate(game.kinds):
        if kind is sink or v in report.fork_average:
            continue
        targets = report.cycle_succs[v]
        if len(targets) != 1:
            raise InternalInvariantError(
                f"vertex {v} has {len(targets)} cycle arcs in a fork-free walk"
            )
        if kind is not ave:
            chosen[v] = targets[0]
    return chain_values(game, chosen)


def solve_almost_acyclic_scc(game: Game) -> ValueVector:
    """Solve one strongly connected single cycle exactly.

    A single cycle is the base case of the fork recursion,
    _fork_component called directly: the closed values, then per side
    the smallest-id escaping vertex opened (standing in for the missing
    fork) and the vertex its acyclic solution really opens first.  For
    single cycles one of these candidates always lands.
    """
    if game.structure.k_p or game.structure.k_a:
        raise PreconditionError("component is not a single cycle")
    return _fork_component(game)


def solve_fork_fpt(game: Game) -> ValueVector:
    """Solve a stopping game with few fork vertices.

    Per strongly connected component, _fork_component enumerates the
    cycle-arc choices of positional fork vertices (2^{k_p} branches
    when binary), and within each branch recurses on the number of AVE
    forks by opening one vertex at a time.  Local optimality in the
    component, which on stopping games pins the values, accepts.
    """
    require_stopping(game)
    return solve_by_scc(game, _fork_component)


def _fork_component(cgame: Game) -> ValueVector:
    """The first locally optimal value that _fork_candidates yields.

    What a component may cost:
    - fork-free: one closed_values call and at most two solve_acyclic
      calls per side, the opener and one nominee;
    - with AVE forks: per side, the opener plus at most one nominee per
      cycle arc out of each fork, each a recursive solve on fewer AVE
      forks, so the depth is at most k_a plus one;
    - with positional forks: one branch per choice of cycle arcs.
    """
    for w in _fork_candidates(cgame):
        if check_local_optimality(cgame, w).satisfied:
            return w
    what = "positional fork resolution" if cgame.structure.k_p else "opening"
    raise InternalInvariantError(f"no {what} was optimal")


def _fork_candidates(cgame: Game) -> Iterator[ValueVector]:
    """A component's candidates in the order tried: a branch per choice
    of positional-fork cycle arcs, else closed values, then openings."""
    report = cgame.structure
    forks = sorted(report.fork_positional)
    if forks:
        pools = [report.cycle_succs[v] for v in forks]
        for combo in itertools.product(*pools):
            succs = list(cgame.succs)
            for v, cycle, keep in zip(forks, pools, combo):
                succs[v] = tuple([s for s in succs[v] if s not in cycle or s == keep])
            yield solve_by_scc(cgame.replace(succs=tuple(succs)), _fork_component)
        return
    yield closed_values(cgame, report)
    for kind in (VertexKind.MAX, VertexKind.MIN):
        if kind is VertexKind.MIN and not check_stopping(cgame).stopping:
            # play can stay inside forever, so closed MIN choices cost
            # MIN nothing and the MIN side should never have been reached
            raise InternalInvariantError(
                "MAX side failed on a component that play never has to leave"
            )
        yield from _fork_openings(cgame, kind)


def _fork_openings(cgame: Game, kind: VertexKind) -> Iterator[ValueVector]:
    """One side's openings: the opener, then each vertex its solution
    nominates, the first it opens downstream of each fork.  The opener
    is the escaping `kind` vertex of least (round, id) in a fork's
    attractor over the other vertices' cycle arcs, from the first fork
    whose attractor holds one; the smallest-id escaping vertex stands in
    for a missing fork.  An opening replaces one vertex's arcs by a
    single escape, so it adds no positional fork, and each solve
    recurses on strictly fewer AVE forks; an opened game that keeps k_a
    raises InternalInvariantError.  Fork-free, each opened game is a DAG.
    """
    report = cgame.structure
    escaping = [v for v in range(cgame.n) if _escape(cgame, v, kind) is not None]
    forks = sorted(report.fork_average) or escaping[:1]
    fork_set = set(forks)
    arcs = [() if v in fork_set else a for v, a in enumerate(report.cycle_succs)]
    for f in forks:
        rounds = attractor(arcs, [1] * cgame.n, [f])
        near = [(rounds[v], v) for v in escaping if rounds[v] is not None]
        if near:
            break
    else:
        return
    opener = min(near)[1]

    def solve(sub: Game) -> ValueVector:
        if report.k_a == 0:
            return solve_acyclic(sub)
        if sub.structure.k_a >= report.k_a:
            raise InternalInvariantError(
                f"average fork weight went from {report.k_a} to {sub.structure.k_a}"
            )
        return solve_by_scc(sub, _fork_component)

    sub1 = _opened(cgame, opener, kind)
    w1 = solve(sub1)
    yield w1
    tried = {opener}
    for f in forks:
        for start in report.cycle_succs[f]:
            c = _first_opened(sub1, report, kind, w1, start, fork_set)
            if c is not None and c not in tried:
                tried.add(c)
                yield solve(_opened(cgame, c, kind))
