"""Cycle structure analysis: SCCs, fork counts and feedback vertex sets.

The specialised solvers are all parameterised by how far a game is from
acyclic.  The measures live here: an arc is a *cycle arc* when it lies
on some cycle avoiding sinks (equivalently, both endpoints share a
strongly connected component that contains a cycle), and a vertex is a
*fork* when two or more of its arcs are cycle arcs.  The fork counts
k_p (positional) and k_a (average) weigh each fork by its surplus of
cycle arcs beyond the first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .model import Game, VertexKind, as_fraction

ZERO = Fraction(0)


def strongly_connected_components(game: Game) -> list[list[int]]:
    """Tarjan's algorithm, iterative so huge cycles don't hit the
    recursion limit.

    Sinks take no part in cycle structure: their self-loops are ignored
    and each sink comes out as its own singleton component.  Components
    are emitted successors-first: every arc leaving a component points
    into a component that appears earlier in the list.
    """
    n = game.n
    sink = [k is VertexKind.SINK for k in game.kinds]

    def arcs(v: int) -> tuple[int, ...]:
        return () if sink[v] else game.succs[v]

    UNSEEN = -1
    index = [UNSEEN] * n
    low = [0] * n
    on_stack = [False] * n
    scc_stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != UNSEEN:
            continue
        work = [(root, 0)]
        while work:
            v, child = work[-1]
            if child == 0:
                index[v] = low[v] = counter
                counter += 1
                scc_stack.append(v)
                on_stack[v] = True
            out = arcs(v)
            advanced = False
            while child < len(out):
                s = out[child]
                child += 1
                if index[s] == UNSEEN:
                    work[-1] = (v, child)
                    work.append((s, 0))
                    advanced = True
                    break
                if on_stack[s]:
                    low[v] = min(low[v], index[s])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = scc_stack.pop()
                    on_stack[u] = False
                    comp.append(u)
                    if u == v:
                        break
                comp.sort()
                components.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return components


@dataclass(frozen=True)
class StructureReport:
    """Everything the solver dispatch needs to know about cycles.

    Attributes:
        components: SCCs, successors-first (arcs leave a component only
            into earlier ones); sinks are singletons.
        component_of: component index of each vertex.
        cycle_succs: each vertex's distinct cycle-arc targets, sorted.
        cycle_arcs: set of (x, y) arcs lying on a sink-free cycle.
        fork_positional: positional vertices with >= 2 cycle arcs,
            mapped to their cycle-arc count (distinct targets).
        fork_average: same for AVE vertices.
        k_p / k_a: total surplus cycle arcs at positional / AVE forks.
        is_max_acyclic / is_min_acyclic: no MAX (resp. MIN) fork.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    cycle_succs: tuple[tuple[int, ...], ...]
    cycle_arcs: frozenset[tuple[int, int]]
    fork_positional: Mapping[int, int]
    fork_average: Mapping[int, int]
    k_p: int
    k_a: int
    is_max_acyclic: bool
    is_min_acyclic: bool

    @property
    def is_acyclic(self) -> bool:
        return not self.cycle_arcs

    @property
    def is_almost_acyclic(self) -> bool:
        return self.k_p == 0 and self.k_a == 0


def analyze(game: Game) -> StructureReport:
    """Compute the structure report of a game."""
    comps = strongly_connected_components(game)
    component_of = [0] * game.n
    for i, comp in enumerate(comps):
        for v in comp:
            component_of[v] = i

    sink = [k is VertexKind.SINK for k in game.kinds]
    cyclic_component = [len(c) > 1 for c in comps]
    for v in range(game.n):
        if not sink[v] and v in game.succs[v]:
            cyclic_component[component_of[v]] = True

    cycle_succs: list[tuple[int, ...]] = [()] * game.n
    for v in range(game.n):
        c = component_of[v]
        if sink[v] or not cyclic_component[c]:
            continue
        cycle_succs[v] = tuple(
            sorted({s for s in game.succs[v] if not sink[s] and component_of[s] == c})
        )

    fork_positional, fork_average = {}, {}
    for v, targets in enumerate(cycle_succs):
        if len(targets) >= 2:
            forks = fork_average if game.kinds[v] is VertexKind.AVE else fork_positional
            forks[v] = len(targets)
    return StructureReport(
        components=tuple(tuple(c) for c in comps),
        component_of=tuple(component_of),
        cycle_succs=tuple(cycle_succs),
        cycle_arcs=frozenset((v, s) for v, targets in enumerate(cycle_succs) for s in targets),
        fork_positional=fork_positional,
        fork_average=fork_average,
        k_p=sum(c - 1 for c in fork_positional.values()),
        k_a=sum(c - 1 for c in fork_average.values()),
        is_max_acyclic=all(
            game.kinds[v] is not VertexKind.MAX for v in fork_positional
        ),
        is_min_acyclic=all(
            game.kinds[v] is not VertexKind.MIN for v in fork_positional
        ),
    )


def component_game(
    game: Game, component: tuple[int, ...], boundary: Mapping[int, Fraction] | None = None
) -> tuple[Game, tuple[int, ...]]:
    """Compact game of one component: its vertices plus the distinct
    vertices its arcs leave into, the latter turned into sinks.

    Returns (sub, ids), where ids[i] is the original id of local vertex
    i.  Local ids follow original id order, so every "ties to the
    smallest id" rule picks the same vertex in the subgame as in the
    game.  Boundary values fill in the frontier sinks; a frontier sink
    absent from the mapping keeps its own value, and any other frontier
    vertex absent from it gets the placeholder 0.
    """
    boundary = boundary or {}
    inside = set(component)
    ids = tuple(sorted(inside.union(*(game.succs[v] for v in component))))
    local = {v: i for i, v in enumerate(ids)}
    kinds, succs, values = [], [], []
    for i, v in enumerate(ids):
        if v in inside:
            kinds.append(game.kinds[v])
            succs.append(tuple(local[s] for s in game.succs[v]))
            values.append(game.sink_values[v])
        else:
            kinds.append(VertexKind.SINK)
            succs.append((i,))
            if game.is_sink(v):
                values.append(boundary.get(v, game.sink_value(v)))
            else:
                values.append(as_fraction(boundary.get(v, ZERO)))
    return Game(tuple(kinds), tuple(succs), tuple(values)), ids


def topological_order(vertices: Iterable[int], succs) -> list[int] | None:
    """Kahn's algorithm on the subgraph the given vertices induce.

    succs[v] lists the successors of v; those outside the subgraph are
    ignored.  Returns the vertices ordered so that every arc points
    forward, or None when the subgraph has a cycle.
    """
    indeg = dict.fromkeys(vertices, 0)
    for v in indeg:
        for s in succs[v]:
            if s in indeg:
                indeg[s] += 1
    queue = [v for v, d in indeg.items() if d == 0]
    order = []
    while queue:
        v = queue.pop()
        order.append(v)
        for s in succs[v]:
            if s in indeg:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
    return order if len(order) == len(indeg) else None


def is_feedback_set(game: Game, vertices) -> bool:
    """Whether deleting the given vertices breaks every sink-free cycle."""
    removed = set(vertices)
    keep = (v for v in range(game.n) if not game.is_sink(v) and v not in removed)
    return topological_order(keep, game.succs) is not None


def feedback_vertex_set(game: Game, k_max: int | None = None) -> tuple[int, ...] | None:
    """Smallest vertex set whose removal leaves the sink-free graph acyclic.

    Plain subset enumeration: sizes 0, 1, 2, ... up to k_max, subsets
    of each size in lexicographic id order, first hit wins.  Exact and
    deterministic; exponential in k_max, which is the point of the cap.
    Returns None when no set within the cap works.
    """
    vertices = [v for v in range(game.n) if not game.is_sink(v)]
    succs = {
        v: [s for s in set(game.succs[v]) if not game.is_sink(s)] for v in vertices
    }
    if k_max is None:
        k_max = len(vertices)
    for size in range(min(k_max, len(vertices)) + 1):
        for combo in itertools.combinations(vertices, size):
            removed = set(combo)
            keep = [v for v in vertices if v not in removed]
            if topological_order(keep, succs) is not None:
                return combo
    return None
