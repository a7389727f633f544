"""Cycle structure analysis: SCCs, fork counts and feedback vertex sets.

The specialised solvers are all parameterised by how far a game is from
acyclic.  The measures live here: an arc is a *cycle arc* when it lies
on some cycle avoiding sinks (equivalently, both endpoints share a
strongly connected component that contains a cycle), and a vertex is a
*fork* when two or more of its arcs are cycle arcs.  The fork counts
k_p (positional) and k_a (average) weigh each fork by its surplus of
cycle arcs beyond the first.  The smallest feedback vertex set is found
by an exact branching search over shortest cycles, whose cost grows
with the set size k as (cycle length)^k rather than n^k; a greedy count
of disjoint cycles cuts off the branches that cannot succeed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import InternalInvariantError, PreconditionError
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
    return _report(game.kinds, [tuple(c) for c in comps], component_of, cycle_succs)


def _report(kinds, components, component_of, cycle_succs) -> StructureReport:
    """The report whose cycle-arc targets are cycle_succs: forks, fork
    counts, flags and cycle arcs all follow from them."""
    fork_positional, fork_average = {}, {}
    for v, targets in enumerate(cycle_succs):
        if len(targets) >= 2:
            forks = fork_average if kinds[v] is VertexKind.AVE else fork_positional
            forks[v] = len(targets)
    return StructureReport(
        components=tuple(components),
        component_of=tuple(component_of),
        cycle_succs=tuple(cycle_succs),
        cycle_arcs=frozenset((v, s) for v, targets in enumerate(cycle_succs) for s in targets),
        fork_positional=fork_positional,
        fork_average=fork_average,
        k_p=sum(c - 1 for c in fork_positional.values()),
        k_a=sum(c - 1 for c in fork_average.values()),
        is_max_acyclic=all(kinds[v] is not VertexKind.MAX for v in fork_positional),
        is_min_acyclic=all(kinds[v] is not VertexKind.MIN for v in fork_positional),
    )


def component_game(
    game: Game, component: tuple[int, ...], boundary: Mapping[int, Fraction] | None = None
) -> tuple[Game, tuple[int, ...]]:
    """Compact game of one component: its vertices plus the distinct
    vertices its arcs leave into, the latter turned into sinks.

    The component must be one of game.structure.components; any other
    vertex set raises PreconditionError.

    Returns (sub, ids), where ids[i] is the original id of local vertex
    i.  Local ids follow original id order, so every "ties to the
    smallest id" rule picks the same vertex in the subgame as in the
    game.  Boundary values fill in the frontier sinks; a frontier sink
    absent from the mapping keeps its own value, and any other frontier
    vertex absent from it gets the placeholder 0.

    The subgame's structure report is read off the game's in
    O(component) work and cached on it, so sub.structure never runs
    analyze: the component keeps its cycle arcs (mapped to local ids,
    which keeps them sorted) and comes last, after one singleton per
    frontier sink.
    """
    report = game.structure
    inside = set(component)
    first = min(inside, default=-1)
    own = report.components[report.component_of[first]] if 0 <= first < game.n else ()
    if not own or inside != set(own):
        raise PreconditionError(f"{sorted(inside)} is not a strongly connected component")
    boundary = boundary or {}
    ids = tuple(sorted(inside.union(*[game.succs[v] for v in component])))
    local = {v: i for i, v in enumerate(ids)}
    kinds, succs, values, cycle_succs, frontier = [], [], [], [], []
    for i, v in enumerate(ids):
        if v in inside:
            kinds.append(game.kinds[v])
            succs.append(tuple([local[s] for s in game.succs[v]]))
            values.append(game.sink_values[v])
            cycle_succs.append(tuple([local[s] for s in report.cycle_succs[v]]))
        else:
            kinds.append(VertexKind.SINK)
            succs.append((i,))
            if game.is_sink(v):
                values.append(boundary.get(v, game.sink_value(v)))
            else:
                values.append(as_fraction(boundary.get(v, ZERO)))
            cycle_succs.append(())
            frontier.append((i,))
    sub = Game(tuple(kinds), tuple(succs), tuple(values))
    component_of = [len(frontier)] * sub.n
    for c, (i,) in enumerate(frontier):
        component_of[i] = c
    inner = tuple([local[v] for v in own])
    sub.__dict__["structure"] = _report(kinds, frontier + [inner], component_of, cycle_succs)
    return sub, ids


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

    Of all smallest sets, the lexicographically first sorted tuple;
    None when every such set has more than k_max vertices.  Cycles lie
    inside strongly connected components, so each cyclic component of
    game.structure is covered on its own and the union is the answer.
    Per component, a branching search finds the least size that works
    (_coverable), and the cover is then built greedily (_first_cover):
    its first vertex is the smallest one in any cover of that size, its
    second the smallest above the first in any such cover holding the
    first, and so on.

    Cost: a search with budget b has at most g^b leaves, where g is the
    most chain classes (see _chains) on a shortest cycle it branches
    over, and each node costs O(h * (n + m)) for its h chain heads;
    the greedy pass repeats it for at most one candidate per chain
    class and cover vertex.  That is polynomial for fixed k_max and g
    where subset enumeration cost n^k_max, and a component that trims
    to disjoint simple cycles (a single_cycle game) costs O(n + m).
    """
    report = game.structure
    succ = report.cycle_succs
    pred: list[list[int]] = [[] for _ in range(game.n)]
    for v in range(game.n):
        for s in succ[v]:
            pred[s].append(v)
    left = game.n if k_max is None else k_max
    cover: list[int] = []
    for comp in report.components:
        if not succ[comp[0]]:
            continue  # no cycle in this component
        size = next((b for b in range(1, left + 1) if _coverable(succ, pred, comp, b)), None)
        if size is None:
            return None
        left -= size
        cover += _first_cover(succ, pred, comp, size)
    return tuple(sorted(cover))


def _trim(succ, pred, live) -> tuple[set[int], dict[int, int], dict[int, int]]:
    """The vertices of live left after repeatedly dropping those with no
    live predecessor or no live successor, with the in- and out-degrees
    of the survivors inside that set.  Dropped vertices lie on no cycle.
    """
    indeg = dict.fromkeys(live, 0)
    outdeg = {}
    for v in indeg:
        out = 0
        for s in succ[v]:
            if s in indeg:
                indeg[s] += 1
                out += 1
        outdeg[v] = out
    alive = set(indeg)
    queue = [v for v in indeg if not indeg[v] or not outdeg[v]]
    while queue:
        v = queue.pop()
        if v not in alive:
            continue
        alive.remove(v)
        for s in succ[v]:
            if s in alive:
                indeg[s] -= 1
                if not indeg[s]:
                    queue.append(s)
        for p in pred[v]:
            if p in alive:
                outdeg[p] -= 1
                if not outdeg[p]:
                    queue.append(p)
    return alive, indeg, outdeg


def _chains(succ, alive, indeg, outdeg) -> tuple[list[list[int]], list[list[int]]]:
    """The chain classes of a trimmed graph, as (chains, loops).

    An arc p -> v that is p's only arc out and v's only arc in joins p
    and v in one class, so every cycle through a class runs through all
    of it and deleting any member breaks the same cycles.  A chain
    starts at its head, the one member entered by no such arc; a loop is
    a class closed on itself, a simple cycle with no other arc in or out.
    """
    after = {}
    for v in alive:
        if outdeg[v] == 1:
            s = next(s for s in succ[v] if s in alive)
            if indeg[s] == 1:
                after[v] = s
    joined = set(after.values())
    chains, loops = [], []
    for v in alive:
        if v not in joined:
            chain = [v]
            while chain[-1] in after:
                chain.append(after[chain[-1]])
            chains.append(chain)
    left = joined.difference(*chains)
    while left:
        loop = [left.pop()]
        while after[loop[-1]] != loop[0]:
            loop.append(after[loop[-1]])
            left.remove(loop[-1])
        loops.append(loop)
    return chains, loops


def _cycle_through(succ, alive, root, limit) -> list[int] | None:
    """A shortest cycle through root with fewer than limit vertices, in
    path order from root, by breadth-first search; None if there is none.
    """
    parent = {root: root}
    layer = [root]
    for _ in range(limit - 1):
        below = []
        for x in layer:
            for s in succ[x]:
                if s == root:
                    path = [x]
                    while path[-1] != root:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                if s in alive and s not in parent:
                    parent[s] = x
                    below.append(s)
        if not below:
            return None
        layer = below
    return None


def _shortest_cycle(succ, alive, chains) -> list[int]:
    """A shortest cycle of a trimmed graph without loops.  Every cycle
    runs through a chain head, so searching from the heads alone finds
    one."""
    cycle, limit = [], len(alive) + 1
    for chain in chains:
        found = _cycle_through(succ, alive, chain[0], limit)
        if found:
            cycle, limit = found, len(found)
    return cycle


def _disjoint_cycles(succ, pred, live, cap: int) -> int:
    """How many vertex-disjoint cycles among the live vertices a greedy
    pass finds, stopping once the count passes cap: each loop counts as
    one, then a shortest cycle is deleted and the rest trimmed again.
    Every cover needs one vertex per such cycle."""
    count = 0
    while count <= cap:
        alive, indeg, outdeg = _trim(succ, pred, live)
        chains, loops = _chains(succ, alive, indeg, outdeg)
        count += len(loops)
        if not chains:
            break
        for loop in loops:
            alive.difference_update(loop)
        live = alive.difference(_shortest_cycle(succ, alive, chains))
        count += 1
    return count


def _coverable(succ, pred, live, budget: int) -> bool:
    """Whether deleting at most budget vertices breaks every cycle among
    the live vertices.

    Trims the graph, charges one vertex to each loop, and branches over
    the chain classes of a shortest cycle: one of them must lose a
    vertex, and any of its members will do.  Before branching it
    refuses a budget below the greedy count of disjoint cycles, so a
    search that must fail stops without walking its tree.
    """
    alive, indeg, outdeg = _trim(succ, pred, live)
    chains, loops = _chains(succ, alive, indeg, outdeg)
    for loop in loops:
        alive.difference_update(loop)
    budget -= len(loops)
    if not chains or budget <= 0:
        return budget >= 0 and not chains
    cycle = _shortest_cycle(succ, alive, chains)
    if _disjoint_cycles(succ, pred, alive.difference(cycle), budget - 1) >= budget:
        return False
    owner = {v: chain for chain in chains for v in chain}
    heads = {owner[v][0] for v in cycle}
    return any(_coverable(succ, pred, alive - {h}, budget - 1) for h in heads)


def _first_cover(succ, pred, comp, size: int) -> list[int]:
    """The lexicographically first cover of the component with size
    vertices, which is the least size that covers it.

    Each vertex is the smallest one above the last that some cover of
    that size extends the chosen vertices with.  That cover has no
    other vertex below it, since such a vertex would have been chosen
    first, so the greedy choice is the lexicographic one.  When a
    candidate fails, the later members of its chain class fail too (a
    cover through one would work through the first), so they are
    skipped.
    """
    chosen: list[int] = []
    live = set(comp)
    while len(chosen) < size:
        alive, indeg, outdeg = _trim(succ, pred, live)
        chains, loops = _chains(succ, alive, indeg, outdeg)
        owner = {v: chain for chain in chains + loops for v in chain}
        failed: set[int] = set()
        for v in sorted(alive):
            if chosen and v < chosen[-1] or v in failed:
                continue
            if _coverable(succ, pred, alive - {v}, size - len(chosen) - 1):
                chosen.append(v)
                live = alive - {v}
                break
            failed.update(owner[v])
        else:
            raise InternalInvariantError("no vertex extends the feedback set")
    return chosen
