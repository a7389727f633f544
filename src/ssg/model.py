"""Game graphs for simple stochastic games with exact rational payoffs.

A game is a directed graph over densely numbered vertices.  Every vertex
is a MAX, MIN, AVE or SINK vertex.  MAX and MIN vertices belong to the
two players, AVE vertices flip a fair coin between exactly two arcs, and
SINK vertices carry a rational value in [0, 1] and loop on themselves.
A play earns the value of the sink it reaches, and 0 if it never reaches
one; MAX maximises the expectation, MIN minimises it.

Vertex ids are stable at the API boundary: sink substitutions and sink
merging keep the numbering of the input game, and every public solver
returns values in it.  Component subgames are compact, renumbered in
original id order; solve_by_scc maps their values back.  Games are
immutable, so game.structure analyses a game on first use and keeps the
report.  A request analyses its input game once; a component game
inherits its report from the game it is cut from, and only games a
solver reshapes (the opened and branch games of the fork recursion)
are analysed again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence, Union

from .errors import InvalidGameError, InvalidStrategyError, PreconditionError

RationalLike = Union[Fraction, int, str]

#: Dense value vector: entry i is the exact value of vertex i.
ValueVector = tuple[Fraction, ...]


class VertexKind(enum.Enum):
    MAX = "max"
    MIN = "min"
    AVE = "ave"
    SINK = "sink"


_MAX = VertexKind.MAX  # bound once: an enum member lookup costs more than a global


class Player(enum.Enum):
    MAX = "max"
    MIN = "min"

    @property
    def kind(self) -> VertexKind:
        return VertexKind.MAX if self is Player.MAX else VertexKind.MIN


def as_fraction(value: RationalLike) -> Fraction:
    """Coerce an int, "p/q" string or Fraction to an exact Fraction.

    Floats are rejected: they would silently smuggle binary rounding
    into a package whose whole point is exact arithmetic.
    """
    if isinstance(value, float):
        raise TypeError("refusing float %r; pass a Fraction, int or 'p/q' string" % value)
    return Fraction(value)


@dataclass(frozen=True)
class Game:
    """Immutable simple stochastic game.

    Attributes:
        kinds: kind of each vertex, indexed by vertex id.
        succs: successor tuple of each vertex (arcs leave in this order).
        sink_values: value of each SINK vertex, None elsewhere.
    """

    kinds: tuple[VertexKind, ...]
    succs: tuple[tuple[int, ...], ...]
    sink_values: tuple[Fraction | None, ...]

    @property
    def n(self) -> int:
        return len(self.kinds)

    def is_sink(self, v: int) -> bool:
        return self.kinds[v] is VertexKind.SINK

    def is_positional(self, v: int) -> bool:
        return self.kinds[v] in (VertexKind.MAX, VertexKind.MIN)

    def sink_value(self, v: int) -> Fraction:
        value = self.sink_values[v]
        if value is None:
            raise InvalidGameError(f"vertex {v} is not a sink")
        return value

    def vertices_of(self, kind: VertexKind) -> tuple[int, ...]:
        return tuple([v for v, k in enumerate(self.kinds) if k is kind])

    @cached_property
    def structure(self):
        """structure.analyze(self), computed on first use and kept.

        structure.component_game puts a component game's report here
        when it builds the game, read off its parent's, so that game is
        never analysed.
        """
        from .structure import analyze  # looked up per call; structure imports model

        return analyze(self)

    @cached_property
    def max_vertices(self) -> tuple[int, ...]:
        return self.vertices_of(VertexKind.MAX)

    @cached_property
    def min_vertices(self) -> tuple[int, ...]:
        return self.vertices_of(VertexKind.MIN)

    @cached_property
    def ave_vertices(self) -> tuple[int, ...]:
        return self.vertices_of(VertexKind.AVE)

    @cached_property
    def sink_vertices(self) -> tuple[int, ...]:
        return self.vertices_of(VertexKind.SINK)

    def owned_vertices(self, owner: Player) -> tuple[int, ...]:
        return self.max_vertices if owner is Player.MAX else self.min_vertices

    @property
    def n_max(self) -> int:
        return len(self.max_vertices)

    @property
    def n_min(self) -> int:
        return len(self.min_vertices)

    @property
    def n_ave(self) -> int:
        return len(self.ave_vertices)

    def replace(self, **changes) -> "Game":
        """Copy of the game with some fields swapped (no validation)."""
        data = {
            "kinds": self.kinds,
            "succs": self.succs,
            "sink_values": self.sink_values,
        }
        data.update(changes)
        return Game(**data)


@dataclass(frozen=True)
class Strategy:
    """Pure stationary strategy, possibly partial.

    Maps each vertex in its support to the chosen successor.  A total
    strategy covers every vertex its owner controls; partial strategies
    appear when a solver pins down a few choices and leaves the rest to
    a subgame.
    """

    owner: Player
    choice: Mapping[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "choice", dict(self.choice))

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.choice))

    def __getitem__(self, vertex: int) -> int:
        return self.choice[vertex]

    def __contains__(self, vertex: int) -> bool:
        return vertex in self.choice

    def updated(self, changes: Mapping[int, int]) -> "Strategy":
        merged = dict(self.choice)
        merged.update(changes)
        return Strategy(self.owner, merged)

    def is_total_for(self, game: Game) -> bool:
        return all(v in self.choice for v in game.owned_vertices(self.owner))


@dataclass(frozen=True)
class StrategyPair:
    sigma: Strategy
    tau: Strategy


def game_of(rows: Sequence[tuple]) -> Game:
    """Build and validate a game from one tuple per vertex.

    Rows are ("max", *succs), ("min", *succs), ("ave", s1, s2) or
    ("sink", value).  Sinks get their self-loop automatically; values
    may be ints, Fractions or "p/q" strings.

    >>> g = game_of([("ave", 1, 2), ("sink", 0), ("sink", 1)])
    """
    kinds: list[VertexKind] = []
    succs: list[tuple[int, ...]] = []
    values: list[Fraction | None] = []
    for v, row in enumerate(rows):
        if not row:
            raise InvalidGameError(f"vertex {v}: empty row")
        tag = row[0]
        try:
            kind = VertexKind(tag)
        except ValueError:
            raise InvalidGameError(f"vertex {v}: unknown kind {tag!r}") from None
        kinds.append(kind)
        if kind is VertexKind.SINK:
            if len(row) != 2:
                raise InvalidGameError(f"vertex {v}: sink rows are ('sink', value)")
            succs.append((v,))
            values.append(as_fraction(row[1]))
        else:
            succs.append(tuple([int(s) for s in row[1:]]))
            values.append(None)
    game = Game(tuple(kinds), tuple(succs), tuple(values))
    validate(game)
    return game


def validate(game: Game) -> None:
    """Check the structural invariants; raise InvalidGameError if any fail.

    Checks: arc targets in range, MAX/MIN outdegree >= 1, AVE outdegree
    exactly 2, sinks carry a value in [0, 1] and loop on themselves, and
    non-sinks carry no value.
    """
    n = game.n
    if not (len(game.succs) == len(game.sink_values) == n):
        raise InvalidGameError("kinds, succs and sink_values must have equal length")
    for v in range(n):
        kind = game.kinds[v]
        out = game.succs[v]
        for s in out:
            if not (0 <= s < n):
                raise InvalidGameError(f"vertex {v}: successor {s} out of range")
        value = game.sink_values[v]
        if kind is VertexKind.SINK:
            if out != (v,):
                raise InvalidGameError(f"sink {v} must have exactly the self-loop, got {out}")
            if value is None:
                raise InvalidGameError(f"sink {v} has no value")
            if not (0 <= value <= 1):
                raise InvalidGameError(f"sink {v} value {value} outside [0, 1]")
        else:
            if value is not None:
                raise InvalidGameError(f"non-sink {v} carries a sink value")
            if kind is VertexKind.AVE:
                if len(out) != 2:
                    raise InvalidGameError(f"AVE vertex {v} must have outdegree 2, got {len(out)}")
            elif len(out) < 1:
                raise InvalidGameError(f"vertex {v} has no outgoing arc")


def check_strategy(game: Game, strategy: Strategy) -> None:
    """Raise InvalidStrategyError unless every choice is a real owned arc."""
    owned = set(game.owned_vertices(strategy.owner))
    for v in strategy.support:
        if v not in owned:
            raise InvalidStrategyError(
                f"vertex {v} is not a {strategy.owner.value.upper()} vertex"
            )
        target = strategy.choice[v]
        if target not in game.succs[v]:
            raise InvalidStrategyError(
                f"vertex {v} has no arc to {target} (arcs: {game.succs[v]})"
            )


def _parts(value: Sequence, vertices: Sequence[int]) -> list[tuple[int, int]]:
    """(numerator, denominator) of each vertex's value, which must be an int or a Fraction."""
    try:
        return [(x.numerator, x.denominator) for x in map(value.__getitem__, vertices)]
    except AttributeError:
        v = next(v for v in vertices if not isinstance(value[v], (int, Fraction)))
        raise PreconditionError(f"vertex {v}: {value[v]!r} is not an int or a Fraction") from None


def argbest(kind: VertexKind, succs: Sequence[int], value: Sequence[Fraction]) -> int:
    """The successor a MAX vertex (or, for any other kind, a MIN vertex)
    picks under the given int or Fraction values, compared on their
    integers; ties go to the smallest id.
    """
    sign = 1 if kind is _MAX else -1
    best, top, bottom = -1, 0, 1
    try:
        for s in succs:
            num, den = sign * value[s].numerator, value[s].denominator
            gap = num * bottom - top * den
            if gap > 0 or best < 0 or (not gap and s < best):
                best, top, bottom = s, num, den
    except AttributeError:
        _parts(value, succs)  # raises unless every value is an int or a Fraction
        raise
    return best


def vertex_to_sink(game: Game, vertex: int, value: RationalLike) -> Game:
    """Game where one vertex is replaced by a sink of the given value.

    The vertex keeps its id; its outgoing arcs become the sink
    self-loop.  Arcs of other vertices pointing at it are untouched.
    """
    if not (0 <= vertex < game.n):
        raise InvalidGameError(f"vertex {vertex} out of range for {game.n} vertices")
    val = as_fraction(value)
    if not (0 <= val <= 1):
        raise InvalidGameError(f"sink value {val} outside [0, 1]")
    kinds = list(game.kinds)
    succs = list(game.succs)
    values = list(game.sink_values)
    kinds[vertex] = VertexKind.SINK
    succs[vertex] = (vertex,)
    values[vertex] = val
    return Game(tuple(kinds), tuple(succs), tuple(values))


def merge_sink_neighbors(game: Game) -> Game:
    """Collapse each positional vertex's sink arcs onto its best one.

    A MAX vertex with several sink successors keeps a single arc to the
    highest-valued of them (smallest id on ties); a MIN vertex keeps the
    lowest-valued.  Optimal values are unchanged: the discarded arcs are
    dominated.  AVE vertices and vertex ids are untouched.
    """
    succs = list(game.succs)
    changed = False
    for v in range(game.n):
        if not game.is_positional(v):
            continue
        sink_targets = sorted({s for s in succs[v] if game.is_sink(s)})
        if len(sink_targets) < 2:
            continue
        best = argbest(game.kinds[v], sink_targets, game.sink_values)
        out: list[int] = []
        placed = False
        for s in succs[v]:
            if game.is_sink(s):
                if not placed:
                    out.append(best)
                    placed = True
            else:
                out.append(s)
        succs[v] = tuple(out)
        changed = True
    if not changed:
        return game
    return game.replace(succs=tuple(succs))
