"""Seeded random game instances in a few structural families.

Every family builds a valid game by construction (AVE outdegree 2,
dense ids, sinks in range) instead of rejection sampling, and the same
spec and seed always produce the identical game.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidGameError
from .model import Game, VertexKind, game_of

Proportions = tuple[float, float, float, float]

DEFAULT_PROPORTIONS: Proportions = (0.3, 0.3, 0.2, 0.2)


class Family(enum.Enum):
    """Structural shapes the generator can produce."""

    RANDOM = "random"
    ACYCLIC = "acyclic"
    SINGLE_CYCLE = "single_cycle"
    MAX_ACYCLIC = "max_acyclic"
    DAG_PLUS_K = "dag_plus_k"
    CATERPILLAR = "caterpillar"


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: size, family, mix of vertex kinds, seed.

    proportions are MAX, MIN, AVE, SINK weights (any nonnegative
    numbers; they are normalized).  k is the number of cycle-covering
    vertices for DAG_PLUS_K and ignored elsewhere.
    """

    n: int
    family: Family
    seed: int = 0
    proportions: Proportions = DEFAULT_PROPORTIONS
    k: int = 1


def generate(spec: GeneratorSpec) -> Game:
    """A valid game matching the spec; identical for identical specs."""
    if spec.n < 1:
        raise InvalidGameError(f"generator spec: n must be positive, got {spec.n}")
    if not all(math.isfinite(p) and p >= 0 for p in spec.proportions) or not any(spec.proportions):
        raise InvalidGameError(
            "generator spec: proportions must be finite and nonnegative, not all zero"
        )
    rng = random.Random(spec.seed)
    build = {
        Family.RANDOM: _random_game,
        Family.ACYCLIC: _acyclic_game,
        Family.SINGLE_CYCLE: _single_cycle_game,
        Family.MAX_ACYCLIC: _max_acyclic_game,
        Family.DAG_PLUS_K: _dag_plus_k_game,
        Family.CATERPILLAR: _caterpillar_game,
    }[spec.family]
    return build(spec, rng)


def _sink_value(rng: random.Random) -> Fraction:
    den = rng.randint(1, 8)
    return Fraction(rng.randint(0, den), den)


def _playable_counts(total: int, proportions: Proportions) -> tuple[int, int, int]:
    """Split total playable vertices into MAX/MIN/AVE by largest remainder."""
    weights = proportions[:3]
    scale = sum(weights)
    if scale == 0:
        weights, scale = (1.0, 1.0, 1.0), 3.0
    exact = [total * w / scale for w in weights]
    counts = [int(x) for x in exact]
    remainders = sorted(
        range(3), key=lambda i: (exact[i] - counts[i], -i), reverse=True
    )
    for i in range(total - sum(counts)):
        counts[remainders[i % 3]] += 1
    return counts[0], counts[1], counts[2]


def _sink_count(spec: GeneratorSpec, minimum: int) -> int:
    share = spec.proportions[3] / sum(spec.proportions)
    return max(minimum, round(spec.n * share))


def _shuffled_kinds(
    rng: random.Random, total: int, proportions: Proportions
) -> list[VertexKind]:
    n_max, n_min, n_ave = _playable_counts(total, proportions)
    kinds = (
        [VertexKind.MAX] * n_max
        + [VertexKind.MIN] * n_min
        + [VertexKind.AVE] * n_ave
    )
    rng.shuffle(kinds)
    return kinds


def _caterpillar_game(spec: GeneratorSpec, rng: random.Random) -> Game:
    # chain of n coin flips; the root is worth exactly 2^-n
    n = spec.n
    one, zero = n, n + 1
    rows: list[tuple] = []
    for i in range(n):
        onward = i + 1 if i + 1 < n else one
        rows.append(("ave", onward, zero))
    rows.append(("sink", 1))
    rows.append(("sink", 0))
    return game_of(rows)


def _acyclic_game(spec: GeneratorSpec, rng: random.Random) -> Game:
    n = spec.n
    n_sink = min(_sink_count(spec, 2), n - 1) if n > 2 else max(1, n - 1)
    first_sink = n - n_sink
    kinds = _shuffled_kinds(rng, first_sink, spec.proportions)
    rows: list[tuple] = []
    for v in range(first_sink):
        if kinds[v] is VertexKind.AVE:
            out = [rng.randrange(v + 1, n) for _ in range(2)]
        else:
            degree = rng.randint(1, min(3, n - v - 1))
            out = [rng.randrange(v + 1, n) for _ in range(degree)]
        rows.append((kinds[v].value, *out))
    for _ in range(n_sink):
        rows.append(("sink", _sink_value(rng)))
    return game_of(rows)


def _random_game(spec: GeneratorSpec, rng: random.Random) -> Game:
    # arbitrary arcs; the result may well not be stopping
    n = spec.n
    n_sink = min(_sink_count(spec, 1), n - 1) if n > 1 else 1
    first_sink = n - n_sink
    kinds = _shuffled_kinds(rng, first_sink, spec.proportions)
    rows: list[tuple] = []
    for v in range(first_sink):
        degree = 2 if kinds[v] is VertexKind.AVE else rng.randint(1, min(3, n - 1))
        out = [rng.randrange(n) for _ in range(degree)]
        rows.append((kinds[v].value, *out))
    for _ in range(n_sink):
        rows.append(("sink", _sink_value(rng)))
    return game_of(rows)


def _single_cycle_game(spec: GeneratorSpec, rng: random.Random) -> Game:
    if spec.n < 3:
        raise InvalidGameError("generator spec: single_cycle needs n >= 3")
    n = spec.n
    n_sink = min(_sink_count(spec, 2), n - 1)
    length = n - n_sink
    kinds = _shuffled_kinds(rng, length, spec.proportions)
    rows: list[tuple] = []
    for v in range(length):
        onward = (v + 1) % length
        sink = rng.randrange(length, n)
        if kinds[v] is VertexKind.AVE:
            # mostly escaping coins; sometimes a coin that just passes through
            second = sink if rng.random() < 0.7 else onward
            rows.append(("ave", onward, second))
        elif rng.random() < 0.5:
            rows.append((kinds[v].value, onward, sink))
        else:
            rows.append((kinds[v].value, onward))
    for _ in range(n_sink):
        rows.append(("sink", _sink_value(rng)))
    return game_of(rows)


def _max_acyclic_game(spec: GeneratorSpec, rng: random.Random) -> Game:
    """One strongly connected component where MAX never forks.

    A base cycle keeps the component connected; extra in-component
    chords hang off MIN and AVE vertices only, so every MAX vertex
    keeps exactly one arc on a cycle.
    """
    if spec.n < 4:
        raise InvalidGameError("generator spec: max_acyclic needs n >= 4")
    n = spec.n
    n_sink = min(_sink_count(spec, 2), n - 2)
    length = n - n_sink
    kinds = _shuffled_kinds(rng, length, spec.proportions)
    rows: list[tuple] = []
    for v in range(length):
        onward = (v + 1) % length
        sink = rng.randrange(length, n)
        kind = kinds[v]
        if kind is VertexKind.AVE:
            roll = rng.random()
            if roll < 0.4:
                second = sink
            elif roll < 0.7 and length > 1:
                second = rng.randrange(length)
            else:
                second = onward
            rows.append(("ave", onward, second))
        elif kind is VertexKind.MIN:
            out = [onward]
            if rng.random() < 0.4 and length > 1:
                out.append(rng.randrange(length))
            if rng.random() < 0.5:
                out.append(sink)
            rows.append(("min", *out))
        else:
            out = [onward]
            if rng.random() < 0.6:
                out.append(sink)
            rows.append(("max", *out))
    for _ in range(n_sink):
        rows.append(("sink", _sink_value(rng)))
    return game_of(rows)


def _dag_plus_k_game(spec: GeneratorSpec, rng: random.Random) -> Game:
    """A DAG plus k vertices that each close one private cycle.

    Vertices 0..k-1 are AVE hubs; hub i jumps into its own block of the
    DAG, the block's last vertex points back at the hub, and the hub's
    second arc escapes to a sink.  The k cycles are vertex-disjoint, so
    any feedback vertex set needs at least one vertex per cycle and the
    hubs themselves form one of size exactly k; the sink escapes on
    every cycle also make the game stopping by construction.
    """
    k = spec.k
    if k < 1:
        raise InvalidGameError(f"generator spec: dag_plus_k needs k >= 1, got {spec.k}")
    n = spec.n
    n_sink = max(1, min(_sink_count(spec, 1), n - 3 * k))
    first_sink = n - n_sink
    dag_lo, dag_hi = k, first_sink
    if dag_hi - dag_lo < 2 * k:
        raise InvalidGameError(
            f"generator spec: dag_plus_k needs n >= {3 * k + n_sink} for k={k}"
        )
    kinds = _shuffled_kinds(rng, dag_hi - dag_lo, spec.proportions)
    block = (dag_hi - dag_lo) // k

    hub_rows: list[tuple] = []
    back_arc: dict[int, int] = {}
    for i in range(k):
        lo = dag_lo + i * block
        hi = dag_lo + (i + 1) * block if i + 1 < k else dag_hi
        entry = rng.randrange(lo, hi - 1)
        closer = rng.randrange(entry + 1, hi)
        back_arc[closer] = i
        hub_rows.append(("ave", entry, rng.randrange(first_sink, n)))

    rows: list[tuple] = list(hub_rows)
    for v in range(dag_lo, dag_hi):
        kind = kinds[v - dag_lo]
        onward = v + 1 if v + 1 < dag_hi else rng.randrange(first_sink, n)
        out = [onward]
        if kind is VertexKind.AVE:
            out.append(rng.randrange(v + 1, n) if v + 1 < dag_hi else onward)
            kind_name = "ave"
        else:
            if rng.random() < 0.4 and v + 1 < dag_hi:
                out.append(rng.randrange(v + 1, n))
            kind_name = kind.value
        if v in back_arc:
            # the block's closing vertex must be positional to take the
            # extra arc back to its hub without disturbing coin arity
            kind_name = rng.choice(("max", "min"))
            out = [onward, back_arc[v]]
        rows.append((kind_name, *out))
    for _ in range(n_sink):
        rows.append(("sink", _sink_value(rng)))
    return game_of(rows)
