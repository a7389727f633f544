"""Strategy iteration for the maximizer.

The classic improvement scheme: fix a MAX strategy, compute MIN's exact
best response, switch MAX vertices that have a strictly better
successor under those values, repeat.  Each round strictly improves the
value vector, so the iteration terminates and the final pair is
optimal.  Known as the Hoffman-Karp algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import evaluation
from .errors import InternalInvariantError
from .evaluation import _assert_monotone, best_response_min
from .model import Game, Player, Strategy, StrategyPair, ValueVector, VertexKind, argbest
from .oracle import strategy_count


def switchable(
    game: Game, sigma: Strategy, values: ValueVector
) -> tuple[tuple[int, int], ...]:
    """MAX vertices that can strictly improve on their current choice.

    Expects values to be MIN's best response against sigma.  Each
    switchable vertex is paired with its best successor (ties to the
    smallest id); the result is sorted by vertex id.
    """
    found = []
    for v in game.max_vertices:
        best = argbest(VertexKind.MAX, game.succs[v], values)
        if values[best] > values[sigma[v]]:
            found.append((v, best))
    return tuple(found)


def all_open_strategy(game: Game) -> Strategy:
    """The canonical starting strategy: head for the sinks.

    Every MAX vertex with sink successors picks the most valuable one
    (ties to the smallest id); vertices without sink successors pick
    their smallest-id successor.
    """
    choice = {}
    for v in game.max_vertices:
        sinks = [s for s in game.succs[v] if game.is_sink(s)]
        if sinks:
            choice[v] = argbest(VertexKind.MAX, sinks, game.sink_values)
        else:
            choice[v] = min(game.succs[v])
    return Strategy(Player.MAX, choice)


@dataclass(frozen=True)
class HKTrace:
    """Record of one strategy iteration run.

    iterations counts improvement steps, strategies holds the visited
    MAX strategies (initial one included), final is the optimal
    (sigma, tau, values) triple.
    """

    iterations: int
    strategies: tuple[Strategy, ...]
    final: tuple[Strategy, Strategy, ValueVector]

    @property
    def values(self) -> ValueVector:
        return self.final[2]

    @property
    def pair(self) -> StrategyPair:
        return StrategyPair(self.final[0], self.final[1])


def hoffman_karp(
    game: Game,
    sigma0: Strategy | None = None,
    *,
    require_stopping: bool = True,
) -> HKTrace:
    """Solve a game by strategy iteration from sigma0.

    Every switchable vertex switches each round.  sigma0 defaults to
    all_open_strategy.  The public contract requires a stopping game;
    internal callers that can certify optimality of a stalled strategy
    by other means pass require_stopping=False.
    """
    if require_stopping:
        evaluation.require_stopping(game)
    sigma = sigma0 if sigma0 is not None else all_open_strategy(game)
    cap = strategy_count(game, Player.MAX)
    history = [sigma]
    tau, values = best_response_min(game, sigma)
    iterations = 0
    while True:
        candidates = switchable(game, sigma, values)
        if not candidates:
            return HKTrace(iterations, tuple(history), (sigma, tau, values))
        sigma = sigma.updated(dict(candidates))
        history.append(sigma)
        iterations += 1
        if iterations > cap:
            raise InternalInvariantError(
                "strategy iteration ran longer than the strategy space is large"
            )
        tau, new_values = best_response_min(game, sigma)
        _assert_monotone(
            values, new_values, [v for v, _ in candidates], decreasing=False
        )
        values = new_values
