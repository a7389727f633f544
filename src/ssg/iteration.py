"""Strategy iteration for the maximizer.

The classic improvement scheme: fix a MAX strategy, compute MIN's exact
best response, switch MAX vertices that have a strictly better
successor under those values, repeat.  Each round strictly improves the
value vector, so the iteration terminates and the final pair is
optimal.  Known as the Hoffman-Karp algorithm; its rounds run in
evaluation._improve, the loop both best responses share.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import evaluation
from .evaluation import _improve, best_response_min
from .model import Game, Player, Strategy, StrategyPair, ValueVector, VertexKind, argbest
from .oracle import strategy_count


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
    MAX strategies (initial one included), pair is the optimal
    (sigma, tau) pair and values its value vector.
    """

    iterations: int
    strategies: tuple[Strategy, ...]
    pair: StrategyPair
    values: ValueVector


def hoffman_karp(
    game: Game,
    sigma0: Strategy | None = None,
    *,
    require_stopping: bool = True,
) -> HKTrace:
    """Solve a game by strategy iteration from sigma0.

    Every switchable vertex switches each round, for at most as many
    rounds as MAX has strategies.  sigma0 defaults to
    all_open_strategy.  The public contract requires a stopping game;
    internal callers that can certify optimality of a stalled strategy
    by other means pass require_stopping=False.
    """
    if require_stopping:
        evaluation.require_stopping(game)
    sigma = sigma0 if sigma0 is not None else all_open_strategy(game)
    history, (tau, values) = _improve(
        game,
        sigma,
        lambda s: best_response_min(game, s),
        cap=strategy_count(game, Player.MAX),
    )
    return HKTrace(len(history) - 1, tuple(history), StrategyPair(history[-1], tau), values)
