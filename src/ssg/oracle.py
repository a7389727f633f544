"""Brute-force reference solver: exhaustive minimax over pure strategies.

Pure stationary strategies suffice for both players, so on small games
the optimal values can be computed by enumerating every strategy pair
and evaluating each one exactly.  This is the ground truth the clever
solvers are tested against; keep it dumb.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import InternalInvariantError, PreconditionError
from .model import Game, Player, Strategy, StrategyPair, ValueVector

DEFAULT_CAP = 10**6


def strategy_count(game: Game, owner: Player) -> int:
    """Number of pure stationary strategies of one player."""
    return math.prod(len(set(game.succs[v])) for v in game.owned_vertices(owner))


def enumerate_strategies(game: Game, owner: Player):
    """Yield every pure stationary strategy of one player.

    Vertices are scanned in id order and their successor choices in
    ascending id order (duplicate arcs collapse), so the enumeration
    order is lexicographic and reproducible.
    """
    vertices = game.owned_vertices(owner)
    pools = [sorted(set(game.succs[v])) for v in vertices]
    for combo in itertools.product(*pools):
        yield Strategy(owner, dict(zip(vertices, combo)))


@dataclass(frozen=True)
class OracleResult:
    values: ValueVector
    witness_pair: StrategyPair


def oracle_solve(game: Game, cap: int = DEFAULT_CAP) -> OracleResult:
    """Optimal values by exhaustive minimax, with an attaining pair.

    Computes vertexwise max over sigma of min over tau and the
    transposed min-max, asserts they agree, and returns the common
    vector together with the first (in enumeration order) strategy
    pair that attains it everywhere.

    Refuses when |Sigma| * |Tau| exceeds the cap.
    """
    from .evaluation import evaluate

    size = strategy_count(game, Player.MAX) * strategy_count(game, Player.MIN)
    if size > cap:
        raise PreconditionError(
            f"strategy space has {size} pairs, above the cap of {cap}"
        )

    sigmas = list(enumerate_strategies(game, Player.MAX))
    taus = list(enumerate_strategies(game, Player.MIN))

    lows = [
        tuple(map(min, *[evaluate(game, s, t) for t in taus]))
        if len(taus) > 1
        else evaluate(game, s, taus[0])
        for s in sigmas
    ]
    maximin = tuple(map(max, *lows)) if len(lows) > 1 else lows[0]

    highs = [
        tuple(map(max, *[evaluate(game, s, t) for s in sigmas]))
        if len(sigmas) > 1
        else evaluate(game, sigmas[0], t)
        for t in taus
    ]
    minimax = tuple(map(min, *highs)) if len(highs) > 1 else highs[0]

    if maximin != minimax:
        raise InternalInvariantError(
            f"max-min {maximin} differs from min-max {minimax}"
        )

    best_sigma = next(s for s, low in zip(sigmas, lows) if low == maximin)
    best_tau = next(
        (t for t in taus if evaluate(game, best_sigma, t) == maximin), None
    )
    if best_tau is None:
        raise InternalInvariantError("no MIN strategy attains the value vector")
    return OracleResult(maximin, StrategyPair(best_sigma, best_tau))
