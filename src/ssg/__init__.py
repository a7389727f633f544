"""Exact solvers for simple stochastic games.

Everything is exact: values are fractions.Fraction, comparisons are
equalities, no floating point anywhere.
"""

from .errors import (
    GameError,
    InternalInvariantError,
    InvalidGameError,
    InvalidStrategyError,
    NotStoppingError,
    PreconditionError,
)
from .dichotomy import (
    dichotomy_solve,
    fixed_point_f,
    make_stopping,
    sink_denominator_lcm,
    solve_feedback,
    stern_brocot,
    value_denominator_bound,
)
from .evaluation import (
    BestResponse,
    OptimalityReport,
    StoppingReport,
    Violation,
    best_response_max,
    best_response_min,
    check_local_optimality,
    check_stopping,
    evaluate,
    greedy_strategies,
    one_step_value,
    switchable,
)
from .gamefile import parse, serialize
from .generate import Family, GeneratorSpec, generate
from .iteration import (
    HKTrace,
    all_open_strategy,
    hoffman_karp,
)
from .model import (
    Game,
    Player,
    Strategy,
    StrategyPair,
    ValueVector,
    VertexKind,
    as_fraction,
    game_of,
    merge_sink_neighbors,
    validate,
    vertex_to_sink,
)
from .oracle import OracleResult, enumerate_strategies, oracle_solve, strategy_count
from .solvers import (
    closed_values,
    solve_acyclic,
    solve_almost_acyclic_scc,
    solve_by_scc,
    solve_fork_fpt,
    solve_max_acyclic_scc,
)
from .structure import (
    StructureReport,
    analyze,
    component_game,
    feedback_vertex_set,
    is_feedback_set,
    strongly_connected_components,
)

__all__ = [name for name in dir() if not name.startswith("_")]
