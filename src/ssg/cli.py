"""Command line front end: solve, classify, generate, bench.

Exit codes: 0 on success, 1 for input errors, 2 when a solver refuses
an instance outside its documented domain, 3 when an internal
invariant breaks (a bug).
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .dichotomy import make_stopping, solve_feedback
from .errors import (
    GameError,
    InternalInvariantError,
    NotStoppingError,
    PreconditionError,
)
from .evaluation import check_stopping, greedy_strategies, require_stopping
from .gamefile import parse, serialize
from .generate import DEFAULT_PROPORTIONS, Family, GeneratorSpec, generate
from .iteration import hoffman_karp
from .model import Game, ValueVector
from .oracle import oracle_solve
from .solvers import (
    solve_acyclic,
    solve_almost_acyclic_scc,
    solve_by_scc,
    solve_fork_fpt,
    solve_max_acyclic_scc,
)
from .structure import feedback_vertex_set

FORK_WEIGHT_LIMIT = 10
FEEDBACK_SIZE_LIMIT = 3


@dataclass
class RunReport:
    algorithm: str
    values: ValueVector
    iterations: int | None
    subsolver_calls: int | None
    seconds: float


class _Counting:
    """Wraps a solver and counts how many times it runs."""

    def __init__(self, solver):
        self.solver = solver
        self.calls = 0

    def __call__(self, game: Game) -> ValueVector:
        self.calls += 1
        return self.solver(game)


def choose_algorithm(game: Game) -> str:
    """The AUTO dispatch order, cheapest structure first."""
    report = game.structure
    if report.is_acyclic:
        return "acyclic"
    if report.k_p == 0 and report.k_a == 0:
        return "almost_acyclic"
    if report.is_max_acyclic:
        return "max_acyclic"
    if report.k_p + report.k_a <= FORK_WEIGHT_LIMIT:
        return "fork_fpt"
    # feedback and hk both refuse a non-stopping game; hk does so at once
    stopping = check_stopping(game).stopping
    if stopping and feedback_vertex_set(game, FEEDBACK_SIZE_LIMIT) is not None:
        return "feedback"
    return "hk"


def _hk(game: Game):
    trace = hoffman_karp(game)
    return trace.values, trace.iterations, None


def _bisection(game: Game, k_max: int | None):
    require_stopping(game)  # refuse before the exponential set search
    cover = feedback_vertex_set(game, k_max)
    if cover is None:
        raise PreconditionError(f"no feedback vertex set of size <= {k_max}")
    counter = _Counting(solve_acyclic)
    values = solve_feedback(game, cover, counter)
    return values, None, counter.calls


# Name -> solver returning (values, iterations, subsolver calls).  Entries
# look their solvers up when called, so rebinding a module global (as
# tracing does) reaches every solve.
SOLVERS = {
    "acyclic": lambda game: (solve_acyclic(game), None, None),
    "almost_acyclic": lambda game: (solve_by_scc(game, solve_almost_acyclic_scc), None, None),
    "max_acyclic": lambda game: (solve_by_scc(game, solve_max_acyclic_scc), None, None),
    "fork_fpt": lambda game: (solve_fork_fpt(game), None, None),
    "dichotomy": lambda game: _bisection(game, 1),
    "feedback": lambda game: _bisection(game, None),
    "hk": _hk,
    "oracle": lambda game: (oracle_solve(game).values, None, None),
}
ALGORITHMS = ("auto", *SOLVERS)


def run_algorithm(game: Game, name: str) -> RunReport:
    """Solve with the named algorithm and time it."""
    started = time.perf_counter()
    if name == "auto":
        name = choose_algorithm(game)
    if name not in SOLVERS:
        raise PreconditionError(f"unknown algorithm {name!r}")
    values, iterations, calls = SOLVERS[name](game)
    seconds = time.perf_counter() - started
    return RunReport(name, values, iterations, calls, seconds)


def _rational(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _load(path: str) -> Game:
    return parse(Path(path).read_text(encoding="utf-8"))


def solve_command(args: argparse.Namespace) -> int:
    original = game = _load(args.file)
    if args.make_stopping is not None:
        game = make_stopping(original, args.make_stopping or None)
    requested = args.algorithm
    try:
        report = run_algorithm(game, requested)
    except NotStoppingError as exc:
        exc.args = (f"{exc} (rerun with --make-stopping to solve a nearby stopping game)",)
        raise
    chosen = report.algorithm + (" (auto)" if requested == "auto" else "")
    print(f"algorithm: {chosen}")
    print(
        f"vertices: {original.n} (max {original.n_max}, min {original.n_min}, "
        f"ave {original.n_ave})"
    )
    if report.iterations is not None:
        print(f"iterations: {report.iterations}")
    if report.subsolver_calls is not None:
        print(f"subsolver calls: {report.subsolver_calls}")
    print(f"time: {report.seconds:.4f}s")
    print("values:")
    for v, value in enumerate(report.values[: original.n]):
        print(f"  {v} = {_rational(value)}")
    if args.strategies:
        try:
            pair = greedy_strategies(game, report.values)
        except PreconditionError as exc:  # the values came from a solver
            raise InternalInvariantError(str(exc)) from exc
        print("strategies:")
        for label, strategy in (("max", pair.sigma), ("min", pair.tau)):
            for v in strategy.support:
                # make_stopping keeps each arc's slot, so a chain head
                # maps back to the arc it replaced
                target = original.succs[v][game.succs[v].index(strategy[v])]
                print(f"  {label} {v} -> {target}")
    return 0


def classify_command(args: argparse.Namespace) -> int:
    game = _load(args.file)
    report = game.structure
    n_sink = game.n - game.n_max - game.n_min - game.n_ave
    cyclic = len({report.component_of[x] for x, _ in report.cycle_arcs})
    print(
        f"vertices: {game.n} (max {game.n_max}, min {game.n_min}, "
        f"ave {game.n_ave}, sink {n_sink})"
    )
    print(f"components: {len(report.components)} ({cyclic} cyclic)")
    print(f"cycle arcs: {len(report.cycle_arcs)}")
    print(f"k_p: {report.k_p} (fork vertices: {_vertex_list(report.fork_positional)})")
    print(f"k_a: {report.k_a} (fork vertices: {_vertex_list(report.fork_average)})")
    for label, flag in (
        ("acyclic", report.is_acyclic),
        ("max_acyclic", report.is_max_acyclic),
        ("min_acyclic", report.is_min_acyclic),
        ("almost_acyclic", report.is_almost_acyclic),
    ):
        print(f"{label}: {'yes' if flag else 'no'}")
    cover = feedback_vertex_set(game, args.fvs_max)
    if cover is None:
        print(f"feedback vertex set: none of size <= {args.fvs_max}")
    else:
        members = ", ".join(str(v) for v in cover) or "empty"
        print(f"feedback vertex set: size {len(cover)} ({members})")
    return 0


def _vertex_list(forks) -> str:
    return ", ".join(str(v) for v in sorted(forks)) or "none"


def generate_command(args: argparse.Namespace) -> int:
    spec = GeneratorSpec(
        n=args.n,
        family=Family(args.family),
        seed=args.seed,
        proportions=args.proportions,
        k=args.k,
    )
    text = serialize(generate(spec))
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def bench_command(args: argparse.Namespace) -> int:
    # every game is built before the header, so a size the family cannot
    # build is an input error with no rows printed
    specs = [
        GeneratorSpec(
            n=size,
            family=Family(args.family),
            seed=args.seed + instance,
            proportions=args.proportions,
            k=args.k,
        )
        for instance, size in enumerate(s for s in args.sizes for _ in range(args.reps))
    ]
    games = [generate(spec) for spec in specs]
    print(
        f"{'solver':>15} {'n':>8} {'n_max':>6} {'n_ave':>6} "
        f"{'iters':>7} {'calls':>7} {'time_s':>10} {'status':>8}"
    )
    errors = 0
    for spec, game in zip(specs, games):
        for solver in args.solvers:
            try:
                run = run_algorithm(game, solver)
                status = "ok"
                iters = "" if run.iterations is None else run.iterations
                calls = "" if run.subsolver_calls is None else run.subsolver_calls
                secs = f"{run.seconds:.4f}"
            except PreconditionError:
                status, iters, calls, secs = "refused", "", "", ""
            except InternalInvariantError as exc:
                print(f"internal invariant violated: {exc}", file=sys.stderr)
                status, iters, calls, secs = "error", "", "", ""
                errors += 1
            print(
                f"{solver:>15} {spec.n:>8} {game.n_max:>6} {game.n_ave:>6} "
                f"{iters!s:>7} {calls!s:>7} {secs:>10} {status:>8}"
            )
            print(
                f"#row solver={solver} n={spec.n} n_max={game.n_max} "
                f"n_ave={game.n_ave} seed={spec.seed} "
                f"iterations={iters} subsolver_calls={calls} "
                f"time_s={secs} status={status}",
                flush=True,
            )
    return 3 if errors else 0


def _proportions(text: str) -> tuple[float, float, float, float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            "proportions must be four comma-separated numbers (max,min,ave,sink)"
        )
    try:
        values = tuple([float(p) for p in parts])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not all(math.isfinite(v) for v in values):
        raise argparse.ArgumentTypeError(f"proportions must be finite numbers, got {text}")
    return values


def _bounded_int(text: str, least: int, complaint: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if value < least:
        raise argparse.ArgumentTypeError(f"{value} {complaint}")
    return value


def _non_negative(text: str) -> int:
    return _bounded_int(text, 0, "is negative")


def _positive(text: str) -> int:
    return _bounded_int(text, 1, "is not positive")


def _int_list(text: str) -> list[int]:
    """Comma-separated positive sizes, at least one."""
    sizes = [_positive(p) for p in text.split(",") if p]
    if not sizes:
        raise argparse.ArgumentTypeError("expected at least one size")
    return sizes


def _solver_list(text: str) -> list[str]:
    names = [p.strip() for p in text.split(",") if p.strip()]
    if not names:
        raise argparse.ArgumentTypeError("expected at least one solver")
    for name in names:
        if name not in ALGORITHMS:
            raise argparse.ArgumentTypeError(f"unknown solver {name!r}")
    return names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssg", description="Exact solvers for simple stochastic games."
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve a game file exactly")
    solve.add_argument("file")
    solve.add_argument("--algorithm", choices=ALGORITHMS, default="auto")
    solve.add_argument(
        "--strategies", action="store_true", help="print greedy optimal strategies"
    )
    solve.add_argument(
        "--make-stopping",
        type=_non_negative,
        metavar="M",
        default=None,
        help="reroute arcs through M-step coin chains first (0 picks M automatically)",
    )
    solve.set_defaults(run=solve_command)

    classify = commands.add_parser("classify", help="report cycle structure")
    classify.add_argument("file")
    classify.add_argument(
        "--fvs-max",
        type=_non_negative,
        default=5,
        metavar="K",
        help="largest feedback vertex set to search for (default 5); the exact search "
        "branches over short cycles, so its cost grows as (cycle length)^K, not n^K",
    )
    classify.set_defaults(run=classify_command)

    gen = commands.add_parser("generate", help="write a random game file")
    gen.add_argument("--family", choices=[f.value for f in Family], required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--k", type=_positive, default=1, help="cycle covers for dag_plus_k")
    gen.add_argument(
        "--proportions",
        type=_proportions,
        default=DEFAULT_PROPORTIONS,
        metavar="MAX,MIN,AVE,SINK",
    )
    gen.add_argument("-o", "--output", default=None)
    gen.set_defaults(run=generate_command)

    bench = commands.add_parser("bench", help="time solvers over generated games")
    bench.add_argument("--family", choices=[f.value for f in Family], required=True)
    bench.add_argument("--sizes", type=_int_list, required=True, metavar="N1,N2,...")
    bench.add_argument(
        "--solvers", type=_solver_list, required=True, metavar="S1,S2,..."
    )
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--reps", type=_positive, default=1)
    bench.add_argument("--k", type=_positive, default=1)
    bench.add_argument(
        "--proportions",
        type=_proportions,
        default=DEFAULT_PROPORTIONS,
        metavar="MAX,MIN,AVE,SINK",
    )
    bench.set_defaults(run=bench_command)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.run(args)
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except (GameError, OSError, UnicodeDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
