"""Exact-solve benchmark for the ssg toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
its `src` directory.  One request is one game taken from text to
values along the path `ssg solve [--make-stopping] --algorithm A FILE`
runs: gamefile.parse, then dichotomy.make_stopping where the workload
says so, then cli.run_algorithm.  Requests run one at a time in a
single thread (a closed loop with one client) until S seconds of
request time have passed.

Every answer is certified outside the timed region the first time its
game is solved, and every later answer to the same game must be
identical.  A request the solver refuses (PreconditionError) or that
raises anything else is recorded and the run goes on.

With --trace 0 the last line of output holds the end-to-end metrics,
with --trace 1 the per-layer metrics of BENCHMARK.json.  Exit status is
1 when an answer is wrong, 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, Request, build_requests

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# a request cannot be interrupted from inside, so a watchdog ends the run
WATCHDOG_S = 150


class ProgramMissing(Exception):
    """The checkout has no loadable ssg package."""


class Watchdog(BaseException):
    """Raised by the alarm; not an Exception, so no handler in ssg swallows it."""


def load_program():
    """Import ssg and its command line module afresh from the checkout's src."""
    src = ROOT / "src"
    if not (src / "ssg" / "__init__.py").is_file():
        raise ProgramMissing(f"no ssg package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for key in [k for k in sys.modules if k == "ssg" or k.startswith("ssg.")]:
        del sys.modules[key]
    ssg = importlib.import_module("ssg")
    importlib.import_module("ssg.cli")
    if Path(ssg.__file__).resolve().parent != (src / "ssg").resolve():
        raise ProgramMissing(f"ssg was imported from {ssg.__file__}, not {src}")
    return ssg


def setup(workload, seed: int):
    """Median seconds of (import ssg + build the game texts), and the texts."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ssg = load_program()
        requests = build_requests(workload, seed)
        times.append(time.perf_counter() - start)
    return statistics.median(times), ssg, requests


def solve(ssg, request: Request):
    """One request: the calls the `ssg solve` command makes, by module attribute."""
    game = ssg.gamefile.parse(request.text)
    if request.make_stopping is not None:
        game = ssg.dichotomy.make_stopping(game, request.make_stopping)
    return game, ssg.cli.run_algorithm(game, request.algorithm)


def certify(ssg, game, values) -> str | None:
    """Why the values are not the game's optimal values, or None.

    On a stopping game the local optimality equations have a unique
    solution.  Otherwise a strategy for each player must hold the
    other to the values: MIN's best response to sigma and MAX's best
    response to tau both reproduce them, so the game's value lies
    both above and below them.
    """
    if len(values) != game.n:
        return f"{len(values)} values for {game.n} vertices"
    if ssg.check_stopping(game).stopping:
        report = ssg.check_local_optimality(game, values)
        if report.satisfied:
            return None
        return f"local optimality fails at {[v.vertex for v in report.violations[:5]]}"
    try:
        tau = ssg.greedy_strategies(game, values).tau
    except ssg.PreconditionError as exc:
        return f"non-stopping game: {exc}"
    sigma = progress_strategy(ssg, game, values)
    if ssg.best_response_min(game, sigma).values != values:
        return "non-stopping game: MIN holds MAX below the values"
    if ssg.best_response_max(game, tau).values != values:
        return "non-stopping game: MAX beats the values"
    return None


def progress_strategy(ssg, game, values):
    """A MAX strategy on locally optimal values that never stalls.

    In a non-stopping game the greedy readout can pick, among equally
    valued successors, one that keeps the play circling forever (worth
    0).  Here ties go to the successor fewest steps from leaving its
    value class: a sink, or a coin flip with a differently valued
    successor.  MIN is assumed to dodge, AVE to help.
    """
    kinds = ssg.VertexKind
    rank: list[int | None] = [None] * game.n
    for v in range(game.n):
        if game.is_sink(v) or (
            game.kinds[v] is kinds.AVE and any(values[s] != values[v] for s in game.succs[v])
        ):
            rank[v] = 0
    changed = True
    while changed:
        changed = False
        for v in range(game.n):
            if rank[v] is not None:
                continue
            tied = [rank[s] for s in game.succs[v] if values[s] == values[v]]
            if game.kinds[v] is kinds.MIN:
                found = None if None in tied else max(tied, default=0)
            else:
                found = min((r for r in tied if r is not None), default=None)
            if found is not None:
                rank[v] = found + 1
                changed = True
    choice = {}
    for v in game.max_vertices:
        best = max(values[s] for s in game.succs[v])
        tied = [s for s in game.succs[v] if values[s] == best]
        ranked = [s for s in tied if rank[s] is not None]
        choice[v] = min(ranked, key=lambda s: (rank[s], s)) if ranked else min(tied)
    return ssg.Strategy(ssg.Player.MAX, choice)


def _fingerprint(values) -> str:
    """Hash of a value vector, kept in place of the values themselves."""
    text = " ".join(f"{v.numerator}/{v.denominator}" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Loop:
    """Outcomes of one closed loop over a request list."""

    ssg: object
    requests: list[Request]
    # per distinct request index: ("answered", fingerprint) | ("refused",) | ("error", type)
    first: dict = field(default_factory=dict)
    # per request index, the fingerprint of the first answer; later ones must match
    answers: dict = field(default_factory=dict)
    attempted: int = 0
    answered: int = 0
    refused: int = 0
    errors: int = 0
    wrong: int = 0
    latencies: list = field(default_factory=list)
    request_s: float = 0.0
    stopped: bool = False  # the watchdog ended the run

    def run(self, count: int | None, seconds: float | None, tracer=None) -> float:
        """Send requests in list order, cycling, until count or seconds is reached.

        Returns the request seconds this call added.
        """
        spent = 0.0
        i = 0
        try:
            while (count is None or i < count) and (seconds is None or spent < seconds):
                index = i % len(self.requests)
                i += 1
                spent += self._send(index, tracer)
        except Watchdog:
            self.stopped = True
            print("watchdog: run stopped early", file=sys.stderr)
        finally:
            self.request_s += spent
        return spent

    def _send(self, index: int, tracer) -> float:
        """One request, its bookkeeping and, untimed, its check; returns its seconds."""
        request = self.requests[index]
        start = time.perf_counter()
        game = values = None
        try:
            if tracer is None:
                game, report = solve(self.ssg, request)
            else:
                with tracer.request(index):
                    game, report = solve(self.ssg, request)
            outcome = ("answered",)
        except self.ssg.PreconditionError:
            outcome = ("refused",)
        except Exception as exc:  # noqa: BLE001 - a failing request must not end the run
            outcome = ("error", type(exc).__name__)
            if self.errors == 0:
                traceback.print_exc(file=sys.stderr)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if outcome[0] == "answered":
            self.answered += 1
            self.latencies.append(elapsed)
            values = report.values
            outcome = ("answered", _fingerprint(values))
        elif outcome[0] == "refused":
            self.refused += 1
        else:
            self.errors += 1
        self._check(index, outcome, game, values, request)
        return elapsed

    def _check(self, index: int, outcome: tuple, game, values, request: Request) -> None:
        self.first.setdefault(index, outcome)
        if outcome[0] != "answered":
            return
        known = self.answers.get(index)
        if known is None:
            self.answers[index] = outcome[1]
            reason = certify(self.ssg, game, values)
        else:
            reason = None if known == outcome[1] else "differs from an earlier answer"
        if reason is not None:
            self.wrong += 1
            print(f"wrong answer to request {index} ({request.label}): {reason}", file=sys.stderr)

    def digest(self, count: int) -> tuple[int, str]:
        """How many leading requests are covered, and a hash of their outcomes."""
        h = hashlib.sha256()
        covered = 0
        while covered < count and covered in self.first:
            h.update(f"{covered} {' '.join(self.first[covered])}\n".encode())
            covered += 1
        return covered, h.hexdigest()


def _emit(loop: Loop, values: dict, kind: str) -> None:
    """Print the result line with every metric BENCHMARK.json lists under kind."""
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}
    print(json.dumps({
        "correct": loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.errors + loop.wrong,
        "metrics": metrics,
    }))


def _summary(name: str, seed: int, loop: Loop, workload) -> None:
    covered, digest = loop.digest(workload.trace_size)
    print(
        f"workload={name} seed={seed} attempted={loop.attempted} answered={loop.answered} "
        f"refused={loop.refused} error={loop.errors} wrong={loop.wrong} "
        f"latency_samples={len(loop.latencies)} distinct_games={len(loop.first)} "
        f"request_s={loop.request_s:.3f}"
    )
    print(f"digest workload={name} seed={seed} first={covered} sha256={digest}")
    print(f"params {json.dumps(workload.params)}")


def measure(name: str, seed: int, seconds: float) -> int:
    workload = WORKLOADS[name]
    setup_s, ssg, requests = setup(workload, seed)
    loop = Loop(ssg, requests)
    loop.run(None, seconds)
    _summary(name, seed, loop, workload)
    if not loop.latencies:
        print("no request was answered", file=sys.stderr)
        return 1
    lat = sorted(loop.latencies)
    values = {
        "solve_p50_s": statistics.median(lat),
        "solve_p90_s": statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0],
        "solved_per_s": loop.answered / loop.request_s,
        "answered_share": loop.answered / loop.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    _emit(loop, values, "end_to_end")
    return 0 if loop.wrong == 0 else 1


def trace(name: str, seed: int, seconds: float) -> int:
    workload = WORKLOADS[name]
    _, ssg, requests = setup(workload, seed)
    size = workload.trace_size
    loop = Loop(ssg, requests)
    # the first pass certifies the answers and warms the interpreter up;
    # later untraced passes alternate with the traced ones
    loop.run(size, None)
    refused, errors = loop.refused, loop.errors
    passes = []
    untraced_s = []
    traced_s = []
    while not loop.stopped and (not passes or sum(untraced_s) + sum(traced_s) < seconds):
        untraced_s.append(loop.run(size, None))
        tracer = Tracer()
        tracer.install()
        try:
            traced_s.append(loop.run(size, None, tracer))
        finally:
            tracer.uninstall()
        passes.append(tracer)
    _summary(name, seed, loop, workload)
    if not passes:
        print("no traced pass finished", file=sys.stderr)
        return 1
    tables = [t.metrics() for t in passes]
    values = dict(tables[0])
    for key in values:
        if key.endswith("_s"):
            values[key] = statistics.median(t[key] for t in tables)
        elif any(t[key] != values[key] for t in tables):
            print(f"work count {key} differs between traced passes", file=sys.stderr)
    values.update({
        "trace.overhead_ratio": statistics.median(traced_s) / statistics.median(untraced_s),
        "requests.refused": refused,
        "requests.error": errors,
    })
    out = ROOT / "perfbench" / "out" / f"spans-{name}-seed{seed}.tsv"
    passes[-1].write(out)
    overhead = values["trace.overhead_ratio"]
    print(
        f"{len(passes)} traced passes of {size} requests; tracing overhead x{overhead:.3f}; "
        f"spans written to {out.relative_to(ROOT)}"
    )
    _emit(loop, values, "per_layer")
    return 0 if loop.wrong == 0 else 1


def _watchdog(signum, frame):
    raise Watchdog()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGALRM, _watchdog)
    signal.alarm(WATCHDOG_S)
    try:
        if args.trace:
            return trace(args.workload, args.seed, args.seconds)
        return measure(args.workload, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"cannot load the program: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)


if __name__ == "__main__":
    sys.exit(main())
