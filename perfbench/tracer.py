"""Outside-in tracing of the ssg layers.

The tracer wraps public functions by rebinding their names in every
loaded `ssg` module that holds them: modules import each other's
functions by name (`from .structure import analyze`), so patching only
the home module would miss most calls.  Each call becomes a span with
a parent, a request id and start/end times; spans stay in memory and
are written out once the run ends.  A layer's self time is its span's
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, function) pairs timed as layers, each under "module.function"
TRACED = [
    ("gamefile", "parse"),
    ("structure", "analyze"),
    ("structure", "component_game"),
    ("structure", "feedback_vertex_set"),
    ("cli", "run_algorithm"),
    ("cli", "choose_algorithm"),
    ("solvers", "solve_by_scc"),
    ("solvers", "closed_values"),
    ("solvers", "solve_almost_acyclic_scc"),
    ("solvers", "solve_max_acyclic_scc"),
    ("solvers", "solve_fork_fpt"),
    ("solvers", "solve_acyclic"),
    ("evaluation", "solve_linear_system"),
    ("evaluation", "evaluate"),
    ("evaluation", "best_response_min"),
    ("evaluation", "check_local_optimality"),
    ("evaluation", "check_stopping"),
    ("iteration", "hoffman_karp"),
    ("dichotomy", "make_stopping"),
    ("dichotomy", "solve_feedback"),
    ("dichotomy", "stern_brocot"),
    ("model", "vertex_to_sink"),
]

PICKABLE = ["acyclic", "almost_acyclic", "max_acyclic", "fork_fpt", "feedback", "hk"]

# counts beyond calls, reported as 0 where a workload never does the work
WORK_COUNTS = [
    "structure.analyze.vertices",
    "evaluation.solve_linear_system.dim_sum",
    "evaluation.solve_linear_system.dim_max",
    "dichotomy.make_stopping.vertices_out",
    "iteration.hoffman_karp.iterations",
    "dichotomy.subsolver_calls",
] + [f"cli.choose_algorithm.picked.{pick}" for pick in PICKABLE]


def _work_counts(name: str, args: tuple, result, counts: Counter) -> None:
    """Exact work figures some layers carry beyond their call count."""
    if name == "structure.analyze":
        counts["structure.analyze.vertices"] += args[0].n
    elif name == "evaluation.solve_linear_system":
        dim = len(args[0])
        counts["evaluation.solve_linear_system.dim_sum"] += dim
        counts["evaluation.solve_linear_system.dim_max"] = max(
            counts["evaluation.solve_linear_system.dim_max"], dim
        )
    elif name == "dichotomy.make_stopping":
        counts["dichotomy.make_stopping.vertices_out"] += result.n
    elif name == "iteration.hoffman_karp":
        counts["iteration.hoffman_karp.iterations"] += result.iterations
    elif name == "cli.choose_algorithm":
        counts[f"cli.choose_algorithm.picked.{result}"] += 1
    elif name == "cli.run_algorithm" and result.subsolver_calls is not None:
        counts["dichotomy.subsolver_calls"] += result.subsolver_calls


class Tracer:
    """Span recorder for one traced pass; install() ... uninstall()."""

    def __init__(self) -> None:
        self.names = ["request"] + [f"{m}.{f}" for m, f in TRACED]
        self.counts: Counter = Counter(dict.fromkeys(WORK_COUNTS, 0))
        self.self_s: defaultdict = defaultdict(float)
        # one entry per span, in order of completion
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_request = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [name index, span id, start, child time]
        self._next_id = 0
        self._request = -1
        self._restore: list[tuple[object, str, object]] = []

    def _enter(self, index: int) -> list:
        frame = [index, self._next_id, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        index, span_id, start, child = frame
        duration = end - start
        name = self.names[index]
        self.counts[f"{name}.calls"] += 1
        self.self_s[name] += duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.span_id.append(span_id)
        self.span_name.append(index)
        self.span_request.append(self._request)
        self.span_parent.append(parent[1] if parent is not None else -1)
        self.span_start.append(start)
        self.span_end.append(end)

    @contextmanager
    def request(self, request_id: int):
        """Root span of one request; spans opened inside carry its id."""
        self._request = request_id
        frame = self._enter(0)
        try:
            yield
        finally:
            self._exit(frame)

    def _wrap(self, index: int, fn):
        name = self.names[index]
        enter, leave, counts = self._enter, self._exit, self.counts

        def traced(*args, **kwargs):
            frame = enter(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            _work_counts(name, args, result, counts)
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced function in every loaded ssg module."""
        modules = [m for key, m in sys.modules.items() if key == "ssg" or key.startswith("ssg.")]
        for index, (home, func) in enumerate(TRACED, start=1):
            original = getattr(sys.modules[f"ssg.{home}"], func)
            wrapper = self._wrap(index, original)
            for module in modules:
                if module.__dict__.get(func) is original:
                    self._restore.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._restore):
            setattr(module, func, original)
        self._restore.clear()

    def metrics(self) -> dict[str, float]:
        """Calls, self seconds and work counts keyed by metric name."""
        out: dict[str, float] = dict(self.counts)
        for name in self.names[1:]:
            out[f"{name}.calls"] = self.counts[f"{name}.calls"]
            out[f"{name}.self_s"] = self.self_s[name]
        return out

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines, in order of completion."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            for row in range(len(self.span_id)):
                out.write(
                    f"{self.span_id[row]}\t{self.span_parent[row]}\t"
                    f"{self.span_request[row]}\t{self.names[self.span_name[row]]}\t"
                    f"{self.span_start[row]:.9f}\t{self.span_end[row]:.9f}\n"
                )
